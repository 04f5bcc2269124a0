import math
import random
from fractions import Fraction
from itertools import combinations, product

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle_utils import (
    SpanMismatch,
    ambient_normal_by_solver,
    chart_by_solver,
    gfp_kernel_back_substitution,
    integer_kernel,
    lattice_index,
    linear_solver,
    rational_mod_p,
    saturate_by_kernels,
    solve_by_gauss_jordan,
    solve_integer,
)
from tropimpl import exactcore as ec
from tropimpl.errors import (
    DimensionMismatch,
    RankDeficient,
    ReconstructionFailed,
)
from tropimpl.polyhedra import Cone


# ---------------------------------------------------------------------------
# independent oracles

def oracle_smith_invariants(M):
    """Invariant factors via gcds of k x k minors (slow, independent)."""
    m, n = len(M), len(M[0])
    prev = 1
    out = []
    for k in range(1, min(m, n) + 1):
        g = 0
        for rows in combinations(range(m), k):
            for cols in combinations(range(n), k):
                sub = [[Fraction(M[i][j]) for j in cols] for i in rows]
                g = math.gcd(g, abs(int(oracle_det(sub))))
        if g == 0:
            break
        out.append(g // prev)
        prev = g
    return out


def oracle_det(M):
    n = len(M)
    if n == 0:
        return Fraction(1)
    if n == 1:
        return Fraction(M[0][0])
    total = Fraction(0)
    for j in range(n):
        sub = [row[:j] + row[j + 1:] for row in M[1:]]
        total += (-1) ** j * Fraction(M[0][j]) * oracle_det(sub)
    return total


def mat_mul(A, B):
    return [[sum(a * b for a, b in zip(row, col)) for col in zip(*B)]
            for row in A]


def oracle_solve(cols, b):
    """Solve sum_j x_j * cols[j] = b over Fraction, or None."""
    return solve_by_gauss_jordan([list(r) for r in zip(*cols)], b)


def oracle_in_integer_span(basis, v):
    sol = oracle_solve(list(basis), v)
    return sol is not None and all(x.denominator == 1 for x in sol)


def oracle_in_rational_span(gens, v):
    return oracle_solve(list(gens), v) is not None


def assert_saturation_by_box(gens, basis, ambient, radius=4):
    """Check Z^n  n  span(gens) == Z-span(basis) on a box around 0."""
    for pt in product(range(-radius, radius + 1), repeat=ambient):
        lhs = oracle_in_rational_span(gens, pt) if gens else all(x == 0 for x in pt)
        rhs = oracle_in_integer_span(basis, pt) if basis else all(x == 0 for x in pt)
        assert lhs == rhs, f"box oracle disagrees at {pt}"


# ---------------------------------------------------------------------------
# rationals and canonical forms

def test_rat_collapses_integers():
    assert ec.rat(4, 2) == 2 and isinstance(ec.rat(4, 2), int)
    q = ec.rat(1, 3)
    assert q * 3 == 1 and not isinstance(q, int)


def test_rat_json_round_trip():
    vals = [0, -7, ec.rat(22, 7), ec.rat(-3, 5), 10 ** 30]
    wire = [ec.rat_to_json(x) for x in vals]
    assert wire[2] == "22/7" and wire[3] == "-3/5" and wire[0] == 0
    assert [ec.rat_from_json(x) for x in wire] == vals
    assert ec.rat_from_json("6/2") == 3 and ec.rat_from_json("-5") == -5
    for bad in (True, False, 1.5, None, "1/0", "0/0", "1/", "x"):
        with pytest.raises(ValueError):
            ec.rat_from_json(bad)


def test_int_from_json_rejects_what_is_not_an_integer():
    assert [ec.int_from_json(x) for x in (3, -7, "6/2", "-5")] == [3, -7, 3, -5]
    for bad in (True, 1.7, 2.0, "3/2", "1/0", None):
        with pytest.raises(ValueError):
            ec.int_from_json(bad)


def test_div_exact_mixed_types():
    assert ec.div_exact(6, 3) == 2
    assert ec.div_exact(ec.rat(1, 2), 3) == ec.rat(1, 6)
    assert ec.div_exact(5, ec.rat(5, 2)) == 2
    assert isinstance(ec.div_exact(5, ec.rat(5, 2)), int)


def test_primitive_vector_and_canonical_sign():
    assert ec.primitive_vector((4, -6, 2)) == (2, -3, 1)
    assert ec.primitive_vector((ec.rat(1, 2), ec.rat(1, 3))) == (3, 2)
    assert ec.canonicalize_rational_vector((-2, 4, 0)) == (1, -2, 0)
    assert ec.canonicalize_rational_vector((0, 0)) == (0, 0)
    with pytest.raises(ValueError):
        ec.primitive_vector((0, 0))


# ---------------------------------------------------------------------------
# Hermite form and integer solves

def test_row_hermite_transform_and_shape():
    rng = random.Random(20240)
    for _ in range(25):
        m = rng.randint(1, 4)
        n = rng.randint(1, 4)
        M = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
        H, U, W = ec.row_hermite(M)
        assert mat_mul(U, M) == H
        assert mat_mul(ec.transpose(W), U) == ec.identity_matrix(m)
        assert abs(oracle_det([[Fraction(x) for x in row] for row in U])) == 1
        pivots = []
        for row in H:
            nz = next((j for j, x in enumerate(row) if x), None)
            if nz is None:
                continue
            assert row[nz] > 0
            pivots.append(nz)
        assert pivots == sorted(pivots)
        for k, c in enumerate(pivots):
            for i in range(k):
                assert 0 <= H[i][c] < H[k][c]


def oracle_integer_solvable(M, b):
    """M x = b has an integer solution iff b is integral, rank M equals
    rank [M | b], and the products of their invariant factors (the gcds
    of their maximal nonzero minors) are equal."""
    if not all(isinstance(x, int) for x in b):
        return False
    inv = oracle_smith_invariants(M)
    inv_b = oracle_smith_invariants([row + [x] for row, x in zip(M, b)])
    return len(inv) == len(inv_b) and math.prod(inv) == math.prod(inv_b)


def test_row_hermite_rejects_non_integral_entries():
    # 1/2 must not be read as 0: (1, 0) is not in the kernel of (1/2, 1),
    # and x = 2 solves (1/2) x = 1, x = 2
    with pytest.raises(ValueError):
        integer_kernel([[Fraction(1, 2), 1]])
    with pytest.raises(ValueError):
        linear_solver([[Fraction(1, 2)], [1]])
    with pytest.raises(ValueError):
        ec.row_hermite([(1, 2.5)])
    # integral entries of any numeric type are integers
    assert integer_kernel([[Fraction(2), 4]]) == [(2, -1)]
    assert integer_kernel([(2.0, 4)]) == [(2, -1)]
    assert linear_solver([[Fraction(2)], [1]])((4, 2)) == (2,)
    assert ec.row_hermite([(1, 2), (3, 4)]) == ec.row_hermite([[1, 2], [3, 4]])


def test_smith_form_matches_minor_gcd_oracle():
    # the decision of solve_integer against the invariant factors
    cases = [
        [[2, 4], [6, 8]],
        [[1, 2], [3, 4]],
        [[6]],
        [[2, 0, 0], [0, 3, 0]],
        [[1, 2, 3], [4, 5, 6], [7, 8, 9]],
    ]
    rng = random.Random(777)
    for _ in range(15):
        m = rng.randint(1, 3)
        n = rng.randint(1, 3)
        cases.append([[rng.randint(-8, 8) for _ in range(n)] for _ in range(m)])
    seen = set()
    for M in cases:
        rhs = [list(b) for b in product(range(-3, 4), repeat=len(M))]
        rhs += [[ec.rat(rng.randint(-9, 9), 2) for _ in M] for _ in range(3)]
        for b in rhs:
            x = solve_integer(M, b)
            solvable = oracle_integer_solvable(M, b)
            assert (x is not None) == solvable
            if x is not None:
                assert all(isinstance(t, int) for t in x)
                assert list(ec.mat_vec(M, x)) == b
            seen.add(solvable)
    assert seen == {True, False}


def test_smith_form_frozen_examples():
    # invariant factors (2, 4): the column lattice has index 8 in Z^2
    M = [[2, 4], [6, 8]]
    for b in [(2, 6), (0, 4), (2, 2)]:
        assert ec.mat_vec(M, solve_integer(M, b)) == b
    for b in [(1, 0), (0, 2), (ec.rat(1, 2), 3)]:
        assert solve_integer(M, b) is None
    # invariant factors (1, 2)
    M = [[1, 2], [3, 4]]
    assert ec.mat_vec(M, solve_integer(M, (1, 1))) == (1, 1)
    assert solve_integer(M, (0, 1)) is None


def test_lattice_normal_form_dispatch():
    # one normal form: the row Hermite form of M and of its transpose,
    # the latter with its transform deciding and solving M x = b
    M = [[2, 4], [6, 8]]
    H, U, _ = ec.row_hermite(M)
    assert H == [[2, 0], [0, 4]] and mat_mul(U, M) == H
    Ht, Ut, _ = ec.row_hermite(ec.transpose(M))
    assert Ht == [[2, 2], [0, 4]] and mat_mul(Ut, ec.transpose(M)) == Ht
    assert solve_integer(M, (2, 6)) == (1, 0)
    assert solve_integer(M, (0, 4)) == (2, -1)
    assert solve_integer(M, (0, 2)) is None


def test_det_matches_cofactor_oracle():
    rng = random.Random(5151)
    assert ec.det([]) == 1
    assert ec.det([[0, 1], [1, 0]]) == -1
    assert ec.det([[1, 2], [2, 4]]) == 0
    for _ in range(20):
        n = rng.randint(1, 4)
        M = [[ec.rat(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(n)]
             for _ in range(n)]
        assert ec.det(M) == oracle_det(M)
    # all-integer matrices stay in ints: zero leading entries force row
    # swaps, and a row made a combination of others makes them singular
    for _ in range(60):
        n = rng.randint(1, 5)
        M = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        for i in range(rng.randint(0, n - 1)):
            M[i][0] = 0
        if n > 1 and rng.random() < 0.3:
            a, b = rng.randint(-2, 2), rng.randint(-2, 2)
            M[-1] = [a * x + b * y for x, y in zip(M[0], M[-2])]
        d = ec.det(M)
        assert isinstance(d, int) and d == oracle_det(M)


def test_det_reads_the_shared_echelon():
    # a zero pivot column skipped partway: column 1 vanishes below the
    # first pivot, the elimination goes on to column 2, and the matrix is
    # singular
    M = [[1, 2, 3], [2, 4, 5], [3, 6, 8]]
    assert ec.det(M) == oracle_det(M) == 0
    assert ec.det([[0, 0, 1], [0, 1, 0], [2, 0, 0]]) == -2
    # odd permutations flip the sign, rows holding fractions divide by
    # their scale, and an integral result is an int
    cases = [
        [[0, 1], [1, 0]],
        [[0, 1, 0], [1, 0, 0], [0, 0, 1]],
        [[0, ec.rat(1, 2)], [ec.rat(1, 3), 0]],
        [[ec.rat(1, 2), 1], [1, ec.rat(1, 2)]],
        [[0, ec.rat(2, 3), 1], [ec.rat(3, 2), 0, 0], [0, 0, ec.rat(5, 7)]],
        [[ec.rat(2, 3), ec.rat(1, 3)], [ec.rat(3, 4), ec.rat(3, 4)]],
    ]
    rng = random.Random(1919)
    for _ in range(60):
        n = rng.randint(2, 5)
        M = [[ec.rat(rng.randint(-4, 4), rng.choice([1, 1, 2, 3]))
              for _ in range(n)] for _ in range(n)]
        M = [M[i] for i in rng.sample(range(n), n)]
        for i in range(rng.randint(0, n - 1)):
            M[i][0] = 0
        if rng.random() < 0.3:
            M[-1] = [x + y for x, y in zip(M[0], M[-2])]
        cases.append(M)
    for M in cases:
        d = ec.det(M)
        assert d == oracle_det(M)
        assert type(d) is int or d.denominator != 1


# ---------------------------------------------------------------------------
# kernels and saturation

def test_integer_kernel_annihilates_and_is_saturated():
    rng = random.Random(31337)
    for _ in range(30):
        m = rng.randint(1, 3)
        n = rng.randint(1, 5)
        M = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(m)]
        K = integer_kernel(M, n)
        for v in K:
            assert all(ec.dot(row, v) == 0 for row in M)
        assert len(K) == n - ec.rational_rank(M)
        # saturation: any integer point in the rational span of K must be an
        # integer combination of K
        for _ in range(5):
            coeffs = [Fraction(rng.randint(-4, 4), rng.choice([1, 2, 3])) for _ in K]
            v = [sum(c * k[i] for c, k in zip(coeffs, K)) for i in range(n)]
            if all(x.denominator == 1 for x in v):
                assert oracle_in_integer_span(K, [int(x) for x in v])


def test_integer_kernel_zero_matrix():
    K = integer_kernel([[0, 0, 0]], 3)
    assert K == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]


def test_saturate_full_rank_pair_is_unit_lattice():
    # generators are independent, so the rational span is the whole plane and
    # the saturation is all of Z^2
    sat = ec.saturate([(2, 2), (0, 4)])
    assert list(sat) == [(1, 0), (0, 1)]
    assert_saturation_by_box([(2, 2), (0, 4)], list(sat), 2)


def test_saturate_line_and_dependent_generators():
    sat = ec.saturate([(2, 4)])
    assert list(sat) == [(1, 2)]
    assert_saturation_by_box([(2, 4)], list(sat), 2)
    sat = ec.saturate([(2, 2), (4, 4)])
    assert list(sat) == [(1, 1)]
    sat = ec.saturate([(ec.rat(1, 2), ec.rat(1, 3))])
    assert list(sat) == [(3, 2)]


def test_saturate_idempotent_and_empty():
    rng = random.Random(555)
    for _ in range(20):
        n = rng.randint(1, 4)
        k = rng.randint(1, 3)
        gens = [tuple(rng.randint(-5, 5) for _ in range(n)) for _ in range(k)]
        sat1 = ec.saturate(gens, n)
        sat2 = ec.saturate(list(sat1), n)
        assert list(sat1) == list(sat2)
    assert len(ec.saturate([], 3)) == 0
    assert len(ec.saturate([(0, 0, 0)], 3)) == 0


@st.composite
def generator_sets(draw):
    """(n, generators) in Z^1..Z^6: random rows mixed with repeats, zero
    rows, rational rows and rows dependent on earlier ones."""
    n = draw(st.integers(1, 6))
    entry = st.integers(-4, 4) | st.integers(-60, 60)
    gens = []
    for kind in draw(st.lists(st.sampled_from(
            ["random", "random", "repeat", "zero", "rational", "dependent"]),
            max_size=8)):
        if kind == "random" or (kind in ("repeat", "dependent") and not gens):
            gens.append(tuple(draw(st.lists(entry, min_size=n, max_size=n))))
        elif kind == "repeat":
            gens.append(draw(st.sampled_from(gens)))
        elif kind == "zero":
            gens.append((0,) * n)
        elif kind == "rational":
            den = draw(st.integers(2, 6))
            gens.append(tuple(ec.rat(x, den) for x in draw(
                st.lists(entry, min_size=n, max_size=n))))
        else:
            a, b = draw(st.sampled_from(gens)), draw(st.sampled_from(gens))
            s, t = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
            gens.append(tuple(s * x + t * y for x, y in zip(a, b)))
    return n, gens


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(generator_sets())
def test_lattice_reads_match_kernel_of_kernel(case):
    # one factorization against the references: the kernel of the kernel,
    # one integer kernel and the index over a separate solve
    n, gens = case
    L = ec.saturate(gens, n)
    prim = [ec.primitive_vector(g) for g in gens if any(g)]
    assert L.vectors == saturate_by_kernels(gens, n)
    assert tuple(L) == L.vectors and len(L) == L.rank == len(L.vectors)
    assert L.equations == tuple(integer_kernel(prim, n))
    assert L.rank + len(L.equations) == n
    if all(isinstance(x, int) for g in gens for x in g):
        assert L.index == lattice_index(L.vectors, gens)
    cut = len(gens) // 2
    cone = Cone(gens[:cut], gens[cut:], n)
    assert cone.span == saturate_by_kernels(gens, n)
    assert cone._equations == L.equations
    assert cone.dim == L.rank
    if cone.dim == n - 1:
        assert cone.hyperplane_normal() == L.equations[0]
    else:
        with pytest.raises(DimensionMismatch):
            cone.hyperplane_normal()


@st.composite
def lattice_reads(draw):
    """(n, generators, x, off, u): k <= n generators in Z^1..Z^6, integer
    or rational and possibly dependent, a rational point x of their span,
    a point off it (None in rank n) and a rational functional u on the
    span's coordinates, nonzero when the rank is, read up to scale."""
    n = draw(st.integers(1, 6))
    k = draw(st.integers(0, n))
    entry = st.integers(-4, 4) | st.integers(-60, 60)
    frac = st.builds(ec.rat, st.integers(-30, 30), st.integers(1, 6))
    gens = [tuple(draw(st.lists(entry, min_size=n, max_size=n)))
            for _ in range(k)]
    if gens and draw(st.booleans()):
        a, b = draw(st.sampled_from(gens)), draw(st.sampled_from(gens))
        gens.append(tuple(2 * x - 3 * y for x, y in zip(a, b)))
    if gens and draw(st.booleans()):
        den = draw(st.integers(2, 6))
        gens[0] = tuple(ec.rat(x, den) for x in gens[0])
    cs = draw(st.lists(frac, min_size=len(gens), max_size=len(gens)))
    x = tuple(ec.rat(sum((c * g[i] for c, g in zip(cs, gens)), 0))
              for i in range(n))
    rank = ec.rational_rank([list(g) for g in gens])
    off = None
    if rank < n:
        # a multiple of an equation is orthogonal to the span, so x plus
        # it leaves the span
        L = ec.saturate(gens, n)
        e = draw(st.sampled_from(L.equations))
        t = draw(frac.filter(bool))
        off = tuple(a + t * b for a, b in zip(x, e))
    u = tuple(draw(st.lists(frac, min_size=rank, max_size=rank)))
    if rank and not any(u):
        u = (1,) + u[1:]
    return n, gens, x, off, u


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(lattice_reads())
def test_lattice_coordinates_and_pull_back_match_solves(case):
    # the dual basis read off the one factorization against a solve in the
    # lattice basis: the same coordinates of the same types, None off the
    # span, and the same canonical primitive pull-back of a functional
    n, gens, x, off, u = case
    L = ec.saturate(gens, n)
    k = L.rank
    chart = chart_by_solver(list(L.vectors), n)
    y = L.coordinates(x)
    assert y == chart(x)
    assert [type(t) for t in y] == [type(t) for t in chart(x)]
    assert tuple(sum(c * v[i] for c, v in zip(y, L.vectors))
                 for i in range(n)) == x
    if k < n:
        assert [[ec.dot(d, v) for v in L.vectors] for d in L._dual] \
            == ec.identity_matrix(k)
        assert all(isinstance(t, int) for d in L._dual for t in d)
        assert L.coordinates(off) is None and chart(off) is None
    if k:
        u = ec.primitive_vector(u)
        a = L.pull_back(u)
        assert a == ambient_normal_by_solver(L.vectors, L.equations)(u)
        assert all(isinstance(t, int) for t in a) and ec.vec_gcd(a) == 1
        values = [ec.dot(a, v) for v in L.vectors]
        ratio = next(ec.div_exact(s, t) for s, t in zip(values, u) if t)
        assert ratio > 0 and values == [ratio * t for t in u]
        assert ec.reduce_mod_subspace(a, L.equations) == a


def test_lattice_index_reads_generators_as_given():
    # the index counts the lattice the generators themselves span, not
    # their primitive multiples, and zero generators add nothing to it
    assert ec.saturate([(2, 0), (0, 3)]).index == 6
    assert ec.saturate([(2, 0), (4, 0), (0, 3), (0, 0)]).index == 6
    assert ec.saturate([(2, 3), (3, 2)]).index == 5
    assert ec.saturate([(2, 4, 6)]).index == 2
    assert ec.saturate([(2, 4), (3, 6)]).index == 1
    assert ec.saturate([], 3).index == 1
    assert ec.saturate([(0, 0)]).index == 1


def test_rational_kernel_canonical_basis():
    assert ec.rational_kernel([[1, 1, 1]]) == [(1, -1, 0), (1, 0, -1)]
    assert ec.rational_kernel([[0, 0]], 2) == [(1, 0), (0, 1)]
    assert ec.rational_kernel([[1, 0], [0, 1]]) == []
    rng = random.Random(99)
    for _ in range(30):
        m = rng.randint(1, 4)
        n = rng.randint(1, 5)
        M = [[Fraction(rng.randint(-6, 6), rng.choice([1, 1, 2])) for _ in range(n)]
             for _ in range(m)]
        K = ec.rational_kernel(M, n)
        assert len(K) == n - ec.rational_rank(M)
        for v in K:
            assert all(sum(row[j] * v[j] for j in range(n)) == 0 for row in M)
            assert ec.vec_gcd(v) == 1
            assert next(x for x in v if x) > 0


def test_lattice_index_hand_values():
    unit = [(1, 0), (0, 1)]
    assert lattice_index(unit, [(2, 0), (0, 3)]) == 6
    assert lattice_index(unit, [(1, 1), (1, -1)]) == 2
    assert lattice_index(unit, [(2, 0), (4, 0), (0, 3)]) == 6
    assert lattice_index([(1, 1)], [(3, 3)]) == 3
    assert lattice_index([], []) == 1
    with pytest.raises(SpanMismatch):
        lattice_index(unit, [(2, 0)])
    with pytest.raises(SpanMismatch):
        lattice_index([(1, 1)], [(1, 0)])
    with pytest.raises(SpanMismatch):
        # (1,1)/2 is inside the span but outside the integer lattice
        lattice_index([(2, 2)], [(1, 1)])


def test_lattice_index_counts_cosets():
    # coset-count oracle on a 2d example: residues of the box mod the sublattice
    sub = [(2, 1), (0, 3)]
    seen = set()
    for pt in product(range(60), repeat=2):
        # reduce pt modulo the sublattice by brute force search
        best = None
        for a in range(-30, 31):
            for b in range(-30, 31):
                q = (pt[0] - a * 2, pt[1] - a * 1 - b * 3)
                if 0 <= q[0] < 2 and 0 <= q[1] < 3:
                    best = q
                    break
            if best:
                break
        seen.add(best)
    assert len(seen) == lattice_index([(1, 0), (0, 1)], sub) == 6


def test_solve_integer():
    assert solve_integer([[2, 0], [0, 3]], (4, 9)) == (2, 3)
    assert solve_integer([[2]], (3,)) is None
    x = solve_integer([[1, 2], [2, 4]], (1, 2))
    assert x is not None and x[0] + 2 * x[1] == 1
    assert solve_integer([[1, 2], [2, 4]], (1, 3)) is None
    assert solve_integer([[1, 2], [2, 4]], (ec.rat(1, 2), 1)) is None


@st.composite
def linear_systems(draw):
    """An integer m x n matrix M = A B of rank at most r, often below
    min(m, n), and a rational b, consistent (M times a rational x) or
    drawn at random."""
    m = draw(st.integers(1, 4))
    n = draw(st.integers(1, 4))
    r = draw(st.integers(0, min(m, n)))
    small = st.integers(-3, 3)
    A = draw(st.lists(st.lists(small, min_size=r, max_size=r),
                      min_size=m, max_size=m))
    B = draw(st.lists(st.lists(small, min_size=n, max_size=n),
                      min_size=r, max_size=r))
    M = [[sum(a * b for a, b in zip(row, col)) for col in zip(*B)]
         if r else [0] * n for row in A]
    den = st.sampled_from([1, 1, 2, 3])
    if draw(st.booleans()):
        x = [ec.rat(draw(small), draw(den)) for _ in range(n)]
        b = [ec.rat(t) for t in ec.mat_vec(M, x)]
    else:
        b = [ec.rat(draw(st.integers(-5, 5)), draw(den)) for _ in range(m)]
    return M, b


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(linear_systems())
def test_linear_solver_matches_gauss_jordan(system):
    M, b = system
    x = linear_solver(M)(b)
    assert (x is None) == (solve_by_gauss_jordan(M, b) is None)
    if x is not None:
        assert list(ec.mat_vec(M, x)) == b
        # the rat convention: an integral entry is an int, never a
        # Fraction with denominator 1
        assert all(type(t) is int or t.denominator != 1 for t in x)
    z = solve_integer(M, b)
    assert (z is not None) == oracle_integer_solvable(M, b)
    if z is not None:
        assert all(type(t) is int for t in z)
        assert list(ec.mat_vec(M, z)) == b


def test_linear_solver_entries_follow_rat():
    # M^T has Hermite form [[1], [0]] with U = [[0, 1], [1, -2]], so a
    # half-integral b gives x = U^T (1/2, 0): an exact zero next to 1/2
    x = linear_solver([[2, 1]])((ec.rat(1, 2),))
    assert x == (0, ec.rat(1, 2)) and type(x[0]) is int
    assert solve_integer([[2, 1]], (ec.rat(1, 2),)) is None
    # one factorization serves every right-hand side
    solve = linear_solver([[1, 0], [0, 2], [1, 2]])
    assert solve((1, 2, 3)) == (1, 1)
    assert solve((1, 1, 2)) == (1, ec.rat(1, 2))
    assert solve((1, 1, 1)) is None
    assert linear_solver([])(()) == ()


# ---------------------------------------------------------------------------
# GF(p)

def test_prime_field_reduce_frozen():
    assert ec.reduce_vectors([(ec.rat(1, 3),)], 101) == [(34,)]
    assert ec.reduce_vectors([(ec.rat(1, 3),)], 103) == [(69,)]
    assert ec.reduce_vectors([(-1,)], 101) == [(100,)]
    # a vector whose denominator vanishes mod p has no image and is dropped
    assert ec.reduce_vectors(
        [(ec.rat(1, 3), -1), (2, ec.rat(1, 101)), (ec.rat(-1, 3), 5)],
        101) == [(34, 100), (67, 5)]


def test_gfp_kernel_frozen():
    K = ec.gfp_kernel([[1, 2, 3], [4, 5, 6]], 7)
    assert K == [(1, 5, 1)]


def test_gfp_kernel_matches_rational_on_safe_matrices():
    # entries are tiny compared to the prime, so pivot patterns agree and the
    # mod p kernel is the reduction of the rational one
    rng = random.Random(4242)
    p = ec.DEFAULT_PRIME
    for _ in range(25):
        m = rng.randint(1, 4)
        n = rng.randint(1, 5)
        M = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
        KQ = ec.rational_kernel(M, n)
        KP = ec.gfp_kernel(M, p, n)
        assert len(KQ) == len(KP)
        reduced = []
        for v in KQ:
            w = tuple(rational_mod_p(x, p) for x in v)
            lead = next(x for x in w if x)
            reduced.append(tuple(x * pow(lead, -1, p) % p for x in w))
        assert sorted(reduced) == sorted(KP)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.sampled_from([7, 2 ** 31 - 1]), st.data())
def test_gfp_kernel_matches_back_substitution(p, data):
    # M = A B with B of k < n rows has rank at most k < n: a kernel exists.
    # Widths on both sides of GFP_PYTHON_COLUMNS run both echelon forms;
    # entries come from a drawn seed, so a wide matrix costs one draw.
    wide = ec.GFP_PYTHON_COLUMNS
    n = data.draw(st.integers(1, 9) | st.integers(wide - 1, wide + 2))
    m = data.draw(st.integers(0, n + 2))
    k = data.draw(st.integers(0, n - 1))
    rng = random.Random(data.draw(st.integers(0, 2 ** 32)))
    A = [[rng.randrange(p) for _ in range(k)] for _ in range(m)]
    B = [[rng.randrange(p) for _ in range(n)] for _ in range(k)]
    M = [[sum(A[i][l] * B[l][j] for l in range(k)) % p for j in range(n)]
         for i in range(m)]
    assert ec.gfp_kernel(M, p, n) == gfp_kernel_back_substitution(M, p, n)


@pytest.mark.parametrize("p", [2, 3, 7, 101, 2 ** 31 - 1])
@settings(max_examples=10, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 2 ** 32))
def test_gfp_kernel_numpy_path_matches_back_substitution(p, seed):
    # Only widths above GFP_PYTHON_COLUMNS, so gfp_echelon and the back
    # substitution run.  The first k rows are base rows, full rank or
    # not; the others repeat one or add two, so the rank is at most k,
    # and m runs on both sides of n.  Entries are uniform or from 0, 1,
    # p // 2, p // 2 + 1 and p - 1, and some columns are zero.
    rng = random.Random(f"{p}:{seed}")
    n = rng.randint(ec.GFP_PYTHON_COLUMNS + 1, 130)
    m = rng.choice([rng.randint(1, n), rng.randint(n, n + 16)])
    k = min(m, n) if rng.random() < 0.5 else rng.randint(0, min(m, n))
    extremes = (0, 1, p // 2, p // 2 + 1, p - 1)
    edge = rng.random() < 0.5
    zero_cols = set(rng.sample(range(n), rng.randint(0, 3)))
    M = [[0 if j in zero_cols else
          rng.choice(extremes) if edge else rng.randrange(p)
          for j in range(n)] for _ in range(k)]
    for _ in range(m - k):
        if not k:
            M.append([0] * n)
        elif rng.random() < 0.5:
            M.append(list(rng.choice(M[:k])))
        else:
            a, b = rng.choice(M[:k]), rng.choice(M[:k])
            M.append([(x + y) % p for x, y in zip(a, b)])
    rng.shuffle(M)
    assert ec.gfp_kernel(M, p, n) == gfp_kernel_back_substitution(M, p, n)


def test_gfp_budget_keeps_balanced_updates_inside_int64():
    # an entry starts below p, takes budget updates of at most (p // 2)^2
    # and is then shifted by p // 2 to balance it
    primes = list(sympy.primerange(2, 200)) + [65521]
    q = ec.PRIME_BOUND
    for _ in range(50):
        q = sympy.prevprime(q)
        primes.append(q)
    for p in primes:
        h = p // 2
        assert p - 1 + ec._gfp_budget(p) * h * h + h < 2 ** 63
    assert ec._gfp_budget(2 ** 31 - 1) >= 8


def test_kernel_basis_dispatch():
    M = [[1, 1, 1]]
    assert ec.rational_kernel(M) == [(1, -1, 0), (1, 0, -1)]
    assert ec.gfp_kernel(M, 7) == [(1, 6, 0), (1, 0, 6)]


# ---------------------------------------------------------------------------
# Chinese remaindering

def test_crt_rational_reconstruct_frozen():
    # residues of 1/3 modulo 101 and 103
    out = ec.crt_rational_reconstruct([(34,), (69,)], [101, 103])
    assert out == (ec.rat(1, 3),)


def test_crt_round_trip_random():
    rng = random.Random(2718)
    primes = [10007, 10009, 10037, 10039]
    for _ in range(40):
        num = rng.randint(-500, 500)
        den = rng.randint(1, 500)
        q = ec.rat(num, den)
        vecs = [(rational_mod_p(q, p),) for p in primes]
        assert ec.crt_rational_reconstruct(vecs, primes) == (q,)


def test_crt_reconstruction_failure_is_detected():
    # modulo 11 the bound is sqrt(11/2) = 2, and the residues a/b with
    # |a|, b <= 2 are exactly {0, 1, 2, 5, 6, 9, 10}; residue 3 has no
    # admissible fraction
    with pytest.raises(ReconstructionFailed):
        ec.rational_reconstruction(3, 11)


def test_rational_reconstruction_forward_backward():
    p = 10007
    for q in [ec.rat(-2, 5), ec.rat(7, 9), 13, ec.rat(-41, 3)]:
        num, den = ec.rational_reconstruction(rational_mod_p(q, p), p)
        assert ec.rat(num, den) == q


# ---------------------------------------------------------------------------
# Gale duality

def test_gale_dual_frozen():
    B = ec.gale_dual([[1, 1, 1], [0, 1, 2]])
    assert B == [(1, -2, 1)]


def test_gale_dual_orthogonal_and_saturated():
    rng = random.Random(8080)
    produced = 0
    while produced < 20:
        d = rng.randint(1, 3)
        n = rng.randint(d + 1, d + 4)
        A = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(d)]
        if ec.rational_rank(A) < d:
            continue
        B = ec.gale_dual(A)
        assert len(B) == n - d
        for row in A:
            for b in B:
                assert ec.dot(row, b) == 0
        produced += 1


def test_gale_dual_rank_deficient():
    with pytest.raises(RankDeficient):
        ec.gale_dual([[1, 2, 3], [2, 4, 6]])


def test_rref_and_subspace_reduction():
    # reduce_mod_subspace on saturated (Hermite) bases, pivots above 1 too
    rng = random.Random(4747)
    bases = [ec.saturate([(2, 4, 6), (1, 2, 4)]), ec.saturate([(2, 1, 0)]),
             ec.saturate([(3, 0, 1, 2), (0, 2, 1, 0)])]
    assert list(bases[1]) == [(2, 1, 0)]
    for _ in range(20):
        n = rng.randint(2, 5)
        gens = [tuple(rng.randint(-4, 4) for _ in range(n))
                for _ in range(rng.randint(1, n - 1))]
        if any(any(g) for g in gens):
            bases.append(ec.saturate(gens, n))
    for L in bases:
        L = list(L)
        n = len(L[0])
        pivots = [next(j for j, x in enumerate(row) if x) for row in L]
        vs = [tuple(rng.randint(-9, 9) for _ in range(n)) for _ in range(4)]
        vs += [tuple(ec.rat(rng.randint(-9, 9), 3) for _ in range(n))]
        vs += [(0,) * n, L[-1]]
        for v in vs:
            red = ec.reduce_mod_subspace(v, L)
            assert all(red[c] == 0 for c in pivots)
            diff = ec.vec_sub(v, red)
            assert ec.rational_rank(L + [list(diff)]) == len(L)
            shift = [rng.randint(-5, 5) for _ in L]
            w = v
            for c, row in zip(shift, L):
                w = ec.vec_add(w, tuple(c * x for x in row))
            assert ec.reduce_mod_subspace(w, L) == red
    assert ec.reduce_mod_subspace((1, 0, 0), [(2, 1, 0)]) == \
        (0, ec.rat(-1, 2), 0)


def test_solve_linear_consistency():
    cols = [[1, 0], [2, 1], [0, 3]]  # rows of a 3x2 system
    solve = linear_solver(cols)
    x = solve((5, 8, -6))
    assert x == (5, -2)
    assert solve((1, 0, 1)) is None
    # a rank-deficient system has solutions, and one of them is returned
    x = linear_solver([[1, 1], [2, 2]])((1, 2))
    assert x is not None and x[0] + x[1] == 1
    assert linear_solver([[1, 1], [2, 2]])((1, 3)) is None
