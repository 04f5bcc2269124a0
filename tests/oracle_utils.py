"""Small independent reference implementations used by the test suite.

Everything here is written against textbook definitions, by another
algorithm than the package uses, so disagreements point at real bugs rather
than shared mistakes.  The planar and modular references share no code with
the package; the cone and fan references build on its exact linear algebra
primitives and return package cones and cycles for comparison, the
implicit-equation and Chow-form references write the sample -> solve ->
verify loop out on the package's samples and ansatz but solve the exact
rows over Q by fraction-free elimination, the Pluecker batch reference
draws each batch with its own loop around the package's single draw,
the mixed-volume reference measures every Minkowski subsum with the
package's polytopes, the cone H-representation reference hulls each
cone with both signs of its lineality in its full span, the graph-cycle
reference reads the normal fan of the lifted polytopes' sum in
R^(n+d), the box count filters every
integer point of the bounding box by the polytope's own equations and
facets, and the Chow shift reference searches the translations that the
package computes in closed form.  The row references evaluate one point
and one monomial at a time, and the Horn reference draws in Fraction
arithmetic.  The package solves no linear system M x = b but a lattice's
change of coordinates, so the general solver ``linear_solver`` (and
``solve_integer``, its integral solutions) lives here; Gauss-Jordan
elimination in Fractions is its reference, and primal Pluecker
coordinates are read off a kernel basis instead of the complementary
minors of the span.  The lattice references build on that solver: a
saturation is the kernel of a kernel (``integer_kernel`` twice) and an
index comes from the coordinates that a separate solve in the saturation
gives (``lattice_index``), where the package reads both off one Hermite
form of the generators; a chart solves in any lattice basis
(``chart_by_solver``) and pulls functionals back by a second solve
(``ambient_normal_by_solver``), where the package reads both off the
dual basis of that Hermite form.  Matroid components join every circuit,
each found by ranks over all subsets (``matroid_components_by_circuits``),
where the package reads fundamental circuits off one kernel.  A Pluecker
polynomial is valued term by term at a mapping from index tuples
(``pluecker_poly_value``), where the package evaluates a Chow form as a
polynomial on exponent vectors, and standard monomials are enumerated by
filtering every multiset of index tuples
(``standard_monomials_by_brute_force``), where the package searches
row by row.  A rational's image mod p inverts its own denominator
(``rational_mod_p``), where the package inverts a batch's at once.  The
package writes Chow forms and reads parametrizations, never the other
way round, so the test codecs ``pluecker_poly_from_json`` and
``parametrization_to_json`` live here.
``normalized_volume`` and ``chow_to_equations`` have no caller in the
package; they live here with the tests that pin them, and the first
measures the subsums of the mixed-volume reference.  The package reads a
face as its vertex list and measures mixed volumes on point families, so
``face_of``, a face as a polytope, lives here too.  Two spies close the
file:
``inflating_gfp_kernel`` makes chosen primes lose rank, and
``spy_rows_mod_p`` records the rows an interpolation asks for;
``unreachable_after`` counts the reference cycles a call leaves.
"""

import gc
import math
import random
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, product

import numpy as np

from tropimpl import exactcore as ec
from tropimpl import interpolate
from tropimpl.chow import (
    DEFAULT_MAX_DEGREE,
    PluckerPoly,
    _chow_ansatz,
    _draw_pluecker,
    chow_form,
)
from tropimpl.errors import (
    PRECONDITION_ERROR,
    DimensionMismatch,
    InputFormatError,
    KernelEmpty,
    KernelTooBig,
    LatticeMismatch,
    LoopyMatroid,
    SamplingExhausted,
    TropicalError,
    VerificationFailed,
)
from tropimpl.implicitize import Parametrization
from tropimpl.interpolate import (
    MAX_TOP_UPS,
    VERIFY_SAMPLES,
    ImplicitPolynomial,
    MonomialBasis,
    distinct_samples,
    horn_sample,
    sample_points,
)
from tropimpl.polyhedra import (
    Cone,
    Polytope,
    minkowski_sum,
    _affine_rank,
    _chart_volume,
    mixed_volume,
    normal_fan_cones,
)
from tropimpl.tropical import BERGMAN_SIGN, TropicalCycle, indicator


def hull2d(points):
    """Andrew monotone chain; returns hull vertices in counterclockwise
    order, endpoints not repeated."""
    pts = sorted({(Fraction(x), Fraction(y)) for x, y in points})
    if len(pts) <= 2:
        return pts

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower = []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper = []
    for p in reversed(pts):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]


def area2d(points):
    """Exact area of the convex hull of the points (shoelace)."""
    hull = hull2d(points)
    if len(hull) < 3:
        return Fraction(0)
    s = Fraction(0)
    for i in range(len(hull)):
        x1, y1 = hull[i]
        x2, y2 = hull[(i + 1) % len(hull)]
        s += x1 * y2 - x2 * y1
    return abs(s) / 2


def minkowski2d(pts1, pts2):
    return [(a[0] + b[0], a[1] + b[1]) for a in pts1 for b in pts2]


def mixed_area(pts1, pts2):
    """Mixed volume of two polygons via the volume polynomial:
    area(P+Q) - area(P) - area(Q)."""
    return area2d(minkowski2d(pts1, pts2)) - area2d(pts1) - area2d(pts2)


def contains2d(points, q):
    """Exact convex position test against the oracle hull."""
    hull = hull2d(points)
    if len(hull) == 1:
        return tuple(q) == tuple(hull[0])
    if len(hull) == 2:
        (x1, y1), (x2, y2) = hull
        cr = (x2 - x1) * (Fraction(q[1]) - y1) - (y2 - y1) * (Fraction(q[0]) - x1)
        if cr != 0:
            return False
        t1 = min(x1, x2), max(x1, x2)
        t2 = min(y1, y2), max(y1, y2)
        return t1[0] <= q[0] <= t1[1] and t2[0] <= q[1] <= t2[1]
    for i in range(len(hull)):
        o = hull[i]
        a = hull[(i + 1) % len(hull)]
        cr = (a[0] - o[0]) * (Fraction(q[1]) - o[1]) \
            - (a[1] - o[1]) * (Fraction(q[0]) - o[0])
        if cr < 0:
            return False
    return True


def lattice_points2d(points):
    """Brute force lattice point enumeration inside the oracle hull."""
    import math
    xs = [Fraction(x) for x, _ in points]
    ys = [Fraction(y) for _, y in points]
    out = []
    for x in range(math.floor(min(xs)), math.floor(max(xs)) + 1):
        for y in range(math.floor(min(ys)), math.floor(max(ys)) + 1):
            if contains2d(points, (x, y)):
                out.append((x, y))
    return sorted(out)


def lattice_points_in_box(P):
    """Integer points of P, sorted: every integer point of its bounding
    box, kept when it satisfies the equations and facets of P, one numpy
    slab per value of the first coordinate."""
    d = P.ambient_dim
    lo = [math.floor(min(v[i] for v in P.vertices)) for i in range(d)]
    hi = [math.ceil(max(v[i] for v in P.vertices)) for i in range(d)]
    rows, rhs = [], []
    for c, c0 in P.equations():
        if not isinstance(c0, int):
            return []
        rows += [list(c), [-x for x in c]]
        rhs += [c0, -c0]
    for a, b, _ in P.facets():
        rows.append(list(a))
        rhs.append(math.floor(b))
    A, b = np.array(rows, dtype=np.int64), np.array(rhs, dtype=np.int64)
    rest = np.indices([h - l + 1 for l, h in zip(lo[1:], hi[1:])])
    rest = rest.reshape(d - 1, -1).T + np.array(lo[1:], dtype=np.int64)
    out = []
    for x0 in range(lo[0], hi[0] + 1):
        X = np.hstack([np.full((len(rest), 1), x0, dtype=np.int64), rest])
        out.extend(tuple(int(x) for x in row)
                   for row in X[(X @ A.T <= b).all(axis=1)])
    return out


def pow_mod_row(exponents, point, p):
    """Monomial values mod p, one pow per (monomial, coordinate): the
    per-entry reference for row_mod."""
    out = []
    for e in exponents:
        v = 1
        for x, k in zip(point, e):
            if k:
                v = v * pow(x, k, p) % p
        out.append(v)
    return tuple(out)


def rational_mod_p(q, p):
    """Image of the rational q mod the prime p, its denominator inverted
    by Fermat's little theorem; the reference for ``ec.reduce_vectors``."""
    q = Fraction(q)
    return q.numerator * pow(q.denominator, p - 2, p) % p


def rows_mod_by_point(basis, points, p):
    """The rows mod p at rational points, one point at a time: no row
    where a denominator vanishes mod p, else ``pow_mod_row`` of the
    residues.  The reference for ``interpolate._rows_mod``."""
    rows = []
    for pt in points:
        if any(Fraction(x).denominator % p == 0 for x in pt):
            continue
        red = tuple(rational_mod_p(x, p) for x in pt)
        rows.append(pow_mod_row(basis.exponents, red, p))
    return rows


def solve_by_gauss_jordan(M, b):
    """One solution x of M x = b over Fraction, free variables 0, or None
    when the system is inconsistent: Gauss-Jordan elimination of [M | b]
    to unit pivots, the reference for ``linear_solver``."""
    n = len(M[0]) if M else 0
    A = [[Fraction(x) for x in row] + [Fraction(y)] for row, y in zip(M, b)]
    piv = []
    for c in range(n):
        p = next((i for i in range(len(piv), len(A)) if A[i][c]), None)
        if p is None:
            continue
        r = len(piv)
        A[r], A[p] = A[p], A[r]
        A[r] = [x / A[r][c] for x in A[r]]
        for i in range(len(A)):
            if i != r and A[i][c]:
                f = A[i][c]
                A[i] = [x - f * y for x, y in zip(A[i], A[r])]
        piv.append(c)
    if any(row[n] for row in A[len(piv):]):
        return None
    x = [Fraction(0)] * n
    for row, c in zip(A, piv):
        x[c] = row[n]
    return x


def gfp_kernel_back_substitution(rows, p, ncols):
    """Kernel basis mod p in Python ints, by forward elimination to unit
    pivots and back-substitution per free column, each vector scaled so
    its first nonzero entry is 1: the reference for gfp_kernel."""
    M = [[x % p for x in row] for row in rows]
    ech = []
    piv = []
    for c in range(ncols):
        i0 = next((i for i, row in enumerate(M) if row[c]), None)
        if i0 is None:
            continue
        top = M.pop(i0)
        inv = pow(top[c], p - 2, p)
        top = [x * inv % p for x in top]
        M = [[(a - row[c] * b) % p for a, b in zip(row, top)] for row in M]
        ech.append(top)
        piv.append(c)
    basis = []
    for f in (c for c in range(ncols) if c not in piv):
        x = [0] * ncols
        x[f] = 1
        for row, c in reversed(list(zip(ech, piv))):
            x[c] = -sum(row[j] * x[j] for j in range(c + 1, ncols)) % p
        inv = pow(next(v for v in x if v), p - 2, p)
        basis.append(tuple(v * inv % p for v in x))
    return basis


class SpanMismatch(TropicalError):
    """Sub- and super-lattice do not span the same rational subspace."""
    exit_code = PRECONDITION_ERROR


def integer_kernel(M, ncols=None):
    """Basis of the saturated lattice {v in Z^n : M v = 0}, Hermite-reduced:
    the rows of the transform of the Hermite form of M^T that it sends to
    zero, reduced by a second Hermite form."""
    if ncols is None:
        if not M:
            raise ValueError("need ncols for an empty matrix")
        ncols = len(M[0])
    rows = [r for r in M if any(r)]
    if not rows:
        return [tuple(r) for r in ec.identity_matrix(ncols)]
    H, U, _ = ec.row_hermite(ec.transpose(rows))
    rank = sum(1 for row in H if any(row))
    basis = [U[i] for i in range(rank, ncols)]
    if not basis:
        return []
    Hb = ec.row_hermite(basis)[0]
    return [tuple(r) for r in Hb if any(r)]


def saturate_by_kernels(generators, ambient_dim):
    """span_Q(generators) meet Z^n as the kernel of the kernel of the
    primitive generators, Hermite-reduced: the reference for
    ``ec.saturate(...).vectors``."""
    prim = [ec.primitive_vector(g) for g in generators if any(g)]
    if not prim:
        return ()
    orth = integer_kernel(prim, ambient_dim)
    if not orth:
        return tuple(map(tuple, ec.identity_matrix(ambient_dim)))
    return tuple(integer_kernel(orth, ambient_dim))


def linear_solver(M):
    """The function b -> one rational solution x of M x = b, or None, for
    an integer matrix M and a rational b: the general solver that
    ``lattice_index``, ``chart_by_solver`` and ``ambient_normal_by_solver``
    build on, where the package solves no such system.

    M is factored once, into the row Hermite form H = U M^T: with
    x = U^T y each system becomes H^T y = b, which forward substitution
    on the pivots of H solves, subtracting y_k times row k of H from b; a
    nonzero remainder means there is no solution.  M may be rank
    deficient.  U is unimodular, so x is integral exactly when y is.
    Entries are ``ec.rat``: int when integral.
    """
    if not M:
        return lambda b: ()
    H, U, _ = ec.row_hermite(ec.transpose(M))
    pivots = [(next(j for j, x in enumerate(h) if x), h) for h in H if any(h)]
    Ut = [col[:len(pivots)] for col in ec.transpose(U)]

    def solve(b):
        rest = list(b)
        y = []
        for c, h in pivots:
            t = ec.div_exact(rest[c], h[c])
            y.append(t)
            if t:
                rest = [a - t * e for a, e in zip(rest, h)]
        if any(rest):
            return None
        return tuple(s if isinstance(s, int) else ec.rat(s)
                     for s in (ec.dot(u, y) for u in Ut))

    return solve


def solve_integer(M, b):
    """One integer solution x of M x = b, or None (``linear_solver``)."""
    x = linear_solver(M)(b)
    return x if x is None or all(isinstance(t, int) for t in x) else None


def lattice_index(super_basis, sub_generators):
    """Index of the lattice generated by ``sub_generators`` in the lattice
    spanned by ``super_basis``, the reference for
    ``ec.saturate(...).index``.

    Raises SpanMismatch unless both span the same rational subspace and the
    sub-generators sit inside the super-lattice.  Generators may be dependent;
    the index is the product of the pivots of the Hermite form of their
    coordinates, all read off one ``linear_solver`` of the super basis.
    """
    sup = list(super_basis)
    subs = [g for g in sub_generators if any(g)]
    r = len(sup)
    if not r:
        if subs:
            raise SpanMismatch("sub spans more than the zero super-lattice")
        return 1
    solve = linear_solver(ec.transpose(sup))
    coords = []
    for g in subs:
        sol = solve(g)
        if sol is None:
            raise SpanMismatch("generator outside the span of the super basis")
        if not all(isinstance(x, int) for x in sol):
            raise SpanMismatch("generator outside the super lattice")
        coords.append(list(sol))
    if not coords or ec.rational_rank(coords) < r:
        raise SpanMismatch("sub-generators span a smaller subspace")
    H = ec.row_hermite(coords)[0]
    idx = 1
    for i in range(r):
        piv = next(x for x in H[i] if x)
        idx *= abs(piv)
    return idx


def chart_by_solver(basis, n):
    """The map from a vector of R^n to its coordinates in any basis of a
    lattice, or None off its span: one ``linear_solver`` of the basis, or
    none in the identity basis.  The reference for
    ``ec.LatticeBasis.coordinates``."""
    if [list(v) for v in basis] == ec.identity_matrix(n):
        return lambda d: tuple(x if isinstance(x, int) else ec.rat(x)
                               for x in d)
    if not basis:
        return lambda d: None if any(d) else ()
    return linear_solver(ec.transpose(basis))


def ambient_normal_by_solver(basis, equations):
    """The map from functionals on the coordinates of a lattice basis to
    ambient ones: a functional u is pulled back to an integer a with
    basis a = u through one ``linear_solver`` of the basis, then reduced
    to its canonical representative modulo the Hermite basis ``equations``
    of the span's equations and made primitive.  Without equations the
    basis is the identity, and so is the map.  The reference for
    ``ec.LatticeBasis.pull_back``."""
    if not equations:
        return lambda u: u
    solve = linear_solver([list(v) for v in basis])
    return lambda u: ec.primitive_vector(
        ec.reduce_mod_subspace(solve(u), equations))


def _solve_over_q(unknowns, sampler, row, seed):
    """The one kernel vector over Q of the exact rows ``row(sample)``, by
    the sample -> solve -> top up -> verify loop written out: each solve
    is one fraction-free ``ec.rational_kernel`` of the rows of every
    sample so far, on the samples, top-ups and constants of
    ``interpolate.solve_verified``, and the vector must annihilate the
    rows of VERIFY_SAMPLES fresh samples of seed + 1000."""
    samples = sampler(max(unknowns - 1, 1), seed)
    rounds = 0
    while True:
        kernel = ec.rational_kernel([row(s) for s in samples], unknowns)
        if not kernel:
            raise KernelEmpty("no nonzero vector fits the samples")
        if len(kernel) == 1:
            break
        rounds += 1
        if rounds > MAX_TOP_UPS:
            raise KernelTooBig(f"kernel has dimension {len(kernel)}")
        samples = samples + sampler(unknowns // 4 + 10, seed + rounds)
    for pt in sampler(VERIFY_SAMPLES, seed + 1000):
        if ec.dot(row(pt), kernel[0]):
            raise VerificationFailed(f"nonzero at fresh sample {pt}")
    return kernel[0]


def equation_over_q(f, P, seed=0, height=20):
    """The implicit equation by fraction-free elimination over Q of the
    exact rows ``basis.row`` (``_solve_over_q``), on the samples of
    ``interpolate.implicit_equation``.  The reference for its modular
    solve and lift over Q, raising the same errors."""
    basis = MonomialBasis.from_polytope(P)
    if isinstance(f, Parametrization):
        def sampler(m, s):
            return sample_points(f, m, height, s)
    else:
        def sampler(m, s):
            return horn_sample(*f, m, height, s)

    return ImplicitPolynomial(
        basis, _solve_over_q(len(basis), sampler, basis.row, seed))


def horn_sample_by_fractions(A, B, count, height=20, seed=0):
    """Horn samples in Fraction arithmetic: per draw, u and then t as
    sign * num/den Fractions (randint, randint, random each), x_j =
    (uB)_j times the product of t_i^(a_ij), and a draw with some (uB)_j
    zero rejected.  The reference for ``interpolate.horn_sample``'s
    integer draws."""
    def rational(rng):
        num = rng.randint(1, height)
        den = rng.randint(1, height)
        return Fraction(num if rng.random() < 0.5 else -num, den)

    def draw(rng):
        u = [rational(rng) for _ in B]
        t = [rational(rng) for _ in A]
        ub = [sum(c * row[j] for c, row in zip(u, B))
              for j in range(len(A[0]))]
        if 0 in ub:
            return None
        return tuple(v * math.prod(t[i] ** A[i][j] for i in range(len(A)))
                     for j, v in enumerate(ub))

    return distinct_samples(draw, count, seed)


def chow_form_over_q(stream, C_X, seed=0):
    """The Chow form by fraction-free elimination over Q of the exact
    rows (``_solve_over_q``), on the ansatz and samples of
    ``chow.chow_form``.  The reference for its modular solve and lift,
    which must return the same form and reject a wrong candidate
    polytope with the same exception class."""
    d, n = stream.d, stream.n
    unknowns = _chow_ansatz(C_X, d, n)

    def row(p):
        values = pluecker_mapping(p, d, n)
        return [pluecker_monomial_value(mono, values) for mono in unknowns]

    coeffs = _solve_over_q(len(unknowns), stream, row, seed)
    return PluckerPoly(d, n, [(m, c) for m, c in zip(unknowns, coeffs) if c])


def pluecker_mapping(p, d, n):
    """The Pluecker vector p, a tuple over the lex-ordered (d+1)-subsets
    of {0..n}, as a mapping from index tuples to coordinates."""
    return dict(zip(combinations(range(n + 1), d + 1), p))


def pluecker_monomial_value(mono, values):
    """Value of a Pluecker monomial, its tuple of factors, at a mapping
    from index tuples to rationals: the product of its factors' values.
    The reference for the monomial's exponent vector in
    ``chow.chow_form``."""
    v = 1
    for T in mono:
        v = v * values[T]
    return ec.rat(v)


def pluecker_poly_value(form, values):
    """Value of a PluckerPoly at a mapping from index tuples to
    rationals, term by term (``pluecker_monomial_value``).  The package
    evaluates a Chow form only while it interpolates it, as an
    ``ImplicitPolynomial`` on exponent vectors."""
    total = 0
    for mono, coeff in form.terms:
        total += coeff * pluecker_monomial_value(mono, values)
    return ec.rat(total)


def parametrization_to_json(f):
    """The wire object of a Parametrization, as ``from_json`` reads it.
    The package only reads parametrizations, so their writer lives here."""
    return {
        "d": f.d,
        "n": f.n,
        "components": [
            {"terms": [{"coeff": ec.rat_to_json(c), "exp": list(e)}
                       for c, e in terms]}
            for terms in f.components
        ],
    }


def pluecker_poly_from_json(obj):
    """The PluckerPoly of a ``chow_form`` wire object, read with the
    package's codecs; InputFormatError for a malformed one.  No command
    reads a Chow form, so its reader lives here."""
    try:
        d = ec.int_from_json(obj["d"])
        n = ec.int_from_json(obj["n"])
        terms = [(tuple(ec.vec_from_json(T) for T in t["factors"]),
                  ec.rat_from_json(t["coeff"]))
                 for t in obj["terms"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise InputFormatError(f"bad Pluecker polynomial: {exc}") from exc
    return PluckerPoly(d, n, terms)


def standard_monomials_by_brute_force(u, d, n):
    """Every standard Pluecker monomial of weight u, in lexicographic
    order: each multiset of (d+1)-subsets of {0..n} with weight u whose
    sorted rows do not decrease in any component.  The reference for
    ``chow.standard_monomials_of_weight``."""
    k = sum(u) // (d + 1)
    subsets = list(combinations(range(n + 1), d + 1))
    out = []
    for rows in combinations_with_replacement(subsets, k):
        weight = [0] * (n + 1)
        for T in rows:
            for i in T:
                weight[i] += 1
        if tuple(weight) == tuple(u) and all(
                a <= b for S, T in zip(rows, rows[1:])
                for a, b in zip(S, T)):
            out.append(rows)
    return sorted(out)


def chow_shift_by_sweep(translated, d, stream, seed=0):
    """The shift of a translated Chow polytope by search, or None: every
    shift s >= 0 with (d+1)*deg - (vertex coordinate sum) entries in total,
    by increasing deg up to DEFAULT_MAX_DEGREE, then lexicographically, until
    ``chow.chow_form`` on the translate by s has a one-dimensional kernel
    that vanishes on fresh samples.  The reference for the closed-form
    shift of ``chow.chow_polytope``."""
    base = sum(translated.vertices[0])
    for deg in range(max(1, -(-base // (d + 1))), DEFAULT_MAX_DEGREE + 1):
        for s in _compositions((d + 1) * deg - base, stream.n + 1):
            try:
                chow_form(stream, translated.translate(s), seed)
            except (KernelEmpty, KernelTooBig, VerificationFailed):
                continue
            return s
    return None


def chow_to_equations(ChF, d, n, alphas):
    """Defining equations of the variety from its Chow form.

    Each entry of alphas is a tuple of n-d-1 rational vectors of length
    n+1 (a single vector may be passed bare when n-d-1 = 1).  A point x
    lies on the variety exactly when every plane through it meets the
    variety, so the Chow form vanishes at the Pluecker vector of the span
    of x and the alpha vectors.  In coordinates that substitution is
    p_T -> sign(T, T^c) * (minor of [alpha_1; ...; alpha_{n-d-1}; x] on
    the complementary columns T^c), which is linear in x; the result is
    one polynomial per alpha tuple, each vanishing on the variety.
    """
    if (ChF.d, ChF.n) != (d, n):
        raise DimensionMismatch(
            f"Chow form indexed for d={ChF.d}, n={ChF.n}")
    out = []
    for alpha in alphas:
        rows = _alpha_rows(alpha, d, n)
        linear = {}
        for mono, _ in ChF.terms:
            for T in mono:
                if T not in linear:
                    linear[T] = _minor_linear_form(rows, T, n)
        if all(all(c == 0 for c, _ in linear[T]) for T in linear):
            raise ValueError("alpha tuple is rank deficient: every "
                             "substituted minor vanishes identically")
        poly = {}
        for mono, coeff in ChF.terms:
            for combo in product(*(linear[T] for T in mono)):
                c = coeff
                exp = [0] * (n + 1)
                for factor_coeff, var in combo:
                    c = c * factor_coeff
                    exp[var] += 1
                if c:
                    key = tuple(exp)
                    poly[key] = ec.rat(poly.get(key, 0) + c)
        poly = {e: c for e, c in poly.items() if c}
        if not poly:
            # the alpha span already meets the variety, so every extended
            # plane does; the substitution degenerates to the zero polynomial
            raise ValueError("alpha tuple yields the zero polynomial")
        basis = MonomialBasis(sorted(poly), n + 1)
        out.append(ImplicitPolynomial(
            basis, [poly.get(e, 0) for e in basis]))
    return out


def _alpha_rows(alpha, d, n):
    need = n - d - 1
    alpha = list(alpha)
    if alpha and not hasattr(alpha[0], "__len__"):
        if need != 1:
            raise ValueError(
                f"bare alpha vector only spans a plane when n-d-1 = 1, "
                f"here n-d-1 = {need}")
        alpha = [alpha]
    if len(alpha) != need:
        raise ValueError(f"need {need} alpha vectors, got {len(alpha)}")
    rows = [tuple(v) for v in alpha]
    if any(len(r) != n + 1 for r in rows):
        raise DimensionMismatch(f"alpha vectors must have length {n + 1}")
    return rows


def _minor_linear_form(rows, T, n):
    """The substitution for p_T as a linear form in x: the complementary
    minor of [rows; x], signed by the (T, T^c) shuffle, expanded along
    the x row.  Returns (coefficient, variable index) pairs."""
    comp = tuple(i for i in range(n + 1) if i not in T)
    perm = T + comp
    inversions = sum(1 for i in range(len(perm)) for j in range(i)
                     if perm[j] > perm[i])
    shuffle = -1 if inversions % 2 else 1
    k = len(rows)
    form = []
    for ell, var in enumerate(comp):
        cols = [c for m, c in enumerate(comp) if m != ell]
        minor = ec.det([[row[c] for c in cols] for row in rows]) if k else 1
        sign = -1 if (k + ell) % 2 else 1
        form.append((ec.rat(shuffle * sign * minor), var))
    return form


def _compositions(total, parts):
    """Nonnegative integer tuples with the given sum, lexicographically."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def primal_pluecker_by_kernel(span_rows, d, n):
    """Primal Pluecker coordinates of the kernel of the span rows, the
    maximal minors of its ``ec.rational_kernel`` basis over lex-ordered
    column tuples, or None unless the kernel has dimension d + 1."""
    kernel = ec.rational_kernel([list(r) for r in span_rows], n + 1)
    if len(kernel) != d + 1:
        return None
    return tuple(ec.det([[row[j] for j in T] for row in kernel])
                 for T in combinations(range(n + 1), d + 1))


def pluecker_batch(f, d, n, count, seed, height=20):
    """count distinct Chow-hypersurface samples drawn afresh from
    random.Random(seed), with a budget of 100 * count draws, each a
    tuple of Pluecker coordinates.  The reference for
    ``chow.PluckerStream`` and its ``interpolate.distinct_samples``."""
    rng = random.Random(seed)
    out = []
    seen = set()
    for _ in range(100 * max(count, 1)):
        if len(out) == count:
            break
        p = _draw_pluecker(f, d, n, rng, height)
        if p is not None and p not in seen:
            seen.add(p)
            out.append(p)
    if len(out) < count:
        raise SamplingExhausted(
            f"only {len(out)} of {count} samples within the draw budget")
    return out


def normalized_volume(P, lattice=None):
    """Lattice normalized volume of P with respect to a rank k lattice:
    k! times the euclidean volume in lattice coordinates.

    Zero when dim P < k; LatticeMismatch when the directions of P leave the
    span of the lattice.
    """
    basis = list(P.lattice if lattice is None else lattice)
    chart = chart_by_solver(basis, P.ambient_dim)
    ys = [chart(ec.vec_sub(v, P.vertices[0])) for v in P.vertices]
    if None in ys:
        raise LatticeMismatch("polytope leaves the span of the lattice")
    if not basis:
        return 1
    if _affine_rank(ys) < len(basis):
        return 0
    return _chart_volume(ys)


def face_of(P, w):
    """The face of the polytope P minimizing the linear functional w, as a
    polytope; the package reads a face as its vertex list."""
    return Polytope(P.face_vertices(w))


def edge_lattice(point_sets):
    """The saturated lattice of the edge directions of families of points
    in one ambient space, spanned by each one's v - v0 over its points v:
    the lattice a family's mixed volume is measured in when it is its
    own."""
    point_sets = list(point_sets)
    return ec.saturate([ec.vec_sub(v, pts[0])
                        for pts in point_sets for v in pts[1:]],
                       len(point_sets[0][0]))


def mixed_volume_by_subsums(point_sets, lattice):
    """Mixed volume by inclusion-exclusion over all 2^k - 1 Minkowski
    subsums of the families' hulls, each built as a polytope and measured
    by normalized_volume, with no rank test and no determinant shortcut.
    The reference for polyhedra.mixed_volume, raising the same errors."""
    polys = [Polytope(pts) for pts in point_sets]
    k = len(polys)
    if lattice.rank != k:
        raise DimensionMismatch(
            f"{k} polytopes need a rank {k} lattice, got rank {lattice.rank}")
    total = 0
    for r in range(1, k + 1):
        sign = (-1) ** (k - r)
        for S in combinations(range(k), r):
            Q = minkowski_sum([polys[i] for i in S]) if r > 1 else polys[S[0]]
            total += sign * normalized_volume(Q, lattice)
    return ec.div_exact(total, math.factorial(k))


def graph_cycle_by_lifted_sum(newton_polytopes):
    """Graph cycle read off the Minkowski sum of the lifted polytopes
    conv(e_i, 0 x Q_i) in R^(n+d): every d-dimensional normal cone of the
    sum, in the order of its faces, weighted by the mixed volume of the
    lifted faces at its witness.  The reference for
    implicitize.get_graph_cycle, raising the same errors."""
    polys = list(newton_polytopes)
    n = len(polys)
    if n == 0:
        raise ValueError("need at least one Newton polytope")
    d = polys[0].ambient_dim
    for Q in polys:
        if Q.ambient_dim != d:
            raise DimensionMismatch("Newton polytopes in mixed dimensions")
    lifted = []
    for i, Q in enumerate(polys):
        apex = tuple(1 if j == i else 0 for j in range(n)) + (0,) * d
        pts = [apex] + [(0,) * n + tuple(v) for v in Q.vertices]
        lifted.append(Polytope(pts))
    items = []
    for cone, w in normal_fan_cones(minkowski_sum(lifted), d):
        faces = [Q.face_vertices(w) for Q in lifted]
        m = mixed_volume(faces, edge_lattice(faces))
        if m > 0:
            items.append((cone, m))
    return TropicalCycle(n + d, d, items)


class SubsetCone:
    """Cone of rays plus lineality in R^n, described in the quotient by the
    lineality: every (q-1)-subset of ray images is tried as a facet, and
    rays on every facet are peeled into the lineality until the images are
    pointed.  The reference for Cone's H-representation."""

    def __init__(self, rays, lineality, n):
        self.n = n
        lin = [tuple(l) for l in lineality if any(l)]
        rays = [tuple(r) for r in rays]
        while True:
            lin = list(ec.saturate(lin, n)) if lin else []
            rays = sorted({ec.primitive_vector(red) for red in (
                ec.reduce_mod_subspace(r, lin) for r in rays)
                if any(red)})
            span = list(ec.saturate(rays + lin, n)) if rays or lin else []
            self.span = span
            lam = [self._coords(l) for l in lin]
            # phi: a basis of the functionals on span coordinates that
            # vanish on the lineality, i.e. the quotient map
            phi = ec.rational_kernel(lam, len(span)) if lam else \
                [tuple(r) for r in ec.identity_matrix(len(span))]
            q = len(phi)
            imgs = [ec.primitive_vector(
                [ec.dot(u, self._coords(r)) for u in phi]) for r in rays]
            facets = set()
            for S in combinations(range(len(imgs)), q - 1) if q else ():
                ker = ec.rational_kernel([list(imgs[i]) for i in S], q)
                if len(ker) != 1:
                    continue
                vals = [ec.dot(ker[0], v) for v in imgs]
                if all(x >= 0 for x in vals):
                    facets.add(ker[0])
                elif all(x <= 0 for x in vals):
                    facets.add(tuple(-x for x in ker[0]))
            on_all = [all(ec.dot(u, v) == 0 for u in facets) for v in imgs]
            if not any(on_all):
                break
            lin += [r for r, hidden in zip(rays, on_all) if hidden]
        self.lineality = tuple(lin)
        self.phi = phi
        self.facets = sorted(facets)
        self.extreme_rays = tuple(
            r for r, v in zip(rays, imgs)
            if ec.rational_rank([list(u) for u in facets
                                 if ec.dot(u, v) == 0]) == q - 1)

    def _coords(self, x):
        if not self.span:
            return () if not any(x) else None
        return solve_by_gauss_jordan(
            [list(col) for col in zip(*self.span)], x)

    def canonical_key(self):
        return (self.n, self.extreme_rays, self.lineality)

    def contains(self, x, strict=False):
        c = self._coords(x)
        if c is None:
            return False
        y = [ec.dot(u, c) for u in self.phi]
        for u in self.facets:
            v = ec.dot(u, y)
            if v < 0 or (strict and v == 0):
                return False
        return True


def polytope_contains(P, x):
    """Whether x satisfies every equation and facet inequality of P."""
    return all(ec.dot(c, x) == c0 for c, c0 in P.equations()) and \
        all(ec.dot(a, x) <= b for a, b, _ in P.facets())


def extreme_rays(cone):
    """The extreme rays of a cone modulo its lineality, sorted: the middle
    entry of its canonical key."""
    return cone.canonical_key()[1]


def cone_hrep_by_lineality_hull(cone):
    """A cone's H-representation read off one hull in its full span:
    (equations, facets, extreme rays, lineality), in the form of
    ``Cone._build_hrep``.

    The cone is the tangent cone at 0 of the polytope of the origin, the
    rays and both signs of every lineality vector, so the polytope's
    equations are the span equations and its facets through 0 are the
    cone's facets.  Rays on every facet are hidden lineality; a ray
    outside it is extreme when its active facets have rank q - 1, q being
    the dimension modulo the full lineality.
    """
    n = cone.ambient_dim
    P = Polytope([(0,) * n] + list(cone.rays) + list(cone.lineality)
                 + [tuple(-x for x in l) for l in cone.lineality])
    equations = tuple(c for c, _ in P.equations())
    facets = sorted(tuple(-x for x in a) for a, b, _ in P.facets() if b == 0)
    hidden = [r for r in cone.rays if all(ec.dot(u, r) == 0 for u in facets)]
    lin = cone.lineality
    if hidden:
        lin = tuple(ec.saturate(list(lin) + hidden, n))
    q = cone.dim - len(lin)
    extreme = {
        ec.primitive_vector(ec.reduce_mod_subspace(r, lin))
        for r in cone.rays
        if ec.rational_rank([list(u) for u in facets
                             if ec.dot(u, r) == 0]) == q - 1}
    return equations, facets, tuple(sorted(extreme)), lin


def matroid_components_by_circuits(M):
    """Connected components of a matroid, as sorted index lists, from all
    of its circuits: a subset C is one when M.rank_of(C) and the rank of
    every C - e are |C| - 1, tried over every subset, and the elements of
    one circuit share a component.  The reference for
    implicitize._matroid_components, which reads fundamental circuits
    off one Bareiss kernel."""
    n = M.ground_size
    component = {e: frozenset([e]) for e in range(n)}
    for size in range(2, n + 1):
        for C in combinations(range(n), size):
            if M.rank_of(C) == size - 1 and all(
                    M.rank_of(C[:i] + C[i + 1:]) == size - 1
                    for i in range(size)):
                merged = frozenset().union(*(component[e] for e in C))
                for e in merged:
                    component[e] = merged
    return sorted(sorted(g) for g in set(component.values()))


def maximal_flat_chains(M):
    """All maximal chains of proper nonempty flats, each as a list of
    frozensets of ranks 1 .. rank-1."""
    r = M.rank
    chains = []

    def descend(flat, chain):
        if len(chain) == r - 1:
            chains.append(chain)
            return
        nxt = {M.closure(flat | {e})
               for e in range(M.ground_size) if e not in flat}
        for F in sorted(nxt, key=sorted):
            descend(F, chain + [F])

    descend(frozenset(), [])
    return chains


def bergman_fan(M):
    """Fine structure tropical linear space of a loopless matroid in R^m:
    one cone per maximal chain of proper nonempty flats, rays the signed flat
    indicators, lineality the all-ones line, every weight 1.  The reference
    for the nested-set fan of implicitize."""
    if M.loops():
        raise LoopyMatroid(f"matroid has loops {sorted(M.loops())}")
    m = M.ground_size
    ones = (1,) * m
    items = []
    for chain in maximal_flat_chains(M):
        rays = [tuple(BERGMAN_SIGN * x for x in indicator(F, m))
                for F in chain]
        items.append((Cone(rays, [ones], m), 1))
    return TropicalCycle(m, M.rank, items)


def inflating_gfp_kernel(monkeypatch, inflate):
    """Patch ec.gfp_kernel to record (prime, rows) per call and to add a
    second kernel vector on the calls for which inflate(call, prime)
    holds, as a prime that loses rank would."""
    real = ec.gfp_kernel
    calls = []

    def fake(rows, p, ncols=None):
        calls.append((p, len(rows)))
        kernel = real(rows, p, ncols)
        if inflate(len(calls), p):
            kernel.append(tuple(int(j == ncols - 1) for j in range(ncols)))
        return kernel

    monkeypatch.setattr(ec, "gfp_kernel", fake)
    return calls


def spy_rows_mod_p(monkeypatch):
    """Wrap the ``rows_mod`` that every interpolation passes
    ``interpolate.solve_verified``: record every sample whose row mod the
    deciding prime is asked for, and the loop's (residue, samples,
    fresh)."""
    real = interpolate.solve_verified
    asked = []
    returned = []

    def spy(unknowns, sampler, rows_mod, seed, p=ec.DEFAULT_PRIME):
        def recorded(samples, q):
            assert q == p
            asked.extend(samples)
            return rows_mod(samples, q)

        returned.append(real(unknowns, sampler, recorded, seed, p))
        return returned[-1]

    monkeypatch.setattr(interpolate, "solve_verified", spy)
    return asked, returned


def unreachable_after(call):
    """The number of unreachable objects ``call()`` leaves for the cycle
    collector, with automatic collection off while it runs."""
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        call()
        return gc.collect()
    finally:
        if enabled:
            gc.enable()
