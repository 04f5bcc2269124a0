"""Acceptance suite: the end-to-end checks the package promises to pass.

One test per criterion, so ``pytest tests/test_acceptance.py -v`` prints a
pass or fail line for each.  Expected values are classical closed forms or
hand-checked outputs frozen here; wall-clock budgets are asserted where the
promise includes one.
"""

import math
import random
import time
from fractions import Fraction

import sympy

from oracle_utils import mixed_area
from tropimpl import exactcore as ec
from tropimpl.chow import chow_fan, chow_polytope
from tropimpl.errors import TropicalError
from tropimpl.implicitize import (
    Parametrization,
    get_graph_cycle,
    get_trop_a_disc,
    get_tropical_cycle,
    get_vertex,
    reconstruct_polytope,
)
from tropimpl.interpolate import _rows_mod, horn_sample, implicit_equation
from tropimpl.polyhedra import Cone, Polytope, mixed_volume
from tropimpl.tropical import TropicalCycle

CURVE = Parametrization(1, 2, [
    [(11, (2,)), (5, (3,)), (-1, (4,))],     # 11t^2 + 5t^3 - t^4
    [(11, (0,)), (11, (1,)), (7, (8,))],     # 11 + 11t + 7t^8
])

CUBE = [[1, 1, 1, 1, 1, 1, 1, 1],
        [0, 0, 0, 0, 1, 1, 1, 1],
        [0, 0, 1, 1, 0, 0, 1, 1],
        [0, 1, 0, 1, 0, 1, 0, 1]]

# the 2x2x2 hyperdeterminant, variables ordered like the cube columns
CUBE_DISCRIMINANT = {
    (2, 0, 0, 0, 0, 0, 0, 2): 1, (0, 2, 0, 0, 0, 0, 2, 0): 1,
    (0, 0, 0, 2, 2, 0, 0, 0): 1, (0, 0, 2, 0, 0, 2, 0, 0): 1,
    (1, 0, 0, 1, 0, 1, 1, 0): 4, (0, 1, 1, 0, 1, 0, 0, 1): 4,
    (1, 1, 0, 0, 0, 0, 1, 1): -2, (1, 0, 1, 0, 0, 1, 0, 1): -2,
    (1, 0, 0, 1, 1, 0, 0, 1): -2, (0, 1, 1, 0, 0, 1, 1, 0): -2,
    (0, 1, 0, 1, 1, 0, 1, 0): -2, (0, 0, 1, 1, 1, 1, 0, 0): -2,
}

PRIME_MATRIX = [[1, 1, 1, 1, 1, 1],
                [2, 3, 5, 7, 11, 13],
                [13, 8, 5, 3, 2, 1]]

SPLIT_PRIME_MATRIX = [[1, 1, 1, 1, 0, 0, 0, 0],
                      [0, 0, 0, 0, 1, 1, 1, 1],
                      [2, 3, 5, 7, 11, 13, 17, 19],
                      [19, 17, 13, 11, 7, 5, 3, 2]]

TRIANGLES = [
    [(898, -614), (-570, 817), (892, -594)],
    [(-603, -481), (-623, -127), (-36, 732)],
    [(-548, -864), (-151, 873), (800, -861)]]

QUARTIC = Parametrization(1, 3, [
    [(1, (3,)), (-1, (1,))],
    [(1, (3,)), (1, (2,))],
    [(1, (4,)), (-1, (3,))],
])

# Tropicalization of the quartic read off from the orders of its coordinate
# functions at t = 0, 1, -1, oo.  The components share roots, so this curve
# is not generic for its supports and its cycle is given directly.
QUARTIC_RAYS = [(0, 1, 2, 3), (0, 1, 1, 0), (0, 1, 0, 1), (0, -3, -3, -4)]

QUARTIC_TRANSLATED = sorted([
    (0, 2, 3, 1), (0, 3, 1, 2), (0, 4, 1, 1), (1, 0, 4, 1),
    (1, 2, 3, 0), (1, 3, 0, 2), (1, 4, 0, 1), (1, 4, 1, 0),
    (2, 0, 1, 3), (2, 0, 4, 0), (2, 4, 0, 0), (3, 0, 0, 3),
])

QUARTIC_CHOW = sorted([
    (1, 2, 3, 2), (1, 3, 1, 3), (1, 4, 1, 2), (2, 0, 4, 2),
    (2, 2, 3, 1), (2, 3, 0, 3), (2, 4, 0, 2), (2, 4, 1, 1),
    (3, 0, 1, 4), (3, 0, 4, 1), (3, 4, 0, 1), (4, 0, 0, 4),
])


def test_criterion_01_plane_curve_pipeline():
    t0 = time.monotonic()
    C = get_tropical_cycle(CURVE.newton_polytopes())
    got = sorted((cone.rays[0], w) for cone, w in C)
    assert got == [((-1, -2), 4), ((0, 1), 8), ((1, 0), 2), ((1, 0), 2)]

    P = reconstruct_polytope(C)
    assert sorted(P.vertices) == [(0, 0), (0, 4), (8, 0)]
    assert len(P.lattice_points()) == 25

    F = implicit_equation(CURVE, P)
    assert F.modulus is None
    assert F.coefficient((8, 0)) == 2401
    assert F.coefficient((0, 4)) == 1
    assert F.coefficient((6, 1)) == -1372
    assert F.coefficient((5, 1)) == -422576
    assert F.coefficient((0, 0)) == 1247565503668
    assert time.monotonic() - t0 < 10


def test_criterion_02_graph_cycle():
    G = get_graph_cycle(CURVE.newton_polytopes())
    got = {cone.rays[0]: w for cone, w in G}
    assert got == {(1, 0, 0): 2, (-4, -8, -1): 1, (0, 1, 0): 8, (2, 0, 1): 1}


def test_criterion_03_hyperdeterminant():
    t0 = time.monotonic()
    D = get_trop_a_disc(CUBE)
    assert len(D) == 32
    assert D.pure_dim == 7
    assert all(cone.dim == 7 for cone, _ in D)
    assert len(D.consolidated()) == 32

    P = reconstruct_polytope(D)
    assert P.f_vector() == (6, 14, 16, 8)
    assert len(P.lattice_points()) == 12

    B = [list(b) for b in ec.rational_kernel(CUBE)]
    F = implicit_equation((CUBE, B), P)
    terms = {e: c for c, e in F.terms()}
    sign = terms.get((2, 0, 0, 0, 0, 0, 0, 2))
    assert sign in (1, -1)
    assert terms == {e: sign * c for e, c in CUBE_DISCRIMINANT.items()}
    assert time.monotonic() - t0 < 120


def test_criterion_04_finite_field_discriminant():
    t0 = time.monotonic()
    D = get_trop_a_disc(PRIME_MATRIX)
    P = reconstruct_polytope(D)
    assert P.f_vector() == (12, 18, 8)
    assert len(P.lattice_points()) == 2295

    B = [list(b) for b in ec.rational_kernel(PRIME_MATRIX)]
    F = implicit_equation((PRIME_MATRIX, B), P, field="gf:101")
    assert F.modulus == 101
    fresh = horn_sample(PRIME_MATRIX, B, 20, seed=987654)
    rows = _rows_mod(F.basis, fresh, 101)
    assert len(rows) == len(fresh)
    assert all(ec.dot(F.coefficients, row) % 101 == 0 for row in rows)
    assert time.monotonic() - t0 < 1800


def test_criterion_05_split_configuration_polytope():
    t0 = time.monotonic()
    D = get_trop_a_disc(SPLIT_PRIME_MATRIX)
    P = reconstruct_polytope(D)
    assert P.f_vector() == (45, 92, 63, 16)
    assert len(P.lattice_points()) == 43400
    assert time.monotonic() - t0 < 7200


def test_criterion_06_mixed_fiber_triangles():
    t0 = time.monotonic()
    C = get_tropical_cycle([Polytope(t) for t in TRIANGLES])
    P = reconstruct_polytope(C)
    assert P.f_vector() == (25, 49, 26)
    assert time.monotonic() - t0 < 300


def test_criterion_07_chow_pipeline():
    t0 = time.monotonic()
    ones = (1, 1, 1, 1)
    C = TropicalCycle(4, 2, [(Cone([r], [ones], 4), 1) for r in QUARTIC_RAYS])
    fan = chow_fan(C, 1)
    # two-dimensional means modulo the all-ones lineality line
    assert len(fan) == 16
    assert all(cone.dim == 3 and len(cone.lineality) == 1 for cone, _ in fan)

    translated, shift, P, form = chow_polytope(fan, 1, QUARTIC, seed=0)
    assert sorted(translated.vertices) == QUARTIC_TRANSLATED
    assert shift == (1, 0, 0, 1)
    assert sorted(P.vertices) == QUARTIC_CHOW

    got = dict(form.terms)
    assert got[((0, 3), (0, 3), (0, 3), (0, 3))] == 1
    assert got[((0, 2), (0, 3), (0, 3), (1, 3))] == -5
    assert got[((0, 1), (0, 2), (0, 3), (2, 3))] == 11
    assert got[((0, 1), (1, 2), (2, 3), (2, 3))] == -2
    assert time.monotonic() - t0 < 300


# ---------------------------------------------------------------------------
# criterion 8: randomized property suites, each under two minutes so the
# five together stay within the ten minute aggregate budget


def _affinely_dependent(comp1, comp2):
    """True when comp2 = a * comp1 + b, which collapses the image to a
    line covered multiple times."""
    lin1 = sorted((e, c) for c, (e,) in comp1 if e != 0)
    lin2 = sorted((e, c) for c, (e,) in comp2 if e != 0)
    if [e for e, _ in lin1] != [e for e, _ in lin2]:
        return False
    if not lin1:
        return True
    ratios = {Fraction(c2, c1) for (_, c1), (_, c2) in zip(lin1, lin2)}
    return len(ratios) == 1


def _nongeneric(comps):
    """Coefficient accidents the supports cannot see: a common nonzero
    root puts the origin on the curve, and a generic fiber of more than
    one point makes the resultant a proper power of the equation."""
    t, s = sympy.symbols("t s")
    g1 = sum(c * t ** e for c, (e,) in comps[0])
    g2 = sum(c * t ** e for c, (e,) in comps[1])
    m1 = min(e for _, (e,) in comps[0])
    m2 = min(e for _, (e,) in comps[1])
    if sympy.degree(sympy.gcd(sympy.cancel(g1 / t ** m1),
                              sympy.cancel(g2 / t ** m2)), t) > 0:
        return True
    return sympy.degree(sympy.gcd(sympy.expand(g1.subs(t, s) - g1),
                                  sympy.expand(g2.subs(t, s) - g2)), s) != 1


def _random_plane_curve(rng):
    while True:
        comps = []
        for _ in range(2):
            exps = sorted(rng.sample(range(7), rng.randint(1, 4)))
            terms = []
            for e in exps:
                c = 0
                while c == 0:
                    c = rng.randint(-9, 9)
                terms.append((c, (e,)))
            comps.append(terms)
        if all(len(terms) == 1 for terms in comps):
            continue
        exponents = [e for terms in comps for _, (e,) in terms]
        if math.gcd(*exponents) != 1:
            continue
        if any(max(e for _, (e,) in terms) == 0 for terms in comps):
            continue
        if _affinely_dependent(comps[0], comps[1]):
            continue
        if _nongeneric(comps):
            continue
        return Parametrization(1, 2, comps)


def test_criterion_08a_sylvester_resultant_equivalence():
    t0 = time.monotonic()
    rng = random.Random(824)
    t, x, y = sympy.symbols("t x y")
    for trial in range(20):
        f = _random_plane_curve(rng)
        C = get_tropical_cycle(f.newton_polytopes())
        P = reconstruct_polytope(C)
        F = implicit_equation(f, P, seed=trial)

        g1 = sum(c * t ** e for c, (e,) in f.components[0])
        g2 = sum(c * t ** e for c, (e,) in f.components[1])
        res = sympy.Poly(sympy.resultant(g1 - x, g2 - y, t), x, y).as_dict()
        res = {tuple(int(x) for x in e): Fraction(int(sympy.fraction(c)[0]),
                                                  int(sympy.fraction(c)[1]))
               for e, c in res.items() if c}
        mins = [min(e[i] for e in res) for i in range(2)]
        res = {(e[0] - mins[0], e[1] - mins[1]): c for e, c in res.items()}

        assert sorted(Polytope(list(res)).vertices) == sorted(P.vertices)
        ours = {e: c for c, e in F.terms()}
        assert set(ours) == set(res)
        assert len({res[e] / ours[e] for e in ours}) == 1
    assert time.monotonic() - t0 < 120


def test_criterion_08b_mixed_volume_against_area_oracle():
    t0 = time.monotonic()
    rng = random.Random(825)
    plane = ec.saturate([(1, 0), (0, 1)], 2)
    for _ in range(50):
        pts1 = [(rng.randint(-9, 9), rng.randint(-9, 9))
                for _ in range(rng.randint(2, 5))]
        pts2 = [(rng.randint(-9, 9), rng.randint(-9, 9))
                for _ in range(rng.randint(2, 5))]
        got = mixed_volume([Polytope(pts1).vertices,
                            Polytope(pts2).vertices], plane)
        assert got == mixed_area(pts1, pts2)
    assert time.monotonic() - t0 < 120


def test_criterion_08c_discriminant_homogeneity():
    t0 = time.monotonic()
    rng = random.Random(826)
    found = 0
    for _ in range(200):
        if found == 10:
            break
        d = rng.choice([2, 3])
        n = rng.randint(d + 1, 7)
        A = [[1] * n] + [[rng.randint(0, 3) for _ in range(n)]
                         for _ in range(d - 1)]
        if ec.rational_rank(A) < d:
            continue
        try:
            D = get_trop_a_disc(A)
            P = reconstruct_polytope(D)
        except TropicalError:
            # defective or degenerate configuration; draw again
            continue
        levels = {tuple(sum(row[j] * v[j] for j in range(n)) for row in A)
                  for v in P.vertices}
        assert len(levels) == 1
        found += 1
    assert found == 10
    assert time.monotonic() - t0 < 120


def test_criterion_08d_oracle_scaling_and_refinement_invariance():
    t0 = time.monotonic()
    rng = random.Random(827)
    curve_split = TropicalCycle(2, 1, [
        (Cone([(1, 0)], [], 2), 2), (Cone([(1, 0)], [], 2), 2),
        (Cone([(0, 1)], [], 2), 8), (Cone([(-1, -2)], [], 2), 4)])
    curve_merged = TropicalCycle(2, 1, [
        (Cone([(1, 0)], [], 2), 4), (Cone([(0, 1)], [], 2), 8),
        (Cone([(-1, -2)], [], 2), 4)])
    sheet_whole = TropicalCycle(3, 2, [
        (Cone([(1, 0, 0), (0, 1, 0)], [], 3), 6)])
    sheet_split = TropicalCycle(3, 2, [
        (Cone([(1, 0, 0), (1, 1, 0)], [], 3), 6),
        (Cone([(1, 1, 0), (0, 1, 0)], [], 3), 6)])
    for _ in range(50):
        w = (0, 0)
        while not any(w):
            w = (rng.randint(-15, 15), rng.randint(-15, 15))
        v = get_vertex(curve_split, w)
        assert get_vertex(curve_merged, w) == v
        k = rng.choice([2, 3, 7])
        assert get_vertex(curve_split, tuple(k * c for c in w)) == v
    for _ in range(50):
        w = (0, 0, 0)
        while not any(w):
            w = tuple(rng.randint(-15, 15) for _ in range(3))
        v = get_vertex(sheet_whole, w)
        assert get_vertex(sheet_split, w) == v
        k = rng.choice([2, 3, 7])
        assert get_vertex(sheet_whole, tuple(k * c for c in w)) == v
    assert time.monotonic() - t0 < 120


def test_criterion_08e_rational_and_modular_kernels_agree():
    t0 = time.monotonic()
    rng = random.Random(828)
    for _ in range(100):
        m = rng.randint(1, 6)
        k = rng.randint(2, 8)
        p = rng.choice([101, 1009, 99991])
        rows = [[rng.randint(-50, 50) for _ in range(k)] for _ in range(m)]
        kq = ec.rational_kernel(rows, k)
        kp = ec.gfp_kernel([[x % p for x in r] for r in rows], p, k)
        assert len(kp) == len(kq)
        for v in kq:
            assert all(sum(r[j] * v[j] for j in range(k)) % p == 0
                       for r in rows)
    assert time.monotonic() - t0 < 120
