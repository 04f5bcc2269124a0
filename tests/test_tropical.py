import json
import random
from fractions import Fraction
from itertools import combinations

import pytest

from oracle_utils import bergman_fan
from tropimpl import exactcore as ec
from tropimpl import polyhedra
from tropimpl.errors import DimensionMismatch, LoopyMatroid
from tropimpl.polyhedra import Cone
from tropimpl.tropical import (
    LinearMatroid,
    TropicalCycle,
    homogenize_cycle,
    push_forward_cycle,
    stable_sum,
    standard_linear_cycle,
)


# --- independent reference: flats and flag counts by exhaustive search ------

def oracle_rank(rows, subset):
    M = [[Fraction(x) for x in rows[i]] for i in subset]
    if not M:
        return 0
    r = 0
    for c in range(len(M[0])):
        piv = next((i for i in range(r, len(M)) if M[i][c]), None)
        if piv is None:
            continue
        M[r], M[piv] = M[piv], M[r]
        for i in range(len(M)):
            if i != r and M[i][c]:
                f = M[i][c] / M[r][c]
                M[i] = [a - f * b for a, b in zip(M[i], M[r])]
        r += 1
    return r


def oracle_flats(rows):
    """All (flat, rank) pairs of the row matroid, by checking every subset."""
    n = len(rows)
    out = []
    for mask in range(1 << n):
        S = [i for i in range(n) if mask >> i & 1]
        rS = oracle_rank(rows, S)
        rest = [e for e in range(n) if not mask >> e & 1]
        if all(oracle_rank(rows, S + [e]) > rS for e in rest):
            out.append((frozenset(S), rS))
    return out


def oracle_flag_count(rows):
    """Number of maximal chains of proper nonempty flats."""
    flats = oracle_flats(rows)
    r = oracle_rank(rows, range(len(rows)))
    if r <= 1:
        return 1
    by_rank = {}
    for F, rk in flats:
        by_rank.setdefault(rk, []).append(F)
    ways = {F: 1 for F in by_rank.get(1, [])}
    for rk in range(2, r):
        for F in by_rank.get(rk, []):
            ways[F] = sum(ways[G] for G in by_rank.get(rk - 1, []) if G < F)
    return sum(ways[F] for F in by_rank.get(r - 1, []))


def keyed(cycle):
    """Multiset of (canonical cone key, weight) for order-free comparison."""
    return sorted((c.canonical_key(), w) for c, w in cycle.items)


# --- matroids ---------------------------------------------------------------

def test_matroid_rank_and_closure():
    M = LinearMatroid([(1, 0), (2, 0), (0, 1)])
    assert M.rank == 2
    assert M.rank_of([0, 1]) == 1
    assert M.closure({0}) == frozenset({0, 1})
    assert M.closure({2}) == frozenset({2})
    assert M.closure(()) == frozenset()
    assert not M.loops()


def test_matroid_loops():
    M = LinearMatroid([(1, 0), (0, 0)])
    assert M.loops() == frozenset({1})


def test_bergman_three_point_line():
    fan = bergman_fan(LinearMatroid([(1, 0), (0, 1), (1, 1)]))
    assert len(fan) == 3
    assert fan.pure_dim == 2
    e = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    for i in range(3):
        hits = [cone for cone, _ in fan if cone.contains(e[i])]
        assert len(hits) == 1
        assert not hits[0].contains(tuple(-x for x in e[i]))
    # min convention: high-coordinate vectors lie in the fan, low do not
    assert any(cone.contains((5, 3, 3)) for cone, _ in fan)
    assert not any(cone.contains((3, 5, 5)) for cone, _ in fan)
    for cone, w in fan:
        assert w == 1
        assert cone.lineality_dim == 1
        assert cone.contains((1, 1, 1)) and cone.contains((-1, -1, -1))


def test_bergman_rank_one_is_lineality_only():
    fan = bergman_fan(LinearMatroid([(2,), (3,)]))
    assert len(fan) == 1
    cone, w = fan.items[0]
    assert w == 1 and cone.dim == 1 and cone.lineality_dim == 1


def test_bergman_parallel_pair_plus_free():
    # two parallel elements collapse into one rank-1 flat
    fan = bergman_fan(LinearMatroid([(1, 0), (-1, 0), (0, 1)]))
    assert len(fan) == 2
    keys = {cone.canonical_key() for cone, _ in fan}
    assert len(keys) == 2


def test_bergman_loopy_raises():
    with pytest.raises(LoopyMatroid):
        bergman_fan(LinearMatroid([(1, 0), (0, 0)]))


def test_bergman_vandermonde_u35():
    rows = [(1, i, i * i) for i in range(5)]
    fan = bergman_fan(LinearMatroid(rows))
    assert len(fan) == 20
    assert fan.pure_dim == 3


def test_bergman_count_matches_flag_oracle():
    rng = random.Random(20240819)
    done = 0
    while done < 12:
        m = rng.randint(3, 6)
        w = rng.randint(2, 4)
        rows = [tuple(rng.randint(-2, 2) for _ in range(w)) for _ in range(m)]
        if any(not any(r) for r in rows):
            continue
        M = LinearMatroid(rows)
        if M.rank < 1:
            continue
        fan = bergman_fan(M)
        assert len(fan) == oracle_flag_count(rows)
        assert fan.pure_dim == M.rank
        done += 1


# --- cycles -----------------------------------------------------------------

def test_cycle_rejects_bad_weights_and_dims():
    c1 = Cone([(1, 0)], [], 2)
    with pytest.raises(ValueError):
        TropicalCycle(2, 1, [(c1, 0)])
    c2 = Cone([(1, 0), (0, 1)], [], 2)
    with pytest.raises(DimensionMismatch):
        TropicalCycle(2, 1, [(c2, 1)])


def test_cycle_keeps_duplicates_and_consolidates():
    ray = Cone([(1, 0)], [], 2)
    C = TropicalCycle(2, 1, [(ray, 2), (Cone([(2, 0)], [], 2), 3)])
    assert len(C) == 2
    merged = C.consolidated()
    assert len(merged) == 1
    assert merged.items[0][1] == 5


def test_consolidating_simplicial_cones_builds_no_hull(monkeypatch):
    # a simplicial cone's key is its rays and lineality, so merging a
    # cycle of such cones, with and without lineality, hulls nothing and
    # computes no facets
    def no_hull(points):
        raise AssertionError("a simplicial cone built a hull")

    monkeypatch.setattr(polyhedra, "_hull_full_dim", no_hull)
    plane = standard_linear_cycle(2, 4)
    fan = TropicalCycle(3, 2, [
        (Cone(pair, [], 3), 1)
        for pair in combinations([(1, 0, 0), (0, 1, 0), (0, 0, 1),
                                  (-1, -1, -1)], 2)])
    for C in (plane, fan):
        assert all(len(c.rays) == c.dim - c.lineality_dim for c, _ in C)
        doubled = TropicalCycle(C.ambient_dim, C.pure_dim, C.items + [
            (Cone([[2 * x for x in r] for r in c.rays], c.lineality,
                  C.ambient_dim), w) for c, w in C])
        merged = doubled.consolidated()
        assert all(c._hrep is None for c, _ in doubled)
        assert keyed(merged) == [(k, 2 * w) for k, w in keyed(C)]


def test_cycle_json_roundtrip():
    C = TropicalCycle(3, 2, [
        (Cone([(1, 0, 0)], [(1, 1, 1)], 3), 2),
        (Cone([(0, 1, 0)], [(1, 1, 1)], 3), 7),
    ])
    blob = json.dumps(C.to_json())
    D = TropicalCycle.from_json(json.loads(blob))
    assert D.ambient_dim == 3 and D.pure_dim == 2
    assert keyed(D) == keyed(C)


def test_cycle_negated():
    C = TropicalCycle(2, 1, [(Cone([(1, 2)], [], 2), 4)])
    N = C.negated()
    assert N.items[0][0].contains((-1, -2))
    assert not N.items[0][0].contains((1, 2))
    assert N.items[0][1] == 4


def test_homogenize_cycle():
    C = TropicalCycle(2, 1, [(Cone([(1, 2)], [], 2), 3),
                             (Cone([(-1, 0)], [], 2), 1)])
    H = homogenize_cycle(C)
    assert H.ambient_dim == 3 and H.pure_dim == 2
    for cone, _ in H.items:
        assert cone.lineality_dim == 1
        assert cone.contains((1, 1, 1)) and cone.contains((-1, -1, -1))
    assert any(cone.contains((0, 1, 2)) for cone, _ in H.items)


# --- push forward -----------------------------------------------------------

def test_push_forward_identity_keeps_everything():
    C = TropicalCycle(2, 1, [(Cone([(1, 0)], [], 2), 2),
                             (Cone([(0, 1)], [], 2), 8),
                             (Cone([(-1, -2)], [], 2), 1)])
    D = push_forward_cycle(C, ec.identity_matrix(2))
    assert keyed(D) == keyed(C)


def test_push_forward_index_two():
    C = TropicalCycle(3, 1, [(Cone([(2, 0, 1)], [], 3), 1)])
    D = push_forward_cycle(C, [[1, 0, 0], [0, 1, 0]])
    assert len(D) == 1
    cone, w = D.items[0]
    assert cone.rays == ((1, 0),)
    assert w == 2


def test_push_forward_discards_collapsing_cones():
    C = TropicalCycle(3, 1, [(Cone([(1, 0, 0)], [], 3), 5),
                             (Cone([(0, 0, 1)], [], 3), 9)])
    D = push_forward_cycle(C, [[1, 0, 0], [0, 1, 0]])
    assert len(D) == 1
    assert D.items[0][0].rays == ((1, 0),)
    assert D.items[0][1] == 5


def test_push_forward_composition():
    rng = random.Random(7021)
    for _ in range(10):
        rays = set()
        while len(rays) < 3:
            v = tuple(rng.randint(-4, 4) for _ in range(3))
            if any(v):
                rays.add(ec.primitive_vector(v))
        C = TropicalCycle(3, 1, [(Cone([r], [], 3), rng.randint(1, 3))
                                 for r in sorted(rays)])
        while True:
            V1 = [[rng.randint(-3, 3) for _ in range(3)] for _ in range(3)]
            if ec.rational_rank(V1) == 3:
                break
        while True:
            V2 = [[rng.randint(-3, 3) for _ in range(3)] for _ in range(3)]
            if ec.rational_rank(V2) == 3:
                break
        two_step = push_forward_cycle(push_forward_cycle(C, V1), V2)
        V = [[sum(a * b for a, b in zip(row, col)) for col in zip(*V1)]
             for row in V2]
        one_step = push_forward_cycle(C, V)
        assert keyed(two_step.consolidated()) == keyed(one_step.consolidated())


def test_push_forward_width_mismatch():
    C = TropicalCycle(3, 1, [(Cone([(1, 0, 0)], [], 3), 1)])
    with pytest.raises(DimensionMismatch):
        push_forward_cycle(C, [[1, 0], [0, 1]])


# --- standard linear cycles -------------------------------------------------

def test_standard_linear_cycle_counts():
    L = standard_linear_cycle(1, 3)
    assert L.ambient_dim == 4 and L.pure_dim == 2
    assert len(L) == 4
    for cone, w in L:
        assert w == 1 and cone.lineality_dim == 1
    assert any(cone.contains((1, 0, 0, 0)) for cone, _ in L.items)

    N = standard_linear_cycle(1, 3, negated=True)
    assert any(cone.contains((-1, 0, 0, 0)) for cone, _ in N.items)
    assert not any(cone.contains((1, 0, 0, 0))
                   and not cone.contains((-1, 0, 0, 0)) for cone, _ in N.items)

    Z = standard_linear_cycle(0, 3)
    assert len(Z) == 1 and Z.pure_dim == 1
    assert Z.items[0][0].lineality_dim == 1

    assert len(standard_linear_cycle(2, 3)) == 6

    with pytest.raises(DimensionMismatch):
        standard_linear_cycle(4, 3)


# --- stable sums ------------------------------------------------------------

def test_stable_sum_neutral_element():
    C = TropicalCycle(2, 1, [(Cone([(1, 0)], [], 2), 2),
                             (Cone([(1, 2)], [], 2), 3)])
    E = TropicalCycle(2, 0, [(Cone([], [], 2), 1)])
    assert keyed(stable_sum(C, E)) == keyed(C)
    assert keyed(stable_sum(E, C)) == keyed(C)


def test_stable_sum_rays_make_quadrant():
    A = TropicalCycle(2, 1, [(Cone([(1, 0)], [], 2), 1)])
    B = TropicalCycle(2, 1, [(Cone([(0, 1)], [], 2), 1)])
    S = stable_sum(A, B)
    assert len(S) == 1 and S.pure_dim == 2
    cone, w = S.items[0]
    assert w == 1
    assert cone.contains((3, 5)) and not cone.contains((-1, 0))


def test_stable_sum_lattice_index():
    A = TropicalCycle(2, 1, [(Cone([(1, 1)], [], 2), 1)])
    B = TropicalCycle(2, 1, [(Cone([(1, -1)], [], 2), 1)])
    S = stable_sum(A, B)
    assert len(S) == 1
    assert S.items[0][1] == 2


def test_stable_sum_skips_non_transversal_pairs():
    ones = (1, 1, 1)
    A = TropicalCycle(3, 2, [(Cone([(0, 1, 0)], [ones], 3), 1),
                             (Cone([(0, 0, 1)], [ones], 3), 1)])
    B = standard_linear_cycle(1, 2, negated=True)
    S = stable_sum(A, B)
    assert len(S) == 4
    assert S.pure_dim == 3
    for cone, w in S:
        assert w == 1
        assert cone.lineality_dim == 1


def test_stable_sum_commutative():
    rng = random.Random(40107)
    for _ in range(6):
        def rand_cycle():
            rays = set()
            while len(rays) < 2:
                v = tuple(rng.randint(-3, 3) for _ in range(3))
                if any(v):
                    rays.add(ec.primitive_vector(v))
            return TropicalCycle(3, 1, [(Cone([r], [], 3), rng.randint(1, 3))
                                        for r in sorted(rays)])
        A, B = rand_cycle(), rand_cycle()
        assert keyed(stable_sum(A, B).consolidated()) == \
            keyed(stable_sum(B, A).consolidated())


def test_stable_sum_ambient_mismatch():
    A = TropicalCycle(2, 1, [(Cone([(1, 0)], [], 2), 1)])
    B = TropicalCycle(3, 1, [(Cone([(1, 0, 0)], [], 3), 1)])
    with pytest.raises(DimensionMismatch):
        stable_sum(A, B)
