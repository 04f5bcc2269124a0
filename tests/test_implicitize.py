"""Implicitization pipeline tests.

Expected cycles and polytopes here are either computed by hand from the
mixed volume and crossing-count definitions, or checked against classical
closed forms (the discriminants of the univariate quadratic and cubic,
and Sylvester resultants via sympy).
"""

import ast
import inspect
import itertools
import math
import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from oracle_utils import (
    bergman_fan,
    graph_cycle_by_lifted_sum,
    matroid_components_by_circuits,
    parametrization_to_json,
)
from tropimpl import exactcore as ec
from tropimpl import implicitize
from tropimpl import polyhedra
from tropimpl.errors import (
    DimensionMismatch,
    InputFormatError,
    LoopyMatroid,
    NonDivisibleDegree,
    OracleInconsistent,
    RowSpanMissingOnes,
)
from tropimpl.implicitize import (
    Parametrization,
    _matroid_components,
    _maximal_nested_sets,
    _product_bergman_cycle,
    _reconstruct,
    get_graph_cycle,
    get_trop_a_disc,
    get_tropical_cycle,
    get_vertex,
    reconstruct_polytope,
)
from tropimpl.polyhedra import Cone, Polytope
from tropimpl.tropical import LinearMatroid, TropicalCycle


def keyed(cycle):
    return sorted((cone.canonical_key(), w) for cone, w in cycle)


# Plane curve parametrized by x = 11t^2 + 5t^3 - t^4, y = 11 + 11t + 7t^8.
CURVE_SUPPORTS = [Polytope([(2,), (3,), (4,)]), Polytope([(0,), (1,), (8,)])]


# three triangles in Z^2, whose image cycle the golden artifacts record
THREE_TRIANGLES = [Polytope([(0, 0), (3, 1), (1, 4)]),
                   Polytope([(0, 0), (2, -1), (-1, 3)]),
                   Polytope([(1, 1), (-2, 0), (0, -3)])]


def curve_cycle():
    items = [
        (Cone([(1, 0)], [], 2), 2),
        (Cone([(1, 0)], [], 2), 2),
        (Cone([(0, 1)], [], 2), 8),
        (Cone([(-1, -2)], [], 2), 4),
    ]
    return TropicalCycle(2, 1, items)


class TestGraphCycle:
    def test_plane_curve_rays_and_weights(self):
        G = get_graph_cycle(CURVE_SUPPORTS)
        assert G.ambient_dim == 3
        assert G.pure_dim == 1
        assert len(G) == 4
        got = {cone.rays[0]: w for cone, w in G}
        assert got == {
            (1, 0, 0): 2,
            (0, 1, 0): 8,
            (-4, -8, -1): 1,
            (2, 0, 1): 1,
        }

    def test_monomial_components_collapse_to_line(self):
        polys = [Polytope([(1,)]), Polytope([(1,)])]
        G = get_graph_cycle(polys)
        assert len(G) == 1
        cone, w = next(iter(G))
        assert w == 1
        assert len(cone.lineality) == 1
        assert cone.contains((1, 1, 1)) and cone.contains((-1, -1, -1))

    def test_mixed_ambient_dimensions_rejected(self):
        with pytest.raises(DimensionMismatch):
            get_graph_cycle([Polytope([(0,)]), Polytope([(0, 0)])])

    def test_no_hull_in_the_graph_space(self, monkeypatch):
        # the cycle comes from hulls in R^d and mixed volumes of faces in
        # R^d; the lifted sum would be a hull of dimension n + d = 5
        dims = []
        hull = polyhedra._hull_full_dim

        def recording(points):
            dims.append(len(points[0]))
            return hull(points)

        monkeypatch.setattr(polyhedra, "_hull_full_dim", recording)
        G = get_graph_cycle(THREE_TRIANGLES)
        assert len(G) > 0 and dims
        assert max(dims) <= 3

    def test_one_minkowski_sum_and_one_hull(self, monkeypatch):
        # cells are ordered by the faces of Q_1 + .. + Q_n and weighed on
        # vertex lists, so that sum is the one polytope the cycle builds
        calls = {"sum": 0, "builder": 0}
        minkowski_sum = implicitize.minkowski_sum
        init = polyhedra.PolytopeBuilder.__init__

        def summing(polys):
            calls["sum"] += 1
            return minkowski_sum(polys)

        def building(self, points):
            calls["builder"] += 1
            init(self, points)

        monkeypatch.setattr(implicitize, "minkowski_sum", summing)
        monkeypatch.setattr(polyhedra.PolytopeBuilder, "__init__", building)
        assert len(get_graph_cycle(THREE_TRIANGLES)) > 0
        assert calls == {"sum": 1, "builder": 1}

    def test_cells_sharing_a_face_keep_the_lifted_order(self):
        # four segments in R^2, beyond the reference test's n + d <= 5:
        # cells that share a face of the sum and differ in their join are
        # ordered by the sets of join indices alone
        polys = [Polytope(p) for p in (
            [(2, 3), (-2, 1)], [(-2, 1), (2, -3)], [(-3, 2), (1, 3)],
            [(-3, -1), (3, -3)])]
        assert items_of(get_graph_cycle, polys) == \
            items_of(graph_cycle_by_lifted_sum, polys)

    def test_point_in_dimension_zero(self):
        polys = [Polytope([()])]
        assert items_of(get_graph_cycle, polys) == \
            items_of(graph_cycle_by_lifted_sum, polys)

    @settings(max_examples=80, deadline=None, derandomize=True,
              database=None)
    @given(st.data())
    def test_matches_lifted_sum_reference(self, data):
        d = data.draw(st.integers(1, 3))
        n = data.draw(st.integers(1, 5 - d))
        rng = random.Random(data.draw(st.integers(0, 2 ** 32)))
        # one direction shared by the parallel segments, so the sum of the
        # supports can be lower dimensional
        axis = tuple(rng.randint(-2, 2) for _ in range(d))

        def point():
            return tuple(rng.randint(-3, 3) for _ in range(d))

        polys = []
        for _ in range(n):
            kind = data.draw(st.sampled_from(
                ["point", "segment", "parallel", "triangle", "full"]))
            base = point()
            if kind == "point":
                pts = [base]
            elif kind == "segment":
                pts = [base, point()]
            elif kind == "parallel":
                k = rng.randint(1, 3)
                pts = [base, tuple(b + k * a for b, a in zip(base, axis))]
            elif kind == "triangle":
                pts = [base, point(), point()]
            else:
                pts = [point() for _ in range(d + 1 + rng.randint(0, 3))]
            polys.append(Polytope(pts))
        assert items_of(get_graph_cycle, polys) == \
            items_of(graph_cycle_by_lifted_sum, polys)


def items_of(graph_cycle, polys):
    """The cycle's items in order, or the class of the error raised."""
    try:
        G = graph_cycle(polys)
    except Exception as exc:
        return type(exc)
    return [(cone.rays, cone.lineality, cone.span, w) for cone, w in G]


class TestTropicalCycle:
    def test_plane_curve_projection(self):
        C = get_tropical_cycle(CURVE_SUPPORTS)
        assert C.ambient_dim == 2
        assert C.pure_dim == 1
        got = sorted((cone.rays[0], w) for cone, w in C)
        assert got == [((-1, -2), 4), ((0, 1), 8), ((1, 0), 2), ((1, 0), 2)]

    def test_degree_division(self):
        C = get_tropical_cycle(CURVE_SUPPORTS, delta=2)
        got = sorted((cone.rays[0], w) for cone, w in C)
        assert got == [((-1, -2), 2), ((0, 1), 4), ((1, 0), 2)]

    def test_degree_must_divide(self):
        with pytest.raises(NonDivisibleDegree):
            get_tropical_cycle(CURVE_SUPPORTS, delta=3)


@st.composite
def matroid_realizations(draw):
    """Rows of 1..8 ground elements over Q: blocks on coordinates of their
    own, so several components are common, with parallel copies, coloops
    and the odd loop, in integers or mixed by a rational change of
    coordinates, then shuffled."""
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    elements = []  # {coordinate: entry}
    blocks = []
    width = 0
    for _ in range(rng.randint(1, 8)):
        kind = rng.choice(["block"] * 3 + ["new block", "parallel"] * 2
                          + ["coloop", "loop"])
        if kind == "parallel" and elements:
            scale = ec.rat(rng.choice([-3, -2, -1, 1, 2, 3]),
                           rng.randint(1, 3))
            elements.append({c: scale * x
                             for c, x in rng.choice(elements).items()})
        elif kind == "coloop":
            elements.append({width: 1})
            width += 1
        elif kind == "loop":
            elements.append({})
        else:
            if kind == "new block" or not blocks:
                blocks.append(range(width, width + rng.randint(1, 2)))
                width = blocks[-1].stop
            block = rng.choice(blocks)
            entries = {c: rng.randint(-2, 2) for c in block}
            if not any(entries.values()):
                entries[block[0]] = 1
            elements.append(entries)
    width = max(width, 1)
    rows = [[e.get(c, 0) for c in range(width)] for e in elements]
    if width > 1 and draw(st.booleans()):
        for _ in range(2 * width):
            i, j = rng.sample(range(width), 2)
            t = ec.rat(rng.randint(-2, 2), rng.randint(1, 2))
            for row in rows:
                row[j] = ec.rat(row[j] + t * row[i])
    rng.shuffle(rows)
    return [tuple(row) for row in rows]


class TestMatroidComponents:
    @settings(max_examples=200, deadline=None, derandomize=True,
              database=None)
    @given(matroid_realizations())
    @example([(1, 0, 0, 0), (Fraction(-1, 2), 0, 0, 0), (0, 1, 1, 0),
              (0, 1, 2, 0), (0, 2, 3, 0), (0, 0, 0, 3)])
    def test_matches_brute_force_circuits(self, rows):
        # components from fundamental circuits of one kernel against those
        # from every circuit, found by ranks alone
        M = LinearMatroid(rows)
        assert _matroid_components(M) == matroid_components_by_circuits(M)

    def test_parallel_class_and_coloops(self):
        M = LinearMatroid([(1, 0, 0), (-2, 0, 0), (1, 0, 0),
                           (0, 1, 0), (0, 0, 1)])
        assert _matroid_components(M) == [[0, 1, 2], [3], [4]]

    def test_connected_stays_whole(self):
        M = LinearMatroid([(1, 0), (0, 1), (1, 1), (1, 2)])
        assert _matroid_components(M) == [[0, 1, 2, 3]]

    def test_block_diagonal_splits(self):
        M = LinearMatroid([(1, 0), (2, 0), (0, 1), (0, 3)])
        assert _matroid_components(M) == [[0, 1], [2, 3]]


class TestProductBergman:
    def test_matches_fine_fan_on_connected_matroid(self):
        M = LinearMatroid([(1, 0), (0, 1), (1, 1), (1, 2)])
        assert keyed(_product_bergman_cycle(M)) == keyed(bergman_fan(M))

    def test_disconnected_matroid_single_product_cone(self):
        M = LinearMatroid([(1, 0, 0), (-2, 0, 0), (1, 0, 0),
                           (0, 1, 0), (0, 0, 1)])
        B = _product_bergman_cycle(M)
        assert len(B) == 1
        cone, w = next(iter(B))
        assert w == 1
        assert cone.dim == 3
        assert len(cone.lineality) == 3

    def test_loops_rejected(self):
        with pytest.raises(LoopyMatroid):
            _product_bergman_cycle(LinearMatroid([(1, 0), (0, 0)]))

    def test_nested_sets_of_four_general_points(self):
        # pair closures are pair flats, which are disconnected, so every
        # two singletons are nested; triples close up to the ground set
        M = LinearMatroid([(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)])
        nested = _maximal_nested_sets(M)
        assert sorted(sorted(sorted(F) for F in S) for S in nested) == [
            [[0], [1]], [[0], [2]], [[0], [3]],
            [[1], [2]], [[1], [3]], [[2], [3]]]

    def test_nested_cones_cover_chain_cones(self):
        M = LinearMatroid([(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)])
        coarse = _product_bergman_cycle(M)
        assert len(coarse) == 6
        fine = bergman_fan(M)
        assert len(fine) == 12
        for chain_cone, _ in fine:
            assert any(all(c.contains(r) for r in chain_cone.rays)
                       for c, _ in coarse)


class TestTropADisc:
    def test_quadratic_discriminant_cycle(self):
        # A-discriminant of a + bt + ct^2 is b^2 - 4ac; its tropical
        # hypersurface is the plane normal to (1, -2, 1) with weight one.
        D = get_trop_a_disc([[1, 1, 1], [0, 1, 2]])
        assert D.ambient_dim == 3
        assert D.pure_dim == 2
        merged = D.consolidated()
        assert len(merged) == 1
        cone, w = next(iter(merged))
        assert w == 1
        assert cone.dim == 2
        assert len(cone.lineality) == 2
        assert cone.hyperplane_normal() in ((1, -2, 1), (-1, 2, -1))

    def test_quadratic_discriminant_polytope(self):
        D = get_trop_a_disc([[1, 1, 1], [0, 1, 2]])
        P = reconstruct_polytope(D)
        assert sorted(P.vertices) == [(0, 2, 0), (1, 0, 1)]

    def test_cubic_discriminant_polytope(self):
        # Newton polytope of 18abcd - 4ac^3 + b^2c^2 - 4b^3d - 27a^2d^2.
        D = get_trop_a_disc([[1, 1, 1, 1], [0, 1, 2, 3]])
        assert D.pure_dim == 3
        P = reconstruct_polytope(D)
        assert sorted(P.vertices) == [
            (0, 2, 2, 0), (0, 3, 0, 1), (1, 0, 3, 0), (2, 0, 0, 2)]
        for u in P.vertices:
            assert sum(u) == 4
            assert sum(i * x for i, x in enumerate(u)) == 6

    def test_segment_configuration_collapses_to_diagonal(self):
        D = get_trop_a_disc([[1, 1]])
        merged = D.consolidated()
        assert len(merged) == 1
        cone, w = next(iter(merged))
        assert w == 1
        assert len(cone.lineality) == 1
        assert cone.contains((1, 1)) and cone.contains((-1, -1))

    def test_ones_outside_row_span_rejected(self):
        with pytest.raises(RowSpanMissingOnes):
            get_trop_a_disc([[1, 2]])


class TestVertexOracle:
    def test_curve_vertices(self):
        C = curve_cycle()
        assert get_vertex(C, (1, 1)) == (0, 0)
        assert get_vertex(C, (-1, 0)) == (8, 0)
        assert get_vertex(C, (0, -1)) == (0, 4)

    def test_scaling_invariance(self):
        C = curve_cycle()
        rng = random.Random(20240821)
        for _ in range(15):
            w = (0, 0)
            while not any(w):
                w = (rng.randint(-20, 20), rng.randint(-20, 20))
            v = get_vertex(C, w)
            for k in (2, 3, 7):
                assert get_vertex(C, tuple(k * x for x in w)) == v

    def test_weight_split_invariance(self):
        merged = TropicalCycle(2, 1, [
            (Cone([(1, 0)], [], 2), 4),
            (Cone([(0, 1)], [], 2), 8),
            (Cone([(-1, -2)], [], 2), 4),
        ])
        C = curve_cycle()
        rng = random.Random(77)
        for _ in range(10):
            w = (0, 0)
            while not any(w):
                w = (rng.randint(-9, 9), rng.randint(-9, 9))
            assert get_vertex(C, w) == get_vertex(merged, w)

    def test_cone_subdivision_invariance(self):
        whole = TropicalCycle(3, 2, [
            (Cone([(1, 0, 0), (0, 1, 0)], [], 3), 6),
        ])
        split = TropicalCycle(3, 2, [
            (Cone([(1, 0, 0), (1, 1, 0)], [], 3), 6),
            (Cone([(1, 1, 0), (0, 1, 0)], [], 3), 6),
        ])
        rng = random.Random(78)
        for _ in range(10):
            w = (0, 0, 0)
            while not any(w):
                w = tuple(rng.randint(-9, 9) for _ in range(3))
            assert get_vertex(whole, w) == get_vertex(split, w)

    def test_empty_cycle_gives_origin(self):
        C = TropicalCycle(2, 1, [])
        assert get_vertex(C, (3, -4)) == (0, 0)

    def test_degenerate_direction_without_retries(self):
        # each direction grazes the cone R_+ (1, 0) or runs along its line;
        # the rays start at w_eps = w + (eps, eps^2).  From (0, -1) the ray
        # along e_2 meets the cone at (eps, 0), inside it; from (+-1, 0)
        # and (0, 1) it starts above the line, and no ray along e_1 meets
        # the line
        C = TropicalCycle(2, 1, [(Cone([(1, 0)], [], 2), 1)])
        assert get_vertex(C, (1, 0)) == (0, 0)
        assert get_vertex(C, (-1, 0)) == (0, 0)
        assert get_vertex(C, (0, 1)) == (0, 0)
        assert get_vertex(C, (0, -1)) == (0, 1)

    @settings(max_examples=100, deadline=None, derandomize=True,
              database=None)
    @given(st.data())
    def test_answer_is_the_least_vertex_of_the_face(self, data):
        # the codimension-one normal-fan cycle of a full-dimensional
        # lattice polytope P, each cone weighted by the lattice length of
        # its edge, is dual to a translate of P: for every w, degenerate
        # ones included, the answer is the lexicographically least vertex
        # of the face of P minimizing w, up to one translation
        n = data.draw(st.integers(2, 4))
        coord = st.integers(-3, 3)
        P = Polytope(data.draw(st.lists(st.tuples(*[coord] * n),
                                        min_size=n + 1, max_size=n + 4,
                                        unique=True)))
        assume(P.dim == n)
        items = []
        for cone, witness in polyhedra.normal_fan_cones(P, n - 1):
            a, b = P.face_vertices(witness)
            items.append((cone, math.gcd(*ec.vec_sub(a, b))))
        C = TropicalCycle(n, n - 1, items)
        small = [w for w in itertools.product((-1, 0, 1), repeat=n)
                 if any(w)]
        wider = data.draw(st.lists(
            st.tuples(*[st.integers(-2, 2)] * n).filter(any), max_size=10))
        shifts = {ec.vec_sub(get_vertex(C, w), min(P.face_vertices(w)))
                  for w in small + wider}
        assert len(shifts) == 1

    def test_oracle_draws_no_random_numbers(self):
        # the vertex oracle and the reconstruction ask only unit, equation
        # and facet directions, so no seed reaches them
        tree = ast.parse(inspect.getsource(implicitize))
        assert not any(isinstance(node, ast.Name) and node.id == "random"
                       for node in ast.walk(tree))
        assert list(inspect.signature(get_vertex).parameters) == ["C", "w"]
        assert list(inspect.signature(reconstruct_polytope).parameters) \
            == ["C"]

    def test_direction_validation(self):
        C = curve_cycle()
        with pytest.raises(ValueError):
            get_vertex(C, (0, 0))
        with pytest.raises(DimensionMismatch):
            get_vertex(C, (1, 0, 0))

    def test_pure_dimension_check(self):
        C = TropicalCycle(3, 1, [(Cone([(1, 0, 0)], [], 3), 1)])
        with pytest.raises(DimensionMismatch):
            get_vertex(C, (1, 1, 1))


class TestReconstruct:
    def test_curve_newton_polytope(self):
        P = reconstruct_polytope(curve_cycle())
        assert sorted(P.vertices) == [(0, 0), (0, 4), (8, 0)]

    def test_touches_all_coordinate_hyperplanes(self):
        P = reconstruct_polytope(curve_cycle())
        for i in range(2):
            assert min(v[i] for v in P.vertices) == 0

    def test_oracle_duality(self):
        C = curve_cycle()
        P = reconstruct_polytope(C)
        verts = set(P.vertices)
        rng = random.Random(424242)
        for _ in range(50):
            w = (0, 0)
            while not any(w):
                w = (rng.randint(-30, 30), rng.randint(-30, 30))
            v = get_vertex(C, w)
            assert v in verts
            assert ec.dot(w, v) == min(ec.dot(w, u) for u in P.vertices)

    def test_monomial_hypersurface_is_a_point(self):
        C = TropicalCycle(2, 1, [])
        P = reconstruct_polytope(C)
        assert P.vertices == ((0, 0),)

    def test_lying_oracle_detected(self):
        verts = [(0, 0), (4, 0), (0, 4)]

        def oracle(w):
            if tuple(w) == (-1, -1):
                return (5, -1)
            return min(sorted(verts), key=lambda v: ec.dot(w, v))

        with pytest.raises(OracleInconsistent):
            _reconstruct(oracle, 2)

    @pytest.mark.parametrize("chart", [
        lambda x, y, z: (x, y, z),
        lambda x, y, z: (x + y, y - z, 2 * z + x + 5, -x + 3),
    ], ids=["full", "lower"])
    def test_one_hull_grows_once_the_affine_hull_is_certified(
            self, monkeypatch, chart):
        # each vertex found after the equations are confirmed is inserted
        # into the one hull; the oracle answers from a known point list and
        # builds no hull, so every hull counted is the reconstruction's
        rng = random.Random(5005)
        pts = sorted({chart(*(rng.randint(-9, 9) for _ in range(3)))
                      for _ in range(60)})
        expected = Polytope(pts)
        hulls = []
        hull = polyhedra._hull_full_dim

        def recording(points):
            hulls.append(len(points))
            return hull(points)

        def oracle(w):
            return min(pts, key=lambda v: ec.dot(w, v))

        monkeypatch.setattr(polyhedra, "_hull_full_dim", recording)
        P = _reconstruct(oracle, len(pts[0]))
        assert P.vertices == expected.vertices
        assert P.facets() == expected.facets()
        assert len(P.vertices) > 12
        assert len(hulls) <= 2

    def test_sylvester_resultant_agrees(self):
        # x = 3 + 5t + 7t^3, y = 2 + t^2; independent check via sympy.
        param = Parametrization(1, 2, [
            [(3, (0,)), (5, (1,)), (7, (3,))],
            [(2, (0,)), (1, (2,))],
        ])
        C = get_tropical_cycle(param.newton_polytopes())
        P = reconstruct_polytope(C)
        t, x, y = sympy.symbols("t x y")
        res = sympy.resultant(x - (3 + 5 * t + 7 * t ** 3),
                              y - (2 + t ** 2), t)
        pts = [tuple(int(e) for e in mono)
               for mono in sympy.Poly(res, x, y).monoms()]
        lo = tuple(min(p[i] for p in pts) for i in range(2))
        Q = Polytope([ec.vec_sub(p, lo) for p in pts])
        assert sorted(P.vertices) == sorted(Q.vertices)


class TestParametrization:
    def test_newton_polytopes(self):
        param = Parametrization(1, 2, [
            [(11, (2,)), (5, (3,)), (-1, (4,))],
            [(11, (0,)), (11, (1,)), (7, (8,))],
        ])
        polys = param.newton_polytopes()
        assert [sorted(Q.vertices) for Q in polys] == [
            [(2,), (4,)], [(0,), (8,)]]

    def test_validation(self):
        with pytest.raises(ValueError):
            Parametrization(1, 2, [[(1, (0,))]])
        with pytest.raises(ValueError):
            Parametrization(1, 1, [[(0, (0,))]])
        with pytest.raises(ValueError):
            Parametrization(2, 1, [[(1, (0,))]])
        with pytest.raises(ValueError):
            Parametrization(1, 1, [[]])

    def test_json_roundtrip(self):
        param = Parametrization(2, 2, [
            [(ec.rat(3, 4), (1, -2)), (5, (0, 3))],
            [(-2, (2, 2))],
        ])
        again = Parametrization.from_json(parametrization_to_json(param))
        assert parametrization_to_json(again) == \
            parametrization_to_json(param)
        assert again.components == param.components

    def test_malformed_json(self):
        with pytest.raises(InputFormatError):
            Parametrization.from_json({"d": 1, "n": 1})
        with pytest.raises(InputFormatError):
            Parametrization.from_json(
                {"d": 1, "n": 1,
                 "components": [{"terms": [{"coeff": 0, "exp": [1]}]}]})
