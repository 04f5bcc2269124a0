import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tropimpl import exactcore as ec
from tropimpl import polyhedra as ph
from tropimpl.errors import (
    DimensionMismatch,
    InputFormatError,
    LatticeMismatch,
)

from oracle_utils import (
    SubsetCone,
    area2d,
    cone_hrep_by_lineality_hull,
    edge_lattice,
    extreme_rays,
    hull2d,
    integer_kernel,
    lattice_points2d,
    lattice_points_in_box,
    linear_solver,
    mixed_area,
    mixed_volume_by_subsums,
    normalized_volume,
    polytope_contains,
    solve_integer,
    unreachable_after,
)

# comparisons with a reference: seeded, derandomized examples
REFERENCE = settings(max_examples=100, deadline=None, derandomize=True,
                     database=None)


# ---------------------------------------------------------------------------
# hulls and vertices

def test_vertices_match_planar_oracle():
    rng = random.Random(1001)
    for _ in range(25):
        pts = [(rng.randint(-9, 9), rng.randint(-9, 9)) for _ in range(rng.randint(3, 12))]
        P = ph.Polytope(pts)
        expected = {(int(x), int(y)) for x, y in hull2d(pts)}
        if P.dim == 2:
            assert set(P.vertices) == expected
        else:
            # collinear candidates: the oracle returns the segment endpoints
            assert set(P.vertices) == expected


def test_all_points_inside_and_facets_valid():
    rng = random.Random(2002)
    for dim in (2, 3, 4):
        for _ in range(8):
            pts = [tuple(rng.randint(-5, 5) for _ in range(dim))
                   for _ in range(dim + rng.randint(2, 8))]
            P = ph.Polytope(pts)
            for p in pts:
                assert polytope_contains(P, p)
            for a, b, inc in P.facets():
                vals = [ec.dot(a, v) for v in P.vertices]
                assert max(vals) == b
                on = {i for i, s in enumerate(vals) if s == b}
                assert on == set(inc)
            # no vertex is redundant
            if len(P.vertices) > 1:
                for v in P.vertices:
                    others = [w for w in P.vertices if w != v]
                    assert not polytope_contains(ph.Polytope(others), v)


def test_point_and_segment_edge_cases():
    P = ph.Polytope([(3, 5)])
    assert P.dim == 0 and P.vertices == ((3, 5),)
    assert polytope_contains(P, (3, 5))
    assert not polytope_contains(P, (3, 0))
    S = ph.Polytope([(0, 0), (2, 4), (1, 2)])
    assert S.dim == 1
    assert set(S.vertices) == {(0, 0), (2, 4)}
    assert polytope_contains(S, (1, 2))
    assert not polytope_contains(S, (1, 1))


def test_f_vector_frozen_shapes():
    square = ph.Polytope([(0, 0), (3, 0), (0, 3), (3, 3)])
    assert square.f_vector() == (4, 4)
    cube = ph.Polytope([(x, y, z) for x in (0, 1) for y in (0, 1) for z in (0, 1)])
    assert cube.f_vector() == (8, 12, 6)
    simplex = ph.Polytope([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)])
    assert simplex.f_vector() == (4, 6, 4)
    octahedron = ph.Polytope([(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0),
                              (0, 0, 1), (0, 0, -1)])
    assert octahedron.f_vector() == (6, 12, 8)
    verts = []
    for i in range(4):
        for j in range(i + 1, 4):
            for s1 in (1, -1):
                for s2 in (1, -1):
                    v = [0, 0, 0, 0]
                    v[i], v[j] = s1, s2
                    verts.append(tuple(v))
    assert ph.Polytope(verts).f_vector() == (24, 96, 96, 24)


def test_euler_relation_random():
    rng = random.Random(3003)
    for dim in (2, 3, 4):
        for _ in range(5):
            pts = [tuple(rng.randint(-4, 4) for _ in range(dim))
                   for _ in range(dim + 6)]
            P = ph.Polytope(pts)
            f = P.f_vector()
            euler = sum((-1) ** i * c for i, c in enumerate(f))
            assert euler == 1 - (-1) ** P.dim


@st.composite
def point_sets(draw):
    """Integer points in R^2..R^5 around a base point, spread along 1..n
    drawn directions, so lower dimensional sets are common."""
    n = draw(st.integers(2, 5))
    vec = st.tuples(*[st.integers(-4, 4)] * n)
    base = draw(vec)
    dirs = draw(st.lists(vec, min_size=1, max_size=n))
    steps = draw(st.lists(st.tuples(*[st.integers(-2, 2)] * len(dirs)),
                          min_size=1, max_size=n + 5))
    return [tuple(b + sum(c * d[i] for c, d in zip(cs, dirs))
                  for i, b in enumerate(base)) for cs in steps]


@REFERENCE
@given(point_sets())
def test_hull_facets_are_primitive_integer_and_valid(pts):
    P = ph.Polytope(pts)
    for p in pts:
        assert all(ec.dot(c, p) == c0 for c, c0 in P.equations())
    for a, b, inc in P.facets():
        assert all(isinstance(x, int) for x in a) and ec.vec_gcd(a) == 1
        assert all(ec.dot(a, p) <= b for p in pts)
        assert ph._affine_rank([P.vertices[i] for i in inc]) == P.dim - 1
    f = P.f_vector()
    assert sum((-1) ** i * c for i, c in enumerate(f)) == 1 - (-1) ** P.dim


@REFERENCE
@given(point_sets())
def test_full_dimensional_charts_need_no_solves(pts):
    # a full dimensional polytope's lattice basis is the identity: its
    # chart coordinates are differences and its chart normals are ambient,
    # as the general change of basis finds them, with no solve at all
    calls = []

    def no_solve(name):
        def record(*args):
            calls.append(name)
        return record

    P = ph.Polytope(pts)
    if P.dim < P.ambient_dim:
        return
    L = [list(v) for v in P.lattice]
    solve = linear_solver(ec.transpose(L))
    coords = [solve(ec.vec_sub(v, pts[0])) for v in pts]
    normals = [ec.primitive_vector(solve_integer(L, u))
               for u, _, _ in P._chart_facets]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ec, "reduce_mod_subspace",
                   no_solve("reduce_mod_subspace"))
        fresh = ph.Polytope(pts)
        got = ph._lattice_coords(pts, fresh.lattice)
        facets = fresh.facets()
    assert calls == []
    assert got == coords
    assert [tuple(type(x) for x in y) for y in got] \
        == [tuple(type(x) for x in y) for y in coords]
    assert [a for a, _, _ in facets] == normals
    assert [b for _, b, _ in facets] \
        == [max(ec.dot(a, v) for v in P.vertices) for a in normals]


@st.composite
def seeded_insertions(draw):
    """Integer points on a k-dimensional affine lattice in R^n, k = n or
    lower: an affinely independent start, then the points to insert one
    at a time."""
    n = draw(st.integers(1, 5))
    k = draw(st.integers(1, min(n, 4)))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    while True:
        M = [[rng.randint(-2, 2) for _ in range(k)] for _ in range(n)]
        if ec.rational_rank(M) == k:
            break
    base = [rng.randint(-6, 6) for _ in range(n)]

    def point(y):
        return tuple(b + ec.dot(row, y) for b, row in zip(base, M))

    start = [point([0] * k)] + [point([int(i == j) for j in range(k)])
                                for i in range(k)]
    more = [point([rng.randint(-4, 4) for _ in range(k)])
            for _ in range(draw(st.integers(1, 12)))]
    return start, more


@REFERENCE
@given(seeded_insertions())
def test_builder_insertions_match_fresh_hulls(case):
    # each point inserted into one beneath-beyond state gives the hull that
    # Polytope(sorted(pts)) builds from scratch: same facets in the same
    # order, and the same polytope down to its chart facets
    start, more = case
    B = ph.PolytopeBuilder(start)
    pts = list(start)
    for x in more:
        B.add(x)
        pts.append(x)
        P = ph.Polytope(sorted(pts))
        assert B.facets() == [(a, b) for a, b, _ in P.facets()]
    Q = B.polytope()
    assert Q.vertices == P.vertices and Q.dim == P.dim
    assert Q.facets() == P.facets()
    assert Q.f_vector() == P.f_vector()
    assert Q.equations() == P.equations() == B.equations()
    assert Q._chart_base == P._chart_base
    assert Q._chart_facets == P._chart_facets


def test_builder_rejects_a_point_off_its_affine_hull():
    B = ph.PolytopeBuilder([(0, 0, 1), (1, 0, 1), (0, 1, 1)])
    with pytest.raises(LatticeMismatch):
        B.add((0, 0, 0))


def test_polytopes_take_integer_points_only():
    # every polytope of the pipeline is a lattice polytope: a Fraction,
    # integral or not, is no int coordinate, and neither is a bool
    for bad in [(Fraction(1, 2), 0), (Fraction(4, 2), 0), (True, 0)]:
        with pytest.raises(ValueError):
            ph.Polytope([(0, 0), bad])
    B = ph.PolytopeBuilder([(0, 0), (1, 0), (0, 1)])
    with pytest.raises(ValueError):
        B.add((Fraction(1, 2), 0))
    assert B.polytope().vertices == ((0, 0), (0, 1), (1, 0))
    with pytest.raises(InputFormatError):
        ph.Polytope.from_json({"vertices": [["1/2", 0]]})


def test_lower_dimensional_embedding():
    # a triangle sitting on the plane x+y+z = 2 in 3-space, with a point
    # of one edge that is no vertex
    pts = [(2, 0, 0), (0, 2, 0), (0, 0, 2), (1, 1, 0)]
    P = ph.Polytope(pts)
    assert P.dim == 2 and P.ambient_dim == 3
    assert P.f_vector() == (3, 3)
    eqs = P.equations()
    assert len(eqs) == 1
    c, c0 = eqs[0]
    assert ec.primitive_vector(c) in [(1, 1, 1)]
    for v in P.vertices:
        assert ec.dot(c, v) == c0


# ---------------------------------------------------------------------------
# faces and normal fans

def test_face_of_square():
    P = ph.Polytope([(0, 0), (2, 0), (0, 2), (2, 2)])
    assert ph.Polytope([(0, 0)]) == P.face_of((1, 1))
    edge = P.face_of((1, 0))
    assert set(edge.vertices) == {(0, 0), (0, 2)}
    assert P.face_of((0, 0)) == ph.Polytope(P.vertices)


def test_normal_fan_of_square():
    P = ph.Polytope([(0, 0), (1, 0), (0, 1), (1, 1)])
    tops = ph.normal_fan_cones(P, 0)
    assert len(tops) == 1 and tops[0][0].dim == 0
    edges = ph.normal_fan_cones(P, 1)
    assert len(edges) == 4
    corners = ph.normal_fan_cones(P, 2)
    assert len(corners) == 4
    for cone, w in corners:
        assert P.face_of(w).dim == 0
        assert cone.contains_relint(w)
    keys = {cone.canonical_key() for cone, _ in corners}
    assert len(keys) == 4
    origin_cone = next(c for c, w in corners
                       if P.face_of(w).vertices == ((0, 0),))
    assert set(origin_cone.rays) == {(0, 1), (1, 0)}


def test_normal_fan_lower_dim_segment():
    P = ph.Polytope([(0, 0), (1, 1)])
    full = ph.normal_fan_cones(P, 1)
    assert len(full) == 1
    cone, w = full[0]
    assert cone.lineality == ((1, -1),) and cone.rays == ()
    assert P.face_of(w) == P
    verts = ph.normal_fan_cones(P, 2)
    assert len(verts) == 2
    for cone, w in verts:
        assert cone.dim == 2 and len(cone.lineality) == 1
        assert P.face_of(w).dim == 0
        assert cone.contains_relint(w)


def test_summand_faces_at_a_witness_sum_to_the_face():
    # supports of points, segments and triangles in R^1..R^3, lifted as in
    # the graph cycle to conv(e_i, 0 x Q_i): at a witness of every normal
    # cone of dimension d the summand faces add up to the face of the sum,
    # and their own lattice is the face's, of rank n
    rng = random.Random(9)
    shapes = [(d, n) for d in (1, 2, 3) for n in (1, 2, 3) if n + d <= 5]
    for d, n in shapes * 2:
        lifted = []
        for i in range(n):
            pts = [tuple(rng.randint(-2, 2) for _ in range(d))
                   for _ in range(rng.choice([1, 2, 3]))]
            apex = tuple(1 if j == i else 0 for j in range(n)) + (0,) * d
            lifted.append(ph.Polytope([apex] + [(0,) * n + p for p in pts]))
        P = ph.minkowski_sum(lifted)
        for _, w in ph.normal_fan_cones(P, d):
            faces = [Q.face_of(w) for Q in lifted]
            face = P.face_of(w)
            assert ph.minkowski_sum(faces).vertices == face.vertices
            assert face.lattice.rank == n
            assert ph.mixed_volume(faces, edge_lattice(faces)) == \
                ph.mixed_volume(faces, face.lattice)


# ---------------------------------------------------------------------------
# lattice points

def test_lattice_points_match_planar_oracle():
    rng = random.Random(4004)
    for _ in range(20):
        pts = [(rng.randint(-6, 6), rng.randint(-6, 6))
               for _ in range(rng.randint(3, 8))]
        P = ph.Polytope(pts)
        assert P.lattice_points() == lattice_points2d(pts)


def test_lattice_points_hand_cases():
    assert len(ph.Polytope([(0, 0), (3, 0), (0, 3), (3, 3)]).lattice_points()) == 16
    assert len(ph.Polytope([(0, 0), (2, 0), (0, 2)]).lattice_points()) == 6
    seg = ph.Polytope([(0, 0), (3, 6)])
    assert seg.lattice_points() == [(0, 0), (1, 2), (2, 4), (3, 6)]
    pt = ph.Polytope([(2, 5)])
    assert pt.lattice_points() == [(2, 5)]


@st.composite
def polytopes_in_r4_r5(draw):
    """At most 8 points in R^4 or R^5: integer, or integer on a hyperplane
    whose lattice is not a coordinate sublattice."""
    d = draw(st.sampled_from([4, 5]))
    kind = draw(st.sampled_from(["integer", "flat"]))
    n = draw(st.integers(d - 1, 8))
    if kind == "flat":
        c = draw(st.lists(st.integers(-2, 2), min_size=d - 1,
                          max_size=d - 1))
        xs = draw(st.lists(st.lists(st.integers(-4, 4), min_size=d - 1,
                                    max_size=d - 1),
                           min_size=n, max_size=n))
        return [tuple(x + [ec.dot(c, x) + 1]) for x in xs]
    coord = st.integers(-6, 6)
    return draw(st.lists(st.tuples(*[coord] * d), min_size=n, max_size=n))


# 8 points in R^5 whose projections, eliminated by Fourier-Motzkin without
# redundancy removal, pass 20000 inequalities
R5_INTEGER = [(0, 9, 6, 7, 3), (9, -8, 6, -2, 3), (4, -4, 2, 8, 2),
              (-7, 5, 7, -6, -4), (7, 3, 2, 6, -9), (6, -8, 0, 10, 9),
              (9, 3, -4, -4, 7), (-2, -9, -3, 8, 8)]


@REFERENCE
@given(polytopes_in_r4_r5())
@example(R5_INTEGER)
def test_lattice_points_match_box_count_r4_r5(pts):
    P = ph.Polytope(pts)
    assert P.lattice_points() == lattice_points_in_box(P)


def test_lattice_points_3d():
    cube = ph.Polytope([(x, y, z) for x in (0, 2) for y in (0, 2) for z in (0, 2)])
    assert len(cube.lattice_points()) == 27
    # plane slice x+y+z = 3 of the cube [0,3]^3: a lattice hexagon
    hexagon = ph.Polytope([(0, 0, 3), (0, 3, 0), (3, 0, 0),
                           (3, 3, -3), (3, -3, 3), (-3, 3, 3)])
    pts = hexagon.lattice_points()
    assert all(sum(p) == 3 for p in pts)


def test_lattice_points_leave_no_reference_cycles():
    # a sweep over three chart coordinates leaves nothing for the cycle
    # collector
    cube = [(x, y, z) for x in (0, 2) for y in (0, 3) for z in (-1, 1)]
    assert unreachable_after(lambda: ph.Polytope(cube).lattice_points()) == 0


def test_lattice_points_match_brute_force_3d():
    # full-dimensional, flat and single-segment cases against a box sweep
    # filtered by exact containment
    rng = random.Random(6006)
    shapes = []
    for _ in range(10):
        shapes.append([tuple(rng.randint(-4, 4) for _ in range(3))
                       for _ in range(rng.randint(4, 7))])
    for _ in range(4):
        # a polygon in the plane x + 2y - z = 1
        shapes.append([(x, y, x + 2 * y - 1) for x, y in
                       ((rng.randint(-3, 3), rng.randint(-3, 3))
                        for _ in range(rng.randint(3, 5)))])
    shapes.append([(0, 0, 0), (4, 2, 6)])
    for pts in shapes:
        P = ph.Polytope(pts)
        box = [range(min(p[i] for p in pts), max(p[i] for p in pts) + 1)
               for i in range(3)]
        expected = [q for q in product(*box) if polytope_contains(P, q)]
        assert P.lattice_points() == expected


# ---------------------------------------------------------------------------
# volumes

def test_normalized_volume_frozen():
    assert normalized_volume(ph.Polytope([(0, 0), (1, 0), (0, 1)])) == 1
    assert normalized_volume(ph.Polytope([(0, 0), (2, 0), (0, 2), (2, 2)])) == 8
    assert normalized_volume(ph.Polytope([(0,), (5,)])) == 5
    cube = ph.Polytope([(x, y, z) for x in (0, 1) for y in (0, 1) for z in (0, 1)])
    assert normalized_volume(cube) == 6
    seg = ph.Polytope([(0, 0), (2, 4)])
    assert normalized_volume(seg) == 2


def test_normalized_volume_against_planar_oracle():
    rng = random.Random(5005)
    for _ in range(20):
        pts = [(rng.randint(-7, 7), rng.randint(-7, 7))
               for _ in range(rng.randint(3, 9))]
        P = ph.Polytope(pts)
        if P.dim < 2:
            continue
        assert normalized_volume(P) == 2 * area2d(pts)


def test_normalized_volume_lattice_argument():
    seg = ph.Polytope([(0, 0), (3, 3)])
    fine = ec.saturate([(1, 1)])
    assert normalized_volume(seg, fine) == 3
    # positive dimensional polytope against a rank 0 lattice is an error
    with pytest.raises(LatticeMismatch):
        normalized_volume(seg, ec.saturate([], 2))
    # a polytope escaping the span of the lattice is an error
    with pytest.raises(LatticeMismatch):
        normalized_volume(ph.Polytope([(0, 0), (1, 0)]), fine)
    # lower dimensional polytope in a bigger lattice has volume zero
    plane = ec.saturate([(1, 0), (0, 1)])
    assert normalized_volume(seg, plane) == 0


def test_mixed_volume_unit_segments_and_diagonal():
    segs = [ph.Polytope([(0, 0), (1, 0)]), ph.Polytope([(0, 0), (0, 1)])]
    assert ph.mixed_volume(segs, edge_lattice(segs)) == 1
    tri = ph.Polytope([(0, 0), (1, 0), (0, 1)])
    assert ph.mixed_volume([tri, tri], edge_lattice([tri])) \
        == normalized_volume(tri) == 1
    a, b = 3, 5
    segs = [ph.Polytope([(0, 0), (a, 0)]), ph.Polytope([(0, 0), (0, b)])]
    assert ph.mixed_volume(segs, edge_lattice(segs)) == a * b
    # no summands in a rank 0 lattice: the empty determinant
    assert ph.mixed_volume([], ec.saturate([], 2)) == 1


def test_mixed_volume_matches_volume_polynomial_oracle():
    rng = random.Random(6006)
    done = 0
    while done < 20:
        pts1 = [(rng.randint(-5, 5), rng.randint(-5, 5)) for _ in range(4)]
        pts2 = [(rng.randint(-5, 5), rng.randint(-5, 5)) for _ in range(4)]
        P, Q = ph.Polytope(pts1), ph.Polytope(pts2)
        dirs = []
        for R in (P, Q):
            dirs += [ec.vec_sub(v, R.vertices[0]) for v in R.vertices[1:]]
        if ec.rational_rank([list(d) for d in dirs]) < 2:
            continue
        assert ph.mixed_volume([P, Q], edge_lattice([P, Q])) \
            == mixed_area(pts1, pts2)
        done += 1


def test_mixed_volume_dimension_check():
    tri = ph.Polytope([(0, 0), (1, 0), (0, 1)])
    with pytest.raises(DimensionMismatch):
        ph.mixed_volume([tri, tri, tri], edge_lattice([tri]))


def _mixed_volume_or_error(fn, polys, lattice):
    try:
        return fn(polys, lattice)
    except (DimensionMismatch, LatticeMismatch) as exc:
        return type(exc)


@REFERENCE
@given(st.data())
def test_mixed_volume_matches_subsum_reference(data):
    # k summands in the span of a rank k lattice of R^n: points, segments,
    # lower dimensional and full ones; measured in that lattice, in the
    # derived one, in one of the wrong rank and in one of the wrong span
    k = data.draw(st.sampled_from([4, 3, 2, 1]))
    n = data.draw(st.integers(k, 5))
    kinds = data.draw(st.lists(
        st.sampled_from(["full", "lower", "segment", "point"]),
        min_size=k, max_size=k))
    lattice = data.draw(st.sampled_from(["given", "derived", "rank", "span"]))
    rng = random.Random(data.draw(st.integers(0, 2 ** 32)))
    axes = rng.sample(range(n), k)
    basis = []
    for j in axes:
        v = [rng.randint(-2, 2) if i not in axes else 0 for i in range(n)]
        v[j] = 1
        basis.append(v)

    def combo(vectors, h):
        coeffs = [rng.randint(-h, h) for _ in vectors]
        return tuple(sum(c * v[i] for c, v in zip(coeffs, vectors))
                     for i in range(n))

    polys = []
    for kind in kinds:
        dirs = {"point": [], "segment": [combo(basis, 3)],
                "lower": [combo(basis, 2)
                          for _ in range(rng.randint(1, max(k - 1, 1)))],
                "full": basis}[kind]
        # at most 3 points a summand when k = 4 keeps subsums to 81 points
        count = {"point": 1, "segment": 2}.get(kind, min(len(dirs) + 1, 7 - k))
        base = tuple(rng.randint(-5, 5) for _ in range(n))
        pts = [base] + [ec.vec_add(base, combo(dirs, 2))
                        for _ in range(count - 1)]
        polys.append(ph.Polytope(pts))
    L = {"given": ec.saturate(basis, n),
         "derived": edge_lattice(polys),
         "rank": ec.saturate(basis[1:], n),
         "span": ec.saturate(basis[1:] + [[1] * n], n)}[lattice]
    got = _mixed_volume_or_error(ph.mixed_volume, polys, L)
    assert got == _mixed_volume_or_error(mixed_volume_by_subsums, polys, L)
    if lattice == "rank":
        assert got is DimensionMismatch


def test_minkowski_sum_keeps_summands():
    # the sum is a plain polytope; its faces are the sums of summand faces
    P = ph.Polytope([(0, 0), (1, 0)])
    Q = ph.Polytope([(0, 0), (0, 1)])
    S = ph.minkowski_sum([P, Q])
    assert set(S.vertices) == {(0, 0), (1, 0), (0, 1), (1, 1)}
    faces = [P.face_of((-1, -1)), Q.face_of((-1, -1))]
    assert [f.vertices for f in faces] == [((1, 0),), ((0, 1),)]
    assert ph.minkowski_sum(faces) == S.face_of((-1, -1))
    assert S.face_of((-1, -1)).vertices == ((1, 1),)


# ---------------------------------------------------------------------------
# cones

def test_cone_membership_and_facets():
    C = ph.Cone([(1, 0), (0, 1)])
    assert C.contains((2, 3)) and C.contains_relint((2, 3))
    assert C.contains((1, 0)) and not C.contains_relint((1, 0))
    assert not C.contains((-1, 2))
    assert C.dim == 2 and len(C.lineality) == 0
    assert extreme_rays(C) == ((0, 1), (1, 0))


def test_cone_redundant_ray_same_key():
    C1 = ph.Cone([(1, 0), (0, 1)])
    C2 = ph.Cone([(1, 0), (0, 1), (2, 3)])
    assert C1.canonical_key() == C2.canonical_key()
    assert extreme_rays(C2) == ((0, 1), (1, 0))


def test_cone_hidden_lineality_peeled():
    C = ph.Cone([(1, 0), (-1, 0), (0, 1)])
    assert C.canonical_key()[2] == ((1, 0),)
    D = ph.Cone([(0, 1)], [(1, 0)])
    assert C.canonical_key() == D.canonical_key()
    assert C.contains((5, 0)) and not C.contains_relint((5, 0))
    assert C.contains_relint((5, 1))


def test_cone_with_lineality_membership():
    C = ph.Cone([(0, 0, 1)], [(1, 1, 0)])
    assert C.contains((3, 3, 0)) and not C.contains_relint((3, 3, 0))
    assert C.contains_relint((-2, -2, 5))
    assert not C.contains((1, 0, 1))
    assert C.dim == 2


def test_cone_trivial_and_linear_space():
    Z = ph.Cone([], [], ambient_dim=2)
    assert Z.dim == 0 and Z.contains((0, 0)) and Z.contains_relint((0, 0))
    assert not Z.contains((1, 0))
    L = ph.Cone([], [(1, 0), (0, 1)])
    assert L.dim == 2 and L.contains_relint((4, -7))


def test_cone_halfline_and_opposite_rays():
    H = ph.Cone([(2, 4)])
    assert H.rays == ((1, 2),)
    assert H.contains((3, 6)) and H.contains_relint((3, 6))
    assert H.contains((0, 0)) and not H.contains_relint((0, 0))
    assert not H.contains((-1, -2))
    B = ph.Cone([(1, 2), (-1, -2)])
    assert B.canonical_key()[2] == ((1, 2),)
    assert B.contains((-2, -4)) and B.contains_relint((-2, -4))


def test_cone_hyperplane_normal():
    C = ph.Cone([(1, 0, 0)], [(0, 1, 0)])
    assert C.hyperplane_normal() == (0, 0, 1)
    # opposite rays close up to the plane 2x = 3z: the span equation
    D = ph.Cone([(3, 0, 2), (-3, 0, -2), (0, 1, 0)])
    assert D.hyperplane_normal() == (2, 0, -3)
    assert D.hyperplane_normal() == tuple(integer_kernel(
        [list(v) for v in D.span], 3)[0])
    with pytest.raises(DimensionMismatch):
        ph.Cone([(1, 0, 0)]).hyperplane_normal()


def test_cone_negated():
    C = ph.Cone([(1, 2)])
    N = C.negated()
    assert N.rays == ((-1, -2),)
    assert N.contains((-2, -4)) and not N.contains((1, 2))


@st.composite
def cones_modulo_lineality(draw):
    """Cones in R^2..R^5 with 0..3 lineality vectors and up to 7 rays, so
    many are not simplicial, some rays with their opposites, so some hide
    lineality among the rays."""
    n = draw(st.integers(2, 5))
    vec = st.tuples(*[st.integers(-3, 3)] * n)
    lin = draw(st.lists(vec, max_size=3))
    rays = draw(st.lists(vec, max_size=7))
    rays += [tuple(-x for x in r) for r in rays if draw(st.booleans())]
    return ph.Cone(rays, lin, n)


@REFERENCE
@example(ph.Cone([(1, 0, 1, 0), (0, 1, 1, 0), (-1, 0, 1, 0),
                  (0, -1, 1, 0)], [(0, 0, 0, 1)]))
@example(ph.Cone([(1, 0, 0), (-1, 0, 0), (0, 1, 0)], [(1, 1, 1)]))
@given(cones_modulo_lineality())
def test_cone_hrep_matches_lineality_hull(cone):
    # the hull modulo the lineality gives the H-representation of the hull
    # with both signs of every lineality vector in the full span
    reference = cone_hrep_by_lineality_hull(cone)
    assert cone._build_hrep() == reference
    assert extreme_rays(cone) == reference[2]
    assert cone.canonical_key() == (cone.ambient_dim,) + reference[2:]


@st.composite
def simplicial_cones(draw):
    """Cones in R^1..R^5 on independent generators, the first few taken
    as lineality and the rest as rays: spans of every dimension, with and
    without lineality, and cones of 0 or 1 ray among them."""
    n = draw(st.integers(1, 5))
    dim = n - draw(st.integers(0, n))
    lin = dim - draw(st.integers(0, dim))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    while True:
        gens = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(dim)]
        if ec.rational_rank(gens) == dim:
            break
    return ph.Cone(gens[lin:], gens[:lin], n)


@REFERENCE
@example(ph.Cone([], [], 3))
@example(ph.Cone([], [(1, 1, 1)]))
@example(ph.Cone([(0, 2, 0)], [], 3))
@example(ph.Cone([(3, 0, 2), (0, 1, 0)]))
@example(ph.Cone([(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0)], [(1, 1, 1, 1)]))
@example(ph.Cone([(1, 0, 0, 0, 0), (0, 1, 2, 0, 0)], [(1, 1, 1, 1, 1)]))
@given(simplicial_cones())
def test_simplicial_cone_hrep_in_closed_form(cone):
    # rays independent modulo the lineality: the dual basis of the rays
    # gives what the hull of the rays and both signs of the lineality gives
    n = cone.ambient_dim
    gens = [list(v) for v in cone.rays + cone.lineality]
    span = tuple(ec.saturate(gens, n)) if gens else ()
    # the kernel of the generators is that of their saturated span
    equations = integer_kernel([list(v) for v in span], n)
    assert equations == integer_kernel(gens, n)
    assert len(cone.rays) == cone.dim - len(cone.lineality)
    assert cone.dim == len(span) == n - len(equations)
    assert cone.span == span
    if cone.dim == n - 1:
        assert cone.hyperplane_normal() == equations[0]
    else:
        with pytest.raises(DimensionMismatch):
            cone.hyperplane_normal()
    assert cone._hrep is None  # the span equation needs no facets
    reference = cone_hrep_by_lineality_hull(cone)
    assert cone._build_hrep() == reference
    assert reference[2:] == (cone.rays, cone.lineality)
    assert cone.canonical_key() == (n, cone.rays, cone.lineality)


@REFERENCE
@given(simplicial_cones())
def test_simplicial_facets_reduce_only_the_span_basis(cone):
    # facet normals are minors of the generators' span coordinates, pulled
    # back through the span's dual basis: no saturate, and no Hermite form
    # but the span basis's reduction, which gives that dual basis, and the
    # span equations' own, which the H-representation holds and the vertex
    # oracle reads first, through hyperplane_normal()
    n, k = cone.ambient_dim, cone.dim
    for equations_first in (False, True):
        calls = []

        def recording(name, f):
            def call(*args):
                calls.append(name)
                return f(*args)
            return call

        fresh = ph.Cone(cone.rays, cone.lineality, n)
        if equations_first:
            fresh._equations
        with pytest.MonkeyPatch.context() as mp:
            for name in ("row_hermite", "saturate"):
                mp.setattr(ec, name, recording(name, getattr(ec, name)))
            facets = fresh.facets()
        assert calls == ["row_hermite"] * ((0 < k < n) * (2 - equations_first))
        assert facets == cone.facets()


def test_cone_hulls_only_modulo_the_lineality(monkeypatch):
    # a simplicial cone hulls nothing; any other cone hulls the ray images
    # modulo the lineality, which span dim - len(lineality), where a hull of
    # the rays with both signs of the lineality would span dim
    dims = []
    hull = ph._hull_full_dim

    def recording(points):
        dims.append(len(points[0]))
        return hull(points)

    monkeypatch.setattr(ph, "_hull_full_dim", recording)
    rng = random.Random(4004)
    cones = [ph.Cone([(1, 0, 1, 0), (0, 1, 1, 0), (-1, 0, 1, 0),
                      (0, -1, 1, 0)], [(0, 0, 0, 1)])]
    for _ in range(30):
        n = rng.randint(3, 6)
        cones.append(ph.Cone(
            [[rng.randint(-3, 3) for _ in range(n)]
             for _ in range(rng.randint(1, 5))],
            [[rng.randint(-3, 3) for _ in range(n)]
             for _ in range(rng.randint(1, 3))], n))
    assert sum(len(C.lineality) > 0 for C in cones) > 20
    hulled_with_lineality = 0
    for C in cones:
        dims.clear()
        C.facets()
        extreme_rays(C)
        if len(C.rays) == C.dim - len(C.lineality):
            assert dims == []
        else:
            assert max(dims) <= C.dim - len(C.lineality)
            hulled_with_lineality += len(C.lineality) > 0
    assert hulled_with_lineality >= 10


@st.composite
def cones_with_probes(draw):
    """Rays and lineality in R^2..R^4, some rays with their opposites, and
    probe points: sums of generator subsets (boundary points included) and
    random vectors."""
    n = draw(st.integers(2, 4))
    vec = st.tuples(*[st.integers(-2, 2)] * n)
    rays = draw(st.lists(vec, max_size=5))
    rays += [tuple(-x for x in r) for r in rays if draw(st.booleans())]
    lin = draw(st.lists(vec, max_size=2))
    gens = rays + lin + [tuple(-x for x in l) for l in lin]
    probes = [tuple(sum(g[i] for g in S) for i in range(n))
              for S in draw(st.lists(st.sets(st.sampled_from(gens))
                                     if gens else st.just(set()),
                                     min_size=1, max_size=8))]
    probes += draw(st.lists(st.tuples(*[st.integers(-4, 4)] * n),
                            max_size=4))
    return n, rays, lin, probes


@REFERENCE
@given(cones_with_probes())
def test_cone_matches_subset_facet_search(case):
    n, rays, lin, probes = case
    C = ph.Cone(rays, lin, n)
    R = SubsetCone(rays, lin, n)
    assert extreme_rays(C) == R.extreme_rays
    assert C.canonical_key() == R.canonical_key()
    for x in probes:
        assert C.contains(x) == R.contains(x)
        assert C.contains_relint(x) == R.contains(x, strict=True)
