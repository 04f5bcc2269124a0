"""Lattice polytopes and rational polyhedral cones, all arithmetic exact.

Polytopes are built from vertex candidates by an incremental beneath-beyond
hull in chart coordinates of their own affine lattice, so lower dimensional
polytopes in a high ambient space cost no more than full dimensional ones.
The hull's state stays open: a ``PolytopeBuilder`` inserts further points
of the same affine hull one at a time, each one beneath-beyond step, and
``Polytope(points)`` is what a builder of those points holds.
Every polytope of the pipeline is a lattice polytope (Newton, Chow and
mixed fiber polytopes), so a point's coordinates must be ints.  Chart
points are then integers, and each facet normal is a vector of integer
minors, so a hull never forms a fraction; the chart lattice's one Hermite
factorization gives chart coordinates and pulls chart normals back to
ambient ones.  Mixed volumes, measured in a given lattice, skip hulls
where a rank test or one determinant decides them.
Lattice points are swept one chart coordinate at a time from the least
vertex, bounded by the facets of the projections to the leading
coordinates; a projection of a polytope is the hull of its projected
vertices (Ziegler, Lectures on Polytopes, Lecture 1), so the same hull
gives every bound.
Cones carry rays plus a lineality space.  One ``saturate`` of those
generators gives a cone's span and its equations, and one of the
lineality gives the lineality's basis and equations.  A simplicial cone,
whose rays are independent modulo the lineality, builds no hull: its
facet normals, the dual basis of its rays, are minors of span coordinates
pulled back, and its rays and lineality are its key.  Any other cone reads its facet normals, lazily, off the hull
of the origin and the images of the rays modulo the lineality, a pointed
cone (Fulton, Introduction to Toric Varieties, 1.2).  Membership is a few
dot products.
"""

from __future__ import annotations

import math
from itertools import combinations

from . import exactcore as ec
from .errors import (
    DimensionMismatch,
    EnumerationTooLarge,
    InputFormatError,
    LatticeMismatch,
)

LATTICE_POINT_BUDGET = 10 ** 8


def _affine_rank(points):
    pts = list(points)
    if len(pts) <= 1:
        return 0
    p0 = pts[0]
    return ec.rational_rank([list(ec.vec_sub(p, p0)) for p in pts[1:]])


def _hull_full_dim(points):
    """Beneath-beyond hull of points affinely spanning R^k, as a ``_Hull``
    that takes further points.

    The seed simplex is the first k + 1 affinely independent points; the
    other points are inserted in their order.
    """
    k = len(points[0])
    seed = [0]
    diffs = []
    for i in range(1, len(points)):
        if len(seed) == k + 1:
            break
        cand = diffs + [list(ec.vec_sub(points[i], points[0]))]
        if ec.rational_rank(cand) == len(cand):
            diffs = cand
            seed.append(i)
    if len(seed) != k + 1:
        raise DimensionMismatch("points do not span the chart")
    return _Hull(points, seed)


def _minors_normal(rows, k):
    """The signed maximal minors of k - 1 rows in Q^k, made primitive: their
    generalized cross product; DimensionMismatch if they are dependent."""
    minors = [ec.det([r[:j] + r[j + 1:] for r in rows]) for j in range(k)]
    if not any(minors):
        raise DimensionMismatch("degenerate facet simplex")
    return ec.primitive_vector(
        [-m if j % 2 else m for j, m in enumerate(minors)])


class _Hull:
    """Beneath-beyond state of points affinely spanning R^k.

    ``simplices`` maps each simplex of a boundary triangulation, a
    frozenset of k point indices, to its plane (a, b): a primitive integer
    normal with a.x <= b on the hull.  A facet normal is the vector of
    signed maximal minors of the simplex's difference rows, its
    generalized cross product, cleared of denominators; its side is fixed
    against the seed centroid, scaled by k + 1 so it stays integral for
    integer points.  Planes are canonical, so the merged facets and the
    vertices do not depend on the order in which points arrive.
    """

    def __init__(self, points, seed):
        self.points = list(points)
        self.k = k = len(points[0])
        self._seed_sum = tuple(sum(points[i][j] for i in seed)
                               for j in range(k))
        self.simplices = {}
        if k:
            for drop in range(k + 1):
                idx = tuple(seed[i] for i in range(k + 1) if i != drop)
                self.simplices[frozenset(idx)] = self._plane(idx)
        in_seed = set(seed)
        for q in range(len(self.points)):
            if q not in in_seed:
                self._insert(q)

    def add(self, point):
        """Insert one more point of R^k."""
        self.points.append(point)
        self._insert(len(self.points) - 1)

    def _plane(self, idx):
        k = self.k
        points = self.points
        base = points[idx[0]]
        a = _minors_normal([ec.vec_sub(points[i], base) for i in idx[1:]], k)
        b = ec.dot(a, base)
        side = ec.dot(a, self._seed_sum)
        if side == (k + 1) * b:
            raise DimensionMismatch("interior point on a facet hyperplane")
        if side > (k + 1) * b:
            a = tuple(-x for x in a)
            b = -b
        return a, b

    def _insert(self, q):
        pq = self.points[q]
        simplices = self.simplices
        visible = [f for f, (a, b) in simplices.items() if ec.dot(a, pq) > b]
        if not visible:
            return
        ridge_count = {}
        for f in visible:
            for r in combinations(sorted(f), len(f) - 1):
                ridge_count[r] = ridge_count.get(r, 0) + 1
        for f in visible:
            del simplices[f]
        for ridge, cnt in ridge_count.items():
            if cnt == 1:
                new = frozenset(ridge) | {q}
                simplices[new] = self._plane(tuple(sorted(new)))

    def merged(self):
        """(vertex_indices, facets): the facets as sorted (normal, offset,
        vertex_index_set) triples, one per plane of the triangulation, and
        the vertices as the points whose planes' normals have rank k."""
        if not self.k:
            return [0], []
        by_plane = {}
        for f, plane in self.simplices.items():
            by_plane.setdefault(plane, set()).update(f)
        incident = {}
        for (a, b), pts in by_plane.items():
            for i in pts:
                incident.setdefault(i, []).append(a)
        vertex_indices = sorted(
            i for i, normals in incident.items()
            if ec.rational_rank([list(a) for a in normals]) == self.k)
        vset = set(vertex_indices)
        return vertex_indices, [(a, b, frozenset(pts & vset))
                                for (a, b), pts in sorted(by_plane.items())]


def _lattice_point(p):
    """p as a tuple; ValueError unless every coordinate is an int (a bool
    is not one)."""
    p = tuple(p)
    if not all(type(x) is int for x in p):
        raise ValueError(f"not a lattice point: {p!r}")
    return p


class PolytopeBuilder:
    """The hull of lattice points, grown one point at a time on their
    affine hull; ValueError for a point with a coordinate that is not an
    int.

    The points are read in the ``coordinates`` of the saturated direction
    lattice of their affine hull, from the first sorted point, and the
    hull of those chart points stays one beneath-beyond state, so a point
    added costs one substitution and one insertion, not a new hull.
    ``Polytope(points)`` is the ``polytope()`` of its builder.
    """

    def __init__(self, points):
        pts = sorted({_lattice_point(p) for p in points})
        if not pts:
            raise ValueError("a polytope needs at least one point")
        self.ambient_dim = len(pts[0])
        if any(len(p) != self.ambient_dim for p in pts):
            raise DimensionMismatch("points of mixed length")
        self.points = pts
        self._base = pts[0]
        directions = [ec.vec_sub(p, self._base) for p in pts[1:]]
        self.lattice = ec.saturate(directions, self.ambient_dim)
        self._hull = _hull_full_dim(_lattice_coords(pts, self.lattice))
        self._ambient = {}  # chart plane -> ambient facet

    def equations(self):
        """Integer equations (c, c0) with c.x = c0 on the affine hull."""
        return [(c, ec.dot(c, self._base)) for c in self.lattice.equations]

    def add(self, point):
        """Add a lattice point of the affine hull; LatticeMismatch off it."""
        point = _lattice_point(point)
        self.points.append(point)
        self._hull.add(_lattice_coords([self._base, point], self.lattice)[1])

    def facets(self):
        """Ambient facet inequalities (a, b), a.x <= b, of the points added
        so far, in the order of ``Polytope.facets``.  Each plane is pulled
        back once, when it first appears."""
        planes = {}
        for f, plane in self._hull.simplices.items():
            planes.setdefault(plane, f)
        out = []
        for plane in sorted(planes):
            facet = self._ambient.get(plane)
            if facet is None:
                a = self.lattice.pull_back(plane[0])
                facet = self._ambient[plane] = (
                    a, ec.dot(a, self.points[next(iter(planes[plane]))]))
            out.append(facet)
        return out

    def polytope(self):
        """The polytope of the points added so far."""
        P = Polytope.__new__(Polytope)
        P._read_hull(self)
        return P


class Polytope:
    """Convex hull of finitely many lattice points, possibly lower
    dimensional in its ambient space; ValueError for a coordinate that is
    not an int.  Its ``lattice`` is the saturated basis of the direction
    lattice of its affine hull."""

    def __init__(self, points):
        self._read_hull(PolytopeBuilder(points))

    def _read_hull(self, builder):
        """Vertices and chart facets from a builder's hull.  The chart
        base moves to the first vertex, the least point."""
        hull = builder._hull
        vidx, merged = hull.merged()
        vidx.sort(key=builder.points.__getitem__)
        self.ambient_dim = builder.ambient_dim
        self.lattice = builder.lattice
        self.dim = self.lattice.rank
        self.vertices = tuple(builder.points[i] for i in vidx)
        self._chart_base = self.vertices[0]
        y0 = hull.points[vidx[0]]
        reindex = {old: new for new, old in enumerate(vidx)}
        self._chart_facets = [
            (a, b - ec.dot(a, y0), frozenset(reindex[i] for i in inc))
            for a, b, inc in merged]
        self._faces_by_dim = None
        self._ambient_facets = None
        self._lattice_points = None
        self._faces_by_vertices = {}

    # -- basic geometry ----------------------------------------------------

    def equations(self):
        """Integer equations (c, c0) with c.x = c0 on the polytope."""
        return [(c, ec.dot(c, self._chart_base))
                for c in self.lattice.equations]

    def facets(self):
        """Ambient facet inequalities (a, b, vertex_index_set), a.x <= b.

        For lower dimensional polytopes the normal is the canonical
        representative modulo the affine hull equations.
        """
        if self._ambient_facets is None:
            out = []
            for u, _, inc in self._chart_facets:
                a = self.lattice.pull_back(u)
                out.append((a, ec.dot(a, self.vertices[next(iter(inc))]),
                            inc))
            self._ambient_facets = out
        return self._ambient_facets

    def face_vertices(self, w):
        """Vertices of the face minimizing the linear functional w."""
        vals = [ec.dot(w, v) for v in self.vertices]
        lo = min(vals)
        return tuple(v for v, s in zip(self.vertices, vals) if s == lo)

    def face_of(self, w):
        """The face minimizing the linear functional w, as a polytope,
        built once per vertex subset and shared between calls."""
        sub = self.face_vertices(w)
        face = self._faces_by_vertices.get(sub)
        if face is None:
            face = self._faces_by_vertices[sub] = Polytope(sub)
        return face

    def translate(self, t):
        return Polytope([ec.vec_add(v, t) for v in self.vertices])

    # -- serialization -----------------------------------------------------

    def to_json(self):
        return {"vertices": [list(v) for v in self.vertices]}

    @staticmethod
    def from_json(obj):
        try:
            verts = [ec.vec_from_json(v) for v in obj["vertices"]]
            return Polytope(verts)
        except (KeyError, TypeError, ValueError) as exc:
            raise InputFormatError(f"bad polytope: {exc}") from exc

    # -- face lattice ------------------------------------------------------

    def _face_sets(self):
        if self._faces_by_dim is not None:
            return self._faces_by_dim
        nv = len(self.vertices)
        full = frozenset(range(nv))
        facet_sets = [inc for _, _, inc in self._chart_facets]
        known = {full} | set(facet_sets)
        queue = list(facet_sets)
        while queue:
            f = queue.pop()
            for g in facet_sets:
                h = f & g
                if h and h not in known:
                    known.add(h)
                    queue.append(h)
        by_dim = {}
        for f in known:
            d = _affine_rank([self.vertices[i] for i in f])
            by_dim.setdefault(d, []).append(f)
        for d in by_dim:
            by_dim[d].sort(key=sorted)
        self._faces_by_dim = by_dim
        return by_dim

    def f_vector(self):
        """Counts of faces of dimension 0 .. dim-1."""
        by_dim = self._face_sets()
        return tuple(len(by_dim.get(d, [])) for d in range(self.dim))

    # -- lattice points ----------------------------------------------------

    def lattice_points(self, force=False):
        """All integer points of the polytope, sorted, exact enumeration.

        Enumerated once and kept; each call returns a new list.  The sweep
        fixes one chart coordinate at a time, each within the bounds of the
        projection to the coordinates fixed so far.  Raises
        EnumerationTooLarge when the sweep visits more than
        LATTICE_POINT_BUDGET integer values; force lifts that budget and
        nothing else.
        """
        if self._lattice_points is None:
            self._lattice_points = tuple(self._enumerate_lattice_points(force))
        return list(self._lattice_points)

    def _enumerate_lattice_points(self, force):
        """The sweep of ``lattice_points`` in chart coordinates y around
        the chart base, the least vertex, each point base + y . basis."""
        base = self._chart_base
        if self.dim == 0:
            return [base]
        k = self.dim
        # systems[j] bounds the first j coordinates: the facets of the
        # projection of the chart polytope, which is the hull of the
        # projected vertices
        ys = _lattice_coords(self.vertices, self.lattice)
        systems = [None] * (k + 1)
        systems[k] = [(u, b) for u, b, _ in self._chart_facets]
        for j in range(1, k):
            hull = _hull_full_dim(sorted({y[:j] for y in ys}))
            systems[j] = set(hull.simplices.values())

        budget = LATTICE_POINT_BUDGET
        out = []
        y = [0] * k
        # ranges[j] yields the values of coordinate j left to sweep, given
        # the coordinates before it
        ranges = [iter(_coordinate_range(systems[1], y, 0))]
        while ranges:
            j = len(ranges) - 1
            t = next(ranges[j], None)
            if t is None:
                ranges.pop()
                continue
            y[j] = t
            budget -= 1
            if budget < 0 and not force:
                raise EnumerationTooLarge(
                    "lattice point sweep exceeded the budget")
            if j + 1 == k:
                # systems[k] already bounded this last coordinate
                pt = list(base)
                for c, row in zip(y, self.lattice.vectors):
                    for i in range(self.ambient_dim):
                        pt[i] += c * row[i]
                out.append(tuple(pt))
            else:
                ranges.append(iter(_coordinate_range(systems[j + 2], y,
                                                     j + 1)))
        out.sort()
        return out

    def __repr__(self):
        return (f"Polytope(dim={self.dim}, ambient={self.ambient_dim}, "
                f"vertices={len(self.vertices)})")

    def __eq__(self, other):
        return (isinstance(other, Polytope)
                and self.vertices == other.vertices)

    def __hash__(self):
        return hash(self.vertices)


def _coordinate_range(ineqs, y, j):
    """The integers t with u.(y[0..j-1], t) <= b for every (u, b) of a
    bounded system in j + 1 variables whose projection holds y[0..j-1]."""
    lo, hi = [], []
    for u, b in ineqs:
        c = u[j]
        if c:
            bound = ec.div_exact(b - sum(u[i] * y[i] for i in range(j)), c)
            (hi if c > 0 else lo).append(bound)
    return range(math.ceil(max(lo)), math.floor(min(hi)) + 1)


# ---------------------------------------------------------------------------
# volumes

def _lattice_coords(vertices, lattice):
    """The ``coordinates`` of v - vertices[0] in a lattice, for every vertex
    v; LatticeMismatch when one leaves the span of the lattice."""
    ys = [lattice.coordinates(ec.vec_sub(v, vertices[0])) for v in vertices]
    if None in ys:
        raise LatticeMismatch("polytope leaves the span of the lattice")
    return ys


def _chart_volume(points):
    """k! times the euclidean volume of the hull of points spanning R^k:
    the boundary simplices of the hull, coned from the first point."""
    apex = points[0]
    return sum(abs(ec.det([ec.vec_sub(points[i], apex) for i in s]))
               for s in _hull_full_dim(points).simplices)


def minkowski_sum(polys):
    """Minkowski sum of polytopes in one ambient space.  Its face at w is
    the sum of the faces at w of the polytopes added."""
    polys = list(polys)
    if not polys:
        raise ValueError("empty Minkowski sum")
    pts = [tuple(0 for _ in range(polys[0].ambient_dim))]
    for P in polys:
        pts = [ec.vec_add(p, v) for p in pts for v in P.vertices]
    return Polytope(pts)


def mixed_volume(polys, lattice):
    """Mixed volume of k polytopes in a rank k lattice, normalized so the
    standard unit segments give 1 and k equal copies give the normalized
    volume.

    Summands are read in lattice coordinates.  The mixed volume is positive
    exactly when every subfamily's Minkowski sum has dimension at least its
    size (Schneider, Convex Bodies, 5.1), so a rank test on the edge
    directions of each subfamily returns most zeros without a hull.  k
    segments give |det| of their edge vectors, and the empty family in a
    rank 0 lattice gives 1; any other family takes
    inclusion-exclusion over the Minkowski subsums of full dimension, each
    one hull of its chart points.
    """
    polys = list(polys)
    k = len(polys)
    if lattice.rank != k:
        raise DimensionMismatch(
            f"{k} polytopes need a rank {k} lattice, got rank {lattice.rank}")
    charts = [_lattice_coords(P.vertices, lattice) for P in polys]
    edges = [ys[1:] for ys in charts]  # ys[0] is the origin
    ranks = {}
    for r in range(1, k + 1):
        for S in combinations(range(k), r):
            rank = ec.rational_rank([e for i in S for e in edges[i]])
            if rank < r:
                return 0
            ranks[S] = rank
    if all(len(e) == 1 for e in edges):
        return abs(ec.det([e[0] for e in edges]))
    total = 0
    for S, rank in ranks.items():
        if rank < k:
            continue
        pts = {(0,) * k}
        for i in S:
            pts = {ec.vec_add(p, y) for p in pts for y in charts[i]}
        total += (-1) ** (k - len(S)) * _chart_volume(sorted(pts))
    return ec.div_exact(total, math.factorial(k))


# ---------------------------------------------------------------------------
# cones

class Cone:
    """Rational polyhedral cone: nonnegative span of rays plus a lineality
    space.  Rays are stored primitively, reduced modulo the lineality."""

    def __init__(self, rays=(), lineality=(), ambient_dim=None):
        rays = [tuple(r) for r in rays]
        lineality = [tuple(l) for l in lineality]
        if ambient_dim is None:
            probe = rays or lineality
            if not probe:
                raise ValueError("need ambient_dim for a trivial cone")
            ambient_dim = len(probe[0])
        self.ambient_dim = ambient_dim
        self._lineality = ec.saturate(lineality, ambient_dim)
        self.lineality = self._lineality.vectors
        cleaned = set()
        for r in rays:
            red = ec.reduce_mod_subspace(r, self.lineality)
            if any(red):
                cleaned.add(ec.primitive_vector(red))
        self.rays = tuple(sorted(cleaned))
        self._span = ec.saturate(self.rays + self.lineality, ambient_dim)
        self.dim = self._span.rank
        self._hrep = None

    @property
    def span(self):
        """Saturated basis of the linear span."""
        return self._span.vectors

    @property
    def _equations(self):
        """Saturated basis of the integer equations of the span."""
        return self._span.equations

    def _simplicial(self):
        """Whether the rays are independent modulo the lineality."""
        return len(self.rays) == self.dim - len(self.lineality)

    def _build_hrep(self):
        """Integer H-representation (equations, facets, extreme rays,
        lineality), the equations those of the span.

        A simplicial cone needs no hull: its facet normals are the dual
        basis of its rays (Fulton, Introduction to Toric Varieties, 1.2).
        Facet i's inner normal vanishes on the other rays and the
        lineality and is positive on ray i.  In the span's coordinates it
        is the signed maximal minors of the other generators' coordinates,
        a hull facet's normal, pulled back to its canonical representative
        modulo the span equations.  Every ray is extreme, and no lineality
        hides among them.

        Any other cone is read off one hull modulo the lineality.  The
        rows of K, the equations of the lineality, vanish on it, so
        x -> K x maps the cone onto the pointed cone spanned by the images
        K r of the rays, the tangent cone at 0 of the polytope of the
        origin and those images.  A facet of that polytope through 0 with
        outer normal a' gives the cone's inner facet normal u = -K^T a'.
        Rays lying on every such facet are hidden lineality; a ray outside
        it is extreme when its active facets have rank q - 1, q being the
        dimension modulo the full lineality.  Either way a facet normal is
        the canonical representative modulo the span equations, made
        primitive.
        """
        if self._hrep is not None:
            return self._hrep
        n = self.ambient_dim
        equations = self._equations
        rays, lin = self.rays, self.lineality
        if self._simplicial():
            ys = [self._span.coordinates(g) for g in rays + lin]
            facets = []
            for i, y in enumerate(ys[:len(rays)]):
                u = _minors_normal(ys[:i] + ys[i + 1:], self.dim)
                facets.append(self._span.pull_back(
                    u if ec.dot(u, y) > 0 else tuple(-x for x in u)))
            self._hrep = (equations, sorted(facets), rays, lin)
            return self._hrep
        K = self._lineality.equations
        Q = Polytope([(0,) * len(K)] + [ec.mat_vec(K, r) for r in rays])
        facets = sorted(
            ec.primitive_vector(ec.reduce_mod_subspace(
                [-sum(x * row[i] for x, row in zip(a, K)) for i in range(n)],
                equations))
            for a, b, _ in Q.facets() if b == 0)
        hidden = [r for r in rays if all(ec.dot(u, r) == 0 for u in facets)]
        if hidden:
            lin = tuple(ec.saturate(list(lin) + hidden, n))
        q = self.dim - len(lin)
        extreme = {
            ec.primitive_vector(ec.reduce_mod_subspace(r, lin))
            for r in rays
            if ec.rational_rank([list(u) for u in facets
                                 if ec.dot(u, r) == 0]) == q - 1}
        self._hrep = (equations, facets, tuple(sorted(extreme)), lin)
        return self._hrep

    def facets(self):
        """Primitive inner facet normals u, reduced modulo the span
        equations: a point of the span is in the cone iff every u.x >= 0."""
        return self._build_hrep()[1]

    def canonical_key(self):
        """Hashable key identifying the cone as a set of points: its
        extreme rays and lineality, which a simplicial cone stores."""
        if self._simplicial():
            return (self.ambient_dim, self.rays, self.lineality)
        _, _, extreme, lin = self._build_hrep()
        return (self.ambient_dim, extreme, lin)

    def contains(self, x, strict=False):
        """Membership; with strict=True, membership in the relative
        interior."""
        equations, facets, _, _ = self._build_hrep()
        if any(ec.dot(c, x) for c in equations):
            return False
        for u in facets:
            v = ec.dot(u, x)
            if v < 0 or (strict and v == 0):
                return False
        return True

    def contains_relint(self, x):
        return self.contains(x, strict=True)

    def hyperplane_normal(self):
        """Primitive integer normal of the span, for codimension one cones."""
        if self.dim != self.ambient_dim - 1:
            raise DimensionMismatch("cone span is not a hyperplane")
        return self._equations[0]

    def negated(self):
        return Cone([tuple(-x for x in r) for r in self.rays],
                    self.lineality, self.ambient_dim)

    def __repr__(self):
        return (f"Cone(dim={self.dim}, rays={len(self.rays)}, "
                f"lineality={len(self.lineality)}, ambient={self.ambient_dim})")


def normal_fan_cones(P, cone_dim):
    """Cones of the inner normal fan of P with the given dimension.

    Returns (cone, witness) pairs, the witness an integer point in the
    cone's relative interior, so P.face_of(witness) is the face of P normal
    to the cone.  Works for lower dimensional polytopes; every normal cone
    then contains the lineality spanned by the affine hull equation normals.
    """
    amb = P.ambient_dim
    face_dim = amb - cone_dim
    if face_dim < 0 or face_dim > P.dim:
        return []
    eqs = [list(c) for c, _ in P.equations()]
    if face_dim == P.dim:
        return [(Cone([], eqs, amb), tuple(0 for _ in range(amb)))]
    out = []
    facets = P.facets()
    for fset in P._face_sets().get(face_dim, []):
        normals = [tuple(-x for x in a) for a, b, inc in facets if fset <= inc]
        w = tuple(sum(col) for col in zip(*normals))
        out.append((Cone(normals, eqs, amb), w))
    return out
