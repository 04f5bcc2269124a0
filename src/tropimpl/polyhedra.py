"""Rational polytopes and polyhedral cones, all arithmetic exact.

Polytopes are built from vertex candidates by an incremental beneath-beyond
hull in chart coordinates of their own affine lattice, so lower dimensional
polytopes in a high ambient space cost no more than full dimensional ones.
Chart points of integer polytopes are integers, and each facet normal is a
vector of integer minors, so a hull never forms a fraction.  Mixed volumes
skip hulls where a rank test or one determinant decides them.
Cones carry rays plus a lineality space; their integer equations and facet
normals are read off, lazily, from the same hull of the origin, the rays and
both signs of the lineality vectors, so membership is a few dot products.
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
FM_INEQUALITY_CAP = 20000


def _affine_rank(points):
    pts = list(points)
    if len(pts) <= 1:
        return 0
    p0 = pts[0]
    return ec.rational_rank([list(ec.vec_sub(p, p0)) for p in pts[1:]])


def _hull_full_dim(points):
    """Beneath-beyond hull of points affinely spanning R^k.

    Returns (vertex_indices, merged_facets, simplices) where merged_facets
    are (normal, offset, vertex_index_set) triples with primitive integer
    normals and a.x <= b on the hull, and simplices is a boundary
    triangulation as k-tuples of point indices.  A facet normal is the
    vector of signed maximal minors of the simplex's difference rows, its
    generalized cross product, cleared of denominators; its side is fixed
    against the seed centroid, scaled by k + 1 so it stays integral for
    integer points.
    """
    k = len(points[0])
    if k == 0:
        return [0], [], []

    # affinely independent seed
    seed = [0]
    diffs = []
    for i in range(1, len(points)):
        cand = diffs + [list(ec.vec_sub(points[i], points[0]))]
        if ec.rational_rank(cand) == len(cand):
            diffs = cand
            seed.append(i)
            if len(seed) == k + 1:
                break
    if len(seed) != k + 1:
        raise DimensionMismatch("points do not span the chart")

    seed_sum = tuple(sum(points[i][j] for i in seed) for j in range(k))

    def facet_plane(idx):
        base = points[idx[0]]
        rows = [ec.vec_sub(points[i], base) for i in idx[1:]]
        minors = [ec.det([r[:j] + r[j + 1:] for r in rows]) for j in range(k)]
        if not any(minors):
            raise DimensionMismatch("degenerate facet simplex")
        a = ec.primitive_vector(
            [-m if j % 2 else m for j, m in enumerate(minors)])
        b = ec.dot(a, base)
        side = ec.dot(a, seed_sum)
        if side == (k + 1) * b:
            raise DimensionMismatch("interior point on a facet hyperplane")
        if side > (k + 1) * b:
            a = tuple(-x for x in a)
            b = -b
        return a, b

    facets = {}  # frozenset(point idx) -> (a, b)
    for drop in range(k + 1):
        idx = tuple(seed[i] for i in range(k + 1) if i != drop)
        facets[frozenset(idx)] = facet_plane(idx)

    for q in range(len(points)):
        if q in seed:
            continue
        pq = points[q]
        visible = [f for f, (a, b) in facets.items() if ec.dot(a, pq) > b]
        if not visible:
            continue
        ridge_count = {}
        for f in visible:
            for r in combinations(sorted(f), len(f) - 1):
                ridge_count[r] = ridge_count.get(r, 0) + 1
        for f in visible:
            del facets[f]
        for ridge, cnt in ridge_count.items():
            if cnt == 1:
                new = frozenset(ridge) | {q}
                facets[new] = facet_plane(tuple(sorted(new)))

    # merge simplicial facets sharing a hyperplane, find true vertices
    by_plane = {}
    for f, (a, b) in facets.items():
        by_plane.setdefault((a, b), set()).update(f)
    incident = {}
    for (a, b), pts in by_plane.items():
        for i in pts:
            incident.setdefault(i, []).append(a)
    vertex_indices = sorted(
        i for i, normals in incident.items()
        if ec.rational_rank([list(a) for a in normals]) == k)
    vset = set(vertex_indices)
    merged = []
    for (a, b), pts in sorted(by_plane.items()):
        merged.append((a, b, frozenset(pts & vset)))
    simplices = [tuple(sorted(f)) for f in facets]
    return vertex_indices, merged, sorted(simplices)


class Polytope:
    """Convex hull of finitely many rational points, possibly lower
    dimensional in its ambient space."""

    def __init__(self, points, summands=None):
        pts = sorted({tuple(x if isinstance(x, int) else ec.rat(x)
                            for x in p) for p in points})
        if not pts:
            raise ValueError("a polytope needs at least one point")
        self.ambient_dim = len(pts[0])
        if any(len(p) != self.ambient_dim for p in pts):
            raise DimensionMismatch("points of mixed length")
        self.summands = tuple(summands) if summands is not None else None

        p0 = pts[0]
        directions = [ec.vec_sub(p, p0) for p in pts[1:] if any(ec.vec_sub(p, p0))]
        self._chart_base = p0
        self._lattice = ec.saturate(directions, self.ambient_dim) \
            if directions else ec.LatticeBasis(self.ambient_dim, ())
        self.dim = self._lattice.rank

        cols = ec.transpose(list(self._lattice)) if self.dim else []
        self._chart_points = []
        for p in pts:
            d = ec.vec_sub(p, p0)
            if self.dim:
                y = ec.solve_linear(cols, d)
            else:
                y = ()
            self._chart_points.append(y)

        if self.dim == 0:
            self.vertices = (pts[0],)
            self._chart_facets = []
        else:
            vidx, merged, _ = _hull_full_dim(self._chart_points)
            self.vertices = tuple(pts[i] for i in vidx)
            reindex = {old: new for new, old in enumerate(vidx)}
            self._chart_facets = [
                (a, b, frozenset(reindex[i] for i in inc))
                for a, b, inc in merged]
        self._faces_by_dim = None
        self._ambient_facets = None
        self._faces_by_vertices = {}

    # -- basic geometry ----------------------------------------------------

    @property
    def lattice(self):
        """Saturated basis of the direction lattice of the affine hull."""
        return self._lattice

    def equations(self):
        """Integer equations (c, c0) with c.x = c0 on the polytope."""
        if self.dim == self.ambient_dim:
            return []
        if self.dim == 0:
            basis = [tuple(r) for r in ec.identity_matrix(self.ambient_dim)]
        else:
            basis = ec.integer_kernel([list(v) for v in self._lattice],
                                      self.ambient_dim)
        return [(c, ec.dot(c, self._chart_base)) for c in basis]

    def facets(self):
        """Ambient facet inequalities (a, b, vertex_index_set), a.x <= b.

        For lower dimensional polytopes the normal is the canonical
        representative modulo the affine hull equations.
        """
        if self._ambient_facets is not None:
            return self._ambient_facets
        eq_normals = [c for c, _ in self.equations()]
        R, piv = ec.rref(eq_normals, self.ambient_dim)
        L = [list(v) for v in self._lattice]
        out = []
        for u, _, inc in self._chart_facets:
            a = ec.solve_integer(L, u)
            a = ec.reduce_mod_subspace(a, R, piv)
            a = ec.primitive_vector(a)
            b = max(ec.dot(a, v) for v in self.vertices)
            out.append((a, b, inc))
        self._ambient_facets = out
        return out

    def contains(self, x):
        for c, c0 in self.equations():
            if ec.dot(c, x) != c0:
                return False
        for a, b, _ in self.facets():
            if ec.dot(a, x) > b:
                return False
        return True

    def face_of(self, w):
        """The face minimizing the linear functional w, as a polytope.

        Faces of a polytope without summands are built once per vertex
        subset and shared between calls, so callers must not modify them.
        """
        vals = [ec.dot(w, v) for v in self.vertices]
        lo = min(vals)
        sub = tuple(v for v, s in zip(self.vertices, vals) if s == lo)
        if self.summands is None:
            face = self._faces_by_vertices.get(sub)
            if face is None:
                face = self._faces_by_vertices[sub] = Polytope(sub)
            return face
        face = Polytope(sub)
        face.summands = tuple(s.face_of(w) for s in self.summands)
        return face

    def translate(self, t):
        moved = Polytope([ec.vec_add(v, t) for v in self.vertices])
        if self.summands is not None:
            moved.summands = self.summands
        return moved

    # -- serialization -----------------------------------------------------

    def to_json(self):
        return {"vertices": [[ec.rat_to_json(x) for x in v]
                             for v in self.vertices]}

    @staticmethod
    def from_json(obj):
        try:
            verts = [tuple(ec.rat_from_json(x) for x in v)
                     for v in obj["vertices"]]
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

    def faces(self, dim):
        """Faces of the given dimension as vertex tuples (proper faces and
        the polytope itself)."""
        if dim < 0 or dim > self.dim:
            return []
        by_dim = self._face_sets()
        return [tuple(self.vertices[i] for i in sorted(f))
                for f in by_dim.get(dim, [])]

    def f_vector(self):
        """Counts of faces of dimension 0 .. dim-1."""
        by_dim = self._face_sets()
        return tuple(len(by_dim.get(d, [])) for d in range(self.dim))

    # -- lattice points ----------------------------------------------------

    def integral_affine_basepoint(self):
        """Some lattice point on the affine hull, or None."""
        if all(isinstance(x, int) for x in self._chart_base):
            return self._chart_base
        eqs = self.equations()
        if not eqs:
            return tuple(0 for _ in range(self.ambient_dim))
        M = [list(c) for c, _ in eqs]
        rhs = tuple(c0 for _, c0 in eqs)
        return ec.solve_integer(M, rhs)

    def lattice_points(self, force=False):
        """All integer points of the polytope, sorted, exact enumeration."""
        if self.dim == 0:
            v = self.vertices[0]
            return [v] if all(isinstance(x, int) for x in v) else []
        base = self.integral_affine_basepoint()
        if base is None:
            return []
        k = self.dim
        L = [list(v) for v in self._lattice]
        cols = ec.transpose(L)
        shift = ec.solve_linear(cols, ec.vec_sub(self._chart_base, base))
        # inequalities in coordinates y around the integral basepoint
        ineqs = []
        for u, b, _ in self._chart_facets:
            ineqs.append((u, b + ec.dot(u, shift)))
        systems = [None] * (k + 1)
        systems[k] = _fm_dedupe(ineqs)
        for j in range(k - 1, 0, -1):
            systems[j] = _fm_eliminate(systems[j + 1], j, force)

        budget = [LATTICE_POINT_BUDGET]
        out = []
        y = [0] * k

        def sweep(j):
            lo, hi = _fm_bounds(systems[j + 1], y, j)
            if lo is None:
                return
            for t in range(lo, hi + 1):
                y[j] = t
                budget[0] -= 1
                if budget[0] < 0 and not force:
                    raise EnumerationTooLarge(
                        "lattice point sweep exceeded the budget")
                if j + 1 == k:
                    # systems[k] already bounded this last coordinate
                    pt = list(base)
                    for c, row in zip(y, L):
                        for i in range(self.ambient_dim):
                            pt[i] += c * row[i]
                    out.append(tuple(pt))
                else:
                    sweep(j + 1)

        sweep(0)
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


def _fm_dedupe(ineqs):
    best = {}
    for u, b in ineqs:
        key = tuple(u)
        if not any(key) and b >= 0:
            continue  # vacuous 0 <= b
        if key not in best or b < best[key]:
            best[key] = b
    return sorted(best.items())


def _fm_eliminate(ineqs, nvars, force):
    """Project out the last variable of a system in nvars+1 variables."""
    keep, pos, neg = [], [], []
    for u, b in ineqs:
        c = u[nvars]
        trunc = tuple(u[:nvars])
        if c == 0:
            keep.append((trunc, b))
        elif c > 0:
            pos.append((trunc, c, b))
        else:
            neg.append((trunc, -c, b))
    out = list(keep)
    for up, cp, bp in pos:
        for un, cn, bn in neg:
            u = tuple(cn * a + cp * d for a, d in zip(up, un))
            b = cn * bp + cp * bn
            if any(u):
                g = ec.vec_gcd(u)
                out.append((tuple(x // g for x in u), ec.div_exact(b, g)))
            else:
                # a pure condition on the prefix; b < 0 marks infeasibility
                out.append((u, b))
    out = _fm_dedupe(out)
    if len(out) > FM_INEQUALITY_CAP and not force:
        raise EnumerationTooLarge("projection produced too many inequalities")
    return out


def _fm_bounds(ineqs, y, j):
    """Integer range of variable j given fixed values y[0..j-1]; (None, None)
    if empty."""
    lo, hi = None, None
    for u, b in ineqs:
        s = b - sum(u[i] * y[i] for i in range(j))
        c = u[j]
        if c == 0:
            if s < 0:
                return None, None
            continue
        bound = ec.div_exact(s, c)
        if c > 0:
            ihi = bound if isinstance(bound, int) else math.floor(bound)
            hi = ihi if hi is None else min(hi, ihi)
        else:
            ilo = bound if isinstance(bound, int) else math.ceil(bound)
            lo = ilo if lo is None else max(lo, ilo)
    if lo is None or hi is None or lo > hi:
        return None, None
    return lo, hi


# ---------------------------------------------------------------------------
# volumes

def _lattice_coords(vertices, basis):
    """Coordinates of v - vertices[0] in the lattice basis, for every
    vertex v; LatticeMismatch when one leaves the span of the lattice."""
    cols = ec.transpose([list(v) for v in basis])
    out = []
    for v in vertices:
        d = ec.vec_sub(v, vertices[0])
        y = ec.solve_linear(cols, d) if basis else (None if any(d) else ())
        if y is None:
            raise LatticeMismatch("polytope leaves the span of the lattice")
        out.append(y)
    return out


def _chart_volume(points):
    """k! times the euclidean volume of the hull of points spanning R^k:
    the boundary simplices of the hull, coned from the first point."""
    _, _, simplices = _hull_full_dim(points)
    apex = points[0]
    total = sum(abs(ec.det([ec.vec_sub(points[i], apex) for i in s]))
                for s in simplices)
    return total if isinstance(total, int) else ec.rat(total)


def normalized_volume(P, lattice=None):
    """Lattice normalized volume of P with respect to a rank k lattice:
    k! times the euclidean volume in lattice coordinates.

    Zero when dim P < k; LatticeMismatch when the directions of P leave the
    span of the lattice.
    """
    basis = list(P.lattice if lattice is None else lattice)
    ys = _lattice_coords(P.vertices, basis)
    if not basis:
        return 1
    if _affine_rank(ys) < len(basis):
        return 0
    return _chart_volume(ys)


def minkowski_sum(polys):
    """Minkowski sum, with the summands kept for face decomposition."""
    polys = list(polys)
    if not polys:
        raise ValueError("empty Minkowski sum")
    pts = [tuple(0 for _ in range(polys[0].ambient_dim))]
    for P in polys:
        pts = [ec.vec_add(p, v) for p in pts for v in P.vertices]
    return Polytope(pts, summands=polys)


def mixed_volume(polys, lattice=None):
    """Mixed volume of k polytopes in a rank k lattice, normalized so the
    standard unit segments give 1 and k equal copies give the normalized
    volume.

    Summands are read in lattice coordinates.  The mixed volume is positive
    exactly when every subfamily's Minkowski sum has dimension at least its
    size (Schneider, Convex Bodies, 5.1), so a rank test on the edge
    directions of each subfamily returns most zeros without a hull.  k
    segments give |det| of their edge vectors; any other family takes
    inclusion-exclusion over the Minkowski subsums of full dimension, each
    one hull of its chart points.
    """
    polys = list(polys)
    k = len(polys)
    if lattice is None:
        dirs = []
        for P in polys:
            v0 = P.vertices[0]
            dirs.extend(ec.vec_sub(v, v0) for v in P.vertices[1:])
        if not dirs:
            return 0
        lattice = ec.saturate(dirs, polys[0].ambient_dim)
    if lattice.rank != k:
        raise DimensionMismatch(
            f"{k} polytopes need a rank {k} lattice, got rank {lattice.rank}")
    basis = list(lattice)
    charts = [_lattice_coords(P.vertices, basis) for P in polys]
    edges = [ys[1:] for ys in charts]  # ys[0] is the origin
    ranks = {}
    for r in range(1, k + 1):
        for S in combinations(range(k), r):
            rank = ec.rational_rank([e for i in S for e in edges[i]])
            if rank < r:
                return 0
            ranks[S] = rank
    if k and all(len(e) == 1 for e in edges):
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
        lin = [l for l in lineality if any(l)]
        self.lineality = tuple(ec.saturate(lin, ambient_dim)) if lin else ()
        rref, piv = ec.rref([list(l) for l in self.lineality], ambient_dim)
        cleaned = set()
        for r in rays:
            red = ec.reduce_mod_subspace(r, rref, piv)
            if any(red):
                cleaned.add(ec.primitive_vector(red))
        self.rays = tuple(sorted(cleaned))
        self.span = tuple(ec.saturate(
            list(self.rays) + list(self.lineality), ambient_dim)) \
            if (self.rays or self.lineality) else ()
        self._hrep = None

    @property
    def dim(self):
        return len(self.span)

    @property
    def lineality_dim(self):
        return len(self.lineality)

    def _build_hrep(self):
        """Integer H-representation, read off one polytope hull.

        The cone is the tangent cone at 0 of the polytope spanned by the
        origin, the rays and both signs of every lineality vector, so the
        polytope's equations are the span equations and its facets through 0
        are the cone's facets.  Rays lying on every such facet are hidden
        lineality; a ray outside it is extreme when its active facets have
        rank q - 1, q being the dimension modulo the full lineality.
        """
        if self._hrep is not None:
            return self._hrep
        origin = (0,) * self.ambient_dim
        P = Polytope([origin] + list(self.rays) + list(self.lineality)
                     + [tuple(-x for x in l) for l in self.lineality])
        equations = [c for c, _ in P.equations()]
        facets = sorted(tuple(-x for x in a) for a, b, _ in P.facets()
                        if b == 0)
        hidden = [r for r in self.rays
                  if all(ec.dot(u, r) == 0 for u in facets)]
        lin = self.lineality
        if hidden:
            lin = tuple(ec.saturate(list(lin) + hidden, self.ambient_dim))
        rref, piv = ec.rref([list(l) for l in lin], self.ambient_dim)
        q = self.dim - len(lin)
        extreme = {
            ec.primitive_vector(ec.reduce_mod_subspace(r, rref, piv))
            for r in self.rays
            if ec.rational_rank([list(u) for u in facets
                                 if ec.dot(u, r) == 0]) == q - 1}
        self._hrep = (equations, facets, tuple(sorted(extreme)), lin)
        return self._hrep

    def extreme_rays(self):
        return self._build_hrep()[2]

    def canonical_key(self):
        """Hashable key identifying the cone as a set of points."""
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
        return self._build_hrep()[0][0]

    def negated(self):
        return Cone([tuple(-x for x in r) for r in self.rays],
                    self.lineality, self.ambient_dim)

    def __repr__(self):
        return (f"Cone(dim={self.dim}, rays={len(self.rays)}, "
                f"lineality={self.lineality_dim}, ambient={self.ambient_dim})")


def normal_fan_cones(P, cone_dim):
    """Cones of the inner normal fan of P with the given dimension.

    Returns (cone, face, witness) triples: the face of P normal to the cone
    and an integer point in the cone's relative interior.  Works for lower
    dimensional polytopes; every normal cone then contains the lineality
    spanned by the affine hull equation normals.
    """
    amb = P.ambient_dim
    face_dim = amb - cone_dim
    if face_dim < 0 or face_dim > P.dim:
        return []
    eqs = [list(c) for c, _ in P.equations()]
    if face_dim == P.dim:
        cone = Cone([], eqs, amb)
        face = Polytope(P.vertices)
        if P.summands is not None:
            face.summands = P.summands
        return [(cone, face, tuple(0 for _ in range(amb)))]
    out = []
    facets = P.facets()
    by_dim = P._face_sets()
    for fset in by_dim.get(face_dim, []):
        normals = [tuple(-x for x in a) for a, b, inc in facets if fset <= inc]
        cone = Cone(normals, eqs, amb)
        w = tuple(sum(col) for col in zip(*normals))
        face = P.face_of(w)
        out.append((cone, face, w))
    return out
