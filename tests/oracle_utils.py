"""Small independent reference implementations used by the test suite.

Everything here is written against textbook definitions, by another
algorithm than the package uses, so disagreements point at real bugs rather
than shared mistakes.  The planar and modular references share no code with
the package; the cone and fan references build on its exact linear algebra
primitives and return package cones and cycles for comparison, and the
Chow-form reference shares the ansatz and the sample -> solve -> verify
loop with the package but solves over Q, and the mixed-volume reference
measures every Minkowski subsum with the package's polytopes.
"""

import math
from fractions import Fraction
from itertools import combinations

from tropimpl import exactcore as ec
from tropimpl.chow import PluckerPoly, _chow_ansatz
from tropimpl.errors import DimensionMismatch, LoopyMatroid
from tropimpl.interpolate import kernel_vector, solve_verified
from tropimpl.polyhedra import Cone, minkowski_sum, normalized_volume
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


def pow_mod_row(exponents, point, p):
    """Monomial values mod p, one pow per (monomial, coordinate), with
    x^-k taken as (x^(p-2))^k: the per-entry reference for row_mod."""
    out = []
    for e in exponents:
        v = 1
        for x, k in zip(point, e):
            if k:
                base = x if k > 0 else pow(x, p - 2, p)
                v = v * pow(base, abs(k), p) % p
        out.append(v)
    return tuple(out)


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


def chow_form_over_q(f, C_X, d, n, seed=0, height=20):
    """The Chow form by fraction-free elimination over Q: the ansatz,
    samples and verification of ``chow.chow_form``, but each solve is one
    ``ec.rational_kernel`` of the exact rows.  The reference for the
    modular solve, which must return the same form and reject a wrong
    candidate polytope with the same exception class."""
    unknowns, sampler = _chow_ansatz(f, C_X, d, n, height)

    def solve(samples):
        rows = [[mono.evaluate(values) for mono in unknowns]
                for values in samples]
        coeffs = kernel_vector(ec.rational_kernel(rows, len(unknowns)))
        return PluckerPoly(d, n, [(m, c) for m, c in zip(unknowns, coeffs)
                                  if c])

    return solve_verified(len(unknowns), sampler, solve, seed)


def mixed_volume_by_subsums(polys, lattice=None):
    """Mixed volume by inclusion-exclusion over all 2^k - 1 Minkowski
    subsums, each built as a polytope and measured by normalized_volume,
    with no rank test and no determinant shortcut.  The reference for
    polyhedra.mixed_volume, raising the same errors."""
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
    total = 0
    for r in range(1, k + 1):
        sign = (-1) ** (k - r)
        for S in combinations(range(k), r):
            Q = minkowski_sum([polys[i] for i in S]) if r > 1 else polys[S[0]]
            total += sign * normalized_volume(Q, lattice)
    return ec.div_exact(total, math.factorial(k))


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
            rref, piv = ec.rref([list(l) for l in lin], n)
            rays = sorted({ec.primitive_vector(red) for red in (
                ec.reduce_mod_subspace(r, rref, piv) for r in rays)
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
        return ec.solve_linear(ec.transpose([list(v) for v in self.span]), x)

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
