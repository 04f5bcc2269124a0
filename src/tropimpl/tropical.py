"""Weighted tropical cycles and operations on them.

A cycle is a plain list of (cone, weight) pairs of one common dimension; the
collection is generally not a fan and is never merged or refined.  Cycle
equality is only ever observable through support function queries, so
downstream code treats duplicate cones with split weights the same as one
cone with the summed weight.
"""

from __future__ import annotations

from itertools import combinations

from . import exactcore as ec
from .errors import DimensionMismatch, InputFormatError
from .polyhedra import Cone

# Min convention: a weight vector w lies in the tropicalization of a linear
# space iff every circuit attains its minimum twice.  On the three-point line
# {x1+x2+x3=0} the maximal cones are {w_i = w_j <= w_k}, which are spanned by
# the POSITIVE indicator of the high coordinate over the 1-lineality, so flag
# cones use +e_F.  Flip this to -1 for the max convention.
BERGMAN_SIGN = 1


class TropicalCycle:
    """Pure-dimensional weighted collection of cones in R^n."""

    def __init__(self, ambient_dim, pure_dim, items):
        self.ambient_dim = ambient_dim
        self.pure_dim = pure_dim
        self.items = []
        for cone, weight in items:
            if not isinstance(weight, int) or weight <= 0:
                raise ValueError(f"weights must be positive integers: {weight}")
            if cone.ambient_dim != ambient_dim:
                raise DimensionMismatch("cone in the wrong ambient space")
            if cone.dim != pure_dim:
                raise DimensionMismatch(
                    f"cone of dim {cone.dim} in a cycle of pure dim {pure_dim}")
            self.items.append((cone, weight))

    def __len__(self):
        return len(self.items)

    def __iter__(self):
        return iter(self.items)

    def negated(self):
        return TropicalCycle(
            self.ambient_dim, self.pure_dim,
            [(c.negated(), w) for c, w in self.items])

    def consolidated(self):
        """Merge duplicate cones, summing weights; order canonical."""
        merged = {}
        for cone, w in self.items:
            key = cone.canonical_key()
            if key in merged:
                merged[key] = (merged[key][0], merged[key][1] + w)
            else:
                merged[key] = (cone, w)
        items = [merged[k] for k in sorted(merged)]
        return TropicalCycle(self.ambient_dim, self.pure_dim, items)

    def to_json(self):
        return {
            "ambient_dim": self.ambient_dim,
            "pure_dim": self.pure_dim,
            "items": [
                {"cone": {"rays": [list(r) for r in cone.rays],
                          "lineality": [list(l) for l in cone.lineality]},
                 "weight": w}
                for cone, w in self.items],
        }

    @staticmethod
    def from_json(obj):
        """Parse the wire form; ValueError when an integer field is not
        integral, InputFormatError when a ray or lineality vector is not
        of length ambient_dim."""
        n = ec.int_from_json(obj["ambient_dim"])
        items = []
        for it in obj["items"]:
            rays = [ec.vec_from_json(r) for r in it["cone"]["rays"]]
            lin = [ec.vec_from_json(l)
                   for l in it["cone"].get("lineality", [])]
            for v in rays + lin:
                if len(v) != n:
                    raise InputFormatError(
                        f"cone generator {list(v)} is not of length {n}")
            items.append((Cone(rays, lin, ambient_dim=n),
                          ec.int_from_json(it["weight"])))
        return TropicalCycle(n, ec.int_from_json(obj["pure_dim"]), items)

    def __repr__(self):
        return (f"TropicalCycle(ambient={self.ambient_dim}, "
                f"pure_dim={self.pure_dim}, items={len(self.items)})")


def homogenize_cycle(C):
    """Cycle of the cone over 1 x X: prepend a zero coordinate to every
    generator and add the all-ones lineality."""
    n = C.ambient_dim + 1
    ones = (1,) * n
    items = []
    for cone, w in C.items:
        rays = [(0,) + tuple(r) for r in cone.rays]
        lin = [(0,) + tuple(l) for l in cone.lineality] + [ones]
        items.append((Cone(rays, lin, n), w))
    return TropicalCycle(n, C.pure_dim + 1, items)


# ---------------------------------------------------------------------------
# matroids

class LinearMatroid:
    """Matroid of the rows of a rational matrix; ground element i is row i."""

    def __init__(self, rows):
        self.realization = [tuple(r) for r in rows]
        self.ground_size = len(self.realization)
        if self.ground_size == 0:
            raise ValueError("empty ground set")
        self.width = len(self.realization[0])
        self._rank_memo = {0: 0}
        self._closure_memo = {}
        self.rank = self.rank_of(range(self.ground_size))

    def rank_of(self, subset):
        mask = 0
        for e in subset:
            mask |= 1 << e
        return self._rank_mask(mask)

    def _rank_mask(self, mask):
        r = self._rank_memo.get(mask)
        if r is None:
            rows = [list(self.realization[i])
                    for i in range(self.ground_size) if mask >> i & 1]
            r = ec.rational_rank(rows)
            self._rank_memo[mask] = r
        return r

    def closure(self, subset):
        """Smallest flat containing the subset."""
        mask = 0
        for e in subset:
            mask |= 1 << e
        out = self._closure_memo.get(mask)
        if out is None:
            r = self._rank_mask(mask)
            cl = mask
            for e in range(self.ground_size):
                if not mask >> e & 1 and self._rank_mask(mask | 1 << e) == r:
                    cl |= 1 << e
            out = frozenset(i for i in range(self.ground_size) if cl >> i & 1)
            self._closure_memo[mask] = out
        return out

    def loops(self):
        return self.closure(())

    def __repr__(self):
        return f"LinearMatroid(ground={self.ground_size}, rank={self.rank})"


def indicator(subset, n):
    return tuple(1 if i in subset else 0 for i in range(n))


# ---------------------------------------------------------------------------
# cycle operations

def push_forward_cycle(C, V):
    """Image cycle under an integer linear map given by the rows of V.

    Keeps the cones whose images reach the maximal image dimension, each with
    its weight multiplied by the lattice index of the image of the cone's
    span lattice inside its saturation, the ``index`` of one ``saturate``
    of that image; dimension-dropping cones are discarded.  Items are not
    merged.
    """
    V = [tuple(row) for row in V]
    target = len(V)
    if any(len(row) != C.ambient_dim for row in V):
        raise DimensionMismatch("map width does not match the cycle ambient")
    staged = []
    out_dim = 0
    for cone, w in C.items:
        rays = [ec.mat_vec(V, r) for r in cone.rays]
        lin = [ec.mat_vec(V, l) for l in cone.lineality]
        img = Cone([r for r in rays if any(r)],
                   [l for l in lin if any(l)], target)
        staged.append((cone, w, img))
        out_dim = max(out_dim, img.dim)
    items = []
    for cone, w, img in staged:
        if img.dim != out_dim:
            continue
        gens = [ec.mat_vec(V, b) for b in cone.span]
        items.append((img, w * ec.saturate(gens, target).index))
    return TropicalCycle(target, out_dim, items)


def standard_linear_cycle(k, n, negated=False):
    """The tropical k-plane in P^n with all Pluecker coordinates equal:
    cones over the k-subsets of the unit vectors e_0..e_n, each with the
    all-ones lineality and weight 1, in R^{n+1}."""
    if not 0 <= k <= n:
        raise DimensionMismatch(f"need 0 <= k <= n, got k={k}, n={n}")
    amb = n + 1
    ones = (1,) * amb
    sign = -1 if negated else 1
    if k == 0:
        return TropicalCycle(amb, 1, [(Cone([], [ones], amb), 1)])
    items = []
    for S in combinations(range(amb), k):
        rays = [tuple(sign if i == j else 0 for j in range(amb)) for i in S]
        items.append((Cone(rays, [ones], amb), 1))
    return TropicalCycle(amb, k + 1, items)


def stable_sum(C, D):
    """Stable Minkowski sum of two cycles in the same ambient space.

    A pair of cones contributes iff their spans meet exactly in the
    intersection of their lineality spaces, i.e. the sum has the expected
    dimension modulo the shared lineality; the weight picks up the index of
    the sum of the two span lattices inside its saturation.  One
    ``saturate`` of the two spans gives both that dimension and the index.
    """
    if C.ambient_dim != D.ambient_dim:
        raise DimensionMismatch("stable sum needs a common ambient space")
    n = C.ambient_dim
    items = []
    out_dim = None
    for sigma, ws in C.items:
        lin_s = list(sigma.lineality)
        for lam, wl in D.items:
            lin_l = list(lam.lineality)
            common_lin = len(lin_s) + len(lin_l) \
                - ec.saturate(lin_s + lin_l, n).rank
            expected = sigma.dim + lam.dim - common_lin
            total = ec.saturate(sigma.span + lam.span, n)
            if total.rank != expected:
                continue
            cone = Cone(list(sigma.rays) + list(lam.rays),
                        lin_s + lin_l, n)
            if out_dim is None:
                out_dim = cone.dim
            if cone.dim != out_dim:
                raise DimensionMismatch("stable sum produced mixed dimensions")
            items.append((cone, ws * wl * total.index))
    if out_dim is None:
        return TropicalCycle(n, 0, [])
    return TropicalCycle(n, out_dim, items)
