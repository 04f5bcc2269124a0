"""Tropical implicitization of generic torus parametrizations.

Three pipelines feed the Newton polytope oracle:

* ``get_tropical_cycle`` computes the tropicalization of the closed image
  of a Laurent parametrization from its coordinate Newton polytopes Q_i,
  by projecting the graph cycle of Sturmfels, Tevelev and Yu: the normal
  cones of the sum of the lifted polytopes conv(e_i, 0 x Q_i), weighted by
  mixed volumes of their faces.  Each lifted face is a vertex, a face of
  Q_i or their join, so the cones of positive weight are enumerated from
  the normal fan of the sum of the Q_i in R^d, one per choice of summands
  whose face is that of Q_i alone.
* ``get_trop_a_disc`` computes the tropical A-discriminant as a projected
  Bergman fan.
* ``get_vertex`` / ``reconstruct_polytope`` turn any hypersurface cycle
  into the (translated) Newton polytope of its defining equation via
  support-function queries answered by weighted ray crossings, counted at
  a symbolically perturbed direction so that no query is degenerate.
"""

import itertools

from . import exactcore as ec
from .errors import (
    DimensionMismatch,
    InputFormatError,
    LoopyMatroid,
    NonDivisibleDegree,
    OracleInconsistent,
    RowSpanMissingOnes,
)
from .polyhedra import (
    Cone,
    Polytope,
    PolytopeBuilder,
    minkowski_sum,
    mixed_volume,
    normal_fan_cones,
)
from .tropical import (
    BERGMAN_SIGN,
    LinearMatroid,
    TropicalCycle,
    indicator,
    push_forward_cycle,
)


class Parametrization:
    """n Laurent polynomial components in d torus variables.

    Each component is a nonempty list of (coefficient, exponent) terms with
    nonzero rational coefficients and integer exponent vectors of length d.
    """

    def __init__(self, d, n, components):
        if d < 1 or n < 1:
            raise ValueError("need d >= 1 and n >= 1")
        if len(components) != n:
            raise ValueError(f"expected {n} components, got {len(components)}")
        self.d = d
        self.n = n
        comps = []
        for terms in components:
            if not terms:
                raise ValueError("component with no terms")
            clean = []
            for coeff, exp in terms:
                if not coeff:
                    raise ValueError("zero coefficient in a component")
                exp = tuple(int(e) for e in exp)
                if len(exp) != d:
                    raise ValueError(f"exponent {exp} is not length {d}")
                clean.append((coeff, exp))
            comps.append(tuple(clean))
        self.components = tuple(comps)

    @classmethod
    def from_json(cls, obj):
        try:
            comps = [[(ec.rat_from_json(t["coeff"]),
                       ec.vec_from_json(t["exp"]))
                      for t in comp["terms"]]
                     for comp in obj["components"]]
            return cls(ec.int_from_json(obj["d"]), ec.int_from_json(obj["n"]),
                       comps)
        except (KeyError, TypeError, ValueError) as exc:
            raise InputFormatError(f"bad parametrization: {exc}") from exc

    def evaluate(self, t):
        """The image point f(t) at a parameter point t of nonzero rationals."""
        point = []
        for terms in self.components:
            total = 0
            for coeff, exp in terms:
                v = coeff
                for x, k in zip(t, exp):
                    if k:
                        v = v * ec.power(x, k)
                total += v
            point.append(total)
        return tuple(point)

    def newton_polytopes(self):
        return [Polytope([e for _, e in terms]) for terms in self.components]

    def __repr__(self):
        return f"Parametrization(d={self.d}, n={self.n})"


def get_graph_cycle(newton_polytopes):
    """Tropicalization of the graph of a generic parametrization.

    Takes the coordinate Newton polytopes Q_1 .. Q_n in Z^d and returns a
    pure d-dimensional cycle in R^(n+d), coordinates ordered image-first:
    the d-dimensional normal cones of the Minkowski sum of the lifted
    polytopes conv(e_i, 0 x Q_i), each weighted by the mixed volume of the
    lifted faces at a witness of the cone (Sturmfels, Tevelev, Yu, The
    Newton polytope of the implicit equation, 2007).

    Neither the lifted sum nor a lifted face is built.  At w = (u, v) the
    face of conv(e_i, 0 x Q_i) is {e_i}, 0 x F_i or their join as u_i is
    below, above or at min v.Q_i, with F_i the face of Q_i at v.  A point
    summand has mixed volume zero, so the cones of positive weight are the
    pairs (C, B): C a c-dimensional normal cone of Q_1 + .. + Q_n, and B a
    set of d - c indices whose F_i is no point, where the face is 0 x F_i
    and elsewhere the join.  The cone is the image of C x R_+^B under
    (v, t) -> (v.f_1 + t_1, .., v.f_n + t_n, v) for fixed f_i in F_i.
    Every summand but the join at j lies in the hyperplane x_j = 0, across
    which the join has lattice width one, so it drops out of the mixed
    volume (Schneider, Convex Bodies, ch. 5): the weight is the mixed
    volume of the F_i, i in B, in the lattice of the face F_1 + .. + F_n.
    Items keep the order of the sorted vertex lists of the lifted faces'
    sum, which for each S in the join indices holds e_S plus the vertices
    of the sum of the F_i outside S.
    """
    polys = list(newton_polytopes)
    n = len(polys)
    if n == 0:
        raise ValueError("need at least one Newton polytope")
    d = polys[0].ambient_dim
    for Q in polys:
        if Q.ambient_dim != d:
            raise DimensionMismatch("Newton polytopes in mixed dimensions")
    full = tuple(range(n))
    unit = [tuple(int(j == i) for j in range(n + d)) for i in full]
    subsums = {(): Polytope([(0,) * d])}
    subsums.update(((i,), Q) for i, Q in enumerate(polys))

    def subsum(T):
        if T not in subsums:
            subsums[T] = minkowski_sum([polys[i] for i in T])
        return subsums[T]

    cells = []
    for c in range(max(0, d - n), d + 1):
        for C, v in normal_fan_cones(subsum(full), c):
            face = subsum(full).face_vertices(v)
            lattice = ec.saturate([ec.vec_sub(p, face[0]) for p in face[1:]],
                                  d)
            faces = [Q.face_vertices(v) for Q in polys]

            def lift(x):
                return tuple(ec.dot(x, f[0]) for f in faces) + tuple(x)

            rays = [lift(r) for r in C.rays]
            lineality = [lift(l) for l in C.lineality]
            wide = [i for i in full if len(faces[i]) > 1]
            for B in itertools.combinations(wide, d - c):
                m = mixed_volume([polys[i].face_of(v) for i in B], lattice)
                if m == 0:
                    continue
                join = [i for i in full if i not in B]
                key = sorted(
                    tuple(int(i in S) for i in full) + p
                    for r in range(len(join) + 1)
                    for S in itertools.combinations(join, r)
                    for p in subsum(tuple(i for i in full if i not in S))
                    .face_vertices(v))
                cone = Cone(rays + [unit[i] for i in B], lineality, n + d)
                cells.append((key, cone, m))
    cells.sort(key=lambda cell: cell[0])
    return TropicalCycle(n + d, d, [(cone, m) for _, cone, m in cells])


def get_tropical_cycle(newton_polytopes, delta=1):
    """Tropicalization of the closed image, as a cycle in R^n.

    Projects the graph cycle by forgetting the domain coordinates.  The
    result overcounts by the degree delta of the parametrization onto its
    image; passing delta consolidates duplicate cones and divides every
    weight, raising NonDivisibleDegree when a weight is not a multiple.
    With delta=1 duplicate cones from distinct graph cones are preserved.
    """
    if delta < 1:
        raise ValueError("delta must be a positive integer")
    polys = list(newton_polytopes)
    G = get_graph_cycle(polys)
    n = len(polys)
    proj = [[1 if j == i else 0 for j in range(G.ambient_dim)]
            for i in range(n)]
    C = push_forward_cycle(G, proj)
    if delta == 1:
        return C
    merged = C.consolidated()
    items = []
    for cone, w in merged:
        if w % delta:
            raise NonDivisibleDegree(
                f"weight {w} not divisible by degree {delta}")
        items.append((cone, w // delta))
    return TropicalCycle(C.ambient_dim, C.pure_dim, items)


def _matroid_components(M):
    """Connected components of a matroid, as sorted index lists.

    Fundamental circuits with respect to one fixed basis already generate
    the component partition, and one Bareiss kernel of the realization's
    columns lists them all: each vector of ``rational_kernel`` has one
    free column, an element outside the basis of pivot columns, and its
    support is that element's fundamental circuit.
    """
    n = M.ground_size
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[rb] = ra

    for x in ec.rational_kernel(ec.transpose(M.realization), n):
        support = [e for e, c in enumerate(x) if c]
        for e in support[1:]:
            union(support[0], e)
    groups = {}
    for e in range(n):
        groups.setdefault(find(e), []).append(e)
    return sorted(groups.values())


def _connected_flats(M):
    """Proper nonempty flats of M whose restriction is connected."""
    flats = set()
    level = {M.closure((e,)) for e in range(M.ground_size)}
    while level:
        flats |= level
        grown = set()
        for F in level:
            for e in range(M.ground_size):
                if e not in F:
                    G = M.closure(F | {e})
                    if M.rank_of(G) < M.rank:
                        grown.add(G)
        level = grown - flats
    out = []
    for F in sorted(flats, key=sorted):
        if len(F) == 1 or len(_matroid_components(
                LinearMatroid([M.realization[e] for e in F]))) == 1:
            out.append(F)
    return out


def _maximal_nested_sets(M):
    """Maximal nested sets of connected proper flats of a connected matroid.

    A set is nested when every antichain of two or more members joins to a
    flat that is disconnected or the full ground set.  These index the
    coarsest canonical cone structure on the tropical linear space; each
    nested cone is the union of the maximal-chain cones inside it, so the
    underlying cycle is the fine one.  Maximal nested sets all have
    rank - 1 members.
    """
    r = M.rank
    ground = frozenset(range(M.ground_size))
    building = _connected_flats(M)
    member = set(building)
    out = []
    for S in itertools.combinations(building, r - 1):
        nested = True
        for k in range(2, r):
            for anti in itertools.combinations(S, k):
                if any(a <= b or b <= a
                       for a, b in itertools.combinations(anti, 2)):
                    continue
                join = M.closure(frozenset().union(*anti))
                if join == ground or join in member:
                    nested = False
                    break
            if not nested:
                break
        if nested:
            out.append(list(S))
    return out


def _product_bergman_cycle(M):
    """Bergman cycle of M with the direct-sum product structure.

    One cone per choice of a maximal nested set in every connected
    component; the component indicator vectors span the lineality.  The
    support and weights agree with the fine chains-of-flats fan, but each
    cone is a product over components, so a linear map whose fibers run
    along component indicators stays within single cones, and each factor
    is as coarse as the nested structure allows.
    """
    if M.loops():
        raise LoopyMatroid(f"matroid has loops {sorted(M.loops())}")
    m = M.ground_size
    comps = _matroid_components(M)
    lin = [indicator(frozenset(comp), m) for comp in comps]
    factors = []
    for comp in comps:
        sub = LinearMatroid([M.realization[e] for e in comp])
        embedded = []
        for nested in _maximal_nested_sets(sub):
            embedded.append(
                [tuple(BERGMAN_SIGN * x
                       for x in indicator(frozenset(comp[i] for i in F), m))
                 for F in nested])
        factors.append(embedded)
    items = []
    for choice in itertools.product(*factors):
        rays = [r for group in choice for r in group]
        items.append((Cone(rays, lin, m), 1))
    return TropicalCycle(m, M.rank, items)


def get_trop_a_disc(A):
    """Tropical discriminant of a point configuration A, as a cycle in R^n.

    A is a d x n integer matrix of rank d whose row span contains the
    all-ones vector (RowSpanMissingOnes otherwise).  The cycle is the
    image of the Bergman fan of the matroid of the rows of
    U = [[B^T, 0], [0, I_d]] under V = [I_n | A^T], with B a Gale dual
    of A; weights are the lattice indices of the projected cone lattices.

    The Bergman fan must carry its component product structure here: the
    projection collapses each cone along a component-indicator direction,
    and splitting cones across that direction would overcount the image.
    Factors use the coarse nested-set structure, so the returned cones are
    the images of the maximal nested cones that keep full dimension.
    """
    A = [[int(x) for x in row] for row in A]
    d = len(A)
    n = len(A[0]) if d else 0
    B = ec.gale_dual(A)
    if any(sum(row) for row in B):  # ones is orthogonal to ker A = span B
        raise RowSpanMissingOnes(
            "all-ones vector is outside the row span of A")
    nd = n - d
    rows_U = [tuple(B[k][i] for k in range(nd)) + (0,) * d for i in range(n)]
    for j in range(d):
        rows_U.append((0,) * nd + tuple(1 if k == j else 0 for k in range(d)))
    M = LinearMatroid(rows_U)
    berg = _product_bergman_cycle(M)
    V = [tuple(1 if j == i else 0 for j in range(n)) + tuple(a[i] for a in A)
         for i in range(n)]
    return push_forward_cycle(berg, V)


def get_vertex(C, w):
    """Vertex of the Newton polytope dual to C minimizing direction w.

    C must be a pure codimension-one cycle in R^n and w a nonzero integer
    vector.  Coordinate i of the vertex counts the weighted crossings of
    the ray w + R_+ e_i through the cycle, each crossing contributing the
    cone weight times |nu_i|, nu the primitive normal of the cone's
    hyperplane (Dickenstein, Feichtner, Sturmfels, Tropical discriminants,
    JAMS 2007).  The count needs a generic direction, so it is taken at
    w_eps = w + eps e_1 + eps^2 e_2 + .. + eps^n e_n for an infinitesimal
    eps > 0 (Edelsbrunner, Muecke, Simulation of Simplicity, ACM TOG 9,
    1990), where no ray grazes a cone boundary.  w_eps breaks the ties of
    w by the first coordinate, then the second, and so on: the answer is
    the lexicographically smallest vertex of the face minimizing w.
    """
    n = C.ambient_dim
    if C.pure_dim != n - 1:
        raise DimensionMismatch(
            f"cycle is pure dimension {C.pure_dim}, need {n - 1}")
    probe = [int(x) for x in w]
    if probe != list(w):
        raise ValueError("direction must be an integer vector")
    if not any(probe):
        raise ValueError("direction must be nonzero")
    if len(probe) != n:
        raise DimensionMismatch(f"direction has length {len(probe)}, need {n}")
    return _crossing_counts(C, probe, n)


def _crossing_counts(C, w, n):
    """Weighted crossing counts of the rays w_eps + R_+ e_i of get_vertex.

    c_0 + c_1 eps + .. + c_n eps^n has the sign of its first nonzero c_k.
    The ray meets nu.x = 0 ahead of w_eps when nu_i and nu.w_eps, with
    coefficients (nu.w, nu_1, .., nu_n), differ in sign.  Membership is
    tested at the crossing scaled by |nu_i|, x_0 + d_1 eps + .., with x_0 =
    |nu_i| w - sgn(nu_i) (nu.w) e_i and d_k = |nu_i| e_k - sgn(nu_i) nu_k
    e_i.  The d_k span the hyperplane, so u.x vanishes identically for no
    facet normal u, which is reduced modulo nu: no crossing is on a
    boundary.
    """
    v = [0] * n
    for cone, mult in C:
        nu = cone.hyperplane_normal()
        nw = ec.dot(nu, w)
        lead = nw or next(c for c in nu if c)
        for i, c in enumerate(nu):
            if c * lead >= 0:
                continue
            a, sign = abs(c), (1 if c > 0 else -1)
            x = [a * wj for wj in w]
            x[i] -= sign * nw
            for u in cone.facets():
                ux = ec.dot(u, x)
                if ux == 0:
                    ux = next(t for t in (a * u[k] - sign * nu[k] * u[i]
                                          for k in range(n)) if t)
                if ux < 0:
                    break
            else:
                v[i] += mult * a
    return tuple(v)


def reconstruct_polytope(C):
    """Newton polytope of the hypersurface with tropicalization C.

    Runs the vertex oracle inside a beneath-beyond loop: maintain the hull
    of the vertices seen, confirm every affine-hull equation and every
    facet by querying its outer normal, and add the answer as a new vertex
    whenever it lies beyond.  Until the equations are confirmed, the hull
    is rebuilt whenever an answer leaves the affine hull; after that it is
    one ``PolytopeBuilder`` in chart coordinates of the affine hull, and a
    new vertex is one beneath-beyond insertion.  Facets are queried in
    their sorted order.  Confirmed facets are kept as certificates; an
    oracle answer violating one raises OracleInconsistent.  The result is
    the translate with all coordinate minima at zero.  The first queries
    are the 2n signed unit directions; every later one is an equation or
    facet normal of the hull, so no query is random.
    """
    n = C.ambient_dim
    if C.pure_dim != n - 1:
        raise DimensionMismatch(
            f"cycle is pure dimension {C.pure_dim}, need {n - 1}")
    merged = C.consolidated()
    return _reconstruct(lambda w: get_vertex(merged, w), n)


def _reconstruct(oracle, n):
    pts = {}  # the answers, in the order asked
    certified = set()

    def ask(w):
        v = tuple(oracle(w))
        wv = ec.dot(w, v)
        for p in pts:
            if ec.dot(w, p) < wv:
                raise OracleInconsistent(
                    f"answer {v} for direction {w} is beaten by known "
                    f"vertex {p}")
        for a, b in certified:
            if ec.dot(a, v) > b:
                raise OracleInconsistent(
                    f"answer {v} violates confirmed facet {a} . x <= {b}")
        pts[v] = None
        return v

    for i in range(n):
        e = tuple(1 if j == i else 0 for j in range(n))
        ask(e)
        ask(tuple(-x for x in e))
    grew = True
    while grew:
        H = PolytopeBuilder(pts)
        held = len(pts)
        grew = False
        for c, c0 in H.equations():
            if (c, c0) in certified:
                continue
            for probe in (c, tuple(-x for x in c)):
                v = ask(probe)
                if ec.dot(c, v) != c0:
                    grew = True
                    break
            if grew:
                break
            certified.add((c, c0))
            certified.add((tuple(-x for x in c), -c0))
    # the affine hull is confirmed: H grows by the answers asked since it
    # last grew, once a facet query finds a vertex beyond
    while True:
        for a, b in H.facets():
            if (a, b) in certified:
                continue
            v = ask(tuple(-x for x in a))
            if ec.dot(a, v) > b:
                for p in itertools.islice(pts, held, None):
                    H.add(p)
                held = len(pts)
                break
            certified.add((a, b))
        else:
            return H.polytope()
