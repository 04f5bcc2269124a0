"""Exact linear algebra over Q, Z and GF(p).

Everything downstream (polytopes, fans, interpolation) runs on the primitives
in this module: arbitrary-precision rationals, saturated lattices,
fraction-free kernels and Chinese-remainder rational reconstruction.  No
floating point anywhere.  Two eliminations serve Q and Z, each with its
own jobs.  The row Hermite form with its unimodular transform and that
transform's inverse is the one integer normal form.  ``saturate`` is the
one place a lattice is built from generators: one Hermite form of them
gives the saturation's basis, its integer equations, the index of the
generators in it and the change of coordinates between Z^n and the basis,
each read lazily (Cohen, A Course in Computational Algebraic Number
Theory, 2.4).  Reduction modulo a subspace runs on the same form.
Fraction-free Bareiss elimination (``_bareiss_echelon``) gives rank,
determinant and the kernel over Q.  There is no general solver of
M x = b: a lattice's change of coordinates is the one such system the
package meets.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property

from .errors import (
    DimensionMismatch,
    RankDeficient,
    ReconstructionFailed,
)

# Moduli of GF(p) arithmetic stay below PRIME_BOUND, so products of two
# residues stay inside int64; DEFAULT_PRIME is the largest such prime.
PRIME_BOUND = 2 ** 31
DEFAULT_PRIME = 2147483647
# gfp_kernel reduces matrices of at most this many columns in Python ints,
# and MonomialBasis.row_mod evaluates rows of at most this many monomials
# in them; both import numpy only for wider ones.  At 2^31 - 1 a 63 x 64
# kernel costs about 9 ms more in Python than in numpy (13 against 3.4
# ms), so importing numpy (about 0.17 s and 14 MB on the same host) pays
# off only after some 18 such kernels, and after a single 205-column one
# (0.25 s against 0.02 s).
GFP_PYTHON_COLUMNS = 64


def rat(a, b=1):
    """Exact rational; collapses to a plain int when the value is integral."""
    q = Fraction(a, b)
    return int(q) if q.denominator == 1 else q


def div_exact(a, d):
    """a / d for rational a and nonzero integer or rational d, as ``rat``."""
    if isinstance(a, int) and isinstance(d, int):
        return a // d if a % d == 0 else rat(a, d)
    an, ad = (a, 1) if isinstance(a, int) else (a.numerator, a.denominator)
    dn, dd = (d, 1) if isinstance(d, int) else (d.numerator, d.denominator)
    return rat(int(an) * int(dd), int(ad) * int(dn))


def power(x, e):
    """x ** e for rational x and integer e; a negative e needs x nonzero."""
    if e >= 0:
        return x ** e
    return div_exact(1, x ** (-e))


def rat_from_json(v):
    """Parse the wire form: bare int, or a "num/den" decimal string.

    JSON booleans and zero denominators raise ValueError.
    """
    if isinstance(v, bool):
        raise ValueError(f"not a rational: {v!r}")
    if isinstance(v, int):
        return v
    if isinstance(v, str):
        if "/" in v:
            num, den = (int(x) for x in v.split("/", 1))
            if den == 0:
                raise ValueError(f"zero denominator in {v!r}")
            return rat(num, den)
        return int(v)
    raise ValueError(f"not a rational: {v!r}")


def int_from_json(v):
    """Parse an integer wire field as ``rat_from_json`` does; ValueError
    unless the value is integral, so a float or "3/2" is never cut."""
    q = rat_from_json(v)
    if not isinstance(q, int):
        raise ValueError(f"not an integer: {v!r}")
    return q


def vec_from_json(v):
    """Parse an integer vector wire field; ValueError unless v is a JSON
    array, so a digit string "012" is never (0, 1, 2).  Each entry is
    read by ``int_from_json``."""
    if not isinstance(v, list):
        raise ValueError(f"not an array: {v!r}")
    return tuple(int_from_json(x) for x in v)


def rat_to_json(q):
    if isinstance(q, int):
        return q
    if q.denominator == 1:
        return int(q)
    return f"{int(q.numerator)}/{int(q.denominator)}"


# ---------------------------------------------------------------------------
# small dense helpers (rows are sequences; results are lists/tuples)

def identity_matrix(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def transpose(M):
    return [list(col) for col in zip(*M)]


def mat_vec(M, v):
    return tuple(sum(r[j] * v[j] for j in range(len(v))) for r in M)


def dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def vec_add(u, v):
    return tuple(a + b for a, b in zip(u, v))


def vec_sub(u, v):
    return tuple(a - b for a, b in zip(u, v))


def vec_gcd(v):
    g = 0
    for x in v:
        g = math.gcd(g, abs(int(x)))
    return g


def primitive_vector(v):
    """Scale a nonzero rational vector to coprime integers, direction kept."""
    den = 1
    for x in v:
        if not isinstance(x, int):
            den = den * x.denominator // math.gcd(den, int(x.denominator))
    w = [int(x * den) for x in v]
    g = vec_gcd(w)
    if g == 0:
        raise ValueError("zero vector has no primitive representative")
    return tuple(x // g for x in w)


def canonical_sign(v):
    """Flip so the first nonzero entry is positive."""
    for x in v:
        if x:
            return tuple(-y for y in v) if x < 0 else tuple(v)
    return tuple(v)


def canonicalize_rational_vector(v):
    """Scale to coprime integers with positive leading nonzero entry.

    This is the one normalization used for kernel vectors and coefficient
    vectors everywhere, so outputs are reproducible across runs and fields.
    """
    if all(x == 0 for x in v):
        return tuple(0 for _ in v)
    return canonical_sign(primitive_vector(v))


# ---------------------------------------------------------------------------
# integer normal forms

def row_hermite(M):
    """Row-style Hermite form: returns (H, U, W) with H = U*M, U unimodular
    and W = (U^-1)^T, so M = W^T*H.

    Pivots positive, entries above a pivot reduced into [0, pivot), zero rows
    at the bottom.  M is a list of rows whose entries are integral, of any
    numeric type; ValueError if one is not.  Each row operation on U is
    the inverse column operation on U^-1: subtracting q times row r from
    row i of U adds q times column i to column r of U^-1.  W holds those
    columns as its rows, so it takes the same steps as row operations.
    """
    H = [list(map(int, row)) for row in M]
    if H != M and H != [list(row) for row in M]:
        raise ValueError("row_hermite needs an integer matrix")
    m = len(H)
    n = len(H[0]) if m else 0
    U = identity_matrix(m)
    W = identity_matrix(m)
    r = 0
    for c in range(n):
        if r == m:
            break
        while True:
            nz = [i for i in range(r, m) if H[i][c] != 0]
            if not nz:
                break
            i0 = min(nz, key=lambda i: abs(H[i][c]))
            if i0 != r:
                H[r], H[i0] = H[i0], H[r]
                U[r], U[i0] = U[i0], U[r]
                W[r], W[i0] = W[i0], W[r]
            clean = True
            for i in range(r + 1, m):
                if H[i][c]:
                    q = H[i][c] // H[r][c]
                    H[i] = [a - q * b for a, b in zip(H[i], H[r])]
                    U[i] = [a - q * b for a, b in zip(U[i], U[r])]
                    W[r] = [a + q * b for a, b in zip(W[r], W[i])]
                    if H[i][c]:
                        clean = False
            if clean:
                break
        if r < m and H[r][c] != 0:
            if H[r][c] < 0:
                H[r] = [-a for a in H[r]]
                U[r] = [-a for a in U[r]]
                W[r] = [-a for a in W[r]]
            for i in range(r):
                q = H[i][c] // H[r][c]
                if q:
                    H[i] = [a - q * b for a, b in zip(H[i], H[r])]
                    U[i] = [a - q * b for a, b in zip(U[i], U[r])]
                    W[r] = [a + q * b for a, b in zip(W[r], W[i])]
            r += 1
    return H, U, W


class LatticeBasis:
    """The saturation span_Q(G) meet Z^n of generators G, rank k, read
    lazily off one factorization H = U G^T, W = (U^-1)^T (``row_hermite``).

    G^T = W^T H and only the first k rows of H are nonzero, so the first k
    rows of W, part of a basis of Z^n, span every generator: they are a
    basis of the saturation, and ``vectors`` is its Hermite form T W[:k].
    Rows k and up of U vanish on the generators and span the integer kernel
    of G, the saturated lattice of the span's ``equations``, also in
    Hermite form.  U W^T = I, so D = (T^-1)^T U[:k] is an integer dual
    basis, D vectors^T = I: it gives ``coordinates`` and ``pull_back``.
    The columns of H[:k] are the generators' coordinates in W[:k], so
    ``index``, the index of the lattice the generators span in the
    saturation (for integer generators), is the product of the pivots of
    the Hermite form of the transpose of H[:k].  It divides the product of
    the pivots of H[:k] itself, the index of the generators at those pivot
    columns, so it is that product when the product is 1 or when the
    generators are independent.
    """

    def __init__(self, ambient_dim, H, U, W):
        self.ambient_dim = ambient_dim
        self.rank = k = sum(1 for row in H if any(row))
        # the rows each read needs, each dropped once its read is cached,
        # so that cones and polytopes hold no factors they have read
        self._rows = {"vectors": W[:k], "equations": U[k:], "index": H[:k]}
        if k < ambient_dim:  # else D = I
            self._rows["dual"] = U[:k]

    @cached_property
    def vectors(self):
        basis, self._rows["transform"] = _hermite_basis(
            self._rows.pop("vectors"), self.ambient_dim)
        return basis

    @cached_property
    def equations(self):
        return _hermite_basis(self._rows.pop("equations"),
                              self.ambient_dim)[0]

    @cached_property
    def index(self):
        top = self._rows.pop("index")
        bound = math.prod(next(x for x in row if x) for row in top)
        if bound == 1 or len(top) == len(top[0]):
            return bound
        H = row_hermite(transpose(top))[0]
        return math.prod(H[i][i] for i in range(self.rank))

    @cached_property
    def _dual(self):
        self.vectors  # its reduction leaves (T^-1)^T
        Ut = transpose(self._rows.pop("dual"))
        return [mat_vec(Ut, s) for s in self._rows.pop("transform")]

    def coordinates(self, x):
        """The coordinates D x in ``vectors`` of a rational point x of the
        span, as ``rat``, or None when an equation is nonzero on x."""
        if self.rank < self.ambient_dim:
            if any(dot(c, x) for c in self.equations):
                return None
            x = [dot(d, x) for d in self._dual]
        return tuple(t if isinstance(t, int) else rat(t) for t in x)

    def pull_back(self, u):
        """D^T u for a primitive integer functional u on coordinates,
        reduced modulo the ``equations`` and made primitive: the primitive
        functional on Z^n, zero at their pivots, positive multiple of u on
        ``vectors``; u itself in a full rank lattice."""
        if self.rank == self.ambient_dim:
            return u
        return primitive_vector(reduce_mod_subspace(
            mat_vec(transpose(self._dual), u), self.equations))

    def __iter__(self):
        return iter(self.vectors)

    def __len__(self):
        return self.rank


def _hermite_basis(rows, n):
    """(B, S): the Hermite form B = T R of independent integer rows R in
    Z^n, as tuples, and S = (T^-1)^T; the identity and None when R is n
    rows of a unimodular matrix."""
    if len(rows) == n:
        return tuple(map(tuple, identity_matrix(n))), None
    H, _, S = row_hermite(rows) if rows else ((), (), [])
    return tuple(map(tuple, H)), S


def saturate(generators, ambient_dim=None):
    """The ``LatticeBasis`` of span_Q(generators) meet Z^n, from one
    ``row_hermite`` of the generators, each cleared of its denominators.

    Saturation of a saturation is itself; generators may be dependent and may
    be rational (only their span matters).
    """
    gens = list(generators)
    if ambient_dim is None:
        if not gens:
            raise ValueError("need ambient_dim without generators")
        ambient_dim = len(gens[0])
    rows = _integer_rows([g for g in gens if any(g)])[0]
    if not rows:
        eye = identity_matrix(ambient_dim)
        return LatticeBasis(ambient_dim, [], eye, eye)
    return LatticeBasis(ambient_dim, *row_hermite(transpose(rows)))


# ---------------------------------------------------------------------------
# rational elimination (fraction-free Bareiss)

def _integer_rows(rows):
    """(rows, scale): each row holding a fraction scaled to integers by the
    lcm of its denominators, and the product of those lcms."""
    out = []
    scale = 1
    for row in rows:
        den = math.lcm(*[x.denominator for x in row if not isinstance(x, int)])
        out.append(row if den == 1 else [int(x * den) for x in row])
        scale *= den
    return out, scale


def _bareiss_echelon(rows):
    """Fraction-free echelon form of integer rows; returns (rows,
    pivot_cols, sign), sign that of the row permutation.

    Every division is exact: after the pivot of column c, the rows below
    hold minors of the permuted rows, so a square matrix of full rank ends
    on its determinant times sign.
    """
    M = [list(r) for r in rows]
    m = len(M)
    n = len(M[0]) if m else 0
    piv_cols = []
    sign = 1
    r = 0
    prev = 1
    for c in range(n):
        if r == m:
            break
        for p in range(r, m):
            if M[p][c]:
                break
        else:
            continue
        if p != r:
            M[r], M[p] = M[p], M[r]
            sign = -sign
        lead = M[r][c]
        Mr = M[r]
        for i in range(r + 1, m):
            head = M[i][c]
            Mi = M[i]
            for j in range(c + 1, n):
                Mi[j] = (lead * Mi[j] - head * Mr[j]) // prev
            Mi[c] = 0
        prev = lead
        piv_cols.append(c)
        r += 1
    return M[:r], piv_cols, sign


def det(rows):
    """Exact determinant of a square matrix of rationals: the last pivot
    of its ``_bareiss_echelon`` form, times the sign of the row
    permutation, over the scale that cleared the rows to integers."""
    ints, scale = _integer_rows(rows)
    ech, piv, sign = _bareiss_echelon(ints)
    if len(piv) < len(rows):
        return 0
    return div_exact(sign * ech[-1][-1], scale) if rows else 1


def rational_rank(rows):
    rows = [r for r in rows if any(r)]
    if not rows:
        return 0
    return len(_bareiss_echelon(_integer_rows(rows)[0])[1])


def reduce_mod_subspace(v, basis):
    """Canonical representative of v modulo the row space of a basis in
    row Hermite form, the one integer normal form.

    v is reduced against each row in turn at that row's pivot, its first
    nonzero entry, so the result is zero at every pivot and v minus the
    result lies in the span.
    """
    w = list(v)
    for row in basis:
        c = next(j for j, x in enumerate(row) if x)
        if w[c]:
            f = div_exact(w[c], row[c])
            w = [a - f * b for a, b in zip(w, row)]
    return tuple(w)


def rational_kernel(rows, ncols=None):
    """Canonical basis of the right kernel over Q.

    Vectors are cleared to coprime integers, leading nonzero positive, ordered
    by their free column.
    """
    rows = list(rows)
    if ncols is None:
        if not rows:
            raise ValueError("need ncols for an empty matrix")
        ncols = len(rows[0])
    rows = [r for r in rows if any(r)]
    if not rows:
        return [canonical_sign(tuple(r)) for r in identity_matrix(ncols)]
    ech, piv, _ = _bareiss_echelon(_integer_rows(rows)[0])
    free = [c for c in range(ncols) if c not in piv]
    basis = []
    for f in free:
        x = [0] * ncols
        x[f] = 1
        for k in range(len(piv) - 1, -1, -1):
            c = piv[k]
            row = ech[k]
            s = 0
            for j in range(c + 1, ncols):
                if x[j]:
                    s += row[j] * x[j]
            x[c] = div_exact(-s, row[c])
        basis.append(canonicalize_rational_vector(x))
    return basis


# ---------------------------------------------------------------------------
# GF(p)

def reduce_vectors(vectors, p):
    """Images mod the prime p of the rational vectors whose denominators
    do not vanish mod p, in order; the others are dropped.

    The denominators of the vectors kept share one inversion
    (Montgomery's trick): the inverse of the product of the distinct
    ones, unwound through the prefix products into each factor's inverse.
    """
    kept = [v for v in vectors if all(x.denominator % p for x in v)]
    dens = list({x.denominator for v in kept for x in v})
    prefix = [1]
    for d in dens:
        prefix.append(prefix[-1] * d % p)
    inv = pow(prefix[-1], -1, p)
    inverse = {}
    for i in range(len(dens) - 1, -1, -1):
        inverse[dens[i]] = inv * prefix[i] % p
        inv = inv * dens[i] % p
    return [tuple(x.numerator * inverse[x.denominator] % p for x in v)
            for v in kept]


def _gfp_budget(p):
    """Updates an int64 entry can take between two reductions mod p.

    An entry starts reduced, |x| <= p - 1, and an update adds or subtracts
    the product of two balanced residues, |f|, |g| <= p // 2, so it moves
    by at most (p // 2)^2; balancing the entry afterwards adds p // 2.  The
    budget keeps p - 1 + budget * (p // 2)^2 + p // 2 inside int64: 8 near
    2^31, against 2 for residues in [0, p).
    """
    h = p // 2
    return (2 ** 63 - 1 - p - h) // (h * h)


def gfp_echelon(rows, p):
    """Row echelon form mod p by forward elimination; returns (rows,
    pivot_cols).

    The rows come back as one int64 array with zero rows dropped, in
    balanced residues |x| <= p // 2: every pivot is 1 and every row is
    zero left of its pivot.  Column by column, the first row at or below
    the current one that is nonzero there is swapped up, scaled to a unit
    pivot and subtracted from the rows below it only.  Entries must fit
    int64 and p must be below PRIME_BOUND.  Multipliers and pivot rows are
    balanced residues, and the rows below are reduced mod p only every
    ``_gfp_budget(p)`` updates (delayed reduction in the centred
    representation, Dumas, Giorgi, Pernet, ACM TOMS 35(3), 2008).
    """
    import numpy as np

    M = np.remainder(np.asarray(rows, dtype=np.int64), p)
    m, n = M.shape
    h = p // 2
    budget = _gfp_budget(p)
    pending = 0
    piv_cols = []
    r = 0
    for c in range(n):
        if r == m:
            break
        col = M[r:, c] % p
        nz = np.flatnonzero(col)
        if nz.size == 0:
            continue
        i0 = int(nz[0])
        top = (M[r + i0, c:] % p * pow(int(col[i0]), -1, p) + h) % p - h
        if i0:
            M[r + i0] = M[r]
            col[i0] = col[0]
        below = M[r + 1:, c:]
        if pending == budget:
            np.remainder(below, p, out=below)
            pending = 0
        below -= ((col[1:] + h) % p - h)[:, None] * top
        M[r, :c] = 0
        M[r, c:] = top
        pending += 1
        piv_cols.append(c)
        r += 1
    return M[:r], piv_cols


def _gfp_rref_packed(rows, p, ncols):
    """Reduced row echelon form mod p in Python ints; (rows, pivot_cols)
    as ``gfp_echelon`` gives them, but as lists.

    Each row is packed into one integer, entry j in the bit field
    [j*w, (j+1)*w), so clearing a column in a row is one big-integer
    multiply-add.  Cleared entries are left unreduced and only grow: a
    row takes at most ncols updates, each adding (p - f) * e < p^2 to an
    entry, and w leaves room for that.  An entry is reduced mod p where
    it is read, and a pivot row is reduced whole before it is used.
    """
    step = (2 * p.bit_length() + ncols.bit_length() + 8) // 8
    width = 8 * step
    mask = (1 << width) - 1
    size = step * ncols

    def pack(v):
        return int.from_bytes(b"".join(x.to_bytes(step, "little") for x in v),
                              "little")

    def unpack(x):
        b = x.to_bytes(size, "little")
        return [int.from_bytes(b[k:k + step], "little") % p
                for k in range(0, size, step)]

    M = [pack([x % p for x in row]) for row in rows]
    m = len(M)
    piv_cols = []
    r = 0
    for c in range(ncols):
        if r == m:
            break
        shift = c * width
        i0 = next((i for i in range(r, m) if (M[i] >> shift & mask) % p),
                  None)
        if i0 is None:
            continue
        M[r], M[i0] = M[i0], M[r]
        top = unpack(M[r])
        inv = pow(top[c], -1, p)
        top = pack([x * inv % p for x in top])
        M[r] = top
        for i in range(m):
            if i != r:
                f = (M[i] >> shift & mask) % p
                if f:
                    M[i] += (p - f) * top
        piv_cols.append(c)
        r += 1
    return [unpack(x) for x in M[:r]], piv_cols


def gfp_kernel(rows, p, ncols=None):
    """Kernel basis mod p, each vector scaled so its first nonzero entry is 1.

    Vectors are ordered by their free column.  The one for free column f
    is 1 at f and 0 at the other free columns, the only kernel vector of
    that shape.  Up to GFP_PYTHON_COLUMNS columns the reduced echelon form
    is computed in Python ints (``_gfp_rref_packed``), and its column f
    negated gives the pivot entries.  Wider matrices go to ``gfp_echelon``
    as one int64 array, taken as it is when the rows come as one, whose
    entries must fit int64; every free column is then back-substituted at
    once against its row echelon form, pivot by pivot from the last, as
    balanced residues with reductions every ``_gfp_budget(p)`` updates.
    p must be below PRIME_BOUND.
    """
    if ncols is None:
        if not len(rows):
            raise ValueError("need ncols for an empty matrix")
        ncols = len(rows[0])
    if ncols <= GFP_PYTHON_COLUMNS:
        R, piv = _gfp_rref_packed(rows, p, ncols)
        pivots = set(piv)
        kernel = []
        for f in range(ncols):
            if f in pivots:
                continue
            v = [0] * ncols
            v[f] = 1
            for row, c in zip(R, piv):
                v[c] = -row[f] % p
            inv = pow(next(x for x in v if x), -1, p)
            kernel.append(tuple(x * inv % p for x in v))
        return kernel

    import numpy as np

    R, piv = gfp_echelon(
        np.asarray(rows, dtype=np.int64).reshape(len(rows), ncols), p)
    pivots = set(piv)
    free = [c for c in range(ncols) if c not in pivots]
    if not free:
        return []
    h = p // 2
    budget = _gfp_budget(p)
    pending = 0
    # K[:, j] is coordinate j of every kernel vector.  S[k] accumulates row
    # k of R times K over the coordinates right of its pivot found so far;
    # once they all are, K[:, piv[k]] = -S[k] solves row k
    K = np.zeros((len(free), ncols), dtype=np.int64)
    K[np.arange(len(free)), free] = 1
    S = R[:, free]
    for k in range(len(piv) - 1, -1, -1):
        x = (h - S[k]) % p - h
        K[:, piv[k]] = x
        if pending == budget:
            np.remainder(S[:k], p, out=S[:k])
            pending = 0
        S[:k] += R[:k, piv[k], None] * x
        pending += 1
    lead = K[np.arange(len(free)), (K != 0).argmax(axis=1)]
    inv = np.array([pow(int(a), -1, p) for a in lead], dtype=np.int64)
    K = K * inv[:, None] % p
    return [tuple(v) for v in K.tolist()]


# ---------------------------------------------------------------------------
# Chinese remaindering

def crt_pair(r1, m1, r2, m2):
    g = math.gcd(m1, m2)
    if g != 1:
        raise ValueError("moduli must be coprime")
    inv = pow(m1 % m2, -1, m2)
    t = ((r2 - r1) * inv) % m2
    return (r1 + m1 * t) % (m1 * m2), m1 * m2


def rational_reconstruction(r, m):
    """Recover a/b from a*b^{-1} = r (mod m) with |a|, b <= sqrt(m/2)."""
    r %= m
    bound = math.isqrt(m // 2)
    a0, a1 = m, r
    b0, b1 = 0, 1
    while a1 > bound:
        q = a0 // a1
        a0, a1 = a1, a0 - q * a1
        b0, b1 = b1, b0 - q * b1
    if b1 == 0 or abs(b1) > bound:
        raise ReconstructionFailed(f"no small fraction for residue {r}")
    num, den = (a1, b1) if b1 > 0 else (-a1, -b1)
    if math.gcd(den, m) != 1 or (num - den * r) % m != 0:
        raise ReconstructionFailed(f"inconsistent reconstruction for residue {r}")
    g = math.gcd(abs(num), den)
    return num // g, den // g


def crt_rational_reconstruct(residue_vectors, primes):
    """Lift per-prime residue vectors to one rational vector.

    All vectors must have equal length and the primes must be distinct; raises
    ReconstructionFailed when some coordinate has no fraction below the
    sqrt(prod/2) bound.
    """
    if len(residue_vectors) != len(primes):
        raise DimensionMismatch("one residue vector per prime")
    if len(set(primes)) != len(primes):
        raise ValueError("primes must be distinct")
    width = {len(v) for v in residue_vectors}
    if len(width) != 1:
        raise DimensionMismatch("residue vectors of mixed length")
    out = []
    for coord in range(width.pop()):
        r, m = 0, 1
        for vec, p in zip(residue_vectors, primes):
            r, m = crt_pair(r, m, int(vec[coord]) % p, p)
        num, den = rational_reconstruction(r, m)
        out.append(rat(num, den))
    return tuple(out)


# ---------------------------------------------------------------------------
# Gale duality

def gale_dual(A):
    """Integer basis of the saturated kernel lattice of A, as rows: the
    equations of the saturation of A's rows.

    A is d x n of full rank d (else RankDeficient); the result B is
    (n-d) x n with A * B^T = 0.
    """
    d = len(A)
    lattice = saturate(A, len(A[0]) if d else 0)
    if lattice.rank != d:
        raise RankDeficient(f"matrix has rank below {d}")
    return list(lattice.equations)
