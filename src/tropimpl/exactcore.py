"""Exact linear algebra over Q, Z and GF(p).

Everything downstream (polytopes, fans, interpolation) runs on the primitives
in this module: arbitrary-precision rationals, saturated kernel lattices,
fraction-free kernels and Chinese-remainder rational reconstruction.  No
floating point anywhere.  Two eliminations serve Q and Z, each with its
own jobs.  The row Hermite form with its unimodular transform is the one
integer normal form: integer kernels, saturation, lattice indices,
reduction modulo a subspace and every solve, over Q or Z, run on it.
Fraction-free Bareiss elimination (``_bareiss_echelon``) gives rank,
determinant and the kernel over Q.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    DimensionMismatch,
    RankDeficient,
    ReconstructionFailed,
    SpanMismatch,
)

# Moduli of GF(p) arithmetic stay below PRIME_BOUND, so products of two
# residues stay inside int64; DEFAULT_PRIME is the largest such prime.
PRIME_BOUND = 2 ** 31
DEFAULT_PRIME = 2147483647
# gfp_kernel reduces matrices of at most this many columns in Python ints,
# and MonomialBasis.row_mod evaluates rows of at most this many monomials
# in them; both import numpy only for wider ones.  Near 2^31 one 64-column
# kernel costs about 10 ms more in Python than in numpy, so importing numpy
# (about 0.12 s and 14 MB) pays off only after a dozen such kernels, and
# after a single 205-column one.
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


def vec_from_json(v, entry=int_from_json):
    """Parse a vector wire field, by default an integer one; ValueError
    unless v is a JSON array, so a digit string "012" is never (0, 1, 2).
    Each entry is read by ``entry``."""
    if not isinstance(v, list):
        raise ValueError(f"not an array: {v!r}")
    return tuple(entry(x) for x in v)


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
    """Row-style Hermite form: returns (H, U) with H = U*M, U unimodular.

    Pivots positive, entries above a pivot reduced into [0, pivot), zero rows
    at the bottom.
    """
    H = [list(map(int, row)) for row in M]
    m = len(H)
    n = len(H[0]) if m else 0
    U = identity_matrix(m)
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
            clean = True
            for i in range(r + 1, m):
                if H[i][c]:
                    q = H[i][c] // H[r][c]
                    H[i] = [a - q * b for a, b in zip(H[i], H[r])]
                    U[i] = [a - q * b for a, b in zip(U[i], U[r])]
                    if H[i][c]:
                        clean = False
            if clean:
                break
        if r < m and H[r][c] != 0:
            if H[r][c] < 0:
                H[r] = [-a for a in H[r]]
                U[r] = [-a for a in U[r]]
            for i in range(r):
                q = H[i][c] // H[r][c]
                if q:
                    H[i] = [a - q * b for a, b in zip(H[i], H[r])]
                    U[i] = [a - q * b for a, b in zip(U[i], U[r])]
            r += 1
    return H, U


def integer_kernel(M, ncols=None):
    """Basis of the saturated lattice {v in Z^n : M v = 0}, Hermite-reduced."""
    if ncols is None:
        if not M:
            raise ValueError("need ncols for an empty matrix")
        ncols = len(M[0])
    rows = [r for r in M if any(r)]
    if not rows:
        return [tuple(r) for r in identity_matrix(ncols)]
    H, U = row_hermite(transpose(rows))
    rank = sum(1 for row in H if any(row))
    basis = [U[i] for i in range(rank, ncols)]
    if not basis:
        return []
    Hb, _ = row_hermite(basis)
    return [tuple(r) for r in Hb if any(r)]


@dataclass(frozen=True)
class LatticeBasis:
    """Basis of a sublattice of Z^n, rows independent."""

    ambient_dim: int
    vectors: tuple

    def __iter__(self):
        return iter(self.vectors)

    def __len__(self):
        return len(self.vectors)

    @property
    def rank(self):
        return len(self.vectors)


def saturate(generators, ambient_dim=None):
    """Basis of span_Q(generators) intersected with Z^n.

    Saturation of a saturation is itself; generators may be dependent and may
    be rational (only their span matters).
    """
    gens = list(generators)
    if ambient_dim is None:
        if not gens:
            raise ValueError("need ambient_dim without generators")
        ambient_dim = len(gens[0])
    prim = [primitive_vector(g) for g in gens if any(g)]
    if not prim:
        return LatticeBasis(ambient_dim, ())
    orth = integer_kernel(prim, ambient_dim)
    if not orth:
        basis = [tuple(r) for r in identity_matrix(ambient_dim)]
    else:
        basis = integer_kernel(orth, ambient_dim)
    return LatticeBasis(ambient_dim, tuple(basis))


def linear_solver(M):
    """The function b -> one rational solution x of M x = b, or None, for
    an integer matrix M and a rational b.

    M is factored once, into the row Hermite form H = U M^T: with
    x = U^T y each system becomes H^T y = b, which forward substitution
    on the pivots of H solves, subtracting y_k times row k of H from b; a
    nonzero remainder means there is no solution.  M may be rank
    deficient.  U is unimodular, so x is integral exactly when y is.
    Entries are ``rat``: int when integral.
    """
    if not M:
        return lambda b: ()
    H, U = row_hermite(transpose(M))
    pivots = [(next(j for j, x in enumerate(h) if x), h) for h in H if any(h)]
    Ut = [col[:len(pivots)] for col in transpose(U)]

    def solve(b):
        rest = list(b)
        y = []
        for c, h in pivots:
            t = div_exact(rest[c], h[c])
            y.append(t)
            if t:
                rest = [a - t * e for a, e in zip(rest, h)]
        if any(rest):
            return None
        return tuple(s if isinstance(s, int) else rat(s)
                     for s in (dot(u, y) for u in Ut))

    return solve


def solve_integer(M, b):
    """One integer solution x of M x = b, or None (``linear_solver``)."""
    x = linear_solver(M)(b)
    return x if x is None or all(isinstance(t, int) for t in x) else None


def lattice_index(super_basis, sub_generators):
    """Index of the lattice generated by ``sub_generators`` in the lattice
    spanned by ``super_basis``.

    Raises SpanMismatch unless both span the same rational subspace and the
    sub-generators sit inside the super-lattice.  Generators may be dependent;
    the index is the product of the pivots of the Hermite form of their
    coordinates, all read off one ``linear_solver`` of the super basis.
    """
    sup = list(super_basis)
    subs = [g for g in sub_generators if any(g)]
    r = len(sup)
    if not r:
        if subs:
            raise SpanMismatch("sub spans more than the zero super-lattice")
        return 1
    solve = linear_solver(transpose(sup))
    coords = []
    for g in subs:
        sol = solve(g)
        if sol is None:
            raise SpanMismatch("generator outside the span of the super basis")
        if not all(isinstance(x, int) for x in sol):
            raise SpanMismatch("generator outside the super lattice")
        coords.append(list(sol))
    if not coords or rational_rank(coords) < r:
        raise SpanMismatch("sub-generators span a smaller subspace")
    H, _ = row_hermite(coords)
    idx = 1
    for i in range(r):
        piv = next(x for x in H[i] if x)
        idx *= abs(piv)
    return idx


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

class PrimeField:
    """Arithmetic mod a prime, with reduction of rationals."""

    def __init__(self, p):
        if p < 2:
            raise ValueError("modulus must be a prime >= 2")
        self.p = p

    def reduce(self, q):
        """Image of a rational; raises ZeroDivisionError on denominator collision."""
        if isinstance(q, int):
            return q % self.p
        num = int(q.numerator) % self.p
        den = int(q.denominator) % self.p
        if den == 0:
            raise ZeroDivisionError(f"denominator of {q} vanishes mod {self.p}")
        return num * pow(den, -1, self.p) % self.p

    def reduce_vectors(self, vectors):
        """Images of the rational vectors whose denominators do not vanish
        mod p, in order; the others are dropped.

        The denominators of the vectors kept share one inversion
        (Montgomery's trick): the image of 1 over the product of the
        distinct ones, unwound through the prefix products into each
        factor's inverse.
        """
        p = self.p
        kept = [v for v in vectors if all(x.denominator % p for x in v)]
        dens = list({x.denominator for v in kept for x in v})
        prefix = [1]
        for d in dens:
            prefix.append(prefix[-1] * d % p)
        inv = self.reduce(rat(1, prefix[-1]))
        inverse = {}
        for i in range(len(dens) - 1, -1, -1):
            inverse[dens[i]] = inv * prefix[i] % p
            inv = inv * dens[i] % p
        return [tuple(x.numerator * inverse[x.denominator] % p for x in v)
                for v in kept]

    def __repr__(self):
        return f"PrimeField({self.p})"


def gfp_echelon(rows, p):
    """Reduced row echelon form mod p; returns (rows, pivot_cols).

    The rows come back as one int64 array with zero rows dropped: every
    pivot is 1 and every pivot column is zero outside its pivot row.
    Entries must fit int64 and p must be below PRIME_BOUND.  Updates are
    reduced mod p only as often as int64 needs: one update subtracts at
    most (p - 1)^2 from an entry, so ``budget`` updates can run between
    reductions (delayed reduction, as in Dumas, Giorgi, Pernet, ACM TOMS
    35(3), 2008).
    """
    import numpy as np

    M = np.remainder(np.asarray(rows, dtype=np.int64), p)
    m, n = M.shape
    budget = (2 ** 63 - 1) // (p - 1) ** 2
    pending = 0
    piv_cols = []
    r = 0
    for c in range(n):
        if r == m:
            break
        col = M[:, c] % p
        M[:, c] = col
        nz = np.flatnonzero(col[r:])
        if nz.size == 0:
            continue
        i0 = r + int(nz[0])
        if i0 != r:
            M[[r, i0]] = M[[i0, r]]
            col[[r, i0]] = col[[i0, r]]
        if pending == budget:
            np.remainder(M[:, c:], p, out=M[:, c:])
            pending = 0
        pivot_row = M[r, c:] % p * pow(int(col[r]), p - 2, p) % p
        col[r] = 0
        M[:, c:] -= col[:, None] * pivot_row
        M[r, c:] = pivot_row
        pending += 1
        piv_cols.append(c)
        r += 1
    return np.remainder(M[:r], p), piv_cols


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
    is 1 at f, 0 at the other free columns and minus column f of the
    reduced echelon form at the pivot columns, the only kernel vector of
    that shape.  Up to GFP_PYTHON_COLUMNS columns the echelon form is
    computed in Python ints (``_gfp_rref_packed``); wider matrices go to
    ``gfp_echelon`` as one int64 array, taken as it is when the rows come
    as one, whose entries must fit int64.  p must be below PRIME_BOUND.
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
    K = np.zeros((len(free), ncols), dtype=np.int64)
    K[np.arange(len(free)), free] = 1
    K[:, piv] = np.remainder(-R[:, free].T, p)
    lead = K[np.arange(len(free)), (K != 0).argmax(axis=1)]
    inv = np.array([pow(int(a), p - 2, p) for a in lead], dtype=np.int64)
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
    """Integer basis of the saturated kernel lattice of A, as rows.

    A is d x n of full rank d (else RankDeficient); the result B is
    (n-d) x n with A * B^T = 0.
    """
    d = len(A)
    n = len(A[0]) if d else 0
    if rational_rank(A) != d:
        raise RankDeficient(f"matrix has rank below {d}")
    B = integer_kernel([list(map(int, row)) for row in A], n)
    return [tuple(row) for row in B]
