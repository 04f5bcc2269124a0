"""Recovering the implicit equation once its Newton polytope is known.

The equation is determined up to scale by one linear algebra step: evaluate
all candidate monomials at enough points of the variety and take the kernel
of the resulting matrix.  Points come from pushing random rational
parameters through the parametrization, or through the Horn map for
discriminants.  Every kernel is computed modulo word-size primes.  Over a
prime field that is the answer.  Over Q the kernel is decided modulo
ec.DEFAULT_PRIME = 2^31 - 1 and its one vector is lifted to Q by
``lift_kernel_vector``, the package's only multi-prime loop, which adds
primes until the rational reconstruction annihilates the rows modulo the
next prime.

Every interpolation, the implicit equation here and the Chow form, an
implicit equation in Pluecker coordinates, is one call of
``interpolate_polynomial`` on a ``MonomialBasis``.  Its loop,
``solve_verified``, works on the rows of the samples mod one prime:
solve on |unknowns| - 1 samples, add the rows of new samples while the
kernel is too big, and accept the kernel vector only once it vanishes
mod p on fresh samples.  A lift to Q is certified on the same fresh
samples by ``ImplicitPolynomial.evaluate``.  The rows mod a prime come
only from ``MonomialBasis.row_mod``, in one batch: past
ec.GFP_PYTHON_COLUMNS monomials they are one int64 array, built by
vector operations mod p and handed to ``ec.gfp_kernel`` as it is.
Horn samples are drawn in integers and made rational once per
coordinate.
"""

import functools
import math
import random

from . import exactcore as ec
from .errors import (
    InputFormatError,
    KernelEmpty,
    KernelTooBig,
    ReconstructionFailed,
    SamplingExhausted,
    VerificationFailed,
)
from .implicitize import Parametrization

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

# the sample -> solve -> top up -> verify policy of solve_verified
MAX_TOP_UPS = 5
VERIFY_SAMPLES = 10
# primes of lift_kernel_vector that lose rank, skipped before giving up
MAX_SKIPPED_PRIMES = 5


def _is_prime(m):
    if m < 2:
        return False
    for q in _MR_BASES:
        if m % q == 0:
            return m == q
    d = m - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, m)
        if x in (1, m - 1):
            continue
        for _ in range(r - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
    return True


def _primes_descending(start):
    m = start if start % 2 else start - 1
    while m > 2:
        if _is_prime(m):
            yield m
        m -= 2


def parse_field(spec):
    """The modulus of a field spec: "q", "gf:<prime>", "crt:<count>" or a
    bare prime.

    "q" gives exact rational coefficients (see ``implicit_equation``) and
    None; "crt:k", for a positive integer k, is an alias of "q", because
    every correct lift is the same canonical vector.  A prime must lie
    below ec.PRIME_BOUND, where int64 elimination mod p is exact.  A
    malformed spec raises InputFormatError.
    """
    if spec is None or spec == "q":
        return None
    if isinstance(spec, int):
        kind, arg = "gf", spec
    else:
        kind, colon, text = str(spec).partition(":")
        if kind not in ("crt", "gf") or not colon:
            raise InputFormatError(f"unknown field spec {spec!r}")
        try:
            arg = int(text)
        except ValueError:
            raise InputFormatError(
                f"field spec {spec!r} wants an integer after "
                f"{kind}:") from None
    if kind == "crt":
        if arg < 1:
            raise InputFormatError("crt wants a positive prime count")
        return None
    if not _is_prime(arg):
        raise InputFormatError(f"{arg} is not prime")
    if arg >= ec.PRIME_BOUND:
        raise InputFormatError(
            f"prime {arg} is not below 2^31, the bound for exact int64 "
            f"arithmetic mod p")
    return arg


def _power_table(x, hi, p):
    """[x^0, ..., x^hi] mod p; a zero x gives 1 at exponent 0."""
    table = [1]
    for _ in range(hi):
        table.append(table[-1] * x % p)
    return table


def _power_block(x, hi, p):
    """The int64 block of x^0, ..., x^hi mod p, one row per entry of the
    residue vector x, each as ``_power_table`` gives it."""
    import numpy as np

    block = np.empty((len(x), hi + 1), dtype=np.int64)
    block[:, 0] = 1
    for k in range(1, hi + 1):
        block[:, k] = block[:, k - 1] * x % p
    return block


class MonomialBasis:
    """Distinct exponent vectors of nonnegative integers, lexicographically
    sorted: every basis is polynomial, so a point with a zero coordinate
    has a value, mod p as over Q.  ValueError for a negative exponent."""

    def __init__(self, exponents, ambient_dim=None):
        exps = sorted(tuple(int(x) for x in e) for e in exponents)
        if not exps:
            raise ValueError("empty monomial basis")
        if ambient_dim is None:
            ambient_dim = len(exps[0])
        for e in exps:
            if len(e) != ambient_dim:
                raise ValueError(f"exponent {e} is not length {ambient_dim}")
            if min(e, default=0) < 0:
                raise ValueError(f"exponent {e} has a negative entry")
        for a, b in zip(exps, exps[1:]):
            if a == b:
                raise ValueError(f"duplicate exponent {a}")
        self.exponents = tuple(exps)
        self.ambient_dim = ambient_dim
        # the highest exponent of each coordinate
        self.hi = tuple(max(col) for col in zip(*exps))
        # each monomial's factors as positions in a point's power tables
        # laid end to end, for row_mod; a zero exponent's factor is 1
        starts = [0]
        for hi in self.hi:
            starts.append(starts[-1] + hi + 1)
        self._factors = [[s + k for s, k in zip(starts, e) if k]
                         for e in exps]
        self._index = None

    @classmethod
    def from_polytope(cls, P):
        return cls(P.lattice_points(), P.ambient_dim)

    def __len__(self):
        return len(self.exponents)

    def __iter__(self):
        return iter(self.exponents)

    def row(self, point):
        """Values of every basis monomial at a rational point."""
        out = []
        for e in self.exponents:
            v = 1
            for x, k in zip(point, e):
                if k:
                    v *= ec.power(x, k)
            out.append(v)
        return tuple(out)

    def row_mod(self, points, p):
        """Values of every basis monomial mod p at a batch of points of
        residues, one row per point.

        Up to ec.GFP_PYTHON_COLUMNS monomials each row is a tuple of
        Python ints, products of factors gathered from the point's
        ``_power_table``s, so that small jobs, as in ``ec.gfp_kernel``,
        never import numpy.  Wider bases give one int64 array of rows,
        whose coordinates must fit int64: each coordinate's powers form a
        (points, hi + 1) block built by vector multiplications mod p, and
        one gather per coordinate picks every monomial's factor,
        multiplied into the rows in place.
        """
        if len(self.exponents) <= ec.GFP_PYTHON_COLUMNS:
            rows = []
            for point in points:
                powers = []
                for x, hi in zip(point, self.hi):
                    powers += _power_table(x % p, hi, p)
                row = []
                for f in self._factors:
                    v = 1
                    for i in f:
                        v = v * powers[i] % p
                    row.append(v)
                rows.append(tuple(row))
            return rows
        import numpy as np

        if self._index is None:
            # the exponents, one array of column indices into each
            # coordinate's power block
            self._index = np.array(self.exponents, dtype=np.int64).T.copy()
        X = np.array(points, dtype=np.int64).reshape(
            len(points), self.ambient_dim) % p
        rows = np.ones((len(points), len(self.exponents)), dtype=np.int64)
        for x, hi, index in zip(X.T, self.hi, self._index):
            # np.take keeps the rows C-ordered, as gfp_echelon wants them
            rows *= np.take(_power_block(x, hi, p), index, axis=1)
            rows %= p
        return rows

    def __repr__(self):
        return (f"MonomialBasis({len(self.exponents)} monomials "
                f"in dim {self.ambient_dim})")


class ImplicitPolynomial:
    """Polynomial supported on a monomial basis, canonically scaled.

    Over Q the coefficients are coprime integers with the first nonzero one
    positive; over GF(p) the first nonzero coefficient is 1 and ``modulus``
    is set.  Zero coefficients are kept so the vector aligns with the basis.
    """

    def __init__(self, basis, coefficients, modulus=None):
        coefficients = tuple(coefficients)
        if len(coefficients) != len(basis):
            raise ValueError("one coefficient per basis monomial")
        if not any(coefficients):
            raise ValueError("zero polynomial")
        self.basis = basis
        self.coefficients = coefficients
        self.modulus = modulus

    def coefficient(self, exponent):
        exponent = tuple(exponent)
        for e, c in zip(self.basis, self.coefficients):
            if e == exponent:
                return c
        raise KeyError(f"{exponent} is outside the basis")

    def evaluate(self, point):
        """Exact value at a rational point, for a polynomial over Q; a
        polynomial mod p is checked on rows mod p (``_rows_mod``) instead.

        Each coordinate a/b contributes a^e b^(hi-e) to the monomial x^e,
        with hi the basis's highest exponent there, so the sum stays in
        integers and is divided once, by the product of the b^hi.
        """
        if self.modulus is not None:
            raise ValueError(f"a polynomial mod {self.modulus} has no "
                             f"value over Q")
        basis = self.basis
        tables = []
        den = 1
        for x, hi in zip(point, basis.hi):
            a, b = int(x.numerator), int(x.denominator)
            tables.append([a ** k * b ** (hi - k) for k in range(hi + 1)])
            den *= b ** hi
        total = 0
        for c, e in zip(self.coefficients, basis.exponents):
            if c:
                v = c
                for t, k in zip(tables, e):
                    v *= t[k]
                total += v
        return ec.rat(total, den)

    def terms(self):
        return [(c, e) for c, e in zip(self.coefficients, self.basis) if c]

    def to_json(self):
        """Full basis listing; zero coefficients are kept, spelled "0/1"."""
        out = {
            "vars": [f"x{i + 1}" for i in range(self.basis.ambient_dim)],
            "terms": [{"coeff": ec.rat_to_json(c) if c else "0/1",
                       "exp": list(e)}
                      for e, c in zip(self.basis, self.coefficients)],
        }
        if self.modulus is not None:
            out["modulus"] = self.modulus
        return out

    def __repr__(self):
        kind = f"mod {self.modulus}" if self.modulus else "over Q"
        return f"ImplicitPolynomial({len(self.terms())} terms {kind})"


def _random_pair(rng, height):
    """(sign * num, den) with num, den uniform in [1, height]: randint,
    randint, then random for the sign."""
    num = rng.randint(1, height)
    den = rng.randint(1, height)
    return (num if rng.random() < 0.5 else -num), den


def random_rational(rng, height):
    """sign * num/den with num, den uniform in [1, height]."""
    return ec.rat(*_random_pair(rng, height))


def distinct_samples(draw, count, seed):
    """The first count distinct samples that ``draw(rng)`` returns for
    rng = random.Random(seed), a draw of None being rejected.
    SamplingExhausted when they take more than 100 * count draws."""
    rng = random.Random(seed)
    out = []
    seen = set()
    draws = 0
    while len(out) < count:
        if draws == 100 * count:
            raise SamplingExhausted(
                f"only {len(out)} of {count} distinct samples in {draws} "
                f"draws")
        draws += 1
        x = draw(rng)
        if x is not None and x not in seen:
            seen.add(x)
            out.append(x)
    return out


def sample_points(f, count, height=20, seed=0):
    """Distinct points of the image variety: f at random rational parameters.

    Parameter coordinates are sign * num/den with num, den in [1, height];
    draws where any component vanishes are rejected
    (``distinct_samples``).
    """
    if count < 1:
        raise ValueError("count must be positive")
    if height < 2:
        raise ValueError("height must be at least 2")

    def draw(rng):
        x = f.evaluate(tuple(random_rational(rng, height)
                             for _ in range(f.d)))
        return None if any(v == 0 for v in x) else x

    return distinct_samples(draw, count, seed)


def horn_sample(A, B, count, height=20, seed=0):
    """Points of the A-discriminant via the Horn map.

    Draws random rational u and t and emits x_j = t^(a_j) * (uB)_j, with
    a_j the j-th column of A; draws where some (uB)_j vanishes are
    rejected (``distinct_samples``).  Requires A B^T = 0.  u and t are
    drawn as ``random_rational`` draws them, u first, but kept as
    integer pairs (num, den): (uB)_j is N_j / D over the common
    denominator D of u, and each x_j is formed once, by ``ec.rat`` of
    its numerator and denominator.
    """
    if count < 1:
        raise ValueError("count must be positive")
    if height < 2:
        raise ValueError("height must be at least 2")
    A = [list(map(int, row)) for row in A]
    B = [list(map(int, row)) for row in B]
    d = len(A)
    n = len(A[0]) if d else 0
    for arow in A:
        for brow in B:
            if ec.dot(arow, brow) != 0:
                raise ValueError("A B^T must vanish for Horn sampling")

    # the nonzero exponents (i, a_ij) of each column of A
    columns = [[(i, A[i][j]) for i in range(d) if A[i][j]]
               for j in range(n)]

    def draw(rng):
        u = [_random_pair(rng, height) for _ in B]
        t = [_random_pair(rng, height) for _ in range(d)]
        den = math.prod(b for _, b in u)
        ub = [sum(a * (den // b) * row[j] for (a, b), row in zip(u, B))
              for j in range(n)]
        if 0 in ub:
            return None
        x = []
        for num, col in zip(ub, columns):
            x_den = den
            for i, k in col:
                a, b = t[i]
                if k > 0:
                    num *= a ** k
                    x_den *= b ** k
                else:
                    num *= b ** -k
                    x_den *= a ** -k
            x.append(ec.rat(num, x_den))
        return tuple(x)

    return distinct_samples(draw, count, seed)


def vandermonde_kernel(rows, p, columns):
    """The one kernel vector mod the prime p of rows of monomial values
    mod p over the given number of columns: KernelEmpty when no equation
    fits, KernelTooBig when several do (``kernel_vector``)."""
    return kernel_vector(ec.gfp_kernel(rows, p, columns))


def _rows_mod(basis, points, p):
    """Rows of basis monomial values mod p at the rational points.

    A point gives no row when its reduction hits a vanishing denominator,
    where a polynomial on the basis has no value mod p.  Each row is a
    nonzero multiple of the point's row over Q cleared to integers, so the
    kernel mod p is that of the integer rows.
    """
    return basis.row_mod(ec.reduce_vectors(points, p), p)


def _hadamard_bits(basis, points):
    """Bits b with 2 H^2 < 2^b, H the product of the norms of the rows
    at the points cleared to integers, as ``lift_kernel_vector`` wants.

    Cleared as in ``ImplicitPolynomial.evaluate``, the row of the point
    a/b has entries prod a_i^e_i b_i^(hi_i - e_i), each at most
    prod max(|a_i|, b_i)^hi_i.  The bound is summed in bits, from bit
    lengths, so no big integer is formed.
    """
    columns = len(basis).bit_length()
    bits = 1
    for pt in points:
        entry = sum(hi * max(abs(x.numerator), x.denominator).bit_length()
                    for hi, x in zip(basis.hi, pt))
        bits += 2 * entry + columns
    return bits


def kernel_vector(kernel):
    """The one vector of a kernel basis: KernelEmpty when the basis is
    empty (no equation fits), KernelTooBig when it has several vectors
    (the samples do not yet pin the equation down)."""
    if not kernel:
        raise KernelEmpty(
            "no nonzero polynomial on this basis fits the samples")
    if len(kernel) > 1:
        raise KernelTooBig(
            f"kernel has dimension {len(kernel)}, need 1")
    return kernel[0]


def solve_verified(unknowns, sampler, rows_mod, seed,
                   p=ec.DEFAULT_PRIME):
    """The sample -> solve -> top up -> verify loop of every interpolation.

    ``sampler(count, seed)`` draws count fresh samples, the same ones for
    the same seed.  ``rows_mod(samples, p)`` gives their rows mod the
    prime p, each up to a unit, leaving out samples without one, as a
    list or as one int64 array (``MonomialBasis.row_mod``).  The first
    solve uses unknowns - 1 samples; while the kernel mod p is too
    big, up to MAX_TOP_UPS rounds each add unknowns // 4 + 10 samples
    drawn with seed + round, whose rows join the earlier ones, and after
    that the KernelTooBig stands.  The one kernel vector
    (``vandermonde_kernel``) must annihilate the rows of VERIFY_SAMPLES
    fresh samples (``_verify``).  Returns (residue, samples, fresh): the
    vector mod p, the samples that decided it and the fresh samples.
    """
    samples = sampler(max(unknowns - 1, 1), seed)
    rows = rows_mod(samples, p)
    rounds = 0
    while True:
        try:
            residue = vandermonde_kernel(rows, p, unknowns)
            break
        except KernelTooBig:
            rounds += 1
            if rounds > MAX_TOP_UPS:
                raise
            more = sampler(unknowns // 4 + 10, seed + rounds)
            samples = samples + more
            rows = _append_rows(rows, rows_mod(more, p))

    def value(pt):
        row = rows_mod([pt], p)
        if not len(row):
            raise ZeroDivisionError(f"sample has no row mod {p}")
        # in Python ints: a sum of int64 products of residues overflows
        return ec.dot(map(int, row[0]), residue) % p

    return residue, samples, _verify(value, _fresh_samples(sampler, seed))


def _append_rows(rows, more):
    """rows followed by more, both lists of rows or both int64 arrays."""
    if isinstance(rows, list):
        return rows + more
    import numpy as np

    return np.concatenate((rows, more))


def _annihilated(rows, v, q):
    """Whether v is orthogonal mod q to every row, rows of residues mod q
    in a list or in one int64 array.  The array check is exact in int64:
    with entries below 2^31 each product is below 2^62, and fewer than
    2^32 products, each reduced below 2^31, sum below 2^63."""
    if isinstance(rows, list):
        return all(ec.dot(row, v) % q == 0 for row in rows)
    import numpy as np

    return not ((rows * np.array(v, dtype=np.int64) % q).sum(axis=1)
                % q).any()


def _fresh_samples(sampler, seed):
    """The verification samples: VERIFY_SAMPLES drawn with seed + 1000,
    then, only if they are used up, the rest of 4 * VERIFY_SAMPLES from
    the same seed."""
    yield from sampler(VERIFY_SAMPLES, seed + 1000)
    yield from sampler(4 * VERIFY_SAMPLES, seed + 1000)[VERIFY_SAMPLES:]


def _verify(value, samples):
    """The first VERIFY_SAMPLES samples at which ``value`` is defined;
    VerificationFailed unless it is 0 at each of them, or if there are
    fewer.  ``value`` raises ZeroDivisionError where it is undefined."""
    checked = []
    for pt in samples:
        try:
            nonzero = value(pt)
        except ZeroDivisionError:
            continue
        if nonzero:
            raise VerificationFailed(
                f"candidate is nonzero at fresh sample {pt}")
        checked.append(pt)
        if len(checked) == VERIFY_SAMPLES:
            return checked
    raise VerificationFailed(
        f"fewer than {VERIFY_SAMPLES} fresh samples could be evaluated")


def implicit_equation(f, P, field="q", seed=0, height=20):
    """Defining equation of the hypersurface with Newton polytope P.

    f is a Parametrization, or an (A, B) matrix pair meaning points come
    from the Horn map.  The equation is the one ``interpolate_polynomial``
    on the lattice points of P, mod the field's prime or over Q ("q" or
    its alias "crt:k").  Over a small prime the reduction discards a
    fraction of the rows, which the top-ups make up for.
    """
    modulus = parse_field(field)
    if isinstance(f, Parametrization):
        def sampler(m, s):
            return sample_points(f, m, height, s)
    else:
        A, B = f

        def sampler(m, s):
            return horn_sample(A, B, m, height, s)

    return interpolate_polynomial(MonomialBasis.from_polytope(P), sampler,
                                  seed, modulus)


def interpolate_polynomial(basis, sampler, seed, modulus=None, check=None):
    """The one polynomial on the basis that vanishes at the samples of
    ``sampler(count, seed)``, rational points or integer vectors.

    The kernel is decided and checked mod one prime by
    ``solve_verified``: the modulus, or ec.DEFAULT_PRIME when it is
    None.  Over Q the one kernel vector is lifted with
    ``lift_kernel_vector`` within the Hadamard bound of the samples'
    rows.  ``check(poly, samples)``, if given, may then reject the lift
    on the samples that decided it, before the lift must vanish over Q
    on the fresh samples.
    """
    rows_mod = functools.partial(_rows_mod, basis)
    p = modulus or ec.DEFAULT_PRIME
    residue, samples, fresh = solve_verified(len(basis), sampler, rows_mod,
                                             seed, p)
    if modulus:
        return ImplicitPolynomial(basis, residue, modulus)
    poly = ImplicitPolynomial(basis, lift_kernel_vector(
        lambda q: rows_mod(samples, q), p, residue,
        _hadamard_bits(basis, samples)))
    if check is not None:
        check(poly, samples)
    _verify(poly.evaluate, fresh)
    return poly


def lift_kernel_vector(rows_mod, p, residue, bound_bits):
    """The canonical integer vector spanning the kernel over Q of integer
    rows, given ``residue``, their one kernel vector mod the prime p.

    ``rows_mod(q)`` gives the rows mod the prime q, each up to a unit;
    rows that do not reduce may be left out.  Primes q below p are added
    one at a time.  With each, the residues so far, scaled to 1 at a
    coordinate that is a unit mod every prime, are lifted by
    ``ec.crt_rational_reconstruct``, and the canonical lift is returned
    if it annihilates the rows mod q; else those rows give q's kernel
    (exact early termination, Monagan, ISSAC 2004).  The caller
    certifies the lift over Q.  A prime with an empty kernel proves the
    kernel over Q empty (KernelEmpty); one with a larger kernel has lost
    rank, or has fewer than len(residue) - 1 rows and checks nothing,
    and is skipped, at most MAX_SKIPPED_PRIMES times.  By Cramer's rule
    and Hadamard's bound the lift needs primes of product at most
    2 H^2 < 2^bound_bits, H the product of the row norms; a lift that
    fails past that bound raises ReconstructionFailed.
    """
    primes = _primes_descending(p - 1)
    residues = [residue]
    used = [p]
    modulus = p
    skipped = 0
    while True:
        q = next(primes)
        rows = rows_mod(q)
        # fewer rows than a one-dimensional kernel needs cannot check a
        # lift; their kernel is too big, so the prime is skipped below
        if len(rows) >= len(residue) - 1:
            unit = next((j for j in range(len(residue))
                         if all(v[j] for v in residues)), None)
            if unit is None:
                raise ReconstructionFailed(
                    "no basis coordinate is a unit for every prime")
            scaled = [[x * pow(v[unit], -1, r) % r for x in v]
                      for v, r in zip(residues, used)]
            try:
                lifted = ec.canonicalize_rational_vector(
                    ec.crt_rational_reconstruct(scaled, used))
                reduced = [x % q for x in lifted]
                if _annihilated(rows, reduced, q):
                    return lifted
            except ReconstructionFailed:
                pass
            if modulus >> bound_bits:
                raise ReconstructionFailed(
                    f"no kernel vector over Q within the Hadamard bound, "
                    f"{len(used)} primes")
        try:
            residues.append(kernel_vector(ec.gfp_kernel(rows, q,
                                                        len(residue))))
            used.append(q)
            modulus *= q
        except KernelTooBig:
            skipped += 1
            if skipped > MAX_SKIPPED_PRIMES:
                raise ReconstructionFailed(
                    f"{skipped} primes lost rank on the rows")
        # free this prime's rows before the next prime's are built
        del rows
