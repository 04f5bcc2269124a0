"""Recovering the implicit equation once its Newton polytope is known.

The equation is determined up to scale by one linear algebra step: evaluate
all candidate monomials at enough points of the variety and take the kernel
of the resulting matrix.  Points come from pushing random rational
parameters through the parametrization, or through the Horn map for
discriminants.  Kernels are computed exactly over Q or a prime field, with
an optional multi-prime mode that lifts prime-field solutions back to Q by
Chinese remaindering.

Every interpolation, here and for Chow forms, runs one policy,
``solve_verified``: solve on |unknowns| - 1 samples, top the samples up
while the kernel is too big, and accept the kernel vector only once it
vanishes on fresh samples.
"""

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
# crt budgets: skipped primes, and primes used as a multiple of those asked
MAX_SKIPPED_PRIMES = 5
MAX_PRIME_FACTOR = 6


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
    """Field spec: "q", "gf:<prime>", "crt:<count>", or a bare prime.

    A prime must lie below ec.PRIME_BOUND, where int64 elimination mod p
    is exact.
    """
    if spec is None or spec == "q":
        return ("q", None)
    if isinstance(spec, str) and spec.startswith("crt:"):
        k = int(spec[4:])
        if k < 1:
            raise InputFormatError("crt wants a positive prime count")
        return ("crt", k)
    if isinstance(spec, str) and spec.startswith("gf:"):
        p = int(spec[3:])
    elif isinstance(spec, int):
        p = spec
    else:
        raise InputFormatError(f"unknown field spec {spec!r}")
    if not _is_prime(p):
        raise InputFormatError(f"{p} is not prime")
    if p >= ec.PRIME_BOUND:
        raise InputFormatError(
            f"prime {p} is not below 2^31, the bound for exact int64 "
            f"arithmetic mod p")
    return ("gf", p)


def _power_table(x, lo, hi, p):
    """[x^lo, ..., x^hi] mod p for lo <= 0 <= hi.

    x^-k is (x^(p-2))^k.  For p > 2 a zero x thus gives 1 at exponent 0
    and 0 at every other exponent, negative ones included.
    """
    table = [1]
    if lo < 0:
        inv = pow(x, p - 2, p)
        for _ in range(-lo):
            table.append(table[-1] * inv % p)
        table.reverse()
    for _ in range(hi):
        table.append(table[-1] * x % p)
    return table


class MonomialBasis:
    """Distinct integer exponent vectors, lexicographically sorted."""

    def __init__(self, exponents, ambient_dim=None):
        exps = sorted(tuple(int(x) for x in e) for e in exponents)
        if not exps:
            raise ValueError("empty monomial basis")
        if ambient_dim is None:
            ambient_dim = len(exps[0])
        for e in exps:
            if len(e) != ambient_dim:
                raise ValueError(f"exponent {e} is not length {ambient_dim}")
        for a, b in zip(exps, exps[1:]):
            if a == b:
                raise ValueError(f"duplicate exponent {a}")
        self.exponents = tuple(exps)
        self.ambient_dim = ambient_dim
        # exponent range of each coordinate, widened to contain 0
        self.lo = tuple(min(0, *col) for col in zip(*exps))
        self.hi = tuple(max(0, *col) for col in zip(*exps))
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

    def row_mod(self, point, p):
        """Values of every basis monomial mod p at a point of residues.

        Each coordinate's powers over its exponent range are tabulated
        by ``_power_table``; one gather picks every monomial's factors.
        """
        import numpy as np

        if self._index is None:
            # exponents shifted by their coordinate's minimum, plus the
            # offset of that coordinate's table in the concatenation
            spans = [hi - lo + 1 for lo, hi in zip(self.lo, self.hi)]
            start = np.cumsum([0] + spans[:-1], dtype=np.int64)
            self._index = (np.array(self.exponents, dtype=np.int64)
                           - np.array(self.lo, dtype=np.int64)
                           + start).T.copy()
        tables = []
        for x, lo, hi in zip(point, self.lo, self.hi):
            tables += _power_table(x % p, lo, hi, p)
        factors = np.array(tables, dtype=np.int64)[self._index]
        vals = np.ones(len(self.exponents), dtype=np.int64)
        for f in factors:
            vals = vals * f % p
        return tuple(vals.tolist())

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
        """Value at a rational point, exact over Q and mod p otherwise.

        Over Q each coordinate a/b contributes a^(e-lo) b^(hi-e) to the
        monomial x^e, with lo <= 0 <= hi the basis's exponent range there,
        so the sum stays in integers and is divided once, by the product
        of a^-lo b^hi.  A negative power of a zero coordinate, or of a
        coordinate that vanishes mod p, raises ZeroDivisionError.
        """
        if self.modulus is not None:
            p = self.modulus
            reduced = ec.PrimeField(p).reduce_vector(point)
            if any(x == 0 and lo < 0
                   for x, lo in zip(reduced, self.basis.lo)):
                raise ZeroDivisionError(
                    f"negative power of a coordinate that vanishes mod {p}")
            total = 0
            for c, v in zip(self.coefficients,
                            self.basis.row_mod(reduced, p)):
                total += c * v
            return total % p
        basis = self.basis
        tables = []
        den = 1
        for x, lo, hi in zip(point, basis.lo, basis.hi):
            a, b = int(x.numerator), int(x.denominator)
            if a == 0 and lo < 0:
                raise ZeroDivisionError(
                    "negative power of a zero coordinate")
            tables.append([a ** k * b ** (hi - lo - k)
                           for k in range(hi - lo + 1)])
            den *= a ** -lo * b ** hi
        total = 0
        for c, e in zip(self.coefficients, basis.exponents):
            if c:
                v = c
                for t, k, lo in zip(tables, e, basis.lo):
                    v *= t[k - lo]
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


def random_rational(rng, height):
    """sign * num/den with num, den uniform in [1, height]."""
    num = rng.randint(1, height)
    den = rng.randint(1, height)
    sign = 1 if rng.random() < 0.5 else -1
    return ec.rat(sign * num, den)


def sample_points(f, count, height=20, seed=0):
    """Distinct points of the image variety: f at random rational parameters.

    Parameter coordinates are sign * num/den with num, den in [1, height];
    draws where any component vanishes, and repeats of an earlier point,
    are rejected.
    """
    if count < 1:
        raise ValueError("count must be positive")
    if height < 2:
        raise ValueError("height must be at least 2")
    rng = random.Random(seed)
    out = []
    seen = set()
    for _ in range(100 * count):
        x = f.evaluate(tuple(random_rational(rng, height)
                             for _ in range(f.d)))
        if any(v == 0 for v in x) or x in seen:
            continue
        seen.add(x)
        out.append(x)
        if len(out) == count:
            return out
    raise SamplingExhausted(
        f"{count} torus samples not found in {100 * count} draws")


def horn_sample(A, B, count, height=20, seed=0):
    """Points of the A-discriminant via the Horn map.

    Draws random rational u and t and emits x_j = t^(a_j) * (uB)_j, with
    a_j the j-th column of A; draws where some (uB)_j vanishes, and
    repeats of an earlier point, are rejected.  Requires A B^T = 0.
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
    rng = random.Random(seed)
    out = []
    seen = set()
    for _ in range(100 * count):
        u = tuple(random_rational(rng, height) for _ in range(len(B)))
        t = tuple(random_rational(rng, height) for _ in range(d))
        ub = [sum(u[r] * B[r][j] for r in range(len(B))) for j in range(n)]
        if any(v == 0 for v in ub):
            continue
        x = []
        for j in range(n):
            v = ub[j]
            for i in range(d):
                if A[i][j]:
                    v = v * ec.power(t[i], A[i][j])
            x.append(v)
        x = tuple(x)
        if x in seen:
            continue
        seen.add(x)
        out.append(x)
        if len(out) == count:
            return out
    raise SamplingExhausted(
        f"{count} Horn samples not found in {100 * count} draws")


def vandermonde_kernel(basis, points, field="q"):
    """Canonical kernel generator of the monomial evaluation matrix.

    Each point contributes the row of basis monomial values; duplicate
    points are dropped first.  The kernel must be exactly one dimensional:
    KernelEmpty when no equation fits, KernelTooBig when several do.  Over
    GF(p) the points are rational and get reduced, skipping points with
    denominator collisions or zero residues.
    """
    kind, p = parse_field(field)
    if kind == "crt":
        raise InputFormatError("crt mode lives in implicit_equation")
    seen = set()
    pts = []
    for pt in points:
        pt = tuple(pt)
        if pt not in seen:
            seen.add(pt)
            pts.append(pt)
    if len(pts) < len(basis) - 1:
        raise ValueError(
            f"need at least {len(basis) - 1} distinct points, "
            f"got {len(pts)}")
    if kind == "q":
        rows = [basis.row(pt) for pt in pts]
        kernel = ec.rational_kernel(rows, len(basis))
    else:
        F = ec.PrimeField(p)
        rows = []
        for pt in pts:
            try:
                red = F.reduce_vector(pt)
            except ZeroDivisionError:
                continue
            if any(v == 0 for v in red):
                continue
            rows.append(basis.row_mod(red, p))
        kernel = ec.gfp_kernel(rows, p, len(basis))
    return kernel_vector(kernel)


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


def solve_verified(unknowns, sampler, solve, seed):
    """The sample -> solve -> top up -> verify loop of every interpolation.

    ``sampler(count, seed)`` draws count fresh samples, the same ones for
    the same seed.  ``solve(samples)`` returns the candidate built from
    the one kernel vector of the evaluation matrix, raising KernelTooBig
    or KernelEmpty as ``kernel_vector`` does.  The first solve uses
    unknowns - 1 samples; while it raises KernelTooBig, up to MAX_TOP_UPS
    rounds each add unknowns // 4 + 10 samples drawn with seed + round,
    and after that the KernelTooBig stands.  The candidate is returned
    only if it vanishes on VERIFY_SAMPLES fresh samples (``_verify``).
    """
    samples = sampler(max(unknowns - 1, 1), seed)
    rounds = 0
    while True:
        try:
            candidate = solve(samples)
            break
        except KernelTooBig:
            rounds += 1
            if rounds > MAX_TOP_UPS:
                raise
            samples = samples + sampler(unknowns // 4 + 10, seed + rounds)
    _verify(candidate, sampler, seed)
    return candidate


def implicit_equation(f, P, field="q", seed=0, height=20):
    """Defining equation of the hypersurface with Newton polytope P.

    f is a Parametrization, or an (A, B) matrix pair meaning points come
    from the Horn map.  The coefficients are solved and certified by
    ``solve_verified``; over a small prime the reduction discards a
    fraction of the rows, which its top-ups make up for.
    """
    kind, arg = parse_field(field)
    basis = MonomialBasis.from_polytope(P)
    if isinstance(f, Parametrization):
        def sampler(m, s):
            return sample_points(f, m, height, s)
    else:
        A, B = f

        def sampler(m, s):
            return horn_sample(A, B, m, height, s)

    if kind == "crt":
        solve = _crt_solver(basis, arg)
    else:
        modulus = arg if kind == "gf" else None

        def solve(points):
            coeffs = vandermonde_kernel(basis, points, modulus or "q")
            return ImplicitPolynomial(basis, coeffs, modulus)

    return solve_verified(len(basis), sampler, solve, seed)


def _crt_solver(basis, nprimes):
    """``solve`` for the crt field: one kernel vector per word-size prime,
    aligned on a common unit coordinate and lifted to Q.

    A prime whose kernel is too big before any prime has solved asks the
    loop for more samples (KernelTooBig) and is retried on the grown set,
    which every later prime keeps.  Once some prime has solved, the
    samples are known to pin the equation down, so a later prime whose
    kernel is still too big reduces badly and is skipped, at most
    MAX_SKIPPED_PRIMES times.  When reconstruction fails, nprimes more
    primes are added, up to MAX_PRIME_FACTOR * nprimes in all.
    """
    primes = _primes_descending(ec.DEFAULT_PRIME)
    residues = []
    used = []
    p = next(primes)
    target = nprimes
    skipped = 0

    def solve(points):
        nonlocal p, target, skipped
        while True:
            while len(used) < target:
                try:
                    residues.append(vandermonde_kernel(basis, points, p))
                    used.append(p)
                except KernelTooBig:
                    if not residues:
                        raise
                    skipped += 1
                    if skipped > MAX_SKIPPED_PRIMES:
                        raise ReconstructionFailed(
                            f"{skipped} primes lost rank on the samples")
                p = next(primes)
            scaled = _align_on_unit(residues, used)
            try:
                lifted = ec.crt_rational_reconstruct(scaled, used)
            except ReconstructionFailed:
                if target >= MAX_PRIME_FACTOR * nprimes:
                    raise
                target += nprimes
                continue
            return ImplicitPolynomial(
                basis, ec.canonicalize_rational_vector(list(lifted)))

    return solve


def _align_on_unit(residues, primes):
    """Kernel vectors mod distinct primes, each scaled to 1 at the first
    coordinate that is a unit mod every prime, ready for
    ``ec.crt_rational_reconstruct``."""
    unit = next((j for j in range(len(residues[0]))
                 if all(v[j] for v in residues)), None)
    if unit is None:
        raise ReconstructionFailed(
            "no basis coordinate is a unit for every prime")
    scaled = []
    for v, q in zip(residues, primes):
        inv = pow(v[unit], q - 2, q)
        scaled.append(tuple(x * inv % q for x in v))
    return scaled


def lift_kernel_vector(rows, p, residue):
    """The canonical integer vector spanning the kernel over Q of integer
    rows, given ``residue``, their one kernel vector mod the prime p.

    A one-dimensional kernel mod p bounds the kernel over Q to dimension
    at most one.  Primes below p are added one at a time; after each,
    the residues are aligned on a common unit coordinate, lifted by
    ``ec.crt_rational_reconstruct`` and canonically scaled, and the lift
    is returned once it annihilates every row exactly.  A prime with an
    empty kernel proves the kernel over Q empty (KernelEmpty); one with a
    larger kernel has lost rank and is skipped, at most
    MAX_SKIPPED_PRIMES times.  By Cramer's rule and Hadamard's bound the
    aligned kernel vector's entries are quotients of integers of size at
    most H, the product of the row norms, so reconstruction needs primes
    of product at most 2 H^2; past that, ReconstructionFailed.
    """
    bound = 2
    for row in rows:
        bound *= max(1, sum(x * x for x in row))
    primes = _primes_descending(p - 1)
    residues = [residue]
    used = [p]
    modulus = p
    skipped = 0
    while True:
        scaled = _align_on_unit(residues, used)
        try:
            lifted = ec.canonicalize_rational_vector(
                ec.crt_rational_reconstruct(scaled, used))
            if all(ec.dot(row, lifted) == 0 for row in rows):
                return lifted
        except ReconstructionFailed:
            pass
        if modulus > bound:
            raise ReconstructionFailed(
                f"no kernel vector over Q within the Hadamard bound, "
                f"{len(used)} primes")
        while True:
            q = next(primes)
            try:
                residues.append(kernel_vector(ec.gfp_kernel(
                    [[x % q for x in row] for row in rows], q,
                    len(residue))))
                break
            except KernelTooBig:
                skipped += 1
                if skipped > MAX_SKIPPED_PRIMES:
                    raise ReconstructionFailed(
                        f"{skipped} primes lost rank on the rows")
        used.append(q)
        modulus *= q


def _verify(poly, sampler, seed):
    """VerificationFailed unless poly vanishes on VERIFY_SAMPLES fresh
    samples where it can be evaluated.

    Over a small prime a sample's denominator can vanish; only then are
    four times as many samples drawn, from the same seed.
    """
    checked = 0
    drawn = 0
    for count in (VERIFY_SAMPLES, 4 * VERIFY_SAMPLES):
        for pt in sampler(count, seed + 1000)[drawn:]:
            try:
                value = poly.evaluate(pt)
            except ZeroDivisionError:
                continue
            if value != 0:
                raise VerificationFailed(
                    f"candidate equation is nonzero at fresh sample {pt}")
            checked += 1
            if checked == VERIFY_SAMPLES:
                return
        drawn = count
    raise VerificationFailed(
        f"fewer than {VERIFY_SAMPLES} fresh samples could be evaluated")
