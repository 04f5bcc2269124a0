"""Chow forms of parametrized projective varieties.

A d-dimensional variety in P^n with d < n - 1 has no single implicit
equation.  Its role is taken by the Chow form: the defining polynomial, in
primal Pluecker coordinates p_{i0...id}, of the hypersurface of
(n-d-1)-planes that meet the variety.  The exponent data of the Chow form
is captured by the Chow polytope, the convex hull of the weights of its
monomials, and that polytope is reachable from the tropicalization alone:
the stable sum of trop(X) with a negated standard linear space is the
outer normal fan of the Chow polytope, with edge lattice lengths as
weights.  The pipeline here runs that route: build the fan, reconstruct a
translate of the polytope with the vertex oracle, search for the missing
translation, and interpolate the Chow form from random planes through
random points of the variety.  The interpolation runs the one
sample -> solve -> top up -> verify policy of
``interpolate.solve_verified``, with the same constants as the implicit
equation.  Samples are integer Pluecker vectors, so each solve first
decides mod one word-size prime: the kernel vector mod p must vanish mod
p on the fresh verification samples, which rejects a wrong shift at the
cost of one modular kernel.  Only an accepted form is lifted to Q, by
Chinese remaindering over further primes until the lift annihilates
every sampled row exactly, and then verified over Q.

Two conventions are fixed at this module boundary.  First, chow_fan
returns the outer normal fan; the vertex oracle reads inner normal fans
(min convention), so chow_polytope negates the fan once before
reconstructing.  Second, Chow forms live on the standard tableau basis:
factor tuples sorted lexicographically must increase componentwise from
row to row.  Terms are ordered by weight, lexicographically largest
weight first, and canonical scaling clears the coefficients to coprime
integers with the leading nonzero one positive.
"""

import itertools
import math
import random

from . import exactcore as ec
from .errors import (
    DimensionMismatch,
    InputFormatError,
    KernelEmpty,
    KernelTooBig,
    OracleInconsistent,
    SamplingExhausted,
    ShiftSearchFailed,
    VerificationFailed,
)
from .implicitize import reconstruct_polytope
from .interpolate import (
    VERIFY_SAMPLES,
    ImplicitPolynomial,
    MonomialBasis,
    kernel_vector,
    lift_kernel_vector,
    random_rational,
    solve_verified,
)
from .tropical import stable_sum, standard_linear_cycle

DEFAULT_MAX_DEGREE = 12


class PluckerMonomial:
    """Product of Pluecker variables p_T, each T a strictly increasing
    (d+1)-tuple of indices from {0..n}; factors kept lexicographically
    sorted, with multiplicity."""

    def __init__(self, factors, d, n):
        self.d = d
        self.n = n
        factors = tuple(sorted(tuple(int(i) for i in T) for T in factors))
        if not factors:
            raise ValueError("a Pluecker monomial needs at least one factor")
        for T in factors:
            if len(T) != d + 1:
                raise ValueError(f"factor {T} is not a (d+1)-tuple for d={d}")
            if any(a >= b for a, b in zip(T, T[1:])):
                raise ValueError(f"factor {T} is not strictly increasing")
            if T[0] < 0 or T[-1] > n:
                raise ValueError(f"factor {T} leaves the index range 0..{n}")
        self.factors = factors

    @property
    def degree(self):
        return len(self.factors)

    def weight(self):
        u = [0] * (self.n + 1)
        for T in self.factors:
            for i in T:
                u[i] += 1
        return tuple(u)

    def is_standard(self):
        """Componentwise non-decreasing between consecutive sorted factors."""
        return all(all(a <= b for a, b in zip(S, T))
                   for S, T in zip(self.factors, self.factors[1:]))

    def evaluate(self, values):
        """Value at a mapping from index tuples to rationals."""
        v = 1
        for T in self.factors:
            v = v * values[T]
        return ec.rat(v)

    def __eq__(self, other):
        return (isinstance(other, PluckerMonomial)
                and (self.d, self.n, self.factors)
                == (other.d, other.n, other.factors))

    def __hash__(self):
        return hash((self.d, self.n, self.factors))

    def __repr__(self):
        return " ".join(f"p_{''.join(map(str, T))}" for T in self.factors)


def _term_sort_key(mono):
    # weight lex-descending, then factors; matches the ansatz column order
    return tuple(-w for w in mono.weight()), mono.factors


class PluckerPoly:
    """Linear combination of standard Pluecker monomials of one degree.

    Terms are stored with nonzero coefficients only, ordered by weight
    (lexicographically largest first), then by factor tuples.
    """

    def __init__(self, d, n, terms):
        self.d = d
        self.n = n
        cleaned = []
        seen = set()
        for mono, coeff in terms:
            if (mono.d, mono.n) != (d, n):
                raise ValueError("monomial indexed for a different Grassmannian")
            if not mono.is_standard():
                raise ValueError(f"non-standard monomial {mono!r}")
            if mono.factors in seen:
                raise ValueError(f"duplicate monomial {mono!r}")
            seen.add(mono.factors)
            coeff = ec.rat(coeff) if not isinstance(coeff, int) else coeff
            if coeff:
                cleaned.append((mono, coeff))
        if not cleaned:
            raise ValueError("zero Pluecker polynomial")
        degs = {m.degree for m, _ in cleaned}
        if len(degs) != 1:
            raise ValueError(f"mixed degrees {sorted(degs)}")
        cleaned.sort(key=lambda t: _term_sort_key(t[0]))
        self.terms = tuple(cleaned)

    @property
    def degree(self):
        return self.terms[0][0].degree

    def coefficient(self, factors):
        key = tuple(sorted(tuple(T) for T in factors))
        for mono, coeff in self.terms:
            if mono.factors == key:
                return coeff
        return 0

    def evaluate(self, values):
        total = 0
        for mono, coeff in self.terms:
            total += coeff * mono.evaluate(values)
        return ec.rat(total)

    def weights(self):
        """Distinct term weights, in term order."""
        out = []
        for mono, _ in self.terms:
            u = mono.weight()
            if u not in out:
                out.append(u)
        return out

    def to_json(self):
        return {
            "d": self.d,
            "n": self.n,
            "terms": [{"factors": [list(T) for T in mono.factors],
                       "coeff": ec.rat_to_json(coeff)}
                      for mono, coeff in self.terms],
        }

    @staticmethod
    def from_json(obj):
        try:
            d = int(obj["d"])
            n = int(obj["n"])
            terms = [(PluckerMonomial(t["factors"], d, n),
                      ec.rat_from_json(t["coeff"]))
                     for t in obj["terms"]]
            return PluckerPoly(d, n, terms)
        except (KeyError, TypeError, ValueError) as exc:
            raise InputFormatError(f"bad Pluecker polynomial: {exc}") from exc

    def __eq__(self, other):
        return (isinstance(other, PluckerPoly)
                and (self.d, self.n) == (other.d, other.n)
                and len(self.terms) == len(other.terms)
                and all(a[0] == b[0] and a[1] == b[1]
                        for a, b in zip(self.terms, other.terms)))

    def __repr__(self):
        return (f"PluckerPoly(d={self.d}, n={self.n}, "
                f"{len(self.terms)} terms of degree {self.degree})")


# ---------------------------------------------------------------------------
# fan and polytope

def chow_fan(C, d):
    """Outer-normal-fan cycle of the Chow polytope of a d-dimensional
    variety with tropicalization C in R^{n+1} (all-ones lineality).

    The result is the stable sum of C with the negated standard linear
    space of dimension n-d-1; it is pure of dimension n, codimension one
    modulo the all-ones line.  Negate before feeding the vertex oracle.
    """
    n = C.ambient_dim - 1
    if not 0 <= d <= n - 1:
        raise DimensionMismatch(f"need 0 <= d <= n-1, got d={d}, n={n}")
    if C.pure_dim != d + 1:
        raise DimensionMismatch(
            f"cycle of pure dim {C.pure_dim}; a d={d} variety with the "
            f"all-ones lineality needs pure dim {d + 1}")
    return stable_sum(C, standard_linear_cycle(n - d - 1, n, negated=True))


def chow_polytope(C, d, f, degree_hint=None, seed=0, height=20,
                  max_degree=DEFAULT_MAX_DEGREE, cfg=None, report_all=False):
    """Chow polytope of the variety parametrized by f, from its tropical
    cycle C.  Returns (translated, shift, polytope, form), form being the
    Chow form interpolated on the accepted polytope.

    The vertex oracle reconstructs the polytope only up to a translation
    that pins it against the coordinate hyperplanes.  The true position is
    recovered by a bounded search: candidate shifts s >= 0 are enumerated
    by increasing total |s| = (d+1)*deg - (vertex coordinate sum), then
    lexicographically, sweeping deg up to max_degree unless degree_hint
    fixes it; a candidate is accepted when Chow-form interpolation over the
    shifted polytope yields a one-dimensional kernel that survives fresh
    samples.  With report_all, every accepted shift of the winning degree
    is returned in place of the single shift, and polytope and form
    belong to the first of them.
    """
    n = C.ambient_dim - 1
    if f.d != d or f.n != n:
        raise DimensionMismatch(
            f"parametrization has {f.d} parameters and {f.n} components; "
            f"expected {d} and {n}")
    fan = chow_fan(C, d)
    translated = reconstruct_polytope(fan.negated(), cfg)
    sums = {sum(v) for v in translated.vertices}
    if len(sums) != 1:
        raise OracleInconsistent(
            f"translated vertices have unequal coordinate sums {sorted(sums)}")
    base = sums.pop()
    if degree_hint is not None:
        degrees = [degree_hint]
    else:
        degrees = range(max(1, -(-base // (d + 1))), max_degree + 1)
    accepted = []
    for deg in degrees:
        total = (d + 1) * deg - base
        if total < 0:
            continue
        for s in _compositions(total, n + 1):
            candidate = translated.translate(s)
            try:
                form = chow_form(f, candidate, d, n, seed=seed, height=height)
            except (KernelEmpty, KernelTooBig, VerificationFailed):
                continue
            if not report_all:
                return translated, s, candidate, form
            accepted.append((s, candidate, form))
        if accepted:
            break
    if not accepted:
        raise ShiftSearchFailed(
            f"no shift up to degree {degrees[-1]} admits a Chow form")
    _, candidate, form = accepted[0]
    return translated, [s for s, _, _ in accepted], candidate, form


def _compositions(total, parts):
    """Nonnegative integer tuples with the given sum, lexicographically."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


# ---------------------------------------------------------------------------
# standard monomials

def standard_monomials_of_weight(u, d, n):
    """All standard Pluecker monomials of the given weight.

    A monomial of weight u has sum(u)/(d+1) factors; standardness asks the
    lexicographically sorted factor tuples to be componentwise
    non-decreasing row to row.  Returns the empty list when no standard
    monomial has that weight.
    """
    u = tuple(int(x) for x in u)
    if len(u) != n + 1:
        raise ValueError(f"weight {u} is not length {n + 1}")
    if any(x < 0 for x in u):
        raise ValueError(f"weight {u} has a negative entry")
    if sum(u) % (d + 1):
        raise ValueError(f"weight sum {sum(u)} is not divisible by {d + 1}")
    k = sum(u) // (d + 1)
    if k == 0:
        return []
    out = []
    tuples = list(itertools.combinations(range(n + 1), d + 1))

    def descend(prev, remaining, rows, left):
        if left == 0:
            out.append(PluckerMonomial(rows, d, n))
            return
        if any(x > left for x in remaining):
            return
        for T in tuples:
            if prev is not None and any(a < b for a, b in zip(T, prev)):
                continue
            if any(remaining[i] == 0 for i in T):
                continue
            nxt = list(remaining)
            for i in T:
                nxt[i] -= 1
            descend(T, nxt, rows + [T], left - 1)

    descend(None, list(u), [], k)
    return out


# ---------------------------------------------------------------------------
# sampling the Chow hypersurface

def _primal_pluecker(span_rows, d, n):
    """Primal Pluecker coordinates of the plane spanned by the rows: the
    maximal minors, over lex-ordered column tuples, of a kernel basis
    matrix of the span."""
    kernel = ec.rational_kernel([list(r) for r in span_rows], n + 1)
    if len(kernel) != d + 1:
        raise ValueError(
            f"span of rank {n + 1 - len(kernel)} does not cut a "
            f"{d}-codimensional kernel")
    return tuple(ec.det([[row[j] for j in T] for row in kernel])
                 for T in itertools.combinations(range(n + 1), d + 1))


def _draw_pluecker(f, d, n, rng, height):
    """One random plane through a random point of the variety, as a
    canonical integer Pluecker vector; None if genericity failed."""
    x = (1,) + f.evaluate(tuple(random_rational(rng, height)
                                for _ in range(f.d)))
    rows = [x] + [[random_rational(rng, height) for _ in range(n + 1)]
                  for _ in range(n - d - 1)]
    if ec.rational_rank(rows) < n - d:
        return None
    return tuple(ec.canonicalize_rational_vector(_primal_pluecker(rows, d, n)))


def chow_sample(f, d, n, seed=0, height=20):
    """One random point of the Chow hypersurface: the Pluecker vector of a
    random (n-d-1)-plane through a random point of the variety."""
    if f.d != d or f.n != n:
        raise DimensionMismatch(
            f"parametrization has {f.d} parameters and {f.n} components; "
            f"expected {d} and {n}")
    rng = random.Random(seed)
    for _ in range(100):
        p = _draw_pluecker(f, d, n, rng, height)
        if p is not None:
            return p
    raise SamplingExhausted("no generic plane found in 100 draws")


def _sample_batch(f, d, n, count, rng, height):
    """Draw count distinct samples, skipping degenerate draws."""
    out = []
    seen = set()
    budget = 100 * max(count, 1)
    while len(out) < count and budget > 0:
        budget -= 1
        p = _draw_pluecker(f, d, n, rng, height)
        if p is None or p in seen:
            continue
        seen.add(p)
        out.append(p)
    if len(out) < count:
        raise SamplingExhausted(
            f"only {len(out)} of {count} samples within the draw budget")
    return out


# ---------------------------------------------------------------------------
# interpolation

def chow_form(f, C_X, d, n, seed=0, height=20):
    """Interpolate the Chow form from a candidate Chow polytope.

    The ansatz takes every standard monomial whose weight is a lattice
    point of C_X; rows are evaluations at random Chow-hypersurface
    samples, which are integer Pluecker vectors.  ``solve_verified`` tops
    the samples up while the kernel is more than one-dimensional.  Each
    solve first decides mod the word-size prime p = ec.DEFAULT_PRIME: the
    one kernel vector of the rows mod p must vanish mod p on the fresh
    samples that ``_verify`` checks, else VerificationFailed.  The kernel
    over Q is at most as large as mod p, and a nonzero value mod p is
    nonzero over Q, so a wrong candidate polytope is rejected exactly
    where elimination over Q would reject it, at the cost of one prime.
    Only an accepted form is lifted to Q (``lift_kernel_vector``): the
    lift must annihilate every sampled row exactly, and ``_verify`` then
    checks it over Q on the fresh samples.
    """
    unknowns, sampler = _chow_ansatz(f, C_X, d, n, height)
    p = ec.DEFAULT_PRIME

    def rows_mod_p(samples):
        out = []
        for values in samples:
            reduced = {T: x % p for T, x in values.items()}
            out.append([math.prod(reduced[T] for T in mono.factors) % p
                        for mono in unknowns])
        return out

    def solve(samples):
        residue = kernel_vector(
            ec.gfp_kernel(rows_mod_p(samples), p, len(unknowns)))
        for row in rows_mod_p(sampler(VERIFY_SAMPLES, seed + 1000)):
            if ec.dot(row, residue) % p:
                raise VerificationFailed(
                    f"candidate Chow form is nonzero mod {p} at a fresh "
                    f"sample")
        rows = [[math.prod(values[T] for T in mono.factors)
                 for mono in unknowns] for values in samples]
        coeffs = lift_kernel_vector(rows, p, residue)
        return PluckerPoly(d, n, [(m, c) for m, c in zip(unknowns, coeffs)
                                  if c])

    return solve_verified(len(unknowns), sampler, solve, seed)


def _chow_ansatz(f, C_X, d, n, height):
    """The unknowns of the Chow form on C_X, standard monomials ordered
    by weight (lexicographically largest first), and the sampler of
    ``solve_verified``: count distinct samples from a seed, each a
    mapping from index tuples to integer Pluecker coordinates."""
    if f.d != d or f.n != n:
        raise DimensionMismatch(
            f"parametrization has {f.d} parameters and {f.n} components; "
            f"expected {d} and {n}")
    if C_X.ambient_dim != n + 1:
        raise DimensionMismatch(
            f"polytope in R^{C_X.ambient_dim}; weights live in R^{n + 1}")
    points = C_X.lattice_points()
    sums = {sum(u) for u in points}
    if len(sums) != 1 or any(x < 0 for u in points for x in u):
        raise ValueError("candidate polytope is not a weight polytope: "
                         "lattice points must be nonnegative with one "
                         "common coordinate sum")
    if sums.pop() % (d + 1):
        raise KernelEmpty("weight sum not divisible by d+1: empty ansatz")
    unknowns = []
    for u in sorted(points, reverse=True):
        unknowns.extend(standard_monomials_of_weight(u, d, n))
    if not unknowns:
        raise KernelEmpty("no standard monomials on the candidate polytope")
    positions = list(itertools.combinations(range(n + 1), d + 1))

    def sampler(count, s):
        batch = _sample_batch(f, d, n, count, random.Random(s), height)
        return [dict(zip(positions, p)) for p in batch]

    return unknowns, sampler


# ---------------------------------------------------------------------------
# equations from the Chow form

def chow_to_equations(ChF, d, n, alphas):
    """Defining equations of the variety from its Chow form.

    Each entry of alphas is a tuple of n-d-1 rational vectors of length
    n+1 (a single vector may be passed bare when n-d-1 = 1).  A point x
    lies on the variety exactly when every plane through it meets the
    variety, so the Chow form vanishes at the Pluecker vector of the span
    of x and the alpha vectors.  In coordinates that substitution is
    p_T -> sign(T, T^c) * (minor of [alpha_1; ...; alpha_{n-d-1}; x] on
    the complementary columns T^c), which is linear in x; the result is
    one polynomial per alpha tuple, each vanishing on the variety.
    """
    if (ChF.d, ChF.n) != (d, n):
        raise DimensionMismatch(
            f"Chow form indexed for d={ChF.d}, n={ChF.n}")
    out = []
    for alpha in alphas:
        rows = _alpha_rows(alpha, d, n)
        linear = {}
        for mono, _ in ChF.terms:
            for T in mono.factors:
                if T not in linear:
                    linear[T] = _minor_linear_form(rows, T, n)
        if all(all(c == 0 for c, _ in linear[T]) for T in linear):
            raise ValueError("alpha tuple is rank deficient: every "
                             "substituted minor vanishes identically")
        poly = {}
        for mono, coeff in ChF.terms:
            for combo in itertools.product(*(linear[T] for T in mono.factors)):
                c = coeff
                exp = [0] * (n + 1)
                for factor_coeff, var in combo:
                    c = c * factor_coeff
                    exp[var] += 1
                if c:
                    key = tuple(exp)
                    poly[key] = ec.rat(poly.get(key, 0) + c)
        poly = {e: c for e, c in poly.items() if c}
        if not poly:
            # the alpha span already meets the variety, so every extended
            # plane does; the substitution degenerates to the zero polynomial
            raise ValueError("alpha tuple yields the zero polynomial")
        basis = MonomialBasis(sorted(poly), n + 1)
        out.append(ImplicitPolynomial(
            basis, [poly.get(e, 0) for e in basis]))
    return out


def _alpha_rows(alpha, d, n):
    need = n - d - 1
    alpha = list(alpha)
    if alpha and not hasattr(alpha[0], "__len__"):
        if need != 1:
            raise ValueError(
                f"bare alpha vector only spans a plane when n-d-1 = 1, "
                f"here n-d-1 = {need}")
        alpha = [alpha]
    if len(alpha) != need:
        raise ValueError(f"need {need} alpha vectors, got {len(alpha)}")
    rows = [tuple(v) for v in alpha]
    if any(len(r) != n + 1 for r in rows):
        raise DimensionMismatch(f"alpha vectors must have length {n + 1}")
    return rows


def _minor_linear_form(rows, T, n):
    """The substitution for p_T as a linear form in x: the complementary
    minor of [rows; x], signed by the (T, T^c) shuffle, expanded along
    the x row.  Returns (coefficient, variable index) pairs."""
    comp = tuple(i for i in range(n + 1) if i not in T)
    perm = T + comp
    inversions = sum(1 for i in range(len(perm)) for j in range(i)
                     if perm[j] > perm[i])
    shuffle = -1 if inversions % 2 else 1
    k = len(rows)
    form = []
    for ell, var in enumerate(comp):
        cols = [c for m, c in enumerate(comp) if m != ell]
        minor = ec.det([[row[c] for c in cols] for row in rows]) if k else 1
        sign = -1 if (k + ell) % 2 else 1
        form.append((ec.rat(shuffle * sign * minor), var))
    return form
