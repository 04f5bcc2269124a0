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
translate of the polytope with the vertex oracle, pin the translation in
closed form (Kapranov, Sturmfels, Zelevinsky 1992; Fink 2013), and
interpolate the Chow form once from random planes through random points
of the variety.  The Chow form is the implicit equation of the Chow
hypersurface in the Pluecker coordinates of the Grassmannian (Dalbec,
Sturmfels, Introduction to Chow forms, 1995), so it is interpolated as
one: an ``interpolate.ImplicitPolynomial`` on the ``MonomialBasis`` of
the ansatz's exponent vectors over the C(n+1, d+1) Pluecker variables,
by ``interpolate.interpolate_polynomial`` at integer Pluecker vectors.
Only the ansatz, an exact check of the lift on every sample that decided
it, and the PluckerPoly that records the result and writes its wire
format are Chow-specific.

Two conventions are fixed at this module boundary.  First, chow_fan
returns the outer normal fan; the vertex oracle reads inner normal fans
(min convention), so chow_polytope negates the fan once before
reconstructing.  Second, Chow forms live on the standard tableau basis.
A monomial is the tuple of its factors, (d+1)-tuples of indices sorted
lexicographically, and it is standard when they do not decrease
componentwise from row to row.  Terms are ordered by weight,
lexicographically largest weight first, then by factors, and canonical
scaling clears the coefficients to coprime integers with the leading
nonzero one positive.
"""

import itertools
import math

from . import exactcore as ec
from .errors import (
    DimensionMismatch,
    KernelEmpty,
    KernelTooBig,
    NonReducedCycle,
    OracleInconsistent,
    ReconstructionFailed,
    ShiftSearchFailed,
    VerificationFailed,
)
from .implicitize import reconstruct_polytope
from .interpolate import (
    MonomialBasis,
    distinct_samples,
    interpolate_polynomial,
    random_rational,
)
from .polyhedra import Polytope
from .tropical import stable_sum, standard_linear_cycle

# chow_polytope interpolates Chow forms up to this degree
DEFAULT_MAX_DEGREE = 12


def _weight(factors, n):
    """Weight of the Pluecker monomial with the given factors: how often
    each index 0..n occurs among them."""
    u = [0] * (n + 1)
    for T in factors:
        for i in T:
            u[i] += 1
    return tuple(u)


class PluckerPoly:
    """A Chow form as plain data: terms (factors, coeff) with nonzero
    coefficients, factors a standard monomial as its tuple of (d+1)-index
    tuples, in the order of the ansatz (``_chow_ansatz``)."""

    def __init__(self, d, n, terms):
        self.d = d
        self.n = n
        self.terms = tuple(terms)

    def coefficient(self, factors):
        key = tuple(sorted(tuple(T) for T in factors))
        for m, coeff in self.terms:
            if m == key:
                return coeff
        return 0

    def weights(self):
        """Distinct term weights, in term order."""
        return list(dict.fromkeys(_weight(m, self.n) for m, _ in self.terms))

    def to_json(self):
        return {
            "d": self.d,
            "n": self.n,
            "terms": [{"factors": [list(T) for T in m],
                       "coeff": ec.rat_to_json(coeff)}
                      for m, coeff in self.terms],
        }


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


def chow_polytope(fan, d, f, seed=0, height=20):
    """Chow polytope of the d-dimensional variety parametrized by f, from
    its Chow fan (``chow_fan``).  Returns (translated, shift, polytope,
    form), form being the Chow form interpolated on the polytope.

    The vertex oracle reconstructs the polytope up to the translation that
    puts every coordinate minimum at zero; the seed drives only the
    Pluecker samples.  The shift back is pinned, not searched: for X of
    degree delta the polytope lies in delta * Delta(d+1, n+1) (Kapranov,
    Sturmfels, Zelevinsky, Duke Math. J. 67, 1992) and depends on trop(X)
    alone (Fink, Beitr. Algebra Geom. 54, 2013); X meets the torus, so a
    generic plane in {x_i = 0} misses it and max u_i = delta for every i.
    So with top the translate's coordinate maxima and base its coordinate
    sum, delta = (sum(top) - base) / (n - d) and shift = delta - top,
    certified by one ``chow_form``.

    A translate g > 1 times a lattice polytope Q may count the variety g
    times, or not: twice a line's cycle is a conic's.  If Q, the smaller
    ansatz, pins a Chow form, NonReducedCycle refuses the translate.
    """
    n = fan.ambient_dim - 1
    stream = PluckerStream(f, d, n, height)
    translated = reconstruct_polytope(fan.negated())
    g = math.gcd(*(x for v in translated.vertices for x in v))
    if g > 1:
        Q = Polytope([tuple(x // g for x in v) for v in translated.vertices])
        try:
            chow_form(stream, Q.translate(_pinned_shift(Q, d)), seed)
        except (KernelEmpty, KernelTooBig, ShiftSearchFailed,
                VerificationFailed):
            pass
        else:
            raise NonReducedCycle(
                f"the cycle counts its variety {g} times: divide its "
                f"weights by {g} or, for a cycle computed from the "
                f"parametrization, multiply its degree delta by {g}")
    shift = _pinned_shift(translated, d)
    P = translated.translate(shift)
    return translated, shift, P, chow_form(stream, P, seed)


def _pinned_shift(translated, d):
    """The shift of ``chow_polytope`` from the translate's coordinate
    maxima; ShiftSearchFailed unless they pin an integer degree in
    1..DEFAULT_MAX_DEGREE that no maximum exceeds."""
    sums = {sum(v) for v in translated.vertices}
    if len(sums) != 1:
        raise OracleInconsistent(
            f"translated vertices have unequal coordinate sums {sorted(sums)}")
    base = sums.pop()
    top = [max(x) for x in zip(*translated.vertices)]
    degree, rest = divmod(sum(top) - base, translated.ambient_dim - 1 - d)
    if rest or not 1 <= degree <= DEFAULT_MAX_DEGREE \
            or any(not isinstance(t, int) or t > degree for t in top):
        raise ShiftSearchFailed(
            f"coordinate maxima {top} and sum {base} pin no Chow polytope "
            f"of degree 1..{DEFAULT_MAX_DEGREE}")
    return tuple(degree - t for t in top)


# ---------------------------------------------------------------------------
# standard monomials

def standard_monomials_of_weight(u, d, n):
    """All standard Pluecker monomials of the given weight, each its tuple
    of factors, in lexicographic order.

    A monomial of weight u has sum(u)/(d+1) factors; standardness asks the
    lexicographically sorted factor tuples to be componentwise
    non-decreasing row to row.  The search appends each row to the rows
    above in that order, so its monomials come out sorted, standard and
    distinct.  Returns the empty list when no standard monomial has that
    weight.
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
            out.append(rows)
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
            descend(T, nxt, rows + (T,), left - 1)

    descend(None, list(u), (), k)
    return out


# ---------------------------------------------------------------------------
# sampling the Chow hypersurface

def _primal_pluecker(span_rows, d, n):
    """Primal Pluecker coordinates of the kernel of the span rows, up to one
    common scalar: over lex-ordered column tuples T, (-1)^sum(T), the sign
    of the permutation (T^c, T) up to that scalar, times the maximal minor
    of the rows on the columns T^c.  All are 0 when the rows lose rank."""
    rows = [ec.canonicalize_rational_vector(r) for r in span_rows]
    return tuple(
        (-1) ** sum(T) * ec.det([[row[j] for j in range(n + 1) if j not in T]
                                 for row in rows])
        for T in itertools.combinations(range(n + 1), d + 1))


def _draw_pluecker(f, d, n, rng, height):
    """One random plane through a random point of the variety, as a
    canonical integer Pluecker vector; None if genericity failed."""
    x = (1,) + f.evaluate(tuple(random_rational(rng, height)
                                for _ in range(f.d)))
    rows = [x] + [[random_rational(rng, height) for _ in range(n + 1)]
                  for _ in range(n - d - 1)]
    p = _primal_pluecker(rows, d, n)
    if not any(p):
        return None
    return ec.canonicalize_rational_vector(p)


class PluckerStream:
    """Samples of the Chow hypersurface of the variety parametrized by f:
    Pluecker vectors of random (n-d-1)-planes through random points of the
    variety, each a tuple of integer coordinates over the lex-ordered
    (d+1)-subsets of {0..n}.

    ``stream(count, seed)``, the sampler of the interpolation, returns
    the first count distinct generic draws of random.Random(seed)
    (``distinct_samples``).
    """

    def __init__(self, f, d, n, height=20):
        if f.d != d or f.n != n:
            raise DimensionMismatch(
                f"parametrization has {f.d} parameters and {f.n} components; "
                f"expected {d} and {n}")
        self.f = f
        self.d = d
        self.n = n
        self.height = height

    def __call__(self, count, seed):
        return distinct_samples(
            lambda rng: _draw_pluecker(self.f, self.d, self.n, rng,
                                       self.height), count, seed)


# ---------------------------------------------------------------------------
# interpolation

def chow_form(stream, C_X, seed=0):
    """Interpolate the Chow form from a candidate Chow polytope C_X.

    The ansatz takes every standard monomial whose weight is a lattice
    point of C_X.  Each becomes its exponent vector over the Pluecker
    variables, and ``interpolate_polynomial`` finds the one polynomial on
    them that vanishes at the samples of the PluckerStream, over Q.  The
    lift must annihilate every sample that decided it exactly, else
    ReconstructionFailed, before it is certified on fresh samples.  Its
    coefficients, in ansatz order, are scaled to a positive leading one.
    """
    d, n = stream.d, stream.n
    unknowns = _chow_ansatz(C_X, d, n)
    variables = list(itertools.combinations(range(n + 1), d + 1))
    exponents = [tuple(m.count(T) for T in variables)
                 for m in unknowns]
    poly = interpolate_polynomial(MonomialBasis(exponents), stream, seed,
                                  check=_vanishes_on_samples)
    coefficient = dict(zip(poly.basis, poly.coefficients))
    coeffs = ec.canonical_sign([coefficient[e] for e in exponents])
    return PluckerPoly(d, n, [(m, c) for m, c in zip(unknowns, coeffs) if c])


def _vanishes_on_samples(poly, samples):
    if any(poly.evaluate(p) for p in samples):
        raise ReconstructionFailed(
            "the lifted Chow form does not vanish on every sample")


def _chow_ansatz(C_X, d, n):
    """The unknowns of the Chow form on C_X: standard monomials ordered
    by weight, lexicographically largest first, then by factors.  All
    share one degree, the common coordinate sum over d+1."""
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
    return unknowns
