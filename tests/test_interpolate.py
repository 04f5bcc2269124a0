"""Interpolation tests.

Goldens come from classical closed forms: the cuspidal cubic x^3 = y^2,
the quadratic discriminant b^2 - 4ac, and Sylvester resultants computed
independently via sympy.
"""

import math
import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle_utils import pow_mod_row
from tropimpl import exactcore as ec
from tropimpl import interpolate
from tropimpl.errors import (
    InputFormatError,
    KernelEmpty,
    KernelTooBig,
    ReconstructionFailed,
    SamplingExhausted,
    VerificationFailed,
)
from tropimpl.implicitize import Parametrization, reconstruct_polytope, get_tropical_cycle
from tropimpl.interpolate import (
    MAX_TOP_UPS,
    VERIFY_SAMPLES,
    ImplicitPolynomial,
    MonomialBasis,
    _is_prime,
    _verify,
    horn_sample,
    implicit_equation,
    kernel_vector,
    lift_kernel_vector,
    parse_field,
    sample_points,
    solve_verified,
    vandermonde_kernel,
)
from tropimpl.polyhedra import Polytope

CUSP = Parametrization(1, 2, [[(1, (2,))], [(1, (3,))]])
CUSP_POLYTOPE = Polytope([(0, 2), (3, 0)])

DISC_A = [[1, 1, 1], [0, 1, 2]]
DISC_B = [(1, -2, 1)]
DISC_POLYTOPE = Polytope([(0, 2, 0), (1, 0, 1)])


class TestFieldSpec:
    def test_parsing(self):
        assert parse_field("q") == ("q", None)
        assert parse_field(None) == ("q", None)
        assert parse_field("gf:101") == ("gf", 101)
        assert parse_field(7) == ("gf", 7)
        assert parse_field("crt:3") == ("crt", 3)
        assert parse_field(ec.DEFAULT_PRIME) == ("gf", ec.DEFAULT_PRIME)

    def test_rejects_bad_specs(self):
        # primes from 2^31 on would overflow the int64 elimination
        for bad in ("gf:8", 9, "crt:0", "maple", "gf:4294967311",
                    4294967311, "gf:2147483659"):
            with pytest.raises(InputFormatError):
                parse_field(bad)

    def test_default_prime_is_prime(self):
        assert _is_prime(ec.DEFAULT_PRIME)
        assert not _is_prime(ec.DEFAULT_PRIME + 2)


class TestMonomialBasis:
    def test_sorted_and_distinct(self):
        basis = MonomialBasis([(3, 0), (0, 2), (1, 1)])
        assert basis.exponents == ((0, 2), (1, 1), (3, 0))
        with pytest.raises(ValueError):
            MonomialBasis([(1, 0), (1, 0)])

    def test_from_polytope(self):
        basis = MonomialBasis.from_polytope(CUSP_POLYTOPE)
        assert basis.exponents == ((0, 2), (3, 0))

    def test_row_with_negative_exponents(self):
        basis = MonomialBasis([(-1, 1), (0, 0)])
        assert basis.row((ec.rat(1, 2), 3)) == (6, 1)
        assert basis.row_mod((2, 3), 7) == (3 * 4 % 7, 1)


# the loop versions as references: seeded, derandomized examples
REFERENCE = settings(max_examples=100, deadline=None, derandomize=True,
                     database=None)


@st.composite
def bases_with_negative_exponents(draw):
    n = draw(st.integers(1, 4))
    exps = draw(st.lists(st.tuples(*[st.integers(-4, 5)] * n),
                         min_size=1, max_size=20, unique=True))
    return MonomialBasis(exps)


class TestLoopReferences:
    @REFERENCE
    @given(bases_with_negative_exponents(),
           st.sampled_from([2, 3, 101, 2 ** 31 - 1]), st.data())
    def test_row_mod_matches_pow_loop(self, basis, p, data):
        coordinate = st.one_of(st.just(0), st.integers(0, p - 1),
                               st.integers(-3 * p, 3 * p))
        point = data.draw(st.tuples(*[coordinate] * basis.ambient_dim))
        assert basis.row_mod(point, p) == pow_mod_row(basis.exponents,
                                                      point, p)

    @REFERENCE
    @given(bases_with_negative_exponents(), st.data())
    def test_evaluate_over_q_matches_fraction_row_sum(self, basis, data):
        coeffs = data.draw(st.lists(st.integers(-5, 5), min_size=len(basis),
                                    max_size=len(basis)).filter(any))
        # zero coordinates come up often enough to reach ZeroDivisionError
        coordinate = st.fractions(-9, 9, max_denominator=9)
        point = data.draw(st.tuples(*[coordinate] * basis.ambient_dim))
        poly = ImplicitPolynomial(basis, coeffs)
        try:
            expected = sum(c * v for c, v in zip(coeffs, basis.row(point)))
        except ZeroDivisionError:
            with pytest.raises(ZeroDivisionError):
                poly.evaluate(point)
            return
        assert poly.evaluate(point) == expected


class TestSampling:
    def test_identity_distinct_nonzero(self):
        f = Parametrization(1, 1, [[(1, (1,))]])
        pts = sample_points(f, 12, height=9, seed=3)
        vals = [p[0] for p in pts]
        assert len(vals) == 12
        assert all(v != 0 for v in vals)
        assert sample_points(f, 12, height=9, seed=3) == pts

    def test_cusp_identity(self):
        for (x, y) in sample_points(CUSP, 8, seed=5):
            assert x ** 3 == y ** 2

    def test_zero_components_rejected(self):
        # x = t - 1 vanishes at t = 1; accepted samples never do.
        f = Parametrization(1, 1, [[(1, (1,)), (-1, (0,))]])
        pts = sample_points(f, 10, height=3, seed=1)
        assert len(set(pts)) == 10
        for (x,) in pts:
            assert x != 0

    def test_horn_quadratic_discriminant(self):
        for y in horn_sample(DISC_A, DISC_B, 6, seed=9):
            assert y[1] ** 2 - 4 * y[0] * y[2] == 0

    def test_horn_requires_orthogonality(self):
        with pytest.raises(ValueError):
            horn_sample([[1, 1]], [[1, 1]], 1)

    def test_horn_exhausted_on_zero_kernel_row(self):
        with pytest.raises(SamplingExhausted):
            horn_sample([[1, 1]], [[0, 0]], 1)


class TestVandermondeKernel:
    def test_linear_point(self):
        basis = MonomialBasis([(0,), (1,)])
        assert vandermonde_kernel(basis, [(2,)]) == (2, -1)

    def test_empty_kernel(self):
        basis = MonomialBasis([(0,), (1,)])
        with pytest.raises(KernelEmpty):
            vandermonde_kernel(basis, [(2,), (3,)])

    def test_needs_enough_points(self):
        basis = MonomialBasis([(0,), (1,), (2,)])
        with pytest.raises(ValueError):
            vandermonde_kernel(basis, [(2,), (2,)])

    def test_gfp_rejections_inflate_kernel(self):
        basis = MonomialBasis([(0,), (1,)])
        bad = [(ec.rat(1, 5),), (ec.rat(2, 5),)]
        with pytest.raises(KernelTooBig):
            vandermonde_kernel(basis, bad, field=5)

    def test_gfp_matches_rational_reduction(self):
        basis = MonomialBasis([(0,), (1,)])
        assert vandermonde_kernel(basis, [(2,)], field=7) == (1, 3)


class TestImplicitEquation:
    def test_cuspidal_cubic(self):
        poly = implicit_equation(CUSP, CUSP_POLYTOPE)
        assert poly.coefficients == (1, -1)
        assert poly.coefficient((0, 2)) == 1
        assert poly.evaluate((4, 8)) == 0
        assert poly.evaluate((4, 9)) != 0

    def test_seed_invariant_canonical_scale(self):
        a = implicit_equation(CUSP, CUSP_POLYTOPE, seed=0)
        b = implicit_equation(CUSP, CUSP_POLYTOPE, seed=31337)
        assert a.coefficients == b.coefficients

    def test_oversized_polytope_detected(self):
        # y^4 - x^6 = (y^2 - x^3)(y^2 + x^3) also fits inside; dim > 1.
        fat = Polytope([(0, 0), (6, 0), (0, 4)])
        with pytest.raises(KernelTooBig):
            implicit_equation(CUSP, fat)

    def test_horn_discriminant_rational(self):
        poly = implicit_equation((DISC_A, DISC_B), DISC_POLYTOPE)
        assert poly.basis.exponents == ((0, 2, 0), (1, 0, 1))
        assert poly.coefficients == (1, -4)

    def test_horn_discriminant_prime_field(self):
        poly = implicit_equation((DISC_A, DISC_B), DISC_POLYTOPE,
                                 field="gf:101")
        assert poly.modulus == 101
        assert poly.coefficients == (1, 97)
        assert poly.to_json()["modulus"] == 101

    def test_horn_discriminant_crt(self):
        poly = implicit_equation((DISC_A, DISC_B), DISC_POLYTOPE,
                                 field="crt:2")
        assert poly.modulus is None
        assert poly.coefficients == (1, -4)

    def test_prime_field_matches_rational_reduction(self):
        q = implicit_equation(CUSP, CUSP_POLYTOPE)
        for p in (7, 1009, 65537):
            m = implicit_equation(CUSP, CUSP_POLYTOPE, field=p)
            assert m.coefficients == tuple(c % p for c in q.coefficients)

    def test_matches_sylvester_resultant(self):
        # x = 3t^4 + 5t, y = 7t^2 + 11t; the y^3 coefficient vanishes
        # even though the monomial lies in the Newton polytope.
        param = Parametrization(1, 2, [
            [(3, (4,)), (5, (1,))],
            [(7, (2,)), (11, (1,))],
        ])
        C = get_tropical_cycle(param.newton_polytopes())
        P = reconstruct_polytope(C)
        poly = implicit_equation(param, P)
        assert (0, 3) in poly.basis.exponents
        assert poly.coefficient((0, 3)) == 0

        t, x, y = sympy.symbols("t x y")
        res = sympy.Poly(sympy.resultant(x - (3 * t ** 4 + 5 * t),
                                         y - (7 * t ** 2 + 11 * t), t),
                         x, y)
        monos = {tuple(int(v) for v in m): int(c)
                 for m, c in zip(res.monoms(), res.coeffs())}
        content = math.gcd(*monos.values())
        first = min(monos)
        sign = 1 if monos[first] > 0 else -1
        expected = {m: sign * c // content for m, c in monos.items()}
        got = {e: c for c, e in poly.terms()}
        assert got == expected


class TestImplicitPolynomial:
    def test_validation(self):
        basis = MonomialBasis([(0,), (1,)])
        with pytest.raises(ValueError):
            ImplicitPolynomial(basis, (0, 0))
        with pytest.raises(ValueError):
            ImplicitPolynomial(basis, (1,))

    def test_json_terms_skip_zeros(self):
        # the artifact form: the full basis, zero coefficients as "0/1"
        basis = MonomialBasis([(0, 0), (0, 3), (2, 0), (2, 1)])
        poly = ImplicitPolynomial(basis, (5, 0, -1, ec.rat(-3, 4)))
        out = poly.to_json()
        assert out["vars"] == ["x1", "x2"]
        assert out["terms"] == [
            {"coeff": 5, "exp": [0, 0]},
            {"coeff": "0/1", "exp": [0, 3]},
            {"coeff": -1, "exp": [2, 0]},
            {"coeff": "-3/4", "exp": [2, 1]},
        ]
        assert "modulus" not in out

    def test_verification_guards_wrong_equation(self):
        basis = MonomialBasis([(0,), (1,)])
        wrong = ImplicitPolynomial(basis, (1, 1))
        f = Parametrization(1, 1, [[(1, (1,))]])

        def sampler(m, s):
            return sample_points(f, m, 20, s)

        with pytest.raises(VerificationFailed):
            _verify(wrong, sampler, 0)

    def test_mod_p_negative_power_of_zero_residue_is_not_a_zero(self):
        # x^-1 + 1 mod 7: at x = 7 and x = 14/3 the coordinate vanishes
        # mod 7, so there is no value, not the value 1 of x^(p-2)-inversion
        basis = MonomialBasis([(-1,), (0,)])
        poly = ImplicitPolynomial(basis, (1, 1), modulus=7)
        for x in (7, Fraction(14, 3)):
            with pytest.raises(ZeroDivisionError):
                poly.evaluate((x,))
        assert poly.evaluate((Fraction(-1),)) == 0
        # x^-1 alone read 0 at every multiple of 7, a false zero for _verify
        alone = ImplicitPolynomial(basis, (1, 0), modulus=7)

        def sampler(m, s):
            return [(Fraction(7 * (k + 1)),) for k in range(m)]

        with pytest.raises(VerificationFailed):
            _verify(alone, sampler, 0)


class Vanishing:
    """Candidate that vanishes at every sample except the bad ones and
    cannot be evaluated at the ones listed in skip."""

    def __init__(self, bad=(), skip=()):
        self.bad = set(bad)
        self.skip = set(skip)

    def evaluate(self, pt):
        if pt in self.skip:
            raise ZeroDivisionError
        return 1 if pt in self.bad else 0


class TestSolveVerified:
    """The shared loop, driven by a fake sampler and fake kernels."""

    def run(self, nullities, unknowns=20, bad=(), skip=()):
        draws = []
        solves = []

        def sampler(count, seed):
            draws.append((count, seed))
            return [(seed, i) for i in range(count)]

        def solve(samples):
            solves.append(len(samples))
            k = nullities[min(len(solves), len(nullities)) - 1]
            kernel = [tuple(int(i == j) for i in range(unknowns))
                      for j in range(k)]
            kernel_vector(kernel)
            return Vanishing(bad, skip)

        try:
            result = solve_verified(unknowns, sampler, solve, 7)
        except (KernelEmpty, KernelTooBig, VerificationFailed) as exc:
            result = exc
        return result, draws, solves

    def test_nullity_one_at_once(self):
        result, draws, solves = self.run([1])
        assert isinstance(result, Vanishing)
        assert draws == [(19, 7), (VERIFY_SAMPLES, 1007)]
        assert solves == [19]

    def test_one_top_up(self):
        result, draws, solves = self.run([2, 1])
        assert isinstance(result, Vanishing)
        assert draws == [(19, 7), (20 // 4 + 10, 8), (VERIFY_SAMPLES, 1007)]
        assert solves == [19, 34]

    def test_kernel_too_big_after_all_top_ups(self):
        result, draws, solves = self.run([2])
        assert isinstance(result, KernelTooBig)
        assert len(solves) == MAX_TOP_UPS + 1
        assert draws == [(19, 7)] + [(15, 7 + r)
                                     for r in range(1, MAX_TOP_UPS + 1)]

    def test_empty_kernel(self):
        result, draws, solves = self.run([0])
        assert isinstance(result, KernelEmpty)
        assert solves == [19]

    def test_wrong_vector_fails_verification(self):
        result, _, _ = self.run([1], bad=[(1007, 3)])
        assert isinstance(result, VerificationFailed)

    def test_wrong_vector_after_top_up_fails_verification(self):
        result, _, solves = self.run([3, 1], bad=[(1007, 0)])
        assert isinstance(result, VerificationFailed)
        assert solves == [19, 34]

    def test_unevaluable_samples_draw_more_from_the_same_seed(self):
        result, draws, _ = self.run([1], skip=[(1007, 0), (1007, 4)])
        assert isinstance(result, Vanishing)
        assert draws[1:] == [(VERIFY_SAMPLES, 1007),
                             (4 * VERIFY_SAMPLES, 1007)]
        everywhere = [(1007, i) for i in range(4 * VERIFY_SAMPLES - 9)]
        result, _, _ = self.run([1], skip=everywhere)
        assert isinstance(result, VerificationFailed)


def test_crt_tops_up_then_skips_a_bad_prime(monkeypatch):
    # the first prime asks for more samples and is retried on the grown
    # set; a later prime that still fails on it is skipped
    real = interpolate.vandermonde_kernel
    calls = []

    def flaky(basis, points, field="q"):
        calls.append((field, len(points)))
        if len(calls) in (1, 3):
            raise KernelTooBig("simulated")
        return real(basis, points, field)

    monkeypatch.setattr(interpolate, "vandermonde_kernel", flaky)
    poly = implicit_equation((DISC_A, DISC_B), DISC_POLYTOPE, field="crt:2")
    assert poly.coefficients == (1, -4)
    primes = [p for p, _ in calls]
    assert primes[0] == primes[1] == ec.DEFAULT_PRIME
    assert len(set(primes)) == 3
    assert [n for _, n in calls] == [1, 11, 11, 11]


class TestLiftKernelVector:
    P = ec.DEFAULT_PRIME

    def test_lifts_over_several_primes(self, monkeypatch):
        # the kernel (a, b, c) of these rows has entries far beyond the
        # reconstruction bound of one word-size prime
        a, b, c = 3 ** 40, -5 ** 30, 7 ** 25
        rows = [[c, 0, -a], [0, c, -b]]
        residue = kernel_vector(ec.gfp_kernel(rows, self.P))
        real = ec.crt_rational_reconstruct
        counts = []

        def spy(residues, primes):
            counts.append(len(primes))
            return real(residues, primes)

        monkeypatch.setattr(ec, "crt_rational_reconstruct", spy)
        assert lift_kernel_vector(rows, self.P, residue) == (a, b, c)
        assert counts == list(range(1, counts[-1] + 1)) and counts[-1] > 1

    def test_empty_kernel_at_the_next_prime(self):
        # a residue that is not in the kernel: the rows have full rank,
        # so the next prime finds no kernel vector at all
        rows = [[10 ** 6, 1], [1, 10 ** 6]]
        with pytest.raises(KernelEmpty):
            lift_kernel_vector(rows, self.P, (1, 0))

    def test_hadamard_bound_caps_the_primes(self):
        # entries of size 1 reconstruct from one prime, so a lift that
        # fails the exact check there has no kernel vector to find
        with pytest.raises(ReconstructionFailed):
            lift_kernel_vector([[1, 0], [0, 1]], self.P, (1, 0))
