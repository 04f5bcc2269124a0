"""Interpolation tests.

Goldens come from classical closed forms: the cuspidal cubic x^3 = y^2,
the quadratic discriminant b^2 - 4ac, and Sylvester resultants computed
independently via sympy.
"""

import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle_utils import (
    equation_over_q,
    horn_sample_by_fractions,
    inflating_gfp_kernel,
    pow_mod_row,
    rows_mod_by_point,
    spy_rows_mod_p,
)
from tropimpl import exactcore as ec
from tropimpl.errors import (
    InputFormatError,
    KernelEmpty,
    KernelTooBig,
    ReconstructionFailed,
    SamplingExhausted,
    TropicalError,
    VerificationFailed,
)
from tropimpl.implicitize import Parametrization, reconstruct_polytope, get_tropical_cycle
from tropimpl.interpolate import (
    MAX_SKIPPED_PRIMES,
    MAX_TOP_UPS,
    VERIFY_SAMPLES,
    ImplicitPolynomial,
    MonomialBasis,
    _annihilated,
    _is_prime,
    _primes_descending,
    _rows_mod,
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
        # the modulus; "crt:k" is an alias of "q"
        assert parse_field("q") is None
        assert parse_field(None) is None
        assert parse_field("gf:101") == 101
        assert parse_field(7) == 7
        assert parse_field("crt:3") is None
        assert parse_field(ec.DEFAULT_PRIME) == ec.DEFAULT_PRIME

    def test_rejects_bad_specs(self):
        # primes from 2^31 on would overflow the int64 elimination
        for bad in ("gf:8", 9, "crt:0", "maple", "gf:4294967311",
                    4294967311, "gf:2147483659", "crt:x", "gf:x", "crt:",
                    "gf:"):
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
        assert basis.row_mod([(2, 3)], 7) == [(3 * 4 % 7, 1)]
        assert basis.row_mod([], 7) == []


# the loop versions as references: seeded, derandomized examples
REFERENCE = settings(max_examples=100, deadline=None, derandomize=True,
                     database=None)


def as_tuples(rows):
    """Rows as tuples of Python ints, from a list or an int64 array."""
    return [tuple(int(x) for x in row) for row in rows]


@st.composite
def bases_across_python_columns(draw):
    """Bases in 2 or 3 variables on either side of ec.GFP_PYTHON_COLUMNS
    monomials, with negative exponents."""
    n = draw(st.integers(2, 3))
    size = draw(st.one_of(st.integers(1, ec.GFP_PYTHON_COLUMNS),
                          st.integers(ec.GFP_PYTHON_COLUMNS + 1, 100)))
    box = list(itertools.product(range(-3, 7), repeat=n))
    return MonomialBasis(draw(st.randoms()).sample(box, size))


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
        points = data.draw(st.lists(
            st.tuples(*[coordinate] * basis.ambient_dim), max_size=4))
        assert basis.row_mod(points, p) == [
            pow_mod_row(basis.exponents, point, p) for point in points]

    def test_row_mod_in_numpy_matches_pow_loop(self):
        # past ec.GFP_PYTHON_COLUMNS monomials the rows are one int64 array
        p = 2 ** 31 - 1
        basis = MonomialBasis([(i, j) for i in range(-4, 5)
                               for j in range(-3, 6)])
        assert len(basis) > ec.GFP_PYTHON_COLUMNS
        points = [(0, 5), (3, 0), (p - 1, 12345), (-7, 3 * p + 2)]
        rows = basis.row_mod(points, p)
        assert rows.shape == (len(points), len(basis))
        assert as_tuples(rows) == [
            pow_mod_row(basis.exponents, point, p) for point in points]
        assert basis.row_mod([], p).shape == (0, len(basis))

    @REFERENCE
    @given(bases_across_python_columns(),
           st.sampled_from([2, 3, 101, 2 ** 31 - 1]), st.data())
    def test_batched_rows_match_the_per_entry_reference(self, basis, p,
                                                        data):
        # residues, zeros at negative exponents included, row by row
        residue = st.one_of(st.just(0), st.integers(0, p - 1))
        points = data.draw(st.lists(
            st.tuples(*[residue] * basis.ambient_dim), max_size=6))
        assert as_tuples(basis.row_mod(points, p)) == [
            pow_mod_row(basis.exponents, point, p) for point in points]
        # rationals whose reduction vanishes or hits a zero at a negative
        # exponent give no row, as point by point
        num = st.one_of(st.just(0), st.integers(-3, 3).map(lambda k: k * p),
                        st.integers(-3 * p, 3 * p))
        den = st.one_of(st.just(1), st.sampled_from([p, 2 * p]),
                        st.integers(1, 3 * p))
        rational = st.builds(Fraction, num, den)
        points = data.draw(st.lists(
            st.tuples(*[rational] * basis.ambient_dim), max_size=6))
        assert as_tuples(_rows_mod(basis, points, p)) == \
            rows_mod_by_point(basis, points, p)

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

    @REFERENCE
    @given(st.integers(1, 3).flatmap(lambda d: st.lists(
        st.lists(st.integers(-3, 3), min_size=d + 2, max_size=d + 2),
        min_size=d, max_size=d)).filter(
            lambda A: any(x < 0 for row in A for x in row)),
           st.integers(2, 20), st.integers(0, 10 ** 6))
    def test_integer_horn_draws_match_fraction_draws(self, A, height, seed):
        # the same rng calls give equal samples in equal order
        B = [list(b) for b in ec.rational_kernel(A)]
        for s in range(seed, seed + 4):
            try:
                expected = horn_sample_by_fractions(A, B, 6, height, s)
            except SamplingExhausted:
                with pytest.raises(SamplingExhausted):
                    horn_sample(A, B, 6, height, s)
                continue
            assert horn_sample(A, B, 6, height, s) == expected


def points_kernel(basis, points, p):
    """``vandermonde_kernel`` of the rows of basis monomials at points."""
    return vandermonde_kernel(_rows_mod(basis, points, p), p, len(basis))


class TestVandermondeKernel:
    P = ec.DEFAULT_PRIME

    def test_linear_point(self):
        # the kernel (2, -1) over Q, scaled to a leading 1 mod p
        basis = MonomialBasis([(0,), (1,)])
        half = pow(2, -1, self.P)
        assert points_kernel(basis, [(2,)], self.P) == (1, -half % self.P)

    def test_empty_kernel(self):
        basis = MonomialBasis([(0,), (1,)])
        with pytest.raises(KernelEmpty):
            points_kernel(basis, [(2,), (3,)], self.P)

    def test_duplicate_points_leave_the_kernel_too_big(self):
        # a repeated point repeats its row and adds no rank
        basis = MonomialBasis([(0,), (1,), (2,)])
        with pytest.raises(KernelTooBig):
            points_kernel(basis, [(2,), (2,)], self.P)

    def test_gfp_rejections_inflate_kernel(self):
        basis = MonomialBasis([(0,), (1,)])
        bad = [(ec.rat(1, 5),), (ec.rat(2, 5),)]
        with pytest.raises(KernelTooBig):
            points_kernel(basis, bad, 5)

    def test_gfp_matches_rational_reduction(self):
        basis = MonomialBasis([(0,), (1,)])
        assert points_kernel(basis, [(2,)], 7) == (1, 3)

    def test_zero_residue_gives_a_row_without_negative_exponents(self):
        # x = p is a root of x - p, whose kernel vector (-p, 1) is (0, 1)
        # mod p; only a negative power of the zero residue has no value
        assert points_kernel(MonomialBasis([(0,), (1,)]), [(self.P,)],
                             self.P) == (0, 1)
        with pytest.raises(KernelTooBig):
            points_kernel(MonomialBasis([(-1,), (0,)]), [(self.P,)],
                          self.P)


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
        with pytest.raises(VerificationFailed):
            _verify(wrong.evaluate, sample_points(f, VERIFY_SAMPLES))

    def test_mod_p_negative_power_of_zero_residue_is_not_a_zero(self):
        # x^-1 + 1 mod 7: at x = 7 and x = 14/3 the coordinate vanishes
        # mod 7, so there is no row, not the row of x^(p-2)-inversion
        basis = MonomialBasis([(-1,), (0,)])
        assert _rows_mod(basis, [(Fraction(7),), (Fraction(14, 3),)], 7) \
            == []
        row, = _rows_mod(basis, [(Fraction(-1),)], 7)
        assert ec.dot((1, 1), row) % 7 == 0

        # x^-1 alone read 0 at every multiple of 7, a false zero for _verify
        def alone(pt):
            rows = _rows_mod(basis, [pt], 7)
            if not rows:
                raise ZeroDivisionError("no row mod 7")
            return ec.dot((1, 0), rows[0]) % 7

        multiples = [(Fraction(7 * (k + 1)),) for k in range(VERIFY_SAMPLES)]
        with pytest.raises(VerificationFailed):
            _verify(alone, multiples)

    def test_a_polynomial_mod_p_has_no_value_over_q(self):
        poly = ImplicitPolynomial(MonomialBasis([(0,), (1,)]), (1, 1),
                                  modulus=7)
        with pytest.raises(ValueError):
            poly.evaluate((Fraction(-1),))


class TestSolveVerified:
    """The shared loop, driven by a fake sampler, a fake ``rows_mod`` and
    fake kernels.  Every kernel vector is a unit vector, 1 at the first
    unknown, so a sample fails verification when its row is 1 there."""

    P = 101

    def run(self, monkeypatch, nullities, unknowns=20, bad=(), skip=()):
        draws = []
        asked = []
        kernels = []

        def sampler(count, seed):
            draws.append((count, seed))
            return [(seed, i) for i in range(count)]

        def rows_mod(samples, p):
            assert p == self.P
            asked.extend(samples)
            return [(int(s in bad),) + (0,) * (unknowns - 1)
                    for s in samples if s not in skip]

        def gfp_kernel(rows, p, ncols):
            kernels.append(len(rows))
            k = nullities[min(len(kernels), len(nullities)) - 1]
            return [tuple(int(i == j) for i in range(ncols))
                    for j in range(k)]

        monkeypatch.setattr(ec, "gfp_kernel", gfp_kernel)
        try:
            result = solve_verified(unknowns, sampler, rows_mod, 7, self.P)
        except (KernelEmpty, KernelTooBig, VerificationFailed) as exc:
            result = exc
        return result, draws, asked, kernels

    def fresh(self, indices):
        return [(1007, i) for i in indices]

    def test_nullity_one_at_once(self, monkeypatch):
        result, draws, asked, kernels = self.run(monkeypatch, [1])
        samples = [(7, i) for i in range(19)]
        fresh = self.fresh(range(VERIFY_SAMPLES))
        assert result == ((1,) + (0,) * 19, samples, fresh)
        assert draws == [(19, 7), (VERIFY_SAMPLES, 1007)]
        assert kernels == [19]
        assert asked == samples + fresh

    def test_one_top_up(self, monkeypatch):
        # the top-up's rows join the first ones: every row is asked once
        result, draws, asked, kernels = self.run(monkeypatch, [2, 1])
        samples = [(7, i) for i in range(19)] + [(8, i) for i in range(15)]
        assert result[1] == samples
        assert draws == [(19, 7), (20 // 4 + 10, 8), (VERIFY_SAMPLES, 1007)]
        assert kernels == [19, 34]
        assert asked == samples + result[2]

    def test_kernel_too_big_after_all_top_ups(self, monkeypatch):
        result, draws, _, kernels = self.run(monkeypatch, [2])
        assert isinstance(result, KernelTooBig)
        assert len(kernels) == MAX_TOP_UPS + 1
        assert draws == [(19, 7)] + [(15, 7 + r)
                                     for r in range(1, MAX_TOP_UPS + 1)]

    def test_empty_kernel(self, monkeypatch):
        result, _, _, kernels = self.run(monkeypatch, [0])
        assert isinstance(result, KernelEmpty)
        assert kernels == [19]

    def test_wrong_vector_fails_verification(self, monkeypatch):
        result, _, _, _ = self.run(monkeypatch, [1], bad=[(1007, 3)])
        assert isinstance(result, VerificationFailed)

    def test_wrong_vector_after_top_up_fails_verification(self,
                                                          monkeypatch):
        result, _, _, kernels = self.run(monkeypatch, [3, 1],
                                         bad=[(1007, 0)])
        assert isinstance(result, VerificationFailed)
        assert kernels == [19, 34]

    def test_unevaluable_samples_draw_more_from_the_same_seed(self,
                                                              monkeypatch):
        skip = self.fresh([0, 4])
        result, draws, _, _ = self.run(monkeypatch, [1], skip=skip)
        assert result[2] == self.fresh([1, 2, 3, 5, 6, 7, 8, 9, 10, 11])
        assert draws[1:] == [(VERIFY_SAMPLES, 1007),
                             (4 * VERIFY_SAMPLES, 1007)]
        everywhere = self.fresh(range(4 * VERIFY_SAMPLES - 9))
        result, _, _, _ = self.run(monkeypatch, [1], skip=everywhere)
        assert isinstance(result, VerificationFailed)


class TestInt64Rows:
    """At the word-size prime, rows and vectors of entries p - 1 past
    ec.GFP_PYTHON_COLUMNS columns: each product is near 2^62, so a plain
    int64 sum of a row times a vector overflows."""

    P = ec.DEFAULT_PRIME
    N = ec.GFP_PYTHON_COLUMNS + 6

    def row(self, tail, shift=0):
        # orthogonal to (1, -1, ..., -1) mod P unless shifted
        return [(sum(tail) + shift) % self.P] + list(tail)

    def test_stop_check_agrees_with_python_ints(self):
        rng = random.Random(3)
        top = [self.P - 1] * (self.N - 1)
        rows = [self.row(top), self.row(top, 1), [self.P - 1] * self.N,
                self.row([rng.randrange(self.P) for _ in top])]
        vectors = [[1] + [self.P - 1] * (self.N - 1), [self.P - 1] * self.N,
                   [rng.randrange(self.P) for _ in range(self.N)]]
        for v in vectors:
            for k in range(len(rows)):
                exact = all(ec.dot(r, v) % self.P == 0 for r in rows[k:])
                assert _annihilated(np.array(rows[k:], dtype=np.int64),
                                    v, self.P) == exact
                assert _annihilated(rows[k:], v, self.P) == exact
        assert _annihilated(np.array(rows[:1], dtype=np.int64),
                            vectors[0], self.P)

    @pytest.mark.parametrize("bad", [(), (4,)])
    def test_verification_value_agrees_with_python_ints(self, bad):
        rng = random.Random(5)
        top = [self.P - 1] * (self.N - 1)

        def row(sample):
            seed, i = sample
            if seed == 1000:
                return self.row(top, int(i in bad))
            return self.row([rng.randrange(self.P) if rng.random() < 0.5
                             else self.P - 1 for _ in top])

        def rows_mod(samples, p):
            return np.array([row(s) for s in samples],
                            dtype=np.int64).reshape(len(samples), self.N)

        def sampler(count, seed):
            return [(seed, i) for i in range(count)]

        if bad:
            with pytest.raises(VerificationFailed):
                solve_verified(self.N, sampler, rows_mod, 0, self.P)
            return
        residue, _, fresh = solve_verified(self.N, sampler, rows_mod, 0,
                                           self.P)
        assert residue == (1,) + (self.P - 1,) * (self.N - 1)
        assert len(fresh) == VERIFY_SAMPLES


# a curve whose equation needs three primes to lift
WIDE_CURVE = Parametrization(1, 2, [
    [(11, (2,)), (5, (3,)), (-1, (4,))],
    [(11, (0,)), (11, (1,)), (7, (8,))]])


def test_crt_tops_up_then_skips_a_bad_prime(monkeypatch):
    # the deciding prime's kernel is too big on the first samples, so
    # the loop tops them up; the first lift prime then loses rank and
    # is skipped, and later ones lift
    P = reconstruct_polytope(get_tropical_cycle(
        WIDE_CURVE.newton_polytopes()))
    expected = implicit_equation(WIDE_CURVE, P).coefficients
    calls = inflating_gfp_kernel(monkeypatch,
                                 lambda call, p: call in (1, 3))
    assert implicit_equation(WIDE_CURVE, P).coefficients == expected
    primes = [p for p, _ in calls]
    assert primes[0] == primes[1] == ec.DEFAULT_PRIME
    assert len(primes) > 3 and primes[1:] == sorted(set(primes),
                                                     reverse=True)
    # 24 first samples, then 25 // 4 + 10 more
    assert [n for _, n in calls] == [24] + [40] * (len(calls) - 1)

    # a lift in which every prime loses rank gives up at the sixth skip
    calls = inflating_gfp_kernel(
        monkeypatch, lambda call, p: p < ec.DEFAULT_PRIME)
    with pytest.raises(ReconstructionFailed):
        implicit_equation(WIDE_CURVE, P)
    assert len(calls) == 1 + MAX_SKIPPED_PRIMES + 1


def test_top_up_evaluates_each_row_mod_p_once(monkeypatch):
    # the first kernel is too big: the top-up adds its rows to the first
    # sample's, and the fresh samples are evaluated once more each
    asked, returned = spy_rows_mod_p(monkeypatch)
    calls = inflating_gfp_kernel(monkeypatch, lambda call, p: call == 1)
    poly = implicit_equation((DISC_A, DISC_B), DISC_POLYTOPE)
    assert poly.coefficients == (1, -4)
    (_, samples, fresh), = returned
    assert [n for _, n in calls[:2]] == [1, 11]
    assert asked == samples + fresh
    assert len(set(asked)) == len(samples) + len(fresh) == 11 + 10


def exact_rows_mod(rows):
    return lambda q: [[x % q for x in row] for row in rows]


def hadamard_bits(rows):
    return 1 + sum(sum(x * x for x in row).bit_length() for row in rows)


def spy_reconstruct(monkeypatch):
    """Record the primes and the result (or failure) of every call of
    ec.crt_rational_reconstruct."""
    real = ec.crt_rational_reconstruct
    calls = []

    def spy(residues, primes):
        try:
            out = real(residues, primes)
        except ReconstructionFailed:
            calls.append((len(primes), None))
            raise
        calls.append((len(primes), out))
        return out

    monkeypatch.setattr(ec, "crt_rational_reconstruct", spy)
    return calls


class TestLiftKernelVector:
    P = ec.DEFAULT_PRIME

    def lift(self, rows, residue):
        return lift_kernel_vector(exact_rows_mod(rows), self.P, residue,
                                  hadamard_bits(rows))

    def test_lifts_over_several_primes(self, monkeypatch):
        # the kernel (a, b, c) of these rows has entries far beyond the
        # reconstruction bound of one word-size prime
        a, b, c = 3 ** 40, -5 ** 30, 7 ** 25
        rows = [[c, 0, -a], [0, c, -b]]
        residue = kernel_vector(ec.gfp_kernel(rows, self.P))
        calls = spy_reconstruct(monkeypatch)
        assert self.lift(rows, residue) == (a, b, c)
        counts = [k for k, _ in calls]
        assert counts == list(range(1, counts[-1] + 1)) and counts[-1] > 1

    def test_check_prime_rejects_a_premature_reconstruction(self,
                                                            monkeypatch):
        # the kernel (10^6, 1), aligned to (1, 10^-6), reconstructs from
        # one prime to the wrong fraction 4295/32706; the rows mod the
        # next prime reject it, and two primes give the true vector
        rows = [[1, -10 ** 6]]
        residue = kernel_vector(ec.gfp_kernel(rows, self.P))
        calls = spy_reconstruct(monkeypatch)
        assert self.lift(rows, residue) == (10 ** 6, 1)
        assert calls[0] == (1, (1, ec.rat(4295, 32706)))
        assert [k for k, _ in calls] == [1, 2]

    def test_prime_with_too_few_rows_is_skipped(self, monkeypatch):
        # no row reduces mod the first lift prime, so it can neither
        # accept the wrong one-prime reconstruction nor give a kernel
        rows = [[1, -10 ** 6]]
        first = next(_primes_descending(self.P - 1))

        def rows_mod(q):
            return [] if q == first else exact_rows_mod(rows)(q)

        residue = kernel_vector(ec.gfp_kernel(rows, self.P))
        kernels = inflating_gfp_kernel(monkeypatch, lambda call, p: False)
        assert lift_kernel_vector(rows_mod, self.P, residue,
                                  hadamard_bits(rows)) == (10 ** 6, 1)
        assert kernels[0] == (first, 0) and [n for _, n in kernels] == [0, 1]

    def test_empty_kernel_at_the_next_prime(self):
        # a residue that is not in the kernel: the rows have full rank,
        # so the next prime finds no kernel vector at all
        rows = [[10 ** 6, 1], [1, 10 ** 6]]
        with pytest.raises(KernelEmpty):
            self.lift(rows, (1, 0))

    def test_hadamard_bound_caps_the_primes(self):
        # entries of size 1 reconstruct from one prime, so a lift that
        # fails the check there has no kernel vector to find
        with pytest.raises(ReconstructionFailed):
            self.lift([[1, 0], [0, 1]], (1, 0))


@st.composite
def plane_curves(draw):
    """Laurent plane curves t -> (x(t), y(t)): up to three terms per
    component, exponents in [-4, 4] (not all zero), coefficients in
    [-20, 20]."""
    components = []
    for _ in range(2):
        exps = draw(st.lists(st.integers(-4, 4), min_size=1, max_size=3,
                             unique=True).filter(any))
        components.append([(draw(st.integers(-20, 20).filter(bool)), (e,))
                           for e in exps])
    return Parametrization(1, 2, components)


def outcome(run):
    """The equation's basis and coefficients, or the error class."""
    try:
        F = run()
    except TropicalError as exc:
        return type(exc)
    return F.basis.exponents, F.coefficients, F.modulus


class TestExactSolve:
    """``q`` and its alias ``crt:k`` decide mod p and lift; the
    fraction-free solve over Q is the reference."""

    @settings(max_examples=40, deadline=None, derandomize=True,
              database=None)
    @given(plane_curves())
    def test_q_and_crt_match_fraction_free_reference(self, f):
        # low sample heights keep the fraction-free reference fast
        P = reconstruct_polytope(get_tropical_cycle(f.newton_polytopes()))
        expected = outcome(lambda: equation_over_q(f, P, height=8))
        for field in ("q", "crt:2"):
            assert outcome(lambda: implicit_equation(
                f, P, field, height=8)) == expected

    def test_never_calls_rational_kernel(self, monkeypatch):
        P = reconstruct_polytope(get_tropical_cycle(
            WIDE_CURVE.newton_polytopes()))
        jobs = [(WIDE_CURVE, P), ((DISC_A, DISC_B), DISC_POLYTOPE)]
        expected = [equation_over_q(f, Q).coefficients for f, Q in jobs]

        def forbidden(*args, **kwargs):
            raise AssertionError("rational_kernel called")

        monkeypatch.setattr(ec, "rational_kernel", forbidden)
        for field in ("q", "crt:2"):
            assert [implicit_equation(f, Q, field).coefficients
                    for f, Q in jobs] == expected

    def test_coefficient_divisible_by_the_deciding_prime(self):
        # t -> (p t, t^2) has the equation p^2 y - x^2: every sample's x
        # vanishes mod p, which only a negative exponent of x would forbid
        p = ec.DEFAULT_PRIME
        f = Parametrization(1, 2, [[(p, (1,))], [(1, (2,))]])
        P = reconstruct_polytope(get_tropical_cycle(f.newton_polytopes()))
        expected = equation_over_q(f, P)
        assert expected.terms() == [(p * p, (0, 1)), (-1, (2, 0))]
        for field in ("q", "crt:2"):
            assert implicit_equation(f, P, field).coefficients == \
                expected.coefficients
