"""Chow pipeline tests.

The main fixture is the rational quartic space curve
x1 = t^3 - t, x2 = t^3 + t^2, x3 = t^4 - t^3 whose tropicalization has
rays (0,1,2,3), (0,1,1,0), (0,1,0,1), (0,-3,-3,-4) modulo the all-ones
line, all with weight one.  Its Chow form is known in closed form and is
frozen below; the hypersurface cross-check uses the cuspidal cubic.
"""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle_utils import (
    chow_form_over_q,
    chow_shift_by_sweep,
    chow_to_equations,
    inflating_gfp_kernel,
    pluecker_batch,
    primal_pluecker_by_kernel,
    spy_rows_mod_p,
)
from tropimpl import chow
from tropimpl import exactcore as ec
from tropimpl.chow import (
    PluckerMonomial,
    PluckerPoly,
    PluckerStream,
    chow_fan,
    chow_form,
    chow_polytope,
    standard_monomials_of_weight,
    _pinned_shift,
    _primal_pluecker,
)
from tropimpl.errors import (
    DimensionMismatch,
    InputFormatError,
    KernelEmpty,
    KernelTooBig,
    ReconstructionFailed,
    SamplingExhausted,
    ShiftSearchFailed,
    TropicalError,
    VerificationFailed,
)
from tropimpl.implicitize import (
    Parametrization,
    get_tropical_cycle,
    reconstruct_polytope,
)
from tropimpl.interpolate import implicit_equation
from tropimpl.polyhedra import Cone, Polytope
from tropimpl.tropical import TropicalCycle, homogenize_cycle

ONES4 = (1, 1, 1, 1)

QUARTIC = Parametrization(1, 3, [
    [(1, (3,)), (-1, (1,))],        # t^3 - t
    [(1, (3,)), (1, (2,))],         # t^3 + t^2
    [(1, (4,)), (-1, (3,))],        # t^4 - t^3
])

QUARTIC_RAYS = [(0, 1, 2, 3), (0, 1, 1, 0), (0, 1, 0, 1), (0, -3, -3, -4)]

TRANSLATED_VERTICES = sorted([
    (0, 2, 3, 1), (0, 3, 1, 2), (0, 4, 1, 1), (1, 0, 4, 1),
    (1, 2, 3, 0), (1, 3, 0, 2), (1, 4, 0, 1), (1, 4, 1, 0),
    (2, 0, 1, 3), (2, 0, 4, 0), (2, 4, 0, 0), (3, 0, 0, 3),
])

CHOW_VERTICES = sorted([
    (1, 2, 3, 2), (1, 3, 1, 3), (1, 4, 1, 2), (2, 0, 4, 2),
    (2, 2, 3, 1), (2, 3, 0, 3), (2, 4, 0, 2), (2, 4, 1, 1),
    (3, 0, 1, 4), (3, 0, 4, 1), (3, 4, 0, 1), (4, 0, 0, 4),
])

# The full Chow form of the quartic, as factor multisets with integer
# coefficients, canonically scaled (leading weight (4,0,0,4) positive).
QUARTIC_CHOW_FORM = {
    ((0, 3), (0, 3), (0, 3), (0, 3)): 1,
    ((0, 1), (0, 1), (0, 1), (1, 3)): -1,
    ((0, 1), (0, 1), (0, 2), (1, 3)): -3,
    ((0, 1), (0, 2), (0, 2), (1, 3)): -3,
    ((0, 2), (0, 2), (0, 2), (1, 3)): -1,
    ((0, 1), (0, 1), (0, 3), (1, 3)): 3,
    ((0, 1), (0, 2), (0, 3), (1, 3)): 9,
    ((0, 2), (0, 2), (0, 3), (1, 3)): 6,
    ((0, 1), (0, 3), (0, 3), (1, 3)): 1,
    ((0, 2), (0, 3), (0, 3), (1, 3)): -5,
    ((0, 1), (0, 1), (1, 2), (1, 3)): 2,
    ((0, 1), (0, 2), (1, 2), (1, 3)): 1,
    ((0, 1), (0, 1), (1, 3), (1, 3)): 2,
    ((0, 1), (0, 2), (1, 3), (1, 3)): -2,
    ((0, 2), (0, 2), (1, 3), (1, 3)): 4,
    ((0, 1), (0, 3), (1, 3), (1, 3)): 1,
    ((0, 1), (1, 2), (1, 3), (1, 3)): -4,
    ((0, 1), (0, 1), (0, 1), (2, 3)): -1,
    ((0, 1), (0, 1), (0, 2), (2, 3)): -3,
    ((0, 1), (0, 2), (0, 2), (2, 3)): -3,
    ((0, 2), (0, 2), (0, 2), (2, 3)): -1,
    ((0, 1), (0, 1), (0, 3), (2, 3)): 4,
    ((0, 1), (0, 2), (0, 3), (2, 3)): 11,
    ((0, 2), (0, 2), (0, 3), (2, 3)): 7,
    ((0, 1), (0, 3), (0, 3), (2, 3)): -2,
    ((0, 2), (0, 3), (0, 3), (2, 3)): -10,
    ((0, 3), (0, 3), (0, 3), (2, 3)): 2,
    ((0, 1), (0, 1), (1, 2), (2, 3)): 2,
    ((0, 1), (0, 2), (1, 2), (2, 3)): 1,
    ((0, 1), (0, 1), (1, 3), (2, 3)): 9,
    ((0, 1), (0, 2), (1, 3), (2, 3)): -1,
    ((0, 2), (0, 2), (1, 3), (2, 3)): 6,
    ((0, 1), (0, 3), (1, 3), (2, 3)): 2,
    ((0, 2), (0, 3), (1, 3), (2, 3)): -2,
    ((0, 1), (1, 2), (1, 3), (2, 3)): -6,
    ((0, 1), (1, 3), (1, 3), (2, 3)): 2,
    ((0, 1), (0, 1), (2, 3), (2, 3)): 9,
    ((0, 1), (0, 2), (2, 3), (2, 3)): 2,
    ((0, 2), (0, 2), (2, 3), (2, 3)): 2,
    ((0, 1), (0, 3), (2, 3), (2, 3)): -4,
    ((0, 1), (1, 2), (2, 3), (2, 3)): -2,
}

CUSP = Parametrization(1, 2, [[(1, (2,))], [(1, (3,))]])

TWISTED_CUBIC = Parametrization(1, 3, [[(1, (1,))], [(1, (2,))], [(1, (3,))]])

# x = (t, t^3, t^4 + 1), a second rational quartic in P^3
QUARTIC_2 = Parametrization(1, 3, [
    [(1, (1,))], [(1, (3,))], [(1, (4,)), (1, (0,))]])

# x = (t, t^2, t + 1), a conic in the plane x3 = x0 + x1 of P^3
CONIC = Parametrization(1, 3, [
    [(1, (1,))], [(1, (2,))], [(1, (1,)), (1, (0,))]])

# x = (s, t, st, s^2 + t + 1), a surface in P^4
SURFACE = Parametrization(2, 4, [
    [(1, (1, 0))], [(1, (0, 1))], [(1, (1, 1))],
    [(1, (2, 0)), (1, (0, 1)), (1, (0, 0))]])


def quartic_cycle():
    return TropicalCycle(
        4, 2, [(Cone([r], [ONES4], 4), 1) for r in QUARTIC_RAYS])


def first_sample(f, d, n, seed):
    """The first generic Chow-hypersurface sample of random.Random(seed),
    as a mapping from index tuples to Pluecker coordinates."""
    return PluckerStream(f, d, n)(1, seed)[0]


class TestPluckerMonomial:
    def test_factors_sorted_and_weight(self):
        m = PluckerMonomial([(2, 3), (0, 1), (2, 3)], 1, 3)
        assert m.factors == ((0, 1), (2, 3), (2, 3))
        assert m.degree == 3
        assert m.weight() == (1, 1, 2, 2)

    def test_standardness(self):
        assert PluckerMonomial([(0, 1), (2, 3)], 1, 3).is_standard()
        # (0,3) then (1,2) fails in the second component
        assert not PluckerMonomial([(0, 3), (1, 2)], 1, 3).is_standard()

    def test_validation(self):
        with pytest.raises(ValueError):
            PluckerMonomial([], 1, 3)
        with pytest.raises(ValueError):
            PluckerMonomial([(1, 1)], 1, 3)
        with pytest.raises(ValueError):
            PluckerMonomial([(0, 4)], 1, 3)
        with pytest.raises(ValueError):
            PluckerMonomial([(0, 1, 2)], 1, 3)

    def test_evaluate(self):
        m = PluckerMonomial([(0, 1), (0, 1), (2, 3)], 1, 3)
        values = {(0, 1): 2, (2, 3): ec.rat(1, 4)}
        assert m.evaluate(values) == 1


class TestPluckerPoly:
    def poly(self):
        return PluckerPoly(1, 3, [
            (PluckerMonomial([(0, 1), (2, 3)], 1, 3), 2),
            (PluckerMonomial([(0, 3), (0, 3)], 1, 3), -1),
        ])

    def test_term_order_weight_descending(self):
        # weight (2,0,0,2) of p03^2 beats (1,1,1,1) lexicographically
        assert [m.factors for m, _ in self.poly().terms] == [
            ((0, 3), (0, 3)), ((0, 1), (2, 3))]

    def test_coefficient_lookup(self):
        p = self.poly()
        assert p.coefficient([(2, 3), (0, 1)]) == 2
        assert p.coefficient([(0, 2), (1, 3)]) == 0

    def test_rejects_non_standard_and_mixed_degree(self):
        bad = PluckerMonomial([(0, 3), (1, 2)], 1, 3)
        with pytest.raises(ValueError):
            PluckerPoly(1, 3, [(bad, 1)])
        with pytest.raises(ValueError):
            PluckerPoly(1, 3, [
                (PluckerMonomial([(0, 1)], 1, 3), 1),
                (PluckerMonomial([(0, 1), (0, 1)], 1, 3), 1)])

    def test_json_roundtrip(self):
        p = self.poly()
        again = PluckerPoly.from_json(p.to_json())
        assert again == p
        with pytest.raises(InputFormatError):
            PluckerPoly.from_json({"d": 1, "n": 3})

    def test_digit_string_factor_rejected(self):
        # "01" is not the factor (0, 1); no command reads a Chow form, so
        # this wire field is checked here rather than through the CLI
        wire = self.poly().to_json()
        wire["terms"][0]["factors"][0] = "".join(
            map(str, wire["terms"][0]["factors"][0]))
        with pytest.raises(InputFormatError, match="not an array"):
            PluckerPoly.from_json(wire)

    def test_zero_polynomial_rejected(self):
        with pytest.raises(ValueError):
            PluckerPoly(1, 3, [])
        with pytest.raises(ValueError):
            PluckerPoly(1, 3, [(PluckerMonomial([(0, 1)], 1, 3), 0)])


class TestStandardMonomials:
    def test_weight_2222(self):
        mons = standard_monomials_of_weight((2, 2, 2, 2), 1, 3)
        assert [m.factors for m in mons] == [
            ((0, 1), (0, 1), (2, 3), (2, 3)),
            ((0, 1), (0, 2), (1, 3), (2, 3)),
            ((0, 2), (0, 2), (1, 3), (1, 3)),
        ]

    def test_weight_4004(self):
        mons = standard_monomials_of_weight((4, 0, 0, 4), 1, 3)
        assert [m.factors for m in mons] == [((0, 3),) * 4]

    def test_single_variable_weight(self):
        mons = standard_monomials_of_weight((1, 0, 1, 1), 2, 3)
        assert [m.factors for m in mons] == [((0, 2, 3),)]

    def test_infeasible_weight_is_empty(self):
        # coordinate 1 needs three factors but the degree only allows two
        assert standard_monomials_of_weight((0, 3, 1, 0), 1, 3) == []

    def test_precondition_errors(self):
        with pytest.raises(ValueError):
            standard_monomials_of_weight((1, 1, 1), 1, 3)
        with pytest.raises(ValueError):
            standard_monomials_of_weight((-1, 1, 1, 1), 1, 3)
        with pytest.raises(ValueError):
            standard_monomials_of_weight((1, 1, 1, 0), 1, 3)

    def test_all_outputs_standard_and_on_weight(self):
        rng = random.Random(7)
        for _ in range(20):
            u = tuple(rng.randint(0, 3) for _ in range(4))
            if sum(u) % 2:
                continue
            for m in standard_monomials_of_weight(u, 1, 3):
                assert m.is_standard()
                assert m.weight() == u


class TestChowFan:
    def test_quartic_sixteen_cones(self):
        fan = chow_fan(quartic_cycle(), 1)
        assert len(fan) == 16
        assert fan.pure_dim == 3
        assert all(c.dim - c.lineality_dim == 2 for c, _ in fan)
        # the all-ones line stays in every lineality space
        assert all(c.contains(ONES4) and c.contains((-1,) * 4) for c, _ in fan)

    def test_hypersurface_is_neutral(self):
        affine = get_tropical_cycle(CUSP.newton_polytopes())
        C = homogenize_cycle(affine)
        out = chow_fan(C, 1)
        want = {(c.canonical_key(), w) for c, w in C}
        got = {(c.canonical_key(), w) for c, w in out}
        assert got == want

    def test_all_ones_ray_collapses_to_empty(self):
        # a cycle supported on the lineality direction of the linear
        # space meets no summand transversally
        C = TropicalCycle(3, 1, [(Cone([(1, 1, 1)], [], 3), 1)])
        out = chow_fan(C, 0)
        assert len(out) == 0

    def test_dimension_checks(self):
        with pytest.raises(DimensionMismatch):
            chow_fan(quartic_cycle(), 2)
        with pytest.raises(DimensionMismatch):
            chow_fan(quartic_cycle(), 3)


class TestChowSample:
    def test_pluecker_relation_gr24(self):
        for seed in range(5):
            p = first_sample(QUARTIC, 1, 3, seed)
            rel = (p[(0, 1)] * p[(2, 3)] - p[(0, 2)] * p[(1, 3)]
                   + p[(0, 3)] * p[(1, 2)])
            assert rel == 0

    def test_pluecker_relations_gr25(self):
        from itertools import combinations
        f = Parametrization(1, 4, [
            [(1, (1,))], [(1, (2,))], [(1, (3,))], [(2, (4,)), (1, (1,))]])
        for seed in range(3):
            p = first_sample(f, 1, 4, seed)
            for a, b, c, d in combinations(range(5), 4):
                rel = (p[(a, b)] * p[(c, d)] - p[(a, c)] * p[(b, d)]
                       + p[(a, d)] * p[(b, c)])
                assert rel == 0

    def test_quartic_chow_form_vanishes_on_samples(self):
        terms = [(PluckerMonomial(fs, 1, 3), c)
                 for fs, c in QUARTIC_CHOW_FORM.items()]
        form = PluckerPoly(1, 3, terms)
        for seed in range(10):
            assert form.evaluate(first_sample(QUARTIC, 1, 3, seed)) == 0

    def test_primal_from_span_matches_dual_minors(self):
        # the primal coordinates of the plane spanned by alpha and x are
        # the complementary 2x2 minors with alternating signs, up to one
        # common scalar
        rng = random.Random(11)
        for _ in range(10):
            alpha = [rng.randint(-9, 9) for _ in range(4)]
            x = [rng.randint(-9, 9) for _ in range(4)]
            rows = [alpha, x]
            if ec.rational_rank(rows) < 2:
                continue
            primal = _primal_pluecker(rows, 1, 3)

            def q(i, j):
                return alpha[i] * x[j] - alpha[j] * x[i]

            dual = (q(2, 3), -q(1, 3), q(1, 2), q(0, 3), -q(0, 2), q(0, 1))
            scaled = ec.canonicalize_rational_vector(primal)
            assert scaled == ec.canonicalize_rational_vector(dual)

    def test_primal_from_span_matches_kernel_minors(self):
        # the complementary minors of the span rows are the maximal minors
        # of a kernel basis up to one common scalar, for every (d, n); a
        # span that loses rank has a kernel too big and every minor 0
        rng = random.Random(300)
        for _ in range(300):
            n = rng.randint(1, 6)
            d = rng.randint(0, n - 1)
            rows = [[ec.rat(rng.randint(-4, 4), rng.randint(1, 3))
                     for _ in range(n + 1)] for _ in range(n - d)]
            if rng.random() < 0.2:
                rows[-1] = [2 * x for x in rows[0]]
            primal = _primal_pluecker(rows, d, n)
            reference = primal_pluecker_by_kernel(rows, d, n)
            if reference is None:
                assert not any(primal)
            else:
                assert ec.canonicalize_rational_vector(primal) == \
                    ec.canonicalize_rational_vector(reference)

    def test_dimension_check(self):
        with pytest.raises(DimensionMismatch):
            PluckerStream(QUARTIC, 1, 4)

    def test_stream_matches_per_call_batches(self):
        # counts out of order, and seeds interleaved, as top-ups and the
        # verification ask for them
        stream = PluckerStream(QUARTIC, 1, 3)
        for count, seed in [(12, 0), (5, 0), (10, 1000), (30, 0), (3, 1000),
                            (30, 0), (0, 1), (7, 1), (20, 0)]:
            assert stream(count, seed) == pluecker_batch(
                QUARTIC, 1, 3, count, seed)

    def test_draw_budget_exhausted(self, monkeypatch):
        # every draw degenerate: 100 draws per sample asked for, then
        # SamplingExhausted; a later call draws afresh
        draws = []

        def degenerate(*args):
            draws.append(1)

        monkeypatch.setattr(chow, "_draw_pluecker", degenerate)
        stream = PluckerStream(QUARTIC, 1, 3)
        with pytest.raises(SamplingExhausted):
            stream(2, 0)
        assert len(draws) == 200
        with pytest.raises(SamplingExhausted):
            stream(3, 0)
        assert len(draws) == 200 + 300

    def test_search_draws_each_sample_once(self, monkeypatch):
        # the solve, its top-ups and its verification read one stream, so
        # no Pluecker vector is drawn twice
        drawn = []
        draw = chow._draw_pluecker

        def spy(*args):
            p = draw(*args)
            if p is not None:
                drawn.append(p)
            return p

        monkeypatch.setattr(chow, "_draw_pluecker", spy)
        _, shift, _, _ = chow_polytope(chow_fan(quartic_cycle(), 1), 1,
                                       QUARTIC, seed=1)
        assert shift == (1, 0, 0, 1)
        assert drawn
        assert len(set(drawn)) == len(drawn)


class TestChowPolytope:
    def test_quartic_full_pipeline(self):
        translated, shift, P, form = chow_polytope(
            chow_fan(quartic_cycle(), 1), 1, QUARTIC)
        assert sorted(translated.vertices) == TRANSLATED_VERTICES
        assert shift == (1, 0, 0, 1)
        assert sorted(P.vertices) == CHOW_VERTICES
        assert {m.factors: c for m, c in form.terms} == QUARTIC_CHOW_FORM
        # every lattice point sits on the degree hyperplane
        assert {sum(u) for u in P.lattice_points()} == {8}

    def test_degree_hint_and_report_all(self):
        # every shift of degree 4, not only the first the search accepts:
        # the translate's coordinates sum to 6, so the shifts sum to 2
        translated = Polytope(TRANSLATED_VERTICES)
        stream = PluckerStream(QUARTIC, 1, 3)
        accepted = {}
        for s in itertools.product(range(3), repeat=4):
            if sum(s) != 2:
                continue
            try:
                accepted[s] = chow_form(stream, translated.translate(s))
            except (KernelEmpty, KernelTooBig, VerificationFailed):
                continue
        assert list(accepted) == [(1, 0, 0, 1)]
        assert sorted(translated.translate((1, 0, 0, 1)).vertices) \
            == CHOW_VERTICES
        form = accepted[(1, 0, 0, 1)]
        assert {m.factors: c for m, c in form.terms} == QUARTIC_CHOW_FORM

    def test_wrong_degree_hint_fails(self, monkeypatch):
        # the quartic has degree 4; a sweep that stops at 3 finds nothing
        monkeypatch.setattr(chow, "DEFAULT_MAX_DEGREE", 3)
        with pytest.raises(ShiftSearchFailed):
            chow_polytope(chow_fan(quartic_cycle(), 1), 1, QUARTIC)

    def test_hypersurface_case(self):
        affine = get_tropical_cycle(CUSP.newton_polytopes())
        C = homogenize_cycle(affine)
        translated, shift, P, _ = chow_polytope(chow_fan(C, 1), 1, CUSP)
        assert sorted(translated.vertices) == [(0, 3, 0), (1, 0, 2)]
        assert shift == (2, 0, 1)
        assert sorted(P.vertices) == [(2, 3, 1), (3, 0, 3)]


def pluecker_weight(factors, n):
    u = [0] * (n + 1)
    for T in factors:
        for i in T:
            u[i] += 1
    return tuple(u)


@st.composite
def hypersimplex_polytopes(draw):
    """(n, d, degree, points): weights of degree-many (d+1)-subsets of
    {0..n}, so every point lies in degree * Delta(d+1, n+1), and for each
    coordinate i one point whose subsets all contain i, so every
    coordinate maximum is the degree."""
    n = draw(st.integers(1, 5))
    d = draw(st.integers(0, n - 1))
    degree = draw(st.integers(1, 5))
    subsets = list(itertools.combinations(range(n + 1), d + 1))

    def weights(choices):
        return st.lists(st.sampled_from(choices), min_size=degree,
                        max_size=degree).map(
                            lambda fs: pluecker_weight(fs, n))

    points = [draw(weights([T for T in subsets if i in T]))
              for i in range(n + 1)]
    points += draw(st.lists(weights(subsets), max_size=4))
    return n, d, degree, points


class TestPinnedShift:
    @pytest.mark.parametrize("f,seed", [
        (CUSP, 0), (QUARTIC, 0), (QUARTIC, 1), (QUARTIC, 7),
        (TWISTED_CUBIC, 0), (QUARTIC_2, 0), (CONIC, 0), (SURFACE, 0),
    ], ids=["cusp", "quartic-0", "quartic-1", "quartic-7", "twisted-cubic",
            "quartic-2", "conic", "surface"])
    def test_pin_matches_sweep(self, f, seed):
        # the quartic from its given cycle, as criterion 07 runs it; the
        # others from the tropicalization, as a chow job without a cycle
        C = quartic_cycle() if f is QUARTIC else homogenize_cycle(
            get_tropical_cycle(f.newton_polytopes()))
        fan = chow_fan(C, f.d)
        translated, shift, P, form = chow_polytope(fan, f.d, f, seed=seed)
        assert translated == reconstruct_polytope(fan.negated(), seed)
        assert shift == chow_shift_by_sweep(
            translated, f.d, PluckerStream(f, f.d, f.n), seed)
        assert P == translated.translate(shift)
        assert set(form.weights()) <= set(P.lattice_points())

    @settings(max_examples=100, deadline=None, derandomize=True,
              database=None)
    @given(hypersimplex_polytopes())
    def test_pin_recovers_degree_and_minima(self, case):
        n, d, degree, points = case
        P = Polytope(points)
        minima = tuple(min(v[i] for v in P.vertices) for i in range(n + 1))
        translated = P.translate(tuple(-m for m in minima))
        shift = _pinned_shift(translated, d)
        assert shift == minima
        assert sum(translated.vertices[0]) + sum(shift) == (d + 1) * degree

    @pytest.mark.parametrize("vertices", [
        # coordinate maxima 6 and sum 3: the degree would be 3/2
        [(2, 0, 0, 1), (0, 2, 1, 0)],
        # degree (4 - 2)/2 = 1, below the maximum 2 of coordinate 0
        [(2, 0, 0, 0), (0, 1, 1, 0)],
        # a point at the origin pins degree 0
        [(0, 0, 0, 0)],
    ], ids=["non-integral", "maximum-above-degree", "degree-zero"])
    def test_translates_no_chow_polytope_has(self, vertices):
        with pytest.raises(ShiftSearchFailed):
            _pinned_shift(Polytope(vertices), 1)


class TestChowForm:
    def test_quartic_matches_frozen_form(self):
        form = chow_form(PluckerStream(QUARTIC, 1, 3), Polytope(CHOW_VERTICES),
                         seed=0)
        got = {m.factors: c for m, c in form.terms}
        assert got == QUARTIC_CHOW_FORM

    def test_seed_invariance(self):
        P = Polytope(CHOW_VERTICES)
        a = chow_form(PluckerStream(QUARTIC, 1, 3), P, seed=1)
        b = chow_form(PluckerStream(QUARTIC, 1, 3), P, seed=99)
        assert a == b

    def test_thirty_fresh_samples_vanish(self):
        form = chow_form(PluckerStream(QUARTIC, 1, 3), Polytope(CHOW_VERTICES),
                         seed=0)
        for seed in range(1000, 1030):
            assert form.evaluate(first_sample(QUARTIC, 1, 3, seed)) == 0

    def test_matches_rational_reference_on_quartic(self):
        P = Polytope(CHOW_VERTICES)
        assert chow_form(PluckerStream(QUARTIC, 1, 3), P, seed=0) == \
            chow_form_over_q(PluckerStream(QUARTIC, 1, 3), P, seed=0)

    def test_matches_rational_reference_on_cusp(self):
        P = Polytope([(2, 3, 1), (3, 0, 3)])
        assert chow_form(PluckerStream(CUSP, 1, 2), P, seed=0) == \
            chow_form_over_q(PluckerStream(CUSP, 1, 2), P, seed=0)

    def test_wrong_shift_rejected_mod_p_as_over_q(self, monkeypatch):
        # the first shift a sweep of the quartic tries: over Q its form
        # fails on fresh samples, and mod p it must fail there too,
        # before any lift
        P = Polytope(TRANSLATED_VERTICES).translate((0, 0, 0, 2))

        def failure(solver):
            with pytest.raises(TropicalError) as info:
                solver(PluckerStream(QUARTIC, 1, 3), P, seed=0)
            return type(info.value)

        assert failure(chow_form_over_q) is VerificationFailed

        def no_lift(*args):
            raise AssertionError("a rejected shift was lifted")

        monkeypatch.setattr(chow, "lift_kernel_vector", no_lift)
        assert failure(chow_form) is VerificationFailed

    def test_lift_must_annihilate_every_sample_row(self, monkeypatch):
        # the lift stops on rows mod one further prime; the exact check on
        # every sampled row rejects a lift that is wrong over Q
        P = Polytope([(2, 3, 1), (3, 0, 3)])
        lift = chow.lift_kernel_vector

        def off_by_one(*args):
            coeffs = list(lift(*args))
            coeffs[-1] += 1
            return tuple(coeffs)

        monkeypatch.setattr(chow, "lift_kernel_vector", off_by_one)
        with pytest.raises(ReconstructionFailed):
            chow_form(PluckerStream(CUSP, 1, 2), P, seed=0)

    def test_top_up_evaluates_each_row_mod_p_once(self, monkeypatch):
        # the first kernel is too big: the top-up adds its rows to the
        # first samples', and the fresh samples are evaluated once each
        asked, returned = spy_rows_mod_p(monkeypatch, chow)
        calls = inflating_gfp_kernel(monkeypatch,
                                     lambda call, p: call == 1)
        form = chow_form(PluckerStream(CUSP, 1, 2),
                         Polytope([(2, 3, 1), (3, 0, 3)]), seed=0)
        assert form == chow_form_over_q(PluckerStream(CUSP, 1, 2),
                                        Polytope([(2, 3, 1), (3, 0, 3)]))
        (_, samples, fresh), = returned
        assert calls[0][1] < calls[1][1] == len(samples)
        keys = [tuple(values.items()) for values in asked]
        assert keys == [tuple(values.items())
                        for values in samples + fresh]
        assert len(set(keys)) == len(keys)

    def test_hypersurface_matches_plane_curve_pipeline(self):
        # the Chow form of a plane curve is its defining polynomial under
        # x_j -> (-1)^(n-j) p_(complement of j), up to one global sign
        affine = get_tropical_cycle(CUSP.newton_polytopes())
        C = homogenize_cycle(affine)
        _, _, P, _ = chow_polytope(chow_fan(C, 1), 1, CUSP)
        form = chow_form(PluckerStream(CUSP, 1, 2), P, seed=0)

        F = implicit_equation(CUSP, Polytope([(0, 0), (3, 0), (0, 2)]))
        degree = 3
        expected = {}
        for coeff, (a1, a2) in F.terms():
            a = (degree - a1 - a2, a1, a2)
            u = tuple(degree - ai for ai in a)
            sign = (-1) ** sum((2 - j) * ai for j, ai in enumerate(a))
            expected[u] = sign * coeff
        got = {m.weight(): c for m, c in form.terms}
        assert set(got) == set(expected)
        ratios = {ec.div_exact(got[u], expected[u]) for u in got}
        assert ratios == {1} or ratios == {-1}


class TestChowToEquations:
    def form(self):
        return PluckerPoly(1, 3, [
            (PluckerMonomial(fs, 1, 3), c)
            for fs, c in QUARTIC_CHOW_FORM.items()])

    def test_equations_vanish_on_the_curve(self):
        rng = random.Random(3)
        alphas = [[rng.randint(-9, 9) for _ in range(4)] for _ in range(2)]
        polys = chow_to_equations(self.form(), 1, 3, alphas)
        assert len(polys) == 2
        for _ in range(10):
            t = (ec.rat(rng.randint(-30, 30), rng.randint(1, 30)),)
            x = (1,) + QUARTIC.evaluate(t)
            for poly in polys:
                assert poly.evaluate(x) == 0
        # at least one equation is nontrivial away from the curve
        assert any(poly.evaluate((1, 2, 3, 5)) != 0 for poly in polys)

    def test_unit_alpha_off_the_curve_gives_nonzero_equation(self):
        polys = chow_to_equations(self.form(), 1, 3, [(0, 1, 0, 0)])
        assert len(polys) == 1
        assert polys[0].terms()

    def test_alpha_on_the_curve_degenerates_to_zero(self):
        # (1, 0, 0, 0) is the t = 0 point of the curve, so every plane
        # through it meets the curve and the substitution collapses
        with pytest.raises(ValueError):
            chow_to_equations(self.form(), 1, 3, [(1, 0, 0, 0)])

    def test_substitution_is_antisymmetric_at_alpha(self):
        # p_ij(alpha, x) vanishes at x = alpha, so every equation does too
        alpha = (3, -2, 5, 7)
        poly, = chow_to_equations(self.form(), 1, 3, [alpha])
        assert poly.evaluate(alpha) == 0
        assert poly.evaluate(tuple(2 * a for a in alpha)) == 0

    def test_rank_deficient_alpha_rejected(self):
        with pytest.raises(ValueError):
            chow_to_equations(self.form(), 1, 3, [(0, 0, 0, 0)])

    def test_dimension_validation(self):
        with pytest.raises(DimensionMismatch):
            chow_to_equations(self.form(), 1, 2, [(1, 0, 0)])
        with pytest.raises(DimensionMismatch):
            chow_to_equations(self.form(), 1, 3, [(1, 0, 0)])
