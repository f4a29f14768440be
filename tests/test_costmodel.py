import math
from fractions import Fraction

import numpy as np
import pytest

from stabsparse import costmodel as cm
from stabsparse import magic

XI1 = 4 - 2 * math.sqrt(2)


class TestClosedFormCounts:
    def test_sota_reference(self):
        # (2 + sqrt 2)(4 - 2 sqrt 2) = 4 exactly, so delta = 0.1 gives 40
        assert cm.k_sota(XI1, 0.1) == 40

    def test_quadratic_baseline(self):
        assert cm.k_iid_quadratic(1.0, 1.0) == 1

    @pytest.mark.parametrize("x, want", [
        (2.0**60, 2**60),  # an integer-valued float is its own ceiling
        (1e15 + 0.5, 10**15 + 1),
        (100 + 1e-14, 100),  # one ulp above an integer is float noise
    ])
    def test_int_ceil(self, x, want):
        assert cm._int_ceil(x) == want

    def test_large_count_is_the_ceiling(self):
        xi = magic.magic_model(math.pi / 4, 300).xi_t
        assert cm.k_sota(xi, 0.3) == math.ceil(cm.SOTA_PREFACTOR * xi / 0.3)

    def test_tight_to_sota_ratio(self):
        xi, delta = 1.7e5, 1.3e-3
        ratio = cm.k_iid_tight(xi, delta) / cm.k_sota(xi, delta)
        assert ratio == pytest.approx(math.sqrt(2) / (2 + math.sqrt(2)), abs=1e-6)

    def test_validation(self):
        with pytest.raises(ValueError):
            cm.k_sota(0.5, 0.1)
        with pytest.raises(ValueError):
            cm.k_iid_tight(2.0, 0.0)
        # delta^3 underflows to zero (delta^2 does not)
        for call in (lambda: cm.k_iid_quadratic(2.0, 1e-110), lambda: cm.optimal_beta(1e-110),
                     lambda: cm.f_t_optimal(1e-110, 2.0), lambda: cm.regime(4, 1e-110, XI1)):
            with pytest.raises(ValueError, match="underflows"):
                call()
        # the count itself overflows to inf
        with pytest.raises(ValueError, match="finite"):
            cm.k_iid_quadratic(1e300, 1e-10)
        with pytest.raises(ValueError, match="finite"):
            cm.f_t_optimal(0.3, math.inf)


class TestKTheorem1:
    def test_gamma_one_is_iid(self):
        assert cm.k_theorem1(3.0, 0.4, 1.0) == math.ceil(2.0 / 0.16)

    def test_gamma_at_least_xi_rejected(self):
        with pytest.raises(ValueError):
            cm.k_theorem1(3.5448, 0.4, 16.0)

    def test_reference_value(self):
        assert cm.k_theorem1(100.0, 0.4, 16.0) == 525


class TestBetaAndSupplements:
    def test_beta(self):
        assert cm.optimal_beta(0.05) == pytest.approx(0.025)

    def test_f_t_at_pow2_boundary(self):
        # delta = 0.1, xi = 35 sits right at the 2t-1 supply boundary
        assert cm.f_t_optimal(0.1, 35.0) == 35

    def test_f_t_vanishes_slower_than_xi(self):
        for delta in (0.1, 0.01, 0.001):
            xi = 100.0
            assert cm.f_t_optimal(delta, xi) / xi == pytest.approx(10 * delta, abs=0.5 / xi)


class TestKCorrelated:
    def test_f0_reduces_to_tight_prefactor(self):
        for xi, delta in [(10.0, 0.3), (1e4, 1e-3), (1e6, 1e-4)]:
            assert cm.k_correlated_raw(xi, delta, 0.0) == pytest.approx(
                math.sqrt(2) * xi / delta, rel=1e-6
            )
            k = cm.k_correlated(xi, delta, 0)
            assert abs(k - cm.k_iid_tight(xi, delta)) <= 1

    def test_negative_f_rejected(self):
        with pytest.raises(ValueError, match="f_t must be nonnegative"):
            cm.k_correlated_raw(100.0, 0.1, -1.0)

    def test_asymptotic_constant(self):
        xi = XI1**100
        delta = 1e-4
        k = cm.k_correlated(xi, delta, cm.f_t_optimal(delta, xi))
        assert k * delta / xi == pytest.approx(math.sqrt(402) - 20, rel=0.01)

    def test_ratio_against_sota(self):
        xi = XI1**100
        delta = 1e-4
        k = cm.k_correlated(xi, delta, cm.f_t_optimal(delta, xi))
        ratio = cm.k_sota(xi, delta) / k
        assert 67.8 <= ratio <= 68.9

    def test_ratio_against_tight(self):
        xi = XI1**100
        delta = 1e-4
        k = cm.k_correlated(xi, delta, cm.f_t_optimal(delta, xi))
        assert cm.k_iid_tight(xi, delta) / k == pytest.approx(28.28, abs=0.5)

    def test_cubic_consistency_random(self):
        rng = np.random.default_rng(0)
        for _ in range(1000):
            xi = float(np.exp(rng.uniform(0, 12)))
            delta = float(np.exp(rng.uniform(np.log(1e-4), 0)))
            f_t = int(rng.integers(0, 50))
            k = cm.k_correlated(xi, delta, f_t)
            p = cm._cubic(xi, delta, float(f_t))
            assert k % (f_t + 1) == 0
            assert p(k) >= 0
            if k > f_t + 1:
                assert p(k - (f_t + 1)) < 0

    def test_exact_minimum_beyond_float_integers(self):
        # above 2^53 neighbouring integers share a float; the count is still
        # the smallest group multiple at which the cubic, in rationals, is >= 0;
        # at (197, 0.9) the float root sits below it and the bracket steps up
        cases = [(t, delta) for t in (200, 250, 300) for delta in (0.3, 0.01, 0.001)]
        for t, delta in cases + [(197, 0.9)]:
            xi = XI1**t
            f_t = cm.f_t_optimal(delta, xi)
            k = cm.k_correlated(xi, delta, f_t)
            x, d = Fraction(xi), Fraction(delta)

            def p(k):
                return d * d * k**3 + 4 * f_t * k**2 - (2 * x * x + f_t**2) * k - f_t**3

            assert k % (f_t + 1) == 0
            assert p(k) >= 0
            assert k <= f_t + 1 or p(k - (f_t + 1)) < 0

    def test_monotone_in_f(self):
        # the continuous root decreases with the supplement count up to
        # the optimum; group rounding may wiggle by at most f + 1
        xi, delta = XI1**40, 0.05
        f_max = cm.f_t_optimal(delta, xi)
        fs = list(range(0, f_max + 1, max(1, f_max // 17)))
        roots = [cm.k_correlated_raw(xi, delta, float(f)) for f in fs]
        assert all(a >= b for a, b in zip(roots, roots[1:]))
        for f, root in zip(fs, roots):
            assert 0 <= cm.k_correlated(xi, delta, f) - root <= f + 1

    def test_improvement_threshold(self):
        xi = XI1**30
        delta = 0.01
        k = cm.k_correlated(xi, delta, cm.f_t_optimal(delta, xi))
        assert k * delta / xi <= 0.06


class TestRegime:
    def test_crossover_near_150(self):
        t_cross = cm.exact_vs_strong_crossover(XI1)
        assert 140 <= t_cross <= 160

    def test_outcome_pair_crossover_is_earlier(self):
        assert cm.outcome_crossover(XI1) < cm.exact_vs_strong_crossover(XI1)

    def test_chi_overrides(self):
        assert cm.chi_t(4, table=cm.CHI_TABLE) == 4
        assert cm.chi_t(8, table=cm.CHI_TABLE) == 12
        assert cm.chi_t(16, table=cm.CHI_TABLE) == 108
        assert cm.chi_t(5, table=cm.CHI_TABLE) == pytest.approx(2 ** (0.396 * 5))

    def test_t27_equivalence(self):
        t_equiv = math.log(68.28) / math.log(XI1)
        assert round(t_equiv) == 27

    def test_flags_at_tiny_delta(self):
        # for small enough delta every comparison favors exact simulation
        point = cm.regime(8, 1e-6, XI1)
        assert point.flags.exact_fewer_states
        assert point.flags.strong_fewer_states
        assert point.cheapest == cm.EXACT_SIM

    def test_strong_between_weak_and_exact(self):
        # at t = 91 the cheapest regime turns from strong to exact near delta = 4e-6
        assert cm.regime(91, 4.1e-6, XI1).cheapest == cm.STRONG
        assert cm.regime(91, 4.0e-6, XI1).cheapest == cm.EXACT_SIM
        assert cm.regime(91, 3.9e-6, XI1).cheapest == cm.EXACT_SIM

    def test_flags_at_large_delta(self):
        point = cm.regime(40, 1.0, XI1)
        assert not point.flags.strong_fewer_states
        assert point.cheapest == cm.WEAK_CORRELATED

    def test_validation(self):
        with pytest.raises(ValueError):
            cm.regime(0, 0.1, XI1)
        assert cm.regime(cm.T_MAX, 0.1, XI1).chi_t ** 2 < math.inf
        with pytest.raises(ValueError, match=rf"\[1, {cm.T_MAX}\]"):
            cm.regime(cm.T_MAX + 1, 0.1, XI1)
        with pytest.raises(ValueError):
            cm.regime(4, 1.5, XI1)


class TestCostPoint:
    def test_fields_populated(self):
        m = magic.magic_model(math.pi / 4, 1)
        point = cm.cost_point(12, 0.05, m.xi_t, gamma=2.0)
        assert point.k_correlated <= point.k_sota
        assert point.k_theorem1 is not None
        assert point.beta == pytest.approx(0.025)
        assert point.f_t == cm.f_t_optimal(0.05, m.xi_t**12)

    def test_correlated_beats_sota_in_regime(self):
        # the headline comparison holds on the whole small-delta grid
        for t in (8, 12, 20, 40):
            for delta in (0.1, 0.05, 0.01):
                point = cm.cost_point(t, delta, XI1)
                assert point.k_correlated <= point.k_sota
