"""Closed-form point-process math against independent oracles: the scalar
laws and the quadrature of tests/_reference.py for integrals, inverse-CDF
sampling + KS for distributions, Monte-Carlo for expectations.  The
Gaussian KL and the logit-normal draw of churnkit._kernels are checked
here too."""

import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import integrate, special, stats

import _reference as ref
import churnkit
from churnkit import _kernels as K
from churnkit.errors import NumericalError
from churnkit.tppmath import (
    WT_ZERO_EPS,
    _walk_from_mode,
    expected_gap,
    gap_at,
    zt_poisson_at,
)


def _draw_gaps(a, wt, rng, n):
    """n inverse-CDF draws of the gap, one uniform each, as generation draws them."""
    return gap_at(a, wt, -np.log1p(-rng.random(n)))


def _quantile(a, wt, prob):
    """Gap g with P(next gap <= g) = prob; inf from prob = total mass on."""
    return float(gap_at(a, wt, -np.log1p(-prob)))


def _scipy_mean(a, wt):
    """The mean gap from scipy's expi and exp1, as _closed_mean computed it
    for 1 <= c <= 200 before its Chebyshev table: the table's reference."""
    b = abs(wt)
    c = np.exp(a) / b
    if wt > 0.0:
        return np.exp(c) * special.exp1(c) / wt
    ein_c = (special.expi(c) - np.euler_gamma - np.log(c)) / c
    return np.exp(-c) * ein_c / (b * special.exprel(-c))


def _spec_at(c, sign):
    """(a, wt) of the given slope sign whose c = exp(a)/|wt| is c exactly:
    a slope next to exp(a)/c, for one of a few a in [0, 1)."""
    for a in np.linspace(0.0, 1.0, 16, endpoint=False):
        b0 = np.exp(a) / c
        for b in (b0, np.nextafter(b0, 0.0), np.nextafter(b0, 1.0)):
            if np.exp(a) / b == c:
                return float(a), sign * float(b)
    raise AssertionError(f"no slope gives c = {c!r}")


class TestCumulativeIntensity:
    def test_unit_rate(self):
        assert ref.cumulative_intensity(0.0, 0.0, 2.0) == pytest.approx(2.0)

    def test_matches_quadrature_flat(self):
        a, wt = 0.0, 0.0
        for g in (0.3, 1.0, 4.2):
            num, _ = integrate.quad(lambda s: math.exp(a + wt * s), 0.0, g)
            assert ref.cumulative_intensity(a, wt, g) == pytest.approx(num, abs=1e-8)

    def test_exponential_slope_closed_form(self):
        val = ref.cumulative_intensity(0.0, 1.0, 1.0)
        assert val == pytest.approx(math.e - 1.0, rel=1e-12)
        num, _ = integrate.quad(lambda s: math.exp(s), 0.0, 1.0)
        assert val == pytest.approx(num, rel=1e-10)

    def test_properties_random_specs(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            a, wt = float(rng.uniform(-2, 2)), float(rng.uniform(-1, 1))
            assert ref.cumulative_intensity(a, wt, 0.0) == 0.0
            grid = np.sort(rng.uniform(0, 5, size=8))
            vals = [ref.cumulative_intensity(a, wt, float(g)) for g in grid]
            assert all(v >= 0 for v in vals)
            assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_negative_gap_rejected(self):
        with pytest.raises(ValueError):
            ref.cumulative_intensity(0.0, 0.0, -0.1)


class TestLogGapDensity:
    def test_unit_exponential(self):
        assert ref.log_gap_density(0.0, 0.0, 1.0) == pytest.approx(-1.0)

    def test_normalizes_for_nonnegative_slope(self):
        for a, wt in ((0.3, 0.0), (-0.5, 0.2), (1.0, 0.7)):
            mass, _ = integrate.quad(
                lambda g: math.exp(ref.log_gap_density(a, wt, g)), 0.0, np.inf, limit=200
            )
            assert mass == pytest.approx(1.0, abs=1e-6)

    def test_defective_mass_matches_closed_form(self):
        mass, _ = integrate.quad(
            lambda g: math.exp(ref.log_gap_density(0.0, -0.5, g)), 0.0, np.inf, limit=200
        )
        expected = 1.0 - math.exp(-2.0)
        assert mass == pytest.approx(expected, abs=1e-6)
        assert ref.total_mass(0.0, -0.5) == pytest.approx(expected, rel=1e-12)


class TestExpectedGap:
    def test_unit_exponential_mean(self):
        assert expected_gap(0.0, 0.0) == pytest.approx(1.0)

    def test_rate_two_mean(self):
        assert expected_gap(math.log(2.0), 0.0) == pytest.approx(0.5)

    def test_closed_equals_quadrature_at_zero_slope(self):
        assert expected_gap(0.4, 0.0) == pytest.approx(ref.quadrature_mean(0.4, 0.0), rel=1e-6)

    def test_quadrature_matches_monte_carlo(self):
        rng = np.random.default_rng(11)
        samples = _draw_gaps(0.0, 0.5, rng, 1_000_000)
        mc = samples.mean()
        assert expected_gap(0.0, 0.5) == pytest.approx(mc, rel=5e-3)

    def test_defective_mean_is_conditional_on_return(self):
        rng = np.random.default_rng(12)
        draws = _draw_gaps(0.0, -0.5, rng, 200_000)
        returned = draws[np.isfinite(draws)]
        assert len(returned) / len(draws) == pytest.approx(ref.total_mass(0.0, -0.5), abs=5e-3)
        assert expected_gap(0.0, -0.5) == pytest.approx(returned.mean(), rel=1e-2)

    @pytest.mark.parametrize(
        "a, wt, mean",
        [(5.0, -0.038, 0.006740), (0.7, -2e-7, 0.4966), (0.0, -1e-3, None), (5.0, -0.5, None)],
    )
    def test_quadrature_finds_mass_near_zero(self, a, wt, mean):
        # a defective law whose mass sits far below the old fixed upper
        # limit of the integration range
        quad = ref.quadrature_mean(a, wt)
        assert quad > 0.0
        assert quad == pytest.approx(expected_gap(a, wt), rel=1e-6)
        if mean is not None:
            assert quad == pytest.approx(mean, rel=1e-3)

    @settings(max_examples=150, deadline=None)
    @given(
        a=st.floats(-6.0, 6.0),
        log10_wt=st.floats(-8.0, 1.0),
        negative=st.booleans(),
    )
    def test_closed_form_matches_quadrature(self, a, log10_wt, negative):
        wt = -(10.0**log10_wt) if negative else 10.0**log10_wt
        assert expected_gap(a, wt) == pytest.approx(ref.quadrature_mean(a, wt), rel=1e-6)

    @pytest.mark.parametrize("a", [-3.0, 0.0, 3.0])
    @pytest.mark.parametrize("sign", [-1.0, 1.0])
    def test_closed_form_continuous_across_zero_slope_cutoff(self, a, sign):
        # just below the cutoff the slope is treated as zero and the mean is
        # exp(-a); just above, the exact mean differs from it by about
        # |wt| exp(-a) relative
        below = expected_gap(a, sign * WT_ZERO_EPS * (1.0 - 1e-9))
        above = expected_gap(a, sign * WT_ZERO_EPS * (1.0 + 1e-9))
        assert below == pytest.approx(math.exp(-a), rel=1e-15)
        assert above == pytest.approx(below, rel=3.0 * WT_ZERO_EPS * math.exp(-a))

    @pytest.mark.parametrize("wt", [-2.0, -0.04, -1e-6, 0.0, 1e-6, 0.04, 2.0])
    def test_closed_form_is_elementwise_over_arrays(self, wt):
        # spans every branch: series, special functions and asymptotic
        a = np.linspace(-12.0, 12.0, 35).reshape(5, 7)
        means = expected_gap(a, wt)
        assert means.shape == a.shape
        assert all(means[i, j] == expected_gap(a[i, j], wt) for i, j in np.ndindex(a.shape))

    @pytest.mark.parametrize("sign", [-1.0, 1.0])
    def test_table_matches_scipy_on_a_log_grid(self, sign):
        wt = sign * 0.04
        a = np.log(np.geomspace(1.0, 200.0, 20_001) * 0.04)
        np.testing.assert_allclose(expected_gap(a, wt), _scipy_mean(a, wt), rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("sign", [-1.0, 1.0])
    def test_table_matches_scipy_at_piece_edges_and_branch_switches(self, sign):
        # the powers of two and quarter points start the table's pieces; below
        # c = 1 a series or exp1 takes over, and above c = 200 the asymptotic
        # series; each edge is checked with its two float neighbours
        edges = [2.0**j * (1.0 + q / 4.0) for j in range(8) for q in range(4)] + [200.0]
        specs = [
            _spec_at(c, sign)
            for edge in edges
            if edge <= 200.0
            for c in (np.nextafter(edge, 0.0), edge, np.nextafter(edge, np.inf))
        ]
        got = [expected_gap(a, wt) for a, wt in specs]
        want = [float(_scipy_mean(a, wt)) for a, wt in specs]
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)

    def test_closed_form_rejects_non_finite_input(self):
        with pytest.raises(NumericalError):
            expected_gap(np.array([0.0, np.nan]), 0.3)


class TestSampleGap:
    def test_law_of_large_numbers(self):
        rng = np.random.default_rng(7)
        draws = _draw_gaps(0.0, 0.0, rng, 100_000)
        assert abs(draws.mean() - 1.0) < 0.02

    def test_kolmogorov_smirnov_vs_unit_exponential(self):
        rng = np.random.default_rng(8)
        draws = _draw_gaps(0.0, 0.0, rng, 100_000)
        stat = stats.kstest(draws, "expon").statistic
        assert stat < 0.01

    def test_ks_against_analytic_cdf_with_slope(self):
        rng = np.random.default_rng(9)
        draws = _draw_gaps(0.3, 0.4, rng, 100_000)
        cdf = lambda g: 1.0 - np.exp(-np.vectorize(lambda x: ref.cumulative_intensity(0.3, 0.4, x))(g))
        stat = stats.kstest(draws, cdf).statistic
        assert stat < 0.01

    @pytest.mark.parametrize("wt", [-2.0, 0.0, 0.4])
    def test_array_draws_equal_sample_gap(self, wt):
        # an array of draws equals the same uniforms drawn and inverted one at a time
        rng = np.random.default_rng(3)
        draws = [float(gap_at(-1.0, wt, -np.log1p(-rng.random()))) for _ in range(2000)]
        assert _draw_gaps(-1.0, wt, np.random.default_rng(3), 2000).tolist() == draws

    def test_u_equal_one_maps_to_zero_gap(self):
        # u = 1 - random() = 1 at random() = 0
        assert _quantile(0.7, 0.3, 0.0) == 0.0

    def test_defective_signals_never_returns(self):
        rng = np.random.default_rng(10)
        draws = _draw_gaps(-1.0, -2.0, rng, 5000)
        frac_inf = np.count_nonzero(np.isinf(draws)) / len(draws)
        assert frac_inf == pytest.approx(math.exp(-math.exp(-1.0) / 2.0), abs=0.03)

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(a=st.floats(-3.0, 3.0), log10_wt=st.floats(-8.0, 0.5), negative=st.booleans())
    def test_shares_match_quantiles_and_mass(self, a, log10_wt, negative):
        # P(gap <= quantile of p * mass) = p * mass and P(inf) = 1 - mass,
        # each within a binomial 4-sigma bound; derandomized, so a run
        # either always passes or always fails
        wt = -(10.0**log10_wt) if negative else 10.0**log10_wt
        n = 10_000
        rng = np.random.default_rng(11)
        draws = _draw_gaps(a, wt, rng, n)
        mass = ref.total_mass(a, wt)
        checks = [(np.count_nonzero(draws <= _quantile(a, wt, p * mass)), p * mass) for p in (0.1, 0.5, 0.9)]
        for count, share in checks + [(np.count_nonzero(draws == math.inf), 1.0 - mass)]:
            assert abs(count / n - share) <= 4.0 * math.sqrt(share * (1.0 - share) / n)


@pytest.mark.parametrize("wt", [-0.5, -WT_ZERO_EPS * 0.5, 0.0, 0.4])
def test_gap_at_is_elementwise_over_arrays(wt):
    # cumulative intensities past the defective law's total exp(a)/|wt| give inf
    a, y = np.meshgrid(np.linspace(-3.0, 3.0, 7), [0.0, 0.01, 0.5, 2.0, 10.0, 50.0])
    gaps = gap_at(a, wt, y)
    assert gaps.shape == a.shape
    assert np.array_equal(gaps, [[gap_at(a[i, j], wt, y[i, j]) for j in range(7)] for i in range(6)])
    assert np.isinf(gaps).any() == (wt == -0.5)
    finite = np.isfinite(gaps)
    assert all(ref.cumulative_intensity(a[i, j], wt, gaps[i, j]) == pytest.approx(y[i, j], rel=1e-12)
               for i, j in zip(*np.nonzero(finite)))


class TestPoissonLogPmf:
    def test_examples(self):
        assert ref.poisson_log_pmf(2.0, 0) == pytest.approx(-2.0)
        assert math.exp(ref.poisson_log_pmf(2.0, 0)) == pytest.approx(0.1353, abs=5e-5)
        assert math.exp(ref.poisson_log_pmf(1.0, 1)) == pytest.approx(math.exp(-1.0), rel=1e-12)

    def test_normalization(self):
        total = sum(math.exp(ref.poisson_log_pmf(2.0, k)) for k in range(51))
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_matches_scipy(self):
        for rate in (0.3, 1.0, 7.5):
            for k in (0, 1, 4, 19):
                assert ref.poisson_log_pmf(rate, k) == pytest.approx(
                    stats.poisson.logpmf(k, rate), rel=1e-10
                )

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            ref.poisson_log_pmf(0.0, 1)
        with pytest.raises(ValueError):
            ref.poisson_log_pmf(1.0, -1)
        with pytest.raises(ValueError):
            ref.poisson_log_pmf(1.0, 1.5)


def _reference_zt_poisson(rate, u):
    """The scalar inverse-CDF walk that zt_poisson_at runs in lock step:
    from k = 1 while pmf(1) is a normal float, ending where the CDF reaches
    u or where adding a pmf leaves it unchanged; else from the mode.
    pmf(1) is numpy's: math's log and exp differ in the last bit, and that
    moves where the rounded CDF stops growing."""
    log_pmf1 = float(np.log(rate) - rate - np.log(-np.expm1(-rate)))
    if log_pmf1 < math.log(sys.float_info.min):
        return _walk_from_mode(rate, u)
    k = 1
    pmf = cdf = float(np.exp(log_pmf1))
    while cdf < u:
        k += 1
        pmf *= rate / k
        if cdf + pmf == cdf:
            break
        cdf += pmf
    return k


class TestZeroTruncatedPoisson:
    def test_pmf_normalizes_over_support(self):
        total = sum(math.exp(ref.zt_poisson_log_pmf(1.7, k)) for k in range(1, 60))
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_equals_the_scalar_walk(self):
        rates = np.concatenate([np.geomspace(1e-2, 2000.0, 41), [700.0, 730.0]])
        us = np.array([0.0, 1e-12, 0.1, 0.5, 0.9, 0.999999, 1.0 - 2.0**-53])
        draws = zt_poisson_at(rates[:, None], us)
        assert draws.shape == (len(rates), len(us))
        assert draws.tolist() == [[_reference_zt_poisson(float(r), float(u)) for u in us] for r in rates]

    def test_walk_ends_where_the_cdf_stops_growing(self):
        # the rounded CDF tops out below u = 1 - 2^-53 at these rates; the
        # walk used to run on for 10 million steps and raise
        rates = [20.0, 100.0, 300.0, 700.0]
        assert zt_poisson_at(rates, 1.0 - 2.0**-53).tolist() == [68, 193, 453, 927]

    def test_sampler_matches_pmf(self):
        rng = np.random.default_rng(13)
        rate = 1.3
        draws = zt_poisson_at(rate, rng.random(100_000))
        assert draws.min() >= 1
        for k in (1, 2, 3, 5):
            frac = np.mean(draws == k)
            assert frac == pytest.approx(math.exp(ref.zt_poisson_log_pmf(rate, k)), abs=4e-3)

    def test_sampler_at_large_rate(self):
        # pmf(1) underflows to zero here, so the walk cannot start at k = 1
        rng = np.random.default_rng(17)
        rate = 1000.0
        draws = zt_poisson_at(rate, rng.random(20_000))
        assert abs(draws.mean() - rate) < 4.0 * math.sqrt(rate / len(draws))
        assert draws.var() == pytest.approx(rate, rel=0.05)
        for k in (950, 1000, 1050):
            assert np.mean(draws <= k) == pytest.approx(stats.poisson.cdf(k, rate), abs=0.015)

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(log10_rate=st.floats(-2.0, 4.0))
    # either side of the switch to the walk from the mode, near rate 715
    @example(log10_rate=math.log10(700.0))
    @example(log10_rate=math.log10(730.0))
    def test_shares_match_truncated_cdf(self, log10_rate):
        # P(draw <= k) is the truncated CDF at the 0.1, 0.5 and 0.9 quantiles
        # of the Poisson, each within a binomial 4-sigma bound; derandomized,
        # so a run either always passes or always fails
        rate = 10.0**log10_rate
        n = 5_000
        rng = np.random.default_rng(19)
        draws = zt_poisson_at(rate, rng.random(n))
        for q in (0.1, 0.5, 0.9):
            k = max(1, int(stats.poisson.ppf(q, rate)))
            share = (stats.poisson.cdf(k, rate) - stats.poisson.pmf(0, rate)) / stats.poisson.sf(0, rate)
            assert abs(np.mean(draws <= k) - share) <= 4.0 * math.sqrt(share * (1.0 - share) / n)


class TestGaussianKL:
    def test_identity_is_zero(self):
        assert K.gaussian_kl(0.7, 1.3, 0.7, 1.3) == 0.0

    def test_frozen_examples(self):
        assert K.gaussian_kl(1.0, 1.0, 0.0, 1.0) == pytest.approx(0.5)
        assert K.gaussian_kl(0.0, 2.0, 0.0, 1.0) == pytest.approx(math.log(0.5) + 2.0 - 0.5, rel=1e-12)

    def test_nonnegative_everywhere(self):
        rng = np.random.default_rng(14)
        for _ in range(10_000):
            q = (float(rng.normal(0, 3)), float(rng.uniform(0.05, 4)))
            p = (float(rng.normal(0, 3)), float(rng.uniform(0.05, 4)))
            kl = K.gaussian_kl(*q, *p)
            assert kl >= 0.0
            if q != p:
                assert kl > 0.0

    def test_matches_monte_carlo(self):
        rng = np.random.default_rng(15)
        for _ in range(10):
            q_mu, q_sigma = float(rng.normal(0, 2)), float(rng.uniform(0.3, 2.5))
            p_mu, p_sigma = float(rng.normal(0, 2)), float(rng.uniform(0.3, 2.5))
            x = q_mu + q_sigma * rng.standard_normal(1_000_000)
            log_q = -0.5 * ((x - q_mu) / q_sigma) ** 2 - math.log(q_sigma)
            log_p = -0.5 * ((x - p_mu) / p_sigma) ** 2 - math.log(p_sigma)
            diff = log_q - log_p
            se = diff.std(ddof=1) / math.sqrt(len(diff))
            assert abs(K.gaussian_kl(q_mu, q_sigma, p_mu, p_sigma) - diff.mean()) < 3.0 * se + 1e-9


class TestLogitNormal:
    def test_center(self):
        assert K.draw_z(0.0, 1.0, 0.0) == pytest.approx(0.5)

    def test_symmetry(self):
        for eps in (0.3, 1.1, 2.2):
            z_pos = K.draw_z(0.0, 1.7, eps)
            z_neg = K.draw_z(0.0, 1.7, -eps)
            assert z_pos == pytest.approx(1.0 - z_neg, rel=1e-12)

    def test_frozen_example(self):
        assert K.draw_z(2.0, 0.5, 1.0) == pytest.approx(0.9241418199787566, rel=1e-12)

    def test_strictly_inside_unit_interval(self):
        rng = np.random.default_rng(16)
        for _ in range(2000):
            z = K.draw_z(float(rng.normal(0, 20)), float(rng.uniform(0.1, 10)), float(rng.standard_normal()))
            assert 0.0 < z < 1.0


def test_import_leaves_out_scipy_integrate():
    # scipy.integrate takes about a quarter of a second to import and
    # scipy.special about 0.3 s, which every CLI call would pay; only
    # zero-truncated Poisson rates above about 715 import scipy, when they run
    code = "import sys, churnkit.cli; sys.exit(any(m.split('.')[0] == 'scipy' for m in sys.modules))"
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(churnkit.__file__)))
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0
