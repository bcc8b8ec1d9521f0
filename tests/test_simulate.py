"""Synthetic generators: sampling-law checks, self-consistency of the
from-model sampler with its own density evaluation, and the from-model
sampler on rows against a one-row sampler built on the reference step."""

import math

import numpy as np
import pytest
from scipy import stats

import _reference as ref
from churnkit.errors import NumericalError
from churnkit.eventlog import derive_seed
from churnkit.model import PARAM_FIELDS, init_params
from churnkit.simulate import GeneratorSpec, generate
from churnkit.tppmath import gap_at, zt_poisson_at


def _all_gaps(seqs):
    return np.array([g for s in seqs for g in s.gaps()])


def _all_durs(seqs):
    return np.array([d for s in seqs for d in s.durations()])


class TestStationary:
    def test_mean_gap_law_of_large_numbers(self):
        spec = GeneratorSpec(kind="stationary", users=400, horizon=500.0, mean_gap=2.0, mean_duration=5.0)
        seqs, _ = generate(spec, seed=1)
        gaps = _all_gaps(seqs)
        assert len(gaps) > 90_000
        assert 1.96 <= gaps.mean() <= 2.04

    def test_duration_mean_and_floor(self):
        spec = GeneratorSpec(kind="stationary", users=400, horizon=500.0, mean_gap=2.0, mean_duration=5.0)
        seqs, _ = generate(spec, seed=2)
        durs = _all_durs(seqs)
        assert durs.min() >= 1
        assert 4.95 <= durs.mean() <= 5.05

    def test_deterministic_under_seed(self):
        spec = GeneratorSpec(kind="stationary", users=12, horizon=50.0)
        a, _ = generate(spec, seed=9)
        b, _ = generate(spec, seed=9)
        assert [(s.user_id, len(s)) for s in a] == [(s.user_id, len(s)) for s in b]
        for sa, sb in zip(a, b):
            assert [(x.t, x.g, x.d) for x in sa.sessions] == [(x.t, x.g, x.d) for x in sb.sessions]

    def test_horizon_truncation(self):
        spec = GeneratorSpec(kind="stationary", users=50, horizon=30.0)
        seqs, _ = generate(spec, seed=3)
        assert all(s.sessions[-1].t <= 30.0 for s in seqs)

    @pytest.mark.parametrize(
        "kw",
        [
            dict(kind="nope"),
            dict(kind="stationary", mean_duration=0.5),
            dict(kind="regime_switching", switch=((0.5, 0.6), (0.5, 0.5))),
            # NaN used to run every user to max_sessions and write NaN into the manifest
            dict(kind="stationary", horizon=math.nan),
            dict(kind="stationary", horizon=math.inf),
            dict(kind="stationary", mean_gap=math.nan),
            dict(kind="stationary", mean_duration=math.nan),
            dict(kind="regime_switching", regime_gaps=(1.0, math.nan)),
            dict(kind="regime_switching", regime_durations=(math.nan, 8.0)),
            dict(kind="regime_switching", switch=((math.nan, math.nan), (0.1, 0.9))),
            dict(kind="from_model"),
            # a model used to be ignored by the other kinds, and still listed in the truth
            dict(kind="stationary", model_path="model.json"),
            dict(kind="regime_switching", model_params=init_params(2, 2, seed=0)),
        ],
        ids=["unknown-kind", "duration-below-one", "switch-not-stochastic", "horizon-nan", "horizon-inf",
             "mean-gap-nan", "mean-duration-nan", "regime-gap-nan", "regime-duration-nan", "switch-nan",
             "from-model-without-model", "stationary-with-model-path", "regime-with-model-params"],
    )
    def test_spec_validation(self, kw):
        with pytest.raises(ValueError):
            GeneratorSpec(**{"users": 5, "horizon": 10.0, **kw})


class TestRegimeSwitching:
    def test_stationary_mixture_of_mean_gaps(self):
        spec = GeneratorSpec(
            kind="regime_switching",
            users=300,
            horizon=2000.0,
            regime_gaps=(1.0, 10.0),
            regime_durations=(3.0, 8.0),
            switch=((0.9, 0.1), (0.1, 0.9)),
        )
        seqs, truth = generate(spec, seed=4)
        total = sum(len(s) for s in seqs)
        assert total > 100_000
        counts = np.zeros(2)
        for u in truth["users"].values():
            r = np.array(u["regimes"])
            counts += np.bincount(r, minlength=2)
        frac1 = counts[1] / counts.sum()
        assert abs(frac1 - 0.5) < 0.015  # symmetric chain: pi = (1/2, 1/2)
        # session-weighted mean gap matches the mixture within 3%
        gaps = _all_gaps(seqs)
        # horizon truncation discards straddling gaps, which biases the long
        # regime slightly; compare against the per-regime empirical mix
        per_regime_mean = counts[0] / counts.sum() * 1.0 + counts[1] / counts.sum() * 10.0
        assert abs(gaps.mean() - per_regime_mean) / per_regime_mean < 0.03

    def test_regime_paths_recorded(self):
        spec = GeneratorSpec(kind="regime_switching", users=5, horizon=50.0)
        seqs, truth = generate(spec, seed=5)
        for s in seqs:
            assert len(truth["users"][s.user_id]["regimes"]) == len(s)


class TestFromModel:
    def test_zero_weight_model_gaps_are_unit_exponential(self):
        params = init_params(4, 4, seed=0)
        for name in PARAM_FIELDS:
            getattr(params, name)[...] = 0.0
        params.lstm_b[4:8] = 0.0
        spec = GeneratorSpec(
            kind="from_model", users=700, horizon=200.0, model_params=params, max_sessions=10_000
        )
        seqs, _ = generate(spec, seed=6)
        gaps = _all_gaps(seqs)
        assert len(gaps) > 100_000
        stat = stats.kstest(gaps, "expon").statistic
        assert stat < 0.01

    def test_durations_stay_positive(self):
        params = init_params(6, 4, seed=7)
        spec = GeneratorSpec(kind="from_model", users=40, horizon=100.0, model_params=params)
        seqs, _ = generate(spec, seed=8)
        assert _all_durs(seqs).min() >= 1

    def test_sampler_density_self_consistency(self):
        # realized per-event log-likelihood must match an independent batch's
        # estimate of the generative entropy rate within Monte-Carlo error
        params = init_params(6, 4, seed=9)
        spec = GeneratorSpec(kind="from_model", users=150, horizon=150.0, model_params=params)
        _, truth_a = generate(spec, seed=10)
        _, truth_b = generate(spec, seed=11)

        def stats_of(truth):
            lls = np.array([u["loglik"] for u in truth["users"].values()], dtype=float)
            evs = np.array([u["events"] for u in truth["users"].values()], dtype=float)
            per_event = lls.sum() / evs.sum()
            # user-level spread as the MC scale
            per_user = lls / np.maximum(evs, 1)
            se = per_user.std(ddof=1) / math.sqrt(len(per_user))
            return per_event, se

        ma, sa = stats_of(truth_a)
        mb, sb = stats_of(truth_b)
        assert abs(ma - mb) < 4.0 * math.hypot(sa, sb)

    def test_overflow_signals_divergence(self):
        params = init_params(4, 4, seed=0)
        params.head_bt[...] = 800.0
        spec = GeneratorSpec(kind="from_model", users=3, horizon=50.0, model_params=params)
        with pytest.raises(NumericalError, match="user u0000 diverged at step 0"):
            generate(spec, seed=0)

    def test_duration_rate_too_large_names_user_and_step(self):
        # a rate near 1e13 used to fail inside the sampler, naming neither
        params = init_params(4, 4, seed=0).replace(dur_b=30.0)
        spec = GeneratorSpec(kind="from_model", users=3, horizon=50.0, model_params=params)
        with pytest.raises(NumericalError, match=r"user u0000 failed at step 0: duration rate \S+ too large"):
            generate(spec, seed=0)

    def test_non_finite_loglik_names_user_and_step(self):
        # a NaN slope gives NaN gaps, which pass the churn and horizon tests
        params = init_params(4, 4, seed=0, wt_mode="learned")
        params.head_wt[...] = np.nan
        spec = GeneratorSpec(kind="from_model", users=3, horizon=50.0, model_params=params)
        with pytest.raises(NumericalError, match="user u0000 failed at step 1: non-finite log-likelihood"):
            generate(spec, seed=0)

    def test_loglik_per_event_reported(self):
        params = init_params(4, 4, seed=12)
        spec = GeneratorSpec(kind="from_model", users=10, horizon=60.0, model_params=params)
        _, truth = generate(spec, seed=13)
        assert "loglik_per_event" in truth
        assert math.isfinite(truth["loglik_per_event"])


def test_user_streams_are_independent_of_user_set():
    # the same user id draws the same sequence regardless of cohort size
    small = GeneratorSpec(kind="stationary", users=3, horizon=40.0)
    large = GeneratorSpec(kind="stationary", users=7, horizon=40.0)
    a, _ = generate(small, seed=14)
    b, _ = generate(large, seed=14)
    for sa, sb in zip(a, b[:3]):
        assert sa.user_id == sb.user_id
        assert [(x.t, x.g, x.d) for x in sa.sessions] == [(x.t, x.g, x.d) for x in sb.sessions]

    # a from-model user is one column of a step over all users: alone, with 2
    # others and with 6 others it draws the same sessions, up to the last
    # bits of the matmuls, which take another path for one column
    params = init_params(6, 4, seed=15)
    alone, *cohorts = (
        generate(GeneratorSpec(kind="from_model", users=n, horizon=60.0, model_params=params), seed=16)
        for n in (1, 3, 7)
    )
    (seq,), truth = alone
    assert len(seq) > 20
    for seqs, other in cohorts:
        assert seqs[0].user_id == seq.user_id
        assert seqs[0].durations() == seq.durations()
        for x in ("t", "g"):
            np.testing.assert_allclose([getattr(s, x) for s in seqs[0].sessions],
                                       [getattr(s, x) for s in seq.sessions], rtol=1e-12, atol=0.0)
        u, v = truth["users"][seq.user_id], other["users"][seq.user_id]
        assert (u["events"], u["churned"]) == (v["events"], v["churned"])
        assert v["loglik"] == pytest.approx(u["loglik"], rel=1e-12)


def _reference_model_user(uid, params, seed, horizon, cap):
    """A user sampled one row at a time through the reference step, with
    one rng drawn in the order eps, d1, eps, then (gap, duration, eps) per
    session: (sessions as (t, g, d), log-likelihood, churned)."""
    rng = np.random.default_rng(derive_seed(seed, "gen", uid))
    out = ref.initial(params, float(rng.standard_normal()))
    d = int(zt_poisson_at(math.exp(out.lg), rng.random()))
    sessions, loglik, t, gap = [(0.0, 0.0, d)], ref.zt_poisson_log_pmf(math.exp(out.lg), d), 0.0, 0.0
    wt = float(params.head_wt)
    while len(sessions) < cap:
        out = ref.step(params, out.h, out.c, float(rng.standard_normal()), "generate", gap, d)
        gap = float(gap_at(out.a, wt, -np.log1p(-rng.random())))
        if math.isinf(gap):
            return sessions, loglik, True
        if t + gap > horizon:
            break
        d = int(zt_poisson_at(math.exp(out.lg), rng.random()))
        loglik += ref.log_gap_density(out.a, wt, gap) + ref.zt_poisson_log_pmf(math.exp(out.lg), d)
        t += gap
        sessions.append((t, gap, d))
    return sessions, loglik, False


@pytest.mark.parametrize("latent_mode", ["full", "fixed"])
def test_model_rows_equal_the_one_row_reference_sampler(latent_mode):
    """generate's users, advanced as the rows of one state, equal one-row
    sampling through the reference step: the same draws in the same order,
    users stopping at the horizon, at max_sessions and by churning (a
    falling intensity, wt < 0)."""
    params = init_params(5, 3, seed=17, wt_mode="learned", latent_mode=latent_mode)
    params.head_wt[...] = -0.2
    spec = GeneratorSpec(kind="from_model", users=24, horizon=40.0, model_params=params, max_sessions=30)
    seqs, truth = generate(spec, seed=18)
    ends = {"churned": 0, "cap": 0, "horizon": 0}
    for seq in seqs:
        sessions, loglik, churned = _reference_model_user(seq.user_id, params, 18, 40.0, 30)
        assert [s.d for s in seq.sessions] == [d for _, _, d in sessions]
        np.testing.assert_allclose([(s.t, s.g) for s in seq.sessions], [(t, g) for t, g, _ in sessions],
                                   rtol=1e-12, atol=0.0)
        u = truth["users"][seq.user_id]
        assert u["churned"] == churned
        assert u["loglik"] == pytest.approx(loglik, rel=1e-12)
        ends["churned" if churned else "cap" if len(seq) == 30 else "horizon"] += 1
    assert min(ends.values()) >= 2, ends


def test_derive_seed_is_stable():
    assert derive_seed(1, "gen", "u1") == derive_seed(1, "gen", "u1")
    assert derive_seed(1, "gen", "u1") != derive_seed(2, "gen", "u1")
    assert derive_seed(1, "gen", "u1") != derive_seed(1, "gen", "u2")
