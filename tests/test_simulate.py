"""Synthetic generators: sampling-law checks and self-consistency of the
from-model sampler with its own density evaluation."""

import math

import numpy as np
import pytest
from scipy import stats

from churnkit.eventlog import derive_seed
from churnkit.model import PARAM_FIELDS, init_params
from churnkit.simulate import GeneratorSpec, generate


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
        ],
        ids=["unknown-kind", "duration-below-one", "switch-not-stochastic", "horizon-nan", "horizon-inf",
             "mean-gap-nan", "mean-duration-nan", "regime-gap-nan", "regime-duration-nan", "switch-nan"],
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


def test_derive_seed_is_stable():
    assert derive_seed(1, "gen", "u1") == derive_seed(1, "gen", "u1")
    assert derive_seed(1, "gen", "u1") != derive_seed(2, "gen", "u1")
    assert derive_seed(1, "gen", "u1") != derive_seed(1, "gen", "u2")
