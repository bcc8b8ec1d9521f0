"""Filtered prediction, rolling evaluation, and alarm decisions."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _reference as ref
from churnkit import _kernels as K
from churnkit import inference
from churnkit.errors import DataError
from churnkit.eventlog import Session, SessionSequence
from churnkit.inference import (
    AlarmPolicy,
    PredictionRecord,
    churn_alarm,
    predict_next,
    rolling_evaluate_many,
    user_history_stats,
)
from churnkit.model import LATENT_MODES, PARAM_FIELDS, init_params


def _seq(gaps, durs, user="u"):
    t, sessions = 0.0, []
    for i, (g, d) in enumerate(zip(gaps, durs)):
        t = t + g if i else 0.0
        sessions.append(Session(t=t, g=g if i else 0.0, d=d))
    return SessionSequence(user, sessions)


def _learned_params(hidden, seed, wt):
    p = init_params(hidden, 4, seed=seed, wt_mode="learned")
    p.head_wt[...] = wt
    return p


def _zero_params(hidden=4):
    p = init_params(hidden, 4, seed=0)
    for name in PARAM_FIELDS:
        getattr(p, name)[...] = 0.0
    p.lstm_b[hidden : 2 * hidden] = 0.0
    return p


SEQ = _seq([0.0, 2.0, 1.5, 3.0, 0.9], [2, 4, 1, 3, 5])


class TestPredictNext:
    def test_zero_weight_model_predicts_unit_gap_and_duration(self):
        rec = predict_next(_zero_params(), SEQ, n_samples=16, seed=0)
        assert rec.pred_gap == pytest.approx(1.0)
        assert rec.pred_dur == pytest.approx(1.0)
        assert rec.step == len(SEQ)

    def test_deterministic_given_seed(self):
        p = init_params(5, 4, seed=1)
        r1 = predict_next(p, SEQ, n_samples=8, seed=3)
        r2 = predict_next(p, SEQ, n_samples=8, seed=3)
        assert (r1.pred_gap, r1.pred_dur) == (r2.pred_gap, r2.pred_dur)

    def test_sample_size_consistency(self):
        p = init_params(6, 4, seed=2)
        small = [predict_next(p, SEQ, n_samples=1, seed=s).pred_gap for s in range(40)]
        big = predict_next(p, SEQ, n_samples=4000, seed=999).pred_gap
        spread = np.std(small, ddof=1)
        assert abs(np.mean(small) - big) < 3.0 * spread / np.sqrt(len(small)) + 3.0 * spread / np.sqrt(4000)

    def test_gap_prediction_is_mean_of_exp_neg_a(self):
        # with the slope frozen at zero the prediction must equal the sample
        # average of exp(-a(z_s, h)) exactly -- no quadrature involved
        p = init_params(5, 4, seed=4)
        rec = predict_next(p, SEQ, n_samples=64, seed=7)

        from churnkit.eventlog import derive_seed

        # the filter is the one-row reference step in infer mode at eps = 0
        out = ref.initial(p)
        for s in SEQ.sessions:
            out = ref.step(p, out.h, out.c, 0.0, "infer", s.g, s.d)
        h = out.h
        prior = ref.prior(p, h)
        # the record at step s takes row s - 1 of the user's one stream
        rng = np.random.default_rng(derive_seed(7, "pred", SEQ.user_id))
        eps = rng.standard_normal((len(SEQ), 64))[len(SEQ) - 1]
        zs = K.draw_z(prior.mu, prior.sigma, eps)
        a = float(p.head_wz) * zs + float(p.head_wh @ h) + float(p.head_bt)
        assert rec.pred_gap == pytest.approx(np.mean(np.exp(-a)), rel=1e-12)

    def test_single_session_prefix_works_and_empty_is_impossible(self):
        # an empty prefix cannot even be constructed (SessionSequence raises),
        # and predict_next double-checks its own precondition
        with pytest.raises(DataError):
            SessionSequence("u", [])
        rec = predict_next(_zero_params(), _seq([0.0], [1]), 4, 0)
        assert rec.step == 1


class TestRollingEvaluate:
    def test_record_count_and_alignment(self):
        p = init_params(4, 4, seed=5)
        records = rolling_evaluate_many(p, [SEQ], n_samples=4, seed=0)
        assert len(records) == len(SEQ) - 1
        for i, rec in enumerate(records, start=1):
            assert rec.step == i
            assert rec.obs_gap == SEQ.sessions[i].g
            assert rec.obs_dur == SEQ.sessions[i].d

    def test_length_two_gives_one_record(self):
        p = _zero_params()
        records = rolling_evaluate_many(p, [_seq([0.0, 1.0], [1, 2])], 4, 0)
        assert len(records) == 1

    def test_zero_weight_predicts_unit_everywhere(self):
        records = rolling_evaluate_many(_zero_params(), [SEQ], 8, 1)
        assert all(r.pred_gap == pytest.approx(1.0) for r in records)

    def test_matches_predict_next_per_prefix(self):
        for p in (init_params(5, 4, seed=6), _learned_params(5, 6, -0.05), _learned_params(5, 6, 0.2)):
            records = rolling_evaluate_many(p, [SEQ], n_samples=8, seed=11)
            for i in range(1, len(SEQ)):
                prefix = SessionSequence(SEQ.user_id, SEQ.sessions[:i])
                solo = predict_next(p, prefix, n_samples=8, seed=11)
                assert records[i - 1].pred_gap == pytest.approx(solo.pred_gap, rel=1e-12)
                assert records[i - 1].pred_dur == pytest.approx(solo.pred_dur, rel=1e-12)

    def test_appending_future_does_not_change_earlier_records(self):
        longer = _seq([0.0, 2.0, 1.5, 3.0, 0.9, 4.4], [2, 4, 1, 3, 5, 2])
        for p in (init_params(5, 4, seed=7), _learned_params(5, 7, -0.05), _learned_params(5, 7, 0.2)):
            short_recs = rolling_evaluate_many(p, [SEQ], 8, 3)
            long_recs = rolling_evaluate_many(p, [longer], 8, 3)
            for a, b in zip(short_recs, long_recs):
                assert a.pred_gap == b.pred_gap and a.pred_dur == b.pred_dur

    def test_needs_two_sessions(self):
        with pytest.raises(DataError, match="rolling_columns: no sequence has >= 2 sessions"):
            rolling_evaluate_many(_zero_params(), [_seq([0.0], [1])], 4, 0)

    def test_many_skips_short_and_sorts_users(self):
        p = _zero_params()
        seqs = [
            _seq([0.0, 1.0], [1, 1], user="zz"),
            _seq([0.0], [1], user="aa"),
            _seq([0.0, 2.0, 1.0], [1, 2, 1], user="mm"),
        ]
        records = rolling_evaluate_many(p, seqs, 4, 0)
        assert [r.user_id for r in records] == ["mm", "mm", "zz"]


@settings(max_examples=30, deadline=None)
@given(
    data=st.data(),
    lengths=st.lists(st.integers(1, 30), min_size=1, max_size=40).filter(lambda ns: max(ns) >= 2),
    hidden=st.integers(1, 6),
    latent_mode=st.sampled_from(LATENT_MODES),
    wt=st.sampled_from((-0.05, 0.0, 0.2)),
    seed=st.integers(0, 2**16),
)
def test_packs_do_not_change_predictions(data, lengths, hidden, latent_mode, wt, seed):
    """rolling_evaluate_many over packs small enough to split the users (and
    a long user's steps) equals each user's records scored alone in one
    pack, to 1e-12 relative (with a floor at 1e-12 of the largest entry)."""
    rng = np.random.default_rng(seed)
    seqs = [
        _seq([0.0, *rng.exponential(2.0, n - 1)], (1 + rng.poisson(3.0, n)).tolist(), user=f"u{k:02d}")
        for k, n in enumerate(lengths)
    ]
    p = init_params(hidden, 3, seed=seed, wt_mode="learned", latent_mode=latent_mode)
    p.head_wt[...] = wt
    usable = [s for s in seqs if len(s) >= 2]
    alone = [rec for s in usable for rec in rolling_evaluate_many(p, [s], 4, seed)]
    cells = data.draw(st.integers(1, sum(len(s) + 1 for s in usable) // 2))
    with mock.patch.object(inference, "PACK_CELLS", cells):
        # two packs at least, or a lone user's steps cut into two spans at least
        assert len(list(inference._packs(usable))) >= 2 or len(usable[0]) + 1 > cells
        many = rolling_evaluate_many(p, seqs, 4, seed)
    assert [(r.user_id, r.step, r.obs_gap, r.obs_dur) for r in many] == [
        (r.user_id, r.step, r.obs_gap, r.obs_dur) for r in alone
    ]
    for name in ("pred_gap", "pred_dur"):
        got = np.array([getattr(r, name) for r in many])
        want = np.array([getattr(r, name) for r in alone])
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max(), err_msg=name)


@settings(max_examples=20, deadline=None)
@given(
    data=st.data(),
    n=st.integers(2, 40),
    others=st.lists(st.integers(1, 30), max_size=6),
    hidden=st.integers(1, 6),
    wt=st.sampled_from((-0.05, 0.0, 0.2)),
    seed=st.integers(0, 2**16),
)
def test_user_stream_is_independent_of_other_users(data, n, others, hidden, wt, seed):
    """A user's records are the same scored alone, scored with other users
    (before and after it in sort order), and with a PACK_CELLS that cuts its
    steps into several spans, to 1e-12 relative (with a floor at 1e-12 of
    the largest entry): its draws come from its own stream, row by step."""
    rng = np.random.default_rng(seed)

    def make(user, m):
        return _seq([0.0, *rng.exponential(2.0, m - 1)], (1 + rng.poisson(3.0, m)).tolist(), user=user)

    me = make("u", n)
    crowd = [me, *(make(f"{'a' if k % 2 else 'z'}{k}", m) for k, m in enumerate(others))]
    p = init_params(hidden, 3, seed=seed, wt_mode="learned")
    p.head_wt[...] = wt
    alone = rolling_evaluate_many(p, [me], 4, seed)
    together = [r for r in rolling_evaluate_many(p, crowd, 4, seed) if r.user_id == "u"]
    with mock.patch.object(inference, "PACK_CELLS", data.draw(st.integers(1, n // 2 + 1))):
        split = rolling_evaluate_many(p, [me], 4, seed)
    for recs in (together, split):
        assert [r.step for r in recs] == [r.step for r in alone]
        for name in ("pred_gap", "pred_dur"):
            got = np.array([getattr(r, name) for r in recs])
            want = np.array([getattr(r, name) for r in alone])
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max(), err_msg=name)


class TestChurnAlarm:
    def test_fixed_mode_truth_table(self):
        policy = AlarmPolicy(mode="fixed", theta_g=5.0, theta_d=2.0)
        assert churn_alarm(PredictionRecord("u", 1, pred_gap=10.0, pred_dur=1.0), policy)
        assert not churn_alarm(PredictionRecord("u", 1, pred_gap=10.0, pred_dur=3.0), policy)
        assert not churn_alarm(PredictionRecord("u", 1, pred_gap=4.0, pred_dur=1.0), policy)

    def test_expected_mode(self):
        policy = AlarmPolicy(mode="expected")
        stats = (3.0, 4.0)
        assert churn_alarm(PredictionRecord("u", 1, pred_gap=6.0, pred_dur=2.0), policy, stats)
        assert not churn_alarm(PredictionRecord("u", 1, pred_gap=2.0, pred_dur=2.0), policy, stats)
        greater = AlarmPolicy(mode="expected", expected_dur_cmp="greater")
        assert churn_alarm(PredictionRecord("u", 1, pred_gap=6.0, pred_dur=9.0), greater, stats)

    def test_expected_mode_requires_stats(self):
        policy = AlarmPolicy(mode="expected")
        with pytest.raises(DataError):
            churn_alarm(PredictionRecord("u", 1, pred_gap=6.0, pred_dur=2.0), policy)
        with pytest.raises(DataError):
            churn_alarm(PredictionRecord("u", 1, pred_gap=6.0, pred_dur=2.0), policy, (None, 3.0))

    def test_fixed_alarm_monotone_in_predicted_gap(self):
        policy = AlarmPolicy(mode="fixed", theta_g=5.0, theta_d=2.0)
        base = PredictionRecord("u", 1, pred_gap=6.0, pred_dur=1.0)
        assert churn_alarm(base, policy)
        higher = PredictionRecord("u", 1, pred_gap=60.0, pred_dur=1.0)
        assert churn_alarm(higher, policy)

    @pytest.mark.parametrize(
        "theta_g, theta_d",
        [(0.0, 1.0), (1.0, -2.0), (math.nan, 1.0), (1.0, math.nan), (math.inf, 1.0)],
        ids=["zero", "negative", "nan-gap", "nan-duration", "inf"],
    )
    def test_fixed_mode_validates_thresholds(self, theta_g, theta_d):
        with pytest.raises(ValueError):
            AlarmPolicy(mode="fixed", theta_g=theta_g, theta_d=theta_d)


def test_user_history_stats():
    mean_gap, mean_dur = user_history_stats(SEQ)
    assert mean_gap == pytest.approx(np.mean([2.0, 1.5, 3.0, 0.9]))
    assert mean_dur == pytest.approx(np.mean([2, 4, 1, 3, 5]))
    g1, d1 = user_history_stats(_seq([0.0], [3]))
    assert g1 is None and d1 == 3.0
