"""Objective assembly, optimization behavior, and checkpoint round-trips."""

import json
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _reference as ref
from churnkit import _kernels as K
from churnkit.errors import (
    CheckpointShapeError,
    CheckpointVersionError,
    CorruptCheckpointError,
    DataError,
    NumericalError,
)
from churnkit.eventlog import Session, SessionSequence
from churnkit.model import (
    LATENT_MODES,
    PARAM_FIELDS,
    ModelParams,
    _pack,
    _table,
    init_params,
)
from churnkit.simulate import GeneratorSpec, generate
from churnkit.train import (
    TrainConfig,
    _elbo_value,
    _segment,
    _unroll,
    clip_gradients,
    elbo_and_grads,
    grad_check,
    gradcheck_elbo,
    load_checkpoint,
    save_checkpoint,
    train,
)


def _seq(gaps, durs, user="u"):
    t = 0.0
    sessions = []
    for i, (g, d) in enumerate(zip(gaps, durs)):
        t = t + g if i else 0.0
        sessions.append(Session(t=t, g=g if i else 0.0, d=d))
    return SessionSequence(user, sessions)


def _zero_params(hidden=4, mlp=4):
    p = init_params(hidden, mlp, seed=0)
    for name in PARAM_FIELDS:
        getattr(p, name)[...] = 0.0
    p.lstm_b[hidden : 2 * hidden] = 0.0
    return p


def _reference_terms(p, seq, eps_row):
    """(log-likelihood, KL) of one latent trajectory, assembled from the
    plain-numpy reference step and laws."""
    out = ref.initial(p, float(eps_row[0]))
    ll = ref.poisson_log_pmf(math.exp(out.lg), seq.sessions[0].d)
    kl = 0.0
    n = len(seq)
    for i in range(1, n + 1):
        prev = seq.sessions[i - 1]
        out = ref.step(p, out.h, out.c, float(eps_row[i]) if i < n else 0.0, "infer", prev.g, prev.d)
        kl += float(K.gaussian_kl(*out.posterior, *out.prior))
        if i < n:
            s = seq.sessions[i]
            ll += ref.log_gap_density(out.a, float(p.head_wt), s.g)
            ll += ref.poisson_log_pmf(math.exp(out.lg), s.d)
    return ll, kl


def _elbo(p, seq, mc_samples, rng):
    """The full-unroll ELBO over mc_samples latent trajectories drawn from rng."""
    return _elbo_value(p, seq, rng.standard_normal((mc_samples, len(seq))))


def _reference_elbo(p, seq, eps):
    return sum(ll - kl for ll, kl in (_reference_terms(p, seq, row) for row in eps)) / len(eps)


class TestSequenceElbo:
    def test_zero_weight_closed_form(self):
        # unit-rate gap model and unit-rate durations: per-step gap term is
        # -g_i (i >= 2), duration term -1, KL exactly 0
        p = _zero_params()
        gaps = [0.0, 1.3, 0.4, 2.7]
        seq = _seq(gaps, [1, 1, 1, 1])
        value = _elbo(p, seq, 1, np.random.default_rng(0))
        assert value == pytest.approx(-(1.3 + 0.4 + 2.7) - 4.0, rel=1e-12)

    def test_kl_contribution_is_zero_when_q_equals_p(self):
        # zero the second-layer weights of both MLPs and give them the same
        # bias: posterior == prior at every step regardless of the rest
        p = init_params(5, 4, seed=21)
        p.post_W2[...] = 0.0
        p.prior_W2[...] = 0.0
        p.post_b2[...] = np.array([0.3, 0.1])
        p.prior_b2[...] = np.array([0.3, 0.1])
        seq = _seq([0.0, 2.0, 1.0], [2, 3, 1])
        with_kl = _elbo(p, seq, 1, np.random.default_rng(1))

        eps = np.random.default_rng(1).standard_normal((1, 3))
        ll, kl = _reference_terms(p, seq, eps[0])
        assert kl == pytest.approx(0.0, abs=1e-14)
        assert with_kl == pytest.approx(ll, rel=1e-12)

    def test_monte_carlo_consistency(self):
        p = init_params(6, 4, seed=22)
        seq = _seq([0.0, 1.0, 3.0, 0.8, 2.2, 1.4], [2, 5, 1, 3, 4, 2])
        singles = np.array(
            [_elbo(p, seq, 1, np.random.default_rng(1000 + i)) for i in range(64)]
        )
        est64 = _elbo(p, seq, 64, np.random.default_rng(7))
        est1 = _elbo(p, seq, 1, np.random.default_rng(8))
        spread = singles.std(ddof=1)
        assert abs(est1 - est64) < 4.0 * spread * math.sqrt(1.0 + 1.0 / 64.0)
        assert abs(est64 - singles.mean()) < 4.0 * spread / 8.0

    def test_fused_matches_reference_grads(self):
        # value: the fused BPTT objective against the ELBO assembled from the
        # filtering step; gradients: against central differences of it
        p = init_params(5, 3, seed=23, wt_mode="learned")
        p.head_wt[...] = 0.2
        seq = _seq([0.0, 1.5, 0.7, 2.0, 1.1], [3, 1, 4, 2, 6])
        eps = np.random.default_rng(3).standard_normal((2, 5))
        value, grads = elbo_and_grads(p, seq, eps, 0)
        assert value == pytest.approx(_reference_elbo(p, seq, eps), rel=1e-12)

        values = {name: getattr(p, name) for name in p.trainable_names()}
        report = grad_check(
            lambda bumped: _reference_elbo(p.replace(**bumped), seq, eps), values, grads
        )
        assert report.passed, report.summary()
        assert set(report.per_param) == set(grads)

    def test_fused_backward_is_repeatable(self):
        # the reverse loop accumulates into fresh buffers on every call, so a
        # second call reproduces the value and gradients bit for bit
        p = init_params(4, 3, seed=25)
        seq = _seq([0.0, 1.0, 2.5, 0.6], [2, 1, 3, 2])
        eps = np.random.default_rng(5).standard_normal((1, 4))
        v1, g1 = elbo_and_grads(p, seq, eps, 0)
        v2, g2 = elbo_and_grads(p, seq, eps, 0)
        assert v1 == v2
        for k in g1:
            np.testing.assert_array_equal(g1[k], g2[k])

    def test_truncation_changes_gradients_not_value(self):
        seq = _seq([0.0] + [1.0] * 11, [2] * 12)
        eps = np.random.default_rng(4).standard_normal((1, 12))
        # bptt_k = 4 and 12 both leave step n (KL only) alone in the last
        # segment; bptt_k = 1 makes every step its own segment
        for latent_mode in ("full", "fixed"):
            p = init_params(4, 3, seed=24, latent_mode=latent_mode)
            v_full, g_full = elbo_and_grads(p, seq, eps, 0)
            for bptt_k in (4, 12, 1):
                v_k, g_k = elbo_and_grads(p, seq, eps, bptt_k)
                assert v_full == pytest.approx(v_k, rel=1e-12)
                diffs = [np.max(np.abs(np.asarray(g_full[n]) - np.asarray(g_k[n]))) for n in g_full]
                if latent_mode == "fixed" and bptt_k == len(seq):
                    # step n has no term without a latent: the cut severs nothing
                    assert max(diffs) == 0.0
                else:
                    # gradients differ because the state gradient is cut at boundaries
                    assert max(diffs) > 0.0, (latent_mode, bptt_k)


def _random_seq(n, rng, user):
    gaps = [0.0] + [float(g) for g in rng.exponential(2.0, n - 1)]
    return _seq(gaps, [1 + int(d) for d in rng.poisson(3.0, n)], user=user)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    lengths=st.lists(st.integers(2, 40), min_size=1, max_size=5),
    mc_samples=st.sampled_from([1, 2]),
    latent_mode=st.sampled_from(LATENT_MODES),
    wt=st.one_of(st.floats(-0.3, -0.01), st.just(0.0), st.floats(0.01, 0.3)),
)
def test_batched_unroll_equals_sum_of_single_rows(seed, lengths, mc_samples, latent_mode, wt):
    """Rows of ragged lengths unrolled as one batch give every row's value,
    and the gradient of their sum, of the same engine run on each row alone,
    for every cut: full unroll, 1, 3, n and n + 1 steps (n the longest)."""
    rng = np.random.default_rng(seed)
    p = init_params(4, 3, seed=seed % 1000, wt_mode="learned", latent_mode=latent_mode)
    p.head_wt[...] = wt
    seqs = [_random_seq(n, rng, f"u{k}") for k, n in enumerate(lengths)]
    table = _table(seqs)
    eps = [row for s in seqs for row in rng.standard_normal((mc_samples, len(s)))]
    users = np.repeat(np.arange(len(seqs)), mc_samples)
    n = max(lengths)
    for bptt_k in (0, 1, 3, n, n + 1):
        values, grads = _unroll(p, _pack(table, users, np.concatenate(eps)), bptt_k)
        singles = [_unroll(p, _pack(table, [k], e), bptt_k) for k, e in zip(users, eps)]
        np.testing.assert_allclose(values, [v[0] for v, _ in singles], rtol=1e-12, atol=0)
        for name in PARAM_FIELDS:
            # 1e-12 relative, with a floor at 1e-12 of the array's largest
            # entry: sums that cancel to ~1e-17 differ in their last bits
            total = sum(getattr(single, name) for _, single in singles)
            np.testing.assert_allclose(
                getattr(grads, name), total, rtol=1e-12, atol=1e-12 * np.max(np.abs(total)), err_msg=name
            )


def test_steps_on_the_active_prefix_equal_single_rows():
    """Once 16 rows are idle a step runs only the first rows, a strided
    block; the batch still gives every row's value, and the gradient of
    their sum, of the rows run alone."""
    rng = np.random.default_rng(11)
    p = init_params(4, 3, seed=4, wt_mode="learned")
    p.head_wt[...] = -0.05
    seqs = [_random_seq(n, rng, f"u{k:02d}") for k, n in enumerate([12, 9, 5, 3] + [2] * 17)]
    table = _table(seqs)
    eps = [rng.standard_normal(len(s)) for s in seqs]
    rows = _pack(table, range(len(seqs)), np.concatenate(eps))
    assert any(K.width(int((rows.n >= i).sum()), len(seqs)) < len(seqs) for i in range(len(rows.g)))
    for bptt_k in (0, 4):
        values, grads = _unroll(p, rows, bptt_k)
        singles = [_unroll(p, _pack(table, [k], e), bptt_k) for k, e in enumerate(eps)]
        np.testing.assert_allclose(values, [v[0] for v, _ in singles], rtol=1e-12, atol=0)
        total = sum(single.flat for _, single in singles)
        np.testing.assert_allclose(grads.flat, total, rtol=1e-12, atol=1e-12 * np.max(np.abs(total)))


@pytest.mark.parametrize("latent_mode", LATENT_MODES)
def test_cells_a_row_does_not_run_reach_nothing(monkeypatch, latent_mode):
    """Rows that end at step 1, at step 2 and at the last step share a
    segment with a longer one, so a step runs columns of rows that do not
    run it.  With those cache entries (of every step's MLPs after a row's
    step n, and of its draw, LSTM and state from step n on) set to NaN after
    each forward step, the values, gradients, checks and the carried state
    of the running rows equal a clean run's bit for bit; left uncleared, the
    NaN would reach them."""
    p = init_params(4, 3, seed=3, wt_mode="learned", latent_mode=latent_mode)
    p.head_wt[...] = 0.05
    rng = np.random.default_rng(5)
    seqs = [_random_seq(n, rng, f"u{k}") for k, n in enumerate((1, 2, 7, 9))]
    rows = _pack(_table(seqs), range(len(seqs)), np.concatenate([rng.standard_normal(len(s)) for s in seqs]))
    h0 = c0 = np.zeros((len(seqs), 4))
    S = len(rows.g)
    assert rows.n.tolist() == [9, 7, 2, 1] and S == 10  # the last step is 9

    def segment():
        seg = _segment(p, rows, 0, S, h0, c0)
        return seg.values, seg.grads.flat, seg.failures, seg.h[:1], seg.c[:1]

    clean = segment()
    real = K.cell_fwd

    def poisoned(w, u, t, W, first=False, generate=False):
        real(w, u, t, W, first, generate)
        off, idle = rows.n < t, rows.n <= t  # the row's step n, and every step after it
        P2 = u.hid.shape[1]
        for block, cols in ((u.hid[t], off), (u.law[t], off), (u.raw[t], off), (u.dp[t, :P2], off),
                            (u.dp[t, P2:], idle), (u.xh[t, 2:3], idle), (u.xh[t + 1, 3:], idle),
                            (u.c[t + 1], idle)):
            block[:, cols] = np.nan

    monkeypatch.setattr(K, "cell_fwd", poisoned)
    for got, want in zip(segment(), clean):
        if isinstance(want, dict):
            assert got == want == {}
        else:
            assert got.tobytes() == want.tobytes()
    monkeypatch.setattr(K.Unroll, "clear", lambda *args: None)
    values, grads, *_ = segment()
    assert not (np.isfinite(values).all() and np.isfinite(grads).all())


def test_divergence_names_the_first_failing_user_not_the_first_row(monkeypatch):
    # with a rising intensity (wt = 0.1) a gap of 1e4 h overflows the
    # cumulative intensity at the step that scores it.  u1 fails at step 3
    # and u2 earlier, at step 1, but u1 comes first in user order; u0, the
    # longest sequence and so the first row of the unroll, is healthy.
    def rising(*args, **kwargs):
        params = init_params(*args, **kwargs)
        params.head_wt[...] = 0.1
        return params

    monkeypatch.setattr(sys.modules["churnkit.train"], "init_params", rising)
    seqs = [
        _seq([0.0] + [1.0] * 9, [2] * 10, user="u0"),
        _seq([0.0, 1.0, 2.0, 1e4, 1.0], [1, 2, 3, 4, 5], user="u1"),
        _seq([0.0, 1e4, 1.0], [3, 1, 2], user="u2"),
    ]
    cfg = TrainConfig(epochs=1, hidden=4, mlp_hidden=3, batch_size=3, mc_samples=2, wt_mode="learned",
                      report_mae_users=1)
    with pytest.raises(NumericalError) as info:
        train(seqs, cfg)
    assert str(info.value) == "diverged at epoch 1, batch 0: step 3 of 'u1': cumulative intensity overflow"


def test_slope_gradient_overflow_names_the_user_and_step():
    # with wt = 0.05 the gap of 13,990 h keeps wt * g = 699.5 inside the exp
    # range, so the value is finite (about -1e305), but the slope gradient
    # overflows to -inf; it used to be returned with no error
    p = init_params(4, 3, seed=1, wt_mode="learned")
    p.head_wt[...] = 0.05
    seq = _seq([0.0, 1.0, 13990.0], [2, 3, 1], user="u7")
    rows = _pack(_table([seq]), [0], np.zeros(3))
    seg = _segment(p, rows, 0, len(rows.g), np.zeros((1, 4)), np.zeros((1, 4)), backward=False)
    assert np.isfinite(seg.values).all() and seg.failures == {0: (2, "intensity-slope gradient overflow")}
    with pytest.raises(NumericalError, match=r"^step 2 of 'u7': intensity-slope gradient overflow$"):
        elbo_and_grads(p, seq, np.zeros((1, 3)))


class TestGradcheckElbo:
    def test_full_elbo_gradient(self):
        report = gradcheck_elbo(hidden=4, mlp_hidden=4, steps=5, seed=1, wt_mode="learned")
        assert report.max_rel_err < 1e-4, report.summary()

    def test_frozen_wt_variant(self):
        report = gradcheck_elbo(hidden=3, mlp_hidden=3, steps=4, seed=2, wt_mode="frozen_zero")
        assert report.passed
        assert "head_wt" not in report.per_param


def test_clip_gradients_scales_arrays_and_scalars():
    # a gradient in the parameter layout: the array entries and the rank-0
    # scalar heads are views of one vector, and all of them are scaled
    grads = ModelParams(1, 1, "learned", "full")
    grads.lstm_b[:2] = 10.0
    grads.head_wt[...] = 10.0
    assert clip_gradients(grads.flat, 1.0) == pytest.approx(math.sqrt(300.0), rel=1e-15)
    scaled = 10.0 / math.sqrt(300.0)
    np.testing.assert_allclose(grads.lstm_b[:2], [scaled, scaled], rtol=1e-15)
    assert float(grads.head_wt) == pytest.approx(scaled, rel=1e-15)
    unclipped = np.full(3, 0.1)
    clip_gradients(unclipped, 1.0)
    assert np.all(unclipped == 0.1)
    # max_norm 0 turns clipping off
    big = np.full(3, 10.0)
    assert clip_gradients(big, 0.0) == pytest.approx(math.sqrt(300.0), rel=1e-15)
    assert np.all(big == 10.0)


def _tiny_data(users=12, seed=5):
    spec = GeneratorSpec(kind="stationary", users=users, horizon=60.0, mean_gap=2.0, mean_duration=4.0)
    return generate(spec, seed)[0]


class TestTrain:
    def test_zero_learning_rate_is_a_null_optimizer(self):
        seqs = _tiny_data()
        cfg = TrainConfig(epochs=3, lr=0.0, hidden=4, mlp_hidden=3, seed=1, report_mae_users=2, report_mae_samples=4)
        params, report = train(seqs, cfg)
        fresh = init_params(4, 3, 1)
        for name in PARAM_FIELDS:
            np.testing.assert_array_equal(getattr(params, name), getattr(fresh, name))
        losses = [e.neg_elbo_per_event for e in report.epochs]
        assert losses[0] == pytest.approx(losses[1], rel=1e-12)
        assert losses[1] == pytest.approx(losses[2], rel=1e-12)

    def test_two_runs_same_seed_identical(self):
        seqs = _tiny_data()
        cfg = TrainConfig(epochs=2, lr=0.01, hidden=4, mlp_hidden=3, seed=3, report_mae_users=3, report_mae_samples=4)
        p1, r1 = train(seqs, cfg)
        p2, r2 = train(seqs, cfg)
        for name in PARAM_FIELDS:
            np.testing.assert_array_equal(getattr(p1, name), getattr(p2, name))
        for a, b in zip(r1.epochs, r2.epochs):
            assert a.neg_elbo_per_event == b.neg_elbo_per_event
            assert a.mae_gap == b.mae_gap and a.mae_duration == b.mae_duration

    def test_loss_decreases_on_stationary_data(self):
        seqs = _tiny_data(users=16, seed=6)
        cfg = TrainConfig(epochs=6, lr=0.01, hidden=8, mlp_hidden=4, seed=2, report_mae_users=2, report_mae_samples=4)
        _, report = train(seqs, cfg)
        losses = [e.neg_elbo_per_event for e in report.epochs]
        assert losses[-1] < losses[0]

    def test_learned_wt_mode_updates_the_slope(self):
        seqs = _tiny_data(users=8, seed=10)
        cfg = TrainConfig(epochs=3, lr=0.01, hidden=4, mlp_hidden=3, seed=7,
                          wt_mode="learned", report_mae_users=2, report_mae_samples=4)
        params, _ = train(seqs, cfg)
        assert np.isfinite(float(params.head_wt))
        assert float(params.head_wt) != 0.0

    def test_frozen_wt_stays_zero(self):
        seqs = _tiny_data(users=8, seed=11)
        cfg = TrainConfig(epochs=2, lr=0.01, hidden=4, mlp_hidden=3, seed=8,
                          report_mae_users=2, report_mae_samples=4)
        params, _ = train(seqs, cfg)
        assert float(params.head_wt) == 0.0

    def test_ablation_mode_trains(self):
        seqs = _tiny_data(users=8, seed=8)
        cfg = TrainConfig(epochs=2, lr=0.01, hidden=4, mlp_hidden=3, seed=5, latent_mode="fixed", report_mae_users=2, report_mae_samples=4)
        params, report = train(seqs, cfg)
        assert params.latent_mode == "fixed"
        assert len(report.epochs) == 2

    def test_skips_short_sequences_but_needs_one_usable(self):
        only_short = [_seq([0.0], [1], user="a"), _seq([0.0], [2], user="b")]
        with pytest.raises(DataError):
            train(only_short, TrainConfig(epochs=1, hidden=4, mlp_hidden=3))

    @pytest.mark.parametrize("field", ["report_mae_users", "report_mae_samples"])
    @pytest.mark.parametrize("value", [0, -1])
    def test_config_rejects_an_empty_mae_subsample(self, field, value):
        # before any epoch runs, naming the field
        with pytest.raises(ValueError, match=field):
            TrainConfig(**{field: value})

    def test_report_csv_format(self, tmp_path):
        seqs = _tiny_data(users=6, seed=9)
        cfg = TrainConfig(epochs=2, lr=0.005, hidden=4, mlp_hidden=3, seed=6, report_mae_users=2, report_mae_samples=4)
        _, report = train(seqs, cfg)
        path = tmp_path / "report.csv"
        report.to_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "epoch,neg_elbo_per_event,mae_gap,mae_duration,seconds"
        assert len(lines) == 3


class TestCheckpoints:
    def test_roundtrip_bit_exact(self, tmp_path):
        p = init_params(6, 4, seed=31, wt_mode="learned")
        path = tmp_path / "model.json"
        save_checkpoint(p, path)
        loaded, config = load_checkpoint(path)
        for name in PARAM_FIELDS:
            np.testing.assert_array_equal(getattr(p, name), getattr(loaded, name))
        assert loaded.hidden == 6 and loaded.mlp_hidden == 4
        assert loaded.wt_mode == "learned"
        assert config == {"H": 6, "H_p": 4, "w_t_mode": "learned", "latent_mode": "full"}

    def test_older_config_keys_are_ignored(self, tmp_path):
        # checkpoints used to carry the sessionize options as well
        p = init_params(3, 3, seed=37)
        path = tmp_path / "model.json"
        save_checkpoint(p, path)
        blob = json.loads(path.read_text())
        blob["config"].update(gap_mode="end-to-start", session_threshold_hours=2.0)
        path.write_text(json.dumps(blob))
        np.testing.assert_array_equal(load_checkpoint(path)[0].flat, p.flat)

    def test_param_names_are_sorted_in_file(self, tmp_path):
        p = init_params(3, 3, seed=32)
        path = tmp_path / "model.json"
        save_checkpoint(p, path)
        names = list(json.loads(path.read_text())["params"])
        assert names == sorted(names)

    def test_truncated_file_is_corrupt(self, tmp_path):
        p = init_params(3, 3, seed=33)
        path = tmp_path / "model.json"
        save_checkpoint(p, path)
        path.write_text(path.read_text()[: 100])
        with pytest.raises(CorruptCheckpointError):
            load_checkpoint(path)

    def test_version_mismatch(self, tmp_path):
        p = init_params(3, 3, seed=34)
        path = tmp_path / "model.json"
        save_checkpoint(p, path)
        blob = json.loads(path.read_text())
        blob["format_version"] = 99
        path.write_text(json.dumps(blob))
        with pytest.raises(CheckpointVersionError):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "edit",
        [
            lambda blob: blob["params"].update(lstm_b=[1.0, 2.0]),  # used to raise AttributeError
            lambda blob: blob["params"]["lstm_b"].update(shape=12),  # used to raise TypeError
            lambda blob: blob.update(params=5),  # used to raise TypeError
            lambda blob: blob["config"].update(H=2.7),  # used to load as H = 2
            lambda blob: blob["config"].update(H=0),
            lambda blob: blob["config"].update(H_p=-3),
            lambda blob: blob["config"].update(H="3"),
            lambda blob: blob["config"].update(H_p=True),
        ],
        ids=["entry-list", "shape-not-list", "params-not-object", "size-float", "size-zero",
             "size-negative", "size-string", "size-bool"],
    )
    def test_malformed_checkpoint_is_corrupt(self, tmp_path, edit):
        p = init_params(3, 3, seed=38)
        path = tmp_path / "model.json"
        save_checkpoint(p, path)
        blob = json.loads(path.read_text())
        edit(blob)
        path.write_text(json.dumps(blob))
        with pytest.raises(CorruptCheckpointError):
            load_checkpoint(path)

    def test_shape_corruption_detected(self, tmp_path):
        p = init_params(3, 3, seed=36)
        path = tmp_path / "model.json"
        save_checkpoint(p, path)
        blob = json.loads(path.read_text())
        blob["params"]["lstm_b"]["data"] = blob["params"]["lstm_b"]["data"][:-1]
        path.write_text(json.dumps(blob))
        with pytest.raises(CheckpointShapeError):
            load_checkpoint(path)
