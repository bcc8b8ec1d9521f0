"""Metrics, baselines, and the shared-record comparison protocol."""

import numpy as np
import pytest

from churnkit.errors import DataError
from churnkit.evalharness import (
    BaselinePredictor,
    compare,
    compute_metrics,
    fit_baselines,
)
from churnkit.eventlog import Session, SessionSequence
from churnkit.inference import PredictionColumns, PredictionRecord
from churnkit.model import PARAM_FIELDS, init_params
from churnkit.simulate import GeneratorSpec, generate
from churnkit.train import TrainConfig, train


def _seq(gaps, durs, user="u"):
    t, sessions = 0.0, []
    for i, (g, d) in enumerate(zip(gaps, durs)):
        t = t + g if i else 0.0
        sessions.append(Session(t=t, g=g if i else 0.0, d=d))
    return SessionSequence(user, sessions)


def _rec(pred_gap, obs_gap, pred_dur, obs_dur, user="u", step=1):
    return PredictionRecord(user, step, pred_gap, pred_dur, obs_gap, obs_dur)


class TestComputeMetrics:
    def test_perfect_predictor(self):
        records = [_rec(2.0, 2.0, 3.0, 3), _rec(1.5, 1.5, 1.0, 1)]
        m = compute_metrics(records)
        assert m.mae_gap == 0.0 and m.mre_gap == 0.0
        assert m.mae_duration == 0.0 and m.mre_duration == 0.0
        assert m.count == 2

    def test_single_record_arithmetic(self):
        m = compute_metrics([_rec(3.0, 2.0, 3.0, 2)])
        assert m.mae_gap == pytest.approx(1.0)
        assert m.mre_gap == pytest.approx(0.5)
        assert m.mae_duration == pytest.approx(1.0)
        assert m.mre_duration == pytest.approx(0.5)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(0)
        records = [
            _rec(float(rng.uniform(0.5, 4)), float(rng.uniform(0.5, 4)), float(rng.uniform(1, 6)), int(rng.integers(1, 6)))
            for _ in range(20)
        ]
        m1 = compute_metrics(records)
        m2 = compute_metrics(list(reversed(records)))
        assert m1 == m2

    def test_empty_and_unobserved_rejected(self):
        with pytest.raises(DataError):
            compute_metrics([])
        with pytest.raises(DataError):
            compute_metrics([PredictionRecord("u", 1, 1.0, 1.0)])


def _fit(kind, seqs):
    return fit_baselines([kind], seqs)[kind]


def _at(cols, user, step):
    """(pred gap, pred duration) of the record of user at step of columns."""
    k = list(zip(cols.user_id, cols.step)).index((user, step))
    return cols.pred_gap[k], cols.pred_dur[k]


class TestFitBaseline:
    def test_per_user_mean_example(self):
        seqs = [_seq([0.0, 2.0, 4.0], [1, 1, 1], user="a"), _seq([0.0, 6.0], [2, 2], user="b")]
        cols = _fit("per_user_mean", seqs).columns(seqs)
        gap, dur = _at(cols, "a", 1)
        assert gap == pytest.approx(3.0)
        assert dur == pytest.approx(1.0)
        gap2, _ = _at(cols, "a", 2)
        assert gap2 == pytest.approx(3.0)  # same value at every step

    def test_unseen_user_falls_back_to_global(self):
        seqs = [_seq([0.0, 2.0, 4.0], [1, 1, 1], user="a")]
        pred = _fit("per_user_mean", seqs)
        unseen = _seq([0.0, 9.0], [5, 5], user="zz")
        gap, dur = _at(pred.columns([unseen]), "zz", 1)
        assert gap == pytest.approx(3.0)
        assert dur == pytest.approx(1.0)

    def test_hom_poisson_recovers_rate(self):
        spec = GeneratorSpec(kind="stationary", users=100, horizon=400.0, mean_gap=2.0, mean_duration=4.0)
        seqs, _ = generate(spec, seed=1)
        pred = _fit("hom_poisson", seqs)
        gaps = [pred.user_gap[s.user_id] for s in seqs]  # a training user's predicted gap at every step
        assert abs(np.mean(gaps) - 2.0) / 2.0 < 0.05

    def test_last_value_is_exact_on_constant_series(self):
        seqs = [_seq([0.0, 3.0, 3.0, 3.0], [2, 2, 2, 2], user=f"u{i}") for i in range(4)]
        cols = _fit("last_value", seqs).columns(seqs)
        assert cols.obs_gap.tolist() == [s.sessions[i].g for s in seqs for i in range(1, len(s))]
        assert cols.obs_dur.tolist() == [s.sessions[i].d for s in seqs for i in range(1, len(s))]
        m = compute_metrics(cols)
        assert m.mae_gap == 0.0 and m.mae_duration == 0.0

    @pytest.mark.parametrize("kind", ["per_user_mean", "global_mean", "last_value", "hom_poisson"])
    def test_columns_follow_the_per_record_rule(self, kind):
        # each record of columns, on ragged users seen and unseen in training,
        # equals its kind's rule stated record by record
        rng = np.random.default_rng(11)
        seqs = [
            _seq([0.0, *rng.exponential(2.0, m - 1).tolist()], (1 + rng.poisson(3.0, m)).tolist(), user=f"u{k}")
            for k, m in enumerate([1, 2, 5, 9, 3, 1, 7])
        ]
        pred = fit_baselines([kind], seqs[:4])[kind]
        cols = pred.columns(seqs)
        rows = []
        for s in seqs:
            for i in range(1, len(s)):
                if kind == "global_mean":
                    gap, dur = pred.global_gap, pred.global_dur
                elif kind == "last_value":
                    gap, dur = s.sessions[i - 1].g if i >= 2 else pred.global_gap, float(s.sessions[i - 1].d)
                else:
                    gap = pred.user_gap.get(s.user_id, pred.global_gap)
                    dur = pred.user_dur.get(s.user_id, pred.global_dur)
                rows.append((s.user_id, i, gap, dur, s.sessions[i].g, s.sessions[i].d))
        got = zip(cols.user_id, cols.step, cols.pred_gap.tolist(), cols.pred_dur.tolist(), cols.obs_gap.tolist(),
                  cols.obs_dur.tolist())
        assert list(got) == rows

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            fit_baselines(["wizardry"], [_seq([0.0, 1.0], [1, 1])])

    def test_ablation_requires_config_and_trains(self):
        # the ablation is no seedless baseline: it is the model trained with
        # the latent fixed, and compare scores it as a model
        seqs, _ = generate(GeneratorSpec(kind="stationary", users=8, horizon=50.0), seed=2)
        with pytest.raises(ValueError, match="ablation_rnn"):
            fit_baselines(["ablation_rnn"], seqs)
        cfg = TrainConfig(epochs=1, lr=0.01, hidden=4, mlp_hidden=3, seed=0, report_mae_users=2, report_mae_samples=4,
                          latent_mode="fixed")
        params, _ = train(seqs, cfg)
        assert params.latent_mode == "fixed"
        out = compare({"ablation_rnn": params}, seqs, n_samples=2, seed=0)
        assert out["ablation_rnn"].count == sum(len(s) - 1 for s in seqs if len(s) >= 2)


class TestCompare:
    def _zero_params(self):
        p = init_params(4, 4, seed=0)
        for name in PARAM_FIELDS:
            getattr(p, name)[...] = 0.0
        p.lstm_b[4:8] = 0.0
        return p

    def test_identical_models_identical_rows(self):
        seqs, _ = generate(GeneratorSpec(kind="stationary", users=6, horizon=40.0), seed=3)
        p = self._zero_params()
        out = compare({"m1": p, "m2": p}, seqs, n_samples=4, seed=0)
        assert out["m1"] == out["m2"]

    def test_perfect_oracle_scores_zero(self):
        seqs, _ = generate(GeneratorSpec(kind="stationary", users=5, horizon=40.0), seed=4)

        class Oracle(BaselinePredictor):
            def columns(self, sequences):
                cols = super().columns(sequences)
                cols.pred_gap, cols.pred_dur = cols.obs_gap, cols.obs_dur
                return cols

        oracle = Oracle(kind="last_value")
        out = compare({"oracle": oracle}, seqs, n_samples=4, seed=0)
        assert out["oracle"].mae_gap == 0.0
        assert out["oracle"].mae_duration == 0.0

    def test_shared_record_index_enforced(self):
        seqs, _ = generate(GeneratorSpec(kind="stationary", users=5, horizon=40.0), seed=5)

        class Dropper(BaselinePredictor):
            def columns(self, sequences):
                cols = super().columns(sequences)
                return PredictionColumns(cols.user_id[:-1], cols.step[:-1], cols.pred_gap[:-1], cols.pred_dur[:-1],
                                         cols.obs_gap[:-1], cols.obs_dur[:-1])

        # a method whose record set misses the last record breaks the shared
        # record index, and compare names it
        p = self._zero_params()
        full = compare({"m": p, "g": _fit("global_mean", seqs)}, seqs, n_samples=2, seed=0)
        assert full["m"].count == full["g"].count == sum(len(s) - 1 for s in seqs if len(s) >= 2)
        with pytest.raises(DataError, match="'dropper'"):
            compare({"m": p, "dropper": Dropper(kind="global_mean", global_gap=1.0, global_dur=1.0)}, seqs,
                    n_samples=2, seed=0)

    def test_deleting_a_user_changes_every_method_consistently(self):
        seqs, _ = generate(GeneratorSpec(kind="stationary", users=6, horizon=40.0), seed=6)
        p = self._zero_params()
        base = _fit("global_mean", seqs)
        all_rows = compare({"m": p, "g": base}, seqs, n_samples=2, seed=0)
        fewer_rows = compare({"m": p, "g": base}, seqs[:-1], n_samples=2, seed=0)
        assert all_rows["m"].count == all_rows["g"].count
        assert fewer_rows["m"].count == fewer_rows["g"].count
        assert fewer_rows["m"].count < all_rows["m"].count
