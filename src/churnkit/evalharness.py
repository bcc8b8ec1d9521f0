"""Metrics, baseline predictors, and model-vs-baseline comparison.

All methods are scored on one shared set of rolling records (same users, same
prefix lengths), so summaries are directly comparable, and scored as columns
(``inference.PredictionColumns``).  MRE divides the absolute error by the
observed value; sessionization guarantees observed gaps are positive and
durations at least 1, so the ratio is always defined.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import attrgetter
from typing import Optional

import numpy as np

from .errors import DataError
from .inference import PredictionColumns, rolling_columns, user_history_stats
from .model import ModelParams

BASELINE_KINDS = ("per_user_mean", "global_mean", "last_value", "hom_poisson", "ablation_rnn")


@dataclass
class MetricSummary:
    mae_gap: float
    mre_gap: float
    mae_duration: float
    mre_duration: float
    count: int


def compute_metrics(records):
    """MAE / MRE over gap and duration of PredictionColumns, or of a list of
    records, whose columns are gathered first; every record must carry its
    observation."""
    if not len(records):
        raise DataError("compute_metrics: no records")
    if isinstance(records, PredictionColumns):
        if records.obs_gap is None:
            raise DataError("compute_metrics: columns without observations")
        cols = records.pred_gap, records.obs_gap, records.pred_dur, records.obs_dur
    else:
        for r in records:
            if r.obs_gap is None or r.obs_dur is None:
                raise DataError(f"compute_metrics: record without observation (user {r.user_id}, step {r.step})")
        names = ("pred_gap", "obs_gap", "pred_dur", "obs_dur")
        cols = [np.fromiter(map(attrgetter(name), records), float, len(records)) for name in names]
    pred_gap, obs_gap, pred_dur, obs_dur = cols
    eg = np.abs(pred_gap - obs_gap)
    ed = np.abs(pred_dur - obs_dur)
    n = len(records)
    # fsum is exactly rounded, so summaries are invariant under record order
    return MetricSummary(
        mae_gap=math.fsum(eg.tolist()) / n,
        mre_gap=math.fsum((eg / obs_gap).tolist()) / n,
        mae_duration=math.fsum(ed.tolist()) / n,
        mre_duration=math.fsum((ed / obs_dur).tolist()) / n,
        count=n,
    )


@dataclass
class BaselinePredictor:
    """Fitted reference predictor; ``params`` is set only for ablation_rnn."""

    kind: str
    global_gap: float = 0.0
    global_dur: float = 0.0
    user_gap: dict = None
    user_dur: dict = None
    params: Optional[ModelParams] = None

    def predict(self, seq, i):
        """(pred gap, pred duration) for the session after prefix 1..i."""
        if self.kind in ("per_user_mean", "hom_poisson"):
            gap = self.user_gap.get(seq.user_id, self.global_gap)
            dur = self.user_dur.get(seq.user_id, self.global_dur)
            return gap, dur
        if self.kind == "global_mean":
            return self.global_gap, self.global_dur
        if self.kind == "last_value":
            # the first session's gap is a sentinel, so a step-1 prediction
            # has no previous real gap and falls back to the global mean
            gap = seq.sessions[i - 1].g if i >= 2 else self.global_gap
            return gap, float(seq.sessions[i - 1].d)
        raise ValueError(f"BaselinePredictor: cannot predict with kind {self.kind!r}")


def fit_baseline(kind, train_sequences, config=None):
    """Fit one baseline on training sequences.

    per_user_mean stores each user's mean gap / duration; hom_poisson stores
    the per-user constant-intensity MLE (whose predicted gap is the same
    sample mean, (n-1)/sum g inverted); last_value only needs the global
    fallback; ablation_rnn trains the full pipeline with the latent clamped
    to 0.5 and the KL dropped (config: a TrainConfig).
    """
    if kind != "ablation_rnn":
        return fit_baselines([kind], train_sequences)[kind]
    if not train_sequences:
        raise DataError("fit_baseline: no training sequences")
    if config is None:
        raise ValueError("fit_baseline: ablation_rnn needs a TrainConfig")
    from dataclasses import replace

    from .train import train

    params, _ = train(train_sequences, replace(config, latent_mode="fixed"))
    return BaselinePredictor(kind=kind, params=params)


def fit_baselines(kinds, train_sequences):
    """{kind: fitted baseline} for kinds other than ablation_rnn, as
    fit_baseline fits them, from statistics computed once: the global means,
    and the per-user means only if a kind reads them."""
    if bad := [kind for kind in kinds if kind not in BASELINE_KINDS or kind == "ablation_rnn"]:
        raise ValueError(f"fit_baseline: unknown kind {bad[0]!r}")
    if not train_sequences:
        raise DataError("fit_baseline: no training sequences")
    all_gaps = [g for s in train_sequences for g in s.gaps()]
    all_durs = [d for s in train_sequences for d in s.durations()]
    if not all_gaps:
        raise DataError("fit_baseline: training data has no observed gaps")
    global_gap = float(np.mean(all_gaps))
    global_dur = float(np.mean(all_durs))
    user_gap = user_dur = None
    if {"per_user_mean", "hom_poisson"} & set(kinds):
        user_gap = {}
        user_dur = {}
        for s in train_sequences:
            mean_gap, user_dur[s.user_id] = user_history_stats(s)
            user_gap[s.user_id] = global_gap if mean_gap is None else mean_gap
    return {kind: BaselinePredictor(kind, global_gap, global_dur, user_gap, user_dur) for kind in kinds}


def _baseline_records(predictor, sequences):
    """The PredictionColumns of a fitted baseline at every rolling step of
    sequences, by sequence and step."""
    at = [(seq, i) for seq in sequences for i in range(1, len(seq))]
    cols = np.array([(*predictor.predict(seq, i), seq.sessions[i].g, seq.sessions[i].d) for seq, i in at], float)
    zeros = np.zeros(len(at))
    return PredictionColumns([seq.user_id for seq, _ in at], [i for _, i in at], *cols.T, zeros, zeros)


def compare(methods, test_sequences, n_samples=32, seed=0):
    """Score every method on identical rolling records.

    ``methods`` maps name -> ModelParams or fitted BaselinePredictor.
    Returns {name: MetricSummary} in the given order; raises if any method
    produced a different record index set (protocol violation).
    """
    usable = sorted((s for s in test_sequences if len(s) >= 2), key=lambda s: s.user_id)
    if not usable:
        raise DataError("compare: no test sequence has >= 2 sessions")

    summaries = {}
    index = None
    for name, method in methods.items():
        if isinstance(method, ModelParams):
            records = rolling_columns(method, usable, n_samples, seed)
        elif isinstance(method, BaselinePredictor):
            if method.kind == "ablation_rnn":
                records = rolling_columns(method.params, usable, n_samples, seed)
            else:
                records = _baseline_records(method, usable)
        else:
            raise ValueError(f"compare: method {name!r} has unsupported type {type(method)!r}")
        this_index = (records.user_id, records.step)
        if index is None:
            index = this_index
        elif this_index != index:
            raise DataError(f"compare: method {name!r} produced a mismatched record set")
        summaries[name] = compute_metrics(records)
    return summaries
