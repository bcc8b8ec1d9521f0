"""Metrics, baseline predictors, and model-vs-baseline comparison.

All methods are scored on one shared set of rolling records (same users, same
prefix lengths), so summaries are directly comparable, and scored as columns
(``inference.PredictionColumns``): a model, the latent-free ablation among
them, by ``rolling_columns``, and a fitted seedless baseline by its
``columns``, array operations over one table of the sessions.  MRE divides
the absolute error by the observed value; sessionization guarantees observed
gaps are positive and durations at least 1, so the ratio is always defined.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import attrgetter

import numpy as np

from .errors import DataError
from .inference import PredictionColumns, rolling_columns, user_history_stats
from .model import ModelParams, _table

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
    """Fitted seedless reference predictor, scored as record columns."""

    kind: str
    global_gap: float = 0.0
    global_dur: float = 0.0
    user_gap: dict = None
    user_dur: dict = None

    def columns(self, sequences):
        """The PredictionColumns at every rolling step i = 1..n-1 of each of
        sequences, by sequence and step, from one table of their sessions."""
        ids, n, start, (g, d, *_) = _table(sequences)
        user = np.repeat(np.arange(len(ids)), n - 1)
        at = np.delete(np.arange(n.sum()), start)  # every session but each user's first
        step = at - start[user]
        if self.kind in ("per_user_mean", "hom_poisson"):
            means = [(self.user_gap.get(u, self.global_gap), self.user_dur.get(u, self.global_dur)) for u in ids]
            gap, dur = np.array(means).reshape(-1, 2)[user].T
        elif self.kind == "global_mean":
            gap, dur = np.full((2, len(at)), [[self.global_gap], [self.global_dur]])
        elif self.kind == "last_value":
            # the first gap is a sentinel, so step 1 falls back to the global mean
            gap, dur = np.where(step >= 2, g[at - 1], self.global_gap), d[at - 1]
        else:
            raise ValueError(f"BaselinePredictor: cannot predict with kind {self.kind!r}")
        return PredictionColumns([ids[k] for k in user.tolist()], step.tolist(), gap, dur, g[at], d[at])


def fit_baselines(kinds, train_sequences):
    """{kind: fitted baseline} of each seedless kind, from statistics computed
    once on the training sequences: the global means, and the per-user means
    only if a kind reads them.

    per_user_mean stores each user's mean gap / duration; hom_poisson stores
    the per-user constant-intensity MLE (whose predicted gap is the same
    sample mean, (n-1)/sum g inverted); last_value only needs the global
    fallback.  ablation_rnn is a model: ``train`` with the latent fixed.
    """
    if bad := [kind for kind in kinds if kind not in BASELINE_KINDS or kind == "ablation_rnn"]:
        raise ValueError(f"fit_baselines: {bad[0]!r} is not a seedless baseline kind")
    if not train_sequences:
        raise DataError("fit_baselines: no training sequences")
    all_gaps = [g for s in train_sequences for g in s.gaps()]
    all_durs = [d for s in train_sequences for d in s.durations()]
    if not all_gaps:
        raise DataError("fit_baselines: training data has no observed gaps")
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


def compare(methods, test_sequences, n_samples=32, seed=0):
    """Score every method on identical rolling records.

    ``methods`` maps name -> ModelParams, scored by ``rolling_columns``, or
    fitted BaselinePredictor, scored by its ``columns``.
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
            records = method.columns(usable)
        else:
            raise ValueError(f"compare: method {name!r} has unsupported type {type(method)!r}")
        this_index = (records.user_id, records.step)
        if index is None:
            index = this_index
        elif this_index != index:
            raise DataError(f"compare: method {name!r} produced a mismatched record set")
        summaries[name] = compute_metrics(records)
    return summaries
