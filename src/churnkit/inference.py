"""Filtered prediction of next absence gap / session duration, churn alarms.

Filtering consumes observed sessions with deterministic posterior-mean
latents, which makes evaluation reproducible and causal.  At the prediction
frontier the latent is drawn S times from the prior at the current hidden
state and the point prediction is the sample mean of the model-implied next
gap and duration.  The mean next gap is exact for every intensity slope
(tppmath.expected_gap), and a user's whole prediction frontier is evaluated
as one (records, samples) array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import _kernels as K
from .errors import DataError, NumericalError
from .eventlog import derive_seed
from .model import initial_step, prior_params, step
from .tppmath import IntensitySpec, expected_gap


@dataclass
class PredictionRecord:
    user_id: str
    step: int  # prefix length the prediction was made from (1-based)
    pred_gap: float
    pred_dur: float
    obs_gap: Optional[float] = None
    obs_dur: Optional[int] = None
    a: float = 0.0  # filtered intensity base at the frontier
    gamma: float = 0.0  # filtered duration rate at the frontier


@dataclass
class AlarmPolicy:
    """fixed: alarm iff pred_gap > theta_g and pred_dur < theta_d.
    expected: alarm iff pred_gap > mean gap and pred_dur compares (default
    'less') against the user's mean duration."""

    mode: str = "fixed"
    theta_g: float = 0.0
    theta_d: float = 0.0
    expected_dur_cmp: str = "less"

    def __post_init__(self):
        if self.mode not in ("fixed", "expected"):
            raise ValueError(f"AlarmPolicy: unknown mode {self.mode!r}")
        # written so that NaN fails it too
        if self.mode == "fixed" and not (0.0 < self.theta_g < math.inf and 0.0 < self.theta_d < math.inf):
            raise ValueError("AlarmPolicy: fixed mode needs finite positive theta_g and theta_d")
        if self.expected_dur_cmp not in ("less", "greater"):
            raise ValueError(f"AlarmPolicy: unknown comparator {self.expected_dur_cmp!r}")


def filter_sequence(params, seq):
    """Deterministic filter pass; entry i is the state after consuming
    session i (entry 0 is the pre-data step)."""
    outs = [initial_step(params, "filter")]
    for s in seq.sessions:
        outs.append(step(params, outs[-1].state, s.g, s.d, "filter"))
    return outs


def _predict_at(params, hs, rngs, n_samples):
    """Posterior-predictive means of (next gap, next duration) at each hidden
    state in hs, averaging the heads over n_samples prior draws of z.

    Row r uses only hs[r] and rngs[r], and every operation across rows is
    elementwise, so a record's prediction is the same whichever records
    share the call.
    """
    wz = float(params.head_wz)
    dur_wz = float(params.dur_wz)
    base_a = np.array([float(params.head_wh @ h) + float(params.head_bt) for h in hs])
    base_lg = np.array([float(params.dur_wh @ h) + float(params.dur_b) for h in hs])

    if params.latent_mode == "fixed":
        z = np.full((len(hs), n_samples), 0.5)
    else:
        priors = [prior_params(params, h) for h in hs]
        mu = np.array([p.mu for p in priors])[:, None]
        sigma = np.array([p.sigma for p in priors])[:, None]
        eps = np.array([rng.standard_normal(n_samples) for rng in rngs])
        z = K.sigmoid(mu + sigma * eps)

    a = wz * z + base_a[:, None]
    lg = dur_wz * z + base_lg[:, None]
    # written so that NaN fails the check too
    if not (np.all(np.abs(a) <= 700.0) and np.all(np.abs(lg) <= 700.0)):
        raise NumericalError("predict: head values diverged or are not finite")
    pred_gap = expected_gap(IntensitySpec(a, float(params.head_wt))).mean(axis=1)
    pred_dur = np.exp(lg).mean(axis=1)
    return pred_gap, pred_dur


def _record_rng(seed, user_id, step):
    return np.random.default_rng(derive_seed(seed, "pred", user_id, step))


def predict_next(params, prefix, n_samples=32, seed=0):
    """Prediction record for the session after the observed prefix."""
    if len(prefix) < 1:
        raise DataError("predict_next: empty prefix")
    if n_samples < 1:
        raise ValueError(f"predict_next: n_samples must be >= 1, got {n_samples}")
    outs = filter_sequence(params, prefix)
    frontier = outs[len(prefix)]
    rng = _record_rng(seed, prefix.user_id, len(prefix))
    pred_gap, pred_dur = _predict_at(params, [frontier.state[0]], [rng], n_samples)
    return PredictionRecord(
        user_id=prefix.user_id,
        step=len(prefix),
        pred_gap=float(pred_gap[0]),
        pred_dur=float(pred_dur[0]),
        a=frontier.a,
        gamma=frontier.gamma,
    )


def rolling_evaluate(params, seq, n_samples=32, seed=0):
    """One prediction per prefix length i = 1..n-1, paired with what the user
    actually did next.  Exactly n-1 records; identical to calling
    predict_next on each prefix because filtering is causal and deterministic
    and each record draws from its own stream."""
    n = len(seq)
    if n < 2:
        raise DataError(f"rolling_evaluate: need >= 2 sessions, got {n} for {seq.user_id!r}")
    if n_samples < 1:
        raise ValueError(f"rolling_evaluate: n_samples must be >= 1, got {n_samples}")
    outs = filter_sequence(params, seq)
    steps = range(1, n)
    pred_gap, pred_dur = _predict_at(
        params,
        [outs[i].state[0] for i in steps],
        [_record_rng(seed, seq.user_id, i) for i in steps],
        n_samples,
    )
    return [
        PredictionRecord(
            user_id=seq.user_id,
            step=i,
            pred_gap=float(pred_gap[i - 1]),
            pred_dur=float(pred_dur[i - 1]),
            obs_gap=seq.sessions[i].g,
            obs_dur=seq.sessions[i].d,
            a=outs[i].a,
            gamma=outs[i].gamma,
        )
        for i in steps
    ]


def rolling_evaluate_many(params, sequences, n_samples=32, seed=0):
    """rolling_evaluate across users (skipping length-1 sequences), flattened
    in user-sorted order."""
    ordered = sorted((s for s in sequences if len(s) >= 2), key=lambda s: s.user_id)
    if not ordered:
        raise DataError("rolling_evaluate_many: no sequence has >= 2 sessions")
    return [rec for s in ordered for rec in rolling_evaluate(params, s, n_samples, seed)]


def user_history_stats(seq):
    """(mean observed gap, mean duration); mean gap is None for 1-session users."""
    gaps = seq.gaps()
    mean_gap = float(np.mean(gaps)) if gaps else None
    mean_dur = float(np.mean(seq.durations()))
    return mean_gap, mean_dur


def churn_alarm(record, policy, history_stats=None):
    """Boolean alarm decision for one prediction record."""
    if policy.mode == "fixed":
        return record.pred_gap > policy.theta_g and record.pred_dur < policy.theta_d
    if history_stats is None or history_stats[0] is None:
        raise DataError("churn_alarm: expected mode needs user history stats")
    mean_gap, mean_dur = history_stats
    if policy.expected_dur_cmp == "less":
        dur_flag = record.pred_dur < mean_dur
    else:
        dur_flag = record.pred_dur > mean_dur
    return record.pred_gap > mean_gap and dur_flag
