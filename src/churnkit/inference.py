"""Filtered prediction of next absence gap / session duration, churn alarms.

Filtering consumes observed sessions with deterministic posterior-mean
latents, which makes evaluation reproducible and causal.  It runs the
training step ``_kernels.cell_fwd`` at eps = 0 on packs of users, longest
first, of at most PACK_CELLS steps x rows each, as (features, rows) blocks,
through the forward driver ``_kernels.Unroll.run`` that training runs.
At the frontier of step s the latent is drawn S times from the prior at the
filtered state, with row s - 1 of one normal stream per (seed, user), drawn
as one (n, S) block per pack, and the point prediction is the sample mean
of the model-implied next gap and duration.  The mean next gap is exact for
every intensity slope (tppmath.expected_gap); a pack's frontiers are one
(records, samples) array.  A call packs from one flat table of the sessions
and returns record columns (``PredictionColumns``); the record API expands them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat
from typing import Optional

import numpy as np

from . import _kernels as K
from .errors import DataError, NumericalError
from .eventlog import derive_seed
from .model import _pack, _table
from .tppmath import expected_gap


@dataclass
class PredictionRecord:
    user_id: str
    step: int  # prefix length the prediction was made from (1-based)
    pred_gap: float
    pred_dur: float
    obs_gap: Optional[float] = None
    obs_dur: Optional[int] = None


@dataclass
class PredictionColumns:
    """The fields of a run of PredictionRecords as columns: user_id and
    step are lists, the others float arrays, and obs_gap and obs_dur are
    None where nothing was observed.  len() is the record count."""

    user_id: list
    step: list
    pred_gap: np.ndarray
    pred_dur: np.ndarray
    obs_gap: Optional[np.ndarray]
    obs_dur: Optional[np.ndarray]

    def __len__(self):
        return len(self.step)

    def records(self):
        """The columns as a list of PredictionRecords."""
        obs = (repeat(None),) * 2 if self.obs_gap is None else (self.obs_gap.tolist(), map(int, self.obs_dur.tolist()))
        preds = self.pred_gap.tolist(), self.pred_dur.tolist()
        return list(map(PredictionRecord, self.user_id, self.step, *preds, *obs))


@dataclass
class AlarmPolicy:
    """fixed: alarm iff pred_gap > theta_g and pred_dur < theta_d.
    expected: alarm iff pred_gap > mean gap and pred_dur compares (default
    'less') against the user's mean duration."""

    mode: str = "fixed"
    theta_g: float = 168.0  # hours
    theta_d: float = 2.0  # events
    expected_dur_cmp: str = "less"

    def __post_init__(self):
        if self.mode not in ("fixed", "expected"):
            raise ValueError(f"AlarmPolicy: unknown mode {self.mode!r}")
        # written so that NaN fails it too
        if self.mode == "fixed" and not (0.0 < self.theta_g < math.inf and 0.0 < self.theta_d < math.inf):
            raise ValueError("AlarmPolicy: fixed mode needs finite positive theta_g and theta_d")
        if self.expected_dur_cmp not in ("less", "greater"):
            raise ValueError(f"AlarmPolicy: unknown comparator {self.expected_dur_cmp!r}")


# steps x rows of one filter pass: a pack of sequences holds at most this
# many, and a longer sequence is filtered alone in spans of this many steps
PACK_CELLS = 4096


def _packs(seqs):
    """Indices of seqs in packs, longest first."""
    pack = []
    for k in sorted(range(len(seqs)), key=lambda k: -len(seqs[k])):
        if pack and (len(pack) + 1) * (len(seqs[pack[0]]) + 1) > PACK_CELLS:
            yield pack
            pack = []
        pack.append(k)
    yield pack


def _filtered(w, rows):
    """Filter the packed rows with the weights w: the training forward pass
    ``_kernels.Unroll.run`` at eps = 0, so z is the posterior mean (the
    prior mean at step 0), and at the frontier, so step n also advances the
    state.  Yields (first step, Unroll, run) per span of at most PACK_CELLS
    steps x rows; where run (steps, rows) is set, the state after step i is
    (u.xh[i + 1, 3:], u.c[i + 1]) and (a, log gamma) at it is u.ah[i]."""
    R = len(rows.n)
    h = c = np.zeros((R, w.Wo.shape[1]))
    span = max(1, PACK_CELLS // R)
    for lo in range(0, len(rows.feat), span):
        u = K.Unroll(w, rows.feat[lo : lo + span], h, c, rows.eps[lo : lo + span])
        run, _ = u.run(w, rows.n, lo, frontier=True)
        bad = ~u.healthy() & run
        if bad.any():
            t, j = np.argwhere(bad)[0]
            raise NumericalError(f"filter: step {lo + t} of {rows.labels[rows.order[j]]!r} diverged")
        yield lo, u, run
        h, c = u.xh[-1, 3:].T, u.c[-1].T


def _predict(params, w, hs, eps):
    """Posterior-predictive means of (next gap, next duration) at each column
    of the states hs (H, records): the heads averaged over the prior draws
    of z with the standard normals eps (records, samples)."""
    if w.full:
        pre = params.prior_W1 @ hs + params.prior_b1[:, None]
        mu, sigma, _, _ = K.mlp2(params.prior_W2, params.prior_b2, pre)
        z = K.draw_z(mu.T, sigma.T, eps)
    else:
        z = np.full(eps.shape, 0.5)
    a, lg = (w.Wo @ hs)[..., None] + (w.oz[..., None] * z + w.ob[..., None])  # K.heads, (2, records, samples)
    # written so that NaN fails the check too
    if not (np.all(np.abs(a) <= K.EXP_ARG_MAX) and np.all(np.abs(lg) <= K.EXP_ARG_MAX)):
        raise NumericalError("predict: head values diverged or are not finite")
    return expected_gap(a, float(params.head_wt)).mean(axis=1), np.exp(lg).mean(axis=1)


def _evaluate(params, seqs, n_samples, seed, rolling):
    """The PredictionColumns of seqs, by sequence in the order of seqs and
    by step: at each prefix length 1..n-1, paired with the next session
    (rolling), or at the whole sequence, unobserved.

    The packs come from one table of the sessions (``_table``), each record
    is predicted from the state the filter reached (``_predict``), and the
    columns of all spans are sorted once.  The record at step s takes row
    s - 1 of its user's stream, one (n, samples) block per pack; all else
    is by row, so a record is the same whichever records share its pack.
    """
    w = K.Cell(params)
    table = _table(seqs)
    parts = []
    for pack in _packs(seqs):
        rows = _pack(table, pack)
        n = rows.n[:, None]
        if w.full:  # every row's stream, one after the other: step s of row r reads start[r] + s
            start = np.cumsum(rows.n) - rows.n - 1
            streams = np.concatenate([np.random.default_rng(derive_seed(seed, "pred", rows.labels[j]))
                                      .standard_normal((m, n_samples)) for j, m in zip(rows.order, rows.n.tolist())])
        for lo, u, _ in _filtered(w, rows):
            i = np.arange(lo, lo + len(u.ah))
            r, t = np.nonzero((i >= 1) & ((i < n) if rolling else (i == n)))
            if r.size:
                s = lo + t
                eps = streams[start[r] + s] if w.full else np.broadcast_to(0.0, (r.size, n_samples))
                gap, dur = _predict(params, w, u.xh[t + 1, 3:, r].T, eps)
                k = np.asarray(pack)[rows.order[r]]
                parts.append((k, s, gap, dur, rows.g[s, r], rows.d[s, r]))
    k, s, gap, dur, obs_gap, obs_dur = map(np.concatenate, zip(*parts))
    at = np.lexsort((s, k))
    obs = (obs_gap[at], obs_dur[at]) if rolling else (None, None)
    return PredictionColumns(list(map(table[0].__getitem__, k[at].tolist())), s[at].tolist(), gap[at], dur[at], *obs)


def predict_next(params, prefix, n_samples=32, seed=0):
    """Prediction record for the session after the observed prefix."""
    if len(prefix) < 1:
        raise DataError("predict_next: empty prefix")
    if n_samples < 1:
        raise ValueError(f"predict_next: n_samples must be >= 1, got {n_samples}")
    return _evaluate(params, [prefix], n_samples, seed, rolling=False).records()[0]


def rolling_columns(params, sequences, n_samples=32, seed=0):
    """One prediction per prefix length i = 1..n-1 of every sequence of n >= 2
    sessions (shorter ones are skipped), paired with what the user actually
    did next, as PredictionColumns in user-sorted order.  Each record equals
    predict_next on its prefix: filtering is causal and deterministic, and
    each record takes the row of its step from its user's stream."""
    ordered = sorted((s for s in sequences if len(s) >= 2), key=lambda s: s.user_id)
    if not ordered:
        raise DataError("rolling_columns: no sequence has >= 2 sessions")
    if n_samples < 1:
        raise ValueError(f"rolling_columns: n_samples must be >= 1, got {n_samples}")
    return _evaluate(params, ordered, n_samples, seed, rolling=True)


def rolling_evaluate_many(params, sequences, n_samples=32, seed=0):
    """The records of ``rolling_columns``, in user-sorted order."""
    return rolling_columns(params, sequences, n_samples, seed).records()


def user_history_stats(seq):
    """(mean observed gap, mean duration); mean gap is None for 1-session users."""
    gaps = seq.gaps()
    mean_gap = float(np.mean(gaps)) if gaps else None
    mean_dur = float(np.mean(seq.durations()))
    return mean_gap, mean_dur


def churn_alarm(record, policy, history_stats=None):
    """Boolean alarm decision for one prediction record, or the boolean
    array of PredictionColumns with history stats of one entry per record:
    every operation is elementwise."""
    if policy.mode == "fixed":
        return (record.pred_gap > policy.theta_g) & (record.pred_dur < policy.theta_d)
    if history_stats is None or history_stats[0] is None:
        raise DataError("churn_alarm: expected mode needs user history stats")
    mean_gap, mean_dur = history_stats
    if policy.expected_dur_cmp == "less":
        dur_flag = record.pred_dur < mean_dur
    else:
        dur_flag = record.pred_dur > mean_dur
    return (record.pred_gap > mean_gap) & dur_flag
