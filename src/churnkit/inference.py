"""Filtered prediction of next absence gap / session duration, churn alarms.

Filtering consumes observed sessions with deterministic posterior-mean
latents, which makes evaluation reproducible and causal.  It runs the
training step ``_kernels.cell_fwd`` at eps = 0 on packs of users, longest
first, of at most PACK_CELLS steps x rows each, as (features, rows) blocks.
At the frontier of step s the latent is drawn S times from the prior at the
filtered state, with row s - 1 of one normal stream per (seed, user) whose
rows are drawn in step order, and the point prediction is the sample mean
of the model-implied next gap and duration.  The mean next gap is exact for
every intensity slope (tppmath.expected_gap); a pack's frontiers are one
(records, samples) array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import _kernels as K
from .errors import DataError, NumericalError
from .eventlog import derive_seed
from .model import _pack, _sequence_arrays
from .tppmath import expected_gap


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
    """Filter the packed rows with the weights w: the training step
    ``_kernels.cell_fwd`` at eps = 0, so z is the posterior mean (the prior
    mean at step 0), and with every running row scored, so step n also
    advances the state to the frontier.  Yields (first step, Unroll, run)
    per span of at most PACK_CELLS steps x rows; where run (steps, rows) is
    set, the state after step i is (u.xh[i + 1, 3:], u.c[i + 1]) and (a,
    log gamma) at it is u.ah[i]."""
    R = len(rows.n)
    h = c = np.zeros((R, w.Wo.shape[1]))
    span = max(1, PACK_CELLS // R)
    for lo in range(0, len(rows.feat), span):
        u = K.Unroll(w, rows.feat[lo : lo + span], h, c, rows.eps[lo : lo + span])
        run = rows.n >= np.arange(lo, lo + len(u.eps))[:, None]
        with np.errstate(all="ignore"):  # a diverged row runs on until the check
            for t, A in enumerate(np.count_nonzero(run, axis=1).tolist()):
                K.cell_fwd(w, u, t, K.width(A, R), lo + t == 0)
            u.outputs(w)
        # heads in range and a finite state where a row runs, written so that NaN fails too
        ok = (np.abs(u.ah) <= K.EXP_ARG_MAX).all(axis=1) & np.isfinite(u.xh[1:, 3:]).all(axis=1)
        ok &= np.isfinite(u.c[1:]).all(axis=1)
        if not (ok | ~run).all():
            t, j = np.argwhere(~ok & run)[0]
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
    pred_gap = expected_gap(a, float(params.head_wt)).mean(axis=1)
    return pred_gap.tolist(), np.exp(lg).mean(axis=1).tolist()


def _evaluate(params, seqs, n_samples, seed, rolling):
    """The prediction records of each sequence, in the order of seqs: at
    each prefix length 1..n-1, paired with the next session (rolling), or
    at the whole sequence.

    The sequences are filtered in packs (``_filtered``) and each record is
    predicted from the state it reached (``_predict``).  The record at step s
    takes row s - 1 of its user's stream, drawn span by span in step order;
    every other operation is by row, so a record is the same whichever
    records share its pack.
    """
    w = K.Cell(params)
    full = w.full
    out = [[] for _ in seqs]
    for pack in _packs(seqs):
        items = [(_sequence_arrays(seqs[k]), np.zeros(len(seqs[k]))) for k in pack]
        rows = _pack(items, [seqs[k].user_id for k in pack])
        rngs = [np.random.default_rng(derive_seed(seed, "pred", rows.labels[j])) for j in rows.order if full]
        for lo, u, run in _filtered(w, rows):
            i = np.arange(lo, lo + len(u.ah))
            n = rows.n[:, None]
            drawn = (i >= 1) & run.T  # steps 1..n own rows 0..n-1 of their user's stream
            record = drawn & ((i < n) if rolling else (i == n))
            # a span draws the rows of all its steps, used or not, to keep the streams in step
            eps = [rng.standard_normal((m, n_samples)) for rng, m in zip(rngs, drawn.sum(axis=1))]
            eps = np.concatenate(eps)[record[drawn]] if full else np.broadcast_to(0.0, (record.sum(), n_samples))
            r, t = np.nonzero(record)
            if not r.size:
                continue
            at = [(pack[rows.order[j]], s) for j, s in zip(r.tolist(), (lo + t).tolist())]
            preds = _predict(params, w, u.xh[t + 1, 3:, r].T, eps)
            for (k, s), gap, dur, (a, lg) in zip(at, *preds, u.ah[t, :, r].tolist()):
                obs = (seqs[k].sessions[s].g, seqs[k].sessions[s].d) if rolling else (None, None)
                out[k].append(PredictionRecord(seqs[k].user_id, s, gap, dur, *obs, a, math.exp(lg)))
    return out


def predict_next(params, prefix, n_samples=32, seed=0):
    """Prediction record for the session after the observed prefix."""
    if len(prefix) < 1:
        raise DataError("predict_next: empty prefix")
    if n_samples < 1:
        raise ValueError(f"predict_next: n_samples must be >= 1, got {n_samples}")
    return _evaluate(params, [prefix], n_samples, seed, rolling=False)[0][0]


def rolling_evaluate(params, seq, n_samples=32, seed=0):
    """One prediction per prefix length i = 1..n-1, paired with what the user
    actually did next.  Exactly n-1 records; identical to calling
    predict_next on each prefix because filtering is causal and deterministic
    and each record takes the row of its step from its user's stream."""
    if len(seq) < 2:
        raise DataError(f"rolling_evaluate: need >= 2 sessions, got {len(seq)} for {seq.user_id!r}")
    return rolling_evaluate_many(params, [seq], n_samples, seed)


def rolling_evaluate_many(params, sequences, n_samples=32, seed=0):
    """rolling_evaluate across users (skipping length-1 sequences), flattened
    in user-sorted order."""
    ordered = sorted((s for s in sequences if len(s) >= 2), key=lambda s: s.user_id)
    if not ordered:
        raise DataError("rolling_evaluate_many: no sequence has >= 2 sessions")
    if n_samples < 1:
        raise ValueError(f"rolling_evaluate: n_samples must be >= 1, got {n_samples}")
    return [rec for recs in _evaluate(params, ordered, n_samples, seed, rolling=True) for rec in recs]


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
