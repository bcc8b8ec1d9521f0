"""Variational training of the recurrent model by BPTT.

The per-sequence objective is a time-step-wise evidence lower bound: summed
log gap densities (from the second session on; the first gap is a sentinel),
summed Poisson log pmfs of durations (every session, the first one scored by
the pre-data step), minus the closed-form Gaussian KL between posterior and
prior of logit(z) at every step.  The expectation over latent trajectories is
estimated with L reparameterized samples; the epsilon draws are derived from
(seed, user), so they are fixed across epochs and the whole run is
reproducible bit for bit.

Gradients come from truncated backpropagation through time written out by
hand, run on all rows of an optimizer batch at once: its users times their
L latent trajectories, sorted by length (the packed-sequence form).  A
forward loop calls the batched step ``_kernels.cell_fwd`` and keeps its
caches in one feature-major ``_kernels.Unroll`` per truncation segment; a
step runs every row until 16 are idle, then the active prefix, and the
entries of rows that do not run it are zeroed after the loop.  The pre-data
step 0 and the KL-only step n are the same step with parts masked off.  The
likelihood terms, the KL and every step-local factor of the adjoint are
then evaluated for the whole segment at once, a reverse loop calls
``_kernels.cell_bwd``, and the parameter gradients are reduced as matrix
products over the segment's steps and rows into the layout of the parameter
vector (a ``ModelParams``).  Summing the segments, scaling by the batch, the
finiteness check, clipping and Adam are each one operation on that one
vector.
The cuts fall at the same step indices on every row: the recurrent state
value is carried across a cut but its gradient is not.  ``elbo_and_grads``
is the one-user call of the same engine, and ``gradcheck_elbo`` checks it
against central differences of the ELBO value.
"""

from __future__ import annotations

import json
import logging
import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import _kernels as K
from .errors import (
    CheckpointShapeError,
    CheckpointVersionError,
    CorruptCheckpointError,
    DataError,
    NumericalError,
)
from .eventlog import Session, SessionSequence, derive_seed, open_input, write_json, write_table
from .inference import rolling_evaluate_many
from .model import (
    LATENT_MODES,
    PARAM_FIELDS,
    WT_MODES,
    ModelParams,
    _pack,
    _sequence_arrays,
    expected_shapes,
    init_params,
)

log = logging.getLogger(__name__)

CHECKPOINT_VERSION = 1


@dataclass
class TrainConfig:
    epochs: int = 70
    lr: float = 0.001
    hidden: int = 64
    mlp_hidden: int = 32
    mc_samples: int = 1  # latent trajectories per sequence
    batch_size: int = 16  # users per optimizer step
    bptt_k: int = 200  # truncation length in steps, 0 = full unroll
    seed: int = 0
    wt_mode: str = "frozen_zero"
    latent_mode: str = "full"
    clip_norm: float = 5.0  # global gradient norm, 0 = no clipping
    report_mae_users: int = 32  # per-epoch MAE subsample cap
    report_mae_samples: int = 16

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError(f"TrainConfig: epochs must be >= 1, got {self.epochs}")
        # written so that NaN fails them too
        if not 0.0 <= self.lr < math.inf:
            raise ValueError(f"TrainConfig: lr must be finite and >= 0, got {self.lr}")
        if not 0.0 <= self.clip_norm < math.inf:
            raise ValueError(f"TrainConfig: clip_norm must be finite and >= 0, got {self.clip_norm}")
        if self.bptt_k < 0:
            raise ValueError(f"TrainConfig: bptt_k must be >= 0 (0 = full unroll), got {self.bptt_k}")
        if self.mc_samples < 1:
            raise ValueError(f"TrainConfig: mc_samples must be >= 1, got {self.mc_samples}")
        if self.batch_size < 1:
            raise ValueError(f"TrainConfig: batch_size must be >= 1, got {self.batch_size}")
        if self.report_mae_users < 1:
            raise ValueError(f"TrainConfig: report_mae_users must be >= 1, got {self.report_mae_users}")
        if self.report_mae_samples < 1:
            raise ValueError(f"TrainConfig: report_mae_samples must be >= 1, got {self.report_mae_samples}")


@dataclass
class EpochStats:
    epoch: int
    neg_elbo_per_event: float
    mae_gap: float
    mae_duration: float
    seconds: float


@dataclass
class TrainReport:
    epochs: list = field(default_factory=list)

    def to_csv(self, path):
        write_table(path, ("epoch", "neg_elbo_per_event", "mae_gap", "mae_duration", "seconds"), (
            (e.epoch, float(e.neg_elbo_per_event), float(e.mae_gap), float(e.mae_duration), f"{e.seconds:.3f}")
            for e in self.epochs
        ))


# ------------------------------------------------------------ ELBO and BPTT


@dataclass
class _Segment:
    values: np.ndarray  # (R,) the segment's ELBO terms of each row
    grads: ModelParams  # gradient of their sum; None without the reverse pass
    h: np.ndarray  # state after the segment
    c: np.ndarray
    dh: np.ndarray  # adjoint of the state before it
    dc: np.ndarray
    failures: dict  # row -> (step, message) of its first failed check


def _failures(lo, first, gap, last, full, wt, g, a, lg, term, kl, law):
    """First failed check of each row: its step and message, with the checks
    of a step in the order the forward pass meets them.  first, gap and last
    mask the pre-data step, the steps that score a gap and the KL-only
    steps n."""
    sq, sp = law[1], law[3]
    checks = (
        (first & ~np.isfinite(lg), lambda s, r: "non-finite duration head value"),
        (first & (np.abs(lg) > K.EXP_ARG_MAX),
         lambda s, r: f"head value outside the exp range: log gamma {lg[s, r]:.3g}"),
        (gap & ((np.abs(a) > K.EXP_ARG_MAX) | (np.abs(lg) > K.EXP_ARG_MAX)),
         lambda s, r: f"head value outside the exp range: |a| or |log gamma| > {K.EXP_ARG_MAX:g}"),
        (gap & (abs(wt) >= K.WT_ZERO_EPS) & (wt * g > K.EXP_ARG_MAX),
         lambda s, r: "cumulative intensity overflow"),
        (gap & ~np.isfinite(term), lambda s, r: "non-finite ELBO term"),
        (gap & full & (kl < -1e-12), lambda s, r: f"negative KL {kl[s, r]:.3e}"),
        (last & ((sq <= 0.0) | (sp <= 0.0)),
         lambda s, r: f"non-positive std (posterior {sq[s, r]:.3g}, prior {sp[s, r]:.3g})"),
        (last & ~np.isfinite(kl), lambda s, r: "non-finite KL"),
        (last & (kl < -1e-12), lambda s, r: f"negative KL {kl[s, r]:.3e}"),
    )
    bad = np.stack([np.broadcast_to(mask, term.shape) for mask, _ in checks])
    failed = bad.any(axis=0)
    out = {}
    for r in np.flatnonzero(failed.any(axis=0)):
        s = int(np.argmax(failed[:, r]))
        out[int(r)] = (lo + s, checks[int(np.argmax(bad[:, s, r]))][1](s, r))
    return out


@np.errstate(all="ignore")  # a failed row runs on as inf/nan until the checks
def _segment(params, rows, lo, hi, h0, c0, backward=True, dh=None, dc=None):
    """Forward and reverse pass over steps lo..hi-1 of every row, from the
    state (h0, c0).  (dh, dc) is the adjoint of the state after the last
    step: zero (None) where truncation cuts the gradient."""
    w = K.Cell(params)
    full = w.full
    wt = float(params.head_wt)
    i = np.arange(lo, hi)[:, None]
    n = rows.n
    R = len(n)
    run = n >= i
    scored = n > i  # the step scores a duration, and from step 1 on a gap
    W = [K.width(A, R) for A in np.count_nonzero(run, axis=1).tolist()]
    u = K.Unroll(w, rows.feat[lo:hi], h0, c0, rows.eps[lo:hi])
    for t in range(hi - lo):
        K.cell_fwd(w, u, t, W[t], lo + t == 0)
    u.clear(run, scored)
    u.outputs(w)

    first = scored & (i == 0)
    gap = scored & (i >= 1)
    last = (n == i) & (i >= 1) & full  # step n carries only its KL
    kl_on = gap & full | last
    a, lg = u.ah[:, 0], u.ah[:, 1]
    ll_gap, da, dwt = K.gap_loglik(a, wt, rows.g[lo:hi])
    ll_dur, dlg = K.dur_loglik(lg, rows.d[lo:hi], rows.lgd[lo:hi])
    law = u.law.transpose(1, 0, 2)
    kl = K.gaussian_kl(*law)
    term = np.where(gap, ll_gap, 0.0) + np.where(scored, ll_dur, 0.0) - np.where(kl_on, kl, 0.0)
    failures = _failures(lo, first, gap, last, full, wt, rows.g[lo:hi], a, lg, term, kl, law)
    values = term.sum(axis=0)
    if not backward or failures:
        return _Segment(values, None, u.xh[-1, 3:].T, u.c[-1].T, None, None, failures)

    da = np.where(gap, da, 0.0)
    dlg = np.where(scored, dlg, 0.0)
    dlaw = np.where(kl_on[:, None], -np.stack(K.gaussian_kl_grad(*law), axis=1), 0.0)
    drawn = np.stack([gap & full, first & full], axis=1)
    u.adjoint_terms(w, da, dlg, dlaw, drawn)
    # the state's adjoints as (H, rows) blocks
    dh = np.zeros(u.c[0].shape) if dh is None else np.array(np.transpose(dh), dtype=float, order="C")
    dc = np.zeros(u.c[0].shape) if dc is None else np.array(np.transpose(dc), dtype=float, order="C")
    for t in reversed(range(hi - lo)):
        K.cell_bwd(w, u, t, W[t], dh, dc)
    # a frozen slope gets the gradient 0 (written, not masked: a NaN there
    # cannot trip the checks, and Adam keeps the slope at exactly 0)
    dwt = np.where(gap, dwt, 0.0).sum() if params.wt_mode == "learned" else 0.0
    grads = params.replace(head_wt=dwt, **u.grads(da, dlg))
    return _Segment(values, grads, u.xh[-1, 3:].T, u.c[-1].T, dh.T, dc.T, failures)


def _unroll(params, rows, bptt_k, backward=True):
    """(ELBO value of every row in the caller's order, gradient of their sum
    as a ModelParams) by truncated BPTT over all rows at once.

    The cuts fall at the step indices k * bptt_k (bptt_k <= 0 unrolls in
    full), the same for every row: the state is carried across a cut, its
    gradient is not.  A failed numerical check raises NumericalError for
    the row that comes first in the caller's order, at its first failing
    step -- what running the rows one after the other would report.
    """
    R = len(rows.n)
    h = np.zeros((R, params.hidden))
    c = np.zeros((R, params.hidden))
    values = np.zeros(R)
    grads = None
    failures = {}
    steps = len(rows.g)
    lo = 0
    while lo < steps:
        hi = steps if bptt_k <= 0 else min(lo + bptt_k, steps)
        seg = _segment(params, rows, lo, hi, h, c, backward and not failures)
        for j, failure in seg.failures.items():
            failures.setdefault(j, failure)
        values += seg.values
        if grads is None:
            grads = seg.grads
        elif seg.grads is not None:
            grads.flat += seg.grads.flat
        h, c = seg.h, seg.c
        lo = hi
    if failures:
        j = min(failures, key=lambda j: rows.order[j])
        step, message = failures[j]
        raise NumericalError(f"step {step} of {rows.labels[rows.order[j]]!r}: {message}")
    out = np.empty(R)
    out[rows.order] = values
    return out, grads


def _sequence_rows(seq, eps):
    arrays = _sequence_arrays(seq)
    return _pack([(arrays, row) for row in eps], [seq.user_id] * len(eps))


def _elbo_value(params, seq, eps):
    """Full-unroll ELBO averaged over the rows of eps (no gradients)."""
    values, _ = _unroll(params, _sequence_rows(seq, eps), 0, backward=False)
    return float(values.sum()) / eps.shape[0]


def elbo_and_grads(params, seq, eps, bptt_k=0):
    """(elbo value, gradient by trainable name) with optional truncated BPTT.

    Each row of eps is one latent trajectory; the value and gradients are
    averaged over them.  With bptt_k > 0 a trajectory is unrolled in
    segments of bptt_k steps.  This is the one-user call of the engine that
    ``train`` runs on whole batches.
    """
    values, grads = _unroll(params, _sequence_rows(seq, eps), bptt_k)
    L = eps.shape[0]
    return float(values.sum()) / L, {name: getattr(grads, name) / L for name in params.trainable_names()}


# -------------------------------------------------------------------- optim


class Adam:
    """Adam (Kingma & Ba, 2015) on one parameter vector, with the paper's
    constants.  It is elementwise, so an entry whose gradient stays 0 (the
    frozen intensity slope) never moves."""

    BETA1 = 0.9
    BETA2 = 0.999
    EPS = 1e-8

    def __init__(self, size):
        self.t = 0
        self.m = np.zeros(size)
        self.v = np.zeros(size)

    def step(self, x, g, lr):
        """One update of the vector x in place by the gradient g."""
        self.t += 1
        bc1 = 1.0 - self.BETA1**self.t
        bc2 = 1.0 - self.BETA2**self.t
        self.m *= self.BETA1
        self.m += (1.0 - self.BETA1) * g
        self.v *= self.BETA2
        self.v += (1.0 - self.BETA2) * g * g
        x -= lr * (self.m / bc1) / (np.sqrt(self.v / bc2) + self.EPS)


def clip_gradients(g, max_norm):
    """Global-norm clipping of the gradient vector g in place (max_norm 0
    turns it off); returns the pre-clip norm."""
    norm = math.sqrt(float(g @ g))
    if max_norm > 0.0 and norm > max_norm:
        g *= max_norm / norm
    return norm


# ----------------------------------------------------------------- training


def _user_eps(seed, user_id, mc_samples, length):
    rng = np.random.default_rng(derive_seed(seed, "eps", user_id))
    return rng.standard_normal((mc_samples, length))


def _epoch_mae(params, subsample, n_samples, seed):
    records = rolling_evaluate_many(params, subsample, n_samples, seed)
    abs_gap = [abs(rec.pred_gap - rec.obs_gap) for rec in records]
    return float(np.mean(abs_gap)), float(np.mean([abs(rec.pred_dur - rec.obs_dur) for rec in records]))


def train(sequences, config):
    """Fit the model; returns (params, report).

    Deterministic given (data, config): user order is shuffled by a seeded
    RNG and the epsilon draws are fixed per (seed, user).  Each optimizer
    batch is one unroll of its users' latent trajectories stacked as rows
    (users in sorted order), and the parameters update once per batch.
    """
    usable = [s for s in sequences if len(s) >= 2]
    skipped = len(sequences) - len(usable)
    if skipped:
        log.info("train: skipping %d sequence(s) shorter than 2 sessions", skipped)
    if not usable:
        raise DataError("train: no sequence has >= 2 sessions")
    usable = sorted(usable, key=lambda s: s.user_id)

    params = init_params(
        config.hidden, config.mlp_hidden, config.seed, config.wt_mode, config.latent_mode
    )
    opt = Adam(params.flat.size)
    report = TrainReport()
    L = config.mc_samples
    arrays = [_sequence_arrays(s) for s in usable]
    eps = [_user_eps(config.seed, s.user_id, L, len(s)) for s in usable]

    mae_rng = np.random.default_rng(derive_seed(config.seed, "maeusers"))
    n_sub = min(config.report_mae_users, len(usable))
    mae_sub = [usable[i] for i in sorted(mae_rng.choice(len(usable), size=n_sub, replace=False))]
    mae_seed = derive_seed(config.seed, "mae")

    for epoch in range(1, config.epochs + 1):
        t0 = time.perf_counter()
        order = np.random.default_rng(derive_seed(config.seed, "shuffle", epoch)).permutation(
            len(usable)
        )
        epoch_elbo = 0.0
        epoch_events = 0
        for b0 in range(0, len(order), config.batch_size):
            # usable is sorted by user id, so sorted indices are sorted users
            batch = sorted(order[b0 : b0 + config.batch_size])
            rows = _pack(
                [(arrays[k], row) for k in batch for row in eps[k]],
                [usable[k].user_id for k in batch for _ in range(L)],
            )
            try:
                values, grads = _unroll(params, rows, config.bptt_k)
            except NumericalError as exc:
                raise NumericalError(
                    f"diverged at epoch {epoch}, batch {b0 // config.batch_size}: {exc}"
                ) from None
            for value in values.reshape(len(batch), L).sum(axis=1):
                epoch_elbo += float(value) / L
            batch_events = sum(len(usable[k]) for k in batch)
            epoch_events += batch_events
            # minimize the negative per-event ELBO
            g = grads.flat * (-1.0 / (L * batch_events))
            if not np.isfinite(g).all():
                raise NumericalError(
                    f"non-finite gradient at epoch {epoch}, batch {b0 // config.batch_size}"
                )
            clip_gradients(g, config.clip_norm)
            opt.step(params.flat, g, config.lr)

        neg_per_event = -epoch_elbo / epoch_events
        if not math.isfinite(neg_per_event):
            raise NumericalError(f"non-finite loss at epoch {epoch}")
        mae_gap, mae_dur = _epoch_mae(params, mae_sub, config.report_mae_samples, mae_seed)
        seconds = time.perf_counter() - t0
        report.epochs.append(EpochStats(epoch, neg_per_event, mae_gap, mae_dur, seconds))
        log.info(
            "epoch %d: neg elbo/event %.5f, mae gap %.4f, mae dur %.4f (%.1fs)",
            epoch,
            neg_per_event,
            mae_gap,
            mae_dur,
            seconds,
        )
    return params, report


# --------------------------------------------------------------- gradcheck


@dataclass
class GradCheckReport:
    """Per-parameter relative errors of analytic vs central-difference grads."""

    per_param: dict = field(default_factory=dict)
    max_rel_err: float = 0.0
    tol: float = 1e-4

    @property
    def passed(self):
        return self.max_rel_err < self.tol

    def summary(self):
        status = "PASS" if self.passed else "FAIL"
        return f"{status} max_rel_err={self.max_rel_err:.3e} tol={self.tol:.1e}"


def _rel_err(a, b):
    denom = max(abs(a), abs(b), 1e-6)
    return abs(a - b) / denom


def grad_check(loss, values, grads, h=1e-5, tol=1e-4):
    """Compare analytic gradients against central differences of a loss.

    ``values`` maps names to floats or arrays, ``grads`` holds the analytic
    gradient of ``loss(values)`` under the same names.  The loss has to be
    deterministic (freeze any random draws before calling).
    """

    def forward(bumped):
        value = loss(bumped)
        if not math.isfinite(value):
            raise NumericalError("grad_check: non-finite forward value")
        return value

    forward(values)
    report = GradCheckReport(tol=tol)
    for name, value in values.items():
        value = np.asarray(value, dtype=np.float64)
        analytic = np.ravel(grads[name])
        worst = 0.0
        for j in range(value.size):
            hi = value.copy()
            hi.flat[j] += h
            lo = value.copy()
            lo.flat[j] -= h
            fd = (forward(dict(values, **{name: hi})) - forward(dict(values, **{name: lo}))) / (2.0 * h)
            worst = max(worst, _rel_err(float(analytic[j]), fd))
        report.per_param[name] = worst
        report.max_rel_err = max(report.max_rel_err, worst)
    return report


def gradcheck_elbo(hidden=4, mlp_hidden=4, steps=5, seed=1, wt_mode="learned", step_size=1e-5, tol=1e-4):
    """Finite-difference check of the full multi-step objective.

    Builds a short random sequence, freezes the latent draws, and compares
    the BPTT gradient of the sequence ELBO against central differences of
    step step_size for every trainable parameter.
    """
    if steps < 2:
        raise ValueError(f"gradcheck_elbo: need >= 2 steps, got {steps}")
    if not (0.0 < step_size < math.inf and 0.0 < tol < math.inf):  # NaN fails too
        raise ValueError(f"gradcheck_elbo: step_size and tol must be finite and > 0, got {step_size}, {tol}")
    params = init_params(hidden, mlp_hidden, seed, wt_mode=wt_mode)
    rng = np.random.default_rng(derive_seed(seed, "gradcheck"))
    sessions = []
    t = 0.0
    for i in range(steps):
        gap = 0.0 if i == 0 else float(rng.exponential(1.0))
        t += gap if i else 0.0
        sessions.append(Session(t=t, g=gap, d=1 + int(rng.poisson(2.0))))
    seq = SessionSequence(user_id="gradcheck", sessions=sessions)
    eps = rng.standard_normal((1, steps))

    _, grads = elbo_and_grads(params, seq, eps)
    values = {name: getattr(params, name) for name in params.trainable_names()}
    return grad_check(
        lambda bumped: _elbo_value(params.replace(**bumped), seq, eps), values, grads, h=step_size, tol=tol
    )


# -------------------------------------------------------------- checkpoints


def save_checkpoint(params, path):
    payload = {
        "format_version": CHECKPOINT_VERSION,
        "config": {
            "H": params.hidden,
            "H_p": params.mlp_hidden,
            "w_t_mode": params.wt_mode,
            "latent_mode": params.latent_mode,
        },
        "params": {
            name: {
                "shape": list(getattr(params, name).shape),
                "data": [float(v) for v in np.ravel(getattr(params, name))],
            }
            for name in PARAM_FIELDS
        },
    }
    write_json(path, payload)


def load_checkpoint(path):
    """Read a checkpoint; returns (ModelParams, config dict).  Config keys
    other than the sizes and modes are ignored, as older checkpoints hold more."""
    with open_input(path, "checkpoint") as fh:
        text = fh.read()
    try:
        payload = json.loads(text)
    except ValueError as exc:  # also an integer over the digit limit
        raise CorruptCheckpointError(f"checkpoint is not valid JSON: {getattr(exc, 'msg', exc)}") from None
    if not isinstance(payload, dict) or "format_version" not in payload:
        raise CorruptCheckpointError("checkpoint missing format_version")
    if payload["format_version"] != CHECKPOINT_VERSION:
        raise CheckpointVersionError(
            f"unsupported format_version {payload['format_version']} (expected {CHECKPOINT_VERSION})"
        )
    try:
        config = payload["config"]
        hidden, mlp_hidden = config["H"], config["H_p"]
        wt_mode = str(config["w_t_mode"])
        latent_mode = str(config.get("latent_mode", "full"))
        raw = payload["params"]
    except (KeyError, TypeError, ValueError) as exc:
        raise CorruptCheckpointError(f"checkpoint config malformed: {exc}") from None
    for key, size in (("H", hidden), ("H_p", mlp_hidden)):
        if type(size) is not int or size < 1:
            raise CorruptCheckpointError(f"checkpoint size {key} must be an integer >= 1, got {size!r}")
    if wt_mode not in WT_MODES:
        raise CorruptCheckpointError(f"checkpoint has unknown w_t_mode {wt_mode!r}")
    if latent_mode not in LATENT_MODES:
        raise CorruptCheckpointError(f"checkpoint has unknown latent_mode {latent_mode!r}")
    if not isinstance(raw, dict):
        raise CorruptCheckpointError("checkpoint params is not an object")

    shapes = expected_shapes(hidden, mlp_hidden)
    arrays = {}
    for name in PARAM_FIELDS:
        if name not in raw:
            raise CorruptCheckpointError(f"checkpoint missing parameter {name!r}")
        entry = raw[name]
        if not isinstance(entry, dict) or not isinstance(entry.get("shape", []), list):
            raise CorruptCheckpointError(f"parameter {name!r} is not an object with a list shape")
        shape = tuple(entry.get("shape", ()))
        data = entry.get("data")
        if shape != shapes[name]:
            raise CheckpointShapeError(
                f"parameter {name!r} has shape {shape}, expected {shapes[name]}"
            )
        if not isinstance(data, list) or len(data) != math.prod(shape):
            raise CheckpointShapeError(
                f"parameter {name!r} carries {len(data) if isinstance(data, list) else '??'} "
                f"values for shape {shape}"
            )
        try:
            arrays[name] = np.asarray(data, dtype=np.float64).reshape(shapes[name])
        except (TypeError, ValueError) as exc:
            raise CorruptCheckpointError(f"parameter {name!r} is not numeric: {exc}") from None
        if not np.all(np.isfinite(arrays[name])):
            raise CorruptCheckpointError(f"parameter {name!r} holds non-finite values")
    return ModelParams(hidden, mlp_hidden, wt_mode, latent_mode).replace(**arrays), config
