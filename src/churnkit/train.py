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
hand: a forward loop calls the fused step kernel for every regular step and
keeps its caches, the pre-data step 0 and the KL-only step n have their own
small forward/backward pairs, and a reverse loop calls the fused backward
kernel.  Sequences longer than the truncation length are unrolled in
segments: the recurrent state value is carried across the cut but its
gradient is not.  ``gradcheck_elbo`` checks all of it against central
differences of the ELBO value.
"""

from __future__ import annotations

import json
import logging
import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from . import _kernels as K
from .errors import (
    CheckpointShapeError,
    CheckpointVersionError,
    CorruptCheckpointError,
    DataError,
    NumericalError,
)
from .eventlog import derive_seed
from .inference import rolling_evaluate
from .model import (
    PARAM_FIELDS,
    ModelParams,
    expected_shapes,
    init_params,
    input_features,
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
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    clip_norm: float = 5.0
    workers: int = 1
    gap_mode: str = "start-to-start"
    session_threshold_hours: float = 1.0
    report_mae_users: int = 32  # per-epoch MAE subsample cap
    report_mae_samples: int = 16

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError(f"TrainConfig: epochs must be >= 1, got {self.epochs}")
        if self.lr < 0.0:
            raise ValueError(f"TrainConfig: lr must be >= 0, got {self.lr}")
        if self.mc_samples < 1:
            raise ValueError(f"TrainConfig: mc_samples must be >= 1, got {self.mc_samples}")
        if self.batch_size < 1 or self.workers < 1:
            raise ValueError("TrainConfig: batch_size and workers must be >= 1")


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

    CSV_HEADER = "epoch,neg_elbo_per_event,mae_gap,mae_duration,seconds"

    def to_csv(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.CSV_HEADER + "\n")
            for e in self.epochs:
                fh.write(
                    f"{e.epoch},{float(e.neg_elbo_per_event)!r},{float(e.mae_gap)!r},"
                    f"{float(e.mae_duration)!r},{e.seconds:.3f}\n"
                )


# ------------------------------------------------------------ ELBO and BPTT

# parameters whose gradients the fused step accumulates in place, in the
# order of its buffer arguments, and the scalars whose gradients it returns
_STEP_ARRAYS = (
    "lstm_W", "lstm_b", "post_W1", "post_b1", "post_W2", "post_b2",
    "prior_W1", "prior_b1", "prior_W2", "prior_b2", "head_wh", "dur_wh",
)
_STEP_SCALARS = ("head_wz", "head_wt", "head_bt", "dur_wz", "dur_b")


def _values(params):
    """Parameter values by name, the rank-0 ones as Python floats."""
    return {name: float(a) if a.ndim == 0 else a for name, a in params.to_dict().items()}


def _mlp(named, prefix):
    """The (W1, b1, W2, b2) entries of the prior or posterior MLP."""
    return [named[prefix + suffix] for suffix in ("_W1", "_b1", "_W2", "_b2")]


def _first_fwd(v, d0, eps0, full_latent):
    """Step 0: z from the prior at the zero state scores the first duration."""
    h = np.zeros(v["dur_wh"].shape)
    mlp = None
    z = 0.5
    if full_latent:
        mu, sigma, hid, raw = K.mlp2_fwd(*_mlp(v, "prior"), h)
        z = K.draw_z(mu, sigma, eps0)
        mlp = (hid, raw)
    _, lg = K.heads(v["head_wz"], v["head_wh"], v["head_bt"], v["dur_wz"], v["dur_wh"], v["dur_b"], z, h)
    if not math.isfinite(lg):
        raise NumericalError("zh_affine: non-finite head value")
    if abs(lg) > 700.0:
        raise NumericalError(f"pois_loglik: rate exponent {lg:.3g} out of range")
    rate = math.exp(lg)
    ll = d0 * lg - rate - math.lgamma(d0 + 1.0)
    return ll, (h, z, d0 - rate, eps0, mlp)


def _first_bwd(v, cache, grads):
    h, z, dlg, eps0, mlp = cache
    grads["dur_wz"] += dlg * z
    grads["dur_wh"] += dlg * h
    grads["dur_b"] += dlg
    if mlp is not None:
        dmu, dsigma = K.draw_z_bwd(z, eps0, dlg * v["dur_wz"])
        K.mlp2_bwd(v["prior_W1"], v["prior_W2"], h, *mlp, dmu, dsigma, *_mlp(grads, "prior"))


def _last_fwd(v, state, gf, df):
    """Step n: only the KL between posterior and prior after the last session."""
    h = state[0]
    xq = K.post_input(gf, df, h)
    muq, sq, hq, rq = K.mlp2_fwd(*_mlp(v, "post"), xq)
    mup, sp, hp, rp = K.mlp2_fwd(*_mlp(v, "prior"), h)
    if sq <= 0.0 or sp <= 0.0:
        raise NumericalError(f"gaussian_kl: non-positive std ({sq:.3g}, {sp:.3g})")
    kl = K.gaussian_kl(muq, sq, mup, sp)
    if not math.isfinite(kl):
        raise NumericalError("gaussian_kl: non-finite value")
    if kl < -1e-12:
        raise NumericalError(f"negative KL {kl:.3e}")
    return kl, (h, xq, muq, sq, hq, rq, mup, sp, hp, rp)


def _last_bwd(v, cache, grads):
    """Gradient of -KL; returns d(state) for the step before."""
    h, xq, muq, sq, hq, rq, mup, sp, hp, rp = cache
    dmuq, dsq, dmup, dsp = K.gaussian_kl_grad(muq, sq, mup, sp)
    dh = K.mlp2_bwd(v["prior_W1"], v["prior_W2"], h, hp, rp, -dmup, -dsp, *_mlp(grads, "prior"))
    dxq = K.mlp2_bwd(v["post_W1"], v["post_W2"], xq, hq, rq, -dmuq, -dsq, *_mlp(grads, "post"))
    dstate = np.zeros((2, dh.shape[0]))
    dstate[0] = dh + dxq[2:]
    return dstate


def _forward(v, seq, eps_row, lo, hi, state, full_latent):
    """Forward pass over steps lo..hi-1 of one latent trajectory.

    Step 0 is the pre-data step (prior draw of z at the zero state, duration
    term for the first session); step i < n consumes session i-1 and scores
    session i in one fused kernel call; step n carries only its KL.  Returns
    (ELBO value, per-step caches for the backward pass, state after the last
    step) -- the state is what a following segment starts from.
    """
    n = len(seq)
    ses = seq.sessions
    ll = 0.0
    kl = 0.0
    caches = []
    for i in range(lo, hi):
        try:
            if i == 0:
                term, cache = _first_fwd(v, ses[0].d, float(eps_row[0]), full_latent)
                ll += term
                caches.append(("first", cache))
                continue
            gf, df = input_features(ses[i - 1].g, ses[i - 1].d)
            if i == n:
                if full_latent:
                    kl, cache = _last_fwd(v, state, gf, df)
                    caches.append(("last", cache))
                continue
            eps = float(eps_row[i])
            d_next = float(ses[i].d)
            try:
                term, out, gates, xh, y1, p1, sc = K.step_fwd(
                    state,
                    v["lstm_W"], v["lstm_b"],
                    v["post_W1"], v["post_b1"], v["post_W2"], v["post_b2"],
                    v["prior_W1"], v["prior_b1"], v["prior_W2"], v["prior_b2"],
                    v["head_wz"], v["head_wh"], v["head_wt"], v["head_bt"],
                    v["dur_wz"], v["dur_wh"], v["dur_b"],
                    gf, df, eps, ses[i].g, d_next, full_latent,
                )
            except ValueError as exc:
                raise NumericalError(f"elbo_step: {exc}") from None
            if not math.isfinite(term):
                raise NumericalError("elbo_step: non-finite ELBO term")
            if sc[11] < -1e-12:
                raise NumericalError(f"elbo_step: negative KL {sc[11]:.3e}")
            ll += term
            caches.append(("step", (state, gf, df, eps, d_next, out, gates, xh, y1, p1, sc)))
            state = out
        except NumericalError as exc:
            raise NumericalError(f"step {i} of {seq.user_id!r}: {exc}") from None
    return ll - kl, caches, state


def _backward(v, caches, full_latent):
    """Reverse pass over one segment's caches; gradients of its ELBO value.

    The state gradient flows back from step to step inside the segment and
    starts at zero after its last step, which is where truncation cuts it.
    """
    grads = {name: np.zeros(v[name].shape) for name in _STEP_ARRAYS}
    grads.update(dict.fromkeys(_STEP_SCALARS, 0.0))
    bufs = [grads[name] for name in _STEP_ARRAYS]
    dout = None
    for kind, cache in reversed(caches):
        if kind == "first":
            _first_bwd(v, cache, grads)
        elif kind == "last":
            dout = _last_bwd(v, cache, grads)
        else:
            state, gf, df, eps, d_next, out, gates, xh, y1, p1, sc = cache
            if dout is None:
                dout = np.zeros(out.shape)
            dout, *dscalars = K.step_bwd(
                state, v["lstm_W"], v["post_W1"], v["post_W2"], v["prior_W1"], v["prior_W2"],
                v["head_wz"], v["head_wh"], v["dur_wz"], v["dur_wh"],
                gf, df, eps, d_next, full_latent,
                out, gates, xh, y1, p1, sc,
                1.0, dout, *bufs,
            )
            for name, d in zip(_STEP_SCALARS, dscalars):
                grads[name] += d
    return grads


def _elbo_value(params, seq, eps):
    """Full-unroll ELBO averaged over the rows of eps (no gradients)."""
    v = _values(params)
    total = 0.0
    for row in eps:
        state = np.zeros((2, params.hidden))
        value, _, _ = _forward(v, seq, row, 0, len(seq) + 1, state, params.latent_mode == "full")
        total += value
    return total / eps.shape[0]


def sequence_elbo(params, seq, mc_samples=1, rng=None):
    """Monte-Carlo ELBO estimate for one sequence."""
    if len(seq) < 2:
        raise DataError(f"sequence_elbo: need >= 2 sessions, got {len(seq)}")
    if rng is None:
        rng = np.random.default_rng(0)
    return _elbo_value(params, seq, rng.standard_normal((mc_samples, len(seq))))


def elbo_and_grads(params, seq, eps, bptt_k=0):
    """(elbo value, gradient by trainable name) with optional truncated BPTT.

    Each row of eps is one latent trajectory.  With bptt_k > 0 a trajectory
    is unrolled in segments of bptt_k steps; each segment gets its own
    forward and reverse loop, and its gradients are summed into the result.
    """
    v = _values(params)
    full_latent = params.latent_mode == "full"
    n = len(seq)
    total = 0.0
    acc = None
    for row in eps:
        state = np.zeros((2, params.hidden))
        lo = 0
        while lo <= n:
            hi = n + 1 if bptt_k <= 0 else min(lo + bptt_k, n + 1)
            value, caches, state = _forward(v, seq, row, lo, hi, state, full_latent)
            lo = hi
            if not caches:
                continue
            total += value
            grads = _backward(v, caches, full_latent)
            if acc is None:
                acc = grads
            else:
                for name in acc:
                    acc[name] += grads[name]
    L = eps.shape[0]
    return total / L, {name: np.asarray(acc[name]) / L for name in params.trainable_names()}


# -------------------------------------------------------------------- optim


class Adam:
    def __init__(self, names, params):
        self.t = 0
        self.m = {n: np.zeros_like(getattr(params, n)) for n in names}
        self.v = {n: np.zeros_like(getattr(params, n)) for n in names}

    def step(self, params, grads, lr, beta1, beta2, eps):
        self.t += 1
        bc1 = 1.0 - beta1**self.t
        bc2 = 1.0 - beta2**self.t
        for name, g in grads.items():
            m = self.m[name]
            v = self.v[name]
            m *= beta1
            m += (1.0 - beta1) * g
            v *= beta2
            v += (1.0 - beta2) * g * g
            target = getattr(params, name)
            target -= lr * (m / bc1) / (np.sqrt(v / bc2) + eps)


def clip_gradients(grads, max_norm):
    """Global-norm clipping of the grads dict in place (scalar entries are
    replaced, they cannot be scaled where they are); returns the pre-clip
    norm."""
    total = 0.0
    for g in grads.values():
        total += float(np.sum(np.square(g)))
    norm = math.sqrt(total)
    if max_norm > 0.0 and norm > max_norm:
        scale = max_norm / norm
        for name, g in grads.items():
            grads[name] = g * scale
    return norm


# ----------------------------------------------------------------- training


def _user_eps(seed, user_id, mc_samples, length):
    rng = np.random.default_rng(derive_seed(seed, "eps", user_id))
    return rng.standard_normal((mc_samples, length))


def _grad_job(args):
    params, seq, cfg_seed, mc_samples, bptt_k = args
    eps = _user_eps(cfg_seed, seq.user_id, mc_samples, len(seq))
    value, grads = elbo_and_grads(params, seq, eps, bptt_k)
    return seq.user_id, value, grads, len(seq)


def _epoch_mae(params, subsample, n_samples, seed):
    abs_gap = []
    abs_dur = []
    for seq in subsample:
        for rec in rolling_evaluate(params, seq, n_samples, seed):
            abs_gap.append(abs(rec.pred_gap - rec.obs_gap))
            abs_dur.append(abs(rec.pred_dur - rec.obs_dur))
    return float(np.mean(abs_gap)), float(np.mean(abs_dur))


def train(sequences, config):
    """Fit the model; returns (params, report).

    Deterministic given (data, config): user order is shuffled by a seeded
    RNG, epsilon draws are fixed per user, and gradients are accumulated in
    user-sorted order within each batch (so worker parallelism cannot change
    the result).
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
    opt = Adam(params.trainable_names(), params)
    report = TrainReport()

    mae_rng = np.random.default_rng(derive_seed(config.seed, "maeusers"))
    n_sub = min(config.report_mae_users, len(usable))
    mae_sub = [usable[i] for i in sorted(mae_rng.choice(len(usable), size=n_sub, replace=False))]
    mae_seed = derive_seed(config.seed, "mae")

    pool = None
    if config.workers > 1:
        pool = ProcessPoolExecutor(max_workers=config.workers)
    try:
        for epoch in range(1, config.epochs + 1):
            t0 = time.perf_counter()
            order = np.random.default_rng(derive_seed(config.seed, "shuffle", epoch)).permutation(
                len(usable)
            )
            epoch_elbo = 0.0
            epoch_events = 0
            for b0 in range(0, len(order), config.batch_size):
                batch = sorted(
                    (usable[i] for i in order[b0 : b0 + config.batch_size]),
                    key=lambda s: s.user_id,
                )
                jobs = [
                    (params, seq, config.seed, config.mc_samples, config.bptt_k) for seq in batch
                ]
                try:
                    if pool is None:
                        results = [_grad_job(j) for j in jobs]
                    else:
                        results = list(pool.map(_grad_job, jobs))
                except NumericalError as exc:
                    raise NumericalError(
                        f"diverged at epoch {epoch}, batch {b0 // config.batch_size}: {exc}"
                    ) from None
                results.sort(key=lambda r: r[0])

                batch_events = sum(r[3] for r in results)
                batch_grads = None
                for _, value, grads, events in results:
                    epoch_elbo += value
                    epoch_events += events
                    if batch_grads is None:
                        batch_grads = grads
                    else:
                        for name in batch_grads:
                            batch_grads[name] += grads[name]
                # minimize the negative per-event ELBO
                for name in batch_grads:
                    batch_grads[name] *= -1.0 / batch_events
                if not all(np.all(np.isfinite(g)) for g in batch_grads.values()):
                    raise NumericalError(
                        f"non-finite gradient at epoch {epoch}, batch {b0 // config.batch_size}"
                    )
                clip_gradients(batch_grads, config.clip_norm)
                opt.step(params, batch_grads, config.lr, config.beta1, config.beta2, config.adam_eps)

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
    finally:
        if pool is not None:
            pool.shutdown()
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


def gradcheck_elbo(hidden=4, mlp_hidden=4, steps=5, seed=1, wt_mode="learned", h=1e-5, tol=1e-4):
    """Finite-difference check of the full multi-step objective.

    Builds a short random sequence, freezes the latent draws, and compares
    the BPTT gradient of the sequence ELBO against central differences for
    every trainable parameter.
    """
    from .eventlog import Session, SessionSequence

    if steps < 2:
        raise ValueError(f"gradcheck_elbo: need >= 2 steps, got {steps}")
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
        lambda bumped: _elbo_value(replace(params, **bumped), seq, eps), values, grads, h=h, tol=tol
    )


# -------------------------------------------------------------- checkpoints


def save_checkpoint(params, path, gap_mode="start-to-start", session_threshold_hours=1.0):
    payload = {
        "format_version": CHECKPOINT_VERSION,
        "config": {
            "H": params.hidden,
            "H_p": params.mlp_hidden,
            "w_t_mode": params.wt_mode,
            "latent_mode": params.latent_mode,
            "gap_mode": gap_mode,
            "session_threshold_hours": session_threshold_hours,
        },
        "params": {
            name: {
                "shape": list(getattr(params, name).shape),
                "data": [float(v) for v in np.ravel(getattr(params, name))],
            }
            for name in PARAM_FIELDS
        },
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True)
        fh.write("\n")


def load_checkpoint(path, expect_hidden=None, expect_mlp_hidden=None):
    """Read a checkpoint; returns (ModelParams, config dict)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except OSError as exc:
        raise DataError(f"cannot open checkpoint: {exc}") from None
    except json.JSONDecodeError as exc:
        raise CorruptCheckpointError(f"checkpoint is not valid JSON: {exc.msg}") from None
    if not isinstance(payload, dict) or "format_version" not in payload:
        raise CorruptCheckpointError("checkpoint missing format_version")
    if payload["format_version"] != CHECKPOINT_VERSION:
        raise CheckpointVersionError(
            f"unsupported format_version {payload['format_version']} (expected {CHECKPOINT_VERSION})"
        )
    try:
        config = payload["config"]
        hidden = int(config["H"])
        mlp_hidden = int(config["H_p"])
        wt_mode = str(config["w_t_mode"])
        latent_mode = str(config.get("latent_mode", "full"))
        raw = payload["params"]
    except (KeyError, TypeError, ValueError) as exc:
        raise CorruptCheckpointError(f"checkpoint config malformed: {exc}") from None
    if expect_hidden is not None and hidden != expect_hidden:
        raise CheckpointShapeError(f"checkpoint has H={hidden}, expected H={expect_hidden}")
    if expect_mlp_hidden is not None and mlp_hidden != expect_mlp_hidden:
        raise CheckpointShapeError(
            f"checkpoint has H_p={mlp_hidden}, expected H_p={expect_mlp_hidden}"
        )

    shapes = expected_shapes(hidden, mlp_hidden)
    arrays = {}
    for name in PARAM_FIELDS:
        if name not in raw:
            raise CorruptCheckpointError(f"checkpoint missing parameter {name!r}")
        entry = raw[name]
        shape = tuple(entry.get("shape", ()))
        data = entry.get("data")
        if shape != shapes[name]:
            raise CheckpointShapeError(
                f"parameter {name!r} has shape {shape}, expected {shapes[name]}"
            )
        expected_size = int(np.prod(shape)) if shape else 1
        if not isinstance(data, list) or len(data) != expected_size:
            raise CheckpointShapeError(
                f"parameter {name!r} carries {len(data) if isinstance(data, list) else '??'} "
                f"values for shape {shape}"
            )
        try:
            arrays[name] = np.asarray(data, dtype=np.float64).reshape(shape)
        except (TypeError, ValueError) as exc:
            raise CorruptCheckpointError(f"parameter {name!r} is not numeric: {exc}") from None
        if not np.all(np.isfinite(arrays[name])):
            raise CorruptCheckpointError(f"parameter {name!r} holds non-finite values")
    params = ModelParams(
        hidden=hidden, mlp_hidden=mlp_hidden, wt_mode=wt_mode, latent_mode=latent_mode, **arrays
    )
    return params, config
