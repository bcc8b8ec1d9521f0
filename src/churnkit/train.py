"""Variational training of the recurrent model by BPTT.

The per-sequence objective is a time-step-wise evidence lower bound: summed
log gap densities (from the second session on; the first gap is a sentinel),
summed Poisson log pmfs of durations (every session, the first one scored by
the pre-data step), minus the closed-form Gaussian KL between posterior and
prior of logit(z) at every step.  The expectation over latent trajectories is
estimated with L reparameterized samples; the epsilon draws are derived from
(seed, user), so they are fixed across epochs and the whole run is
reproducible bit for bit.

Sequences longer than the truncation length are unrolled in segments: the
recurrent state value is carried across the cut but its gradient is not.
"""

from __future__ import annotations

import json
import logging
import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import diffgraph as dg
from .diffgraph import Tape
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
    SIGMA_FLOOR,
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


# ------------------------------------------------------------- tape building


def make_param_nodes(tape, params):
    """Leaf nodes for every parameter; a frozen intensity slope enters as a
    constant.  Returns (all nodes by name, trainable nodes by name)."""
    nodes = {}
    trainable = {}
    frozen_wt = params.wt_mode == "frozen_zero"
    for name in PARAM_FIELDS:
        arr = getattr(params, name)
        value = float(arr) if arr.ndim == 0 else arr
        if name == "head_wt" and frozen_wt:
            nodes[name] = tape.const(value)
        else:
            nodes[name] = tape.param(value)
            trainable[name] = nodes[name]
    return nodes, trainable


def _mlp2(tape, pn, prefix, x):
    hid = dg.dense_tanh(x, pn[prefix + "_W1"], pn[prefix + "_b1"])
    out = dg.affine(hid, pn[prefix + "_W2"], pn[prefix + "_b2"])
    mu = dg.index(out, 0)
    sigma = dg.softplus_floor(dg.index(out, 1), SIGMA_FLOOR)
    return mu, sigma


def build_elbo_terms(tape, pn, seq, eps_row, lo, hi, state_value, latent_mode, fused=True):
    """Record ELBO terms for steps lo..hi-1 of one latent trajectory.

    Step 0 is the pre-data step (prior draw of z at the zero state, duration
    term for the first session); step i consumes session i; step n carries
    only its KL.  Returns (loglik term nodes, KL term nodes, state value
    after the last recorded step) -- the state value is what a following
    segment starts from, with the gradient cut at the boundary.

    The regular steps 1..n-1 normally go through the fused step kernel (one
    term node + one state node each); ``fused=False`` selects the reference
    build out of the small primitive/fused ops, which computes the same
    values and gradients and exists so the two paths can be checked against
    each other.  Fused term nodes already carry their -KL inside.
    """
    n = len(seq)
    g = [s.g for s in seq.sessions]
    d = [s.d for s in seq.sessions]
    ll = []
    kl = []
    state = tape.const(state_value)
    h = None
    z_fixed = tape.const(0.5) if latent_mode == "fixed" else None
    full_latent = latent_mode == "full"

    for i in range(lo, hi):
        try:
            if i == 0:
                h = dg.row(state, 0)
                if latent_mode == "fixed":
                    z = z_fixed
                else:
                    mu0, s0 = _mlp2(tape, pn, "prior", h)
                    z = dg.reparam_sigmoid(mu0, s0, float(eps_row[0]))
                lg = dg.zh_affine(z, h, pn["dur_wz"], pn["dur_wh"], pn["dur_b"])
                ll.append(dg.pois_loglik(lg, d[0]))
                continue

            gf, df = input_features(g[i - 1], d[i - 1])
            if fused and i < n:
                term, state = dg.elbo_step(
                    state, pn, gf, df, float(eps_row[i]), g[i], d[i], full_latent
                )
                h = None
                ll.append(term)
                continue

            if h is None:
                h = dg.row(state, 0)
            if latent_mode == "fixed":
                z = z_fixed
            else:
                feats = tape.const(np.array([gf, df]))
                muq, sq = _mlp2(tape, pn, "post", dg.concat(feats, h))
                mup, sp = _mlp2(tape, pn, "prior", h)
                kl_node = dg.gaussian_kl(muq, sq, mup, sp)
                if kl_node.value < -1e-12:
                    raise NumericalError(f"negative KL {kl_node.value:.3e}")
                kl.append(kl_node)
                if i < n:
                    z = dg.reparam_sigmoid(muq, sq, float(eps_row[i]))
            if i < n:
                state = dg.lstm_cell(z, state, pn["lstm_W"], pn["lstm_b"], gf, df)
                h = dg.row(state, 0)
                a = dg.zh_affine(z, h, pn["head_wz"], pn["head_wh"], pn["head_bt"])
                lg = dg.zh_affine(z, h, pn["dur_wz"], pn["dur_wh"], pn["dur_b"])
                ll.append(dg.gap_loglik(a, pn["head_wt"], g[i]))
                ll.append(dg.pois_loglik(lg, d[i]))
        except NumericalError as exc:
            raise NumericalError(f"step {i} of {seq.user_id!r}: {exc}") from None
    return ll, kl, state.value


def build_sequence_elbo(tape, pn, seq, eps, latent_mode="full", fused=True):
    """Full-sequence ELBO node, averaged over the eps trajectories."""
    trajs = []
    hidden = len(pn["lstm_b"].value) // 4
    for row in eps:
        ll, kl, _ = build_elbo_terms(
            tape, pn, seq, row, 0, len(seq) + 1, np.zeros((2, hidden)), latent_mode, fused
        )
        node = dg.add_n(ll)
        if kl:
            node = dg.sub(node, dg.add_n(kl))
        trajs.append(node)
    if len(trajs) == 1:
        return trajs[0]
    return dg.mul(dg.add_n(trajs), tape.const(1.0 / len(trajs)))


def sequence_elbo(params, seq, mc_samples=1, rng=None, fused=True):
    """Monte-Carlo ELBO estimate for one sequence, as a tape-attached node."""
    if len(seq) < 2:
        raise DataError(f"sequence_elbo: need >= 2 sessions, got {len(seq)}")
    if rng is None:
        rng = np.random.default_rng(0)
    eps = rng.standard_normal((mc_samples, len(seq)))
    tape = Tape()
    pn, _ = make_param_nodes(tape, params)
    return build_sequence_elbo(tape, pn, seq, eps, params.latent_mode, fused)


def elbo_and_grads(params, seq, eps, bptt_k=0, fused=True):
    """(elbo value, gradient by trainable name) with optional truncated BPTT."""
    n = len(seq)
    total = 0.0
    acc = None
    L = eps.shape[0]
    for row in eps:
        state_value = np.zeros((2, params.hidden))
        lo = 0
        while lo <= n:
            hi = n + 1 if bptt_k <= 0 else min(lo + bptt_k, n + 1)
            tape = Tape()
            pn, trainable = make_param_nodes(tape, params)
            ll, kl, state_value = build_elbo_terms(
                tape, pn, seq, row, lo, hi, state_value, params.latent_mode, fused
            )
            lo = hi
            if not ll and not kl:
                continue
            if ll and kl:
                node = dg.sub(dg.add_n(ll), dg.add_n(kl))
            elif ll:
                node = dg.add_n(ll)
            else:
                node = dg.negate(dg.add_n(kl))
            total += node.value
            grads = dg.backward(node)
            if acc is None:
                acc = {name: np.asarray(grads[node_]) * 1.0 for name, node_ in trainable.items()}
            else:
                for name, node_ in trainable.items():
                    acc[name] += grads[node_]
    for name in acc:
        acc[name] /= L
    return total / L, acc


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
    """Global-norm clipping in place; returns the pre-clip norm."""
    total = 0.0
    for g in grads.values():
        total += float(np.sum(np.square(g)))
    norm = math.sqrt(total)
    if max_norm > 0.0 and norm > max_norm:
        scale = max_norm / norm
        for g in grads.values():
            g *= scale
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


def gradcheck_elbo(hidden=4, mlp_hidden=4, steps=5, seed=1, wt_mode="learned", h=1e-5, tol=1e-4):
    """Finite-difference check of the full multi-step objective.

    Builds a short random sequence, freezes the latent draws, and compares
    the tape gradient of the sequence ELBO against central differences for
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

    trainable = params.trainable_names()
    values = {name: getattr(params, name) for name in trainable}

    def build(tape, nodes):
        pn = dict(nodes)
        if "head_wt" not in pn:
            pn["head_wt"] = tape.const(float(params.head_wt))
        return build_sequence_elbo(tape, pn, seq, eps, params.latent_mode)

    return dg.grad_check(build, values, h=h, tol=tol)


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
