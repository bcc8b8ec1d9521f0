"""Synthetic session generators with known ground truth.

Three kinds: "stationary" draws gaps from an exponential with a fixed mean
and durations from 1 + Poisson(mean_duration - 1) (so ground truth respects
durations >= 1 even though the fitted model uses a plain Poisson -- the
mismatch is intentional); "regime_switching" runs a two-state Markov chain
over sessions, each state carrying its own (mean gap, mean duration);
"from_model" samples ancestrally through a trained checkpoint, with durations
drawn zero-truncated so they stay valid session sizes, and records the exact
conditional log-likelihood of everything it generated.

Each user draws from an independent derived RNG stream, so output is
deterministic under a seed and stable under parallel generation.  All users
start at t = 0; the first session carries the sentinel gap 0.  A session that
would start past the horizon is discarded, not clipped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DataError
from .eventlog import Session, SessionSequence, derive_seed
from .model import initial_step, step
from .tppmath import (
    IntensitySpec,
    log_gap_density,
    sample_gap,
    sample_zt_poisson,
    zt_poisson_log_pmf,
)

KINDS = ("stationary", "regime_switching", "from_model")


@dataclass
class GeneratorSpec:
    kind: str
    users: int
    horizon: float
    mean_gap: float = 2.0
    mean_duration: float = 5.0
    regime_gaps: tuple = (1.0, 10.0)
    regime_durations: tuple = (3.0, 8.0)
    switch: tuple = ((0.95, 0.05), (0.05, 0.95))  # row r: P(next regime | r)
    model_path: Optional[str] = None
    model_params: Optional[object] = None  # pre-loaded ModelParams
    max_sessions: int = 100_000

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"GeneratorSpec: unknown kind {self.kind!r}")
        if self.users < 1:
            raise ValueError(f"GeneratorSpec: users must be >= 1, got {self.users}")
        # the range tests are written so that NaN fails them too
        if not 0.0 < self.horizon < math.inf:
            raise ValueError(f"GeneratorSpec: horizon must be finite and positive, got {self.horizon}")
        if self.max_sessions < 1:
            raise ValueError("GeneratorSpec: max_sessions must be >= 1")
        if self.kind == "stationary":
            _check_state(self.mean_gap, self.mean_duration)
        elif self.kind == "regime_switching":
            for mg, md in zip(self.regime_gaps, self.regime_durations):
                _check_state(mg, md)
            m = np.asarray(self.switch, dtype=np.float64)
            if m.shape != (2, 2) or not (np.all(m >= 0.0) and np.all(np.abs(m.sum(axis=1) - 1.0) <= 1e-9)):
                raise ValueError(f"GeneratorSpec: switching matrix rows must be probabilities, got {self.switch}")
        else:
            if self.model_path is None and self.model_params is None:
                raise ValueError("GeneratorSpec: from_model needs model_path or model_params")


def _check_state(mean_gap, mean_duration):
    if not 0.0 < mean_gap < math.inf:
        raise ValueError(f"GeneratorSpec: mean_gap must be finite and positive, got {mean_gap}")
    if not 1.0 <= mean_duration < math.inf:
        raise ValueError(f"GeneratorSpec: mean_duration must be finite and >= 1, got {mean_duration}")


def _user_ids(n):
    width = max(4, len(str(n - 1)))
    return [f"u{i:0{width}d}" for i in range(n)]


def _stationary_user(uid, rng, mean_gap, mean_duration, horizon, cap):
    extra = mean_duration - 1.0
    sessions = [Session(t=0.0, g=0.0, d=1 + int(rng.poisson(extra)))]
    t = 0.0
    while len(sessions) < cap:
        gap = rng.exponential(mean_gap)
        if t + gap > horizon:
            break
        t += gap
        sessions.append(Session(t=t, g=gap, d=1 + int(rng.poisson(extra))))
    return SessionSequence(user_id=uid, sessions=sessions)


def _regime_user(uid, rng, spec):
    m = np.asarray(spec.switch, dtype=np.float64)
    # start from the chain's stationary distribution so the session mixture
    # matches it from the first session on
    stay0, stay1 = m[0, 0], m[1, 1]
    denom = (1.0 - stay0) + (1.0 - stay1)
    pi0 = 0.5 if denom <= 0.0 else (1.0 - stay1) / denom
    r = 0 if rng.random() < pi0 else 1
    regimes = [r]
    extra = [d - 1.0 for d in spec.regime_durations]
    sessions = [Session(t=0.0, g=0.0, d=1 + int(rng.poisson(extra[r])))]
    t = 0.0
    while len(sessions) < spec.max_sessions:
        r = 0 if rng.random() < m[r, 0] else 1
        gap = rng.exponential(spec.regime_gaps[r])
        if t + gap > spec.horizon:
            break
        t += gap
        sessions.append(Session(t=t, g=gap, d=1 + int(rng.poisson(extra[r]))))
        regimes.append(r)
    return SessionSequence(user_id=uid, sessions=sessions), regimes


def _model_user(uid, rng, params, horizon, cap):
    """Ancestral sampling through the model in generate mode.

    Returns (sequence, exact conditional log-likelihood, churned flag).  The
    log-likelihood scores exactly what was sampled: gap densities from the
    second session on, zero-truncated Poisson durations for every session.
    """
    wt = float(params.head_wt)
    cur = initial_step(params, eps=float(rng.standard_normal()))
    d1 = sample_zt_poisson(cur.gamma, rng)
    sessions = [Session(t=0.0, g=0.0, d=d1)]
    loglik = zt_poisson_log_pmf(cur.gamma, d1)
    cur = step(params, cur.state, 0.0, d1, "generate", eps=float(rng.standard_normal()))
    t = 0.0
    churned = False
    while len(sessions) < cap:
        spec_i = IntensitySpec(cur.a, wt)
        gap = sample_gap(spec_i, rng)
        if math.isinf(gap):
            churned = True
            break
        if t + gap > horizon:
            break
        d = sample_zt_poisson(cur.gamma, rng)
        loglik += log_gap_density(spec_i, gap) + zt_poisson_log_pmf(cur.gamma, d)
        t += gap
        sessions.append(Session(t=t, g=gap, d=d))
        cur = step(params, cur.state, gap, d, "generate", eps=float(rng.standard_normal()))
    return SessionSequence(user_id=uid, sessions=sessions), loglik, churned


def generate(spec, seed):
    """Generate per-user session sequences plus a ground-truth sidecar dict."""
    params = None
    if spec.kind == "from_model":
        if spec.model_params is not None:
            params = spec.model_params
        else:
            from .train import load_checkpoint

            params, _ = load_checkpoint(spec.model_path)

    sequences = []
    users_truth = {}
    for uid in _user_ids(spec.users):
        rng = np.random.default_rng(derive_seed(seed, "gen", uid))
        if spec.kind == "stationary":
            seq = _stationary_user(uid, rng, spec.mean_gap, spec.mean_duration, spec.horizon, spec.max_sessions)
            users_truth[uid] = {"events": len(seq)}
        elif spec.kind == "regime_switching":
            seq, regimes = _regime_user(uid, rng, spec)
            users_truth[uid] = {"events": len(seq), "regimes": regimes}
        else:
            seq, loglik, churned = _model_user(uid, rng, params, spec.horizon, spec.max_sessions)
            users_truth[uid] = {"events": len(seq), "loglik": loglik, "churned": churned}
        sequences.append(seq)

    truth = {
        "kind": spec.kind,
        "seed": seed,
        "spec": {
            "users": spec.users,
            "horizon": spec.horizon,
            "mean_gap": spec.mean_gap,
            "mean_duration": spec.mean_duration,
            "regime_gaps": list(spec.regime_gaps),
            "regime_durations": list(spec.regime_durations),
            "switch": [list(r) for r in np.asarray(spec.switch, dtype=float)],
            "model_path": spec.model_path,
            "max_sessions": spec.max_sessions,
        },
        "users": users_truth,
    }
    if spec.kind == "from_model":
        total_ll = sum(u["loglik"] for u in users_truth.values())
        total_ev = sum(u["events"] for u in users_truth.values())
        truth["loglik_per_event"] = total_ll / total_ev
    if not sequences:
        raise DataError("generate: produced no sequences")
    return sequences, truth
