"""Synthetic session generators with known ground truth.

Three kinds: "stationary" draws gaps from an exponential with a fixed mean
and durations from 1 + Poisson(mean_duration - 1) (so ground truth respects
durations >= 1 even though the fitted model uses a plain Poisson -- the
mismatch is intentional); "regime_switching" runs a two-state Markov chain
over sessions, each state carrying its own (mean gap, mean duration);
"from_model" samples ancestrally through a trained checkpoint, with durations
drawn zero-truncated so they stay valid session sizes, and records the exact
conditional log-likelihood of everything it generated.  It advances all
users as the rows of one state, through the training step, and samples
and scores each step's rows as arrays.

Each user draws from an independent derived RNG stream, so a user's data
depends only on the seed and its id, not on the other users.  A from-model
user draws, per step, its eps and then one (gap, duration) pair of
uniforms (the duration alone at the pre-data step); a user that stops has
drawn a duration uniform it does not use.  All users
start at t = 0; the first session carries the sentinel gap 0.  A session that
would start past the horizon is discarded, not clipped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Optional

import numpy as np

from . import _kernels as K
from .errors import NumericalError
from .eventlog import Session, SessionSequence, derive_seed
from .tppmath import WALK_RATE_MAX, gap_at, zt_poisson_at

KINDS = ("stationary", "regime_switching", "from_model")


@dataclass
class GeneratorSpec:
    kind: str
    users: int = 100
    horizon: float = 500.0
    mean_gap: float = 2.0
    mean_duration: float = 5.0
    regime_gaps: tuple = (1.0, 10.0)
    regime_durations: tuple = (3.0, 8.0)
    # row r: P(next regime | r), each regime staying with probability 0.95
    switch: tuple = ((0.95, 1.0 - 0.95), (1.0 - 0.95, 0.95))
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
        if (self.kind == "from_model") != (self.model_path is not None or self.model_params is not None):
            raise ValueError("GeneratorSpec: kind 'from_model' needs model_path or model_params, "
                             f"and no other kind takes them (kind {self.kind!r})")
        if self.kind == "stationary":
            _check_state(self.mean_gap, self.mean_duration)
        elif self.kind == "regime_switching":
            for mg, md in zip(self.regime_gaps, self.regime_durations):
                _check_state(mg, md)
            m = np.asarray(self.switch, dtype=np.float64)
            if m.shape != (2, 2) or not (np.all(m >= 0.0) and np.all(np.abs(m.sum(axis=1) - 1.0) <= 1e-9)):
                raise ValueError(f"GeneratorSpec: switching matrix rows must be probabilities, got {self.switch}")


def _check_state(mean_gap, mean_duration):
    if not 0.0 < mean_gap < math.inf:
        raise ValueError(f"GeneratorSpec: mean_gap must be finite and positive, got {mean_gap}")
    if not 1.0 <= mean_duration < math.inf:
        raise ValueError(f"GeneratorSpec: mean_duration must be finite and >= 1, got {mean_duration}")


def _user_ids(n):
    width = max(4, len(str(n - 1)))
    return [f"u{i:0{width}d}" for i in range(n)]


def _stationary_user(rng, spec):
    extra = spec.mean_duration - 1.0
    sessions = [Session(t=0.0, g=0.0, d=1 + int(rng.poisson(extra)))]
    t = 0.0
    while len(sessions) < spec.max_sessions:
        gap = rng.exponential(spec.mean_gap)
        if t + gap > spec.horizon:
            break
        t += gap
        sessions.append(Session(t=t, g=gap, d=1 + int(rng.poisson(extra))))
    return sessions, {}


def _regime_user(rng, spec):
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
    return sessions, {"regimes": regimes}


def _model_users(uids, rngs, params, horizon, cap):
    """Ancestral sampling through the model, every user a row of one state.

    Step i runs the training step ``_kernels.cell_fwd`` in generate mode on
    the users still running, as the columns of one one-step Unroll: step 0
    is the pre-data step, step i > 0 consumes session i - 1, and the heads
    of step i give the law of session i.  A user stops when it churns (an
    infinite gap), when its next session would start past the horizon, or
    at cap sessions.  The step's rows draw their uniforms from their own
    rngs, in the order the module docstring gives, and are then sampled at
    once by gap_at and zt_poisson_at and scored by the cell's log-likelihoods.

    Returns per user (sessions, {"loglik", "churned"}): the exact
    conditional log-likelihood of what was sampled, gap densities from the
    second session on and zero-truncated Poisson durations for every session.
    """
    from scipy import special  # for gammaln; it is slow to import, and no other generator needs it
    w = K.Cell(params)
    wt = float(params.head_wt)
    loglik, churned, t = np.zeros(len(uids)), np.zeros(len(uids), dtype=bool), np.zeros(len(uids))
    live, kept = np.arange(len(uids)), []  # the next step's columns; each step's (users, t, g, d)
    feat, h = np.zeros((1, len(uids), 2)), np.zeros((len(uids), params.hidden))
    c = h  # the state as (rows, H), as Unroll takes it

    def check(bad, why):  # bad: the failing columns of the step
        if bad.size:
            raise NumericalError(f"generate: user {uids[live[bad[0]]]} {why(bad[0])}")

    for i in range(cap):
        gens = [rngs[r] for r in live]
        u = K.Unroll(w, feat, h, c, np.array([[x.standard_normal() for x in gens]]))
        uni = np.array([x.random(2) if i else (0.0, x.random()) for x in gens])
        K.cell_fwd(w, u, 0, live.size, first=i == 0, generate=True)
        u.outputs(w)
        a, lg = u.ah[0]
        # heads in range and a finite state, written so that NaN fails too
        ok = (np.abs(u.ah[0]) <= K.EXP_ARG_MAX).all(axis=0) & np.isfinite(u.xh[1, 3:]).all(axis=0)
        ok &= np.isfinite(u.c[1]).all(axis=0)
        check(np.flatnonzero(~ok), lambda j: f"diverged at step {i} (a={a[j]:.3g}, log gamma={lg[j]:.3g})")
        g = gap_at(a, wt, -np.log1p(-uni[:, 0])) if i else np.zeros(live.size)
        churned[live[np.isinf(g)]] = True
        go = ~np.isinf(g) & ~(t + g > horizon)  # a NaN gap goes on, to fail below
        live, t, g, a, lg, uni = live[go], t[go] + g[go], g[go], a[go], lg[go], uni[go]
        gamma = np.exp(lg)
        check(np.flatnonzero(gamma > WALK_RATE_MAX),
              lambda j: f"failed at step {i}: duration rate {gamma[j]:.3g} too large for a CDF walk")
        d = zt_poisson_at(gamma, uni[:, 1])
        ll = K.dur_loglik(lg, d, special.gammaln(d + 1.0))[0] - np.log(-np.expm1(-gamma))
        if i:
            ll = K.gap_loglik(a, wt, g)[0] + ll
        check(np.flatnonzero(~np.isfinite(ll)), lambda j: f"failed at step {i}: non-finite log-likelihood")
        loglik[live] += ll
        kept.append((live, t, g, d))
        feat, h, c = np.log1p([g, d]).T[None], u.xh[1, 3:][:, go].T, u.c[1][:, go].T
        if not live.size:
            break

    sessions = [[] for _ in uids]  # built once, in step order
    for r, *x in zip(*(np.concatenate(col).tolist() for col in zip(*kept))):
        sessions[r].append(Session(*x))
    return [(s, {"loglik": ll, "churned": ch}) for s, ll, ch in zip(sessions, loglik.tolist(), churned.tolist())]


def generate(spec, seed):
    """Generate per-user session sequences plus a ground-truth sidecar dict."""
    uids = _user_ids(spec.users)
    rngs = [np.random.default_rng(derive_seed(seed, "gen", uid)) for uid in uids]
    if spec.kind == "from_model":
        params = spec.model_params
        if params is None:
            from .train import load_checkpoint

            params, _ = load_checkpoint(spec.model_path)
        users = _model_users(uids, rngs, params, spec.horizon, spec.max_sessions)
    else:
        user = _stationary_user if spec.kind == "stationary" else _regime_user
        users = [user(rng, spec) for rng in rngs]

    sequences = [SessionSequence(user_id=uid, sessions=s) for uid, (s, _) in zip(uids, users)]
    users_truth = {uid: {"events": len(s), **extra} for uid, (s, extra) in zip(uids, users)}
    truth = {
        "kind": spec.kind,
        "seed": seed,
        "spec": {f.name: getattr(spec, f.name) for f in fields(spec) if f.name not in ("kind", "model_params")}
        | {"switch": np.asarray(spec.switch, dtype=float).tolist()},
        "users": users_truth,
    }
    if spec.kind == "from_model":
        total_ll = sum(u["loglik"] for u in users_truth.values())
        total_ev = sum(u["events"] for u in users_truth.values())
        truth["loglik_per_event"] = total_ll / total_ev
    return sequences, truth
