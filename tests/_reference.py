"""A plain-numpy reference for one step of the cell on one row, and plain
scalar statements of the laws of a session.

The step is written straight from the parameter names of ``ModelParams``,
with none of the packing or caches of ``churnkit._kernels``, so that the
tests can hold the batched step ``_kernels.cell_fwd`` against an independent
statement of the model: the laws of logit(z) from the prior and posterior
MLPs, the clamped reparameterized draw, the LSTM and the two heads.  The
laws are those of the next gap under the intensity exp(a + wt * g) and of
the session duration, one value at a time with Python's math module, and
the mean gap by adaptive quadrature: the batched engine's log-likelihoods,
generation's log-likelihood and ``tppmath.expected_gap`` are tested
against them.

Sessionization is stated one user at a time, as sorted sets of timestamps
cut into ``Session`` objects and written with ``json.dumps``, against which
the flat event and session tables of ``churnkit.eventlog`` are tested.
"""

import json
import math
from typing import NamedTuple, Optional

import numpy as np
from scipy import integrate

from churnkit._kernels import EXP_ARG_MAX, WT_ZERO_EPS
from churnkit.errors import NumericalError
from churnkit.eventlog import Session, SessionSequence
from churnkit.tppmath import gap_at

SIGMA_FLOOR = 1e-4  # added to softplus(raw sigma)
Z_LO, Z_HI = 1e-15, 1.0 - 2.0**-53  # the clamp of z, strictly inside (0, 1)


class Gaussian(NamedTuple):
    """Mean and std of a Gaussian in logit space (prior or posterior of z)."""

    mu: float
    sigma: float


class Step(NamedTuple):
    h: np.ndarray  # (H,) the state after the step
    c: np.ndarray
    z: float
    a: float  # intensity base of the next gap
    lg: float  # log rate of the next duration
    prior: Optional[Gaussian]  # None without the latent
    posterior: Optional[Gaussian]  # None without the latent, or unless inferring


def sigmoid(x):
    e = np.exp(-np.abs(x))
    return np.where(x >= 0.0, 1.0, e) / (1.0 + e)


def law(W1, b1, W2, b2, x):
    """(mu, sigma) of logit(z) from a latent MLP at its input x."""
    mu, raw = W2 @ np.tanh(W1 @ x + b1) + b2
    return Gaussian(float(mu), max(raw, 0.0) + math.log1p(math.exp(-abs(raw))) + SIGMA_FLOOR)


def prior(p, h):
    return law(p.prior_W1, p.prior_b1, p.prior_W2, p.prior_b2, h)


def posterior(p, g, d, h):
    return law(p.post_W1, p.post_b1, p.post_W2, p.post_b2, np.concatenate([[math.log1p(g), math.log1p(d)], h]))


def heads(p, z, h):
    """(a, log gamma) at (z, h)."""
    a = float(p.head_wz) * z + float(p.head_wh @ h) + float(p.head_bt)
    return a, float(p.dur_wz) * z + float(p.dur_wh @ h) + float(p.dur_b)


def step(p, h, c, eps, mode="infer", g=0.0, d=1):
    """One step of the cell on one row from the state (h, c).

    "infer" draws z from the posterior given (g, d, h) and advances the LSTM
    on [log1p(g), log1p(d), z, h]; "generate" draws z from the prior and
    advances the same way; "first", the pre-data step, draws z from the
    prior and keeps the state.  Without the latent, z is 0.5.  The heads are
    evaluated at z and the state after the step.
    """
    assert mode in ("infer", "generate", "first")
    full = p.latent_mode == "full"
    pri = prior(p, h) if full else None
    post = posterior(p, g, d, h) if full and mode == "infer" else None
    if full:
        mu, sigma = post or pri
        z = min(max(float(sigmoid(mu + sigma * eps)), Z_LO), Z_HI)
    else:
        z = 0.5
    if mode != "first":
        H = len(h)
        pre = p.lstm_W @ np.concatenate([[math.log1p(g), math.log1p(d), z], h]) + p.lstm_b
        i, f, o = (sigmoid(pre[k * H : (k + 1) * H]) for k in range(3))
        c = f * c + i * np.tanh(pre[3 * H :])
        h = o * np.tanh(c)
    return Step(h, c, z, *heads(p, z, h), pri, post)


def initial(p, eps=0.0):
    """The pre-data step from the zero state."""
    return step(p, np.zeros(p.hidden), np.zeros(p.hidden), eps, "first")


# ------------------------------------------------------- the session's laws


def cumulative_intensity(a, wt, g):
    """Integral of exp(a + wt * s) over s in [0, g]; nonnegative and increasing in g."""
    if g < 0.0:
        raise ValueError(f"cumulative_intensity: negative gap {g}")
    ea = math.exp(a)
    if abs(wt) < WT_ZERO_EPS:
        return ea * g
    x = wt * g
    if x > EXP_ARG_MAX:
        raise NumericalError("cumulative_intensity: exp overflow")
    return ea * math.expm1(x) / wt


def total_mass(a, wt):
    """Probability that a next gap occurs at all (< 1 only when wt < 0)."""
    if wt >= -WT_ZERO_EPS:
        return 1.0
    return -math.expm1(-math.exp(a) / abs(wt))


_LOG_DENSITY_FLOOR = -1e308  # stands in for log(0) while staying finite


def log_gap_density(a, wt, g):
    """log f(g) = a + wt * g - cumulative_intensity(a, wt, g).

    For a rising intensity the density decays super-exponentially; once the
    cumulative intensity exceeds float range the true log density is below
    anything representable and the finite floor -1e308 is returned (its exp
    is exactly 0.0), which keeps tail quadrature well defined.
    """
    if g < 0.0:
        raise ValueError(f"log_gap_density: negative gap {g}")
    if wt > WT_ZERO_EPS and wt * g > EXP_ARG_MAX:
        return _LOG_DENSITY_FLOOR
    val = a + (0.0 if abs(wt) < WT_ZERO_EPS else wt * g) - cumulative_intensity(a, wt, g)
    if not math.isfinite(val):
        raise NumericalError(f"log_gap_density: non-finite at g={g}")
    return max(val, _LOG_DENSITY_FLOOR)


def poisson_log_pmf(rate, k):
    """log Poisson pmf via log-gamma; rate > 0, integer k >= 0."""
    if rate <= 0.0:
        raise ValueError(f"poisson_log_pmf: rate must be positive, got {rate}")
    if k < 0 or k != int(k):
        raise ValueError(f"poisson_log_pmf: k must be a nonnegative integer, got {k}")
    return k * math.log(rate) - rate - math.lgamma(k + 1.0)


def zt_poisson_log_pmf(rate, k):
    """log pmf of a zero-truncated Poisson (support k >= 1)."""
    if k < 1:
        raise ValueError(f"zt_poisson_log_pmf: k must be >= 1, got {k}")
    return poisson_log_pmf(rate, k) - math.log(-math.expm1(-rate))


# conditional probabilities splitting [0, inf) for quadrature_mean
_QUAD_SPLITS = (0.5,) + tuple(1.0 - 10.0**-k for k in range(1, 16))


def quadrature_mean(a, wt):
    """Mean of the (returned) gap by adaptive quadrature of g f(g).

    The range is split at quantiles of the gap law, so every piece holds a
    known share of the mass however narrow or wide the law is, and the last
    piece runs to infinity.
    """
    mass = total_mass(a, wt)
    edges = [0.0] + [float(gap_at(a, wt, -np.log1p(-p * mass))) for p in _QUAD_SPLITS] + [math.inf]

    def integrand(g):
        return g * math.exp(log_gap_density(a, wt, g))

    total = err = 0.0
    for lo, hi in zip(edges, edges[1:]):
        if not hi > lo:
            continue
        # full_output also keeps quad from warning; convergence is checked
        # on the summed error estimate below
        val, piece_err = integrate.quad(
            integrand, lo, hi, epsabs=0.0, epsrel=1e-10, limit=200, full_output=1
        )[:2]
        total += val
        err += piece_err
    if not (math.isfinite(total) and total > 0.0) or err > 1e-8 * total:
        raise NumericalError(f"quadrature_mean: quadrature failed for a={a}, wt={wt}")
    return total / mass


# ------------------------------------------------------------ sessionization


def ingest(rows):
    """{user: sorted distinct hours} of (user, hours) rows in file order, the
    users in order of first appearance; of equal times (0.0, -0.0), as in a
    set, the first stays."""
    per_user = {}
    for user, hours in rows:
        per_user.setdefault(user, set()).add(hours)
    return {user: sorted(stamps) for user, stamps in per_user.items()}


def sessionize(user_id, timestamps, threshold, gap_mode="start-to-start"):
    """One user's sorted timestamps cut into sessions where a step is at
    least threshold; the first gap is 0, a later one start-to-start or
    end-to-start."""
    ts = np.asarray(timestamps, dtype=np.float64)
    breaks = np.flatnonzero(np.diff(ts) >= threshold) + 1
    starts = np.concatenate(([0], breaks))
    ends = np.concatenate((breaks, [ts.size]))
    t0 = ts[starts]
    before = t0[:-1] if gap_mode == "start-to-start" else ts[ends[:-1] - 1]
    gaps = [0.0, *(t0[1:] - before).tolist()]
    sessions = [Session(t=t, g=g, d=d) for t, g, d in zip(t0.tolist(), gaps, (ends - starts).tolist())]
    return SessionSequence(user_id=user_id, sessions=sessions)


def sessions_text(sequences):
    """The JSONL of sequences, a json.dumps line per user."""
    return "".join(
        json.dumps({"user_id": seq.user_id,
                    "sessions": [{"t": float(s.t), "g": float(s.g), "d": int(s.d)} for s in seq.sessions]}) + "\n"
        for seq in sequences
    )
