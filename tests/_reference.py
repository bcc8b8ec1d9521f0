"""A plain-numpy reference for one step of the cell on one row.

Written straight from the parameter names of ``ModelParams``, with none of
the packing or caches of ``churnkit._kernels``, so that the tests can hold
the batched step ``_kernels.cell_fwd`` against an independent statement of
the model: the laws of logit(z) from the prior and posterior MLPs, the
clamped reparameterized draw, the LSTM and the two heads.
"""

import math
from typing import NamedTuple, Optional

import numpy as np

from churnkit.tppmath import GaussianParams

SIGMA_FLOOR = 1e-4  # added to softplus(raw sigma)
Z_LO, Z_HI = 1e-15, 1.0 - 2.0**-53  # the clamp of z, strictly inside (0, 1)


class Step(NamedTuple):
    h: np.ndarray  # (H,) the state after the step
    c: np.ndarray
    z: float
    a: float  # intensity base of the next gap
    lg: float  # log rate of the next duration
    prior: Optional[GaussianParams]  # None without the latent
    posterior: Optional[GaussianParams]  # None without the latent, or unless inferring


def sigmoid(x):
    e = np.exp(-np.abs(x))
    return np.where(x >= 0.0, 1.0, e) / (1.0 + e)


def law(W1, b1, W2, b2, x):
    """(mu, sigma) of logit(z) from a latent MLP at its input x."""
    mu, raw = W2 @ np.tanh(W1 @ x + b1) + b2
    return GaussianParams(float(mu), max(raw, 0.0) + math.log1p(math.exp(-abs(raw))) + SIGMA_FLOOR)


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
