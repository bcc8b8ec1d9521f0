"""The recurrent latent-loyalty network.

One time-step consumes a session's (gap, duration), draws or fixes the latent
loyalty z in (0, 1), updates an LSTM hidden state on the compressed input
[log1p(gap), log1p(duration), z], and evaluates two scalar heads at (z, h):
the intensity base ``a`` (so the next gap has density exp-affine in a) and the
log rate of the Poisson duration model for the next session.  Prior and
approximate-posterior parameters of logit(z) come from two one-hidden-layer
MLPs shared across time-steps.

The functions here run one step at a time, as a batch of one row, for
filtering, prediction and generation; training (churnkit.train) runs the
same step on every row of an optimizer batch at once.  Both are composed of
the row kernels of churnkit._kernels, where every formula of the cell is
defined once: the latent MLP (mlp2), the clamped reparameterized draw
(draw_z), the LSTM (lstm), the heads, softplus and the constants.  The
recurrent state is a (2, H) array (row 0 = h, row 1 = c).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import _kernels as K
from .errors import NumericalError
from .eventlog import derive_seed
from .tppmath import GaussianParams

WT_MODES = ("frozen_zero", "learned")
LATENT_MODES = ("full", "fixed")
MODES = ("infer", "generate", "filter")

# names sorted lexicographically define the checkpoint ordering
PARAM_FIELDS = (
    "dur_b",
    "dur_wh",
    "dur_wz",
    "head_bt",
    "head_wh",
    "head_wt",
    "head_wz",
    "lstm_W",
    "lstm_b",
    "post_W1",
    "post_W2",
    "post_b1",
    "post_b2",
    "prior_W1",
    "prior_W2",
    "prior_b1",
    "prior_b2",
)


@dataclass
class ModelParams:
    hidden: int
    mlp_hidden: int
    wt_mode: str
    latent_mode: str
    lstm_W: np.ndarray
    lstm_b: np.ndarray
    head_wz: np.ndarray
    head_wh: np.ndarray
    head_wt: np.ndarray
    head_bt: np.ndarray
    dur_wz: np.ndarray
    dur_wh: np.ndarray
    dur_b: np.ndarray
    prior_W1: np.ndarray
    prior_b1: np.ndarray
    prior_W2: np.ndarray
    prior_b2: np.ndarray
    post_W1: np.ndarray
    post_b1: np.ndarray
    post_W2: np.ndarray
    post_b2: np.ndarray

    def to_dict(self):
        """Parameter arrays keyed by name (no copies)."""
        return {name: getattr(self, name) for name in PARAM_FIELDS}

    def trainable_names(self):
        names = list(PARAM_FIELDS)
        if self.wt_mode == "frozen_zero":
            names.remove("head_wt")
        return names

    def copy(self):
        return replace(self, **{n: getattr(self, n).copy() for n in PARAM_FIELDS})


@dataclass
class StepOutput:
    """One step's results.  A law the step did not compute is None: the prior
    in filter mode, the posterior in generate mode, both in fixed latent
    mode."""

    state: np.ndarray  # (2, H): row 0 = h, row 1 = c
    prior: GaussianParams
    posterior: GaussianParams
    z: float
    a: float
    gamma: float


def expected_shapes(hidden, mlp_hidden):
    H, P = hidden, mlp_hidden
    return {
        "lstm_W": (4 * H, 3 + H),
        "lstm_b": (4 * H,),
        "head_wz": (),
        "head_wh": (H,),
        "head_wt": (),
        "head_bt": (),
        "dur_wz": (),
        "dur_wh": (H,),
        "dur_b": (),
        "prior_W1": (P, H),
        "prior_b1": (P,),
        "prior_W2": (2, P),
        "prior_b2": (2,),
        "post_W1": (P, H + 2),
        "post_b1": (P,),
        "post_W2": (2, P),
        "post_b2": (2,),
    }


def softplus_inv(y):
    return math.log(math.expm1(y))


def init_params(hidden, mlp_hidden, seed, wt_mode="frozen_zero", latent_mode="full"):
    """Fresh parameters: uniform(-1/sqrt(fan_in), +) weights, zero biases,
    forget-gate bias 1, raw-sigma bias set so sigma starts near 0.5."""
    if hidden < 1 or mlp_hidden < 1:
        raise ValueError(f"init_params: sizes must be >= 1, got H={hidden}, H_p={mlp_hidden}")
    if wt_mode not in WT_MODES:
        raise ValueError(f"init_params: unknown wt_mode {wt_mode!r}")
    if latent_mode not in LATENT_MODES:
        raise ValueError(f"init_params: unknown latent_mode {latent_mode!r}")
    rng = np.random.default_rng(derive_seed(seed, "init"))
    H, P = hidden, mlp_hidden

    def u(shape, fan_in):
        s = 1.0 / math.sqrt(fan_in)
        return rng.uniform(-s, s, size=shape)

    lstm_b = np.zeros(4 * H)
    lstm_b[H : 2 * H] = 1.0
    raw_sigma0 = softplus_inv(0.5 - K.SIGMA_FLOOR)
    prior_b2 = np.array([0.0, raw_sigma0])
    post_b2 = np.array([0.0, raw_sigma0])
    return ModelParams(
        hidden=H,
        mlp_hidden=P,
        wt_mode=wt_mode,
        latent_mode=latent_mode,
        lstm_W=u((4 * H, 3 + H), 3 + H),
        lstm_b=lstm_b,
        head_wz=np.asarray(u((), H + 1)),
        head_wh=u(H, H + 1),
        head_wt=np.asarray(0.0),
        head_bt=np.asarray(0.0),
        dur_wz=np.asarray(u((), H + 1)),
        dur_wh=u(H, H + 1),
        dur_b=np.asarray(0.0),
        prior_W1=u((P, H), H),
        prior_b1=np.zeros(P),
        prior_W2=u((2, P), P),
        prior_b2=prior_b2,
        post_W1=u((P, H + 2), H + 2),
        post_b1=np.zeros(P),
        post_W2=u((2, P), P),
        post_b2=post_b2,
    )


def prior_params(params, h):
    """Prior (mu0, sigma0) of logit(z) given the previous hidden state."""
    mu, sigma, _, _ = K.mlp2(params.prior_W1, params.prior_b1, params.prior_W2, params.prior_b2, h)
    return GaussianParams(mu=mu.item(), sigma=sigma.item())


def _posterior(params, gf, df, h):
    x = np.empty(2 + params.hidden)
    x[0] = gf
    x[1] = df
    x[2:] = h
    mu, sigma, _, _ = K.mlp2(params.post_W1, params.post_b1, params.post_W2, params.post_b2, x)
    return GaussianParams(mu=mu.item(), sigma=sigma.item())


def input_features(g, d):
    if g < 0.0:
        raise ValueError(f"gap must be >= 0, got {g}")
    if d < 1:
        raise ValueError(f"duration must be >= 1, got {d}")
    return math.log1p(g), math.log1p(float(d))


def posterior_params(params, g, d, h):
    """Approximate posterior (mu_q, sigma_q) given (g_i, d_i, h_{i-1})."""
    return _posterior(params, *input_features(g, d), h)


def heads(params, z, h):
    """Intensity base a and duration rate gamma evaluated at (z, h)."""
    a, lg = (v.item() for v in K.heads(params, z, h))
    if not (abs(a) <= 700.0 and abs(lg) <= 700.0):  # NaN fails too
        raise NumericalError(f"heads: diverged (a={a:.3g}, log gamma={lg:.3g})")
    return a, math.exp(lg)


def initial_step(params, mode, eps=0.0):
    """Step-0 convention: state is zero, z comes from the prior at that state,
    the heads at (z0, 0) govern the first observed session's duration."""
    state = np.zeros((2, params.hidden))
    prior = None
    z = 0.5
    if params.latent_mode == "full":
        prior = prior_params(params, state[0])
        z = K.draw_z(prior.mu, prior.sigma, 0.0 if mode == "filter" else eps)
    a, gamma = heads(params, z, state[:1])
    return StepOutput(state=state, prior=prior, posterior=prior, z=float(z), a=a, gamma=gamma)


def step(params, prev, g, d, mode, eps=0.0):
    """One recurrence step on observed (g, d) from the (2, H) state prev.

    infer: z from the reparameterized posterior draw; generate: z from the
    prior draw; filter: z = sigmoid(posterior mean), fully deterministic.
    Only the laws a mode reads are computed: filter has no prior and
    generate no posterior.  The returned (a, gamma) govern the NEXT
    session's gap and duration.  The step runs the kernels of the batched
    training step (``_kernels.cell_fwd``) on one row.
    """
    if mode not in MODES:
        raise ValueError(f"step: unknown mode {mode!r}")
    gf, df = input_features(g, d)
    prior = posterior = None
    z = 0.5
    if params.latent_mode == "full":
        if mode != "filter":
            prior = prior_params(params, prev[0])
        if mode != "generate":
            posterior = _posterior(params, gf, df, prev[0])
        law = prior if mode == "generate" else posterior
        z = K.draw_z(law.mu, law.sigma, 0.0 if mode == "filter" else eps)
    xh = np.empty(3 + params.hidden)
    xh[:3] = gf, df, z
    xh[3:] = prev[0]
    state = np.empty((2, params.hidden))
    state[0], state[1], _ = K.lstm(params.lstm_W, params.lstm_b, xh, prev[1])
    if not np.isfinite(state).all():
        raise NumericalError("step: non-finite hidden state")
    # the heads read h as a batch of one row, the layout of the training step
    a, gamma = heads(params, z, state[:1])
    return StepOutput(state=state, prior=prior, posterior=posterior, z=float(z), a=a, gamma=gamma)
