"""The recurrent latent-loyalty network.

One time-step consumes a session's (gap, duration), draws or fixes the latent
loyalty z in (0, 1), updates an LSTM hidden state on the compressed input
[log1p(gap), log1p(duration), z], and evaluates two scalar heads at (z, h):
the intensity base ``a`` (so the next gap has density exp-affine in a) and the
log rate of the Poisson duration model for the next session.  Prior and
approximate-posterior parameters of logit(z) come from two one-hidden-layer
MLPs shared across time-steps.

Training (churnkit.train), filtering (churnkit.inference) and generation
(churnkit.simulate) run the step ``_kernels.cell_fwd`` on many rows at once;
training and filtering pack them longest first (``_pack``) from one ``_table``.
Every formula of the cell is defined once, in churnkit._kernels: the latent
MLPs (mlp2), the clamped reparameterized draw (draw_z), the LSTM (lstm),
the heads, softplus and the constants.  The parameters are declared once, by
name and shape, in ``expected_shapes``, and live in one vector with a named
view per parameter (``ModelParams``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate
from typing import Optional

import numpy as np

from . import _kernels as K
from .eventlog import derive_seed

WT_MODES = ("frozen_zero", "learned")
LATENT_MODES = ("full", "fixed")


def expected_shapes(hidden, mlp_hidden):
    """The parameter table: every name and its shape at sizes (H, P)."""
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


# the checkpoint order, and the layout of ModelParams.flat
PARAM_FIELDS = tuple(sorted(expected_shapes(1, 1)))


@dataclass
class ModelParams:
    """The sizes and modes of a model, and every parameter in one contiguous
    float64 vector ``flat`` (zeros when None).

    Each name of PARAM_FIELDS is a read-only attribute that is a view of its
    slice of flat in the shape ``expected_shapes`` gives it (rank 0 for the
    scalar heads), laid out in PARAM_FIELDS order: ``p.lstm_W`` reads as an
    array, ``float(p.head_wt)`` as a number, and a write through a view shows
    in flat.  Gradients use the same layout, so the optimizer, clipping and
    accumulation work on flat as one array.
    """

    hidden: int
    mlp_hidden: int
    wt_mode: str
    latent_mode: str
    flat: Optional[np.ndarray] = None

    def __post_init__(self):
        shapes = expected_shapes(self.hidden, self.mlp_hidden)
        sizes = [math.prod(shapes[name]) for name in PARAM_FIELDS]
        if self.flat is None:
            self.flat = np.zeros(sum(sizes))
        if self.flat.shape != (sum(sizes),):
            raise ValueError(f"ModelParams: flat has shape {self.flat.shape}, expected ({sum(sizes)},)")
        self._views = {
            name: self.flat[end - size : end].reshape(shapes[name])
            for name, size, end in zip(PARAM_FIELDS, sizes, accumulate(sizes))
        }

    def __getstate__(self):  # the views are rebuilt, so they stay views
        return {k: v for k, v in vars(self).items() if k != "_views"}

    def __setstate__(self, state):
        vars(self).update(state)
        self.__post_init__()

    def replace(self, **arrays):
        """A copy with the named arrays replaced."""
        out = ModelParams(self.hidden, self.mlp_hidden, self.wt_mode, self.latent_mode, self.flat.copy())
        for name, value in arrays.items():
            out._views[name][...] = value
        return out

    def trainable_names(self):
        return [name for name in PARAM_FIELDS if name != "head_wt" or self.wt_mode == "learned"]


for _name in PARAM_FIELDS:
    setattr(ModelParams, _name, property(lambda self, name=_name: self._views[name]))


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
    shapes = expected_shapes(H, P)

    def u(name, fan_in):
        s = 1.0 / math.sqrt(fan_in)
        return rng.uniform(-s, s, size=shapes[name])

    raw_sigma0 = math.log(math.expm1(0.5 - K.SIGMA_FLOOR))  # softplus(raw_sigma0) + floor = 0.5
    # the draws run in this order; every parameter not named here is zero
    return ModelParams(H, P, wt_mode, latent_mode).replace(
        lstm_W=u("lstm_W", 3 + H),
        lstm_b=np.repeat([0.0, 1.0, 0.0, 0.0], H),  # the forget gate's bias is 1
        head_wz=u("head_wz", H + 1),
        head_wh=u("head_wh", H + 1),
        dur_wz=u("dur_wz", H + 1),
        dur_wh=u("dur_wh", H + 1),
        prior_W1=u("prior_W1", H),
        prior_W2=u("prior_W2", P),
        prior_b2=[0.0, raw_sigma0],
        post_W1=u("post_W1", H + 2),
        post_W2=u("post_W2", P),
        post_b2=[0.0, raw_sigma0],
    )


@dataclass
class _Rows:
    """The rows of one unroll, step-major and sorted by session count,
    longest first, so the rows a step runs are always a prefix.

    Step i consumes feat[i] (the features of session i - 1) and scores g[i]
    and d[i] (the gap and duration of session i) with the latent draw
    eps[i].  A row of n sessions runs steps 0..n: step 0 scores only d[0],
    step n carries only its KL when training.
    """

    n: np.ndarray  # (R,) session counts, non-increasing
    order: np.ndarray  # (R,) the caller's index of each row
    labels: list  # the user id of each row, in the caller's order
    feat: np.ndarray  # (N + 1, R, 2)
    g: np.ndarray  # (N + 1, R)
    d: np.ndarray
    lgd: np.ndarray  # lgamma(d + 1)
    eps: np.ndarray


def _table(seqs):
    """The sessions of seqs as one flat table: (user ids, session counts, each
    one's first session, and the columns g, d, lgamma(d + 1), log1p(g), log1p(d))."""
    gs = [s.g for seq in seqs for s in seq.sessions]
    ds = np.array([s.d for seq in seqs for s in seq.sessions], float)
    n = np.array([len(seq.sessions) for seq in seqs])
    # math's log1p, element by element: numpy's can differ in the last bit
    cols = np.array([gs, ds, K.log_factorial(ds), list(map(math.log1p, gs)), list(map(math.log1p, ds.tolist()))])
    return [seq.user_id for seq in seqs], n, np.cumsum(n) - n, cols


def _pack(table, users, eps=None):
    """_Rows of the sequences users of a ``_table``, one per row, gathered and
    scattered into place at once; eps holds each row's draws of its steps
    0..n-1, row after row in the order of users (zeros when None)."""
    ids, counts, start, cols = table
    users = np.asarray(users)
    lengths = counts[users]
    order = np.argsort(-lengths, kind="stable")
    n = lengths[order]
    R, steps = len(n), int(n[0]) + 1
    row = np.repeat(np.arange(R), n)  # the row and the step of every cell
    step = np.arange(len(row)) - np.repeat(np.cumsum(n) - n, n)
    src = np.repeat(start[users[order]], n) + step
    out = np.zeros((4, steps, R))  # g, d, lgd and eps
    out[:3, step, row] = cols[:3, src]
    if eps is not None:
        out[3, step, row] = np.ravel(eps)[np.repeat((np.cumsum(lengths) - lengths)[order], n) + step]
    feat = np.zeros((steps, R, 2))
    feat[step + 1, row] = cols[3:, src].T
    return _Rows(n, order, [ids[k] for k in users.tolist()], feat, *out)
