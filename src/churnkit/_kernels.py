"""Hot numeric kernels, and the one definition of every formula of the cell.

The recurrent cell is written here once, piece by piece, and every caller
composes the same pieces: training (churnkit.train, through the fused step
pair below), filtering, prediction and generation (churnkit.model and
churnkit.inference), and the distribution helpers of churnkit.tppmath.

- constants: ``SIGMA_FLOOR``, ``WT_ZERO_EPS`` and the z clamp ``Z_LO``/``Z_HI``;
- the scalar ``sig`` and ``softplus``, and the array ``sigmoid``;
- the latent MLP ``mlp2_fwd``/``mlp2_bwd`` giving (mu, sigma) of logit(z),
  built on the dense-tanh and affine kernels, with the posterior's input
  ``post_input``;
- the reparameterized draw ``draw_z``/``draw_z_bwd`` with its clamp;
- the Gaussian KL ``gaussian_kl`` and its gradient ``gaussian_kl_grad``;
- the LSTM cell ``lstm_fwd``/``lstm_bwd`` and the two ``heads``;
- the fused training step ``step_fwd``/``step_bwd``, composed of the above.

Every kernel is written as plain vectorized numpy and compiled with numba's
``@njit`` at import time.  Setting the environment variable
``CHURNKIT_NO_NUMBA=1`` (or numba being unavailable) selects the pure-numpy
path instead; both paths run the same source.  The undecorated functions are
kept around with a ``_py`` suffix so tests can compare the two paths
in-process.

Conventions: float64 throughout; LSTM gate order is [input, forget, output,
candidate], each block H wide inside the stacked (4H,) preactivation; the
recurrent state is a (2, H) array with row 0 = h and row 1 = c, everywhere
in the package.
"""

from __future__ import annotations

import math
import os

import numpy as np

_flag = os.environ.get("CHURNKIT_NO_NUMBA", "").strip().lower()
_DISABLED = _flag in {"1", "true", "yes", "on"}

try:
    if _DISABLED:
        raise ImportError("numba disabled via CHURNKIT_NO_NUMBA")
    from numba import njit as _njit

    NUMBA_ENABLED = True
except ImportError:
    NUMBA_ENABLED = False

    def _njit(*args, **kwargs):
        if args and callable(args[0]):
            return args[0]

        def wrap(func):
            return func

        return wrap


def _jit(func):
    return _njit(cache=True)(func)


SIGMA_FLOOR = 1e-4  # added to softplus, so every std of logit(z) is positive
WT_ZERO_EPS = 1e-8  # |wt| below this is treated as exactly zero
Z_LO = 1e-15  # z is clamped into [Z_LO, Z_HI], strictly inside (0, 1)
Z_HI = 0.9999999999999999  # the largest float below 1


def sig_py(v):
    if v >= 0.0:
        return 1.0 / (1.0 + math.exp(-v))
    e = math.exp(v)
    return e / (1.0 + e)


def softplus_py(v):
    return max(v, 0.0) + math.log1p(math.exp(-abs(v)))


def sigmoid_py(v):
    """Elementwise logistic of an array, stable for either sign."""
    e = np.exp(-np.abs(v))
    return np.where(v >= 0.0, 1.0 / (1.0 + e), e / (1.0 + e))


sig = _jit(sig_py)
softplus = _jit(softplus_py)
sigmoid = _jit(sigmoid_py)


def dense_tanh_fwd_py(W, x, b):
    return np.tanh(W @ x + b)


def dense_tanh_bwd_py(W, x, y, dy):
    dpre = dy * (1.0 - y * y)
    dW = np.outer(dpre, x)
    dx = W.T @ dpre
    return dW, dx, dpre


def affine_fwd_py(W, x, b):
    return W @ x + b


def affine_bwd_py(W, x, dy):
    dW = np.outer(dy, x)
    dx = W.T @ dy
    return dW, dx


dense_tanh_fwd = _jit(dense_tanh_fwd_py)
dense_tanh_bwd = _jit(dense_tanh_bwd_py)
affine_fwd = _jit(affine_fwd_py)
affine_bwd = _jit(affine_bwd_py)


# ------------------------------------------------------------- the latent


def post_input_py(gf, df, h):
    """Input [gf, df, h] of the posterior MLP (the prior MLP reads h alone)."""
    x = np.empty(2 + h.shape[0])
    x[0] = gf
    x[1] = df
    x[2:] = h
    return x


def mlp2_fwd_py(W1, b1, W2, b2, x):
    """The prior or posterior MLP: (mu, sigma) of logit(z) at input x, with
    sigma = softplus(raw) + SIGMA_FLOOR; also returns the hidden layer and
    raw for mlp2_bwd."""
    hid = dense_tanh_fwd(W1, x, b1)
    out = affine_fwd(W2, hid, b2)
    raw = float(out[1])
    return float(out[0]), softplus(raw) + SIGMA_FLOOR, hid, raw


def mlp2_bwd_py(W1, W2, x, hid, raw, dmu, dsigma, gW1, gb1, gW2, gb2):
    """Adjoint of mlp2_fwd: accumulates into the g* buffers, returns d(x)."""
    dout = np.empty(2)
    dout[0] = dmu
    dout[1] = dsigma * sig(raw)
    dW2, dhid = affine_bwd(W2, hid, dout)
    gW2 += dW2
    gb2 += dout
    dW1, dx, dpre = dense_tanh_bwd(W1, x, hid, dhid)
    gW1 += dW1
    gb1 += dpre
    return dx


def draw_z_py(mu, sigma, eps):
    """Reparameterized z = sigmoid(mu + sigma * eps), clamped into [Z_LO, Z_HI]."""
    z = sig(mu + sigma * eps)
    if z < Z_LO:
        return Z_LO
    if z > Z_HI:
        return Z_HI
    return z


def draw_z_bwd_py(z, eps, dz):
    """(d mu, d sigma) of draw_z given d(z); the clamp is not differentiated,
    z (1 - z) is at most about 1e-15 wherever it acts."""
    dg = dz * z * (1.0 - z)
    return dg, dg * eps


def gaussian_kl_py(muq, sq, mup, sp):
    """KL(N(muq, sq^2) || N(mup, sp^2)); >= 0, and 0 iff both are equal."""
    d = muq - mup
    return math.log(sp / sq) + (sq * sq + d * d) / (2.0 * sp * sp) - 0.5


def gaussian_kl_grad_py(muq, sq, mup, sp):
    """Partial derivatives of gaussian_kl by (muq, sq, mup, sp)."""
    d = muq - mup
    ratio = d / (sp * sp)
    return ratio, sq / (sp * sp) - 1.0 / sq, -ratio, 1.0 / sp - (sq * sq + d * d) / (sp * sp * sp)


post_input = _jit(post_input_py)
mlp2_fwd = _jit(mlp2_fwd_py)
mlp2_bwd = _jit(mlp2_bwd_py)
draw_z = _jit(draw_z_py)
draw_z_bwd = _jit(draw_z_bwd_py)
gaussian_kl = _jit(gaussian_kl_py)
gaussian_kl_grad = _jit(gaussian_kl_grad_py)


# ------------------------------------------------------ the LSTM and heads


def lstm_fwd_py(state, z, g_feat, d_feat, W, b):
    """One LSTM step on input [g_feat, d_feat, z] and state (2, H).

    Returns (new_state, gates, xh); gates and xh are cached for the backward
    pass.
    """
    H = state.shape[1]
    xh = np.empty(3 + H)
    xh[0] = g_feat
    xh[1] = d_feat
    xh[2] = z
    xh[3:] = state[0]
    pre = W @ xh + b
    gates = np.empty(4 * H)
    gates[: 3 * H] = sigmoid(pre[: 3 * H])
    gates[3 * H :] = np.tanh(pre[3 * H :])
    c_new = gates[H : 2 * H] * state[1] + gates[:H] * gates[3 * H :]
    out = np.empty((2, H))
    out[1] = c_new
    out[0] = gates[2 * H : 3 * H] * np.tanh(c_new)
    return out, gates, xh


def lstm_bwd_py(state, W, gates, xh, out, dout):
    """Adjoints of lstm_fwd given d(out); returns (dstate, dz, dW, db)."""
    H = state.shape[1]
    gi = gates[:H]
    gf = gates[H : 2 * H]
    go = gates[2 * H : 3 * H]
    gc = gates[3 * H :]
    tc = np.tanh(out[1])
    dh = dout[0]
    dc = dout[1] + dh * go * (1.0 - tc * tc)
    dpre = np.empty(4 * H)
    dpre[:H] = dc * gc * gi * (1.0 - gi)
    dpre[H : 2 * H] = dc * state[1] * gf * (1.0 - gf)
    dpre[2 * H : 3 * H] = dh * tc * go * (1.0 - go)
    dpre[3 * H :] = dc * gi * (1.0 - gc * gc)
    dW = np.outer(dpre, xh)
    dxh = W.T @ dpre
    dstate = np.empty((2, H))
    dstate[0] = dxh[3:]
    dstate[1] = dc * gf
    return dstate, dxh[2], dW, dpre


def heads_py(wz, wh, bt, dwz, dwh, dbias, z, h):
    """Intensity base a and log duration rate at (z, h)."""
    return wz * z + wh @ h + bt, dwz * z + dwh @ h + dbias


lstm_fwd = _jit(lstm_fwd_py)
lstm_bwd = _jit(lstm_bwd_py)
heads = _jit(heads_py)


# ------------------------------------------------------------ fused step


def step_fwd_py(
    state, W, b, qW1, qb1, qW2, qb2, pW1, pb1, pW2, pb2,
    wz, wh, wt, bt, dwz, dwh, dbias,
    gf, df, eps, g_next, d_next, full_latent,
):
    """One full training step fused into a single call.

    Consumes the session features (gf, df), draws z from the reparameterized
    posterior (or fixes it at 0.5 when full_latent is false), advances the
    LSTM, evaluates both heads and scores the NEXT observation (g_next,
    d_next).  Returns the step's ELBO term (gap + duration log-lik minus KL),
    the new state and the caches the backward pass needs.  The ``sc`` vector
    packs the step's scalars: [muq, sq, mup, sp, rq, rp, z, a, lgam,
    da_coef, dwt_coef, kl].
    """
    if full_latent:
        h_prev = state[0]
        muq, sq, y1, rq = mlp2_fwd(qW1, qb1, qW2, qb2, post_input(gf, df, h_prev))
        mup, sp, p1, rp = mlp2_fwd(pW1, pb1, pW2, pb2, h_prev)
        kl = gaussian_kl(muq, sq, mup, sp)
        z = draw_z(muq, sq, eps)
    else:
        muq = sq = mup = sp = rq = rp = kl = 0.0
        y1 = np.empty(0)
        p1 = np.empty(0)
        z = 0.5
    out, gates, xh = lstm_fwd(state, z, gf, df, W, b)
    a, lgam = heads(wz, wh, bt, dwz, dwh, dbias, z, out[0])
    if a > 700.0 or a < -700.0 or lgam > 700.0 or lgam < -700.0:
        raise ValueError("head overflow: |exp argument| > 700")
    ea = math.exp(a)
    if abs(wt) < WT_ZERO_EPS:
        lam_int = ea * g_next
        dwt_coef = g_next - ea * g_next * g_next / 2.0
        ll_gap = a - lam_int
    else:
        x = wt * g_next
        if x > 700.0:
            raise ValueError("cumulative intensity overflow")
        lam_int = ea * math.expm1(x) / wt
        if abs(x) < 1e-3:
            dd = g_next * g_next * (0.5 + x / 3.0 + x * x / 8.0 + x * x * x / 30.0)
        else:
            dd = (math.exp(x) * (x - 1.0) + 1.0) / (wt * wt)
        dwt_coef = g_next - ea * dd
        ll_gap = a + x - lam_int
    ll_dur = d_next * lgam - math.exp(lgam) - math.lgamma(d_next + 1.0)
    term = ll_gap + ll_dur - kl
    sc = np.array([muq, sq, mup, sp, rq, rp, z, a, lgam, 1.0 - lam_int, dwt_coef, kl])
    return term, out, gates, xh, y1, p1, sc


def step_bwd_py(
    state, W, qW1, qW2, pW1, pW2,
    wz, wh, dwz, dwh,
    gf, df, eps, d_next, full_latent,
    out, gates, xh, y1, p1, sc,
    dterm, dout_in,
    gW, gb, gqW1, gqb1, gqW2, gqb2, gpW1, gpb1, gpW2, gpb2, gwh, gdwh,
):
    """Adjoints of step_fwd.  Array-parameter gradients accumulate in place
    into the g* buffers; returns (dstate, dwz, dwt, dbt, ddwz, ddb)."""
    z = sc[6]
    da = dterm * sc[9]
    dlg = dterm * (d_next - math.exp(sc[8]))

    h2 = out[0]
    gwh += da * h2
    gdwh += dlg * h2
    dout = dout_in.copy()
    dout[0] += da * wh + dlg * dwh
    dz = da * wz + dlg * dwz

    dstate, dz_l, dW_l, dpre = lstm_bwd(state, W, gates, xh, out, dout)
    gW += dW_l
    gb += dpre
    dz += dz_l

    if full_latent:
        muq, sq, mup, sp, rq, rp = sc[0], sc[1], sc[2], sc[3], sc[4], sc[5]
        dmuq, dsq = draw_z_bwd(z, eps, dz)
        kmuq, ksq, kmup, ksp = gaussian_kl_grad(muq, sq, mup, sp)
        dkl = -dterm
        h_prev = state[0]
        dxq = mlp2_bwd(
            qW1, qW2, post_input(gf, df, h_prev), y1, rq,
            dmuq + dkl * kmuq, dsq + dkl * ksq, gqW1, gqb1, gqW2, gqb2,
        )
        dstate[0] += dxq[2:]
        dstate[0] += mlp2_bwd(pW1, pW2, h_prev, p1, rp, dkl * kmup, dkl * ksp, gpW1, gpb1, gpW2, gpb2)

    return dstate, da * z, dterm * sc[10], da, dlg * z, dlg


step_fwd = _jit(step_fwd_py)
step_bwd = _jit(step_bwd_py)


def warmup():
    """Trigger JIT compilation of every kernel on tiny inputs."""
    H, P = 2, 2
    W = np.zeros((4 * H, 3 + H))
    b = np.zeros(4 * H)
    state = np.zeros((2, H))
    out, gates, xh = lstm_fwd(state, 0.5, 0.1, 0.2, W, b)
    lstm_bwd(state, W, gates, xh, out, np.ones((2, H)))
    Wd = np.zeros((3, 4))
    xd = np.zeros(4)
    bd = np.zeros(3)
    y = dense_tanh_fwd(Wd, xd, bd)
    dense_tanh_bwd(Wd, xd, y, np.ones(3))
    y2 = affine_fwd(Wd, xd, bd)
    affine_bwd(Wd, xd, np.ones_like(y2))

    qW1 = np.zeros((P, H + 2))
    qb1 = np.zeros(P)
    qW2 = np.zeros((2, P))
    qb2 = np.zeros(2)
    pW1 = np.zeros((P, H))
    pb1 = np.zeros(P)
    wh = np.zeros(H)
    dwh = np.zeros(H)
    for full in (True, False):
        term, out, gates, xh, y1, p1, sc = step_fwd(
            state, W, b, qW1, qb1, qW2, qb2, pW1, pb1, qW2, qb2,
            0.0, wh, 0.0, 0.0, 0.0, dwh, 0.0,
            0.1, 0.2, 0.3, 1.0, 2.0, full,
        )
        step_bwd(
            state, W, qW1, qW2, pW1, qW2, 0.0, wh, 0.0, dwh,
            0.1, 0.2, 0.3, 2.0, full,
            out, gates, xh, y1, p1, sc,
            1.0, np.zeros((2, H)),
            np.zeros_like(W), np.zeros_like(b),
            np.zeros_like(qW1), np.zeros_like(qb1), np.zeros_like(qW2), np.zeros_like(qb2),
            np.zeros_like(pW1), np.zeros_like(pb1), np.zeros_like(qW2), np.zeros_like(qb2),
            np.zeros_like(wh), np.zeros_like(dwh),
        )
