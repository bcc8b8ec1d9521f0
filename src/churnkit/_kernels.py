"""Hot numeric kernels: fused forward/backward pairs for the recurrent model.

Every kernel is written as plain vectorized numpy and compiled with numba's
``@njit`` at import time.  Setting the environment variable
``CHURNKIT_NO_NUMBA=1`` (or numba being unavailable) selects the pure-numpy
path instead; both paths run the same source.  The undecorated functions are
kept around with a ``_py`` suffix so tests can compare the two paths
in-process.  churnkit.train drives the fused step pair in its BPTT loops.

Conventions: float64 throughout; LSTM gate order is [input, forget, output,
candidate], each block H wide inside the stacked (4H,) preactivation; the
recurrent state is a (2, H) array with row 0 = h and row 1 = c.
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
    e = np.exp(-np.abs(pre[: 3 * H]))
    gates[: 3 * H] = np.where(pre[: 3 * H] >= 0.0, 1.0 / (1.0 + e), e / (1.0 + e))
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


dense_tanh_fwd = _jit(dense_tanh_fwd_py)
dense_tanh_bwd = _jit(dense_tanh_bwd_py)
affine_fwd = _jit(affine_fwd_py)
affine_bwd = _jit(affine_bwd_py)
lstm_fwd = _jit(lstm_fwd_py)
lstm_bwd = _jit(lstm_bwd_py)


# ------------------------------------------------------------ fused step


SIGMA_FLOOR = 1e-4
WT_ZERO_EPS = 1e-8
_Z_LO = 1e-15
_Z_HI = 0.9999999999999999


def _sig_py(v):
    if v >= 0.0:
        return 1.0 / (1.0 + math.exp(-v))
    e = math.exp(v)
    return e / (1.0 + e)


def _softplus_py(v):
    return max(v, 0.0) + math.log1p(math.exp(-abs(v)))


_sig = _jit(_sig_py)
_softplus = _jit(_softplus_py)


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
    H = state.shape[1]
    h_prev = state[0]
    sc = np.zeros(12)
    if full_latent:
        xq = np.empty(2 + H)
        xq[0] = gf
        xq[1] = df
        xq[2:] = h_prev
        y1 = np.tanh(qW1 @ xq + qb1)
        qo = qW2 @ y1 + qb2
        muq = qo[0]
        rq = qo[1]
        sq = _softplus(rq) + SIGMA_FLOOR
        p1 = np.tanh(pW1 @ h_prev + pb1)
        po = pW2 @ p1 + pb2
        mup = po[0]
        rp = po[1]
        sp = _softplus(rp) + SIGMA_FLOOR
        dmu = muq - mup
        kl = math.log(sp / sq) + (sq * sq + dmu * dmu) / (2.0 * sp * sp) - 0.5
        z = _sig(muq + sq * eps)
        if z < _Z_LO:
            z = _Z_LO
        elif z > _Z_HI:
            z = _Z_HI
        sc[0] = muq
        sc[1] = sq
        sc[2] = mup
        sc[3] = sp
        sc[4] = rq
        sc[5] = rp
    else:
        y1 = np.empty(0)
        p1 = np.empty(0)
        kl = 0.0
        z = 0.5
    out, gates, xh = lstm_fwd(state, z, gf, df, W, b)
    h2 = out[0]
    a = wz * z + wh @ h2 + bt
    lgam = dwz * z + dwh @ h2 + dbias
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
    sc[6] = z
    sc[7] = a
    sc[8] = lgam
    sc[9] = 1.0 - lam_int
    sc[10] = dwt_coef
    sc[11] = kl
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
    muq = sc[0]
    sq = sc[1]
    mup = sc[2]
    sp = sc[3]
    rq = sc[4]
    rp = sc[5]
    z = sc[6]
    lgam = sc[8]
    da = dterm * sc[9]
    dlg = dterm * (d_next - math.exp(lgam))
    dwt_s = dterm * sc[10]

    h2 = out[0]
    dwz_s = da * z
    gwh += da * h2
    dbt_s = da
    ddwz_s = dlg * z
    gdwh += dlg * h2
    ddb_s = dlg

    dout = dout_in.copy()
    dout[0] += da * wh + dlg * dwh
    dz = da * wz + dlg * dwz

    dstate, dz_l, dW_l, dpre = lstm_bwd(state, W, gates, xh, out, dout)
    gW += dW_l
    gb += dpre
    dz += dz_l

    if full_latent:
        dg = dz * z * (1.0 - z)
        dmuq = dg
        dsq = dg * eps
        dkl = -dterm
        ratio = (muq - mup) / (sp * sp)
        dmuq += dkl * ratio
        dmup = -dkl * ratio
        dsq += dkl * (sq / (sp * sp) - 1.0 / sq)
        dsp = dkl * (1.0 / sp - (sq * sq + (muq - mup) ** 2) / (sp * sp * sp))
        drq = dsq * _sig(rq)
        drp = dsp * _sig(rp)

        dqo = np.empty(2)
        dqo[0] = dmuq
        dqo[1] = drq
        gqW2 += np.outer(dqo, y1)
        gqb2 += dqo
        dy1 = qW2.T @ dqo
        dpre1 = dy1 * (1.0 - y1 * y1)
        H = state.shape[1]
        xq = np.empty(2 + H)
        xq[0] = gf
        xq[1] = df
        xq[2:] = state[0]
        gqW1 += np.outer(dpre1, xq)
        gqb1 += dpre1
        dxq = qW1.T @ dpre1
        dstate[0] += dxq[2:]

        dpo = np.empty(2)
        dpo[0] = dmup
        dpo[1] = drp
        gpW2 += np.outer(dpo, p1)
        gpb2 += dpo
        dp1 = pW2.T @ dpo
        dpre1p = dp1 * (1.0 - p1 * p1)
        gpW1 += np.outer(dpre1p, state[0])
        gpb1 += dpre1p
        dstate[0] += pW1.T @ dpre1p

    return dstate, dwz_s, dwt_s, dbt_s, ddwz_s, ddb_s


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
