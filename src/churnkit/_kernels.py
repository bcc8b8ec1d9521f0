"""Hot numeric kernels, and the one definition of every formula of the cell.

Every kernel works on rows: the leading axis of an array indexes rows (the
users of an optimizer batch times their latent trajectories), and one row is
a batch of one.  Training (churnkit.train) and filtering (churnkit.inference)
unroll the cell over many rows at once, prediction runs its heads on
(records, samples) arrays and generation (churnkit.model) on one row; the
distribution helpers of churnkit.tppmath wrap the KL and the draw.

- constants: ``SIGMA_FLOOR``, ``WT_ZERO_EPS``, ``EXP_ARG_MAX``, the z clamp ``Z_LO``/``Z_HI``;
- ``sigmoid`` and ``softplus``;
- the latent MLP ``mlp2`` giving (mu, sigma) of logit(z), the clamped
  reparameterized draw ``draw_z``, the Gaussian KL ``gaussian_kl`` and its
  gradient ``gaussian_kl_grad``;
- the LSTM cell ``lstm`` and the two ``heads``;
- the gap and duration log-likelihoods with their derivatives;
- the training step over rows, ``cell_fwd``, and its adjoint ``cell_bwd``.
  They read and write one step of an ``Unroll``, the (steps, rows, .) caches
  of one truncation segment, which also reduces the parameter gradients of
  the whole segment as matrix products over its steps and rows.

Conventions: float64 throughout; LSTM gate order is [input, forget, output,
candidate], each block H wide inside the stacked 4H preactivation; the
recurrent state of one row is a (2, H) array with row 0 = h and row 1 = c,
and a batch keeps h and c as separate (rows, H) arrays.
"""

from __future__ import annotations

import numpy as np
from scipy import special

SIGMA_FLOOR = 1e-4  # added to softplus, so every std of logit(z) is positive
WT_ZERO_EPS = 1e-8  # |wt| below this is treated as exactly zero
EXP_ARG_MAX = 700.0  # the largest exp argument accepted, below exp's overflow at 709.8
Z_LO = 1e-15  # z is clamped into [Z_LO, Z_HI], strictly inside (0, 1)
Z_HI = 0.9999999999999999  # the largest float below 1


def sigmoid(v, out=None):
    """Elementwise logistic, stable for either sign."""
    return special.expit(v, out=out)


def softplus(v):
    """log(1 + exp(v)), stable for either sign."""
    return np.logaddexp(0.0, v)


# ------------------------------------------------------------- the latent


def mlp2(W1, b1, W2, b2, x):
    """The prior MLP on rows of the state h, or the posterior MLP on rows of
    [gf, df, h]: (mu, sigma) of logit(z) with sigma = softplus(raw) +
    SIGMA_FLOOR, and the hidden layer and raw for the adjoint."""
    hid = np.tanh(x @ W1.T + b1)
    out = hid @ W2.T + b2
    raw = out[..., 1]
    return out[..., 0], softplus(raw) + SIGMA_FLOOR, hid, raw


def draw_z(mu, sigma, eps):
    """Reparameterized z = sigmoid(mu + sigma * eps), clamped into [Z_LO, Z_HI]."""
    return np.minimum(np.maximum(sigmoid(mu + sigma * eps), Z_LO), Z_HI)


def gaussian_kl(muq, sq, mup, sp):
    """KL(N(muq, sq^2) || N(mup, sp^2)); >= 0, and 0 iff both are equal."""
    d = muq - mup
    return np.log(sp / sq) + (sq * sq + d * d) / (2.0 * sp * sp) - 0.5


def gaussian_kl_grad(muq, sq, mup, sp):
    """Partial derivatives of gaussian_kl by (muq, sq, mup, sp)."""
    d = muq - mup
    ratio = d / (sp * sp)
    return ratio, sq / (sp * sp) - 1.0 / sq, -ratio, 1.0 / sp - (sq * sq + d * d) / (sp * sp * sp)


# ------------------------------------------------------ the LSTM and heads


def lstm(W, b, xh, c):
    """One LSTM step on rows of xh = [gf, df, z, h], the session features,
    the latent and the hidden state, with cell state c.  Returns (h_new,
    c_new, gates)."""
    H = c.shape[-1]
    gates = xh @ W.T + b
    sigmoid(gates[..., : 3 * H], out=gates[..., : 3 * H])
    np.tanh(gates[..., 3 * H :], out=gates[..., 3 * H :])
    c_new = gates[..., H : 2 * H] * c + gates[..., :H] * gates[..., 3 * H :]
    return gates[..., 2 * H : 3 * H] * np.tanh(c_new), c_new, gates


def heads(p, z, h):
    """Intensity base a and log duration rate at (z, h)."""
    a = h @ p.head_wh + (float(p.head_wz) * z + float(p.head_bt))
    return a, h @ p.dur_wh + (float(p.dur_wz) * z + float(p.dur_b))


def gap_loglik(a, wt, g):
    """Log density of gap g under the intensity exp(a + wt * g), and its
    derivatives by a and by wt."""
    ea = np.exp(a)
    if abs(wt) < WT_ZERO_EPS:
        lam_int = ea * g
        return a - lam_int, 1.0 - lam_int, g - ea * g * g / 2.0
    x = wt * g
    lam_int = ea * np.expm1(x) / wt
    # d(lam_int)/d(wt) / ea, by its series where the closed form cancels
    dd = np.where(
        np.abs(x) < 1e-3,
        g * g * (0.5 + x / 3.0 + x * x / 8.0 + x * x * x / 30.0),
        (np.exp(x) * (x - 1.0) + 1.0) / (wt * wt),
    )
    return a + x - lam_int, 1.0 - lam_int, g - ea * dd


def dur_loglik(lg, d, lgd):
    """Poisson log pmf of duration d at log rate lg, with lgd = lgamma(d + 1),
    and its derivative by lg."""
    rate = np.exp(lg)
    return d * lg - rate - lgd, d - rate


# ------------------------------------------------- the unrolled training step


class Unroll:
    """Caches of one truncation segment: ``steps`` steps of every row.

    xh[t] is the LSTM input of step t, [gf, df, z, h]: the features of the
    session it consumes, its latent draw and the hidden state it starts
    from; xq[t] is the posterior MLP's input [gf, df, h].  Step t reads
    (h, c[t]) and writes its z to xh[t, :, 2] and the new state to h of step
    t + 1 and c[t + 1].  The entries of a row that a step does not run stay
    zero, so they add nothing to the reductions over the segment.
    """

    def __init__(self, feat, h0, c0, eps, mlp_hidden):
        S, R = eps.shape
        H, P = h0.shape[1], mlp_hidden
        self.xh = np.zeros((S + 1, R, 3 + H))
        self.xh[:S, :, :2] = feat
        self.xh[0, :, 3:] = h0
        self.xq = np.zeros((S + 1, R, 2 + H))
        self.xq[:S, :, :2] = feat
        self.xq[0, :, 2:] = h0
        self.c = np.zeros((S + 1, R, H))
        self.c[0] = c0
        self.eps = eps
        self.hid = np.zeros((S, R, 2 * P))  # posterior | prior hidden layer
        self.law = np.zeros((S, R, 4))  # muq, sq, mup, sp
        self.raw = np.zeros((S, R, 2))  # raw sigma of the posterior, the prior
        # preactivation adjoints of the MLPs' first layers and of the LSTM;
        # the LSTM's part holds its gates until the reverse pass needs it
        self.dp = np.zeros((S, R, 2 * P + 4 * H))
        self.gates = self.dp[..., 2 * P :]
        self.ah = np.zeros((S, R, 2))  # a, log gamma

    def adjoint_terms(self, p, da, dlg, dlaw, drawn):
        """The step-local factors of the reverse pass, for every step at once.

        da, dlg: (S, R) adjoints of a and log gamma; dlaw: (S, R, 4) adjoint
        of (muq, sq, mup, sp) from the KL; drawn: (S, R, 2) whether z was
        drawn from the posterior, the prior.
        """
        H = self.c.shape[2]
        z = self.xh[:-1, :, 2]
        gi, gf, go, gc = (self.gates[..., k * H : (k + 1) * H] for k in range(4))
        # the gates become, in place, d(gate preactivation) per unit adjoint
        # of (c, c, h, c); cell_bwd multiplies those adjoints in, in place
        self.gf = gf.copy()  # the forget gate carries the cell state's adjoint
        tc = np.tanh(self.c[1:])
        self.dch = go * (1.0 - tc * tc)
        go *= tc * (1.0 - go)
        del tc
        gf *= self.c[:-1] * (1.0 - gf)
        fi = gc * gi * (1.0 - gi)
        gc[...] = gi * (1.0 - gc * gc)
        gi[...] = fi
        self.gates = None
        self.dhh = da[..., None] * p.head_wh + dlg[..., None] * p.dur_wh
        self.dzh = da * p.head_wz + dlg * p.dur_wz
        self.zz = z * (1.0 - z)
        sr = sigmoid(self.raw)  # d sigma / d raw, through softplus
        self.ko2 = dlaw.copy()
        self.ko2[..., 1::2] *= sr
        # (mu, raw) adjoint of each law per unit adjoint of the drawn z's logit
        self.eq = np.zeros(self.law.shape)
        self.eq[..., 0::2] = drawn
        self.eq[..., 1::2] = drawn * self.eps[..., None] * sr
        self.hh = 1.0 - self.hid * self.hid
        self.do2 = np.zeros(self.law.shape)  # (mu, raw) adjoints of both laws

    def grads(self, da, dlg):
        """Parameter gradients of the segment by name (all but head_wt),
        reduced as matrix products over all its steps and rows; the caller
        packs them into the parameter vector's layout."""
        S, R, H = self.c[1:].shape
        P = self.hid.shape[2] // 2
        dp = self.dp.reshape(S * R, -1)
        dq, dpp, dpre = dp[:, :P], dp[:, P : 2 * P], dp[:, 2 * P :]
        xh = self.xh[:-1].reshape(S * R, 3 + H)
        xq = self.xq[:-1].reshape(S * R, 2 + H)
        hprev = xh[:, 3:]
        hnext = self.xh[1:, :, 3:].reshape(S * R, H)
        z = xh[:, 2]
        do2 = self.do2.reshape(S * R, 4)
        hid = self.hid.reshape(S * R, 2 * P)
        da = da.reshape(-1)
        dlg = dlg.reshape(-1)
        return {
            "lstm_W": dpre.T @ xh,
            "lstm_b": dpre.sum(axis=0),
            "post_W1": dq.T @ xq,
            "post_b1": dq.sum(axis=0),
            "post_W2": do2[:, :2].T @ hid[:, :P],
            "post_b2": do2[:, :2].sum(axis=0),
            "prior_W1": dpp.T @ hprev,
            "prior_b1": dpp.sum(axis=0),
            "prior_W2": do2[:, 2:].T @ hid[:, P:],
            "prior_b2": do2[:, 2:].sum(axis=0),
            "head_wz": da @ z,
            "head_wh": hnext.T @ da,
            "head_bt": da.sum(),
            "dur_wz": dlg @ z,
            "dur_wh": hnext.T @ dlg,
            "dur_b": dlg.sum(),
        }


def cell_fwd(p, u, t, A, G, first, full):
    """Step t of the unroll u for rows [:A]; rows [:G] of them score their
    next session, the others are at their last step n and carry only the KL.

    With the latent, both laws of logit(z) are evaluated at the state and z
    is drawn from the posterior -- at the pre-data step (first) from the
    prior, without advancing the LSTM, so the heads read the zero state.
    Without the latent, z is fixed at 0.5.  The filter of
    churnkit.inference passes eps = 0, so z is the posterior (at step 0 the
    prior) mean, and G = A, so step n advances the LSTM to the frontier.
    """
    h = u.xh[t, :A, 3:]
    if full:
        P = p.prior_b1.shape[0]
        mup, sp, hp, rp = mlp2(p.prior_W1, p.prior_b1, p.prior_W2, p.prior_b2, h)
        u.law[t, :A, 2] = mup
        u.law[t, :A, 3] = sp
        u.hid[t, :A, P:] = hp
        u.raw[t, :A, 1] = rp
        if first:
            mu, sigma = mup, sp
        else:
            mu, sigma, hq, rq = mlp2(p.post_W1, p.post_b1, p.post_W2, p.post_b2, u.xq[t, :A])
            u.law[t, :A, 0] = mu
            u.law[t, :A, 1] = sigma
            u.hid[t, :A, :P] = hq
            u.raw[t, :A, 0] = rq
        z = draw_z(mu[:G], sigma[:G], u.eps[t, :G])
    else:
        z = np.full(G, 0.5)
    u.xh[t, :G, 2] = z
    h = h[:G]
    if not first:
        h, c, gates = lstm(p.lstm_W, p.lstm_b, u.xh[t, :G], u.c[t, :G])
        u.xh[t + 1, :G, 3:] = h
        u.xq[t + 1, :G, 2:] = h
        u.c[t + 1, :G] = c
        u.gates[t, :G] = gates
    a, lg = heads(p, z, h)
    u.ah[t, :G, 0] = a
    u.ah[t, :G, 1] = lg


def pack_bwd(p):
    """The weights cell_bwd reads, packed once per segment: the LSTM's z
    column, both second MLP layers as one block matrix, and every weight
    that reads the state stacked as one (2P + 4H, H) matrix."""
    P = p.prior_b1.shape[0]
    W2 = np.zeros((4, 2 * P))
    W2[:2, :P] = p.post_W2
    W2[2:, P:] = p.prior_W2
    Wh = np.concatenate([p.post_W1[:, 2:], p.prior_W1, p.lstm_W[:, 3:]], axis=0)
    return p.lstm_W[:, 2], W2, Wh


def cell_bwd(w, u, t, A, dh, dc):
    """Adjoint of step t for rows [:A].  dh, dc (rows, H) hold the adjoint of
    the state after the step and receive that of the state before it; the
    preactivation adjoints go to u.dp and u.do2 for Unroll.grads."""
    wz, W2, Wh = w
    P2 = u.hid.shape[2]
    H = dh.shape[1]
    dht = dh[:A] + u.dhh[t, :A]
    dct = dc[:A] + dht * u.dch[t, :A]
    dp = u.dp[t, :A]
    dp[:, P2 : P2 + 2 * H] *= np.tile(dct, 2)
    dp[:, P2 + 2 * H : P2 + 3 * H] *= dht
    dp[:, P2 + 3 * H :] *= dct
    dc[:A] = dct * u.gf[t, :A]
    dg = (u.dzh[t, :A] + dp[:, P2:] @ wz) * u.zz[t, :A]
    do2 = u.do2[t, :A]
    np.multiply(u.eq[t, :A], dg[:, None], out=do2)
    do2 += u.ko2[t, :A]
    np.multiply(do2 @ W2, u.hh[t, :A], out=dp[:, :P2])
    dh[:A] = dp @ Wh
