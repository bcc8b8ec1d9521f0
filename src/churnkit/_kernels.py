"""Hot numeric kernels, and the one definition of every formula of the cell.

Every kernel works feature-major: the last axis of an array indexes rows
(the users of an optimizer batch times their latent trajectories), so one
step's quantity is a contiguous (features, rows) block.  Training
(churnkit.train) and filtering (churnkit.inference) unroll the cell over
many rows at once, generation (churnkit.simulate) runs it one step at a
time over all its users, and prediction runs its heads on (samples,
records) arrays.

- constants: ``SIGMA_FLOOR``, ``WT_ZERO_EPS``, ``EXP_ARG_MAX``, the z clamp ``Z_LO``/``Z_HI``;
- ``sigmoid`` and ``softplus``;
- the latent MLPs ``mlp2`` giving (mu, sigma) of logit(z), the clamped
  reparameterized draw ``draw_z``, the Gaussian KL ``gaussian_kl`` and its
  gradient ``gaussian_kl_grad``;
- the LSTM cell ``lstm`` and the two ``heads``;
- the gap and duration log-likelihoods with their derivatives;
- the training step ``cell_fwd`` and its adjoint ``cell_bwd``, on weights
  packed once (``Cell``).  They read and write one step of an ``Unroll``,
  the (steps, features, rows) caches of one truncation segment, which also
  reduces the parameter gradients of the whole segment.

Conventions: float64 throughout; LSTM gate order is [input, forget, output,
candidate], each block H wide inside the stacked 4H preactivation; the
recurrent state is kept as separate (H, rows) blocks of h and c.
"""

from __future__ import annotations

import numpy as np

SIGMA_FLOOR = 1e-4  # added to softplus, so every std of logit(z) is positive
WT_ZERO_EPS = 1e-8  # |wt| below this is treated as exactly zero
EXP_ARG_MAX = 700.0  # the largest exp argument accepted, below exp's overflow at 709.8
Z_LO = 1e-15  # z is clamped into [Z_LO, Z_HI], strictly inside (0, 1)
Z_HI = 0.9999999999999999  # the largest float below 1
_EXP_FINITE_MAX = float(np.log(np.finfo(np.float64).max))  # exp of it is the largest float


def sigmoid(v, out=None):
    """Elementwise logistic 1 / (1 + exp(-v)), into out if given, within 2 ulp also where tiny, as z can be.
    exp's argument is clamped below overflow, so no input warns; below v = -709.78 it stays at 5.6e-309."""
    out = np.negative(v, out=np.empty(np.shape(v)) if out is None else out)  # 0-d stays an array
    np.exp(np.minimum(out, _EXP_FINITE_MAX, out=out), out=out)
    return np.reciprocal(np.add(out, 1.0, out=out), out=out)


def softplus(v):
    """log(1 + exp(v)), stable for either sign."""
    return np.logaddexp(0.0, v)


# ------------------------------------------------------------- the latent


def mlp2(W2, b2, pre, hid=None):
    """(mu, sigma, hidden layer, raw) of each law of logit(z) from its MLP's
    first-layer preactivation pre, with sigma = softplus(raw) + SIGMA_FLOOR;
    W2's rows pair (mu, raw) of each law, and hid receives the hidden layer."""
    hid = np.tanh(pre, out=hid)
    out = W2 @ hid + b2[:, None]
    raw = out[1::2]
    return out[0::2], softplus(raw) + SIGMA_FLOOR, hid, raw


def draw_z(mu, sigma, eps):
    """Reparameterized z = sigmoid(mu + sigma * eps), clamped into [Z_LO, Z_HI],
    computed in place on the new array of mu + sigma * eps (0-d for scalars)."""
    v = np.asarray(mu + sigma * eps)
    sigmoid(v, out=v)
    np.maximum(v, Z_LO, out=v)
    return np.minimum(v, Z_HI, out=v)


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


def lstm(gates, c, h_new, c_new):
    """One LSTM step from the gate preactivations (4H, rows), turned into
    the gates in place, and the cell state c; writes h_new and c_new."""
    H = c.shape[0]
    sigmoid(gates[: 3 * H], out=gates[: 3 * H])
    np.tanh(gates[3 * H :], out=gates[3 * H :])
    np.multiply(gates[H : 2 * H], c, out=c_new)
    c_new += gates[:H] * gates[3 * H :]
    np.multiply(gates[2 * H : 3 * H], np.tanh(c_new), out=h_new)


def heads(w, z, h):
    """Intensity base a and log duration rate at (z, h), as the two rows of
    the second-to-last axis, for states h as columns; w is the ``Cell``."""
    return w.Wo @ h + (w.oz * z + w.ob)


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


class Cell:
    """The weights of the cell, packed once per unroll.  W stacks the first
    layers of the posterior and prior MLPs and the LSTM as rows over the
    inputs [gf, df, z, h], b their biases: an Unroll takes the feature terms
    of all steps before the loop, a step multiplies row blocks of W by its
    state.  W2, b2 are both second MLP layers as one block; Wo, oz, ob the heads."""

    def __init__(self, p):
        P, H = p.mlp_hidden, p.hidden
        self.full = p.latent_mode == "full"
        self.W = np.zeros((2 * P + 4 * H, 3 + H))
        self.W[:P, :2], self.W[:P, 3:], self.W[P : 2 * P, 3:] = p.post_W1[:, :2], p.post_W1[:, 2:], p.prior_W1
        self.W[2 * P :] = p.lstm_W
        self.b = np.concatenate([p.post_b1, p.prior_b1, p.lstm_b])
        self.W2 = np.zeros((4, 2 * P))
        self.W2[:2, :P], self.W2[2:, P:] = p.post_W2, p.prior_W2
        self.b2 = np.concatenate([p.post_b2, p.prior_b2])
        self.Wo = np.array([p.head_wh, p.dur_wh])
        scalars = [float(p.head_wz), float(p.dur_wz), float(p.head_bt), float(p.dur_b)]
        self.oz, self.ob = np.array(scalars).reshape(2, 2, 1)


def width(A, R):
    """Columns a step runs when the first A of R rows are active: all, so the
    blocks stay contiguous, unless 16 or more are idle (measured at H = 8, 16)."""
    return R if R - A < 16 else A


class Unroll:
    """Caches of ``steps`` steps of every row, (steps, features, rows).

    xh[t] is the LSTM input of step t, [gf, df, z, h]: the features of the
    session it consumes, its latent draw and the hidden state it starts
    from.  Step t reads (h, c[t]) and writes its z to xh[t, 2] and the new
    state to h of step t + 1 and c[t + 1].  dp[t] holds the preactivations
    of the rows of Cell.W (the LSTM's become its gates), and then their
    adjoints.  ``clear`` zeroes the entries of rows that do not run a step.
    """

    def __init__(self, w, feat, h0, c0, eps):
        S, R = eps.shape
        H, P2 = h0.shape[1], w.W2.shape[1]
        self.xh = np.zeros((S + 1, 3 + H, R))
        self.xh[:S, :2] = feat.transpose(0, 2, 1)
        self.xh[0, 3:] = h0.T
        self.c = np.zeros((S + 1, H, R))
        self.c[0] = c0.T
        self.eps = eps
        self.hid = np.zeros((S, P2, R))  # posterior | prior hidden layer
        self.law = np.zeros((S, 4, R))  # muq, sq, mup, sp
        self.raw = np.zeros((S, 2, R))  # raw sigma of the posterior, the prior
        self.dp = w.W[:, :2] @ self.xh[:S, :2]
        self.dp += w.b[:, None]

    def outputs(self, w):
        """The heads of every step, ah (S, 2, R), once, after the loop."""
        self.ah = heads(w, self.xh[:-1, 2:3], self.xh[1:, 3:])

    def clear(self, run, scored):
        """Zero the entries of each (step, row) its row does not run, before
        ``outputs``: run (S, R) marks MLPs that count, scored draws and states."""
        P2 = self.hid.shape[1]
        k = int(np.count_nonzero(scored.all(axis=1)))  # a prefix of steps runs every row
        off, idle = ~run[k:, None], ~scored[k:, None]
        for a, mask in ((self.hid, off), (self.law, off), (self.raw, off), (self.dp[:, :P2], off),
                        (self.dp[:, P2:], idle), (self.xh[1:, 3:], idle), (self.c[1:], idle),
                        (self.xh[:-1, 2:3], idle)):
            np.copyto(a[k:], 0.0, where=mask)

    def adjoint_terms(self, w, da, dlg, dlaw, drawn):
        """The step-local factors of the reverse pass, for every step at once.

        da, dlg: (S, R) adjoints of a and log gamma; dlaw: (S, 4, R) adjoint
        of (muq, sq, mup, sp) from the KL; drawn: (S, 2, R) whether z was
        drawn from the posterior, the prior.
        """
        H, P2 = self.c.shape[1], self.hid.shape[1]
        z = self.xh[:-1, 2]
        gi, gf, go, gc = (self.dp[:, P2 + k * H : P2 + (k + 1) * H] for k in range(4))
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
        self.dhh = np.matmul(w.Wo.T, np.stack([da, dlg], axis=1))
        self.dzh = da * w.oz[0] + dlg * w.oz[1]
        self.zz = z * (1.0 - z)
        sr = sigmoid(self.raw)  # d sigma / d raw, through softplus
        self.ko2 = dlaw.copy()
        self.ko2[:, 1::2] *= sr
        # (mu, raw) adjoint of each law per unit adjoint of the drawn z's logit
        self.eq = np.zeros(self.law.shape)
        self.eq[:, 0::2] = drawn
        self.eq[:, 1::2] = drawn * self.eps[:, None] * sr
        self.hh = 1.0 - self.hid * self.hid
        self.do2 = np.zeros(self.law.shape)  # (mu, raw) adjoints of both laws

    def grads(self, da, dlg):
        """Parameter gradients of the segment by name (all but head_wt), as
        matrix products over its steps and rows after one transposed copy."""
        P = self.hid.shape[1] // 2
        self.gf = self.dch = self.dhh = self.hh = self.eq = self.ko2 = None  # free before the copies

        def cols(x):
            return x.transpose(1, 0, 2).reshape(x.shape[1], -1)

        xh = cols(self.xh[:-1])
        dW = cols(self.dp) @ xh.T  # of Cell.W
        db = self.dp.sum(axis=0).sum(axis=1)
        dW2 = cols(self.do2) @ cols(self.hid).T
        db2 = self.do2.sum(axis=0).sum(axis=1)
        hnext = cols(self.xh[1:, 3:])
        da, dlg, z = da.reshape(-1), dlg.reshape(-1), xh[2]
        return {
            "lstm_W": dW[2 * P :],
            "lstm_b": db[2 * P :],
            "post_W1": np.delete(dW[:P], 2, axis=1),
            "post_b1": db[:P],
            "post_W2": dW2[:2, :P],
            "post_b2": db2[:2],
            "prior_W1": dW[P : 2 * P, 3:],
            "prior_b1": db[P : 2 * P],
            "prior_W2": dW2[2:, P:],
            "prior_b2": db2[2:],
            "head_wz": da @ z,
            "head_wh": hnext @ da,
            "head_bt": da.sum(),
            "dur_wz": dlg @ z,
            "dur_wh": hnext @ dlg,
            "dur_b": dlg.sum(),
        }


def cell_fwd(w, u, t, W, first=False, generate=False):
    """Step t of the unroll u on its first W columns, up to the heads.

    With the latent, both laws of logit(z) are evaluated at the state and z
    is drawn from the posterior; at the pre-data step (first) only the prior
    runs, z is drawn from it and the LSTM does not advance; generate draws z
    from the prior and advances.  Without the latent, z is fixed at 0.5.
    The filter of churnkit.inference passes eps = 0, so z is the posterior
    (at step 0 the prior) mean.
    """
    P2 = w.W2.shape[1]
    P = P2 // 2
    k = int(first or generate)  # the laws run: both, or (k = 1) the prior alone
    h = u.xh[t, 3:, :W]
    if w.full:
        pre = u.dp[t, k * P : P2, :W]
        pre += w.W[k * P : P2, 3:] @ h
        mu, sigma, _, raw = mlp2(w.W2[2 * k :, k * P :], w.b2[2 * k :], pre, u.hid[t, k * P :, :W])
        u.law[t, 2 * k :: 2, :W] = mu
        u.law[t, 2 * k + 1 :: 2, :W] = sigma
        u.raw[t, k:, :W] = raw
        u.xh[t, 2, :W] = draw_z(mu[0], sigma[0], u.eps[t, :W])
    else:
        u.xh[t, 2, :W] = 0.5
    gates = u.dp[t, P2:, :W]
    if first:
        gates[...] = 0.0  # no LSTM at the pre-data step, and no adjoint through it
        u.xh[t + 1, 3:, :W], u.c[t + 1, :, :W] = h, u.c[t, :, :W]
    else:
        gates += w.W[P2:, 2:] @ u.xh[t, 2:, :W]
        lstm(gates, u.c[t, :, :W], u.xh[t + 1, 3:, :W], u.c[t + 1, :, :W])


def cell_bwd(w, u, t, W, dh, dc):
    """Adjoint of step t on its first W columns.  dh, dc (H, rows) hold the
    adjoint of the state after the step and receive that of the state
    before it; the preactivation adjoints go to u.dp and u.do2 for
    Unroll.grads."""
    P2 = u.hid.shape[1]
    H = dh.shape[0]
    dht = dh[:, :W] + u.dhh[t, :, :W]
    dct = dc[:, :W] + dht * u.dch[t, :, :W]
    dp = u.dp[t, :, :W]
    g = dp[P2:].reshape(4, H, W)
    g[:2] *= dct
    g[2] *= dht
    g[3] *= dct
    np.multiply(dct, u.gf[t, :, :W], out=dc[:, :W])
    dg = (u.dzh[t, :W] + w.W[P2:, 2] @ dp[P2:]) * u.zz[t, :W]
    do2 = u.do2[t, :, :W]
    np.multiply(u.eq[t, :, :W], dg, out=do2)
    do2 += u.ko2[t, :, :W]
    np.multiply(w.W2.T @ do2, u.hh[t, :, :W], out=dp[:P2])
    np.matmul(w.W[:, 3:].T, dp, out=dh[:, :W])
