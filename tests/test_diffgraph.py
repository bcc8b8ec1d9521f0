"""Hand-written derivatives checked against finite differences.

Training used to differentiate through a general autodiff tape
(``churnkit.diffgraph``); its per-op checks live on here, re-pointed at the
hand-written forward/backward pairs that replaced the tape's ops: the dense,
affine and LSTM kernels, the fused step kernel, the pre-data and KL-only
edge steps of ``churnkit.train``, and the loss-value checker
``train.grad_check`` itself.  Ops the tape had only as generic building
blocks (add, matvec, concat, ...) have no counterpart left and no check.
"""

import math
import zlib
from dataclasses import replace

import numpy as np
import pytest

from churnkit import _kernels as K
from churnkit.errors import NumericalError
from churnkit.eventlog import Session, SessionSequence
from churnkit.model import init_params
from churnkit.train import (
    _first_bwd,
    _first_fwd,
    _forward,
    _last_bwd,
    _last_fwd,
    _values,
    elbo_and_grads,
    grad_check,
)

H, P = 3, 2

# inputs of step_fwd after the state, in its argument order
_STEP_PARAMS = (
    "W", "b", "qW1", "qb1", "qW2", "qb2", "pW1", "pb1", "pW2", "pb2",
    "wz", "wh", "wt", "bt", "dwz", "dwh", "dbias",
)
# step_bwd's in-place gradient buffers, in its argument order
_STEP_BUFS = ("W", "b", "qW1", "qb1", "qW2", "qb2", "pW1", "pb1", "pW2", "pb2", "wh", "dwh")
_STEP_SCALARS = ("wz", "wt", "bt", "dwz", "dbias")


def _step_values(rng):
    return {
        "state": rng.uniform(-0.5, 0.5, (2, H)),
        "W": rng.uniform(-0.5, 0.5, (4 * H, 3 + H)),
        "b": rng.uniform(-0.3, 0.3, 4 * H),
        "qW1": rng.uniform(-0.5, 0.5, (P, H + 2)),
        "qb1": rng.uniform(-0.3, 0.3, P),
        "qW2": rng.uniform(-0.5, 0.5, (2, P)),
        "qb2": rng.uniform(-0.3, 0.3, 2),
        "pW1": rng.uniform(-0.5, 0.5, (P, H)),
        "pb1": rng.uniform(-0.3, 0.3, P),
        "pW2": rng.uniform(-0.5, 0.5, (2, P)),
        "pb2": rng.uniform(-0.3, 0.3, 2),
        "wz": float(rng.uniform(-1, 1)),
        "wh": rng.uniform(-0.5, 0.5, H),
        "wt": float(rng.uniform(-0.3, 0.3)),
        "bt": float(rng.uniform(-0.5, 0.5)),
        "dwz": float(rng.uniform(-1, 1)),
        "dwh": rng.uniform(-0.5, 0.5, H),
        "dbias": float(rng.uniform(-0.5, 0.5)),
    }


_STEP_OBS = {"gf": 0.7, "df": 1.3, "eps": 0.21, "g_next": 1.9, "d_next": 4.0}


def _step_fwd(v, full, obs=_STEP_OBS):
    args = [float(v[k]) if np.ndim(v[k]) == 0 else v[k] for k in _STEP_PARAMS]
    return K.step_fwd(
        v["state"], *args, obs["gf"], obs["df"], obs["eps"], obs["g_next"], obs["d_next"], full
    )


def _step_bwd(v, full, fwd, dterm, dout, obs=_STEP_OBS):
    """step_bwd on fresh zero buffers; returns every gradient by input name."""
    _, out, gates, xh, y1, p1, sc = fwd
    grads = {k: np.zeros_like(v[k]) for k in _STEP_BUFS}
    dstate, *scalars = K.step_bwd(
        v["state"], v["W"], v["qW1"], v["qW2"], v["pW1"], v["pW2"],
        float(v["wz"]), v["wh"], float(v["dwz"]), v["dwh"],
        obs["gf"], obs["df"], obs["eps"], obs["d_next"], full,
        out, gates, xh, y1, p1, sc,
        dterm, dout, *(grads[k] for k in _STEP_BUFS),
    )
    grads.update(zip(_STEP_SCALARS, scalars), state=dstate)
    return grads


# ---------------------------------------------------------- the checker


def test_grad_check_linear_is_nearly_exact():
    w = np.array([0.3, -1.2, 2.0])
    report = grad_check(
        lambda v: float(v["x"] @ w), {"x": np.array([1.0, 2.0, -0.5])}, {"x": w}, h=1e-5, tol=1e-8
    )
    assert report.passed
    assert report.max_rel_err < 1e-8


def test_grad_check_two_layer_tanh_net():
    """Two chained dense-tanh kernels, backpropagated by their own bwd kernels."""
    rng = np.random.default_rng(7)
    x = rng.normal(size=4)
    params = {
        "W1": rng.normal(size=(5, 4)),
        "b1": rng.normal(size=5),
        "W2": rng.normal(size=(3, 5)),
        "b2": rng.normal(size=3),
    }

    def loss(v):
        hid = K.dense_tanh_fwd(v["W1"], x, v["b1"])
        return float(np.sum(K.dense_tanh_fwd(v["W2"], hid, v["b2"])))

    hid = K.dense_tanh_fwd(params["W1"], x, params["b1"])
    out = K.dense_tanh_fwd(params["W2"], hid, params["b2"])
    dW2, dhid, db2 = K.dense_tanh_bwd(params["W2"], hid, out, np.ones(3))
    dW1, _, db1 = K.dense_tanh_bwd(params["W1"], x, hid, dhid)
    grads = {"W1": dW1, "b1": db1, "W2": dW2, "b2": db2}
    report = grad_check(loss, params, grads, h=1e-5, tol=1e-5)
    assert report.passed, report.summary()


def test_grad_check_detects_corrupted_gradient():
    values = {"x": np.array([0.3, -1.2]), "s": 0.7}

    def loss(v):
        return float(np.sum(np.exp(v["x"]))) * float(v["s"])

    exact = {"x": np.exp(values["x"]) * 0.7, "s": float(np.sum(np.exp(values["x"])))}
    assert grad_check(loss, values, exact, h=1e-5, tol=1e-5).passed
    report = grad_check(loss, values, dict(exact, s=exact["s"] * 1.01), h=1e-5, tol=1e-5)
    assert not report.passed
    assert report.per_param["s"] > 1e-3 > report.per_param["x"]


def test_grad_check_rejects_non_finite_forward():
    with pytest.raises(NumericalError, match="non-finite"):
        # the lower bump leaves the log's domain
        grad_check(lambda v: math.log(v["x"]) if v["x"] > 0 else -math.inf, {"x": 1.0}, {"x": 1.0}, h=2.0)
    with pytest.raises(NumericalError, match="non-finite"):
        grad_check(lambda v: float("nan"), {"x": 1.0}, {"x": 0.0})


# -------------------------------------------------- the fused step's adjoint


def test_backward_is_repeatable_and_value_preserving():
    """step_bwd gives bit-equal gradients on a second call and writes to
    nothing but its gradient buffers (the reverse loop reuses the caches)."""
    v = _step_values(np.random.default_rng(3))
    fwd = _step_fwd(v, True)
    dout = np.random.default_rng(4).normal(size=(2, H))
    before = [np.array(a, copy=True) for a in (*fwd[1:], dout, *(v[k] for k in _STEP_PARAMS), v["state"])]
    g1 = _step_bwd(v, True, fwd, 1.0, dout)
    g2 = _step_bwd(v, True, fwd, 1.0, dout)
    for name in g1:
        np.testing.assert_array_equal(g1[name], g2[name])
    after = (*fwd[1:], dout, *(v[k] for k in _STEP_PARAMS), v["state"])
    for a, b in zip(before, after):
        np.testing.assert_array_equal(a, b)


def test_gradient_linearity():
    """The adjoint is linear in (d term, d state): the reverse loop may add
    the carried state gradient and the step's own term in one call."""
    v = _step_values(np.random.default_rng(1))
    dout = np.random.default_rng(2).normal(size=(2, H))
    for full in (True, False):
        fwd = _step_fwd(v, full)
        g_term = _step_bwd(v, full, fwd, 1.0, np.zeros((2, H)))
        g_state = _step_bwd(v, full, fwd, 0.0, dout)
        g_both = _step_bwd(v, full, fwd, 1.0, dout)
        for name in g_both:
            np.testing.assert_allclose(g_both[name], g_term[name] + g_state[name], rtol=1e-12, atol=1e-15)


def test_fused_elbo_step_gradients():
    """FD over every input of the fused training step, including the
    carried-state output path (probed by a random linear functional)."""
    for point in range(25):
        rng = np.random.default_rng(point)
        values = _step_values(rng)
        w_state = rng.normal(size=(2, H))

        def loss(v):
            term, out = _step_fwd(v, True)[:2]
            return term + float(np.sum(out * w_state))

        grads = _step_bwd(values, True, _step_fwd(values, True), 1.0, w_state)
        # h = 1e-4 sits at the FD noise floor for the small-gradient
        # components of this composite step
        report = grad_check(loss, values, grads, h=1e-4, tol=2e-5)
        assert report.passed, f"point {point}: {report.summary()}"


def _diverging_seq():
    ses = [Session(t=0.0, g=0.0, d=2), Session(t=1.0, g=1.0, d=3), Session(t=3.0, g=2.0, d=1)]
    return SessionSequence(user_id="u7", sessions=ses)


def test_log_domain_and_exp_overflow_errors(monkeypatch):
    """The BPTT loop keeps the tape's guards: exp overflow in a head, and a
    non-positive std before the KL takes its log, each naming step and user."""
    seq = _diverging_seq()
    eps = np.zeros((1, len(seq)))
    p = init_params(H, P, seed=2)
    with pytest.raises(NumericalError, match=r"step 1 of 'u7': elbo_step: head overflow"):
        elbo_and_grads(replace(p, head_bt=np.array(800.0)), seq, eps)
    with pytest.raises(NumericalError, match=r"step 0 of 'u7': pois_loglik: rate exponent"):
        elbo_and_grads(replace(p, dur_b=np.array(-800.0)), seq, eps)
    # a negative floor drives the std below zero; only the KL-only step n
    # runs, so the check before its KL is the one that fires
    monkeypatch.setattr(K, "SIGMA_FLOOR", -10.0)
    with pytest.raises(NumericalError, match=r"step 3 of 'u7': gaussian_kl: non-positive std"):
        _forward(_values(p), seq, eps[0], 3, 4, np.zeros((2, H)), True)


# ------------------------------------------------------- per-op FD sweep


def _contract(rng, shape):
    """Fixed random weights that reduce an output of this shape to a scalar."""
    return rng.normal(size=shape)


def _kernel_case(fwd, bwd, domains):
    """Case for a kernel pair: loss = <w, fwd(values)>, grads = bwd(values, w)."""

    def sample(rng):
        return {k: f(rng) for k, f in domains.items()}

    def make(values, rng):
        w = _contract(rng, np.shape(fwd(values)))
        return (lambda v: float(np.sum(w * fwd(v)))), bwd(values, w)

    return sample, make


def _train_values(rng):
    """Parameter values as train's helpers take them (rank-0 ones as floats)."""
    v = {
        "post_W1": rng.uniform(-0.5, 0.5, (P, H + 2)),
        "post_b1": rng.uniform(-0.3, 0.3, P),
        "post_W2": rng.uniform(-0.5, 0.5, (2, P)),
        "post_b2": rng.uniform(-0.3, 0.3, 2),
        "prior_W1": rng.uniform(-0.5, 0.5, (P, H)),
        "prior_b1": rng.uniform(-0.3, 0.3, P),
        "prior_W2": rng.uniform(-0.5, 0.5, (2, P)),
        "prior_b2": rng.uniform(-0.3, 0.3, 2),
        "dur_wz": float(rng.uniform(-1, 1)),
        "dur_wh": rng.uniform(-0.5, 0.5, H),
        "dur_b": float(rng.uniform(-0.5, 0.5)),
    }
    return v


def _zero_grads(v):
    return {k: (0.0 if isinstance(a, float) else np.zeros_like(a)) for k, a in v.items()}


def _first_case(full):
    """The pre-data step: z from the prior at the zero state (fixed at 0.5
    without the latent), scoring the first duration d0 = 3.  The gap head
    is evaluated too but scores nothing, so its gradient is zero."""

    def sample(rng):
        v = _train_values(rng)
        v = {k: v[k] for k in v if k.startswith(("prior", "dur")) and (full or k.startswith("dur"))}
        v.update(head_wz=float(rng.uniform(-1, 1)), head_wh=rng.uniform(-0.5, 0.5, H), head_bt=0.3)
        return v

    def make(values, rng):
        def loss(v):
            return _first_fwd(v, 3, 0.83, full)[0]

        grads = _zero_grads(values)
        _first_bwd(values, _first_fwd(values, 3, 0.83, full)[1], grads)
        return loss, grads

    return sample, make


def _kl_case():
    """The KL-only step n: gradient of -KL(q || p) wrt both MLPs and the state."""

    def sample(rng):
        v = {k: a for k, a in _train_values(rng).items() if k.startswith(("post", "prior"))}
        v["state"] = rng.uniform(-0.5, 0.5, (2, H))
        return v

    def make(values, rng):
        def loss(v):
            return -_last_fwd(v, v["state"], 0.4, 1.1)[0]

        grads = _zero_grads(values)
        grads["state"] = _last_bwd(values, _last_fwd(values, values["state"], 0.4, 1.1)[1], grads)
        return loss, grads

    return sample, make


def _softplus_floor_case():
    """The std output of the latent MLP, softplus(raw) + SIGMA_FLOOR."""

    def sample(rng):
        v = {k: a for k, a in _train_values(rng).items() if k.startswith("post")}
        v["x"] = rng.uniform(-1, 1, H + 2)
        return v

    names = ("post_W1", "post_b1", "post_W2", "post_b2")

    def make(values, rng):
        def loss(v):
            return K.mlp2_fwd(*(v[k] for k in names), v["x"])[1]

        grads = _zero_grads(values)
        _, _, hid, raw = K.mlp2_fwd(*(values[k] for k in names), values["x"])
        grads["x"] = K.mlp2_bwd(
            values["post_W1"], values["post_W2"], values["x"], hid, raw, 0.0, 1.0,
            *(grads[k] for k in names),
        )
        return loss, grads

    return sample, make


def _step_case(names, full, wt_range=None):
    """The fused step's term alone, differentiated wrt ``names`` only (the
    loss gets just those and holds every other input where it was drawn)."""

    def sample(rng):
        v = _step_values(rng)
        if wt_range is not None:
            v["wt"] = float(rng.uniform(*wt_range))
        return v

    def make(values, rng):
        fixed = {k: a for k, a in values.items() if k not in names}

        def loss(v):
            return _step_fwd(dict(fixed, **v), full)[0]

        grads = _step_bwd(values, full, _step_fwd(values, full), 1.0, np.zeros((2, H)))
        return loss, {k: grads[k] for k in names}

    return sample, make


def _op_cases():
    """name -> (sampler of a point, builder of (loss, analytic grads) there)."""
    sca = lambda lo, hi: (lambda rng: float(rng.uniform(lo, hi)))
    arr = lambda lo, hi, shape: (lambda rng: rng.uniform(lo, hi, shape))

    def affine_bwd(v, w):
        dW, dx = K.affine_bwd(v["W"], v["x"], w)
        return {"W": dW, "x": dx, "b": w}

    def dense_tanh_bwd(v, w):
        y = K.dense_tanh_fwd(v["W"], v["x"], v["b"])
        dW, dx, db = K.dense_tanh_bwd(v["W"], v["x"], y, w)
        return {"W": dW, "x": dx, "b": db}

    def lstm_fwd(v):
        return K.lstm_fwd(v["state"], float(v["z"]), 0.6, 1.2, v["W"], v["b"])[0]

    def lstm_bwd(v, w):
        out, gates, xh = K.lstm_fwd(v["state"], float(v["z"]), 0.6, 1.2, v["W"], v["b"])
        dstate, dz, dW, db = K.lstm_bwd(v["state"], v["W"], gates, xh, out, w)
        return {"state": dstate, "z": dz, "W": dW, "b": db}

    def sig_grad(v, w):
        s = K.sig(float(v["a"]))
        return {"a": w * s * (1.0 - s)}

    dense_domains = {"x": arr(-1, 1, 3), "W": arr(-1, 1, (4, 3)), "b": arr(-1, 1, 4)}
    heads = ("wz", "wh", "bt", "dwz", "dwh", "dbias")
    cases = {
        "affine": _kernel_case(lambda v: K.affine_fwd(v["W"], v["x"], v["b"]), affine_bwd, dense_domains),
        "dense_tanh": _kernel_case(
            lambda v: K.dense_tanh_fwd(v["W"], v["x"], v["b"]), dense_tanh_bwd, dense_domains
        ),
        "lstm_cell": _kernel_case(
            lstm_fwd,
            lstm_bwd,
            {
                "z": sca(0.05, 0.95),
                "state": arr(-0.5, 0.5, (2, 3)),
                "W": arr(-0.5, 0.5, (12, 6)),
                "b": arr(-0.5, 0.5, 12),
            },
        ),
        # the backward passes differentiate sigmoid as s(1 - s) ...
        "sigmoid": _kernel_case(lambda v: K.sig(float(v["a"])), sig_grad, {"a": sca(-3, 3)}),
        # ... and softplus as sigmoid
        "softplus": _kernel_case(
            lambda v: K.softplus(float(v["a"])), lambda v, w: {"a": w * K.sig(float(v["a"]))}, {"a": sca(-3, 3)}
        ),
        "softplus_floor": _softplus_floor_case(),
        "reparam_sigmoid": _first_case(full=True),
        "pois_loglik": _first_case(full=False),
        "gaussian_kl": _kl_case(),
        "zh_affine": _step_case(heads, full=False),
        "gap_loglik": _step_case(("bt", "wt"), full=False, wt_range=(0.05, 0.5)),
        "gap_loglik_negative_slope": _step_case(("bt", "wt"), full=False, wt_range=(-0.5, -0.05)),
        "gap_loglik_tiny_slope": _step_case(("bt", "wt"), full=False, wt_range=(1e-4, 5e-4)),
    }
    return cases


@pytest.mark.parametrize("name", sorted(_op_cases()))
def test_op_gradients_match_finite_differences(name):
    sample, make = _op_cases()[name]
    # process-stable seed (hash() is salted and would make points flaky)
    base = zlib.crc32(name.encode()) % (2**20)
    worst = 0.0
    for point in range(100):
        values = sample(np.random.default_rng(base + point))
        loss, grads = make(values, np.random.default_rng(base + point + 5))
        report = grad_check(loss, {k: values[k] for k in grads}, grads, h=1e-5, tol=1e-5)
        worst = max(worst, report.max_rel_err)
    assert worst < 1e-5, f"{name}: max rel err {worst:.3e}"
