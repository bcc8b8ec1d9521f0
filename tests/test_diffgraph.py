"""Hand-written derivatives checked against finite differences.

Training used to differentiate through a general autodiff tape
(``churnkit.diffgraph``); its per-op checks live on here, re-pointed at the
batched forward and reverse passes that replaced the tape's ops: one step of
a one-row unroll (``train._segment``) -- a regular step, the pre-data step
0 and the KL-only step n -- differentiated by the parameters or the state
that the op reads, and the loss-value checker ``train.grad_check`` itself.
Ops the tape had only as generic building blocks (add, matvec, concat, ...)
have no counterpart left and no check.
"""

import math
import zlib

import numpy as np
import pytest

from churnkit import _kernels as K
from churnkit.errors import NumericalError
from churnkit.eventlog import Session, SessionSequence
from churnkit.model import PARAM_FIELDS, ModelParams, _Rows, init_params
from churnkit.train import _segment, elbo_and_grads, grad_check

H, P = 3, 2

_HEADS = ("head_wz", "head_wh", "head_bt", "dur_wz", "dur_wh", "dur_b")


def _step_values(rng):
    """A random point: every parameter, and the state (h, c) a step reads."""
    return {
        "h": rng.uniform(-0.5, 0.5, H),
        "c": rng.uniform(-0.5, 0.5, H),
        "lstm_W": rng.uniform(-0.5, 0.5, (4 * H, 3 + H)),
        "lstm_b": rng.uniform(-0.3, 0.3, 4 * H),
        "post_W1": rng.uniform(-0.5, 0.5, (P, H + 2)),
        "post_b1": rng.uniform(-0.3, 0.3, P),
        "post_W2": rng.uniform(-0.5, 0.5, (2, P)),
        "post_b2": rng.uniform(-0.3, 0.3, 2),
        "prior_W1": rng.uniform(-0.5, 0.5, (P, H)),
        "prior_b1": rng.uniform(-0.3, 0.3, P),
        "prior_W2": rng.uniform(-0.5, 0.5, (2, P)),
        "prior_b2": rng.uniform(-0.3, 0.3, 2),
        "head_wz": float(rng.uniform(-1, 1)),
        "head_wh": rng.uniform(-0.5, 0.5, H),
        "head_wt": float(rng.uniform(-0.3, 0.3)),
        "head_bt": float(rng.uniform(-0.5, 0.5)),
        "dur_wz": float(rng.uniform(-1, 1)),
        "dur_wh": rng.uniform(-0.5, 0.5, H),
        "dur_b": float(rng.uniform(-0.5, 0.5)),
    }


# the session step i consumes (features gf, df) and scores (gap g, duration d)
_STEP_OBS = {"gf": 0.7, "df": 1.3, "eps": 0.21, "g": 1.9, "d": 4.0}


def _rows(i, n, obs=_STEP_OBS):
    """One row of n sessions whose step i reads obs."""
    feat = np.zeros((n + 1, 1, 2))
    g, d, lgd, eps = (np.zeros((n + 1, 1)) for _ in range(4))
    feat[i, 0] = (obs["gf"], obs["df"])
    g[i, 0] = obs["g"]
    d[i, 0] = obs["d"]
    lgd[i, 0] = math.lgamma(obs["d"] + 1.0)
    eps[i, 0] = obs["eps"]
    return _Rows(np.array([n]), np.array([0]), ["u"], feat, g, d, lgd, eps)


def _run_step(v, i=1, n=2, full=True, dstate=None):
    """Step i alone of a one-row unroll from the state (v["h"], v["c"]);
    dstate = (dh, dc) is the adjoint of the state after it."""
    params = ModelParams(H, P, "learned", "full" if full else "fixed").replace(
        **{name: v[name] for name in PARAM_FIELDS}
    )
    dh, dc = (None, None) if dstate is None else (dstate[0][None], dstate[1][None])
    return _segment(params, _rows(i, n), i, i + 1, v["h"][None], v["c"][None], dh=dh, dc=dc)


def _step_grads(seg):
    """Every gradient of a one-row step by input name, the state's included."""
    return {**{name: getattr(seg.grads, name) for name in PARAM_FIELDS}, "h": seg.dh[0], "c": seg.dc[0]}


# ---------------------------------------------------------- the checker


def test_grad_check_linear_is_nearly_exact():
    w = np.array([0.3, -1.2, 2.0])
    report = grad_check(
        lambda v: float(v["x"] @ w), {"x": np.array([1.0, 2.0, -0.5])}, {"x": w}, h=1e-5, tol=1e-8
    )
    assert report.passed
    assert report.max_rel_err < 1e-8


def test_grad_check_two_layer_tanh_net():
    """Two chained dense-tanh layers, backpropagated by hand."""
    rng = np.random.default_rng(7)
    x = rng.normal(size=4)
    params = {
        "W1": rng.normal(size=(5, 4)),
        "b1": rng.normal(size=5),
        "W2": rng.normal(size=(3, 5)),
        "b2": rng.normal(size=3),
    }

    def loss(v):
        hid = np.tanh(v["W1"] @ x + v["b1"])
        return float(np.sum(np.tanh(v["W2"] @ hid + v["b2"])))

    hid = np.tanh(params["W1"] @ x + params["b1"])
    out = np.tanh(params["W2"] @ hid + params["b2"])
    db2 = 1.0 - out * out
    db1 = (params["W2"].T @ db2) * (1.0 - hid * hid)
    grads = {"W1": np.outer(db1, x), "b1": db1, "W2": np.outer(db2, hid), "b2": db2}
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


# ------------------------------------------------ the batched step's adjoint


def test_backward_is_repeatable_and_value_preserving():
    """The reverse pass gives bit-equal gradients on a second run and writes
    to none of its inputs: parameters, state or the state's adjoint."""
    v = _step_values(np.random.default_rng(3))
    rng = np.random.default_rng(4)
    dstate = (rng.normal(size=H), rng.normal(size=H))
    before = [np.array(a, copy=True) for a in (*v.values(), *dstate)]
    g1 = _step_grads(_run_step(v, dstate=dstate))
    g2 = _step_grads(_run_step(v, dstate=dstate))
    for name in g1:
        np.testing.assert_array_equal(g1[name], g2[name])
    for a, b in zip(before, (*v.values(), *dstate)):
        np.testing.assert_array_equal(a, b)


def test_gradient_linearity():
    """The adjoint is linear in the adjoint of the carried state: the reverse
    pass may add the state's adjoint and the step's own term in one go."""
    v = _step_values(np.random.default_rng(1))
    rng = np.random.default_rng(2)
    dstate = (rng.normal(size=H), rng.normal(size=H))
    for full in (True, False):
        g_term = _step_grads(_run_step(v, full=full))
        g_once = _step_grads(_run_step(v, full=full, dstate=dstate))
        g_twice = _step_grads(_run_step(v, full=full, dstate=(2.0 * dstate[0], 2.0 * dstate[1])))
        for name in g_term:
            np.testing.assert_allclose(g_twice[name], 2.0 * g_once[name] - g_term[name], rtol=1e-12, atol=1e-15)


def test_fused_elbo_step_gradients():
    """FD over every input of one batched training step, including the
    carried-state output path (probed by a random linear functional)."""
    for point in range(25):
        rng = np.random.default_rng(point)
        values = _step_values(rng)
        w = (rng.normal(size=H), rng.normal(size=H))

        def loss(v):
            seg = _run_step(v)
            return float(seg.values[0] + seg.h[0] @ w[0] + seg.c[0] @ w[1])

        grads = _step_grads(_run_step(values, dstate=w))
        # h = 1e-4 sits at the FD noise floor for the small-gradient
        # components of this composite step
        report = grad_check(loss, values, grads, h=1e-4, tol=2e-5)
        assert report.passed, f"point {point}: {report.summary()}"


def _diverging_seq():
    ses = [Session(t=0.0, g=0.0, d=2), Session(t=1.0, g=1.0, d=3), Session(t=3.0, g=2.0, d=1)]
    return SessionSequence(user_id="u7", sessions=ses)


def test_log_domain_and_exp_overflow_errors(monkeypatch):
    """The batched unroll keeps the tape's guards: exp overflow in a head,
    and a non-positive std before the KL takes its log, each naming step and
    user."""
    seq = _diverging_seq()
    eps = np.zeros((1, len(seq)))
    p = init_params(H, P, seed=2)
    with pytest.raises(NumericalError, match=r"step 1 of 'u7': head value outside the exp range: \|a\|"):
        elbo_and_grads(p.replace(head_bt=800.0), seq, eps)
    with pytest.raises(NumericalError, match=r"step 0 of 'u7': head value outside the exp range: log gamma"):
        elbo_and_grads(p.replace(dur_b=-800.0), seq, eps)
    # a negative floor drives every std below zero; the regular steps take
    # the log of their ratio, so the check before the KL-only step n fires
    monkeypatch.setattr(K, "SIGMA_FLOOR", -10.0)
    with pytest.raises(NumericalError, match=r"step 3 of 'u7': non-positive std"):
        elbo_and_grads(p, seq, eps)


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


def _step_case(names, i=1, n=2, full=True, wt_range=None, state_only=False):
    """Step i of a one-row unroll of n sessions, differentiated by ``names``
    only (the loss holds every other input where it was drawn).  With
    state_only the loss is a random linear functional of the new state
    alone, and the state-reading head weights are zero, so the step's term
    adds nothing to the gradients either."""

    def sample(rng):
        v = _step_values(rng)
        if wt_range is not None:
            v["head_wt"] = float(rng.uniform(*wt_range))
        if i == 0:  # the pre-data step starts from the zero state
            v["h"] = np.zeros(H)
            v["c"] = np.zeros(H)
        if state_only:
            v["head_wh"] = np.zeros(H)
            v["dur_wh"] = np.zeros(H)
        return v

    def make(values, rng):
        fixed = {k: a for k, a in values.items() if k not in names}
        w = (_contract(rng, H), _contract(rng, H)) if state_only else None

        def loss(v):
            seg = _run_step(dict(fixed, **v), i, n, full)
            return float(seg.h[0] @ w[0] + seg.c[0] @ w[1]) if state_only else float(seg.values[0])

        grads = _step_grads(_run_step(values, i, n, full, dstate=w))
        return loss, {k: grads[k] for k in names}

    return sample, make


def _op_cases():
    """name -> (sampler of a point, builder of (loss, analytic grads) there)."""
    sca = lambda lo, hi: (lambda rng: float(rng.uniform(lo, hi)))
    layer1 = ("post_W1", "post_b1", "prior_W1", "prior_b1")
    layer2 = ("post_W2", "post_b2", "prior_W2", "prior_b2")
    cases = {
        # the latent MLPs' dense-tanh first and affine second layers, and
        # the posterior's sigma = softplus(raw) + SIGMA_FLOOR, at a regular
        # step, where they reach the term through the draw and the KL
        "dense_tanh": _step_case(layer1),
        "affine": _step_case(layer2),
        "softplus_floor": _step_case(("post_W2", "post_b2")),
        "lstm_cell": _step_case(("lstm_W", "lstm_b", "h", "c"), full=False, state_only=True),
        # the backward passes differentiate sigmoid as s(1 - s) ...
        "sigmoid": _kernel_case(
            lambda v: K.sigmoid(v["a"]),
            lambda v, w: {"a": w * K.sigmoid(v["a"]) * (1.0 - K.sigmoid(v["a"]))},
            {"a": sca(-3, 3)},
        ),
        # ... and softplus as sigmoid
        "softplus": _kernel_case(
            lambda v: K.softplus(v["a"]), lambda v, w: {"a": w * K.sigmoid(v["a"])}, {"a": sca(-3, 3)}
        ),
        # the pre-data step: z from the prior at the zero state (fixed at 0.5
        # without the latent) scores the first duration; the gap head is
        # evaluated too but scores nothing, so its gradient is zero
        "reparam_sigmoid": _step_case(
            ("prior_W1", "prior_b1", "prior_W2", "prior_b2", *_HEADS), i=0
        ),
        "pois_loglik": _step_case(_HEADS, i=0, full=False),
        # the KL-only step n: gradient of -KL(q || p) wrt both MLPs and the state
        "gaussian_kl": _step_case((*layer1, *layer2, "h", "c"), i=2),
        "zh_affine": _step_case(_HEADS, full=False),
        "gap_loglik": _step_case(("head_bt", "head_wt"), full=False, wt_range=(0.05, 0.5)),
        "gap_loglik_negative_slope": _step_case(("head_bt", "head_wt"), full=False, wt_range=(-0.5, -0.05)),
        "gap_loglik_tiny_slope": _step_case(("head_bt", "head_wt"), full=False, wt_range=(1e-4, 5e-4)),
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
