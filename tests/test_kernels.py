"""The jitted kernels and their plain-numpy sources must agree exactly."""

import numpy as np
import pytest

from churnkit import _kernels as K


@pytest.fixture
def rng():
    return np.random.default_rng(99)


def test_numba_flag_is_exposed():
    assert isinstance(K.NUMBA_ENABLED, bool)


def test_sigmoid_matches_and_is_stable(rng):
    v = np.concatenate([rng.normal(0, 3, 50), [-800.0, 800.0, 0.0]])
    out = np.array([K.sig(x) for x in v])
    np.testing.assert_allclose(out, [K.sig_py(x) for x in v], rtol=1e-14, atol=0)
    np.testing.assert_allclose(out[:-3], 1.0 / (1.0 + np.exp(-v[:-3])), rtol=1e-14, atol=0)
    assert np.all(out >= 0.0) and np.all(out <= 1.0)
    assert out[-1] == 0.5


def test_dense_and_affine_match(rng):
    W = rng.normal(size=(5, 7))
    x = rng.normal(size=7)
    b = rng.normal(size=5)
    y = K.dense_tanh_fwd(W, x, b)
    np.testing.assert_allclose(y, K.dense_tanh_fwd_py(W, x, b), rtol=1e-15)
    dy = rng.normal(size=5)
    for got, ref in zip(K.dense_tanh_bwd(W, x, y, dy), K.dense_tanh_bwd_py(W, x, y, dy)):
        np.testing.assert_allclose(got, ref, rtol=1e-15)
    y2 = K.affine_fwd(W, x, b)
    np.testing.assert_allclose(y2, W @ x + b, rtol=1e-15)
    for got, ref in zip(K.affine_bwd(W, x, dy), K.affine_bwd_py(W, x, dy)):
        np.testing.assert_allclose(got, ref, rtol=1e-15)


def test_lstm_matches(rng):
    H = 6
    state = rng.normal(size=(2, H))
    W = rng.normal(size=(4 * H, 3 + H))
    b = rng.normal(size=4 * H)
    out, gates, xh = K.lstm_fwd(state, 0.4, 0.7, 1.3, W, b)
    out2, gates2, xh2 = K.lstm_fwd_py(state, 0.4, 0.7, 1.3, W, b)
    np.testing.assert_allclose(out, out2, rtol=1e-14)
    np.testing.assert_allclose(gates, gates2, rtol=1e-14)
    np.testing.assert_allclose(xh, xh2, rtol=0)
    dout = rng.normal(size=(2, H))
    res = K.lstm_bwd(state, W, gates, xh, out, dout)
    ref = K.lstm_bwd_py(state, W, gates, xh, out, dout)
    for got, want in zip(res, ref):
        np.testing.assert_allclose(got, want, rtol=1e-13)


def _step_args(rng, H=5, P=4, full=True):
    return dict(
        state=rng.normal(size=(2, H)) * 0.3,
        W=rng.normal(size=(4 * H, 3 + H)) * 0.3,
        b=rng.normal(size=4 * H) * 0.1,
        qW1=rng.normal(size=(P, H + 2)) * 0.4,
        qb1=rng.normal(size=P) * 0.1,
        qW2=rng.normal(size=(2, P)) * 0.4,
        qb2=rng.normal(size=2) * 0.1,
        pW1=rng.normal(size=(P, H)) * 0.4,
        pb1=rng.normal(size=P) * 0.1,
        pW2=rng.normal(size=(2, P)) * 0.4,
        pb2=rng.normal(size=2) * 0.1,
        wz=0.3,
        wh=rng.normal(size=H) * 0.2,
        wt=0.0,
        bt=-0.2,
        dwz=0.1,
        dwh=rng.normal(size=H) * 0.2,
        dbias=0.5,
        gf=0.9,
        df=1.4,
        eps=0.37,
        g_next=2.2,
        d_next=3.0,
        full_latent=full,
    )


@pytest.mark.parametrize("full", [True, False])
def test_fused_step_matches(rng, full):
    kw = _step_args(rng, full=full)
    got = K.step_fwd(*kw.values())
    ref = K.step_fwd_py(*kw.values())
    for g, r in zip(got, ref):
        np.testing.assert_allclose(g, r, rtol=1e-13, atol=1e-15)

    term, out, gates, xh, y1, p1, sc = got
    H = kw["state"].shape[1]
    bufs = [
        np.zeros_like(kw["W"]), np.zeros_like(kw["b"]),
        np.zeros_like(kw["qW1"]), np.zeros_like(kw["qb1"]),
        np.zeros_like(kw["qW2"]), np.zeros_like(kw["qb2"]),
        np.zeros_like(kw["pW1"]), np.zeros_like(kw["pb1"]),
        np.zeros_like(kw["pW2"]), np.zeros_like(kw["pb2"]),
        np.zeros_like(kw["wh"]), np.zeros_like(kw["dwh"]),
    ]
    bufs2 = [np.zeros_like(a) for a in bufs]
    dout = rng.normal(size=(2, H))
    common = (
        kw["state"], kw["W"], kw["qW1"], kw["qW2"], kw["pW1"], kw["pW2"],
        kw["wz"], kw["wh"], kw["dwz"], kw["dwh"],
        kw["gf"], kw["df"], kw["eps"], kw["d_next"], kw["full_latent"],
        out, gates, xh, y1, p1, sc, 0.7, dout,
    )
    got_b = K.step_bwd(*common, *bufs)
    ref_b = K.step_bwd_py(*common, *bufs2)
    for g, r in zip(got_b, ref_b):
        np.testing.assert_allclose(g, r, rtol=1e-12, atol=1e-15)
    for g, r in zip(bufs, bufs2):
        np.testing.assert_allclose(g, r, rtol=1e-12, atol=1e-15)
