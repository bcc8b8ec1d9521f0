"""The row kernels against independent references."""

import warnings

import numpy as np
import pytest

from churnkit import _kernels as K


@pytest.fixture
def rng():
    return np.random.default_rng(99)


def test_sigmoid_matches_and_is_stable(rng):
    v = np.concatenate([rng.normal(0, 3, 50), [-800.0, 800.0, 0.0]])
    out = K.sigmoid(v)
    np.testing.assert_array_equal(out, [K.sigmoid(x) for x in v])
    np.testing.assert_allclose(out[:-3], 1.0 / (1.0 + np.exp(-v[:-3])), rtol=1e-14, atol=0)
    assert np.all(out >= 0.0) and np.all(out <= 1.0)
    assert out[-1] == 0.5


def test_sigmoid_raises_no_warning_and_keeps_relative_accuracy():
    v = np.array([-np.inf, -800.0, 800.0, np.inf])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = K.sigmoid(v)
        np.testing.assert_array_equal(K.sigmoid(v.copy(), out=v), out)  # in place
        assert K.sigmoid(np.float64(-800.0)) == out[1]
    assert 0.0 <= out[0] == out[1] < 1e-300 and out[2] == out[3] == 1.0
    # where sigmoid(v) is tiny, as a z draw can be, it keeps its relative accuracy
    v = np.linspace(-700.0, -30.0, 100_001)
    ref = np.exp(v) / (1.0 + np.exp(v))
    assert np.max(np.abs(K.sigmoid(v) - ref) / np.spacing(ref)) <= 4.0


@pytest.mark.parametrize("shape", [(), (1, 5), (64, 16), (3, 1000)])
def test_draw_z_in_place_equals_the_plain_expression(rng, shape):
    # tails included: logits far past both ends of the clamp
    mu, sigma, eps = rng.normal(0.0, 30.0, shape), rng.uniform(0.01, 20.0, shape), rng.standard_normal(shape)
    if shape:
        mu.flat[:4] = [-800.0, 800.0, -40.0, 40.0]
    want = np.minimum(np.maximum(K.sigmoid(mu + sigma * eps), K.Z_LO), K.Z_HI)
    got = K.draw_z(mu, sigma, eps)
    assert got.shape == shape and got.tobytes() == want.tobytes()
    assert K.draw_z(float(mu.flat[0]), float(sigma.flat[0]), float(eps.flat[0])) == want.flat[0]
