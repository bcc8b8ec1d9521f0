"""The row kernels against independent references."""

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
