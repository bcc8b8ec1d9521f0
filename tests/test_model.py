"""Network pieces: initialization, the parameter layout, the one-row
reference step of tests/_reference.py and its structural properties
(causality, determinism, positivity), and one column of the batched
training step against that reference."""

import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _reference as ref
from churnkit import _kernels as K
from churnkit.inference import _filtered
from churnkit.model import (
    LATENT_MODES,
    PARAM_FIELDS,
    _pack,
    _sequence_arrays,
    expected_shapes,
    init_params,
)
from churnkit.eventlog import Session, SessionSequence
from churnkit.tppmath import expected_gap
from churnkit.train import _segment, grad_check, load_checkpoint, save_checkpoint

SOFTPLUS_HALF = math.log(2.0) + 1e-4  # softplus(0) plus the sigma floor


def _zeroed(hidden=4, mlp_hidden=4, **kw):
    params = init_params(hidden, mlp_hidden, seed=0, **kw)
    for name in PARAM_FIELDS:
        getattr(params, name)[...] = 0.0
    params.lstm_b[hidden : 2 * hidden] = 0.0
    return params


class TestInit:
    def test_deterministic_given_seed(self):
        a = init_params(8, 4, seed=42)
        b = init_params(8, 4, seed=42)
        for name in PARAM_FIELDS:
            np.testing.assert_array_equal(getattr(a, name), getattr(b, name))

    def test_shapes(self):
        p = init_params(6, 3, seed=1)
        for name, shape in expected_shapes(6, 3).items():
            assert getattr(p, name).shape == shape

    def test_frozen_wt_is_zero_and_not_trainable(self):
        p = init_params(4, 4, seed=0, wt_mode="frozen_zero")
        assert float(p.head_wt) == 0.0
        assert "head_wt" not in p.trainable_names()
        q = init_params(4, 4, seed=0, wt_mode="learned")
        assert "head_wt" in q.trainable_names()

    def test_minimal_size(self):
        p = init_params(1, 1, seed=3)
        assert p.lstm_W.shape == (4, 4)

    def test_forget_gate_bias_is_one(self):
        p = init_params(5, 4, seed=2)
        np.testing.assert_array_equal(p.lstm_b[5:10], np.ones(5))

    def test_initial_sigma_near_half(self):
        p = init_params(8, 8, seed=9)
        prior = ref.prior(p, np.zeros(8))
        assert abs(prior.sigma - 0.5) < 0.2

    def test_size_validation(self):
        with pytest.raises(ValueError):
            init_params(0, 4, seed=0)


class TestLayout:
    def test_names_are_views_of_flat_in_checkpoint_order(self, tmp_path):
        H, P = 5, 3
        p = init_params(H, P, seed=4, wt_mode="learned")
        assert list(PARAM_FIELDS) == sorted(expected_shapes(H, P))
        offsets = {}
        end = 0
        for name in PARAM_FIELDS:
            view = getattr(p, name)
            assert view.shape == expected_shapes(H, P)[name]
            assert np.shares_memory(view, p.flat)
            np.testing.assert_array_equal(view.ravel(), p.flat[end : end + view.size])
            offsets[name] = end
            end += view.size
        assert end == p.flat.size

        # a write through a name shows in flat, and only there
        before = p.flat.copy()
        p.lstm_W[1, 2] = 7.5
        p.head_wt[...] = -0.25
        changed = np.flatnonzero(p.flat != before)
        assert changed.tolist() == [offsets["head_wt"], offsets["lstm_W"] + (3 + H) + 2]
        assert float(p.head_wt) == -0.25

        # replace copies; a pickled copy keeps its names as views of its flat
        q = p.replace(head_bt=1.5)
        assert float(q.head_bt) == 1.5 and float(p.head_bt) == 0.0
        r = pickle.loads(pickle.dumps(p))
        r.dur_b[...] = 3.0
        assert r.flat[offsets["dur_b"]] == 3.0 and float(p.dur_b) == 0.0

        # a checkpoint saved and loaded gives back the same bytes
        path = tmp_path / "model.json"
        save_checkpoint(p, path)
        loaded, _ = load_checkpoint(path)
        assert loaded.flat.tobytes() == p.flat.tobytes()


class TestPriorPosterior:
    def test_zero_weights_give_standard_values(self):
        p = _zeroed()
        prior = ref.prior(p, np.zeros(4))
        assert prior.mu == pytest.approx(0.0)
        assert prior.sigma == pytest.approx(SOFTPLUS_HALF, rel=1e-12)
        post = ref.posterior(p, 2.0, 3, np.zeros(4))
        assert post.mu == pytest.approx(0.0)
        assert post.sigma == pytest.approx(SOFTPLUS_HALF, rel=1e-12)

    def test_deterministic(self):
        p = init_params(4, 4, seed=5)
        h = np.random.default_rng(0).normal(size=4)
        assert ref.prior(p, h) == ref.prior(p, h)
        assert ref.posterior(p, 1.0, 2, h) == ref.posterior(p, 1.0, 2, h)

    def test_prior_gradients_match_finite_differences(self):
        """The latent MLP's hand-written adjoint, in the batched training
        step, against central differences of the KL assembled from the
        reference prior and posterior (both heads of each)."""
        p = init_params(3, 3, seed=6)
        rng = np.random.default_rng(1)
        state = rng.normal(size=(2, 3)) * 0.5
        seq = SessionSequence("u", [Session(t=0.0, g=0.0, d=2), Session(t=1.7, g=1.7, d=3)])
        names = ("prior_W1", "prior_b1", "prior_W2", "prior_b2")
        values = {name: getattr(p, name) for name in names}

        def loss(v):
            q = p.replace(**v)
            return -float(K.gaussian_kl(*ref.posterior(q, 1.7, 3, state[0]), *ref.prior(q, state[0])))

        # step n = 2 of the sequence carries only the KL after session 1
        rows = _pack([(_sequence_arrays(seq), np.zeros(2))], ["u"])
        seg = _segment(p, rows, 2, 3, state[:1], state[1:])
        report = grad_check(loss, values, {name: getattr(seg.grads, name) for name in names}, h=1e-5, tol=1e-5)
        assert report.passed, report.summary()


class TestHeads:
    def test_zero_weights(self):
        p = _zeroed()
        a, lg = ref.heads(p, 0.3, np.zeros(4))
        assert a == 0.0 and math.exp(lg) == 1.0

    def test_intensity_base_example(self):
        p = _zeroed()
        p.head_wz[...] = 1.0
        a, _ = ref.heads(p, 0.5, np.zeros(4))
        assert a == pytest.approx(0.5)
        assert math.exp(a) == pytest.approx(1.6487, abs=5e-5)

    def test_gamma_monotone_in_bias(self):
        p = init_params(4, 4, seed=7)
        h = np.random.default_rng(2).normal(size=4)
        _, lg1 = ref.heads(p, 0.4, h)
        p.dur_b[...] = float(p.dur_b) + 0.7
        _, lg2 = ref.heads(p, 0.4, h)
        assert math.exp(lg2) == pytest.approx(math.exp(lg1) * math.exp(0.7), rel=1e-12)


def _filter(p, gaps, durs):
    """The pack filter of churnkit.inference on one sequence: its Unroll,
    holding the state after step i at xh[i + 1, 3:, 0] and c[i + 1, :, 0]."""
    t = np.cumsum(gaps)
    seq = SessionSequence("u", [Session(t=ti, g=g, d=d) for ti, g, d in zip(t, gaps, durs)])
    ((_, u, _),) = _filtered(K.Cell(p), _pack([(_sequence_arrays(seq), np.zeros(len(seq)))], ["u"]))
    return u


class TestStep:
    def test_zero_weight_step_keeps_zero_state(self):
        p = _zeroed()
        out = ref.step(p, np.zeros(4), np.zeros(4), 0.0, "infer", 2.0, 3)
        np.testing.assert_allclose([out.h, out.c], np.zeros((2, 4)))
        assert out.a == 0.0 and math.exp(out.lg) == 1.0
        assert out.z == pytest.approx(0.5)

    def test_filter_mode_is_deterministic_and_consumes_no_rng(self):
        p = init_params(6, 4, seed=8)
        before = np.random.get_state()[1].copy()
        u1 = _filter(p, [0.0, 1.5], [3, 4])
        u2 = _filter(p, [0.0, 1.5], [3, 4])
        np.testing.assert_array_equal(np.random.get_state()[1], before)
        for name in ("xh", "c", "ah"):
            assert getattr(u1, name).tobytes() == getattr(u2, name).tobytes()

    def test_modes_draw_from_the_right_distribution(self):
        p = init_params(6, 4, seed=9)
        h = c = np.zeros(6)
        eps = 0.83
        inf = ref.step(p, h, c, eps, "infer", 1.5, 4)
        gen = ref.step(p, h, c, eps, "generate", 1.5, 4)
        assert inf.z == pytest.approx(K.draw_z(*inf.posterior, eps))
        assert gen.z == pytest.approx(K.draw_z(*gen.prior, eps))
        assert gen.posterior is None

    def test_positivity_invariants(self):
        rng = np.random.default_rng(10)
        p = init_params(5, 4, seed=11)
        out = ref.initial(p)
        for _ in range(60):
            g, d = float(rng.exponential(2.0)), int(1 + rng.poisson(3.0))
            out = ref.step(p, out.h, out.c, float(rng.standard_normal()), "infer", g, d)
            assert 0.0 < out.z < 1.0
            assert math.exp(out.lg) > 0.0
            assert out.prior.sigma > 0.0 and out.posterior.sigma > 0.0

    def test_causality_prefix_outputs_bit_identical(self):
        p = init_params(4, 4, seed=12)
        rng = np.random.default_rng(13)
        gaps = [0.0] + [float(rng.exponential(2.0)) for _ in range(9)]
        durs = [int(1 + rng.poisson(3.0)) for _ in range(10)]

        full = _filter(p, gaps, durs)
        perturbed = list(gaps)
        perturbed[7] = 99.0
        part = _filter(p, perturbed, durs)
        for i in range(8):  # outputs up to and including step 7 consume inputs 1..7
            np.testing.assert_array_equal(full.xh[i + 1, 3:, 0], part.xh[i + 1, 3:, 0])
            np.testing.assert_array_equal(full.c[i + 1], part.c[i + 1])
            assert full.ah[i, 0, 0] == part.ah[i, 0, 0]
        assert full.ah[8, 0, 0] != part.ah[8, 0, 0]

    def test_generative_consistency_with_expected_gap(self):
        p = init_params(4, 4, seed=14)
        out = ref.step(p, np.zeros(4), np.zeros(4), 0.0, "infer", 1.0, 2)
        assert expected_gap(out.a, 0.0) == pytest.approx(
            math.exp(-out.a), rel=1e-12
        )

    def test_initial_step_conventions(self):
        p = init_params(4, 4, seed=15)
        # the pre-data step keeps the zero state and draws z from the prior
        first = ref.initial(p, eps=0.4)
        np.testing.assert_array_equal([first.h, first.c], np.zeros((2, 4)))
        assert first.posterior is None
        assert first.z == pytest.approx(K.draw_z(*first.prior, 0.4))
        assert (first.a, first.lg) == ref.heads(p, first.z, np.zeros(4))

    def test_fixed_latent_mode_clamps_z(self):
        p = init_params(4, 4, seed=16, latent_mode="fixed")
        out = ref.step(p, np.zeros(4), np.zeros(4), 1.7, "infer", 1.0, 2)
        assert out.z == 0.5 and out.prior is None


def _close(actual, expected, tol=1e-12):
    """Equal to tol relative, with a floor at tol of the largest expected entry."""
    expected = np.atleast_1d(np.asarray(expected, float))
    np.testing.assert_allclose(actual, expected, rtol=tol, atol=tol * np.abs(expected).max())


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    hidden=st.integers(1, 6),
    mlp_hidden=st.integers(1, 4),
    latent_mode=st.sampled_from(LATENT_MODES),
    g=st.floats(0.0, 50.0),
    d=st.integers(1, 40),
    eps=st.floats(-5.0, 5.0),
    wt=st.floats(-0.5, 0.5),
)
def test_reference_step_and_training_kernel_are_one_cell(seed, hidden, mlp_hidden, latent_mode, g, d, eps, wt):
    """One column of the batched training step and the plain-numpy reference
    step compute the same cell to 1e-12 relative: state, z, a, log gamma and
    the laws of logit(z), inferring at a drawn eps and at eps = 0 (the
    filter), generating, and at the pre-data step."""
    rng = np.random.default_rng(seed)
    p = init_params(hidden, mlp_hidden, seed=0, wt_mode="learned", latent_mode=latent_mode)
    for name in PARAM_FIELDS:
        getattr(p, name)[...] = rng.normal(0.0, 0.5, getattr(p, name).shape)
    p.head_wt[...] = wt
    state = rng.normal(0.0, 0.5, (2, hidden))
    w = K.Cell(p)
    for mode, e in (("infer", eps), ("infer", 0.0), ("generate", eps), ("first", eps)):
        expected = ref.step(p, state[0], state[1], e, mode, g, d)
        u = K.Unroll(w, np.array([[[math.log1p(g), math.log1p(d)]]]), state[:1], state[1:], np.full((1, 1), e))
        K.cell_fwd(w, u, 0, 1, first=mode == "first", generate=mode == "generate")
        u.outputs(w)
        _close(np.concatenate([u.xh[1, 3:, 0], u.c[1, :, 0]]), np.concatenate([expected.h, expected.c]))
        _close(u.xh[0, 2, 0], expected.z)
        _close(u.ah[0, :, 0], [expected.a, expected.lg])
        if expected.prior is not None:
            _close(u.law[0, 2:, 0], expected.prior)
        if expected.posterior is not None:
            _close(u.law[0, :2, 0], expected.posterior)
