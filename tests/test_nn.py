"""Tests for the manual-backprop network stack, incl. gradient checks."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.rl import (
    MLP,
    Adam,
    Dense,
    Parameter,
    ReLU,
    Tanh,
    check_finite_update,
    clip_grad_norm,
    orthogonal_init,
)


def numeric_grad(fn, array, eps=1e-6):
    grad = np.zeros_like(array)
    flat = array.ravel()
    gflat = grad.ravel()
    for i in range(flat.size):
        old = flat[i]
        flat[i] = old + eps
        up = fn()
        flat[i] = old - eps
        down = fn()
        flat[i] = old
        gflat[i] = (up - down) / (2 * eps)
    return grad


class TestParameter:
    def test_contiguous_storage(self, rng):
        p = Parameter("w", orthogonal_init((3, 5), 1.0, rng))
        assert p.value.flags["C_CONTIGUOUS"]

    def test_zero_grad(self):
        p = Parameter("w", np.ones((2, 2)))
        p.grad += 3.0
        p.zero_grad()
        assert np.all(p.grad == 0.0)


class TestOrthogonalInit:
    def test_orthogonal_columns(self, rng):
        w = orthogonal_init((8, 4), 1.0, rng)
        gram = w.T @ w
        assert np.allclose(gram, np.eye(4), atol=1e-10)

    def test_gain_scaling(self, rng):
        w = orthogonal_init((6, 6), 2.0, rng)
        assert np.allclose(w @ w.T, 4.0 * np.eye(6), atol=1e-10)

    def test_wide_matrices(self, rng):
        w = orthogonal_init((3, 7), 1.0, rng)
        assert np.allclose(w @ w.T, np.eye(3), atol=1e-10)


class TestLayers:
    def test_dense_forward(self, rng):
        layer = Dense(3, 2, rng)
        x = rng.standard_normal((4, 3))
        y = layer.forward(x)
        assert y.shape == (4, 2)
        assert np.allclose(y, x @ layer.w.value + layer.b.value)

    @pytest.mark.parametrize(
        "make_layer",
        [lambda rng: Dense(3, 2, rng), lambda rng: Tanh(), lambda rng: ReLU()],
        ids=["Dense", "Tanh", "ReLU"],
    )
    def test_dense_backward_before_forward_raises(self, rng, make_layer):
        # a RuntimeError, not an assert that ``python -O`` would strip
        layer = make_layer(rng)
        with pytest.raises(RuntimeError):
            layer.backward(np.zeros((4, 2)))

    def test_relu_masks_negative(self):
        layer = ReLU()
        x = np.array([[-1.0, 2.0]])
        assert np.allclose(layer.forward(x), [[0.0, 2.0]])
        assert np.allclose(layer.backward(np.ones((1, 2))), [[0.0, 1.0]])

    def test_tanh_gradient(self):
        layer = Tanh()
        x = np.array([[0.5]])
        y = layer.forward(x)
        g = layer.backward(np.ones((1, 1)))
        assert np.allclose(g, 1 - y**2)


class TestMLP:
    def test_needs_two_sizes(self, rng):
        with pytest.raises(ValueError):
            MLP((4,), rng)

    def test_unknown_activation(self, rng):
        with pytest.raises(ValueError):
            MLP((4, 2), rng, activation="gelu")

    def test_forward_shape(self, rng):
        net = MLP((5, 16, 16, 2), rng)
        y = net.forward(rng.standard_normal((7, 5)))
        assert y.shape == (7, 2)

    def test_forward_promotes_1d_input(self, rng):
        net = MLP((5, 8, 2), rng)
        y = net.forward(rng.standard_normal(5))
        assert y.shape == (1, 2)

    @pytest.mark.parametrize("batch", [1, 2, 30])
    @pytest.mark.parametrize("activation", ["tanh", "relu"])
    def test_forward_rows_is_bit_identical_to_per_row_forward(self, rng, activation, batch):
        net = MLP((9, 64, 64, 3), rng, activation=activation)
        for p in net.parameters():  # non-trivial biases and weights everywhere
            p.value[...] = rng.standard_normal(p.shape)
        x = rng.standard_normal((batch, 9))
        rows = net.forward_rows(x)
        per_row = np.vstack([net.forward(x[i : i + 1]) for i in range(batch)])
        assert rows.shape == (batch, 3)
        assert np.array_equal(rows, per_row)

    @pytest.mark.parametrize("activation", ["tanh", "relu"])
    def test_param_gradients_match_finite_differences(self, rng, activation):
        net = MLP((4, 6, 3), rng, activation=activation)
        x = rng.standard_normal((5, 4))
        target = rng.standard_normal((5, 3))

        def loss():
            return 0.5 * np.sum((net.forward(x) - target) ** 2)

        y = net.forward(x)
        net.zero_grad()
        net.backward(y - target)
        for p in net.parameters():
            expected = numeric_grad(loss, p.value)
            assert np.allclose(p.grad, expected, atol=1e-5), p.name

    def test_input_gradients_match_finite_differences(self, rng):
        net = MLP((3, 8, 2), rng)
        x = rng.standard_normal((4, 3))
        target = rng.standard_normal((4, 2))
        y = net.forward(x)
        net.zero_grad()
        din = net.backward(y - target)

        def loss():
            return 0.5 * np.sum((net.forward(x) - target) ** 2)

        expected = numeric_grad(loss, x)
        assert np.allclose(din, expected, atol=1e-5)

    def test_gradients_accumulate(self, rng):
        net = MLP((2, 4, 1), rng)
        x = rng.standard_normal((3, 2))
        net.forward(x)
        net.backward(np.ones((3, 1)))
        g1 = net.parameters()[0].grad.copy()
        net.forward(x)
        net.backward(np.ones((3, 1)))
        assert np.allclose(net.parameters()[0].grad, 2 * g1)

    def test_state_dict_roundtrip(self, rng):
        a = MLP((3, 8, 2), rng)
        b = MLP((3, 8, 2), np.random.default_rng(99))
        b.load_state_dict(a.state_dict())
        x = rng.standard_normal((2, 3))
        assert np.allclose(a.forward(x), b.forward(x))

    def test_state_dict_shape_mismatch(self, rng):
        a = MLP((3, 8, 2), rng)
        state = a.state_dict()
        state[next(iter(state))] = np.zeros((1, 1))
        with pytest.raises(ValueError):
            a.load_state_dict(state)

    def test_state_dict_missing_key(self, rng):
        a = MLP((3, 8, 2), rng)
        with pytest.raises(KeyError):
            a.load_state_dict({})

    def test_copy_from_positional(self, rng):
        a = MLP((3, 8, 2), rng, name="src")
        b = MLP((3, 8, 2), np.random.default_rng(1), name="dst")
        b.copy_from(a)
        x = rng.standard_normal((2, 3))
        assert np.allclose(a.forward(x), b.forward(x))

    def test_copy_from_mismatch_raises(self, rng):
        a = MLP((3, 8, 2), rng)
        b = MLP((3, 4, 2), rng)
        with pytest.raises(ValueError):
            b.copy_from(a)

    def test_polyak_interpolates(self, rng):
        a = MLP((2, 4, 1), rng)
        b = MLP((2, 4, 1), np.random.default_rng(7))
        before = b.parameters()[0].value.copy()
        target = a.parameters()[0].value
        b.polyak_from(a, tau=0.25)
        expected = 0.75 * before + 0.25 * target
        assert np.allclose(b.parameters()[0].value, expected)

    def test_polyak_tau_one_copies(self, rng):
        a = MLP((2, 4, 1), rng)
        b = MLP((2, 4, 1), np.random.default_rng(7))
        b.polyak_from(a, tau=1.0)
        x = rng.standard_normal((3, 2))
        assert np.allclose(a.forward(x), b.forward(x))

    def test_polyak_invalid_tau(self, rng):
        a = MLP((2, 4, 1), rng)
        with pytest.raises(ValueError):
            a.polyak_from(a, tau=1.5)

    @given(st.integers(min_value=1, max_value=6), st.integers(min_value=1, max_value=6))
    @settings(max_examples=20, deadline=None)
    def test_forward_shape_property(self, batch, out_dim):
        net = MLP((4, 8, out_dim), np.random.default_rng(0))
        x = np.random.default_rng(1).standard_normal((batch, 4))
        assert net.forward(x).shape == (batch, out_dim)


class TestGradClipping:
    @staticmethod
    def grad_norm(net):
        """The norm every learner clips by: what the divergence check returns."""
        return check_finite_update("test", 0, {}, Adam(net.parameters()))

    def test_clip_reduces_norm(self, rng):
        net = MLP((3, 4, 2), rng)
        for p in net.parameters():
            p.grad[...] = 10.0
        norm_before = self.grad_norm(net)
        assert norm_before == pytest.approx(10.0 * np.sqrt(MLP.size_of((3, 4, 2))))
        returned = clip_grad_norm(net.parameters(), max_norm=1.0, norm=norm_before)
        assert returned == norm_before
        assert self.grad_norm(net) == pytest.approx(1.0)

    def test_no_clip_when_small(self, rng):
        net = MLP((3, 4, 2), rng)
        for p in net.parameters():
            p.grad[...] = 1e-4
        before = [p.grad.copy() for p in net.parameters()]
        clip_grad_norm(net.parameters(), max_norm=10.0, norm=self.grad_norm(net))
        for p, b in zip(net.parameters(), before):
            assert np.array_equal(p.grad, b)
