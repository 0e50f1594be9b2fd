import math

import numpy as np
import pytest

from resnetlab.bounds import check_activation
from resnetlab.errors import InvalidInputError, NumericalOverflowError
from resnetlab.network import (IDENTITY, TANH, Activation, NetworkConfig,
                               Weights, forward, forward_batch, jacobian_stack,
                               load_weights, save_weights, zero_weights)


def random_weights(rng, d, L, scale=None, delta=None):
    layers = rng.standard_normal((L, d, d))
    layers *= (scale if scale is not None else 0.5 * L ** -0.5) / np.linalg.norm(
        layers, axis=(1, 2), keepdims=True)
    return Weights(layers, L ** -0.5 if delta is None else delta)


class TestActivations:
    def test_tanh_passes_all_clauses(self):
        rows = {r.name: r for r in check_activation(TANH)}
        assert all(r.passed for r in rows.values())
        # max |tanh''| = 4/(3 sqrt(3)), attained inside the grid
        observed = rows["second_derivative"].observed
        assert observed == pytest.approx(4.0 / (3.0 * math.sqrt(3.0)), abs=1e-6)
        assert observed < 1.0

    def test_identity_passes(self):
        rows = {r.name: r for r in check_activation(IDENTITY)}
        assert all(r.passed for r in rows.values())
        assert rows["first_derivative"].observed == 1.0
        assert rows["second_derivative"].observed == 0.0

    @pytest.mark.parametrize("z", [
        0.7, -3.25, np.array(0.7), np.array(-0.0),
        np.linspace(-30.0, 30.0, 5 * 3 * 8).reshape(5, 3, 8),
        np.array([[[0.0, 1e-300, 710.0, -711.0, np.inf]]]),
    ])
    def test_tanh_deriv1_is_inverse_cosh_squared(self, z):
        with np.errstate(over="ignore"):
            observed = TANH.deriv1(z)
            expected = 1.0 / np.cosh(z) ** 2
        assert type(observed) is type(expected)
        assert np.shape(observed) == np.shape(expected)
        assert np.asarray(observed).tobytes() == np.asarray(expected).tobytes()

    def test_synthetic_violation_reported(self):
        doubler = Activation("double", lambda z: 2.0 * np.asarray(z),
                             lambda z: np.full_like(np.asarray(z, float), 2.0),
                             lambda z: np.zeros_like(np.asarray(z, float)))
        rows = {r.name: r for r in check_activation(doubler)}
        assert not all(r.passed for r in rows.values())
        assert not rows["bounded_by_identity"].passed
        assert rows["value_at_zero"].passed


class TestConfig:
    def test_delta_scaling(self):
        assert NetworkConfig(4, 16).delta == pytest.approx(0.25)
        assert NetworkConfig(4, 16, delta_exponent=0.25).delta == pytest.approx(0.5)

    def test_validation(self):
        with pytest.raises(InvalidInputError):
            NetworkConfig(0, 4)
        with pytest.raises(InvalidInputError):
            NetworkConfig(4, 4, delta_exponent=1.5)
        with pytest.raises(InvalidInputError):
            Weights(np.zeros((2, 3, 4)), 1.0)
        with pytest.raises(InvalidInputError):
            Weights(np.zeros((2, 3, 3)), -1.0)


class TestForward:
    def test_zero_weights_identity_map(self):
        w = zero_weights(3, 5)
        x = np.array([0.2, -0.7, 1.0])
        trace = forward(x, w, TANH, want_jacobians=True)
        assert np.array_equal(trace.hidden, np.tile(x, (6, 1)))
        assert np.array_equal(trace.output, x)
        assert np.allclose(trace.jacobians, np.eye(3))

    def test_linear_one_layer_doubles(self):
        w = Weights(np.eye(2)[None, :, :], 1.0)
        x = np.array([0.3, -0.4])
        trace = forward(x, w, IDENTITY)
        assert np.allclose(trace.output, 2.0 * x, rtol=1e-15)

    def test_scalar_tanh_value(self):
        w = Weights(np.array([[[1.0]]]), 1.0)
        trace = forward([1.0], w, TANH)
        assert trace.output[0] == pytest.approx(1.0 + math.tanh(1.0), rel=1e-12)
        assert trace.output[0] == pytest.approx(1.7615941560, abs=1e-9)

    def test_recursion_invariant(self):
        rng = np.random.default_rng(5)
        w = random_weights(rng, 4, 7)
        x = rng.standard_normal(4)
        trace = forward(x, w, TANH)
        for k in range(1, 8):
            expected = trace.hidden[k - 1] + w.delta * np.tanh(trace.preact[k - 1])
            assert np.array_equal(trace.hidden[k], expected)
            assert np.array_equal(trace.preact[k - 1], w.layers[k - 1] @ trace.hidden[k - 1])

    def test_overflow_names_first_layer(self):
        w = Weights(np.full((3, 2, 2), 1e200), 1.0)
        with pytest.raises(NumericalOverflowError) as err:
            forward([1.0, 1.0], w, IDENTITY)
        assert err.value.layer == 2  # layer 1 yields ~1e200, squaring overflows at 2

    def test_batch_overflow_names_smallest_layer(self):
        # sample 0 goes non-finite at layer 3, sample 1 at layer 2
        layers = np.zeros((4, 2, 2))
        layers[:, 0, 0] = 1e200
        layers[:, 1, 1] = [1e200, 1e200, 0.0, 0.0]
        w = Weights(layers, 1.0)
        xs = np.array([[1e-200, 0.0], [0.0, 1.0]])
        with pytest.raises(NumericalOverflowError) as err:
            forward_batch(xs, w, IDENTITY)
        assert err.value.layer == 2
        assert str(err.value) == "non-finite hidden state at layer 2"
        with pytest.raises(NumericalOverflowError) as err:
            forward_batch(xs[:1], w, IDENTITY)
        assert err.value.layer == 3

    def test_batch_matches_per_sample(self):
        rng = np.random.default_rng(11)
        w = random_weights(rng, 5, 9)
        xs = rng.standard_normal((4, 5))
        batch = forward_batch(xs, w, TANH)
        for i in range(4):
            single = forward(xs[i], w, TANH)
            assert np.allclose(batch.hidden[:, i, :], single.hidden, rtol=1e-14, atol=0)

    def test_batch_shape_validation(self):
        w = zero_weights(3, 2)
        with pytest.raises(InvalidInputError):
            forward_batch(np.zeros((2, 4)), w)


class TestJacobians:
    def test_finite_difference_columns(self):
        # M_k columns = central differences of the output w.r.t. h_k entries
        rng = np.random.default_rng(3)
        d, L = 4, 6
        w = random_weights(rng, d, L)
        x = rng.standard_normal(d)
        trace = forward(x, w, TANH, want_jacobians=True)

        def propagate(from_k, h):
            h = h.copy()
            for j in range(from_k + 1, L + 1):
                h = h + w.delta * np.tanh(w.layers[j - 1] @ h)
            return h

        step = 1e-6
        for k in (0, 2, L):
            fd = np.empty((d, d))
            for n in range(d):
                bump = np.zeros(d)
                bump[n] = step
                fd[:, n] = (propagate(k, trace.hidden[k] + bump)
                            - propagate(k, trace.hidden[k] - bump)) / (2 * step)
            assert np.allclose(trace.jacobians[k], fd, rtol=1e-6, atol=1e-8)

    def test_identity_at_last_layer(self):
        rng = np.random.default_rng(9)
        w = random_weights(rng, 3, 4)
        trace = forward(rng.standard_normal(3), w, TANH, want_jacobians=True)
        assert np.array_equal(trace.jacobians[4], np.eye(3))

    def test_stack_matches_trace(self):
        rng = np.random.default_rng(13)
        w = random_weights(rng, 3, 5)
        trace = forward(rng.standard_normal(3), w, TANH, want_jacobians=True)
        rebuilt = jacobian_stack(w, trace.sigma_prime)
        assert np.array_equal(rebuilt, trace.jacobians)


class TestHiddenStateSandwich:
    def test_random_draws_within_bounds(self):
        rng = np.random.default_rng(21)
        c_alpha, L, d = 1.0, 32, 6
        lower, upper = math.exp(-2 * c_alpha), math.exp(1.1 * c_alpha)
        for _ in range(100):
            w = random_weights(rng, d, L, scale=rng.uniform(0.1, 1.0) * c_alpha * L ** -0.5)
            x = rng.standard_normal(d)
            x /= np.linalg.norm(x)
            trace = forward(x, w, TANH, want_jacobians=True)
            h_norms = np.linalg.norm(trace.hidden[1:], axis=1)
            assert np.all(h_norms >= lower - 1e-12)
            assert np.all(h_norms <= upper + 1e-12)
            col_norms = np.linalg.norm(trace.jacobians, axis=1)
            assert np.all(col_norms <= math.exp(c_alpha) + 1e-12)


class TestSerialization:
    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(17)
        w = random_weights(rng, 4, 3, delta=1.0 / 3.0)
        path = tmp_path / "weights.txt"
        save_weights(w, path)
        loaded = load_weights(path)
        assert loaded.delta == w.delta
        assert np.array_equal(loaded.layers, w.layers)

    def test_text_matches_per_value_writer(self, tmp_path):
        # reference: one f-string per value, the writer's original form
        rng = np.random.default_rng(18)
        for d, L in ((1, 1), (3, 5), (7, 4)):
            layers = rng.standard_normal((L, d, d)) * 10.0 ** rng.integers(-300, 300, (L, d, d))
            special = [-0.0, 5e-324, 1e300, -1.0, 3.0, -12.0, 2.0 ** 53, 1e16]
            layers.ravel()[:len(special)] = special[:layers.size]
            w = Weights(layers, L ** -0.5)
            expected = f"{d} {L} {w.delta:.17g}\n" + "".join(
                " ".join(f"{v:.17g}" for v in row) + "\n"
                for k in range(L) for row in w.layers[k])
            path = tmp_path / f"w_{d}_{L}.txt"
            save_weights(w, path)
            assert path.read_text() == expected

    def test_header_shape(self, tmp_path):
        w = zero_weights(2, 3)
        path = tmp_path / "w.txt"
        save_weights(w, path)
        first = path.read_text().splitlines()[0].split()
        assert first[0] == "2" and first[1] == "3"

    def test_malformed_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("2 1 0.5\n1.0\n")
        with pytest.raises(InvalidInputError):
            load_weights(path)
