import math
import tracemalloc

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


def overflow_instance(seed):
    """Random (L, N, d) with the hidden states of chosen samples overflowing
    at chosen layers under the identity activation.

    Up to three "big" layers before the last multiply every hidden entry by
    about +-1e100; the others grow a state by at most a factor of about 300
    over the whole depth. Sample n starts at norm 10^(250 - 100 (j - 1)), so
    it overflows at the j-th big layer, and the samples not returned start
    small enough to pass them all. At least one sample overflows at the first
    big layer, where under tanh its preactivation overflows instead. The last
    layer is -I, which makes every infinite entry nan (inf - inf). Returns
    (xs, weights, {sample: layer}).
    """
    rng = np.random.default_rng(seed)
    L, n, d = int(rng.integers(8, 65)), int(rng.integers(1, 6)), int(rng.integers(2, 6))
    delta = L ** -0.5
    layers = rng.standard_normal((L, d, d)) * (0.5 / d)
    big = np.sort(rng.choice(np.arange(1, L), size=int(rng.integers(1, 4)), replace=False))
    for p in big:
        layers[p - 1] = rng.choice([-1.0, 1.0]) * 1e100 / delta * np.eye(d)
    layers[-1] = -np.eye(d)
    picks = rng.integers(0, len(big) + 1, size=n)
    picks[rng.integers(n)] = 1
    exponents = np.where(picks > 0, 250.0 - 100.0 * (picks - 1), 150.0 - 100.0 * len(big))
    xs = rng.standard_normal((n, d))
    xs *= 10.0 ** exponents[:, None] / np.linalg.norm(xs, axis=1, keepdims=True)
    designed = {i: int(big[j - 1]) for i, j in enumerate(picks) if j > 0}
    return xs, Weights(layers, delta), designed


def reference_first_bad_layer(xs, w, activation):
    """The smallest layer whose hidden state has a non-finite entry in any
    sample (None if none), from an allocating per-layer loop and a scan of
    its whole trace; also returns that trace."""
    h = np.array(xs, dtype=np.float64)
    hidden = [h]
    with np.errstate(all="ignore"):
        for alpha in w.layers:
            h = h + w.delta * activation.value(h @ alpha.T)
            hidden.append(h)
    bad = [k for k in range(1, len(hidden)) if not np.all(np.isfinite(hidden[k]))]
    return (bad[0] if bad else None), hidden


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

    # seed, activation: the tanh cases overflow preactivations to +-inf,
    # which tanh maps to +-1, so no hidden state goes non-finite there
    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("activation", [IDENTITY, TANH], ids=["identity", "tanh"])
    def test_overflow_layer_matches_trace_scan(self, seed, activation):
        xs, w, designed = overflow_instance(seed)
        layer, hidden = reference_first_bad_layer(xs, w, activation)
        if activation is IDENTITY:
            assert layer == min(designed.values())
            # inf - inf: the last layer turns every infinite entry into nan
            assert np.isnan(hidden[-1]).any()
        else:
            assert layer is None
        cases = [(xs, layer)] + [
            (xs[n], reference_first_bad_layer(xs[n:n + 1], w, activation)[0])
            for n in range(len(xs))]
        for x, expected in cases:
            run = forward_batch if x.ndim == 2 else forward
            if expected is None:
                trace = run(x, w, activation)
                assert np.all(np.isfinite(trace.hidden))
                if x.ndim == 2:
                    assert np.isinf(trace.preact).any()
                continue
            with pytest.raises(NumericalOverflowError) as err:
                run(x, w, activation)
            assert err.value.layer == expected
            assert str(err.value) == f"non-finite hidden state at layer {expected}"
        if activation is IDENTITY:
            assert all(cases[n + 1][1] == j for n, j in designed.items())

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

    # (L, d): depth one, width one, and a certify shape
    @pytest.mark.parametrize("L, d", [(1, 20), (128, 1), (128, 20), (7, 3)])
    def test_bitwise_equal_to_matmul_loop(self, L, d):
        rng = np.random.default_rng(L + d)
        w = random_weights(rng, d, L)
        trace = forward(rng.standard_normal(d), w, TANH)
        assert np.array_equal(jacobian_stack(w, trace.sigma_prime),
                              reference_jacobian_stack(w, trace.sigma_prime))


def reference_jacobian_stack(weights, sigma_prime):
    """The index loop with np.matmul that jacobian_stack replaced."""
    L, d = weights.depth, weights.width
    eye = np.eye(d)
    steps = sigma_prime[:, :, None] * weights.layers
    steps *= weights.delta
    steps += eye
    jac = np.empty((L + 1, d, d))
    jac[L] = eye
    for k in range(L, 0, -1):
        np.matmul(jac[k], steps[k - 1], out=jac[k - 1])
    return jac


class TestWeightsFiniteCheck:
    @pytest.mark.parametrize("values", [[np.inf], [-np.inf], [np.nan], [np.inf, -np.inf]])
    def test_non_finite_entry_rejected(self, values):
        layers = np.zeros((3, 2, 2))
        layers[2, 1, :len(values)] = values
        with pytest.raises(InvalidInputError, match="weights have non-finite entries"):
            Weights(layers, 1.0)

    def test_finite_entries_with_overflowing_sum_accepted(self):
        top = np.finfo(np.float64).max
        for layers in (np.full((3, 2, 2), top), np.full((3, 2, 2), -top)):
            assert Weights(layers, 1.0).layers is layers

    def test_no_entrywise_mask_for_a_finite_stack(self):
        # a bool mask over L=1024, d=20 would take 409,600 bytes
        layers = np.random.default_rng(23).standard_normal((1024, 20, 20))
        tracemalloc.start()
        try:
            Weights(layers, 1024 ** -0.5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < layers.size / 16, peak


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
        path = tmp_path / "weights.bin"
        save_weights(w, path)
        loaded = load_weights(path)
        assert loaded.delta == w.delta
        assert np.array_equal(loaded.layers, w.layers)
        assert loaded.layers.flags.writeable

    def test_binary_layout(self, tmp_path):
        # the header line, then the raw little-endian stack in (layer, row,
        # column) order, whatever the memory order of the saved array
        rng = np.random.default_rng(18)
        for d, L in ((1, 1), (3, 5), (7, 4)):
            layers = rng.standard_normal((L, d, d)) * 10.0 ** rng.integers(-300, 300, (L, d, d))
            special = [-0.0, 5e-324, 1e300, -1e300, -1.0, 3.0, 2.0 ** 53, 1e16]
            layers.ravel()[:len(special)] = special[:layers.size]
            for stored in (layers, layers.transpose(0, 2, 1).copy().transpose(0, 2, 1)):
                w = Weights(stored, L ** -0.5)
                path = tmp_path / f"w_{d}_{L}.bin"
                save_weights(w, path)
                assert path.read_bytes() == (f"{d} {L} {w.delta:.17g}\n".encode()
                                             + layers.astype("<f8").tobytes())
                loaded = load_weights(path)
                assert loaded.delta == w.delta
                assert np.array_equal(loaded.layers, layers)
                assert loaded.layers.tobytes() == layers.tobytes()  # -0.0 too
                assert loaded.layers.flags.writeable

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

    @pytest.mark.parametrize("payload, found", [
        (np.zeros(7).tobytes(), 56),                # one entry short
        (np.zeros(8).tobytes() + b"\0", 65),        # one byte over
        (b"", 0),
    ], ids=["short", "long", "empty"])
    def test_payload_length_checked(self, tmp_path, payload, found):
        path = tmp_path / "w.bin"
        path.write_bytes(b"2 2 0.5\n" + payload)
        with pytest.raises(InvalidInputError) as exc:
            load_weights(path)
        assert str(path) in str(exc.value)
        assert f"{found} bytes" in str(exc.value) and "expected 64" in str(exc.value)

    @pytest.mark.parametrize("raw", [
        b"2 1 0.5",                      # no newline
        b"2 1 0.5" + b" " * 200_000,     # no newline within the header bound
        b"2 1\n" + bytes(32),            # two fields
        b"2 0 0.5\n",                    # zero depth
        b"\xff\xfe 1 0.5\n" + bytes(32),  # not a number
    ], ids=["no-newline", "over-bound", "two-fields", "zero-depth", "not-a-number"])
    def test_malformed_header_rejected(self, tmp_path, raw):
        path = tmp_path / "w.bin"
        path.write_bytes(raw)
        with pytest.raises(InvalidInputError, match="malformed weights header"):
            load_weights(path)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_entry_names_file(self, tmp_path, value):
        layers = np.zeros((2, 2, 2))
        layers[1, 0, 1] = value
        path = tmp_path / "w.bin"
        path.write_bytes(b"2 2 0.5\n" + layers.astype("<f8").tobytes())
        with pytest.raises(InvalidInputError, match="non-finite") as exc:
            load_weights(path)
        assert str(path) in str(exc.value)

    def test_load_allocates_the_stack_once(self, tmp_path):
        # L=1024, d=20: a 3.28 MB stack. Reading the payload into bytes and
        # converting would hold two copies at once.
        rng = np.random.default_rng(19)
        w = Weights(rng.standard_normal((1024, 20, 20)), 1024 ** -0.5)
        path = tmp_path / "w.bin"
        save_weights(w, path)
        tracemalloc.start()
        try:
            loaded = load_weights(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.array_equal(loaded.layers, w.layers)
        assert peak < 1.5 * w.layers.nbytes, peak / w.layers.nbytes
