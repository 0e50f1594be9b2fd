import math
import tracemalloc

import numpy as np
import pytest

from resnetlab import autograd
from resnetlab.autograd import (_backward, finite_diff_grad, grad_objective,
                                grad_objective_with_stats,
                                hessian_spectral_estimate, loss, objective)
from resnetlab.bounds import loss_upper_bound
from resnetlab.data import Dataset
from resnetlab.errors import NumericalOverflowError
from resnetlab.network import (IDENTITY, TANH, Activation, Weights, forward,
                               forward_batch, zero_weights)


def unit_rows(rng, n, d):
    rows = rng.standard_normal((n, d))
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


def random_instance(rng, d, L, n, weight_scale=0.5):
    data = Dataset(unit_rows(rng, n, d), unit_rows(rng, n, d), 0.0, 0)
    layers = rng.standard_normal((L, d, d))
    layers *= weight_scale * L ** -0.5 / np.linalg.norm(layers, axis=(1, 2), keepdims=True)
    return data, Weights(layers, L ** -0.5)


class TestLoss:
    def test_zero_at_match(self):
        assert loss([1.0, 2.0], [1.0, 2.0]) == 0.0

    def test_basis_pair(self):
        assert loss([0.0, 1.0], [1.0, 0.0]) == 1.0

    def test_direct_value(self):
        assert loss([1.0, 0.0], [1.0, 2.0]) == 2.0


class TestObjective:
    def test_zero_weights_single_sample(self):
        data = Dataset(np.array([[1.0, 0.0]]), np.array([[0.0, 1.0]]), 0.0, 0)
        assert objective(data, zero_weights(2, 4)) == 1.0

    def test_interpolating_targets(self):
        rng = np.random.default_rng(2)
        data, w = random_instance(rng, 3, 5, 4)
        outputs = forward_batch(data.xs, w).output
        assert objective(Dataset(data.xs, outputs, 0.0, 0), w) == 0.0

    def test_equals_loss_from_gradient_pass(self):
        rng = np.random.default_rng(20)
        for L in (1, 7, 64):
            data, w = random_instance(rng, 5, L, 3)
            _, _, value, _ = grad_objective_with_stats(data, w, want_stats=False)
            assert objective(data, w) == value

    def test_depth_free_upper_bound(self):
        # J <= 1 + e^{2.2 c} under the weight-scale hypothesis, for any depth
        rng = np.random.default_rng(3)
        for L in (4, 64, 256):
            data, w = random_instance(rng, 4, L, 3, weight_scale=1.0)
            assert objective(data, w) <= loss_upper_bound(1.0)


class TestGradObjective:
    def test_zero_weight_closed_form(self):
        # grad_k = delta (x - y) x^T at zero weights, every layer
        data = Dataset(np.array([[1.0, 0.0]]), np.array([[0.0, 1.0]]), 0.0, 0)
        grad = grad_objective(data, zero_weights(2, 4))
        expected = 0.5 * np.array([[1.0, 0.0], [-1.0, 0.0]])
        for k in range(4):
            assert np.allclose(grad.layers[k], expected, rtol=0, atol=1e-16)

    def test_delta_grad_zero_at_zero_weights(self):
        data = Dataset(np.array([[1.0, 0.0]]), np.array([[0.0, 1.0]]), 0.0, 0)
        grad = grad_objective(data, zero_weights(2, 4), delta_trainable=True)
        assert grad.delta_grad == 0.0

    def test_zero_gradient_at_interpolation(self):
        # targets from the batched forward path, so the residual is exactly 0
        rng = np.random.default_rng(8)
        data, w = random_instance(rng, 3, 6, 2)
        outputs = forward_batch(data.xs, w).output
        grad = grad_objective(Dataset(data.xs, outputs, 0.0, 0), w,
                              delta_trainable=True)
        assert np.all(grad.layers == 0.0)
        assert grad.delta_grad == 0.0

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(4)
        data, w = random_instance(rng, 3, 5, 2)
        analytic = grad_objective(data, w, delta_trainable=True)
        numeric = finite_diff_grad(data, w, delta_trainable=True)
        np.testing.assert_allclose(analytic.layers, numeric.layers,
                                   rtol=1e-6, atol=1e-9)
        assert analytic.delta_grad == pytest.approx(numeric.delta_grad, rel=1e-6)

    def test_gradient_upper_bound_random(self):
        # |grad_k J|_F^2 <= 2 d e^{4.2c} L^-1 J on certified-scale draws
        rng = np.random.default_rng(12)
        c_alpha, d, L = 1.0, 5, 24
        for _ in range(50):
            data, w = random_instance(rng, d, L, 3,
                                      weight_scale=rng.uniform(0.1, 1.0))
            value = objective(data, w)
            grad = grad_objective(data, w)
            cap = 2.0 * d * math.exp(4.2 * c_alpha) / L * value
            per_layer = np.sum(grad.layers ** 2, axis=(1, 2))
            assert np.all(per_layer <= cap * (1 + 1e-9))


def reference_grad_objective(data, weights, activation=TANH, delta_trainable=False):
    """Reference: the allocating formulas, one new array per operation.

    Returns the forward trace, the loss, the layer gradients, the delta
    gradient and the per-layer drive stats of ``grad_objective_with_stats``.
    """
    L, delta, n = weights.depth, weights.delta, data.ys.shape[0]
    hidden, preact = [data.xs], []
    for k in range(L):
        a = hidden[-1] @ weights.layers[k].T
        preact.append(a)
        hidden.append(hidden[-1] + delta * activation.value(a))
    hidden, preact = np.array(hidden), np.array(preact)
    sprime = activation.deriv1(preact)
    diff = hidden[L] - data.ys
    value = 0.5 * float(np.sum(diff * diff)) / n
    g = [None] * L + [hidden[L] - data.ys]
    for k in range(L, 0, -1):
        g[k - 1] = g[k] + delta * ((sprime[k - 1] * g[k]) @ weights.layers[k - 1])
    g = np.array(g)
    h_sq = np.sum(hidden[:-1] ** 2, axis=2)
    g_inf = np.max(np.abs(g[1:]), axis=2)
    stats = np.mean(h_sq * g_inf ** 2, axis=1)
    dgrad = float(np.sum(g[1:] * activation.value(preact))) / n if delta_trainable else 0.0
    grads = np.matmul((g[1:] * sprime).transpose(0, 2, 1), hidden[:-1])
    grads *= delta / n
    return {"hidden": hidden, "preact": preact, "sigma_g": sprime * g[1:], "g": g,
            "value": value, "grads": grads, "dgrad": dgrad, "stats": stats}


class TestInPlaceStep:
    @pytest.mark.parametrize("d, L, n, activation, trainable", [
        (3, 1, 2, TANH, False), (4, 1, 1, IDENTITY, True), (1, 6, 1, TANH, True),
        (4, 7, 3, IDENTITY, False), (5, 64, 4, TANH, True), (20, 33, 10, TANH, False),
        (6, 12, 1, IDENTITY, True),
    ])
    def test_bitwise_equal_to_reference(self, d, L, n, activation, trainable):
        rng = np.random.default_rng(40 + d + L + n)
        for scale in (0.3, 3.0):
            data, w = random_instance(rng, d, L, n, weight_scale=scale)
            ref = reference_grad_objective(data, w, activation, trainable)
            trace = forward_batch(data.xs, w, activation)
            assert np.array_equal(trace.hidden, ref["hidden"])
            assert np.array_equal(trace.preact, ref["preact"])
            grads, dgrad, value, stats = grad_objective_with_stats(
                data, w, activation, trainable, want_stats=True)
            assert np.array_equal(grads, ref["grads"])
            assert dgrad == ref["dgrad"] and value == ref["value"]
            assert np.array_equal(stats.h_sq_ginf_sq, ref["stats"])
            plain = grad_objective(data, w, activation, trainable)
            assert np.array_equal(plain.layers, ref["grads"])
            assert plain.delta_grad == ref["dgrad"]

    def test_backward_consumes_sigma_prime(self):
        rng = np.random.default_rng(41)
        data, w = random_instance(rng, 5, 9, 3)
        ref = reference_grad_objective(data, w)
        trace = forward_batch(data.xs, w)
        g = _backward(trace, w, data.ys)
        assert np.array_equal(g, ref["g"])
        assert np.array_equal(trace.sigma_prime, ref["sigma_g"])

    def test_sigma_prime_computed_on_demand(self):
        calls = []

        def counted_deriv1(z):
            calls.append(np.shape(z))
            return TANH.deriv1(z)

        act = Activation("counted", TANH.value, counted_deriv1, TANH.deriv2)
        rng = np.random.default_rng(42)
        data, w = random_instance(rng, 3, 4, 2)
        objective(data, w, act)
        finite_diff_grad(data, w, act)
        assert calls == []
        trace = forward_batch(data.xs, w, act)
        assert trace.sigma_prime is trace.sigma_prime
        assert calls == [(4, 2, 3)]
        grad_objective(data, w, act)
        assert calls == [(4, 2, 3)] * 2

    def test_memory_is_trace_g_and_gradient_stack(self):
        # hidden, preact, sigma' and G are the most whole-trace arrays alive at
        # once; the (L, d, d) gradient stack (two trace-sized arrays at N = d/2)
        # comes after preact and G are dropped, and the drive stats reuse preact
        d, n, L = 20, 10, 1024
        rng = np.random.default_rng(43)
        data, w = random_instance(rng, d, L, n)
        trace_bytes = (L + 1) * n * d * 8
        grad_objective_with_stats(data, w)
        tracemalloc.start()
        try:
            grad_objective_with_stats(data, w, want_stats=True)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4.5 * trace_bytes, peak / trace_bytes


def entrywise_finite_diff(data, weights, activation=TANH,
                          step=autograd.FD_GRAD_STEP, delta_trainable=False):
    """Reference oracle: two full ``objective`` calls per weight entry."""
    layers = weights.layers.copy()
    probe = Weights(layers, weights.delta)
    grads = np.empty_like(layers)
    L, d = weights.depth, weights.width
    for k in range(L):
        for m in range(d):
            for n in range(d):
                orig = layers[k, m, n]
                h = step * (1.0 + abs(orig))
                layers[k, m, n] = orig + h
                up = objective(data, probe, activation)
                layers[k, m, n] = orig - h
                down = objective(data, probe, activation)
                layers[k, m, n] = orig
                grads[k, m, n] = (up - down) / (2.0 * h)
    delta_grad = 0.0
    if delta_trainable:
        h = step * (1.0 + abs(weights.delta))
        up = objective(data, Weights(layers, weights.delta + h), activation)
        down = objective(data, Weights(layers, weights.delta - h), activation)
        delta_grad = (up - down) / (2.0 * h)
    return grads, delta_grad


def reference_finite_diff_grad(data, weights, activation=TANH, delta_trainable=False):
    """Reference: the oracle with suffix spans starting at k + 1 for every
    perturbed layer k, and a new ``Weights`` for each span and row chunk."""
    step = autograd.FD_GRAD_STEP
    L, d = weights.depth, weights.width
    n = data.ys.shape[0]
    delta = weights.delta
    hidden = forward_batch(data.xs, weights, activation).hidden
    grads = np.empty_like(weights.layers)
    out = np.empty((2 * d * d, n, d))
    out_rows = out.reshape(-1, d)
    row_bytes = 3 * d * out.itemsize
    rows = min(len(out_rows), max(1, autograd.FD_CHUNK_BYTES // (2 * row_bytes)))
    span = max(1, autograd.FD_CHUNK_BYTES // (rows * row_bytes) - 1)
    for k in range(L):
        base = weights.layers[k]
        h = step * (1.0 + np.abs(base))
        moves = np.diag(h.ravel()).reshape(d * d, d, d)
        copies = np.concatenate([base + moves, base - moves])
        a = np.matmul(hidden[k], copies.transpose(0, 2, 1))
        np.add(hidden[k], delta * activation.value(a), out=out)
        for start in range(0, len(out_rows), rows):
            chunk = out_rows[start:start + rows]
            for j in range(k + 1, L, span):
                chunk[:] = forward_batch(chunk, Weights(weights.layers[j:j + span], delta),
                                         activation).output
        diff = out - data.ys
        values = 0.5 * np.sum(diff * diff, axis=(1, 2)) / n
        grads[k] = ((values[:d * d] - values[d * d:]) / (2.0 * h.ravel())).reshape(d, d)
    delta_grad = 0.0
    if delta_trainable:
        h = step * (1.0 + abs(weights.delta))
        up = objective(data, Weights(weights.layers, weights.delta + h), activation)
        down = objective(data, Weights(weights.layers, weights.delta - h), activation)
        delta_grad = (up - down) / (2.0 * h)
    return grads, delta_grad


class TestFiniteDifferenceOracle:
    def test_linear_closed_form(self):
        # J(a) = (y - (1+a) x)^2 / 2 has derivative -x (y - (1+a) x)
        x, y, a = 0.8, -0.3, 0.4
        data = Dataset(np.array([[x]]), np.array([[y]]), 0.0, 0)
        w = Weights(np.array([[[a]]]), 1.0)
        hand = -x * (y - (1 + a) * x)
        numeric = finite_diff_grad(data, w, IDENTITY)
        analytic = grad_objective(data, w, IDENTITY)
        assert numeric.layers[0, 0, 0] == pytest.approx(hand, rel=1e-9)
        assert analytic.layers[0, 0, 0] == pytest.approx(hand, rel=1e-14)

    def test_quadratic_step_convergence(self):
        # central differences: halving the step shrinks the error ~4x
        rng = np.random.default_rng(6)
        data, w = random_instance(rng, 2, 3, 2, weight_scale=1.5)
        analytic = grad_objective(data, w).layers
        errs = []
        for step in (2e-3, 1e-3):
            numeric = finite_diff_grad(data, w, step=step).layers
            errs.append(float(np.max(np.abs(numeric - analytic))))
        ratio = errs[0] / errs[1]
        assert 2.5 < ratio < 6.0

    # (d, L, N, activation, delta_trainable, chunk budget or None for the
    # module's): no suffix, d=1, N=1, identity, trainable delta, two row
    # chunks at d=8 N=6, one-layer chunks at d=8 N=4, and a budget that
    # splits the rows into four chunks or the suffix into three-layer spans
    @pytest.mark.parametrize("d, L, n, activation, trainable, budget", [
        (1, 1, 1, TANH, False, None),
        (3, 1, 2, TANH, True, None),
        (1, 6, 3, IDENTITY, True, None),
        (4, 5, 1, TANH, False, None),
        (5, 4, 2, IDENTITY, False, None),
        (8, 5, 6, TANH, True, None),
        (8, 12, 4, TANH, False, None),
        (3, 6, 4, TANH, True, 3000),
        (2, 10, 2, IDENTITY, False, 3072),
    ])
    def test_matches_entrywise_reference(self, monkeypatch, d, L, n, activation,
                                         trainable, budget):
        if budget is not None:
            monkeypatch.setattr(autograd, "FD_CHUNK_BYTES", budget)
        rng = np.random.default_rng(100 * d + L + n)
        data, w = random_instance(rng, d, L, n, weight_scale=rng.uniform(0.2, 2.0))
        numeric = finite_diff_grad(data, w, activation, delta_trainable=trainable)
        ref_layers, ref_delta = entrywise_finite_diff(data, w, activation,
                                                      delta_trainable=trainable)
        np.testing.assert_allclose(numeric.layers, ref_layers, rtol=0, atol=1e-8)
        assert numeric.delta_grad == pytest.approx(ref_delta, rel=0, abs=1e-8)
        assert trainable or numeric.delta_grad == 0.0

    # (d, L, N, activation, delta_trainable, chunk budget or None for the
    # module's): one-layer spans in one row chunk (the gradcheck benchmark's
    # shape), three-layer spans that do not divide L, one-layer spans over
    # four row chunks, and L=1
    @pytest.mark.parametrize("d, L, n, activation, trainable, budget", [
        (8, 32, 4, TANH, False, None),
        (2, 10, 2, IDENTITY, True, 3072),
        (3, 6, 4, TANH, True, 3000),
        (4, 1, 3, TANH, False, None),
    ])
    def test_bitwise_equal_to_per_layer_spans(self, monkeypatch, d, L, n, activation,
                                              trainable, budget):
        if budget is not None:
            monkeypatch.setattr(autograd, "FD_CHUNK_BYTES", budget)
        rng = np.random.default_rng(1000 + 10 * d + L)
        data, w = random_instance(rng, d, L, n)
        numeric = finite_diff_grad(data, w, activation, delta_trainable=trainable)
        ref_layers, ref_delta = reference_finite_diff_grad(data, w, activation, trainable)
        assert np.array_equal(numeric.layers, ref_layers)
        assert numeric.delta_grad == ref_delta

    @pytest.mark.parametrize("d, L, n, trainable, budget", [
        (8, 32, 4, False, None),
        (2, 10, 2, True, 3072),
        (8, 128, 4, False, None),
    ])
    def test_weights_built_at_most_twice_per_layer(self, monkeypatch, d, L, n,
                                                   trainable, budget):
        if budget is not None:
            monkeypatch.setattr(autograd, "FD_CHUNK_BYTES", budget)
        data, w = random_instance(np.random.default_rng(24), d, L, n)
        built = []
        post_init = Weights.__post_init__

        def counted(self):
            built.append(self.layers.shape[0])
            post_init(self)
        monkeypatch.setattr(Weights, "__post_init__", counted)
        finite_diff_grad(data, w, delta_trainable=trainable)
        assert len(built) <= 2 * L, len(built)

    def test_perturbed_passes_are_chunked(self, monkeypatch):
        # at d=8, N=4 the 512 perturbed rows fit one chunk of one layer, so
        # layer k's copies take L-1-k suffix calls after the unperturbed pass
        calls = []

        def counted(*args, **kwargs):
            calls.append(args[1].depth)
            return forward_batch(*args, **kwargs)
        monkeypatch.setattr(autograd, "forward_batch", counted)
        rng = np.random.default_rng(21)
        data, w = random_instance(rng, 8, 6, 4)
        finite_diff_grad(data, w)
        assert calls == [6] + [1] * (5 + 4 + 3 + 2 + 1)

    def test_runs_forward_code_only(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("the oracle ran the analytic gradient")
        for name in ("_backward", "grad_objective", "grad_objective_with_stats"):
            monkeypatch.setattr(autograd, name, forbidden)
        rng = np.random.default_rng(22)
        data, w = random_instance(rng, 3, 4, 2)
        numeric = finite_diff_grad(data, w, delta_trainable=True)
        ref_layers, ref_delta = entrywise_finite_diff(data, w, delta_trainable=True)
        np.testing.assert_allclose(numeric.layers, ref_layers, rtol=0, atol=1e-8)
        assert numeric.delta_grad == pytest.approx(ref_delta, rel=0, abs=1e-8)

    def test_memory_bounded_in_depth(self):
        # all 2 d^2 N perturbed hidden states of layer 1 through the whole
        # suffix would be a 25 MB trace here
        rng = np.random.default_rng(23)
        data, w = random_instance(rng, 8, 256, 4)
        tracemalloc.start()
        try:
            finite_diff_grad(data, w)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2 ** 20, peak

    @pytest.mark.parametrize("layers, step, layer", [
        # the perturbed layer itself overflows: (1 + 2e307) * 100 (no suffix)
        ([[[1.0]]], 1e307, 1),
        # layer 1 moved by 1.5e300 stays finite; the suffix layer 2 overflows
        ([[[0.5]], [[1e10]]], 1e300, 2),
    ])
    def test_perturbed_overflow_raises(self, layers, step, layer):
        data = Dataset(np.array([[100.0]]), np.array([[0.0]]), 0.0, 0)
        w = Weights(np.array(layers), 1.0)
        objective(data, w, IDENTITY)  # the unperturbed pass is finite
        with pytest.raises(NumericalOverflowError) as exc:
            finite_diff_grad(data, w, IDENTITY, step=step)
        assert exc.value.layer == layer
        with pytest.raises(NumericalOverflowError):
            entrywise_finite_diff(data, w, IDENTITY, step=step)


class TestBackwardTrace:
    def test_matches_explicit_jacobians(self):
        # column i of the stored G_k is M_k^T (yhat_i - y_i) for sample i
        rng = np.random.default_rng(10)
        data, w = random_instance(rng, 4, 7, 3)
        g = _backward(forward_batch(data.xs, w), w, data.ys)
        assert g.shape == (8, 3, 4)
        for i, (x, y) in enumerate(zip(data.xs, data.ys)):
            trace = forward(x, w, TANH, want_jacobians=True)
            residual = trace.output - y
            for k in range(8):
                explicit = trace.jacobians[k].T @ residual
                np.testing.assert_allclose(g[k, i], explicit, rtol=1e-12, atol=1e-15)

    def test_terminal_value(self):
        rng = np.random.default_rng(14)
        data, w = random_instance(rng, 3, 4, 2)
        trace = forward_batch(data.xs, w)
        g = _backward(trace, w, data.ys)
        assert np.array_equal(g[-1], trace.output - data.ys)


class TestLayerStats:
    def test_drive_matches_direct_computation(self):
        rng = np.random.default_rng(15)
        data, w = random_instance(rng, 3, 5, 4)
        _, _, value, stats = grad_objective_with_stats(data, w, want_stats=True)
        assert value == pytest.approx(objective(data, w), rel=1e-15)
        for k in range(1, 6):
            acc = 0.0
            for x, y in zip(data.xs, data.ys):
                trace = forward(x, w, TANH, want_jacobians=True)
                g_k = trace.jacobians[k].T @ (trace.output - y)
                acc += (float(trace.hidden[k - 1] @ trace.hidden[k - 1])
                        * float(np.max(np.abs(g_k))) ** 2)
            assert stats.h_sq_ginf_sq[k - 1] == pytest.approx(acc / data.n, rel=1e-12)


class TestHessianEstimate:
    def test_quadratic_closed_form(self, monkeypatch):
        # identity activation, L=1, delta=1: Hessian top eigenvalue is |x|^2
        x = np.array([0.6, -0.8])
        data = Dataset(x[None, :], np.array([[0.1, 0.2]]), 0.0, 0)
        w = Weights(np.zeros((1, 2, 2)), 1.0)
        passes = []

        def counted(*args, **kwargs):
            passes.append(1)
            return grad_objective(*args, **kwargs)
        monkeypatch.setattr(autograd, "grad_objective", counted)
        est = hessian_spectral_estimate(data, w, IDENTITY, probes=60)
        assert est.converged
        assert est.value == pytest.approx(1.0, rel=1e-4)
        # one HVP (two gradient passes) per iterate plus the starting one
        assert len(passes) == 2 * (1 + est.iterations)

    def test_duplicated_sample_invariance(self):
        rng = np.random.default_rng(16)
        data, w = random_instance(rng, 3, 4, 1)
        doubled = Dataset(np.repeat(data.xs, 2, axis=0),
                          np.repeat(data.ys, 2, axis=0), 0.0, 0)
        a = hessian_spectral_estimate(data, w, probes=30)
        b = hessian_spectral_estimate(doubled, w, probes=30)
        assert a.value == pytest.approx(b.value, rel=1e-8)

    def test_certified_scale_bound(self):
        # estimate <= 5 d e^{4.3 c} at zero weights, c_alpha = 1
        d = 4
        rng = np.random.default_rng(18)
        data = Dataset(unit_rows(rng, 3, d), unit_rows(rng, 3, d), 0.0, 0)
        est = hessian_spectral_estimate(data, zero_weights(d, 16), probes=40)
        assert est.value <= 5.0 * d * math.exp(4.3)

    def test_descent_inequality(self):
        # J(w - eta g) <= J - eta |g|^2 + (H/2) eta^2 |g|^2 for small steps
        rng = np.random.default_rng(19)
        data, w = random_instance(rng, 3, 6, 3)
        value = objective(data, w)
        grad = grad_objective(data, w)
        g_sq = grad.frobenius_sq()
        h_inf = hessian_spectral_estimate(data, w, probes=40).value
        eta = 1e-3
        moved = Weights(w.layers - eta * grad.layers, w.delta)
        bound = value - eta * g_sq + 0.5 * h_inf * eta ** 2 * g_sq
        assert objective(data, moved) <= bound * (1 + 1e-9) + 1e-15
