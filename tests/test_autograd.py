import math
import tracemalloc

import numpy as np
import pytest

from helpers import complex_objective, row_growth_drive, sigma_prime, zero_weights
from resnetlab import autograd
from resnetlab.autograd import (HessianEstimate, _backward, finite_diff_grad,
                                grad_objective, grad_objective_with_stats,
                                hessian_spectral_estimate, objective)
from resnetlab.bounds import loss_upper_bound
from resnetlab.data import Dataset
from resnetlab.errors import NumericalOverflowError
from resnetlab.network import (IDENTITY, TANH, Activation, Weights, forward,
                               forward_batch, jacobian_stack)
from resnetlab.training import Schedule, train


def unit_rows(rng, n, d):
    rows = rng.standard_normal((n, d))
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


def random_instance(rng, d, L, n, weight_scale=0.5):
    data = Dataset(unit_rows(rng, n, d), unit_rows(rng, n, d))
    layers = rng.standard_normal((L, d, d))
    layers *= weight_scale * L ** -0.5 / np.linalg.norm(layers, axis=(1, 2), keepdims=True)
    return data, Weights(layers, L ** -0.5)


def one_sample_loss(y, x):
    """The per-sample loss |yhat - y|^2 / 2 at yhat = x: the objective of the
    one-sample set {(x, y)} at zero weights, where the network is the identity."""
    data = Dataset(np.array([x], dtype=float), np.array([y], dtype=float))
    return objective(data, zero_weights(len(x), 3))


class TestLoss:
    def test_zero_at_match(self):
        assert one_sample_loss([1.0, 2.0], [1.0, 2.0]) == 0.0

    def test_basis_pair(self):
        assert one_sample_loss([0.0, 1.0], [1.0, 0.0]) == 1.0

    def test_direct_value(self):
        assert one_sample_loss([1.0, 0.0], [1.0, 2.0]) == 2.0


class TestObjective:
    def test_zero_weights_single_sample(self):
        data = Dataset(np.array([[1.0, 0.0]]), np.array([[0.0, 1.0]]))
        assert objective(data, zero_weights(2, 4)) == 1.0

    def test_interpolating_targets(self):
        rng = np.random.default_rng(2)
        data, w = random_instance(rng, 3, 5, 4)
        outputs = forward_batch(data.xs, w).output
        assert objective(Dataset(data.xs, outputs), w) == 0.0

    def test_equals_loss_from_gradient_pass(self):
        rng = np.random.default_rng(20)
        for L in (1, 7, 64):
            data, w = random_instance(rng, 5, L, 3)
            _, _, value = grad_objective_with_stats(data, w)
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
        data = Dataset(np.array([[1.0, 0.0]]), np.array([[0.0, 1.0]]))
        grad = grad_objective(data, zero_weights(2, 4))
        expected = 0.5 * np.array([[1.0, 0.0], [-1.0, 0.0]])
        for k in range(4):
            assert np.allclose(grad.layers[k], expected, rtol=0, atol=1e-16)

    def test_delta_grad_zero_at_zero_weights(self):
        data = Dataset(np.array([[1.0, 0.0]]), np.array([[0.0, 1.0]]))
        grad = grad_objective(data, zero_weights(2, 4), delta_trainable=True)
        assert grad.delta_grad == 0.0

    def test_zero_gradient_at_interpolation(self):
        # targets from the batched forward path, so the residual is exactly 0
        rng = np.random.default_rng(8)
        data, w = random_instance(rng, 3, 6, 2)
        outputs = forward_batch(data.xs, w).output
        grad = grad_objective(Dataset(data.xs, outputs), w,
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
    """Reference: the allocating formulas in the operation order of the
    scaled-state loops, one new array per operation. The forward runs in
    u_k = h_k / delta with the scaled layers delta A_k and returns delta u_k;
    the backward takes delta sigma'(a_k) and the gradient 1/n.

    Returns the forward trace, the loss, the layer gradients and the delta
    gradient of ``grad_objective_with_stats``.
    """
    L, delta, n = weights.depth, weights.delta, data.ys.shape[0]
    u, preact = [data.xs / delta], []
    for k in range(L):
        a = u[-1] @ (weights.layers[k] * delta).T
        preact.append(a)
        u.append(activation.value(a) + u[-1])
    hidden = np.array([data.xs] + [v * delta for v in u[1:]])
    preact = np.array(preact)
    sprime = activation.deriv1(preact) * delta
    diff = hidden[L] - data.ys
    value = 0.5 * float(np.sum(diff * diff)) / n
    g = [None] * L + [hidden[L] - data.ys]
    for k in range(L, 0, -1):
        g[k - 1] = (sprime[k - 1] * g[k]) @ weights.layers[k - 1] + g[k]
    g = np.array(g)
    dgrad = float(np.sum(g[1:] * activation.value(preact))) / n if delta_trainable else 0.0
    grads = np.matmul((g[1:] * sprime).transpose(0, 2, 1), hidden[:-1])
    grads *= 1.0 / n
    return {"hidden": hidden, "preact": preact, "sigma_g": sprime * g[1:], "g": g,
            "value": value, "grads": grads, "dgrad": dgrad}


def h_space_grad_objective(data, weights, activation=TANH, delta_trainable=False):
    """The allocating h-space formulas: delta multiplies every layer's
    activation in the forward and every step of the G recursion, and the
    gradient takes delta / n. Same returns as ``reference_grad_objective``
    (``sigma_g`` is sigma' * G, without delta)."""
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
    dgrad = float(np.sum(g[1:] * activation.value(preact))) / n if delta_trainable else 0.0
    grads = np.matmul((g[1:] * sprime).transpose(0, 2, 1), hidden[:-1])
    grads *= delta / n
    return {"hidden": hidden, "preact": preact, "sigma_g": sprime * g[1:], "g": g,
            "value": value, "grads": grads, "dgrad": dgrad}


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
            grads, dgrad, value = grad_objective_with_stats(data, w, activation, trainable)
            assert np.array_equal(grads, ref["grads"])
            assert dgrad == ref["dgrad"] and value == ref["value"]
            plain = grad_objective(data, w, activation, trainable)
            assert np.array_equal(plain.layers, ref["grads"])
            assert plain.delta_grad == ref["dgrad"]

    def test_backward_consumes_sigma_prime(self):
        # delta sigma' goes into the given buffer, which then holds
        # delta sigma' * G
        rng = np.random.default_rng(41)
        data, w = random_instance(rng, 5, 9, 3)
        ref = reference_grad_objective(data, w)
        trace = forward_batch(data.xs, w)
        g = np.full_like(trace.hidden, np.nan)
        sg = np.full_like(trace.preact, np.nan)
        _backward(trace, w, data.ys, g, sg, False)
        assert np.array_equal(g, ref["g"])
        assert np.array_equal(sg, ref["sigma_g"])

    @pytest.mark.parametrize("L", [1, 8, 9])
    def test_backward_writes_delta_terms_over_preact(self, L):
        # with delta_terms and delta sigma' kept apart, the preactivations
        # become G_k * sigma(a_k), the terms of the delta gradient
        rng = np.random.default_rng(47 + L)
        data, w = random_instance(rng, 5, L, 3)
        ref = reference_grad_objective(data, w, TANH, True)
        trace = forward_batch(data.xs, w)
        g = np.full((2,) + trace.hidden.shape[1:], np.nan)
        sg = np.full_like(trace.preact, np.nan)
        _backward(trace, w, data.ys, g, sg, True)
        assert np.array_equal(trace.preact, ref["g"][1:] * TANH.value(ref["preact"]))
        assert np.array_equal(sg, ref["sigma_g"])

    def test_adjoint_slices_equal_the_stack(self):
        # the Adjoint of a pass in a trace block gives slices of layers
        # equal to the stack's bit for bit, with the same loss
        rng = np.random.default_rng(46)
        data, w = random_instance(rng, 5, 11, 3)
        grads, _, value = grad_objective_with_stats(data, w)
        block = np.empty(autograd.trace_block_size(11, 3, 5))
        adjoint, dgrad, adjoint_value = autograd._gradient_pass(data, w, TANH, False, block)
        assert dgrad == 0.0 and adjoint_value == value
        for start, stop in ((0, 11), (0, 4), (4, 8), (8, 11), (10, 11)):
            out = np.full((stop - start, 5, 5), np.nan)
            adjoint.layer_grads(slice(start, stop), out)
            assert np.array_equal(out, grads[start:stop]), (start, stop)

    @pytest.mark.parametrize("L", [1, 8, 9])
    def test_backward_in_two_rows_over_preact(self, L):
        # with two rows G_k lands in row 1 - (L - k) mod 2, so they end on
        # G_0 and G_1, and delta sigma' * G may overwrite the preactivations
        rng = np.random.default_rng(44 + L)
        data, w = random_instance(rng, 5, L, 3)
        ref = reference_grad_objective(data, w)
        trace = forward_batch(data.xs, w)
        g = np.full((2,) + trace.hidden.shape[1:], np.nan)
        _backward(trace, w, data.ys, g, trace.preact, False)
        assert np.array_equal(g[1 - L % 2], ref["g"][0])
        assert np.array_equal(g[L % 2], ref["g"][1])
        assert np.array_equal(trace.preact, ref["sigma_g"])

    def test_sigma_prime_computed_on_demand(self):
        # only the backward pass computes sigma', once per gradient
        calls = []

        def counted_deriv1(z, out=None):
            calls.append(np.shape(z))
            return TANH.deriv1(z, out)

        act = Activation(TANH.value, counted_deriv1, TANH.deriv2)
        rng = np.random.default_rng(42)
        data, w = random_instance(rng, 3, 4, 2)
        objective(data, w, act)
        finite_diff_grad(data, w, act)
        forward_batch(data.xs, w, act)
        assert calls == []
        grad_objective(data, w, act)
        assert calls == [(4, 2, 3)]

    def test_memory_is_trace_g_and_gradient_stack(self):
        # the pass runs in the pair of blocks it allocates: hidden and
        # preact, over which delta sigma' * G is written, in the trace block,
        # and the (L, d, d) gradient stack (two trace-sized arrays at N = d/2)
        # in the other; with delta frozen G moves through two (N, d) rows
        d, n, L = 20, 10, 1024
        rng = np.random.default_rng(43)
        data, w = random_instance(rng, d, L, n)
        trace_bytes = (L + 1) * n * d * 8
        grad_objective_with_stats(data, w)
        tracemalloc.start()
        try:
            grad_objective_with_stats(data, w)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4.5 * trace_bytes, peak / trace_bytes


class TestPowerOfTwoDelta:
    # delta = L**-0.5 is a power of two at L = 4**j, every depth of the
    # train_sweep benchmark among them: there the scaled-state loops give the
    # h-space formulas' values bit for bit, here at train_sweep's (N, d)
    @pytest.mark.parametrize("L", [4, 16, 64, 256])
    def test_bitwise_equal_to_h_space(self, L):
        rng = np.random.default_rng(50 + L)
        data, w0 = random_instance(rng, 20, L, 10, weight_scale=2.0)
        ref = h_space_grad_objective(data, w0, TANH, True)
        trace = forward_batch(data.xs, w0)
        assert np.array_equal(trace.hidden, ref["hidden"])
        assert np.array_equal(trace.preact, ref["preact"])
        grads, dgrad, value = grad_objective_with_stats(data, w0, TANH, True)
        assert np.array_equal(grads, ref["grads"])
        assert dgrad == ref["dgrad"] and value == ref["value"]

        sched = Schedule("constant", 0.1)
        final, log = train(w0, data, sched, 6)
        layers, losses = w0.layers, []
        for t in range(6):
            step = h_space_grad_objective(data, Weights(layers, w0.delta))
            losses.append(step["value"])
            layers = layers - sched.rate(t) * step["grads"]
        losses.append(h_space_grad_objective(data, Weights(layers, w0.delta))["value"])
        assert np.array_equal(final.layers, layers)
        assert np.array_equal(log.loss, losses)


class TestComplexStep:
    # Im J(W + itV, delta + it c) / t at t = 1e-30 is the derivative along
    # (V, c) to roundoff, so the scaled-state loops are checked at the CLI's
    # default depth: delta = 1/64 frozen at L=4096, and a trainable delta that
    # is not a power of two at L=4000
    @pytest.mark.parametrize("L, trainable", [(4096, False), (4000, True)])
    def test_directional_derivative_at_default_depth(self, L, trainable):
        rng = np.random.default_rng(L)
        data, w = random_instance(rng, 20, L, 10)
        v = rng.standard_normal(w.layers.shape)
        c = 1.0 if trainable else 0.0
        grads, dgrad, _ = grad_objective_with_stats(data, w, TANH, trainable)
        analytic = float(np.sum(grads * v)) + dgrad * c
        t = 1e-30
        value = complex_objective(data.xs, data.ys, w.layers + 1j * t * v,
                                  w.delta + 1j * t * c)
        assert value.imag / t == pytest.approx(analytic, rel=1e-12, abs=0)


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
    """Reference: the oracle with each later layer run as one ``forward_batch``
    call over all perturbed rows, in the scaled state u = h / delta. Where
    delta is a power of two, h-space and u-space agree bit for bit."""
    step = autograd.FD_GRAD_STEP
    L, d = weights.depth, weights.width
    n = data.ys.shape[0]
    delta = weights.delta
    hidden = forward_batch(data.xs, weights, activation).hidden
    grads = np.empty_like(weights.layers)
    out = np.empty((2 * d * d, n, d))
    rows = out.reshape(-1, d)
    for k in range(L):
        base = weights.layers[k]
        h = step * (1.0 + np.abs(base))
        moves = np.diag(h.ravel()).reshape(d * d, d, d)
        copies = np.concatenate([base + moves, base - moves])
        a = np.matmul(hidden[k], copies.transpose(0, 2, 1))
        np.add(hidden[k], delta * activation.value(a), out=out)
        for j in range(k + 1, L):
            rows[:] = forward_batch(rows, Weights(weights.layers[j:j + 1], delta),
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
        data = Dataset(np.array([[x]]), np.array([[y]]))
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

    # (d, L, N, activation, delta_trainable): no suffix, d=1, N=1, identity,
    # trainable delta, 2 d^2 N = 768 rows at d=8 N=6 and 512 at d=8 N=4
    @pytest.mark.parametrize("d, L, n, activation, trainable", [
        (1, 1, 1, TANH, False),
        (3, 1, 2, TANH, True),
        (1, 6, 3, IDENTITY, True),
        (4, 5, 1, TANH, False),
        (5, 4, 2, IDENTITY, False),
        (8, 5, 6, TANH, True),
        (8, 12, 4, TANH, False),
        (3, 6, 4, TANH, True),
        (2, 10, 2, IDENTITY, False),
    ])
    def test_matches_entrywise_reference(self, d, L, n, activation, trainable):
        rng = np.random.default_rng(100 * d + L + n)
        data, w = random_instance(rng, d, L, n, weight_scale=rng.uniform(0.2, 2.0))
        numeric = finite_diff_grad(data, w, activation, delta_trainable=trainable)
        ref_layers, ref_delta = entrywise_finite_diff(data, w, activation,
                                                      delta_trainable=trainable)
        np.testing.assert_allclose(numeric.layers, ref_layers, rtol=0, atol=1e-8)
        assert numeric.delta_grad == pytest.approx(ref_delta, rel=0, abs=1e-8)
        assert trainable or numeric.delta_grad == 0.0

    # (d, L, N, activation, delta_trainable, delta), delta a power of two:
    # the gradcheck benchmark's shape, d=8 N=4 at L=16, L=1, and trainable
    # delta under both activations
    @pytest.mark.parametrize("d, L, n, activation, trainable, delta", [
        (8, 32, 4, TANH, False, 0.125),
        (2, 10, 2, IDENTITY, True, 0.25),
        (3, 6, 4, TANH, True, 0.5),
        (4, 1, 3, TANH, False, 1.0),
        (2, 16, 2, IDENTITY, True, 0.25),
        (8, 16, 4, TANH, True, 0.25),
    ])
    def test_bitwise_equal_to_per_layer_spans(self, d, L, n, activation, trainable, delta):
        rng = np.random.default_rng(1000 + 10 * d + L)
        data, w = random_instance(rng, d, L, n)
        w = Weights(w.layers, delta)
        numeric = finite_diff_grad(data, w, activation, delta_trainable=trainable)
        ref_layers, ref_delta = reference_finite_diff_grad(data, w, activation, trainable)
        assert np.array_equal(numeric.layers, ref_layers)
        assert numeric.delta_grad == ref_delta

    @pytest.mark.parametrize("d, L, n, trainable", [
        (8, 32, 4, False),
        (2, 10, 2, True),
        (8, 128, 4, False),
    ])
    def test_weights_built_at_most_twice_per_layer(self, monkeypatch, d, L, n, trainable):
        # the later layers read the caller's stack, so the only Weights built
        # are the delta +- h stacks of a trainable delta
        data, w = random_instance(np.random.default_rng(24), d, L, n)
        built = []
        post_init = Weights.__post_init__

        def counted(self):
            built.append(self.layers.shape[0])
            post_init(self)
        monkeypatch.setattr(Weights, "__post_init__", counted)
        finite_diff_grad(data, w, delta_trainable=trainable)
        assert built == ([L, L] if trainable else [])

    def test_perturbed_passes_are_chunked(self, monkeypatch):
        # the perturbed copies run the recursion in the oracle, so the one
        # forward_batch call is the unperturbed pass
        calls = []

        def counted(*args, **kwargs):
            calls.append(args[1].depth)
            return forward_batch(*args, **kwargs)
        monkeypatch.setattr(autograd, "forward_batch", counted)
        rng = np.random.default_rng(21)
        data, w = random_instance(rng, 8, 6, 4)
        finite_diff_grad(data, w)
        assert calls == [6]

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
        data = Dataset(np.array([[100.0]]), np.array([[0.0]]))
        w = Weights(np.array(layers), 1.0)
        objective(data, w, IDENTITY)  # the unperturbed pass is finite
        with pytest.raises(NumericalOverflowError, match=rf"at layer {layer}$"):
            finite_diff_grad(data, w, IDENTITY, step=step)
        with pytest.raises(NumericalOverflowError):
            entrywise_finite_diff(data, w, IDENTITY, step=step)


class TestBackwardTrace:
    def test_matches_explicit_jacobians(self):
        # column i of the stored G_k is M_k^T (yhat_i - y_i) for sample i
        rng = np.random.default_rng(10)
        data, w = random_instance(rng, 4, 7, 3)
        trace = forward_batch(data.xs, w)
        g = np.empty_like(trace.hidden)
        _backward(trace, w, data.ys, g, np.empty_like(trace.preact), False)
        assert g.shape == (8, 3, 4)
        for i, (x, y) in enumerate(zip(data.xs, data.ys)):
            trace = forward(x, w, TANH)
            jac = jacobian_stack(w, sigma_prime(trace))
            residual = trace.output - y
            for k in range(8):
                explicit = jac[k].T @ residual
                np.testing.assert_allclose(g[k, i], explicit, rtol=1e-12, atol=1e-15)

    def test_terminal_value(self):
        rng = np.random.default_rng(14)
        data, w = random_instance(rng, 3, 4, 2)
        trace = forward_batch(data.xs, w)
        g = np.empty_like(trace.hidden)
        _backward(trace, w, data.ys, g, np.empty_like(trace.preact), False)
        assert np.array_equal(g[-1], trace.output - data.ys)


class TestLayerStats:
    def test_drive_matches_direct_computation(self):
        rng = np.random.default_rng(15)
        data, w = random_instance(rng, 3, 5, 4)
        drive = row_growth_drive(data, w)
        for k in range(1, 6):
            acc = 0.0
            for x, y in zip(data.xs, data.ys):
                trace = forward(x, w, TANH)
                g_k = jacobian_stack(w, sigma_prime(trace))[k].T @ (trace.output - y)
                acc += (float(trace.hidden[k - 1] @ trace.hidden[k - 1])
                        * float(np.max(np.abs(g_k))) ** 2)
            assert drive[k - 1] == pytest.approx(acc / data.n, rel=1e-12)


def library_layer_grads(data, weights, activation):
    """``autograd.grad_objective``'s layer gradients, looked up at each call
    so that a test may wrap it."""
    return autograd.grad_objective(data, weights, activation).layers


def reference_layer_grads(data, weights, activation):
    return reference_grad_objective(data, weights, activation)["grads"]


def allocating_hessian_estimate(data, weights, activation=TANH, *, probes,
                                gradient=library_layer_grads):
    """The power iteration with every product on new arrays: the allocating
    formula whose result the in-place estimate must give bit for bit.
    ``gradient(data, weights, activation)`` gives the layer gradients of a
    point."""
    base = weights.layers
    scale = autograd.FD_HESSIAN_STEP * (1.0 + float(np.linalg.norm(base)))

    def hvp(direction):
        up = Weights(base + scale * direction, weights.delta)
        down = Weights(base - scale * direction, weights.delta)
        g_up, g_down = gradient(data, up, activation), gradient(data, down, activation)
        return (g_up - g_down) / (2.0 * scale)

    v = np.ones_like(base)
    v /= np.linalg.norm(v)
    w = hvp(v)
    lam = float(np.sum(v * w))
    for iterations in range(1, probes + 1):
        norm_w = float(np.linalg.norm(w))
        if norm_w == 0.0:
            lam, converged = 0.0, True
            break
        v = w / norm_w
        w = hvp(v)
        lam_new = float(np.sum(v * w))
        converged = (abs(lam_new - lam)
                     <= autograd.HESSIAN_TOL * max(abs(lam_new), np.finfo(float).tiny))
        lam = lam_new
        if converged:
            break
    return HessianEstimate(abs(lam), iterations, converged)


class TestHessianEstimate:
    @pytest.mark.parametrize("case", ["converged", "budget_exhausted", "zero_weights",
                                      "zero_hessian"])
    def test_equals_allocating_reference(self, case, monkeypatch):
        rng = np.random.default_rng(12)
        probes = 40
        if case == "zero_weights":
            data = Dataset(unit_rows(rng, 3, 4), unit_rows(rng, 3, 4))
            w = zero_weights(4, 8)
        elif case == "zero_hessian":
            # zero inputs keep every state at zero: every product is zero
            data = Dataset(np.zeros((2, 3)), unit_rows(rng, 2, 3))
            w = zero_weights(3, 5)
        else:
            data, w = random_instance(rng, 4, 8, 3)
            if case == "budget_exhausted":
                probes = 3
        points = {}

        def recorded(key):
            def grad(data, weights, *args, **kwargs):
                points.setdefault(key, []).append(weights.layers.copy())
                return grad_objective(data, weights, *args, **kwargs)
            return grad
        monkeypatch.setattr(autograd, "grad_objective", recorded("in_place"))
        est = hessian_spectral_estimate(data, w, probes=probes)
        monkeypatch.setattr(autograd, "grad_objective", recorded("reference"))
        assert est == allocating_hessian_estimate(data, w, probes=probes)
        # every gradient pass ran at the same point, so each iterate was equal
        assert len(points["in_place"]) == len(points["reference"])
        for a, b in zip(points["in_place"], points["reference"]):
            assert np.array_equal(a, b)
        assert est.converged == (case != "budget_exhausted")
        assert (est.value == 0.0) == (case == "zero_hessian")

    @pytest.mark.parametrize("d, L, n", [(6, 16, 2), (3, 9, 4)])
    def test_equals_reference_on_fresh_arrays(self, d, L, n):
        # every gradient of the reference comes from the allocating formulas
        # on new arrays, none from a pass in blocks. At d > 2N the trace
        # block is smaller than a stack, at d < 2N larger; the "down"
        # gradient overwrites the perturbed stack but never the weights
        rng = np.random.default_rng(60 + d)
        data, w = random_instance(rng, d, L, n)
        before = w.layers.copy()
        est = hessian_spectral_estimate(data, w, probes=40)
        assert est == allocating_hessian_estimate(data, w, probes=40,
                                                  gradient=reference_layer_grads)
        assert np.array_equal(w.layers, before)

    def test_quadratic_closed_form(self, monkeypatch):
        # identity activation, L=1, delta=1: Hessian top eigenvalue is |x|^2
        x = np.array([0.6, -0.8])
        data = Dataset(x[None, :], np.array([[0.1, 0.2]]))
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
                          np.repeat(data.ys, 2, axis=0))
        a = hessian_spectral_estimate(data, w, probes=30)
        b = hessian_spectral_estimate(doubled, w, probes=30)
        assert a.value == pytest.approx(b.value, rel=1e-8)

    def test_certified_scale_bound(self):
        # estimate <= 5 d e^{4.3 c} at zero weights, c_alpha = 1
        d = 4
        rng = np.random.default_rng(18)
        data = Dataset(unit_rows(rng, 3, d), unit_rows(rng, 3, d))
        est = hessian_spectral_estimate(data, zero_weights(d, 16), probes=40)
        assert est.value <= 5.0 * d * math.exp(4.3)

    def test_descent_inequality(self):
        # J(w - eta g) <= J - eta |g|^2 + (H/2) eta^2 |g|^2 for small steps
        rng = np.random.default_rng(19)
        data, w = random_instance(rng, 3, 6, 3)
        value = objective(data, w)
        grad = grad_objective(data, w)
        g_sq = float(np.sum(grad.layers ** 2))
        h_inf = hessian_spectral_estimate(data, w, probes=40).value
        eta = 1e-3
        moved = Weights(w.layers - eta * grad.layers, w.delta)
        bound = value - eta * g_sq + 0.5 * h_inf * eta ** 2 * g_sq
        assert objective(data, moved) <= bound * (1 + 1e-9) + 1e-15
