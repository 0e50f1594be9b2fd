import math
import re
import tracemalloc

import numpy as np
import pytest

from helpers import keep_log_rows, row_growth_drive, zero_weights
from resnetlab import autograd, training
from resnetlab.autograd import grad_objective, objective
from resnetlab.bounds import largest_sum_feasible_T, lr_feasibility
from resnetlab.data import (AssumptionParams, Dataset, init_certified,
                            near_init_targets, sample_sphere_dataset)
from resnetlab.errors import InvalidInputError, NumericalOverflowError
from resnetlab.network import (CHUNK_BYTES, IDENTITY, TANH, NetworkConfig, Weights,
                               forward_batch, layer_span, layer_squares, load_weights,
                               save_weights)
from resnetlab.training import (RunLog, Schedule, WeightNorms, harmonic_number,
                                layer_gaps, load_runlog, save_layer_gaps, save_runlog,
                                train, weight_norms)


def small_instance(seed=0, d=3, L=5, n=3):
    rng = np.random.default_rng(seed)
    xs = rng.standard_normal((n, d))
    xs /= np.linalg.norm(xs, axis=1, keepdims=True)
    ys = rng.standard_normal((n, d))
    ys /= np.linalg.norm(ys, axis=1, keepdims=True)
    layers = rng.standard_normal((L, d, d)) * 0.3 * L ** -0.5
    return Dataset(xs, ys), Weights(layers, L ** -0.5)


class TestSchedule:
    def test_rates(self):
        assert Schedule("constant", 0.2).rate(7) == 0.2
        assert Schedule("inverse_decay", 0.2).rate(0) == 0.2
        assert Schedule("inverse_decay", 0.2).rate(3) == pytest.approx(0.05)

    def test_sum_rates(self):
        assert Schedule("constant", 0.5).sum_rates(4) == 2.0
        expected = 0.5 * (1 + 0.5 + 1 / 3)
        assert Schedule("inverse_decay", 0.5).sum_rates(3) == pytest.approx(expected)

    def test_validation(self):
        with pytest.raises(InvalidInputError):
            Schedule("linear", 0.1)
        with pytest.raises(InvalidInputError):
            Schedule("constant", -0.1)

    def test_harmonic_number_asymptotic_matches_sum(self):
        exact = float(np.sum(1.0 / np.arange(1, 20001)))
        assert harmonic_number(20000) == pytest.approx(exact, rel=1e-12)


class TestNorms:
    def test_weight_norms_by_hand(self):
        layers = np.zeros((2, 2, 2))
        layers[0] = [[1.0, 0.0], [0.0, 1.0]]
        layers[1] = [[1.0, 1.0], [1.0, 1.0]]
        w = Weights(layers, 1.0)
        norms = weight_norms(w)
        assert norms.fbar == pytest.approx(0.5 * (2.0 + 4.0))
        assert norms.finf == pytest.approx(2.0)
        assert norms.neighbour_max == pytest.approx(math.sqrt(2.0))
        assert norms.gbar == pytest.approx(0.5 * 2 * 2.0)
        assert layer_gaps(w, norms)[0] == pytest.approx(0.5 * 4 * 2.0)

    def test_depth_one_edge(self):
        w = zero_weights(3, 1)
        norms = weight_norms(w)
        assert norms.gbar == 0.0 and norms.neighbour_max == 0.0
        assert layer_gaps(w, norms).size == 0


    # the norms read the stack in chunks of span layers: a single layer, one
    # chunk, and one layer past it, whose neighbour difference straddles
    # the chunks
    @pytest.mark.parametrize("extra", [(0, 1), (1, 0), (1, 1)])
    def test_chunked_norms_equal_full_stack_formulas(self, extra):
        d = 20
        span = layer_span(10 ** 6, 2 * d * d * 8)
        L = extra[0] * span + extra[1]
        w = Weights(np.random.default_rng(19).standard_normal((L, d, d)), 0.5)
        norms, expected = weight_norms(w), full_stack_norms(w)
        for name in ("fbar", "gbar", "finf", "neighbour_max"):
            assert getattr(norms, name) == getattr(expected, name), name
        assert np.array_equal(norms.diff_sq, expected.diff_sq)
        assert norms.diff_sq.shape == (L - 1,)

    # the squares read the stack in chunks of the same span: one short of
    # full, one full, one layer past it, and two full chunks and one layer
    @pytest.mark.parametrize("chunks, extra", [(1, -1), (1, 0), (1, 1), (2, 1)])
    def test_chunked_squares_equal_full_stack_formulas(self, chunks, extra):
        d = 20
        L = chunks * layer_span(10 ** 6, 2 * d * d * 8) + extra
        stack = np.random.default_rng(L).standard_normal((L, d, d))
        squares = layer_squares(stack)
        assert np.array_equal(squares, np.sum(stack ** 2, axis=(1, 2)))
        assert np.array_equal(np.sqrt(squares), np.linalg.norm(stack, axis=(1, 2)))


def full_stack_norms(w):
    """The norms by whole-stack formulas: the squares of every layer in one
    array, then every neighbour difference in another."""
    layer_sq = np.sum(np.square(w.layers), axis=(1, 2))
    diff_sq = np.sum(np.square(w.layers[1:] - w.layers[:-1]), axis=(1, 2))
    fbar, finf = 0.5 * float(np.sum(layer_sq)), float(np.sqrt(np.max(layer_sq)))
    if w.depth == 1:
        return WeightNorms(fbar, 0.0, finf, 0.0, diff_sq)
    return WeightNorms(fbar, 0.5 * w.depth * float(np.sum(diff_sq)), finf,
                       float(np.sqrt(np.max(diff_sq))), diff_sq)


def one_step(w, data, eta, **kwargs):
    """The weights after one full-batch update at learning rate eta."""
    return train(w, data, Schedule("constant", eta), 1, **kwargs)[0]


class TestGdStep:
    def test_zero_gradient_leaves_weights(self):
        data, w = small_instance()
        interp = Dataset(data.xs, forward_batch(data.xs, w).output)
        stepped = one_step(w, interp, 0.5)
        assert np.array_equal(stepped.layers, w.layers)

    def test_zero_weight_single_sample_step(self):
        data = Dataset(np.array([[1.0, 0.0]]), np.array([[0.0, 1.0]]))
        stepped = one_step(zero_weights(2, 4), data, 1.0)
        expected = -0.5 * np.array([[1.0, 0.0], [-1.0, 0.0]])
        for k in range(4):
            assert np.allclose(stepped.layers[k], expected, atol=1e-16)

    def test_descent_on_random_instances(self):
        for seed in range(5):
            data, w = small_instance(seed)
            before = objective(data, w)
            after = objective(data, one_step(w, data, 1e-3))
            assert after < before

    def test_input_unmodified(self):
        data, w = small_instance()
        baseline = w.layers.copy()
        one_step(w, data, 0.1)
        assert np.array_equal(w.layers, baseline)

    def test_update_identity_bitwise(self):
        data, w = small_instance(3)
        eta = 0.05
        grad = grad_objective(data, w)
        stepped = one_step(w, data, eta)
        assert np.array_equal(stepped.layers, w.layers - eta * grad.layers)


class TestTrain:
    def test_zero_steps_single_row(self):
        data, w = small_instance()
        final, log = train(w, data, Schedule("constant", 0.1), 0)
        assert np.array_equal(final.layers, w.layers)
        assert len(log.t) == 1 and log.t[0] == 0
        assert log.loss[0] == pytest.approx(objective(data, w), rel=1e-15)

    def test_interpolating_targets_loss_zero(self):
        data, w = small_instance()
        interp = Dataset(data.xs, forward_batch(data.xs, w).output)
        _, log = train(w, interp, Schedule("constant", 0.1), 5)
        assert np.all(log.loss == 0.0)

    def test_one_step_matches_gd_step(self):
        data, w = small_instance(7)
        final, log = train(w, data, Schedule("constant", 0.02), 1)
        assert np.array_equal(final.layers, w.layers - 0.02 * grad_objective(data, w).layers)
        assert np.array_equal(log.t, [0, 1]) and np.array_equal(log.eta, [0.02, 0.02])

    def test_stride_logging_keeps_final_row(self, tmp_path):
        # every step is logged, the final one too; a log of every third step
        # plus the final one (t = 0, 3, 6, 7) is refused
        data, w = small_instance()
        _, log = train(w, data, Schedule("constant", 0.01), 7)
        assert list(log.t) == list(range(8))
        assert np.array_equal(log.eta, [0.01] * 8)
        path = tmp_path / "runlog.csv"
        save_runlog(log, path)
        keep_log_rows(path, [0, 3, 6, 7])
        message = re.escape(f"run log steps must be 0, 1, 2, ... in {path}")
        with pytest.raises(InvalidInputError, match=message):
            load_runlog(path)

    def test_every_iterate_goes_through_the_gradient_pass(self, monkeypatch):
        # T updates, T + 1 gradient passes, w_T's too, and no forward pass
        # outside them; each logged loss is its pass's
        passes, forwards = [], []
        real_pass, real_forward = training._gradient_pass, autograd.forward_batch

        def counted_pass(*args):
            adjoint, dgrad, value = real_pass(*args)
            passes.append(value)
            return adjoint, dgrad, value

        def counted_forward(*args, **kwargs):
            forwards.append(1)
            return real_forward(*args, **kwargs)
        monkeypatch.setattr(training, "_gradient_pass", counted_pass)
        monkeypatch.setattr(autograd, "forward_batch", counted_forward)
        data, w = small_instance(9)
        T = 4
        _, log = train(w, data, Schedule("constant", 0.05), T)
        assert not log.failed and list(log.t) == list(range(T + 1))
        assert len(passes) == len(forwards) == T + 1
        assert list(log.loss) == passes

    def test_row_norm_growth_bound_each_step(self):
        # the paper's one-step bound: sqrt(L/2) |row_m(A_k)| grows by at most
        # eta sqrt(L) delta / sqrt(2) * sqrt(drive_k) on every step
        data, w0 = small_instance(5)
        sched, L = Schedule("constant", 0.1), w0.depth
        iterates = [reference_iterate(w0, data, sched, t) for t in range(31)]
        for t, (w, w_next) in enumerate(zip(iterates, iterates[1:])):
            drive = (sched.rate(t) * math.sqrt(L) * w.delta / math.sqrt(2.0)
                     * np.sqrt(row_growth_drive(data, w)))
            f_before = math.sqrt(0.5 * L) * np.linalg.norm(w.layers, axis=2)
            f_after = math.sqrt(0.5 * L) * np.linalg.norm(w_next.layers, axis=2)
            assert np.min(f_before + drive[:, None] - f_after) >= -1e-12

    def test_gap_norm_conservation_certified(self):
        # gbar stays within 2x of its initial value on an admissible run
        params = AssumptionParams(0.25, 2, 8, 32)
        data0 = sample_sphere_dataset(2, 8, seed=21, params=params)
        w0 = init_certified(NetworkConfig(8, 32), params, seed=22)
        data = Dataset(data0.xs, near_init_targets(data0.xs, w0, 0.0, seed=23))
        eta_cap = (1.0 / 160.0) / 2 / 8 * math.exp(-10.5 * 0.25)
        _, log = train(w0, data, Schedule("constant", 0.9 * eta_cap), 200)
        assert np.all(log.gbar <= 2.0 * log.gbar[0] + 1e-30)

    def test_overflow_marks_partial_log(self):
        data = Dataset(np.array([[1.0, 1.0]]), np.array([[0.0, 0.0]]))
        w = Weights(np.full((2, 2, 2), 5.0), 1.0)
        final, log = train(w, data, Schedule("constant", 1e6), 10,
                           activation=IDENTITY)
        assert log.failed
        assert log.fail_reason
        assert len(log.t) >= 1

    def test_trainable_delta_updates(self):
        data, w = small_instance(9)
        final, log = train(w, data, Schedule("constant", 0.05), 3,
                           delta_trainable=True)
        assert final.delta != w.delta
        assert log.delta[0] == w.delta and log.delta[-1] == final.delta


class FixedAdjoint:
    """Stands in for an ``Adjoint``: its layer gradients are a given stack."""

    def __init__(self, stack):
        self.stack = stack

    def layer_grads(self, layers, out):
        np.copyto(out, self.stack[layers])
        return out


def fixed_gradient(grads, dgrad):
    """A gradient pass for ``training`` whose ``Adjoint`` stand-in forms the
    layer gradients ``grads``, with ``dgrad`` and the loss 0.5."""
    def gradient_pass(data, w, activation, delta_trainable, blocks):
        return FixedAdjoint(grads), dgrad, 0.5
    return gradient_pass


class TestUpdateFailure:
    # (layer gradient entry, delta gradient, delta trainable, fail_reason):
    # a layer overflow, delta pushed below 0 or to nan, and both at once
    # (the layers are named first)
    @pytest.mark.parametrize("g, dgrad, trainable, reason", [
        (1e308, 0.0, False, "non-finite weights after update"),
        (0.0, 1e3, True, "scale factor left (0, inf) during update"),
        (0.0, math.nan, True, "scale factor left (0, inf) during update"),
        (1e308, 1e3, True, "non-finite weights after update"),
    ])
    def test_fail_reason(self, monkeypatch, g, dgrad, trainable, reason):
        data, w0 = small_instance(13, d=3, L=4, n=2)
        grads = np.zeros_like(w0.layers)
        grads[2, 1, 0] = g
        monkeypatch.setattr(training, "_gradient_pass",
                            fixed_gradient(grads, dgrad))
        final, log = train(w0, data, Schedule("constant", 10.0), 3,
                           delta_trainable=trainable)
        assert log.failed and log.fail_reason == reason
        assert list(log.t) == [0]
        assert final is w0


    # one update to entries of 1e156: finite weights whose squares overflow,
    # caught on the next row (T = 3) or the final one (T = 1)
    @pytest.mark.parametrize("T", [pytest.param(3, id="1-3"), pytest.param(1, id="5-1")])
    def test_overflowing_norms_fail_the_run(self, monkeypatch, T):
        data, w0 = small_instance(14, d=3, L=4, n=2)
        monkeypatch.setattr(training, "_gradient_pass",
                            fixed_gradient(np.full_like(w0.layers, -1e155), 0.0))
        final, log = train(w0, data, Schedule("constant", 10.0), T)
        assert log.failed
        assert log.fail_reason == "non-finite weight norms: fbar=inf gbar=0.0"
        assert list(log.t) == [0, 1]
        assert np.isfinite(log.fbar[0]) and np.isinf(log.fbar[1])
        assert np.all(np.isfinite(final.layers))

    def test_final_objective_overflow_keeps_w_T(self, monkeypatch):
        # the T updates succeed; only the pass of the final state, the 4th,
        # overflows
        data, w0 = small_instance(15, d=3, L=4, n=2)
        sched = Schedule("constant", 0.05)
        expected, _ = train(w0, data, sched, 3)
        passes = []
        real = training._gradient_pass

        def overflowing_last(*args):
            passes.append(1)
            if len(passes) == 4:
                raise NumericalOverflowError("final objective overflowed")
            return real(*args)
        monkeypatch.setattr(training, "_gradient_pass", overflowing_last)
        final, log = train(w0, data, sched, 3)
        assert log.failed and log.fail_reason == "final objective overflowed"
        assert list(log.t) == [0, 1, 2]
        assert np.array_equal(final.layers, expected.layers)
        assert final.delta == expected.delta

    def test_w0_overflow_keeps_the_forward_reason(self):
        # entries of 1e155: the identity forward pass overflows at w0, and so
        # do the squares behind w0's norms; the forward pass is named
        data, _ = small_instance(16, d=3, L=4, n=2)
        w0 = Weights(np.full((4, 3, 3), 1e155), 0.5)
        with pytest.raises(NumericalOverflowError) as forward_failure:
            grad_objective(data, w0, IDENTITY)
        final, log = train(w0, data, Schedule("constant", 0.1), 3, activation=IDENTITY)
        assert log.fail_reason == str(forward_failure.value)
        assert list(log.t) == [0] and np.isnan(log.loss[0])
        assert np.isinf(log.fbar[0])
        assert final is w0


def reference_train(w0, data, sched, T, activation=TANH, delta_trainable=False):
    """Reference: T allocating updates A - eta * grad, with the norm formulas
    written out. Returns the final weights and the logged columns."""
    layers, delta = w0.layers, w0.delta
    rows = []

    def log_row(t, value):
        layer_sq = np.sum(layers ** 2, axis=(1, 2))
        diff_sq = np.sum((layers[1:] - layers[:-1]) ** 2, axis=(1, 2))
        depth_one = len(layers) == 1
        rows.append((t, sched.rate(t), value, 0.5 * float(np.sum(layer_sq)),
                     0.0 if depth_one else 0.5 * len(layers) * float(np.sum(diff_sq)),
                     float(np.sqrt(np.max(layer_sq))),
                     0.0 if depth_one else float(np.sqrt(np.max(diff_sq))), delta))

    for t in range(T):
        w = Weights(layers, delta)
        log_row(t, objective(data, w, activation))
        grad = grad_objective(data, w, activation, delta_trainable)
        layers = layers - sched.rate(t) * grad.layers
        if delta_trainable:
            delta = delta - sched.rate(t) * grad.delta_grad
    log_row(T, objective(data, Weights(layers, delta), activation))
    return Weights(layers, delta), [np.asarray(col) for col in zip(*rows)]


def reference_iterate(w0, data, sched, steps, activation=TANH, delta_trainable=False):
    """The weights after ``steps`` allocating updates, as in ``reference_train``,
    without evaluating the objective at the result."""
    w = w0
    for t in range(steps):
        grad = grad_objective(data, w, activation, delta_trainable)
        delta = w.delta - sched.rate(t) * grad.delta_grad if delta_trainable else w.delta
        w = Weights(w.layers - sched.rate(t) * grad.layers, delta)
    return w


def reference_layer_gaps(w0, data, sched, T, activation, delta_trainable):
    """Per-layer gaps of every iterate, from the allocating formulas."""
    L = w0.depth
    iterates = [reference_iterate(w0, data, sched, t, activation, delta_trainable)
                for t in range(T + 1)]
    return np.asarray([0.5 * L ** 2 * np.sum((w.layers[1:] - w.layers[:-1]) ** 2,
                                              axis=(1, 2)) for w in iterates])


class TestInPlaceUpdate:
    # a trace block holds (2L+1) N d floats: more than the L d^2 of a layer
    # stack when N > d/2, less when N < d/2
    @pytest.mark.parametrize("L, activation, trainable, sched, d, n, log_layers", [
        pytest.param(1, TANH, False, Schedule("constant", 0.1), 4, 3, False,
                     id="1-activation0-False-sched0"),
        pytest.param(9, TANH, True, Schedule("inverse_decay", 0.05), 4, 3, False,
                     id="9-activation1-True-sched1"),
        pytest.param(16, IDENTITY, False, Schedule("constant", 0.02), 4, 3, False,
                     id="16-activation2-False-sched2"),
        pytest.param(40, TANH, False, Schedule("constant", 0.1), 4, 3, False,
                     id="40-activation3-False-sched3"),
        pytest.param(24, TANH, False, Schedule("constant", 0.1), 6, 5, False,
                     id="trace_sized_block"),
        pytest.param(24, TANH, False, Schedule("constant", 0.1), 8, 2, False,
                     id="stack_sized_block"),
        pytest.param(1, TANH, True, Schedule("constant", 0.1), 6, 1, False,
                     id="depth_one_stack_sized_block"),
        pytest.param(12, TANH, True, Schedule("inverse_decay", 0.05), 5, 3, True,
                     id="log_layers_trainable_delta"),
        pytest.param(10, IDENTITY, True, Schedule("constant", 0.02), 6, 2, True,
                     id="identity_log_layers"),
    ])
    def test_train_bitwise_equal_to_reference_steps(self, L, activation, trainable, sched,
                                                    d, n, log_layers):
        data, w0 = small_instance(11, d=d, L=L, n=n)
        final, log = train(w0, data, sched, 6, activation, trainable, log_layers)
        ref_final, ref_cols = reference_train(w0, data, sched, 6, activation, trainable)
        assert np.array_equal(final.layers, ref_final.layers)
        assert final.delta == ref_final.delta
        logged = (log.t, log.eta, log.loss, log.fbar, log.gbar, log.finf,
                  log.neighbour_max, log.delta)
        for observed, expected in zip(logged, ref_cols):
            assert np.array_equal(observed, expected)
        if log_layers:
            gaps = reference_layer_gaps(w0, data, sched, 6, activation, trainable)
            assert np.array_equal(log.g_layers, gaps)

    # (activation, trainable, logged steps, fail_reason, updates before the
    # failure): a forward pass that overflows after three updates, and an
    # update that sends delta out of (0, inf) after one
    @pytest.mark.parametrize("activation, trainable, steps, reason, updates", [
        (IDENTITY, False, [0, 1, 2], "non-finite hidden state at layer 2", 3),
        (TANH, True, [0, 1], "scale factor left (0, inf) during update", 1),
    ])
    def test_overflow_returns_last_finite_iterate(self, tmp_path, activation, trainable,
                                                  steps, reason, updates):
        data, w0 = small_instance(11, d=4, L=6, n=3)
        copy = w0.layers.copy()
        sched = Schedule("constant", 1e3)
        final, log = train(w0, data, sched, 12, activation, trainable)
        assert log.failed and log.fail_reason == reason
        assert list(log.t) == steps
        expected = reference_iterate(w0, data, sched, updates, activation, trainable)
        path = tmp_path / "weights_L6.bin"
        save_weights(final, path)
        for w in (final, load_weights(path)):
            assert np.array_equal(w.layers, expected.layers)
            assert w.delta == expected.delta
        assert np.array_equal(w0.layers, copy) and w0.delta == 6 ** -0.5

    # the update's contraction works in chunks of span layers: one short of
    # a chunk, one chunk, one layer past it, and two chunks and three layers,
    # with or without the layer gaps, with delta frozen or trainable
    @pytest.mark.parametrize("extra, log_layers, trainable", [
        pytest.param((1, -1), False, False, id="extra0-1-False-False"),
        pytest.param((1, 0), False, False, id="extra1-1-False-False"),
        pytest.param((1, 1), False, False, id="extra2-1-False-False"),
        pytest.param((2, 3), False, False, id="extra3-1-False-False"),
        pytest.param((2, 3), True, False, id="extra4-3-True-False"),
        pytest.param((2, 3), True, True, id="extra5-3-True-True"),
    ])
    def test_bitwise_at_chunk_edges(self, monkeypatch, extra, log_layers, trainable):
        d, n, T = 20, 2, 7
        span = layer_span(10 ** 6, (d * d + 2 * n * d) * 8)
        L = extra[0] * span + extra[1]
        chunks = []
        real = autograd.Adjoint.layer_grads

        def recorded(self, layers, out):
            chunks.append((layers.start, layers.stop))
            return real(self, layers, out)
        monkeypatch.setattr(autograd.Adjoint, "layer_grads", recorded)
        data, w0 = small_instance(17, d=d, L=L, n=n)
        sched = Schedule("constant", 0.05)
        final, log = train(w0, data, sched, T, log_layers=log_layers,
                           delta_trainable=trainable)
        starts = list(range(0, L, span))
        assert chunks == T * [(a, min(a + span, L)) for a in starts]

        ref_final, ref_cols = reference_train(w0, data, sched, T, delta_trainable=trainable)
        assert not log.failed and np.array_equal(final.layers, ref_final.layers)
        assert final.delta == ref_final.delta
        assert list(log.t) == list(range(T + 1))
        for observed, expected in zip((log.t, log.eta, log.loss, log.fbar, log.gbar,
                                       log.finf, log.neighbour_max, log.delta), ref_cols):
            assert np.array_equal(observed, expected)
        if log_layers:
            gaps = reference_layer_gaps(w0, data, sched, T, TANH, trainable)
            assert np.array_equal(log.g_layers, gaps)

    # a learning rate of inf at step `updates` sends the layers to inf or
    # nan; that update has already written over w_updates, which the run
    # recomputes from w0
    @pytest.mark.parametrize("trainable, updates", [(False, 2), (True, 3), (False, 0)])
    def test_failed_update_returns_last_finite_iterate(self, trainable, updates):
        class Jump(Schedule):
            def rate(self, t):
                return math.inf if t == updates else super().rate(t)

        data, w0 = small_instance(18, d=4, L=9, n=3)
        sched = Jump("constant", 0.05)
        final, log = train(w0, data, sched, 6, delta_trainable=trainable)
        assert log.fail_reason == "non-finite weights after update"
        assert list(log.t) == list(range(updates + 1))
        expected = reference_iterate(w0, data, Schedule("constant", 0.05), updates,
                                     TANH, trainable)
        assert np.array_equal(final.layers, expected.layers)
        assert final.delta == expected.delta
        assert (final is w0) == (updates == 0)

    # a delta gradient of 1e300 at step `updates` sends delta below 0; that
    # update writes no layer, so the run needs no second pass for w_updates
    @pytest.mark.parametrize("updates", [0, 3])
    def test_scale_factor_failure_keeps_the_layers(self, monkeypatch, updates):
        passes = []
        real = training._gradient_pass

        def counted(*args):
            adjoint, dgrad, value = real(*args)
            passes.append(1)
            return adjoint, (1e300 if len(passes) == updates + 1 else dgrad), value
        monkeypatch.setattr(training, "_gradient_pass", counted)
        data, w0 = small_instance(18, d=4, L=9, n=3)
        sched = Schedule("constant", 0.05)
        final, log = train(w0, data, sched, 6, delta_trainable=True)
        assert log.fail_reason == "scale factor left (0, inf) during update"
        assert len(passes) == updates + 1 and list(log.t) == list(range(updates + 1))
        expected = reference_iterate(w0, data, sched, updates, TANH, True)
        assert np.array_equal(final.layers, expected.layers)
        assert final.delta == expected.delta

    def test_inputs_unmodified(self):
        data, w0 = small_instance(12, d=4, L=8, n=3)
        copies = [w0.layers.copy(), data.xs.copy(), data.ys.copy()]
        for trainable in (False, True):
            train(w0, data, Schedule("constant", 0.1), 4, delta_trainable=trainable,
                  log_layers=True)
            train(w0, data, Schedule("constant", 0.1), 1, delta_trainable=trainable)
        for now, before in zip([w0.layers, data.xs, data.ys], copies):
            assert np.array_equal(now, before)
        assert w0.delta == 8 ** -0.5

    @pytest.mark.parametrize("T", [pytest.param(5, id="5-1"), pytest.param(7, id="7-3")])
    def test_log_layers_computes_each_iterate_once(self, monkeypatch, T):
        # each state's norms, whose neighbour differences give gbar,
        # neighbour_max and g_k, are computed once. layer_gaps is handed zero
        # layers, so gaps that did not come from the norms would be zero.
        calls = []
        real_norms, real_gaps = training.weight_norms, training.layer_gaps

        def counted(w):
            calls.append(1)
            return real_norms(w)

        def blind(w, norms):
            return real_gaps(Weights(np.zeros_like(w.layers), w.delta), norms)
        monkeypatch.setattr(training, "weight_norms", counted)
        monkeypatch.setattr(training, "layer_gaps", blind)
        data, w0 = small_instance(16, d=4, L=9, n=3)
        sched = Schedule("constant", 0.05)
        _, log = train(w0, data, sched, T, log_layers=True)
        assert not log.failed and len(log.g_layers) == len(log.t) == T + 1
        assert len(calls) == T + 1
        gaps = reference_layer_gaps(w0, data, sched, T, TANH, False)
        assert np.array_equal(log.g_layers, gaps)

    def test_steps_reuse_the_blocks(self, monkeypatch):
        # every update writes the layers into the same block, which is not
        # w0's, and every forward pass writes its hidden states into the
        # same other one, with delta frozen or trainable. The arrays are kept
        # alive, so a freed address cannot be handed out again and pass for
        # reuse.
        data, w0 = small_instance(14, d=5, L=12, n=3)
        kept = []
        real_norms, real_forward = training.weight_norms, autograd.forward_batch

        def norms(w):
            kept.append(("layers", w.layers))
            return real_norms(w)

        def forward(*args, **kwargs):
            trace = real_forward(*args, **kwargs)
            kept.append(("hidden", trace.hidden))
            return trace
        monkeypatch.setattr(training, "weight_norms", norms)
        monkeypatch.setattr(autograd, "forward_batch", forward)
        T = 7
        for trainable in (False, True):
            kept.clear()
            train(w0, data, Schedule("constant", 0.05), T, delta_trainable=trainable)
            layer_ptrs = [a.ctypes.data for role, a in kept if role == "layers"]
            hidden_ptrs = [a.ctypes.data for role, a in kept if role == "hidden"]
            assert len(layer_ptrs) == T + 1 and len(hidden_ptrs) == T + 1
            assert layer_ptrs[0] == w0.layers.ctypes.data
            assert set(layer_ptrs[1:]) == {layer_ptrs[1]} != {layer_ptrs[0]}
            assert set(hidden_ptrs) == {hidden_ptrs[0]} != {layer_ptrs[1]}

    def test_memory_flat_in_steps(self):
        # with delta frozen, a trace block of (2L+1) N d floats and the
        # weights block of L d^2 (the same size here) are about four trace
        # units, allocated once per run
        assert_memory_flat_in_steps(False, 4.5)

    def test_trace_block_holds_only_the_trace(self):
        # with delta frozen the trace block is (2L+1) N d floats, less than
        # the L d^2 of a layer stack when d > 2N: the run holds it, the
        # weights block and at most two chunk buffers at once
        d, n, L = 20, 3, 1024
        data, w0 = small_instance(16, d=d, L=L, n=n)
        sched = Schedule("constant", 0.01)
        train(w0, data, sched, 1)
        tracemalloc.start()
        try:
            train(w0, data, sched, 4)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        bound = (L * d * d + (2 * L + 1) * n * d) * 8 + 2 * CHUNK_BYTES
        assert peak <= bound, (peak, bound)

    def test_trainable_delta_blocks_hold_only_what_they_read(self):
        # a trainable delta adds L N d floats to the trace block, for
        # delta sigma' * G beside the preactivations; the update's chunk
        # buffer stays within CHUNK_BYTES, so nothing is a layer stack but
        # the weights block
        d, n, L = 20, 3, 1024
        data, w0 = small_instance(16, d=d, L=L, n=n)
        sched = Schedule("constant", 0.01)
        train(w0, data, sched, 1, delta_trainable=True)
        tracemalloc.start()
        try:
            train(w0, data, sched, 4, delta_trainable=True)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        bound = (L * d * d + (3 * L + 1) * n * d) * 8 + 2 * CHUNK_BYTES
        assert peak <= bound, (peak, bound)

    def test_memory_flat_in_steps_trainable_delta(self):
        # a trainable delta adds L N d floats to the trace block
        assert_memory_flat_in_steps(True, 5.5)


def assert_memory_flat_in_steps(trainable, bound):
    """The tracemalloc peak of a training run at L=1024 stays within
    ``bound`` trace units (L N d floats) and does not grow with T."""
    d, n, L = 20, 10, 1024
    data, w0 = small_instance(15, d=d, L=L, n=n)
    unit = L * n * d * 8
    sched = Schedule("constant", 0.01)
    train(w0, data, sched, 1, delta_trainable=trainable)
    peaks = []
    for T in (3, 8):
        tracemalloc.start()
        try:
            train(w0, data, sched, T, delta_trainable=trainable)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        peaks.append(peak)
    # the longer run differs only by its few more run-log rows
    assert peaks[1] <= bound * unit, peaks[1] / unit
    assert abs(peaks[1] - peaks[0]) <= 0.001 * unit, (peaks[0] / unit, peaks[1] / unit)


class TestLrFeasibility:
    def test_caps(self):
        params = AssumptionParams(0.25, 2, 16, 256)
        rows = {r.name: r
                for r in lr_feasibility(params, Schedule("constant", 1e-5), 100)}
        assert rows["lr_per_step"].bound == pytest.approx(
            (1 / 160) / 2 / 16 * math.exp(-10.5 * 0.25), rel=1e-12)
        assert rows["lr_sum"].bound == pytest.approx(math.log(256) / 16, rel=1e-12)
        assert all(r.passed for r in rows.values())

    def test_constant_largest_t_floor(self):
        params = AssumptionParams(0.1, 2, 4, 64)
        sched = Schedule("constant", 1e-4)
        rows = lr_feasibility(params, sched, 10)
        assert all(r.context["largest_feasible_T"] == math.floor(
            math.log(64) / 4 / 1e-4) for r in rows)

    def test_inverse_decay_matches_bruteforce(self):
        for eta0, budget in ((0.12, 1.04), (0.3, 2.0), (0.07, 0.9)):
            sched = Schedule("inverse_decay", eta0)
            t = 0
            acc = 0.0
            while acc + eta0 / (t + 1) <= budget:
                acc += eta0 / (t + 1)
                t += 1
            assert largest_sum_feasible_T(sched, budget) == t, (eta0, budget)

    def test_constant_largest_sum_t(self):
        assert largest_sum_feasible_T(Schedule("constant", 0.05), 1.04) == 20

    @pytest.mark.parametrize("kind", ["constant", "inverse_decay"])
    def test_subnormal_eta_reaches_the_cap(self, kind):
        # log(2) / 5e-324 overflows to inf
        assert largest_sum_feasible_T(Schedule(kind, 5e-324), math.log(2)) == 1e18

    def test_per_step_cap_gates_largest_t(self):
        # eta(0) above the per-step cap means no admissible horizon at all
        params = AssumptionParams(0.1, 2, 4, 64)
        rows = lr_feasibility(params, Schedule("inverse_decay", 0.12), 10)
        assert all(r.context["largest_feasible_T"] == 0.0 for r in rows)

    def test_zero_eta_trivially_feasible(self):
        params = AssumptionParams(0.1, 2, 4, 64)
        rows = lr_feasibility(params, Schedule("constant", 0.0), 1000)
        assert all(r.passed for r in rows)
        assert all(math.isinf(r.context["largest_feasible_T"]) for r in rows)

    def test_oversized_eta_infeasible_from_start(self):
        params = AssumptionParams(0.1, 2, 4, 64)
        rows = {r.name: r
                for r in lr_feasibility(params, Schedule("constant", 1.0), 5)}
        assert not rows["lr_per_step"].passed
        assert rows["lr_per_step"].context["largest_feasible_T"] == 0


class TestRunLogPersistence:
    def test_round_trip(self, tmp_path):
        data, w = small_instance(11)
        _, log = train(w, data, Schedule("inverse_decay", 0.05), 6)
        path = tmp_path / "runlog.csv"
        save_runlog(log, path)
        loaded = load_runlog(path)
        for name in ("t", "eta", "loss", "fbar", "gbar", "finf",
                     "neighbour_max", "delta"):
            assert np.array_equal(getattr(loaded, name), getattr(log, name)), name
        assert not loaded.failed and loaded.fail_reason is None

    def test_failed_status_round_trips(self, tmp_path):
        data, w = small_instance(11)
        _, log = train(w, data, Schedule("constant", 1e12), 8, activation=IDENTITY)
        assert log.failed
        path = tmp_path / "runlog.csv"
        save_runlog(log, path)
        loaded = load_runlog(path)
        assert loaded.failed and loaded.fail_reason == log.fail_reason
        assert np.array_equal(loaded.loss, log.loss)

    def test_non_finite_numbers_only_in_the_last_row_of_a_failed_run(self, tmp_path):
        # a failed run's last row may hold NaN and inf (w0's fallback row
        # with overflowing norms); a completed run's may not, nor may any
        # earlier row of a failed run
        data, _ = small_instance(16, d=3, L=4, n=2)
        w0 = Weights(np.full((4, 3, 3), 1e155), 0.5)
        _, failed = train(w0, data, Schedule("constant", 0.1), 3, activation=IDENTITY)
        path = tmp_path / "runlog.csv"
        save_runlog(failed, path)
        loaded = load_runlog(path)
        assert np.isnan(loaded.loss[0]) and np.isinf(loaded.fbar[0])
        assert loaded.fail_reason == failed.fail_reason

        data, w = small_instance(11)
        _, completed = train(w, data, Schedule("constant", 0.05), 3)
        # the last and the first row of a completed run, and row 1 of 0..3
        # marked failed
        for reason, row in ((None, 3), (None, 0), ("overflow", 1)):
            completed.fail_reason = reason
            completed.loss[row] = math.inf
            save_runlog(completed, path)
            with pytest.raises(InvalidInputError, match="non-finite number in run log"):
                load_runlog(path)
            completed.loss[row] = 0.5

    def test_layer_gap_file(self, tmp_path):
        data, w = small_instance(12, L=4)
        _, log = train(w, data, Schedule("constant", 0.05), 2, log_layers=True)
        path = tmp_path / "gaps.csv"
        save_layer_gaps(log, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "t,k,g_k"
        assert len(lines) == 1 + 3 * 3  # three logged rows, L-1 = 3 gaps each
