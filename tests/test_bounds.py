import collections
import math
import re
import tracemalloc

import numpy as np
import pytest

from helpers import keep_log_rows, neighbour_gradient_residual, sigma_prime, zero_weights
from resnetlab import autograd, bounds, network
from resnetlab.autograd import grad_objective, objective
from resnetlab.bounds import (certify_forward, certify_gradient_lower,
                              certify_gradient_upper, certify_hessian,
                              certify_loss_bound, certify_run_envelope,
                              check_assumptions, envelope_drift,
                              envelope_rate, full_lower_coefficient,
                              hessian_upper_bound, make_report,
                              meaningful_failures, report_to_dict,
                              vacuous_depth_threshold, write_reports_jsonl,
                              load_reports_jsonl)
from resnetlab.data import (AssumptionParams, Dataset, init_certified,
                            near_init_targets, sample_sphere_dataset)
from resnetlab.errors import InvalidInputError
from resnetlab.network import (IDENTITY, TANH, NetworkConfig, Weights,
                               forward, forward_batch, jacobian_stack, layer_squares)
from resnetlab.training import (Schedule, load_runlog, save_runlog, train,
                                weight_norms)


def unit_rows(rng, n, d):
    rows = rng.standard_normal((n, d))
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


def certified_draw(rng, d, L, c_alpha=1.0, frac=None):
    layers = rng.standard_normal((L, d, d))
    scale = (frac if frac is not None else rng.uniform(0.1, 1.0))
    layers *= scale * c_alpha * L ** -0.5 / np.linalg.norm(
        layers, axis=(1, 2), keepdims=True)
    return Weights(layers, L ** -0.5)


def evaluation(data, w):
    """A draw's (objective, per-layer gradient squares, weight norms), each
    computed on its own."""
    return objective(data, w), layer_squares(grad_objective(data, w).layers), weight_norms(w)


def by_name(reports, name):
    return next(r for r in reports if r.name == name)


class TestReportSemantics:
    def test_upper_slack(self):
        r = make_report("x", 1.0, 2.0, 1e-9)
        assert r.slack == 1.0 and r.passed

    def test_lower_slack(self):
        r = make_report("x", 2.0, 1.0, 1e-9, direction="lower")
        assert r.slack == 1.0 and r.passed

    def test_zero_vs_zero_passes(self):
        assert make_report("x", 0.0, 0.0, 1e-9).passed

    def test_relative_tolerance(self):
        assert make_report("x", 1.0 + 1e-12, 1.0, 1e-9).passed
        assert not make_report("x", 1.0 + 1e-6, 1.0, 1e-9).passed

    def test_non_finite_observed_fails(self):
        assert not make_report("x", math.inf, 1.0, 1e-9).passed
        assert not make_report("x", -math.inf, 1.0, 1e-9, direction="lower").passed
        assert not make_report("x", math.nan, 1.0, 1e-9).passed

    # a NaN on either side, in either direction, gives tol NaN
    @pytest.mark.parametrize("observed, bound", [(math.nan, 1.0), (1.0, math.nan),
                                                 (math.nan, math.nan)])
    @pytest.mark.parametrize("direction", ["upper", "lower"])
    def test_nan_side_gives_nan_tol(self, observed, bound, direction):
        r = make_report("x", observed, bound, 1e-9, direction=direction)
        assert math.isnan(r.tol) and math.isnan(r.slack) and not r.passed

    def test_jsonl_round_trip(self, tmp_path):
        reports = [make_report("a", 1.0, 2.0, 1e-9, context={"k": 3}),
                   make_report("b", math.nan, -math.inf, 1e-9, context={"J0": math.inf})]
        path = tmp_path / "r.jsonl"
        write_reports_jsonl(reports, path)
        loaded = load_reports_jsonl(path)
        assert loaded[0]["name"] == "a" and loaded[0]["pass"] is True
        assert loaded[0]["context"] == {"k": 3}
        # non-finite values are written as strings and read back as floats
        assert '"observed": "nan"' in path.read_text()
        assert math.isnan(loaded[1]["observed"]) and loaded[1]["bound"] == -math.inf
        assert loaded[1]["context"] == {"J0": math.inf}


class TestCertifyForward:
    def test_zero_weights_all_pass(self):
        w = zero_weights(4, 8)
        x = np.array([0.5, 0.5, 0.5, 0.5])
        trace = forward(x, w, TANH)
        reports = certify_forward(trace, w, weight_norms(w), c_alpha=1.0)
        assert all(r.passed for r in reports)
        assert by_name(reports, "forward_hidden_lower").slack > 0

    def test_bound_constants(self):
        w = zero_weights(3, 8)
        x = np.array([1.0, 0.0, 0.0])
        trace = forward(x, w, TANH)
        reports = certify_forward(trace, w, weight_norms(w), c_alpha=1.0)
        assert by_name(reports, "forward_hidden_lower").bound == pytest.approx(
            0.135335, abs=1e-6)
        assert by_name(reports, "forward_hidden_upper").bound == pytest.approx(
            3.004166, abs=1e-6)
        assert by_name(reports, "forward_jacobian_columns").bound == pytest.approx(
            math.e, rel=1e-12)

    def test_hypothesis_violation_marks_inapplicable(self):
        rng = np.random.default_rng(0)
        layers = rng.standard_normal((4, 3, 3))  # far above c_alpha L^-1/2
        w = Weights(layers, 0.5)
        x = unit_rows(rng, 1, 3)[0]
        trace = forward(x, w, TANH)
        reports = certify_forward(trace, w, weight_norms(w), c_alpha=1.0)
        assert not by_name(reports, "hyp_weight_scale").passed
        assert not by_name(reports, "forward_hidden_upper").applicable
        assert not meaningful_failures(reports)  # inapplicable is not failed

    def test_jacobians_recomputed_when_missing(self):
        # a trace carries no Jacobians: the certifier builds them with jacobian_stack
        rng = np.random.default_rng(1)
        w = certified_draw(rng, 3, 6)
        x = unit_rows(rng, 1, 3)[0]
        trace = forward(x, w, TANH)
        reports = certify_forward(trace, w, weight_norms(w), c_alpha=1.0)
        report = by_name(reports, "forward_jacobian_columns")
        assert report.passed
        col_norms = np.linalg.norm(jacobian_stack(w, sigma_prime(trace)), axis=1)
        assert report.observed == col_norms[report.context["k"], report.context["m"]]
        assert report.observed == np.max(col_norms)

    def test_random_sweep_no_failures(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            w = certified_draw(rng, 8, 16)
            x = unit_rows(rng, 1, 8)[0]
            trace = forward(x, w, TANH)
            reports = certify_forward(trace, w, weight_norms(w), 1.0)
            assert not meaningful_failures(reports)


class TestCertifyGradientUpper:
    def test_zero_weight_closed_form(self):
        rng = np.random.default_rng(3)
        d, L, n = 4, 8, 3
        data = Dataset(unit_rows(rng, n, d), unit_rows(rng, n, d))
        w = zero_weights(d, L)
        reports = certify_gradient_upper(w, *evaluation(data, w), c_alpha=1.0)
        report = by_name(reports, "gradient_upper")
        residual = data.xs - data.ys
        expected = (w.delta ** 2) * float(np.sum(
            ((residual.T @ data.xs) / n) ** 2))
        assert report.observed == pytest.approx(expected, rel=1e-12)
        value = objective(data, w)
        assert report.bound == pytest.approx(
            2 * d * math.exp(4.2) / L * value, rel=1e-12)
        assert report.passed

    def test_interpolating_targets_both_sides_zero(self):
        rng = np.random.default_rng(4)
        w = certified_draw(rng, 3, 5)
        xs = unit_rows(rng, 2, 3)
        data = Dataset(xs, forward_batch(xs, w).output)
        reports = certify_gradient_upper(w, *evaluation(data, w), 1.0)
        report = by_name(reports, "gradient_upper")
        assert report.observed == 0.0 and report.bound == 0.0 and report.passed

    def test_random_sweep_no_failures(self):
        rng = np.random.default_rng(5)
        data = Dataset(unit_rows(rng, 4, 8), unit_rows(rng, 4, 8))
        for _ in range(100):
            w = certified_draw(rng, 8, 16)
            reports = certify_gradient_upper(w, *evaluation(data, w), 1.0)
            assert not meaningful_failures(reports)


class TestCertifyGradientLower:
    def make_separated(self, rng, d=16, N=2, c0=0.25):
        params = AssumptionParams(c0, N, d, 32)
        data = sample_sphere_dataset(N, d, int(rng.integers(1 << 30)), params)
        return data, params

    def test_interpolating_targets_both_sides_zero(self):
        rng = np.random.default_rng(6)
        data, params = self.make_separated(rng)
        w = certified_draw(rng, 16, 32, c_alpha=params.c0, frac=0.2)
        interp = Dataset(data.xs, forward_batch(data.xs, w).output)
        reports = certify_gradient_lower(interp, w, *evaluation(interp, w), params)
        first = by_name(reports, "gradient_lower_first_layer")
        assert first.observed == 0.0 and first.bound == 0.0

    def test_zero_weights_certified_data(self):
        rng = np.random.default_rng(7)
        data, params = self.make_separated(rng)
        w = zero_weights(16, 32)
        reports = certify_gradient_lower(data, w, *evaluation(data, w), params)
        first = by_name(reports, "gradient_lower_first_layer")
        assert first.applicable and first.passed
        value = objective(data, w)
        assert first.bound == pytest.approx(
            math.exp(-2 * params.c0) / (4 * params.N * 32) * value, rel=1e-12)

    def test_full_bound_vacuous_at_small_depth(self):
        # coefficient sign flips below 272 N d c0^4 e^{8.4 c0}
        params = AssumptionParams(1.0, 4, 8, 16)
        assert full_lower_coefficient(params) < 0
        assert 16 < vacuous_depth_threshold(params)
        rng = np.random.default_rng(8)
        data = Dataset(unit_rows(rng, 4, 8), unit_rows(rng, 4, 8))
        w = zero_weights(8, 16)
        reports = certify_gradient_lower(data, w, *evaluation(data, w), params)
        full = by_name(reports, "gradient_lower_full")
        assert full.vacuous
        assert not meaningful_failures([full])

    def test_non_unit_data_makes_bounds_inapplicable(self):
        # inputs of norm 2 break the unit-data hypothesis, as they break
        # admissibility clause (iii)
        rng = np.random.default_rng(10)
        data, params = self.make_separated(rng)
        doubled = Dataset(2.0 * data.xs, data.ys)
        w = zero_weights(16, 32)
        reports = certify_gradient_lower(doubled, w, *evaluation(doubled, w), params)
        unit = by_name(reports, "hyp_unit_data")
        assert unit.observed == pytest.approx(1.0) and not unit.passed
        assert not by_name(reports, "gradient_lower_first_layer").applicable
        assert not by_name(check_assumptions(doubled, w, params),
                           "assumption_iii_unit_norms").passed

    def test_random_sweep_no_failures(self):
        rng = np.random.default_rng(9)
        data, params = self.make_separated(rng)
        for _ in range(60):
            w = certified_draw(rng, 16, 32, c_alpha=params.c0)
            # keep the neighbouring-layer gaps inside their cap
            w = Weights(np.repeat(w.layers[:1], 32, axis=0), w.delta)
            reports = certify_gradient_lower(data, w, *evaluation(data, w), params)
            assert not meaningful_failures(reports)


class TestCertifyHessian:
    def test_bound_value(self):
        rng = np.random.default_rng(10)
        data = Dataset(unit_rows(rng, 2, 8), unit_rows(rng, 2, 8))
        reports = certify_hessian(data, zero_weights(8, 16), c_alpha=1.0)
        report = by_name(reports, "hessian_spectral")
        assert report.bound == pytest.approx(40.0 * math.exp(4.3), rel=1e-12)
        assert hessian_upper_bound(8, 1.0) == report.bound
        assert report.passed

    def test_identity_quadratic_exact(self):
        x = np.array([0.6, -0.8])
        data = Dataset(x[None, :], np.array([[1.0, 0.0]]))
        w = zero_weights(2, 1, delta=1.0)
        reports = certify_hessian(data, w, c_alpha=1.0, activation=IDENTITY)
        report = by_name(reports, "hessian_spectral")
        assert report.observed == pytest.approx(1.0, rel=1e-4)
        assert report.context["converged"]

    def test_random_sweep_no_failures(self):
        rng = np.random.default_rng(11)
        data = Dataset(unit_rows(rng, 3, 6), unit_rows(rng, 3, 6))
        for _ in range(10):
            w = certified_draw(rng, 6, 12)
            assert not meaningful_failures(certify_hessian(data, w, 1.0))

    def test_memory_fixed_in_products(self, monkeypatch):
        # one stack is L d^2 floats: the estimate's iterate, product and
        # perturbed stack, plus one trace block of about a stack, however
        # many products it takes (measured 4.17); five (four probes) keep the
        # traced run short
        monkeypatch.setattr(bounds, "HESSIAN_PROBES", 4)
        d, n, L = 20, 10, 256
        rng = np.random.default_rng(12)
        data = Dataset(unit_rows(rng, n, d), unit_rows(rng, n, d))
        w = certified_draw(rng, d, L, c_alpha=0.25, frac=0.5)
        stack = L * d * d * 8
        tracemalloc.start()
        try:
            certify_hessian(data, w, 0.25)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 4.5 * stack, peak / stack


class TestRunEnvelope:
    def build_certified_run(self, L=64, T=300, seed=31, eta0=None):
        params = AssumptionParams(0.25, 2, 16, L)
        data0 = sample_sphere_dataset(2, 16, seed=seed, params=params)
        w0 = init_certified(NetworkConfig(16, L), params, seed=seed + 1)
        data = Dataset(data0.xs, near_init_targets(data0.xs, w0, 0.0, seed=seed + 2))
        if eta0 is None:
            eta0 = 0.9 * (1.0 / 160.0) / params.N / params.d * math.exp(-10.5 * params.c0)
        sched = Schedule("constant", eta0)
        _, log = train(w0, data, sched, T)
        return data, w0, log, params, sched, T, TANH

    def test_certified_run_all_pass(self):
        reports = certify_run_envelope(*self.build_certified_run())
        assert not meaningful_failures(reports)
        # the conclusions apply only when every premise, the rate caps too, passes
        assert all(r.applicable for r in reports)

    def test_rows_in_order_each_carrying_L(self):
        reports = certify_run_envelope(*self.build_certified_run(T=5))
        assert [r.name for r in reports] == [
            "assumption_i_activation", "assumption_ii_delta_scaling",
            "assumption_iii_unit_norms", "assumption_iii_separation",
            "assumption_iv_row_norms", "assumption_v_initial_loss",
            "lr_per_step", "lr_sum", "hyp_depth_log32", "hyp_depth_log",
            "hyp_run_completed", "envelope_loss", "induction_loss_doubling",
            "induction_weight_scale", "induction_neighbour_gap"]
        assert all(r.context["L"] == 64 for r in reports)
        assert [r.hypothesis for r in reports] == [True] * 11 + [False] * 4

    @pytest.mark.parametrize("premise", ["assumption_v_initial_loss", "lr_per_step"])
    def test_a_failed_premise_makes_the_conclusions_inapplicable(self, premise):
        data, w0, log, params, sched, T, act = self.build_certified_run(T=5)
        if premise == "assumption_v_initial_loss":
            # targets far from the initial outputs: J0 above its cap
            data = Dataset(data.xs, -data.ys)
        else:
            sched = Schedule("constant", 1.0)
        reports = certify_run_envelope(data, w0, log, params, sched, T, act)
        assert not by_name(reports, premise).passed
        conclusions = [r for r in reports if not r.hypothesis]
        assert len(conclusions) == 4 and not any(r.applicable for r in conclusions)
        assert all(r.applicable for r in reports if r.hypothesis)

    def test_envelope_trivial_at_t0(self):
        reports = certify_run_envelope(*self.build_certified_run(T=0))
        env = by_name(reports, "envelope_loss")
        assert env.observed == pytest.approx(env.bound, rel=1e-12)

    def test_interpolating_run_passes(self):
        # admissible init with exactly interpolating targets: loss stays 0
        rng = np.random.default_rng(13)
        params = AssumptionParams(0.25, 2, 16, 64)
        w = init_certified(NetworkConfig(16, 64), params, seed=14)
        xs = unit_rows(rng, 2, 16)
        data = Dataset(xs, forward_batch(xs, w).output)
        sched = Schedule("constant", 1e-5)
        _, log = train(w, data, sched, 10)
        reports = certify_run_envelope(data, w, log, params, sched, 10, TANH)
        assert np.all(log.loss == 0.0)
        # the outputs are not unit vectors, so assumption (iii) fails and the
        # conclusions are inapplicable; each of them still holds
        assert all(r.passed for r in reports if not r.hypothesis)

    def test_fully_logged_rates_are_the_runs_own_sums(self):
        # S_t sums the logged rates in the run's order: 0.07 added t times,
        # which is not 0.07 * t in floating point
        data, w0, log, params, sched, T, act = self.build_certified_run(T=40, eta0=0.07)
        log.loss[10] = 1e3
        env = by_name(certify_run_envelope(data, w0, log, params, sched, T, act),
                      "envelope_loss")
        s10 = 0.0
        for _ in range(10):
            s10 += 0.07
        assert s10 != 0.07 * 10
        j0 = log.loss[0]
        assert env.context["t"] == 10
        assert env.bound == (math.exp(-envelope_rate(params) * s10) * j0
                             + envelope_drift(params) * s10 / params.L * j0)

    def assert_gapped_log_refused(self, tmp_path, T, steps):
        # a saved run of T steps keeps only the rows of ``steps``, as a run
        # logged every fifth step wrote it: no rate sum is formed from it
        log = self.build_certified_run(T=T, eta0=0.07)[2]
        path = tmp_path / "runlog.csv"
        save_runlog(log, path)
        keep_log_rows(path, steps)
        message = re.escape(f"run log steps must be 0, 1, 2, ... in {path}")
        with pytest.raises(InvalidInputError, match=message):
            load_runlog(path)

    def test_strided_rates_come_from_the_schedule(self, tmp_path):
        self.assert_gapped_log_refused(tmp_path, 40, range(0, 41, 5))

    @pytest.mark.parametrize("T", [2, 5])
    def test_run_no_longer_than_its_stride_uses_the_schedule(self, tmp_path, T):
        # logged at t = 0 and t = T only
        self.assert_gapped_log_refused(tmp_path, T, [0, T])

    def test_strided_run_certifies_as_its_saved_log(self, tmp_path):
        # constant rate 0.07, with the loss at t = 10 doctored so that the
        # worst envelope point lies inside the run
        data, w0, log, params, sched, T, act = self.build_certified_run(T=40, eta0=0.07)
        log.loss[10] = 1e3
        path = tmp_path / "runlog.csv"
        save_runlog(log, path)
        in_memory = certify_run_envelope(data, w0, log, params, sched, T, act)
        loaded = certify_run_envelope(data, w0, load_runlog(path), params, sched, T, act)
        assert by_name(in_memory, "envelope_loss").context["t"] == 10
        assert ([report_to_dict(r) for r in in_memory]
                == [report_to_dict(r) for r in loaded])

    def test_envelope_formula_values(self):
        params = AssumptionParams(0.25, 2, 16, 256)
        assert envelope_rate(params) == pytest.approx(
            math.exp(-0.5) / 64, rel=1e-12)
        assert envelope_drift(params) == pytest.approx(
            34 * 16 * 0.25 ** 4 * math.exp(1.6), rel=1e-12)


def sweep_inputs(d, N, L):
    """(dataset, params) of a draw sweep at depth L."""
    params = AssumptionParams(0.25, N, d, L)
    return sample_sphere_dataset(N, d, 0, params, enforce_separation=False), params


def draw_sweep(d, N, L, draws, rng=None):
    data, params = sweep_inputs(d, N, L)
    return bounds.certify_draws(data, params, rng or np.random.default_rng(2), draws, TANH)


def sweep_peak_stacks(d, N, L, draws):
    """Traced peak of one sweep, in (L, d, d) float64 stacks. The dataset
    and the generator are built before tracing starts, so that the first
    import of ``numpy.random``, in whichever test runs first, is not
    counted."""
    data, params = sweep_inputs(d, N, L)
    rng = np.random.default_rng(2)
    tracemalloc.start()
    try:
        bounds.certify_draws(data, params, rng, draws, TANH)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / (L * d * d * 8)


class TestDrawPasses:
    def test_one_gradient_pass_per_draw(self, monkeypatch):
        # every binding of the three pass functions in the modules on the path
        d, N, L = 4, 3, 8
        calls = collections.Counter()
        in_hessian = False

        def count(module, name):
            real = getattr(module, name)

            def wrapper(*args, **kwargs):
                if not in_hessian:
                    key = name
                    if name == "forward_batch":
                        key = f"forward_batch_N{np.shape(args[0])[0]}"
                    calls[key] += 1
                return real(*args, **kwargs)
            monkeypatch.setattr(module, name, wrapper)

        for module in (bounds, autograd, network):
            for name in ("grad_objective_with_stats", "objective", "forward_batch"):
                if hasattr(module, name):
                    count(module, name)
        real_hessian = bounds.certify_hessian

        def hessian(*args, **kwargs):
            # its power iteration is counted by the autograd tests
            nonlocal in_hessian
            in_hessian = True
            try:
                return real_hessian(*args, **kwargs)
            finally:
                in_hessian = False
        monkeypatch.setattr(bounds, "certify_hessian", hessian)

        reports = draw_sweep(d, N, L, 3)
        assert {r.context.get("draw") for r in reports} >= {0, 1, 2}
        assert calls["grad_objective_with_stats"] == 3
        assert calls["objective"] == 0
        assert calls["forward_batch_N1"] == 3
        assert calls[f"forward_batch_N{N}"] == 3

    def test_memory_fixed_in_draws(self, monkeypatch):
        # one stack is L d^2 floats. The draws share one trace block, about a
        # stack, and free their own arrays as they end; the block is freed
        # before the Hessian estimate, whose weights, iterate, product,
        # perturbed stack and own trace block make the peak (measured 5.21).
        # Its memory does not grow with its products; five (four probes) keep
        # the traced run short
        monkeypatch.setattr(bounds, "HESSIAN_PROBES", 4)
        peak = sweep_peak_stacks(20, 10, 256, 3)
        assert peak <= 5.5, peak

    def test_memory_fixed_in_draw_phase(self, monkeypatch):
        # the draws alone: the trace block, the layer stack and the Jacobian
        # stack, which also takes each draw's gradients, allocated once, plus
        # one draw's chunk buffers (measured 3.43)
        monkeypatch.setattr(bounds, "certify_hessian", lambda *args: [])
        peak = sweep_peak_stacks(20, 10, 256, 3)
        assert peak <= 3.75, peak

    def test_gradient_squares_shared_and_exact(self, monkeypatch):
        # both gradient certifiers of a draw read one (L,) array of squares,
        # taken before the Jacobians overwrite the gradients, which equals
        # the squares of a gradient computed on its own arrays. At d > 2N the
        # trace block is smaller than a stack
        d, N, L = 6, 2, 16
        seen = collections.defaultdict(list)
        real_upper, real_lower = bounds.certify_gradient_upper, bounds.certify_gradient_lower

        def upper(w, value, grads, norms, c_alpha):
            oracle = grad_objective(data, Weights(w.layers.copy(), w.delta)).layers
            seen["upper"].append(grads)
            seen["oracle"].append(np.sum(oracle ** 2, axis=(1, 2)))
            return real_upper(w, value, grads, norms, c_alpha)

        def lower(data, w, value, grads, norms, params):
            seen["lower"].append(grads)
            return real_lower(data, w, value, grads, norms, params)

        monkeypatch.setattr(bounds, "certify_gradient_upper", upper)
        monkeypatch.setattr(bounds, "certify_gradient_lower", lower)
        data, params = sweep_inputs(d, N, L)
        bounds.certify_draws(data, params, np.random.default_rng(2), 3, TANH)
        assert len(seen["upper"]) == len(seen["lower"]) == 3
        for up, low, oracle in zip(seen["upper"], seen["lower"], seen["oracle"]):
            assert up is low and up.shape == (L,)
            assert np.array_equal(up, oracle)

    def test_draws_allocate_no_stack(self, monkeypatch):
        # every draw writes its normals, Jacobians and gradients into the
        # sweep's arrays, so what a draw allocates and frees is bounded by
        # chunk buffers and trace rows: the largest, the single-input
        # forward's chunk of scaled layers and its trace, are 0.29 and 0.10
        # of a stack here. The first draw's arrays, which may be allocated
        # once, are not counted
        monkeypatch.setattr(bounds, "certify_hessian", lambda *args: [])
        d, L = 20, 256
        rng = DrawMarks(np.random.default_rng(2))
        tracemalloc.start()
        try:
            draw_sweep(d, 10, L, 6, rng)
        finally:
            tracemalloc.stop()
        # two normal draws per certificate draw: its layers, then its input
        transients = np.asarray(rng.transients[2:]) / (L * d * d * 8)
        assert len(transients) == 10
        assert transients.max() < 0.5, transients


class DrawMarks:
    """A generator that, at each normal draw, records how far the traced
    memory rose above its level at the previous normal draw."""

    def __init__(self, rng):
        self.rng, self.start, self.transients = rng, None, []

    def standard_normal(self, *args, **kwargs):
        current, peak = tracemalloc.get_traced_memory()
        if self.start is not None:
            self.transients.append(peak - self.start)
        tracemalloc.reset_peak()
        self.start = current
        return self.rng.standard_normal(*args, **kwargs)

    def uniform(self, *args, **kwargs):
        return self.rng.uniform(*args, **kwargs)


class TestCertifierPurity:
    def test_read_only_and_repeatable(self):
        rng = np.random.default_rng(12)
        w = certified_draw(rng, 4, 8)
        baseline = w.layers.copy()
        x = unit_rows(rng, 1, 4)[0]
        data = Dataset(unit_rows(rng, 3, 4), unit_rows(rng, 3, 4))
        trace = forward(x, w, TANH)
        inputs = [data.xs.copy(), data.ys.copy()]

        def snapshot():
            return [(r.name, r.observed, r.bound, r.slack, r.passed)
                    for r in (certify_forward(trace, w, weight_norms(w), 1.0)
                              + certify_gradient_upper(w, *evaluation(data, w), 1.0)
                              + certify_hessian(data, w, 1.0))]

        first = snapshot()
        second = snapshot()
        assert first == second  # bitwise-identical reports on repeat
        assert np.array_equal(w.layers, baseline)
        assert np.array_equal(data.xs, inputs[0]) and np.array_equal(data.ys, inputs[1])


def neighbour_residual_paper_bound(trace, weights, k):
    """The paper's entrywise residual cap 2 h_{k-1,n}^2 |a_{k+1}-a_k|_F^2
    + 2 |row_n(a_k)|^4 |h_{k-1}|^4, as an (m, n) array."""
    h_prev = trace.hidden[k - 1]
    gap_sq = float(np.sum((weights.layers[k] - weights.layers[k - 1]) ** 2))
    row_norms_sq = np.sum(weights.layers[k - 1] ** 2, axis=1)
    h_sq = float(h_prev @ h_prev)
    per_n = 2.0 * h_prev ** 2 * gap_sq + 2.0 * row_norms_sq ** 2 * h_sq ** 2
    return np.broadcast_to(per_n, (weights.width, weights.width)).copy()


class TestNeighbourResidual:
    def test_decomposition_identity(self):
        # gradient gap reproduced exactly from the explicit residual
        rng = np.random.default_rng(14)
        for _ in range(20):
            d = int(rng.integers(2, 6))
            L = int(rng.integers(2, 8))
            w = certified_draw(rng, d, L)
            x = unit_rows(rng, 1, d)[0]
            y = unit_rows(rng, 1, d)[0]
            data = Dataset(x[None, :], y[None, :])
            grad = grad_objective(data, w)
            trace = forward(x, w, TANH)
            jac = jacobian_stack(w, sigma_prime(trace))
            residual = trace.output - y
            for k in range(1, L):
                xi = neighbour_gradient_residual(trace, w, k)
                g_next = jac[k + 1].T @ residual
                sdot_gap = sigma_prime(trace)[k - 1] - sigma_prime(trace)[k]
                first = w.delta * np.outer(sdot_gap, trace.hidden[k - 1]) * g_next[:, None]
                second = w.delta ** 2 * np.einsum("mni,i->mn", xi, g_next)
                gap = grad.layers[k - 1] - grad.layers[k]
                np.testing.assert_allclose(first + second, gap, rtol=1e-10,
                                           atol=1e-14)

    def test_row_aggregate_cap(self):
        # sum_n |xi_{mn}|^2 <= 4 c^2 e^{2.2c} / L under the weight-scale cap
        rng = np.random.default_rng(15)
        c_alpha = 1.0
        for _ in range(50):
            d = int(rng.integers(2, 7))
            L = int(rng.integers(2, 10))
            w = certified_draw(rng, d, L, c_alpha=c_alpha)
            x = unit_rows(rng, 1, d)[0]
            trace = forward(x, w, TANH)
            cap = 4 * c_alpha ** 2 * math.exp(2.2 * c_alpha) / L
            for k in range(1, L):
                xi = neighbour_gradient_residual(trace, w, k)
                row_sums = np.sum(xi * xi, axis=(1, 2))
                assert np.all(row_sums <= cap * (1 + 1e-9))

    @pytest.mark.xfail(strict=True, reason="the entrywise cap is fourth order "
                       "in the weights while the canonical residual has a "
                       "first-order term; only the row aggregate cap holds")
    def test_entrywise_cap_dominates(self):
        rng = np.random.default_rng(16)
        for _ in range(20):
            d = int(rng.integers(2, 6))
            L = int(rng.integers(2, 8))
            w = certified_draw(rng, d, L)
            x = unit_rows(rng, 1, d)[0]
            trace = forward(x, w, TANH)
            for k in range(1, L):
                xi = neighbour_gradient_residual(trace, w, k)
                cap = neighbour_residual_paper_bound(trace, w, k)
                assert np.all(np.sum(xi * xi, axis=2) <= cap * (1 + 1e-9))
