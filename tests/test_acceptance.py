"""Acceptance suite: one test per criterion, printing a pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines inline.
The experiment hyperparameters are fixed here (seeds included) so every run
is reproducible; wall-clock limits are asserted where the criterion sets one.
"""

import json
import math
import os
import time

import numpy as np
import pytest

import resnetlab as rl
from helpers import exhaustive_oracle
from resnetlab.analysis import (fit_power_law, mean_layer_norm,
                                scaling_limit_distance, steps_to_epsilon,
                                two_variation)
from resnetlab.bounds import (certify_forward, certify_gradient_upper,
                              certify_loss_bound, certify_run_envelope,
                              meaningful_failures)
from resnetlab.cli import main
from resnetlab.training import weight_norms


def criterion(num: int, description: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num}] {description}: {status}" + (f" ({detail})" if detail else ""))
    assert ok, f"criterion {num} failed: {description} {detail}"


def unit_rows(rng, n, d):
    rows = rng.standard_normal((n, d))
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


def affine_fit(x, y):
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    slope, intercept = np.polyfit(x, y, 1)
    pred = slope * x + intercept
    ss_res = float(np.sum((y - pred) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    return slope, 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot


@pytest.fixture(scope="module")
def figure_dataset():
    """Desk-scale training set shared by the figure-style sweeps."""
    params = rl.AssumptionParams(0.25, 8, 16, 8)
    return rl.sample_sphere_dataset(8, 16, seed=7, params=params,
                                    enforce_separation=False)


@pytest.fixture(scope="module")
def deep_sweep(figure_dataset):
    """Trained depth sweep L in {64, 256, 1024} shared by criteria 6 and 8."""
    runs = {}
    for depth in (64, 256, 1024):
        net = rl.NetworkConfig(16, depth, 0.5)
        w0 = rl.init_gaussian(net, 1.0, seed=7000 + depth)
        w, log = rl.train(w0, figure_dataset, rl.Schedule("constant", 0.1), 500)
        assert not log.failed
        runs[depth] = (w, log)
    return runs


def test_criterion_1_gradient_oracle():
    start = time.time()
    rng = np.random.default_rng(1)
    worst = 0.0
    for i in range(100):
        d = int(rng.integers(2, 9))
        depth = int(rng.integers(1, 33))
        n = int(rng.integers(1, 5))
        trainable = bool(i % 2)
        data = rl.Dataset(unit_rows(rng, n, d), unit_rows(rng, n, d))
        layers = rng.standard_normal((depth, d, d)) * 0.5 * depth ** -0.5
        w = rl.Weights(layers, depth ** -0.5)
        analytic = rl.grad_objective(data, w, delta_trainable=trainable)
        numeric = rl.finite_diff_grad(data, w, delta_trainable=trainable)
        np.testing.assert_allclose(analytic.layers, numeric.layers,
                                   rtol=1e-6, atol=1e-9)
        gap = np.abs(analytic.layers - numeric.layers) / (1e-3 + np.abs(numeric.layers))
        worst = max(worst, float(np.max(gap)))
        if trainable:
            assert analytic.delta_grad == pytest.approx(
                numeric.delta_grad, rel=1e-6, abs=1e-9)
    elapsed = time.time() - start
    criterion(1, "analytic gradient matches central differences on 100 instances",
              elapsed < 60.0, f"worst rel err {worst:.2e}, {elapsed:.1f}s")


def test_criterion_2_forward_backward_certification():
    rng = np.random.default_rng(2)
    c_alpha, depth, d = 1.0, 64, 8
    data = rl.Dataset(unit_rows(rng, 4, d), unit_rows(rng, 4, d))
    failures = 0
    reports_seen = 0
    for _ in range(1000):
        layers = rng.standard_normal((depth, d, d))
        layers *= (rng.uniform(0.05, 1.0) * c_alpha * depth ** -0.5
                   / np.linalg.norm(layers, axis=(1, 2), keepdims=True))
        w = rl.Weights(layers, depth ** -0.5)
        x = unit_rows(rng, 1, d)[0]
        trace = rl.forward(x, w, rl.TANH)
        grads, _, value = rl.grad_objective_with_stats(data, w)
        norms = weight_norms(w)
        reports = [
            *certify_forward(trace, w, norms, c_alpha),
            *certify_loss_bound(w, value, norms, c_alpha),
            *certify_gradient_upper(w, value, grads, norms, c_alpha),
        ]
        reports_seen += len(reports)
        failures += len(meaningful_failures(reports))
    criterion(2, "1000 certified draws violate no forward/loss/gradient bound",
              failures == 0, f"{reports_seen} reports, {failures} failures")


def test_criterion_3_certified_envelope():
    start = time.time()
    params = rl.AssumptionParams(0.25, 2, 16, 256)
    data0 = rl.sample_sphere_dataset(2, 16, seed=11, params=params)
    w0 = rl.init_certified(rl.NetworkConfig(16, 256), params, seed=12)
    data = rl.Dataset(data0.xs, rl.near_init_targets(data0.xs, w0, 0.0, seed=13))

    eta0 = 0.95 * (1.0 / 160.0) / params.N / params.d * math.exp(-10.5 * params.c0)
    sched = rl.Schedule("constant", eta0)
    w_final, log = rl.train(w0, data, sched, 2000)
    # the conclusions are applicable only when every premise row passes
    reports = certify_run_envelope(data, w0, log, params, sched, 2000, rl.TANH)
    failures = meaningful_failures(reports)
    elapsed = time.time() - start

    ok = (not log.failed and not failures and all(r.applicable for r in reports)
          and elapsed < 300.0)
    criterion(3, "admissible run satisfies the loss envelope and invariants",
              ok, f"J0 {log.loss[0]:.2e} -> {log.loss[-1]:.2e}, {elapsed:.1f}s")


def test_criterion_4_convergence_rate_shape(figure_dataset):
    d, depths, seed = 16, (8, 16, 32, 64, 128, 256), 7
    params = rl.AssumptionParams(0.25, 4, d, depths[0])
    data = rl.sample_sphere_dataset(4, d, seed=seed, params=params,
                                    enforce_separation=False)

    def mean_curve(kind, eta0, T):
        curves = []
        for depth in depths:
            w0 = rl.init_gaussian(rl.NetworkConfig(d, depth, 0.5), 1.0,
                                  seed=seed * 1000 + depth)
            _, log = rl.train(w0, data, rl.Schedule(kind, eta0), T)
            assert not log.failed
            curves.append(log.loss)
        return np.mean(np.stack(curves), axis=0)

    slopes = {}
    r2s = {}
    for eta0 in (0.1, 0.2):
        curve = mean_curve("constant", eta0, 600)
        grid = np.geomspace(0.5 * curve[0], 1e-3 * curve[0], 10)
        hits = steps_to_epsilon(np.arange(len(curve)), curve, grid)
        assert all(t is not None for _, t in hits)
        slope, r2 = affine_fit([math.log(1 / eps) for eps, _ in hits],
                               [t for _, t in hits])
        slopes[eta0], r2s[eta0] = slope, r2

    curve = mean_curve("inverse_decay", 2.0, 1500)
    floor = max(2.5 * float(np.min(curve)) / curve[0], 1e-3) * curve[0]
    hits = [(eps, t) for eps, t in
            steps_to_epsilon(np.arange(len(curve)), curve,
                             np.geomspace(0.5 * curve[0], floor, 10))
            if t is not None and t > 0]
    decay_slope, decay_r2 = affine_fit([math.log(1 / eps) for eps, _ in hits],
                                       [math.log(t) for _, t in hits])

    ratio = slopes[0.1] / slopes[0.2]
    ok = (r2s[0.1] >= 0.95 and r2s[0.2] >= 0.95 and decay_r2 >= 0.9
          and abs(ratio - 2.0) <= 0.6)
    criterion(4, "steps-to-eps is affine (constant) and log-affine (decay)",
              ok, f"r2 {r2s[0.1]:.3f}/{r2s[0.2]:.3f}, slope ratio {ratio:.2f}, "
                  f"decay r2 {decay_r2:.3f}")


def test_criterion_5_scaling_identification(figure_dataset):
    d, seed = 16, 7

    # trainable scale factor: the 1/2 exponent is a fixed point of training
    finals = []
    for depth in (8, 16, 32, 64, 128, 256, 512):
        net = rl.NetworkConfig(d, depth, 0.5)
        w0 = rl.init_gaussian(net, 1.0, seed=seed * 1000 + depth)
        data = rl.Dataset(figure_dataset.xs,
                          rl.near_init_targets(figure_dataset.xs, w0, 0.0,
                                               seed=seed * 1000 + depth + 1))
        w, log = rl.train(w0, data, rl.Schedule("constant", 0.1), 200,
                          delta_trainable=True)
        assert not log.failed
        finals.append((depth, w.delta))
    alpha_fit = fit_power_law(finals)
    fixed_point_ok = abs(alpha_fit.exponent - 0.5) <= 0.05

    # frozen scale factor: total exponent tracks twice the scale exponent
    depths = (8, 16, 32, 64, 128, 256)
    totals = {}
    for alpha0 in (0.25, 0.5):
        for beta0 in (0.75, 1.0):
            log_norms = {depth: [] for depth in depths}
            for data_seed in (7, 8, 9):
                params = rl.AssumptionParams(0.25, 8, d, depths[0])
                data = rl.sample_sphere_dataset(8, d, seed=data_seed, params=params,
                                                enforce_separation=False)
                for depth in depths:
                    w0 = rl.init_gaussian(rl.NetworkConfig(d, depth, alpha0),
                                          beta0, seed=data_seed * 1000 + depth)
                    w, log = rl.train(w0, data, rl.Schedule("constant", 1.2), 200)
                    assert not log.failed
                    log_norms[depth].append(math.log(mean_layer_norm(w)))
            pts = [(depth, math.exp(np.mean(vals)))
                   for depth, vals in log_norms.items()]
            fit = fit_power_law(pts)
            totals[(alpha0, beta0)] = alpha0 + fit.exponent

    totals_ok = all(abs(total - 2 * alpha0) <= 0.15
                    for (alpha0, _), total in totals.items())
    detail = (f"alpha_T {alpha_fit.exponent:.3f}; totals "
              + ", ".join(f"a0={a}/b0={b}: {t:.3f}"
                          for (a, b), t in sorted(totals.items())))
    criterion(5, "trainable-delta fixed point and frozen-delta total scaling",
              fixed_point_ok and totals_ok, detail)


def test_criterion_6_norm_behavior(deep_sweep):
    d, seed = 16, 7
    pts = []
    for depth in (16, 32, 64, 128, 256, 512, 1024):
        w0 = rl.init_gaussian(rl.NetworkConfig(d, depth, 0.5), 1.0,
                              seed=7000 + depth)
        pts.append((depth, weight_norms(w0).fbar))
    fit = fit_power_law(pts)

    _, log = deep_sweep[1024]
    ratios = log.gbar / log.gbar[0]
    ok = (abs(fit.exponent - 1.0) <= 0.1
          and float(np.min(ratios)) >= 0.5 and float(np.max(ratios)) <= 2.0)
    criterion(6, "initial fbar scales like 1/L and gbar is conserved in depth",
              ok, f"exponent {fit.exponent:.3f}, gbar ratio "
                  f"[{ratios.min():.3f}, {ratios.max():.3f}]")


def test_criterion_7_two_variation_oracle():
    rng = np.random.default_rng(3)

    def scalar_path(values):
        """Weights whose rescaled path sqrt(L) * A_k is ``values``."""
        values = np.asarray(values, dtype=float)
        return rl.Weights(values.reshape(-1, 1, 1) / math.sqrt(len(values)), 1.0)

    agree = True
    for n_points in range(2, 13):
        monotone = scalar_path(np.cumsum(rng.uniform(0.1, 1.0, n_points)))
        alternating = scalar_path([float(i % 2) for i in range(n_points)])
        for path in (monotone, alternating):
            dy = two_variation(path)
            ex = exhaustive_oracle(math.sqrt(path.depth) * path.layers)
            agree = agree and math.isclose(dy, ex, rel_tol=1e-12, abs_tol=0.0)

    scaling_ok = True
    for _ in range(25):
        n_points = int(rng.integers(2, 11))
        c = float(rng.uniform(0.2, 5.0))
        values = rng.standard_normal(n_points)
        base = two_variation(scalar_path(values))
        scaled = two_variation(scalar_path(c * values))
        scaling_ok = scaling_ok and math.isclose(scaled, c * c * base,
                                                 rel_tol=1e-12, abs_tol=1e-300)
    criterion(7, "dyadic equals exhaustive on monotone/alternating paths, "
                 "quadratic scaling exact", agree and scaling_ok)


def test_criterion_8_scaling_limit_distances(deep_sweep):
    runs = [(depth, w) for depth, (w, _) in sorted(deep_sweep.items())]
    dists = [scaling_limit_distance(low, high)
             for (_, low), (_, high) in zip(runs, runs[1:])]
    tv = {depth: two_variation(w) for depth, w in runs}
    ratio = tv[1024] / tv[256]
    ok = dists[0] > dists[1] and math.isfinite(tv[1024]) and 0.5 <= ratio <= 2.0
    criterion(8, "rescaled-path distances shrink with depth, 2-variation stable",
              ok, f"distances {dists[0]:.4f} > {dists[1]:.4f}, "
                  f"2-var ratio {ratio:.3f}")


def test_criterion_9_determinism(tmp_path):
    cfg = {
        "d": 6, "N": 4, "seed": 5, "depths": [4, 8], "eta0": 0.1, "T": 6,
        "c0": 0.25, "certify_draws": 4, "log_layers": True,
        "scatter_entry": [0, 1],
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg))

    def run_all(root):
        run_dir = os.path.join(root, "run")
        assert main(["train", "--config", str(cfg_path), "--out", run_dir]) == 0
        assert main(["certify", "--config", str(cfg_path),
                     "--out", os.path.join(root, "cert")]) == 0
        assert main(["analyze", "--config", str(cfg_path), "--run-dir", run_dir,
                     "--out", os.path.join(root, "analysis")]) == 0
        tree = {}
        for dirpath, _, files in os.walk(root):
            for name in files:
                path = os.path.join(dirpath, name)
                tree[os.path.relpath(path, root)] = open(path, "rb").read()
        return tree

    first = run_all(str(tmp_path / "a"))
    second = run_all(str(tmp_path / "b"))
    identical = first == second
    criterion(9, "identical config and seed give bitwise-identical artifacts",
              identical, f"{len(first)} files compared")
