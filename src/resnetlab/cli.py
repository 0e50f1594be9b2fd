"""Config-driven experiment harness.

Commands: ``train`` (depth sweep producing run logs and final weights),
``certify`` (assumption checks plus every bound suite, JSON lines out),
``analyze`` (scaling fits, steps-to-epsilon, 2-variation, cross-depth
distances), ``gradcheck`` (finite-difference oracle suite) and ``dataset``.

Exit codes: 0 success or inapplicable bound, 1 bound failure, 2 input error,
3 numerical overflow. Identical config and seed give bitwise-identical
output files.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import glob
import json
import os
import re
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field

import numpy as np

from . import analysis, bounds
from .autograd import (finite_diff_grad, grad_objective,
                       grad_objective_with_stats)
from .data import (AssumptionParams, Dataset, init_certified, init_gaussian,
                   near_init_targets, replace_targets, sample_sphere_dataset,
                   save_dataset)
from .errors import (InfeasibleDatasetError, InvalidInputError,
                     NumericalOverflowError)
from .network import (NetworkConfig, Weights, activation_by_name, forward,
                      load_weights, save_weights)
from .training import (RunLog, Schedule, load_runlog, save_layer_gaps,
                       save_runlog, train, weight_norms)

EXIT_OK = 0
EXIT_BOUND_FAILURE = 1
EXIT_INPUT_ERROR = 2
EXIT_OVERFLOW = 3

GRADCHECK_RTOL = 1e-6


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


# keyed by the field annotations, which are strings under postponed evaluation
_TYPE_CHECKS = {
    "int": _is_int,
    "float": lambda v: _is_int(v) or isinstance(v, float),
    "bool": lambda v: isinstance(v, bool),
    "str": lambda v: isinstance(v, str),
    "list[int]": lambda v: isinstance(v, list) and all(_is_int(x) for x in v),
}


@dataclass
class ExperimentConfig:
    """Flat key-value experiment description (JSON on disk)."""

    d: int = 20
    N: int = 10
    seed: int = 0
    depths: list[int] = field(default_factory=lambda: [2 ** k for k in range(3, 13)])
    alpha0: float = 0.5
    beta0: float = 1.0
    delta_trainable: bool = False
    schedule: str = "constant"
    eta0: float = 0.1
    T: int = 200
    c0: float = 0.25
    activation: str = "tanh"
    target_mode: str = "sphere"
    epsilon_init: float = 0.0
    enforce_separation: bool = False
    init_mode: str = "gaussian"
    init_scale: float = 1.0
    log_layers: bool = False
    log_stride: int = 1
    certify_draws: int = 100
    gradcheck_instances: int = 25
    scatter_entry: list[int] = field(default_factory=lambda: [0, 1])
    output_dir: str = "out"
    threads: int = 1

    def __post_init__(self):
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if not _TYPE_CHECKS[f.type](value):
                raise InvalidInputError(
                    f"config key {f.name!r} must be {f.type}, got {value!r}")
        if not self.depths or any(a >= b for a, b in zip(self.depths, self.depths[1:])):
            raise InvalidInputError("depths must be a nonempty strictly ascending list")
        if self.T < 0:
            raise InvalidInputError("T must be >= 0")
        if self.certify_draws < 0:
            raise InvalidInputError("certify_draws must be >= 0")
        if self.threads < 1:
            raise InvalidInputError("threads must be >= 1")
        if self.gradcheck_instances < 1:
            raise InvalidInputError("gradcheck_instances must be >= 1")
        if self.target_mode not in ("sphere", "near_init"):
            raise InvalidInputError(f"unknown target_mode {self.target_mode!r}")
        if self.init_mode not in ("gaussian", "certified"):
            raise InvalidInputError(f"unknown init_mode {self.init_mode!r}")
        if len(self.scatter_entry) != 2:
            raise InvalidInputError("scatter_entry must be [m, n]")


def load_config(path: str | None, overrides: dict) -> ExperimentConfig:
    raw: dict = {}
    if path is not None:
        with open(path) as fh:
            raw = json.load(fh)
        if not isinstance(raw, dict):
            raise InvalidInputError("config must be a JSON object")
    known = set(ExperimentConfig.__dataclass_fields__)
    unknown = set(raw) - known
    if unknown:
        raise InvalidInputError(f"unknown config keys: {sorted(unknown)}")
    raw.update({k: v for k, v in overrides.items() if v is not None})
    return ExperimentConfig(**raw)


def _depth_seed(seed: int, depth: int, salt: int = 0) -> int:
    return (seed * 2654435761 + depth * 97 + salt) % (2 ** 63)


def _params(cfg: ExperimentConfig, depth: int) -> AssumptionParams:
    return AssumptionParams(cfg.c0, cfg.N, cfg.d, depth)


def _base_dataset(cfg: ExperimentConfig) -> Dataset:
    return sample_sphere_dataset(cfg.N, cfg.d, cfg.seed, _params(cfg, cfg.depths[0]),
                                 target_mode="sphere",
                                 enforce_separation=cfg.enforce_separation)


def _init_weights(cfg: ExperimentConfig, depth: int) -> Weights:
    net = NetworkConfig(cfg.d, depth, cfg.alpha0, cfg.delta_trainable,
                        activation_by_name(cfg.activation))
    seed = _depth_seed(cfg.seed, depth)
    if cfg.init_mode == "gaussian":
        return init_gaussian(net, cfg.beta0, seed)
    return init_certified(net, _params(cfg, depth), seed, scale=cfg.init_scale)


def _depth_dataset(cfg: ExperimentConfig, base: Dataset, w0: Weights,
                   depth: int) -> Dataset:
    if cfg.target_mode == "sphere":
        return base
    act = activation_by_name(cfg.activation)
    ys = near_init_targets(base.xs, w0, cfg.epsilon_init,
                           _depth_seed(cfg.seed, depth, salt=1), act)
    return replace_targets(base, ys)


def _write_config(cfg: ExperimentConfig, out_dir: str) -> None:
    with open(os.path.join(out_dir, "config.json"), "w") as fh:
        json.dump(asdict(cfg), fh, sort_keys=True, indent=2)
        fh.write("\n")


def cmd_dataset(cfg: ExperimentConfig, out_dir: str) -> int:
    os.makedirs(out_dir, exist_ok=True)
    data = _base_dataset(cfg)
    save_dataset(data, os.path.join(out_dir, "dataset.csv"), c0=cfg.c0)
    print(f"dataset: N={data.n} d={data.dim} separation={data.separation:.6g}")
    return EXIT_OK


def _train_one_depth(cfg: ExperimentConfig, base: Dataset, depth: int,
                     out_dir: str) -> RunLog:
    act = activation_by_name(cfg.activation)
    w0 = _init_weights(cfg, depth)
    data = _depth_dataset(cfg, base, w0, depth)
    if cfg.target_mode == "near_init":
        save_dataset(data, os.path.join(out_dir, f"dataset_L{depth}.csv"), c0=cfg.c0)
    sched = Schedule(cfg.schedule, cfg.eta0)
    w_final, log = train(w0, data, sched, cfg.T, act, cfg.delta_trainable,
                         log_layers=cfg.log_layers, log_stride=cfg.log_stride)
    save_runlog(log, os.path.join(out_dir, f"runlog_L{depth}.csv"))
    save_weights(w_final, os.path.join(out_dir, f"weights_L{depth}.bin"))
    if cfg.log_layers and log.g_layers is not None:
        save_layer_gaps(log, os.path.join(out_dir, f"gaps_L{depth}.csv"))
    return log


def cmd_train(cfg: ExperimentConfig, out_dir: str) -> int:
    os.makedirs(out_dir, exist_ok=True)
    _write_config(cfg, out_dir)
    base = _base_dataset(cfg)
    save_dataset(base, os.path.join(out_dir, "dataset.csv"), c0=cfg.c0)

    if cfg.threads > 1:
        with ThreadPoolExecutor(max_workers=cfg.threads) as pool:
            logs = list(pool.map(
                lambda depth: _train_one_depth(cfg, base, depth, out_dir), cfg.depths))
    else:
        logs = [_train_one_depth(cfg, base, depth, out_dir) for depth in cfg.depths]

    status = EXIT_OK
    for depth, log in zip(cfg.depths, logs):
        if log.failed:
            print(f"depth {depth}: overflow after step {log.steps}: {log.fail_reason}",
                  file=sys.stderr)
            status = EXIT_OVERFLOW
        else:
            print(f"depth {depth}: loss {log.loss[0]:.6g} -> {log.loss[-1]:.6g} "
                  f"in {log.steps} steps")
    return status


def _random_draw_reports(cfg: ExperimentConfig, data: Dataset,
                         depth: int) -> list[bounds.BoundReport]:
    """Randomized certification sweep at |A_k|_F <= c_alpha L^-1/2, c_alpha=c0."""
    act = activation_by_name(cfg.activation)
    rng = np.random.default_rng(_depth_seed(cfg.seed, depth, salt=2))
    reports: list[bounds.BoundReport] = []
    delta = float(depth) ** (-cfg.alpha0)
    cap = cfg.c0 * depth ** (-0.5)
    for draw in range(cfg.certify_draws):
        layers = rng.standard_normal((depth, cfg.d, cfg.d))
        norms = np.linalg.norm(layers, axis=(1, 2), keepdims=True)
        layers *= rng.uniform(0.1, 1.0) * cap / norms
        w = Weights(layers, delta)
        x = rng.standard_normal(cfg.d)
        x /= np.linalg.norm(x)
        trace = forward(x, w, act, want_jacobians=True)
        grads, _, value, _ = grad_objective_with_stats(data, w, act, want_stats=False)
        norms = weight_norms(w)
        batch = [
            *bounds.certify_forward(trace, x, w, norms, cfg.c0),
            *bounds.certify_loss_bound(w, value, norms, cfg.c0),
            *bounds.certify_gradient_upper(w, value, grads, norms, cfg.c0),
            *bounds.certify_gradient_lower(data, w, value, grads, norms,
                                           _params(cfg, depth)),
        ]
        for r in batch:
            r.context["draw"] = draw
        reports.extend(batch)
    reports.extend(bounds.certify_hessian(
        data, _draw_certified_weights(rng, cfg, depth, delta, cap), cfg.c0, act))
    return reports


def _draw_certified_weights(rng, cfg: ExperimentConfig, depth: int,
                            delta: float, cap: float) -> Weights:
    layers = rng.standard_normal((depth, cfg.d, cfg.d))
    layers *= 0.5 * cap / np.linalg.norm(layers, axis=(1, 2), keepdims=True)
    return Weights(layers, delta)


def cmd_certify(cfg: ExperimentConfig, out_dir: str, run_dir: str | None) -> int:
    os.makedirs(out_dir, exist_ok=True)
    act = activation_by_name(cfg.activation)
    base = _base_dataset(cfg)
    sched = Schedule(cfg.schedule, cfg.eta0)
    all_reports: list[bounds.BoundReport] = []

    for depth in cfg.depths:
        w0 = _init_weights(cfg, depth)
        data = _depth_dataset(cfg, base, w0, depth)
        params = _params(cfg, depth)
        premises = [*bounds.check_assumptions(data, w0, params, act),
                    *bounds.lr_feasibility(params, sched, cfg.T)]
        all_reports.extend(premises)
        if run_dir is not None:
            log = load_runlog(os.path.join(run_dir, f"runlog_L{depth}.csv"))
        else:
            _, log = train(w0, data, sched, cfg.T, act, cfg.delta_trainable,
                           log_stride=cfg.log_stride)
        env = bounds.certify_run_envelope(log, params, sched)
        # the envelope claim presumes the admissibility and rate clauses
        premises_ok = all(r.passed for r in premises)
        for r in env:
            r.context["L"] = depth
            if not premises_ok and not r.hypothesis:
                r = dataclasses.replace(r, applicable=False)
            all_reports.append(r)

    deepest = cfg.depths[-1]
    w0 = _init_weights(cfg, deepest)
    all_reports.extend(_random_draw_reports(
        cfg, _depth_dataset(cfg, base, w0, deepest), deepest))

    bounds.write_reports_jsonl(all_reports, os.path.join(out_dir, "bounds.jsonl"))
    failures = bounds.meaningful_failures(all_reports)
    passed = sum(1 for r in all_reports if r.passed)
    inapplicable = sum(1 for r in all_reports if not r.applicable)
    vacuous = sum(1 for r in all_reports if r.vacuous)
    print(f"certify: {len(all_reports)} reports, {passed} passed, "
          f"{len(failures)} failed, {inapplicable} inapplicable, {vacuous} vacuous")
    for r in failures[:20]:
        print(f"  FAIL {r.name}: observed {r.observed:.6g} vs bound {r.bound:.6g} "
              f"(context {r.context})", file=sys.stderr)
    return EXIT_BOUND_FAILURE if failures else EXIT_OK


def _load_runs(run_dir: str) -> tuple[list[int], dict[int, RunLog], dict[int, Weights]]:
    """Completed runs under ``run_dir``; failed ones are named on stderr and skipped."""
    runs = []
    for path in glob.glob(os.path.join(run_dir, "runlog_L*.csv")):
        match = re.search(r"runlog_L(\d+)\.csv$", path)
        if match is not None:
            runs.append((int(match.group(1)), path))
    if not runs:
        raise InvalidInputError(f"no run logs found under {run_dir}")
    depths, logs, weights = [], {}, {}
    for depth, path in sorted(runs):
        log = load_runlog(path)
        if log.failed:
            print(f"depth {depth}: skipped, run failed after step {log.steps}: "
                  f"{log.fail_reason}", file=sys.stderr)
            continue
        depths.append(depth)
        logs[depth] = log
        wpath = os.path.join(run_dir, f"weights_L{depth}.bin")
        if not os.path.exists(wpath):
            raise InvalidInputError(f"missing final weights {wpath}")
        weights[depth] = load_weights(wpath)
    if not depths:
        raise InvalidInputError(f"no completed runs under {run_dir}")
    return depths, logs, weights


def _epsilon_grid(mean_loss: np.ndarray) -> np.ndarray:
    j0 = float(mean_loss[0])
    jmin = float(np.min(mean_loss))
    if j0 <= 0:
        return np.geomspace(1e-1, 1e-6, 11)
    hi = 0.8 * j0
    lo = max(jmin * 1.25, j0 * 1e-9)
    if lo >= hi:
        lo = hi * 1e-3
    return np.geomspace(hi, lo, 12)


def cmd_analyze(cfg: ExperimentConfig, run_dir: str, out_dir: str) -> int:
    os.makedirs(out_dir, exist_ok=True)
    depths, logs, weights = _load_runs(run_dir)

    # Steps-to-epsilon on the mean loss curve across depths.
    t_grid = logs[depths[0]].t
    aligned = [log.loss for log in logs.values() if np.array_equal(log.t, t_grid)]
    mean_loss = np.mean(np.stack(aligned), axis=0)
    grid = _epsilon_grid(mean_loss)
    mean_log = dataclasses.replace(logs[depths[0]], loss=mean_loss)
    hits = analysis.steps_to_epsilon(mean_log, grid)
    with open(os.path.join(out_dir, "steps_to_eps.csv"), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["eps", "t_first"])
        for eps, t_first in hits:
            writer.writerow([repr(float(eps)), "" if t_first is None else t_first])

    # Depth fits: initial fbar, final weight norm (+ delta when trainable).
    fits: dict[str, dict] = {}
    fit_rows = []
    for depth in depths:
        fit_rows.append({
            "L": depth,
            "fbar0": float(logs[depth].fbar[0]),
            "mean_weight_norm": analysis.mean_layer_norm(weights[depth]),
            "delta_final": float(logs[depth].delta[-1]),
        })
    with open(os.path.join(out_dir, "fit_inputs.csv"), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["L", "fbar0", "mean_weight_norm", "delta_final"])
        for row in fit_rows:
            writer.writerow([row["L"], repr(row["fbar0"]),
                             repr(row["mean_weight_norm"]), repr(row["delta_final"])])
    if len(depths) >= 2:
        fbar_fit = analysis.fit_power_law([(r["L"], r["fbar0"]) for r in fit_rows])
        fits["fbar0"] = asdict(fbar_fit)
        delta_fit = analysis.fit_power_law([(r["L"], r["delta_final"]) for r in fit_rows])
        fits["delta_final"] = asdict(delta_fit)
    if len(depths) >= 3:
        ts = analysis.total_scaling([(l, weights[l]) for l in depths], cfg.alpha0)
        fits["weight_norm"] = asdict(ts.weight_fit)
        fits["total_scaling"] = ts.total
    with open(os.path.join(out_dir, "scaling_fits.json"), "w") as fh:
        json.dump(fits, fh, sort_keys=True, indent=2)
        fh.write("\n")

    # 2-variation of the rescaled final paths.
    with open(os.path.join(out_dir, "two_variation.csv"), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["L", "two_variation_dyadic"])
        for depth in depths:
            value = analysis.two_variation(analysis.rescaled_path(weights[depth]))
            writer.writerow([depth, repr(float(value))])

    # Cross-depth sup distances of the rescaled paths.
    if len(depths) >= 2:
        pairs = analysis.scaling_limit_distance([(l, weights[l]) for l in depths])
        with open(os.path.join(out_dir, "limit_distances.csv"), "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["L_low", "L_high", "sup_distance"])
            for (l1, l2), dist in pairs:
                writer.writerow([l1, l2, repr(float(dist))])

    # Single-entry scatter across depths.
    m, n = cfg.scatter_entry
    rows = analysis.entry_scatter([(l, weights[l]) for l in depths], m, n)
    with open(os.path.join(out_dir, f"scatter_m{m}_n{n}.csv"), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["L", "s", "value"])
        for depth, s, value in rows:
            writer.writerow([depth, repr(float(s)), repr(value)])

    print(f"analyze: {len(depths)} depths, fits={sorted(fits)}")
    return EXIT_OK


def cmd_gradcheck(cfg: ExperimentConfig) -> int:
    """Analytic gradients against central finite differences on random instances."""
    rng = np.random.default_rng(cfg.seed)
    act = activation_by_name(cfg.activation)
    worst = 0.0
    for i in range(cfg.gradcheck_instances):
        d = int(rng.integers(2, 9))
        L = int(rng.integers(1, 33))
        n = int(rng.integers(1, 5))
        trainable = bool(i % 2)
        xs = rng.standard_normal((n, d))
        xs /= np.linalg.norm(xs, axis=1, keepdims=True)
        ys = rng.standard_normal((n, d))
        ys /= np.linalg.norm(ys, axis=1, keepdims=True)
        data = Dataset(xs, ys, 0.0, cfg.seed)
        layers = rng.standard_normal((L, d, d)) * L ** (-0.5) * 0.5
        w = Weights(layers, L ** (-0.5))
        analytic = grad_objective(data, w, act, delta_trainable=trainable)
        numeric = finite_diff_grad(data, w, act, delta_trainable=trainable)
        scale = np.maximum(np.abs(numeric.layers), 1e-3)
        err = float(np.max(np.abs(analytic.layers - numeric.layers) / scale))
        if trainable:
            err = max(err, abs(analytic.delta_grad - numeric.delta_grad)
                      / max(abs(numeric.delta_grad), 1e-3))
        worst = max(worst, err)
        print(f"instance {i}: d={d} L={L} N={n} trainable={trainable} rel_err={err:.3g}")
    print(f"gradcheck: worst relative error {worst:.3g} over "
          f"{cfg.gradcheck_instances} instances (tolerance {GRADCHECK_RTOL:.0e})")
    return EXIT_OK if worst <= GRADCHECK_RTOL else EXIT_BOUND_FAILURE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="resnetlab",
                                     description="residual network training lab")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("train", "certify", "analyze", "gradcheck", "dataset"):
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="JSON config file")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--threads", type=int, default=None)
        if name == "certify":
            p.add_argument("--run-dir", default=None,
                           help="certify an existing run instead of training fresh")
        if name == "analyze":
            p.add_argument("--run-dir", required=True,
                           help="directory with runlog_L*.csv and weights_L*.bin")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config, {"seed": args.seed, "threads": args.threads})
        out_dir = args.out if args.out is not None else cfg.output_dir
        if args.command == "dataset":
            return cmd_dataset(cfg, out_dir)
        if args.command == "train":
            return cmd_train(cfg, out_dir)
        if args.command == "certify":
            return cmd_certify(cfg, out_dir, args.run_dir)
        if args.command == "analyze":
            return cmd_analyze(cfg, args.run_dir, out_dir)
        if args.command == "gradcheck":
            return cmd_gradcheck(cfg)
        raise InvalidInputError(f"unknown command {args.command!r}")
    except InfeasibleDatasetError as exc:
        print(f"error: {exc} (achieved separation {exc.achieved_separation:.6g})",
              file=sys.stderr)
        return EXIT_INPUT_ERROR
    except (InvalidInputError, FileNotFoundError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except NumericalOverflowError as exc:
        print(f"overflow: {exc}", file=sys.stderr)
        return EXIT_OVERFLOW


if __name__ == "__main__":
    sys.exit(main())
