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
import dataclasses
import glob
import itertools
import json
import math
import os
import re
import sys
from dataclasses import asdict, dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .autograd import finite_diff_grad, grad_objective
from .data import (AssumptionParams, Dataset, gaussian_init_std, init_certified,
                   init_gaussian, near_init_targets, sample_sphere_dataset,
                   save_dataset, write_csv, write_json)
from .errors import InvalidInputError, NumericalOverflowError
from .network import (NetworkConfig, Weights, activation_by_name, load_weights,
                      save_weights)
from .training import (RunLog, Schedule, load_runlog, save_layer_gaps,
                       save_runlog, train)

if TYPE_CHECKING:  # pragma: no cover
    # imported where they run, so that a command loads only its own modules
    from . import bounds

EXIT_OK = 0
EXIT_BOUND_FAILURE = 1
EXIT_INPUT_ERROR = 2
EXIT_OVERFLOW = 3

GRADCHECK_RTOL = 1e-6


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_finite_float(value) -> bool:
    """A float or int within the finite float64 range: JSON's NaN and
    Infinity tokens, and literals that overflow a float, are rejected."""
    if _is_int(value):
        return abs(value) <= sys.float_info.max
    return isinstance(value, float) and math.isfinite(value)


# keyed by the field annotations, which are strings under postponed evaluation
_TYPE_CHECKS = {
    "int": _is_int,
    "float": _is_finite_float,
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
    certify_draws: int = 100
    gradcheck_instances: int = 25
    scatter_entry: list[int] = field(default_factory=lambda: [0, 1])
    output_dir: str = "out"
    # accepted only as 1, the value every benchmark workload config still sets
    threads: int = 1

    def __post_init__(self):
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if not _TYPE_CHECKS[f.type](value):
                raise InvalidInputError(
                    f"config key {f.name!r} must be {f.type}, got {value!r}")
        if not self.depths or any(a >= b for a, b in zip(self.depths, self.depths[1:])):
            raise InvalidInputError("depths must be a nonempty strictly ascending list")
        if self.seed < 0:
            raise InvalidInputError("seed must be >= 0")
        if self.T < 0:
            raise InvalidInputError("T must be >= 0")
        if self.certify_draws < 0:
            raise InvalidInputError("certify_draws must be >= 0")
        if self.threads != 1:
            raise InvalidInputError("threads must be 1: training runs sequentially")
        if self.gradcheck_instances < 1:
            raise InvalidInputError("gradcheck_instances must be >= 1")
        if self.target_mode not in ("sphere", "near_init"):
            raise InvalidInputError(f"unknown target_mode {self.target_mode!r}")
        if self.init_mode not in ("gaussian", "certified"):
            raise InvalidInputError(f"unknown init_mode {self.init_mode!r}")
        if len(self.scatter_entry) != 2:
            raise InvalidInputError("scatter_entry must be [m, n]")
        if self.init_mode == "certified" and not 0.0 <= self.init_scale <= 1.0:
            raise InvalidInputError(f"init_scale must lie in [0, 1], got {self.init_scale!r}")
        if self.target_mode == "near_init" and self.epsilon_init < 0:
            raise InvalidInputError(f"epsilon_init must be >= 0, got {self.epsilon_init!r}")
        # the commands build these; building them here applies their domain
        # rules before any command writes a file, and draws nothing
        activation_by_name(self.activation)
        Schedule(self.schedule, self.eta0)
        for depth in self.depths:
            # numpy's own limit on an array's size in bytes
            if 8 * depth * self.d * self.d > sys.maxsize:
                raise InvalidInputError(f"depth {depth} at d={self.d}: the (L, d, d) "
                                        f"float64 weight stack exceeds {sys.maxsize} bytes")
            _params(self, depth)
            NetworkConfig(self.d, depth, self.alpha0)
            if self.init_mode == "gaussian":
                gaussian_init_std(self.d, depth, self.beta0)


def load_config(path: str | None, overrides: dict) -> ExperimentConfig:
    raw: dict = {}
    if path is not None:
        try:
            with open(path, encoding="utf-8") as fh:
                raw = json.load(fh)
        except UnicodeDecodeError:
            raise InvalidInputError(f"config {path} is not UTF-8") from None
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
                                 enforce_separation=cfg.enforce_separation)


def _init_weights(cfg: ExperimentConfig, depth: int) -> Weights:
    net = NetworkConfig(cfg.d, depth, cfg.alpha0)
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
    return Dataset(base.xs, ys)


def cmd_dataset(cfg: ExperimentConfig, out_dir: str) -> int:
    data = _base_dataset(cfg)
    os.makedirs(out_dir, exist_ok=True)
    save_dataset(data, os.path.join(out_dir, "dataset.csv"), cfg.seed, cfg.c0)
    print(f"dataset: N={data.n} d={data.dim} separation={data.separation:.6g}")
    return EXIT_OK


def _train_one_depth(cfg: ExperimentConfig, base: Dataset, w0: Weights,
                     out_dir: str) -> RunLog:
    act = activation_by_name(cfg.activation)
    depth = w0.depth
    data = _depth_dataset(cfg, base, w0, depth)
    if cfg.target_mode == "near_init":
        save_dataset(data, os.path.join(out_dir, f"dataset_L{depth}.csv"), cfg.seed, cfg.c0)
    sched = Schedule(cfg.schedule, cfg.eta0)
    w_final, log = train(w0, data, sched, cfg.T, act, cfg.delta_trainable,
                         log_layers=cfg.log_layers)
    save_runlog(log, os.path.join(out_dir, f"runlog_L{depth}.csv"))
    save_weights(w_final, os.path.join(out_dir, f"weights_L{depth}.bin"))
    if cfg.log_layers:
        save_layer_gaps(log, os.path.join(out_dir, f"gaps_L{depth}.csv"))
    return log


def cmd_train(cfg: ExperimentConfig, out_dir: str) -> int:
    # sampled and drawn first, so an infeasible separation or a first stack
    # beyond memory exits 2 before any file is written
    base = _base_dataset(cfg)
    w0 = _init_weights(cfg, cfg.depths[0])
    os.makedirs(out_dir, exist_ok=True)
    write_json(os.path.join(out_dir, "config.json"), asdict(cfg))
    save_dataset(base, os.path.join(out_dir, "dataset.csv"), cfg.seed, cfg.c0)

    logs = [_train_one_depth(cfg, base, w0, out_dir)]
    del w0  # each later depth holds only its own stacks
    logs += [_train_one_depth(cfg, base, _init_weights(cfg, depth), out_dir)
             for depth in cfg.depths[1:]]
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


def cmd_certify(cfg: ExperimentConfig, out_dir: str, run_dir: str | None) -> int:
    from . import bounds

    act = activation_by_name(cfg.activation)
    base = _base_dataset(cfg)
    sched = Schedule(cfg.schedule, cfg.eta0)
    all_reports: list[bounds.BoundReport] = []

    for depth in cfg.depths:
        w0 = _init_weights(cfg, depth)
        data = _depth_dataset(cfg, base, w0, depth)
        if run_dir is not None:
            path = os.path.join(run_dir, f"runlog_L{depth}.csv")
            log = load_runlog(path)
            # the learning-rate premises check the config's T steps, which a
            # completed run makes all of and a failed one no more than
            if log.steps > cfg.T or (not log.failed and log.steps != cfg.T):
                raise InvalidInputError(f"run log {path} ends at step {log.steps}, "
                                        f"not at the config's T={cfg.T}")
        else:
            # only the log: the final weights are a view of the run's weights block
            log = train(w0, data, sched, cfg.T, act, cfg.delta_trainable)[1]
        all_reports.extend(bounds.certify_run_envelope(
            data, w0, log, _params(cfg, depth), sched, cfg.T, act))
        del w0, log  # the draws hold only their own stacks
        if depth == cfg.depths[-1]:
            rng = np.random.default_rng(_depth_seed(cfg.seed, depth, salt=2))
            all_reports.extend(bounds.certify_draws(data, _params(cfg, depth), rng,
                                                    cfg.certify_draws, act))

    os.makedirs(out_dir, exist_ok=True)
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


def _completed_runs(run_dir: str):
    """Yields (depth, run log, final weights) for each completed run under
    ``run_dir`` in ascending depth, one run log per depth, all of one width
    and one logged step column; failed runs are named on stderr and skipped.
    Each stack is read only when the next run is asked for."""
    runs = {}
    # matched inside run_dir, whose own name may hold glob characters
    for name in sorted(glob.glob("runlog_L*.csv", root_dir=run_dir)):
        match = re.fullmatch(r"runlog_L(\d+)\.csv", name)
        if match is None:
            continue
        path = os.path.join(run_dir, name)
        depth = int(match.group(1))
        if depth in runs:
            raise InvalidInputError(
                f"run logs {runs[depth]} and {path} both hold depth {depth}")
        runs[depth] = path
    if not runs:
        raise InvalidInputError(f"no run logs found under {run_dir}")
    first = None  # (depth, width, steps) of the first completed run
    for depth, path in sorted(runs.items()):
        log = load_runlog(path)
        if log.failed:
            print(f"depth {depth}: skipped, run failed after step {log.steps}: "
                  f"{log.fail_reason}", file=sys.stderr)
            continue
        wpath = os.path.join(run_dir, f"weights_L{depth}.bin")
        if not os.path.exists(wpath):
            raise InvalidInputError(f"missing final weights {wpath}")
        weights = load_weights(wpath)
        if weights.depth != depth:
            raise InvalidInputError(f"{wpath} holds depth {weights.depth}, not {depth}")
        if first is None:
            first = depth, weights.width, log.t
        elif weights.width != first[1]:
            raise InvalidInputError(f"all runs must share the width d: depth {depth} has "
                                    f"d={weights.width}, depth {first[0]} has d={first[1]}")
        elif not np.array_equal(log.t, first[2]):
            raise InvalidInputError(f"all runs must log the same steps t: depth {depth} "
                                    f"logs other steps than depth {first[0]}")
        yield depth, log, weights
    if first is None:
        raise InvalidInputError(f"no completed runs under {run_dir}")


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
    from . import analysis

    # One pass in ascending depth that holds at most two weight stacks: the
    # current one and the previous one, for the limit distance. Files are
    # written after it, so bad input exits 2 before any file exists.
    m, n = cfg.scatter_entry
    losses, fit_rows, two_var, distances, scatter = [], [], [], [], []
    low = None  # (depth, weights) of the previous completed run
    for depth, log, weights in _completed_runs(run_dir):
        losses.append(log.loss)
        # first: it checks scatter_entry against the width
        scatter.append((depth, *analysis.entry_scatter(weights, m, n)))
        fit_rows.append((depth, float(log.fbar[0]), analysis.mean_layer_norm(weights),
                         float(log.delta[-1])))
        two_var.append((depth, analysis.two_variation(weights)))
        if low is not None:
            distances.append((low[0], depth, analysis.scaling_limit_distance(low[1], weights)))
        low = depth, weights
    del low, weights  # the fits and the writes read no weight stack

    # Steps-to-epsilon on the mean loss curve across depths, whose runs all
    # logged the steps log.t.
    mean_loss = np.mean(np.stack(losses), axis=0)
    hits = analysis.steps_to_epsilon(log.t, mean_loss, _epsilon_grid(mean_loss))

    # Depth fits: initial fbar, final weight norm (+ delta when trainable).
    # A power law fits positive values only; a fit over a zero is left out.
    header = ["L", "fbar0", "mean_weight_norm", "delta_final"]
    columns = dict(zip(header, zip(*fit_rows)))
    fits: dict[str, dict] = {}
    if len(fit_rows) >= 2:
        for key in ("fbar0", "delta_final"):
            if all(v > 0 for v in columns[key]):
                fits[key] = asdict(analysis.fit_power_law(zip(columns["L"], columns[key])))
    if len(fit_rows) >= 3 and all(v > 0 for v in columns["mean_weight_norm"]):
        fit = analysis.total_scaling(list(zip(columns["L"], columns["mean_weight_norm"])))
        fits["weight_norm"] = asdict(fit)
        fits["total_scaling"] = cfg.alpha0 + fit.exponent

    os.makedirs(out_dir, exist_ok=True)
    write_csv(os.path.join(out_dir, "steps_to_eps.csv"), ["eps", "t_first"], hits)
    write_csv(os.path.join(out_dir, "fit_inputs.csv"), header, fit_rows)
    write_json(os.path.join(out_dir, "scaling_fits.json"), fits)
    write_csv(os.path.join(out_dir, "two_variation.csv"), ["L", "two_variation_dyadic"],
              two_var)
    if distances:
        write_csv(os.path.join(out_dir, "limit_distances.csv"),
                  ["L_low", "L_high", "sup_distance"], distances)
    write_csv(os.path.join(out_dir, f"scatter_m{m}_n{n}.csv"), ["L", "s", "value"],
              itertools.chain.from_iterable(
                  zip(itertools.repeat(depth), s.tolist(), values.tolist())
                  for depth, s, values in scatter))

    print(f"analyze: {len(fit_rows)} depths, fits={sorted(fits)}")
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
        data = Dataset(xs, ys)
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
        cfg = load_config(args.config, {"seed": args.seed})
        out_dir = args.out if args.out is not None else cfg.output_dir
        if args.command == "dataset":
            return cmd_dataset(cfg, out_dir)
        if args.command == "train":
            return cmd_train(cfg, out_dir)
        if args.command == "certify":
            return cmd_certify(cfg, out_dir, args.run_dir)
        if args.command == "analyze":
            return cmd_analyze(cfg, args.run_dir, out_dir)
        return cmd_gradcheck(cfg)
    except (InvalidInputError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except MemoryError as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except NumericalOverflowError as exc:
        print(f"overflow: {exc}", file=sys.stderr)
        return EXIT_OVERFLOW


if __name__ == "__main__":
    sys.exit(main())
