#!/usr/bin/env python3
"""Benchmark harness for resnetlab (stdlib only).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S
    python3 perfbench/run.py --self-test
    python3 perfbench/run.py --write-reference

Run from the repository root; the program is imported from ``src/``. Every
invocation of the CLI is a fresh child process with one BLAS thread. With
``--trace 0`` the timed invocations run untraced and the last stdout line
carries the end-to-end metrics; with ``--trace 1`` traced and untraced
invocations alternate and the last line carries the per-layer metrics.
Results, with the environment, go to ``.perfbench/results/`` (never into
an ``--out`` tree). See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import csv
import filecmp
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from child import GRADCHECK_SHAPE, LAYER_MODULES

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".perfbench"
REFERENCE = BENCH / "reference.json"
CHILD = BENCH / "child.py"

RUN_DEADLINE_S = 170.0
SETUP_REPEATS = 9
REFERENCE_SEED = 0

# Timings are reported in reference seconds: measured seconds times
# CALIBRATION_REF_S over the time the calibration loop took around the same
# invocation. Other tenants of a shared host slow every process by up to 50%
# for minutes at a time; the loop slows with them, so the ratio moves less.
# CALIBRATION_REF_S is the loop's time on an idle 2.1 GHz Xeon core.
CALIBRATION_LOOPS = 2_000_000
CALIBRATION_REF_S = 0.14


@dataclass(frozen=True)
class Workload:
    command: str
    config: dict
    prepare: bool  # an untimed ``train`` writes the run directory first


# Why each workload is in the benchmark: BENCHMARK.json and README.md.
WORKLOADS = {
    "train_sweep": Workload(
        "train",
        {"d": 20, "N": 10, "depths": [64, 256, 1024], "T": 50, "schedule": "constant",
         "eta0": 0.1, "init_mode": "gaussian", "threads": 1},
        False),
    "certify_draws": Workload(
        "certify",
        {"d": 20, "N": 10, "depths": [32, 128], "T": 200, "certify_draws": 100,
         "threads": 1},
        True),
    "analyze_deep": Workload(
        "analyze",
        {"d": 20, "N": 10, "depths": [128, 256, 512], "T": 20, "threads": 1},
        True),
    "gradcheck": Workload(
        "gradcheck",
        {"gradcheck_instances": 1, "threads": 1},
        False),
}

# Public functions named by the benchmark, with the workloads that must call
# them (checked by --self-test) and so the end-to-end numbers they move.
NAMED_FUNCTIONS = {
    "network.forward_batch": ["train_sweep", "certify_draws"],
    "network.outputs_only": ["gradcheck", "certify_draws"],
    "network.forward": ["certify_draws"],
    "network.jacobian_stack": ["certify_draws"],
    "network.save_weights": ["train_sweep"],
    "network.load_weights": ["analyze_deep"],
    "autograd.grad_objective_with_stats": ["train_sweep"],
    "autograd.grad_objective": ["certify_draws"],
    "autograd.objective": ["certify_draws", "gradcheck"],
    "autograd.hessian_spectral_estimate": ["certify_draws"],
    "autograd.finite_diff_grad": ["gradcheck"],
    "training.train": ["train_sweep"],
    "training.weight_norms": ["train_sweep"],
    "training.save_runlog": ["train_sweep"],
    "training.load_runlog": ["certify_draws", "analyze_deep"],
    "bounds.certify_forward": ["certify_draws"],
    "bounds.certify_loss_bound": ["certify_draws"],
    "bounds.certify_gradient_upper": ["certify_draws"],
    "bounds.certify_gradient_lower": ["certify_draws"],
    "bounds.certify_hessian": ["certify_draws"],
    "bounds.certify_run_envelope": ["certify_draws"],
    "bounds.write_reports_jsonl": ["certify_draws"],
    "analysis.two_variation": ["analyze_deep"],
    "analysis.scaling_limit_distance": ["analyze_deep"],
    "analysis.total_scaling": ["analyze_deep"],
    "analysis.entry_scatter": ["analyze_deep"],
    "data.sample_sphere_dataset": ["train_sweep", "certify_draws"],
    "data.check_assumptions": ["certify_draws"],
    "data.save_dataset": ["train_sweep"],
}
STEP_DEPTHS = (64, 256, 1024)


@dataclass
class Sample:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    exit_code: int
    stdout: str
    stderr: str
    calibration_s: float = CALIBRATION_REF_S

    def scale(self) -> float:
        return CALIBRATION_REF_S / self.calibration_s


def calibrate() -> float:
    """Seconds this process takes for a fixed pure-Python loop."""
    start = time.perf_counter()
    x = 0
    for i in range(CALIBRATION_LOOPS):
        x += i * i % 7
    return time.perf_counter() - start


@dataclass
class Checks:
    attempted: int = 0
    failed: int = 0
    reasons: list[str] = field(default_factory=list)

    def record(self, reason: str | None) -> None:
        self.attempted += 1
        if reason is not None:
            self.failed += 1
            self.reasons.append(reason)


class HarnessError(RuntimeError):
    """The benchmark cannot run here (missing program, broken set-up)."""


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def invoke(argv: list[str], log_dir: Path, timeout: float) -> Sample:
    """Run one child to completion; wall, CPU and peak RSS come from wait4."""
    log_dir.mkdir(parents=True, exist_ok=True)
    out_path, err_path = log_dir / "stdout.txt", log_dir / "stderr.txt"
    with open(out_path, "w") as out, open(err_path, "w") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=child_env(), cwd=ROOT)
        timer = threading.Timer(max(timeout, 1.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Sample(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
                  proc.returncode, out_path.read_text(), err_path.read_text())


def measure_setup(config_path: Path, repeats: int) -> list[float]:
    """Fresh interpreters until resnetlab.cli is imported and the config
    loaded, in reference seconds."""
    times = []
    calibration = calibrate()
    for _ in range(repeats):
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, str(CHILD), "setup", str(config_path)],
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                env=child_env(), cwd=ROOT, text=True)
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            _, err = proc.communicate(timeout=60)
        except BaseException as exc:
            proc.kill()
            proc.communicate()
            if isinstance(exc, subprocess.TimeoutExpired):
                raise HarnessError("set-up probe timed out") from None
            raise
        if line.strip() != "ready" or proc.returncode != 0:
            raise HarnessError(f"cannot import resnetlab from {ROOT / 'src'}: "
                               f"{err.strip()[-400:]}")
        after = calibrate()
        times.append(elapsed * 2 * CALIBRATION_REF_S / (calibration + after))
        calibration = after
    return times


def child_output(args: list[str]) -> str:
    proc = subprocess.run([sys.executable, str(CHILD), *args], capture_output=True,
                          text=True, env=child_env(), cwd=ROOT, timeout=60)
    if proc.returncode != 0:
        raise HarnessError(f"child {args[0]} failed: {proc.stderr.strip()[-400:]}")
    return proc.stdout.strip()


def environment() -> dict:
    env = json.loads(child_output(["env"]))
    commit = None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                              cwd=ROOT, timeout=10)
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    env["git_commit"] = commit
    return env


# ---------------------------------------------------------------- outputs

def _read_csv(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def key_outputs(name: str, out_dir: Path, stdout: str) -> dict:
    """The outputs compared against the committed reference."""
    if name == "train_sweep":
        losses = {}
        for path in sorted(out_dir.glob("runlog_L*.csv")):
            rows = _read_csv(path)
            losses[path.stem.split("_L")[1]] = [float(rows[0]["loss"]), float(rows[-1]["loss"])]
        return {"initial_final_losses": losses}
    if name == "certify_draws":
        rows = [json.loads(line) for line in (out_dir / "bounds.jsonl").read_text().splitlines()]
        return {"verdicts": [[r["name"], r["pass"], r["applicable"], r["vacuous"]] for r in rows],
                "observed": [r["observed"] for r in rows]}
    if name == "analyze_deep":
        fits = json.loads((out_dir / "scaling_fits.json").read_text())
        two_var = {row["L"]: float(row["two_variation_dyadic"])
                   for row in _read_csv(out_dir / "two_variation.csv")}
        return {"scaling_fits": fits, "two_variation_dyadic": two_var}
    if name == "gradcheck":
        shapes = [" ".join(line.split()[2:6]) for line in stdout.splitlines()
                  if line.startswith("instance ")]
        return {"instances": shapes}
    raise KeyError(name)


def differences(ref, got, rtol: float, atol: float, where: str = "") -> list[str]:
    """Numbers must agree to rtol/atol; everything else exactly."""
    if isinstance(ref, bool) or isinstance(got, bool) or isinstance(ref, str):
        return [] if ref == got else [f"{where}: {got!r} != {ref!r}"]
    if isinstance(ref, (int, float)) and isinstance(got, (int, float)):
        if math.isclose(ref, got, rel_tol=rtol, abs_tol=atol):
            return []
        return [f"{where}: {got!r} vs reference {ref!r}"]
    if isinstance(ref, dict) and isinstance(got, dict):
        if set(ref) != set(got):
            return [f"{where}: keys {sorted(got)} != {sorted(ref)}"]
        return [d for k in ref for d in differences(ref[k], got[k], rtol, atol, f"{where}.{k}")]
    if isinstance(ref, list) and isinstance(got, list):
        if len(ref) != len(got):
            return [f"{where}: length {len(got)} != {len(ref)}"]
        return [d for i, (r, g) in enumerate(zip(ref, got))
                for d in differences(r, g, rtol, atol, f"{where}[{i}]")]
    return [] if ref == got else [f"{where}: {got!r} != {ref!r}"]


def seed_independent_problems(name: str, outputs: dict) -> list[str]:
    """Checks that hold for every seed, applied to the timed invocations."""
    if name == "train_sweep":
        return [f"L={L}: loss {a!r} -> {b!r} did not decrease"
                for L, (a, b) in outputs["initial_final_losses"].items()
                if not (math.isfinite(b) and b < a)]
    if name == "gradcheck":
        want = "d={} L={} N={} trainable=False".format(*GRADCHECK_SHAPE)
        return [] if outputs["instances"] == [want] else [
            f"gradcheck drew {outputs['instances']}, expected [{want!r}]"]
    return []


def same_tree(a: Path, b: Path) -> bool:
    cmp = filecmp.dircmp(a, b)
    if cmp.left_only or cmp.right_only or cmp.funny_files:
        return False
    _, mismatch, errors = filecmp.cmpfiles(a, b, cmp.common_files, shallow=False)
    if mismatch or errors:
        return False
    return all(same_tree(a / d, b / d) for d in cmp.common_dirs)


# ---------------------------------------------------------------- one run

class Run:
    """Inputs, invocations and checks for one workload at one seed."""

    def __init__(self, name: str, seed: int, trace: bool, deadline: float):
        self.name = name
        self.workload = WORKLOADS[name]
        self.seed = seed
        self.deadline = deadline
        self.dir = WORK / "runs" / f"{name}-s{seed}-t{int(trace)}-{os.getpid()}"
        self.checks = Checks()
        self.invocations = 0
        self.config_seed = (int(child_output(["gradcheck-seed", str(seed)]))
                            if name == "gradcheck" else seed)
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)

    def write_config(self, tag: str, config_seed: int) -> Path:
        path = self.dir / f"config_{tag}.json"
        path.write_text(json.dumps(dict(self.workload.config, seed=config_seed),
                                   sort_keys=True))
        return path

    def prepare(self, tag: str, config: Path) -> tuple[Path | None, list[str | None]]:
        """Untimed ``train`` whose run directory certify/analyze read; returns
        the directory and the outcome to record (none without preparation)."""
        if not self.workload.prepare:
            return None, []
        run_dir = self.dir / f"rundir_{tag}"
        sample = invoke([sys.executable, "-m", "resnetlab.cli", "train", "--config",
                         str(config), "--out", str(run_dir)],
                        self.dir / f"log_prepare_{tag}", self.remaining())
        return run_dir, [None if sample.exit_code == 0 else
                         f"prepare train ({tag}) exited {sample.exit_code}: "
                         f"{sample.stderr.strip()[-300:]}"]

    def remaining(self) -> float:
        return self.deadline - time.perf_counter()

    def argv(self, config: Path, run_dir: Path | None, out_dir: Path,
             trace_out: Path | None) -> list[str]:
        cli = [self.workload.command, "--config", str(config)]
        if self.workload.command != "gradcheck":
            cli += ["--out", str(out_dir)]
        if run_dir is not None:
            cli += ["--run-dir", str(run_dir)]
        if trace_out is None:
            return [sys.executable, "-m", "resnetlab.cli", *cli]
        return [sys.executable, str(CHILD), "trace", str(trace_out), "--", *cli]

    def call(self, config: Path, run_dir: Path | None,
             trace: bool = False) -> tuple[Sample, Path, dict | None]:
        self.invocations += 1
        inv = self.dir / f"inv{self.invocations:03d}"
        out_dir = inv / "out"
        trace_out = inv / "trace.json" if trace else None
        sample = invoke(self.argv(config, run_dir, out_dir, trace_out), inv, self.remaining())
        spans = None
        if trace_out is not None and trace_out.exists():
            spans = json.loads(trace_out.read_text())
        return sample, out_dir, spans

    def outputs_or_problem(self, sample: Sample, out_dir: Path) -> tuple[dict | None, str | None]:
        try:
            return key_outputs(self.name, out_dir, sample.stdout), None
        except (OSError, KeyError, ValueError, IndexError) as exc:
            return None, f"unreadable outputs: {exc!r}"


def source_digest() -> str:
    """Hash of the program and of the benchmark's own files."""
    digest = hashlib.sha256()
    files = sorted(p for p in (ROOT / "src").rglob("*")
                   if p.is_file() and "__pycache__" not in p.parts)
    for path in files + sorted(BENCH.glob("*.py")) + [REFERENCE]:
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def reference_outcomes(run: Run, reference: dict) -> list[str | None]:
    """One invocation at the pinned reference seed, compared to reference.json."""
    ref = reference["workloads"][run.name]
    config = run.write_config("ref", ref["config_seed"])
    run_dir, outcomes = run.prepare("ref", config)
    sample, out_dir, _ = run.call(config, run_dir)
    if sample.exit_code != ref["exit_code"]:
        return outcomes + [f"reference seed: exit {sample.exit_code} != {ref['exit_code']}: "
                           f"{sample.stderr.strip()[-300:]}"]
    outputs, problem = run.outputs_or_problem(sample, out_dir)
    if problem is None:
        diffs = differences(ref["outputs"], outputs, reference["rtol"], reference["atol"])
        if diffs:
            problem = f"reference seed: {len(diffs)} outputs differ, first: {diffs[0]}"
    shutil.rmtree(out_dir, ignore_errors=True)
    return outcomes + [problem]


def check_reference(run: Run, reference: dict) -> None:
    """Reference comparison, made once per workload and source tree; the
    outcome is cached under .perfbench/ and counted in every run."""
    cache = WORK / "reference_checks" / f"{run.name}.json"
    digest = source_digest()
    try:
        cached = json.loads(cache.read_text())
        outcomes = cached["outcomes"] if cached["digest"] == digest else None
    except (OSError, ValueError, KeyError, TypeError):
        outcomes = None
    if outcomes is None:
        outcomes = reference_outcomes(run, reference)
        cache.parent.mkdir(parents=True, exist_ok=True)
        cache.write_text(json.dumps({"digest": digest, "outcomes": outcomes}))
    for outcome in outcomes:
        run.checks.record(outcome)


def timed_loop(run: Run, seconds: float, exit_code: int, trace: bool) -> tuple[list, list]:
    """Invocations at the run's seed for ``seconds``; with ``trace`` traced and
    untraced invocations alternate. Each output must equal the first one."""
    config = run.write_config("timed", run.config_seed)
    run_dir, outcomes = run.prepare("timed", config)
    for outcome in outcomes:
        run.checks.record(outcome)
    plain: list[Sample] = []
    traced: list[tuple[Sample, dict]] = []
    first: tuple[Path, str] | None = None
    start = time.perf_counter()
    calibration = calibrate()
    while not plain or (trace and not traced) or time.perf_counter() - start < seconds:
        if run.remaining() < 5.0:
            break
        use_trace = trace and len(traced) < len(plain)
        sample, out_dir, spans = run.call(config, run_dir, trace=use_trace)
        after = calibrate()
        sample.calibration_s = (calibration + after) / 2
        calibration = after
        problem = None
        if sample.exit_code != exit_code:
            problem = f"exit {sample.exit_code} != {exit_code}: {sample.stderr.strip()[-300:]}"
        elif use_trace and spans is None:
            problem = "traced invocation wrote no trace"
        else:
            outputs, problem = run.outputs_or_problem(sample, out_dir)
            if problem is None:
                problems = seed_independent_problems(run.name, outputs)
                problem = problems[0] if problems else None
        if problem is None:
            # gradcheck has no --out tree; its stdout is the output
            if first is None:
                first = (out_dir, sample.stdout)
            elif sample.stdout != first[1] or (out_dir.exists() != first[0].exists()) or (
                    out_dir.exists() and not same_tree(first[0], out_dir)):
                problem = "outputs differ from the first invocation at this seed"
        run.checks.record(problem)
        if use_trace:
            traced.append((sample, spans))
        else:
            plain.append(sample)
        if first is None or out_dir != first[0]:
            shutil.rmtree(out_dir, ignore_errors=True)
    return plain, traced


# ---------------------------------------------------------------- metrics

def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q2, q1, q3


def layer_metrics(spans: dict) -> dict[str, float]:
    """Per-layer metrics of one traced invocation."""
    funcs = spans["functions"]
    by_depth = spans["by_depth"]
    by_parent = spans["by_parent"]

    def calls(name):
        return funcs.get(name, {}).get("calls", 0)

    def self_s(name):
        return funcs.get(name, {}).get("self_s", 0.0)

    def per_layer_step_us(name, depth, steps_from=None):
        cells = by_depth.get(name, {})
        time_s = cells.get(str(depth), [0, 0.0])[1]
        steps = by_depth.get(steps_from or name, {}).get(str(depth), [0, 0.0])[0]
        return 1e6 * time_s / (depth * steps) if steps else 0.0

    out: dict[str, float] = {}
    for name in NAMED_FUNCTIONS:
        out[f"{name}.calls"] = calls(name)
        out[f"{name}.self_s"] = self_s(name)
    for layer in LAYER_MODULES:
        out[f"{layer}.self_s"] = sum(v["self_s"] for k, v in funcs.items()
                                     if k.startswith(layer + "."))
    out["cli.self_s"] = self_s("cli")
    out["autograd.hessian_spectral_estimate.total_s"] = funcs.get(
        "autograd.hessian_spectral_estimate", {}).get("total_s", 0.0)
    for depth in STEP_DEPTHS:
        out[f"network.forward_us_per_layer_step.L{depth}"] = per_layer_step_us(
            "network.forward_batch", depth)
        out[f"autograd.backward_us_per_layer_step.L{depth}"] = per_layer_step_us(
            "autograd.grad_objective_with_stats", depth)
        out[f"training.update_us_per_layer_step.L{depth}"] = per_layer_step_us(
            "training.train", depth, steps_from="autograd.grad_objective_with_stats")
    out["network.save_weights.bytes"] = spans["bytes"].get("network.save_weights", 0)
    out["network.load_weights.bytes"] = spans["bytes"].get("network.load_weights", 0)
    grad_parents = by_parent.get("autograd.grad_objective", {})
    obj_parents = by_parent.get("autograd.objective", {})
    out["autograd.hvp_grad_passes"] = grad_parents.get("autograd.hessian_spectral_estimate", 0)
    out["autograd.fd_objective_calls"] = obj_parents.get("autograd.finite_diff_grad", 0)
    draws = calls("bounds.certify_forward")
    in_bounds = ("bounds.certify_loss_bound", "bounds.certify_gradient_upper",
                 "bounds.certify_gradient_lower")
    out["bounds.grad_passes_per_draw"] = (
        sum(grad_parents.get(p, 0) for p in in_bounds) / draws if draws else 0.0)
    out["bounds.objective_passes_per_draw"] = (
        sum(obj_parents.get(p, 0) for p in in_bounds) / draws if draws else 0.0)
    out["analysis.two_variation.rss_growth_mb"] = spans["rss_growth_mb"].get(
        "analysis.two_variation", 0.0)
    return out


def summarize(run: Run, setup: list[float], plain: list[Sample],
              traced: list[tuple[Sample, dict]], spec: dict) -> dict:
    e2e: dict[str, list[float]] = {
        "wall_s": [s.wall_s * s.scale() for s in plain],
        "cpu_s": [s.cpu_s * s.scale() for s in plain],
        "peak_rss_mb": [s.peak_rss_mb for s in plain],
        "setup_s": setup,
        "raw_wall_s": [s.wall_s for s in plain],
        "calibration_s": [s.calibration_s for s in plain],
    }
    stats = {k: quartiles(v) for k, v in e2e.items() if v}
    extra = {"fail_ratio": run.checks.failed / max(run.checks.attempted, 1)}
    if run.name == "train_sweep" and "wall_s" in stats:
        cfg = run.workload.config
        extra["layer_steps_per_s"] = sum(cfg["depths"]) * cfg["T"] / stats["wall_s"][0]
    metrics: dict[str, dict] = {}
    if not traced:
        for m in spec["end_to_end"]:
            metrics[m["name"]] = {"value": stats[m["name"]][0], "unit": m["unit"]}
    else:
        time_units = {m["name"] for m in spec["per_layer"] if m["unit"] in ("s", "us")}
        per_run = [{k: v * sample.scale() if k in time_units else v
                    for k, v in layer_metrics(spans).items()} for sample, spans in traced]
        traced_wall = statistics.median(s.wall_s * s.scale() for s, _ in traced)
        for m in spec["per_layer"]:
            if m["name"] == "trace.overhead_s":
                value = traced_wall - stats["wall_s"][0]
            else:
                value = statistics.median(r[m["name"]] for r in per_run)
            metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    return {"stats": stats, "samples": e2e, "extra": extra, "metrics": metrics}


def report_lines(name: str, summary: dict, checks: Checks, spec: dict) -> list[str]:
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    units.update(raw_wall_s="s", calibration_s="s")
    lines = []
    for metric, (med, q1, q3) in summary["stats"].items():
        n = len(summary["samples"][metric])
        lines.append(f"{name} {metric}: median {med:.6g} {units.get(metric, '')} "
                     f"(q1 {q1:.6g}, q3 {q3:.6g}, n={n})")
    for metric, value in summary["extra"].items():
        unit = "1/s" if metric == "layer_steps_per_s" else "ratio"
        lines.append(f"{name} {metric}: {value:.6g} {unit}"
                     + (f" ({checks.failed}/{checks.attempted})" if metric == "fail_ratio" else ""))
    return lines


def run_workload(name: str, seed: int, seconds: float, trace: bool, spec: dict,
                 reference: dict) -> tuple[dict, Checks]:
    deadline = time.perf_counter() + RUN_DEADLINE_S
    run = Run(name, seed, trace, deadline)
    try:
        config = run.write_config("setup", run.config_seed)
        setup = measure_setup(config, SETUP_REPEATS)
        env = environment()
        check_reference(run, reference)
        plain, traced = timed_loop(run, seconds, reference["workloads"][name]["exit_code"],
                                   trace)
    finally:
        shutil.rmtree(run.dir, ignore_errors=True)
    if not plain:
        raise HarnessError("deadline reached before any timed invocation")
    summary = summarize(run, setup, plain, traced, spec)
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
              "environment": env, "attempted": run.checks.attempted,
              "failed": run.checks.failed, "failures": run.checks.reasons, **summary}
    (results / f"{name}_seed{seed}_trace{int(trace)}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True))
    return summary, run.checks


# ---------------------------------------------------------------- self-test

def self_test() -> int:
    """Every named function is called on its workload, every binding is
    patched, and the self times of all spans add up to the root span."""
    problems = []
    for name in WORKLOADS:
        run = Run(name, REFERENCE_SEED, True, time.perf_counter() + RUN_DEADLINE_S)
        try:
            config = run.write_config("selftest", run.config_seed)
            run_dir, _ = run.prepare("selftest", config)
            sample, _, spans = run.call(config, run_dir, trace=True)
        finally:
            shutil.rmtree(run.dir, ignore_errors=True)
        if spans is None or sample.exit_code != 0:
            problems.append(f"{name}: traced run failed ({sample.exit_code}): "
                            f"{sample.stderr.strip()[-300:]}")
            continue
        if spans["unpatched"]:
            problems.append(f"{name}: unpatched bindings {spans['unpatched']}")
        for func, workloads in NAMED_FUNCTIONS.items():
            if name in workloads and spans["functions"].get(func, {}).get("calls", 0) < 1:
                problems.append(f"{name}: {func} recorded no call")
        gap = abs(spans["self_total_s"] - spans["root_s"])
        if gap > 1e-9 * max(1.0, spans["root_s"]):
            problems.append(f"{name}: self times sum to {spans['self_total_s']!r}, "
                            f"root span {spans['root_s']!r}")
        print(f"self-test {name}: {sum(v['calls'] for v in spans['functions'].values())} "
              f"spans, root {spans['root_s']:.3f} s")
    for p in problems:
        print(f"self-test FAIL {p}", file=sys.stderr)
    print("self-test " + ("failed" if problems else "passed"))
    return 1 if problems else 0


def write_reference(old: dict) -> int:
    """Record key outputs at the reference seed (only when outputs change on purpose)."""
    workloads = {}
    for name in WORKLOADS:
        run = Run(name, REFERENCE_SEED, False, time.perf_counter() + RUN_DEADLINE_S)
        try:
            config = run.write_config("ref", run.config_seed)
            run_dir, _ = run.prepare("ref", config)
            sample, out_dir, _ = run.call(config, run_dir)
            outputs = key_outputs(name, out_dir, sample.stdout)
        finally:
            shutil.rmtree(run.dir, ignore_errors=True)
        workloads[name] = {"config_seed": run.config_seed, "exit_code": sample.exit_code,
                           "outputs": outputs}
        print(f"reference {name}: exit {sample.exit_code}")
    # One line per workload keeps the file short and its diffs per workload.
    lines = [f' "{name}": {json.dumps(workloads[name], sort_keys=True)}' for name in workloads]
    REFERENCE.write_text(f'{{"rtol": {old["rtol"]!r}, "atol": {old["atol"]!r}, "workloads": {{\n'
                         + ",\n".join(lines) + "\n}}\n")
    return 0


# ---------------------------------------------------------------- main

def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per run (default: run_seconds in BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args(argv)
    # Turn SIGTERM into SystemExit so a running child is killed and reaped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    # One CPU for the harness and every child: calibration and invocation
    # then share a core, and no child migrates between cores mid-run.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    try:
        if not (ROOT / "src" / "resnetlab" / "cli.py").is_file():
            raise HarnessError(f"no resnetlab sources under {ROOT / 'src'}")
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        reference = json.loads(REFERENCE.read_text())
        if args.self_test:
            return self_test()
        if args.write_reference:
            return write_reference(reference)
        if args.workload is None:
            parser.error("--workload is required")
        seconds = spec["run_seconds"] if args.seconds is None else args.seconds
        names = list(WORKLOADS) if args.workload == "all" else [args.workload]
        total = Checks()
        combined = {}
        for name in names:
            summary, checks = run_workload(name, args.seed, seconds, bool(args.trace),
                                           spec, reference)
            for line in report_lines(name, summary, checks, spec):
                print(line)
            for reason in checks.reasons[:5]:
                print(f"{name} FAILED: {reason}", file=sys.stderr)
            total.attempted += checks.attempted
            total.failed += checks.failed
            prefix = "" if len(names) == 1 else f"{name}."
            combined.update({prefix + k: v for k, v in summary["metrics"].items()})
    except (HarnessError, OSError, json.JSONDecodeError, subprocess.SubprocessError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"correct": total.failed == 0, "attempted": total.attempted,
                      "failed": total.failed, "metrics": combined}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
