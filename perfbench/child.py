"""Child-process side of the resnetlab benchmark.

``run.py`` stays stdlib-only; everything that imports ``resnetlab`` (and so
numpy) runs here, in a fresh interpreter per call:

    child.py setup CONFIG          import resnetlab.cli, load CONFIG, print "ready"
    child.py env                   print the numeric environment as JSON
    child.py gradcheck-seed SEED   print the config seed run.py uses for gradcheck
    child.py trace OUT -- ARGS...  run ``resnetlab ARGS`` with every public function
                                   of the layer modules wrapped; write aggregates to OUT

The tracer records one span per call of a wrapped function. A span's self
time is its duration minus the durations of the spans it directly caused,
so the self times of all spans add up to the root span (``cli``).
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import resource
import sys
import time

LAYER_MODULES = ("network", "autograd", "training", "bounds", "analysis", "data")

# gradcheck draws (d, L, N) for each instance from the config seed; run.py
# pins the one instance it asks for to this shape (see gradcheck_seed).
GRADCHECK_SHAPE = (8, 32, 4)
GRADCHECK_SEED_STRIDE = 100_003


def cmd_setup(config_path: str) -> int:
    from resnetlab.cli import load_config
    load_config(config_path, {})
    print("ready", flush=True)
    return 0


def cmd_env() -> int:
    import numpy as np

    blas = {}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        blas = {k: deps["blas"].get(k) for k in ("name", "version")}
    except (TypeError, KeyError):
        pass
    cpu_model = None
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    thread_vars = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    print(json.dumps({
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas,
        "threads": {k: os.environ.get(k) for k in thread_vars},
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
    }, sort_keys=True))
    return 0


def gradcheck_seed(seed: int) -> int:
    """First config seed from ``seed * stride`` on whose first gradcheck
    instance ``resnetlab gradcheck`` draws GRADCHECK_SHAPE.

    Replays the first three draws of ``cli.cmd_gradcheck``. Random shapes
    would make the work per invocation swing about 2.5x with the seed; a
    pinned shape keeps the timing comparable across seeds while the data
    and weights still come from the seed.
    """
    import numpy as np

    candidate = seed * GRADCHECK_SEED_STRIDE
    while True:
        rng = np.random.default_rng(candidate)
        shape = (int(rng.integers(2, 9)), int(rng.integers(1, 33)), int(rng.integers(1, 5)))
        if shape == GRADCHECK_SHAPE:
            return candidate
        candidate += 1


class Tracer:
    """Aggregates spans of wrapped calls; nothing is written until ``dump``."""

    def __init__(self, weights_type):
        self.weights_type = weights_type
        self.stack: list[list] = []  # [name, start, child_time]
        self.stats: dict[str, dict] = {}
        self.by_depth: dict[str, dict[int, list]] = {}
        self.by_parent: dict[str, dict[str, int]] = {}
        self.bytes: dict[str, int] = {}
        self.rss_growth_mb: dict[str, float] = {}
        self.self_total = 0.0
        self.root_s = 0.0

    def _depth(self, args, kwargs) -> int | None:
        for a in list(args) + list(kwargs.values()):
            if isinstance(a, self.weights_type):
                return a.depth
        return None

    def span(self, name: str, fn, args, kwargs):
        parent = self.stack[-1][0] if self.stack else None
        depth = self._depth(args, kwargs)
        rss_before = _current_rss_bytes() if name == "analysis.two_variation" else None
        frame = [name, time.perf_counter(), 0.0]
        self.stack.append(frame)
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self.stack.pop()
            duration = end - frame[1]
            self_s = duration - frame[2]
            self.self_total += self_s
            if self.stack:
                self.stack[-1][2] += duration
            else:
                self.root_s += duration
            entry = self.stats.setdefault(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
            entry["calls"] += 1
            entry["self_s"] += self_s
            entry["total_s"] += duration
            if depth is not None:
                cell = self.by_depth.setdefault(name, {}).setdefault(depth, [0, 0.0])
                cell[0] += 1
                cell[1] += self_s
            parents = self.by_parent.setdefault(name, {})
            parents[str(parent)] = parents.get(str(parent), 0) + 1
            if name in ("network.save_weights", "network.load_weights"):
                path = args[1] if name == "network.save_weights" else args[0]
                self.bytes[name] = self.bytes.get(name, 0) + os.path.getsize(path)
            if rss_before is not None:
                peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
                growth = max(0.0, (peak - rss_before) / 2 ** 20)
                self.rss_growth_mb[name] = max(self.rss_growth_mb.get(name, 0.0), growth)

    def dump(self, path: str, unpatched: list[str]) -> None:
        with open(path, "w") as fh:
            json.dump({
                "functions": self.stats,
                "by_depth": {n: {str(d): v for d, v in cells.items()}
                             for n, cells in self.by_depth.items()},
                "by_parent": self.by_parent,
                "bytes": self.bytes,
                "rss_growth_mb": self.rss_growth_mb,
                "self_total_s": self.self_total,
                "root_s": self.root_s,
                "unpatched": unpatched,
            }, fh, sort_keys=True, indent=1)


def _current_rss_bytes() -> int:
    try:
        with open("/proc/self/statm") as fh:
            return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")
    except (OSError, ValueError, IndexError):
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


def install_tracer(tracer: Tracer) -> list[str]:
    """Wrap every public function of the layer modules and rebind each name
    that refers to one, in every loaded resnetlab module (``from .x import f``
    copies the binding). Returns the bindings still pointing at an original."""
    import importlib

    modules = [importlib.import_module(f"resnetlab.{m}") for m in LAYER_MODULES]
    wrappers: dict[int, object] = {}
    originals: dict[int, str] = {}
    for mod in modules:
        layer = mod.__name__.rsplit(".", 1)[1]
        for name, fn in vars(mod).items():
            if (name.startswith("_") or not inspect.isfunction(fn)
                    or fn.__module__ != mod.__name__):
                continue
            wrappers[id(fn)] = _wrap(tracer, f"{layer}.{name}", fn)
            originals[id(fn)] = f"{layer}.{name}"

    loaded = [m for n, m in sys.modules.items()
              if n == "resnetlab" or n.startswith("resnetlab.")]
    for mod in loaded:
        for name, value in list(vars(mod).items()):
            if id(value) in wrappers:
                setattr(mod, name, wrappers[id(value)])
    return sorted(f"{mod.__name__}.{name}" for mod in loaded
                  for name, value in vars(mod).items() if id(value) in originals)


def _wrap(tracer: Tracer, qualname: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return tracer.span(qualname, fn, args, kwargs)
    return wrapper


def cmd_trace(out_path: str, cli_args: list[str]) -> int:
    import resnetlab.cli as cli
    from resnetlab.network import Weights

    tracer = Tracer(Weights)
    unpatched = install_tracer(tracer)
    try:
        code = tracer.span("cli", cli.main, (cli_args,), {})
    finally:
        tracer.dump(out_path, unpatched)
    return code


def main(argv: list[str]) -> int:
    if len(argv) >= 2 and argv[0] == "setup":
        return cmd_setup(argv[1])
    if argv == ["env"]:
        return cmd_env()
    if len(argv) == 2 and argv[0] == "gradcheck-seed":
        print(gradcheck_seed(int(argv[1])))
        return 0
    if len(argv) >= 3 and argv[0] == "trace" and argv[2] == "--":
        return cmd_trace(argv[1], argv[3:])
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
