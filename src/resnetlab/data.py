"""Synthetic datasets on the unit sphere, initializers and the admissible caps.

A dataset is feasible when its inputs are pairwise nearly orthogonal:
max_{i != j} |<x_i, x_j>| <= exp(-4 c0) / (8 N). Sampling simply retries
whole draws until that holds, which mirrors the probabilistic feasibility
argument (succeeds quickly once d is comfortably larger than N^2-ish,
certainly for d > N^4).
"""

from __future__ import annotations

import csv
import json
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInputError, NumericalOverflowError
from .network import TANH, Activation, NetworkConfig, Weights, forward_batch

MAX_RETRIES = 1000  # whole draws before a separation is declared infeasible
UNIT_NORM_TOL = 1e-12
# the largest c0 at which e^{8.4 c0}, the steepest exponential among the
# bound formulas, is still a finite float
C0_MAX = math.log(sys.float_info.max) / 8.4


@dataclass(frozen=True)
class AssumptionParams:
    """Problem-size constants entering every admissibility threshold."""

    c0: float
    N: int
    d: int
    L: int

    def __post_init__(self):
        if not 0.0 < self.c0 <= C0_MAX:
            raise InvalidInputError(f"c0 must lie in (0, {C0_MAX:.6g}], got {self.c0!r}")
        if min(self.N, self.d, self.L) < 1:
            raise InvalidInputError("N, d, L must be >= 1")


@dataclass(frozen=True)
class Dataset:
    """N input/target pairs; ``separation`` is ``separation_of(xs)``."""

    xs: np.ndarray
    ys: np.ndarray
    separation: float = field(init=False)

    def __post_init__(self):
        xs = np.asarray(self.xs, dtype=np.float64)
        ys = np.asarray(self.ys, dtype=np.float64)
        if xs.shape != ys.shape or xs.ndim != 2 or 0 in xs.shape:
            raise InvalidInputError("xs and ys must share shape (N, d) with N, d >= 1")
        if not (np.all(np.isfinite(xs)) and np.all(np.isfinite(ys))):
            raise InvalidInputError("dataset has non-finite entries")
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "ys", ys)
        object.__setattr__(self, "separation", separation_of(xs))

    @property
    def n(self) -> int:
        return self.xs.shape[0]

    @property
    def dim(self) -> int:
        return self.xs.shape[1]


def separation_of(xs: np.ndarray) -> float:
    """max over i != j of |<x_i, x_j>| (zero for a single point)."""
    xs = np.asarray(xs, dtype=np.float64)
    if xs.shape[0] < 2:
        return 0.0
    gram = np.abs(xs @ xs.T)
    np.fill_diagonal(gram, 0.0)
    return float(np.max(gram))


def separation_threshold(N: int, c0: float) -> float:
    return np.exp(-4.0 * c0) / (8.0 * N)


def _unit_rows(rows: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(rows, axis=1, keepdims=True)
    if not np.all(np.isfinite(norms)):
        raise NumericalOverflowError("a row norm overflowed while normalizing to unit length")
    return rows / norms


def sample_sphere_dataset(N: int, d: int, seed: int, params: AssumptionParams,
                          enforce_separation: bool = True) -> Dataset:
    """Inputs i.i.d. uniform on the sphere, redrawn until separated, and
    independent uniform unit targets.

    Identical seeds give bitwise-identical datasets. With
    ``enforce_separation=False`` the first draw is kept whatever its
    separation; the desk-scale sweeps need this because the threshold
    is only reachable when d is much larger than N.
    """
    if N < 1 or d < 1:
        raise InvalidInputError("N and d must be >= 1")
    rng = np.random.default_rng(seed)
    threshold = separation_threshold(N, params.c0)
    best = np.inf
    for _ in range(MAX_RETRIES):
        xs = _unit_rows(rng.standard_normal((N, d)))
        sep = separation_of(xs)
        best = min(best, sep)
        if sep <= threshold or not enforce_separation:
            ys = _unit_rows(rng.standard_normal((N, d)))
            return Dataset(xs, ys)
    raise InvalidInputError(
        f"no draw of {N} points in dimension {d} met separation "
        f"{threshold:.6g} within {MAX_RETRIES} retries (best {best:.6g})")


def near_init_targets(xs: np.ndarray, w0: Weights, epsilon: float, seed: int,
                      activation: Activation = TANH) -> np.ndarray:
    """Unit targets close to the initial outputs: normalize(yhat + eps * xi).

    xi are independent unit Gaussian directions, so the initial objective is
    O(epsilon^2) plus the squared norm defect of the raw outputs.
    """
    if epsilon < 0:
        raise InvalidInputError("epsilon must be >= 0")
    outputs = forward_batch(np.asarray(xs, dtype=np.float64), w0, activation).output
    rng = np.random.default_rng(seed)
    noise = _unit_rows(rng.standard_normal(outputs.shape))
    with np.errstate(over="ignore"):
        return _unit_rows(outputs + epsilon * noise)


def gaussian_init_std(d: int, L: int, beta0: float) -> float:
    """d**-1 * L**-beta0; InvalidInputError unless it and L d^2 times its
    square (the expected squared norm of the stack) are finite floats."""
    try:
        std = d ** (-1.0) * float(L) ** (-beta0)
    except OverflowError:
        std = math.inf
    if not math.isfinite(std * std * L * d * d):
        raise InvalidInputError(
            f"beta0={beta0!r} overflows the init scale L**(-beta0) at L={L}")
    return std


def init_gaussian(config: NetworkConfig, beta0: float, seed: int) -> Weights:
    """Entries i.i.d. normal with standard deviation d**-1 * L**-beta0."""
    d, L = config.width, config.depth
    std = gaussian_init_std(d, L, beta0)
    rng = np.random.default_rng(seed)
    return Weights(std * rng.standard_normal((L, d, d)), config.delta)


def initial_row_norm_cap(params: AssumptionParams) -> float:
    """Admissible sup over layers and rows of the row Euclidean norms at t=0."""
    return (2.0 ** (-4.5) * params.N ** (-0.5) * params.d ** (-0.5)
            * np.exp(-4.2 * params.c0) / params.L)


def initial_loss_cap(params: AssumptionParams) -> float:
    """Admissible objective value at t=0."""
    return (2.0 ** (-15) * 3.0 ** (-2) * params.N ** (-2.0) / params.d
            * params.c0 ** 2 * np.exp(-8.2 * params.c0))


def init_certified(config: NetworkConfig, params: AssumptionParams, seed: int,
                   scale: float = 1.0) -> Weights:
    """Rows in uniformly random directions with norm exactly scale * cap.

    With scale <= 1 the row-norm clause holds by construction; smaller scales
    leave headroom for the initial-loss clause.
    """
    if not 0.0 <= scale <= 1.0:
        raise InvalidInputError("scale must lie in [0, 1]")
    d, L = config.width, config.depth
    rng = np.random.default_rng(seed)
    directions = rng.standard_normal((L, d, d))
    directions /= np.linalg.norm(directions, axis=2, keepdims=True)
    return Weights(scale * initial_row_norm_cap(params) * directions, config.delta)


def write_csv(path, header, rows) -> None:
    """The one CSV writer of the package: ``header``, then one line per row.

    Cells must be Python scalars (numpy arrays pass through ``.tolist()``
    first): ``csv`` writes a float as its ``repr``, an exact round trip, and
    None as an empty cell. Lines end in ``\\r\\n``.
    """
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def write_json(path, obj) -> None:
    """The one JSON file writer of the package: ``obj`` with sorted keys and
    two-space indents, then a newline."""
    with open(path, "w") as fh:
        json.dump(obj, fh, sort_keys=True, indent=2)
        fh.write("\n")


def save_dataset(data: Dataset, csv_path, seed: int, c0: float) -> None:
    """CSV of components plus a JSON sidecar with {N, d, seed, separation, c0};
    ``seed`` and ``c0`` are those of the config that drew the data."""
    csv_path = str(csv_path)
    rows = []
    for i, (x, y) in enumerate(zip(data.xs.tolist(), data.ys.tolist())):
        rows += [(i, "x", j, value) for j, value in enumerate(x)]
        rows += [(i, "y", j, value) for j, value in enumerate(y)]
    write_csv(csv_path, ["i", "kind", "component", "value"], rows)
    write_json(_sidecar_path(csv_path), {"N": data.n, "d": data.dim, "seed": seed,
                                         "separation": data.separation, "c0": c0})


def _sidecar_path(csv_path: str) -> str:
    return csv_path[:-4] + ".json" if csv_path.endswith(".csv") else csv_path + ".json"


def load_dataset(csv_path) -> tuple[Dataset, dict]:
    """The dataset that ``save_dataset`` wrote at ``csv_path``, and its sidecar.

    The sidecar's N and d must be positive integers, and the CSV must hold
    each (i, kind, component) cell with i < N, kind x or y and component < d
    exactly once; anything else raises InvalidInputError naming the file.
    """
    csv_path = str(csv_path)
    sidecar = _sidecar_path(csv_path)
    try:
        with open(sidecar) as fh:
            meta = json.load(fh)
        with open(csv_path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            rows = list(reader)
    except (ValueError, csv.Error) as exc:  # JSON and UTF-8 errors are ValueErrors
        raise InvalidInputError(f"unreadable dataset {csv_path}: {exc}") from None
    n, d = (meta.get(key) if isinstance(meta, dict) else None for key in ("N", "d"))
    if not all(type(v) is int and v >= 1 for v in (n, d)):
        raise InvalidInputError(f"sidecar {sidecar} needs positive integers N and d, "
                                f"got N={n!r}, d={d!r}")
    if header != ["i", "kind", "component", "value"]:
        raise InvalidInputError(f"unexpected dataset header {header!r} in {csv_path}")
    # counted before anything of size N d is allocated
    if len(rows) != 2 * n * d:
        raise InvalidInputError(f"dataset {csv_path} has {len(rows)} rows, expected "
                                f"2 N d = {2 * n * d} for N={n}, d={d}")
    # 2 N d rows, each in range and none repeated, fill every cell once
    values = np.empty((2, n, d))
    seen = np.zeros((2, n, d), dtype=bool)
    for row in rows:
        try:
            i, kind, comp, value = row
            cell = ({"x": 0, "y": 1}[kind], int(i), int(comp))
            number = float(value)
        except (ValueError, KeyError):  # a wrong cell count, kind or number
            raise InvalidInputError(f"malformed dataset row {row!r} in {csv_path}") from None
        if not (0 <= cell[1] < n and 0 <= cell[2] < d):
            raise InvalidInputError(f"dataset row {row!r} out of range for N={n}, "
                                    f"d={d} in {csv_path}")
        if seen[cell]:
            raise InvalidInputError(f"dataset row {row!r} repeats a cell in {csv_path}")
        seen[cell] = True
        values[cell] = number
    try:
        return Dataset(values[0], values[1]), meta
    except InvalidInputError as exc:
        raise InvalidInputError(f"{exc} in {csv_path}") from None
