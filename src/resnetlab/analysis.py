"""Scaling diagnostics over trained runs.

Layer-indexed weights are treated as step functions on [0, 1] via s = k/L
and the depth rescaling sqrt(L) * A_k, so runs of different depth become
comparable paths: this module fits power laws across depth, measures
steps-to-epsilon convergence, estimates 2-variation of the rescaled paths
and computes sup distances between consecutive depths.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError
from .network import Weights
from .training import RunLog

# Byte budget of the one working buffer of each path kernel below: the
# kernels' memory beyond their inputs does not grow with depth.
CHUNK_BYTES = 256 * 1024


@dataclass(frozen=True)
class ScalingFit:
    """Least-squares fit of log(value) = intercept - exponent * log(L)."""

    exponent: float
    intercept: float
    r_squared: float


def fit_power_law(points) -> ScalingFit:
    """Fit value ~ L**(-exponent) over (L, value) pairs; values must be > 0."""
    pts = [(float(l), float(v)) for l, v in points]
    if len({l for l, _ in pts}) < 2:
        raise InvalidInputError("need at least 2 distinct L values")
    if any(v <= 0 for _, v in pts):
        raise InvalidInputError("power-law fit requires positive values")
    log_l = np.log([l for l, _ in pts])
    log_v = np.log([v for _, v in pts])
    slope, intercept = np.polyfit(log_l, log_v, 1)
    fitted = slope * log_l + intercept
    ss_res = float(np.sum((log_v - fitted) ** 2))
    ss_tot = float(np.sum((log_v - np.mean(log_v)) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return ScalingFit(float(-slope), float(intercept), r2)


def steps_to_epsilon(log, eps_grid) -> list[tuple[float, int | None]]:
    """First logged step with loss below each epsilon (None if never reached).

    Accepts a RunLog or a plain loss sequence indexed by step.
    """
    if isinstance(log, RunLog):
        ts, losses = np.asarray(log.t), np.asarray(log.loss)
    else:
        losses = np.asarray(log, dtype=np.float64)
        ts = np.arange(len(losses))
    out = []
    for eps in eps_grid:
        eps = float(eps)
        if eps <= 0:
            raise InvalidInputError("epsilon grid must be positive")
        hits = np.nonzero(losses < eps)[0]
        out.append((eps, int(ts[hits[0]]) if len(hits) else None))
    return out


@dataclass(frozen=True)
class PathFunction:
    """Matrix-valued step function sampled at strictly increasing s in [0, 1]."""

    s: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        s = np.asarray(self.s, dtype=np.float64)
        values = np.asarray(self.values, dtype=np.float64)
        if s.ndim != 1 or len(s) == 0 or len(s) != len(values):
            raise InvalidInputError("need one value per sample point")
        if np.any(np.diff(s) <= 0):
            raise InvalidInputError("sample points must be strictly increasing")
        if not (np.all(np.isfinite(s)) and np.all(np.isfinite(values))):
            raise InvalidInputError("path has non-finite entries")
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "values", values)

    @property
    def points(self) -> int:
        return len(self.s)


def rescaled_path(weights: Weights) -> PathFunction:
    """s = k/L against sqrt(L) * A_k: the depth-rescaled weight path."""
    L = weights.depth
    s = np.arange(1, L + 1) / L
    return PathFunction(s, np.sqrt(L) * weights.layers)


def two_variation(path: PathFunction) -> float:
    """Largest summed squared Frobenius increments over the dyadic partitions.

    Partitions are index chains of the sample grid that contain both
    endpoints; this maximizes over the full grid and its dyadic coarsenings
    (every 2^j-th point plus the last), a lower bound on the supremum over
    all partitions, in O(P d^2) time for P points of width d. Each chain's
    increments pass through one buffer of at most ``CHUNK_BYTES``.
    """
    flat = path.values.reshape(path.points, -1)
    last = path.points - 1
    rows = max(1, CHUNK_BYTES // (flat.shape[1] * flat.itemsize))
    buf = np.empty((min(rows, max(last, 1)), flat.shape[1]))
    sums = np.empty(len(buf))

    best, stride = 0.0, 1
    while True:
        chain = flat[::stride]
        inner = len(chain) - 1  # increments between chain points
        count = inner + (last % stride != 0)  # plus the one to the last point
        total = 0.0
        for start in range(0, count, len(buf)):
            stop = min(start + len(buf), count)
            mid = min(stop, inner)
            np.subtract(chain[start + 1:mid + 1], chain[start:mid], buf[:mid - start])
            if mid < stop:
                np.subtract(flat[last], chain[-1], buf[mid - start])
            step, part = buf[:stop - start], sums[:stop - start]
            np.multiply(step, step, step)
            np.add.reduce(step, axis=-1, out=part)
            # increments added in index order, one at a time, not np.sum's
            # pairwise order: the running sum carries from chunk to chunk
            part[0] += total
            np.add.accumulate(part, out=part)
            total = float(part[-1])
        best = max(best, total)
        if stride >= last:
            return best
        stride *= 2


def _rescaled_rows(weights: Weights, s: np.ndarray, out: np.ndarray) -> None:
    """sqrt(L) * A_{floor(L s)} into ``out`` (len(s), d, d), index clipped to [1, L]."""
    # floor(L*s) with a nudge so grid points shared across depths land exactly
    k = np.floor(weights.depth * s + 1e-9).astype(np.intp)
    k -= 1
    # mode="clip" clips k - 1 to [0, L - 1], and unlike "raise" it writes
    # into out without a buffered copy
    np.take(weights.layers, k, axis=0, out=out, mode="clip")
    np.multiply(np.sqrt(weights.depth), out, out)


def scaling_limit_distance(runs: list[tuple[int, Weights]]) -> list[tuple[tuple[int, int], float]]:
    """Sup distance of rescaled weight paths between consecutive depths.

    Both paths are evaluated piecewise-constantly on the union of their layer
    grids, and the max over that grid of |sqrt(L) A_{floor(Ls)} -
    sqrt(L') A_{floor(L's)}|_F is reported per consecutive depth pair. Both
    paths pass through one buffer of at most ``CHUNK_BYTES``.
    """
    if len(runs) < 2:
        raise InvalidInputError("need at least two depths")
    runs = sorted(runs, key=lambda lw: lw[0])
    widths = {w.width for _, w in runs}
    if len(widths) != 1:
        raise InvalidInputError("all runs must share the width d")
    d = widths.pop()
    rows = max(1, CHUNK_BYTES // (2 * d * d * runs[0][1].layers.itemsize))
    buf = np.empty((2, rows, d * d))
    sq = np.empty(rows)
    out = []
    for (l1, w1), (l2, w2) in zip(runs[:-1], runs[1:]):
        # the sorted union of both grids; np.union1d would import numpy.ma
        grid = np.concatenate((np.arange(1, l1 + 1) / l1, np.arange(1, l2 + 1) / l2))
        grid.sort()
        grid = grid[np.concatenate(([True], grid[1:] != grid[:-1]))]
        sup = 0.0
        for start in range(0, len(grid), rows):
            s = grid[start:start + rows]
            gap, other, norms = buf[0, :len(s)], buf[1, :len(s)], sq[:len(s)]
            _rescaled_rows(w1, s, gap.reshape(-1, d, d))
            _rescaled_rows(w2, s, other.reshape(-1, d, d))
            np.subtract(gap, other, gap)
            # each row's squared norm by the BLAS dot that np.linalg.norm
            # uses, in the same order for C-ordered stacks (as load_weights
            # and train write them)
            np.matmul(gap[:, None, :], gap[:, :, None], norms[:, None, None])
            np.sqrt(norms, norms)
            # fmax skips a NaN gap (from inf - inf) as max(sup, nan) did
            sup = float(np.fmax.reduce(norms, initial=sup))
        out.append(((l1, l2), sup))
    return out


def mean_layer_norm(weights: Weights) -> float:
    """Mean over the layers of the Frobenius norm, equal bit for bit to the
    mean of ``np.linalg.norm(weights.layers, axis=(1, 2))``; the squares pass
    through one buffer of at most ``CHUNK_BYTES``."""
    layers = weights.layers
    L, d = weights.depth, weights.width
    rows = max(1, CHUNK_BYTES // (d * d * layers.itemsize))
    # the stack's own memory layout, so each sum runs in np.linalg.norm's order
    buf = np.empty_like(layers[:rows])
    norms = np.empty(L)
    for start in range(0, L, rows):
        chunk = layers[start:start + rows]
        block = buf[:len(chunk)]
        np.square(chunk, block)
        np.add.reduce(block, axis=(1, 2), out=norms[start:start + len(chunk)])
    np.sqrt(norms, norms)
    return float(np.mean(norms))


@dataclass(frozen=True)
class TotalScaling:
    """Depth exponent of the final weights plus the fixed scale exponent."""

    weight_fit: ScalingFit
    alpha0: float

    @property
    def total(self) -> float:
        return self.alpha0 + self.weight_fit.exponent


def total_scaling(points: list[tuple[int, float]], alpha0: float) -> TotalScaling:
    """Fit (L, mean_layer_norm) pairs ~ L**(-beta_T) and return alpha0 + beta_T."""
    if len(points) < 3:
        raise InvalidInputError("need at least three depths")
    return TotalScaling(fit_power_law(points), alpha0)


def entry_scatter(runs: list[tuple[int, Weights]], m: int, n: int) -> list[tuple[int, float, float]]:
    """Rows (L, k/L, sqrt(L) * A_k[m, n]) for a fixed matrix entry."""
    rows = []
    for l, w in sorted(runs, key=lambda lw: lw[0]):
        if not (0 <= m < w.width and 0 <= n < w.width):
            raise InvalidInputError(f"entry ({m}, {n}) out of range for width {w.width}")
        scale = np.sqrt(w.depth)
        for k in range(1, w.depth + 1):
            rows.append((l, k / w.depth, float(scale * w.layers[k - 1, m, n])))
    return rows
