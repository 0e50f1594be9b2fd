"""Scaling diagnostics over trained runs.

Layer-indexed weights are treated as step functions on [0, 1] via s = k/L
and the depth rescaling sqrt(L) * A_k, so runs of different depth become
comparable paths: this module fits power laws across depth, measures
steps-to-epsilon convergence, estimates 2-variation of a rescaled path and
computes the sup distance between the paths of two depths. Each path kernel
takes one depth or one pair of depths.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError
from .network import CHUNK_BYTES, Weights


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


def steps_to_epsilon(t: np.ndarray, loss: np.ndarray,
                     eps_grid) -> list[tuple[float, int | None]]:
    """First logged step ``t`` whose ``loss`` is below each epsilon (None if
    never reached)."""
    out = []
    for eps in eps_grid:
        eps = float(eps)
        if eps <= 0:
            raise InvalidInputError("epsilon grid must be positive")
        hits = np.nonzero(loss < eps)[0]
        out.append((eps, int(t[hits[0]]) if len(hits) else None))
    return out


def two_variation(weights: Weights) -> float:
    """Largest summed squared Frobenius increments of the rescaled path
    sqrt(L) * A_k, k = 1..L, over its dyadic partitions.

    Partitions are index chains of the layer grid that contain both
    endpoints; this maximizes over the full grid and its dyadic coarsenings
    (every 2^j-th point plus the last), a lower bound on the supremum over
    all partitions, in O(L d^2) time. A chunk of each chain's points is
    rescaled into one buffer and differenced into another, together about
    ``CHUNK_BYTES``, as sqrt(L) a - sqrt(L) b: the increments equal those of a
    rescaled copy of the stack bit for bit.
    """
    L = weights.depth
    flat = weights.layers.reshape(L, -1)
    scale = np.sqrt(L)
    last = L - 1
    rows = max(1, CHUNK_BYTES // (2 * flat.shape[1] * flat.itemsize))
    n = min(rows, max(last, 1))
    points = np.empty((n + 1, flat.shape[1]))
    buf = np.empty((n, flat.shape[1]))
    sums = np.empty(n)

    best, stride = 0.0, 1
    while True:
        chain = flat[::stride]
        inner = len(chain) - 1  # increments between chain points
        count = inner + (last % stride != 0)  # plus the one to the last point
        total = 0.0
        for start in range(0, count, n):
            stop = min(start + n, count)
            mid = min(stop, inner)
            ends = points[:stop - start + 1]
            np.multiply(chain[start:mid + 1], scale, ends[:mid - start + 1])
            if mid < stop:
                np.multiply(flat[last], scale, ends[-1])
            step, part = buf[:stop - start], sums[:stop - start]
            np.subtract(ends[1:], ends[:-1], step)
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


def scaling_limit_distance(w_low: Weights, w_high: Weights) -> float:
    """Sup distance of the rescaled weight paths of two runs of one width.

    Both paths are evaluated piecewise-constantly on the union of their layer
    grids, and the max over that grid of |sqrt(L) A_{floor(Ls)} -
    sqrt(L') A_{floor(L's)}|_F is returned. Both paths pass through one
    buffer of at most ``CHUNK_BYTES``.
    """
    l1, l2, d = w_low.depth, w_high.depth, w_low.width
    rows = max(1, CHUNK_BYTES // (2 * d * d * w_low.layers.itemsize))
    buf = np.empty((2, rows, d * d))
    sq = np.empty(rows)
    # the sorted union of both grids; np.union1d would import numpy.ma
    grid = np.concatenate((np.arange(1, l1 + 1) / l1, np.arange(1, l2 + 1) / l2))
    grid.sort()
    grid = grid[np.concatenate(([True], grid[1:] != grid[:-1]))]
    sup = 0.0
    for start in range(0, len(grid), rows):
        s = grid[start:start + rows]
        gap, other, norms = buf[0, :len(s)], buf[1, :len(s)], sq[:len(s)]
        _rescaled_rows(w_low, s, gap.reshape(-1, d, d))
        _rescaled_rows(w_high, s, other.reshape(-1, d, d))
        np.subtract(gap, other, gap)
        # each row's squared norm by the BLAS dot that np.linalg.norm
        # uses, in the same order for C-ordered stacks (as load_weights
        # and train write them)
        np.matmul(gap[:, None, :], gap[:, :, None], norms[:, None, None])
        np.sqrt(norms, norms)
        # fmax skips a NaN gap (from inf - inf) as max(sup, nan) did
        sup = float(np.fmax.reduce(norms, initial=sup))
    return sup


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


def entry_scatter(weights: Weights, m: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The grid k/L and the values sqrt(L) * A_k[m, n], k = 1..L, of one
    matrix entry."""
    if not (0 <= m < weights.width and 0 <= n < weights.width):
        raise InvalidInputError(f"entry ({m}, {n}) out of range for width {weights.width}")
    L = weights.depth
    return np.arange(1, L + 1) / L, np.sqrt(L) * weights.layers[:, m, n]
