"""Scaling diagnostics over trained runs.

Layer-indexed weights are treated as step functions on [0, 1] via s = k/L
and the depth rescaling sqrt(L) * A_k, so runs of different depth become
comparable paths: this module fits power laws across depth, measures
steps-to-epsilon convergence, estimates 2-variation of a rescaled path and
computes the sup distance between the paths of two depths. Each path kernel
takes one depth or one pair of depths, states the points it reads as an
array of layer indices and reads them through one chunked reader,
``_path_rows``, which owns the ``CHUNK_BYTES`` buffer and the one-row overlap
between chunks; no kernel runs a chunk loop of its own. The mean layer norm
reads no path: it takes the per-layer squares from ``network.layer_squares``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError
from .network import CHUNK_BYTES, Weights, layer_squares


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


def _path_rows(weights: Weights, k: np.ndarray, scale: float):
    """Yield ``(at, rows)`` for the layer indices ``k``, clipped to [0, L - 1]:
    ``rows`` holds ``scale * A_k`` for the slice ``at`` of ``k``, one chunk at
    a time.

    Each chunk after the first begins with the last row of the one before, so
    every pair of consecutive indices lies in one chunk. The chunks are views
    of one buffer in the stack's memory layout, refilled from the stack for
    each chunk, so the caller may overwrite them. The buffer takes at most
    half of ``CHUNK_BYTES`` (but at least two rows), so that the two readers
    ``scaling_limit_distance`` zips together fit it.
    """
    layers = weights.layers
    rows = max(2, CHUNK_BYTES // (2 * layers[0].nbytes))
    # sized from k, not from the stack: a union grid is longer than either stack
    buf = np.empty_like(layers, shape=(min(rows, len(k)), *layers.shape[1:]))
    for start in range(0, max(len(k) - 1, 1), rows - 1):
        at = slice(start, min(start + rows, len(k)))
        chunk = buf[:at.stop - start]
        # mode="clip" clips k, and unlike "raise" it writes into chunk
        # without a buffered copy
        np.take(layers, k[at], axis=0, out=chunk, mode="clip")
        np.multiply(chunk, scale, chunk)
        yield at, chunk


def two_variation(weights: Weights) -> float:
    """Largest summed squared Frobenius increments of the rescaled path
    sqrt(L) * A_k, k = 1..L, over its dyadic partitions.

    Partitions are index chains of the layer grid that contain both
    endpoints; this maximizes over the full grid and its dyadic coarsenings
    (every 2^j-th point plus the last), a lower bound on the supremum over
    all partitions, in O(L d^2) time. Each chain's points are read rescaled
    and differenced as sqrt(L) a - sqrt(L) b, so the increments equal those
    of a rescaled copy of the stack bit for bit.
    """
    last = weights.depth - 1
    scale = np.sqrt(weights.depth)
    # sums[i] is the squared increment into the chain's i-th point; sums[0]
    # stays 0, the start of the running sum
    sums = np.zeros(weights.depth)
    best, stride = 0.0, 1
    while True:
        # every stride-th layer; the one past the last clips to the last
        chain = np.arange(0, last + stride, stride)
        for at, rows in _path_rows(weights, chain, scale):
            step = rows[:-1]
            np.subtract(rows[1:], step, step)
            np.multiply(step, step, step)
            np.add.reduce(step, axis=(1, 2), out=sums[at.start + 1:at.stop])
        # increments added in index order, one at a time, not np.sum's
        # pairwise order
        total = sums[:len(chain)]
        np.add.accumulate(total, out=total)
        best = max(best, float(total[-1]))
        # the last chunk's views would hold this chain's buffer while the
        # next chain's reader allocates its own
        del rows, step
        if stride >= last:
            return best
        stride *= 2


def scaling_limit_distance(w_low: Weights, w_high: Weights) -> float:
    """Sup distance of the rescaled weight paths of two runs of one width.

    Both paths are evaluated piecewise-constantly on the union of their layer
    grids, and the max over that grid of |sqrt(L) A_{floor(Ls)} -
    sqrt(L') A_{floor(L's)}|_F is returned.
    """
    l1, l2 = w_low.depth, w_high.depth
    # the sorted union of both grids; np.union1d would import numpy.ma
    grid = np.concatenate((np.arange(1, l1 + 1) / l1, np.arange(1, l2 + 1) / l2))
    grid.sort()
    grid = grid[np.concatenate(([True], grid[1:] != grid[:-1]))]
    # floor(L*s) - 1 with a nudge so grid points shared across depths land exactly
    paths = [_path_rows(w, np.floor(w.depth * grid + 1e-9).astype(np.intp) - 1,
                        np.sqrt(w.depth)) for w in (w_low, w_high)]
    norms = np.empty(len(grid))
    for (at, gap), (_, other) in zip(*paths):
        np.subtract(gap, other, gap)
        # each row's squared norm by the BLAS dot that np.linalg.norm uses, in
        # the same order for C-ordered stacks (as load_weights and train
        # write them)
        flat = gap.reshape(len(gap), -1)
        np.matmul(flat[:, None, :], flat[:, :, None], norms[at, None, None])
    np.sqrt(norms, norms)
    # fmax skips a NaN gap (from inf - inf) as max(sup, nan) did
    return float(np.fmax.reduce(norms, initial=0.0))


def mean_layer_norm(weights: Weights) -> float:
    """Mean over the layers of the Frobenius norm, equal bit for bit to the
    mean of ``np.linalg.norm(weights.layers, axis=(1, 2))`` (see
    ``network.layer_squares``)."""
    return float(np.mean(np.sqrt(layer_squares(weights.layers))))


def total_scaling(points: list[tuple[int, float]]) -> ScalingFit:
    """Fit (L, mean_layer_norm) pairs ~ L**(-beta_T), over at least three
    depths; the total scaling exponent is alpha0 + beta_T."""
    if len(points) < 3:
        raise InvalidInputError("need at least three depths")
    return fit_power_law(points)


def entry_scatter(weights: Weights, m: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The grid k/L and the values sqrt(L) * A_k[m, n], k = 1..L, of one
    matrix entry."""
    if not (0 <= m < weights.width and 0 <= n < weights.width):
        raise InvalidInputError(f"entry ({m}, {n}) out of range for width {weights.width}")
    L = weights.depth
    return np.arange(1, L + 1) / L, np.sqrt(L) * weights.layers[:, m, n]
