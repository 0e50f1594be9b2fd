"""Fixtures shared by several test modules."""

import itertools

import numpy as np

from resnetlab.autograd import _backward
from resnetlab.network import TANH, Weights, forward_batch


def zero_weights(width, depth, delta=None, delta_exponent=0.5):
    """The all-zero stack, whose network is the identity map; delta defaults
    to depth**-delta_exponent."""
    if delta is None:
        delta = float(depth) ** (-delta_exponent)
    return Weights(np.zeros((depth, width, width)), delta)


def sigma_prime(trace):
    """sigma'(a_k) for every layer of a forward trace, from its preactivations."""
    return trace.activation.deriv1(trace.preact)


def row_growth_drive(data, weights, activation=TANH):
    """Per layer, the mean over the samples of |h_{k-1}|^2 |G_k|_inf^2: the
    drive term of the paper's one-step growth bound for the row norms."""
    trace = forward_batch(data.xs, weights, activation)
    g = np.empty_like(trace.hidden)
    _backward(trace, weights, data.ys, g, np.empty_like(trace.preact), False)
    return np.mean(np.sum(trace.hidden[:-1] ** 2, axis=2)
                   * np.max(np.abs(g[1:]), axis=2) ** 2, axis=1)


def neighbour_gradient_residual(trace, weights, k):
    """Second-order residual xi in the neighbouring-gradient decomposition.

    For layers k and k+1 (1-based k <= L-1) of a single-input trace, the
    per-sample gradient gap is

        dl/da_{k,mn} - dl/da_{k+1,mn}
            = delta h_{k-1,n} (s'_{k,m} - s'_{k+1,m}) <G_{k+1}, e_m>
              + delta^2 <G_{k+1}, xi_{mn}>,

    with xi_{mn} = h_{k-1,n} s'_{k,m} (s'_{k+1} * col_m(alpha_{k+1}))
                   - sigma(a_k)_n s'_{k+1,m} e_m. Returned as (m, n, :) array.
    """
    h_prev = trace.hidden[k - 1]
    sdot_k, sdot_k1 = trace.activation.deriv1(trace.preact[k - 1:k + 1])
    sval_k = trace.activation.value(trace.preact[k - 1])
    scaled_cols = sdot_k1[:, None] * weights.layers[k]  # column m is s'_{k+1} * col_m
    term1 = np.einsum("m,n,im->mni", sdot_k, h_prev, scaled_cols)
    term2 = np.einsum("n,m,im->mni", sval_k, sdot_k1, np.eye(weights.width))
    return term1 - term2


def complex_objective(xs, ys, layers, delta):
    """The objective mean_i |h_L - y_i|^2 / 2 of the tanh network
    h_k = h_{k-1} + delta tanh(A_k h_{k-1}), in complex128 and in h-space.

    Written without ``network`` or ``autograd``, and with diff * diff rather
    than |diff|^2, so it is holomorphic in the layers and delta: at
    W + i t V and delta + i t c, Im J / t is the derivative along (V, c) up
    to O(t^2) with no cancellation (the complex step of Squire and Trapp,
    SIAM Review 40, 1998).
    """
    h = np.array(xs, dtype=np.complex128)
    for a in layers:
        h += delta * _complex_tanh(h @ a.T)
    diff = h - ys
    return np.sum(diff * diff) / (2 * len(ys))


def _complex_tanh(z):
    """tanh(x + iy) = (sinh 2x + i sin 2y) / (cosh 2x + cos 2y), for |x| below
    about 355. In real arithmetic because numpy's complex tanh is about five
    times slower near x = 0, where a deep network's preactivations lie."""
    x2, y2 = 2.0 * z.real, 2.0 * z.imag
    return (np.sinh(x2) + 1j * np.sin(y2)) / (np.cosh(x2) + np.cos(y2))


def exhaustive_oracle(values):
    """Exact 2-variation by brute force: the largest summed squared increments
    over every index chain that contains both endpoints, via itertools."""
    values = np.asarray(values, dtype=np.float64).reshape(len(values), -1)
    last = len(values) - 1
    best = 0.0
    for size in range(0, last):
        for interior in itertools.combinations(range(1, last), size):
            idx = (0, *interior, last)
            total = sum(float(np.sum((values[b] - values[a]) ** 2))
                        for a, b in zip(idx[:-1], idx[1:]))
            best = max(best, total)
    return best


# The analysis kernels as they were before they worked in fixed-size chunks:
# one temporary per partition level, one Python iteration per grid point. The
# chunked kernels must match them bit for bit.

def two_variation_oracle(values):
    """Dyadic 2-variation of the path ``values`` (P, d, d): every 2^j-th
    point plus the last."""
    flat = values.reshape(len(values), -1)
    last = len(values) - 1
    best, stride = 0.0, 1
    while True:
        idx = list(range(0, last + 1, stride))
        if idx[-1] != last:
            idx.append(last)
        step = np.diff(flat[idx], axis=0)
        # increments added in index order, one at a time
        best = max(best, float(sum(np.sum(step * step, axis=-1))))
        if stride >= last:
            return best
        stride *= 2


def _value_at(weights, s):
    k = int(np.floor(weights.depth * s + 1e-9))
    k = min(weights.depth, max(1, k))
    return np.sqrt(weights.depth) * weights.layers[k - 1]


def scaling_limit_distance_oracle(runs):
    """Sup distances of the rescaled paths between consecutive depths, one
    grid point of the union of their layer grids at a time."""
    runs = sorted(runs, key=lambda lw: lw[0])
    out = []
    for (l1, w1), (l2, w2) in zip(runs[:-1], runs[1:]):
        grid = np.union1d(np.arange(1, l1 + 1) / l1, np.arange(1, l2 + 1) / l2)
        sup = 0.0
        for s in grid:
            gap = _value_at(w1, float(s)) - _value_at(w2, float(s))
            sup = max(sup, float(np.linalg.norm(gap)))
        out.append(((l1, l2), sup))
    return out


def mean_layer_norm_oracle(weights):
    """Mean over the layers of the Frobenius norm, via np.linalg.norm."""
    return float(np.mean(np.linalg.norm(weights.layers, axis=(1, 2))))


def entry_scatter_oracle(runs, m, n):
    """Rows (L, k/L, sqrt(L) * A_k[m, n]) of the (L, weights) runs, one layer
    at a time."""
    rows = []
    for depth, w in sorted(runs, key=lambda lw: lw[0]):
        scale = np.sqrt(w.depth)
        for k in range(1, w.depth + 1):
            rows.append((depth, k / w.depth, float(scale * w.layers[k - 1, m, n])))
    return rows
