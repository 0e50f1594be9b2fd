"""Exact gradients of the mean-squared objective, plus independent oracles.

The backward pass never materializes the layer-to-output Jacobians: the
hidden-state gradients G_k obey

    G_L = yhat - y,      G_{k-1} = G_k + delta * alpha_k^T (sigma'(a_k) * G_k),

and the layer-k gradient of the per-sample loss is
delta * (sigma'(a_k) * G_k) h_{k-1}^T. Finite differences of the objective
serve as the independent check on all of this. The gradient oracle is routed
through ``forward_batch`` only: it reuses the unperturbed prefix h_{k-1} for
every perturbation of layer k and runs the perturbed copies through the
later layers in batches whose forward trace stays within ``FD_CHUNK_BYTES``,
so its memory does not grow with the 2 d^2 N L perturbed hidden states.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import InvalidInputError, NumericalOverflowError
from .linalg import as_vector
from .network import TANH, Activation, ForwardTrace, Weights, forward_batch

if TYPE_CHECKING:  # pragma: no cover
    from .data import Dataset

FD_GRAD_STEP = 1e-6
FD_HESSIAN_STEP = 1e-4
# Forward-trace budget of one chunk of ``finite_diff_grad``'s perturbed
# passes. Larger chunks save interpreter overhead but not arithmetic: at the
# d=8, L=32, N=4 shape one unchunked pass per layer raised the peak RSS of
# ``resnetlab gradcheck`` by 12%, and 256 KB keeps it within 1%.
FD_CHUNK_BYTES = 256 * 1024


def loss(y, yhat) -> float:
    """Half the squared Euclidean distance."""
    yv = as_vector(y)
    yh = as_vector(yhat, dim=yv.shape[0])
    diff = yv - yh
    return 0.5 * float(diff @ diff)


def objective(data: "Dataset", weights: Weights,
              activation: Activation = TANH,
              blocks: tuple[np.ndarray, np.ndarray] | None = None) -> float:
    """Mean of the per-sample losses over the training set.

    With ``blocks`` (see ``grad_objective_with_stats``) the forward trace is
    written into them instead of new arrays.
    """
    if blocks is None:
        trace = forward_batch(data.xs, weights, activation)
    else:
        hidden, preact, _, _, _ = _step_views(blocks, weights, data)
        trace = forward_batch(data.xs, weights, activation, hidden, preact)
    return _mean_squared(trace.output, data.ys)


def _mean_squared(outputs: np.ndarray, ys: np.ndarray) -> float:
    with np.errstate(over="ignore"):
        diff = outputs - ys
        value = 0.5 * float(np.sum(diff * diff)) / ys.shape[0]
    if not np.isfinite(value):
        raise NumericalOverflowError("objective overflowed")
    return value


@dataclass(frozen=True)
class Grad:
    """Objective gradient: one matrix per layer plus the scalar delta part.

    ``delta_grad`` is zero whenever delta is frozen.
    """

    layers: np.ndarray
    delta_grad: float = 0.0

    def frobenius_sq(self) -> float:
        """Squared Frobenius norm over the layer matrices (delta excluded)."""
        return float(np.sum(self.layers * self.layers))


@dataclass(frozen=True)
class LayerStats:
    """Per-layer mean of |h_{k-1}|^2 * |G_k|_inf^2 over the samples (length L).

    This is the drive term in the one-step growth bound for the depth-scaled
    row norms, recorded during training when per-layer logging is on.
    """

    h_sq_ginf_sq: np.ndarray


def step_block_size(depth: int, n: int, width: int) -> int:
    """Entries of one block of ``grad_objective_with_stats``: a pair of
    trace-sized arrays, (2L+1) N d, or the (L, d, d) stack if that is larger."""
    return max((2 * depth + 1) * n * width, depth * width * width)


def _step_views(blocks: tuple[np.ndarray, np.ndarray], weights: Weights,
                data: "Dataset"):
    """hidden (L+1, N, d) and preact (L, N, d) at the start of the two blocks,
    sigma' after hidden and G after preact; the (L, d, d) gradient stack
    overlays preact and G."""
    L, n, d = weights.depth, len(data.xs), weights.width
    unit = L * n * d
    trace_block, adjoint_block = blocks
    hidden = trace_block[:unit + n * d].reshape(L + 1, n, d)
    sigma_prime = trace_block[unit + n * d:2 * unit + n * d].reshape(L, n, d)
    preact = adjoint_block[:unit].reshape(L, n, d)
    g = adjoint_block[unit:2 * unit + n * d].reshape(L + 1, n, d)
    grads = adjoint_block[:L * d * d].reshape(L, d, d)
    return hidden, preact, sigma_prime, g, grads


def _backward(trace: ForwardTrace, weights: Weights, ys: np.ndarray,
              out: np.ndarray | None = None) -> np.ndarray:
    """Hidden-state gradients G_k = M_k^T (yhat - y) for k = 0..L, stored with
    the trace's layout: shape (L+1, N, d) for a batch, (L+1, d) for one input,
    in ``out`` when given.

    Consumes the trace's sigma': on return trace.sigma_prime[k-1] holds
    sigma'(a_k) * G_k, the factor that the layer-k gradient contracts with
    h_{k-1}.
    """
    L = weights.depth
    g = np.empty_like(trace.hidden) if out is None else out
    np.subtract(trace.hidden[L], ys, out=g[L])
    delta = weights.delta
    step = np.empty_like(g[L])
    g_next = g[L]
    multiply, add = np.multiply, np.add
    # Non-finite values are caught downstream; silence the transient warnings.
    with np.errstate(over="ignore", invalid="ignore"):
        # layer k = L..1: s holds sigma'(a_k), then sigma'(a_k) * G_k. As in
        # forward_batch, ndarray.dot and positional outputs keep the per-call
        # overhead down.
        for s, g_prev, alpha in zip(trace.sigma_prime[::-1], g[-2::-1], weights.layers[::-1]):
            multiply(s, g_next, s)
            s.dot(alpha, step)
            multiply(step, delta, step)
            add(g_next, step, g_prev)
            g_next = g_prev
    return g


def grad_objective(data: "Dataset", weights: Weights,
                   activation: Activation = TANH,
                   delta_trainable: bool = False) -> Grad:
    """Exact gradient of the objective with respect to every layer (and delta)."""
    grads, dgrad, _, _ = grad_objective_with_stats(
        data, weights, activation, delta_trainable, want_stats=False)
    return Grad(grads, dgrad)


def grad_objective_with_stats(data: "Dataset", weights: Weights,
                              activation: Activation = TANH,
                              delta_trainable: bool = False,
                              want_stats: bool = True,
                              blocks: tuple[np.ndarray, np.ndarray] | None = None):
    """Gradient plus the current loss and optional per-layer drive stats.

    Returns (layer_grads, delta_grad, current_objective, LayerStats or None).
    Training uses this to get the step's loss and logging quantities from the
    same forward pass that produced the gradient.

    ``blocks`` is an optional pair of flat float64 arrays of
    ``step_block_size(L, N, d)`` entries each. The first holds the hidden
    states and sigma', the second the preactivations and G, and then the
    returned layer gradients, which are a view of its start. Without it every
    array is allocated.
    """
    if blocks is None:
        trace = forward_batch(data.xs, weights, activation)
        g_out = grads_out = None
    else:
        hidden, preact, sigma_prime, g_out, grads_out = _step_views(blocks, weights, data)
        trace = forward_batch(data.xs, weights, activation, hidden, preact, sigma_prime)
    value = _mean_squared(trace.output, data.ys)
    g = _backward(trace, weights, data.ys, g_out)
    n = data.ys.shape[0]
    with np.errstate(over="ignore", invalid="ignore"):
        dgrad = 0.0
        if delta_trainable:
            # sigma' was taken from preact in _backward, so preact is free to
            # hold sigma(a_k), then G_k * sigma(a_k)
            s_val = activation.value(trace.preact, out=trace.preact)
            dgrad = float(np.sum(np.multiply(g[1:], s_val, out=s_val))) / n
        stats = None
        if want_stats:
            # preact is free here too: it holds the squares and the absolute values
            h_sq = np.sum(np.square(trace.hidden[:-1], out=trace.preact), axis=2)
            g_inf = np.max(np.abs(g[1:], out=trace.preact), axis=2)
            stats = LayerStats(np.mean(h_sq * g_inf ** 2, axis=1))
        # grad_k = delta/n * sum_i (sigma'(a_k) * G_k)_i h_{k-1,i}^T, all k at
        # once, from the product _backward left in sigma_prime. G and preact
        # go before the (L, d, d) stack is allocated or written over them.
        sg = trace.sigma_prime
        h_prev = trace.hidden[:-1]
        del trace, g
        grads = np.matmul(sg.transpose(0, 2, 1), h_prev, out=grads_out)
        grads *= weights.delta / n
    return grads, dgrad, value, stats


def finite_diff_grad(data: "Dataset", weights: Weights,
                     activation: Activation = TANH,
                     step: float = FD_GRAD_STEP,
                     delta_trainable: bool = False) -> Grad:
    """Central differences of the objective over every entry (and delta).

    Per-entry step is ``step * (1 + |entry|)``. Deliberately routed through
    ``forward_batch`` only, so it stays independent of the analytic backward
    pass. Every perturbation of layer k shares the unperturbed h_{k-1}, so
    one pass supplies all of them; layer k is applied to its 2d^2 perturbed
    copies as one stacked matmul, and the (2d^2 N, d) result runs through
    layers k+1..L in chunks of rows and layers whose forward trace stays
    within ``FD_CHUNK_BYTES``.
    """
    if step <= 0:
        raise InvalidInputError("step must be positive")
    L, d = weights.depth, weights.width
    n = data.ys.shape[0]
    delta = weights.delta
    hidden = forward_batch(data.xs, weights, activation).hidden
    grads = np.empty_like(weights.layers)
    # row block j (j < d^2) of out belongs to the copy whose entry j moved by
    # +h, block d^2 + j to the one moved by -h; it holds h_k, then h_L
    out = np.empty((2 * d * d, n, d))
    out_rows = out.reshape(-1, d)
    # a trace over r rows and s layers holds about 3 (s + 1) r d floats
    row_bytes = 3 * d * out.itemsize
    rows = min(len(out_rows), max(1, FD_CHUNK_BYTES // (2 * row_bytes)))
    span = max(1, FD_CHUNK_BYTES // (rows * row_bytes) - 1)
    # suffix spans start on multiples of span, so each is built once; layer k
    # first runs the partial span from k + 1 up to the next multiple
    grid = {j: Weights(weights.layers[j:j + span], delta) for j in range(span, L, span)}
    for k in range(L):
        head = min(span * (k // span + 1), L)
        suffix = [(j, grid[j]) for j in range(head, L, span)]
        if k + 1 < head:
            suffix.insert(0, (k + 1, Weights(weights.layers[k + 1:head], delta)))
        base = weights.layers[k]
        h = step * (1.0 + np.abs(base))
        moves = np.diag(h.ravel()).reshape(d * d, d, d)
        copies = np.concatenate([base + moves, base - moves])
        with np.errstate(over="ignore", invalid="ignore"):
            a = np.matmul(hidden[k], copies.transpose(0, 2, 1))
            np.add(hidden[k], delta * activation.value(a), out=out)
        if not np.all(np.isfinite(out)):
            raise NumericalOverflowError(f"non-finite hidden state at layer {k + 1}",
                                         layer=k + 1)
        for start in range(0, len(out_rows), rows):
            chunk = out_rows[start:start + rows]
            for j, suffix_weights in suffix:
                try:
                    chunk[:] = forward_batch(chunk, suffix_weights, activation).output
                except NumericalOverflowError as exc:
                    layer = j + exc.layer
                    raise NumericalOverflowError(
                        f"non-finite hidden state at layer {layer}", layer=layer) from None
        with np.errstate(over="ignore", invalid="ignore"):
            diff = out - data.ys
            values = 0.5 * np.sum(diff * diff, axis=(1, 2)) / n
        if not np.all(np.isfinite(values)):
            raise NumericalOverflowError("objective overflowed")
        grads[k] = ((values[:d * d] - values[d * d:]) / (2.0 * h.ravel())).reshape(d, d)
    delta_grad = 0.0
    if delta_trainable:
        h = step * (1.0 + abs(weights.delta))
        up = objective(data, Weights(weights.layers, weights.delta + h), activation)
        down = objective(data, Weights(weights.layers, weights.delta - h), activation)
        delta_grad = (up - down) / (2.0 * h)
    return Grad(grads, delta_grad)


@dataclass(frozen=True)
class HessianEstimate:
    """Largest-magnitude eigenvalue estimate for the objective Hessian."""

    value: float
    iterations: int
    converged: bool


def hessian_spectral_estimate(data: "Dataset", weights: Weights,
                              activation: Activation = TANH,
                              probes: int = 50,
                              fd_step: float = FD_HESSIAN_STEP,
                              tol: float = 1e-6) -> HessianEstimate:
    """Power iteration on the layer-weight Hessian via finite differences.

    Hessian-vector products are central differences of the analytic gradient
    along the iterate direction; delta is held fixed. The product that gives
    an iterate's Rayleigh quotient is reused as the next iterate, so the
    estimate costs 1 + ``iterations`` products, two gradient passes each.
    Non-convergence within ``probes`` iterations is flagged, not raised.
    """
    if probes < 1:
        raise InvalidInputError("probes must be >= 1")
    base = weights.layers
    scale = fd_step * (1.0 + float(np.linalg.norm(base)))

    def hvp(direction: np.ndarray) -> np.ndarray:
        up = Weights(base + scale * direction, weights.delta)
        down = Weights(base - scale * direction, weights.delta)
        g_up = grad_objective(data, up, activation)
        g_down = grad_objective(data, down, activation)
        return (g_up.layers - g_down.layers) / (2.0 * scale)

    v = np.ones_like(base)
    v /= np.linalg.norm(v)
    w = hvp(v)
    lam = float(np.sum(v * w))
    iterations = 0
    converged = False
    for it in range(1, probes + 1):
        iterations = it
        norm_w = float(np.linalg.norm(w))
        if norm_w == 0.0:
            lam = 0.0
            converged = True
            break
        v = w / norm_w
        w = hvp(v)
        lam_new = float(np.sum(v * w))
        if abs(lam_new - lam) <= tol * max(abs(lam_new), np.finfo(float).tiny):
            lam = lam_new
            converged = True
            break
        lam = lam_new
    return HessianEstimate(abs(lam), iterations, converged)
