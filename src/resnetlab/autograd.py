"""Exact gradients of the mean-squared objective, plus independent oracles.

The backward pass never materializes the layer-to-output Jacobians: the
hidden-state gradients G_k obey

    G_L = yhat - y,      G_{k-1} = G_k + alpha_k^T (delta sigma'(a_k) * G_k),

and the layer-k gradient of the per-sample loss is
(delta sigma'(a_k) * G_k) h_{k-1}^T. delta sigma' is formed once over the
whole trace, so neither the recursion nor the gradient contraction multiplies
by delta layer by layer. The recursion reads each G_k once, so it keeps two
rows of G, not all L+1. Every gradient pass runs in one flat trace block of
hidden states and preactivations. With delta frozen, delta sigma' is written
over the preactivations; a trainable delta needs sum G_k * sigma(a_k), whose
terms the recursion writes over the preactivations while G_k is still in its
row, so delta sigma' takes L N d more entries of the block. ``_gradient_pass``
alone lays the block out; training runs every iterate through it, w_T too,
and ``objective`` is the forward pass alone, into new arrays. The contraction
(``Adjoint.layer_grads``) forms any slice of layers, so a caller such as
training's update need not hold the whole (L, d, d) gradient stack.

Finite differences of the objective serve as the independent check on all of
this. The gradient oracle takes the unperturbed prefix h_{k-1} from one
``forward_batch`` call, shares it among every perturbation of layer k, and
runs the perturbed copies through the later layers by the h-space recursion
itself, all 2 d^2 N rows at once in place, so its memory does not grow with
depth. It thereby checks the scaled-state loops of ``forward_batch`` and
``_backward`` in other arithmetic.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import InvalidInputError, NumericalOverflowError
from .network import TANH, Activation, ForwardTrace, Weights, forward_batch

if TYPE_CHECKING:  # pragma: no cover
    from .data import Dataset

FD_GRAD_STEP = 1e-6
FD_HESSIAN_STEP = 1e-4
HESSIAN_TOL = 1e-6  # relative change of the Rayleigh quotient that stops the iteration


def objective(data: "Dataset", weights: Weights, activation: Activation = TANH) -> float:
    """Mean over the training set of the per-sample loss |yhat - y|^2 / 2,
    from one forward pass into new arrays."""
    return _mean_squared(forward_batch(data.xs, weights, activation).output, data.ys)


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


def trace_block_size(depth: int, n: int, width: int, delta_trainable: bool = False) -> int:
    """Entries of the trace block of one gradient pass (see ``_gradient_pass``):
    the hidden states and the preactivations, (2L+1) N d, plus L N d for
    delta sigma' * G with a trainable delta."""
    return (2 * depth + 1 + (depth if delta_trainable else 0)) * n * width


def _backward(trace: ForwardTrace, weights: Weights, ys: np.ndarray,
              g: np.ndarray, sg: np.ndarray, delta_terms: bool) -> None:
    """Runs the hidden-state gradients G_k = M_k^T (yhat - y), k = L..0,
    through the rows of ``g``, which have the shape of the trace's rows:
    (N, d) for a batch, (d,) for one input.

    G_L goes into the last row of ``g`` and each G_{k-1} into the row before
    G_k's, wrapping round to the last: with L+1 rows row k holds G_k, and
    with two rows they alternate and the pass holds no more of G than it
    reads.

    delta sigma'(a_k) is computed into ``sg`` (preact's shape, and it may be
    ``trace.preact`` itself), whose layer k-1 then becomes
    delta sigma'(a_k) * G_k, the factor that the layer-k gradient contracts
    with h_{k-1}. With ``delta_terms`` (and ``sg`` apart from the
    preactivations), layer k-1 of ``trace.preact`` becomes
    G_k * sigma(a_k), the terms of the delta gradient.
    """
    L = weights.depth
    rows = itertools.cycle(g[::-1])
    g_next = next(rows)
    np.subtract(trace.hidden[L], ys, out=g_next)
    multiply, add = np.multiply, np.add
    # Non-finite values are caught downstream; silence the transient warnings.
    with np.errstate(over="ignore", invalid="ignore"):
        # delta sigma'(a_k) for every layer at once, so the loop has no
        # scalar multiply
        multiply(trace.activation.deriv1(trace.preact, sg), weights.delta, sg)
        terms = itertools.repeat(None)
        if delta_terms:
            # sigma(a_k) for every layer at once, once sigma' is taken
            terms = trace.activation.value(trace.preact, trace.preact)[::-1]
        # layer k = L..1: s holds delta sigma'(a_k), then delta sigma'(a_k) * G_k,
        # and G_{k-1} is built in place. As in forward_batch, ndarray.dot and
        # positional outputs keep the per-call overhead down.
        for s, t, g_prev, alpha in zip(sg[::-1], terms, rows, weights.layers[::-1]):
            if delta_terms:
                multiply(t, g_next, t)
            multiply(s, g_next, s)
            s.dot(alpha, g_prev)
            add(g_prev, g_next, g_prev)
            g_next = g_prev


@dataclass(frozen=True)
class Adjoint:
    """The factors of a gradient pass's layer gradients,

        grad_k = 1/n sum_i (delta sigma'(a_k) * G_k)_i h_{k-1,i}^T,

    with ``sg`` (L, N, d) holding delta sigma'(a_k) * G_k and ``hidden`` the
    (L+1, N, d) states. ``layer_grads`` forms any slice of layers, so the
    (L, d, d) stack need not exist at once.
    """

    hidden: np.ndarray
    sg: np.ndarray

    def layer_grads(self, layers: slice, out: np.ndarray) -> np.ndarray:
        """grad_k for the 0-based layers of ``layers`` (a slice with a start
        and a stop), written into ``out`` of shape (stop - start, d, d).

        Every matrix is its own matmul, so a slice equals the same layers of
        the whole stack bit for bit.
        """
        with np.errstate(over="ignore", invalid="ignore"):
            np.matmul(self.sg[layers].transpose(0, 2, 1), self.hidden[layers], out=out)
            out *= 1.0 / self.hidden.shape[1]
        return out


def grad_objective(data: "Dataset", weights: Weights,
                   activation: Activation = TANH,
                   delta_trainable: bool = False,
                   trace: np.ndarray | None = None,
                   out: np.ndarray | None = None) -> Grad:
    """Exact gradient of the objective with respect to every layer (and delta).

    ``trace`` and ``out`` are passed to ``grad_objective_with_stats``.
    """
    grads, dgrad, _ = grad_objective_with_stats(data, weights, activation,
                                                delta_trainable, trace, out)
    return Grad(grads, dgrad)


def grad_objective_with_stats(data: "Dataset", weights: Weights,
                              activation: Activation = TANH,
                              delta_trainable: bool = False,
                              trace: np.ndarray | None = None,
                              out: np.ndarray | None = None):
    """Gradient plus the current loss (the "stats" of the name), from one
    forward pass.

    Returns (layer_grads, delta_grad, current_objective): the certify draws
    take a draw's loss from the forward pass that produced its gradient.

    The pass runs in ``trace``, a flat float64 block of
    ``trace_block_size(L, N, d, delta_trainable)`` entries (see
    ``_gradient_pass``), and the layer gradients are written into ``out``, an
    (L, d, d) array; either is allocated for the call when not given. The
    gradients read only the trace block, so ``out`` may be the memory of
    ``weights.layers`` itself, which they then overwrite. Where delta is a
    power of two the results equal those of the h-space formulas (delta
    applied per layer in the forward and the G recursion, delta/n in the
    gradient) bit for bit.
    """
    L, n, d = weights.depth, len(data.xs), weights.width
    if trace is None:
        trace = np.empty(trace_block_size(L, n, d, delta_trainable))
    if out is None:
        out = np.empty((L, d, d))
    adjoint, dgrad, value = _gradient_pass(data, weights, activation,
                                           delta_trainable, trace)
    return adjoint.layer_grads(slice(0, L), out), dgrad, value


def _gradient_pass(data: "Dataset", weights: Weights, activation: Activation,
                   delta_trainable: bool,
                   trace: np.ndarray) -> tuple[Adjoint, float, float]:
    """(Adjoint, delta_grad, current_objective) of one forward and backward
    pass in the flat ``trace`` block of ``trace_block_size`` entries:
    ``train`` forms the layer gradients from the ``Adjoint`` one chunk of
    layers at a time, ``grad_objective_with_stats`` all at once.

    The block holds hidden (L+1, N, d), preact (L, N, d) and delta sigma'
    (L, N, d), in that order from its start. With delta frozen, delta sigma'
    is written over preact, which it then is. A trainable delta reads
    sigma(a_k) after sigma' is taken, so delta sigma' has its own L N d
    entries after preact.
    """
    L, n, d = weights.depth, len(data.xs), weights.width
    unit = L * n * d
    hidden = trace[:unit + n * d].reshape(L + 1, n, d)
    preact = trace[unit + n * d:2 * unit + n * d].reshape(L, n, d)
    sg = preact
    if delta_trainable:
        sg = trace[2 * unit + n * d:3 * unit + n * d].reshape(L, n, d)
    run = forward_batch(data.xs, weights, activation, hidden, preact)
    value = _mean_squared(run.output, data.ys)
    _backward(run, weights, data.ys, np.empty((2, n, d)), sg, delta_trainable)
    dgrad = 0.0
    if delta_trainable:
        # _backward left G_k * sigma(a_k) in preact
        with np.errstate(over="ignore", invalid="ignore"):
            dgrad = float(np.sum(preact)) / len(data.ys)
    return Adjoint(hidden, sg), dgrad, value


def finite_diff_grad(data: "Dataset", weights: Weights,
                     activation: Activation = TANH,
                     step: float = FD_GRAD_STEP,
                     delta_trainable: bool = False) -> Grad:
    """Central differences of the objective over every entry (and delta).

    Per-entry step is ``step * (1 + |entry|)``. Independent of the analytic
    backward pass: the unperturbed states h_0..h_{L-1} come from one
    ``forward_batch`` call, and the perturbed copies run the recursion
    h_j = h_{j-1} + delta sigma(A_j h_{j-1}) here, in h-space. Every
    perturbation of layer k shares the unperturbed h_{k-1}; layer k is
    applied to its 2d^2 perturbed copies as one stacked matmul, and the
    (2d^2 N, d) result runs through layers k+1..L in place, with one buffer
    of its size. Raises NumericalOverflowError naming the first layer whose
    perturbed state goes non-finite.
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
    rows = out.reshape(-1, d)
    buf = np.empty_like(rows)
    value = activation.value
    for k in range(L):
        base = weights.layers[k]
        h = step * (1.0 + np.abs(base))
        moves = np.diag(h.ravel()).reshape(d * d, d, d)
        copies = np.concatenate([base + moves, base - moves])
        with np.errstate(over="ignore", invalid="ignore"):
            a = np.matmul(hidden[k], copies.transpose(0, 2, 1))
            np.add(hidden[k], delta * value(a), out=out)
            # layer j + 1 (1-based) maps rows to h_{j+1}; layer k + 1 was the
            # stacked step above
            for j in range(k, L):
                if j > k:
                    rows.dot(weights.layers[j].T, buf)
                    value(buf, buf)
                    buf *= delta
                    rows += buf
                if not np.isfinite(rows).all():
                    raise NumericalOverflowError(f"non-finite hidden state at layer {j + 1}")
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
                              activation: Activation = TANH, *,
                              probes: int) -> HessianEstimate:
    """Power iteration on the layer-weight Hessian via finite differences.

    Hessian-vector products are central differences of the analytic gradient
    along the iterate direction; delta is held fixed. The product that gives
    an iterate's Rayleigh quotient is reused as the next iterate, so the
    estimate costs 1 + ``iterations`` products, two gradient passes each.
    Non-convergence within ``probes`` iterations is flagged, not raised.

    However many products it takes, the iteration holds the same arrays
    besides ``weights``: the iterate, its product and one perturbed stack
    (also the scratch of each Rayleigh quotient), each of the weights' size,
    and one trace block (see ``grad_objective_with_stats``) that every
    gradient pass runs in. Each gradient goes into an array the iteration
    already holds: the "up" gradient into the product, the "down" gradient
    over the perturbed stack that its pass has just read.
    """
    if probes < 1:
        raise InvalidInputError("probes must be >= 1")
    base = weights.layers
    scale = FD_HESSIAN_STEP * (1.0 + float(np.linalg.norm(base)))
    perturbed = np.empty(base.shape)
    trace = np.empty(trace_block_size(weights.depth, len(data.xs), weights.width))

    def hvp(direction: np.ndarray, out: np.ndarray) -> np.ndarray:
        # (g(base + scale v) - g(base - scale v)) / (2 scale) by the same
        # operations as on new arrays
        up = np.add(base, np.multiply(scale, direction, perturbed), perturbed)
        grad_objective(data, Weights(up, weights.delta), activation, trace=trace, out=out)
        down = np.subtract(base, np.multiply(scale, direction, perturbed), perturbed)
        g_down = grad_objective(data, Weights(down, weights.delta), activation,
                                trace=trace, out=perturbed).layers
        np.subtract(out, g_down, out)
        return np.divide(out, 2.0 * scale, out)

    def rayleigh(v: np.ndarray, w: np.ndarray) -> float:
        return float(np.sum(np.multiply(v, w, perturbed)))

    v = np.ones(base.shape)
    v /= np.linalg.norm(v)
    # the next iterate is written over the product it comes from, and the
    # product of it over the iterate before
    w = hvp(v, np.empty(base.shape))
    lam = rayleigh(v, w)
    for iterations in range(1, probes + 1):
        norm_w = float(np.linalg.norm(w))
        if norm_w == 0.0:
            lam, converged = 0.0, True
            break
        v, w = np.divide(w, norm_w, w), v
        w = hvp(v, w)
        lam_new = rayleigh(v, w)
        converged = abs(lam_new - lam) <= HESSIAN_TOL * max(abs(lam_new), np.finfo(float).tiny)
        lam = lam_new
        if converged:
            break
    return HessianEstimate(abs(lam), iterations, converged)
