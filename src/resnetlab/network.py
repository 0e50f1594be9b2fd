"""Residual architecture: h_k = h_{k-1} + delta * sigma(a_k h_{k-1}).

``forward_batch`` is the one forward pass: it records every hidden state and
preactivation for a batch of inputs, and ``forward`` is its single-input
view. It runs the recursion in the scaled state u_k = h_k / delta, which
takes the multiply by delta out of the layer loop, and returns h. The
activation derivative is not part of the trace: the objective and the
finite-difference oracle never need it, and its consumers take it from the
preactivations. The layer-to-output Jacobians M_k come only from
``jacobian_stack``, which the forward certificate calls; gradients only ever
need the matching vector recursion (see ``autograd``).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import InvalidInputError, NumericalOverflowError

# Byte budget of one working buffer: each chunk of layers that ``layer_span``
# sizes (the scaled layers delta A_k in ``forward_batch``, the steps of
# ``jacobian_stack``, the layer gradients of a training update and the squares
# of ``training.weight_norms`` and ``layer_squares``) and the path
# reader of ``analysis``, whose buffers then do not grow with depth. Larger
# chunks save interpreter overhead but not arithmetic. At d=20, N=10 a forward
# chunk and an update chunk are 40 layers in 128 KB each; a training step at
# L=1024 peaks at 4.17 trace units (L N d floats) over its two blocks' 4.00
# (``test_memory_flat_in_steps``).
CHUNK_BYTES = 256 * 1024


def layer_span(depth: int, layer_bytes: int) -> int:
    """Layers in one chunk of a loop over a stack of ``depth`` layers whose
    working set is ``layer_bytes`` per layer: as many as fit ``CHUNK_BYTES``,
    but at least one and at most ``depth``."""
    return min(depth, max(1, CHUNK_BYTES // layer_bytes))


def layer_squares(stack: np.ndarray) -> np.ndarray:
    """|A_k|_F^2 for each layer of an (L, d, d) stack.

    The squares are taken one chunk of layers at a time into a buffer, as in
    ``training.weight_norms``, so no array of the stack's size is allocated. Each
    value equals ``np.sum(stack ** 2, axis=(1, 2))`` bit for bit, and its
    square root ``np.linalg.norm(stack, axis=(1, 2))``.
    """
    L = len(stack)
    span = layer_span(L, 2 * stack[0].nbytes)
    buf = np.empty_like(stack, shape=(span,) + stack.shape[1:])
    out = np.empty(L)
    for start in range(0, L, span):
        stop = min(start + span, L)
        np.sum(np.square(stack[start:stop], out=buf[:stop - start]), axis=(1, 2),
               out=out[start:stop])
    return out


@dataclass(frozen=True)
class Activation:
    """Scalar activation with first and second derivatives, applied entrywise.

    Any three callables make an activation; whether they are admissible is
    reported by ``bounds.check_activation``, not enforced here, so synthetic
    violating activations can still be built and inspected.

    ``value`` and ``deriv1`` take an optional ``out`` array of the input's
    shape, which may be passed positionally (as a ufunc's is): when it is
    given they write the result there and return it, and ``out`` may be the
    input itself. ``forward_batch`` passes one to ``value`` and the backward
    pass one to ``deriv1``, both positionally. Without ``out`` they return a
    new result.
    """

    value: Callable[[np.ndarray], np.ndarray]
    deriv1: Callable[[np.ndarray], np.ndarray]
    deriv2: Callable[[np.ndarray], np.ndarray]


def _tanh_first(z: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """1 / cosh(z)^2 in ``out`` or one new array; a scalar input gives a scalar."""
    c = np.cosh(z, out=out)
    c *= c
    return np.divide(1.0, c, out=c if isinstance(c, np.ndarray) else None)


def _tanh_second(z: np.ndarray) -> np.ndarray:
    t = np.tanh(z)
    return -2.0 * t * (1.0 - t * t)


def _identity_value(z: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    if out is None:
        return np.asarray(z, dtype=np.float64)
    np.copyto(out, z)
    return out


def _identity_first(z: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    if out is None:
        return np.ones_like(np.asarray(z, dtype=np.float64))
    out.fill(1.0)
    return out


TANH = Activation(np.tanh, _tanh_first, _tanh_second)
IDENTITY = Activation(_identity_value, _identity_first,
                      lambda z: np.zeros_like(np.asarray(z, dtype=np.float64)))

_ACTIVATIONS = {"tanh": TANH, "identity": IDENTITY}


def activation_by_name(name: str) -> Activation:
    try:
        return _ACTIVATIONS[name]
    except KeyError:
        raise InvalidInputError(f"unknown activation {name!r}") from None


@dataclass(frozen=True)
class NetworkConfig:
    """Width, depth and per-layer scale factor delta = L**(-delta_exponent)."""

    width: int
    depth: int
    delta_exponent: float = 0.5

    def __post_init__(self):
        if self.width < 1 or self.depth < 1:
            raise InvalidInputError("width and depth must be >= 1")
        if not 0.0 <= self.delta_exponent <= 1.0:
            raise InvalidInputError("delta_exponent must lie in [0, 1]")

    @property
    def delta(self) -> float:
        return float(self.depth) ** (-self.delta_exponent)


@dataclass(frozen=True)
class Weights:
    """Depth-indexed stack of layer matrices plus the scale factor delta.

    ``layers`` has shape (L, d, d); layer k of the recursion is layers[k-1].
    """

    layers: np.ndarray
    delta: float

    def __post_init__(self):
        arr = np.asarray(self.layers, dtype=np.float64)
        if arr.ndim != 3 or arr.shape[1] != arr.shape[2] or 0 in arr.shape:
            raise InvalidInputError(
                f"layers must have shape (L, d, d) with L, d >= 1, got {arr.shape}")
        # any non-finite entry makes the sum non-finite; only a sum that is
        # non-finite (possibly by overflow from finite entries) is checked
        # entry by entry, so a finite stack allocates no (L, d, d) mask
        with np.errstate(over="ignore", invalid="ignore"):
            total = arr.sum()
        if not np.isfinite(total) and not np.all(np.isfinite(arr)):
            raise InvalidInputError("weights have non-finite entries")
        if not (np.isfinite(self.delta) and self.delta > 0):
            raise InvalidInputError("delta must be positive and finite")
        object.__setattr__(self, "layers", arr)

    @property
    def depth(self) -> int:
        return self.layers.shape[0]

    @property
    def width(self) -> int:
        return self.layers.shape[1]


@dataclass(frozen=True)
class ForwardTrace:
    """Everything the forward pass computes, layer axis first.

    hidden[k] is h_k for k = 0..L (hidden[0] is the input) and preact[k-1]
    is a_k = alpha_k h_{k-1}; sigma'(a_k) is ``activation.deriv1(preact[k-1])``.
    A batch trace has a sample axis after the layer axis, so hidden has shape
    (L+1, N, d); the single-input trace of ``forward`` has none.
    ``jacobian_stack(weights, activation.deriv1(trace.preact))`` gives the
    layer-to-output Jacobians of a single-input trace.
    """

    hidden: np.ndarray
    preact: np.ndarray
    activation: Activation

    @property
    def output(self) -> np.ndarray:
        return self.hidden[-1]


def forward_batch(xs: np.ndarray, weights: Weights,
                  activation: Activation = TANH,
                  hidden: np.ndarray | None = None,
                  preact: np.ndarray | None = None) -> ForwardTrace:
    """Run the residual recursion over a batch of inputs, shape (N, d).

    The layer loop runs in the scaled state u_k = h_k / delta, where the
    recursion reads u_k = u_{k-1} + sigma((delta A_k) u_{k-1}) and
    (delta A_k) u_{k-1} is the preactivation a_k. Each layer is then only the
    matmul, the activation and the residual add, written into the trace (one
    numpy path, so results are bitwise reproducible). delta A_k is built for
    one chunk of layers at a time into one buffer of less than
    ``CHUNK_BYTES``, and the trace is scaled back to h once at the end, so
    ``hidden`` holds h and ``hidden[0]`` is the input bit for bit.
    Where delta is a power of two, every value equals that of the h-space
    loop h_k = h_{k-1} + delta sigma(A_k h_{k-1}) bit for bit; elsewhere they
    may differ in the last bits.

    ``hidden`` (L+1, N, d) and ``preact`` (L, N, d) are optional output
    buffers; each one not given is allocated. Raises NumericalOverflowError
    naming the first layer whose hidden state goes non-finite. Since u is h
    over delta, a layer whose h exceeds delta times the float maximum already
    has an infinite u and is reported, where the h-space loop would report a
    later layer or none.
    """
    xs = np.asarray(xs, dtype=np.float64)
    if xs.ndim != 2 or xs.shape[1] != weights.width:
        raise InvalidInputError(f"inputs must have shape (N, {weights.width})")
    L, d = weights.depth, weights.width
    delta = weights.delta

    if hidden is None:
        hidden = np.empty((L + 1,) + xs.shape)
    if preact is None:
        preact = np.empty((L,) + xs.shape)
    hidden[0] = xs
    # u_1..u_L live in the trace until the end; u_0 keeps its own buffer
    u_prev = np.divide(xs, delta)
    # a chunk's working set is its delta A_k and the trace rows it writes
    span = layer_span(L, (d * d + 2 * xs.size) * xs.itemsize)
    scaled = np.empty((span, d, d))
    multiply, add, value = np.multiply, np.add, activation.value
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, L, span):
            stop = min(start + span, L)
            b = multiply(weights.layers[start:stop], delta, scaled[:stop - start])
            for u_next, a, b_t in zip(hidden[start + 1:stop + 1], preact[start:stop],
                                      b.transpose(0, 2, 1)):
                # On (N, d) blocks this small the per-call overhead dominates.
                # ndarray.dot runs the same matrix product (and BLAS call) as
                # np.dot without its dispatcher and keyword parsing, and every
                # output is passed positionally.
                u_prev.dot(b_t, a)
                value(a, u_next)
                add(u_next, u_prev, u_next)
                u_prev = u_next
        multiply(hidden[1:], delta, hidden[1:])
    # a non-finite u stays non-finite through every later residual add
    # (inf + x is inf or nan, nan + x is nan), and scaling back by delta <= 1
    # cannot overflow, so a finite output proves a finite trace, and only an
    # overflow pays for the per-layer scan; above 1 the scaling back can
    # overflow anywhere, so the whole trace is checked
    if not np.isfinite(hidden[L]).all() or (delta > 1.0 and not np.isfinite(hidden).all()):
        finite = np.isfinite(hidden[1:]).reshape(L, -1).all(axis=1)
        k = int(np.argmin(finite)) + 1
        raise NumericalOverflowError(f"non-finite hidden state at layer {k}")
    return ForwardTrace(hidden, preact, activation)


def _as_vector(v, dim: int) -> np.ndarray:
    """Coerce to a finite 1-D float64 array of length ``dim``."""
    arr = np.asarray(v, dtype=np.float64)
    if arr.ndim != 1:
        raise InvalidInputError(f"expected a 1-D vector, got shape {arr.shape}")
    if arr.shape[0] != dim:
        raise InvalidInputError(f"expected length {dim}, got {arr.shape[0]}")
    if not np.all(np.isfinite(arr)):
        raise InvalidInputError("vector has non-finite entries")
    return arr


def forward(x, weights: Weights, activation: Activation = TANH) -> ForwardTrace:
    """The single-input view of ``forward_batch``: a trace with no sample axis."""
    batch = forward_batch(_as_vector(x, weights.width)[None, :], weights, activation)
    return ForwardTrace(batch.hidden[:, 0], batch.preact[:, 0], activation)


def jacobian_stack(weights: Weights, sigma_prime: np.ndarray,
                   out: np.ndarray | None = None) -> np.ndarray:
    """M_k for k = 0..L via M_L = I, M_{k-1} = M_k (I + delta diag(s'_k) alpha_k).

    The steps I + delta diag(s'_k) alpha_k are built one chunk of layers at a
    time, last chunk first, into one buffer of less than ``CHUNK_BYTES``, so
    the (L+1, d, d) stack is the only array of the weights' size. It is
    written into ``out`` (C-contiguous float64) when that is given, and
    returned.
    """
    L, d = weights.depth, weights.width
    eye = np.eye(d)
    jac = np.empty((L + 1, d, d)) if out is None else out
    jac[L] = eye
    m_next = jac[L]
    # a chunk's working set is its steps and the Jacobians it writes
    span = layer_span(L, 2 * eye.nbytes)
    buf = np.empty((span, d, d))
    for stop in range(L, 0, -span):
        start = max(stop - span, 0)
        steps = np.multiply(sigma_prime[start:stop, :, None], weights.layers[start:stop],
                            out=buf[:stop - start])
        steps *= weights.delta
        steps += eye
        for m_prev, step in zip(jac[start:stop][::-1], steps[::-1]):
            m_next.dot(step, m_prev)
            m_next = m_prev
    return jac


# "d L delta\n" is at most about 60 bytes; a longer first line is no header
_HEADER_MAX_BYTES = 128


def save_weights(weights: Weights, path) -> None:
    """Binary format: the ASCII header "d L delta\\n" (delta at 17
    significant digits), then the L*d*d entries as little-endian float64 in
    (layer, row, column) order. The float64 round trip is exact.
    """
    with open(path, "wb") as fh:
        fh.write(f"{weights.width} {weights.depth} {weights.delta:.17g}\n".encode("ascii"))
        np.ascontiguousarray(weights.layers, dtype="<f8").tofile(fh)


def load_weights(path) -> Weights:
    with open(path, "rb") as fh:
        line = fh.readline(_HEADER_MAX_BYTES)
        header = line.split()
        if not line.endswith(b"\n") or len(header) != 3:
            raise InvalidInputError(f"malformed weights header in {path}")
        try:
            d, L, delta = int(header[0]), int(header[1]), float(header[2])
        except ValueError:
            raise InvalidInputError(f"malformed weights header in {path}") from None
        if d < 1 or L < 1:
            raise InvalidInputError(f"malformed weights header in {path}")
        expected = 8 * L * d * d
        found = os.fstat(fh.fileno()).st_size - fh.tell()
        if found != expected:
            raise InvalidInputError(f"weights payload of {path} has {found} bytes, "
                                    f"expected {expected} for d={d}, L={L}")
        # read straight into the stack: one copy, no intermediate bytes
        layers = np.empty((L, d, d), dtype="<f8")
        fh.readinto(layers)
    try:
        return Weights(layers, delta)
    except InvalidInputError as exc:
        raise InvalidInputError(f"{exc} in {path}") from None
