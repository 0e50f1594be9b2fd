"""Residual architecture: h_k = h_{k-1} + delta * sigma(a_k h_{k-1}).

``forward_batch`` is the one forward pass: it records every hidden state and
preactivation for a batch of inputs, and ``forward`` is its single-input
view. The activation derivative is computed from the preactivations on first
use, because the objective and the finite-difference oracle never need it.
Layer-to-output Jacobians M_k are optional because gradients only ever need
the matching vector recursion (see ``autograd``).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .errors import InvalidInputError, NumericalOverflowError
from .linalg import as_vector

@dataclass(frozen=True)
class Activation:
    """Scalar activation with first and second derivatives, applied entrywise.

    Any three callables make an activation; whether they are admissible is
    reported by ``bounds.check_activation``, not enforced here, so synthetic
    violating activations can still be built and inspected.

    ``value`` and ``deriv1`` take an optional ``out`` array of the input's
    shape, which may be passed positionally (as a ufunc's is): when it is
    given they write the result there and return it, and ``out`` may be the
    input itself. ``forward_batch`` always passes one to ``value``,
    positionally; ``deriv1`` gets one only when the trace has a sigma' buffer.
    Without ``out``, ``deriv1`` must return a new writable array for an array
    input: the backward pass overwrites it.
    """

    name: str
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


TANH = Activation("tanh", np.tanh, _tanh_first, _tanh_second)
IDENTITY = Activation("identity", _identity_value, _identity_first,
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
    delta_trainable: bool = False
    activation: Activation = TANH

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
        if arr.ndim != 3 or arr.shape[1] != arr.shape[2]:
            raise InvalidInputError(f"layers must have shape (L, d, d), got {arr.shape}")
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


def zero_weights(width: int, depth: int, delta: float | None = None,
                 delta_exponent: float = 0.5) -> Weights:
    if delta is None:
        delta = float(depth) ** (-delta_exponent)
    return Weights(np.zeros((depth, width, width)), delta)


@dataclass(frozen=True)
class ForwardTrace:
    """Everything the forward pass computes, layer axis first.

    hidden[k] is h_k for k = 0..L (hidden[0] is the input), preact[k-1] is
    a_k = alpha_k h_{k-1} and sigma_prime[k-1] is sigma'(a_k), computed from
    preact on first access (into ``sigma_prime_out`` when one is given) and
    then kept. A batch trace has a sample axis after the layer axis, so
    hidden has shape (L+1, N, d); the single-input trace of ``forward`` has
    none, and there, when requested, jacobians[k] is M_k = dh_L/dh_k (so
    jacobians[L] is the identity).
    """

    hidden: np.ndarray
    preact: np.ndarray
    activation: Activation
    jacobians: np.ndarray | None = None
    sigma_prime_out: np.ndarray | None = None

    @property
    def output(self) -> np.ndarray:
        return self.hidden[-1]

    @cached_property
    def sigma_prime(self) -> np.ndarray:
        if self.sigma_prime_out is None:
            return self.activation.deriv1(self.preact)
        return self.activation.deriv1(self.preact, out=self.sigma_prime_out)


def forward_batch(xs: np.ndarray, weights: Weights,
                  activation: Activation = TANH,
                  hidden: np.ndarray | None = None,
                  preact: np.ndarray | None = None,
                  sigma_prime: np.ndarray | None = None) -> ForwardTrace:
    """Run the residual recursion over a batch of inputs, shape (N, d).

    The layer loop does only the matmul, the activation and the residual add,
    writing into the trace and one reused (N, d) buffer (one numpy path, so
    results are bitwise reproducible). ``hidden`` (L+1, N, d), ``preact`` and
    ``sigma_prime`` (L, N, d) are optional output buffers; each one not given
    is allocated. Raises NumericalOverflowError naming the first layer whose
    hidden state goes non-finite.
    """
    xs = np.asarray(xs, dtype=np.float64)
    if xs.ndim != 2 or xs.shape[1] != weights.width:
        raise InvalidInputError(f"inputs must have shape (N, {weights.width})")
    L = weights.depth
    delta = weights.delta

    if hidden is None:
        hidden = np.empty((L + 1,) + xs.shape)
    if preact is None:
        preact = np.empty((L,) + xs.shape)
    step = np.empty(xs.shape)
    hidden[0] = xs
    h_prev = hidden[0]
    multiply, add, value = np.multiply, np.add, activation.value
    with np.errstate(over="ignore", invalid="ignore"):
        for h_next, a, alpha_t in zip(hidden[1:], preact, weights.layers.transpose(0, 2, 1)):
            # On (N, d) blocks this small the per-call overhead dominates.
            # ndarray.dot runs the same matrix product (and BLAS call) as
            # np.dot without its dispatcher and keyword parsing, and every
            # output is passed positionally.
            h_prev.dot(alpha_t, a)
            multiply(value(a, step), delta, step)
            add(h_prev, step, h_next)
            h_prev = h_next
    # a non-finite entry stays non-finite through every later residual add
    # (inf + x is inf or nan, nan + x is nan), so a finite output proves a
    # finite trace, and only an overflow pays for the per-layer scan
    if not np.isfinite(h_prev).all():
        finite = np.isfinite(hidden[1:]).reshape(L, -1).all(axis=1)
        k = int(np.argmin(finite)) + 1
        raise NumericalOverflowError(f"non-finite hidden state at layer {k}", layer=k)
    return ForwardTrace(hidden, preact, activation, sigma_prime_out=sigma_prime)


def forward(x, weights: Weights, activation: Activation = TANH,
            want_jacobians: bool = False) -> ForwardTrace:
    """The single-input view of ``forward_batch``, optionally with the
    layer-to-output Jacobians."""
    batch = forward_batch(as_vector(x, dim=weights.width)[None, :], weights, activation)
    trace = ForwardTrace(batch.hidden[:, 0], batch.preact[:, 0], activation)
    if not want_jacobians:
        return trace
    return ForwardTrace(trace.hidden, trace.preact, activation,
                        jacobian_stack(weights, trace.sigma_prime))


def jacobian_stack(weights: Weights, sigma_prime: np.ndarray) -> np.ndarray:
    """M_k for k = 0..L via M_L = I, M_{k-1} = M_k (I + delta diag(s'_k) alpha_k)."""
    L, d = weights.depth, weights.width
    eye = np.eye(d)
    # I + delta * (s' * alpha) for every layer, built in place so the step
    # stack is the only (L, d, d) temporary
    steps = sigma_prime[:, :, None] * weights.layers
    steps *= weights.delta
    steps += eye
    jac = np.empty((L + 1, d, d))
    jac[L] = eye
    m_next = jac[L]
    for m_prev, step in zip(jac[-2::-1], steps[::-1]):
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
