"""Full-batch gradient descent with per-step norm logging.

Each run records, at every step t = 0, 1, ..., T, the loss, the
depth-scaled weight norms

    fbar = 1/2 sum_k |A_k|_F^2,    gbar = L/2 sum_k |A_{k+1} - A_k|_F^2,

the layerwise maxima behind them, and the learning rate. With per-layer
logging on, it also records each state's neighbour gaps g_k. This module
alone decides which steps a run log holds: ``train`` writes them and
``load_runlog`` accepts no other.

A run holds two blocks besides w0: a trace block, where each gradient pass
leaves the hidden states and delta sigma' * G, and a weights block, which
holds the current layers. The update forms the layer gradients from the
trace block one chunk of layers at a time and writes the new layers over the
old; the first update reads w0 and writes into the weights block, so w0 is
never written.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from .autograd import Adjoint, _gradient_pass, trace_block_size
from .data import Dataset, write_csv
from .errors import InvalidInputError, NumericalOverflowError
from .network import TANH, Activation, Weights, layer_span, layer_squares

RUNLOG_COLUMNS = ["t", "eta", "loss", "fbar", "gbar", "finf", "neighbour_max", "delta",
                  "fail_reason"]


@dataclass(frozen=True)
class Schedule:
    """Learning-rate schedule: eta0 (constant) or eta0/(t+1) (inverse_decay)."""

    kind: str
    eta0: float

    def __post_init__(self):
        if self.kind not in ("constant", "inverse_decay"):
            raise InvalidInputError(f"unknown schedule kind {self.kind!r}")
        if self.eta0 < 0 or not math.isfinite(self.eta0):
            raise InvalidInputError("eta0 must be finite and >= 0")

    def rate(self, t: int) -> float:
        if self.kind == "constant":
            return self.eta0
        return self.eta0 / (t + 1.0)

    def sum_rates(self, T: int) -> float:
        """Sum of eta(t) for t < T."""
        if T <= 0:
            return 0.0
        if self.kind == "constant":
            return self.eta0 * T
        return self.eta0 * harmonic_number(T)


def harmonic_number(T: int) -> float:
    """H_T = sum_{k<=T} 1/k (0 for T <= 0); exact summation small, asymptotic beyond."""
    if T <= 10_000:
        return float(np.sum(1.0 / np.arange(1, T + 1)))
    t = float(T)
    return math.log(t) + np.euler_gamma + 1.0 / (2.0 * t) - 1.0 / (12.0 * t * t)


@dataclass(frozen=True)
class WeightNorms:
    """The logged norms, plus the squared neighbour differences
    |A_{k+1} - A_k|_F^2 (k = 1..L-1) that gbar and neighbour_max come from."""

    fbar: float
    gbar: float
    finf: float
    neighbour_max: float
    diff_sq: np.ndarray = field(repr=False, compare=False)


def weight_norms(w: Weights) -> WeightNorms:
    """The logged norms (inf where the squares overflow).

    The per-layer squares come from ``network.layer_squares``; the neighbour
    differences are then taken one chunk of layers at a time into a buffer,
    allocated once the squares' buffer is freed, so the norms allocate
    nothing of the stack's size.
    """
    L, layers = w.depth, w.layers
    with np.errstate(over="ignore"):
        layer_sq = layer_squares(layers)
        fbar = 0.5 * float(np.sum(layer_sq))
        finf = float(np.sqrt(np.max(layer_sq)))
        # entry k - 1 of diff_sq is |A_{k+1} - A_k|^2; a chunk's working set
        # is the layers it reads and the buffer. Last chunk first, where the
        # squares ended, so the layers still in the cache are read first
        span = layer_span(L, 2 * layers[0].nbytes)
        buf = np.empty_like(layers, shape=(span,) + layers.shape[1:])
        diff_sq = np.empty(L - 1)
        for stop in range(L - 1, 0, -span):
            start = max(stop - span, 0)
            diffs = np.subtract(layers[start + 1:stop + 1], layers[start:stop],
                                out=buf[:stop - start])
            np.sum(np.square(diffs, out=diffs), axis=(1, 2), out=diff_sq[start:stop])
        # a single layer has no neighbours: both sums are then 0
        gbar = 0.5 * L * float(np.sum(diff_sq))
        neighbour_max = float(np.sqrt(np.max(diff_sq, initial=0.0)))
    return WeightNorms(fbar, gbar, finf, neighbour_max, diff_sq)


def layer_gaps(w: Weights, norms: WeightNorms) -> np.ndarray:
    """g_k = 1/2 L^2 |A_{k+1} - A_k|_F^2 for k = 1..L-1, from the differences
    in ``norms = weight_norms(w)``."""
    return 0.5 * w.depth ** 2 * norms.diff_sq


@dataclass
class RunLog:
    """Time series of one gradient-descent run (row t is the state after t
    updates).

    The fields but ``g_layers`` are ``RUNLOG_COLUMNS`` in order, so a log is
    built from its columns by position. ``g_layers`` (with per-layer logging)
    holds the g_k row of each step; ``fail_reason`` is set when the
    run overflowed.
    """

    t: np.ndarray
    eta: np.ndarray
    loss: np.ndarray
    fbar: np.ndarray
    gbar: np.ndarray
    finf: np.ndarray
    neighbour_max: np.ndarray
    delta: np.ndarray
    g_layers: np.ndarray | None = None
    fail_reason: str | None = None

    @property
    def failed(self) -> bool:
        return self.fail_reason is not None

    @property
    def steps(self) -> int:
        """Last logged step; 0 for a run that failed before its first update."""
        return int(self.t[-1])


def _apply_update(w: Weights, adjoint: Adjoint, dgrad: float, eta: float,
                  delta_trainable: bool, out: np.ndarray, buf: np.ndarray) -> Weights:
    """A_k - eta * grad_k for every layer, written into ``out``, which may
    be ``w.layers``; the layer gradients are formed from ``adjoint`` into
    ``buf`` of (span, d, d), one chunk of span layers at a time.

    A new delta outside (0, inf) fails the update before it writes any
    layer: the new layers then go into ``buf`` only, to tell whether they
    failed as well (the layers are named first).
    """
    new_delta = w.delta - eta * dgrad if delta_trainable else w.delta
    delta_ok = 0.0 < new_delta < math.inf
    span = len(buf)
    for start in range(0, w.depth, span):
        at = slice(start, min(start + span, w.depth))
        chunk = adjoint.layer_grads(at, buf[:at.stop - start])
        chunk *= eta
        new = np.subtract(w.layers[at], chunk, out=out[at] if delta_ok else chunk)
        if not delta_ok and not np.all(np.isfinite(new)):
            raise NumericalOverflowError("non-finite weights after update")
    if not delta_ok:
        raise NumericalOverflowError("scale factor left (0, inf) during update")
    # Weights checks the layers once; with delta in range, a failure is theirs
    try:
        return Weights(out, new_delta)
    except InvalidInputError:
        raise NumericalOverflowError("non-finite weights after update") from None


# overflow ends a run through the checks below, so its warnings are silenced
@np.errstate(over="ignore", invalid="ignore")
def train(w0: Weights, data: Dataset, sched: Schedule, T: int,
          activation: Activation = TANH,
          delta_trainable: bool = False,
          log_layers: bool = False) -> tuple[Weights, RunLog]:
    """Run T sequential updates, logging every state w_0, ..., w_T, so the
    log's steps are t = 0, 1, ..., T. Overflow (also of the logged norms)
    aborts with a partial log, t = 0, 1, ... up to the failed step, and the
    ``failed`` marker set instead of raising; the returned weights are then
    the last finite iterate.

    A run holds two blocks besides w0, which it never writes, and allocates
    no trace-sized array after its first step: each forward pass adds only
    its chunk of scaled layers delta A_k, the update one chunk buffer of
    layer gradients and the norm logging one chunk buffer at a time, each
    within ``network.CHUNK_BYTES``.

    - The trace block, of ``trace_block_size(L, N, d, delta_trainable)``
      floats, holds each gradient pass's hidden states, preactivations and
      delta sigma' * G (written over the preactivations with delta frozen);
      G itself moves through two (N, d) rows. Every iterate's pass, w_T's
      too, runs in it.
    - The weights block, of the layers' shape, holds the current layers.
      The first update copies w0 into it as it writes w_1, and each later
      update overwrites it chunk by chunk: the chunk's layer gradients are
      formed from the trace block (``autograd.Adjoint``) into the buffer,
      scaled by 1/n and then eta, and subtracted from the chunk's layers.

    An update whose layers overflow has already written part of them over
    the layers it read. Unless those were w0's, the run then recomputes them
    by the same steps from w0, bit for bit, so that it returns the last
    finite iterate. An update that sends delta out of (0, inf) writes no
    layer, so it needs no recomputation. The returned ``Weights`` (unless it
    is w0) is a view of the weights block.
    """
    if T < 0:
        raise InvalidInputError("T must be >= 0")

    rows: list[tuple] = []
    g_rows: list[np.ndarray] = []
    fail_reason = None

    w = w0
    L, n, d = w0.depth, len(data.xs), w0.width
    layers = np.empty_like(w0.layers)
    # a chunk's working set is its gradients and the two trace rows they come
    # from, as in forward_batch
    span = layer_span(L, (d * d + 2 * n * d) * layers.itemsize)
    trace = np.empty(trace_block_size(L, n, d, delta_trainable))
    buf = np.empty((span, d, d))

    def log_state(w, t, value, require_finite=True):
        """Log iterate t, then raise if its norms are not finite."""
        norms = weight_norms(w)
        rows.append((t, sched.rate(t), value, norms.fbar, norms.gbar, norms.finf,
                     norms.neighbour_max, w.delta))
        if log_layers:
            g_rows.append(layer_gaps(w, norms))
        if require_finite and not (math.isfinite(norms.fbar) and math.isfinite(norms.gbar)):
            raise NumericalOverflowError(
                f"non-finite weight norms: fbar={norms.fbar!r} gbar={norms.gbar!r}")

    def replay(steps):
        """w_steps once more from w0, by the same steps and so bit for bit."""
        w = w0
        for t in range(steps):
            adjoint, dgrad, _ = _gradient_pass(data, w, activation, delta_trainable, trace)
            w = _apply_update(w, adjoint, dgrad, sched.rate(t), delta_trainable, layers, buf)
        return w

    try:
        for t in range(T + 1):
            adjoint, dgrad, value = _gradient_pass(data, w, activation, delta_trainable, trace)
            log_state(w, t, value)
            if t == T:
                break
            try:
                w = _apply_update(w, adjoint, dgrad, sched.rate(t), delta_trainable, layers,
                                  buf)
            except NumericalOverflowError:
                if not np.all(np.isfinite(w.layers)):
                    # the update wrote its overflowing layers over those of
                    # w_t, which are not w0's
                    w = replay(t)
                raise
    except NumericalOverflowError as exc:
        fail_reason = str(exc)
        if not rows:
            # failed at t=0, before any update: log w0 with an unknown loss, so
            # the saved run log still carries the failure
            log_state(w0, 0, math.nan, require_finite=False)

    steps, *columns = zip(*rows)
    return w, RunLog(np.asarray(steps, dtype=np.int64), *np.asarray(columns, dtype=np.float64),
                     g_layers=np.asarray(g_rows) if log_layers else None,
                     fail_reason=fail_reason)


def save_runlog(log: RunLog, path) -> None:
    """One CSV row per logged step. A failed run carries its reason in the
    ``fail_reason`` column of its last row; every other cell there is empty."""
    reasons = [""] * len(log.t)
    if log.failed:
        reasons[-1] = log.fail_reason or "failed"
    columns = (getattr(log, name).tolist() for name in RUNLOG_COLUMNS[:-1])
    write_csv(path, RUNLOG_COLUMNS, zip(*columns, reasons))


def load_runlog(path) -> RunLog:
    """The run log at ``path``; its steps must be t = 0, 1, 2, ..., as
    ``train`` logs them, and every number must be finite, except in the
    last row of a failed run."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = next(reader, [])
            if header != RUNLOG_COLUMNS:
                raise InvalidInputError(f"unexpected run log header {header!r} in {path}")
            rows = list(reader)
    except UnicodeDecodeError:
        raise InvalidInputError(f"run log {path} is not UTF-8") from None
    except csv.Error as exc:
        raise InvalidInputError(f"malformed run log {path}: {exc}") from None
    if not rows:
        raise InvalidInputError(f"empty run log {path}")
    if any(len(row) != len(RUNLOG_COLUMNS) for row in rows):
        raise InvalidInputError(f"run log rows need {len(RUNLOG_COLUMNS)} cells in {path}")
    if any(row[-1] for row in rows[:-1]):
        raise InvalidInputError(f"fail_reason before the last row of {path}")
    try:
        t = np.asarray([int(row[0]) for row in rows], dtype=np.int64)
        arr = np.asarray([[float(v) for v in row[1:-1]] for row in rows])
    except (ValueError, OverflowError):
        raise InvalidInputError(f"unparseable number in run log {path}") from None
    if not np.array_equal(t, np.arange(len(t))):
        raise InvalidInputError(f"run log steps must be 0, 1, 2, ... in {path}")
    fail_reason = rows[-1][-1] or None
    if not np.all(np.isfinite(arr[:-1] if fail_reason else arr)):
        raise InvalidInputError(f"non-finite number in run log {path} outside the last "
                                "row of a failed run")
    return RunLog(t, *arr.T, fail_reason=fail_reason)


def save_layer_gaps(log: RunLog, path) -> None:
    if log.g_layers is None:
        raise InvalidInputError("run log has no per-layer data")
    write_csv(path, ["t", "k", "g_k"],
              ((t, k, value)
               for t, gaps in zip(log.t.tolist(), log.g_layers.tolist())
               for k, value in enumerate(gaps, start=1)))
