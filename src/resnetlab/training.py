"""Full-batch gradient descent with per-step norm logging.

Each run records the loss, the depth-scaled weight norms

    fbar = 1/2 sum_k |A_k|_F^2,    gbar = L/2 sum_k |A_{k+1} - A_k|_F^2,

the layerwise maxima behind them, and the learning rate. With per-layer
logging on, it also records each logged state's neighbour gaps g_k.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from .autograd import grad_objective_with_stats, objective, step_block_size
from .data import Dataset, write_csv
from .errors import InvalidInputError, NumericalOverflowError
from .network import TANH, Activation, Weights

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


def weight_norms(w: Weights, out: np.ndarray | None = None) -> WeightNorms:
    """The logged norms (inf where the squares overflow); ``out``, if given,
    is an (L, d, d) scratch array."""
    with np.errstate(over="ignore"):
        squares = np.square(w.layers, out=out)
        layer_sq = np.sum(squares, axis=(1, 2))
        fbar = 0.5 * float(np.sum(layer_sq))
        finf = float(np.sqrt(np.max(layer_sq)))
        if w.depth == 1:
            return WeightNorms(fbar, 0.0, finf, 0.0, np.empty(0))
        # the squared neighbour differences reuse the squares' buffer
        diff_sq = _neighbour_diff_sq(w.layers, squares[1:])
        gbar = 0.5 * w.depth * float(np.sum(diff_sq))
        neighbour_max = float(np.sqrt(np.max(diff_sq)))
    return WeightNorms(fbar, gbar, finf, neighbour_max, diff_sq)


def _neighbour_diff_sq(layers: np.ndarray, out: np.ndarray) -> np.ndarray:
    """|A_{k+1} - A_k|_F^2 for k = 1..L-1; the differences go into ``out``."""
    diffs = np.subtract(layers[1:], layers[:-1], out=out)
    return np.sum(np.square(diffs, out=diffs), axis=(1, 2))


def layer_gaps(w: Weights, norms: WeightNorms) -> np.ndarray:
    """g_k = 1/2 L^2 |A_{k+1} - A_k|_F^2 for k = 1..L-1, from the differences
    in ``norms = weight_norms(w)``."""
    return 0.5 * w.depth ** 2 * norms.diff_sq


@dataclass
class RunLog:
    """Time series of one gradient-descent run (row 0 is the initial state).

    The fields but ``g_layers`` are ``RUNLOG_COLUMNS`` in order, so a log is
    built from its columns by position. ``g_layers`` (with per-layer logging)
    holds the g_k row of each logged step; ``fail_reason`` is set when the
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


def _apply_update(w: Weights, grads: np.ndarray, dgrad: float, eta: float,
                  delta_trainable: bool) -> Weights:
    """A_k - eta * grad_k for every layer, written over ``grads``."""
    grads *= eta
    new_layers = np.subtract(w.layers, grads, out=grads)
    new_delta = w.delta - eta * dgrad if delta_trainable else w.delta
    # Weights checks the layers and delta once; only a failure looks again,
    # to say which went wrong (the layers first)
    try:
        return Weights(new_layers, new_delta)
    except InvalidInputError:
        if not np.all(np.isfinite(new_layers)):
            raise NumericalOverflowError("non-finite weights after update") from None
        raise NumericalOverflowError("scale factor left (0, inf) during update") from None


# overflow ends a run through the checks below, so its warnings are silenced
@np.errstate(over="ignore", invalid="ignore")
def train(w0: Weights, data: Dataset, sched: Schedule, T: int,
          activation: Activation = TANH,
          delta_trainable: bool = False,
          log_layers: bool = False,
          log_stride: int = 1) -> tuple[Weights, RunLog]:
    """Run T sequential updates, logging every ``log_stride`` steps plus the
    initial and final state. Overflow (also of the logged norms) aborts with
    a partial log and the ``failed`` marker set instead of raising; the
    returned weights are then the last finite iterate.

    A run holds three flat blocks of ``step_block_size(L, N, d)`` floats
    besides w0, which it never writes, and allocates no trace-sized array
    after its first step: each forward pass adds only its chunk of scaled
    layers delta A_k, below ``network.CHUNK_BYTES``. The blocks change roles
    every step:

    - the trace block holds the hidden states and delta sigma' of the step's
      gradient pass, then the scratch squares of the norm logging;
    - the adjoint block holds the preactivations and G, then the gradient
      stack, over which the update writes the new layers;
    - the weights block holds the current layers. After an update it is free
      and becomes the next step's adjoint block.

    The returned ``Weights`` (unless it is w0) is a view of one block.
    """
    if T < 0:
        raise InvalidInputError("T must be >= 0")
    if log_stride < 1:
        raise InvalidInputError("log_stride must be >= 1")

    rows: list[tuple] = []
    g_rows: list[np.ndarray] = []
    fail_reason = None

    w = w0
    L, d = w0.depth, w0.width
    size = step_block_size(L, len(data.xs), d)
    trace_block, adjoint_block, weights_block = (np.empty(size) for _ in range(3))
    scratch = trace_block[:L * d * d].reshape(L, d, d)

    def log_state(t, eta, value, require_finite=True):
        """Log the current iterate, then raise if its norms are not finite."""
        norms = weight_norms(w, scratch)
        rows.append((t, eta, value, norms.fbar, norms.gbar, norms.finf,
                     norms.neighbour_max, w.delta))
        if log_layers:
            g_rows.append(layer_gaps(w, norms))
        if require_finite and not (math.isfinite(norms.fbar) and math.isfinite(norms.gbar)):
            raise NumericalOverflowError(
                f"non-finite weight norms: fbar={norms.fbar!r} gbar={norms.gbar!r}")

    try:
        for t in range(T):
            eta = sched.rate(t)
            grads, dgrad, value = grad_objective_with_stats(
                data, w, activation, delta_trainable,
                blocks=(trace_block, adjoint_block))
            if t % log_stride == 0:
                log_state(t, eta, value)
            w = _apply_update(w, grads, dgrad, eta, delta_trainable)
            adjoint_block, weights_block = weights_block, adjoint_block
        final_value = objective(data, w, activation, blocks=(trace_block, adjoint_block))
        log_state(T, sched.rate(T), final_value)
    except NumericalOverflowError as exc:
        fail_reason = str(exc)
        if not rows:
            # failed at t=0, before any update: log w0 with an unknown loss, so
            # the saved run log still carries the failure
            log_state(0, sched.rate(0), math.nan, require_finite=False)

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
    """The run log at ``path``; every number must be finite, except in the
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
    if t[0] != 0 or np.any(t[1:] <= t[:-1]):
        raise InvalidInputError(f"run log steps must start at 0 and strictly increase in {path}")
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
