"""Full-batch gradient descent with per-step norm logging.

Each run records the loss, the depth-scaled weight norms

    fbar = 1/2 sum_k |A_k|_F^2,    gbar = L/2 sum_k |A_{k+1} - A_k|_F^2,

the layerwise maxima behind them, and the learning rate. With per-layer
logging on, the run also verifies at every step that the row norms grow no
faster than their one-step drive bound allows.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from .autograd import grad_objective_with_stats, objective, step_block_size
from .data import Dataset
from .errors import InvalidInputError, NumericalOverflowError
from .network import TANH, Activation, Weights

ETA_CAP_COEFF = 1.0 / 160.0
LARGEST_T_CAP = 10 ** 18

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
    """H_T = sum_{k<=T} 1/k; exact summation small, asymptotic beyond."""
    if T <= 0:
        return 0.0
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
    """The logged norms; ``out``, if given, is an (L, d, d) scratch array."""
    squares = np.square(w.layers, out=out)
    layer_sq = np.sum(squares, axis=(1, 2))
    fbar = 0.5 * float(np.sum(layer_sq))
    finf = float(np.sqrt(np.max(layer_sq)))
    if w.depth > 1:
        # the squared neighbour differences reuse the squares' buffer
        diff_sq = _neighbour_diff_sq(w.layers, squares[1:])
        gbar = 0.5 * w.depth * float(np.sum(diff_sq))
        neighbour_max = float(np.sqrt(np.max(diff_sq)))
        return WeightNorms(fbar, gbar, finf, neighbour_max, diff_sq)
    return WeightNorms(fbar, 0.0, finf, 0.0, np.empty(0))


def _neighbour_diff_sq(layers: np.ndarray, out: np.ndarray | None) -> np.ndarray:
    """|A_{k+1} - A_k|_F^2 for k = 1..L-1; the differences go into ``out``."""
    diffs = np.subtract(layers[1:], layers[:-1], out=out)
    return np.sum(np.square(diffs, out=diffs), axis=(1, 2))


def layer_gaps(w: Weights, norms: WeightNorms | None = None) -> np.ndarray:
    """g_k = 1/2 L^2 |A_{k+1} - A_k|_F^2 for k = 1..L-1, from the differences
    in ``norms`` when the norms of ``w`` are given."""
    if w.depth < 2:
        return np.empty(0)
    diff_sq = _neighbour_diff_sq(w.layers, None) if norms is None else norms.diff_sq
    return 0.5 * w.depth ** 2 * diff_sq


def _row_norms(layers: np.ndarray, out: np.ndarray) -> np.ndarray:
    """np.linalg.norm(layers, axis=2) with its squares written into ``out``."""
    return np.sqrt(np.add.reduce(np.multiply(layers, layers, out=out), axis=2))


@dataclass
class RunLog:
    """Time series of one gradient-descent run (row 0 is the initial state).

    ``eta_sum`` holds the exact cumulative learning rate before each logged
    step, so envelope checks work at any logging stride. ``f_slack`` (with
    per-layer logging) is the per-step minimum of bound-minus-observed for
    the row-norm growth inequality; ``g_layers`` the per-step g_k rows.
    """

    t: np.ndarray
    eta: np.ndarray
    loss: np.ndarray
    fbar: np.ndarray
    gbar: np.ndarray
    finf: np.ndarray
    neighbour_max: np.ndarray
    delta: np.ndarray
    eta_sum: np.ndarray | None = None
    g_layers: np.ndarray | None = None
    f_slack: np.ndarray | None = None
    failed: bool = False
    fail_reason: str | None = None

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


def train(w0: Weights, data: Dataset, sched: Schedule, T: int,
          activation: Activation = TANH,
          delta_trainable: bool = False,
          log_layers: bool = False,
          log_stride: int = 1) -> tuple[Weights, RunLog]:
    """Run T sequential updates, logging every ``log_stride`` steps plus the
    initial and final state. Overflow aborts with a partial log and the
    ``failed`` marker set instead of raising; the returned weights are then
    the last finite iterate.

    A run holds three flat blocks of ``step_block_size(L, N, d)`` floats
    besides w0, which it never writes, and allocates no trace-sized array
    after its first step. The blocks change roles every step:

    - the trace block holds the hidden states and sigma' of the step's
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
    f_slacks: list[float] = []
    failed = False
    fail_reason = None

    w = w0
    eta_acc = 0.0
    L, d = w0.depth, w0.width
    sqrt_half_l = math.sqrt(0.5 * L)
    size = step_block_size(L, len(data.xs), d)
    trace_block, adjoint_block, weights_block = (np.empty(size) for _ in range(3))
    scratch = trace_block[:L * d * d].reshape(L, d, d)

    def log_state(t, eta, value):
        norms = weight_norms(w, scratch)
        rows.append((t, eta, value, norms.fbar, norms.gbar, norms.finf,
                     norms.neighbour_max, w.delta, eta_acc))
        if log_layers:
            g_rows.append(layer_gaps(w, norms))

    # the row norms of each iterate serve as one step's "after" and the next
    # step's "before"
    if log_layers:
        f_sqrt_before = sqrt_half_l * _row_norms(w.layers, scratch)
    for t in range(T):
        eta = sched.rate(t)
        try:
            grads, dgrad, value, stats = grad_objective_with_stats(
                data, w, activation, delta_trainable, want_stats=log_layers,
                blocks=(trace_block, adjoint_block))
        except NumericalOverflowError as exc:
            failed, fail_reason = True, str(exc)
            break
        if t % log_stride == 0:
            log_state(t, eta, value)
        if log_layers:
            drive = (eta * math.sqrt(L) * w.delta / math.sqrt(2.0)
                     * np.sqrt(stats.h_sq_ginf_sq))
        try:
            w = _apply_update(w, grads, dgrad, eta, delta_trainable)
        except NumericalOverflowError as exc:
            failed, fail_reason = True, str(exc)
            break
        adjoint_block, weights_block = weights_block, adjoint_block
        if log_layers:
            f_sqrt_after = sqrt_half_l * _row_norms(w.layers, scratch)
            slack = f_sqrt_before + drive[:, None] - f_sqrt_after
            f_slacks.append(float(np.min(slack)))
            f_sqrt_before = f_sqrt_after
        eta_acc += eta

    if not failed:
        try:
            final_value = objective(data, w, activation,
                                    blocks=(trace_block, adjoint_block))
            log_state(T, sched.rate(T), final_value)
        except NumericalOverflowError as exc:
            failed, fail_reason = True, str(exc)
    if not rows:
        # failed at t=0, before any update: log w0 with an unknown loss, so
        # the saved run log still carries the failure
        log_state(0, sched.rate(0), math.nan)

    cols = list(zip(*rows))
    log = RunLog(
        t=np.asarray(cols[0], dtype=np.int64),
        eta=np.asarray(cols[1], dtype=np.float64),
        loss=np.asarray(cols[2], dtype=np.float64),
        fbar=np.asarray(cols[3], dtype=np.float64),
        gbar=np.asarray(cols[4], dtype=np.float64),
        finf=np.asarray(cols[5], dtype=np.float64),
        neighbour_max=np.asarray(cols[6], dtype=np.float64),
        delta=np.asarray(cols[7], dtype=np.float64),
        eta_sum=np.asarray(cols[8], dtype=np.float64),
        g_layers=np.asarray(g_rows) if log_layers and g_rows else None,
        f_slack=np.asarray(f_slacks) if log_layers else None,
        failed=failed,
        fail_reason=fail_reason,
    )
    return w, log


def largest_sum_feasible_T(sched: Schedule, budget: float) -> float:
    """Largest T with sum_{t<T} eta(t) <= budget, capped at 10^18.

    Constant rates give floor(budget / eta0); inverse decay inverts the
    harmonic sum, so the answer grows like exp(budget / eta0).
    """
    if budget < 0 or sched.eta0 < 0:
        raise InvalidInputError("budget and eta0 must be nonnegative")
    if sched.eta0 == 0.0:
        return math.inf
    if sched.kind == "constant":
        return min(float(math.floor(budget / sched.eta0)), float(LARGEST_T_CAP))
    ratio = budget / sched.eta0
    if ratio < 1.0:
        return 0.0
    if harmonic_number(LARGEST_T_CAP) <= ratio:
        return float(LARGEST_T_CAP)
    lo, hi = 1, LARGEST_T_CAP
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if harmonic_number(mid) <= ratio:
            lo = mid
        else:
            hi = mid - 1
    return float(lo)


def save_runlog(log: RunLog, path) -> None:
    """One CSV row per logged step. A failed run carries its reason in the
    ``fail_reason`` column of its last row; every other cell there is empty."""
    last_reason = (log.fail_reason or "failed") if log.failed else ""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(RUNLOG_COLUMNS)
        for i in range(len(log.t)):
            writer.writerow([int(log.t[i])] + [
                repr(float(col[i])) for col in
                (log.eta, log.loss, log.fbar, log.gbar, log.finf,
                 log.neighbour_max, log.delta)]
                + [last_reason if i == len(log.t) - 1 else ""])


def load_runlog(path) -> RunLog:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header != RUNLOG_COLUMNS:
            raise InvalidInputError(f"unexpected run log header {header!r} in {path}")
        rows = list(reader)
    if not rows:
        raise InvalidInputError(f"empty run log {path}")
    if any(len(row) != len(RUNLOG_COLUMNS) for row in rows):
        raise InvalidInputError(f"run log rows need {len(RUNLOG_COLUMNS)} cells in {path}")
    if any(row[-1] for row in rows[:-1]):
        raise InvalidInputError(f"fail_reason before the last row of {path}")
    try:
        arr = np.asarray([[float(v) for v in row[:-1]] for row in rows])
    except ValueError:
        raise InvalidInputError(f"unparseable number in run log {path}") from None
    fail_reason = rows[-1][-1] or None
    t = arr[:, 0].astype(np.int64)
    eta = arr[:, 1]
    # The cumulative rate is recoverable exactly when every step was logged.
    eta_sum = None
    if len(t) >= 1 and np.array_equal(t[:-1], np.arange(len(t) - 1)):
        eta_sum = np.concatenate([[0.0], np.cumsum(eta[:-1])])
    return RunLog(t=t, eta=eta, loss=arr[:, 2], fbar=arr[:, 3], gbar=arr[:, 4],
                  finf=arr[:, 5], neighbour_max=arr[:, 6], delta=arr[:, 7],
                  eta_sum=eta_sum, failed=fail_reason is not None,
                  fail_reason=fail_reason)


def save_layer_gaps(log: RunLog, path) -> None:
    if log.g_layers is None:
        raise InvalidInputError("run log has no per-layer data")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "k", "g_k"])
        for i in range(len(log.t)):
            for k, value in enumerate(log.g_layers[i], start=1):
                writer.writerow([int(log.t[i]), k, repr(float(value))])
