"""Empirical certification of the dynamics inequalities.

Every certifier computes both sides of a proved inequality on a concrete
instance and reports the slack. Hypothesis checks are themselves reports, so
an inapplicable bound (precondition violated) stays distinguishable from a
failed one, and lower bounds with a nonpositive coefficient are flagged
vacuous rather than counted as meaningful passes. The premises of the
proofs (activation admissibility, the initial-state clauses and the
learning-rate caps) are hypothesis rows of the same record, and ``make_report``
is the one place that decides whether a row passes. ``certify_run_envelope``
states the loss-envelope theorem whole: it builds its premise rows and decides
from them whether its conclusions apply.

The certifiers of one weight draw take the draw's evaluation from the
caller, so a draw costs one gradient pass however many bounds read it:
``value`` is the objective and ``grads`` the (L, d, d) layer gradients, both
from one ``grad_objective_with_stats`` pass, or the gradients' per-layer
squares, and ``norms`` is ``weight_norms(weights)``. That caller is
``certify_draws``, which draws each random weight stack, evaluates it once
and hands the evaluation to every certifier of the draw. The sweep holds
three arrays of the weights' size, allocated once, and every draw writes
into them: the layer stack, the trace block of the gradient pass and the
Jacobian stack, which holds each draw's gradients until their per-layer
squares are taken. Those squares come from ``network.layer_squares``, which
needs no array of the stack's size, once per draw for both gradient
certifiers.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .autograd import (grad_objective_with_stats, hessian_spectral_estimate,
                       objective, trace_block_size)
from .data import (UNIT_NORM_TOL, AssumptionParams, Dataset, initial_loss_cap,
                   initial_row_norm_cap, separation_threshold)
from .errors import InvalidInputError, NumericalOverflowError
from .network import (TANH, Activation, ForwardTrace, Weights, forward,
                      jacobian_stack, layer_squares)
from .training import RunLog, Schedule, WeightNorms, harmonic_number, weight_norms

REL_TOL_EXACT = 1e-9
REL_TOL_HESSIAN = 1e-3
HESSIAN_PROBES = 40  # power-iteration budget of the Hessian certificate

ACTIVATION_GRID_POINTS = 20_001
ACTIVATION_GRID_RANGE = (-10.0, 10.0)

ETA_CAP_COEFF = 1.0 / 160.0
LARGEST_T_CAP = 10 ** 18


@dataclass(frozen=True)
class BoundReport:
    """Observed quantity against its theoretical bound.

    ``direction`` is "upper" when the claim is observed <= bound and "lower"
    for observed >= bound; ``slack`` is always bound-minus-observed oriented
    so that nonnegative slack means the inequality holds. ``vacuous`` marks
    lower bounds whose coefficient is nonpositive at this problem size, and
    ``applicable`` is False when a hypothesis of the statement failed. A row
    passes when its observed value is finite and ``slack >= -tol``.
    """

    name: str
    observed: float
    bound: float
    slack: float
    passed: bool
    tol: float
    direction: str = "upper"
    vacuous: bool = False
    applicable: bool = True
    hypothesis: bool = False
    context: dict = field(default_factory=dict)


def make_report(name: str, observed: float, bound: float, rel_tol: float,
                direction: str = "upper", vacuous: bool = False,
                applicable: bool = True, hypothesis: bool = False,
                context: dict | None = None) -> BoundReport:
    observed = float(observed)
    bound = float(bound)
    if direction == "upper":
        slack = bound - observed
    elif direction == "lower":
        slack = observed - bound
    else:
        raise InvalidInputError(f"unknown direction {direction!r}")
    # NaN on either side makes tol NaN; max alone would skip a NaN bound
    tol = (math.nan if math.isnan(observed) or math.isnan(bound)
           else rel_tol * max(abs(observed), abs(bound), 1e-300))
    passed = math.isfinite(observed) and slack >= -tol
    return BoundReport(name, observed, bound, slack, passed, tol,
                       direction, vacuous, applicable, hypothesis,
                       dict(context or {}))


def meaningful_failures(reports: list[BoundReport]) -> list[BoundReport]:
    """Failed certifications: applicable, non-vacuous, non-hypothesis rows.

    A failed hypothesis row only marks the statement inapplicable; it is not
    a counterexample to anything.
    """
    return [r for r in reports
            if r.applicable and not r.vacuous and not r.hypothesis and not r.passed]


def check_activation(a: Activation) -> list[BoundReport]:
    """The five admissibility clauses of a scalar activation, on a uniform grid.

    Rows: sigma(0)=0, sigma'(0)=1, |sigma(z)| <= |z|, |sigma'| <= 1 and
    |sigma''| <= 1, each an exact (zero-tolerance) hypothesis row.
    """
    z = np.linspace(*ACTIVATION_GRID_RANGE, ACTIVATION_GRID_POINTS)
    zero = np.array(0.0)
    clauses = (
        ("value_at_zero", abs(float(a.value(zero))), 0.0),
        ("slope_at_zero", abs(float(a.deriv1(zero)) - 1.0), 0.0),
        ("bounded_by_identity", float(np.max(np.abs(a.value(z)) - np.abs(z))), 0.0),
        ("first_derivative", float(np.max(np.abs(a.deriv1(z)))), 1.0),
        ("second_derivative", float(np.max(np.abs(a.deriv2(z)))), 1.0),
    )
    return [make_report(name, observed, bound, 0.0, hypothesis=True)
            for name, observed, bound in clauses]


def _unit_deviation(data: Dataset) -> float:
    """Largest distance of an input or target norm from 1."""
    norms_x = np.linalg.norm(data.xs, axis=1)
    norms_y = np.linalg.norm(data.ys, axis=1)
    return float(max(np.max(np.abs(norms_x - 1.0)), np.max(np.abs(norms_y - 1.0))))


def check_assumptions(data: Dataset, w0: Weights, params: AssumptionParams,
                      activation: Activation = TANH) -> list[BoundReport]:
    """One hypothesis row ``assumption_<clause>`` per admissibility clause.

    Clauses: (i) activation grid check, (ii) delta = L**-1/2, (iii) unit data
    and separation, (iv) initial row norms, (v) initial loss. Clause (i) is
    one row whose observed value is the largest violation over the rows of
    ``check_activation``. When the forward pass at w0 overflows, clause (v)
    fails with observed inf.
    """
    act_violation = max(max(r.observed - r.bound, 0.0)
                        for r in check_activation(activation))
    try:
        initial_loss = objective(data, w0, activation)
    except NumericalOverflowError:
        initial_loss = math.inf
    clauses = (
        ("i_activation", act_violation, 0.0),
        ("ii_delta_scaling", abs(w0.delta - params.L ** (-0.5)),
         UNIT_NORM_TOL * max(1.0, w0.delta)),
        ("iii_unit_norms", _unit_deviation(data), UNIT_NORM_TOL),
        ("iii_separation", data.separation, separation_threshold(params.N, params.c0)),
        ("iv_row_norms", float(np.max(np.linalg.norm(w0.layers, axis=2))),
         initial_row_norm_cap(params)),
        ("v_initial_loss", initial_loss, initial_loss_cap(params)),
    )
    return [make_report(f"assumption_{name}", observed, bound, REL_TOL_EXACT,
                        hypothesis=True, context={"L": params.L})
            for name, observed, bound in clauses]


def largest_sum_feasible_T(sched: Schedule, budget: float) -> float:
    """Largest T with sum_{t<T} eta(t) <= budget, capped at 10^18.

    Constant rates give floor(budget / eta0); inverse decay inverts the
    harmonic sum, so the answer grows like exp(budget / eta0).
    """
    if budget < 0 or sched.eta0 < 0:
        raise InvalidInputError("budget and eta0 must be nonnegative")
    if sched.eta0 == 0.0:
        return math.inf
    ratio = budget / sched.eta0  # inf for a subnormal eta0
    if sched.kind == "constant":
        return float(math.floor(min(ratio, LARGEST_T_CAP)))
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


def lr_feasibility(params: AssumptionParams, sched: Schedule,
                   T: int) -> list[BoundReport]:
    """The two learning-rate clauses over T steps, as hypothesis rows.

    ``lr_per_step``: eta(t) <= (1/160) N^-1 d^-1 exp(-10.5 c0) for every t < T.
    ``lr_sum``: sum_{t<T} eta(t) <= d^-1 log L. Both carry the largest
    admissible T as context ``largest_feasible_T``: 0 when eta(0) already
    breaks the per-step cap, inf for a zero rate.
    """
    if T < 0:
        raise InvalidInputError("T must be >= 0")
    eta_cap = ETA_CAP_COEFF / params.N / params.d * math.exp(-10.5 * params.c0)
    sum_cap = math.log(params.L) / params.d
    largest = (0.0 if sched.rate(0) > eta_cap
               else largest_sum_feasible_T(sched, sum_cap))
    ctx = {"L": params.L, "largest_feasible_T": largest}
    return [
        make_report("lr_per_step", sched.rate(0) if T > 0 else 0.0, eta_cap,
                    REL_TOL_EXACT, hypothesis=True, context=ctx),
        make_report("lr_sum", sched.sum_rates(T), sum_cap, REL_TOL_EXACT,
                    hypothesis=True, context=ctx),
    ]


def _hypothesis_forward(weights: Weights, norms: WeightNorms, c_alpha: float,
                        rel_tol: float) -> list[BoundReport]:
    L = weights.depth
    return [
        make_report("hyp_depth_vs_c", L, 5.0 * c_alpha, rel_tol, direction="lower",
                    hypothesis=True, context={"c_alpha": c_alpha, "L": L}),
        make_report("hyp_weight_scale", norms.finf, c_alpha * L ** (-0.5), rel_tol,
                    hypothesis=True, context={"c_alpha": c_alpha, "L": L}),
    ]


def certify_forward(trace: ForwardTrace, weights: Weights, norms: WeightNorms,
                    c_alpha: float,
                    jacobians: np.ndarray | None = None) -> list[BoundReport]:
    """Hidden-state sandwich and Jacobian column bounds along one trace:

        |x| e^{-2c} <= |h_k| <= |x| e^{1.1c}   and   |M_k e_m| <= e^c.

    ``trace`` is ``forward(x, weights, ...)``, so x is ``trace.hidden[0]``; the
    Jacobians M_k come from ``jacobian_stack`` with sigma' computed from the
    trace's preactivations, written into ``jacobians`` (L+1, d, d) when that
    is given; their squares are then left there.
    """
    reports = _hypothesis_forward(weights, norms, c_alpha, REL_TOL_EXACT)
    applicable = all(r.passed for r in reports)
    L = weights.depth
    x_norm = float(np.linalg.norm(trace.hidden[0]))
    h_norms = np.linalg.norm(trace.hidden[1:], axis=1)
    k_lo = int(np.argmin(h_norms))
    k_hi = int(np.argmax(h_norms))
    ctx = {"c_alpha": c_alpha, "L": L}
    reports.append(make_report(
        "forward_hidden_lower", h_norms[k_lo], x_norm * math.exp(-2.0 * c_alpha),
        REL_TOL_EXACT, direction="lower", applicable=applicable,
        context=dict(ctx, k=k_lo + 1)))
    reports.append(make_report(
        "forward_hidden_upper", h_norms[k_hi], x_norm * math.exp(1.1 * c_alpha),
        REL_TOL_EXACT, applicable=applicable, context=dict(ctx, k=k_hi + 1)))

    jac = jacobian_stack(weights, trace.activation.deriv1(trace.preact), jacobians)
    # (L+1, d): column norms per k, by np.linalg.norm's own operations with
    # jac squared in place
    col_norms = np.sqrt(np.add.reduce(np.square(jac, out=jac), axis=1))
    k_worst, m_worst = np.unravel_index(np.argmax(col_norms), col_norms.shape)
    reports.append(make_report(
        "forward_jacobian_columns", col_norms[k_worst, m_worst],
        math.exp(c_alpha), REL_TOL_EXACT, applicable=applicable,
        context=dict(ctx, k=int(k_worst), m=int(m_worst))))
    return reports


def loss_upper_bound(c_alpha: float) -> float:
    """Depth-free objective bound 1 + e^{2.2 c} for unit targets."""
    return 1.0 + math.exp(2.2 * c_alpha)


def certify_loss_bound(weights: Weights, value: float, norms: WeightNorms,
                       c_alpha: float) -> list[BoundReport]:
    """Objective ``value`` at ``weights`` against 1 + e^{2.2c}."""
    reports = _hypothesis_forward(weights, norms, c_alpha, REL_TOL_EXACT)
    applicable = all(r.passed for r in reports)
    reports.append(make_report("loss_upper", value, loss_upper_bound(c_alpha),
                               REL_TOL_EXACT, applicable=applicable,
                               context={"c_alpha": c_alpha}))
    return reports


def gradient_upper_coefficient(d: int, L: int, c_alpha: float) -> float:
    return 2.0 * d * math.exp(4.2 * c_alpha) / L


def _gradient_squares(grads: np.ndarray) -> np.ndarray:
    """|grad_k J|_F^2 per layer: ``grads`` itself when it holds them already
    (an (L,) array), else ``layer_squares`` of the (L, d, d) stack."""
    return grads if grads.ndim == 1 else layer_squares(grads)


def certify_gradient_upper(weights: Weights, value: float, grads: np.ndarray,
                           norms: WeightNorms, c_alpha: float) -> list[BoundReport]:
    """Per-layer gradient bound |grad_k J|_F^2 <= 2 d e^{4.2c} L^-1 J.

    ``grads`` is the (L, d, d) layer gradient stack or its per-layer squares
    (see ``_gradient_squares``).
    """
    reports = _hypothesis_forward(weights, norms, c_alpha, REL_TOL_EXACT)
    applicable = all(r.passed for r in reports)
    per_layer_sq = _gradient_squares(grads)
    k_worst = int(np.argmax(per_layer_sq))
    bound = gradient_upper_coefficient(weights.width, weights.depth, c_alpha) * value
    reports.append(make_report(
        "gradient_upper", per_layer_sq[k_worst], bound, REL_TOL_EXACT,
        applicable=applicable,
        context={"c_alpha": c_alpha, "k": k_worst + 1, "objective": value}))
    return reports


def first_layer_lower_coefficient(params: AssumptionParams) -> float:
    return math.exp(-2.0 * params.c0) / (4.0 * params.N * params.L)


def full_lower_coefficient(params: AssumptionParams) -> float:
    return (math.exp(-2.0 * params.c0) / (16.0 * params.N)
            - 17.0 * params.d * params.c0 ** 4 * math.exp(6.4 * params.c0) / params.L)


def vacuous_depth_threshold(params: AssumptionParams) -> float:
    """Depth below which the full lower-bound coefficient turns nonpositive."""
    return 272.0 * params.N * params.d * params.c0 ** 4 * math.exp(8.4 * params.c0)


def neighbour_gap_cap(params: AssumptionParams) -> float:
    return 2.0 ** (-3.5) * params.N ** (-0.5) * math.exp(-4.2 * params.c0) / params.L


def certify_gradient_lower(data: Dataset, weights: Weights, value: float,
                           grads: np.ndarray, norms: WeightNorms,
                           params: AssumptionParams) -> list[BoundReport]:
    """Suboptimality lower bounds on the gradient norm.

    First layer: |grad_1 J|_F^2 >= (4N)^-1 e^{-2c0} L^-1 J under the weight
    scale, depth and data-separation hypotheses. Full vector: adds the
    neighbouring-layer gap hypothesis; its coefficient can be nonpositive at
    small depth, in which case the report is marked vacuous. ``grads`` is the
    (L, d, d) layer gradient stack or its per-layer squares.
    """
    c0, L = params.c0, weights.depth
    reports = [
        make_report("hyp_depth_vs_c", L, max(5.0 * c0, 4.0 * c0 ** 2), REL_TOL_EXACT,
                    direction="lower", hypothesis=True, context={"c0": c0}),
        make_report("hyp_weight_scale", norms.finf, c0 * L ** (-0.5), REL_TOL_EXACT,
                    hypothesis=True),
        make_report("hyp_unit_data", _unit_deviation(data), UNIT_NORM_TOL,
                    REL_TOL_EXACT, hypothesis=True),
        make_report("hyp_separation", data.separation,
                    separation_threshold(params.N, c0), REL_TOL_EXACT, hypothesis=True),
    ]
    base_ok = all(r.passed for r in reports)

    per_layer_sq = _gradient_squares(grads)

    reports.append(make_report(
        "gradient_lower_first_layer", per_layer_sq[0],
        first_layer_lower_coefficient(params) * value, REL_TOL_EXACT,
        direction="lower", applicable=base_ok,
        context={"c0": c0, "objective": value}))

    gap_report = make_report("hyp_neighbour_gap", norms.neighbour_max,
                             neighbour_gap_cap(params), REL_TOL_EXACT, hypothesis=True)
    reports.append(gap_report)
    coeff = full_lower_coefficient(params)
    reports.append(make_report(
        "gradient_lower_full", float(np.sum(per_layer_sq)), coeff * value,
        REL_TOL_EXACT, direction="lower", vacuous=coeff <= 0.0,
        applicable=base_ok and gap_report.passed,
        context={"c0": c0, "objective": value, "coefficient": coeff,
                 "vacuous_below_depth": vacuous_depth_threshold(params)}))
    return reports


def hessian_upper_bound(d: int, c_alpha: float) -> float:
    return 5.0 * d * math.exp(4.3 * c_alpha)


def certify_hessian(data: Dataset, weights: Weights, c_alpha: float,
                    activation: Activation = TANH) -> list[BoundReport]:
    """Spectral norm of the layer-weight Hessian against 5 d e^{4.3c}, from
    ``HESSIAN_PROBES`` power iterations."""
    reports = _hypothesis_forward(weights, weight_norms(weights), c_alpha, REL_TOL_HESSIAN)
    applicable = all(r.passed for r in reports)
    est = hessian_spectral_estimate(data, weights, activation, probes=HESSIAN_PROBES)
    reports.append(make_report(
        "hessian_spectral", est.value, hessian_upper_bound(weights.width, c_alpha),
        REL_TOL_HESSIAN, applicable=applicable,
        context={"c_alpha": c_alpha, "converged": est.converged,
                 "iterations": est.iterations}))
    return reports


def _at_cap(layers: np.ndarray, radius: float, params: AssumptionParams) -> Weights:
    """``layers`` with every layer scaled to Frobenius norm radius c0 L^-1/2,
    at the delta_L = L^-1/2 that the draw certificates assume."""
    delta = params.L ** (-0.5)
    cap = params.c0 * delta
    layers *= (radius * cap / np.sqrt(layer_squares(layers)))[:, None, None]
    return Weights(layers, delta)


def certify_draws(data: Dataset, params: AssumptionParams, rng: np.random.Generator,
                  draws: int, activation: Activation) -> list[BoundReport]:
    """The draw certificates on ``draws`` random stacks with |A_k|_F = u c0 L^-1/2,
    u ~ U(0.1, 1), then the Hessian certificate on one more at u = 1/2; every
    stack has delta_L = L^-1/2, the premise of these certificates.

    Each draw is evaluated once, at a random unit input x: its forward trace,
    one gradient pass, the per-layer squares of its gradients and its weight
    norms, which all four certifiers read; its rows carry the context
    ``draw``. The sweep holds three arrays of the weights' size, allocated
    once, which every draw writes into: the layer stack, which takes the
    draw's normals, the trace block of the gradient pass and the (L+1, d, d)
    Jacobian stack. The gradient pass writes the draw's (L, d, d) gradients
    into the Jacobian stack, whose squares are taken before
    ``certify_forward`` fills it with the Jacobians. A draw allocates only
    arrays of a chunk's or a trace row's size besides, so the sweep holds a
    fixed number of weight-sized arrays however many draws it makes, and a
    draw maps no new pages. The trace block and the Jacobian stack are freed
    before the Hessian estimate allocates its own arrays; its stack takes its
    normals in the layer stack.
    """
    L, d = params.L, params.d
    layers = np.empty((L, d, d))
    jacobians = np.empty((L + 1, d, d))
    trace_block = np.empty(trace_block_size(L, data.n, d))

    def draw_reports(draw: int) -> list[BoundReport]:
        w = _at_cap(rng.standard_normal(out=layers), rng.uniform(0.1, 1.0), params)
        x = rng.standard_normal(d)
        x /= np.linalg.norm(x)
        trace = forward(x, w, activation)
        # the gradients fill the first L matrices of the Jacobian stack
        grads, _, value = grad_objective_with_stats(data, w, activation, trace=trace_block,
                                                    out=jacobians[:L])
        grad_sq = layer_squares(grads)
        norms = weight_norms(w)
        batch = [
            *certify_forward(trace, w, norms, params.c0, jacobians),
            *certify_loss_bound(w, value, norms, params.c0),
            *certify_gradient_upper(w, value, grad_sq, norms, params.c0),
            *certify_gradient_lower(data, w, value, grad_sq, norms, params),
        ]
        for r in batch:
            r.context["draw"] = draw
        return batch

    reports = [r for draw in range(draws) for r in draw_reports(draw)]
    del trace_block, jacobians
    hessian_weights = _at_cap(rng.standard_normal(out=layers), 0.5, params)
    reports.extend(certify_hessian(data, hessian_weights, params.c0, activation))
    return reports


def envelope_rate(params: AssumptionParams) -> float:
    return math.exp(-2.0 * params.c0) / (32.0 * params.N)


def envelope_drift(params: AssumptionParams) -> float:
    return 34.0 * params.d * params.c0 ** 4 * math.exp(6.4 * params.c0)


def depth_large_enough(params: AssumptionParams) -> list[BoundReport]:
    """The two explicit depth conditions under which the loss envelope holds."""
    c0, L = params.c0, params.L
    log_l = math.log(L)
    lhs1 = (3.0 / 64.0 / params.N / params.d * c0 ** 2 * math.exp(2.2 * c0)
            * log_l ** 1.5)
    lhs2 = 34.0 * c0 ** 4 * math.exp(6.4 * c0) * log_l
    return [
        make_report("hyp_depth_log32", lhs1, math.sqrt(L), REL_TOL_EXACT,
                    hypothesis=True, context={"L": L}),
        make_report("hyp_depth_log", lhs2, float(L), REL_TOL_EXACT,
                    hypothesis=True, context={"L": L}),
    ]


def certify_run_envelope(data: Dataset, w0: Weights, log: RunLog,
                         params: AssumptionParams, sched: Schedule, T: int,
                         activation: Activation) -> list[BoundReport]:
    """The loss-envelope theorem on one recorded run from ``w0`` on ``data``.

    Premises: the admissibility clauses (``check_assumptions``), the two
    learning-rate caps over T steps (``lr_feasibility``), the two depth
    conditions and a completed run. Conclusions, at each logged step t with
    cumulative rate S_t = sum_{s<t} eta(s):

        J(t) <= exp(-(1/32) N^-1 e^{-2c0} S_t) J_0
                + 34 d c0^4 e^{6.4c0} S_t L^-1 J_0,

    together with J(t) <= 2 J_0, max_k |A_k|_F <= c0 L^-1/2 and
    max_k |A_{k+1}-A_k|_F <= 2^{-7/2} N^-1/2 e^{-4.2c0} L^-1. Each
    conclusion reports its worst logged step and is applicable only when
    every premise row passes.

    S_t sums the logged rates when every step was logged (the run's own
    additions, in its order), and is the schedule's ``sum_rates(t)``
    otherwise.
    """
    reports = [
        *check_assumptions(data, w0, params, activation),
        *lr_feasibility(params, sched, T),
        *depth_large_enough(params),
        make_report("hyp_run_completed", 0.0 if log.failed else 1.0, 1.0,
                    REL_TOL_EXACT, direction="lower", hypothesis=True,
                    context={"L": params.L, "fail_reason": log.fail_reason or ""}),
    ]
    applicable = all(r.passed for r in reports)

    j0 = float(log.loss[0])
    ctx = {"J0": j0, "L": params.L}

    def worst(name, observed_series, bound_series):
        observed_series = np.asarray(observed_series, dtype=np.float64)
        bound_series = np.broadcast_to(np.asarray(bound_series, dtype=np.float64),
                                       observed_series.shape)
        i = int(np.argmin(bound_series - observed_series))
        return make_report(name, observed_series[i], bound_series[i], REL_TOL_EXACT,
                           applicable=applicable, context=dict(ctx, t=int(log.t[i])))

    # a huge rate overflows S_t and the envelope to inf, and J0 = 0 times an
    # infinite S_t is nan; the rows report these values as they are
    with np.errstate(over="ignore", invalid="ignore"):
        if np.array_equal(log.t, np.arange(len(log.t))):
            rate_sums = np.concatenate([[0.0], np.cumsum(log.eta[:-1])])
        else:
            rate_sums = np.asarray([sched.sum_rates(int(t)) for t in log.t])
        envelope = (np.exp(-envelope_rate(params) * rate_sums) * j0
                    + envelope_drift(params) * rate_sums / params.L * j0)
        reports.append(worst("envelope_loss", log.loss, envelope))
        reports.append(worst("induction_loss_doubling", log.loss, 2.0 * j0))
        reports.append(worst("induction_weight_scale", log.finf,
                             params.c0 * params.L ** (-0.5)))
        reports.append(worst("induction_neighbour_gap", log.neighbour_max,
                             neighbour_gap_cap(params)))
    return reports


def _encode(value):
    """Non-finite floats as the strings "nan", "inf" and "-inf" (strict JSON)."""
    if isinstance(value, float) and not math.isfinite(value):
        return repr(float(value))
    return value


def _decode(value):
    if isinstance(value, str) and value in ("nan", "inf", "-inf"):
        return float(value)
    return value


def report_to_dict(report: BoundReport) -> dict:
    return {
        "name": report.name,
        "observed": _encode(report.observed),
        "bound": _encode(report.bound),
        "slack": _encode(report.slack),
        "pass": bool(report.passed),
        "tol": _encode(report.tol),
        "direction": report.direction,
        "vacuous": bool(report.vacuous),
        "applicable": bool(report.applicable),
        "hypothesis": bool(report.hypothesis),
        "context": {k: _encode(bool(v) if isinstance(v, np.bool_) else v)
                    for k, v in report.context.items()},
    }


def write_reports_jsonl(reports: list[BoundReport], path) -> None:
    with open(path, "w") as fh:
        for report in reports:
            fh.write(json.dumps(report_to_dict(report), sort_keys=True,
                                allow_nan=False) + "\n")


def load_reports_jsonl(path) -> list[dict]:
    """Rows as written, with the non-finite strings read back as floats."""
    rows = []
    with open(path) as fh:
        for line in fh:
            if line.strip():
                row = json.loads(line)
                row.update({k: _decode(row[k])
                            for k in ("observed", "bound", "slack", "tol")})
                row["context"] = {k: _decode(v) for k, v in row["context"].items()}
                rows.append(row)
    return rows
