"""Empirical certification of the dynamics inequalities.

Every certifier computes both sides of a proved inequality on a concrete
instance and reports the slack. Hypothesis checks are themselves reports, so
an inapplicable bound (precondition violated) stays distinguishable from a
failed one, and lower bounds with a nonpositive coefficient are flagged
vacuous rather than counted as meaningful passes.

The certifiers of one weight draw take the draw's evaluation from the
caller, so a draw costs one gradient pass however many bounds read it:
``value`` is the objective and ``grads`` the (L, d, d) layer gradients, both
from one ``grad_objective_with_stats`` pass, and ``norms`` is
``weight_norms(weights)``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .autograd import hessian_spectral_estimate
from .data import AssumptionParams, Dataset, separation_threshold
from .errors import InvalidInputError
from .network import TANH, Activation, ForwardTrace, Weights, jacobian_stack
from .training import RunLog, Schedule, WeightNorms, weight_norms

REL_TOL_EXACT = 1e-9
REL_TOL_HESSIAN = 1e-3


@dataclass(frozen=True)
class BoundReport:
    """Observed quantity against its theoretical bound.

    ``direction`` is "upper" when the claim is observed <= bound and "lower"
    for observed >= bound; ``slack`` is always bound-minus-observed oriented
    so that nonnegative slack means the inequality holds. ``vacuous`` marks
    lower bounds whose coefficient is nonpositive at this problem size, and
    ``applicable`` is False when a hypothesis of the statement failed.
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
    tol = rel_tol * max(abs(observed), abs(bound), 1e-300)
    return BoundReport(name, observed, bound, slack, slack >= -tol, tol,
                       direction, vacuous, applicable, hypothesis,
                       dict(context or {}))


def meaningful_failures(reports: list[BoundReport]) -> list[BoundReport]:
    """Failed certifications: applicable, non-vacuous, non-hypothesis rows.

    A failed hypothesis row only marks the statement inapplicable; it is not
    a counterexample to anything.
    """
    return [r for r in reports
            if r.applicable and not r.vacuous and not r.hypothesis and not r.passed]


def _hypothesis_forward(weights: Weights, norms: WeightNorms, c_alpha: float,
                        rel_tol: float) -> list[BoundReport]:
    L = weights.depth
    return [
        make_report("hyp_depth_vs_c", L, 5.0 * c_alpha, rel_tol, direction="lower",
                    hypothesis=True, context={"c_alpha": c_alpha, "L": L}),
        make_report("hyp_weight_scale", norms.finf, c_alpha * L ** (-0.5), rel_tol,
                    hypothesis=True, context={"c_alpha": c_alpha, "L": L}),
    ]


def certify_forward(trace: ForwardTrace, x, weights: Weights, norms: WeightNorms,
                    c_alpha: float, rel_tol: float = REL_TOL_EXACT) -> list[BoundReport]:
    """Hidden-state sandwich and Jacobian column bounds along one trace:

        |x| e^{-2c} <= |h_k| <= |x| e^{1.1c}   and   |M_k e_m| <= e^c.
    """
    reports = _hypothesis_forward(weights, norms, c_alpha, rel_tol)
    applicable = all(r.passed for r in reports)
    L = weights.depth
    x_norm = float(np.linalg.norm(np.asarray(x, dtype=np.float64)))
    h_norms = np.linalg.norm(trace.hidden[1:], axis=1)
    k_lo = int(np.argmin(h_norms))
    k_hi = int(np.argmax(h_norms))
    ctx = {"c_alpha": c_alpha, "L": L}
    reports.append(make_report(
        "forward_hidden_lower", h_norms[k_lo], x_norm * math.exp(-2.0 * c_alpha),
        rel_tol, direction="lower", applicable=applicable,
        context=dict(ctx, k=k_lo + 1)))
    reports.append(make_report(
        "forward_hidden_upper", h_norms[k_hi], x_norm * math.exp(1.1 * c_alpha),
        rel_tol, applicable=applicable, context=dict(ctx, k=k_hi + 1)))

    jac = trace.jacobians
    if jac is None:
        jac = jacobian_stack(weights, trace.sigma_prime)
    col_norms = np.linalg.norm(jac, axis=1)  # (L+1, d): column norms per k
    k_worst, m_worst = np.unravel_index(np.argmax(col_norms), col_norms.shape)
    reports.append(make_report(
        "forward_jacobian_columns", col_norms[k_worst, m_worst],
        math.exp(c_alpha), rel_tol, applicable=applicable,
        context=dict(ctx, k=int(k_worst), m=int(m_worst))))
    return reports


def loss_upper_bound(c_alpha: float) -> float:
    """Depth-free objective bound 1 + e^{2.2 c} for unit targets."""
    return 1.0 + math.exp(2.2 * c_alpha)


def certify_loss_bound(weights: Weights, value: float, norms: WeightNorms,
                       c_alpha: float,
                       rel_tol: float = REL_TOL_EXACT) -> list[BoundReport]:
    """Objective ``value`` at ``weights`` against 1 + e^{2.2c}."""
    reports = _hypothesis_forward(weights, norms, c_alpha, rel_tol)
    applicable = all(r.passed for r in reports)
    reports.append(make_report("loss_upper", value, loss_upper_bound(c_alpha),
                               rel_tol, applicable=applicable,
                               context={"c_alpha": c_alpha}))
    return reports


def gradient_upper_coefficient(d: int, L: int, c_alpha: float) -> float:
    return 2.0 * d * math.exp(4.2 * c_alpha) / L


def certify_gradient_upper(weights: Weights, value: float, grads: np.ndarray,
                           norms: WeightNorms, c_alpha: float,
                           rel_tol: float = REL_TOL_EXACT) -> list[BoundReport]:
    """Per-layer gradient bound |grad_k J|_F^2 <= 2 d e^{4.2c} L^-1 J."""
    reports = _hypothesis_forward(weights, norms, c_alpha, rel_tol)
    applicable = all(r.passed for r in reports)
    per_layer_sq = np.sum(grads ** 2, axis=(1, 2))
    k_worst = int(np.argmax(per_layer_sq))
    bound = gradient_upper_coefficient(weights.width, weights.depth, c_alpha) * value
    reports.append(make_report(
        "gradient_upper", per_layer_sq[k_worst], bound, rel_tol,
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
                           params: AssumptionParams,
                           rel_tol: float = REL_TOL_EXACT) -> list[BoundReport]:
    """Suboptimality lower bounds on the gradient norm.

    First layer: |grad_1 J|_F^2 >= (4N)^-1 e^{-2c0} L^-1 J under the weight
    scale, depth and data-separation hypotheses. Full vector: adds the
    neighbouring-layer gap hypothesis; its coefficient can be nonpositive at
    small depth, in which case the report is marked vacuous.
    """
    c0, L = params.c0, weights.depth
    norms_x = np.linalg.norm(data.xs, axis=1)
    norms_y = np.linalg.norm(data.ys, axis=1)
    unit_dev = float(max(np.max(np.abs(norms_x - 1.0)), np.max(np.abs(norms_y - 1.0))))

    reports = [
        make_report("hyp_depth_vs_c", L, max(5.0 * c0, 4.0 * c0 ** 2), rel_tol,
                    direction="lower", hypothesis=True, context={"c0": c0}),
        make_report("hyp_weight_scale", norms.finf, c0 * L ** (-0.5), rel_tol,
                    hypothesis=True),
        make_report("hyp_unit_data", unit_dev, 1e-12, 1.0, hypothesis=True),
        make_report("hyp_separation", data.separation,
                    separation_threshold(params.N, c0), rel_tol, hypothesis=True),
    ]
    base_ok = all(r.passed for r in reports)

    per_layer_sq = np.sum(grads ** 2, axis=(1, 2))

    reports.append(make_report(
        "gradient_lower_first_layer", per_layer_sq[0],
        first_layer_lower_coefficient(params) * value, rel_tol,
        direction="lower", applicable=base_ok,
        context={"c0": c0, "objective": value}))

    gap_report = make_report("hyp_neighbour_gap", norms.neighbour_max,
                             neighbour_gap_cap(params), rel_tol, hypothesis=True)
    reports.append(gap_report)
    coeff = full_lower_coefficient(params)
    reports.append(make_report(
        "gradient_lower_full", float(np.sum(per_layer_sq)), coeff * value,
        rel_tol, direction="lower", vacuous=coeff <= 0.0,
        applicable=base_ok and gap_report.passed,
        context={"c0": c0, "objective": value, "coefficient": coeff,
                 "vacuous_below_depth": vacuous_depth_threshold(params)}))
    return reports


def hessian_upper_bound(d: int, c_alpha: float) -> float:
    return 5.0 * d * math.exp(4.3 * c_alpha)


def certify_hessian(data: Dataset, weights: Weights, c_alpha: float,
                    activation: Activation = TANH,
                    probes: int = 40,
                    rel_tol: float = REL_TOL_HESSIAN) -> list[BoundReport]:
    """Spectral norm of the layer-weight Hessian against 5 d e^{4.3c}."""
    reports = _hypothesis_forward(weights, weight_norms(weights), c_alpha, rel_tol)
    applicable = all(r.passed for r in reports)
    est = hessian_spectral_estimate(data, weights, activation, probes=probes)
    reports.append(make_report(
        "hessian_spectral", est.value, hessian_upper_bound(weights.width, c_alpha),
        rel_tol, applicable=applicable,
        context={"c_alpha": c_alpha, "converged": est.converged,
                 "iterations": est.iterations}))
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
                    hypothesis=True),
        make_report("hyp_depth_log", lhs2, float(L), REL_TOL_EXACT,
                    hypothesis=True),
    ]


def certify_run_envelope(log: RunLog, params: AssumptionParams,
                         sched: Schedule | None = None,
                         rel_tol: float = REL_TOL_EXACT) -> list[BoundReport]:
    """Loss envelope and induction invariants along a recorded run.

    At each logged step t with cumulative rate S_t:

        J(t) <= exp(-(1/32) N^-1 e^{-2c0} S_t) J_0
                + 34 d c0^4 e^{6.4c0} S_t L^-1 J_0,

    together with J(t) <= 2 J_0, max_k |A_k|_F <= c0 L^-1/2 and
    max_k |A_{k+1}-A_k|_F <= 2^{-7/2} N^-1/2 e^{-4.2c0} L^-1.
    """
    if log.eta_sum is not None:
        eta_sum = np.asarray(log.eta_sum, dtype=np.float64)
    elif sched is not None:
        eta_sum = np.asarray([sched.sum_rates(int(t)) for t in log.t])
    else:
        raise InvalidInputError("run log lacks cumulative rates; pass the schedule")

    reports = depth_large_enough(params)
    reports.append(make_report(
        "hyp_run_completed", 0.0 if log.failed else 1.0, 1.0, rel_tol,
        direction="lower", hypothesis=True,
        context={"fail_reason": log.fail_reason or ""}))
    applicable = all(r.passed for r in reports)

    j0 = float(log.loss[0])
    envelope = (np.exp(-envelope_rate(params) * eta_sum) * j0
                + envelope_drift(params) * eta_sum / params.L * j0)

    def worst(name, observed_series, bound_series, direction="upper", context=None):
        observed_series = np.asarray(observed_series, dtype=np.float64)
        bound_series = np.broadcast_to(np.asarray(bound_series, dtype=np.float64),
                                       observed_series.shape)
        margins = (bound_series - observed_series if direction == "upper"
                   else observed_series - bound_series)
        i = int(np.argmin(margins))
        return make_report(name, observed_series[i], bound_series[i], rel_tol,
                           direction=direction, applicable=applicable,
                           context=dict(context or {}, t=int(log.t[i])))

    ctx = {"J0": j0, "L": params.L}
    reports.append(worst("envelope_loss", log.loss, envelope, context=ctx))
    reports.append(worst("induction_loss_doubling", log.loss, 2.0 * j0, context=ctx))
    reports.append(worst("induction_weight_scale", log.finf,
                         params.c0 * params.L ** (-0.5), context=ctx))
    reports.append(worst("induction_neighbour_gap", log.neighbour_max,
                         neighbour_gap_cap(params), context=ctx))
    return reports


def neighbour_gradient_residual(trace: ForwardTrace, weights: Weights, k: int,
                                activation: Activation = TANH) -> np.ndarray:
    """Second-order residual xi in the neighbouring-gradient decomposition.

    For layers k and k+1 (1-based k <= L-1), the per-sample gradient gap is

        dl/da_{k,mn} - dl/da_{k+1,mn}
            = delta h_{k-1,n} (s'_{k,m} - s'_{k+1,m}) <G_{k+1}, e_m>
              + delta^2 <G_{k+1}, xi_{mn}>,

    with xi_{mn} = h_{k-1,n} s'_{k,m} (s'_{k+1} * col_m(alpha_{k+1}))
                   - sigma(a_k)_n s'_{k+1,m} e_m. Returned as (m, n, :) array.
    """
    if not 1 <= k <= weights.depth - 1:
        raise InvalidInputError("k must lie in 1..L-1")
    d = weights.width
    h_prev = trace.hidden[k - 1]
    sdot_k = trace.sigma_prime[k - 1]
    sdot_k1 = trace.sigma_prime[k]
    sval_k = activation.value(trace.preact[k - 1])
    scaled_cols = sdot_k1[:, None] * weights.layers[k]  # column m is s'_{k+1} * col_m
    term1 = np.einsum("m,n,im->mni", sdot_k, h_prev, scaled_cols)
    term2 = np.einsum("n,m,im->mni", sval_k, sdot_k1, np.eye(d))
    return term1 - term2


def neighbour_residual_paper_bound(trace: ForwardTrace, weights: Weights,
                                   k: int) -> np.ndarray:
    """Entrywise residual cap 2 h_{k-1,n}^2 |a_{k+1}-a_k|_F^2
    + 2 |row_n(a_k)|^4 |h_{k-1}|^4, as an (m, n) array."""
    h_prev = trace.hidden[k - 1]
    gap_sq = float(np.sum((weights.layers[k] - weights.layers[k - 1]) ** 2))
    row_norms_sq = np.sum(weights.layers[k - 1] ** 2, axis=1)
    h_sq = float(h_prev @ h_prev)
    per_n = 2.0 * h_prev ** 2 * gap_sq + 2.0 * row_norms_sq ** 2 * h_sq ** 2
    return np.broadcast_to(per_n, (weights.width, weights.width)).copy()


def report_to_dict(report: BoundReport) -> dict:
    return {
        "name": report.name,
        "observed": report.observed,
        "bound": report.bound,
        "slack": report.slack,
        "pass": bool(report.passed),
        "tol": report.tol,
        "direction": report.direction,
        "vacuous": bool(report.vacuous),
        "applicable": bool(report.applicable),
        "hypothesis": bool(report.hypothesis),
        "context": {k: (bool(v) if isinstance(v, np.bool_) else v)
                    for k, v in report.context.items()},
    }


def write_reports_jsonl(reports: list[BoundReport], path) -> None:
    with open(path, "w") as fh:
        for report in reports:
            fh.write(json.dumps(report_to_dict(report), sort_keys=True) + "\n")


def load_reports_jsonl(path) -> list[dict]:
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]
