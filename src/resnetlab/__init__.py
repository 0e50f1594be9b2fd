"""Numerical laboratory for fixed-width residual network training.

Trains h_k = h_{k-1} + delta * sigma(alpha_k h_{k-1}) networks by full-batch
gradient descent, certifies the inequalities governing the dynamics (hidden
states, Jacobians, gradients, Hessian, loss envelope) and reproduces the
depth-scaling diagnostics: scaling-exponent identification, convergence
rates, weight-norm evolution and the emergence of a rescaled weight limit.

The public names below are read from their modules on first use
(``resnetlab.train`` imports ``resnetlab.training``), so importing the
package, or one module of it, loads no module that is not asked for.
"""

import importlib

_EXPORTS = {
    "analysis": ("ScalingFit", "entry_scatter", "fit_power_law", "scaling_limit_distance",
                 "steps_to_epsilon", "total_scaling", "two_variation"),
    "autograd": ("Grad", "HessianEstimate", "finite_diff_grad", "grad_objective",
                 "grad_objective_with_stats", "hessian_spectral_estimate", "objective"),
    "bounds": ("BoundReport", "certify_forward", "certify_gradient_lower",
               "certify_gradient_upper", "certify_hessian", "certify_loss_bound",
               "certify_run_envelope", "check_activation", "check_assumptions",
               "lr_feasibility", "make_report", "meaningful_failures",
               "write_reports_jsonl"),
    "data": ("AssumptionParams", "Dataset", "init_certified", "init_gaussian",
             "initial_loss_cap", "initial_row_norm_cap", "load_dataset",
             "near_init_targets", "sample_sphere_dataset", "save_dataset",
             "separation_of", "separation_threshold"),
    "errors": ("InvalidInputError", "NumericalOverflowError"),
    "network": ("IDENTITY", "TANH", "Activation", "ForwardTrace", "NetworkConfig",
                "Weights", "activation_by_name", "forward", "forward_batch",
                "load_weights", "save_weights"),
    "training": ("RunLog", "Schedule", "layer_gaps", "load_runlog", "save_runlog",
                 "train", "weight_norms"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{module}", __name__), name)
