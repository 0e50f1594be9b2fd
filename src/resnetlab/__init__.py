"""Numerical laboratory for fixed-width residual network training.

Trains h_k = h_{k-1} + delta * sigma(alpha_k h_{k-1}) networks by full-batch
gradient descent, certifies the inequalities governing the dynamics (hidden
states, Jacobians, gradients, Hessian, loss envelope) and reproduces the
depth-scaling diagnostics: scaling-exponent identification, convergence
rates, weight-norm evolution and the emergence of a rescaled weight limit.
"""

from .analysis import (ScalingFit, TotalScaling, entry_scatter, fit_power_law,
                       scaling_limit_distance, steps_to_epsilon, total_scaling,
                       two_variation)
from .autograd import (Grad, HessianEstimate, finite_diff_grad, grad_objective,
                       grad_objective_with_stats, hessian_spectral_estimate,
                       objective)
from .bounds import (BoundReport, certify_forward, certify_gradient_lower,
                     certify_gradient_upper, certify_hessian,
                     certify_loss_bound, certify_run_envelope,
                     check_activation, check_assumptions, lr_feasibility,
                     make_report, meaningful_failures, write_reports_jsonl)
from .data import (AssumptionParams, Dataset, init_certified, init_gaussian,
                   initial_loss_cap, initial_row_norm_cap, load_dataset,
                   near_init_targets, sample_sphere_dataset, save_dataset,
                   separation_of, separation_threshold)
from .errors import InvalidInputError, NumericalOverflowError
from .network import (IDENTITY, TANH, Activation, ForwardTrace, NetworkConfig,
                      Weights, activation_by_name, forward, forward_batch,
                      load_weights, save_weights)
from .training import (RunLog, Schedule, layer_gaps, load_runlog, save_runlog,
                       train, weight_norms)

__version__ = "0.1.0"
