"""Carleman-Fourier (Koopman) linearization laboratory.

Pipeline: rescale the Fourier-nonlinear ODE, lift it to a block
bidiagonal linear ODE on tensor powers of e^{ix}, held in monomial
coordinates (each tensor power is symmetric), step it with a truncated
Taylor propagator, read the Fourier observable off the final state, and
check every step against an adaptive Runge-Kutta oracle and the analytic
error bounds.
"""

from .bounds import (BoundReport, DissipativityReport, check_dissipative,
                     eta_bound_dissipative, eta_bound_finite_time,
                     stability_certificate, t_max_nondissipative,
                     taylor_remainder_bound, taylor_truncation_bound,
                     upper_bounded_time)
from .errors import (BudgetError, CflError, ConfigError, DivergenceError,
                     HypothesisViolation)
from .estimator import (ResourceEstimate, query_counts, scaling_alpha_Ainv,
                        scaling_alpha_B, scaling_alpha_C, scaling_alpha_LN)
from .linearize import (LiftedState, LinearOperatorLN, TensorState, apply_B1,
                        apply_LN, dense_LN, lift_initial, lift_point)
from .norms import (GrowthEnvelope, conjugate_exponent, gamma_growth_bound,
                    growth_envelope, log_norm_2, matrix_exp, expm_at, op_norm,
                    row_q_norm, vector_p_norm)
from .oracle import (Trajectory, closed_form_1d, exact_lifted, integrate,
                     measure_eta, measure_eta_vector, propagate,
                     propagate_dense)
from .params import (ErrorBudget, ParamSet, end_to_end_error_budget,
                     select_dissipative, select_nondissipative)
from .problem import (FourierOde, ReadoutSpec, RescaledProblem,
                      canonical_slot, eval_readout, expand_coeff_vector,
                      monomial_count, monomial_index, rescale)
from .taylor import (SolveResult, TaylorConfig, apply_Vk, dense_Vk,
                     forward_solve, readout_value, w_matrix, w_matrix_norm)

__version__ = "0.1.0"
