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
                     taylor_remainder_bound, upper_bounded_time)
from .errors import (BudgetError, CflError, ConfigError, DivergenceError,
                     HypothesisViolation)
from .estimator import (ResourceEstimate, query_counts, scaling_alpha_Ainv,
                        scaling_alpha_B, scaling_alpha_C, scaling_alpha_LN)
from .linearize import (LiftedState, LinearOperatorLN, MonomialBasis, apply_LN,
                        lift_initial, lift_point, monomial_basis)
from .norms import (conjugate_exponent, gamma_growth_bound, log_norm_2,
                    op_norm, row_q_norm, vector_p_norm)
from .oracle import (Trajectory, closed_form_1d, exact_lifted, final_state,
                     integrate, measure_eta, measure_eta_vector, propagate)
from .params import (ParamSet, end_to_end_error_budget, select_dissipative,
                     select_nondissipative)
from .problem import (FourierOde, ReadoutSpec, RescaledProblem, eval_readout,
                      expand_coeff_vector, monomial_count, monomial_index,
                      rescale)
from .taylor import (SolveResult, TaylorConfig, apply_Vk, forward_solve,
                     readout_value)
from .tensor import (TensorState, apply_B1, canonical_slot, dense_LN, dense_Vk,
                     expm_at, matrix_exp, propagate_dense, w_matrix)

__version__ = "0.1.0"
