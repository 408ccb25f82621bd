"""Ground-truth solutions of the nonlinear ODE.

The reference integrator is an embedded adaptive Runge-Kutta 5(4) pair on
the complex vector field (scipy's RK45 with its 4th-order continuous
extension for dense output).  A global-error estimate comes from a
verification pass at a tolerance two orders tighter; when an oracle value
backs a bound check, its error budget is therefore far below the bound
under test.

For n = 1 there is a closed form: with w = e^{ix} the equation becomes the
Riccati-type dw/dt = i f0 w + i f1 w^2, and z = 1/w satisfies the linear
equation z' = -i f0 z - i f1, so

    z(t) = e^{-i f0 t} z0 + (f1/f0)(e^{-i f0 t} - 1),

with the f0 -> 0 limit handled by the series of (e^s - 1)/s.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import solve_ivp

from .errors import ConfigError, DivergenceError
from .linearize import LiftedState, LinearOperatorLN, lift_point
from .norms import vector_p_norm
from .problem import FourierOde, RescaledProblem


@dataclass
class Trajectory:
    """Sampled solution x(t) with a dense interpolant for off-grid queries."""

    times: np.ndarray
    states: np.ndarray  # shape (len(times), n)
    tol: float
    est_global_error: float
    _interpolant: object = field(repr=False, default=None)

    @property
    def horizon(self) -> float:
        return float(self.times[-1])

    def state_at(self, t: float) -> np.ndarray:
        """x(t) from the integrator's continuous extension."""
        if t < -1e-12 or t > self.horizon * (1 + 1e-12) + 1e-12:
            raise ConfigError(
                f"trajectory query at t={t} outside [0, {self.horizon}]"
            )
        t = min(max(t, 0.0), self.horizon)
        if self._interpolant is None:
            raise ConfigError("trajectory has no dense interpolant")
        return np.asarray(self._interpolant(t), dtype=complex).ravel()


def _coefficients(problem) -> tuple:
    if isinstance(problem, RescaledProblem):
        return problem.f0, problem.f1, problem.x0
    if isinstance(problem, FourierOde):
        return problem.g0, problem.g1, problem.u0
    raise ConfigError(f"integrate: unsupported problem type {type(problem)!r}")


def integrate(problem, horizon: float, tol: float = 1e-11,
              samples: int = 65) -> Trajectory:
    """Adaptive RK 5(4) reference solution of dx/dt = F0 + F1 e^{ix}."""
    if horizon < 0:
        raise ConfigError("integrate: horizon must be >= 0")
    if not 1e-13 <= tol <= 1e-3:
        raise ConfigError("integrate: tol must lie in [1e-13, 1e-3]")
    f0, f1, x0 = _coefficients(problem)
    x0 = np.asarray(x0, dtype=complex)

    def rhs(_t, x):
        return f0 + f1 @ np.exp(1j * x)

    if horizon == 0:
        times = np.array([0.0])
        states = x0[None, :].copy()
        return Trajectory(times, states, tol, 0.0, _interpolant=lambda _t: x0)

    t_eval = np.linspace(0.0, horizon, samples)
    sols = []
    # verification pass two orders tighter, floored at the solver's rtol cap
    for pass_tol in (tol, max(tol * 1e-2, 2.3e-14)):
        sol = solve_ivp(rhs, (0.0, horizon), x0, method="RK45",
                        rtol=pass_tol, atol=pass_tol,
                        dense_output=True, t_eval=t_eval)
        if not sol.success:
            reached = sol.t[-1] if sol.t.size else 0.0
            raise DivergenceError(
                f"integrate: step-size failure near t={reached:g} "
                f"({sol.message}); the solution likely blows up"
            )
        sols.append(sol)
    coarse, fine = sols
    err = float(np.max(np.abs(coarse.y - fine.y)))
    states = np.ascontiguousarray(fine.y.T)
    return Trajectory(times=t_eval, states=states, tol=tol,
                      est_global_error=err, _interpolant=fine.sol)


def _phi1(s: complex) -> complex:
    """(e^s - 1)/s with a series branch near 0."""
    if abs(s) < 1e-6:
        return 1.0 + s / 2.0 + s * s / 6.0 + s ** 3 / 24.0
    return (np.exp(s) - 1.0) / s


def closed_form_1d(f0: complex, f1: complex, x0: complex, t: float) -> complex:
    """Value of w(t) = e^{ix(t)} for the scalar problem."""
    w0 = np.exp(1j * complex(x0))
    if w0 == 0:
        raise ConfigError("closed_form_1d: e^{ix0} underflowed to zero")
    z0 = 1.0 / w0
    s = -1j * complex(f0) * t
    z = np.exp(s) * z0 + (-1j * complex(f1) * t) * _phi1(s)
    if abs(z) < 1e-300:
        raise DivergenceError(f"closed_form_1d: pole reached at t={t:g}")
    return complex(1.0 / z)


def exact_lifted(traj: Trajectory, order: int, t: float) -> LiftedState:
    """Lifted state Psi_j(t) = (e^{i x(t)})^{tensor j} from the trajectory."""
    x = traj.state_at(t)
    return lift_point(np.exp(1j * x), order)


def _truncated_state_at(truncated, t: float):
    """Accept either a LiftedState at time t or a SolveResult whose step
    grid contains t (the latter folds Taylor-stepping error into eta)."""
    if isinstance(truncated, LiftedState):
        return truncated
    config = getattr(truncated, "config", None)
    if config is not None:
        step = int(round(t / config.h))
        if abs(step * config.h - t) > 1e-9 * max(1.0, abs(t)):
            raise ConfigError(
                f"measure_eta: t={t} is not on the step grid (h={config.h})"
            )
        return truncated.state_at_step(step)
    raise ConfigError(
        f"measure_eta: unsupported truncated-solution type {type(truncated)!r}"
    )


def measure_eta(traj: Trajectory, truncated, k: int, t: float,
                p: float = 2) -> float:
    """||Psi_k(t) - Psi_k^(N)(t)||_p: truncation error of block k.

    `truncated` is the lifted state of the *truncated linear* system at time
    t.  Pass a LiftedState obtained from the dense exponential of the
    truncated generator (see propagate) to isolate the lifting
    truncation error from time-stepping error; a SolveResult folds Taylor
    error in as well (t must then sit on the step grid).
    """
    state = _truncated_state_at(truncated, t)
    if not 1 <= k <= state.order:
        raise ConfigError(f"measure_eta: block {k} outside 1..{state.order}")
    exact = exact_lifted(traj, k, t)
    diff = exact.blocks[k - 1] - state.blocks[k - 1]
    return vector_p_norm(diff, p)


def measure_eta_vector(traj: Trajectory, truncated, t: float,
                       p: float = 2) -> float:
    """p-norm of the concatenated truncation error over all N blocks."""
    state = _truncated_state_at(truncated, t)
    exact = exact_lifted(traj, state.order, t)
    return vector_p_norm(exact.vector - state.vector, p)


def propagate_dense(dense_l: np.ndarray, psi0: LiftedState, t: float) -> LiftedState:
    """exp(L t) psi0 through the dense exponential of the tensor matrix
    dense_l (time-split to respect the matrix_exp accuracy cap); the
    reference that propagate is checked against."""
    from .norms import expm_at

    return LiftedState(psi0.n, psi0.order, expm_at(dense_l, t) @ psi0.vector)


def propagate(op: LinearOperatorLN, psi0: LiftedState, t: float) -> LiftedState:
    """exp(L t) psi0 on monomial coordinates: the dense exponential of the
    sparse monomial generator (sum_j C(n+j-1, j) rows instead of the
    sum_j n^j of dense_LN), applied to the monomials of the symmetric psi0
    and expanded back to a tensor state."""
    from .norms import expm_at

    return op.expand(expm_at(op.generator.toarray(), t) @ op.monomials(psi0))
