"""Ground-truth solutions of the nonlinear ODE.

The reference integrator is the embedded adaptive Runge-Kutta 5(4) pair of
Dormand and Prince on the complex vector field, with Shampine's 4th-order
continuous extension for dense output.  It is implemented here, step for
step as scipy.integrate's RK45 (the same tableau, starting step, step
control and interpolant, in the same floating-point order), so its results
are bitwise equal to solve_ivp(..., method="RK45"); the tests gate that
against the installed scipy.  Bit for bit scipy's are: the starting step,
the stages of every step tried, which steps are accepted and rejected and
the next step size, the states at the sample times (each from the
interpolant of the step that reaches it, evaluated on all of that step's
samples at once, as solve_ivp does) and the dense output at any t.  The
loop makes few numpy calls without changing one rounding: the tableau is
stored complex (np.dot would cast it exactly on every call), stage sums are
formed in place, each stage's derivative is written into its row of the
stage array, step control runs on Python floats (the same doubles as
scipy's numpy scalars), the RMS norm is np.linalg.norm's pair of real dot
products, and the interpolant's powers are the products of scipy's
cumprod.  Every complex multiply keeps scipy's operand order: under FMA,
a*b and b*a can differ in the last bit.  Keeping the integrator in the
package keeps scipy.integrate, and the optimizer and quadrature code it
loads, off the import path.

integrate runs two passes: a coarse one at tol and a fine one two orders
tighter, each sampled on an even grid.  Its global-error estimate is the
largest gap between the two passes' samples.  It is a loose upper estimate
of the coarse pass's error, not the error of the fine pass whose trajectory
is returned; when an oracle value backs a bound check, its error budget is
therefore far below the bound under test.  final_state runs the fine pass
alone on no sample grid and returns its x(T), bit for bit the state that
integrate's trajectory reads at T.  Who pays for which pass: `cfl solve`
calls integrate through Study.oracle_error, since its manifest writes the
estimate, and `cfl oracle` calls it for the samples it writes;
study.run_pipeline (given no state) and Study.u_final (once for all rows
of `cfl sweep`) read only x(T) and call final_state, at about half of
integrate's cost.

For n = 1 there is a closed form: with w = e^{ix} the equation becomes the
Riccati-type dw/dt = i f0 w + i f1 w^2, and z = 1/w satisfies the linear
equation z' = -i f0 z - i f1, so

    z(t) = e^{-i f0 t} z0 + (f1/f0)(e^{-i f0 t} - 1),

with the f0 -> 0 limit handled by the series of (e^s - 1)/s.

The truncated linear system has its own exact solution, exp(L t) psi0:
propagate evaluates it as Taylor steps on the monomial generator (checked
against tensor.propagate_dense, a dense exponential in the tensor layout);
its gap to the lifted oracle trajectory is the lifting (Koopman) error,
which measure_eta and measure_eta_vector measure.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field

import numpy as np

from .errors import BudgetError, ConfigError, DivergenceError
from .linearize import (DEFAULT_STATE_BUDGET, LiftedState, LinearOperatorLN,
                        lift_point, monomial_basis)
from .norms import vector_p_norm
from .problem import FourierOde, RescaledProblem
from .taylor import TaylorConfig, forward_solve, propagator_fits, solve_cost
from .tensor import TensorState, expand


@dataclass
class Trajectory:
    """Sampled solution x(t) with a dense interpolant for off-grid queries."""

    times: np.ndarray
    states: np.ndarray  # shape (len(times), n)
    est_global_error: float
    _interpolant: object = field(repr=False)

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
        return np.asarray(self._interpolant(t), dtype=complex).ravel()


# Dormand-Prince 5(4) tableau with Shampine's dense-output matrix P, as in
# scipy.integrate's RK45 (Dormand & Prince, J. Comput. Appl. Math. 6, 1980;
# Shampine, Math. Comp. 46, 1986).  A, B, E and P are stored complex: np.dot
# casts a real operand to the stages' dtype on every call, and the cast is
# exact, so the products are those of the real tableau.  Row s of A holds
# the weights of the stages K[:s].
_C = (0, 1/5, 3/10, 4/5, 8/9, 1)
_A = [row[:s] for s, row in enumerate(np.array([
    [0, 0, 0, 0, 0],
    [1/5, 0, 0, 0, 0],
    [3/40, 9/40, 0, 0, 0],
    [44/45, -56/15, 32/9, 0, 0],
    [19372/6561, -25360/2187, 64448/6561, -212/729, 0],
    [9017/3168, -355/33, 46732/5247, 49/176, -5103/18656]
], dtype=complex))]
_B = np.array([35/384, 0, 500/1113, 125/192, -2187/6784, 11/84], dtype=complex)
_E = np.array([-71/57600, 0, 71/16695, -71/1920, 17253/339200, -22/525,
               1/40], dtype=complex)
_P = np.array([
    [1, -8048581381/2820520608, 8663915743/2820520608,
     -12715105075/11282082432],
    [0, 0, 0, 0],
    [0, 131558114200/32700410799, -68118460800/10900136933,
     87487479700/32700410799],
    [0, -1754552775/470086768, 14199869525/1410260304,
     -10690763975/1880347072],
    [0, 127303824393/49829197408, -318862633887/49829197408,
     701980252875 / 199316789632],
    [0, -282668133/205662961, 2019193451/616988883, -1453857185/822651844],
    [0, 40617522/29380423, -110615467/29380423, 69997945/29380423]],
    dtype=complex)
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10
_ERROR_EXPONENT = -1 / 5  # -1 / (error order 4 + 1)


def _rms(x: np.ndarray) -> float:
    """np.linalg.norm(x) / sqrt(x.size) for a complex vector x, computed as
    np.linalg.norm computes it: the dot products of the strided real and
    imaginary views."""
    re, im = x.real, x.imag
    return math.sqrt(re.dot(re) + im.dot(im)) / x.size ** 0.5


def _initial_step(fun, y0, f0, t_bound, rtol, atol):
    """Starting step for error order 4 (Hairer, Norsett & Wanner, Solving
    ODEs I, Sec. II.4)."""
    scale = atol + np.abs(y0) * rtol
    d0 = _rms(y0 / scale)
    d1 = _rms(f0 / scale)
    if d0 < 1e-5 or d1 < 1e-5:
        h0 = 1e-6
    else:
        h0 = 0.01 * d0 / d1
    h0 = min(h0, t_bound)
    if h0 == 0:  # d1 is infinite, so scipy's formulas below give 0 as well
        return 0.0
    f1 = fun(h0, y0 + h0 * f0)
    d2 = _rms((f1 - f0) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 5)
    return min(100 * h0, h1, t_bound)


def _interpolate(step: tuple, times: np.ndarray) -> np.ndarray:
    """The quartic interpolant of one accepted step at the points `times`
    (1-D), shape (n, len(times)).  The powers x, x^2, x^3, x^4 of x = (t -
    t_old) / h are the products of scipy's cumprod, in its order."""
    t_old, h, y_old, q = step
    powers = np.empty((4, times.size))
    x = powers[0]
    np.subtract(times, t_old, out=x)
    x /= h
    for j in range(1, 4):
        np.multiply(powers[j - 1], x, out=powers[j])
    y = q.dot(powers)
    np.multiply(h, y, out=y)
    y += y_old[:, None]
    return y


class _DenseOutput:
    """Continuous extension of the accepted steps: the quartic interpolant
    of the step that holds t (at a step boundary, the earlier step)."""

    def __init__(self, ts: list, steps: list):
        self.ts = ts  # the step ends, t = 0 first
        self.steps = steps  # (t_old, h, y_old, Q) per accepted step

    def __call__(self, t: float) -> np.ndarray:
        i = bisect_left(self.ts, t)
        step = self.steps[min(max(i - 1, 0), len(self.steps) - 1)]
        return _interpolate(step, np.array([t]))[:, 0]


# a trial step that is too long may overflow to inf or NaN, as a Taylor step
# may in forward_solve: the step control rejects it, or a step-size failure
# raises DivergenceError, so neither prints a warning
@np.errstate(over="ignore", invalid="ignore")
def _dopri45(fun, t_bound: float, y0: np.ndarray, tol: float,
             t_eval: np.ndarray) -> tuple:
    """Adaptive RK 5(4) from t = 0 to t_bound > 0 with rtol = atol = tol,
    for the field fun(t, y, out), which writes dy/dt into `out` (a fresh
    array when out is None) and returns it; each stage lands in its row of
    the stage array.  Returns the states at the increasing points t_eval,
    shape (len(t_eval), n), and the dense output over [0, t_bound]; both
    are scipy's RK45 bit for bit (see the module docstring).

    One deliberate difference from scipy: a NaN step size (the field is
    NaN at the start) is a step-size failure, where scipy never stops."""
    rtol = atol = tol
    t, y = 0.0, y0
    K = np.empty((7, y.size), dtype=complex)
    # K[0] holds the derivative at the start of the step being taken
    h_abs = _initial_step(fun, y, fun(t, y, K[0]), t_bound, rtol, atol)
    # stage s combines the rows K[:s]: its view is K[:s].T
    KT = [K[:s].T for s in range(8)]
    abs_y = np.abs(y)
    sample_times = memoryview(t_eval)  # bisect reads it as Python floats
    # NaN until a step's interpolant fills it: a sample no step reaches shows
    samples = np.full((t_eval.size, y.size), np.nan, dtype=complex)
    ts, steps, next_eval = [t], [], 0
    while t < t_bound:
        min_step = 10 * abs(math.nextafter(t, math.inf) - t)
        if h_abs < min_step:
            h_abs = min_step
        rejected = False
        while True:
            if not h_abs >= min_step:  # also true for a NaN step
                raise DivergenceError(
                    f"integrate: step-size failure near t={t:g} (Required "
                    "step size is less than spacing between numbers.); the "
                    "solution likely blows up",
                    layer="oracle.integrate",
                )
            t_new = min(t + h_abs, t_bound)
            h = t_new - t
            h_abs = abs(h)
            for s in range(1, 6):
                dy = KT[s].dot(_A[s])
                dy *= h
                dy += y
                fun(t + _C[s] * h, dy, K[s])
            y_new = KT[6].dot(_B)
            np.multiply(h, y_new, out=y_new)
            y_new += y
            fun(t + h, y_new, K[6])
            abs_new = np.abs(y_new)
            scale = np.maximum(abs_y, abs_new)
            scale *= rtol
            scale += atol
            err = KT[7].dot(_E)
            err *= h
            err /= scale
            error_norm = _rms(err)
            if error_norm < 1:
                if error_norm == 0:
                    factor = _MAX_FACTOR
                else:
                    factor = min(_MAX_FACTOR,
                                 _SAFETY * error_norm ** _ERROR_EXPONENT)
                if rejected:
                    factor = min(1, factor)
                h_abs *= factor
                break
            h_abs *= max(_MIN_FACTOR, _SAFETY * error_norm ** _ERROR_EXPONENT)
            rejected = True
        step = (t, h, y, KT[7].dot(_P))
        t, y, abs_y = t_new, y_new, abs_new
        K[0] = K[6]  # first same as last: the next step starts from it
        ts.append(t)
        steps.append(step)
        # the points of t_eval up to and including t, from this step's
        # interpolant evaluated on all of them at once
        stop = bisect_right(sample_times, t, next_eval)
        if stop > next_eval:
            samples[next_eval:stop] = _interpolate(
                step, t_eval[next_eval:stop]).T
            next_eval = stop
    return samples, _DenseOutput(ts, steps)


def _coefficients(problem) -> tuple:
    if isinstance(problem, RescaledProblem):
        return problem.f0, problem.f1, problem.x0
    if isinstance(problem, FourierOde):
        return problem.g0, problem.g1, problem.u0
    raise ConfigError(f"integrate: unsupported problem type {type(problem)!r}")


def _field(problem, horizon: float, tol: float) -> tuple:
    """The checked initial state x0 of `problem` and its right-hand side
    rhs(t, x, out=None), which writes dx/dt into `out` (a fresh array when
    None); horizon and tol are checked as integrate documents them."""
    if horizon < 0:
        raise ConfigError("integrate: horizon must be >= 0")
    if not 1e-13 <= tol <= 1e-3:
        raise ConfigError("integrate: tol must lie in [1e-13, 1e-3]")
    f0, f1, x0 = _coefficients(problem)

    def rhs(_t, x, out=None):
        # ndarray.dot is the gemv of f1 @ w at about half the call cost
        out = f1.dot(np.exp(1j * x), out=out)
        out += f0
        return out

    return np.asarray(x0, dtype=complex), rhs


def _fine_tol(tol: float) -> float:
    """The fine pass's tolerance: two orders tighter than the coarse pass,
    floored at the solver's rtol cap."""
    return max(tol * 1e-2, 2.3e-14)


def integrate(problem, horizon: float, tol: float = 1e-11,
              samples: int = 65) -> Trajectory:
    """Adaptive RK 5(4) reference solution of dx/dt = F0 + F1 e^{ix},
    sampled at `samples` evenly spaced times over [0, horizon], from both
    passes: the coarse one at tol and the fine one at _fine_tol(tol), whose
    samples and interpolant the trajectory holds.  horizon must be >= 0 and
    tol lie in [1e-13, 1e-3].  A sample grid of more than
    DEFAULT_STATE_BUDGET entries is refused with BudgetError before
    anything is allocated."""
    x0, rhs = _field(problem, horizon, tol)
    if samples < 2:
        raise ConfigError(f"integrate: samples must be >= 2, got {samples}")
    if samples * x0.size > DEFAULT_STATE_BUDGET:
        raise BudgetError(
            f"integrate: {samples} samples of {x0.size} components exceed "
            f"the state budget of {DEFAULT_STATE_BUDGET} entries"
        )

    if horizon == 0:
        # x0 may be the problem's own u0: every read gets a copy of it
        times = np.array([0.0])
        states = x0[None, :].copy()
        return Trajectory(times, states, 0.0,
                          _interpolant=lambda _t: x0.copy())

    horizon = float(horizon)
    t_eval = np.linspace(0.0, horizon, samples)
    # the coarse pass's samples only: its interpolant is dropped at once,
    # and the gap to the fine pass is formed in its place
    coarse = _dopri45(rhs, horizon, x0, tol, t_eval)[0]
    fine, dense = _dopri45(rhs, horizon, x0, _fine_tol(tol), t_eval)
    err = float(np.max(np.abs(np.subtract(coarse, fine, out=coarse))))
    return Trajectory(times=t_eval, states=fine, est_global_error=err,
                      _interpolant=dense)


def final_state(problem, horizon: float, tol: float = 1e-11) -> np.ndarray:
    """x(horizon) from integrate's fine pass alone, on no sample grid: bit
    for bit integrate(problem, horizon, tol).state_at(horizon), since the
    samples never change a step and both read the last step's interpolant
    at horizon.  horizon and tol are checked as integrate checks them."""
    x0, rhs = _field(problem, horizon, tol)
    if horizon == 0:
        return x0.copy()
    horizon = float(horizon)
    dense = _dopri45(rhs, horizon, x0, _fine_tol(tol), np.empty(0))[1]
    return dense(horizon)


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
        raise DivergenceError(f"closed_form_1d: pole reached at t={t:g}",
                              layer="oracle.closed_form_1d")
    return complex(1.0 / z)


def exact_lifted(traj: Trajectory, order: int, t: float) -> LiftedState:
    """Lifted state Psi_j(t) = (e^{i x(t)})^{tensor j} from the trajectory."""
    x = traj.state_at(t)
    return lift_point(np.exp(1j * x), monomial_basis(x.size, order))


def _exact_like(traj: Trajectory, truncated, t: float, k: int | None = None) -> tuple:
    """The exact lifted state of blocks 1..k (default: all of `truncated`'s)
    at time t in the layout of `truncated`, and the weights that make the
    p-norm of a difference in that layout its tensor p-norm: the multinomial
    weights for a LiftedState, whose monomial of count c stands for
    multinom(|c|; c) tensor entries, and none for a tensor.TensorState.  A
    LiftedState's exact state is lifted on the leading section of its own
    basis."""
    if not isinstance(truncated, (LiftedState, TensorState)):
        raise ConfigError(
            f"measure_eta: unsupported truncated-solution type {type(truncated)!r}"
        )
    k = truncated.order if k is None else k
    if not 1 <= k <= truncated.order:
        raise ConfigError(f"measure_eta: block {k} outside 1..{truncated.order}")
    w = np.exp(1j * traj.state_at(t))
    if isinstance(truncated, LiftedState):
        basis = truncated.basis.leading(k)
        return lift_point(w, basis), basis.weights
    return expand(lift_point(w, monomial_basis(w.size, k))), None


def measure_eta(traj: Trajectory, truncated, k: int, t: float,
                p: float = 2) -> float:
    """||Psi_k(t) - Psi_k^(N)(t)||_p: truncation error of block k, the
    tensor p-norm, computed in the layout of `truncated` (a LiftedState is
    never expanded).

    `truncated` is the lifted state (LiftedState or tensor.TensorState) of
    the *truncated linear* system at time t.  Pass a state obtained from the
    exponential of the truncated generator (see propagate) to isolate the
    lifting truncation error from time-stepping error; the final state of a
    forward_solve over [0, t] folds Taylor error in as well.
    """
    exact, weights = _exact_like(traj, truncated, t, k)
    diff = exact.blocks[k - 1] - truncated.blocks[k - 1]
    if weights is not None:
        weights = weights[-diff.size:]
    return vector_p_norm(diff, p, weights)


def measure_eta_vector(traj: Trajectory, truncated, t: float,
                       p: float = 2) -> float:
    """Tensor p-norm of the concatenated truncation error over all N
    blocks, computed in the layout of `truncated` (see measure_eta)."""
    exact, weights = _exact_like(traj, truncated, t)
    return vector_p_norm(exact.vector - truncated.vector, p, weights)


# theta_k in double precision: the largest ||A||_1 at which the degree-k
# Taylor polynomial of exp(A) has a backward error below the unit roundoff
# (Al-Mohy & Higham, SIAM J. Sci. Comput. 33(2), 2011, Table 3.1; Higham,
# Functions of Matrices, Table A.3).  From k = 23 on theta_k exceeds
# ACTION_STEP_CAP, so higher degrees only cost more.
_THETA = (2.29e-16, 2.58e-8, 1.39e-5, 3.40e-4, 2.40e-3, 9.07e-3, 2.38e-2,
          5.00e-2, 8.96e-2, 1.44e-1, 2.14e-1, 3.00e-1, 4.00e-1, 5.14e-1,
          6.41e-1, 7.81e-1, 9.31e-1, 1.09, 1.26, 1.44, 1.62, 1.82, 2.01)
# largest ||L h||_1 of one step: above it rounding in the Taylor sum, not
# truncation, limits the accuracy (with steps up to theta_55 = 9.9 the gap
# to the dense exponential reached 9e-11 on random generators, t <= 20)
ACTION_STEP_CAP = 2.0


def action_step_bound(k: int) -> float:
    """min(theta_k, ACTION_STEP_CAP): the largest ||L h||_1 at which one
    Taylor step of degree k evaluates exp(L h) to the unit roundoff.  Every
    grid of steps h and degree k with ||L||_1 h within it evaluates exp(L t)
    psi0 as accurately as action_config's grid does."""
    if k > len(_THETA):
        return ACTION_STEP_CAP
    return min(_THETA[k - 1], ACTION_STEP_CAP)


def action_config(op: LinearOperatorLN, t: float,
                  norm_1: float | None = None) -> TaylorConfig | None:
    """The Taylor grid on which propagate evaluates exp(L t) psi0: s steps
    of degree k, with s k smallest subject to ||L t||_1 / s <=
    action_step_bound(k); None for t = 0.  `norm_1` is op.norm_1() when the
    caller holds it.  A grid that must hold more steps than the stepping
    budget states is refused with BudgetError."""
    if not t >= 0:
        raise ConfigError(f"propagate: t must be >= 0, got {t}")
    if t == 0:
        return None
    norm = (op.norm_1() if norm_1 is None else norm_1) * t
    if not norm <= ACTION_STEP_CAP * DEFAULT_STATE_BUDGET:
        raise BudgetError(
            f"propagate: ||L t||_1 = {norm:.3g} needs more than "
            f"{DEFAULT_STATE_BUDGET} Taylor steps"
        )
    steps, order = min(_action_grids(norm),
                       key=lambda pair: (pair[0] * pair[1], pair[1]))
    return TaylorConfig(m=steps, h=t / steps, k=order)


def _action_grids(norm: float):
    """(s, k): the fewest steps s of each degree k with ||L t||_1 = norm."""
    return ((max(1, math.ceil(norm / action_step_bound(k))), k)
            for k in range(1, len(_THETA) + 1))


def step_config(recipe: TaylorConfig, horizon: float, size: int,
                norm_1: float, steps_pinned: bool = False) -> TaylorConfig | None:
    """The grid a run of the recipe's grid (m h = horizon, degree k) steps
    on, for `size` monomials and ||L||_1 = norm_1; None when ||L||_1 h
    exceeds action_step_bound(k).  Otherwise every grid within the bound
    gives exp(L T) psi0 to the unit roundoff, and the least solve_cost
    wins among the recipe's m at the least degree within the bound and the
    fewest steps of each degree; a tie keeps the recipe's m.  A pinned m, and a state small
    enough to step by its propagator, keep the recipe's m: on such a state
    solve_cost, which counts a product as one apply, can pick more and
    slower steps (nondissipative_n2 at N = 3: 10 propagator steps for one
    Horner step, 1.7x the time), and the propagator's rounding moves the
    estimate with its step count by up to 2.9e-15 relative."""
    step_norm = norm_1 * recipe.h
    if not step_norm <= action_step_bound(recipe.k):
        return None
    # at the recipe's m a higher degree only costs more than the least one
    least = next(k for k in range(1, recipe.k + 1)
                 if step_norm <= action_step_bound(k))
    # a generator, not a list: the grids held at once would stay traced on
    # CPython's free lists and raise a round's tracemalloc peak
    grids = itertools.chain(
        ((recipe.m, least),),
        () if steps_pinned or propagator_fits(size)
        else _action_grids(norm_1 * horizon))
    steps, order = min(grids, key=lambda grid: solve_cost(size, *grid))
    return TaylorConfig(m=steps, h=horizon / steps, k=order)


def propagate(op: LinearOperatorLN, psi0: LiftedState, t: float) -> LiftedState:
    """exp(L t) psi0 on monomial coordinates, as the action of the
    exponential on one vector (Al-Mohy & Higham 2011): forward_solve on the
    grid of action_config, without the verify pass, so its stepping budget
    and divergence checks apply.  t = 0 returns a copy of psi0.  On a grid
    of the caller's: forward_solve(op, grid, psi0, verify=False).final."""
    cfg = action_config(op, t)
    if cfg is None:
        return LiftedState(op.basis, psi0.vector.copy())
    return forward_solve(op, cfg, psi0, verify=False).final
