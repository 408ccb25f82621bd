"""Truncated-Taylor time stepping for the lifted linear ODE.

The propagator over one step h is approximated by the degree-k Taylor
polynomial V_k of exp(L h), applied by Horner evaluation to the monomial
coordinates of the lifted state (one sparse generator matvec per stage).  The
whole time grid is one lower block-bidiagonal system (identity diagonal,
-V_k subdiagonal, m trailing copy rows); forward substitution solves it
exactly, so the returned residual only detects implementation drift.  The
trailing copy rows exist to mirror the register layout of the linear-system
formulation and are represented implicitly (the final state is stored once;
their residual is zero by construction).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BudgetError, ConfigError, DivergenceError
from .linearize import (DEFAULT_STATE_BUDGET, LiftedState, LinearOperatorLN,
                        apply_LN, dense_LN)
from .norms import op_norm, vector_p_norm


@dataclass(frozen=True)
class TaylorConfig:
    """Step count m, step size h (m h = T) and Taylor order k."""

    m: int
    h: float
    k: int

    def __post_init__(self):
        if self.m < 1:
            raise ConfigError("TaylorConfig: m must be >= 1")
        if self.h <= 0:
            raise ConfigError("TaylorConfig: h must be positive")
        if self.k < 1:
            raise ConfigError("TaylorConfig: k must be >= 1")

    @property
    def horizon(self) -> float:
        return self.m * self.h

    @classmethod
    def for_horizon(cls, horizon: float, m: int, k: int) -> "TaylorConfig":
        cfg = cls(m=m, h=horizon / m, k=k)
        if abs(cfg.horizon - horizon) > 1e-12 * max(abs(horizon), 1.0):
            raise ConfigError("TaylorConfig: m*h does not reproduce the horizon")
        return cfg


@dataclass
class SolveResult:
    """History Phi_0..Phi_m in monomial coordinates (row j holds step j of
    the operator's basis), the verified system residual, the number of
    generator applies spent and the readout."""

    config: TaylorConfig
    operator: LinearOperatorLN
    history: np.ndarray  # (m + 1, operator.monomial_size)
    residual: float
    generator_applies: int = 0
    readout_value: complex | None = None

    @property
    def final(self) -> LiftedState:
        return self.state_at_step(self.config.m)

    def state_at_step(self, j: int) -> LiftedState:
        if not 0 <= j <= self.config.m:
            raise ConfigError(f"step {j} outside 0..{self.config.m}")
        return LiftedState(self.operator.n, self.operator.order, self.history[j])


def apply_Vk(op: LinearOperatorLN, cfg: TaylorConfig, x: np.ndarray) -> np.ndarray:
    """Degree-k Taylor polynomial of exp(L h) applied to monomial coordinates
    x, by Horner: u <- x; for i = k..1: u <- x + (h/i) L u.  x itself is
    left untouched."""
    u = x
    for i in range(cfg.k, 0, -1):
        # apply_LN returns a fresh vector, so it is updated in place
        lu = apply_LN(op, u)
        lu *= cfg.h / i
        lu += x
        u = lu
    return u


def _apply_Vk_direct(op: LinearOperatorLN, cfg: TaylorConfig,
                     x: np.ndarray) -> np.ndarray:
    """Term-by-term evaluation of the same polynomial (independent of the
    Horner ordering; used for the residual check)."""
    acc = x.copy()
    term = x
    for i in range(1, cfg.k + 1):
        term = apply_LN(op, term)
        term *= cfg.h / i
        acc += term
    return acc


def forward_solve(op: LinearOperatorLN, cfg: TaylorConfig,
                  psi0: LiftedState, verify: bool = True) -> SolveResult:
    """Exact forward substitution on the block-bidiagonal time-step system:
    Phi_0 = psi0 and Phi_{j+1} = V_k Phi_j.

    Stepping and the history are in psi0's monomial coordinates.  A history
    of more than DEFAULT_STATE_BUDGET entries is refused with BudgetError
    before it is allocated.  Any non-finite intermediate aborts with the
    first offending step.  When verify is set, each step is re-evaluated
    with a different summation order and the worst relative discrepancy, in
    the tensor 2-norm, is reported as the residual.
    """
    if not isinstance(psi0, LiftedState):
        raise ConfigError("forward_solve: psi0 must be a LiftedState; lift it "
                          "with lift_point")
    if psi0.order != op.order or psi0.n != op.n:
        raise ConfigError("forward_solve: state and operator shapes differ")
    if not psi0.all_finite():
        raise DivergenceError("forward_solve: initial state is not finite", step=0)
    if (cfg.m + 1) * op.monomial_size > DEFAULT_STATE_BUDGET:
        raise BudgetError(
            f"forward_solve: the history of m={cfg.m} steps of "
            f"{op.monomial_size} monomials (n={op.n}, N={op.order}) exceeds "
            f"the budget of {DEFAULT_STATE_BUDGET} entries"
        )
    history = np.empty((cfg.m + 1, op.monomial_size), dtype=complex)
    history[0] = psi0.vector
    residual = 0.0
    for j in range(cfg.m):
        # overflow surfaces as inf/nan and is reported as DivergenceError
        with np.errstate(over="ignore", invalid="ignore"):
            nxt = apply_Vk(op, cfg, history[j])
        if not np.isfinite(nxt).all():
            raise DivergenceError(
                f"forward_solve: non-finite values at step {j + 1} "
                f"(t = {(j + 1) * cfg.h:g}); parameters are unstable",
                step=j + 1,
            )
        if verify:
            # on the way to a detected divergence, intermediate magnitudes
            # can overflow inside the norm as well
            with np.errstate(over="ignore", invalid="ignore"):
                ref = _apply_Vk_direct(op, cfg, history[j])
                weights = op.basis.weights
                num = vector_p_norm(nxt - ref, 2, weights)
                den = max(vector_p_norm(history[j], 2, weights), 1e-300)
                ratio = num / den
            if math.isfinite(ratio):
                residual = max(residual, ratio)
        history[j + 1] = nxt
    return SolveResult(config=cfg, operator=op, history=history,
                       residual=residual,
                       generator_applies=cfg.m * cfg.k * (2 if verify else 1))


def readout_value(result: SolveResult, coeffs: np.ndarray) -> complex:
    """Dot product (bilinear) of the monomial coefficient vector of
    problem.expand_coeff_vector with the final state, c . Phi_m.

    This equals the full time-grid contraction with weight 1/m over the m
    final-state copies, since the copies are identical.
    """
    final = result.final.vector
    if np.shape(coeffs) != final.shape:
        raise ConfigError(
            f"readout_value: {np.shape(coeffs)} coefficients for a state of "
            f"{final.shape[0]} monomials"
        )
    result.readout_value = complex(np.dot(coeffs, final))
    return result.readout_value


def w_matrix(op: LinearOperatorLN, cfg: TaylorConfig, ell: int,
             budget: int | None = None) -> np.ndarray:
    """Dense W_{l,k} = sum_{i=0}^{k-l} l!/(l+i)! (L h)^i."""
    if not 0 <= ell <= cfg.k:
        raise ConfigError(f"w_matrix: need 0 <= l <= k, got l={ell}, k={cfg.k}")
    lh = dense_LN(op, budget=budget) * cfg.h
    size = lh.shape[0]
    acc = np.eye(size, dtype=complex)
    power = np.eye(size, dtype=complex)
    coeff = 1.0
    for i in range(1, cfg.k - ell + 1):
        power = power @ lh
        coeff /= (ell + i)
        acc = acc + coeff * power
    return acc


def w_matrix_norm(op: LinearOperatorLN, cfg: TaylorConfig, ell: int,
                  budget: int | None = None) -> float:
    """2-norm of the dense W_{l,k} diagnostic operator."""
    return op_norm(w_matrix(op, cfg, ell, budget=budget), 2)


def dense_Vk(op: LinearOperatorLN, cfg: TaylorConfig,
             budget: int | None = None) -> np.ndarray:
    """Dense degree-k Taylor polynomial of exp(L h) (= W_{0,k})."""
    return w_matrix(op, cfg, 0, budget=budget)


def step_count_for(horizon: float, order: int, rate: float,
                   power_of_two: bool = False) -> int:
    """ceil(T N rate) steps; optionally rounded up to a power of two to
    mirror register-style indexing when cross-checking the estimator."""
    if horizon < 0:
        raise ConfigError("step_count_for: horizon must be >= 0")
    m = max(1, math.ceil(horizon * order * rate))
    if power_of_two:
        m = 1 << (m - 1).bit_length()
    return m
