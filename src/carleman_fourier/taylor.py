"""Truncated-Taylor time stepping for the lifted linear ODE.

The propagator over one step h is approximated by the degree-k Taylor
polynomial V_k of exp(L h), applied by Horner evaluation to the monomial
coordinates of the lifted state (one generator apply per stage).  The
whole time grid is one lower block-bidiagonal system (identity diagonal,
-V_k subdiagonal, m trailing copy rows); forward substitution solves it
exactly, so the returned residual only detects implementation drift.  Each
step reads only the one before it and the readout reads only Phi_m, so one
state is held at a time; the trailing copy rows, which mirror the register
layout of the linear-system formulation, repeat Phi_m and have zero
residual by construction.  The same stepper, on the grid that
oracle.action_config picks, evaluates the action of exp(L T) on psi0 for the
Koopman/Taylor error split (oracle.propagate).
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
    """The final state Phi_m in monomial coordinates, the verified system
    residual and the number of generator applies spent."""

    config: TaylorConfig
    final: LiftedState
    residual: float
    generator_applies: int = 0


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
    Phi_0 = psi0 and Phi_{j+1} = V_k Phi_j; only the current Phi_j is kept.

    Stepping is in psi0's monomial coordinates, and psi0 is left untouched.
    A grid of (m + 1) states over more than DEFAULT_STATE_BUDGET entries in
    all is refused with BudgetError before any step, which bounds the
    stepping work.  Any non-finite intermediate aborts with the first
    offending step.  When verify is set, each step is re-evaluated with a
    different summation order and the worst relative discrepancy, in the
    tensor 2-norm, is reported as the residual.
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
            f"forward_solve: m={cfg.m} steps of {op.monomial_size} monomials "
            f"(n={op.n}, N={op.order}) exceed the stepping budget of "
            f"{DEFAULT_STATE_BUDGET} state entries"
        )
    cur = psi0.vector
    residual = 0.0
    for j in range(cfg.m):
        # overflow surfaces as inf/nan and is reported as DivergenceError
        with np.errstate(over="ignore", invalid="ignore"):
            nxt = apply_Vk(op, cfg, cur)
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
                ref = _apply_Vk_direct(op, cfg, cur)
                weights = op.basis.weights
                num = vector_p_norm(nxt - ref, 2, weights)
                den = max(vector_p_norm(cur, 2, weights), 1e-300)
                ratio = num / den
            if math.isfinite(ratio):
                residual = max(residual, ratio)
        cur = nxt
    return SolveResult(config=cfg, final=LiftedState(op.n, op.order, cur),
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
    return complex(np.dot(coeffs, final))


def w_matrix(op: LinearOperatorLN, cfg: TaylorConfig, ell: int) -> np.ndarray:
    """Dense W_{l,k} = sum_{i=0}^{k-l} l!/(l+i)! (L h)^i."""
    if not 0 <= ell <= cfg.k:
        raise ConfigError(f"w_matrix: need 0 <= l <= k, got l={ell}, k={cfg.k}")
    lh = dense_LN(op) * cfg.h
    size = lh.shape[0]
    acc = np.eye(size, dtype=complex)
    power = np.eye(size, dtype=complex)
    coeff = 1.0
    for i in range(1, cfg.k - ell + 1):
        power = power @ lh
        coeff /= (ell + i)
        acc = acc + coeff * power
    return acc


def w_matrix_norm(op: LinearOperatorLN, cfg: TaylorConfig, ell: int) -> float:
    """2-norm of the dense W_{l,k} diagnostic operator."""
    return op_norm(w_matrix(op, cfg, ell), 2)


def dense_Vk(op: LinearOperatorLN, cfg: TaylorConfig) -> np.ndarray:
    """Dense degree-k Taylor polynomial of exp(L h) (= W_{0,k})."""
    return w_matrix(op, cfg, 0)


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
