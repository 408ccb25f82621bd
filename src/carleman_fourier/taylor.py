"""Truncated-Taylor time stepping for the lifted linear ODE.

The propagator over one step h is approximated by the degree-k Taylor
polynomial V_k of exp(L h).  A state of M monomials with M M <=
VERIFY_BLOCK_ENTRIES, stepped more than M times, steps by V_k itself, held
as an (M, M) matrix (propagator): its columns are Horner on the unit
vectors, k applies of the verify block's operator, and each step is one
matrix-vector product.  Every other state applies V_k by Horner
evaluation to its monomial coordinates, one generator apply per stage.  The
whole time grid is one lower block-bidiagonal system (identity diagonal,
-V_k subdiagonal, m trailing copy rows); forward substitution solves it
exactly, so the returned residual only detects implementation drift.  The
verify pass behind it re-evaluates every step term by term, on the states,
up to B = VERIFY_BLOCK_ENTRIES // M consecutive steps in one apply per
stage: their states, laid out as columns and flattened, are one state of the
B-fold block-diagonal operator of linearize.block_operator, one per solve (a
shorter last block fills its leading columns).  Each step reads only the
one before it and the readout reads only Phi_m, so one state is held at a
time, besides the few of a verify block and the propagator; the trailing
copy rows, which mirror the register layout of the linear-system
formulation, repeat Phi_m and have zero residual by construction.  A run
whose recipe's (m, k) meets oracle.action_step_bound steps on the grid of
least solve_cost within that bound (oracle.step_config; a pinned m, or a
state within the propagator's cap, keeps the recipe's m), while the
estimator prices the recipe's (m, k); its Phi_m is then exp(L T) psi0 to
the unit roundoff, the Koopman/Taylor split's reference.  Any other run
steps on the recipe's grid, and its split on oracle.action_config's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BudgetError, ConfigError, DivergenceError
from .linearize import (DEFAULT_STATE_BUDGET, BlockOperator, LiftedState,
                        LinearOperatorLN, apply_LN, block_operator)
from .norms import vector_p_norm

# monomial entries re-evaluated per call of the verify pass: up to
# VERIFY_BLOCK_ENTRIES // M consecutive steps share one apply of the
# block-diagonal operator (M = 7: 18 steps, 35: 3, 44: 2), so a state above
# half this many monomials is verified one step at a time (65-128, and the
# ladder's 90-209).  At a cap of 64, dissipative_n2 (35 monomials) and
# nondissipative_n2 (44) would verify one step at a time and solve 9-35%
# slower.  Caps of 132-160 raise the largest tracemalloc peak of a bundled
# solve from 42 KB to 45-47 KB, against a round of all four at about 53 KB
# (160 solves the three configs that verify in blocks 8-18% faster).  The
# propagator of a state of M monomials holds M M entries, so it is formed
# only within the same cap (M <= 11)
VERIFY_BLOCK_ENTRIES = 128


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


@dataclass
class SolveResult:
    """The final state Phi_m in monomial coordinates, the verified system
    residual and the number of generator applies spent: k per column of a
    propagator, k per step taken by Horner and k per step re-evaluated (an
    apply of the B-fold operator counts B)."""

    final: LiftedState
    residual: float
    generator_applies: int


def apply_Vk(op: LinearOperatorLN | BlockOperator, cfg: TaylorConfig,
             x: np.ndarray) -> np.ndarray:
    """Degree-k Taylor polynomial of exp(L h) applied to monomial coordinates
    x, by Horner: u <- x; for i = k..1: u <- x + (h/i) L u.  x is one state
    of op, as for apply_LN, and is left untouched."""
    u = x
    for i in range(cfg.k, 0, -1):
        # apply_LN returns a fresh vector, so it is updated in place
        lu = apply_LN(op, u)
        lu *= cfg.h / i
        lu += x
        u = lu
    return u


def _apply_Vk_direct(op: LinearOperatorLN | BlockOperator, cfg: TaylorConfig,
                     x: np.ndarray) -> np.ndarray:
    """Term-by-term evaluation of the same polynomial (independent of the
    Horner ordering; used for the residual check).  x is one state of op,
    as for apply_LN."""
    acc = x.copy()
    term = x
    for i in range(1, cfg.k + 1):
        term = apply_LN(op, term)
        term *= cfg.h / i
        acc += term
    return acc


def propagator(fold: BlockOperator, cfg: TaylorConfig,
               size: int) -> np.ndarray | None:
    """V_k(hL) as an (M, M) matrix, M = size, from k applies of `fold`, the
    B-fold operator of op for some B >= M (block_operator): its one state
    holds the unit vectors e_b as its first M columns and zeros after them,
    so column b is apply_Vk(op, cfg, e_b) bit for bit.  None when an entry
    is not finite."""
    units = np.zeros((size, fold.diagonal.size // size), dtype=complex)
    np.fill_diagonal(units, 1)
    with np.errstate(over="ignore", invalid="ignore"):
        columns = apply_Vk(fold, cfg, units.ravel()).reshape(units.shape)
    matrix = np.ascontiguousarray(columns[:, :size])
    return matrix if np.isfinite(matrix).all() else None


def _verify_block(op: LinearOperatorLN | BlockOperator, cfg: TaylorConfig,
                  starts: np.ndarray, steps: int, end: np.ndarray,
                  weights: np.ndarray) -> float:
    """Largest relative discrepancy ||end - ref|| / ||start||, in the tensor
    2-norm, between each of `steps` steps and its term-by-term
    re-evaluation ref; a discrepancy that is not finite counts 0.  starts
    is a C-ordered (M, B) array whose leading `steps` columns hold the
    start states, and op is the B-fold operator of its flat layout (op
    itself for B = 1).  The columns after them are evaluated but not read:
    each column of a B-fold apply equals a single apply bit for bit.  Step
    b ends at column b + 1, the last at `end`."""
    # on the way to a detected divergence, intermediate magnitudes can
    # overflow inside the norm as well
    with np.errstate(over="ignore", invalid="ignore"):
        ref = _apply_Vk_direct(op, cfg, starts.reshape(-1)).reshape(starts.shape)
        worst = 0.0
        for b in range(steps):
            nxt = starts[:, b + 1] if b + 1 < steps else end
            ratio = (vector_p_norm(nxt - ref[:, b], 2, weights)
                     / max(vector_p_norm(starts[:, b], 2, weights), 1e-300))
            if math.isfinite(ratio):
                worst = max(worst, ratio)
    return worst


def propagator_fits(size: int) -> bool:
    """Whether a state of `size` monomials is small enough to step by its
    propagator, an (M, M) matrix within VERIFY_BLOCK_ENTRIES entries."""
    return size * size <= VERIFY_BLOCK_ENTRIES


def _layout(size: int, m: int) -> tuple:
    """(B, small) for m steps of M = size monomials: verify blocks of B
    steps, and whether the state steps by its propagator (within the cap,
    and cheaper than Horner)."""
    return (max(1, min(m, VERIFY_BLOCK_ENTRIES // size)),
            propagator_fits(size) and size < m)


def _over_budget(size: int, m: int) -> bool:
    """Whether m steps of `size` monomials, (m + 1) states, exceed the
    stepping budget of DEFAULT_STATE_BUDGET entries."""
    return (m + 1) * size > DEFAULT_STATE_BUDGET


def solve_cost(size: int, m: int, k: int) -> float:
    """forward_solve's apply_LN calls on m steps of degree k of `size`
    monomials, plus its propagator's products: k per Horner step, or k to
    form the propagator and one product per step, and k per verify block
    (a propagator that is not finite falls back to Horner uncounted).  A
    grid over the stepping budget, which forward_solve refuses, costs
    math.inf."""
    if _over_budget(size, m):
        return math.inf
    block, small = _layout(size, m)
    return (k + m if small else k * m) + k * -(-m // block)


def forward_solve(op: LinearOperatorLN, cfg: TaylorConfig,
                  psi0: LiftedState, verify: bool = True) -> SolveResult:
    """Exact forward substitution on the block-bidiagonal time-step system:
    Phi_0 = psi0 and Phi_{j+1} = V_k Phi_j; the current Phi_j is kept, plus
    the states of one verify block and, for a small state, the propagator.

    Stepping is in psi0's monomial coordinates, and psi0 is left untouched.
    A grid of (m + 1) states over more than DEFAULT_STATE_BUDGET entries in
    all is refused with BudgetError before any step, which bounds the
    stepping work.  A state of M monomials with M M <= VERIFY_BLOCK_ENTRIES
    and M < m steps by the matrix that propagator forms once, on the B-fold
    operator below (B >= M), at k M applies, fewer than the k m of Horner;
    every other state, and one whose propagator is not finite, steps by
    apply_Vk.  Any non-finite intermediate aborts with the first offending
    step, as a DivergenceError that names the grid, in its message and as
    its `grid` (m, h, k, M, n, N and the stepping path).  When verify is set,
    each step is re-evaluated term by term from its start state and the
    worst relative discrepancy, in the tensor 2-norm, is reported as the
    residual.  The re-evaluation runs on up to B = VERIFY_BLOCK_ENTRIES // M
    consecutive steps at once: their start states are written into the
    columns of one (M, B) buffer as the steps are taken, and its flat layout
    is one state of the B-fold operator, built once per solve.  A shorter
    last block fills the buffer's leading columns; the rest still hold the
    block before it, a full one, and are evaluated but not read.  A state
    above VERIFY_BLOCK_ENTRIES // 2 monomials has B = 1 and is re-evaluated
    one step at a time on op itself.
    generator_applies is k M for a propagator, plus k m when Horner steps
    (a propagator that is not finite included) and k m when verify is set.
    """
    if not isinstance(psi0, LiftedState):
        raise ConfigError("forward_solve: psi0 must be a LiftedState; lift it "
                          "with lift_point")
    if psi0.order != op.order or psi0.n != op.n:
        raise ConfigError("forward_solve: state and operator shapes differ")
    if not psi0.all_finite():
        raise DivergenceError("forward_solve: initial state is not finite",
                              step=0, layer="taylor.forward_solve")
    size = op.monomial_size
    if _over_budget(size, cfg.m):
        raise BudgetError(
            f"forward_solve: m={cfg.m} steps of {size} monomials "
            f"(n={op.n}, N={op.order}) exceed the stepping budget of "
            f"{DEFAULT_STATE_BUDGET} state entries"
        )
    # a state that steps by its propagator has M <= block and block > 1, so
    # the verify block's operator forms it
    block, small = _layout(size, cfg.m)
    fold = op
    if block > 1 and (verify or small):
        fold = block_operator(op, block)
    if verify and block > 1:
        starts = np.empty((size, block), dtype=complex)
    matrix = propagator(fold, cfg, size) if small else None
    cur = psi0.vector
    weights = op.basis.weights
    # steps taken and not yet verified
    pending = 0
    residual = 0.0
    for j in range(cfg.m):
        if verify:
            # the start state of the step, as column `pending` of the block;
            # a block of one step views cur itself
            if block == 1:
                starts = cur[:, None]
            else:
                starts[:, pending] = cur
            pending += 1
        # overflow surfaces as inf/nan and is reported as DivergenceError
        with np.errstate(over="ignore", invalid="ignore"):
            cur = apply_Vk(op, cfg, cur) if matrix is None else matrix.dot(cur)
        if not np.isfinite(cur).all():
            path = "Horner" if matrix is None else "propagator"
            raise DivergenceError(
                f"forward_solve: non-finite values at step {j + 1} "
                f"(t = {(j + 1) * cfg.h:g}) of m={cfg.m} steps of h={cfg.h:g} "
                f"at Taylor order k={cfg.k} on M={size} monomials (n={op.n}, "
                f"N={op.order}), stepped by "
                f"{path if matrix is None else 'the ' + path}; "
                f"parameters are unstable",
                step=j + 1, layer="taylor.forward_solve",
                grid={"m": cfg.m, "h": cfg.h, "k": cfg.k, "M": size,
                      "n": op.n, "N": op.order, "path": path},
            )
        if pending == block or (pending and j + 1 == cfg.m):
            residual = max(residual, _verify_block(fold, cfg, starts, pending,
                                                   cur, weights))
            pending = 0
    applies = cfg.k * ((size if small else 0) + (cfg.m if matrix is None else 0)
                       + (cfg.m if verify else 0))
    return SolveResult(final=LiftedState(op.basis, cur), residual=residual,
                       generator_applies=applies)


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


def step_count_for(horizon: float, order: int, rate: float) -> int:
    """ceil(T N rate) steps, at least one."""
    if horizon < 0:
        raise ConfigError("step_count_for: horizon must be >= 0")
    return max(1, math.ceil(horizon * order * rate))
