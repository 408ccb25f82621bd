"""Lifted state and the matrix-free truncated lifted operator.

Lifting replaces the nonlinear ODE in x by a linear ODE on the blocks
Psi_j = (e^{ix})^{tensor j}, j = 1..N, stored back to back in one flat
vector (block j starts at offset sum_{i<j} n^i).  The generator is block
upper bidiagonal: block j of d Psi/dt equals B_j^(0) Psi_j + B_{j+1}^(1)
Psi_{j+1} (the last block drops the coupling term).  B_j^(0) is diagonal in
the tensor enumeration, so the operator keeps the whole B^(0) diagonal as
one vector; B_{j+1}^(1) inserts the stacked-row coupling matrix at each of
the j digit positions and is applied matrix-free through the kernel in
_kernels (numba by default, pure numpy fallback via CFL_BACKEND=numpy).

Dense assembly is a test/diagnostic path guarded by a size budget
(CFL_DENSE_BUDGET, default 4096 total rows).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from ._kernels import apply_b1 as _apply_b1_kernel
from .errors import BudgetError, ConfigError
from .norms import vector_p_norm
from .problem import RescaledProblem

DEFAULT_DENSE_BUDGET = 4096
DEFAULT_STATE_BUDGET = 1 << 22  # total complex entries across all blocks


def dense_budget() -> int:
    raw = os.environ.get("CFL_DENSE_BUDGET")
    if raw is None:
        return DEFAULT_DENSE_BUDGET
    try:
        value = int(raw)
    except ValueError as exc:
        raise ConfigError(f"CFL_DENSE_BUDGET is not an integer: {raw!r}") from exc
    if value < 1:
        raise ConfigError("CFL_DENSE_BUDGET must be positive")
    return value


def block_offsets(n: int, order: int) -> tuple:
    """Offsets of blocks 1..N in the flat state, then its length: block j
    occupies [offsets[j-1], offsets[j]), with offsets[j-1] = sum_{i<j} n^i."""
    offsets = [0]
    for j in range(1, order + 1):
        offsets.append(offsets[-1] + n ** j)
    return tuple(offsets)


def total_size(n: int, order: int) -> int:
    """sum_{j=1..N} n^j, the length of the flat (unpadded) state."""
    return block_offsets(n, order)[-1]


@dataclass
class LiftedState:
    """Blocks Psi_j in C^{n^j}, j = 1..N, in tensor enumeration, stored back
    to back in one contiguous complex vector."""

    n: int
    order: int
    vector: np.ndarray

    def __post_init__(self):
        self.vector = np.asarray(self.vector, dtype=complex)
        if self.n < 1 or self.order < 1:
            raise ConfigError("LiftedState: need n >= 1 and order >= 1")
        if self.vector.shape != (total_size(self.n, self.order),):
            raise ConfigError(
                f"LiftedState: vector has shape {self.vector.shape}, expected "
                f"({total_size(self.n, self.order)},)"
            )

    @property
    def blocks(self) -> list:
        """Views of the blocks Psi_1..Psi_N into the flat vector."""
        offsets = block_offsets(self.n, self.order)
        return [self.vector[offsets[j]:offsets[j + 1]] for j in range(self.order)]

    def copy(self) -> "LiftedState":
        return LiftedState(self.n, self.order, self.vector.copy())

    def norm(self, p: float = 2) -> float:
        return vector_p_norm(self.vector, p)

    def all_finite(self) -> bool:
        return bool(np.isfinite(self.vector).all())


def padded_index(n: int, order: int, level: int, tensor_index: int) -> int:
    """Index of entry `tensor_index` of block `level` in the zero-padded
    N n^N register layout used for dimensional bookkeeping.

    Block j sits in segment [(j-1) n^N, j n^N); inside the segment the
    leading N-j digits are pinned to symbol 0, so the entry keeps its flat
    tensor offset.
    """
    if not 1 <= level <= order:
        raise ConfigError(f"padded_index: level {level} outside 1..{order}")
    if not 0 <= tensor_index < n ** level:
        raise ConfigError("padded_index: tensor index out of range")
    return (level - 1) * n ** order + tensor_index


def to_padded(state: LiftedState) -> np.ndarray:
    """Embed the unpadded blocks into the N n^N padded register layout."""
    n, order = state.n, state.order
    out = np.zeros(order * n ** order, dtype=complex)
    for level, block in enumerate(state.blocks, start=1):
        base = (level - 1) * n ** order
        out[base:base + block.shape[0]] = block
    return out


def lift_initial(rescaled: RescaledProblem, order: int,
                 state_budget: int = DEFAULT_STATE_BUDGET) -> LiftedState:
    """Initial lifted state: block j is the j-th Kronecker power of w0
    (leftmost factor most significant)."""
    if order < 1:
        raise ConfigError("lift_initial: order must be >= 1")
    n = rescaled.n
    if total_size(n, order) > state_budget:
        raise BudgetError(
            f"lift_initial: state size {total_size(n, order)} exceeds "
            f"budget {state_budget}"
        )
    return lift_point(rescaled.w0, order)


def lift_point(w: np.ndarray, order: int) -> LiftedState:
    """Lift an arbitrary point w = e^{ix} (tensor powers of w)."""
    w = np.asarray(w, dtype=complex).ravel()
    offsets = block_offsets(w.shape[0], order)
    vec = np.empty(offsets[-1], dtype=complex)
    vec[:offsets[1]] = w
    for j in range(1, order):
        vec[offsets[j]:offsets[j + 1]] = np.kron(vec[offsets[j - 1]:offsets[j]], w)
    return LiftedState(w.shape[0], order, vec)


def b0_diagonal(order: int, f0: np.ndarray) -> np.ndarray:
    """Diagonal of B^(0) over blocks 1..N in the flat layout: entry l of
    block j is i (count(l) . F0) = i (F0[l_1] + ... + F0[l_j])."""
    f0 = np.asarray(f0, dtype=complex).ravel()
    weights, level = [], np.zeros(1, dtype=complex)
    for _ in range(order):
        # appending digit s to every string of the previous block
        level = (level[:, None] + f0[None, :]).ravel()
        weights.append(level)
    return 1j * np.concatenate(weights)


def apply_B0(j: int, f0: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Diagonal block action: entry l is scaled by i (count(l) . F0)."""
    f0 = np.asarray(f0, dtype=complex).ravel()
    n = f0.shape[0]
    v = np.asarray(v, dtype=complex).ravel()
    if v.shape != (n ** j,):
        raise ConfigError(f"apply_B0: block must have length n^j = {n ** j}")
    return b0_diagonal(j, f0)[-n ** j:] * v


def apply_B1(j: int, f1: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Coupling action C^{n^{j+1}} -> C^{n^j}: the stacked-row matrix built
    from F1 is inserted at each of the j digit positions and summed."""
    f1 = np.atleast_2d(np.asarray(f1, dtype=complex))
    n = f1.shape[0]
    v = np.asarray(v, dtype=complex).ravel()
    if v.shape != (n ** (j + 1),):
        raise ConfigError(
            f"apply_B1: block must have length n^(j+1) = {n ** (j + 1)}"
        )
    return _apply_b1_kernel(n, j, f1, v)


@dataclass
class LinearOperatorLN:
    """Matrix-free truncated lifted generator (block upper bidiagonal); the
    B^(0) diagonal is built once, at construction."""

    order: int
    n: int
    f0: np.ndarray
    f1: np.ndarray
    diag: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.f0 = np.asarray(self.f0, dtype=complex).ravel()
        self.f1 = np.atleast_2d(np.asarray(self.f1, dtype=complex))
        if self.order < 1:
            raise ConfigError("LinearOperatorLN: order must be >= 1")
        if self.f0.shape != (self.n,) or self.f1.shape != (self.n, self.n):
            raise ConfigError("LinearOperatorLN: coefficient shapes inconsistent")
        self.diag = b0_diagonal(self.order, self.f0)

    @classmethod
    def from_rescaled(cls, rescaled: RescaledProblem, order: int) -> "LinearOperatorLN":
        return cls(order=order, n=rescaled.n, f0=rescaled.f0, f1=rescaled.f1)

    def apply(self, state: LiftedState) -> LiftedState:
        return apply_LN(self, state)

    @property
    def size(self) -> int:
        return total_size(self.n, self.order)


def apply_LN(op: LinearOperatorLN, state: LiftedState) -> LiftedState:
    """Action of the truncated generator: block j of the output is
    B_j^(0) Psi_j + B_{j+1}^(1) Psi_{j+1}, with the coupling term dropped on
    the last block."""
    if state.order != op.order or state.n != op.n:
        raise ConfigError("apply_LN: state and operator shapes differ")
    v = state.vector
    out = op.diag * v
    offsets = block_offsets(op.n, op.order)
    for j in range(1, op.order):
        out[offsets[j - 1]:offsets[j]] += _apply_b1_kernel(
            op.n, j, op.f1, v[offsets[j]:offsets[j + 1]])
    return LiftedState(op.n, op.order, out)


def dense_f1_tilde(f1: np.ndarray) -> np.ndarray:
    """Stacked-row coupling matrix (n x n^2): row r holds row r of F1 in
    column block r."""
    f1 = np.atleast_2d(np.asarray(f1, dtype=complex))
    n = f1.shape[0]
    out = np.zeros((n, n * n), dtype=complex)
    for r in range(n):
        out[r, r * n:(r + 1) * n] = f1[r]
    return out


def dense_B1(j: int, f1: np.ndarray) -> np.ndarray:
    """Dense coupling block n^j x n^{j+1} via Kronecker assembly."""
    f1 = np.atleast_2d(np.asarray(f1, dtype=complex))
    n = f1.shape[0]
    tilde = 1j * dense_f1_tilde(f1)
    out = np.zeros((n ** j, n ** (j + 1)), dtype=complex)
    for a in range(j):
        term = np.kron(np.eye(n ** a), np.kron(tilde, np.eye(n ** (j - 1 - a))))
        out += term
    return out


def dense_LN(op: LinearOperatorLN, budget: int | None = None) -> np.ndarray:
    """Explicit matrix of the truncated generator in the unpadded layout.

    Guarded by the dense budget; the matrix-free path is the primary
    representation and this assembly exists for diagnostics and oracles.
    """
    cap = dense_budget() if budget is None else budget
    size = op.size
    if size > cap:
        raise BudgetError(
            f"dense_LN: size {size} exceeds dense budget {cap} "
            "(override with CFL_DENSE_BUDGET)"
        )
    out = np.diag(op.diag)
    offsets = block_offsets(op.n, op.order)
    for j in range(1, op.order):
        out[offsets[j - 1]:offsets[j], offsets[j]:offsets[j + 1]] = dense_B1(j, op.f1)
    return out
