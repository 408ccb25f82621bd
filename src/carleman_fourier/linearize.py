"""Lifted state and the truncated lifted operator.

Lifting replaces the nonlinear ODE in x by a linear ODE on the blocks
Psi_j = (e^{ix})^{tensor j}, j = 1..N, stored back to back in one flat
vector (block j starts at offset sum_{i<j} n^i).  The generator is block
upper bidiagonal: block j of d Psi/dt equals B_j^(0) Psi_j + B_{j+1}^(1)
Psi_{j+1} (the last block drops the coupling term).  B_j^(0) is diagonal in
the tensor enumeration; B_{j+1}^(1) inserts the stacked-row coupling matrix
at each of the j digit positions.

Every Psi_j is a symmetric tensor: its entry at digit string l depends only
on the count vector c of l (c_r = how often symbol r occurs), and equals the
monomial w^c.  The generator maps symmetric tensors to symmetric tensors, so
time stepping runs on the monomial coordinates psi_c, |c| = j, with
C(n+j-1, j) entries per block instead of n^j (the monomial form of Carleman
linearization).  In them the generator is one sparse matrix: diagonal
i c.F0, and c couples to c + e_s with i sum_r c_r F1[r, s].  LinearOperatorLN
builds it once, with the maps between the two layouts; the tensor layout
stays the public format of lifted states.

Dense assembly is a test/diagnostic path guarded by a size budget
(CFL_DENSE_BUDGET, default 4096 total rows).
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
import scipy.sparse

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


def size_within(n: int, order: int, cap: int) -> bool:
    """total_size(n, order) <= cap, decided without forming n^N, so that an
    order picked by a parameter recipe can be checked however large it is."""
    if n == 1 or order > cap:  # every block holds at least one entry
        return order <= cap
    total, block = 0, 1
    for _ in range(order):
        block *= n
        total += block
        if total > cap:
            return False
    return True


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


class MonomialBasis(NamedTuple):
    """Monomials w^c, |c| = j, of blocks 1..N; see monomial_basis."""

    offsets: tuple
    counts: np.ndarray
    parent: np.ndarray
    symbol: np.ndarray
    up: np.ndarray
    classes: np.ndarray
    slots: np.ndarray


def monomial_basis(n: int, order: int) -> MonomialBasis:
    """Monomials of blocks 1..N, block by block; inside a block ordered by
    canonical slot (the digits of c in ascending order, the smallest tensor
    index with count c).  With M monomials and T = total_size(n, order):

      offsets  block j holds monomials [offsets[j-1], offsets[j]);
      counts   (M, n) count vectors c;
      parent, symbol  (M,) the canonical slot of c is that of its parent
               c - e_s followed by digit s = symbol (parent -1 on block 1);
      up       (M_<N, n) index of c + e_s, for the monomials below block N;
      classes  (T,) monomial of every entry of the flat tensor state;
      slots    (M,) flat index of the canonical slot of every monomial.
    """
    if n < 1 or order < 1:
        raise ConfigError("monomial_basis: need n >= 1 and order >= 1")
    tensor_offsets = block_offsets(n, order)
    eye = np.eye(n, dtype=np.int64)
    # block-local monomial counts, canonical slots and tensor classes
    counts, slots, classes = eye, np.arange(n), np.arange(n)
    offsets = [0, n]
    out = {"counts": [counts], "parent": [np.full(n, -1)],
           "symbol": [np.arange(n)], "up": [np.zeros((0, n), dtype=np.intp)],
           "classes": [classes], "slots": [slots]}
    for j in range(2, order + 1):
        # canonical slot of c + e_s: digit s goes in after the p digits <= s,
        # so the last j-1-p digits of the slot of c move one place down
        tail = n ** (j - 1 - np.cumsum(counts, axis=1))
        keys = ((slots[:, None] // tail) * n + np.arange(n)) * tail \
            + slots[:, None] % tail
        slots, first, inverse = np.unique(keys, return_index=True,
                                          return_inverse=True)
        up = inverse.reshape(keys.shape)
        parent, symbol = np.divmod(first, n)
        counts = counts[parent] + eye[symbol]
        classes = up[classes].ravel()
        out["counts"].append(counts)
        out["parent"].append(offsets[-2] + parent)
        out["symbol"].append(symbol)
        out["up"].append(offsets[-1] + up)
        out["classes"].append(offsets[-1] + classes)
        out["slots"].append(tensor_offsets[j - 1] + slots)
        offsets.append(offsets[-1] + slots.size)
    return MonomialBasis(tuple(offsets),
                         **{key: np.concatenate(parts) for key, parts in out.items()})


def lift_initial(rescaled: RescaledProblem, order: int,
                 state_budget: int = DEFAULT_STATE_BUDGET,
                 op: LinearOperatorLN | None = None) -> LiftedState:
    """Initial lifted state: block j is the j-th Kronecker power of w0
    (leftmost factor most significant).  See lift_point for `op`."""
    if order < 1:
        raise ConfigError("lift_initial: order must be >= 1")
    n = rescaled.n
    if not size_within(n, order, state_budget):
        raise BudgetError(
            f"lift_initial: the state of n={n}, N={order} exceeds the "
            f"budget of {state_budget} entries"
        )
    return lift_point(rescaled.w0, order, op)


def lift_point(w: np.ndarray, order: int,
               op: LinearOperatorLN | None = None) -> LiftedState:
    """Lift an arbitrary point w = e^{ix} (tensor powers of w).  Each
    monomial w^c is computed once, as the Kronecker product does at its
    canonical slot, and copied to every slot of count c, so the state is
    exactly symmetric.  The layout maps `slots` and `classes` are those of
    `op`, an operator of the same n and N, or of monomial_basis(n, N) built
    here."""
    w = np.asarray(w, dtype=complex).ravel()
    n = w.shape[0]
    if op is None:
        basis = monomial_basis(n, order)
        slots, classes = basis.slots, basis.classes
    elif (op.n, op.order) == (n, order):
        slots, classes = op.slots, op.classes
    else:
        raise ConfigError(f"lift_point: the operator is not one of n={n}, N={order}")
    tensor_offsets = block_offsets(n, order)
    mono = np.empty(slots.size, dtype=complex)
    mono[:n] = w
    lo = n
    for j in range(2, order + 1):
        hi = lo + math.comb(n + j - 1, j)
        # the canonical slot of w^c is that of its parent w^(c - e_s)
        # followed by digit s, the largest digit of the slot
        parent, symbol = np.divmod(slots[lo:hi] - tensor_offsets[j - 1], n)
        mono[lo:hi] = mono[classes[tensor_offsets[j - 2] + parent]] * w[symbol]
        lo = hi
    return LiftedState(n, order, mono[classes])


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
    """Coupling action C^{n^{j+1}} -> C^{n^j} on a tensor block: the
    stacked-row matrix built from F1 is contracted into each of the j digit
    positions and summed,

      out[l_1..l_j] = i sum_a sum_s F1[l_a, s] v[l_1..l_a, s, l_{a+1}..l_j].
    """
    f1 = np.atleast_2d(np.asarray(f1, dtype=complex))
    n = f1.shape[0]
    v = np.asarray(v, dtype=complex).ravel()
    if v.shape != (n ** (j + 1),):
        raise ConfigError(
            f"apply_B1: block must have length n^(j+1) = {n ** (j + 1)}"
        )
    out = np.zeros(n ** j, dtype=complex)
    for a in range(j):
        block = v.reshape(n ** a, n, n, n ** (j - 1 - a))
        out += 1j * np.einsum("rs,prsq->prq", f1, block).reshape(-1)
    return out


@dataclass
class LinearOperatorLN:
    """Truncated lifted generator.  Built once, at construction: the maps
    between the tensor and the monomial layout (`classes`: monomial of every
    tensor entry; `slots`: canonical tensor slot of every monomial), the
    multinomial weights and the sparse generator on monomial coordinates."""

    order: int
    n: int
    f0: np.ndarray
    f1: np.ndarray
    classes: np.ndarray = field(init=False, repr=False)
    slots: np.ndarray = field(init=False, repr=False)
    weights: np.ndarray = field(init=False, repr=False)
    generator: scipy.sparse.csr_array = field(init=False, repr=False)

    def __post_init__(self):
        self.f0 = np.asarray(self.f0, dtype=complex).ravel()
        self.f1 = np.atleast_2d(np.asarray(self.f1, dtype=complex))
        if self.order < 1:
            raise ConfigError("LinearOperatorLN: order must be >= 1")
        if self.f0.shape != (self.n,) or self.f1.shape != (self.n, self.n):
            raise ConfigError("LinearOperatorLN: coefficient shapes inconsistent")
        # the layout maps below hold one entry per tensor slot
        if not size_within(self.n, self.order, DEFAULT_STATE_BUDGET):
            raise BudgetError(
                f"LinearOperatorLN: the state of n={self.n}, N={self.order} "
                f"exceeds the budget of {DEFAULT_STATE_BUDGET} entries"
            )
        basis = monomial_basis(self.n, self.order)
        self.classes, self.slots = basis.classes, basis.slots
        # multinom(j; c): the number of tensor slots of count c
        self.weights = np.bincount(basis.classes).astype(float)
        size, coupled = basis.slots.size, basis.up.shape[0]
        rows = np.concatenate([np.arange(size), np.repeat(np.arange(coupled), self.n)])
        cols = np.concatenate([np.arange(size), basis.up.ravel()])
        values = np.concatenate([1j * (basis.counts @ self.f0),
                                 1j * (basis.counts[:coupled] @ self.f1).ravel()])
        self.generator = scipy.sparse.csr_array((values, (rows, cols)),
                                                shape=(size, size))

    @classmethod
    def from_rescaled(cls, rescaled: RescaledProblem, order: int) -> "LinearOperatorLN":
        return cls(order=order, n=rescaled.n, f0=rescaled.f0, f1=rescaled.f1)

    @property
    def size(self) -> int:
        """Length of the flat tensor state."""
        return total_size(self.n, self.order)

    @property
    def monomial_size(self) -> int:
        """Number of monomial coordinates, sum_j C(n+j-1, j)."""
        return self.slots.size

    def monomials(self, state: LiftedState) -> np.ndarray:
        """Monomial coordinates of a symmetric tensor state (one gather)."""
        return state.vector[self.slots]

    def expand(self, x: np.ndarray) -> LiftedState:
        """Tensor state of monomial coordinates x (one gather)."""
        return LiftedState(self.n, self.order, x[self.classes])

    def tensor_norm(self, x: np.ndarray) -> float:
        """2-norm of expand(x): ||Psi||_2^2 = sum_c multinom(j; c) |psi_c|^2."""
        return float(np.sqrt(np.dot(self.weights, x.real ** 2 + x.imag ** 2)))


def apply_LN(op: LinearOperatorLN, x: np.ndarray) -> np.ndarray:
    """Action of the truncated generator on monomial coordinates x, one
    sparse matvec; expanded, it is block j = B_j^(0) Psi_j + B_{j+1}^(1)
    Psi_{j+1}, with the coupling term dropped on the last block."""
    if np.shape(x) != (op.monomial_size,):
        raise ConfigError(
            f"apply_LN: expected {op.monomial_size} monomial coordinates, "
            f"got shape {np.shape(x)}"
        )
    return op.generator @ x


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

    Guarded by the dense budget; the sparse monomial generator is the
    primary representation and this assembly exists for diagnostics and
    oracles.
    """
    cap = dense_budget() if budget is None else budget
    size = op.size
    if size > cap:
        raise BudgetError(
            f"dense_LN: size {size} exceeds dense budget {cap} "
            "(override with CFL_DENSE_BUDGET)"
        )
    out = np.diag(b0_diagonal(op.order, op.f0))
    offsets = block_offsets(op.n, op.order)
    for j in range(1, op.order):
        out[offsets[j - 1]:offsets[j], offsets[j]:offsets[j + 1]] = dense_B1(j, op.f1)
    return out
