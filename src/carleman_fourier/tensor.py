"""The tensor layout: the reference the monomial path is checked against.

Block j of a lifted state is Psi_j in C^{n^j}, indexed by digit strings
l_1..l_j read as base-n numbers (leftmost digit most significant); the
blocks sit back to back from offset sum_{i<j} n^i.  This is the space the
paper's block encoding acts on.  The run path steps monomial coordinates
(see linearize) and never forms this layout; the tests, the stability
certificate and the 2-norm check of `estimate` compare against it.

Dense assembly is refused above DEFAULT_DENSE_BUDGET (4096) total rows.  The
dense exponential is scipy's, imported on first use, so importing this
module loads no scipy module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BudgetError, ConfigError
from .linearize import (DEFAULT_STATE_BUDGET, LiftedState, LinearOperatorLN,
                        dense_f1_tilde, size_within)
from .norms import op_norm, vector_p_norm
from .taylor import TaylorConfig

DEFAULT_DENSE_BUDGET = 4096

# matrix_exp rejects larger 2-norms; accuracy is only vouched for below this
EXPM_NORM_CAP = 50.0

# matrix_exp rejects larger dimensions (desk-scale guard)
EXPM_DIM_CAP = 10_000


def block_offsets(n: int, order: int) -> tuple:
    """Offsets of blocks 1..N in the flat tensor layout, then its length:
    block j occupies [offsets[j-1], offsets[j]), with offsets[j-1] =
    sum_{i<j} n^i."""
    offsets = [0]
    for j in range(1, order + 1):
        offsets.append(offsets[-1] + n ** j)
    return tuple(offsets)


def canonical_slot(count) -> int:
    """Lexicographically smallest tensor index whose digit counts equal the
    given count vector: the digits sorted in ascending order."""
    n = len(count)
    digits = []
    for sym in range(n):
        digits.extend([sym] * int(count[sym]))
    idx = 0
    for d in digits:
        idx = idx * n + d
    return idx


@dataclass
class TensorState:
    """Blocks Psi_j in C^{n^j} in tensor enumeration, any tensor, symmetric
    or not, back to back in one contiguous complex vector: the reference
    layout of dense diagnostics (see propagate_dense)."""

    n: int
    order: int
    vector: np.ndarray

    def __post_init__(self):
        self.vector = np.asarray(self.vector, dtype=complex)
        if self.n < 1 or self.order < 1:
            raise ConfigError("TensorState: need n >= 1 and order >= 1")
        size = block_offsets(self.n, self.order)[-1]
        if self.vector.shape != (size,):
            raise ConfigError(
                f"TensorState: vector has shape {self.vector.shape}, expected ({size},)")

    @property
    def blocks(self) -> list:
        """Views of the blocks Psi_1..Psi_N into the flat vector."""
        offsets = block_offsets(self.n, self.order)
        return [self.vector[offsets[j]:offsets[j + 1]] for j in range(self.order)]

    def norm(self, p: float = 2) -> float:
        return vector_p_norm(self.vector, p)


def expand(state: LiftedState) -> TensorState:
    """The state in the tensor layout, every monomial copied to each slot of
    its count; refused above DEFAULT_STATE_BUDGET entries."""
    if not size_within(state.n, state.order, DEFAULT_STATE_BUDGET):
        raise BudgetError(
            f"tensor.expand: the tensor state of n={state.n}, "
            f"N={state.order} exceeds the budget of {DEFAULT_STATE_BUDGET} "
            "entries"
        )
    up_t = state.basis.up_t
    # string l followed by digit s has the monomial of l times w_s
    level = np.arange(state.n)
    classes = [level]
    for _ in range(1, state.order):
        level = up_t[:, level].T.ravel()
        classes.append(level)
    return TensorState(state.n, state.order, state.vector[np.concatenate(classes)])


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


def dense_B1(j: int, f1: np.ndarray) -> np.ndarray:
    """Dense coupling block n^j x n^{j+1} via Kronecker assembly.  At n = 1
    every factor is 1 x 1, and the block is the j copies of tilde added one
    after another, as the Kronecker terms are (bit for bit, for finite F1),
    without the 2 j Kronecker products."""
    f1 = np.atleast_2d(np.asarray(f1, dtype=complex))
    n = f1.shape[0]
    tilde = 1j * dense_f1_tilde(f1)
    out = np.zeros((n ** j, n ** (j + 1)), dtype=complex)
    if n == 1:
        if j:
            out += np.add.accumulate(np.full(j, tilde[0, 0]))[-1]
        return out
    for a in range(j):
        term = np.kron(np.eye(n ** a), np.kron(tilde, np.eye(n ** (j - 1 - a))))
        out += term
    return out


def dense_LN(op: LinearOperatorLN) -> np.ndarray:
    """Explicit matrix of the truncated generator in the tensor layout.

    Refused above DEFAULT_DENSE_BUDGET rows; the monomial generator is the
    primary representation and this assembly exists for diagnostics and
    oracles.
    """
    size = op.size
    if size > DEFAULT_DENSE_BUDGET:
        raise BudgetError(
            f"dense_LN: size {size} exceeds dense budget {DEFAULT_DENSE_BUDGET}"
        )
    out = np.diag(b0_diagonal(op.order, op.f0))
    offsets = block_offsets(op.n, op.order)
    for j in range(1, op.order):
        out[offsets[j - 1]:offsets[j], offsets[j]:offsets[j + 1]] = dense_B1(j, op.f1)
    return out


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


def dense_Vk(op: LinearOperatorLN, cfg: TaylorConfig) -> np.ndarray:
    """Dense degree-k Taylor polynomial of exp(L h) (= W_{0,k})."""
    return w_matrix(op, cfg, 0)


def _norm2_upper(a) -> float:
    """Cheap upper bound on the spectral norm: min of the Frobenius norm
    and sqrt(||A||_1 ||A||_inf)."""
    mags = np.abs(a)
    holder = math.sqrt(float(mags.sum(axis=0).max()) * float(mags.sum(axis=1).max()))
    return min(float(np.linalg.norm(a)), holder)


def matrix_exp(a) -> np.ndarray:
    """Dense matrix exponential (scaling-and-squaring with a Pade core).

    Rejects matrices with 2-norm above EXPM_NORM_CAP or dimension above
    EXPM_DIM_CAP; within those limits the relative accuracy on normal
    matrices is ~1e-12 or better.  Use expm_at for exp(A t) with large
    ||A t||, which splits the time interval to stay inside the cap.
    """
    a = np.atleast_2d(np.asarray(a, dtype=complex))
    if a.shape[0] != a.shape[1]:
        raise ConfigError("matrix_exp: matrix must be square")
    if a.shape[0] > EXPM_DIM_CAP:
        raise ConfigError(
            f"matrix_exp: dimension {a.shape[0]} exceeds cap {EXPM_DIM_CAP}"
        )
    # exact spectral norm is only needed when the cheap bound is borderline
    if _norm2_upper(a) > EXPM_NORM_CAP and op_norm(a, 2) > EXPM_NORM_CAP:
        raise ConfigError(
            f"matrix_exp: ||A||_2 exceeds accuracy cap {EXPM_NORM_CAP}; "
            "split the time interval (see expm_at)"
        )
    # imported here: no run path of the package needs scipy
    import scipy.linalg

    return scipy.linalg.expm(a)


def expm_at(a, t: float) -> np.ndarray:
    """exp(A t), splitting t into equal slices so each call to matrix_exp
    sees a 2-norm below the accuracy cap.

    exp(A t) = exp(A t/s)^s exactly, so the split only spends a few extra
    matrix products.
    """
    a = np.atleast_2d(np.asarray(a, dtype=complex))
    total = _norm2_upper(a) * abs(t)
    slices = max(1, int(math.ceil(total / (0.8 * EXPM_NORM_CAP))))
    base = matrix_exp(a * (t / slices))
    if slices == 1:
        return base
    return np.linalg.matrix_power(base, slices)


def propagate_dense(dense_l: np.ndarray, psi0, t: float) -> TensorState:
    """exp(L t) psi0 through the dense exponential of the tensor matrix
    dense_l (time-split to respect the matrix_exp accuracy cap); psi0 is a
    TensorState or a LiftedState, expanded first.  The reference that
    oracle.propagate is checked against."""
    if isinstance(psi0, LiftedState):
        psi0 = expand(psi0)
    return TensorState(psi0.n, psi0.order, expm_at(dense_l, t) @ psi0.vector)
