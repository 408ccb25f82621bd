"""Lifted state and the truncated lifted operator.

Lifting replaces the nonlinear ODE in x by a linear ODE on the blocks
Psi_j = (e^{ix})^{tensor j}, j = 1..N.  The generator is block upper
bidiagonal: block j of d Psi/dt equals B_j^(0) Psi_j + B_{j+1}^(1)
Psi_{j+1} (the last block drops the coupling term).  B_j^(0) is diagonal in
the tensor enumeration; B_{j+1}^(1) inserts the stacked-row coupling matrix
at each of the j digit positions.

Every Psi_j is a symmetric tensor: its entry at digit string l depends only
on the count vector c of l (c_r = how often symbol r occurs), and equals the
monomial w^c.  The generator maps symmetric tensors to symmetric tensors, so
a lifted state is held in its monomial coordinates psi_c, |c| = j, with
C(n+j-1, j) entries per block instead of n^j (the symmetric reduction of
Carleman linearization), in one flat vector ordered as in
problem.monomial_index.  In them the generator has a diagonal i c.F0, and c
couples to c + e_s with i sum_r c_r F1[r, s], n entries per monomial below
block N.  LinearOperatorLN builds these two tables once, on the basis of
monomial_basis, and apply_LN is a gather over the up map of that basis.
The basis depends on (n, N) alone, and that of a lower order is its
leading section (MonomialBasis.leading), so operators of any coefficients
and order up to N can share one.

The tensor layout (block j in C^{n^j}) is the reference the monomial path
is checked against; it lives in the tensor module, whose expand() puts a
LiftedState into it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import BudgetError, ConfigError
from .norms import vector_p_norm
from .problem import RescaledProblem, monomial_count

# entries of the monomial basis' generator (and so of a lifted state), of
# the tensor reference and of the states a forward solve steps through
DEFAULT_STATE_BUDGET = 1 << 22


def total_size(n: int, order: int) -> int:
    """sum_{j=1..N} n^j, the length of the flat tensor state."""
    return order if n == 1 else (n ** (order + 1) - n) // (n - 1)


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


def generator_entries(n: int, order: int) -> int:
    """Stored entries of the monomial generator: the diagonal, and n
    couplings for every monomial below block N."""
    return monomial_count(n, order) + n * monomial_count(n, order - 1)


@dataclass
class _Blocks:
    """Blocks Psi_1..Psi_N of a lifted state, back to back in one contiguous
    complex vector; _offsets() gives where each block starts."""

    n: int
    order: int
    vector: np.ndarray

    def __post_init__(self):
        self.vector = np.asarray(self.vector, dtype=complex)
        name = type(self).__name__
        if self.n < 1 or self.order < 1:
            raise ConfigError(f"{name}: need n >= 1 and order >= 1")
        size = self._offsets()[-1]
        if self.vector.shape != (size,):
            raise ConfigError(
                f"{name}: vector has shape {self.vector.shape}, expected ({size},)")

    @property
    def blocks(self) -> list:
        """Views of the blocks Psi_1..Psi_N into the flat vector."""
        offsets = self._offsets()
        return [self.vector[offsets[j]:offsets[j + 1]] for j in range(self.order)]

    def all_finite(self) -> bool:
        return bool(np.isfinite(self.vector).all())


class LiftedState(_Blocks):
    """A symmetric lifted state: block j holds the monomials psi_c, |c| = j,
    of Psi_j (see problem.monomial_index)."""

    def _offsets(self) -> list:
        return [monomial_count(self.n, j) for j in range(self.order + 1)]

    def norm(self, p: float = 2) -> float:
        """Tensor p-norm: (sum_c multinom(|c|; c) |psi_c|^p)^(1/p)."""
        weights = monomial_basis(self.n, self.order).weights
        return vector_p_norm(self.vector, p, weights)


class MonomialBasis(NamedTuple):
    """Monomials w^c, 1 <= |c| <= N; see monomial_basis."""

    offsets: tuple
    counts: np.ndarray
    parent: np.ndarray
    symbol: np.ndarray
    up_t: np.ndarray
    weights: np.ndarray

    @property
    def n(self) -> int:
        return self.counts.shape[1]

    @property
    def order(self) -> int:
        return len(self.offsets) - 1

    @property
    def up(self) -> np.ndarray:
        """(M_<N, n) view of up_t: up[c, s] is the index of c + e_s."""
        return self.up_t.T

    def leading(self, order: int) -> "MonomialBasis":
        """The basis of a lower order N', without rebuilding it: monomials
        are enumerated block by block and c + e_s of a monomial below block
        N' lies in a block up to N', so every field is a leading slice.
        up_t is copied to a contiguous array, which apply_LN gathers faster
        than a strided view."""
        if not 1 <= order <= self.order:
            raise ConfigError(
                f"MonomialBasis.leading: order {order} outside 1..{self.order}")
        size, coupled = self.offsets[order], self.offsets[order - 1]
        return MonomialBasis(
            self.offsets[:order + 1], self.counts[:size], self.parent[:size],
            self.symbol[:size], np.ascontiguousarray(self.up_t[:, :coupled]),
            self.weights[:size])


def monomial_basis(n: int, order: int) -> MonomialBasis:
    """Monomials of blocks 1..N, block by block; inside a block in
    canonical-slot order (see problem.monomial_index).  With M monomials:

      offsets  block j holds monomials [offsets[j-1], offsets[j]);
      counts   (M, n) count vectors c;
      parent, symbol  (M,) c = parent + e_symbol, symbol the largest digit
               of c (parent -1 on block 1);
      up_t     (n, M_<N) index of c + e_s in row s, for the monomials below
               block N; `up` is its (M_<N, n) transposed view;
      weights  (M,) multinom(|c|; c), the number of tensor slots of count
               c, as floats (exact below 2^53).

    Refused with BudgetError when the generator on it would store more than
    DEFAULT_STATE_BUDGET entries; that is decided in closed form.
    """
    if n < 1 or order < 1:
        raise ConfigError("monomial_basis: need n >= 1 and order >= 1")
    entries = generator_entries(n, order)
    if entries > DEFAULT_STATE_BUDGET:
        raise BudgetError(
            f"the lifted state of n={n}, N={order} has "
            f"{monomial_count(n, order)} monomials and {entries} generator "
            f"entries, above the budget of {DEFAULT_STATE_BUDGET}"
        )
    eye = np.eye(n, dtype=np.int64)
    digits = np.arange(n)
    counts, last, weights = eye, digits, np.ones(n)
    # block-local: parent of each monomial and the up map of the block
    # before; block 1 hangs off the empty monomial, whose e_s is monomial s
    parent, up_before = np.zeros(n, dtype=np.intp), digits[None, :]
    offsets = [0, n]
    out = {"counts": [counts], "parent": [np.full(n, -1)], "symbol": [digits],
           "up": [np.zeros((0, n), dtype=np.intp)], "weights": [weights]}
    for j in range(2, order + 1):
        # the children of c are c + e_s, s >= last(c), in that order
        fan = n - last
        first = np.cumsum(fan) - fan
        child_parent = np.repeat(np.arange(last.size), fan)
        child_symbol = np.arange(child_parent.size) - first[child_parent] \
            + last[child_parent]
        # c + e_s for s < last(c) is the child (q, last(c)) of
        # q = c - e_last + e_s = up_before[parent(c), s]
        q = up_before[parent]
        up = np.where(digits >= last[:, None],
                      first[:, None] + digits - last[:, None],
                      first[q] + last[:, None] - last[q])
        counts = counts[child_parent] + eye[child_symbol]
        weights = weights[child_parent] * j / counts[np.arange(counts.shape[0]),
                                                     child_symbol]
        out["counts"].append(counts)
        out["parent"].append(offsets[-2] + child_parent)
        out["symbol"].append(child_symbol)
        out["up"].append(offsets[-1] + up)
        out["weights"].append(weights)
        offsets.append(offsets[-1] + child_parent.size)
        parent, last, up_before = child_parent, child_symbol, up
    up_t = np.concatenate([part.T for part in out.pop("up")], axis=1)
    return MonomialBasis(tuple(offsets), up_t=up_t,
                         **{key: np.concatenate(parts) for key, parts in out.items()})


def lift_initial(rescaled: RescaledProblem, order: int,
                 basis: MonomialBasis | None = None) -> LiftedState:
    """Initial lifted state: block j holds the monomials of w0 of degree j,
    the entries of its j-th Kronecker power.  See lift_point for `basis`."""
    return lift_point(rescaled.w0, order, basis)


def lift_point(w: np.ndarray, order: int,
               basis: MonomialBasis | None = None) -> LiftedState:
    """Lift an arbitrary point w = e^{ix}: each monomial w^c is its
    parent's times w_symbol, the product the Kronecker power forms at the
    canonical slot of c.  `basis` is monomial_basis(n, N) of the same n and
    N when the caller already has it, or is built here."""
    w = np.asarray(w, dtype=complex).ravel()
    n = w.shape[0]
    if basis is None:
        basis = monomial_basis(n, order)
    elif (basis.n, basis.order) != (n, order):
        raise ConfigError(f"lift_point: the basis is not one of n={n}, N={order}")
    mono = np.empty(basis.offsets[-1], dtype=complex)
    mono[:n] = w
    for lo, hi in zip(basis.offsets[1:-1], basis.offsets[2:]):
        mono[lo:hi] = mono[basis.parent[lo:hi]] * w[basis.symbol[lo:hi]]
    return LiftedState(n, order, mono)


@dataclass
class LinearOperatorLN:
    """Truncated lifted generator on monomial coordinates.  Built once, at
    construction: the generator's two tables on the monomial basis (given,
    or monomial_basis(n, N) built here),

      diagonal  (M,) i c.F0;
      coupling  (n, M_<N) i sum_r c_r F1[r, s] in row s, the entry of
                column basis.up_t[s, c] in row c.
    """

    order: int
    n: int
    f0: np.ndarray
    f1: np.ndarray
    basis: MonomialBasis | None = field(default=None, repr=False)
    diagonal: np.ndarray = field(init=False, repr=False)
    coupling: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.f0 = np.asarray(self.f0, dtype=complex).ravel()
        self.f1 = np.atleast_2d(np.asarray(self.f1, dtype=complex))
        if self.order < 1:
            raise ConfigError("LinearOperatorLN: order must be >= 1")
        if self.f0.shape != (self.n,) or self.f1.shape != (self.n, self.n):
            raise ConfigError("LinearOperatorLN: coefficient shapes inconsistent")
        basis = self.basis
        if basis is None:
            basis = self.basis = monomial_basis(self.n, self.order)
        elif (basis.n, basis.order) != (self.n, self.order):
            raise ConfigError(
                f"LinearOperatorLN: the basis is not one of n={self.n}, N={self.order}")
        coupled = basis.up_t.shape[1]
        self.diagonal = 1j * (basis.counts @ self.f0)
        self.coupling = np.ascontiguousarray(
            (1j * (basis.counts[:coupled] @ self.f1)).T)

    @classmethod
    def from_rescaled(cls, rescaled: RescaledProblem, order: int) -> "LinearOperatorLN":
        return cls(order=order, n=rescaled.n, f0=rescaled.f0, f1=rescaled.f1)

    @property
    def size(self) -> int:
        """Length of the flat tensor state (the dense reference's rows)."""
        return total_size(self.n, self.order)

    @property
    def monomial_size(self) -> int:
        """Number of monomial coordinates, sum_j C(n+j-1, j)."""
        return self.basis.offsets[-1]

    def norm_1(self) -> float:
        """Induced 1-norm of the generator, its largest column sum of
        absolute values, from the tables."""
        columns = np.abs(self.diagonal)
        columns += np.bincount(self.basis.up_t.ravel(),
                               weights=np.abs(self.coupling).ravel(),
                               minlength=columns.size)
        return float(columns.max())


def apply_LN(op: LinearOperatorLN, x: np.ndarray) -> np.ndarray:
    """Action of the truncated generator on monomial coordinates x, as a
    fresh vector: the diagonal times x, plus, on the monomials below block
    N, the couplings times x gathered at c + e_s, summed over s.  Expanded,
    it is block j = B_j^(0) Psi_j + B_{j+1}^(1) Psi_{j+1}, with the coupling
    term dropped on the last block."""
    if np.shape(x) != op.diagonal.shape:
        raise ConfigError(
            f"apply_LN: expected {op.monomial_size} monomial coordinates, "
            f"got shape {np.shape(x)}"
        )
    y = op.diagonal * x
    gathered = x[op.basis.up_t]
    gathered *= op.coupling
    y[:op.coupling.shape[1]] += np.add.reduce(gathered, 0)
    return y


def dense_f1_tilde(f1: np.ndarray) -> np.ndarray:
    """Stacked-row coupling matrix (n x n^2): row r holds row r of F1 in
    column block r."""
    f1 = np.atleast_2d(np.asarray(f1, dtype=complex))
    n = f1.shape[0]
    out = np.zeros((n, n * n), dtype=complex)
    for r in range(n):
        out[r, r * n:(r + 1) * n] = f1[r]
    return out
