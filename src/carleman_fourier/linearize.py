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
block N.  The layout is stated once, by a MonomialBasis: a LiftedState, a
lift and a LinearOperatorLN all hold one and read n and N from it.  The
operator builds its two tables once, on its basis, and apply_LN is a gather
over the up map of that basis.  The basis depends on (n, N) alone, and that
of a lower order is its leading section (MonomialBasis.leading), so
operators of any coefficients and order up to N can share one.  B states
laid out as columns and flattened are one state of the B-fold
block-diagonal operator (block_operator), whose tables are the operator's
own repeated once per column, so the same apply_LN steps them all at once.

The tensor layout (block j in C^{n^j}) is the reference the monomial path
is checked against; it lives in the tensor module, whose expand() puts a
LiftedState into it.
"""

from __future__ import annotations

import functools
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


class MonomialBasis(NamedTuple):
    """Monomials w^c, 1 <= |c| <= N; see monomial_basis for the fields
    and their dtypes."""

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
      counts   (M, n) count vectors c, in the smallest unsigned type that
               holds every order the state budget admits at n (uint32 at
               n = 1, uint16 at n = 2, uint8 from n = 3 on);
      parent, symbol  (M,) c = parent + e_symbol, symbol the largest digit
               of c (parent -1 on block 1); parent int32, symbol the
               smallest unsigned type that holds n - 1;
      up_t     (n, M_<N) index of c + e_s in row s, for the monomials below
               block N, as intp;
      weights  (M,) multinom(|c|; c), the number of tensor slots of count
               c, as floats (exact below 2^53).

    The integer types depend on n alone, so a leading section is the basis
    of its order to the dtype; at (16, 5) the basis takes 1.21 MB, where
    int64 counts, parent and symbol made it 3.71 MB.

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
    eye = np.eye(n, dtype=_count_dtype(n))
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
    # parent and symbol are built as intp; every entry fits the narrow type
    dtypes = {"counts": eye.dtype, "parent": np.int32,
              "symbol": np.min_scalar_type(n - 1), "weights": float}
    return MonomialBasis(tuple(offsets), up_t=up_t, **{
        key: np.concatenate(parts, dtype=dtypes[key], casting="unsafe")
        for key, parts in out.items()})


@functools.cache
def _count_dtype(n: int) -> np.dtype:
    """The smallest unsigned integer type that holds every order the state
    budget admits at n, so that a basis' counts (entries at most N) have a
    dtype of n alone, and a leading section's equal a fresh basis' (uint32
    at n = 1, uint16 at n = 2, uint8 from n = 3 on)."""
    for dtype in (np.uint8, np.uint16):
        if generator_entries(n, np.iinfo(dtype).max + 1) > DEFAULT_STATE_BUDGET:
            return np.dtype(dtype)
    return np.dtype(np.uint32)  # the budget admits no order above 2^22


@dataclass
class LiftedState:
    """A symmetric lifted state: block j holds the monomials psi_c, |c| = j,
    of Psi_j (see problem.monomial_index), back to back in one contiguous
    complex vector laid out by `basis`."""

    basis: MonomialBasis = field(repr=False)
    vector: np.ndarray

    def __post_init__(self):
        self.vector = np.asarray(self.vector, dtype=complex)
        size = self.basis.offsets[-1]
        if self.vector.shape != (size,):
            raise ConfigError(
                f"LiftedState: vector has shape {self.vector.shape}, expected ({size},)")

    @property
    def n(self) -> int:
        return self.basis.n

    @property
    def order(self) -> int:
        return self.basis.order

    @property
    def blocks(self) -> list:
        """Views of the blocks Psi_1..Psi_N into the flat vector."""
        offsets = self.basis.offsets
        return [self.vector[offsets[j]:offsets[j + 1]] for j in range(self.order)]

    def all_finite(self) -> bool:
        return bool(np.isfinite(self.vector).all())

    def norm(self, p: float = 2) -> float:
        """Tensor p-norm: (sum_c multinom(|c|; c) |psi_c|^p)^(1/p)."""
        return vector_p_norm(self.vector, p, self.basis.weights)


def lift_initial(rescaled: RescaledProblem, order: int) -> LiftedState:
    """Initial lifted state: block j holds the monomials of w0 of degree j,
    the entries of its j-th Kronecker power."""
    return lift_point(rescaled.w0, monomial_basis(rescaled.n, order))


def lift_point(w: np.ndarray, basis: MonomialBasis) -> LiftedState:
    """Lift an arbitrary point w = e^{ix} onto `basis`: each monomial w^c is
    its parent's times w_symbol, the product the Kronecker power forms at
    the canonical slot of c."""
    w = np.asarray(w, dtype=complex).ravel()
    if w.shape != (basis.n,):
        raise ConfigError(
            f"lift_point: a point of {w.size} components for a basis of n={basis.n}")
    mono = np.empty(basis.offsets[-1], dtype=complex)
    mono[:basis.n] = w
    # numpy converts a narrow index table on every gather, at about 2 us
    # each: once here is cheaper than twice per block
    parent, symbol = basis.parent.astype(np.intp), basis.symbol.astype(np.intp)
    # a monomial past the double range is inf or nan; forward_solve's
    # finiteness check on the initial state reports it
    with np.errstate(over="ignore", invalid="ignore"):
        for lo, hi in zip(basis.offsets[1:-1], basis.offsets[2:]):
            mono[lo:hi] = mono[parent[lo:hi]] * w[symbol[lo:hi]]
    return LiftedState(basis, mono)


@dataclass
class LinearOperatorLN:
    """Truncated lifted generator on the monomial coordinates of `basis`.
    Built once, at construction: the generator's two tables,

      diagonal  (M,) i c.F0;
      coupling  (n, M_<N) i sum_r c_r F1[r, s] in row s, the entry of
                column up_t[s, c] in row c;

    and up_t, the up map of the basis, as the third table apply_LN reads.
    """

    basis: MonomialBasis = field(repr=False)
    f0: np.ndarray
    f1: np.ndarray
    diagonal: np.ndarray = field(init=False, repr=False)
    coupling: np.ndarray = field(init=False, repr=False)
    up_t: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.f0 = np.asarray(self.f0, dtype=complex).ravel()
        self.f1 = np.atleast_2d(np.asarray(self.f1, dtype=complex))
        n, basis = self.n, self.basis
        if self.f0.shape != (n,) or self.f1.shape != (n, n):
            raise ConfigError(
                f"LinearOperatorLN: coefficients of shapes {self.f0.shape} and "
                f"{self.f1.shape} for a basis of n={n}")
        coupled = basis.up_t.shape[1]
        self.diagonal = 1j * (basis.counts @ self.f0)
        self.coupling = np.ascontiguousarray(
            (1j * (basis.counts[:coupled] @ self.f1)).T)
        self.up_t = basis.up_t

    @classmethod
    def from_rescaled(cls, rescaled: RescaledProblem, order: int) -> "LinearOperatorLN":
        return cls(monomial_basis(rescaled.n, order), rescaled.f0, rescaled.f1)

    @property
    def n(self) -> int:
        return self.basis.n

    @property
    def order(self) -> int:
        return self.basis.order

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


class BlockOperator(NamedTuple):
    """The B-fold block-diagonal generator on B states laid out as columns
    of an (M, B) array and flattened: entry c B + b is monomial c of state
    b.  It holds the three tables apply_LN reads, as LinearOperatorLN names
    them; see block_operator."""

    diagonal: np.ndarray
    coupling: np.ndarray
    up_t: np.ndarray


def block_operator(op: LinearOperatorLN, width: int) -> BlockOperator:
    """The B-fold operator of op, B = width: the diagonal and the couplings
    repeated once per column, and the up map up_t[s, c] B + b.  Entry c B + b
    goes through the arithmetic of entry c of a single apply, so column b of
    apply_LN on it equals apply_LN of op on state b bit for bit."""
    if width < 1:
        raise ConfigError(f"block_operator: width must be >= 1, got {width}")
    up_t = op.up_t * width
    return BlockOperator(
        np.repeat(op.diagonal, width), np.repeat(op.coupling, width, axis=1),
        (up_t[:, :, None] + np.arange(width)).reshape(up_t.shape[0], -1))


def apply_LN(op: LinearOperatorLN | BlockOperator, x: np.ndarray) -> np.ndarray:
    """Action of the truncated generator on monomial coordinates x, one
    state of shape (M,), as a fresh array: the diagonal times x, plus, on
    the monomials below block N, the couplings times x gathered at c + e_s,
    summed over s.  Expanded, it is block j = B_j^(0) Psi_j + B_{j+1}^(1)
    Psi_{j+1}, with the coupling term dropped on the last block.  On a
    BlockOperator, x is the flat column layout of its B states."""
    shape = getattr(x, "shape", None)
    if shape != op.diagonal.shape:
        raise ConfigError(
            f"apply_LN: expected {op.diagonal.size} monomial coordinates, got "
            f"{type(x).__name__} of shape {shape}"
        )
    y = op.diagonal * x
    # (n, M_<N): s is axis 0.  Fancy indexing is a few percent faster here
    # than take
    gathered = x[op.up_t]
    if gathered.size > 1:
        gathered *= op.coupling
    else:
        # numpy rounds an in-place complex product of one element unlike
        # the same product inside a wider array (the out-of-place one
        # agrees), which would break block_operator's column equality
        gathered = gathered * op.coupling
    # summed over s in place into row 0, in the order np.add.reduce takes
    # along axis 0, without its temporary
    summed = gathered[0]
    for s in range(1, len(gathered)):
        summed += gathered[s]
    y[:summed.size] += summed
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
