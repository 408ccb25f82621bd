"""Problem data model, tensor-index combinatorics, rescaling, and direct
readout evaluation.

The input problem is du/dt = G0 + G1 e^{iu} with readout
g(u) = sum_j d_j e^{iu.j} over multi-indices j with 1 <= |j| <= K.
Rescaling shifts every variable by i ln(nu), which divides e^{iu} by nu,
multiplies G1 by nu and multiplies each readout coefficient by nu^{|j|}.

Blocks of the lifted state live in C^{n^k} under a tensor enumeration:
index l in [0, n^k) is read as k base-n digits (leftmost digit most
significant), and count(l) is the n-vector counting how often each symbol
occurs.  Multi-indices therefore appear with multiplicity; readout
coefficients are placed on the lexicographically smallest slot with the
right count (the canonical slot).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .norms import vector_p_norm


@dataclass(frozen=True)
class FourierOde:
    """The unrescaled problem du/dt = G0 + G1 e^{iu}, u(0) = u0."""

    n: int
    g0: np.ndarray
    g1: np.ndarray
    u0: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "g0", np.asarray(self.g0, dtype=complex).ravel())
        object.__setattr__(self, "g1", np.atleast_2d(np.asarray(self.g1, dtype=complex)))
        object.__setattr__(self, "u0", np.asarray(self.u0, dtype=complex).ravel())
        if self.n < 1:
            raise ConfigError("FourierOde: n must be >= 1")
        if self.g0.shape != (self.n,):
            raise ConfigError(f"FourierOde: G0 must have length n={self.n}")
        if self.g1.shape != (self.n, self.n):
            raise ConfigError(f"FourierOde: G1 must be {self.n}x{self.n}")
        if self.u0.shape != (self.n,):
            raise ConfigError(f"FourierOde: u0 must have length n={self.n}")
        if not all(np.isfinite(a).all() for a in (self.g0, self.g1, self.u0)):
            raise ConfigError("FourierOde: G0, G1 and u0 must be finite")


@dataclass(frozen=True)
class ReadoutSpec:
    """Readout g(u) = sum d_j e^{iu.j}; keys are n-tuples with 1 <= |j| <= K."""

    degree: int
    coeffs: dict

    def __post_init__(self):
        if self.degree < 1:
            raise ConfigError("ReadoutSpec: degree K must be >= 1")
        if not self.coeffs:
            raise ConfigError("ReadoutSpec: need at least one coefficient")
        clean = {}
        width = None
        for key, val in self.coeffs.items():
            key = tuple(int(v) for v in key)
            if width is None:
                width = len(key)
            elif len(key) != width:
                raise ConfigError("ReadoutSpec: inconsistent multi-index lengths")
            if any(v < 0 for v in key):
                raise ConfigError(f"ReadoutSpec: negative entry in multi-index {key}")
            total = sum(key)
            if not 1 <= total <= self.degree:
                raise ConfigError(
                    f"ReadoutSpec: multi-index {key} has weight {total}, "
                    f"outside 1..{self.degree}"
                )
            clean[key] = complex(val)
            if not np.isfinite(clean[key]):
                raise ConfigError(f"ReadoutSpec: coefficient of {key} is not finite")
        object.__setattr__(self, "coeffs", clean)

    @property
    def n(self) -> int:
        return len(next(iter(self.coeffs)))

    def coeff_vector_norm(self, p: float) -> float:
        """p-norm of the coefficient vector d under the canonical-slot
        convention (each multi-index contributes once)."""
        return vector_p_norm(np.array(list(self.coeffs.values())), p)


@dataclass(frozen=True)
class RescaledProblem:
    """The problem after the shift x = u + i ln(nu).

    F0 = G0, F1 = nu G1, w0 = e^{i x0} = e^{i u0}/nu, gamma = ||w0||_2 and
    c_j = nu^{|j|} d_j.
    """

    nu: float
    f0: np.ndarray
    f1: np.ndarray
    x0: np.ndarray
    w0: np.ndarray
    gamma: float
    c_coeffs: dict = field(default_factory=dict)

    @property
    def n(self) -> int:
        return self.f0.shape[0]

    def w0_norm(self, p: float) -> float:
        """||Psi_1(0)||_p of the rescaled problem."""
        return vector_p_norm(self.w0, p)

    def c_vector_norm(self, p: float) -> float:
        """p-norm of the rescaled coefficient vector c (canonical slots)."""
        return vector_p_norm(np.array(list(self.c_coeffs.values())), p)


def rescale(ode: FourierOde, readout: ReadoutSpec | None, nu: float) -> RescaledProblem:
    """Apply the variable shift x = u + i ln(nu) and rescale coefficients."""
    if nu <= 0:
        raise ConfigError(f"rescale: nu must be positive, got {nu}")
    if readout is not None and readout.n != ode.n:
        raise ConfigError("rescale: readout dimension does not match ODE")
    x0 = ode.u0 + 1j * np.log(nu)
    w0 = np.exp(1j * ode.u0) / nu
    c_coeffs = {}
    if readout is not None:
        c_coeffs = {
            key: (nu ** sum(key)) * val for key, val in readout.coeffs.items()
        }
    return RescaledProblem(
        nu=float(nu),
        f0=ode.g0.copy(),
        f1=nu * ode.g1,
        x0=x0,
        w0=w0,
        gamma=float(np.linalg.norm(w0)),
        c_coeffs=c_coeffs,
    )


@dataclass(frozen=True)
class MultiIndexCodec:
    """Tensor enumeration of C^{n^k}: flat index <-> base-n digit string.

    Digits are read most-significant first, so flat index l has digits
    (l_1, ..., l_k) with l = sum_a l_a n^(k-a).  Symbols are 0-based here
    (symbol 0 plays the role of coordinate 1).
    """

    n: int
    k: int

    def __post_init__(self):
        if self.n < 1 or self.k < 1:
            raise ConfigError("MultiIndexCodec: need n >= 1 and k >= 1")

    @property
    def size(self) -> int:
        return self.n ** self.k

    def digits(self, tensor_index: int) -> tuple:
        """Base-n digit string of a flat index, most significant first."""
        if not 0 <= tensor_index < self.size:
            raise ConfigError(
                f"tensor index {tensor_index} out of range [0, {self.size})"
            )
        out = []
        rem = tensor_index
        for _ in range(self.k):
            rem, dig = divmod(rem, self.n)
            out.append(dig)
        return tuple(reversed(out))

    def flat(self, digits) -> int:
        """Inverse of digits()."""
        if len(digits) != self.k:
            raise ConfigError("digit string has wrong length")
        idx = 0
        for d in digits:
            if not 0 <= d < self.n:
                raise ConfigError(f"digit {d} out of range [0, {self.n})")
            idx = idx * self.n + d
        return idx


def tensor_to_count(codec: MultiIndexCodec, tensor_index: int) -> tuple:
    """Count vector of the base-n digits of a tensor index: entry i counts
    how often symbol i occurs, so the counts always sum to k."""
    counts = [0] * codec.n
    for d in codec.digits(tensor_index):
        counts[d] += 1
    return tuple(counts)


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


def eval_readout(readout: ReadoutSpec, u) -> complex:
    """Evaluate g(u) = sum_j d_j e^{iu.j} directly."""
    u = np.asarray(u, dtype=complex).ravel()
    if u.shape[0] != readout.n:
        raise ConfigError(
            f"eval_readout: point has dimension {u.shape[0]}, expected {readout.n}"
        )
    total = 0j
    for key, val in readout.coeffs.items():
        total += val * np.exp(1j * np.dot(u, np.asarray(key)))
    return complex(total)


def expand_coeff_vector(readout: ReadoutSpec, rescaled: RescaledProblem,
                        order: int) -> list:
    """Blocks c_1..c_N with c_l in C^{n^l}: rescaled coefficient c_j sits on
    the canonical slot of block |j|, all other slots (and all blocks above
    the readout degree) are zero.

    Because every tensor slot with equal count carries an equal entry of the
    lifted state, the block-wise dot product c . Psi reproduces f(x) exactly
    regardless of how a coefficient is spread over duplicated slots; the
    canonical-slot choice pins down the norms used by the parameter recipes.
    """
    if order < readout.degree:
        raise ConfigError(
            f"expand_coeff_vector: order N={order} below readout degree "
            f"K={readout.degree}"
        )
    n = readout.n
    blocks = [np.zeros(n ** level, dtype=complex) for level in range(1, order + 1)]
    for key in readout.coeffs:
        if key not in rescaled.c_coeffs:
            raise ConfigError(
                f"expand_coeff_vector: rescaled problem carries no "
                f"coefficient for {key}; rescale with this readout"
            )
        blocks[sum(key) - 1][canonical_slot(key)] += rescaled.c_coeffs[key]
    return blocks
