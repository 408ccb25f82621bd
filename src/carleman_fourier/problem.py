"""Problem data model, monomial combinatorics, rescaling, and direct
readout evaluation.

The input problem is du/dt = G0 + G1 e^{iu} with readout
g(u) = sum_j d_j e^{iu.j} over multi-indices j with 1 <= |j| <= K.
Rescaling shifts every variable by i ln(nu), which divides e^{iu} by nu,
multiplies G1 by nu and multiplies each readout coefficient by nu^{|j|}.

The lifted state holds the monomials w^c, w = e^{ix}, 1 <= |c| <= N: block
by block in |c|, and inside a block in the order of canonical slots.  The
canonical slot of a count vector c is the smallest index, read as |c|
base-n digits (leftmost digit most significant), whose digits occur c
times each: the digits of c in ascending order (tensor.canonical_slot).
It is where the tensor layout of block |c|, (e^{ix})^{tensor |c|}, holds
w^c first.  A readout coefficient d_j sits on the monomial w^j.
"""

from __future__ import annotations

import math
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
            raise ConfigError("FourierOde: ode.n must be >= 1")
        if self.g0.shape != (self.n,):
            raise ConfigError(f"FourierOde: ode.g0 must have length ode.n = {self.n}")
        if self.g1.shape != (self.n, self.n):
            raise ConfigError(f"FourierOde: ode.g1 must be ode.n x ode.n = {self.n}x{self.n}")
        if self.u0.shape != (self.n,):
            raise ConfigError(f"FourierOde: ode.u0 must have length ode.n = {self.n}")
        if not all(np.isfinite(a).all() for a in (self.g0, self.g1, self.u0)):
            raise ConfigError("FourierOde: ode.g0, ode.g1 and ode.u0 must be finite")


@dataclass(frozen=True)
class ReadoutSpec:
    """Readout g(u) = sum d_j e^{iu.j}; keys are n-tuples with 1 <= |j| <= K."""

    degree: int
    coeffs: dict

    def __post_init__(self):
        if self.degree < 1:
            raise ConfigError("ReadoutSpec: readout.K, the degree, must be >= 1")
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


def rescale(ode: FourierOde, readout: ReadoutSpec | None, nu: float) -> RescaledProblem:
    """Apply the variable shift x = u + i ln(nu) and rescale coefficients."""
    if nu <= 0:
        raise ConfigError(f"rescale: nu must be positive, got {nu}")
    if readout is not None and readout.n != ode.n:
        raise ConfigError("rescale: readout dimension does not match ODE")
    x0 = ode.u0 + 1j * np.log(nu)
    c_coeffs = {}
    if readout is not None:
        c_coeffs = {
            key: (nu ** sum(key)) * val for key, val in readout.coeffs.items()
        }
    # a nu far outside the double range overflows w0, F1 or gamma to inf;
    # the lift and the stepper's finiteness checks report it
    with np.errstate(over="ignore", invalid="ignore"):
        w0 = np.exp(1j * ode.u0) / nu
        f1 = nu * ode.g1
        gamma = float(np.linalg.norm(w0))
    return RescaledProblem(
        nu=float(nu),
        f0=ode.g0.copy(),
        f1=f1,
        x0=x0,
        w0=w0,
        gamma=gamma,
        c_coeffs=c_coeffs,
    )


def monomial_count(n: int, order: int) -> int:
    """Number of monomials w^c with 1 <= |c| <= order in n variables:
    sum_j C(n+j-1, j) = C(n+order, order) - 1."""
    return math.comb(n + order, order) - 1


def monomial_index(count) -> int:
    """Position of the monomial w^c in the lifted state: after the
    monomials of lower degree, then in canonical-slot order inside block
    |c|.  Each digit d of the canonical slot, with r digits after it and
    the previous digit `low`, is preceded by the C(n-v+r-1, r) strings that
    put a digit v in [low, d) there instead."""
    n, left = len(count), int(sum(count))
    index, low = monomial_count(n, left - 1), 0
    for digit in range(n):
        for _ in range(int(count[digit])):
            left -= 1
            # sum over v in [low, digit) of C(n-v+left-1, left)
            index += math.comb(n - low + left, left + 1) \
                - math.comb(n - digit + left, left + 1)
            low = digit
    return index


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
                        order: int) -> np.ndarray:
    """Coefficient vector c on the monomials of blocks 1..N: the rescaled
    coefficient c_j sits on the monomial w^j, every other entry is zero.

    The monomial w^c stands for every tensor entry of count c.  In the
    tensor layout c_j sits on one of them, the canonical slot, so the dot
    product c . Psi with the monomial vector equals the blockwise tensor
    dot product; the canonical-slot choice pins down the norms used by the
    parameter recipes.
    """
    if order < readout.degree:
        raise ConfigError(
            f"expand_coeff_vector: order N={order} below readout degree "
            f"K={readout.degree}"
        )
    out = np.zeros(monomial_count(readout.n, order), dtype=complex)
    for key in readout.coeffs:
        if key not in rescaled.c_coeffs:
            raise ConfigError(
                f"expand_coeff_vector: rescaled problem carries no "
                f"coefficient for {key}; rescale with this readout"
            )
        out[monomial_index(key)] += rescaled.c_coeffs[key]
    return out
