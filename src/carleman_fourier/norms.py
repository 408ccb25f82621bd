"""Vector and operator norms, logarithmic norm, matrix exponential and
growth envelopes.

All bound machinery in this package is expressed through a handful of norm
primitives: the vector p-norm (p in [1, inf]), the maximum-row q-norm of a
matrix, exact induced norms for p in {1, 2}, and the logarithmic 2-norm
mu2(A) = lambda_max((A + A^dagger)/2).  The growth envelope pairs a sampled
lower estimate of sup_t ||exp(At)||_2 with the certified analytic upper
envelope exp(max(mu2, 0) T); stability claims are always certified through
mu2 <= 0, never through the sampled grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError

# matrix_exp rejects larger 2-norms; accuracy is only vouched for below this
EXPM_NORM_CAP = 50.0

# matrix_exp rejects larger dimensions (desk-scale guard)
EXPM_DIM_CAP = 10_000


def conjugate_exponent(p: float) -> float:
    """Return q with 1/p + 1/q = 1, using the convention 1 <-> inf."""
    if p < 1:
        raise ConfigError(f"norm exponent must satisfy p >= 1, got {p}")
    if p == 1:
        return math.inf
    if math.isinf(p):
        return 1.0
    return p / (p - 1.0)


@dataclass(frozen=True)
class NormKind:
    """A norm exponent p in [1, inf] together with its conjugate.

    inf is admitted (as the conjugate of p = 1 and for max-row norms) even
    though most bound statements quantify over finite p.
    """

    p: float

    def __post_init__(self):
        if self.p < 1:
            raise ConfigError(f"NormKind: p must be >= 1, got {self.p}")

    @property
    def q(self) -> float:
        return conjugate_exponent(self.p)


def vector_p_norm(a, p: float, weights=None) -> float:
    """p-norm (sum_j |a_j|^p)^(1/p) of a complex vector; p = inf gives max.
    Positive `weights` w_j give (sum_j w_j |a_j|^p)^(1/p) instead."""
    a = np.asarray(a)
    if a.size == 0:
        raise ConfigError("vector_p_norm: empty vector")
    if p < 1:
        raise ConfigError(f"vector_p_norm: p must be >= 1, got {p}")
    mags = np.abs(a.ravel())
    top = float(mags.max())
    if math.isinf(p) or top == 0.0:
        return top
    # factor out the max so large p does not overflow
    terms = (mags / top) ** p
    total = np.sum(terms) if weights is None else np.dot(weights, terms)
    return top * float(total) ** (1.0 / p)


def row_q_norm(a, q: float) -> float:
    """Maximum over rows of the vector q-norm (max-row norm of a matrix)."""
    a = np.asarray(a)
    if a.size == 0:
        raise ConfigError("row_q_norm: empty matrix")
    if q < 1:
        raise ConfigError(f"row_q_norm: q must be >= 1, got {q}")
    a = np.atleast_2d(a)
    return max(vector_p_norm(row, q) for row in a)


def op_norm(a, p: int) -> float:
    """Induced operator norm for p in {1, 2} (exact, dense evaluation).

    p=1 is the maximum absolute column sum, p=2 the largest singular value.
    Other exponents have no closed form; the bound machinery reaches them
    through the row-norm identities instead.
    """
    a = np.atleast_2d(np.asarray(a))
    if p == 1:
        return float(np.abs(a).sum(axis=0).max())
    if p == 2:
        return float(np.linalg.norm(a, 2))
    raise ConfigError(f"op_norm: only p in {{1, 2}} is computed exactly, got {p}")


def log_norm_2(a) -> float:
    """Logarithmic 2-norm: largest eigenvalue of the Hermitian part of A."""
    a = np.atleast_2d(np.asarray(a, dtype=complex))
    if a.shape[0] != a.shape[1]:
        raise ConfigError("log_norm_2: matrix must be square")
    herm = (a + a.conj().T) / 2.0
    return float(np.linalg.eigvalsh(herm)[-1])


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
    # imported here: only the dense diagnostics (expm_at, growth_envelope,
    # propagate_dense) need scipy; no run path of the package imports it
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


@dataclass(frozen=True)
class GrowthEnvelope:
    """Sampled growth of ||exp(At)||_2 over [0, T] plus analytic envelopes.

    c_estimate is a certified *lower* estimate of sup_t ||exp(At)||_2 (the
    sup over continuous t cannot be sampled exactly); envelope is the
    certified upper bound exp(max(mu2, 0) T).  gamma_bound is an optional
    extra upper envelope supplied by callers that know the lifted-operator
    structure (see gamma_growth_bound).
    """

    horizon: float
    samples: list = field(repr=False)
    c_estimate: float = 0.0
    mu2: float = 0.0
    envelope: float = 0.0
    gamma_bound: float | None = None


def growth_envelope(a, horizon: float, grid_points: int = 33,
                    gamma_bound: float | None = None) -> GrowthEnvelope:
    """Sample ||exp(At)||_2 on a uniform grid over [0, horizon] with one
    refinement pass around the maximum.
    """
    if grid_points < 2:
        raise ConfigError("growth_envelope: grid_points must be >= 2")
    a = np.atleast_2d(np.asarray(a, dtype=complex))
    ts = np.linspace(0.0, horizon, grid_points)
    samples = [(float(t), op_norm(expm_at(a, float(t)), 2)) for t in ts]
    values = [v for (_, v) in samples]
    imax = int(np.argmax(values))
    lo = samples[max(imax - 1, 0)][0]
    hi = samples[min(imax + 1, len(samples) - 1)][0]
    if hi > lo:
        for t in np.linspace(lo, hi, grid_points):
            samples.append((float(t), op_norm(expm_at(a, float(t)), 2)))
    c_estimate = max(v for (_, v) in samples)
    mu2 = log_norm_2(a)
    envelope = math.exp(max(mu2, 0.0) * horizon)
    if c_estimate > envelope + 1e-9:
        raise ArithmeticError(
            f"sampled growth {c_estimate} exceeds analytic envelope {envelope}"
        )
    samples.sort()
    return GrowthEnvelope(horizon=float(horizon), samples=samples,
                          c_estimate=c_estimate, mu2=mu2, envelope=envelope,
                          gamma_bound=gamma_bound)


def gamma_growth_bound(order: int, horizon: float, nu: float,
                       g1_row_q: float, mu0: float) -> float:
    """Analytic upper envelope for sup_t ||exp(L t)||_p of the truncated
    lifted operator in the non-dissipative regime:

        exp(T (N nu ||G1||_row,q + max{-mu0, -N mu0})).
    """
    if order < 1:
        raise ConfigError("gamma_growth_bound: order must be >= 1")
    if horizon < 0:
        raise ConfigError("gamma_growth_bound: horizon must be >= 0")
    if nu <= 0:
        raise ConfigError("gamma_growth_bound: nu must be positive")
    rate = order * nu * g1_row_q + max(-mu0, -order * mu0)
    return math.exp(horizon * rate)
