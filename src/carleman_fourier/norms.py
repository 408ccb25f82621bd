"""Vector and operator norms and the logarithmic norm.

All bound machinery in this package is expressed through a handful of norm
primitives: the vector p-norm (p in [1, inf]), the maximum-row q-norm of a
matrix, exact induced norms for p in {1, 2}, and the logarithmic 2-norm
mu2(A) = lambda_max((A + A^dagger)/2).  Stability claims are always
certified through mu2 <= 0.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConfigError


def conjugate_exponent(p: float) -> float:
    """Return q with 1/p + 1/q = 1, using the convention 1 <-> inf."""
    if p < 1:
        raise ConfigError(f"norm exponent must satisfy p >= 1, got {p}")
    if p == 1:
        return math.inf
    if math.isinf(p):
        return 1.0
    return p / (p - 1.0)


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
