"""Numeric evaluation of the circuit-side scaling factors and query-count
expressions for a selected ParamSet.

Everything here is arithmetic on closed-form expressions: scaling factors of
the block encodings of the lifted generator, its resolvent-style inverse,
the initial-state and coefficient preparations, and the three query-count
expressions of the two solver regimes.  The counts are the explicit
arguments of the asymptotic statements evaluated with coefficient one on
each O(.) and every written constant (8e^2, 4e^3, ...) kept, so they are
relative units for comparing parameter regimes, not gate counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

from .errors import ConfigError, HypothesisViolation
from .params import ParamSet, s_scale

E = math.e


@dataclass(frozen=True)
class ResourceEstimate:
    """Evaluated scaling factors and query counts (relative units)."""

    regime: str
    alpha_LN: float
    alpha_Ainv: float
    encoding_error: float
    alpha_B: float
    alpha_C: float
    queries_G: float
    queries_u0: float
    queries_d: float
    improved_encoding: bool = False
    units: str = "query-cost units (explicit factors of the asymptotic expressions)"

    def as_dict(self) -> dict:
        """The fields by name; all are scalars, so the dict is shallow."""
        return {f.name: getattr(self, f.name) for f in fields(self)}


def scaling_alpha_LN(order: int, alpha: float, beta: float, nu: float) -> float:
    """Block-encoding scaling factor of the truncated lifted generator:

        (N/2) (N (alpha + nu beta) + alpha - nu beta).

    Always dominates the operator 2-norm of the generator.
    """
    if order < 1:
        raise ConfigError("scaling_alpha_LN: order must be >= 1")
    return 0.5 * order * (order * (alpha + nu * beta) + alpha - nu * beta)


def scaling_alpha_Ainv(steps: int, c_of_l: float, sigma: float, tau: float,
                       k: int) -> tuple:
    """Scaling factor and total error of the inverted time-step system:

        alpha = 8 e^2 m C(L),   error = sigma + 8 e^4 m^2 sqrt(k+1) tau C(L)^2.
    """
    cap = 1.0 / (4 * E ** 2 * steps * c_of_l * math.sqrt(k + 1))
    if tau > cap * (1 + 1e-12):
        raise HypothesisViolation(
            f"scaling_alpha_Ainv: tau = {tau} exceeds 1/(4 e^2 m C sqrt(k+1)) = {cap}",
            layer="estimator.scaling_alpha_Ainv",
            params={"m": steps, "C": c_of_l, "k": k, "tau": tau, "tau_cap": cap},
        )
    alpha = 8 * E ** 2 * steps * c_of_l
    error = sigma + 8 * E ** 4 * steps ** 2 * math.sqrt(k + 1) * tau * c_of_l ** 2
    return alpha, error


def scaling_alpha_B(gamma: float, order: int) -> float:
    """Initial-state preparation norm ||Psi^(N)(0)||_2 in closed form:

        sqrt(gamma^2 (1 - gamma^{2N}) / (1 - gamma^2)),   0 < gamma < 1.
    """
    if not 0 < gamma < 1:
        raise HypothesisViolation(
            f"scaling_alpha_B: need 0 < gamma < 1 (rescale first), got {gamma}",
            layer="estimator.scaling_alpha_B",
            params={"gamma": gamma},
        )
    if order < 1:
        raise ConfigError("scaling_alpha_B: order must be >= 1")
    g2 = gamma * gamma
    return math.sqrt(g2 * (1.0 - g2 ** order) / (1.0 - g2))


def scaling_alpha_C(nu: float, degree: int, d_norm2: float, steps: int) -> float:
    """Coefficient preparation factor max{nu, nu^K} ||d|| / sqrt(m), with
    ||d|| taken over the canonical-slot coefficient vector."""
    if nu <= 0 or steps < 1 or degree < 1:
        raise ConfigError("scaling_alpha_C: invalid inputs")
    return s_scale(nu, degree) * d_norm2 / math.sqrt(steps)


def _log2sq(x: float) -> float:
    """log_2(x)^2, the squared-log factor of the query expressions."""
    if x <= 0:
        return 0.0
    return math.log2(x) ** 2


def query_counts(ps: ParamSet, improved_encoding: bool = False) -> ResourceEstimate:
    """Evaluate the three query-count expressions for a ParamSet.

    The alternate inequality-testing encoding of the generator removes an
    N^3 factor from the generator-oracle count; expose it behind a flag so
    both figures can be compared.
    """
    n_f = float(ps.order)
    k_f = float(ps.taylor_order)
    eps = ps.epsilon
    if ps.regime == "dissipative":
        if ps.z is None or ps.r_p is None:
            raise ConfigError("query_counts: dissipative ParamSet is incomplete")
        horizon = ps.horizon
        z = ps.z
        coupling = ps.alpha + (
            ps.mu0 * ps.beta / ps.g1_row_q if ps.g1_row_q > 0 else 0.0
        )
        inner = (n_f * horizon) ** 1.5 * ps.alpha * math.sqrt(k_f) * z / eps
        queries_g = (
            (1.0 / eps) * n_f ** 4.5 * k_f ** 3.5 * horizon ** 1.5 * z
            * coupling * math.log(k_f) * _log2sq(inner)
        ) if z > 0 else 0.0
        queries_u0 = n_f ** 1.5 * math.sqrt(horizon) * z / eps
        queries_d = math.sqrt(n_f * horizon) * z / eps
        c_of_l = 1.0  # certified by the stability rescaling
    elif ps.regime == "nondissipative":
        if ps.gamma_bound is None or ps.t_max is None:
            raise ConfigError("query_counts: nondissipative ParamSet is incomplete")
        horizon = ps.t_max
        rate = ps.step_rate
        q_tilde = ps.s * ps.d_norm2 * ps.gamma_bound * math.sqrt(rate)
        inner = ((n_f * horizon) ** 1.5 * math.sqrt(k_f) * q_tilde * rate
                 * ps.gamma_bound / eps)
        queries_g = (
            (1.0 / eps) * n_f ** 4.5 * k_f ** 3.5 * horizon ** 1.5 * q_tilde
            * (ps.alpha + ps.nu * ps.beta) * math.log(k_f) * _log2sq(inner)
        )
        queries_u0 = n_f ** 1.5 * math.sqrt(horizon) * q_tilde / eps
        queries_d = math.sqrt(horizon * n_f) * q_tilde / eps
        c_of_l = ps.gamma_bound
    else:
        raise ConfigError(f"query_counts: unknown regime {ps.regime!r}")

    if improved_encoding:
        queries_g /= n_f ** 3

    alpha_ln = scaling_alpha_LN(ps.order, ps.alpha, ps.beta, ps.nu)
    alpha_ainv, enc_error = scaling_alpha_Ainv(
        ps.steps, c_of_l, ps.sigma, ps.tau, ps.taylor_order
    )
    alpha_b = scaling_alpha_B(ps.gamma, ps.order)
    alpha_c = scaling_alpha_C(ps.nu, ps.degree, ps.d_norm2, ps.steps)
    return ResourceEstimate(
        regime=ps.regime,
        alpha_LN=alpha_ln,
        alpha_Ainv=alpha_ainv,
        encoding_error=enc_error,
        alpha_B=alpha_b,
        alpha_C=alpha_c,
        queries_G=queries_g,
        queries_u0=queries_u0,
        queries_d=queries_d,
        improved_encoding=improved_encoding,
    )
