"""Numeric evaluation of the truncation-error bounds, stability
certificates and time-horizon formulas.

Every evaluator returns a BoundReport carrying the value and a log of
(condition, value, threshold, holds) entries so downstream CSVs are
self-documenting; hypotheses_met is read from the log.  Hypothesis failures
are reported, not raised: hypotheses_met is False, eta_bound_dissipative's
value becomes +inf, eta_bound_finite_time keeps its formula (sweeps plot
it) and stability_certificate keeps mu2.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, HypothesisViolation
from .linearize import LinearOperatorLN
from .norms import conjugate_exponent, log_norm_2, row_q_norm, vector_p_norm
from .problem import FourierOde, RescaledProblem
from .tensor import dense_LN

E = math.e

# mu2 <= this counts as a certified non-positive logarithmic norm
STABILITY_TOL = 1e-10


@dataclass(frozen=True)
class DissipativityReport:
    """Dissipativity data for an unrescaled problem at exponent p.

    mu0 = min_j Im(G0)_j and r_p = g1_row_q ||e^{iu0}||_p / mu0, with
    g1_row_q = ||G1||_row,q; mu0 and r_p are invariant under the rescaling.
    `dissipative` additionally requires r_p below min{1, ||e^{iu0}||_p /
    ||e^{iu0}||_2}, the branch needed by the stability certificate.  mu0 = 0
    with a nonzero coupling is the degenerate case (r_p = inf): it must be
    routed to the finite-time machinery.
    """

    mu0: float
    r_p: float
    p: float
    q: float
    g1_row_q: float
    condition_2norm: float
    dissipative: bool
    degenerate: bool


def check_dissipative(ode: FourierOde, p: float) -> DissipativityReport:
    if p < 1:
        raise ConfigError("check_dissipative: p must be >= 1")
    q = conjugate_exponent(p)
    mu0 = float(np.min(np.imag(ode.g0)))
    g1_row_q = row_q_norm(ode.g1, q)
    w_raw = np.exp(1j * ode.u0)
    norm_p = vector_p_norm(w_raw, p)
    norm_2 = vector_p_norm(w_raw, 2)
    condition = min(1.0, norm_p / norm_2)
    degenerate = mu0 == 0.0 and g1_row_q > 0.0
    if mu0 > 0.0:
        r_p = g1_row_q * norm_p / mu0
    elif g1_row_q == 0.0:
        r_p = 0.0
    else:
        r_p = math.inf
    dissipative = mu0 > 0.0 and r_p < condition
    return DissipativityReport(mu0=mu0, r_p=r_p, p=p, q=q, g1_row_q=g1_row_q,
                               condition_2norm=condition,
                               dissipative=dissipative, degenerate=degenerate)


@dataclass(frozen=True)
class BoundReport:
    """A bound value plus its recomputable hypothesis log."""

    value: float
    hypothesis_log: list = field(default_factory=list)

    @property
    def hypotheses_met(self) -> bool:
        """Whether every condition of the log holds."""
        return all(ok for (_c, _v, _t, ok) in self.hypothesis_log)

    def entry(self, condition: str):
        for item in self.hypothesis_log:
            if item[0] == condition:
                return item
        raise KeyError(condition)


def eta_bound_dissipative(report: DissipativityReport,
                          rescaled: RescaledProblem, order: int, k: int,
                          p: float) -> BoundReport:
    """Infinite-time truncation bound for block k:

        ||eta_k||_p <= gamma_p^{N+1} (||F1||_row,q / mu0)^{N+1-k},

    valid whenever the rescaled problem is dissipative in the p-norm.
    Under the canonical rescaling nu = ||e^{iu0}||_p / R_p the ratio equals
    one and the bound is R_p^{N+1} for every k.
    """
    if not 1 <= k <= order:
        raise ConfigError(f"eta_bound_dissipative: block {k} outside 1..{order}")
    q = conjugate_exponent(p)
    mu0 = float(np.min(np.imag(rescaled.f0)))
    f1_row_q = row_q_norm(rescaled.f1, q)
    gamma_p = rescaled.w0_norm(p)
    r_rescaled = f1_row_q * gamma_p / mu0 if mu0 > 0 else math.inf
    log = [
        ("mu0 > 0", mu0, 0.0, mu0 > 0.0),
        ("R_p(rescaled) < 1", r_rescaled, 1.0, r_rescaled < 1.0),
        ("R_p invariant", abs(r_rescaled - report.r_p),
         1e-9 * max(1.0, report.r_p),
         not math.isfinite(report.r_p)
         or abs(r_rescaled - report.r_p) <= 1e-9 * max(1.0, report.r_p)),
    ]
    bound = BoundReport(value=math.inf, hypothesis_log=log)
    if bound.hypotheses_met:
        # grouped as R_p^(N+1-k) gamma_p^k: at large nu gamma_p^(N+1) alone
        # underflows and (||F1||_row,q / mu0)^(N+1-k) alone overflows
        with contextlib.suppress(OverflowError):
            bound = BoundReport(r_rescaled ** (order + 1 - k) * gamma_p ** k, log)
    return bound


def upper_bounded_time(rescaled: RescaledProblem, r: float, p: float) -> float:
    """T_r, the horizon over which ||Psi_1(t)||_p stays below 1/r:

        T_r = ln(1/(r ||Psi_1(0)||_p)) / (Lambda_p (1 + 1/r)).
    """
    if r <= 1:
        raise ConfigError("upper_bounded_time: r must exceed 1")
    _rate, psi0, t_r = _finite_time_terms(rescaled, r, p)
    if r * psi0 >= 1.0:
        raise HypothesisViolation(
            f"upper_bounded_time: ||Psi_1(0)||_p = {psi0} is not below 1/r = {1 / r}",
            layer="bounds.upper_bounded_time",
            params={"p": p, "r": r, "psi1_0_norm_p": float(psi0)},
        )
    return t_r


def _finite_time_terms(rescaled: RescaledProblem, r: float, p: float) -> tuple:
    """||F0||_inf + ||F1||_row,q, ||Psi_1(0)||_p and T_r, with Lambda_p =
    max{||F0||_inf, ||F1||_row,q}; T_r is 0.0 when r ||Psi_1(0)||_p >= 1."""
    f0_inf = vector_p_norm(rescaled.f0, math.inf)
    f1_row_q = row_q_norm(rescaled.f1, conjugate_exponent(p))
    psi0 = rescaled.w0_norm(p)
    lam = max(f0_inf, f1_row_q)
    if r * psi0 >= 1.0:
        t_r = 0.0
    elif lam == 0.0:
        t_r = math.inf
    else:
        t_r = math.log(1.0 / (r * psi0)) / (lam * (1.0 + 1.0 / r))
    return f0_inf + f1_row_q, psi0, t_r


def eta_bound_finite_time(rescaled: RescaledProblem, order: int, r: float,
                          t: float, p: float) -> BoundReport:
    """Finite-time truncation bound on the whole error vector:

        ||eta(t)||_p <= (1/r) (e^{(||F0||_inf + ||F1||_row,q) t} / r)^N

    for t within T_r and ||Psi_1(0)||_p < 1/r.  The log also records
    T_max = min{T_r, ln(r)/(||F0||_inf + ||F1||_row,q)}, past which the
    bound stops shrinking with N.
    """
    if r <= 1:
        raise ConfigError("eta_bound_finite_time: r must exceed 1")
    rate, psi0, t_r = _finite_time_terms(rescaled, r, p)
    t_max = min(t_r, math.log(r) / rate) if rate > 0 else t_r
    log = [
        ("||Psi_1(0)||_p < 1/r", psi0, 1.0 / r, psi0 < 1.0 / r),
        ("t <= T_r", t, t_r, t <= t_r + 1e-12),
        ("N >= 2", order, 2, order >= 2),
        ("T_max", t_max, t_max, True),
    ]
    # unmet hypotheses are flagged, not masked: sweeps still plot the formula,
    # which is inf where it leaves the double range
    try:
        value = (1.0 / r) * (math.exp(rate * t) / r) ** order
    except OverflowError:
        value = math.inf
    return BoundReport(value=value, hypothesis_log=log)


def taylor_remainder_bound(j: int, k: int) -> float:
    """(e-1) j e^2 / (k+1)!: per-step-power Taylor remainder, valid when the
    caller has checked ||L||_p h <= 1 and m e^2/(k+1)! <= 1."""
    if j < 1 or k < 1:
        raise ConfigError("taylor_remainder_bound: j and k must be >= 1")
    return (E - 1.0) * j * E ** 2 / math.factorial(k + 1)


def stability_certificate(op: LinearOperatorLN) -> BoundReport:
    """Certify sup_t ||exp(L t)||_2 <= 1 via the logarithmic norm.

    The certificate is mu2(L) <= 0 (within STABILITY_TOL); the grid-sampled
    growth estimate is never used for certification.  The block-Gershgorin
    envelope max_j{-j mu0 + (2j-1)/2 ||F1||_row,2} is evaluated alongside
    and checked to dominate mu2.
    """
    dense = dense_LN(op)
    mu2 = log_norm_2(dense)
    mu0 = float(np.min(np.imag(op.f0)))
    f1_tilde_2 = row_q_norm(op.f1, 2)
    envelope = max(
        -j * mu0 + 0.5 * (2 * j - 1) * f1_tilde_2
        for j in range(1, op.order + 1)
    )
    log = [
        ("mu2 <= 0", mu2, STABILITY_TOL, mu2 <= STABILITY_TOL),
        ("gershgorin >= mu2", envelope, mu2, envelope >= mu2 - 1e-12),
    ]
    return BoundReport(value=mu2, hypothesis_log=log)


def t_max_nondissipative(rescaled: RescaledProblem, r: float, p: float,
                         alpha: float) -> float:
    """Largest final time covered by the non-dissipative recipe:

        min{ ln(nu / (r ||e^{iu0}||_p)) / (max{alpha, nu ||G1||_row,q} (1+1/r)),
             ln(r/e) / (alpha + nu ||G1||_row,q) }.
    """
    if r < E:
        raise ConfigError("t_max_nondissipative: r must be >= e")
    q = conjugate_exponent(p)
    nu = rescaled.nu
    # nu ||G1||_row,q = ||F1||_row,q and ||e^{iu0}||_p = nu ||w0||_p
    f1_row_q = row_q_norm(rescaled.f1, q)
    eiu0_p = nu * rescaled.w0_norm(p)
    ratio = nu / (r * eiu0_p)
    if ratio <= 1.0:
        raise HypothesisViolation(
            f"t_max_nondissipative: nu = {nu} does not exceed "
            f"r ||e^(i u0)||_p = {r * eiu0_p}",
            layer="bounds.t_max_nondissipative",
            params={"p": p, "r": r, "nu": nu, "eiu0_p": float(eiu0_p)},
        )
    rate = max(alpha, f1_row_q) * (1.0 + 1.0 / r)
    first = math.log(ratio) / rate if rate > 0 else math.inf
    second = math.log(r / E) / (alpha + f1_row_q) if alpha + f1_row_q > 0 else math.inf
    return min(first, second)
