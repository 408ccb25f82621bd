"""Parameter-selection recipes for the two solver regimes.

Both recipes pick the truncation order N, Taylor order k, step count m (and
h = T/m) so the two classically realized error components (lifting
truncation and Taylor truncation) each stay below epsilon/4, and they also
emit the encoding-side parameters sigma, tau, delta, c1, c2 that only feed
the resource estimator.  Each derived quantity is logged with the formula
it came from so a ParamSet is reproducible by hand.

N is clamped below at max(1, K): the ceiling formula can return 0 for very
loose accuracy demands, and the readout needs blocks up to the Fourier
degree K to exist at all.  k is likewise clamped at 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from .bounds import DissipativityReport, check_dissipative, t_max_nondissipative
from .errors import ConfigError, HypothesisViolation
from .norms import conjugate_exponent, gamma_growth_bound, row_q_norm, vector_p_norm
from .problem import FourierOde, ReadoutSpec, rescale
from .taylor import step_count_for

E = math.e

# selection refuses Taylor orders above this instead of silently clamping
TAYLOR_ORDER_CAP = 500


@dataclass(frozen=True, slots=True)
class ParamSet:
    """Selected algorithm parameters plus the inputs they were derived from.
    Slotted: a sweep holds one per row, and with a per-instance dict of its
    30 fields each cost about 1.6 KB instead of 0.3 KB."""

    regime: str
    p: float
    horizon: float
    epsilon: float
    alpha: float
    beta: float
    nu: float
    order: int          # lifting truncation order N
    taylor_order: int   # Taylor order k
    steps: int          # step count m
    step_size: float    # h with m h = horizon
    sigma: float
    tau: float
    delta: float
    c1: float
    c2: float
    s: float
    degree: int = 1      # readout Fourier degree K
    mu0: float = 0.0
    g1_row_q: float = 0.0
    r_p: float | None = None
    z: float | None = None            # dissipative query-cost factor
    gamma_bound: float | None = None  # non-dissipative growth envelope
    r: float | None = None
    ell: float | None = None
    t_max: float | None = None
    d_norm2: float = 0.0
    d_normq: float = 0.0
    gamma: float = 0.0                # ||e^{i x0}||_2 after rescaling
    derivation_log: tuple = field(default_factory=tuple)

    @property
    def step_rate(self) -> float:
        """The rate r of the step count m = ceil(T N r): alpha + mu0 when
        dissipative, alpha + nu ||G1||_row,q otherwise."""
        if self.regime == "dissipative":
            return self.alpha + self.mu0
        return self.alpha + self.nu * self.g1_row_q

    def as_dict(self) -> dict:
        """The fields by name, shallow (dataclasses.asdict deep-copies):
        every field is a scalar but derivation_log, a list of lists here."""
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        out["derivation_log"] = [list(item) for item in self.derivation_log]
        return out


def _ceil_log2(x: float) -> int:
    if x <= 0:
        raise ConfigError("ceil(log2) of a non-positive value")
    return max(0, math.ceil(math.log2(x)))


def _taylor_order(primary: float, steps: int) -> int:
    k = max(_ceil_log2(primary), _ceil_log2(steps * E ** 2), 1)
    if k > TAYLOR_ORDER_CAP:
        raise ConfigError(
            f"selected Taylor order k={k} exceeds cap {TAYLOR_ORDER_CAP}; "
            "the accuracy demand is out of desk-scale range"
        )
    return k


def select_dissipative(ode: FourierOde, readout: ReadoutSpec, epsilon: float,
                       horizon: float, p: float = 2,
                       alpha: float | None = None,
                       beta: float | None = None,
                       report: DissipativityReport | None = None) -> ParamSet:
    """Parameter recipe under dissipative conditions.  `report` is
    check_dissipative(ode, p) when the caller already holds it.

    The rescaling is pinned to nu = ||e^{iu0}||_p / R_p = mu0/||G1||_row,q,
    which certifies a non-growing lifted generator.  A vanishing coupling
    (G1 = 0) makes that pin degenerate; the lifting is then exact above the
    readout degree, and nu falls back to the norm-control choice
    sqrt(2) ||e^{iu0}||_2 with the initial-state factor taken from the
    actual rescaled 2-norm.
    """
    if epsilon <= 0:
        raise ConfigError("select_dissipative: epsilon must be positive")
    if horizon <= 0:
        raise ConfigError("select_dissipative: horizon must be positive")
    if report is None:
        report = check_dissipative(ode, p)
    elif report.p != p:
        raise ConfigError(f"select_dissipative: a report at p={report.p} "
                          f"for a selection at p={p}")
    if not report.dissipative:
        raise HypothesisViolation(
            "select_dissipative: problem is not dissipative at p="
            f"{p} (mu0={report.mu0}, R_p={report.r_p}, "
            f"threshold={report.condition_2norm})",
            layer="params.select_dissipative",
        )
    q = report.q
    mu0, r_p, g1_row_q = report.mu0, report.r_p, report.g1_row_q
    if alpha is None:
        alpha = float(np.max(np.abs(ode.g0)))
    elif alpha < np.max(np.abs(ode.g0)) - 1e-12:
        raise ConfigError("select_dissipative: alpha must dominate max|G0_j|")
    if beta is None:
        beta = float(np.linalg.norm(ode.g1, 2))

    big_k = readout.degree
    d_norm2 = readout.coeff_vector_norm(2)
    d_normq = readout.coeff_vector_norm(q)
    eiu0_2 = vector_p_norm(np.exp(1j * ode.u0), 2)

    if g1_row_q > 0:
        nu = mu0 / g1_row_q
        # initial-state norm factor ||Psi^{(N)}(0)|| <= R_p / sqrt(1 - R_p^2)
        spread = r_p / math.sqrt(1.0 - r_p ** 2)
        order = max(1, big_k, math.ceil(
            math.log(4 * big_k * s_scale(nu, big_k) * d_normq / epsilon)
            / math.log(1.0 / r_p)
        ))
    else:
        nu = math.sqrt(2.0) * eiu0_2 * (1.0 + 1e-6)
        gamma2 = eiu0_2 / nu
        spread = gamma2 / math.sqrt(1.0 - gamma2 ** 2)
        order = max(1, big_k)  # no coupling: lifting exact above degree K
    s = s_scale(nu, big_k)

    steps = step_count_for(horizon, order, alpha + mu0)
    h = horizon / steps

    k = _taylor_order(4 * E ** 3 / epsilon * s * d_norm2 * steps * spread,
                      steps)
    c1 = epsilon * math.sqrt(steps) / (4 * d_norm2 * s) / spread
    c2 = 8 * E ** 4 * steps ** 2 * math.sqrt(k + 1)
    tau = min(c1 / (1 + c2), 1.0 / (4 * E ** 2 * steps * math.sqrt(k + 1)))
    sigma = c1 - c2 * tau
    delta = epsilon / (math.sqrt(steps) * d_norm2 * s) / spread
    z = d_norm2 * s * math.sqrt(alpha) * spread

    log = (
        ("nu", "mu0/|G1|_row_q", nu),
        ("N", "ceil(log(4 K s |d|_q/eps)/log(1/R_p)), clamped to >= max(1, K)", order),
        ("m", "ceil(T N (alpha + mu0))", steps),
        ("k", "max(ceil(log2(4 e^3 s |d| m R_p/sqrt(1-R_p^2)/eps)), ceil(log2(m e^2)))", k),
        ("c1", "eps sqrt(m) sqrt(1-R_p^2)/(4 |d| s R_p)", c1),
        ("c2", "8 e^4 m^2 sqrt(k+1)", c2),
        ("tau", "min(c1/(1+c2), 1/(4 e^2 m sqrt(k+1)))", tau),
        ("sigma", "c1 - c2 tau", sigma),
        ("delta", "eps sqrt(1-R_p^2)/(sqrt(m) |d| s R_p)", delta),
        ("s", "max(nu, nu^K) with nu = mu0/|G1|_row_q", s),
        ("z", "|d| s sqrt(alpha) R_p/sqrt(1-R_p^2)", z),
    )
    return ParamSet(
        regime="dissipative", p=p, horizon=horizon, epsilon=epsilon,
        alpha=alpha, beta=beta, nu=nu, order=order, taylor_order=k,
        steps=steps, step_size=h, sigma=sigma, tau=tau, delta=delta,
        c1=c1, c2=c2, s=s, degree=big_k, mu0=mu0, g1_row_q=g1_row_q,
        r_p=r_p, z=z, d_norm2=d_norm2, d_normq=d_normq, gamma=eiu0_2 / nu,
        derivation_log=log,
    )


def s_scale(nu: float, degree: int) -> float:
    """max{nu, nu^K}: the worst coefficient magnification under rescaling."""
    return max(nu, nu ** degree)


def default_nu(ode: FourierOde, r: float, p: float = 2) -> float:
    """The non-dissipative recipe's nu when none is given:
    e^l r ||e^{iu0}||_p with l = 1, kept above sqrt(2) ||e^{iu0}||_2.  A
    barely-above-floor nu makes the admissible time window collapse like
    ln(nu / floor)."""
    eiu0 = np.exp(1j * ode.u0)
    return max(E * r * vector_p_norm(eiu0, p),
               math.sqrt(2.0) * vector_p_norm(eiu0, 2) * (1.0 + 1e-6))


def select_nondissipative(ode: FourierOde, readout: ReadoutSpec,
                          epsilon: float, horizon: float, p: float = 2,
                          alpha: float | None = None,
                          beta: float | None = None, r: float = 5.0,
                          nu: float | None = None) -> ParamSet:
    """Parameter recipe without dissipative conditions (short final times).

    Requires r >= e, nu > max{r ||e^{iu0}||_p, sqrt(2) ||e^{iu0}||_2} and a
    horizon inside the admissible window T_max(r, nu).
    """
    if epsilon <= 0:
        raise ConfigError("select_nondissipative: epsilon must be positive")
    if horizon <= 0:
        raise ConfigError("select_nondissipative: horizon must be positive")
    if r < E:
        raise HypothesisViolation(f"select_nondissipative: r must be >= e, got {r}",
                                  layer="params.select_nondissipative")
    q = conjugate_exponent(p)
    eiu0 = np.exp(1j * ode.u0)
    eiu0_p = vector_p_norm(eiu0, p)
    eiu0_2 = vector_p_norm(eiu0, 2)
    nu_floor = max(r * eiu0_p, math.sqrt(2.0) * eiu0_2)
    if nu is None:
        nu = default_nu(ode, r, p)
    if nu <= nu_floor:
        raise HypothesisViolation(
            f"select_nondissipative: nu = {nu} must exceed "
            f"max(r |e^(i u0)|_p, sqrt(2) |e^(i u0)|_2) = {nu_floor}",
            layer="params.select_nondissipative",
        )
    if alpha is None:
        alpha = float(np.max(np.abs(ode.g0)))
    elif alpha < np.max(np.abs(ode.g0)) - 1e-12:
        raise ConfigError("select_nondissipative: alpha must dominate max|G0_j|")
    if beta is None:
        beta = float(np.linalg.norm(ode.g1, 2))

    mu0 = float(np.min(np.imag(ode.g0)))
    g1_row_q = row_q_norm(ode.g1, q)
    rescaled = rescale(ode, readout, nu)
    t_max = t_max_nondissipative(rescaled, r, p, alpha)
    if horizon > t_max:
        raise HypothesisViolation(
            f"select_nondissipative: horizon {horizon} exceeds "
            f"T_max = {t_max}",
            layer="params.select_nondissipative",
        )

    big_k = readout.degree
    d_norm2 = readout.coeff_vector_norm(2)
    d_normq = readout.coeff_vector_norm(q)
    s = s_scale(nu, big_k)
    rate = alpha + nu * g1_row_q
    decay = math.log(r) - rate * horizon  # log(r / e^{rate T}) > 0 inside T_max
    numer = math.log(max(4 * big_k * s * d_normq / (r * epsilon), 1.0))
    order = max(1, big_k, math.ceil(numer / decay))
    steps = step_count_for(horizon, order, rate)
    h = horizon / steps
    gamma_env = gamma_growth_bound(order, horizon, nu, g1_row_q, mu0)

    k = _taylor_order(4 * E ** 3 / epsilon * s * d_norm2 * steps * gamma_env,
                      steps)
    c1 = epsilon * math.sqrt(steps) / (4 * d_norm2 * s)
    c2 = 8 * E ** 4 * steps ** 2 * math.sqrt(k + 1) * gamma_env ** 2
    tau = min(c1 / (1 + c2),
              1.0 / (4 * E ** 2 * steps * math.sqrt(k + 1) * gamma_env))
    sigma = c1 - c2 * tau
    delta = epsilon / (math.sqrt(steps) * d_norm2 * s * gamma_env)
    ell = math.log(nu / (r * eiu0_p))

    log = (
        ("nu", "user choice > max(r |e^(i u0)|_p, sqrt(2) |e^(i u0)|_2)", nu),
        ("T_max", "min(ln(nu/(r |e^(i u0)|_p))/(max(alpha, nu |G1|_row_q)(1+1/r)), ln(r/e)/(alpha+nu |G1|_row_q))", t_max),
        ("N", "ceil(log(max(4 K s |d|_q/(r eps), 1))/log(r/e^((alpha+nu |G1|_row_q) T))), clamped to >= max(1, K)", order),
        ("m", "ceil(T N (alpha + nu |G1|_row_q))", steps),
        ("Gamma", "exp(T (N nu |G1|_row_q + max(-mu0, -N mu0)))", gamma_env),
        ("k", "max(ceil(log2(4 e^3 s |d| m Gamma/eps)), ceil(log2(m e^2)))", k),
        ("c1", "eps sqrt(m)/(4 |d| s)", c1),
        ("c2", "8 e^4 m^2 sqrt(k+1) Gamma^2", c2),
        ("tau", "min(c1/(1+c2), 1/(4 e^2 m sqrt(k+1) Gamma))", tau),
        ("sigma", "c1 - c2 tau", sigma),
        ("delta", "eps/(sqrt(m) |d| s Gamma)", delta),
        ("s", "max(nu, nu^K)", s),
        ("ell", "ln(nu/(r |e^(i u0)|_p))", ell),
    )
    return ParamSet(
        regime="nondissipative", p=p, horizon=horizon, epsilon=epsilon,
        alpha=alpha, beta=beta, nu=nu, order=order, taylor_order=k,
        steps=steps, step_size=h, sigma=sigma, tau=tau, delta=delta,
        c1=c1, c2=c2, s=s, degree=big_k, mu0=mu0, g1_row_q=g1_row_q,
        gamma_bound=gamma_env, r=r, ell=ell, t_max=t_max,
        d_norm2=d_norm2, d_normq=d_normq,
        gamma=eiu0_2 / nu, derivation_log=log,
    )


@dataclass(frozen=True)
class ErrorBudget:
    """epsilon/4 budget lines for the four error components."""

    epsilon: float
    lines: tuple  # (name, budget, measured | None, within)


def end_to_end_error_budget(paramset: ParamSet, measured: dict) -> ErrorBudget:
    """Attribute a completed run's measured error to the two classical
    components and report the two circuit-side components as analytic
    epsilon/4 budget lines without measurement.

    `measured` maps 'koopman' and 'taylor' to measured absolute errors.
    """
    quarter = paramset.epsilon / 4.0
    lines = []
    for name in ("koopman", "taylor"):
        if name not in measured:
            raise ConfigError(f"end_to_end_error_budget: missing component {name!r}")
        value = float(measured[name])
        lines.append((name, quarter, value, value <= quarter))
    lines.append(("block_encoding", quarter, None, True))
    lines.append(("expectation_estimation", quarter, None, True))
    return ErrorBudget(epsilon=paramset.epsilon, lines=tuple(lines))
