"""Parameter-selection recipes for the two solver regimes.

Both recipes pick the truncation order N, Taylor order k, step count m (and
h = T/m) so the two classically realized error components (lifting
truncation and Taylor truncation) each stay below epsilon/4, and they also
emit the encoding-side parameters sigma, tau, delta, c1, c2 that only feed
the resource estimator.  ParamSet.derivation_log gives each derived
quantity with the formula it came from and the value of its field, so a
ParamSet is reproducible by hand.

The rule: a recipe derives s (and the window) from nu, its input, and
derive_grid then derives N -> m -> Gamma -> k -> c1, c2, tau, sigma, delta,
z for both regimes.  Each value is its formula unless pinned (logged as
"pinned"): a recipe calls derive_grid with nothing pinned, a run that
overrides N, k or m calls it again with those pins, and an override of nu
runs the recipe at that nu.

N is clamped below at max(1, K): the ceiling formula can return 0 for very
loose accuracy demands, and the readout needs blocks up to the Fourier
degree K to exist at all.  k is likewise clamped at 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

import numpy as np

from .bounds import DissipativityReport, check_dissipative, t_max_nondissipative
from .errors import ConfigError, HypothesisViolation
from .norms import conjugate_exponent, gamma_growth_bound, row_q_norm, vector_p_norm
from .problem import FourierOde, ReadoutSpec, rescale
from .taylor import step_count_for

E = math.e

# derive_grid refuses Taylor orders above this, derived or pinned, instead
# of silently clamping
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
    pinned: tuple = ()                # names given, not derived: nu, N, k, m

    @property
    def step_rate(self) -> float:
        """The rate r of the step count m = ceil(T N r): alpha + mu0 when
        dissipative, alpha + nu ||G1||_row,q otherwise."""
        if self.regime == "dissipative":
            return self.alpha + self.mu0
        return self.alpha + self.nu * self.g1_row_q

    @property
    def derivation_log(self) -> tuple:
        """(name, formula, value) of each derived quantity in the recipe's
        order, the value read from its field: the log cannot go stale.  A
        pinned value's formula is "pinned"."""
        given = _GIVEN_NU if "nu" in self.pinned else {}
        regime = self.regime
        if regime == "dissipative" and not self.g1_row_q > 0:
            regime = "uncoupled"
        return tuple(
            (name, "pinned" if name in self.pinned else given.get(name, formula),
             getattr(self, key)) for name, key, formula in _LOG[regime])

    def as_dict(self) -> dict:
        """The fields by name, shallow (dataclasses.asdict deep-copies), with
        pinned replaced by derivation_log as a list of lists."""
        out = {f.name: getattr(self, f.name) for f in fields(self)
               if f.name != "pinned"}
        out["derivation_log"] = [list(item) for item in self.derivation_log]
        return out


def _ceil_log2(x: float) -> int:
    if x <= 0:
        raise ConfigError("ceil(log2) of a non-positive value")
    return max(0, math.ceil(math.log2(x)))


def select_dissipative(ode: FourierOde, readout: ReadoutSpec, epsilon: float,
                       horizon: float, p: float = 2,
                       alpha: float | None = None,
                       beta: float | None = None,
                       report: DissipativityReport | None = None,
                       nu: float | None = None) -> ParamSet:
    """Parameter recipe under dissipative conditions.  `report` is
    check_dissipative(ode, p) when the caller already holds it.

    nu defaults to ||e^{iu0}||_p / R_p = mu0/||G1||_row,q, which certifies
    a non-growing lifted generator; R_p does not depend on nu, which moves
    the rest through s.  A vanishing coupling (G1 = 0) makes that default
    degenerate; the lifting is then exact above the readout degree, nu
    falls back to the norm-control choice sqrt(2) ||e^{iu0}||_2, and the
    initial-state factor is taken from the rescaled 2-norm, below 1.
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
            params={"regime": "dissipative", "p": p, "mu0": report.mu0,
                    "R_p": report.r_p, "threshold": report.condition_2norm},
        )
    mu0, g1_row_q = report.mu0, report.g1_row_q
    if alpha is None:
        alpha = float(np.max(np.abs(ode.g0)))
    elif alpha < np.max(np.abs(ode.g0)) - 1e-12:
        raise ConfigError("select_dissipative: alpha must dominate max|G0_j|")
    if beta is None:
        beta = float(np.linalg.norm(ode.g1, 2))
    eiu0_2 = vector_p_norm(np.exp(1j * ode.u0), 2)
    pinned = () if nu is None else ("nu",)
    if nu is None:
        nu = (mu0 / g1_row_q if g1_row_q > 0
              else math.sqrt(2.0) * eiu0_2 * (1.0 + 1e-6))
    elif g1_row_q == 0 and eiu0_2 >= nu:
        raise HypothesisViolation(
            f"select_dissipative: without coupling nu = {nu} must exceed "
            f"|e^(i u0)|_2 = {eiu0_2}", layer="params.select_dissipative",
            params={"regime": "dissipative", "p": p, "nu": nu,
                    "eiu0_2": eiu0_2})

    return _derived_at(
        nu, eiu0_2, readout, report.q, regime="dissipative", p=p,
        horizon=horizon, epsilon=epsilon, alpha=alpha, beta=beta, mu0=mu0,
        g1_row_q=g1_row_q, r_p=report.r_p, pinned=pinned)


def _derived_at(nu: float, eiu0_2: float, readout: ReadoutSpec, q: float,
                **inputs) -> ParamSet:
    """A recipe's ParamSet at nu, whose s, gamma = ||e^{iu0}||_2 / nu and
    readout norms both regimes take alike, with its grid derived from them
    (derive_grid); `inputs` are the regime's own fields."""
    return derive_grid(ParamSet(
        nu=nu, s=s_scale(nu, readout.degree), gamma=eiu0_2 / nu,
        degree=readout.degree, d_norm2=readout.coeff_vector_norm(2),
        d_normq=readout.coeff_vector_norm(q), **inputs,
        # the grid's fields, which derive_grid sets
        **dict.fromkeys(("order", "taylor_order", "steps", "step_size",
                         "sigma", "tau", "delta", "c1", "c2"))))


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


def nondissipative_inputs(ode: FourierOde, r: float, p: float = 2,
                          nu: float | None = None,
                          alpha: float | None = None) -> tuple:
    """The non-dissipative recipe's (nu, alpha), each as given or, when
    None, its default: default_nu(ode, r, p) and max|G0_j|."""
    if nu is None:
        nu = default_nu(ode, r, p)
    if alpha is None:
        alpha = float(np.max(np.abs(ode.g0)))
    return nu, alpha


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
                                  layer="params.select_nondissipative",
                                  params={"regime": "nondissipative", "p": p,
                                          "r": r})
    q = conjugate_exponent(p)
    eiu0 = np.exp(1j * ode.u0)
    eiu0_p = vector_p_norm(eiu0, p)
    eiu0_2 = vector_p_norm(eiu0, 2)
    nu_floor = max(r * eiu0_p, math.sqrt(2.0) * eiu0_2)
    pinned = () if nu is None else ("nu",)
    nu, alpha = nondissipative_inputs(ode, r, p, nu, alpha)
    if nu <= nu_floor:
        raise HypothesisViolation(
            f"select_nondissipative: nu = {nu} must exceed "
            f"max(r |e^(i u0)|_p, sqrt(2) |e^(i u0)|_2) = {nu_floor}",
            layer="params.select_nondissipative",
            params={"regime": "nondissipative", "p": p, "r": r, "nu": nu,
                    "nu_floor": nu_floor},
        )
    if alpha < np.max(np.abs(ode.g0)) - 1e-12:
        raise ConfigError("select_nondissipative: alpha must dominate max|G0_j|")
    if beta is None:
        beta = float(np.linalg.norm(ode.g1, 2))
    t_max = t_max_nondissipative(rescale(ode, readout, nu), r, p, alpha)
    if horizon > t_max:
        raise HypothesisViolation(
            f"select_nondissipative: horizon {horizon} exceeds "
            f"T_max = {t_max}",
            layer="params.select_nondissipative",
            params={"regime": "nondissipative", "p": p, "r": r, "nu": nu,
                    "horizon": horizon, "T_max": t_max},
        )

    return _derived_at(
        nu, eiu0_2, readout, q, regime="nondissipative", p=p,
        horizon=horizon, epsilon=epsilon, alpha=alpha, beta=beta,
        mu0=float(np.min(np.imag(ode.g0))), g1_row_q=row_q_norm(ode.g1, q),
        r=r, ell=math.log(nu / (r * eiu0_p)), t_max=t_max, pinned=pinned)

# each regime's derivation_log in order: (name, ParamSet field, formula);
# _GIVEN_NU holds the formulas that read otherwise when nu is pinned
_GIVEN_NU = {"s": "max(nu, nu^K)"}
_LOG = {
    "dissipative": (
        ("nu", "nu", "mu0/|G1|_row_q"),
        ("N", "order", "ceil(log(4 K s |d|_q/eps)/log(1/R_p)), clamped to >= max(1, K)"),
        ("m", "steps", "ceil(T N (alpha + mu0))"),
        ("k", "taylor_order", "max(ceil(log2(4 e^3 s |d| m R_p/sqrt(1-R_p^2)/eps)), ceil(log2(m e^2)))"),
        ("c1", "c1", "eps sqrt(m) sqrt(1-R_p^2)/(4 |d| s R_p)"),
        ("c2", "c2", "8 e^4 m^2 sqrt(k+1)"),
        ("tau", "tau", "min(c1/(1+c2), 1/(4 e^2 m sqrt(k+1)))"),
        ("sigma", "sigma", "c1 - c2 tau"),
        ("delta", "delta", "eps sqrt(1-R_p^2)/(sqrt(m) |d| s R_p)"),
        ("s", "s", "max(nu, nu^K) with nu = mu0/|G1|_row_q"),
        ("z", "z", "|d| s sqrt(alpha) R_p/sqrt(1-R_p^2)"),
    ),
    "nondissipative": (
        ("nu", "nu", "user choice > max(r |e^(i u0)|_p, sqrt(2) |e^(i u0)|_2)"),
        ("T_max", "t_max", "min(ln(nu/(r |e^(i u0)|_p))/(max(alpha, nu |G1|_row_q)(1+1/r)), ln(r/e)/(alpha+nu |G1|_row_q))"),
        ("N", "order", "ceil(log(max(4 K s |d|_q/(r eps), 1))/log(r/e^((alpha+nu |G1|_row_q) T))), clamped to >= max(1, K)"),
        ("m", "steps", "ceil(T N (alpha + nu |G1|_row_q))"),
        ("Gamma", "gamma_bound", "exp(T (N nu |G1|_row_q + max(-mu0, -N mu0)))"),
        ("k", "taylor_order", "max(ceil(log2(4 e^3 s |d| m Gamma/eps)), ceil(log2(m e^2)))"),
        ("c1", "c1", "eps sqrt(m)/(4 |d| s)"),
        ("c2", "c2", "8 e^4 m^2 sqrt(k+1) Gamma^2"),
        ("tau", "tau", "min(c1/(1+c2), 1/(4 e^2 m sqrt(k+1) Gamma))"),
        ("sigma", "sigma", "c1 - c2 tau"),
        ("delta", "delta", "eps/(sqrt(m) |d| s Gamma)"),
        ("s", "s", "max(nu, nu^K)"),
        ("ell", "ell", "ln(nu/(r |e^(i u0)|_p))"),
    ),
}
# the dissipative recipe without coupling (G1 = 0, so R_p = 0): its own nu
# and N, and gamma = |e^(i u0)|_2/nu in place of R_p
_UNCOUPLED = {
    "nu": "sqrt(2) |e^(i u0)|_2 (1+1e-6)",
    "N": "max(1, K)",
    "k": "max(ceil(log2(4 e^3 s |d| m gamma/sqrt(1-gamma^2)/eps)), ceil(log2(m e^2)))",
    "c1": "eps sqrt(m) sqrt(1-gamma^2)/(4 |d| s gamma)",
    "delta": "eps sqrt(1-gamma^2)/(sqrt(m) |d| s gamma)",
    "s": "max(nu, nu^K) with nu = sqrt(2) |e^(i u0)|_2 (1+1e-6)",
    "z": "|d| s sqrt(alpha) gamma/sqrt(1-gamma^2)",
}
_LOG["uncoupled"] = tuple((name, key, _UNCOUPLED.get(name, formula))
                          for name, key, formula in _LOG["dissipative"])


def derive_grid(ps: ParamSet, pins: dict | None = None) -> ParamSet:
    """ps with N -> m -> Gamma -> k -> c1, c2, tau, sigma, delta, z derived
    from its recipe inputs, each by its formula unless `pins` gives it (N, k
    or m by name); ps.pinned keeps a pinned nu and records these.  A k
    above TAYLOR_ORDER_CAP, derived or pinned, is a ConfigError.  The
    regimes differ in N's formula and in two factors, each 1 in the other:
    the dissipative bound R_p/sqrt(1 - R_p^2) on the initial lifted state
    (gamma/sqrt(1 - gamma^2) without coupling) and the envelope Gamma."""
    pins = pins or {}
    order, taylor_order, steps = pins.get("N"), pins.get("k"), pins.get("m")
    dissipative = ps.regime == "dissipative"
    big_k, s, eps, horizon, d_norm2 = (ps.degree, ps.s, ps.epsilon,
                                       ps.horizon, ps.d_norm2)
    spread = 1.0
    if dissipative:
        ratio = ps.r_p if ps.g1_row_q > 0 else ps.gamma
        spread = ratio / math.sqrt(1.0 - ratio ** 2)
    if order is None:
        if not dissipative:
            decay = math.log(ps.r) - ps.step_rate * horizon  # > 0 inside T_max
            bound = math.log(max(4 * big_k * s * ps.d_normq / (ps.r * eps), 1.0)) / decay
        elif ps.g1_row_q > 0:
            bound = math.log(4 * big_k * s * ps.d_normq / eps) / math.log(1.0 / ps.r_p)
        else:
            bound = 0  # no coupling: lifting exact above degree K
        order = max(1, big_k, math.ceil(bound))
    if steps is None:
        steps = step_count_for(horizon, order, ps.step_rate)
    gamma_env = None if dissipative else gamma_growth_bound(
        order, horizon, ps.nu, ps.g1_row_q, ps.mu0)
    growth = 1.0 if dissipative else gamma_env
    if taylor_order is None:
        taylor_order = max(_ceil_log2(
            4 * E ** 3 / eps * s * d_norm2 * steps * spread * growth),
            _ceil_log2(steps * E ** 2), 1)
    if taylor_order > TAYLOR_ORDER_CAP:
        if "k" in pins:
            raise ConfigError(
                f"pinned Taylor order k={taylor_order} exceeds cap "
                f"{TAYLOR_ORDER_CAP}; steps of that degree are out of "
                "desk-scale range")
        raise ConfigError(
            f"selected Taylor order k={taylor_order} exceeds cap "
            f"{TAYLOR_ORDER_CAP}; the accuracy demand is out of desk-scale "
            "range")
    root = math.sqrt(taylor_order + 1)
    c1 = eps * math.sqrt(steps) / (4 * d_norm2 * s) / spread
    c2 = 8 * E ** 4 * steps ** 2 * root * growth ** 2
    tau = min(c1 / (1 + c2), 1.0 / (4 * E ** 2 * steps * root * growth))
    nu_pin = ("nu",) if "nu" in ps.pinned else ()
    return replace(
        ps, order=order, taylor_order=taylor_order, steps=steps,
        step_size=horizon / steps, sigma=c1 - c2 * tau, tau=tau,
        delta=eps / (math.sqrt(steps) * d_norm2 * s * growth) / spread,
        c1=c1, c2=c2, gamma_bound=gamma_env,
        z=d_norm2 * s * math.sqrt(ps.alpha) * spread if dissipative else None,
        pinned=nu_pin + tuple(pins))


def end_to_end_error_budget(paramset: ParamSet, measured: dict) -> tuple:
    """The epsilon/4 budget lines (name, budget, measured | None, within):
    a completed run's measured error attributed to the two classical
    components, and the two circuit-side components without measurement.

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
    return tuple(lines)
