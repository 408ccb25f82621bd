"""The pipeline on one problem, rescale -> lift -> Taylor-step -> read out,
checked against the oracle and the truncation bounds: Study.params is the
one path from a run section and overrides to a ParamSet, and Study.outcome
the one runner from a ParamSet to an outcome."""

from __future__ import annotations

import contextlib
import math
import time

import numpy as np

from . import bounds as bounds_mod
from .errors import BudgetError, ConfigError, DivergenceError
from .linearize import (LinearOperatorLN, MonomialBasis, lift_point,
                        monomial_basis)
from .norms import vector_p_norm
from .oracle import action_config, final_state, integrate, step_config
from .params import (ParamSet, derive_grid, select_dissipative,
                     select_nondissipative)
from .problem import (FourierOde, ReadoutSpec, eval_readout,
                      expand_coeff_vector, rescale)
from .taylor import TaylorConfig, forward_solve, readout_value


@contextlib.contextmanager
def float_range(layer: str):
    """An overflow, a division by zero or a NaN cast to int inside `layer`
    becomes a ConfigError naming it: the problem's numbers leave the double
    range there (a coupling of 1e-300 pins nu near 1e300, say)."""
    try:
        yield
    except (ArithmeticError, ValueError) as exc:
        # the text alone, not an OverflowError's (errno, text) pair
        message = exc.args[-1] if exc.args else exc
        raise ConfigError(f"{layer}: a number left the floating-point range: "
                          f"{message}") from exc


class Study:
    """The runs on one problem: ode, readout and a cli.parse_run section
    whose T, p and oracle_tol no run changes.  The report, x(T) and each
    recipe are kept once computed; a failure is raised again at next use.
    So is the largest monomial basis built: runs step on its leading
    section, so runs taken largest order first build one basis."""

    def __init__(self, ode: FourierOde, readout: ReadoutSpec, run: dict):
        self.ode, self.readout, self.run = ode, readout, run
        self._report = self._u_final = self._basis = None
        self._recipes = {}

    def report(self) -> bounds_mod.DissipativityReport:
        """The dissipativity report at run.p, cross-checked against the
        run's expected values."""
        if self._report is None:
            report = bounds_mod.check_dissipative(self.ode, self.run["p"])
            for key, actual in (("expected_mu0", report.mu0),
                                ("expected_r_p", report.r_p)):
                expected = self.run.get(key)
                if expected is not None and not math.isclose(
                        expected, actual, rel_tol=1e-9, abs_tol=1e-12):
                    raise ConfigError(f"run.{key} = {expected} disagrees with "
                                      f"recomputed value {actual}")
            self._report = report
        return self._report

    def u_final(self) -> np.ndarray:
        """The oracle's x(T): final_state's one RK45 pass, unless
        oracle_error read it first."""
        if self._u_final is None:
            self._u_final = final_state(self.ode, self.run["T"],
                                        tol=self.run["oracle_tol"])
        return self._u_final

    def oracle_error(self) -> float:
        """The global-error estimate of integrate's two passes; x(T) is read
        off their trajectory (bit for bit final_state's), which is dropped
        before any run steps, so it adds nothing to a run's peak memory."""
        traj = integrate(self.ode, self.run["T"], tol=self.run["oracle_tol"])
        self._u_final = traj.state_at(self.run["T"])
        return traj.est_global_error

    def params(self, run: dict, overrides: dict) -> ParamSet:
        """The recipe of run.regime at the nu of an override, if any, with
        the overrides of N, k and m (checked: cli.parse_overrides) pinned in
        its grid (params.derive_grid); run sections that print alike share
        one recipe, as all rows of an N or k sweep do."""
        self.report()
        if "nu" in overrides:
            run = dict(run, nu=overrides["nu"])
        key = repr(run)
        if key not in self._recipes:
            self._recipes[key] = self.select_regime(run)
        pins = {name: overrides[name] for name in ("N", "k", "m")
                if name in overrides}
        if not pins:
            return self._recipes[key]
        with float_range("parameter overrides"):
            return derive_grid(self._recipes[key], pins)

    def select_regime(self, run: dict) -> ParamSet:
        """run.regime's recipe; auto takes the regime the report admits."""
        regime = run["regime"]
        if regime == "auto":
            regime = "dissipative" if self.report().dissipative else "nondissipative"
        with float_range(f"{regime} parameter selection"):
            if regime == "dissipative":
                return select_dissipative(
                    self.ode, self.readout, run["epsilon"], run["T"],
                    p=run["p"], alpha=run["alpha"], beta=run["beta"],
                    report=self.report(), nu=run["nu"])
            return select_nondissipative(
                self.ode, self.readout, run["epsilon"], run["T"], p=run["p"],
                alpha=run["alpha"], beta=run["beta"], r=run["r"], nu=run["nu"])

    def outcome(self, ps: ParamSet) -> dict:
        """run_pipeline at ps on the study's x(T) and basis, with the
        bounds that apply to it ("bounds") and block 1's measured truncation
        error against exp(L T) psi0 ("eta_1_measured", None where the
        stepping budget refuses the split or it overflows).  A basis is
        built only above the kept one's order."""
        if self._basis is None or ps.order > self._basis.order:
            self._basis = monomial_basis(self.ode.n, ps.order)
        out = run_pipeline(self.ode, self.readout, self.run, ps,
                           self.u_final(), self._basis)
        report, rescaled = self.report(), out["rescaled"]
        out["bounds"] = bounds = {}
        if report.dissipative:
            for k in range(1, min(ps.degree, ps.order) + 1):
                bounds[f"eta_{k}_bound_inf_time"] = bounds_mod.eta_bound_dissipative(
                    report, rescaled, ps.order, k, ps.p).value
        if ps.regime == "nondissipative" and ps.r is not None:
            bounds["eta_bound_finite_time"] = bounds_mod.eta_bound_finite_time(
                rescaled, ps.order, ps.r, self.run["T"], ps.p).value
        # x = u + i ln(nu), so the exact Psi_1(T) = e^{i x(T)} = e^{i u(T)}/nu
        out["eta_1_measured"] = None if out["psi_lin"] is None else vector_p_norm(
            np.exp(1j * out["u_final"]) / ps.nu - out["psi_lin"].blocks[0], ps.p)
        return out


def run_pipeline(ode: FourierOde, readout: ReadoutSpec, run: dict,
                 ps: ParamSet, u_final: np.ndarray | None = None,
                 basis: MonomialBasis | None = None) -> dict:
    """rescale -> lift -> step -> read out -> compare to the oracle.
    `u_final` is the oracle's x(T) (final_state(ode, run["T"],
    tol=run["oracle_tol"]), or bit for bit that state of an integrate
    trajectory) and `basis` is monomial_basis(ode.n, N) for an N >= ps.order;
    each is made here when None.  The run steps on the basis' leading
    section of order ps.order, on oracle.step_config's grid for the
    recipe's (m, k), which the estimator prices; lifted_state records the
    grid ("steps", "taylor_degree") and ||L||_1 ("generator_norm_1")."""
    timings = {}
    t0 = time.perf_counter()
    rescaled = rescale(ode, readout, ps.nu)
    basis = (monomial_basis(ode.n, ps.order) if basis is None
             else basis.leading(ps.order))
    op = LinearOperatorLN(basis, rescaled.f0, rescaled.f1)
    psi0 = lift_point(rescaled.w0, basis)
    coeffs = expand_coeff_vector(readout, rescaled, ps.order)
    norm = op.norm_1()
    recipe = TaylorConfig(m=ps.steps, h=ps.step_size, k=ps.taylor_order)
    grid = step_config(recipe, ps.horizon, op.monomial_size, norm,
                       "m" in ps.pinned)
    cfg = recipe if grid is None else grid
    result = forward_solve(op, cfg, psi0)
    estimate = readout_value(result, coeffs)
    timings["solve_s"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    if u_final is None:
        u_final = final_state(ode, run["T"], tol=run["oracle_tol"])
    reference = eval_readout(readout, u_final)
    timings["oracle_s"] = time.perf_counter() - t0

    total_error = abs(estimate - reference)
    # the Koopman/Taylor split, at the readout of exp(L T) psi0
    koopman_err = taylor_err = psi_lin = split = None
    t0 = time.perf_counter()
    if grid is not None:
        # the run's own steps evaluate exp(L T) psi0 to the unit roundoff,
        # and the verify pass only reads the stepped states: the final state
        # is forward_solve(op, cfg, psi0, verify=False).final bit for bit
        psi_lin = result.final
        split = {"steps": cfg.m, "taylor_order": cfg.k, "generator_applies": 0}
    else:
        # a split the stepping budget refuses, or one that overflows, is
        # reported as null; it never fails a run that stepped
        with contextlib.suppress(BudgetError, DivergenceError):
            grid = action_config(op, run["T"], norm)
            # propagate(op, psi0, T) bit for bit, with the applies it spends
            lin = forward_solve(op, grid, psi0, verify=False)
            psi_lin = lin.final
            split = {"steps": grid.m, "taylor_order": grid.k,
                     "generator_applies": lin.generator_applies}
    if psi_lin is not None:
        lin_readout = complex(np.dot(coeffs, psi_lin.vector))
        koopman_err = abs(lin_readout - reference)
        taylor_err = abs(estimate - lin_readout)
    timings["dense_check_s"] = time.perf_counter() - t0

    return {
        "estimate": estimate,
        "reference": reference,
        "total_error": total_error,
        "koopman_error": koopman_err,
        "taylor_error": taylor_err,
        "residual": result.residual,
        "lifted_state": {
            "basis": "monomial",
            "tensor_dim": op.size,
            "monomial_dim": op.monomial_size,
            "steps": cfg.m,
            "taylor_degree": cfg.k,
            "generator_norm_1": norm,
            "generator_applies": result.generator_applies,
            "split": split,
        },
        "u_final": u_final,  # the oracle's state at run.T
        "psi_lin": psi_lin,  # exp(L T) psi0, None if refused or overflowed
        "timings": timings,
        "rescaled": rescaled,
        "operator": op,
        "within_epsilon": bool(total_error <= ps.epsilon),
    }
