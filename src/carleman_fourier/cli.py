"""Batch experiment driver.

Subcommands:

  solve <config.json>     run the full pipeline, compare to the reference
                          integrator, write manifest.json + result.csv
  sweep <config.json>     re-run the pipeline along one parameter axis,
                          write result.csv with one row per value
  estimate <config.json>  parameter selection + resource estimate for both
                          regimes where the hypotheses permit (JSON)
  oracle <config.json>    dump the reference trajectory as trajectory.csv

The config is one JSON document with sections {ode, readout, run,
overrides}; complex numbers are [re, im] pairs and multi-indices are
integer arrays.  Exit codes: 0 success, 2 config error, 3 hypothesis
violation, 4 numeric divergence.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import bounds as bounds_mod
from . import estimator as estimator_mod
from .errors import (BudgetError, CflError, ConfigError, DivergenceError,
                     HypothesisViolation)
from .linearize import (DEFAULT_STATE_BUDGET, LinearOperatorLN, MonomialBasis,
                        generator_entries, lift_initial, monomial_basis,
                        size_within)
from .norms import op_norm, vector_p_norm
from .oracle import Trajectory, action_config, integrate, propagate
from .params import (ParamSet, default_nu, end_to_end_error_budget, s_scale,
                     select_dissipative, select_nondissipative)
from .problem import (FourierOde, ReadoutSpec, RescaledProblem, eval_readout,
                      expand_coeff_vector, rescale)
from .taylor import TaylorConfig, forward_solve, readout_value, step_count_for
from .tensor import dense_LN

SWEEP_AXES = ("N", "k", "r", "nu", "epsilon")
OVERRIDE_KEYS = ("N", "k", "m", "nu")

# the Koopman/Taylor error split and eta measurement of solve and sweep, and
# the 2-norm check of estimate, run only up to this tensor size.  The split
# itself is the action of exp(L T) on psi0, Taylor steps on the monomial
# generator (oracle.propagate), and needs no dense matrix; the cap is what
# it costs: on the three benchmark ladder problems, all above it, the split
# would add 46-63 generator applies to the 232-240 of each run, 13-16% of
# the time of each run_pipeline.
DIAG_DENSE_CAP = 1024


def fmt(x) -> str:
    """Round-trip safe float rendering (17 significant digits)."""
    if x is None:
        return ""
    if isinstance(x, str):
        return x
    if isinstance(x, (bool, np.bool_)):
        return str(bool(x))
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    value = float(x)
    if math.isnan(value):
        return "nan"
    return f"{value:.17g}"


# ----------------------------------------------------------------- config

def _real(value, where: str, finite: bool = True) -> float:
    """float(value); anything else, NaN, or (with finite) an infinity is a
    ConfigError naming the field."""
    try:
        out = float(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{where} must be a number, got {value!r}") from exc
    if math.isnan(out) or (finite and math.isinf(out)):
        raise ConfigError(f"{where} must be finite, got {value!r}")
    return out


def _integer(value, where: str) -> int:
    """int(value) for a value that is a whole number; a fraction such as 4.7
    is refused, not truncated."""
    try:
        out = int(value)
        if out != float(value):
            raise ValueError(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{where} must be an integer, got {value!r}") from exc
    return out


def _complex_from(pair, where: str) -> complex:
    if not isinstance(pair, (list, tuple)) or len(pair) != 2:
        raise ConfigError(f"{where}: complex values are [re, im] pairs, got {pair!r}")
    try:
        return complex(float(pair[0]), float(pair[1]))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{where}: malformed complex value {pair!r}") from exc


def _complex_array(data, where: str) -> np.ndarray:
    try:
        arr = np.asarray(
            [[_complex_from(v, where) for v in row] for row in data]
            if data and isinstance(data[0][0], (list, tuple))
            else [_complex_from(v, where) for v in data]
        )
    except (TypeError, IndexError, KeyError, ValueError) as exc:
        raise ConfigError(f"{where}: malformed complex array") from exc
    return arr


def load_config(path) -> dict:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        raw = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    for section in ("ode", "readout", "run"):
        if section not in raw:
            raise ConfigError(f"config is missing the {section!r} section")
    if raw.get("overrides") is None:
        raw["overrides"] = {}
    for section in ("ode", "readout", "run", "overrides"):
        if not isinstance(raw[section], dict):
            raise ConfigError(f"config section {section!r} must be a JSON object")
    raw["_digest"] = hashlib.sha256(path.read_bytes()).hexdigest()
    raw["_path"] = str(path)
    return raw


def parse_ode(cfg: dict) -> FourierOde:
    ode = cfg["ode"]
    n = _integer(ode.get("n"), "ode.n")
    g0 = _complex_array(ode.get("g0"), "ode.g0")
    g1 = _complex_array(ode.get("g1"), "ode.g1")
    u0 = _complex_array(ode.get("u0"), "ode.u0")
    return FourierOde(n=n, g0=g0, g1=g1, u0=u0)


def parse_readout(cfg: dict) -> ReadoutSpec:
    ro = cfg["readout"]
    degree = _integer(ro.get("K"), "readout.K")
    entries = ro.get("coeffs")
    if not isinstance(entries, list) or not entries:
        raise ConfigError("readout.coeffs must be a non-empty list")
    coeffs = {}
    for item in entries:
        try:
            key = tuple(_integer(v, "readout.coeffs[].j") for v in item["j"])
            val = _complex_from(item["d"], "readout.coeffs[].d")
        except (KeyError, TypeError) as exc:
            raise ConfigError(
                "each readout coefficient needs a multi-index 'j' and value 'd'"
            ) from exc
        coeffs[key] = coeffs.get(key, 0j) + val
    return ReadoutSpec(degree=degree, coeffs=coeffs)


def parse_run(cfg: dict) -> dict:
    run = dict(cfg["run"])

    def real(key, default=None, finite=True):
        value = run.get(key, default)
        if value is None and default is None:
            return None
        return _real(value, f"run.{key}", finite)

    out = {
        "T": real("T", 1.0),
        "epsilon": real("epsilon", 1e-3),
        "p": real("p", 2, finite=False),  # p = inf is a valid norm
        "regime": str(run.get("regime", "auto")),
        "alpha": real("alpha"),
        "beta": real("beta"),
        "r": real("r", 5.0),
        "nu": real("nu"),
        "oracle_tol": real("oracle_tol", 1e-11),
        "samples": _integer(run.get("samples", 101), "run.samples"),
        "expected_mu0": real("expected_mu0"),
        "expected_r_p": real("expected_r_p"),
    }
    if out["regime"] not in ("auto", "dissipative", "nondissipative"):
        raise ConfigError(f"run.regime must be auto|dissipative|nondissipative, "
                          f"got {out['regime']!r}")
    if out["T"] < 0:
        raise ConfigError("run.T must be >= 0")
    if out["epsilon"] <= 0:
        raise ConfigError("run.epsilon must be positive")
    if out["nu"] is not None and out["nu"] <= 0:
        raise ConfigError("run.nu must be positive")
    if out["samples"] < 2:
        raise ConfigError("run.samples must be >= 2")
    return out


# ------------------------------------------------------- parameter plumbing

def _cross_check(run: dict, report: bounds_mod.DissipativityReport) -> None:
    for key, actual in (("expected_mu0", report.mu0), ("expected_r_p", report.r_p)):
        expected = run.get(key)
        if expected is None:
            continue
        if not math.isclose(expected, actual, rel_tol=1e-9, abs_tol=1e-12):
            raise ConfigError(
                f"run.{key} = {expected} disagrees with recomputed value {actual}"
            )


def _checked_report(ode: FourierOde, run: dict) -> bounds_mod.DissipativityReport:
    """The dissipativity report at run.p, cross-checked against the run's
    expected values."""
    report = bounds_mod.check_dissipative(ode, run["p"])
    _cross_check(run, report)
    return report


def select_params(ode: FourierOde, readout: ReadoutSpec, run: dict,
                  overrides: dict) -> ParamSet:
    """Parameter selection for the requested regime plus override handling."""
    report = _checked_report(ode, run)
    return _overridden(_recipe(ode, readout, run, report), overrides, readout)


def _recipe(ode: FourierOde, readout: ReadoutSpec, run: dict,
            report: bounds_mod.DissipativityReport) -> ParamSet:
    """The recipe of run.regime; auto takes the regime the report admits."""
    regime = run["regime"]
    if regime == "auto":
        regime = "dissipative" if report.dissipative else "nondissipative"
    return select_regime(ode, readout, run, regime)


def _overridden(ps: ParamSet, overrides: dict, readout: ReadoutSpec) -> ParamSet:
    with _float_range("parameter overrides"):
        return apply_overrides(ps, overrides, readout)


def select_regime(ode: FourierOde, readout: ReadoutSpec, run: dict,
                  regime: str) -> ParamSet:
    """The parameter recipe of one regime, fed from the run section."""
    with _float_range(f"{regime} parameter selection"):
        if regime == "dissipative":
            return select_dissipative(ode, readout, run["epsilon"], run["T"],
                                      p=run["p"], alpha=run["alpha"],
                                      beta=run["beta"])
        return select_nondissipative(ode, readout, run["epsilon"], run["T"],
                                     p=run["p"], alpha=run["alpha"],
                                     beta=run["beta"], r=run["r"], nu=run["nu"])


@contextlib.contextmanager
def _float_range(layer: str):
    """An overflow, a division by zero or a NaN cast to int inside `layer`
    becomes a ConfigError naming it: the problem's numbers leave the double
    range there (a coupling of 1e-300 pins nu near 1e300, say)."""
    try:
        yield
    except (ArithmeticError, ValueError) as exc:
        raise ConfigError(f"{layer}: a number left the floating-point range: {exc}") from exc


def _override_value(key: str, value):
    """N, k and m are integers, nu a finite number."""
    if key == "nu":
        return _real(value, "override nu")
    return _integer(value, f"override {key}")


def apply_overrides(ps: ParamSet, overrides: dict, readout: ReadoutSpec) -> ParamSet:
    """Replace N, k, m or nu and recompute the dependent step grid."""
    if not overrides:
        return ps
    unknown = set(overrides) - set(OVERRIDE_KEYS)
    if unknown:
        raise ConfigError(f"unknown override keys {sorted(unknown)}; "
                          f"allowed: {sorted(OVERRIDE_KEYS)}")
    overrides = {key: _override_value(key, value) for key, value in overrides.items()}
    changes = {}
    if "nu" in overrides:
        nu = overrides["nu"]
        if nu <= 0:
            raise ConfigError("override nu must be positive")
        changes["nu"] = nu
        changes["gamma"] = ps.gamma * ps.nu / nu
        changes["s"] = s_scale(nu, readout.degree)
    if "N" in overrides:
        order = overrides["N"]
        if order < readout.degree:
            raise ConfigError(
                f"override N={order} is below the readout degree {readout.degree}"
            )
        changes["order"] = order
    if "k" in overrides:
        k = overrides["k"]
        if k < 1:
            raise ConfigError("override k must be >= 1")
        changes["taylor_order"] = k
    ps = dataclasses.replace(ps, **changes)
    if "m" in overrides:
        steps = overrides["m"]
        if steps < 1:
            raise ConfigError("override m must be >= 1")
    elif "N" in overrides:
        steps = step_count_for(ps.horizon, ps.order, ps.step_rate)
    else:
        steps = ps.steps
    return dataclasses.replace(ps, steps=steps, step_size=ps.horizon / steps)


# ------------------------------------------------------------ pipeline run

def run_pipeline(ode: FourierOde, readout: ReadoutSpec, run: dict,
                 ps: ParamSet, traj: Trajectory | None = None,
                 basis: MonomialBasis | None = None) -> dict:
    """rescale -> lift -> step -> read out -> compare to the oracle.  `traj`
    is integrate(ode, run["T"], tol=run["oracle_tol"]) and `basis` is
    monomial_basis(ode.n, N) for an N >= ps.order when the caller already
    has them (a sweep builds each once for all rows); the run lifts and
    steps on the basis' leading section of order ps.order."""
    timings = {}
    t0 = time.perf_counter()
    rescaled = rescale(ode, readout, ps.nu)
    op = LinearOperatorLN(
        order=ps.order, n=rescaled.n, f0=rescaled.f0, f1=rescaled.f1,
        basis=None if basis is None else basis.leading(ps.order))
    psi0 = lift_initial(rescaled, ps.order, basis=op.basis)
    coeffs = expand_coeff_vector(readout, rescaled, ps.order)
    cfg = TaylorConfig(m=ps.steps, h=ps.step_size, k=ps.taylor_order)
    result = forward_solve(op, cfg, psi0)
    estimate = readout_value(result, coeffs)
    timings["solve_s"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    if traj is None:
        traj = integrate(ode, run["T"], tol=run["oracle_tol"])
    u_final = traj.state_at(run["T"])
    reference = eval_readout(readout, u_final)
    timings["oracle_s"] = time.perf_counter() - t0

    total_error = abs(estimate - reference)
    koopman_err = taylor_err = psi_lin = split = None
    if size_within(op.n, op.order, DIAG_DENSE_CAP):
        t0 = time.perf_counter()
        # a split the stepping budget refuses, or one that overflows, is
        # reported as null; it never fails a run that stepped
        with contextlib.suppress(BudgetError, DivergenceError):
            grid = action_config(op, run["T"])
            psi_lin = propagate(op, psi0, run["T"])
        if psi_lin is not None:
            lin_readout = complex(np.dot(coeffs, psi_lin.vector))
            koopman_err = abs(lin_readout - reference)
            taylor_err = abs(estimate - lin_readout)
            if grid is not None:
                split = {"steps": grid.m, "taylor_order": grid.k,
                         "generator_applies": grid.m * grid.k}
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
            "generator_applies": result.generator_applies,
            "split": split,
        },
        "u_final": u_final,  # the oracle's state at run.T
        "oracle_global_error": traj.est_global_error,
        "psi_lin": psi_lin,  # exp(L T) psi0, None above the cap
        "timings": timings,
        "rescaled": rescaled,
        "operator": op,
        "within_epsilon": bool(total_error <= ps.epsilon),
    }


def _bound_values(run: dict, ps: ParamSet, rescaled: RescaledProblem,
                  report: bounds_mod.DissipativityReport) -> dict:
    """Evaluate the truncation bounds that apply to this run; rescaled is
    rescale(ode, readout, ps.nu), as run_pipeline returns it, and report is
    check_dissipative(ode, ps.p)."""
    out = {}
    if report.dissipative:
        for k in range(1, min(ps.degree, ps.order) + 1):
            rep = bounds_mod.eta_bound_dissipative(report, rescaled, ps.order,
                                                   k, ps.p)
            out[f"eta_{k}_bound_inf_time"] = rep.value
    if ps.regime == "nondissipative" and ps.r is not None:
        rep = bounds_mod.eta_bound_finite_time(rescaled, ps.order, ps.r,
                                               run["T"], ps.p)
        out["eta_bound_finite_time"] = rep.value
    return out


# ---------------------------------------------------------------- commands

def cmd_solve(args) -> int:
    cfg = load_config(args.config)
    ode = parse_ode(cfg)
    readout = parse_readout(cfg)
    run = parse_run(cfg)
    overrides = dict(cfg.get("overrides") or {})
    overrides.update(parse_override_arg(args.param_overrides))
    report = _checked_report(ode, run)
    ps = _overridden(_recipe(ode, readout, run, report), overrides, readout)
    outcome = run_pipeline(ode, readout, run, ps)
    bound_vals = _bound_values(run, ps, outcome["rescaled"], report)

    resource = None
    try:
        with _float_range("resource estimate"):
            resource = estimator_mod.query_counts(ps)
    except CflError:
        pass
    budget = None
    if outcome["koopman_error"] is not None:
        budget = end_to_end_error_budget(
            ps, {"koopman": outcome["koopman_error"],
                 "taylor": outcome["taylor_error"]})

    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    manifest = {
        "config_digest": cfg["_digest"],
        "config_path": cfg["_path"],
        "regime": ps.regime,
        "params": ps.as_dict(),
        "overrides": overrides,
        "estimate": [outcome["estimate"].real, outcome["estimate"].imag],
        "reference": [outcome["reference"].real, outcome["reference"].imag],
        "errors": {
            "total": outcome["total_error"],
            "koopman": outcome["koopman_error"],
            "taylor": outcome["taylor_error"],
            "solver_residual": outcome["residual"],
            "oracle_global_error": outcome["oracle_global_error"],
            "within_epsilon": outcome["within_epsilon"],
        },
        "bounds": bound_vals,
        "error_budget": None if budget is None else [list(l) for l in budget.lines],
        "resource_estimate": None if resource is None else resource.as_dict(),
        "lifted_state": outcome["lifted_state"],
        "wall_times_s": outcome["timings"],
    }
    _write_output(outdir / "manifest.json",
                  json.dumps(manifest, indent=2, default=_json_default))
    columns = [
        ("regime", ps.regime),
        ("N", ps.order), ("k", ps.taylor_order), ("m", ps.steps),
        ("h", ps.step_size), ("nu", ps.nu), ("epsilon", ps.epsilon),
        ("estimate_re", outcome["estimate"].real),
        ("estimate_im", outcome["estimate"].imag),
        ("reference_re", outcome["reference"].real),
        ("reference_im", outcome["reference"].imag),
        ("total_error", outcome["total_error"]),
        ("koopman_error", outcome["koopman_error"]),
        ("taylor_error", outcome["taylor_error"]),
        ("solver_residual", outcome["residual"]),
        ("within_epsilon", outcome["within_epsilon"]),
    ]
    for name, value in sorted(bound_vals.items()):
        columns.append((name, value))
    for name in ("alpha_LN", "alpha_Ainv", "encoding_error", "alpha_B",
                 "alpha_C", "queries_G", "queries_u0", "queries_d"):
        columns.append((name, None if resource is None
                        else getattr(resource, name)))
    header = ",".join(name for name, _ in columns)
    row = ",".join(fmt(value) for _, value in columns)
    _write_output(outdir / "result.csv", header + "\n" + row + "\n")
    print(f"estimate = {outcome['estimate']:.12g}, "
          f"reference = {outcome['reference']:.12g}, "
          f"|error| = {outcome['total_error']:.3e} "
          f"(epsilon = {ps.epsilon:g}, within = {outcome['within_epsilon']})")
    print(f"wrote {outdir / 'manifest.json'} and {outdir / 'result.csv'}")
    return 0


def cmd_sweep(args) -> int:
    cfg = load_config(args.config)
    ode = parse_ode(cfg)
    readout = parse_readout(cfg)
    run = parse_run(cfg)
    base_overrides = dict(cfg.get("overrides") or {})
    axis = args.axis
    if axis not in SWEEP_AXES:
        raise ConfigError(f"sweep axis must be one of {SWEEP_AXES}, got {axis!r}")
    values = parse_values_arg(args.values, axis)

    columns = ["axis", "value", "N", "k", "m", "nu", "epsilon",
               "eta_1_measured", "eta_1_bound_inf_time",
               "eta_bound_finite_time", "total_error",
               "estimate_re", "estimate_im", "reference_re", "reference_im",
               "runtime_s", "error"]
    # no sweep axis changes the ODE, run.T, run.p or oracle_tol: one oracle
    # and one dissipativity report serve every row
    shared_error = None
    try:
        traj = integrate(ode, run["T"], tol=run["oracle_tol"])
        report = _checked_report(ode, run)
    except CflError as exc:
        shared_error = _error_text(exc)
    rows, plans, recipes = [], [], {}
    for value in values:
        row = {"axis": axis, "value": value, "error": shared_error or "",
               "runtime_s": 0.0}
        rows.append(row)
        if shared_error:
            continue
        row_run, overrides = _sweep_inputs(run, base_overrides, axis, value)
        try:
            # rows whose run sections print alike share one section and its
            # recipe: all rows of an N, k or nu sweep
            key = repr(row_run)
            if key not in recipes:
                recipes[key] = row_run, _recipe(ode, readout, row_run, report)
            row_run, recipe = recipes[key]
            ps = _overridden(recipe, overrides, readout)
        except CflError as exc:
            row["error"] = _error_text(exc)
            continue
        plans.append((row, row_run, ps))

    # the monomial basis depends on (n, N) alone: one, at the largest order
    # among the rows that fits the state budget, serves every row as its
    # leading section; a row above the budget builds its own and fails as a
    # single run does
    orders = [ps.order for _row, _run, ps in plans
              if generator_entries(ode.n, ps.order) <= DEFAULT_STATE_BUDGET]
    basis = monomial_basis(ode.n, max(orders)) if orders else None
    for row, row_run, ps in plans:
        t0 = time.perf_counter()  # runtime_s is the row's own run
        try:
            fits = basis is not None and ps.order <= basis.order
            row.update(_sweep_row(ode, readout, row_run, ps, report, traj,
                                  basis if fits else None))
        except CflError as exc:
            row["error"] = _error_text(exc)
        row["runtime_s"] = time.perf_counter() - t0

    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(fmt(row.get(col)) for col in columns))
    _write_output(outdir / "result.csv", "\n".join(lines) + "\n")
    print(f"wrote {outdir / 'result.csv'} ({len(rows)} rows)")
    return 0


def _sweep_inputs(run: dict, base_overrides: dict, axis: str, value) -> tuple:
    """The run section and the overrides of the sweep row at value."""
    run = dict(run)
    overrides = dict(base_overrides)
    if axis == "epsilon":
        run["epsilon"] = float(value)
    elif axis == "r":
        run["r"] = float(value)
        run["regime"] = "nondissipative"
    elif axis in ("N", "k"):
        overrides[axis] = int(value)
    elif axis == "nu":
        overrides["nu"] = float(value)
    return run, overrides


def _sweep_row(ode, readout, run, ps, report, traj, basis) -> dict:
    outcome = run_pipeline(ode, readout, run, ps, traj, basis)
    bound_vals = _bound_values(run, ps, outcome["rescaled"], report)

    eta1_measured = None
    if outcome["psi_lin"] is not None:
        # x = u + i ln(nu), so the exact Psi_1(T) = e^{i x(T)} = e^{i u(T)}/nu
        eta1_measured = vector_p_norm(
            np.exp(1j * outcome["u_final"]) / ps.nu
            - outcome["psi_lin"].blocks[0], ps.p)

    return {
        "N": ps.order, "k": ps.taylor_order, "m": ps.steps, "nu": ps.nu,
        "epsilon": ps.epsilon,
        "eta_1_measured": eta1_measured,
        "eta_1_bound_inf_time": bound_vals.get("eta_1_bound_inf_time"),
        "eta_bound_finite_time": bound_vals.get("eta_bound_finite_time"),
        "total_error": outcome["total_error"],
        "estimate_re": outcome["estimate"].real,
        "estimate_im": outcome["estimate"].imag,
        "reference_re": outcome["reference"].real,
        "reference_im": outcome["reference"].imag,
    }


def cmd_estimate(args) -> int:
    cfg = load_config(args.config)
    ode = parse_ode(cfg)
    readout = parse_readout(cfg)
    run = parse_run(cfg)
    out = {}
    produced = 0
    for regime in ("dissipative", "nondissipative"):
        try:
            ps = select_regime(ode, readout, run, regime)
            with _float_range("resource estimate"):
                resource = estimator_mod.query_counts(
                    ps, improved_encoding=args.improved_encoding)
            entry = {"params": ps.as_dict(),
                     "resource_estimate": resource.as_dict()}
            # dense diagnostic: the encoding factor must dominate ||L||_2
            if size_within(ode.n, ps.order, DIAG_DENSE_CAP):
                rescaled = rescale(ode, readout, ps.nu)
                op = LinearOperatorLN.from_rescaled(rescaled, ps.order)
                norm2 = op_norm(dense_LN(op), 2)
                entry["alpha_LN_dense_check"] = bool(
                    resource.alpha_LN >= norm2 - 1e-9)
                entry["dense_norm_2"] = norm2
            out[regime] = entry
            produced += 1
        except CflError as exc:
            detail = {"error": f"{type(exc).__name__}: {exc}"}
            if regime == "nondissipative":
                try:
                    nu_probe = run["nu"]
                    if nu_probe is None:
                        nu_probe = default_nu(ode, run["r"], run["p"])
                    rescaled = rescale(ode, readout, nu_probe)
                    detail["t_max"] = bounds_mod.t_max_nondissipative(
                        rescaled, run["r"], run["p"],
                        run["alpha"] if run["alpha"] is not None
                        else float(np.max(np.abs(ode.g0))))
                except CflError:
                    pass
            out[regime] = detail
    text = json.dumps(out, indent=2, default=_json_default)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    _write_output(outdir / "estimate.json", text)
    print(text)
    if produced == 0:
        raise HypothesisViolation("no regime admits this problem; see output")
    return 0


def cmd_oracle(args) -> int:
    cfg = load_config(args.config)
    ode = parse_ode(cfg)
    run = parse_run(cfg)
    traj = integrate(ode, run["T"], tol=run["oracle_tol"],
                     samples=run["samples"])
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    header = ["t"]
    for i in range(ode.n):
        header += [f"re(x_{i + 1})", f"im(x_{i + 1})"]
    lines = [",".join(header)]
    for t, state in zip(traj.times, traj.states):
        cells = [fmt(t)]
        for val in state:
            cells += [fmt(val.real), fmt(val.imag)]
        lines.append(",".join(cells))
    _write_output(outdir / "trajectory.csv", "\n".join(lines) + "\n")
    print(f"wrote {outdir / 'trajectory.csv'} "
          f"(est. global error {traj.est_global_error:.3e})")
    return 0


# ------------------------------------------------------------------ plumbing

def _error_text(exc: CflError) -> str:
    return f"{type(exc).__name__}: {exc}"


def _write_output(path: Path, text: str) -> None:
    """Write text to a new file at path, removing any old one first.

    Rewriting a file whose data already sits on disk in place can cost tens
    of milliseconds on some file systems (ext4 mounted with discard), where
    creating a file costs well under one.  After a crash the output may be
    missing rather than stale, and a symlink at path is replaced, not
    written through.
    """
    path.unlink(missing_ok=True)
    path.write_text(text)


def _json_default(obj):
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj)}")


def parse_override_arg(text) -> dict:
    if not text:
        return {}
    out = {}
    for chunk in text.split(","):
        if not chunk.strip():
            continue
        if "=" not in chunk:
            raise ConfigError(f"malformed override {chunk!r}; expected key=value")
        key, _, value = chunk.partition("=")
        key = key.strip()
        if key not in OVERRIDE_KEYS:
            raise ConfigError(f"unknown override key {key!r}")
        out[key] = _override_value(key, value)
    return out


def parse_values_arg(text, axis) -> list:
    if text is None or not str(text).strip():
        return []
    values = []
    for chunk in str(text).split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        values.append(_integer(chunk, "--values entry") if axis in ("N", "k")
                      else _real(chunk, "--values entry"))
    return values


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cfl",
        description="Lifted-linearization laboratory for ODEs with Fourier "
                    "nonlinearity",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="run the pipeline on a config")
    p_solve.add_argument("config")
    p_solve.add_argument("--out", default="out")
    p_solve.add_argument("--param-overrides", default="",
                         help="comma-separated key=value (N, k, m, nu)")
    p_solve.set_defaults(func=cmd_solve)

    p_sweep = sub.add_parser("sweep", help="sweep one parameter axis")
    p_sweep.add_argument("config")
    p_sweep.add_argument("--axis", required=True, choices=SWEEP_AXES)
    p_sweep.add_argument("--values", required=True,
                         help="comma-separated values")
    p_sweep.add_argument("--out", default="out")
    p_sweep.set_defaults(func=cmd_sweep)

    p_est = sub.add_parser("estimate", help="parameter + resource estimate")
    p_est.add_argument("config")
    p_est.add_argument("--improved-encoding", action="store_true")
    p_est.add_argument("--out", default="out")
    p_est.set_defaults(func=cmd_estimate)

    p_orc = sub.add_parser("oracle", help="dump the reference trajectory")
    p_orc.add_argument("config")
    p_orc.add_argument("--out", default="out")
    p_orc.set_defaults(func=cmd_oracle)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CflError as exc:
        payload = {"error": type(exc).__name__, "message": str(exc)}
        if getattr(exc, "step", None) is not None:
            payload["step"] = exc.step
        print(json.dumps(payload), file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
