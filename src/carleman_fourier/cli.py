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
import functools
import hashlib
import io
import itertools
import json
import locale
import math
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import bounds as bounds_mod
from . import estimator as estimator_mod
from .errors import (BudgetError, CflError, ConfigError, DivergenceError,
                     HypothesisViolation)
from .linearize import (DEFAULT_STATE_BUDGET, LinearOperatorLN, MonomialBasis,
                        generator_entries, lift_point, monomial_basis,
                        size_within)
from .norms import op_norm, vector_p_norm
from .oracle import (action_config, action_step_bound, final_state, integrate,
                     propagate)
from .params import (ParamSet, derive_grid, end_to_end_error_budget,
                     nondissipative_inputs, select_dissipative,
                     select_nondissipative)
from .problem import (FourierOde, ReadoutSpec, RescaledProblem, eval_readout,
                      expand_coeff_vector, rescale)
from .taylor import TaylorConfig, forward_solve, readout_value
from .tensor import dense_LN

SWEEP_AXES = ("N", "k", "r", "nu", "epsilon")
OVERRIDE_KEYS = ("N", "k", "m", "nu")

# pieces of an output joined into one write (_write_output): the JSON
# encoder yields some 400 short pieces per manifest, a CSV one per row.
# A solve's peak memory grows with the batch: 64 pieces held about 2 KB
# more than 32, and 256 kept only about a third of the gain over writing
# one joined text
WRITE_BATCH = 32

# the Koopman/Taylor error split and eta measurement of solve and sweep, and
# the 2-norm check of estimate, run only up to this tensor size.  The split
# needs no dense matrix: it is the run's own final state when the run's
# steps meet oracle.action_step_bound, and otherwise the action of exp(L T)
# on psi0, Taylor steps on the monomial generator (oracle.propagate), whose
# extra generator applies are what the cap bounds.
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
    """The config at path, read once as bytes: the digest is of the bytes
    that were parsed.  A file that cannot be read, is not UTF-8 (a BOM
    included) or is not a JSON object with the sections is a ConfigError."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise ConfigError(f"config file cannot be read: {path}: "
                          f"{exc.strerror or exc}") from exc
    try:
        raw = json.loads(data.decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config is not UTF-8 text: {exc}") from exc
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
    raw["_digest"] = hashlib.sha256(data).hexdigest()
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

def _checked_report(ode: FourierOde, run: dict) -> bounds_mod.DissipativityReport:
    """The dissipativity report at run.p, cross-checked against the run's
    expected values."""
    report = bounds_mod.check_dissipative(ode, run["p"])
    for key, actual in (("expected_mu0", report.mu0), ("expected_r_p", report.r_p)):
        expected = run.get(key)
        if expected is not None and not math.isclose(
                expected, actual, rel_tol=1e-9, abs_tol=1e-12):
            raise ConfigError(
                f"run.{key} = {expected} disagrees with recomputed value {actual}"
            )
    return report


def select_params(ode: FourierOde, readout: ReadoutSpec, run: dict,
                  overrides: dict) -> ParamSet:
    """The recipe of run.regime at the nu of an override, if any, with the
    overrides of N, k and m pinned in its grid."""
    overrides = parse_overrides(overrides, readout.degree)
    return _pinned(select_regime(ode, readout, _with_nu(run, overrides),
                                 report=_checked_report(ode, run)), overrides)


def _with_nu(run: dict, overrides: dict) -> dict:
    """The run section with an override of nu as run.nu: nu is a recipe
    input, and the recipe derives everything after it."""
    return dict(run, nu=overrides["nu"]) if "nu" in overrides else run


def _pinned(ps: ParamSet, overrides: dict) -> ParamSet:
    """ps with its grid derived again around the overrides of N, k and m
    (params.derive_grid); ps itself when there are none."""
    pins = {key: overrides[key] for key in ("N", "k", "m") if key in overrides}
    if not pins:
        return ps
    with _float_range("parameter overrides"):
        return derive_grid(ps, pins)


def select_regime(ode: FourierOde, readout: ReadoutSpec, run: dict,
                  regime: str | None = None,
                  report: bounds_mod.DissipativityReport | None = None) -> ParamSet:
    """The parameter recipe of `regime` (run.regime when None), fed from the
    run section; `report` is check_dissipative(ode, run["p"]) when the
    caller holds it, and auto takes the regime the report admits."""
    regime = regime or run["regime"]
    if regime == "auto":
        regime = "dissipative" if report.dissipative else "nondissipative"
    with _float_range(f"{regime} parameter selection"):
        if regime == "dissipative":
            return select_dissipative(ode, readout, run["epsilon"], run["T"],
                                      p=run["p"], alpha=run["alpha"],
                                      beta=run["beta"], report=report,
                                      nu=run["nu"])
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


def parse_overrides(overrides: dict, degree: int, text: str = "") -> dict:
    """The overrides of a run, the config's section updated from the
    --param-overrides text "key=value,...", checked: N >= the readout
    degree, k, m >= 1 integers, nu > 0 finite."""
    overrides = dict(overrides)
    for chunk in filter(str.strip, text.split(",")):
        key, eq, value = chunk.partition("=")
        if not eq:
            raise ConfigError(f"malformed override {chunk!r}; expected key=value")
        overrides[key.strip()] = value
    unknown = set(overrides) - set(OVERRIDE_KEYS)
    if unknown:
        raise ConfigError(f"unknown override keys {sorted(unknown)}; "
                          f"allowed: {sorted(OVERRIDE_KEYS)}")
    out = {key: _real(value, "override nu") if key == "nu"
           else _integer(value, f"override {key}")
           for key, value in overrides.items()}
    if out.get("N", degree) < degree:
        raise ConfigError(
            f"override N={out['N']} is below the readout degree {degree}")
    for key in ("k", "m"):
        if out.get(key, 1) < 1:
            raise ConfigError(f"override {key} must be >= 1")
    if out.get("nu", 1.0) <= 0:
        raise ConfigError("override nu must be positive")
    return out


# ------------------------------------------------------------ pipeline run

def run_pipeline(ode: FourierOde, readout: ReadoutSpec, run: dict,
                 ps: ParamSet, u_final: np.ndarray | None = None,
                 basis: MonomialBasis | None = None) -> dict:
    """rescale -> lift -> step -> read out -> compare to the oracle.
    `u_final` is the oracle's x(T), final_state(ode, run["T"],
    tol=run["oracle_tol"]) or bit for bit the same state of a trajectory
    that integrate returned, and `basis` is monomial_basis(ode.n, N) for an
    N >= ps.order, when the caller already has them (a sweep builds each
    once for all rows); the run lifts and steps on the basis' leading
    section of order ps.order, or on monomial_basis(ode.n, ps.order) built
    here."""
    timings = {}
    t0 = time.perf_counter()
    rescaled = rescale(ode, readout, ps.nu)
    basis = (monomial_basis(ode.n, ps.order) if basis is None
             else basis.leading(ps.order))
    op = LinearOperatorLN(basis, rescaled.f0, rescaled.f1)
    psi0 = lift_point(rescaled.w0, basis)
    coeffs = expand_coeff_vector(readout, rescaled, ps.order)
    cfg = TaylorConfig(m=ps.steps, h=ps.step_size, k=ps.taylor_order)
    result = forward_solve(op, cfg, psi0)
    estimate = readout_value(result, coeffs)
    timings["solve_s"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    if u_final is None:
        u_final = final_state(ode, run["T"], tol=run["oracle_tol"])
    reference = eval_readout(readout, u_final)
    timings["oracle_s"] = time.perf_counter() - t0

    total_error = abs(estimate - reference)
    koopman_err = taylor_err = psi_lin = split = None
    if size_within(op.n, op.order, DIAG_DENSE_CAP):
        t0 = time.perf_counter()
        norm = op.norm_1()
        if norm * cfg.h <= action_step_bound(cfg.k):
            # the run's own steps evaluate exp(L T) psi0 to the unit
            # roundoff, and the verify pass only reads the Horner states:
            # the final state is propagate(op, psi0, T, cfg) bit for bit
            psi_lin = result.final
            split = {"steps": cfg.m, "taylor_order": cfg.k,
                     "generator_applies": 0}
        else:
            # a split the stepping budget refuses, or one that overflows, is
            # reported as null; it never fails a run that stepped
            with contextlib.suppress(BudgetError, DivergenceError):
                grid = action_config(op, run["T"], norm)
                psi_lin = propagate(op, psi0, run["T"], grid)
                split = {"steps": grid.m, "taylor_order": grid.k,
                         "generator_applies": grid.m * grid.k}
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
            "generator_applies": result.generator_applies,
            "split": split,
        },
        "u_final": u_final,  # the oracle's state at run.T
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

def _inputs(args) -> tuple:
    """The config at args.config and its ode, readout and run sections."""
    cfg = load_config(args.config)
    return cfg, parse_ode(cfg), parse_readout(cfg), parse_run(cfg)


def cmd_solve(args) -> int:
    cfg, ode, readout, run = _inputs(args)
    overrides = parse_overrides(cfg["overrides"], readout.degree,
                                args.param_overrides)
    report = _checked_report(ode, run)
    ps = _pinned(select_regime(ode, readout, _with_nu(run, overrides),
                               report=report), overrides)
    t0 = time.perf_counter()
    u_final, oracle_error = _oracle_reading(ode, run)
    oracle_s = time.perf_counter() - t0
    outcome = run_pipeline(ode, readout, run, ps, u_final)
    outcome["timings"]["oracle_s"] += oracle_s
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
            "oracle_global_error": oracle_error,
            "within_epsilon": outcome["within_epsilon"],
        },
        "bounds": bound_vals,
        "error_budget": None if budget is None else [list(l) for l in budget.lines],
        "resource_estimate": None if resource is None else resource.as_dict(),
        "lifted_state": outcome["lifted_state"],
        "wall_times_s": outcome["timings"],
    }
    # the pieces json.dumps(manifest, indent=2) joins, written as formatted
    _write_output(outdir / "manifest.json", json.JSONEncoder(
        indent=2, default=_json_default).iterencode(manifest))
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
    _write_csv(outdir / "result.csv", [[name for name, _ in columns],
                                       [value for _, value in columns]])
    print(f"estimate = {outcome['estimate']:.12g}, "
          f"reference = {outcome['reference']:.12g}, "
          f"|error| = {outcome['total_error']:.3e} "
          f"(epsilon = {ps.epsilon:g}, within = {outcome['within_epsilon']})")
    print(f"wrote {outdir / 'manifest.json'} and {outdir / 'result.csv'}")
    return 0


def _oracle_reading(ode: FourierOde, run: dict) -> tuple:
    """x(T) and the global-error estimate of integrate's two passes, which
    the solve manifest writes.  The trajectory, its samples and its dense
    output, is dropped here, before the run steps, so it adds nothing to
    the run's peak memory."""
    traj = integrate(ode, run["T"], tol=run["oracle_tol"])
    return traj.state_at(run["T"]), traj.est_global_error


def cmd_sweep(args) -> int:
    cfg, ode, readout, run = _inputs(args)
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
    # state and one dissipativity report serve every row
    shared_error = None
    try:
        u_final = final_state(ode, run["T"], tol=run["oracle_tol"])
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
        try:
            row_run, overrides = _sweep_inputs(run, cfg["overrides"], axis,
                                               value, readout.degree)
            # rows whose run sections print alike share one section and its
            # recipe: all rows of an N or k sweep, which pin only the grid
            key = repr(row_run)
            if key not in recipes:
                recipes[key] = row_run, select_regime(ode, readout, row_run,
                                                      report=report)
            row_run, recipe = recipes[key]
            ps = _pinned(recipe, overrides)
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
            row.update(_sweep_row(ode, readout, row_run, ps, report, u_final,
                                  basis if fits else None))
        except CflError as exc:
            row["error"] = _error_text(exc)
        row["runtime_s"] = time.perf_counter() - t0

    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    _write_csv(outdir / "result.csv",
               [columns, *([row.get(col) for col in columns] for row in rows)])
    print(f"wrote {outdir / 'result.csv'} ({len(rows)} rows)")
    return 0


def _sweep_inputs(run: dict, base_overrides: dict, axis: str, value,
                  degree: int) -> tuple:
    """The run section and checked overrides of the row at value: N, k and
    nu are overrides, epsilon and r set their run field."""
    if axis in OVERRIDE_KEYS:
        base_overrides = {**base_overrides, axis: value}
    overrides = parse_overrides(base_overrides, degree)
    run = dict(_with_nu(run, overrides))
    if axis == "epsilon":
        run["epsilon"] = float(value)
    elif axis == "r":
        run["r"] = float(value)
        run["regime"] = "nondissipative"
    return run, overrides


def _sweep_row(ode, readout, run, ps, report, u_final, basis) -> dict:
    outcome = run_pipeline(ode, readout, run, ps, u_final, basis)
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
    _cfg, ode, readout, run = _inputs(args)
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
                    # the window at the recipe's own nu and alpha
                    nu, alpha = nondissipative_inputs(
                        ode, run["r"], run["p"], run["nu"], run["alpha"])
                    detail["t_max"] = bounds_mod.t_max_nondissipative(
                        rescale(ode, readout, nu), run["r"], run["p"], alpha)
                except CflError:
                    pass
            out[regime] = detail
    text = json.dumps(out, indent=2, default=_json_default)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    _write_output(outdir / "estimate.json", text)
    print(text)
    if produced == 0:
        raise HypothesisViolation("no regime admits this problem; see output",
                                  layer="cli.cmd_estimate")
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
    _write_csv(outdir / "trajectory.csv", itertools.chain([header], (
        [t, *(part for val in state for part in (val.real, val.imag))]
        for t, state in zip(traj.times, traj.states))))
    print(f"wrote {outdir / 'trajectory.csv'} "
          f"(est. global error {traj.est_global_error:.3e})")
    return 0


# ------------------------------------------------------------------ plumbing

def _error_text(exc: CflError) -> str:
    return f"{type(exc).__name__}: {exc}"


def _write_output(path: Path, text) -> None:
    """Write text, a str or an iterable of str pieces, to a new file at
    path, removing any old one first.  The file holds the bytes
    Path.write_text writes for the pieces joined, but the pieces are joined
    and written WRITE_BATCH at a time, so an output is never held whole: a
    manifest's JSON as its encoder yields it, a CSV row by row.

    Rewriting a file whose data already sits on disk in place can cost tens
    of milliseconds on some file systems (ext4 mounted with discard), where
    creating a file costs well under one.  After a crash the output may be
    missing rather than stale, and a symlink at path is replaced, not
    written through.
    """
    path.unlink(missing_ok=True)
    pieces = iter([text] if isinstance(text, str) else text)
    encoding = _text_encoding()
    with open(path, "wb", buffering=0) as out:
        while batch := list(itertools.islice(pieces, WRITE_BATCH)):
            # one name for the pieces, their text and its bytes, so that
            # each is freed as soon as the next is made
            batch = "".join(batch)
            if os.linesep != "\n":
                batch = batch.replace("\n", os.linesep)
            batch = batch.encode(encoding)
            written = out.write(batch)
            while written < len(batch):  # an unbuffered write may be short
                written += out.write(memoryview(batch)[written:])


def _text_encoding() -> str:
    """The encoding Path.write_text uses when given none: UTF-8 in Python's
    UTF-8 mode, else the locale's."""
    encoding = io.text_encoding(None)
    if encoding != "locale":
        return encoding
    if hasattr(locale, "getencoding"):  # Python 3.11 on
        return locale.getencoding()
    return locale.getpreferredencoding(False)


def _write_csv(path: Path, rows) -> None:
    """Write rows of cells as CSV, each cell rendered by fmt, one row at a
    time."""
    _write_output(path, (",".join(fmt(cell) for cell in row) + "\n"
                         for row in rows))


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


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process.  An ArgumentParser is a
    web of reference cycles, some 33 KB that only the cycle collector frees;
    one built per call would pile up in a process that calls main many
    times, and its peak memory would hang on when the collector happens to
    run.  Parsing leaves the parser as it was, and it holds no command
    function: main looks cmd_<command> up in this module at each call."""
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

    p_sweep = sub.add_parser("sweep", help="sweep one parameter axis")
    p_sweep.add_argument("config")
    p_sweep.add_argument("--axis", required=True, choices=SWEEP_AXES)
    p_sweep.add_argument("--values", required=True,
                         help="comma-separated values")
    p_sweep.add_argument("--out", default="out")

    p_est = sub.add_parser("estimate", help="parameter + resource estimate")
    p_est.add_argument("config")
    p_est.add_argument("--improved-encoding", action="store_true")
    p_est.add_argument("--out", default="out")

    p_orc = sub.add_parser("oracle", help="dump the reference trajectory")
    p_orc.add_argument("config")
    p_orc.add_argument("--out", default="out")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    command = globals()[f"cmd_{args.command}"]
    try:
        return command(args)
    except CflError as exc:
        payload = {"error": type(exc).__name__, "message": str(exc)}
        for key in ("step", "layer"):
            if getattr(exc, key, None) is not None:
                payload[key] = getattr(exc, key)
        print(json.dumps(payload), file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
