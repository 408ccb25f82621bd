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
import functools
import hashlib
import itertools
import json
import math
import os
import sys
import time
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np

from . import bounds as bounds_mod
from . import estimator as estimator_mod
from .errors import CflError, ConfigError, HypothesisViolation
from .linearize import LinearOperatorLN, size_within
from .norms import op_norm
from .oracle import integrate
from .params import ParamSet, end_to_end_error_budget, nondissipative_inputs
from .problem import FourierOde, ReadoutSpec, rescale
from .study import Study, float_range, run_pipeline  # noqa: F401 (perfbench)
from .tensor import dense_LN

SWEEP_AXES = ("N", "k", "r", "nu", "epsilon")
OVERRIDE_KEYS = ("N", "k", "m", "nu")
# estimate's 2-norm check builds the dense tensor matrix of L and takes its
# SVD: it runs only up to this many tensor entries
DENSE_NORM_CAP = 1024

# pieces of an output joined into one write (_write_output): _json_pieces
# yields one per line of a manifest, some 170, a CSV one per row.  A
# solve's peak memory grows with the batch: 64 of the stdlib encoder's
# shorter pieces held about 2 KB more than 32, and 256 kept only about a
# third of the gain over writing one joined text
WRITE_BATCH = 32


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
    return f"{float(x):.17g}"


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
    unknown = set(run) - set(out)
    if unknown:
        raise ConfigError(f"unknown run keys {sorted(unknown)}; "
                          f"allowed: {sorted(out)}")
    if out["regime"] not in ("auto", "dissipative", "nondissipative"):
        raise ConfigError(f"run.regime must be auto|dissipative|nondissipative, "
                          f"got {out['regime']!r}")
    if out["T"] < 0:
        raise ConfigError("run.T must be >= 0")
    if out["p"] < 1:
        raise ConfigError("run.p must be >= 1")
    if out["epsilon"] <= 0:
        raise ConfigError("run.epsilon must be positive")
    if out["nu"] is not None and out["nu"] <= 0:
        raise ConfigError("run.nu must be positive")
    if out["samples"] < 2:
        raise ConfigError("run.samples must be >= 2")
    return out


# ------------------------------------------------------- parameter plumbing

def select_params(ode: FourierOde, readout: ReadoutSpec, run: dict,
                  overrides: dict) -> ParamSet:
    """Study.params at the run section and the checked overrides."""
    overrides = parse_overrides(overrides, readout.degree)
    return Study(ode, readout, run).params(run, overrides)


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


# ---------------------------------------------------------------- commands

def _inputs(args) -> tuple:
    """The config at args.config and its ode, readout and run sections; a
    readout of another dimension than the ODE's is refused before any work."""
    cfg = load_config(args.config)
    ode, readout, run = parse_ode(cfg), parse_readout(cfg), parse_run(cfg)
    if readout.n != ode.n:
        raise ConfigError(f"readout.coeffs: multi-indices of length {readout.n} "
                          f"do not match ode.n = {ode.n}")
    return cfg, ode, readout, run


def cmd_solve(args) -> int:
    cfg, ode, readout, run = _inputs(args)
    overrides = parse_overrides(cfg["overrides"], readout.degree,
                                args.param_overrides)
    study = Study(ode, readout, run)
    ps = study.params(run, overrides)
    t0 = time.perf_counter()
    oracle_error = study.oracle_error()
    oracle_s = time.perf_counter() - t0
    outcome = study.outcome(ps)
    outcome["timings"]["oracle_s"] += oracle_s

    try:
        with float_range("resource estimate"):
            resource = estimator_mod.query_counts(ps)
        resource_entry = resource.as_dict()
    except CflError as exc:
        resource, resource_entry = None, _error_entry(exc)
    budget = None
    if outcome["koopman_error"] is not None:
        budget = end_to_end_error_budget(
            ps, {"koopman": outcome["koopman_error"],
                 "taylor": outcome["taylor_error"]})

    outdir = Path(args.out)
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
        "bounds": outcome["bounds"],
        "error_budget": None if budget is None else [list(l) for l in budget],
        "resource_estimate": resource_entry,
        "lifted_state": outcome["lifted_state"],
        "wall_times_s": outcome["timings"],
    }
    _write_output(outdir / "manifest.json", _json_pieces(manifest))
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
    for name, value in sorted(outcome["bounds"].items()):
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


def cmd_sweep(args) -> int:
    cfg, ode, readout, run = _inputs(args)
    axis = args.axis
    values = parse_values_arg(args.values, axis)

    columns = ["axis", "value", "N", "k", "m", "nu", "epsilon",
               "eta_1_measured", "eta_1_bound_inf_time",
               "eta_bound_finite_time", "total_error",
               "estimate_re", "estimate_im", "reference_re", "reference_im",
               "runtime_s", "error"]
    # no sweep axis changes the ODE, run.T, run.p or oracle_tol: one oracle
    # state and one dissipativity report serve every row
    study = Study(ode, readout, run)
    shared_error = None
    try:
        study.u_final()
        study.report()
    except CflError as exc:
        shared_error = _error_text(exc)
    rows, plans = [], []
    for value in values:
        row = {"axis": axis, "value": value, "error": shared_error or "",
               "runtime_s": 0.0}
        rows.append(row)
        if shared_error:
            continue
        # N, k and nu are overrides; epsilon and r set their run field
        row_run, overrides = dict(run), dict(cfg["overrides"])
        if axis in OVERRIDE_KEYS:
            overrides[axis] = value
        elif axis == "epsilon":
            row_run["epsilon"] = value
        else:
            row_run.update(r=value, regime="nondissipative")
        try:
            plans.append((row, study.params(
                row_run, parse_overrides(overrides, readout.degree))))
        except CflError as exc:
            row["error"] = _error_text(exc)

    # largest order first, so the study's first basis serves every row
    # within the state budget; rows are written in the order given
    for row, ps in sorted(plans, key=lambda plan: -plan[1].order):
        t0 = time.perf_counter()  # runtime_s is the row's own run
        try:
            outcome = study.outcome(ps)
            row.update(
                N=ps.order, k=ps.taylor_order, m=ps.steps, nu=ps.nu,
                epsilon=ps.epsilon, eta_1_measured=outcome["eta_1_measured"],
                eta_1_bound_inf_time=outcome["bounds"].get("eta_1_bound_inf_time"),
                eta_bound_finite_time=outcome["bounds"].get("eta_bound_finite_time"),
                total_error=outcome["total_error"],
                estimate_re=outcome["estimate"].real,
                estimate_im=outcome["estimate"].imag,
                reference_re=outcome["reference"].real,
                reference_im=outcome["reference"].imag)
        except CflError as exc:
            row["error"] = _error_text(exc)
        row["runtime_s"] = time.perf_counter() - t0

    outdir = Path(args.out)
    _write_csv(outdir / "result.csv",
               [columns, *([row.get(col) for col in columns] for row in rows)])
    print(f"wrote {outdir / 'result.csv'} ({len(rows)} rows)")
    return 0


def cmd_estimate(args) -> int:
    cfg, ode, readout, run = _inputs(args)
    overrides = parse_overrides(cfg["overrides"], readout.degree)
    study = Study(ode, readout, run)
    study.report()  # both regimes' report: its failure is the command's
    out = {}
    for regime in ("dissipative", "nondissipative"):
        try:
            ps = study.params(dict(run, regime=regime), overrides)
            with float_range("resource estimate"):
                resource = estimator_mod.query_counts(
                    ps, improved_encoding=args.improved_encoding)
            entry = {"params": ps.as_dict(),
                     "resource_estimate": resource.as_dict()}
            # dense diagnostic: the encoding factor must dominate ||L||_2
            if size_within(ode.n, ps.order, DENSE_NORM_CAP):
                rescaled = rescale(ode, readout, ps.nu)
                op = LinearOperatorLN.from_rescaled(rescaled, ps.order)
                norm2 = op_norm(dense_LN(op), 2)
                entry["alpha_LN_dense_check"] = bool(
                    resource.alpha_LN >= norm2 - 1e-9)
                entry["dense_norm_2"] = norm2
            out[regime] = entry
        except CflError as exc:
            detail = _error_entry(exc)
            if regime == "nondissipative":
                try:
                    # the window at the recipe's own nu and alpha
                    nu, alpha = nondissipative_inputs(
                        ode, run["r"], run["p"], overrides.get("nu", run["nu"]),
                        run["alpha"])
                    detail["t_max"] = bounds_mod.t_max_nondissipative(
                        rescale(ode, readout, nu), run["r"], run["p"], alpha)
                except CflError:
                    pass
            out[regime] = detail
    text = "".join(_json_pieces(out))
    outdir = Path(args.out)
    _write_output(outdir / "estimate.json", text)
    print(text)
    if all("error" in entry for entry in out.values()):
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


def _error_entry(exc: CflError) -> dict:
    """A refused computation as an output records it: the error text and,
    for a failed precondition, its inputs as the JSON error gives them."""
    entry = {"error": _error_text(exc)}
    if getattr(exc, "params", None) is not None:
        entry["params"] = exc.params
    return entry


def _json_pieces(value, indent="\n"):
    """The text of json.dumps(value, indent=2) in pieces, about one per
    line: a line's separator, indent, key and atom (str, None, bool, int or
    float) make one piece.  Atoms are written as json.encoder writes them:
    float.__repr__ with NaN and +-Infinity, int.__repr__, and strings and
    keys through encode_basestring_ascii; any other object is a TypeError.
    `indent` is the newline and indent of the line that holds value.

    A nested container is a generator of its own, which refers only to its
    items, so nothing is left for the cycle collector.  The stdlib's
    pure-Python encoder, which indent selects, makes closures that refer
    to each other: each manifest left about 3 KB of them."""
    atom = _json_atom(value)
    if atom is not None:
        yield atom
        return
    if isinstance(value, (list, tuple)):
        brackets, items = "[]", zip(itertools.repeat(""), value)
    elif isinstance(value, dict):
        brackets, items = "{}", zip(map(_json_key, value), value.values())
    else:
        raise TypeError(f"Object of type {value.__class__.__name__} "
                        f"is not JSON serializable")
    if not value:
        yield brackets
        return
    inner = indent + "  "
    head = brackets[0] + inner
    for key, item in items:
        atom = _json_atom(item)
        if atom is None:
            yield head + key
            yield from _json_pieces(item, inner)
        else:
            yield head + key + atom
        head = "," + inner
    yield indent + brackets[1]


def _json_atom(value):
    """value as JSON text if it is no container, else None.  Floats, the
    most frequent atoms of a manifest, are tried first: only bool and int
    overlap, and bool is tried before int."""
    if isinstance(value, float):
        if value != value:
            return "NaN"
        if value == math.inf:
            return "Infinity"
        if value == -math.inf:
            return "-Infinity"
        return float.__repr__(value)
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    return None


def _json_key(key) -> str:
    """A dict key and its separator as json.encoder writes them: a JSON
    string, of the key's own JSON text when it is a float, int, bool or
    None, and ": "."""
    if not isinstance(key, str):
        if not (key is None or isinstance(key, (int, float))):
            raise TypeError(f"keys must be str, int, float, bool or None, "
                            f"not {key.__class__.__name__}")
        key = _json_atom(key)
    return encode_basestring_ascii(key) + ": "


def _write_output(path: Path, text) -> None:
    """Write text, a str or an iterable of str pieces, to a new file at
    path, removing any old one first.  The file holds the pieces joined in
    UTF-8, as configs are read, with os.linesep newlines, but joined and
    written WRITE_BATCH at a time, so an output is never held whole: a
    manifest line by line as _json_pieces yields it, a CSV row by row.

    Rewriting a file whose data already sits on disk in place can cost tens
    of milliseconds on some file systems (ext4 mounted with discard), where
    creating a file costs well under one.  After a crash the output may be
    missing rather than stale, and a symlink at path is replaced, not
    written through.  A missing directory is made; an OSError is a
    ConfigError naming path."""
    pieces = iter([text] if isinstance(text, str) else text)
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.unlink(missing_ok=True)
        with open(path, "wb", buffering=0) as out:
            while batch := list(itertools.islice(pieces, WRITE_BATCH)):
                # one name for the pieces, their text and its bytes, so that
                # each is freed as soon as the next is made
                batch = "".join(batch)
                if os.linesep != "\n":
                    batch = batch.replace("\n", os.linesep)
                batch = batch.encode("utf-8")
                written = out.write(batch)
                while written < len(batch):  # an unbuffered write may be short
                    written += out.write(memoryview(batch)[written:])
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _write_csv(path: Path, rows) -> None:
    """Write rows of cells as CSV, each cell rendered by fmt, one row at a
    time."""
    _write_output(path, (",".join(fmt(cell) for cell in row) + "\n"
                         for row in rows))


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


def _check_out(out: Path) -> None:
    """Refuse an --out that is an existing file other than a directory, or
    lies under one, or whose nearest existing directory cannot be written
    and entered, as a ConfigError naming it, before any work is done and
    without creating anything.  A path that cannot be examined fails when
    the command writes."""
    for path in (out, *out.parents):
        try:
            if path.is_dir():
                if not os.access(path, os.W_OK | os.X_OK):
                    raise ConfigError(f"cannot write {out}: directory {path} "
                                      f"is not writable")
                return
            if path.exists():
                raise ConfigError(f"cannot write {out}: {path} is not a "
                                  f"directory")
        except OSError:
            return


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    command = globals()[f"cmd_{args.command}"]
    try:
        _check_out(Path(args.out))
        return command(args)
    except CflError as exc:
        payload = {"error": type(exc).__name__, "message": str(exc)}
        for key in ("step", "layer", "grid", "params"):
            if getattr(exc, key, None) is not None:
                payload[key] = getattr(exc, key)
        print(json.dumps(payload), file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
