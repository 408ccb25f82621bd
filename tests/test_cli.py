import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import carleman_fourier as cf
from carleman_fourier import cli
from carleman_fourier.cli import main
from carleman_fourier.errors import DivergenceError
from carleman_fourier.linearize import monomial_basis
from carleman_fourier.oracle import action_config
from carleman_fourier.params import default_nu
from carleman_fourier.taylor import step_count_for

from conftest import tensor_coeff_blocks

REPO = Path(__file__).resolve().parents[1]
CONFIGS = REPO / "configs"


def run_cli(*argv):
    return main([str(a) for a in argv])


def read_csv_rows(path):
    import csv
    with open(path) as handle:
        return list(csv.DictReader(handle))


# -------------------------------------------------------------------- solve

def test_solve_linear_config(tmp_path):
    code = run_cli("solve", CONFIGS / "linear_n1.json", "--out", tmp_path)
    assert code == 0
    row = read_csv_rows(tmp_path / "result.csv")[0]
    assert row["within_epsilon"] == "True"
    assert float(row["total_error"]) <= 1e-4
    # with no coupling the lifting is exact
    assert float(row["koopman_error"]) <= 1e-12


def test_solve_dissipative_n1_matches_closed_form(tmp_path):
    code = run_cli("solve", CONFIGS / "dissipative_n1.json", "--out", tmp_path)
    assert code == 0
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    estimate = complex(*manifest["estimate"])
    cfg = json.loads((CONFIGS / "dissipative_n1.json").read_text())
    f0 = complex(*cfg["ode"]["g0"][0])
    f1 = complex(*cfg["ode"]["g1"][0][0])
    x0 = complex(*cfg["ode"]["u0"][0])
    d = complex(*cfg["readout"]["coeffs"][0]["d"])
    expected = d * cf.closed_form_1d(f0, f1, x0, cfg["run"]["T"])
    assert abs(estimate - expected) <= cfg["run"]["epsilon"]


def test_solve_nondissipative_config(tmp_path):
    code = run_cli("solve", CONFIGS / "nondissipative_n2.json", "--out", tmp_path)
    assert code == 0
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["regime"] == "nondissipative"
    assert manifest["errors"]["within_epsilon"] is True


def test_solve_is_bitwise_deterministic(tmp_path):
    for name in ("dissipative_n1.json", "dissipative_n2.json",
                 "linear_n1.json", "nondissipative_n2.json"):
        out_a, out_b = tmp_path / (name + "_a"), tmp_path / (name + "_b")
        assert run_cli("solve", CONFIGS / name, "--out", out_a) == 0
        assert run_cli("solve", CONFIGS / name, "--out", out_b) == 0
        assert (out_a / "result.csv").read_bytes() == \
            (out_b / "result.csv").read_bytes()


def test_second_solve_into_the_same_out_matches_the_first(tmp_path):
    # outputs are written to fresh files; a rerun leaves the same bytes
    assert run_cli("solve", CONFIGS / "dissipative_n2.json", "--out", tmp_path) == 0
    csv_a = (tmp_path / "result.csv").read_bytes()
    manifest_a = json.loads((tmp_path / "manifest.json").read_text())
    assert run_cli("solve", CONFIGS / "dissipative_n2.json", "--out", tmp_path) == 0
    assert (tmp_path / "result.csv").read_bytes() == csv_a
    manifest_b = json.loads((tmp_path / "manifest.json").read_text())
    del manifest_a["wall_times_s"], manifest_b["wall_times_s"]
    assert manifest_b == manifest_a


@pytest.mark.parametrize("name", ["dissipative_n1", "dissipative_n2",
                                  "linear_n1", "nondissipative_n2"])
def test_pipeline_error_split_matches_the_tensor_path(name, monkeypatch):
    # run_pipeline exponentiates the monomial generator and builds no dense
    # tensor matrix; the test recomputes the split with that matrix
    import carleman_fourier.tensor as tensor

    def refuse(*_args, **_kwargs):
        raise AssertionError("dense_LN called")

    cfg = cli.load_config(CONFIGS / f"{name}.json")
    ode, readout, run = cli.parse_ode(cfg), cli.parse_readout(cfg), cli.parse_run(cfg)
    ps = cli.select_params(ode, readout, run, dict(cfg["overrides"]))
    monkeypatch.setattr(cli, "dense_LN", refuse)
    monkeypatch.setattr(tensor, "dense_LN", refuse)
    outcome = cli.run_pipeline(ode, readout, run, ps)
    monkeypatch.undo()
    rescaled = outcome["rescaled"]
    psi_lin = cf.propagate_dense(cf.dense_LN(outcome["operator"]),
                                 cf.lift_initial(rescaled, ps.order), run["T"])
    coeffs = tensor_coeff_blocks(readout, rescaled, ps.order)
    lin_readout = sum(np.dot(c, b) for c, b in zip(coeffs, psi_lin.blocks))
    assert abs(outcome["koopman_error"]
               - abs(lin_readout - outcome["reference"])) <= 1e-13
    assert abs(outcome["taylor_error"]
               - abs(outcome["estimate"] - lin_readout)) <= 1e-13


def _pipeline_inputs(name, **overrides):
    cfg = cli.load_config(CONFIGS / f"{name}.json")
    ode, readout, run = cli.parse_ode(cfg), cli.parse_readout(cfg), cli.parse_run(cfg)
    ps = cli.select_params(ode, readout, run, dict(cfg["overrides"], **overrides))
    return ode, readout, run, ps


@pytest.mark.parametrize("name,overrides", [
    ("dissipative_n1", {}), ("dissipative_n2", {}), ("linear_n1", {}),
    ("nondissipative_n2", {}), ("dissipative_n2", {"N": 20})])
def test_run_pipeline_never_forms_the_tensor_layout(name, overrides, monkeypatch):
    import carleman_fourier.oracle as oracle
    import carleman_fourier.tensor as tensor

    def refuse(*_args, **_kwargs):
        raise AssertionError("tensor layout formed")

    inputs = _pipeline_inputs(name, **overrides)
    monkeypatch.setattr(tensor.TensorState, "__post_init__", refuse)
    for module, attr in ((cli, "dense_LN"), (tensor, "dense_LN"),
                         (tensor, "b0_diagonal"), (tensor, "apply_B1"),
                         (tensor, "expand"), (oracle, "expand")):
        monkeypatch.setattr(module, attr, refuse)
    outcome = cli.run_pipeline(*inputs)
    assert outcome["within_epsilon"]


def test_run_pipeline_at_order_20_stays_small():
    # n = 2, N = 20: 230 monomials; the tensor layout has 2^21 - 2 entries
    inputs = _pipeline_inputs("dissipative_n2", N=20)
    tracemalloc.start()
    try:
        outcome = cli.run_pipeline(*inputs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert outcome["lifted_state"]["monomial_dim"] == 230
    assert outcome["within_epsilon"]
    assert peak < 5e6


def test_run_pipeline_builds_the_monomial_basis_once(monkeypatch):
    # the operator builds the basis and the lift reuses its layout maps
    import carleman_fourier.linearize as linearize

    calls = []
    build = linearize.monomial_basis

    def counted(*args):
        calls.append(args)
        return build(*args)

    cfg = cli.load_config(CONFIGS / "dissipative_n2.json")
    ode, readout, run = cli.parse_ode(cfg), cli.parse_readout(cfg), cli.parse_run(cfg)
    ps = cli.select_params(ode, readout, run, dict(cfg["overrides"]))
    monkeypatch.setattr(linearize, "monomial_basis", counted)
    outcome = cli.run_pipeline(ode, readout, run, ps)
    monkeypatch.undo()
    assert calls == [(ode.n, ps.order)]
    # lifting with the operator's basis gives the same bits as without
    rescaled, op = outcome["rescaled"], outcome["operator"]
    shared = cf.lift_initial(rescaled, ps.order, basis=op.basis)
    assert shared.vector.tobytes() == cf.lift_initial(rescaled, ps.order).vector.tobytes()


def test_solve_respects_param_overrides(tmp_path):
    code = run_cli("solve", CONFIGS / "dissipative_n2.json", "--out", tmp_path,
                   "--param-overrides", "N=4,k=12")
    assert code == 0
    row = read_csv_rows(tmp_path / "result.csv")[0]
    assert row["N"] == "4" and row["k"] == "12"


def test_solve_invalid_config_exit_2(tmp_path):
    bad = tmp_path / "bad.json"
    cfg = json.loads((CONFIGS / "dissipative_n1.json").read_text())
    cfg["run"]["nu"] = -1.0
    bad.write_text(json.dumps(cfg))
    assert run_cli("solve", bad, "--out", tmp_path / "out") == 2


def test_solve_missing_file_exit_2(tmp_path):
    assert run_cli("solve", tmp_path / "nope.json", "--out", tmp_path) == 2


def test_solve_malformed_json_exit_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run_cli("solve", bad, "--out", tmp_path) == 2


def _with(section, key, value):
    def edit(cfg):
        cfg[section][key] = value
    return edit


def _nan_in_g0(cfg):
    cfg["ode"]["g0"][0][0] = float("nan")  # json writes the NaN literal


@pytest.mark.parametrize("command,edit,extra", [
    ("solve", _with("run", "T", "abc"), []),
    ("solve", _with("run", "epsilon", [1]), []),
    ("solve", _nan_in_g0, []),
    ("solve", _with("overrides", "N", "x"), []),
    ("solve", _with("overrides", "N", 4.7), []),
    ("oracle", _with("run", "samples", -3), []),
    ("solve", None, ["--param-overrides", "N=abc"]),
    ("sweep", None, ["--axis", "N", "--values", "3,x"]),
], ids=["T-text", "epsilon-list", "g0-nan", "override-N-text",
        "override-N-fraction", "negative-samples", "param-override-text", "sweep-value-text"])
def test_malformed_numbers_exit_2_with_one_json_error(tmp_path, capsys,
                                                      command, edit, extra):
    cfg = json.loads((CONFIGS / "dissipative_n2.json").read_text())
    cfg.setdefault("overrides", {})
    if edit is not None:
        edit(cfg)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))
    capsys.readouterr()
    code = run_cli(command, path, *extra, "--out", tmp_path / "out")
    assert code == 2
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == "ConfigError"


def _scalar(g0, g1, u0, coeffs, run):
    return {"ode": {"n": 1, "g0": [g0], "g1": [[g1]], "u0": [u0]},
            "readout": {"K": 2, "coeffs": [{"j": [j], "d": d} for j, d in coeffs]},
            "run": run}


_DISSIPATIVE_N2 = json.loads((CONFIGS / "dissipative_n2.json").read_text())


# inputs that ended in a traceback before the config fuzz test found them
@pytest.mark.parametrize("document,code,extra", [
    ("null", 2, []),
    (dict(_DISSIPATIVE_N2, run=math.nan), 2, []),
    (_scalar({}, [0.1, 0], [0, 0], [(1, [1, 0])], {"T": 0.1}), 2, []),
    ({"ode": {"n": 2, "g0": [[0, 1], [0, 1]], "g1": [[[0, 0], [0, 0]], []],
              "u0": [[0, 0], [0, 0]]},
      "readout": {"K": 1, "coeffs": [{"j": [1, 0], "d": [1, 0]}]},
      "run": {"T": 0.1}}, 2, []),
    (_scalar([0, 1], [0.1, 0], [0, 0], [(-math.inf, [1, 0])], {"T": 0.1}), 2, []),
    # no dynamics at all: the admissible window is unbounded, not 0/0
    (_scalar([0, 0], [0, 0], [0, 0], [(1, [0, 0])], {"T": 0.25, "epsilon": 0.1}), 2, []),
    # a coupling of 1e-216 pins nu near 1e205, so nu^K overflows
    (_scalar([0, 1e-11], [0, 3e-216], [0, 0], [(1, [-0.86, 0])],
             {"T": 0.28, "regime": "dissipative"}), 2, []),
    # the resource estimate overflows; the solve goes on without it
    (_scalar([0, 0], [1.6e-251, 0], [0, 0], [(2, [1.2e-75, 0]), (1, [0, 0])],
             {"T": 0.01, "epsilon": 0.1}), 0, []),
    # a recipe order far above the state budget
    (dict(_DISSIPATIVE_N2, overrides={"N": 10 ** 11}), 2, []),
    # step histories far above the state budget: a huge m, a huge horizon
    (_DISSIPATIVE_N2, 2, ["--param-overrides", "m=100000000"]),
    (dict(_DISSIPATIVE_N2, run=dict(_DISSIPATIVE_N2["run"], T=1e9)), 2, []),
    # the recipe asks for Taylor order k = 1017, above TAYLOR_ORDER_CAP
    (dict(_DISSIPATIVE_N2, run=dict(_DISSIPATIVE_N2["run"], epsilon=1e-300)), 2, []),
], ids=["top-level-null", "run-not-object", "g0-object-entry", "g1-ragged",
        "j-infinite", "zero-problem", "tiny-coupling", "estimate-overflow",
        "order-above-budget", "steps-above-budget", "horizon-above-budget",
        "taylor-order-above-cap"])
def test_boundary_inputs_exit_with_one_json_error(tmp_path, capsys, document,
                                                  code, extra):
    path = tmp_path / "case.json"
    path.write_text(document if isinstance(document, str) else json.dumps(document))
    capsys.readouterr()
    assert run_cli("solve", path, "--out", tmp_path / "out", *extra) == code
    err = capsys.readouterr().err.strip().splitlines()
    if code == 0:
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["resource_estimate"] is None
    else:
        assert len(err) == 1
        assert json.loads(err[0])["error"] in ("ConfigError", "BudgetError")


def test_solve_hypothesis_violation_exit_3(tmp_path):
    cfg = json.loads((CONFIGS / "nondissipative_n2.json").read_text())
    cfg["run"]["T"] = 50.0  # far beyond the admissible window
    bad = tmp_path / "toolong.json"
    bad.write_text(json.dumps(cfg))
    assert run_cli("solve", bad, "--out", tmp_path / "out") == 3


def test_oracle_divergence_exit_4(tmp_path):
    # scalar problem with a finite-time pole: the integrator's step size
    # collapses and the run reports numeric divergence
    cfg = {
        "ode": {"n": 1, "g0": [[0.0, -3.0]], "g1": [[[0.0, -4.0]]],
                "u0": [[0.0, -1.2]]},
        "readout": {"K": 1, "coeffs": [{"j": [1], "d": [1.0, 0.0]}]},
        "run": {"T": 50.0, "epsilon": 1e-3, "oracle_tol": 1e-10},
    }
    bad = tmp_path / "blowup.json"
    bad.write_text(json.dumps(cfg))
    assert run_cli("oracle", bad, "--out", tmp_path / "out") == 4


def test_solve_stepping_divergence_names_the_step(tmp_path, capsys):
    # one step of h = T = 1.5 with degree 940 at N = 600: the Taylor sum of
    # exp(-900) overflows on the last block
    code = run_cli("solve", CONFIGS / "linear_n1.json", "--param-overrides",
                   "N=600,k=940,m=1", "--out", tmp_path)
    assert code == 4
    payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert payload["error"] == "DivergenceError"
    assert payload["step"] == 1


@pytest.mark.parametrize("nu", ["3e8", "1e10"])
def test_solve_large_nu_keeps_the_dissipative_bound_finite(tmp_path, nu):
    # gamma_p^(N+1) underflows (to 0 at nu = 3e8, while (||F1|| / mu0)^(N+1-k)
    # is finite; and at nu = 1e10, where that factor overflows); the bound
    # itself is finite and positive
    code = run_cli("solve", CONFIGS / "dissipative_n2.json", "--param-overrides",
                   f"nu={nu},N=40", "--out", tmp_path)
    assert code == 0
    bounds = json.loads((tmp_path / "manifest.json").read_text())["bounds"]
    assert 0 < bounds["eta_2_bound_inf_time"] < bounds["eta_1_bound_inf_time"] < 1e-40


def test_solve_rescaling_invariance_under_nu_override(tmp_path):
    # the lifted cascade is norm-balanced under rescaling, so even an
    # absurd nu leaves the readout intact (coefficients absorb nu^{|j|})
    cfg = json.loads((CONFIGS / "dissipative_n2.json").read_text())
    cfg["overrides"] = {"nu": 100.0}
    path = tmp_path / "nu.json"
    path.write_text(json.dumps(cfg))
    assert run_cli("solve", path, "--out", tmp_path / "out") == 0
    row = read_csv_rows(tmp_path / "out" / "result.csv")[0]
    assert float(row["total_error"]) <= float(row["epsilon"])


def test_solve_cross_check_mismatch_exit_2(tmp_path):
    cfg = json.loads((CONFIGS / "dissipative_n1.json").read_text())
    cfg["run"]["expected_mu0"] = 99.0
    bad = tmp_path / "crosscheck.json"
    bad.write_text(json.dumps(cfg))
    assert run_cli("solve", bad, "--out", tmp_path / "out") == 2


def _parsed(name):
    cfg = cli.load_config(CONFIGS / f"{name}.json")
    return cli.parse_ode(cfg), cli.parse_readout(cfg), cli.parse_run(cfg)


def test_select_params_checks_dissipativity_once(monkeypatch):
    # the cross-check and the auto dispatch share one report
    ode, readout, run = _parsed("linear_n1")
    assert run["regime"] == "auto"
    calls = []
    check = cli.bounds_mod.check_dissipative

    def counted(*args):
        calls.append(args)
        return check(*args)

    monkeypatch.setattr(cli.bounds_mod, "check_dissipative", counted)
    cli.select_params(ode, readout, run, {})
    assert len(calls) == 1


@pytest.mark.parametrize("name", ["dissipative_n2", "nondissipative_n2"])
@pytest.mark.parametrize("nu", [None, 2.5])
def test_order_override_recomputes_the_step_count(name, nu):
    ode, readout, run = _parsed(name)
    ps = cli.select_params(ode, readout, run, {})
    overrides = {"N": ps.order + 2}
    if nu is not None:
        overrides["nu"] = nu
    out = cli.apply_overrides(ps, overrides, readout)
    nu_used = ps.nu if nu is None else nu
    if name == "dissipative_n2":
        rate = ps.alpha + ps.mu0
    else:
        rate = ps.alpha + nu_used * ps.g1_row_q
    steps = step_count_for(ps.horizon, ps.order + 2, rate)
    assert (out.order, out.steps, out.step_size) == (
        ps.order + 2, steps, ps.horizon / steps)
    assert out.nu == nu_used
    assert out.s == max(nu_used, nu_used ** readout.degree)


def test_oracle_sample_grid_above_budget_exit_2(tmp_path, capsys):
    cfg = json.loads((CONFIGS / "dissipative_n1.json").read_text())
    cfg["run"]["samples"] = 10 ** 12
    path = tmp_path / "samples.json"
    path.write_text(json.dumps(cfg))
    capsys.readouterr()
    assert run_cli("oracle", path, "--out", tmp_path / "out") == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert json.loads(err[0])["error"] == "BudgetError"


# -------------------------------------------------------------------- sweep

def test_sweep_order_axis_bound_dominates(tmp_path):
    code = run_cli("sweep", CONFIGS / "dissipative_n2.json", "--axis", "N",
                   "--values", "3,4,5,6", "--out", tmp_path)
    assert code == 0
    rows = read_csv_rows(tmp_path / "result.csv")
    assert len(rows) == 4
    for row in rows:
        assert row["error"] == ""
        measured = float(row["eta_1_measured"])
        bound = float(row["eta_1_bound_inf_time"])
        assert measured <= bound + 1e-10


def test_sweep_epsilon_axis_order_monotone(tmp_path):
    code = run_cli("sweep", CONFIGS / "dissipative_n2.json", "--axis",
                   "epsilon", "--values", "1e-2,1e-3,1e-4,1e-5",
                   "--out", tmp_path)
    assert code == 0
    rows = read_csv_rows(tmp_path / "result.csv")
    orders = [int(row["N"]) for row in rows]
    assert orders == sorted(orders)


def test_sweep_empty_values_header_only(tmp_path):
    code = run_cli("sweep", CONFIGS / "dissipative_n2.json", "--axis", "N",
                   "--values", "", "--out", tmp_path)
    assert code == 0
    text = (tmp_path / "result.csv").read_text().strip().splitlines()
    assert len(text) == 1
    assert text[0].startswith("axis,value,N,k,m")


def test_sweep_records_row_errors_and_continues(tmp_path):
    # N=1 is below the readout degree 2: the row errors, the sweep survives
    code = run_cli("sweep", CONFIGS / "dissipative_n2.json", "--axis", "N",
                   "--values", "1,4", "--out", tmp_path)
    assert code == 0
    rows = read_csv_rows(tmp_path / "result.csv")
    assert "ConfigError" in rows[0]["error"]
    assert rows[1]["error"] == ""


def _single_run_columns(name, **overrides):
    """The numeric sweep columns of one pipeline run with its own oracle,
    recipe, report and operator, as the sweep prints them."""
    ode, readout, run, ps = _pipeline_inputs(name, **overrides)
    outcome = cli.run_pipeline(ode, readout, run, ps)
    rescaled = outcome["rescaled"]
    eta1 = inf_time = finite_time = None
    if outcome["psi_lin"] is not None:
        u_final = cf.integrate(ode, run["T"], tol=run["oracle_tol"]).state_at(run["T"])
        eta1 = cf.vector_p_norm(np.exp(1j * u_final) / ps.nu
                                - outcome["psi_lin"].blocks[0], ps.p)
    report = cf.check_dissipative(ode, ps.p)
    if report.dissipative:
        inf_time = cf.eta_bound_dissipative(report, rescaled, ps.order, 1,
                                            ps.p).value
    if ps.regime == "nondissipative":
        finite_time = cf.eta_bound_finite_time(rescaled, ps.order, ps.r,
                                               run["T"], ps.p).value
    values = {
        "N": ps.order, "k": ps.taylor_order, "m": ps.steps, "nu": ps.nu,
        "epsilon": ps.epsilon, "eta_1_measured": eta1,
        "eta_1_bound_inf_time": inf_time,
        "eta_bound_finite_time": finite_time,
        "total_error": outcome["total_error"],
        "estimate_re": outcome["estimate"].real,
        "estimate_im": outcome["estimate"].imag,
        "reference_re": outcome["reference"].real,
        "reference_im": outcome["reference"].imag,
    }
    return {key: cli.fmt(value) for key, value in values.items()}


def _count_calls(monkeypatch, module, name):
    calls = []
    function = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return function(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_sweep_integrates_the_oracle_once(tmp_path, monkeypatch):
    calls = _count_calls(monkeypatch, cli, "integrate")
    code = run_cli("sweep", CONFIGS / "nondissipative_n2.json", "--axis", "N",
                   "--values", "4,5,6,7,8", "--out", tmp_path)
    monkeypatch.undo()
    assert code == 0
    assert len(calls) == 1
    # every numeric column matches a pipeline run with its own oracle
    for row in read_csv_rows(tmp_path / "result.csv"):
        assert row["error"] == ""
        single = _single_run_columns("nondissipative_n2", N=int(row["N"]))
        assert single["eta_1_measured"] != ""
        assert single["eta_bound_finite_time"] != ""
        assert {key: row[key] for key in single} == single


@pytest.mark.parametrize("axis,values,recipes,bases", [
    # one basis, at the largest order, serves every row as its leading
    # section; each row builds its own operator on it
    ("N", "6,4,8,5,7", 1, 1),
    ("nu", "2,3.5,5,2", 1, 1),
    ("k", "2,5,9", 1, 1),
    # each row has its own run section and recipe
    ("epsilon", "1e-2,1e-3", 2, 1),
    ("r", "4,5,6", 3, 1),           # rows at nu and N of their own
])
def test_sweep_shares_the_recipe_and_the_operator(tmp_path, monkeypatch, axis,
                                                  values, recipes, bases):
    import carleman_fourier.linearize as linearize

    recipe_calls = _count_calls(monkeypatch, cli, "select_regime")
    basis_calls = [_count_calls(monkeypatch, module, "monomial_basis")
                   for module in (linearize, cli)]
    report_calls = _count_calls(monkeypatch, cli.bounds_mod, "check_dissipative")
    code = run_cli("sweep", CONFIGS / "nondissipative_n2.json", "--axis", axis,
                   "--values", values, "--out", tmp_path)
    monkeypatch.undo()
    basis_calls = basis_calls[0] + basis_calls[1]
    assert code == 0
    assert (len(recipe_calls), len(basis_calls), len(report_calls)) == (
        recipes, bases, 1)
    rows = read_csv_rows(tmp_path / "result.csv")
    assert [row["error"] for row in rows] == [""] * len(values.split(","))
    if axis == "N":
        assert basis_calls == [(2, 8)]
    if axis == "r":
        assert basis_calls == [(2, max(int(row["N"]) for row in rows))]
    if axis in ("epsilon", "r"):  # not overrides: no single run to compare with
        return
    for row in rows:
        value = float(row["value"]) if axis == "nu" else int(row["value"])
        single = _single_run_columns("nondissipative_n2", **{axis: value})
        assert {col: row[col] for col in single} == single


def test_sweep_row_above_the_state_budget_fails_alone(tmp_path):
    # N = 2000 stores more generator entries than the budget: that row
    # reports BudgetError, and the operator of N = 4 is not built at 2000
    code = run_cli("sweep", CONFIGS / "dissipative_n2.json", "--axis", "N",
                   "--values", "4,2000", "--out", tmp_path)
    assert code == 0
    rows = read_csv_rows(tmp_path / "result.csv")
    assert rows[0]["error"] == ""
    assert rows[1]["error"].startswith("BudgetError")
    single = _single_run_columns("dissipative_n2", N=4)
    assert {key: rows[0][key] for key in single} == single


def test_run_pipeline_on_a_larger_operator_matches_its_own():
    # on the leading section of a larger basis, as a sweep runs its rows
    ode, readout, run, ps = _pipeline_inputs("dissipative_n2", N=5)
    own = cli.run_pipeline(ode, readout, run, ps)
    shared = cli.run_pipeline(ode, readout, run, ps,
                              basis=monomial_basis(ode.n, 8))
    assert shared["operator"].order == 5
    for key in ("estimate", "reference", "total_error", "koopman_error",
                "taylor_error", "residual", "lifted_state"):
        assert shared[key] == own[key]
    assert shared["psi_lin"].vector.tobytes() == own["psi_lin"].vector.tobytes()


def test_run_pipeline_refuses_an_operator_of_another_problem():
    # a basis of another n, or of an order below the run's, is refused
    ode, readout, run, ps = _pipeline_inputs("dissipative_n2", N=5)
    for basis in (monomial_basis(ode.n + 1, 8), monomial_basis(ode.n, 4)):
        with pytest.raises(cf.ConfigError):
            cli.run_pipeline(ode, readout, run, ps, basis=basis)


def test_solve_finite_time_bound_overflow_reads_inf(tmp_path):
    # nu = 1e4 puts (e^{rate T} / r)^N past the double range
    code = run_cli("solve", CONFIGS / "nondissipative_n2.json",
                   "--param-overrides", "nu=1e4", "--out", tmp_path)
    assert code == 0
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["bounds"]["eta_bound_finite_time"] == math.inf


def test_sweep_keeps_rows_whose_bound_overflows(tmp_path):
    code = run_cli("sweep", CONFIGS / "nondissipative_n2.json", "--axis", "nu",
                   "--values", "2,1e4", "--out", tmp_path)
    assert code == 0
    rows = read_csv_rows(tmp_path / "result.csv")
    assert [row["error"] for row in rows] == ["", ""]
    assert rows[1]["eta_bound_finite_time"] == "inf"
    assert math.isfinite(float(rows[0]["eta_bound_finite_time"]))


def test_sweep_keeps_rows_whose_dissipative_bound_factors_overflow(tmp_path):
    cfg = json.loads((CONFIGS / "dissipative_n2.json").read_text())
    cfg["overrides"] = {"nu": 1e10}
    path = tmp_path / "large_nu.json"
    path.write_text(json.dumps(cfg))
    code = run_cli("sweep", path, "--axis", "N", "--values", "7,40",
                   "--out", tmp_path / "out")
    assert code == 0
    rows = read_csv_rows(tmp_path / "out" / "result.csv")
    assert [row["error"] for row in rows] == ["", ""]
    assert all(0 < float(row["eta_1_bound_inf_time"]) < 1e-15 for row in rows)


def test_sweep_oracle_failure_fills_every_row(tmp_path, monkeypatch):
    def diverge(*_args, **_kwargs):
        raise DivergenceError("integrate: step-size failure near t=0.1")

    monkeypatch.setattr(cli, "integrate", diverge)
    code = run_cli("sweep", CONFIGS / "dissipative_n2.json", "--axis", "N",
                   "--values", "3,4,5", "--out", tmp_path)
    assert code == 0
    rows = read_csv_rows(tmp_path / "result.csv")
    assert len(rows) == 3
    assert all(row["error"].startswith("DivergenceError: integrate") for row in rows)


# ----------------------------------------------------------------- estimate

def test_estimate_both_regimes(tmp_path):
    code = run_cli("estimate", CONFIGS / "dissipative_n2.json", "--out", tmp_path)
    assert code == 0
    data = json.loads((tmp_path / "estimate.json").read_text())
    diss = data["dissipative"]
    assert diss["alpha_LN_dense_check"] is True
    assert diss["resource_estimate"]["alpha_LN"] >= diss["dense_norm_2"]
    assert "error" in data["nondissipative"]  # T exceeds the window here


def test_estimate_window_uses_the_recipe_default_nu(tmp_path):
    # the failure detail evaluates T_max at the nu the recipe would pick
    assert run_cli("estimate", CONFIGS / "dissipative_n2.json",
                   "--out", tmp_path) == 0
    nd = json.loads((tmp_path / "estimate.json").read_text())["nondissipative"]
    cfg = cli.load_config(CONFIGS / "dissipative_n2.json")
    ode, readout, run = cli.parse_ode(cfg), cli.parse_readout(cfg), cli.parse_run(cfg)
    nu = default_nu(ode, run["r"], run["p"])
    expected = cf.t_max_nondissipative(cf.rescale(ode, readout, nu), run["r"],
                                       run["p"], float(max(abs(ode.g0))))
    assert nd["t_max"] == expected
    assert 0.1 < nd["t_max"] < run["T"]


def test_estimate_refuses_r_equal_e(tmp_path):
    cfg = json.loads((CONFIGS / "nondissipative_n2.json").read_text())
    cfg["run"]["r"] = math.e
    path = tmp_path / "re.json"
    path.write_text(json.dumps(cfg))
    code = run_cli("estimate", path, "--out", tmp_path)
    # neither regime admits the problem at r = e: hypothesis-violation exit,
    # with the explanation (and the collapsed window) still written out
    assert code == 3
    data = json.loads((tmp_path / "estimate.json").read_text())
    nd = data["nondissipative"]
    assert "error" in nd
    assert nd["t_max"] == pytest.approx(0.0, abs=1e-12)


def test_estimate_improved_encoding_factor(tmp_path):
    plain_dir, improved_dir = tmp_path / "plain", tmp_path / "improved"
    assert run_cli("estimate", CONFIGS / "dissipative_n2.json",
                   "--out", plain_dir) == 0
    assert run_cli("estimate", CONFIGS / "dissipative_n2.json",
                   "--improved-encoding", "--out", improved_dir) == 0
    plain = json.loads((plain_dir / "estimate.json").read_text())
    improved = json.loads((improved_dir / "estimate.json").read_text())
    n = plain["dissipative"]["params"]["order"]
    ratio = (plain["dissipative"]["resource_estimate"]["queries_G"]
             / improved["dissipative"]["resource_estimate"]["queries_G"])
    assert ratio == pytest.approx(n ** 3, rel=1e-9)


# ------------------------------------------------------------------- oracle

def test_oracle_trajectory_dump(tmp_path):
    code = run_cli("oracle", CONFIGS / "dissipative_n1.json", "--out", tmp_path)
    assert code == 0
    rows = read_csv_rows(tmp_path / "trajectory.csv")
    assert len(rows) == 101
    assert set(rows[0]) == {"t", "re(x_1)", "im(x_1)"}
    assert float(rows[0]["re(x_1)"]) == pytest.approx(0.4)
    assert float(rows[-1]["t"]) == pytest.approx(1.0)


def test_manifest_carries_budget_and_resources(tmp_path):
    assert run_cli("solve", CONFIGS / "dissipative_n2.json",
                   "--out", tmp_path) == 0
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["error_budget"] is not None
    names = [line[0] for line in manifest["error_budget"]]
    assert names == ["koopman", "taylor", "block_encoding",
                     "expectation_estimation"]
    assert all(line[3] for line in manifest["error_budget"])
    assert manifest["resource_estimate"]["queries_G"] > 0
    assert manifest["config_digest"]
    assert manifest["wall_times_s"]["solve_s"] > 0


def test_manifest_records_the_lifted_state(tmp_path):
    assert run_cli("solve", CONFIGS / "dissipative_n2.json",
                   "--out", tmp_path) == 0
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    params = manifest["params"]
    assert params["order"] == 7
    # n = 2, N = 7: sum 2^j = 254 tensor entries, sum (j + 1) = 35 monomials
    split = manifest["lifted_state"].pop("split")
    assert manifest["lifted_state"] == {
        "basis": "monomial",
        "tensor_dim": 254,
        "monomial_dim": 35,
        "generator_applies": params["steps"] * params["taylor_order"] * 2,
    }
    # the Koopman/Taylor split: Taylor steps of exp(L T) psi0, no verify pass
    ode, readout, run, ps = _pipeline_inputs("dissipative_n2")
    op = cf.LinearOperatorLN.from_rescaled(cf.rescale(ode, readout, ps.nu), ps.order)
    grid = action_config(op, run["T"])
    assert split == {"steps": grid.m, "taylor_order": grid.k,
                     "generator_applies": grid.m * grid.k}
    assert manifest["wall_times_s"]["dense_check_s"] > 0


def test_split_over_the_stepping_budget_is_null(tmp_path):
    # ||L T||_1 is about 1.2e6: the split would need about 6e5 steps of 12
    # monomials, above the stepping budget, while the run itself steps once
    config = tmp_path / "stiff.json"
    config.write_text(json.dumps({
        "ode": {"n": 1, "g0": [[0.0, 1e5]], "g1": [[[0.25, 0.0]]],
                "u0": [[0.4, 0.0]]},
        "readout": {"K": 1, "coeffs": [{"j": [1], "d": [1.0, 0.0]}]},
        "run": {"T": 1.0, "epsilon": 1e-4, "p": 2, "regime": "dissipative"},
        "overrides": {"N": 12, "m": 1, "k": 4}}))
    assert run_cli("solve", config, "--out", tmp_path / "out") == 0
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["errors"]["koopman"] is None
    assert manifest["errors"]["taylor"] is None
    assert manifest["lifted_state"]["split"] is None
    assert manifest["error_budget"] is None


def test_sweep_r_axis_records_per_row_errors(tmp_path):
    # r = 3 shrinks the admissible window below the configured horizon: the
    # row records the violation and the sweep continues
    code = run_cli("sweep", CONFIGS / "nondissipative_n2.json", "--axis", "r",
                   "--values", "3,5,6", "--out", tmp_path)
    assert code == 0
    rows = read_csv_rows(tmp_path / "result.csv")
    assert "HypothesisViolation" in rows[0]["error"]
    assert rows[1]["error"] == "" and rows[2]["error"] == ""
    for row in rows[1:]:
        assert float(row["eta_bound_finite_time"]) > 0


def test_sweep_nu_axis(tmp_path):
    code = run_cli("sweep", CONFIGS / "dissipative_n2.json", "--axis", "nu",
                   "--values", "3.0,6.0,9.0", "--out", tmp_path)
    assert code == 0
    rows = read_csv_rows(tmp_path / "result.csv")
    assert [float(r["nu"]) for r in rows] == [3.0, 6.0, 9.0]
    for row in rows:
        assert row["error"] == ""
        assert float(row["total_error"]) <= float(row["epsilon"])


def test_sweep_k_axis(tmp_path):
    code = run_cli("sweep", CONFIGS / "dissipative_n1.json", "--axis", "k",
                   "--values", "4,8,16", "--out", tmp_path)
    assert code == 0
    rows = read_csv_rows(tmp_path / "result.csv")
    totals = [float(r["total_error"]) for r in rows]
    # more Taylor terms cannot hurt, and by k = 16 stepping error is gone
    assert totals[2] <= totals[0] + 1e-12
