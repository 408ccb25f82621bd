import gc
import json
import math
import os
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import carleman_fourier as cf
from carleman_fourier import cli, study
from carleman_fourier.cli import main
from carleman_fourier.errors import DivergenceError
from carleman_fourier.linearize import monomial_basis
from carleman_fourier.params import default_nu
from carleman_fourier.taylor import step_count_for

from conftest import make_dissipative_ode, tensor_coeff_blocks

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
    # the operator and the lift share one basis, built by the run
    import carleman_fourier.linearize as linearize

    cfg = cli.load_config(CONFIGS / "dissipative_n2.json")
    ode, readout, run = cli.parse_ode(cfg), cli.parse_readout(cfg), cli.parse_run(cfg)
    ps = cli.select_params(ode, readout, run, dict(cfg["overrides"]))
    calls = [_count_calls(monkeypatch, module, "monomial_basis")
             for module in (linearize, study)]
    outcome = cli.run_pipeline(ode, readout, run, ps)
    monkeypatch.undo()
    assert calls[0] + calls[1] == [(ode.n, ps.order)]
    # lifting on the operator's basis gives the same bits as lift_initial
    rescaled, op = outcome["rescaled"], outcome["operator"]
    shared = cf.lift_point(rescaled.w0, op.basis)
    assert shared.vector.tobytes() == cf.lift_initial(rescaled, ps.order).vector.tobytes()


def test_run_pipeline_computes_the_split_grid_once(monkeypatch):
    # the run's own grid meets the exponential's bound on dissipative_n2
    # (||L||_1 h = 0.82 at k = 25, stepped at degree 17), so the split
    # computes no grid of its own
    import carleman_fourier.oracle as oracle

    ode, readout, run, ps = _pipeline_inputs("dissipative_n2")
    calls = [_count_calls(monkeypatch, module, "action_config")
             for module in (oracle, study)]
    outcome = cli.run_pipeline(ode, readout, run, ps)
    monkeypatch.undo()
    assert calls == [[], []]
    op = outcome["operator"]
    psi0 = cf.lift_point(outcome["rescaled"].w0, op.basis)
    grid = cf.TaylorConfig(m=ps.steps, h=ps.step_size,
                           k=outcome["lifted_state"]["taylor_degree"])
    assert (cf.forward_solve(op, grid, psi0, verify=False).final.vector.tobytes()
            == outcome["psi_lin"].vector.tobytes())


@pytest.mark.parametrize("name,overrides", [
    *(pytest.param(name, {}, id=name) for name in (
        "dissipative_n1", "dissipative_n2", "linear_n1", "nondissipative_n2")),
    # far above 1024 tensor entries: grids (26, 26) and (87, 27)
    pytest.param("dissipative_n2", {"N": 12}, id="dissipative_n2-N12"),
    pytest.param("dissipative_n2", {"N": 40}, id="dissipative_n2-N40")])
def test_split_reuses_the_run_where_its_grid_meets_the_bound(name, overrides):
    # every bundled run steps within min(theta_k, 2), and so at the least
    # degree d that does: exp(L T) psi0 is the run's final state, so the
    # Taylor part reads 0 and the lifting part is the whole error
    from carleman_fourier.oracle import action_step_bound, step_degree

    ode, readout, run, ps = _pipeline_inputs(name, **overrides)
    outcome = cli.run_pipeline(ode, readout, run, ps)
    op = outcome["operator"]
    step_norm = op.norm_1() * ps.step_size
    assert step_norm <= action_step_bound(ps.taylor_order)
    degree = step_degree(step_norm, ps.taylor_order)
    assert step_norm <= action_step_bound(degree)
    assert degree == 1 or step_norm > action_step_bound(degree - 1)
    assert degree < ps.taylor_order
    assert outcome["lifted_state"]["taylor_degree"] == degree
    assert outcome["lifted_state"]["generator_norm_1"] == op.norm_1()
    assert outcome["taylor_error"] == 0.0
    assert outcome["koopman_error"] == outcome["total_error"]
    assert outcome["lifted_state"]["split"] == {
        "steps": ps.steps, "taylor_order": degree, "generator_applies": 0}
    psi0 = cf.lift_point(outcome["rescaled"].w0, op.basis)
    grid = cf.TaylorConfig(m=ps.steps, h=ps.step_size, k=degree)
    assert (cf.forward_solve(op, grid, psi0, verify=False).final.vector.tobytes()
            == outcome["psi_lin"].vector.tobytes())


def test_split_keeps_its_own_grid_where_the_run_steps_too_far(monkeypatch):
    # k = 3: ||L||_1 h = 0.82 is far above theta_3 = 1.39e-5, so the split
    # evaluates exp(L T) psi0 on action_config's grid, at one norm_1
    import carleman_fourier.oracle as oracle

    ode, readout, run, ps = _pipeline_inputs("dissipative_n2", k=3)
    norms = _count_calls(monkeypatch, cf.LinearOperatorLN, "norm_1")
    calls = [_count_calls(monkeypatch, module, "action_config")
             for module in (oracle, study)]
    outcome = cli.run_pipeline(ode, readout, run, ps)
    monkeypatch.undo()
    assert len(norms) == 1
    assert len(calls[0]) + len(calls[1]) == 1
    assert outcome["lifted_state"]["split"] == {
        "steps": 7, "taylor_order": 23, "generator_applies": 161}
    op = outcome["operator"]
    psi0 = cf.lift_point(outcome["rescaled"].w0, op.basis)
    assert (cf.propagate(op, psi0, run["T"]).vector.tobytes()
            == outcome["psi_lin"].vector.tobytes())
    assert outcome["taylor_error"] == pytest.approx(1.29e-5, rel=1e-3)
    assert outcome["koopman_error"] < 1e-7


def test_split_keeps_its_own_grid_at_order_40():
    # k = 3 at N = 40, 2^41 - 2 tensor entries: the split steps on its own
    # grid of 42 steps of degree 23
    ode, readout, run, ps = _pipeline_inputs("dissipative_n2", k=3, N=40)
    outcome = cli.run_pipeline(ode, readout, run, ps)
    assert outcome["lifted_state"]["split"] == {
        "steps": 42, "taylor_order": 23, "generator_applies": 966}
    op = outcome["operator"]
    psi0 = cf.lift_point(outcome["rescaled"].w0, op.basis)
    assert (cf.propagate(op, psi0, run["T"]).vector.tobytes()
            == outcome["psi_lin"].vector.tobytes())
    assert outcome["taylor_error"] == pytest.approx(7.29e-8, rel=1e-3)
    assert outcome["koopman_error"] < 1e-7


def test_split_on_its_own_grid_counts_the_propagator_applies():
    # k = 3 on dissipative_n1 (M = 7): the split's grid of 10 steps of degree
    # 23 steps by the propagator, at 23 * 7 applies instead of 23 * 10
    ode, readout, run, ps = _pipeline_inputs("dissipative_n1", k=3)
    outcome = cli.run_pipeline(ode, readout, run, ps)
    assert outcome["lifted_state"]["split"] == {
        "steps": 10, "taylor_order": 23, "generator_applies": 161}
    # the run steps 22 times at k = 3 by its propagator, and verifies each
    assert outcome["lifted_state"]["generator_applies"] == 3 * (7 + 22)
    op = outcome["operator"]
    psi0 = cf.lift_point(outcome["rescaled"].w0, op.basis)
    assert (cf.propagate(op, psi0, run["T"]).vector.tobytes()
            == outcome["psi_lin"].vector.tobytes())


def test_split_reuses_the_run_on_a_ladder_size_problem():
    # a seeded dissipative problem at n = 3, N = 8: 9840 tensor entries, 165
    # monomials; the run's own steps, at the least degree that meets the
    # exponential's bound, give exp(L T) psi0
    from carleman_fourier.oracle import step_degree

    ode = make_dissipative_ode(np.random.default_rng(0), 3)
    readout = cf.ReadoutSpec(degree=1, coeffs={(1, 0, 0): 0.6, (0, 0, 1): 0.8j})
    run = cli.parse_run({"run": {"T": 1.0, "epsilon": 1e-6,
                                 "regime": "dissipative"}})
    ps = cli.select_params(ode, readout, run, {"N": 8})
    outcome = cli.run_pipeline(ode, readout, run, ps)
    assert outcome["lifted_state"]["tensor_dim"] == 9840
    assert outcome["psi_lin"] is not None
    degree = step_degree(outcome["operator"].norm_1() * ps.step_size,
                         ps.taylor_order)
    assert outcome["lifted_state"]["taylor_degree"] == degree < ps.taylor_order
    assert outcome["lifted_state"]["split"] == {
        "steps": ps.steps, "taylor_order": degree, "generator_applies": 0}
    assert outcome["lifted_state"]["generator_applies"] == 2 * ps.steps * degree
    assert outcome["koopman_error"] == outcome["total_error"]


@pytest.mark.parametrize("k,reused", [(12, False), (16, False), (17, True)])
def test_split_reuse_boundary_is_theta_k(k, reused):
    # ||L||_1 h = 0.82 on dissipative_n2's 16 steps: theta_12 = 0.30 and
    # theta_16 = 0.78 lie below it, theta_17 = 0.93 above
    ode, readout, run, ps = _pipeline_inputs("dissipative_n2", k=k)
    outcome = cli.run_pipeline(ode, readout, run, ps)
    split = outcome["lifted_state"]["split"]
    assert (split["generator_applies"] == 0) is reused
    assert (split["steps"], split["taylor_order"]) == (
        (16, k) if reused else (7, 23))


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


COMMAND_ARGS = {"solve": [], "sweep": ["--axis", "N", "--values", "4"],
                "estimate": [], "oracle": []}


def _unreadable_config(tmp_path, kind):
    if kind == "directory":
        path = tmp_path / "config.json"
        path.mkdir()
        return path
    path = tmp_path / f"{kind}.json"
    text = (CONFIGS / "linear_n1.json").read_bytes()
    assert text.startswith(b"{")
    # a 0xFF byte inside a string of an otherwise valid config; a UTF-8 BOM
    # in front of one is refused as well
    path.write_bytes({"non_utf8": b'{"note": "\xff", ' + text[1:],
                      "bom": b"\xef\xbb\xbf" + text}[kind])
    return path


@pytest.mark.parametrize("kind", ["directory", "non_utf8", "bom"])
@pytest.mark.parametrize("command", sorted(COMMAND_ARGS))
def test_unreadable_config_exit_2(tmp_path, capsys, command, kind):
    config = _unreadable_config(tmp_path, kind)
    code = run_cli(command, config, *COMMAND_ARGS[command],
                   "--out", tmp_path / "out")
    assert code == 2
    payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert payload["error"] == "ConfigError"


@pytest.mark.parametrize("command", sorted(COMMAND_ARGS))
def test_run_p_below_1_exits_2_in_every_command(tmp_path, capsys, command):
    # p < 1 is no norm: the run section is refused as a bad epsilon or T is
    path = _config_with(tmp_path, "dissipative_n2", "run", p=0.5)
    capsys.readouterr()
    code = run_cli(command, path, *COMMAND_ARGS[command], "--out", tmp_path / "out")
    assert code == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert [json.loads(line) for line in err] == [
        {"error": "ConfigError", "message": "run.p must be >= 1"}]


def test_config_digest_is_of_the_parsed_bytes(tmp_path):
    import hashlib
    data = (CONFIGS / "linear_n1.json").read_bytes()
    path = tmp_path / "config.json"
    path.write_bytes(data)
    assert cli.load_config(path)["_digest"] == hashlib.sha256(data).hexdigest()


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


@pytest.mark.parametrize("edit,extra,field", [
    (lambda cfg: cfg.pop("run"), [], "'run'"),
    (_with("readout", "coeffs", []), [], "readout.coeffs"),
    (_with("readout", "coeffs", [{"d": [1, 0]}]), [], "'j'"),
    (_with("run", "regime", "chaotic"), [], "run.regime"),
    (_with("run", "T", -0.5), [], "run.T"),
    (_with("run", "epsilon", 0), [], "run.epsilon"),
    (_with("run", "T", "1e999"), [], "run.T"),
    (None, ["--param-overrides", "N"], "override"),
    (_with("ode", "n", 0), [], "ode.n must be >= 1"),
    (lambda cfg: cfg["ode"]["g0"].pop(), [], "ode.g0"),
    (lambda cfg: cfg["ode"]["g1"].pop(), [], "ode.g1"),
    (lambda cfg: cfg["ode"]["u0"].pop(), [], "ode.u0"),
    (_with("readout", "K", 0), [], "readout.K"),
    (lambda cfg: cfg["readout"]["coeffs"][0]["j"].append(0), [], "multi-index lengths"),
    (lambda cfg: cfg["readout"]["coeffs"][0].update(d=["1e999", 0]), [], "coefficient"),
], ids=["missing-section", "coeffs-empty", "coeff-without-j", "regime-unknown",
        "T-negative", "epsilon-zero", "T-not-finite", "override-without-equals",
        "n-zero", "g0-shape", "g1-shape", "u0-shape", "K-zero",
        "mixed-multi-index-lengths", "coeff-not-finite"])
def test_malformed_configs_exit_2_naming_the_field(tmp_path, capsys, edit, extra,
                                                   field):
    cfg = json.loads((CONFIGS / "dissipative_n2.json").read_text())
    if edit is not None:
        edit(cfg)
    path = tmp_path / "bad.json"
    # "1e999" stands for the JSON number literal, which parses as inf
    path.write_text(json.dumps(cfg).replace('"1e999"', "1e999"))
    capsys.readouterr()
    assert run_cli("solve", path, *extra, "--out", tmp_path / "out") == 2
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    payload = json.loads(lines[0])
    assert payload["error"] == "ConfigError"
    assert field in payload["message"]


def test_unknown_run_keys_exit_2_naming_them(tmp_path, capsys):
    # a misspelt key is refused, not ignored: ignored, the run would take
    # the default epsilon of 1e-3 and report within = True
    cfg = json.loads((CONFIGS / "dissipative_n2.json").read_text())
    cfg["run"]["epsilom"] = 1e-9
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))
    capsys.readouterr()
    assert run_cli("solve", path, "--out", tmp_path / "out") == 2
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    payload = json.loads(lines[0])
    assert payload["error"] == "ConfigError"
    assert "['epsilom']" in payload["message"]
    assert "'epsilon'" in payload["message"]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("below", [False, True], ids=["file", "below-a-file"])
@pytest.mark.parametrize("command,extra", [
    ("solve", []),
    ("sweep", ["--axis", "N", "--values", "4"]),
    ("estimate", []),
    ("oracle", []),
])
def test_unwritable_out_exits_2_with_one_json_error(tmp_path, capsys,
                                                    monkeypatch, command,
                                                    extra, below):
    # --out names a file, or a directory below one: the command's output
    # cannot be written, so it is refused before the study or the oracle
    # runs, and the file is left as it was
    blocker = tmp_path / "blocker"
    blocker.write_text("kept")
    out = blocker / "out" if below else blocker

    def refuse(*_args, **_kwargs):
        raise AssertionError("work started")

    monkeypatch.setattr(cli, "Study", refuse)
    monkeypatch.setattr(cli, "integrate", refuse)
    capsys.readouterr()
    assert run_cli(command, CONFIGS / "linear_n1.json", *extra,
                   "--out", out) == 2
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    payload = json.loads(lines[0])
    assert payload["error"] == "ConfigError"
    assert str(out) in payload["message"]
    assert blocker.read_text() == "kept"


@pytest.mark.parametrize("below", [False, True],
                         ids=["the-directory", "below-it"])
@pytest.mark.parametrize("command,extra", [
    ("solve", []),
    ("sweep", ["--axis", "N", "--values", "4"]),
    ("estimate", []),
    ("oracle", []),
])
def test_out_in_a_read_only_directory_exits_2_before_any_work(
        tmp_path, capsys, monkeypatch, command, extra, below):
    # the nearest existing directory of --out cannot be written: the command
    # is refused before the study or the oracle runs, and nothing is made.
    # os.access reports the directory read-only, as a user other than root
    # would find it
    locked = tmp_path / "locked"
    locked.mkdir()
    out = locked / "out" / "deeper" if below else locked
    access = os.access

    def read_only(path, mode, *args, **kwargs):
        if Path(path) == locked and mode & os.W_OK:
            return False
        return access(path, mode, *args, **kwargs)

    def refuse(*_args, **_kwargs):
        raise AssertionError("work started")

    monkeypatch.setattr(os, "access", read_only)
    monkeypatch.setattr(cli, "Study", refuse)
    monkeypatch.setattr(cli, "integrate", refuse)
    capsys.readouterr()
    assert run_cli(command, CONFIGS / "linear_n1.json", *extra,
                   "--out", out) == 2
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    payload = json.loads(lines[0])
    assert payload["error"] == "ConfigError"
    assert str(out) in payload["message"]
    assert str(locked) in payload["message"]
    assert list(locked.iterdir()) == []


@pytest.mark.parametrize("command,extra", [
    ("solve", []), ("estimate", []), ("sweep", ["--axis", "N", "--values", "4,5"])],
    ids=["solve", "estimate", "sweep"])
def test_readout_of_another_dimension_is_refused_before_any_work(
        tmp_path, capsys, monkeypatch, command, extra):
    # n = 2 with multi-indices of length 3: a config error of the CLI, not a
    # regime that admits nothing (estimate), a failed row (sweep) or a
    # failure after the oracle ran (solve)
    cfg = json.loads((CONFIGS / "dissipative_n2.json").read_text())
    for item in cfg["readout"]["coeffs"]:
        item["j"].append(0)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))

    def refuse(*_args, **_kwargs):
        raise AssertionError("work started")

    monkeypatch.setattr(cli, "Study", refuse)
    capsys.readouterr()
    assert run_cli(command, path, *extra, "--out", tmp_path / "out") == 2
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    payload = json.loads(lines[0])
    assert payload["error"] == "ConfigError"
    assert "readout.coeffs" in payload["message"]
    assert "ode.n" in payload["message"]
    assert not (tmp_path / "out").exists()


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
    # one step of h = T = 1.5 with degree 500 (TAYLOR_ORDER_CAP) at N = 1200:
    # the Taylor sum of exp(-1800) overflows on the last block
    code = run_cli("solve", CONFIGS / "linear_n1.json", "--param-overrides",
                   "N=1200,k=500,m=1", "--out", tmp_path)
    assert code == 4
    payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert payload["error"] == "DivergenceError"
    assert payload["step"] == 1
    assert payload["layer"] == "taylor.forward_solve"
    # the message names the grid, stepped by Horner above 8 monomials
    assert ("at step 1 (t = 1.5) of m=1 steps of h=1.5 at Taylor order k=500 "
            "on M=1200 monomials (n=1, N=1200), stepped by Horner"
            in payload["message"])
    # and carries the grid as a field of its own
    assert payload["grid"] == {"m": 1, "h": 1.5, "k": 500, "M": 1200, "n": 1,
                               "N": 1200, "path": "Horner"}


def test_overflowing_initial_state_writes_only_its_json_error(tmp_path):
    # nu = 1e-200 puts w0 near 1e200: its norm in rescale and its powers in
    # lift_point overflow silently, and forward_solve's finiteness check
    # reports the state; stderr holds that one JSON line and no warning
    import os
    import subprocess
    import sys

    out = subprocess.run(
        [sys.executable, "-m", "carleman_fourier.cli", "solve",
         str(CONFIGS / "dissipative_n2.json"), "--param-overrides",
         "nu=1e-200", "--out", str(tmp_path)],
        capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=str(REPO / "src")))
    assert out.returncode == 4
    lines = out.stderr.splitlines()
    assert len(lines) == 1
    payload = json.loads(lines[0])
    assert (payload["error"], payload["step"]) == ("DivergenceError", 0)


def test_pinned_taylor_order_above_the_cap_is_refused(tmp_path, capsys):
    # a pinned k meets TAYLOR_ORDER_CAP as a derived one does, before any
    # step: k = 10^8 would otherwise step for minutes
    message = "pinned Taylor order k=100000000 exceeds cap 500"
    code = run_cli("solve", CONFIGS / "dissipative_n2.json", "--param-overrides",
                   "k=100000000", "--out", tmp_path / "solve")
    assert code == 2
    payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert payload["error"] == "ConfigError"
    assert payload["message"].startswith(message)
    code = run_cli("sweep", CONFIGS / "dissipative_n2.json", "--axis", "k",
                   "--values", "4,100000000", "--out", tmp_path / "sweep")
    assert code == 0
    rows = read_csv_rows(tmp_path / "sweep" / "result.csv")
    assert rows[0]["error"] == ""
    assert rows[1]["error"].startswith(f"ConfigError: {message}")
    # the cap itself is allowed
    ode, readout, run, _ps = _pipeline_inputs("dissipative_n2")
    assert cli.select_params(ode, readout, run, {"k": 500}).taylor_order == 500
    with pytest.raises(cf.ConfigError, match="k=501 exceeds cap 500"):
        cli.select_params(ode, readout, run, {"k": 501})


def test_solve_hypothesis_violation_names_the_layer(tmp_path, capsys):
    cfg = json.loads((CONFIGS / "nondissipative_n2.json").read_text())
    cfg["run"]["regime"] = "dissipative"
    path = tmp_path / "forced.json"
    path.write_text(json.dumps(cfg))
    assert run_cli("solve", path, "--out", tmp_path / "out") == 3
    payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert payload["error"] == "HypothesisViolation"
    assert payload["layer"] == "params.select_dissipative"


@pytest.mark.parametrize("name", ["dissipative_n1", "dissipative_n2",
                                  "linear_n1", "nondissipative_n2"])
def test_one_dissipativity_report_per_run(tmp_path, monkeypatch, name):
    import carleman_fourier.bounds as bounds
    import carleman_fourier.params as params
    # cli calls bounds.check_dissipative, params its own import of it
    calls = (_count_calls(monkeypatch, bounds, "check_dissipative"),
             _count_calls(monkeypatch, params, "check_dissipative"))
    assert run_cli("solve", CONFIGS / f"{name}.json", "--out", tmp_path) == 0
    assert sum(map(len, calls)) == 1
    for made in calls:
        made.clear()
    _pipeline_inputs(name)  # select_params
    assert sum(map(len, calls)) == 1


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


@pytest.mark.parametrize("name,nu", [
    ("dissipative_n2", None), ("dissipative_n2", 2.5),
    ("nondissipative_n2", None), ("nondissipative_n2", 20.0),
], ids=["None-dissipative_n2", "2.5-dissipative_n2", "None-nondissipative_n2",
        "20.0-nondissipative_n2"])
def test_order_override_recomputes_the_step_count(name, nu):
    # nu is a recipe input; an override of N pins the grid's N, and m
    # follows from it at the rate of the recipe's nu
    ode, readout, run = _parsed(name)
    ps = cli.select_params(ode, readout, run, {} if nu is None else {"nu": nu})
    overrides = {"N": ps.order + 2}
    if nu is not None:
        overrides["nu"] = nu
    out = cli.select_params(ode, readout, run, overrides)
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


# the ParamSet field of each derivation_log entry
LOGGED_FIELDS = {"nu": "nu", "T_max": "t_max", "N": "order", "m": "steps",
                 "Gamma": "gamma_bound", "k": "taylor_order", "c1": "c1",
                 "c2": "c2", "tau": "tau", "sigma": "sigma", "delta": "delta",
                 "s": "s", "z": "z", "ell": "ell"}
# an in-window nu for each config: the non-dissipative window of
# nondissipative_n2 is about nu in [8.0, 46.6]
OVERRIDE_NU = {"dissipative_n1": 6.0, "dissipative_n2": 6.0, "linear_n1": 6.0,
               "nondissipative_n2": 30.0}


@pytest.mark.parametrize("keys", [(), ("N",), ("k",), ("m",), ("nu",),
                                  ("N", "m", "nu")], ids="-".join)
@pytest.mark.parametrize("name", ["dissipative_n1", "dissipative_n2",
                                  "linear_n1", "nondissipative_n2"])
def test_derivation_log_reads_the_fields_it_names(name, keys):
    ode, readout, run = _parsed(name)
    recipe = cli.select_params(ode, readout, run, {})
    values = {"N": recipe.order + 1, "k": 5, "m": recipe.steps + 2,
              "nu": OVERRIDE_NU[name]}
    overrides = {key: values[key] for key in keys}
    ps = cli.select_params(ode, readout, run, overrides)
    assert set(overrides) <= {entry for entry, _f, _v in ps.derivation_log}
    for entry, formula, value in ps.derivation_log:
        assert value == getattr(ps, LOGGED_FIELDS[entry]), entry
        assert (formula == "pinned") == (entry in overrides), entry
    for key, field in (("N", "order"), ("k", "taylor_order"), ("m", "steps"),
                       ("nu", "nu")):
        if key in overrides:
            assert getattr(ps, field) == overrides[key]


@pytest.mark.parametrize("name,nu", [("dissipative_n2", 3.0),
                                     ("linear_n1", 6.0),
                                     ("nondissipative_n2", 30.0)])
def test_nu_override_is_the_run_nu(name, nu):
    # both recipes take run.nu, and an override of nu sets it
    ode, readout, run = _parsed(name)
    by_override = cli.select_params(ode, readout, run, {"nu": nu})
    by_run = cli.select_params(ode, readout, dict(run, nu=nu), {})
    assert by_override == by_run
    assert by_run.nu == nu


def test_nondissipative_overrides_rederive_the_recipe():
    ode, readout, run = _parsed("nondissipative_n2")
    ps = cli.select_params(ode, readout, run, {"nu": 30.0})
    assert ps.t_max == cf.t_max_nondissipative(cf.rescale(ode, readout, 30.0),
                                               run["r"], run["p"], ps.alpha)
    logged = {entry: value for entry, _formula, value in
              cli.select_params(ode, readout, run, {"N": 12}).derivation_log}
    assert (logged["N"], logged["m"]) == (12, 4)
    logged = {entry: value for entry, _formula, value in
              cli.select_params(ode, readout, run, {"k": 3}).derivation_log}
    assert logged["k"] == 3


def test_uncoupled_dissipative_log_names_the_formulas_it_used():
    # linear_n1 has G1 = 0, so R_p = 0: the recipe takes nu = sqrt(2)
    # |e^(iu0)|_2 (1 + 1e-6), N = max(1, K), and gamma = |e^(iu0)|_2/nu in
    # place of R_p; the log names those, not mu0/|G1|_row_q and log(1/R_p)
    ode, readout, run = _parsed("linear_n1")
    ps = cli.select_params(ode, readout, run, {})
    assert ps.regime == "dissipative" and ps.g1_row_q == 0 and ps.r_p == 0
    texts = {entry: formula for entry, formula, _v in ps.derivation_log}
    assert not [text for text in texts.values() if "R_p" in text or "G1" in text]
    assert texts["nu"] == "sqrt(2) |e^(i u0)|_2 (1+1e-6)"
    assert ps.nu == pytest.approx(
        math.sqrt(2) * np.linalg.norm(np.exp(1j * ode.u0)) * (1 + 1e-6),
        rel=1e-15)
    assert texts["N"] == "max(1, K)" and ps.order == max(1, readout.degree)
    # the gamma formulas evaluate to the logged values
    d, s, m, eps, g = ps.d_norm2, ps.s, ps.steps, ps.epsilon, ps.gamma
    spread = g / math.sqrt(1 - g ** 2)
    for entry, expected in (
            ("c1", eps * math.sqrt(m) / (4 * d * s) / spread),
            ("delta", eps / (math.sqrt(m) * d * s) / spread),
            ("z", d * s * math.sqrt(ps.alpha) * spread)):
        assert "gamma" in texts[entry]
        assert getattr(ps, entry) == pytest.approx(expected, rel=1e-14)
    assert "gamma" in texts["k"]
    assert texts["s"] == "max(nu, nu^K) with nu = sqrt(2) |e^(i u0)|_2 (1+1e-6)"


@pytest.mark.parametrize("name,nu,layer", [
    # below the non-dissipative window, and without coupling below
    # |e^{iu0}|_2 = 1
    ("nondissipative_n2", "2", "params.select_nondissipative"),
    ("linear_n1", "0.5", "params.select_dissipative"),
])
def test_nu_override_outside_the_hypotheses_exit_3(tmp_path, capsys, name, nu,
                                                   layer):
    code = run_cli("solve", CONFIGS / f"{name}.json", "--param-overrides",
                   f"nu={nu}", "--out", tmp_path)
    assert code == 3
    payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert (payload["error"], payload["layer"]) == ("HypothesisViolation", layer)


@pytest.mark.parametrize("key,value,message", [
    ("N", 1, "override N=1 is below the readout degree 2"),
    ("k", 0, "override k must be >= 1"),
    ("m", 0, "override m must be >= 1"),
    ("nu", -1.0, "override nu must be positive"),
    ("nu", 0, "override nu must be positive"),
    ("q", 1, "unknown override key"),
])
@pytest.mark.parametrize("route", ["config", "flag"])
def test_overrides_are_checked_alike_in_the_config_and_the_flag(
        tmp_path, capsys, route, key, value, message):
    cfg = json.loads((CONFIGS / "dissipative_n2.json").read_text())
    extra = []
    if route == "config":
        cfg["overrides"] = {key: value}
    else:
        extra = ["--param-overrides", f"{key}={value}"]
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    capsys.readouterr()
    assert run_cli("solve", path, *extra, "--out", tmp_path / "out") == 2
    payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert payload["error"] == "ConfigError"
    assert payload["message"].startswith(message)


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


def _sample_counts(passes):
    return [samples for _tol, samples in passes]


def test_sweep_integrates_the_oracle_once(tmp_path, monkeypatch, rk45_passes):
    calls = _count_calls(monkeypatch, study, "final_state")
    trajectories = _count_calls(monkeypatch, study, "integrate")
    code = run_cli("sweep", CONFIGS / "nondissipative_n2.json", "--axis", "N",
                   "--values", "4,5,6,7,8", "--out", tmp_path)
    monkeypatch.undo()
    assert code == 0
    # one RK45 pass, with no sample grid, for all rows
    assert (len(calls), len(trajectories)) == (1, 0)
    assert _sample_counts(rk45_passes) == [0]
    # every numeric column matches a pipeline run with its own oracle, whose
    # reference is read off a whole integrate trajectory
    for row in read_csv_rows(tmp_path / "result.csv"):
        assert row["error"] == ""
        single = _single_run_columns("nondissipative_n2", N=int(row["N"]))
        assert single["eta_1_measured"] != ""
        assert single["eta_bound_finite_time"] != ""
        assert {key: row[key] for key in single} == single


def test_sweep_measures_eta_1_above_1024_tensor_entries(tmp_path):
    # dissipative_n2 at N = 10 and 12: 2046 and 8190 tensor entries
    assert run_cli("sweep", CONFIGS / "dissipative_n2.json", "--axis", "N",
                   "--values", "10,12", "--out", tmp_path) == 0
    for row in read_csv_rows(tmp_path / "result.csv"):
        assert row["error"] == ""
        single = _single_run_columns("dissipative_n2", N=int(row["N"]))
        assert single["eta_1_measured"] != ""
        assert {key: row[key] for key in single} == single


@pytest.mark.parametrize("axis,values,recipes,bases", [
    # one basis, at the largest order, serves every row as its leading
    # section; each row builds its own operator on it
    ("N", "6,4,8,5,7", 1, 1),
    ("k", "2,5,9", 1, 1),
    # each distinct run section has its own recipe: nu is run.nu
    ("nu", "10,20,30,10", 3, 1),
    ("epsilon", "1e-2,1e-3", 2, 1),
    ("r", "4,5,6", 3, 1),           # rows at nu and N of their own
])
def test_sweep_shares_the_recipe_and_the_operator(tmp_path, monkeypatch, axis,
                                                  values, recipes, bases):
    import carleman_fourier.linearize as linearize

    recipe_calls = _count_calls(monkeypatch, study.Study, "select_regime")
    basis_calls = [_count_calls(monkeypatch, module, "monomial_basis")
                   for module in (linearize, study)]
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


def test_study_builds_one_basis_for_runs_taken_largest_order_first(
        monkeypatch):
    # N = 8, then N = 5 on the leading section of its basis: each outcome is
    # bit for bit run_pipeline's on a basis of its own
    import carleman_fourier.linearize as linearize

    ode, readout, run, _ps = _pipeline_inputs("dissipative_n2")
    lab = study.Study(ode, readout, run)
    params = [lab.params(run, {"N": order}) for order in (8, 5)]
    calls = [_count_calls(monkeypatch, module, "monomial_basis")
             for module in (linearize, study)]
    outcomes = [lab.outcome(ps) for ps in params]
    monkeypatch.undo()
    assert calls[0] + calls[1] == [(ode.n, 8)]
    for ps, outcome in zip(params, outcomes):
        own = cli.run_pipeline(ode, readout, run, ps)
        assert outcome["operator"].order == ps.order
        assert outcome["estimate"] == own["estimate"]
        assert outcome["residual"] == own["residual"]
        assert (outcome["psi_lin"].vector.tobytes()
                == own["psi_lin"].vector.tobytes())


@pytest.mark.parametrize("run,layer", [
    ({"regime": "dissipative"}, "params.select_dissipative"),
    ({"T": 1.0}, "params.select_nondissipative"),
])
def test_hypothesis_violation_carries_the_inputs_it_tested(tmp_path, capsys,
                                                          run, layer):
    # a non-dissipative problem forced into the dissipative recipe, and a
    # horizon past the non-dissipative window (T_max about 0.094)
    cfg = json.loads((CONFIGS / "nondissipative_n2.json").read_text())
    cfg["run"].update(run)
    path = tmp_path / "violation.json"
    path.write_text(json.dumps(cfg))
    assert run_cli("solve", path, "--out", tmp_path / "out") == 3
    payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert (payload["error"], payload["layer"]) == ("HypothesisViolation", layer)
    params = payload["params"]
    assert (params["regime"], params["p"]) == (layer.split("_")[-1], 2.0)
    if layer == "params.select_dissipative":
        assert params["mu0"] == -0.3 and params["R_p"] == math.inf
    else:
        assert params["r"] == 5.0 and params["nu"] > 0
        assert params["horizon"] == 1.0 > params["T_max"] > 0


def test_run_pipeline_refuses_an_operator_of_another_problem():
    # a basis of another n, or of an order below the run's, is refused
    ode, readout, run, ps = _pipeline_inputs("dissipative_n2", N=5)
    for basis in (monomial_basis(ode.n + 1, 8), monomial_basis(ode.n, 4)):
        with pytest.raises(cf.ConfigError):
            cli.run_pipeline(ode, readout, run, ps, basis=basis)


def test_solve_finite_time_bound_overflow_reads_inf(tmp_path, capsys):
    # nu = 1e4 lies above the admissible window (about nu in [8.0, 46.6]),
    # so the recipe refuses it.  Inside the window T <= ln(r/e)/rate keeps
    # e^{rate T} / r below 1/e, and the bound cannot overflow; test_bounds
    # covers the overflow to inf at the library level.
    code = run_cli("solve", CONFIGS / "nondissipative_n2.json",
                   "--param-overrides", "nu=1e4", "--out", tmp_path)
    assert code == 3
    payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert payload["error"] == "HypothesisViolation"
    assert payload["layer"] == "params.select_nondissipative"


def test_sweep_keeps_rows_whose_bound_overflows(tmp_path):
    # rows outside the admissible window fail alone; the row inside runs
    code = run_cli("sweep", CONFIGS / "nondissipative_n2.json", "--axis", "nu",
                   "--values", "2,1e4,20", "--out", tmp_path)
    assert code == 0
    rows = read_csv_rows(tmp_path / "result.csv")
    assert [row["error"].split(":")[0] for row in rows] == [
        "HypothesisViolation", "HypothesisViolation", ""]
    assert math.isfinite(float(rows[2]["eta_bound_finite_time"]))
    assert float(rows[2]["total_error"]) <= float(rows[2]["epsilon"])


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

    monkeypatch.setattr(study, "final_state", diverge)
    code = run_cli("sweep", CONFIGS / "dissipative_n2.json", "--axis", "N",
                   "--values", "3,4,5", "--out", tmp_path)
    assert code == 0
    rows = read_csv_rows(tmp_path / "result.csv")
    assert len(rows) == 3
    assert all(row["error"].startswith("DivergenceError: integrate") for row in rows)


def _config_with(tmp_path, name, section, **values):
    """A copy of a bundled config with `values` set in `section`."""
    cfg = json.loads((CONFIGS / f"{name}.json").read_text())
    cfg.setdefault(section, {}).update(values)
    path = tmp_path / f"{name}-{section}.json"
    path.write_text(json.dumps(cfg))
    return path


def test_sweep_cross_check_failure_fills_every_row(tmp_path):
    path = _config_with(tmp_path, "dissipative_n2", "run", expected_mu0=99.0)
    code = run_cli("sweep", path, "--axis", "N", "--values", "1,4,5",
                   "--out", tmp_path / "out")
    assert code == 0
    rows = read_csv_rows(tmp_path / "out" / "result.csv")
    # the shared failure, even on the row whose own value is refused
    assert [row["error"].split(" disagrees")[0] for row in rows] == [
        "ConfigError: run.expected_mu0 = 99.0"] * 3
    assert all(row["total_error"] == "" for row in rows)


def test_shared_failures_of_the_oracle_and_the_report(tmp_path, capsys,
                                                      monkeypatch):
    # both x(T) and the report fail: a sweep computes x(T) first, a solve
    # its parameters (and so the report) before its oracle
    def diverge(*_args, **_kwargs):
        raise DivergenceError("integrate: step-size failure near t=0.1")

    for name in ("final_state", "integrate"):
        monkeypatch.setattr(study, name, diverge)
    path = _config_with(tmp_path, "dissipative_n2", "run", expected_mu0=99.0)
    assert run_cli("sweep", path, "--axis", "N", "--values", "4,5",
                   "--out", tmp_path / "sweep") == 0
    rows = read_csv_rows(tmp_path / "sweep" / "result.csv")
    assert all(row["error"].startswith("DivergenceError: integrate")
               for row in rows)
    capsys.readouterr()
    assert run_cli("solve", path, "--out", tmp_path / "solve") == 2
    payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert payload["error"] == "ConfigError"
    assert payload["message"].startswith("run.expected_mu0 = 99.0 disagrees")


@pytest.mark.parametrize("name", ["dissipative_n1", "dissipative_n2",
                                  "linear_n1", "nondissipative_n2"])
def test_run_pipeline_integrates_one_pass_without_samples(name, rk45_passes):
    ode, readout, run, ps = _pipeline_inputs(name)
    outcome = cli.run_pipeline(ode, readout, run, ps)
    assert _sample_counts(rk45_passes) == [0]
    assert "oracle_global_error" not in outcome
    # a given state is read as it is: no pass, the same outcome
    rk45_passes.clear()
    traj = cf.integrate(ode, run["T"], tol=run["oracle_tol"])
    given = cli.run_pipeline(ode, readout, run, ps, traj.state_at(run["T"]))
    assert _sample_counts(rk45_passes) == [65, 65]
    assert given["u_final"].tobytes() == outcome["u_final"].tobytes()
    for key in ("estimate", "reference", "total_error", "koopman_error",
                "taylor_error"):
        assert given[key] == outcome[key]


@pytest.mark.parametrize("command,samples", [("solve", 65), ("oracle", 101)])
def test_solve_and_oracle_integrate_both_passes(tmp_path, rk45_passes,
                                                command, samples):
    assert run_cli(command, CONFIGS / "dissipative_n2.json",
                   "--out", tmp_path) == 0
    assert _sample_counts(rk45_passes) == [samples, samples]


def test_solve_writes_both_passes_of_its_oracle(tmp_path, monkeypatch):
    # oracle_global_error is integrate's gap between the passes, the
    # reference reads its trajectory, and oracle_s times integrate too
    ode, readout, run, _ps = _pipeline_inputs("dissipative_n2")
    traj = cf.integrate(ode, run["T"], tol=run["oracle_tol"])
    integrate = study.integrate

    def slow(*args, **kwargs):
        time.sleep(0.05)
        return integrate(*args, **kwargs)

    monkeypatch.setattr(study, "integrate", slow)
    assert run_cli("solve", CONFIGS / "dissipative_n2.json", "--out", tmp_path) == 0
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["errors"]["oracle_global_error"] == traj.est_global_error
    reference = cf.eval_readout(readout, traj.state_at(run["T"]))
    assert manifest["reference"] == [reference.real, reference.imag]
    assert manifest["wall_times_s"]["oracle_s"] >= 0.05


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


def test_estimate_window_takes_the_recipe_inputs(tmp_path, monkeypatch):
    # the failure detail reads nu and alpha from the helper the recipe
    # reads, so the two cannot disagree about the window
    from carleman_fourier import params

    recipe_inputs = params.nondissipative_inputs

    def doubled(*args, **kwargs):
        nu, alpha = recipe_inputs(*args, **kwargs)
        return 2 * nu, 2 * alpha

    for module in (params, cli):
        monkeypatch.setattr(module, "nondissipative_inputs", doubled)
    assert run_cli("estimate", CONFIGS / "dissipative_n2.json",
                   "--out", tmp_path) == 0
    nd = json.loads((tmp_path / "estimate.json").read_text())["nondissipative"]
    ode, readout, run = _parsed("dissipative_n2")
    nu, alpha = doubled(ode, run["r"], run["p"])
    assert "error" in nd
    assert nd["t_max"] == cf.t_max_nondissipative(
        cf.rescale(ode, readout, nu), run["r"], run["p"], alpha)
    assert nu == 2 * default_nu(ode, run["r"], run["p"])


@pytest.mark.parametrize("name, regime", [
    ("dissipative_n1", "nondissipative"), ("dissipative_n2", "nondissipative"),
    ("linear_n1", "nondissipative"), ("nondissipative_n2", "dissipative")])
def test_estimate_writes_the_params_of_a_failed_regime(tmp_path, capsys, name,
                                                       regime):
    # every bundled config has one regime that does not admit it: its entry
    # carries the error and the inputs of the failed precondition, the same
    # dict that a solve pinned to that regime writes with its JSON error
    assert run_cli("estimate", CONFIGS / f"{name}.json",
                   "--out", tmp_path / "estimate") == 0
    data = json.loads((tmp_path / "estimate" / "estimate.json").read_text())
    detail = data[regime]
    path = _config_with(tmp_path, name, "run", regime=regime)
    capsys.readouterr()
    assert run_cli("solve", path, "--out", tmp_path / "solve") == 3
    payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert detail["error"] == f"HypothesisViolation: {payload['message']}"
    assert detail["params"] == payload["params"]
    assert detail["params"]["regime"] == regime


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


@pytest.mark.parametrize("overrides", [{"N": "abc"}, {"foo": 1}],
                         ids=["N-text", "unknown-key"])
def test_estimate_checks_the_overrides_as_solve_does(tmp_path, capsys, overrides):
    path = _config_with(tmp_path, "dissipative_n2", "overrides", **overrides)
    payloads = []
    for command in ("solve", "estimate"):
        capsys.readouterr()
        assert run_cli(command, path, "--out", tmp_path / command) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        payloads.append(json.loads(err[0]))
    assert payloads[0]["error"] == "ConfigError"
    assert payloads[1] == payloads[0]


def test_estimate_runs_at_the_overrides_of_solve(tmp_path):
    # N = 12 on nondissipative_n2: the recipe alone picks N = 8
    path = _config_with(tmp_path, "nondissipative_n2", "overrides", N=12)
    assert run_cli("solve", path, "--out", tmp_path / "solve") == 0
    assert run_cli("estimate", path, "--out", tmp_path / "estimate") == 0
    manifest = json.loads((tmp_path / "solve" / "manifest.json").read_text())
    data = json.loads((tmp_path / "estimate" / "estimate.json").read_text())
    entry = data["nondissipative"]
    assert entry["params"]["order"] == manifest["params"]["order"] == 12
    assert entry["params"] == manifest["params"]
    assert entry["resource_estimate"] == manifest["resource_estimate"]
    assert entry["resource_estimate"]["queries_G"] == pytest.approx(6.25e18, rel=1e-2)
    assert "error" in data["dissipative"]


def test_estimate_cross_check_mismatch_exit_2(tmp_path, capsys):
    # the report both regimes share is checked first: its failure is a
    # ConfigError, not "no regime admits this problem"
    path = _config_with(tmp_path, "dissipative_n1", "run", expected_mu0=99.0)
    capsys.readouterr()
    assert run_cli("estimate", path, "--out", tmp_path / "out") == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    payload = json.loads(err[0])
    assert payload["error"] == "ConfigError"
    assert payload["message"].startswith("run.expected_mu0 = 99.0 disagrees")
    assert not (tmp_path / "out" / "estimate.json").exists()


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


def test_oracle_peak_memory_does_not_hold_the_csv(tmp_path):
    # 20,000 samples: 0.64 MB of states per pass and 1.9 MB of CSV text,
    # written a batch of rows at a time
    cfg = json.loads((CONFIGS / "dissipative_n2.json").read_text())
    cfg["run"]["samples"] = 20000
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    tracemalloc.start()
    try:
        assert run_cli("oracle", path, "--out", tmp_path) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len((tmp_path / "trajectory.csv").read_bytes().splitlines()) == 20001
    assert peak < 3e6


# ------------------------------------------------------------------- output

def _written(write, path):
    """The bytes write(path) leaves at path, or the type of the encoding
    error it raises."""
    try:
        write(path)
    except UnicodeEncodeError as exc:
        return type(exc)
    return path.read_bytes()


@pytest.mark.parametrize("pieces", [
    [],
    [""],
    ["{", "\n  ", '"a"', ": ", "1.5", "\n", "}"],
    # more than one batch, with a batch of empty pieces inside
    [f"{i}," for i in range(100)] + [""] * (2 * cli.WRITE_BATCH) + ["end\n"],
    ["ConfigError: cannot read '/data/r\u00e9sultats/\u03bd.json'\n"],
])
def test_write_output_writes_the_bytes_of_write_text(tmp_path, pieces):
    text = "".join(pieces)
    expected = _written(lambda p: p.write_text(text), tmp_path / "expected")
    assert _written(lambda p: cli._write_output(p, text),
                    tmp_path / "str") == expected
    assert _written(lambda p: cli._write_output(p, iter(pieces)),
                    tmp_path / "pieces") == expected


def test_write_csv_writes_the_bytes_of_write_text(tmp_path):
    # an error cell quotes a path that is not ASCII
    rows = [["value", "total_error", "error"],
            [4, 1.25e-7, ""],
            [5, None, "ConfigError: cannot read /tmp/\u00e9t\u00e9.json"]]
    text = "".join(",".join(cli.fmt(cell) for cell in row) + "\n"
                   for row in rows)
    expected = _written(lambda p: p.write_text(text), tmp_path / "expected")
    assert _written(lambda p: cli._write_csv(p, iter(rows)),
                    tmp_path / "rows") == expected


@pytest.mark.parametrize("name", ["dissipative_n1", "dissipative_n2",
                                  "linear_n1", "nondissipative_n2"])
def test_solve_manifest_is_the_stdlib_json_format(tmp_path, name):
    # the manifest is written as its encoder yields it, in the bytes
    # json.dumps(..., indent=2) would join
    assert run_cli("solve", CONFIGS / f"{name}.json", "--out", tmp_path) == 0
    text = (tmp_path / "manifest.json").read_text()
    assert text == json.dumps(json.loads(text), indent=2)


_JSON_VALUES = st.recursive(
    st.one_of(st.text(), st.integers(), st.floats(), st.booleans(), st.none(),
              st.floats().map(np.float64)),
    lambda children: st.one_of(
        st.lists(children, max_size=4), st.lists(children, max_size=4).map(tuple),
        st.dictionaries(st.one_of(st.text(), st.integers(), st.floats(),
                                  st.booleans(), st.none()),
                        children, max_size=4)),
    max_leaves=20)
# json.dumps refuses these values, and a tuple as a key
_JSON_REFUSED = st.one_of(st.complex_numbers(), st.binary(max_size=2),
                          st.integers(0, 3).map(np.int64),
                          st.booleans().map(np.bool_))


@settings(max_examples=300, deadline=None)
@given(_JSON_VALUES)
def test_json_pieces_are_the_bytes_of_json_dumps(value):
    # str with non-ASCII and control characters, ints, floats with NaN,
    # +-inf, -0.0 and subnormals, float subclasses, non-str keys
    assert "".join(cli._json_pieces(value)) == json.dumps(value, indent=2)


@settings(max_examples=100, deadline=None)
@given(_JSON_VALUES, _JSON_REFUSED, st.tuples(st.integers()))
def test_json_pieces_refuse_what_json_dumps_refuses(value, refused, key):
    for bad in ({"a": [value, [refused]]}, [{"a": value, key: 0}]):
        with pytest.raises(TypeError):
            json.dumps(bad, indent=2)
        with pytest.raises(TypeError):
            "".join(cli._json_pieces(bad))


# --------------------------------------------------------------------- main

def test_main_parses_without_cycles_and_runs_the_current_command(monkeypatch):
    # one parser serves every call, so a call leaves nothing for the cycle
    # collector; the command is cmd_<name> as the module holds it then
    seen = []
    monkeypatch.setattr(cli, "cmd_oracle", lambda args: seen.append(args.config) or 0)
    assert run_cli("oracle", "first") == 0
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        assert run_cli("oracle", "second") == 0
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()
    assert seen == ["first", "second"]


def test_commands_leave_nothing_for_the_cycle_collector(tmp_path, capsys):
    # a process that runs many commands holds no garbage of earlier ones
    # under its later peaks: no command leaves a reference cycle behind
    config = CONFIGS / "dissipative_n2.json"
    commands = [["solve", config], ["estimate", config],
                ["sweep", config, "--axis", "N", "--values", "4,5"],
                ["oracle", config]]
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        for command in commands:
            for attempt in range(2):
                assert run_cli(*command, "--out", tmp_path / f"{attempt}") == 0
                assert gc.collect() == 0, command[0]
    finally:
        if enabled:
            gc.enable()
    capsys.readouterr()


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
    # n = 2, N = 7: sum 2^j = 254 tensor entries, sum (j + 1) = 35 monomials;
    # ||L||_1 h = 0.82 lies between theta_16 = 0.78 and theta_17 = 0.93, so
    # the recipe's k = 25 steps at degree 17
    from carleman_fourier.oracle import step_degree

    split = manifest["lifted_state"].pop("split")
    norm = manifest["lifted_state"].pop("generator_norm_1")
    assert params["taylor_order"] == 25
    assert step_degree(norm * params["step_size"], params["taylor_order"]) == 17
    assert manifest["lifted_state"] == {
        "basis": "monomial",
        "tensor_dim": 254,
        "monomial_dim": 35,
        "taylor_degree": 17,
        "generator_applies": params["steps"] * 17 * 2,
    }
    # the Koopman/Taylor split reads exp(L T) psi0 off the run's own steps,
    # which meet the exponential's bound: no generator apply of its own
    assert split == {"steps": params["steps"], "taylor_order": 17,
                     "generator_applies": 0}
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


def test_split_refused_by_the_budget_at_order_40_is_null(tmp_path):
    # at nu = 1e10 ||L T||_1 asks more steps than the stepping budget: the
    # split is null and the solve still succeeds
    assert run_cli("solve", CONFIGS / "dissipative_n2.json", "--out", tmp_path,
                   "--param-overrides", "nu=1e10,N=40") == 0
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["lifted_state"]["split"] is None
    assert manifest["errors"]["koopman"] is None
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


def test_sweep_over_orders_that_meet_the_step_bound_writes_one_estimate(
        tmp_path):
    # ||L||_1 h on linear_n1's 4 steps lies within theta_13: every k from 13
    # up steps at degree 13, so each row writes the same estimate and
    # eta_1, bit for bit (stepped at k itself, k >= 16 read another last bit)
    code = run_cli("sweep", CONFIGS / "linear_n1.json", "--axis", "k",
                   "--values", "13,16,24,40", "--out", tmp_path)
    assert code == 0
    rows = read_csv_rows(tmp_path / "result.csv")
    assert [row["k"] for row in rows] == ["13", "16", "24", "40"]
    assert all(row["error"] == "" for row in rows)
    assert len({(row["estimate_re"], row["estimate_im"], row["eta_1_measured"])
                for row in rows}) == 1
