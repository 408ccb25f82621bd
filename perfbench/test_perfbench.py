"""Tests of the benchmark itself:  python3 -m pytest perfbench"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

run.import_program()

import calibrate  # noqa: E402
import tracing  # noqa: E402  (needs the program on sys.path)
import workloads  # noqa: E402
from carleman_fourier import check_dissipative, cli  # noqa: E402


def test_smoke_mode_checks_names_units_and_failures():
    proc = subprocess.run([sys.executable, str(run.BENCH / "run.py"), "--smoke"],
                          cwd=run.ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-4000:]
    lines = [json.loads(line) for line in proc.stdout.splitlines()
             if line.startswith('{"correct"')]
    assert len(lines) == 6
    assert all(line["correct"] and line["failed"] == 0 for line in lines)


def test_fails_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("work", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "configs",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


@pytest.mark.parametrize("seed", [0, 1, 7])
@pytest.mark.parametrize("n,order", workloads.LADDER)
def test_ladder_generator_selects_the_target_size(seed, n, order):
    problem = workloads.ladder_problem(seed, n, order)
    assert check_dissipative(problem.ode, 2).dissipative
    assert problem.ode.g0.imag.min() >= 1.0
    ps = cli.select_params(problem.ode, problem.readout, problem.run, {})
    assert (ps.order, ps.steps) == (order, workloads.LADDER_STEPS)


def test_ladder_generator_is_seeded():
    a = workloads.ladder_problem(3, 2, 12)
    b = workloads.ladder_problem(3, 2, 12)
    c = workloads.ladder_problem(4, 2, 12)
    assert (a.ode.g1 == b.ode.g1).all()
    assert not (a.ode.g1 == c.ode.g1).all()


def test_tail_has_ten_rounds_beyond_it():
    times = [float(i) for i in range(25)]
    value, percentile, count = run.tail(times)
    assert sum(t > value for t in times) == 10
    assert (percentile, count) == (60.0, 25)


def test_times_are_rescaled_to_the_reference_speed():
    scale = calibrate.Calibration.scale
    assert scale(calibrate.REFERENCE_S, calibrate.REFERENCE_S) == 1.0
    assert scale(calibrate.REFERENCE_S, 3 * calibrate.REFERENCE_S) == 0.5


def test_a_round_is_timed_task_by_task():
    class HalfSpeed:  # every kernel pass takes twice the reference time
        scale = staticmethod(calibrate.Calibration.scale)

        def seconds(self):
            return 2 * calibrate.REFERENCE_S

    class TwoTasks:
        def tasks(self):
            return [lambda: ["a"], lambda: ["b", "c"]]

    results, wall, scaled, cpu = run.timed_round(TwoTasks(), HalfSpeed())
    assert results == ["a", "b", "c"]
    assert scaled == pytest.approx(wall / 2)


def test_gate_counts_every_kind_of_miss():
    Result = workloads.Result

    class Two:
        keys = ["a", "b"]

    gate = run.Gate(Two(), {"b": 1 + 0j})
    gate.check([Result("a", 1 + 0j, 1 + 0j, 1e-3), Result("b", 1 + 0j, 1 + 0j, 1e-3)],
               "first")
    assert gate.failures == []
    gate.check([Result("a", 1 + 1e-4j, 1 + 0j, 1e-3),  # not bitwise equal
                Result("b", 1 + 0j, 2 + 0j, 1e-3)],    # outside epsilon
               "second")
    gate.check([Result("a", None, None, 1e-3, "exit code 4")], "third")  # b missing
    assert gate.attempted == 6
    assert len(gate.failures) == 4


def test_unaccounted_time_is_what_no_layer_covers():
    # [name, start, end, parent, result id, extras]
    tracer = tracing.Tracer()
    tracer.spans = [
        ["bench.round", 0.0, 10.0, None, 0, None],           # self 1
        ["cli.run_pipeline", 0.0, 9.0, 0, 0, None],          # self 2
        ["taylor.forward_solve", 1.0, 7.0, 1, 0, None],      # self 2
        ["taylor.apply_Vk", 1.0, 4.0, 2, 0, None],           # self 1
        ["linearize.apply_LN", 1.0, 3.0, 3, 0, None],        # stepping apply
        ["linearize.apply_LN", 5.0, 6.0, 2, 0, None],        # verify apply
        ["taylor.readout_value", 7.0, 8.0, 1, 0, None],      # self 1
    ]
    metrics = tracer.round_metrics(0, 1)
    assert metrics["linearize.apply_s"] == 3.0
    assert metrics["taylor.forward_s"] == 6.0
    assert metrics["taylor.verify_s"] == 3.0
    assert metrics["taylor.useful_apply_share"] == 0.5
    # the round's, run_pipeline's and readout_value's own time
    assert metrics["trace.unaccounted_s"] == 4.0


def test_layers_claim_each_span_once():
    claimed = [name for names in tracing.SELF_TIME.values() for name in names]
    claimed += tracing.TAYLOR_FORWARD
    assert len(claimed) == len(set(claimed))


def test_a_raising_cli_is_a_failed_answer(monkeypatch, tmp_path):
    def boom(argv):
        raise ValueError("singular")
    monkeypatch.setattr(cli, "main", boom)
    workload = workloads.make("configs", run.ROOT, 0, True, tmp_path)
    results = workload.round()
    assert [r.error for r in results] == ["ValueError: singular"] * len(workloads.CONFIGS)
