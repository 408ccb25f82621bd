"""Pipeline benchmark for carleman_fourier.

Run from the root of a checkout:

    python3 perfbench/run.py --workload configs --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --smoke

One process and one closed-loop client: each round starts after the previous
one has returned.  The benchmark starts no threads, runs BLAS on one thread
and never imports numba.  A run prints an environment stamp, each
metric by name and unit, and as its last line one JSON object
{"correct", "attempted", "failed", "metrics"}; it also writes the full
record to perfbench/work/.  With --trace 0 the metrics are the end-to-end
ones, with --trace 1 the per-layer ones from a separate traced run.  The
end-to-end times are rescaled to a reference host speed that a calibration
kernel measures around each timed stretch (calibrate.py).  See README.md for
the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib.util
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / "work"
REFERENCE = BENCH / "reference_readouts.json"
SPEC = ROOT / "BENCHMARK.json"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# at most nproc is allowed; on a 2-vCPU VM two threads made the sweep's
# dense expm about 30% slower than one and the configs no faster
BLAS_THREADS = 1
SETUP_PROBES = 3
# round_s_tail is the highest percentile with ten rounds beyond it
MIN_ROUNDS = 11
MIN_TRACED_ROUNDS = 3
# a readout may drift this far from the one recorded at the seed commit
RECORDED_TOLERANCE = 1e-13


class ProgramMissing(Exception):
    """The checkout holds no importable carleman_fourier or no configs."""


def prepare_environment() -> dict:
    """Pin BLAS to BLAS_THREADS and keep the package off numba.  Must run
    before numpy is imported; child processes inherit the settings.
    Returns the thread settings found in the environment."""
    requested = {var: os.environ.get(var) for var in BLAS_THREAD_VARS}
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    os.environ["CFL_BACKEND"] = "numpy"
    return requested


def pin_to_one_cpu() -> int:
    """Keeps this process and the setup probes it starts on one CPU.  On a
    shared host each vCPU's speed drifts on its own, so the calibration
    kernel must run on the CPU whose speed it corrects for."""
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def import_program():
    src = ROOT / "src"
    if not (src / "carleman_fourier").is_dir() or not (ROOT / "configs").is_dir():
        raise ProgramMissing(f"no src/carleman_fourier or configs/ under {ROOT}")
    sys.path.insert(0, str(src))
    try:
        import carleman_fourier
    except ImportError as exc:
        raise ProgramMissing(f"cannot import carleman_fourier: {exc}") from exc
    if src.resolve() not in Path(carleman_fourier.__file__).resolve().parents:
        raise ProgramMissing(f"imported {carleman_fourier.__file__}, not the checkout's")
    return carleman_fourier


# ---------------------------------------------------------------- environment

def _blas_threads(extension_file: str):
    """Thread count of the OpenBLAS that a numpy/scipy extension links."""
    import ctypes
    lib = ctypes.CDLL(extension_file)
    for symbol in ("scipy_openblas_get_num_threads64_",
                   "scipy_openblas_get_num_threads",
                   "openblas_get_num_threads64_", "openblas_get_num_threads"):
        fn = getattr(lib, symbol, None)
        if fn is not None:
            fn.restype = ctypes.c_int
            fn.argtypes = []
            return int(fn())
    return None


def _blas(package, extension) -> dict:
    blas = package.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"library": blas.get("name"), "version": blas.get("version"),
            "threads": _blas_threads(extension.__file__)}


def _git_describe() -> str:
    # the benchmark may run in an exported checkout nested in another repo
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "describe", "--always", "--dirty", "--tags"],
                              cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unavailable"
    return proc.stdout.strip() if proc.returncode == 0 else "not a git checkout"


def _source_digest() -> str:
    digest = hashlib.sha256()
    src = ROOT / "src"
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def environment_stamp(requested_threads: dict, package) -> dict:
    import numpy
    import scipy
    import scipy.linalg._fblas
    try:
        from numpy._core import _multiarray_umath
    except ImportError:  # numpy < 2
        from numpy.core import _multiarray_umath
    nproc = len(os.sched_getaffinity(0))
    blas = {"numpy": _blas(numpy, _multiarray_umath),
            "scipy": _blas(scipy, scipy.linalg._fblas)}
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "backend": getattr(package, "BACKEND", "absent"),
        "blas": blas,
        "blas_thread_env": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "blas_thread_env_requested": requested_threads,
        "nproc": nproc,
        "blas_threads_over_nproc": any((b["threads"] or 0) > nproc
                                       for b in blas.values()),
        "git_describe": _git_describe(),
        "source_sha256": _source_digest(),
    }


# ------------------------------------------------------------ correctness

def _same_bits(a: complex, b: complex) -> bool:
    return a.real.hex() == b.real.hex() and a.imag.hex() == b.imag.hex()


class Gate:
    """Checks every answer: finite, within epsilon of the oracle readout,
    bitwise equal to the run's first round and, where one was recorded at
    the seed commit, within RECORDED_TOLERANCE of it."""

    def __init__(self, workload, recorded: dict):
        self.keys = workload.keys
        self.recorded = recorded
        self.baseline = None
        self.attempted = 0
        self.failures = []

    def check(self, results: list, source: str) -> None:
        if self.baseline is None:
            self.baseline = {r.key: r.estimate for r in results}
        seen = {r.key for r in results}
        for key in self.keys:
            if key not in seen:
                self.attempted += 1
                self.failures.append(f"{source} {key}: no answer")
        for result in results:
            self.attempted += 1
            reason = self._reason(result)
            if reason:
                self.failures.append(f"{source} {result.key}: {reason}")

    def _reason(self, r) -> str:
        if r.error:
            return r.error
        if r.estimate is None or r.reference is None or not (
                math.isfinite(abs(r.estimate)) and math.isfinite(abs(r.reference))):
            return "non-finite readout"
        gap = abs(r.estimate - r.reference)
        if not gap <= r.epsilon:
            return f"|estimate - oracle| = {gap:.3e} > epsilon = {r.epsilon:g}"
        first = self.baseline.get(r.key)
        if first is None or not _same_bits(r.estimate, first):
            return f"readout {r.estimate!r} differs from the first round's {first!r}"
        recorded = self.recorded.get(r.key)
        if recorded is not None and abs(r.estimate - recorded) > RECORDED_TOLERANCE:
            return (f"readout is {abs(r.estimate - recorded):.3e} from the one "
                    f"recorded at the seed commit")
        return ""


def recorded_readouts(workload: str, seed: int) -> dict:
    table = json.loads(REFERENCE.read_text()).get(workload, {})
    if workload == "ladder":
        table = table.get(str(seed), {})
    return {key: complex(*pair) for key, pair in table.items()}


# -------------------------------------------------------------- measuring

def metric_units(trace: bool) -> dict:
    """Name -> unit of the metrics a run reports, as BENCHMARK.json lists
    them: the per-layer ones with trace, else the end-to-end ones."""
    spec = json.loads(SPEC.read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def setup_probe(name: str, seed: int, smoke: bool):
    """Fresh interpreter to the end of its first round, in measured seconds,
    and the answers of that round."""
    from workloads import Result
    cmd = [sys.executable, str(BENCH / "probe.py"), name, str(seed), str(int(smoke))]
    start = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=150)
    if proc.returncode != 0:
        return None, proc.stderr.strip()[-2000:]
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    return report["done"] - start, [Result.from_list(item) for item in report["results"]]


def setup_probes(name: str, seed: int, count: int, smoke: bool, gate, calibration):
    """Runs count setup probes one after another, each between two passes of
    the calibration kernel.  Returns the measured seconds and the seconds at
    the reference speed of the probes that finished."""
    measured, scaled = [], []
    for i in range(count):
        before = calibration.seconds()
        elapsed, answers = setup_probe(name, seed, smoke)
        after = calibration.seconds()
        if elapsed is None:
            gate.attempted += len(gate.keys)
            gate.failures += [f"setup probe {i + 1} {key}: {answers}"
                              for key in gate.keys]
            continue
        measured.append(elapsed)
        scaled.append(elapsed * calibration.scale(before, after))
        gate.check(answers, f"setup probe {i + 1}")
    if not measured:
        raise RuntimeError(f"no setup probe finished: {gate.failures[-1]}")
    return measured, scaled


def timed_round(workload, calibration):
    """One round, each of its tasks between two passes of the calibration
    kernel.  Returns the answers and the round's measured wall time, wall
    time at the reference speed and process CPU time, each summed over the
    tasks, so the kernel's own time is left out."""
    results, wall, scaled, cpu = [], 0.0, 0.0, 0.0
    before = calibration.seconds()
    for task in workload.tasks():
        t0, c0 = time.perf_counter(), time.process_time()
        results += task()
        elapsed = time.perf_counter() - t0
        cpu += time.process_time() - c0
        after = calibration.seconds()
        wall += elapsed
        scaled += elapsed * calibration.scale(before, after)
        before = after
    return results, wall, scaled, cpu


def timed_rounds(workload, gate, seconds: float, min_rounds: int, calibration):
    """Measured wall time, wall time at the reference speed and process CPU
    time of each round.  CPU time well below wall time on a
    single-threaded layer means the machine took the CPU away."""
    times, scaled, cpu_times = [], [], []
    start = time.perf_counter()
    while len(times) < min_rounds or time.perf_counter() - start < seconds:
        gc.collect()
        results, wall, at_reference, cpu = timed_round(workload, calibration)
        times.append(wall)
        scaled.append(at_reference)
        cpu_times.append(cpu)
        gate.check(results, f"round {len(times)}")
    return times, scaled, cpu_times


def peak_pass(workload, gate) -> float:
    """tracemalloc peak of one round, in MB, outside the timed rounds."""
    gc.collect()
    tracemalloc.start()
    try:
        results = workload.round()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    gate.check(results, "peak pass")
    return peak / 1e6


def tail(times: list):
    """Highest percentile with at least ten rounds beyond it: (value,
    percentile, rounds).  With ten rounds or fewer it falls back to the
    maximum, reported as percentile 100."""
    ordered = sorted(times)
    count = len(ordered)
    if count <= 10:
        return ordered[-1], 100.0, count
    return ordered[count - 11], 100.0 * (count - 10) / count, count


def traced_rounds(workload, gate, seconds: float, min_rounds: int):
    """Alternates untraced and traced rounds; returns the per-layer metrics
    (medians over traced rounds), the tracer and both rounds' times."""
    import tracing
    tracer = tracing.Tracer()
    plain, traced, per_round = [], [], []
    start = time.perf_counter()
    while len(traced) < min_rounds or time.perf_counter() - start < seconds:
        gc.collect()
        t0 = time.perf_counter()
        results = workload.round()
        plain.append(time.perf_counter() - t0)
        gate.check(results, f"untraced round {len(plain)}")
        gc.collect()
        tracer.install()
        workload.tracer = tracer
        try:
            with tracer.span("bench.round") as root:
                results = workload.round()
        finally:
            workload.tracer = None
            tracer.uninstall()
        traced.append(tracer.duration(root))
        per_round.append(tracer.round_metrics(root, max(len(results), 1)))
        gate.check(results, f"traced round {len(traced)}")
    metrics = {name: statistics.median(r[name] for r in per_round)
               for name in per_round[0]}
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    return metrics, tracer, plain, traced


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 smoke: bool = False) -> dict:
    import calibrate
    import workloads
    units = metric_units(trace)
    outdir = WORK / f"{name}-{os.getpid()}"
    try:
        workload = workloads.make(name, ROOT, seed, smoke, outdir)
        gate = Gate(workload, recorded_readouts(name, seed))
        gate.check(workload.round(), "first round")
        record = {"workload": name, "seed": seed, "seconds": seconds,
                  "trace": int(trace), "smoke": smoke}
        min_rounds = 1 if smoke else MIN_ROUNDS
        if trace:
            metrics, tracer, plain, traced = traced_rounds(
                workload, gate, seconds, 1 if smoke else MIN_TRACED_ROUNDS)
            record.update(absent=tracer.absent_metrics(),
                          untraced_round_times=plain, traced_round_times=traced,
                          spans=tracer.spans)
        else:
            calibration = calibrate.Calibration()
            setups, setups_scaled = setup_probes(
                name, seed, 1 if smoke else SETUP_PROBES, smoke, gate, calibration)
            times, scaled, cpu_times = timed_rounds(workload, gate, seconds,
                                                    min_rounds, calibration)
            value, percentile, count = tail(scaled)
            metrics = {
                "setup_s": statistics.median(setups_scaled),
                "round_s": statistics.median(scaled),
                "round_s_tail": value,
                "peak_mb": peak_pass(workload, gate),
            }
            record.update(setup_runs=setups, setup_runs_scaled=setups_scaled,
                          round_times=times, round_times_scaled=scaled,
                          round_cpu_times=cpu_times,
                          tail_percentile=percentile, tail_rounds=count,
                          measured={"setup_s": statistics.median(setups),
                                    "round_s": statistics.median(times),
                                    "round_s_tail": tail(times)[0]})
        record.update(inputs=workload.inputs, attempted=gate.attempted,
                      failures=gate.failures,
                      failed_share=len(gate.failures) / gate.attempted,
                      metrics={m: {"value": v, "unit": units.get(m)}
                               for m, v in metrics.items()})
        return record
    finally:
        shutil.rmtree(outdir, ignore_errors=True)


def report(record: dict, stamp: dict) -> dict:
    """Prints the run for a reader, writes the full record, returns the
    result line."""
    name = record["workload"]
    print(f"perfbench {name} seed={record['seed']} trace={record['trace']}")
    print("env: " + json.dumps(stamp, sort_keys=True))
    if stamp["blas_threads_over_nproc"]:
        print(f"WARNING: BLAS uses more threads than nproc = {stamp['nproc']}")
    print("inputs: " + json.dumps(record["inputs"], sort_keys=True))
    for metric, entry in record["metrics"].items():
        print(f"{metric} = {entry['value']:.6g} {entry['unit']}")
    if "tail_percentile" in record:
        print(f"round_s_tail is p{record['tail_percentile']:.1f} of "
              f"{record['tail_rounds']} rounds; setup_s is the median of "
              f"{len(record['setup_runs'])} fresh interpreters")
        print("times above are at the calibration kernel's reference speed; "
              "as measured: " + ", ".join(f"{m} = {v:.6g} s"
                                          for m, v in record["measured"].items()))
    if "traced_round_times" in record:
        print(f"traced rounds: median "
              f"{statistics.median(record['traced_round_times']):.6g} s of "
              f"{len(record['traced_round_times'])}; untraced: median "
              f"{statistics.median(record['untraced_round_times']):.6g} s")
    if record.get("absent"):
        print("absent: " + ", ".join(record["absent"]))
    failed = len(record["failures"])
    print(f"failed_share = {record['failed_share']:.6g} "
          f"({failed} of {record['attempted']} answers)")
    for failure in record["failures"][:20]:
        print(f"  FAILED {failure}")
    WORK.mkdir(parents=True, exist_ok=True)
    tag = "smoke-" if record["smoke"] else ""
    path = WORK / f"{tag}{name}-seed{record['seed']}-trace{record['trace']}.json"
    path.write_text(json.dumps(dict(record, environment=stamp)))
    print(f"wrote {path.relative_to(ROOT)}")
    return {"correct": failed == 0, "attempted": record["attempted"],
            "failed": failed, "metrics": record["metrics"]}


def smoke(stamp: dict) -> int:
    """Each workload once at reduced size, untraced and traced; checks that
    it reports the metrics BENCHMARK.json names and that nothing failed."""
    problems = []
    for name in [w["name"] for w in json.loads(SPEC.read_text())["workloads"]]:
        for trace in (0, 1):
            line = report(run_workload(name, 0, 0.0, bool(trace), smoke=True), stamp)
            print(json.dumps(line))
            expected = sorted(metric_units(bool(trace)))
            if sorted(line["metrics"]) != expected:
                problems.append(f"{name} trace={trace}: metrics {sorted(line['metrics'])} "
                                f"!= BENCHMARK.json {expected}")
            if line["failed"]:
                problems.append(f"{name} trace={trace}: {line['failed']} failed")
    for problem in problems:
        print(f"SMOKE FAILED {problem}")
    return 1 if problems else 0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("configs", "ladder", "sweep"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="every workload once at reduced size, then check")
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    requested = prepare_environment()
    try:
        package = import_program()
    except ProgramMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    stamp = environment_stamp(requested, package)
    stamp["pinned_cpu"] = pin_to_one_cpu()
    if args.smoke:
        return smoke(stamp)
    record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    line = report(record, stamp)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
