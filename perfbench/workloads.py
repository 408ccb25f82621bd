"""The benchmark's three workloads.

Each workload turns a seed into a fixed input set and answers it once per
round through the program's public entry points only: `cli.main` for the
bundled configs and the sweep, `cli.select_params` + `cli.run_pipeline` for
the generated ladder.  A round is a list of tasks, run one after another:
one per config, one per ladder problem, one for the whole sweep.  It returns
one Result per answer.

configs  `cfl solve` on each bundled config: what users run.  It mixes
         stepping, dense diagnostics, oracle, bounds, estimator and manifest
         I/O, so a change to any layer shows here and no layer dominates.
ladder   generated dissipative ODEs whose lifted states (5460 to 9840
         entries) lie above the dense-diagnostics cap: almost all time is
         generator applies inside forward_solve.  It exercises the basis and
         stepping work and bypasses the dense diagnostics.
sweep    `cfl sweep` over N on the bundled non-dissipative config: dense
         expm of the lifted generator (up to 510 x 510, twice per row)
         takes most of the round, so it shows a diagnostics change and
         stays flat under a stepping change.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import io
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from carleman_fourier import FourierOde, ReadoutSpec, check_dissipative, cli

CONFIGS = ("dissipative_n1", "dissipative_n2", "linear_n1", "nondissipative_n2")
SWEEP_CONFIG = "nondissipative_n2"
SWEEP_VALUES = (4, 5, 6, 7, 8)
SMOKE_SWEEP_VALUES = (4, 5)
# (n, N): lifted states of 8190, 9840 and 5460 entries
LADDER = ((2, 12), (3, 8), (4, 6))
SMOKE_LADDER = ((2, 6), (3, 4), (4, 3))
LADDER_STEPS = 4
LADDER_EPSILON = 1e-6


@dataclass(frozen=True)
class Result:
    """One answer: the pipeline's readout and the oracle's at epsilon."""

    key: str
    estimate: complex | None
    reference: complex | None
    epsilon: float
    error: str = ""

    def as_list(self) -> list:
        def pair(z):
            return None if z is None else [z.real, z.imag]
        return [self.key, pair(self.estimate), pair(self.reference),
                self.epsilon, self.error]

    @classmethod
    def from_list(cls, item) -> "Result":
        def value(pair):
            return None if pair is None else complex(pair[0], pair[1])
        key, estimate, reference, epsilon, error = item
        return cls(key, value(estimate), value(reference), epsilon, error)


class Workload:
    """Input set of one workload; round() answers all of it once, as the
    calls that tasks() lists, each returning a list of Results."""

    name = ""

    def __init__(self, root: Path, seed: int, smoke: bool, outdir: Path):
        self.outdir = outdir
        self.tracer = None
        self.inputs = {}

    @property
    def keys(self) -> list:
        raise NotImplementedError

    def tasks(self) -> list:
        raise NotImplementedError

    def round(self) -> list:
        return [result for task in self.tasks() for result in task()]

    def _cli(self, argv) -> str:
        """cli.main in process; returns "" or the failure it reported or
        raised."""
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except Exception as exc:  # counts as failed answers, not a dead run
                return f"{type(exc).__name__}: {exc}"
        return "" if code == 0 else f"exit code {code}: {err.getvalue().strip()}"


class Configs(Workload):
    name = "configs"

    def __init__(self, root, seed, smoke, outdir):
        super().__init__(root, seed, smoke, outdir)
        order = list(CONFIGS)
        random.Random(seed).shuffle(order)
        self.paths = [root / "configs" / f"{stem}.json" for stem in order]
        self.inputs = {"configs": order}

    @property
    def keys(self):
        return [path.stem for path in self.paths]

    def tasks(self):
        return [functools.partial(self._solve, path) for path in self.paths]

    def _solve(self, path):
        out = self.outdir / path.stem
        error = self._cli(["solve", str(path), "--out", str(out)])
        if error:
            return [Result(path.stem, None, None, 0.0, error)]
        manifest = json.loads((out / "manifest.json").read_text())
        return [Result(path.stem, complex(*manifest["estimate"]),
                       complex(*manifest["reference"]),
                       float(manifest["params"]["epsilon"]))]


class Sweep(Workload):
    name = "sweep"

    def __init__(self, root, seed, smoke, outdir):
        super().__init__(root, seed, smoke, outdir)
        values = list(SMOKE_SWEEP_VALUES if smoke else SWEEP_VALUES)
        random.Random(seed).shuffle(values)
        self.values = values
        self.config = root / "configs" / f"{SWEEP_CONFIG}.json"
        self.inputs = {"config": SWEEP_CONFIG, "axis": "N", "values": values}

    @property
    def keys(self):
        return [f"N={value}" for value in self.values]

    def tasks(self):
        return [self._sweep]

    def _sweep(self):
        error = self._cli(["sweep", str(self.config), "--axis", "N",
                           "--values", ",".join(map(str, self.values)),
                           "--out", str(self.outdir)])
        if error:
            return [Result(key, None, None, 0.0, error) for key in self.keys]
        with open(self.outdir / "result.csv", newline="") as handle:
            rows = list(csv.DictReader(handle))
        return [_sweep_result(row) for row in rows]


def _sweep_result(row: dict) -> Result:
    def number(col):
        text = row.get(col) or ""
        return float(text) if text else math.nan
    estimate = complex(number("estimate_re"), number("estimate_im"))
    reference = complex(number("reference_re"), number("reference_im"))
    return Result(f"N={row['value']}", estimate, reference,
                  number("epsilon"), row.get("error") or "")


@dataclass(frozen=True)
class LadderProblem:
    key: str
    ode: FourierOde
    readout: ReadoutSpec
    run: dict
    recipe: dict


def ratio_for_order(n: int, order: int) -> float:
    """R_p at which the dissipative recipe picks N = order for a problem with
    |e^{iu0}_j| = 1, readout degree K = 1, unit ||d||_2 and eps = LADDER_EPSILON.

    The recipe sets N = ceil(log(4 K s ||d||_q / eps) / log(1/R_p)) with
    s = nu = ||e^{iu0}||_2 / R_p = sqrt(n) / R_p (p = q = 2).  Solving
    log(A/R)/log(1/R) = order - 1/2 with A = 4 sqrt(n)/eps puts the ratio
    half-way inside the ceiling's interval.
    """
    big_a = 4.0 * math.sqrt(n) / LADDER_EPSILON
    return math.exp(-math.log(big_a) / (order - 1.5))


def ladder_problem(seed: int, n: int, order: int,
                   steps: int = LADDER_STEPS) -> LadderProblem:
    """Seeded dissipative problem whose recipe selects N = order, m = steps.

    Im G0 is drawn in [1, 1.5] and u0 is real, so ||e^{iu0}||_2 = sqrt(n);
    G1 is drawn and then scaled so that R_p = ratio_for_order(...) < 1.  The
    horizon is the one at which ceil(T N (alpha + mu0)) = steps.
    """
    rng = np.random.default_rng([seed, n, order])
    g0 = rng.uniform(-0.3, 0.3, n) + 1j * rng.uniform(1.0, 1.5, n)
    u0 = rng.uniform(-np.pi, np.pi, n)
    g1 = rng.uniform(-1.0, 1.0, (n, n)) + 1j * rng.uniform(-1.0, 1.0, (n, n))
    d = rng.uniform(-1.0, 1.0, n) + 1j * rng.uniform(-1.0, 1.0, n)
    d = d / np.linalg.norm(d)

    r_p = ratio_for_order(n, order)
    g1 = g1 * (r_p / check_dissipative(FourierOde(n=n, g0=g0, g1=g1, u0=u0), 2).r_p)
    ode = FourierOde(n=n, g0=g0, g1=g1, u0=u0)
    report = check_dissipative(ode, 2)
    if not report.dissipative:
        raise RuntimeError(f"ladder generator: seed {seed}, n={n}, N={order} "
                           f"drew a non-dissipative problem (R_p={report.r_p})")
    readout = ReadoutSpec(degree=1, coeffs={
        tuple(int(i == j) for i in range(n)): complex(d[j]) for j in range(n)})
    alpha = float(np.max(np.abs(g0)))
    horizon = steps / (order * (alpha + report.mu0)) * (1.0 - 1e-9)
    run = cli.parse_run({"run": {"T": horizon, "epsilon": LADDER_EPSILON, "p": 2,
                                 "regime": "dissipative"}})
    recipe = {"seed": seed, "n": n, "target_N": order, "target_m": steps,
              "R_p": report.r_p, "mu0": report.mu0, "T": horizon,
              "epsilon": LADDER_EPSILON}
    return LadderProblem(f"n{n}_N{order}", ode, readout, run, recipe)


class Ladder(Workload):
    name = "ladder"

    def __init__(self, root, seed, smoke, outdir):
        super().__init__(root, seed, smoke, outdir)
        sizes = SMOKE_LADDER if smoke else LADDER
        steps = 1 if smoke else LADDER_STEPS
        self.problems = [ladder_problem(seed, n, order, steps) for n, order in sizes]
        self.inputs = {p.key: dict(p.recipe) for p in self.problems}

    @property
    def keys(self):
        return [p.key for p in self.problems]

    def _problem(self):
        """Marks one answer in a traced round."""
        if self.tracer is None:
            return contextlib.nullcontext()
        return self.tracer.span("bench.problem")

    def tasks(self):
        return [functools.partial(self._solve, p) for p in self.problems]

    def _solve(self, p):
        with self._problem():
            try:
                ps = cli.select_params(p.ode, p.readout, p.run, {})
                out = cli.run_pipeline(p.ode, p.readout, p.run, ps)
            except Exception as exc:  # one failed answer must not end the run
                return [Result(p.key, None, None, p.run["epsilon"],
                               f"{type(exc).__name__}: {exc}")]
        self.inputs[p.key].update(N=ps.order, k=ps.taylor_order,
                                  m=ps.steps, nu=ps.nu)
        return [Result(p.key, complex(out["estimate"]),
                       complex(out["reference"]), p.run["epsilon"])]


WORKLOADS = {cls.name: cls for cls in (Configs, Ladder, Sweep)}


def make(name: str, root: Path, seed: int, smoke: bool, outdir: Path) -> Workload:
    outdir.mkdir(parents=True, exist_ok=True)
    return WORKLOADS[name](root, seed, smoke, outdir)
