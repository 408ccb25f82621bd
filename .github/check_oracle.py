"""Exit 1 unless a `cfl oracle` trajectory.csv holds the config's sample grid.

The oracle samples its solution at run.samples evenly spaced times over
[0, run.T], each from the interpolant of the step that holds it.  A slip in
that bookkeeping (a sample skipped, written twice, or left unset and so
NaN) shows in the trajectory, not in any manifest.  The file must have a
header of t and the real and imaginary part of each of the n components,
then run.samples rows whose t rises strictly from 0 to run.T, and every
value must be finite.

    python .github/check_oracle.py <config.json> <trajectory.csv>
"""

import csv
import math
import sys

from carleman_fourier.cli import load_config, parse_ode, parse_run

config_path, csv_path = sys.argv[1], sys.argv[2]
cfg = load_config(config_path)
n, run = parse_ode(cfg).n, parse_run(cfg)
with open(csv_path, newline="") as handle:
    header, *rows = list(csv.reader(handle))

problems = []
if len(header) != 1 + 2 * n:
    problems.append(f"{len(header)} columns, expected 1 + 2 n = {1 + 2 * n}")
if len(rows) != run["samples"]:
    problems.append(f"{len(rows)} rows, expected run.samples = {run['samples']}")
values = [[float(cell) for cell in row] for row in rows]
if not all(math.isfinite(x) for row in values for x in row):
    problems.append("a value is not finite")
times = [row[0] for row in values if row]
if not (times and times[0] == 0.0 and times[-1] == run["T"]
        and all(a < b for a, b in zip(times, times[1:]))):
    problems.append(f"t does not rise strictly from 0 to run.T = {run['T']}")
for problem in problems:
    print(f"{csv_path}: {problem}")
sys.exit(1 if problems else 0)
