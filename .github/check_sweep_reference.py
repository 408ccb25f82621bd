"""Exit 1 unless every row of a `cfl sweep` result.csv reads the oracle's
reference and the estimate as `cfl solve` does, bit for bit.

A sweep takes x(T) from the oracle's fine pass alone (oracle.final_state)
and a solve from the whole trajectory (oracle.integrate); the two must give
the same reference.  A sweep runs its rows largest order first, each on the
leading section of one shared monomial basis, and a solve on a basis of its
own; the two must give the same estimate.  For the row of `--axis <axis>`
at value v, the solve is the one run with `--param-overrides <axis>=v
--out <solve root>/<v>`.

    python .github/check_sweep_reference.py <sweep result.csv> <solve root>
"""

import csv
import sys
from pathlib import Path

failed = False
sweep_csv, solve_root = sys.argv[1], Path(sys.argv[2])
with open(sweep_csv, newline="") as handle:
    rows = list(csv.DictReader(handle))
for row in rows:
    with open(solve_root / row["value"] / "result.csv", newline="") as handle:
        (solve,) = csv.DictReader(handle)
    for column in ("estimate_re", "estimate_im", "reference_re", "reference_im"):
        swept, solved = (float(row[column]).hex(), float(solve[column]).hex())
        if swept != solved:
            print(f"{sweep_csv}: row {row['axis']}={row['value']}: {column} "
                  f"{swept} in the sweep, {solved} in the solve")
            failed = True
if not rows:
    print(f"{sweep_csv}: no rows")
    failed = True
sys.exit(1 if failed else 0)
