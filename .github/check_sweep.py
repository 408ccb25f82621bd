"""Exit 1 when a row of a `cfl sweep` result.csv reports an error.

A sweep exits 0 even when some of its rows fail, so the exit code alone
cannot show a row that breaks.  One failure is by design: in an r sweep on
configs/nondissipative_n2.json, the r = 3 row has T = 0.04 above
T_max = 0.0246, and must report a HypothesisViolation.

    python .github/check_sweep.py <result.csv>
"""

import csv
import sys

failed = False
with open(sys.argv[1], newline="") as handle:
    for row in csv.DictReader(handle):
        error = row["error"]
        if (row["axis"], row["value"]) == ("r", "3"):
            ok = error.startswith("HypothesisViolation")
        else:
            ok = error == ""
        if not ok:
            print(f"{sys.argv[1]}: row {row['axis']}={row['value']}: "
                  f"{error or 'no error, expected a HypothesisViolation'}")
            failed = True
sys.exit(1 if failed else 0)
