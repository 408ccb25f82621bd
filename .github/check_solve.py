"""Exit 1 unless each `cfl solve` manifest.json shows a verify pass that ran
on every step.

The verify pass re-evaluates each Taylor step term by term.  Its residual,
errors.solver_residual, must be finite and at most 1e-12.  forward_solve
counts k generator applies per step taken and k per step re-evaluated, so
lifted_state.generator_applies must be 2 * params.steps * params.taylor_order.
A solve run without verify, or a verify pass that leaves steps out (a block
dropped or cut short), fails the count.

    python .github/check_solve.py <manifest.json>...
"""

import json
import math
import sys

failed = False
for path in sys.argv[1:]:
    with open(path) as handle:
        manifest = json.load(handle)
    residual = manifest["errors"]["solver_residual"]
    applies = manifest["lifted_state"]["generator_applies"]
    params = manifest["params"]
    expected = 2 * params["steps"] * params["taylor_order"]
    if not (isinstance(residual, (int, float)) and math.isfinite(residual)
            and residual <= 1e-12):
        print(f"{path}: solver_residual {residual!r} is not finite and <= 1e-12")
        failed = True
    if applies != expected:
        print(f"{path}: {applies} generator applies, expected 2 * "
              f"{params['steps']} steps * {params['taylor_order']} stages = {expected}")
        failed = True
sys.exit(1 if failed else 0)
