"""Exit 1 unless each `cfl solve` manifest.json shows a run stepped at the
Taylor degree the package picks, a verify pass that ran on every step, and
a Koopman/Taylor split whose grid agrees with its cost.

The recipe's order k = params.taylor_order steps at the degree d =
lifted_state.taylor_degree, which must not exceed k and must equal the
installed package's oracle.step_degree at ||L||_1 h =
lifted_state.generator_norm_1 * params.step_size: the least degree whose
step bound holds ||L||_1 h when k meets it, and k otherwise.

The verify pass re-evaluates each Taylor step term by term.  Its residual,
errors.solver_residual, must be finite and at most 1e-12.  forward_solve
counts d generator applies per step re-evaluated, d per step taken by
Horner, and d per column of the propagator by which a state of M monomials
steps when M * M <= VERIFY_BLOCK_ENTRIES (the installed package's
taylor.VERIFY_BLOCK_ENTRIES) and M < m.  So lifted_state.generator_applies
must be d * m + d * stepped, with m = params.steps, M =
lifted_state.monomial_dim and stepped = min(m, M) if M * M <=
VERIFY_BLOCK_ENTRIES, else m.
A solve run without verify, or a verify pass that leaves steps out (a block
dropped or cut short), fails the count.

The split (lifted_state.split, null when the stepping budget refuses it)
either reuses the run's own steps, with 0 generator applies, or steps
exp(L T) psi0 on a grid of its own.  A reused split must name the run's
grid (params.steps and the degree d) and report errors.taylor = 0 and
errors.koopman = errors.total; a split on its own grid of steps and
taylor_order must count taylor_order * stepped applies, with stepped as
above for m = steps.

    python .github/check_solve.py <manifest.json>...
"""

import json
import math
import sys

from carleman_fourier.oracle import step_degree
from carleman_fourier.taylor import VERIFY_BLOCK_ENTRIES

failed = False


def stepped(steps, monomials):
    """The steps whose generator applies forward_solve counts: Horner's m,
    or the M columns of the propagator."""
    if monomials * monomials <= VERIFY_BLOCK_ENTRIES:
        return min(steps, monomials)
    return steps


def fail(path, message):
    global failed
    print(f"{path}: {message}")
    failed = True


for path in sys.argv[1:]:
    with open(path) as handle:
        manifest = json.load(handle)
    errors = manifest["errors"]
    residual = errors["solver_residual"]
    applies = manifest["lifted_state"]["generator_applies"]
    monomials = manifest["lifted_state"]["monomial_dim"]
    params = manifest["params"]
    steps, order = params["steps"], params["taylor_order"]
    degree = manifest["lifted_state"]["taylor_degree"]
    norm = manifest["lifted_state"]["generator_norm_1"]
    if not degree <= order:
        fail(path, f"taylor_degree {degree} exceeds taylor_order {order}")
    if degree != step_degree(norm * params["step_size"], order):
        fail(path, f"taylor_degree {degree}, but step_degree gives "
                   f"{step_degree(norm * params['step_size'], order)} at "
                   f"||L||_1 h = {norm * params['step_size']!r}, k = {order}")
    expected = degree * (steps + stepped(steps, monomials))
    if not (isinstance(residual, (int, float)) and math.isfinite(residual)
            and residual <= 1e-12):
        fail(path, f"solver_residual {residual!r} is not finite and <= 1e-12")
    if applies != expected:
        fail(path, f"{applies} generator applies, expected {degree} stages * "
                   f"({steps} steps re-evaluated + "
                   f"{stepped(steps, monomials)} stepped) = {expected}")
    split = manifest["lifted_state"]["split"]
    if split is None:
        continue
    grid = (split["steps"], split["taylor_order"])
    if split["generator_applies"] == 0:
        if grid != (steps, degree):
            fail(path, f"split reuses the run with grid {grid}, expected "
                       f"({steps}, {degree})")
        if errors["taylor"] != 0 or errors["koopman"] != errors["total"]:
            fail(path, f"split reuses the run but taylor = {errors['taylor']!r}, "
                       f"koopman = {errors['koopman']!r}, total = "
                       f"{errors['total']!r}")
    elif split["generator_applies"] != stepped(grid[0], monomials) * grid[1]:
        fail(path, f"split spends {split['generator_applies']} generator "
                   f"applies, expected {stepped(grid[0], monomials)} stepped "
                   f"* {grid[1]} stages")
sys.exit(1 if failed else 0)
