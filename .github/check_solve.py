"""Exit 1 unless each `cfl solve` manifest.json shows a run stepped on the
grid the package picks, a verify pass that ran on every step, and a
Koopman/Taylor split whose grid agrees with its cost.

The recipe's grid is params.steps steps of size params.step_size at Taylor
order k = params.taylor_order.  The run steps lifted_state.steps steps of
degree d = lifted_state.taylor_degree, which must be the grid the installed
package's oracle.step_config picks from the recipe's grid, params.horizon,
M = lifted_state.monomial_dim, ||L||_1 = lifted_state.generator_norm_1 and
whether the derivation log pins m: the recipe's grid itself when ||L||_1 h
exceeds k's step bound, and otherwise the grid within the bound that costs
forward_solve least (at the recipe's m when m is pinned or the state is
small enough to step by its propagator).

The verify pass re-evaluates each Taylor step term by term.  Its residual,
errors.solver_residual, must be finite and at most 1e-12.  forward_solve
counts d generator applies per step re-evaluated, d per step taken by
Horner, and d per column of the propagator by which a state of M monomials
steps when M * M <= VERIFY_BLOCK_ENTRIES (the installed package's
taylor.VERIFY_BLOCK_ENTRIES) and M < m.  So lifted_state.generator_applies
must be d * m + d * stepped, with m = lifted_state.steps and stepped =
min(m, M) if M * M <= VERIFY_BLOCK_ENTRIES, else m.
A solve run without verify, or a verify pass that leaves steps out (a block
dropped or cut short), fails the count.

The split (lifted_state.split, null when the stepping budget refuses it)
either reuses the run's own steps, with 0 generator applies, or steps
exp(L T) psi0 on a grid of its own.  It reuses them exactly when the run's
grid meets the step bound; a reused split must name the run's grid (m, d)
and report errors.taylor = 0 and errors.koopman = errors.total; a split on
its own grid of steps and taylor_order must count taylor_order * stepped
applies, with stepped as above for m = steps.

    python .github/check_solve.py <manifest.json>...
"""

import json
import math
import sys

from carleman_fourier.oracle import step_config
from carleman_fourier.taylor import VERIFY_BLOCK_ENTRIES, TaylorConfig

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
    steps = manifest["lifted_state"]["steps"]
    degree = manifest["lifted_state"]["taylor_degree"]
    norm = manifest["lifted_state"]["generator_norm_1"]
    recipe = TaylorConfig(m=params["steps"], h=params["step_size"],
                          k=params["taylor_order"])
    pinned = ["m", "pinned"] in [entry[:2] for entry in params["derivation_log"]]
    grid = step_config(recipe, params["horizon"], monomials, norm, pinned)
    picked = recipe if grid is None else grid
    if (steps, degree) != (picked.m, picked.k):
        fail(path, f"stepped {steps} steps of degree {degree}, but step_config "
                   f"picks ({picked.m}, {picked.k}) from the recipe's "
                   f"({recipe.m}, {recipe.k}) at ||L||_1 = {norm!r}"
                   f"{', m pinned' if pinned else ''}")
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
    if (split["generator_applies"] == 0) != (grid is not None):
        fail(path, f"split spends {split['generator_applies']} generator "
                   f"applies, but the run's grid "
                   f"{'meets' if grid is not None else 'exceeds'} the step bound")
    if split["generator_applies"] == 0:
        if (split["steps"], split["taylor_order"]) != (steps, degree):
            fail(path, f"split reuses the run with grid ({split['steps']}, "
                       f"{split['taylor_order']}), expected ({steps}, {degree})")
        if errors["taylor"] != 0 or errors["koopman"] != errors["total"]:
            fail(path, f"split reuses the run but taylor = {errors['taylor']!r}, "
                       f"koopman = {errors['koopman']!r}, total = "
                       f"{errors['total']!r}")
    elif split["generator_applies"] != (stepped(split["steps"], monomials)
                                        * split["taylor_order"]):
        fail(path, f"split spends {split['generator_applies']} generator "
                   f"applies, expected {stepped(split['steps'], monomials)} "
                   f"stepped * {split['taylor_order']} stages")
sys.exit(1 if failed else 0)
