"""Exception hierarchy shared across the package.

The CLI maps these onto process exit codes: config problems exit with 2,
violated analytic hypotheses with 3 and numeric divergence with 4.
"""


class CflError(Exception):
    """Base class for all package errors."""

    exit_code = 1


class ConfigError(CflError):
    """Invalid configuration, input file or argument."""

    exit_code = 2


class HypothesisViolation(CflError):
    """An analytic precondition of a bound or parameter recipe is not met.
    `layer` is the function whose precondition failed, as module.function.
    `params`, when known, holds the inputs that precondition tested, as a
    dict of plain values (the recipes give regime, p and the quantities
    compared, such as mu0 and R_p, or horizon and T_max; the bounds and the
    estimator give the quantities their precondition compares)."""

    exit_code = 3

    def __init__(self, message, layer=None, params=None):
        super().__init__(message)
        self.layer = layer
        self.params = params


class DivergenceError(CflError):
    """Non-finite values encountered while time stepping.  `step` is the
    first offending step and `layer` the function that stepped, as
    module.function, when known.  `grid`, when known, is the time grid that
    stepped, as a dict of plain values (taylor.forward_solve gives m, h, k,
    M, n, N and the stepping path)."""

    exit_code = 4

    def __init__(self, message, step=None, layer=None, grid=None):
        super().__init__(message)
        self.step = step
        self.layer = layer
        self.grid = grid


class BudgetError(ConfigError):
    """A dense-matrix or lifted-state size budget would be exceeded."""
