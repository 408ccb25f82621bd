"""Span tracer for the benchmark's traced run, and the per-layer metrics.

The program records no spans of its own, so the tracer wraps public
functions at the module attributes their callers look up: `run_pipeline`
resolves `cli.forward_solve` at call time, `forward_solve` resolves
`taylor.apply_Vk` and `taylor.apply_LN`, and `oracle.propagate_dense`
imports `norms.expm_at` on every call.  Each wrapped call records one span
(name, start, end, parent, result id).  Spans stay in memory and are written
out by run.py when the run ends.  A target that a later version of the
program no longer has is reported as absent, and so is every metric that
needs it.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import statistics
import time

import numpy as np

PACKAGE = "carleman_fourier"


def _arrays(obj) -> list:
    """Arrays that make up a lifted state or a list of states: an ndarray,
    anything with a `blocks` list, or a list/tuple of those."""
    if isinstance(obj, np.ndarray):
        return [obj]
    blocks = getattr(obj, "blocks", None)
    if blocks is not None:
        return [b for b in blocks if isinstance(b, np.ndarray)]
    if isinstance(obj, (list, tuple)):
        return [a for item in obj for a in _arrays(item)]
    return []


def _entries(obj) -> int:
    return sum(a.size for a in _arrays(obj))


def _nbytes(obj) -> int:
    return sum(a.nbytes for a in _arrays(obj))


def _apply_extras(args, out) -> dict:
    # bytes computed: the input state is read once and the output written once
    return {"entries": _entries(args[1]),
            "bytes": _nbytes(args[1]) + _nbytes(out)}


def _forward_extras(args, out) -> dict:
    return {"entries": _entries(args[2]),
            "history_bytes": _nbytes(getattr(out, "phis", None))}


def _expm_extras(args, out) -> dict:
    return {"dim": int(np.shape(args[0])[0])}


# (module, attribute, span name, extras).  The span name is the defining
# module and function, so one function wrapped in two caller modules keeps
# one name.
TARGETS = (
    ("cli", "cmd_solve", "cli.cmd_solve", None),
    ("cli", "cmd_sweep", "cli.cmd_sweep", None),
    ("cli", "load_config", "cli.load_config", None),
    ("cli", "parse_ode", "cli.parse_ode", None),
    ("cli", "parse_readout", "cli.parse_readout", None),
    ("cli", "parse_run", "cli.parse_run", None),
    ("cli", "select_params", "cli.select_params", None),
    ("cli", "run_pipeline", "cli.run_pipeline", None),
    ("cli", "_sweep_row", "cli._sweep_row", None),
    ("cli", "_bound_values", "cli._bound_values", None),
    ("cli", "select_dissipative", "params.select_dissipative", None),
    ("cli", "select_nondissipative", "params.select_nondissipative", None),
    ("cli", "rescale", "problem.rescale", None),
    ("params", "rescale", "problem.rescale", None),
    ("cli", "eval_readout", "problem.eval_readout", None),
    ("cli", "expand_coeff_vector", "problem.expand_coeff_vector", None),
    ("bounds", "check_dissipative", "bounds.check_dissipative", None),
    ("params", "check_dissipative", "bounds.check_dissipative", None),
    ("params", "t_max_nondissipative", "bounds.t_max_nondissipative", None),
    ("bounds", "eta_bound_dissipative", "bounds.eta_bound_dissipative", None),
    ("bounds", "eta_bound_finite_time", "bounds.eta_bound_finite_time", None),
    ("estimator", "query_counts", "estimator.query_counts", None),
    ("cli", "lift_initial", "linearize.lift_initial", None),
    ("cli", "dense_LN", "linearize.dense_LN", None),
    ("cli", "forward_solve", "taylor.forward_solve", _forward_extras),
    ("cli", "readout_value", "taylor.readout_value", None),
    ("taylor", "apply_Vk", "taylor.apply_Vk", None),
    ("taylor", "_apply_Vk_direct", "taylor._apply_Vk_direct", None),
    ("taylor", "apply_LN", "linearize.apply_LN", _apply_extras),
    ("cli", "integrate", "oracle.integrate", None),
    ("cli", "propagate_dense", "oracle.propagate_dense", None),
    ("norms", "expm_at", "norms.expm_at", _expm_extras),
)

# spans that start a new result; their descendants carry its id
RESULT_SPANS = frozenset({"bench.problem", "cli.cmd_solve", "cli._sweep_row"})

# per-layer metric -> spans whose self time it sums
SELF_TIME = {
    "linearize.apply_s": ("linearize.apply_LN",),
    "linearize.dense_s": ("linearize.dense_LN",),
    "linearize.lift_s": ("linearize.lift_initial",),
    "norms.expm_s": ("norms.expm_at",),
    "oracle.propagate_dense_s": ("oracle.propagate_dense",),
    "oracle.integrate_s": ("oracle.integrate",),
    "problem.s": ("problem.rescale", "problem.eval_readout",
                  "problem.expand_coeff_vector"),
    "params.select_s": ("cli.select_params", "params.select_dissipative",
                        "params.select_nondissipative"),
    "bounds.s": ("cli._bound_values", "bounds.check_dissipative",
                 "bounds.t_max_nondissipative", "bounds.eta_bound_dissipative",
                 "bounds.eta_bound_finite_time"),
    "estimator.s": ("estimator.query_counts",),
    # config load and parse; the commands' own time is manifest/CSV output
    "cli.io_s": ("cli.cmd_solve", "cli.cmd_sweep", "cli.load_config",
                 "cli.parse_ode", "cli.parse_readout", "cli.parse_run"),
}

# per-layer metric -> spans it needs (all of them, unlike SELF_TIME)
NEEDS = {
    "linearize.apply_calls": ("linearize.apply_LN",),
    "linearize.apply_ns_per_entry": ("linearize.apply_LN",),
    "linearize.apply_bytes_computed": ("linearize.apply_LN",),
    "linearize.state_dim": ("taylor.forward_solve",),
    "taylor.step_s": ("taylor.apply_Vk",),
    "taylor.forward_s": ("taylor.forward_solve",),
    "taylor.verify_s": ("taylor.forward_solve", "taylor.apply_Vk"),
    "taylor.useful_apply_share": ("linearize.apply_LN", "taylor.apply_Vk"),
    "taylor.history_bytes_computed": ("taylor.forward_solve",),
    "norms.expm_calls": ("norms.expm_at",),
    "norms.expm_dim_max": ("norms.expm_at",),
    "norms.expm_per_row": ("norms.expm_at",),
    "oracle.integrate_calls": ("oracle.integrate",),
    "oracle.integrate_per_row": ("oracle.integrate",),
}

# spans that forward_solve covers and no SELF_TIME layer claims: the Taylor
# stepping and verify arithmetic outside the generator applies
TAYLOR_FORWARD = ("taylor.forward_solve", "taylor.apply_Vk", "taylor._apply_Vk_direct")


class Tracer:
    """Records spans from wrapped functions; install() before a traced
    round and uninstall() after it."""

    def __init__(self):
        # span: [name, start, end, parent index, result id, extras]
        self.spans = []
        self.absent = []
        self._stack = []
        self._installed = []
        self._next_result = 0

    def install(self) -> None:
        self.absent = []
        for module_name, attr, name, extras in TARGETS:
            module = importlib.import_module(f"{PACKAGE}.{module_name}")
            fn = getattr(module, attr, None)
            if fn is None:
                self.absent.append(f"{module_name}.{attr}")
                continue
            setattr(module, attr, self._wrap(fn, name, extras))
            self._installed.append((module, attr, fn))

    def uninstall(self) -> None:
        while self._installed:
            module, attr, fn = self._installed.pop()
            setattr(module, attr, fn)

    def _wrap(self, fn, name, extras):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self._open(name)
            out = None
            try:
                out = fn(*args, **kwargs)
                return out
            finally:
                self.spans[index][2] = time.perf_counter()
                self._stack.pop()
                if extras is not None and out is not None:
                    self.spans[index][5] = extras(args, out)
        return traced

    def _open(self, name) -> int:
        parent = self._stack[-1] if self._stack else None
        if name in RESULT_SPANS or parent is None:
            result = self._next_result
            self._next_result += 1
        else:
            result = self.spans[parent][4]
        self.spans.append([name, 0.0, 0.0, parent, result, None])
        index = len(self.spans) - 1
        self._stack.append(index)
        self.spans[index][1] = time.perf_counter()
        return index

    @contextlib.contextmanager
    def span(self, name):
        """A span opened by the benchmark itself (a round, one problem)."""
        index = self._open(name)
        try:
            yield index
        finally:
            self.spans[index][2] = time.perf_counter()
            self._stack.pop()

    def duration(self, index) -> float:
        return self.spans[index][2] - self.spans[index][1]

    def round_metrics(self, root: int, results: int) -> dict:
        """Per-layer metrics of the round whose root span is `root`."""
        spans = self.spans[root:]
        child_time = [0.0] * len(spans)
        for i, (_, start, end, parent, _, _) in enumerate(spans[1:], start=1):
            # single-threaded: children of one parent never overlap
            child_time[parent - root] += end - start
        self_time, by_name = {}, {}
        for i, span in enumerate(spans):
            name, start, end = span[0], span[1], span[2]
            self_time[name] = self_time.get(name, 0.0) + (end - start) - child_time[i]
            by_name.setdefault(name, []).append(i)

        def dur(i):
            return spans[i][2] - spans[i][1]

        def extra(i, key):
            return (spans[i][5] or {}).get(key, 0)

        def parent_is(i, name):
            return spans[spans[i][3] - root][0] == name

        out = {metric: sum(self_time.get(name, 0.0) for name in names)
               for metric, names in SELF_TIME.items()}
        applies = by_name.get("linearize.apply_LN", [])
        steps = by_name.get("taylor.apply_Vk", [])
        forwards = by_name.get("taylor.forward_solve", [])
        expms = by_name.get("norms.expm_at", [])
        integrates = by_name.get("oracle.integrate", [])
        entries = sum(extra(i, "entries") for i in applies)
        forward_s = sum(dur(i) for i in forwards)
        stepping_s = sum(dur(i) for i in steps if parent_is(i, "taylor.forward_solve"))
        stepping_applies = sum(1 for i in applies if parent_is(i, "taylor.apply_Vk"))
        out.update({
            "linearize.apply_calls": len(applies),
            "linearize.apply_ns_per_entry": (
                out["linearize.apply_s"] * 1e9 / entries if entries else 0.0),
            "linearize.apply_bytes_computed": sum(extra(i, "bytes") for i in applies),
            "linearize.state_dim": max((extra(i, "entries") for i in forwards), default=0),
            "taylor.step_s": statistics.median([dur(i) for i in steps]) if steps else 0.0,
            "taylor.forward_s": forward_s,
            "taylor.verify_s": forward_s - stepping_s,
            "taylor.useful_apply_share": (
                stepping_applies / len(applies) if applies else 0.0),
            "taylor.history_bytes_computed": max(
                (extra(i, "history_bytes") for i in forwards), default=0),
            "norms.expm_calls": len(expms),
            "norms.expm_dim_max": max((extra(i, "dim") for i in expms), default=0),
            "norms.expm_per_row": len(expms) / results,
            "oracle.integrate_calls": len(integrates),
            "oracle.integrate_per_row": len(integrates) / results,
        })
        # round minus every layer's self time: what no layer metric covers,
        # such as run_pipeline, _sweep_row and readout_value themselves
        out["trace.unaccounted_s"] = dur(0) - sum(
            out[metric] for metric in SELF_TIME) - sum(
            self_time.get(name, 0.0) for name in TAYLOR_FORWARD)
        return out

    def absent_metrics(self) -> list:
        """Metrics whose spans the installed program does not offer."""
        present = {name for module_name, attr, name, _ in TARGETS
                   if f"{module_name}.{attr}" not in self.absent}
        missing = {name for _, _, name, _ in TARGETS} - present
        out = [m for m, names in SELF_TIME.items() if not present & set(names)]
        out += [m for m, names in NEEDS.items() if set(names) & missing]
        return sorted(out)
