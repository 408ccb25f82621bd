"""Fuzz of the CLI input boundary: any config JSON ends with exit code 0, 2,
3 or 4, and a failure writes exactly one JSON object to stderr, never a
traceback.

Configs start from a well-formed small problem (n <= 2, T <= 0.3) and then
have leaves, sections or the whole document replaced by other JSON values:
NaN and infinities, wrong types, empty containers.  Replacement numbers lie
within +-4, or are one of a few extreme magnitudes (+-1e6, +-1e12, +-1e300,
+-1e-300), which a run must refuse, or take at the cost of a small one.
"""

import json
import math

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from carleman_fourier.cli import main

NUMBER = st.one_of(
    st.floats(-4, 4, allow_nan=False, allow_infinity=False),
    st.sampled_from([sign * magnitude for magnitude in (1e6, 1e12, 1e300, 1e-300)
                     for sign in (1, -1)]),
)
JUNK = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 4), NUMBER,
    st.sampled_from([math.nan, math.inf, -math.inf]),
    st.text("abj0.,[]", max_size=3),
    st.just([]), st.just({}), st.lists(st.integers(-1, 2), max_size=3),
    st.lists(NUMBER, min_size=2, max_size=2),
)
# every sweep axis: each shares a different part of the work across rows
COMMANDS = (
    ["solve"], ["estimate"], ["oracle"],
    ["sweep", "--axis", "N", "--values", "2,3"],
    ["sweep", "--axis", "k", "--values", "2,3"],
    ["sweep", "--axis", "nu", "--values", "2,3"],
    ["sweep", "--axis", "epsilon", "--values", "1e-2,1e-3"],
    ["sweep", "--axis", "r", "--values", "3,4"],
)


def pair(magnitude):
    part = st.floats(-magnitude, magnitude, allow_nan=False, allow_infinity=False)
    return st.lists(part, min_size=2, max_size=2)


@st.composite
def well_formed(draw):
    n = draw(st.integers(1, 2))
    degree = draw(st.integers(1, 2))
    coeffs = []
    for _ in range(draw(st.integers(1, 2))):
        j = [0] * n
        for _ in range(draw(st.integers(1, degree))):
            j[draw(st.integers(0, n - 1))] += 1
        coeffs.append({"j": j, "d": draw(pair(1.0))})
    run = {"T": draw(st.floats(0.01, 0.3)),
           "epsilon": draw(st.sampled_from([1e-1, 1e-2, 1e-3])),
           "regime": draw(st.sampled_from(["auto", "dissipative",
                                           "nondissipative"]))}
    if draw(st.booleans()):
        run["p"] = draw(st.sampled_from([1, 2, 3]))
    cfg = {
        "ode": {"n": n,
                "g0": [[draw(st.floats(-0.3, 0.3)), draw(st.floats(-0.5, 1.5))]
                       for _ in range(n)],
                "g1": [[draw(pair(0.3)) for _ in range(n)] for _ in range(n)],
                "u0": [draw(pair(0.5)) for _ in range(n)]},
        "readout": {"K": degree, "coeffs": coeffs},
        "run": run,
    }
    if draw(st.booleans()):
        cfg["overrides"] = {draw(st.sampled_from(["N", "k", "m", "nu"])):
                            draw(st.integers(1, 4))}
    return cfg


def _paths(node, prefix=()):
    """Every path into the document, containers included."""
    yield prefix
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _paths(value, prefix + (key,))
    elif isinstance(node, list):
        for index, value in enumerate(node):
            yield from _paths(value, prefix + (index,))


@st.composite
def configs(draw):
    cfg = draw(well_formed())
    for _ in range(draw(st.integers(0, 3))):
        path = draw(st.sampled_from(list(_paths(cfg))))
        junk = draw(JUNK)
        if not path:
            cfg = junk
            break
        parent = cfg
        for key in path[:-1]:
            parent = parent[key]
        if isinstance(parent, dict) and draw(st.booleans()):
            del parent[path[-1]]
        else:
            parent[path[-1]] = junk
    return cfg


@settings(max_examples=120, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture,
                                 HealthCheck.too_slow])
@given(configs(), st.sampled_from(COMMANDS))
def test_any_config_exits_cleanly(tmp_path, capsys, cfg, command):
    path = tmp_path / "fuzz.json"
    path.write_text(json.dumps(cfg))
    capsys.readouterr()
    code = main([command[0], str(path), *command[1:], "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code in (0, 2, 3, 4)
    if code != 0:
        lines = err.strip().splitlines()
        assert len(lines) == 1
        payload = json.loads(lines[0])
        # a DivergenceError or HypothesisViolation also names its layer,
        # and may carry its time grid or the inputs its precondition tested
        assert isinstance(payload, dict)
        assert {"error", "message"} <= set(payload) <= {
            "error", "message", "step", "layer", "grid", "params"}
        if "layer" in payload:
            assert payload["error"] in ("DivergenceError", "HypothesisViolation")
            assert payload["layer"].count(".") == 1
