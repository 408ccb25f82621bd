import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import carleman_fourier as cf
from carleman_fourier import cli
from carleman_fourier.errors import BudgetError, ConfigError, DivergenceError
from carleman_fourier.oracle import action_config
from carleman_fourier.tensor import expand

from conftest import (complex_uniform, make_dissipative_ode,
                      make_nondissipative_rescaled, make_rescaled)

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"
BUNDLED = sorted(path.stem for path in CONFIG_DIR.glob("*.json"))


# ---------------------------------------------------------------- integrate

def test_integrate_linear_drift(rng):
    n = 3
    g0 = complex_uniform(rng, n)
    ode = cf.FourierOde(n=n, g0=g0, g1=np.zeros((n, n)), u0=complex_uniform(rng, n))
    traj = cf.integrate(ode, 2.0, tol=1e-12)
    np.testing.assert_allclose(traj.state_at(2.0), ode.u0 + 2.0 * g0,
                               rtol=1e-11, atol=1e-12)


def test_integrate_constant_when_rhs_vanishes(rng):
    rp = make_rescaled(rng, 2)
    frozen = cf.RescaledProblem(nu=1.0, f0=np.zeros(2), f1=np.zeros((2, 2)),
                                x0=rp.x0, w0=rp.w0, gamma=rp.gamma)
    traj = cf.integrate(frozen, 1.5, tol=1e-11)
    for t in (0.0, 0.7, 1.5):
        np.testing.assert_allclose(traj.state_at(t), rp.x0, atol=1e-12)


def test_integrate_matches_closed_form_scalar(rng):
    for _ in range(10):
        f0 = complex(rng.uniform(-1, 1), rng.uniform(0.5, 2.0))
        f1 = complex(rng.uniform(-0.3, 0.3), rng.uniform(-0.3, 0.3))
        x0 = complex(rng.uniform(-2, 2), rng.uniform(-0.2, 0.2))
        ode = cf.FourierOde(n=1, g0=[f0], g1=[[f1]], u0=[x0])
        traj = cf.integrate(ode, 1.2, tol=1e-12)
        w_num = np.exp(1j * traj.state_at(1.2)[0])
        w_ref = cf.closed_form_1d(f0, f1, x0, 1.2)
        assert abs(w_num - w_ref) / abs(w_ref) < 1e-9


def test_integrate_reports_global_error(rng):
    rp = make_rescaled(rng, 2)
    traj = cf.integrate(rp, 1.0, tol=1e-8)
    assert traj.est_global_error < 1e-6
    assert traj.est_global_error > 0


def test_integrate_rejects_bad_tol(rng):
    rp = make_rescaled(rng, 1)
    with pytest.raises(ConfigError):
        cf.integrate(rp, 1.0, tol=1e-2)


def test_integrate_refuses_a_sample_grid_outside_its_bounds(rng):
    # both refusals come before the grid is allocated
    rp = make_rescaled(rng, 2)
    for samples in (0, 1):
        with pytest.raises(ConfigError, match="samples must be >= 2"):
            cf.integrate(rp, 1.0, samples=samples)
    with pytest.raises(BudgetError):
        cf.integrate(rp, 1.0, samples=cf.linearize.DEFAULT_STATE_BUDGET // 2 + 1)
    with pytest.raises(BudgetError):
        cf.integrate(rp, 1.0, samples=10 ** 12)


def test_trajectory_rejects_extrapolation(rng):
    rp = make_rescaled(rng, 1)
    traj = cf.integrate(rp, 1.0, tol=1e-10)
    with pytest.raises(ConfigError):
        traj.state_at(1.5)


def _solve_ivp_reference(ode, horizon, tol, samples=65):
    """integrate's two passes through scipy's RK45: the states at t_eval,
    the global-error estimate and the dense solution of the fine pass, or
    None when a pass fails."""
    from scipy.integrate import solve_ivp

    def rhs(_t, x):
        return ode.g0 + ode.g1 @ np.exp(1j * x)

    t_eval = np.linspace(0.0, horizon, samples)
    coarse, fine = (solve_ivp(rhs, (0.0, horizon), np.asarray(ode.u0, dtype=complex),
                              method="RK45", rtol=pass_tol, atol=pass_tol,
                              dense_output=True, t_eval=t_eval)
                    for pass_tol in (tol, max(tol * 1e-2, 2.3e-14)))
    if not (coarse.success and fine.success):
        return None
    return (np.ascontiguousarray(fine.y.T),
            float(np.max(np.abs(coarse.y - fine.y))), fine.sol)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4), st.integers(0, 2 ** 32 - 1),
       st.floats(0.01, 2.0), st.floats(-13.0, -4.0))
def test_integrate_is_bitwise_scipy_rk45(n, seed, horizon, log_tol):
    # the in-package Dormand-Prince integrator repeats scipy's RK45 step for
    # step: the sampled states, the error estimate and the dense output
    # agree to the last bit.  Fast, strongly coupled fields make the step
    # control reject steps often; a draw that blows up must fail on both.
    rng = np.random.default_rng(seed)
    ode = cf.FourierOde(n=n, g0=complex_uniform(rng, n, scale=5.0) + 1j,
                        g1=complex_uniform(rng, (n, n), scale=rng.uniform(0, 3)),
                        u0=complex_uniform(rng, n, scale=0.5))
    tol = 10.0 ** log_tol
    reference = _solve_ivp_reference(ode, horizon, tol)
    if reference is None:
        with pytest.raises(DivergenceError):
            cf.integrate(ode, horizon, tol=tol)
        return
    traj = cf.integrate(ode, horizon, tol=tol)
    states, err, dense = reference
    assert traj.states.tobytes() == states.tobytes()
    assert traj.est_global_error == err
    for t in [*rng.uniform(0.0, horizon, 6), *dense.ts, horizon]:
        t = float(t)
        assert traj.state_at(t).tobytes() == np.asarray(dense(t)).tobytes()


@pytest.mark.parametrize("samples", [2, 3, 64, 1000])
def test_integrate_is_bitwise_scipy_rk45_on_each_sample_grid(samples):
    # the fine pass takes 54 steps after 3 rejections; over them these grids
    # hold a step with no sample (2), steps with one sample (3, 64), steps
    # with many (1000), and t = T, the end of the last step (all)
    rng = np.random.default_rng(0)
    ode = cf.FourierOde(n=2, g0=complex_uniform(rng, 2, scale=5.0) + 1j,
                        g1=complex_uniform(rng, (2, 2), scale=2.0),
                        u0=complex_uniform(rng, 2, scale=0.5))
    horizon, tol = 1.0, 1e-6
    states, err, dense = _solve_ivp_reference(ode, horizon, tol, samples)
    per_step = np.diff(np.searchsorted(np.linspace(0.0, horizon, samples),
                                       dense.ts, side="right"))
    assert {2: 0 in per_step, 3: 1 in per_step, 64: 1 in per_step,
            1000: per_step.max() > 1}[samples]
    traj = cf.integrate(ode, horizon, tol=tol, samples=samples)
    assert traj.states.tobytes() == states.tobytes()
    assert traj.est_global_error == err
    for t in [0.0, *dense.ts, horizon]:
        t = float(t)
        assert traj.state_at(t).tobytes() == np.asarray(dense(t)).tobytes()


def test_integrate_starts_as_scipy_when_the_first_step_estimate_overflows():
    # e^{ix0} = e^700: the field is finite but ||f0 / scale|| overflows, so
    # the starting step is 0 and the first step is the smallest one
    ode = cf.FourierOde(n=1, g0=[1.0], g1=[[1.0]], u0=[-700j])
    with np.errstate(over="ignore", invalid="ignore"):
        states, err, dense = _solve_ivp_reference(ode, 1.0, 1e-3)
        traj = cf.integrate(ode, 1.0, tol=1e-3)
    assert dense.ts[1] == 10 * 2.0 ** -1074
    assert traj.states.tobytes() == states.tobytes()
    assert traj.est_global_error == err


# -------------------------------------------------------------- final_state

def _state_bytes_agree(problem, horizon, tol=1e-11):
    """final_state against the state that integrate's trajectory reads."""
    expected = cf.integrate(problem, horizon, tol=tol).state_at(horizon)
    actual = cf.final_state(problem, horizon, tol=tol)
    return actual.tobytes() == expected.tobytes()


@pytest.mark.parametrize("name", BUNDLED)
def test_final_state_is_integrate_at_the_horizon_on_configs(name):
    cfg = cli.load_config(CONFIG_DIR / f"{name}.json")
    ode, run = cli.parse_ode(cfg), cli.parse_run(cfg)
    assert _state_bytes_agree(ode, run["T"], run["oracle_tol"])


@pytest.mark.parametrize("seed", range(6))
def test_final_state_is_integrate_at_the_horizon_on_dissipative_problems(seed):
    from conftest import make_dissipative_ode

    rng = np.random.default_rng(seed)
    for n in (1, 2, 3):
        ode = make_dissipative_ode(rng, n)
        horizon = float(rng.uniform(0.1, 3.0))
        assert _state_bytes_agree(ode, horizon)
        assert _state_bytes_agree(make_rescaled(rng, n), horizon, tol=1e-8)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 4), st.integers(0, 2 ** 32 - 1),
       st.floats(0.01, 2.0), st.floats(-13.0, -3.0))
def test_final_state_is_integrate_at_the_horizon(n, seed, horizon, log_tol):
    # the fields of test_integrate_is_bitwise_scipy_rk45, whose step control
    # rejects steps often; a draw that blows up fails in both
    rng = np.random.default_rng(seed)
    ode = cf.FourierOde(n=n, g0=complex_uniform(rng, n, scale=5.0) + 1j,
                        g1=complex_uniform(rng, (n, n), scale=rng.uniform(0, 3)),
                        u0=complex_uniform(rng, n, scale=0.5))
    tol = 10.0 ** log_tol
    try:
        expected = cf.integrate(ode, horizon, tol=tol).state_at(horizon)
    except DivergenceError:
        with pytest.raises(DivergenceError):
            cf.final_state(ode, horizon, tol=tol)
        return
    assert cf.final_state(ode, horizon, tol=tol).tobytes() == expected.tobytes()


def test_final_state_at_zero_is_the_initial_state(rng):
    rp = make_rescaled(rng, 3)
    state = cf.final_state(rp, 0.0)
    assert state.tobytes() == cf.integrate(rp, 0.0).state_at(0.0).tobytes()
    assert state.tobytes() == rp.x0.astype(complex).tobytes()
    state[0] += 1.0  # a copy, not the problem's own array
    assert state.tobytes() != rp.x0.astype(complex).tobytes()


def test_trajectory_at_zero_reads_copies_of_the_initial_state(rng):
    # a complex u0 is the array _field hands the integrator: each read of the
    # trajectory, like final_state, must leave the problem's own u0 alone
    ode = make_dissipative_ode(rng, 2)
    before = ode.u0.copy()
    traj = cf.integrate(ode, 0.0)
    state = traj.state_at(0.0)
    assert state.tobytes() == before.tobytes()
    state[0] += 1.0
    traj.states[0, 1] += 1.0
    assert ode.u0.tobytes() == before.tobytes()
    assert traj.state_at(0.0).tobytes() == before.tobytes()


@pytest.mark.parametrize("horizon,tol", [(-0.5, 1e-11), (1.0, 1e-2),
                                         (1.0, 1e-14), (1.0, math.nan)])
def test_final_state_refuses_what_integrate_refuses(rng, horizon, tol):
    rp = make_rescaled(rng, 2)
    with pytest.raises(ConfigError) as expected:
        cf.integrate(rp, horizon, tol=tol)
    with pytest.raises(ConfigError) as actual:
        cf.final_state(rp, horizon, tol=tol)
    assert str(actual.value) == str(expected.value)


def test_final_state_runs_the_fine_pass_alone(rng, rk45_passes):
    rp = make_rescaled(rng, 2)
    cf.final_state(rp, 1.0, tol=1e-9)
    assert rk45_passes == [(1e-9 * 1e-2, 0)]
    rk45_passes.clear()
    cf.integrate(rp, 1.0, tol=1e-9)
    assert rk45_passes == [(1e-9, 65), (1e-9 * 1e-2, 65)]


def _run_python(code: str):
    import os
    import subprocess
    import sys

    src = str(Path(__file__).resolve().parents[1] / "src")
    return subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=src))


def test_package_import_loads_no_scipy_integrate_or_linalg():
    # the oracle carries its own RK45, the generator is numpy tables and
    # matrix_exp imports scipy.linalg when called, so importing the package
    # and its CLI loads no scipy module at all
    out = _run_python("import sys, carleman_fourier, carleman_fourier.cli; "
                      "print(sorted(m for m in sys.modules "
                      "if m.split('.')[0] == 'scipy'))")
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


_BLOCK_SCIPY = '''
import importlib.abc, sys

class BlockScipy(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ImportError(f"{name} is blocked")
        return None

sys.meta_path.insert(0, BlockScipy())
'''


def test_cli_runs_with_every_scipy_import_blocked(tmp_path):
    # solve, estimate, oracle and sweep on the bundled configs need numpy
    # only: the split is Taylor steps on the generator, not a dense expm
    code = _BLOCK_SCIPY + f'''
import json
from pathlib import Path
from carleman_fourier.cli import main

configs, out = Path({str(CONFIG_DIR)!r}), Path({str(tmp_path)!r})
for config in sorted(configs.glob("*.json")):
    for command in ("solve", "estimate", "oracle"):
        where = out / command / config.stem
        assert main([command, str(config), "--out", str(where)]) == 0, (command, config)
    manifest = json.loads((out / "solve" / config.stem / "manifest.json").read_text())
    assert manifest["errors"]["within_epsilon"] is True, config
    assert manifest["errors"]["koopman"] is not None, config
assert main(["sweep", str(configs / "nondissipative_n2.json"), "--axis", "N",
             "--values", "4,5,6,7,8", "--out", str(out / "sweep")]) == 0
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
'''
    out = _run_python(code)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip().splitlines()[-1] == "[]"


# ------------------------------------------------------------- closed form

def test_closed_form_no_coupling():
    f0, x0 = 0.7 + 0.9j, 0.4 - 0.1j
    for t in (0.0, 0.5, 2.0):
        expected = np.exp(1j * x0) * np.exp(1j * f0 * t)
        assert cf.closed_form_1d(f0, 0.0, x0, t) == pytest.approx(expected,
                                                                  rel=1e-13)


def test_closed_form_initial_value(rng):
    for _ in range(5):
        f0 = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        f1 = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        x0 = complex(rng.uniform(-2, 2), rng.uniform(-0.5, 0.5))
        assert cf.closed_form_1d(f0, f1, x0, 0.0) == pytest.approx(
            np.exp(1j * x0), rel=1e-14)


def test_closed_form_satisfies_defining_equation(rng):
    # 4th-order central difference of w(t) against i f0 w + i f1 w^2
    h = 1e-3
    for _ in range(10):
        f0 = complex(rng.uniform(-1, 1), rng.uniform(0.3, 1.5))
        f1 = complex(rng.uniform(-0.4, 0.4), rng.uniform(-0.4, 0.4))
        x0 = complex(rng.uniform(-2, 2), rng.uniform(-0.3, 0.3))
        t = 0.8
        w = [cf.closed_form_1d(f0, f1, x0, t + s * h)
             for s in (-2, -1, 0, 1, 2)]
        deriv = (w[0] - 8 * w[1] + 8 * w[3] - w[4]) / (12 * h)
        residual = deriv - 1j * f0 * w[2] - 1j * f1 * w[2] ** 2
        assert abs(residual) <= 1e-10 * max(1.0, abs(w[2]))


def test_closed_form_zero_f0_limit(rng):
    # f0 = 0 uses the series branch: z(t) = z0 - i f1 t
    f1 = 0.3 - 0.2j
    x0 = 0.5 + 0.1j
    t = 0.7
    z = np.exp(-1j * x0) - 1j * f1 * t
    assert cf.closed_form_1d(0.0, f1, x0, t) == pytest.approx(1 / z, rel=1e-12)


def test_closed_form_reports_the_pole():
    # x0 = 0, f0 = 0 and f1 = -i: z(1) = 1 - i f1 = 0, the pole of w = 1/z
    with pytest.raises(DivergenceError, match="pole reached at t=1") as err:
        cf.closed_form_1d(0.0, -1j, 0.0, 1.0)
    assert err.value.layer == "oracle.closed_form_1d"


# ------------------------------------------------------------- exact_lifted

def test_exact_lifted_at_zero_matches_lift_initial(rng):
    rp = make_rescaled(rng, 2)
    traj = cf.integrate(rp, 0.5, tol=1e-11)
    lifted = cf.exact_lifted(traj, 3, 0.0)
    ref = cf.lift_initial(rp, 3)
    for a, b in zip(lifted.blocks, ref.blocks):
        np.testing.assert_allclose(a, b, rtol=1e-9, atol=1e-12)


def test_exact_lifted_norm_identity(rng):
    rp = make_rescaled(rng, 2)
    traj = cf.integrate(rp, 0.8, tol=1e-11)
    state = expand(cf.exact_lifted(traj, 4, 0.5))
    for p in (1, 2, math.inf):
        base = cf.vector_p_norm(state.blocks[0], p)
        for j in range(1, 5):
            assert cf.vector_p_norm(state.blocks[j - 1], p) == pytest.approx(
                base ** j, rel=1e-11)


def test_exact_lifted_first_block(rng):
    rp = make_rescaled(rng, 3)
    traj = cf.integrate(rp, 0.4, tol=1e-11)
    state = cf.exact_lifted(traj, 1, 0.4)
    np.testing.assert_allclose(state.blocks[0],
                               np.exp(1j * traj.state_at(0.4)), rtol=1e-12)


# -------------------------------------------------------------- measure_eta

def test_measure_eta_zero_when_uncoupled(rng):
    rp = make_rescaled(rng, 2)
    frozen = cf.RescaledProblem(nu=1.0, f0=rp.f0, f1=np.zeros((2, 2)),
                                x0=rp.x0, w0=rp.w0, gamma=rp.gamma)
    traj = cf.integrate(frozen, 1.0, tol=1e-12)
    op = cf.LinearOperatorLN.from_rescaled(frozen, 3)
    psi = cf.propagate_dense(cf.dense_LN(op), cf.lift_initial(frozen, 3), 1.0)
    for k in (1, 2, 3):
        assert cf.measure_eta(traj, psi, k, 1.0, 2) < 1e-9


def test_measure_eta_zero_at_initial_time(rng):
    rp = make_rescaled(rng, 2)
    traj = cf.integrate(rp, 0.5, tol=1e-11)
    psi0 = cf.lift_initial(rp, 3)
    assert cf.measure_eta(traj, psi0, 1, 0.0, 2) < 1e-12


def test_measure_eta_below_dissipative_bound(rng):
    rp = make_rescaled(rng, 2, r_target=0.45)
    report = cf.check_dissipative(
        cf.FourierOde(n=2, g0=rp.f0, g1=rp.f1, u0=-1j * np.log(rp.w0)), 2)
    order = 6
    t_end = 1.5
    traj = cf.integrate(rp, t_end, tol=1e-12)
    op = cf.LinearOperatorLN.from_rescaled(rp, order)
    psi = cf.propagate_dense(cf.dense_LN(op), cf.lift_initial(rp, order), t_end)
    bound = cf.eta_bound_dissipative(report, rp, order, 1, 2)
    assert bound.hypotheses_met
    assert cf.measure_eta(traj, psi, 1, t_end, 2) <= bound.value + 1e-10


def test_a_lifted_state_builds_no_basis(rng, monkeypatch):
    # the norm, the tensor expansion and the truncation error of a lifted
    # state read the state's own basis; the exact state is lifted on its
    # leading section
    import importlib
    import pkgutil

    rp = make_rescaled(rng, 2)
    traj = cf.integrate(rp, 0.5, tol=1e-11)
    psi0 = cf.lift_initial(rp, 4)
    reads = {
        "norm": lambda: psi0.norm(2),
        "expand": lambda: expand(psi0).vector.tobytes(),
        "measure_eta": lambda: cf.measure_eta(traj, psi0, 2, 0.25),
        "measure_eta_vector": lambda: cf.measure_eta_vector(traj, psi0, 0.25),
    }
    expected = {name: read() for name, read in reads.items()}
    calls = []
    for info in pkgutil.iter_modules(cf.__path__):
        module = importlib.import_module(f"carleman_fourier.{info.name}")
        if hasattr(module, "monomial_basis"):
            def counted(*args, build=module.monomial_basis):
                calls.append(args)
                return build(*args)

            monkeypatch.setattr(module, "monomial_basis", counted)
    for name, read in reads.items():
        assert read() == expected[name], name
        assert calls == [], name
    # the exact block 2 equals the one lifted on a basis of order 2
    exact = cf.lift_point(np.exp(1j * traj.state_at(0.25)),
                          psi0.basis.leading(2))
    assert expected["measure_eta"] == cf.vector_p_norm(
        exact.blocks[1] - psi0.blocks[1], 2, psi0.basis.weights[2:5])


# ----------------------------------------------------- trajectory invariants

def test_dissipative_norm_monotone(rng):
    tol = 1e-11
    for n, p in [(1, 1), (2, 2), (3, 2)]:
        rp = make_rescaled(rng, n, p=p, r_target=0.5)
        traj = cf.integrate(rp, 2.0, tol=tol)
        values = [cf.vector_p_norm(np.exp(1j * traj.state_at(t)), p)
                  for t in np.linspace(0, 2.0, 30)]
        for earlier, later in zip(values, values[1:]):
            assert later <= earlier + 10 * tol


def test_norm_stays_under_one_over_r(rng):
    r = 5.0
    for _ in range(5):
        rp = make_nondissipative_rescaled(rng, 2, r=r)
        t_r = cf.upper_bounded_time(rp, r, 2)
        traj = cf.integrate(rp, t_r, tol=1e-11)
        for t in np.linspace(0, t_r, 20):
            val = cf.vector_p_norm(np.exp(1j * traj.state_at(t)), 2)
            assert val <= 1.0 / r + 1e-9


def test_gronwall_envelope(rng):
    p, r = 2, 5.0
    for _ in range(5):
        rp = make_nondissipative_rescaled(rng, 2, r=r)
        q = cf.conjugate_exponent(p)
        lam = max(cf.vector_p_norm(rp.f0, math.inf), cf.row_q_norm(rp.f1, q))
        psi0 = rp.w0_norm(p)
        t_r = cf.upper_bounded_time(rp, r, p)
        traj = cf.integrate(rp, t_r, tol=1e-11)
        for t in np.linspace(0, t_r, 15):
            val = cf.vector_p_norm(np.exp(1j * traj.state_at(t)), p)
            assert val <= psi0 * math.exp(lam * (1 + 1 / r) * t) + 1e-9


def test_integrate_stops_on_a_field_that_is_nan_at_the_start():
    # e^{ix0} overflows, so F1 e^{ix0} is NaN and so is the starting step;
    # scipy's RK45 loops forever on it, the oracle reports a step failure
    ode = cf.FourierOde(n=2, g0=[1j, 1j], g1=[[0, 0], [1, 0]], u0=[-1000j, 0])
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(DivergenceError, match="step-size failure near t=0") as err:
            cf.integrate(ode, 1.0)
    assert err.value.layer == "oracle.integrate"


def test_integrate_blowup_raises():
    # strongly anti-dissipative scalar problem with a finite-time pole
    ode = cf.FourierOde(n=1, g0=[-3j], g1=[[-4j]], u0=[-1.2j])
    with pytest.raises(DivergenceError):
        cf.integrate(ode, 50.0, tol=1e-10)


def test_measure_eta_on_a_state_above_the_tensor_budget(rng):
    # n = 2, N = 40: 860 monomials, 2^41 - 2 tensor entries; the error is
    # taken in monomial coordinates, so the state is never expanded
    rp = make_rescaled(rng, 2)
    traj = cf.integrate(rp, 1.0, tol=1e-11)
    psi0 = cf.lift_initial(rp, 40)
    assert cf.measure_eta(traj, psi0, 1, 0.0) < 1e-12
    assert cf.measure_eta(traj, psi0, 40, 0.0, math.inf) < 1e-12
    assert cf.measure_eta_vector(traj, psi0, 0.0) < 1e-12


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 3), st.integers(1, 5), st.integers(0, 2 ** 32 - 1))
def test_measure_eta_monomial_and_tensor_paths_agree(n, order, seed):
    rng = np.random.default_rng(seed)
    rp = make_rescaled(rng, n)
    traj = cf.integrate(rp, 0.5, tol=1e-10)
    op = cf.LinearOperatorLN.from_rescaled(rp, order)
    psi = cf.propagate(op, cf.lift_initial(rp, order), 0.5)
    for p in (1, 2, 3.5, math.inf):
        for k in range(1, order + 1):
            mono = cf.measure_eta(traj, psi, k, 0.5, p)
            tensor = cf.measure_eta(traj, expand(psi), k, 0.5, p)
            assert mono == pytest.approx(tensor, rel=1e-13, abs=1e-300)
        mono = cf.measure_eta_vector(traj, psi, 0.5, p)
        tensor = cf.measure_eta_vector(traj, expand(psi), 0.5, p)
        assert mono == pytest.approx(tensor, rel=1e-13, abs=1e-300)


def test_measure_eta_accepts_solve_result(rng):
    rp = make_rescaled(rng, 2, r_target=0.4)
    order, horizon = 5, 1.0
    traj = cf.integrate(rp, horizon, tol=1e-12)
    op = cf.LinearOperatorLN.from_rescaled(rp, order)
    cfg = cf.TaylorConfig(m=8, h=horizon / 8, k=16)
    res = cf.forward_solve(op, cfg, cf.lift_initial(rp, order))
    via_solve = cf.measure_eta(traj, res.final, 1, horizon, 2)
    dense_state = cf.propagate_dense(cf.dense_LN(op),
                                     cf.lift_initial(rp, order), horizon)
    via_dense = cf.measure_eta(traj, dense_state, 1, horizon, 2)
    # k = 16 makes the stepping error negligible next to the lifting error
    assert via_solve == pytest.approx(via_dense, rel=1e-6)
    with pytest.raises(ConfigError):
        cf.measure_eta(traj, res, 1, horizon, 2)  # a state, not the result


# ---------------------------------------------------------------- propagate

def _relative_gap(got, expected):
    got = expand(got).vector
    return np.linalg.norm(got - expected.vector) / np.linalg.norm(expected.vector)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 3), st.integers(1, 5), st.integers(0, 2 ** 32 - 1))
def test_propagate_matches_dense_tensor_path(n, order, seed):
    # the gate for the Koopman/Taylor split on monomial coordinates: Taylor
    # steps on the monomial generator, expanded, equal the dense exponential
    # of the tensor matrix applied to the lifted point.  Up to t = 20 the
    # grid takes many steps, so a step-size cap that is too loose fails here
    # (with steps up to theta_55 = 9.9 the gap reached 9e-11)
    rng = np.random.default_rng(seed)
    op = cf.LinearOperatorLN(cf.monomial_basis(n, order), complex_uniform(rng, n),
                             complex_uniform(rng, (n, n)))
    psi0 = cf.lift_point(complex_uniform(rng, n, scale=0.7), op.basis)
    t = float(rng.uniform(0.0, 20.0))
    got = cf.propagate(op, psi0, t)
    expected = cf.propagate_dense(cf.dense_LN(op), psi0, t)
    # the dense reference squares its exponential, so its own error grows
    # with ||L t||: at ||L t||_1 = 79 and 115 it was 1.1e-13 and 1.0e-13
    # off a 40-digit exponential, where the Taylor steps were 4.6e-14 and
    # 9.1e-15 off.  Up to one expm_at slice (norm 40) the bound is 1e-13
    assert _relative_gap(got, expected) <= 1e-13 * max(1.0, op.norm_1() * t / 40)


def _monomial_matrix(op):
    """The monomial generator as a dense matrix, from its tables."""
    out = np.diag(op.diagonal)
    rows = np.arange(op.coupling.shape[1])
    for s in range(op.n):
        out[rows, op.basis.up_t[s]] = op.coupling[s]
    return out


def test_propagate_grid_follows_the_generator_norm(rng):
    op = cf.LinearOperatorLN(cf.monomial_basis(2, 4), complex_uniform(rng, 2),
                             complex_uniform(rng, (2, 2)))
    matrix = _monomial_matrix(op)
    x = complex_uniform(rng, op.monomial_size)
    np.testing.assert_allclose(cf.apply_LN(op, x), matrix @ x, rtol=1e-14)
    assert op.norm_1() == pytest.approx(cf.op_norm(matrix, 1), rel=1e-15)
    assert action_config(op, 0.0) is None
    for t in (1e-3, 0.5, 3.0, 20.0):
        cfg = action_config(op, t)
        assert cfg.m * cfg.h == pytest.approx(t, rel=1e-15)
        assert op.norm_1() * cfg.h <= 2.0
    # a longer horizon takes more steps
    assert action_config(op, 20.0).m > action_config(op, 3.0).m > 1


def test_propagate_at_zero_returns_the_initial_state(rng):
    op = cf.LinearOperatorLN(cf.monomial_basis(2, 3), complex_uniform(rng, 2),
                             complex_uniform(rng, (2, 2)))
    psi0 = cf.lift_point(complex_uniform(rng, 2, scale=0.7), op.basis)
    got = cf.propagate(op, psi0, 0.0)
    assert got.vector.tobytes() == psi0.vector.tobytes()
    assert not np.shares_memory(got.vector, psi0.vector)
    with pytest.raises(ConfigError):
        cf.propagate(op, psi0, -1.0)


def test_propagate_over_the_stepping_budget_is_refused(rng):
    op = cf.LinearOperatorLN(cf.monomial_basis(2, 3), complex_uniform(rng, 2),
                             complex_uniform(rng, (2, 2)))
    psi0 = cf.lift_point(complex_uniform(rng, 2, scale=0.7), op.basis)
    for t in (1e9, 2e6 / op.norm_1()):  # refused by the grid, by forward_solve
        with pytest.raises(BudgetError):
            cf.propagate(op, psi0, t)


@pytest.mark.parametrize("name", BUNDLED)
def test_propagate_matches_dense_tensor_path_on_configs(name):
    cfg = cli.load_config(CONFIG_DIR / f"{name}.json")
    ode, readout, run = cli.parse_ode(cfg), cli.parse_readout(cfg), cli.parse_run(cfg)
    ps = cli.select_params(ode, readout, run, dict(cfg["overrides"]))
    rescaled = cf.rescale(ode, readout, ps.nu)
    op = cf.LinearOperatorLN.from_rescaled(rescaled, ps.order)
    psi0 = cf.lift_initial(rescaled, ps.order)
    got = cf.propagate(op, psi0, run["T"])
    expected = cf.propagate_dense(cf.dense_LN(op), psi0, run["T"])
    assert _relative_gap(got, expected) <= 1e-13
