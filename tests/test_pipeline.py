"""Cross-regime pipeline regressions at shapes the acceptance suite does
not touch (n = 3, p = 1, scalar non-dissipative), and the monomial pipeline
against its tensor-layout reference."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import carleman_fourier as cf
from carleman_fourier.linearize import total_size
from carleman_fourier.tensor import dense_Vk, expand

from conftest import (complex_uniform, make_dissipative_ode, random_readout,
                      tensor_coeff_blocks)


def run_pipeline(ode, readout, ps):
    rescaled = cf.rescale(ode, readout, ps.nu)
    op = cf.LinearOperatorLN.from_rescaled(rescaled, ps.order)
    cfg = cf.TaylorConfig(m=ps.steps, h=ps.step_size, k=ps.taylor_order)
    result = cf.forward_solve(op, cfg, cf.lift_initial(rescaled, ps.order))
    coeffs = cf.expand_coeff_vector(readout, rescaled, ps.order)
    return cf.readout_value(result, coeffs), result.residual


def test_end_to_end_n3_p1(rng):
    epsilon, horizon = 1e-2, 0.5
    ode = make_dissipative_ode(rng, 3, p=1, r_target=0.25)
    readout = random_readout(rng, 3, 1, count=3)
    ps = cf.select_dissipative(ode, readout, epsilon, horizon, p=1)
    estimate, residual = run_pipeline(ode, readout, ps)
    traj = cf.integrate(ode, horizon, tol=1e-11)
    reference = cf.eval_readout(readout, traj.state_at(horizon))
    assert abs(estimate - reference) <= epsilon
    assert residual <= 1e-12


def test_end_to_end_scalar_nondissipative(rng):
    epsilon = 1e-4
    ode = cf.FourierOde(n=1, g0=[0.3 - 0.4j], g1=[[0.2 + 0.1j]], u0=[0.7 - 0.1j])
    readout = cf.ReadoutSpec(degree=2, coeffs={(1,): 1.0, (2,): 0.5j})
    probe = cf.select_nondissipative(ode, readout, epsilon, 1e-8, r=5.0)
    horizon = 0.8 * probe.t_max
    ps = cf.select_nondissipative(ode, readout, epsilon, horizon, r=5.0,
                                  nu=probe.nu)
    estimate, _ = run_pipeline(ode, readout, ps)
    traj = cf.integrate(ode, horizon, tol=1e-11)
    reference = cf.eval_readout(readout, traj.state_at(horizon))
    assert abs(estimate - reference) <= epsilon
    # the scalar closed form agrees as well
    w = cf.closed_form_1d(ode.g0[0], ode.g1[0, 0], ode.u0[0], horizon)
    assert abs(estimate - (w + 0.5j * w ** 2)) <= epsilon


def test_pipeline_scale_invariance(rng):
    # the same problem solved at three different rescalings returns the
    # same observable (coefficients absorb nu^{|j|})
    ode = make_dissipative_ode(rng, 2, r_target=0.35)
    readout = random_readout(rng, 2, 2, count=2)
    ps = cf.select_dissipative(ode, readout, 1e-4, 0.6)
    values = []
    for nu in (ps.nu, 1.0, 10.0):
        import dataclasses
        trial = dataclasses.replace(ps, nu=nu)
        value, _ = run_pipeline(ode, readout, trial)
        values.append(value)
    assert values[1] == pytest.approx(values[0], abs=1e-6)
    assert values[2] == pytest.approx(values[0], abs=1e-6)


def _relative_gap(got, expected):
    return np.linalg.norm(got - expected) / np.linalg.norm(expected)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4), st.integers(1, 6), st.integers(0, 2 ** 32 - 1))
def test_monomial_pipeline_matches_the_tensor_reference(n, order, seed):
    # lift -> forward_solve -> readout_value and propagate, all in monomial
    # coordinates, against Kronecker powers, dense_Vk, propagate_dense and
    # the blockwise dot with canonical-slot coefficients; up to 400 tensor
    # entries, so that the dense reference stays small
    assume(total_size(n, order) <= 400)
    rng = np.random.default_rng(seed)
    w0 = complex_uniform(rng, n, scale=0.7)
    ode = cf.FourierOde(n=n, g0=complex_uniform(rng, n),
                        g1=complex_uniform(rng, (n, n)), u0=-1j * np.log(w0))
    readout = random_readout(rng, n, int(rng.integers(1, order + 1)))
    rescaled = cf.rescale(ode, readout, 1.0)
    op = cf.LinearOperatorLN.from_rescaled(rescaled, order)

    psi0 = cf.lift_initial(rescaled, order, basis=op.basis)
    powers = [rescaled.w0]
    for _ in range(order - 1):
        powers.append(np.kron(powers[-1], rescaled.w0))
    tensor0 = np.concatenate(powers)
    assert _relative_gap(expand(psi0).vector, tensor0) <= 1e-13

    dense = cf.dense_LN(op)
    cfg = cf.TaylorConfig(m=3, h=0.5 / max(cf.op_norm(dense, 2), 1e-3), k=6)
    result = cf.forward_solve(op, cfg, psi0)
    vk = dense_Vk(op, cfg)
    final = tensor0
    for _ in range(cfg.m):
        final = vk @ final
    assert _relative_gap(expand(result.final).vector, final) <= 1e-13

    estimate = cf.readout_value(result, cf.expand_coeff_vector(readout, rescaled, order))
    terms = [c * b for c, b in zip(tensor_coeff_blocks(readout, rescaled, order),
                                   cf.TensorState(n, order, final).blocks)]
    reference = sum(t.sum() for t in terms)
    assert abs(estimate - reference) <= 1e-13 * sum(np.abs(t).sum() for t in terms)

    t = float(rng.uniform(0.0, 1.0))
    got = expand(cf.propagate(op, psi0, t)).vector
    expected = cf.propagate_dense(dense, cf.TensorState(n, order, tensor0), t).vector
    assert _relative_gap(got, expected) <= 1e-13
