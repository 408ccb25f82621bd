import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import carleman_fourier as cf
from carleman_fourier import cli
from carleman_fourier.errors import ConfigError, DivergenceError
from carleman_fourier.taylor import step_count_for
from carleman_fourier.tensor import dense_Vk, expand

from conftest import complex_uniform, make_rescaled

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def stable_operator(rng, n, order, r_target=0.5):
    rp = make_rescaled(rng, n, r_target=r_target)
    return rp, cf.LinearOperatorLN.from_rescaled(rp, order)


# ----------------------------------------------------------------- apply_Vk

def test_apply_vk_zero_operator(rng):
    op = cf.LinearOperatorLN(order=2, n=2, f0=np.zeros(2), f1=np.zeros((2, 2)))
    cfg = cf.TaylorConfig(m=1, h=0.3, k=6)
    x = complex_uniform(rng, op.monomial_size)
    out = cf.apply_Vk(op, cfg, x)
    np.testing.assert_allclose(out, x, atol=1e-15)


def test_apply_vk_scalar_exponential(rng):
    f0 = 0.9 + 1.4j
    op = cf.LinearOperatorLN(order=1, n=1, f0=[f0], f1=[[0.0]])
    h = 0.37
    cfg = cf.TaylorConfig(m=1, h=h, k=20)
    x = np.array([1.0 + 0.5j])
    out = cf.apply_Vk(op, cfg, x)
    expected = np.exp(1j * f0 * h) * x
    np.testing.assert_allclose(out, expected, rtol=1e-14)


def test_apply_vk_first_order(rng):
    rp, op = stable_operator(rng, 2, 3)
    cfg = cf.TaylorConfig(m=1, h=0.2, k=1)
    x = cf.lift_initial(rp, 3).vector
    lx = cf.apply_LN(op, x)
    out = cf.apply_Vk(op, cfg, x)
    np.testing.assert_allclose(out, x + 0.2 * lx, rtol=1e-14)


def test_apply_vk_matches_dense_polynomial(rng):
    rp, op = stable_operator(rng, 2, 4)
    cfg = cf.TaylorConfig(m=1, h=0.15, k=7)
    dense = dense_Vk(op, cfg)
    x = complex_uniform(rng, op.monomial_size)

    def tensor(v):
        return expand(cf.LiftedState(2, 4, v)).vector

    np.testing.assert_allclose(tensor(cf.apply_Vk(op, cfg, x)),
                               dense @ tensor(x), rtol=1e-13, atol=1e-13)


# -------------------------------------------------------------- forward_solve

def _state_at_step(op, cfg, psi0, j):
    # step j of a solve is the final state of a j-step solve at the same h
    return cf.forward_solve(op, cf.TaylorConfig(j, cfg.h, cfg.k), psi0).final


def test_forward_solve_identity_when_l_zero(rng):
    op = cf.LinearOperatorLN(order=2, n=2, f0=np.zeros(2), f1=np.zeros((2, 2)))
    cfg = cf.TaylorConfig(m=5, h=0.1, k=4)
    v = cf.LiftedState(2, 2, complex_uniform(rng, op.monomial_size))
    res = cf.forward_solve(op, cfg, v)
    assert res.residual == 0.0
    np.testing.assert_allclose(res.final.vector, v.vector, atol=1e-15)
    for j in range(1, cfg.m):
        np.testing.assert_allclose(_state_at_step(op, cfg, v, j).vector,
                                   v.vector, atol=1e-15)


def test_forward_solve_single_step(rng):
    rp, op = stable_operator(rng, 2, 3)
    cfg = cf.TaylorConfig(m=1, h=0.25, k=8)
    psi0 = cf.lift_initial(rp, 3)
    res = cf.forward_solve(op, cfg, psi0)
    ref = cf.apply_Vk(op, cfg, psi0.vector)
    np.testing.assert_allclose(res.final.vector, ref, rtol=1e-14)


def test_forward_solve_tracks_dense_exponential(rng):
    rp, op = stable_operator(rng, 1, 2)
    horizon = 1.0
    m, k = 8, 16
    cfg = cf.TaylorConfig(m=m, h=horizon / m, k=k)
    psi0 = cf.lift_initial(rp, 2)
    dense = cf.dense_LN(op)
    # the certified growth envelope exp(max(mu2, 0) T) of ||exp(L t)||_2
    envelope = math.exp(max(cf.log_norm_2(dense), 0.0) * horizon)
    for j in (1, m // 2, m):
        exact = cf.expm_at(dense, j * cfg.h) @ psi0.vector
        err = np.linalg.norm(_state_at_step(op, cfg, psi0, j).vector - exact)
        cap = cf.taylor_remainder_bound(j, k) * envelope * psi0.norm(2)
        assert err <= cap + 1e-12


def test_forward_solve_leaves_inputs_and_history_unchanged(rng):
    # stepping updates vectors in place; only fresh ones may be touched
    rp, op = stable_operator(rng, 2, 3)
    cfg = cf.TaylorConfig(m=4, h=0.2, k=6)
    psi0 = cf.lift_initial(rp, 3)
    before = psi0.vector.tobytes()
    res = cf.forward_solve(op, cfg, psi0)
    assert psi0.vector.tobytes() == before
    assert not np.shares_memory(res.final.vector, psi0.vector)
    chain = psi0.vector
    for _ in range(cfg.m):
        chain = cf.apply_Vk(op, cfg, chain)
    assert chain.tobytes() == res.final.vector.tobytes()


def test_forward_solve_keeps_history_in_monomials(rng):
    # only the final state is kept, in monomial coordinates
    rp, op = stable_operator(rng, 2, 3)
    cfg = cf.TaylorConfig(m=4, h=0.2, k=6)
    psi0 = cf.lift_initial(rp, 3)
    res = cf.forward_solve(op, cfg, psi0)
    # 9 monomials instead of 14 tensor entries
    assert isinstance(res.final, cf.LiftedState)
    assert (res.final.n, res.final.order) == (2, 3)
    assert res.final.vector.shape == (op.monomial_size,) == (9,)
    for name in ("history", "operator", "state_at_step", "readout_value"):
        assert not hasattr(res, name)
    # a j-step solve is the first j steps of a longer one, bitwise
    chain = psi0.vector
    for j in range(1, cfg.m + 1):
        chain = cf.apply_Vk(op, cfg, chain)
        assert chain.tobytes() == _state_at_step(op, cfg, psi0, j).vector.tobytes()


def test_forward_solve_memory_is_bounded_in_m():
    # dissipative_n2 at m = 5000: a kept (m + 1) x 35 history alone would
    # take 2.8 MB; one state takes 560 bytes
    cfg = cli.load_config(CONFIGS / "dissipative_n2.json")
    ode, readout, run = cli.parse_ode(cfg), cli.parse_readout(cfg), cli.parse_run(cfg)
    ps = cli.select_params(ode, readout, run, cfg["overrides"])
    rescaled = cf.rescale(ode, readout, ps.nu)
    op = cf.LinearOperatorLN.from_rescaled(rescaled, ps.order)
    psi0 = cf.lift_initial(rescaled, ps.order, basis=op.basis)
    assert op.monomial_size == 35
    steps = cf.TaylorConfig(m=5000, h=run["T"] / 5000, k=4)
    tracemalloc.start()
    try:
        res = cf.forward_solve(op, steps, psi0, verify=False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.final.all_finite()
    assert peak < 0.25e6


def test_forward_solve_refuses_non_symmetric_psi0(rng):
    rp, op = stable_operator(rng, 2, 3)
    cfg = cf.TaylorConfig(m=2, h=0.1, k=4)
    # a non-symmetric tensor can only be a TensorState, which is refused:
    # tensor slots 1 and 2 of block 2 (digit strings 01 and 10) share a count
    tensor = expand(cf.lift_initial(rp, 3))
    tensor.vector[2 + 2] *= 1 + 1e-15
    assert tensor.vector[2 + 2] != tensor.vector[2 + 1]
    with pytest.raises(ConfigError):
        cf.forward_solve(op, cfg, tensor)
    with pytest.raises(ConfigError):
        cf.forward_solve(op, cfg, cf.LiftedState(2, 2, complex_uniform(rng, 5)))


def test_forward_solve_counts_generator_applies(rng):
    rp, op = stable_operator(rng, 2, 3)
    cfg = cf.TaylorConfig(m=3, h=0.1, k=5)
    psi0 = cf.lift_initial(rp, 3)
    assert cf.forward_solve(op, cfg, psi0).generator_applies == 30
    assert cf.forward_solve(op, cfg, psi0, verify=False).generator_applies == 15


def test_forward_solve_residual_small(rng):
    rp, op = stable_operator(rng, 2, 4)
    cfg = cf.TaylorConfig(m=6, h=0.12, k=9)
    res = cf.forward_solve(op, cfg, cf.lift_initial(rp, 4))
    assert res.residual <= 1e-12


def test_forward_solve_divergence_error():
    op = cf.LinearOperatorLN(order=1, n=1, f0=[-100j], f1=[[0.0]])
    cfg = cf.TaylorConfig(m=200, h=1.0, k=3)
    psi0 = cf.LiftedState(1, 1, [1.0 + 0j])
    with pytest.raises(DivergenceError) as err:
        cf.forward_solve(op, cfg, psi0)
    assert err.value.step is not None


# ------------------------------------------------------------- readout_value

def test_readout_picks_component(rng):
    rp, op = stable_operator(rng, 2, 2)
    cfg = cf.TaylorConfig(m=3, h=0.1, k=6)
    res = cf.forward_solve(op, cfg, cf.lift_initial(rp, 2))
    coeffs = np.zeros(op.monomial_size, dtype=complex)
    coeffs[1] = 1.0
    assert cf.readout_value(res, coeffs) == pytest.approx(
        res.final.blocks[0][1])


def test_readout_linear_problem_closed_form(rng):
    f0 = 0.3 + 1.1j
    x0 = 0.7 - 0.2j
    op = cf.LinearOperatorLN(order=1, n=1, f0=[f0], f1=[[0.0]])
    horizon = 1.3
    cfg = cf.TaylorConfig(m=8, h=horizon / 8, k=14)
    psi0 = cf.LiftedState(1, 1, [np.exp(1j * x0)])
    res = cf.forward_solve(op, cfg, psi0)
    value = cf.readout_value(res, np.array([1.0 + 0j]))
    expected = np.exp(1j * f0 * horizon) * np.exp(1j * x0)
    cap = cf.taylor_remainder_bound(8, 14) * abs(np.exp(1j * x0))
    assert abs(value - expected) <= cap + 1e-13


def test_readout_equals_time_grid_contraction(rng):
    # weight 1/m over the m trailing copies cancels against the copy count
    rp, op = stable_operator(rng, 2, 3)
    cfg = cf.TaylorConfig(m=4, h=0.1, k=6)
    res = cf.forward_solve(op, cfg, cf.lift_initial(rp, 3))
    coeffs = complex_uniform(rng, op.monomial_size)
    direct = cf.readout_value(res, coeffs)
    copies = sum((1.0 / cfg.m) * np.dot(coeffs, res.final.vector)
                 for _ in range(cfg.m))
    assert direct == pytest.approx(copies, rel=1e-12)


def test_readout_shape_mismatch(rng):
    rp, op = stable_operator(rng, 2, 2)
    cfg = cf.TaylorConfig(m=1, h=0.1, k=3)
    res = cf.forward_solve(op, cfg, cf.lift_initial(rp, 2))
    with pytest.raises(ConfigError):
        cf.readout_value(res, np.zeros(3, dtype=complex))


# ----------------------------------------------------------- W_{l,k} norms

def test_w_matrix_identity_cases(rng):
    rp, op = stable_operator(rng, 2, 3)
    h = 0.9 / cf.op_norm(cf.dense_LN(op), 2)
    cfg = cf.TaylorConfig(m=1, h=h, k=5)
    assert cf.op_norm(cf.w_matrix(op, cfg, 5), 2) == pytest.approx(1.0,
                                                                   abs=1e-12)
    zero_op = cf.LinearOperatorLN(order=3, n=2, f0=np.zeros(2),
                                  f1=np.zeros((2, 2)))
    for ell in range(6):
        assert cf.op_norm(cf.w_matrix(zero_op, cfg, ell), 2) == pytest.approx(
            1.0, abs=1e-12)


def test_w_matrix_norm_below_e(rng):
    for n, order in [(2, 4), (3, 3)]:
        rp, op = stable_operator(rng, n, order)
        h = 1.0 / cf.op_norm(cf.dense_LN(op), 2)
        for k in (2, 5, 9):
            cfg = cf.TaylorConfig(m=1, h=h, k=k)
            for ell in range(k + 1):
                assert cf.op_norm(cf.w_matrix(op, cfg, ell), 2) <= math.e + 1e-9


# ------------------------------------------------------ remainder behaviour

def test_remainder_shrinks_with_k(rng):
    rp, op = stable_operator(rng, 1, 3)
    dense = cf.dense_LN(op)
    h = 1.0 / cf.op_norm(dense, 2)
    exact = cf.expm_at(dense, h)
    prev = None
    psi0 = cf.lift_initial(rp, 3)
    for k in (2, 4, 8, 12):
        cfg = cf.TaylorConfig(m=1, h=h, k=k)
        # n = 1: every tensor entry is its own monomial
        err = np.linalg.norm(cf.apply_Vk(op, cfg, psi0.vector) - exact @ psi0.vector)
        if prev is not None:
            assert err <= prev + 1e-15
        prev = err


def test_step_count_rounds_up():
    assert step_count_for(1.0, 2, 1.5) == 3
    assert step_count_for(1.0, 2, 1.6) == 4
    assert step_count_for(0.0, 3, 2.0) == 1


def test_taylor_config_validation():
    with pytest.raises(ConfigError):
        cf.TaylorConfig(m=0, h=0.1, k=1)
    with pytest.raises(ConfigError):
        cf.TaylorConfig(m=1, h=-0.1, k=1)
    with pytest.raises(ConfigError):
        cf.TaylorConfig(m=1, h=0.1, k=0)
