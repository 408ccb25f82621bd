import math
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import carleman_fourier as cf
from carleman_fourier import cli, taylor
from carleman_fourier.errors import BudgetError, ConfigError, DivergenceError
from carleman_fourier.linearize import (DEFAULT_STATE_BUDGET, BlockOperator,
                                        block_operator)
from carleman_fourier.problem import monomial_count
from carleman_fourier.taylor import step_count_for
from carleman_fourier.tensor import dense_Vk, expand

from conftest import complex_uniform, make_rescaled

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
# every (n, N) whose state of M monomials has M M <= VERIFY_BLOCK_ENTRIES,
# the states that step by their propagator once m > M: n = 1 with N <= 11,
# n = 2 with N <= 3, n = 3 with N <= 2 and n = 4..9 with N = 1
SMALL_STATES = [(n, order) for n in range(1, 10) for order in range(1, 12)
                if monomial_count(n, order) ** 2 <= taylor.VERIFY_BLOCK_ENTRIES]
# every (n, N) with n <= 9 whose state has at most VERIFY_BLOCK_ENTRIES + 16
# monomials: verify blocks of every width B = VERIFY_BLOCK_ENTRIES // M down
# to one step, the propagator's states and a few just above the cap
VERIFIED_STATES = [
    (n, order) for n in range(1, 10)
    for order in range(1, taylor.VERIFY_BLOCK_ENTRIES + 17)
    if monomial_count(n, order) <= taylor.VERIFY_BLOCK_ENTRIES + 16]


def stable_operator(rng, n, order, r_target=0.5):
    rp = make_rescaled(rng, n, r_target=r_target)
    return rp, cf.LinearOperatorLN.from_rescaled(rp, order)


# ----------------------------------------------------------------- apply_Vk

def test_apply_vk_zero_operator(rng):
    op = cf.LinearOperatorLN(cf.monomial_basis(2, 2), np.zeros(2), np.zeros((2, 2)))
    cfg = cf.TaylorConfig(m=1, h=0.3, k=6)
    x = complex_uniform(rng, op.monomial_size)
    out = cf.apply_Vk(op, cfg, x)
    np.testing.assert_allclose(out, x, atol=1e-15)


def test_apply_vk_scalar_exponential(rng):
    f0 = 0.9 + 1.4j
    op = cf.LinearOperatorLN(cf.monomial_basis(1, 1), [f0], [[0.0]])
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
        return expand(cf.LiftedState(op.basis, v)).vector

    np.testing.assert_allclose(tensor(cf.apply_Vk(op, cfg, x)),
                               dense @ tensor(x), rtol=1e-13, atol=1e-13)


# -------------------------------------------------------------- forward_solve

def _state_at_step(op, cfg, psi0, j):
    # step j of a solve is the final state of a j-step solve at the same h
    return cf.forward_solve(op, cf.TaylorConfig(j, cfg.h, cfg.k), psi0).final


def test_forward_solve_identity_when_l_zero(rng):
    op = cf.LinearOperatorLN(cf.monomial_basis(2, 2), np.zeros(2), np.zeros((2, 2)))
    cfg = cf.TaylorConfig(m=5, h=0.1, k=4)
    v = cf.LiftedState(op.basis, complex_uniform(rng, op.monomial_size))
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
    # take 2.8 MB; one state takes 560 bytes, and the verify pass holds the
    # states of one block
    cfg = cli.load_config(CONFIGS / "dissipative_n2.json")
    ode, readout, run = cli.parse_ode(cfg), cli.parse_readout(cfg), cli.parse_run(cfg)
    ps = cli.select_params(ode, readout, run, cfg["overrides"])
    rescaled = cf.rescale(ode, readout, ps.nu)
    op = cf.LinearOperatorLN.from_rescaled(rescaled, ps.order)
    psi0 = cf.lift_point(rescaled.w0, op.basis)
    assert op.monomial_size == 35
    steps = cf.TaylorConfig(m=5000, h=run["T"] / 5000, k=4)
    for verify in (False, True):
        tracemalloc.start()
        try:
            res = cf.forward_solve(op, steps, psi0, verify=verify)
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
        cf.forward_solve(op, cfg, cf.LiftedState(cf.monomial_basis(2, 2),
                                                 complex_uniform(rng, 5)))


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


def _first_non_finite_step(op, cfg, psi0):
    # the first step of the apply_Vk chain whose state is not finite
    chain, first = psi0.vector, 0
    with np.errstate(over="ignore", invalid="ignore"):
        while np.isfinite(chain).all():
            chain, first = cf.apply_Vk(op, cfg, chain), first + 1
    return first


def test_forward_solve_divergence_error():
    # M = 1, so the state steps by its propagator and the verify pass takes
    # 128 steps per block, and the overflow falls inside the first one
    op = cf.LinearOperatorLN(cf.monomial_basis(1, 1), [-100j], [[0.0]])
    cfg = cf.TaylorConfig(m=200, h=1.0, k=3)
    psi0 = cf.LiftedState(op.basis, [1.0 + 0j])
    first = _first_non_finite_step(op, cfg, psi0)
    assert 1 < first < taylor.VERIFY_BLOCK_ENTRIES
    with pytest.raises(DivergenceError) as err:
        cf.forward_solve(op, cfg, psi0)
    assert err.value.step == first
    assert err.value.layer == "taylor.forward_solve"
    assert (f"at step {first} (t = {first:g}) of m=200 steps of h=1 at Taylor "
            f"order k=3 on M=1 monomials (n=1, N=1), stepped by the "
            f"propagator") in str(err.value)
    assert err.value.grid == {"m": 200, "h": 1.0, "k": 3, "M": 1, "n": 1,
                              "N": 1, "path": "propagator"}


def test_forward_solve_divergence_on_the_horner_path_names_the_grid():
    # M = 14 monomials (n = 2, N = 4), above the propagator's 11: Horner
    # steps
    op = cf.LinearOperatorLN(cf.monomial_basis(2, 4), [-100j, -50j],
                             np.zeros((2, 2)))
    cfg = cf.TaylorConfig(m=200, h=0.5, k=3)
    psi0 = cf.LiftedState(op.basis, np.ones(op.monomial_size, dtype=complex))
    first = _first_non_finite_step(op, cfg, psi0)
    assert 1 < first < cfg.m
    with pytest.raises(DivergenceError) as err:
        cf.forward_solve(op, cfg, psi0)
    assert err.value.step == first
    assert (f"at step {first} (t = {first * 0.5:g}) of m=200 steps of h=0.5 "
            f"at Taylor order k=3 on M=14 monomials (n=2, N=4), stepped by "
            f"Horner") in str(err.value)
    assert err.value.grid == {"m": 200, "h": 0.5, "k": 3, "M": 14, "n": 2,
                              "N": 4, "path": "Horner"}


def test_verified_solve_diverges_as_the_unverified_one():
    # M = 35 monomials (n = 2, N = 7): the verified solve re-evaluates its
    # steps in blocks of 3, and overflows at the step, with the message and
    # grid, of the Horner loop that an unverified solve runs alone
    op = cf.LinearOperatorLN(cf.monomial_basis(2, 7), [-100j, -50j],
                             np.zeros((2, 2)))
    cfg = cf.TaylorConfig(m=200, h=0.5, k=3)
    psi0 = cf.LiftedState(op.basis, np.ones(op.monomial_size, dtype=complex))
    first = _first_non_finite_step(op, cfg, psi0)
    assert 1 < first < cfg.m
    errors = []
    for verify in (True, False):
        with pytest.raises(DivergenceError) as err:
            cf.forward_solve(op, cfg, psi0, verify=verify)
        errors.append(err.value)
    verified, horner = errors
    assert verified.step == horner.step == first
    assert str(verified) == str(horner)
    assert "on M=35 monomials (n=2, N=7), stepped by Horner" in str(verified)
    assert verified.grid == horner.grid == {
        "m": 200, "h": 0.5, "k": 3, "M": 35, "n": 2, "N": 7, "path": "Horner"}


def test_overflowing_propagator_falls_back_to_horner():
    # n = 1, N = 2 with F1 = 0: the diagonal is 1e200 and 2e200, so column 2
    # of V = I + hL overflows at h = 1e108 while a state with no block-2
    # entry stays finite for one more step.  The matrix would turn that step
    # into inf * 0 = nan; Horner names the apply_Vk chain's step
    op = cf.LinearOperatorLN(cf.monomial_basis(1, 2), [-1e200j], [[0.0]])
    cfg = cf.TaylorConfig(m=5, h=1e108, k=1)
    assert taylor.propagator(block_operator(op, 2), cfg, 2) is None
    psi0 = cf.LiftedState(op.basis, [0.5 + 0j, 0j])
    first = _first_non_finite_step(op, cfg, psi0)
    assert first == 2
    with pytest.raises(DivergenceError) as err:
        cf.forward_solve(op, cfg, psi0)
    assert err.value.step == first
    assert "on M=2 monomials (n=1, N=2), stepped by Horner" in str(err.value)


def _stepping_matrix(op, cfg):
    # V_k(hL) column by column, where forward_solve steps by its propagator
    size = op.monomial_size
    if size * size > taylor.VERIFY_BLOCK_ENTRIES or size >= cfg.m:
        return None
    return np.stack([cf.apply_Vk(op, cfg, unit)
                     for unit in np.eye(size, dtype=complex)], axis=1)


def _per_step_solve(op, cfg, psi0):
    # the verify pass one step at a time, as a 1-D re-evaluation per step,
    # on the states of Horner's chain or of the propagator's; with the
    # generator applies spent, k per stage of each polynomial evaluated
    cur, residual = psi0.vector, 0.0
    weights = op.basis.weights
    matrix = _stepping_matrix(op, cfg)
    stepped = cfg.m if matrix is None else op.monomial_size
    for _ in range(cfg.m):
        nxt = cf.apply_Vk(op, cfg, cur) if matrix is None else matrix.dot(cur)
        ref = taylor._apply_Vk_direct(op, cfg, cur)
        ratio = (cf.vector_p_norm(nxt - ref, 2, weights)
                 / max(cf.vector_p_norm(cur, 2, weights), 1e-300))
        if math.isfinite(ratio):
            residual = max(residual, ratio)
        cur = nxt
    return cur, residual, cfg.k * (stepped + cfg.m)


@pytest.mark.parametrize("n, order, m, blocks", [
    (1, 4, 1, [(4,)]),                          # M = 4, a single step
    (1, 4, 40, [(128,)] * 2),                   # ends in a partial block,
                                                # on the full-width operator;
                                                # steps by the propagator
    (2, 3, 15, [(126,)] * 2),                   # M = 9: ends in a block of
                                                # one; the propagator
    (2, 3, 23, [(126,)] * 2),
    (2, 10, 3, [(65,)] * 3),                    # M above half the cap: one
                                                # step at a time
    (1, 2, 40, [(80,)]),                        # a coupling table of one
                                                # entry; the propagator
    (2, 7, 5, [(105,)] * 2),                    # M = 35: blocks of 3 and 2
    (2, 9, 4, [(108,)] * 2),                    # M = 54: blocks of 2
    (2, 4, 23, [(126,)] * 3),                   # M = 14: Horner, blocks of 9
    (2, 8, 3, [(88,)] * 2),                     # M = 44: blocks of 2 and 1
    (1, 64, 3, [(128,)] * 2),                   # M = 64: the widest state
                                                # with blocks of 2
])
def test_forward_solve_verify_blocks_match_a_per_step_loop(rng, monkeypatch, n,
                                                           order, m, blocks):
    rp, op = stable_operator(rng, n, order)
    cfg = cf.TaylorConfig(m=m, h=0.07, k=6)
    # a perturbed lift makes the two summation orders differ in the last bits
    psi0 = cf.LiftedState(op.basis, cf.lift_initial(rp, order).vector
                          + 1e-3 * complex_uniform(rng, op.monomial_size))
    final, residual, applies = _per_step_solve(op, cfg, psi0)
    shapes = []
    direct = taylor._apply_Vk_direct

    def recording(op, cfg, x):
        shapes.append(x.shape)
        return direct(op, cfg, x)

    monkeypatch.setattr(taylor, "_apply_Vk_direct", recording)
    res = cf.forward_solve(op, cfg, psi0)
    assert shapes == blocks
    assert res.final.vector.tobytes() == final.tobytes()
    assert res.residual == residual
    assert res.generator_applies == applies


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(VERIFIED_STATES), st.integers(0, 2 ** 32 - 1), st.data())
def test_verify_blocks_match_a_per_step_loop(shape, seed, data):
    # a stable generator, m in 1..40, k in 1..30 and ||L||_1 h <= 2: the
    # verified solve's final state, residual and generator_applies, at every
    # block width and on both stepping paths, are the per-step loop's bit
    # for bit
    n, order = shape
    rng = np.random.default_rng(seed)
    rp, op = stable_operator(rng, n, order)
    m = data.draw(st.integers(1, 40), label="m")
    k = data.draw(st.integers(1, 30), label="k")
    cfg = cf.TaylorConfig(m=m, h=data.draw(st.floats(1e-6, 1.0), label="share")
                          * 2 / op.norm_1(), k=k)
    psi0 = cf.lift_point(complex_uniform(rng, n), op.basis)
    final, residual, applies = _per_step_solve(op, cfg, psi0)
    res = cf.forward_solve(op, cfg, psi0)
    assert res.final.vector.tobytes() == final.tobytes()
    assert res.residual == residual
    assert res.generator_applies == applies


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(SMALL_STATES), st.integers(0, 2 ** 32 - 1), st.data())
def test_propagator_matches_the_horner_chain(shape, seed, data):
    # the gate for stepping by the propagator: on a dissipative generator,
    # m in (M, 40], k in 1..30 and ||L||_1 h <= 2, the final state agrees
    # with the apply_Vk chain to 1e-13 relative, in the tensor 2-norm, times
    # the mean condition of a step: ||V_k(h|L|) |x_j| || / ||x_{j+1}||.  It
    # is 1 for a state that neither decays nor cancels, and it grows where
    # the Taylor sum's terms exceed its value (exp(-2) against exp(2) at
    # h L = -2, |1 + h L| near 0 at k = 1); the Horner chain loses the same
    # digits there
    n, order = shape
    rng = np.random.default_rng(seed)
    rp, op = stable_operator(rng, n, order)
    size = op.monomial_size
    m = data.draw(st.integers(size + 1, 40), label="m")
    k = data.draw(st.integers(1, 30), label="k")
    cfg = cf.TaylorConfig(m=m, h=data.draw(st.floats(1e-6, 1.0), label="share")
                          * 2 / op.norm_1(), k=k)
    psi0 = cf.lift_point(complex_uniform(rng, n), op.basis)
    res = cf.forward_solve(op, cfg, psi0)
    assert res.generator_applies == k * (size + m)
    assert res.residual <= 1e-12
    absolute = BlockOperator(np.abs(op.diagonal), np.abs(op.coupling), op.up_t)
    chain, condition = psi0.vector, 0.0
    for _ in range(m):
        nxt = cf.apply_Vk(op, cfg, chain)
        condition += (cf.LiftedState(op.basis, cf.apply_Vk(
            absolute, cfg, np.abs(chain).astype(complex))).norm()
            / cf.LiftedState(op.basis, nxt).norm())
        chain = nxt
    gap = cf.LiftedState(op.basis, res.final.vector - chain).norm()
    assert gap <= 1e-13 * condition / m * cf.LiftedState(op.basis, chain).norm()


@pytest.mark.parametrize("n, order, m, matrix", [
    (1, 12, 20, False),     # M = 12: M M = 144 above the cap
    (2, 4, 20, False),      # M = 14
    (2, 3, 20, True),       # M = 9
    (1, 11, 12, True),      # M = 11: M M = 121, the largest within the cap
    (1, 8, 8, False),       # m <= M: Horner spends no more applies
    (1, 1, 1, False),
    (1, 8, 9, True),
    (1, 1, 2, True),
])
def test_forward_solve_selects_the_propagator(rng, monkeypatch, n, order, m,
                                              matrix):
    rp, op = stable_operator(rng, n, order)
    cfg = cf.TaylorConfig(m=m, h=0.07, k=6)
    psi0 = cf.lift_initial(rp, order)
    formed = []
    propagator = taylor.propagator

    def recording(fold, cfg, size):
        formed.append(size)
        return propagator(fold, cfg, size)

    monkeypatch.setattr(taylor, "propagator", recording)
    res = cf.forward_solve(op, cfg, psi0)
    assert formed == ([op.monomial_size] if matrix else [])
    if not matrix:
        chain = psi0.vector
        for _ in range(m):
            chain = cf.apply_Vk(op, cfg, chain)
        assert res.final.vector.tobytes() == chain.tobytes()


def test_forward_solve_builds_one_block_operator(rng, monkeypatch):
    # M = 7 stepped 22 times verifies blocks of 18 and 4 steps: the last,
    # shorter block fills the leading columns of the one 18-fold operator
    rp, op = stable_operator(rng, 1, 7)
    cfg = cf.TaylorConfig(m=22, h=0.01, k=25)
    psi0 = cf.lift_initial(rp, 7)
    widths = []

    def recording(op, width):
        widths.append(width)
        return block_operator(op, width)

    monkeypatch.setattr(taylor, "block_operator", recording)
    cf.forward_solve(op, cfg, psi0)
    assert widths == [18]


@pytest.mark.parametrize("verify", [True, False])
def test_verified_solve_builds_one_3_fold_operator(rng, monkeypatch, verify):
    # M = 35 stepped 4 times at k = 25: verified, one 3-fold operator per
    # solve, applied once per stage of each verify block (3 steps, then 1)
    # after Horner's single applies; unverified, no block operator
    rp, op = stable_operator(rng, 2, 7)
    cfg = cf.TaylorConfig(m=4, h=0.01, k=25)
    psi0 = cf.lift_initial(rp, 7)
    widths, sizes = [], []
    build, apply = taylor.block_operator, taylor.apply_LN

    def building(op, width):
        widths.append(width)
        return build(op, width)

    def applying(op, x):
        sizes.append(x.size)
        return apply(op, x)

    monkeypatch.setattr(taylor, "block_operator", building)
    monkeypatch.setattr(taylor, "apply_LN", applying)
    res = cf.forward_solve(op, cfg, psi0, verify=verify)
    assert widths == ([3] if verify else [])
    block = [105] * 25 if verify else []
    assert sizes == [35] * 75 + block + [35] * 25 + block
    assert res.generator_applies == 25 * 4 * (2 if verify else 1)


def test_forward_solve_counts_the_propagator_applies(rng):
    # M = 7 monomials stepped 22 times at k = 25, as dissipative_n1: k M
    # applies for the propagator instead of k m, and k m for the verify pass
    rp, op = stable_operator(rng, 1, 7)
    cfg = cf.TaylorConfig(m=22, h=0.01, k=25)
    psi0 = cf.lift_initial(rp, 7)
    assert cf.forward_solve(op, cfg, psi0).generator_applies == 25 * (7 + 22)
    assert cf.forward_solve(op, cfg, psi0,
                            verify=False).generator_applies == 25 * 7


# every (n, N) with n <= 4 whose state has at most 209 monomials, the
# ladder's largest: single states, verify blocks of every width and the
# propagator's states
COST_STATES = [(n, order) for n in range(1, 5) for order in range(1, 210)
               if monomial_count(n, order) <= 209]


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(COST_STATES), st.integers(1, 40), st.integers(1, 30),
       st.integers(0, 2 ** 32 - 1))
def test_solve_cost_counts_what_forward_solve_spends(shape, m, k, seed):
    # solve_cost is the apply_LN calls forward_solve makes plus the
    # matrix-vector products of its propagator, on either stepping path,
    # verify pass included
    n, order = shape
    rng = np.random.default_rng(seed)
    rp, op = stable_operator(rng, n, order)
    cfg = cf.TaylorConfig(m=m, h=float(rng.uniform(1e-6, 2.0)) / op.norm_1(),
                          k=k)
    psi0 = cf.lift_point(complex_uniform(rng, n), op.basis)
    calls, matrices = [], []
    apply, propagator = taylor.apply_LN, taylor.propagator

    def applying(op, x):
        calls.append(x.size)
        return apply(op, x)

    def forming(fold, cfg, size):
        matrices.append(propagator(fold, cfg, size))
        return matrices[-1]

    with mock.patch.object(taylor, "apply_LN", applying), \
            mock.patch.object(taylor, "propagator", forming):
        cf.forward_solve(op, cfg, psi0)
    products = m if matrices and matrices[0] is not None else 0
    assert taylor.solve_cost(op.monomial_size, m, k) == (
        len(calls) + products)


def test_solve_cost_is_infinite_exactly_where_forward_solve_refuses(rng):
    # (m + 1) M state entries against the stepping budget: the last m
    # within it has a finite cost, the next one is refused before any step
    rp, op = stable_operator(rng, 2, 3)
    size = op.monomial_size
    last = DEFAULT_STATE_BUDGET // size - 1
    assert math.isfinite(taylor.solve_cost(size, last, 5))
    assert taylor.solve_cost(size, last + 1, 5) == math.inf
    with pytest.raises(BudgetError):
        cf.forward_solve(op, cf.TaylorConfig(m=last + 1, h=1e-9, k=5),
                         cf.lift_point(complex_uniform(rng, 2), op.basis))


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
    op = cf.LinearOperatorLN(cf.monomial_basis(1, 1), [f0], [[0.0]])
    horizon = 1.3
    cfg = cf.TaylorConfig(m=8, h=horizon / 8, k=14)
    psi0 = cf.LiftedState(op.basis, [np.exp(1j * x0)])
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
    zero_op = cf.LinearOperatorLN(cf.monomial_basis(2, 3), np.zeros(2),
                                  np.zeros((2, 2)))
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
