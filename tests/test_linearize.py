import math

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

import carleman_fourier as cf
from carleman_fourier.errors import BudgetError, ConfigError
from carleman_fourier.linearize import (b0_diagonal, block_offsets, dense_B1,
                                        dense_f1_tilde, monomial_basis, total_size)
from carleman_fourier.taylor import dense_Vk

from conftest import complex_uniform, make_rescaled


# ------------------------------------------------------------ lift_initial

def test_lift_block_two_entries(rng):
    rp = make_rescaled(rng, 2)
    x = rp.x0
    state = cf.lift_initial(rp, 2)
    expected = np.array([
        np.exp(2j * x[0]),
        np.exp(1j * (x[0] + x[1])),
        np.exp(1j * (x[0] + x[1])),
        np.exp(2j * x[1]),
    ])
    np.testing.assert_allclose(state.blocks[1], expected, rtol=1e-13)


def test_lift_first_block_is_w0(rng):
    rp = make_rescaled(rng, 3)
    state = cf.lift_initial(rp, 1)
    np.testing.assert_allclose(state.blocks[0], rp.w0, rtol=1e-15)


def test_lift_norm_is_gamma_power(rng):
    rp = make_rescaled(rng, 2)
    state = cf.lift_initial(rp, 5)
    for j in range(1, 6):
        assert np.linalg.norm(state.blocks[j - 1]) == pytest.approx(
            rp.gamma ** j, rel=1e-12)


def test_lift_entries_match_count_decode(rng):
    rp = make_rescaled(rng, 2)
    state = cf.lift_initial(rp, 3)
    codec = cf.MultiIndexCodec(n=2, k=3)
    for idx in range(8):
        count = cf.tensor_to_count(codec, idx)
        expected = np.exp(1j * np.dot(rp.x0, np.asarray(count)))
        assert state.blocks[2][idx] == pytest.approx(expected, rel=1e-12)


def test_lift_memory_budget(rng):
    rp = make_rescaled(rng, 3)
    with pytest.raises(BudgetError):
        cf.lift_initial(rp, 8, state_budget=1000)


# ------------------------------------------------------------ flat layout

def test_blocks_are_views_at_block_offsets(rng):
    v = complex_uniform(rng, total_size(3, 3))
    state = cf.LiftedState(3, 3, v)
    assert block_offsets(3, 3) == (0, 3, 12, 39)
    assert [b.size for b in state.blocks] == [3, 9, 27]
    assert all(np.shares_memory(b, state.vector) for b in state.blocks)
    np.testing.assert_array_equal(state.blocks[1], v[3:12])
    with pytest.raises(ConfigError):
        cf.LiftedState(3, 3, v[:-1])


def test_one_b0_diagonal_behind_apply_and_dense(rng):
    rp = make_rescaled(rng, 3)
    op = cf.LinearOperatorLN.from_rescaled(rp, 3)
    diag = b0_diagonal(3, rp.f0)
    assert np.diag(cf.dense_LN(op)).tobytes() == diag.tobytes()
    offsets = block_offsets(3, 3)
    for j in range(1, 4):
        v = complex_uniform(rng, 3 ** j)
        assert cf.apply_B0(j, rp.f0, v).tobytes() == \
            (diag[offsets[j - 1]:offsets[j]] * v).tobytes()
    # the monomial generator's diagonal is B^(0) at the canonical slots
    np.testing.assert_allclose(op.generator.diagonal(), diag[op.slots],
                               rtol=1e-15, atol=0)


# ----------------------------------------------------------------- apply_B0

def test_apply_b0_scalar_levels(rng):
    f0 = np.array([0.7 - 0.2j])
    v = complex_uniform(rng, 1)
    np.testing.assert_allclose(cf.apply_B0(1, f0, v), 1j * f0 * v, rtol=1e-15)
    np.testing.assert_allclose(cf.apply_B0(2, f0, v), 2j * f0 * v, rtol=1e-15)


def test_apply_b0_diagonal_n2(rng):
    f0 = np.array([1.0 + 2j, -0.5 + 1j])
    v = complex_uniform(rng, 2)
    np.testing.assert_allclose(cf.apply_B0(1, f0, v),
                               np.diag(1j * f0) @ v, rtol=1e-14)


def test_apply_b0_commutes_with_masks(rng):
    # a diagonal operator commutes with elementwise masking
    f0 = complex_uniform(rng, 3)
    v = complex_uniform(rng, 27)
    mask = rng.integers(0, 2, 27).astype(float)
    left = cf.apply_B0(3, f0, mask * v)
    right = mask * cf.apply_B0(3, f0, v)
    np.testing.assert_allclose(left, right, atol=1e-15)


def test_apply_b0_rejects_bad_length(rng):
    with pytest.raises(ConfigError):
        cf.apply_B0(2, np.ones(2), np.ones(3, dtype=complex))


# ----------------------------------------------------------------- apply_B1

def test_apply_b1_scalar_levels(rng):
    f1 = np.array([[0.3 + 0.4j]])
    v1 = complex_uniform(rng, 1)
    np.testing.assert_allclose(cf.apply_B1(1, f1, v1), 1j * f1[0, 0] * v1,
                               rtol=1e-15)
    np.testing.assert_allclose(cf.apply_B1(2, f1, v1), 2j * f1[0, 0] * v1,
                               rtol=1e-15)


def test_apply_b1_matches_dense_stacked_rows(rng):
    f1 = complex_uniform(rng, (2, 2))
    w = complex_uniform(rng, 2)
    v = np.kron(w, w)
    expected = 1j * dense_f1_tilde(f1) @ v
    np.testing.assert_allclose(cf.apply_B1(1, f1, v), expected, rtol=1e-13)


def test_apply_b1_matches_dense_kron_all_positions(rng):
    for n, j in [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2)]:
        f1 = complex_uniform(rng, (n, n))
        v = complex_uniform(rng, n ** (j + 1))
        np.testing.assert_allclose(cf.apply_B1(j, f1, v), dense_B1(j, f1) @ v,
                                   rtol=1e-12, atol=1e-13)


# ------------------------------------------------------------------ apply_LN

def test_apply_ln_diagonal_when_uncoupled(rng):
    rp = make_rescaled(rng, 2)
    op = cf.LinearOperatorLN(order=3, n=2, f0=rp.f0, f1=np.zeros((2, 2)))
    state = cf.lift_initial(rp, 3)
    out = op.expand(cf.apply_LN(op, op.monomials(state)))
    for j in range(1, 4):
        np.testing.assert_allclose(out.blocks[j - 1],
                                   cf.apply_B0(j, rp.f0, state.blocks[j - 1]),
                                   rtol=1e-14)


def test_apply_ln_order_one(rng):
    rp = make_rescaled(rng, 2)
    op = cf.LinearOperatorLN.from_rescaled(rp, 1)
    state = cf.lift_initial(rp, 1)
    np.testing.assert_allclose(cf.apply_LN(op, op.monomials(state)),
                               cf.apply_B0(1, rp.f0, state.blocks[0]),
                               rtol=1e-14)


def test_apply_ln_scalar_bidiagonal(rng):
    f0, f1 = 0.4 + 1.1j, -0.2 + 0.3j
    op = cf.LinearOperatorLN(order=3, n=1, f0=[f0], f1=[[f1]])
    dense = np.array([
        [1j * f0, 1j * f1, 0],
        [0, 2j * f0, 2j * f1],
        [0, 0, 3j * f0],
    ])
    # for n = 1 every tensor entry is its own monomial
    v = complex_uniform(rng, 3)
    out = cf.apply_LN(op, v)
    np.testing.assert_allclose(out, dense @ v, atol=1e-14)
    np.testing.assert_allclose(cf.dense_LN(op), dense, atol=1e-15)


# ------------------------------------------------------------------ dense_LN

def test_dense_ln_scalar_order_one():
    op = cf.LinearOperatorLN(order=1, n=1, f0=[2.0 + 1j], f1=[[1.0]])
    np.testing.assert_allclose(cf.dense_LN(op), [[1j * (2.0 + 1j)]], atol=1e-15)


def test_dense_matches_matrix_free(rng):
    for n, order in [(2, 5), (3, 4)]:
        rp = make_rescaled(rng, n)
        op = cf.LinearOperatorLN.from_rescaled(rp, order)
        dense = cf.dense_LN(op)
        for _ in range(3):
            x = complex_uniform(rng, op.monomial_size)
            out = op.expand(cf.apply_LN(op, x)).vector
            np.testing.assert_allclose(out, dense @ op.expand(x).vector,
                                       rtol=1e-13, atol=1e-13)


def test_dense_ln_norm_bound(rng):
    for n, order in [(2, 4), (3, 3)]:
        rp = make_rescaled(rng, n)
        op = cf.LinearOperatorLN.from_rescaled(rp, order)
        dense = cf.dense_LN(op)
        cap = order * (cf.vector_p_norm(rp.f0, math.inf)
                       + cf.row_q_norm(rp.f1, math.inf))
        assert cf.op_norm(dense, 1) <= cap + 1e-12


def test_dense_ln_budget(rng):
    rp = make_rescaled(rng, 3)
    op = cf.LinearOperatorLN.from_rescaled(rp, 9)
    with pytest.raises(BudgetError):
        cf.dense_LN(op, budget=4096)


# ---------------------------------------------------- stacked-row identity

def test_f1_tilde_norm_identity(rng):
    for n in (2, 3, 5):
        f1 = complex_uniform(rng, (n, n))
        tilde = dense_f1_tilde(f1)
        assert cf.op_norm(tilde, 2) == pytest.approx(
            cf.row_q_norm(f1, 2), rel=1e-10)
        assert cf.op_norm(tilde, 1) == pytest.approx(
            cf.row_q_norm(f1, math.inf), rel=1e-12)


# ------------------------------------------------------ recurrence in time

def test_recurrence_consistency_along_trajectory(rng):
    # d Psi_j / dt = B0_j Psi_j + B1_{j+1} Psi_{j+1} along an exact path
    for n in (1, 2, 3):
        rp = make_rescaled(rng, n, r_target=0.5)
        traj = cf.integrate(rp, 0.6, tol=1e-12)
        t0 = 0.3
        for j in (1, 2, 4):
            errs = []
            for dt in (1e-3, 5e-4):
                plus = cf.exact_lifted(traj, j + 1, t0 + dt)
                minus = cf.exact_lifted(traj, j + 1, t0 - dt)
                mid = cf.exact_lifted(traj, j + 1, t0)
                fd = (plus.blocks[j - 1] - minus.blocks[j - 1]) / (2 * dt)
                rhs = (cf.apply_B0(j, rp.f0, mid.blocks[j - 1])
                       + cf.apply_B1(j, rp.f1, mid.blocks[j]))
                errs.append(np.max(np.abs(fd - rhs)))
            assert errs[0] < 1e-4
            # halving dt divides the O(dt^2) defect by about four
            assert errs[1] < errs[0] / 2.5


# ------------------------------------------------------------ padded layout

def test_padded_layout_roundtrip(rng):
    rp = make_rescaled(rng, 2)
    state = cf.lift_initial(rp, 3)
    padded = cf.to_padded(state)
    assert padded.shape == (3 * 2 ** 3,)
    for level in range(1, 4):
        for idx in range(2 ** level):
            at = cf.padded_index(2, 3, level, idx)
            assert padded[at] == state.blocks[level - 1][idx]
    # blockwise and padded dot products agree
    coeffs = [complex_uniform(rng, 2 ** j) for j in range(1, 4)]
    padded_coeffs = cf.to_padded(cf.LiftedState(2, 3, np.concatenate(coeffs)))
    blockwise = sum(np.dot(c, b) for c, b in zip(coeffs, state.blocks))
    assert np.dot(padded_coeffs, padded) == pytest.approx(blockwise, rel=1e-13)


# ----------------------------------------------------------- monomial basis

def test_monomial_basis_slots_and_classes():
    for n, order in [(1, 3), (2, 4), (3, 3), (4, 2)]:
        basis = monomial_basis(n, order)
        offsets = block_offsets(n, order)
        assert basis.offsets[-1] == sum(math.comb(n + j - 1, j)
                                        for j in range(1, order + 1))
        for mono, count in enumerate(basis.counts):
            j = int(count.sum())
            assert basis.offsets[j - 1] <= mono < basis.offsets[j]
            assert basis.slots[mono] == offsets[j - 1] + cf.canonical_slot(count)
            if j > 1:
                # the canonical slot is the parent's followed by one digit
                parent = basis.parent[mono]
                assert basis.slots[mono] - offsets[j - 1] == n * (
                    basis.slots[parent] - offsets[j - 2]) + basis.symbol[mono]
            if j < order:
                for s in range(n):
                    up = basis.up[mono, s]
                    np.testing.assert_array_equal(basis.counts[up],
                                                  count + np.eye(n, dtype=int)[s])
        for j in range(1, order + 1):
            codec = cf.MultiIndexCodec(n=n, k=j)
            for idx in range(n ** j):
                mono = basis.classes[offsets[j - 1] + idx]
                assert tuple(basis.counts[mono]) == cf.tensor_to_count(codec, idx)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 3), st.integers(1, 5), st.integers(0, 2 ** 32 - 1))
def test_monomial_generator_and_step_match_tensor(n, order, seed):
    # the gate for stepping in monomial coordinates: expanded, the sparse
    # generator and one Taylor step equal the dense tensor operators
    rng = np.random.default_rng(seed)
    op = cf.LinearOperatorLN(order=order, n=n, f0=complex_uniform(rng, n),
                             f1=complex_uniform(rng, (n, n)))
    x = complex_uniform(rng, op.monomial_size)
    tensor = op.expand(x).vector
    dense = cf.dense_LN(op)
    expected = dense @ tensor
    got = op.expand(cf.apply_LN(op, x)).vector
    assert np.linalg.norm(got - expected) <= 1e-13 * np.linalg.norm(expected)
    cfg = cf.TaylorConfig(m=1, h=0.5 / max(cf.op_norm(dense, 2), 1e-3), k=6)
    expected = dense_Vk(op, cfg) @ tensor
    got = op.expand(cf.apply_Vk(op, cfg, x)).vector
    assert np.linalg.norm(got - expected) <= 1e-13 * np.linalg.norm(expected)
    assert op.tensor_norm(x) == pytest.approx(np.linalg.norm(tensor), rel=1e-14)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 4), st.integers(1, 5), st.integers(0, 2 ** 32 - 1))
def test_lift_point_is_bitwise_symmetric(n, order, seed):
    rng = np.random.default_rng(seed)
    state = cf.lift_point(complex_uniform(rng, n), order)
    basis = monomial_basis(n, order)
    symmetric = state.vector[basis.slots][basis.classes]
    assert state.vector.tobytes() == symmetric.tobytes()


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 4), st.integers(1, 5), st.integers(0, 2 ** 32 - 1))
def test_lift_point_with_an_operator_matches_its_own_basis(n, order, seed):
    rng = np.random.default_rng(seed)
    op = cf.LinearOperatorLN(order=order, n=n, f0=complex_uniform(rng, n),
                             f1=complex_uniform(rng, (n, n)))
    w = complex_uniform(rng, n)
    assert cf.lift_point(w, order, op).vector.tobytes() \
        == cf.lift_point(w, order).vector.tobytes()


def test_lift_point_refuses_an_operator_of_another_shape(rng):
    op = cf.LinearOperatorLN(order=4, n=3, f0=complex_uniform(rng, 3),
                             f1=complex_uniform(rng, (3, 3)))
    for n, order in ((3, 3), (2, 4)):
        with pytest.raises(ConfigError):
            cf.lift_point(complex_uniform(rng, n), order, op)


def test_dense_budget_env_override(monkeypatch):
    from carleman_fourier.linearize import dense_budget
    monkeypatch.setenv("CFL_DENSE_BUDGET", "64")
    assert dense_budget() == 64
    monkeypatch.setenv("CFL_DENSE_BUDGET", "not-a-number")
    with pytest.raises(ConfigError):
        dense_budget()
    monkeypatch.delenv("CFL_DENSE_BUDGET")
    assert dense_budget() == 4096
