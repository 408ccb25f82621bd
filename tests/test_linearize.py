import math
from pathlib import Path

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

import carleman_fourier as cf
from carleman_fourier.errors import BudgetError, ConfigError
from carleman_fourier.linearize import (DEFAULT_STATE_BUDGET, block_operator,
                                        dense_f1_tilde, generator_entries,
                                        monomial_basis, total_size)
from carleman_fourier.tensor import (b0_diagonal, block_offsets, dense_B1, dense_Vk,
                                     expand)

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
    np.testing.assert_allclose(expand(state).blocks[1], expected, rtol=1e-13)
    # one monomial per count, in canonical-slot order
    np.testing.assert_allclose(state.blocks[1], expected[[0, 1, 3]], rtol=1e-13)


def test_lift_first_block_is_w0(rng):
    rp = make_rescaled(rng, 3)
    state = cf.lift_initial(rp, 1)
    np.testing.assert_allclose(state.blocks[0], rp.w0, rtol=1e-15)


def test_lift_norm_is_gamma_power(rng):
    rp = make_rescaled(rng, 2)
    state = cf.lift_initial(rp, 5)
    tensor = expand(state)
    for j in range(1, 6):
        assert np.linalg.norm(tensor.blocks[j - 1]) == pytest.approx(
            rp.gamma ** j, rel=1e-12)
    assert state.norm(2) == pytest.approx(tensor.norm(2), rel=1e-14)


def test_lift_entries_match_count_decode(rng):
    rp = make_rescaled(rng, 2)
    block = expand(cf.lift_initial(rp, 3)).blocks[2]
    for idx in range(8):
        count = np.bincount(np.unravel_index(idx, (2,) * 3), minlength=2)
        expected = np.exp(1j * np.dot(rp.x0, count))
        assert block[idx] == pytest.approx(expected, rel=1e-12)


def test_lift_memory_budget(rng):
    # n = 3, N = 300: 4.6M monomials, above the default budget
    rp = make_rescaled(rng, 3)
    with pytest.raises(BudgetError):
        cf.lift_initial(rp, 300)


def test_order_70_lifts_and_steps_without_the_tensor_layout(rng):
    # n = 2, N = 70: 2555 monomials; the tensor state would hold 2^71 - 2
    # entries, and a tensor index of block 70 overflows int64
    rp = make_rescaled(rng, 2)
    op = cf.LinearOperatorLN.from_rescaled(rp, 70)
    assert op.monomial_size == 2555 and op.size > 2 ** 63
    psi0 = cf.lift_point(rp.w0, op.basis)
    exact = np.exp(1j * (op.basis.counts @ rp.x0))
    assert np.max(np.abs(psi0.vector - exact) / np.abs(exact)) <= 1e-13
    # a short step: block 1 follows the oracle's e^{ix(t)}
    horizon = 0.01
    res = cf.forward_solve(op, cf.TaylorConfig(m=4, h=horizon / 4, k=12), psi0)
    assert res.final.all_finite()
    w_t = np.exp(1j * cf.integrate(rp, horizon, tol=1e-12).state_at(horizon))
    np.testing.assert_allclose(res.final.blocks[0], w_t, rtol=1e-9)


def test_budget_counts_generator_entries():
    # n = 200, N = 3: 1.37M monomials, but 5.4M generator entries
    assert cf.monomial_count(200, 3) == 1373700 < DEFAULT_STATE_BUDGET
    assert generator_entries(200, 3) == 5433700 > DEFAULT_STATE_BUDGET
    with pytest.raises(BudgetError):
        cf.LinearOperatorLN(monomial_basis(200, 3), np.ones(200), np.eye(200))
    # decided in closed form, without a loop over 10^11 blocks
    with pytest.raises(BudgetError):
        cf.LinearOperatorLN(monomial_basis(2, 10 ** 11), np.ones(2), np.eye(2))


def test_basis_integer_tables_are_narrow():
    # counts fit every order the budget admits at n (2097152 at n = 1, 1671
    # at n = 2, 183 at n = 3), so the dtypes depend on n alone
    for n, order, counts in [(1, 7, np.uint32), (2, 12, np.uint16),
                             (3, 8, np.uint8), (16, 2, np.uint8)]:
        basis = monomial_basis(n, order)
        assert basis.counts.dtype == counts
        assert basis.parent.dtype == np.int32
        assert basis.symbol.dtype == np.uint8
        assert basis.up_t.dtype == np.intp
    assert generator_entries(1, 2 ** 21) <= DEFAULT_STATE_BUDGET
    assert generator_entries(2, 1671) <= DEFAULT_STATE_BUDGET
    assert generator_entries(2, 1672) > DEFAULT_STATE_BUDGET
    assert generator_entries(3, 183) <= DEFAULT_STATE_BUDGET
    assert generator_entries(3, 256) > DEFAULT_STATE_BUDGET
    # at the edge of the budget, 20348 monomials: int64 counts alone took
    # 2.60 MB
    basis = monomial_basis(16, 5)
    assert sum(table.nbytes for table in basis[1:]) <= 1.3e6


# ------------------------------------------------------------ flat layout

def test_blocks_are_views_at_block_offsets(rng):
    v = complex_uniform(rng, total_size(3, 3))
    state = cf.TensorState(3, 3, v)
    assert block_offsets(3, 3) == (0, 3, 12, 39)
    assert [b.size for b in state.blocks] == [3, 9, 27]
    assert all(np.shares_memory(b, state.vector) for b in state.blocks)
    np.testing.assert_array_equal(state.blocks[1], v[3:12])
    with pytest.raises(ConfigError):
        cf.TensorState(3, 3, v[:-1])
    # a lifted state's blocks hold C(n+j-1, j) monomials each
    basis = monomial_basis(3, 3)
    state = cf.LiftedState(basis, v[:19])
    assert basis.offsets == (0, 3, 9, 19)
    assert [b.size for b in state.blocks] == [3, 6, 10]
    assert all(np.shares_memory(b, state.vector) for b in state.blocks)
    np.testing.assert_array_equal(state.blocks[1], v[3:9])
    with pytest.raises(ConfigError):
        cf.LiftedState(basis, v[:18])


def test_one_b0_diagonal_behind_apply_and_dense(rng):
    rp = make_rescaled(rng, 3)
    op = cf.LinearOperatorLN.from_rescaled(rp, 3)
    diag = b0_diagonal(3, rp.f0)
    assert np.diag(cf.dense_LN(op)).tobytes() == diag.tobytes()
    # the monomial generator's diagonal is B^(0) at the canonical slots
    offsets = block_offsets(3, 3)
    slots = [offsets[sum(c) - 1] + cf.canonical_slot(c) for c in op.basis.counts]
    np.testing.assert_allclose(op.diagonal, diag[slots],
                               rtol=1e-15, atol=0)


# ------------------------------------------------------------ b0_diagonal

def apply_b0(j, f0, v):
    """B_j^(0) v on a tensor block: block j of the B^(0) diagonal times v."""
    return b0_diagonal(j, f0)[-len(v):] * v


def test_apply_b0_scalar_levels(rng):
    f0 = np.array([0.7 - 0.2j])
    v = complex_uniform(rng, 1)
    np.testing.assert_allclose(apply_b0(1, f0, v), 1j * f0 * v, rtol=1e-15)
    np.testing.assert_allclose(apply_b0(2, f0, v), 2j * f0 * v, rtol=1e-15)


def test_apply_b0_diagonal_n2(rng):
    f0 = np.array([1.0 + 2j, -0.5 + 1j])
    v = complex_uniform(rng, 2)
    np.testing.assert_allclose(apply_b0(1, f0, v),
                               np.diag(1j * f0) @ v, rtol=1e-14)


def test_apply_b0_commutes_with_masks(rng):
    # entry l of block 3 is i (F0[l_1] + F0[l_2] + F0[l_3])
    f0 = complex_uniform(rng, 3)
    block = b0_diagonal(3, f0)[-27:]
    for idx in range(27):
        digits = np.unravel_index(idx, (3,) * 3)
        assert block[idx] == pytest.approx(1j * f0[list(digits)].sum(), rel=1e-14)


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


def test_dense_b1_at_n1_is_the_kron_sum_bit_for_bit(rng):
    # at n = 1 the Kronecker terms are 1 x 1: the block is their sum, added
    # in the same order without forming them
    for _ in range(3):
        f1 = complex_uniform(rng, (1, 1))
        tilde = 1j * dense_f1_tilde(f1)
        for j in range(31):
            kron = np.zeros((1, 1), dtype=complex)
            for a in range(j):
                kron += np.kron(np.eye(1), np.kron(tilde, np.eye(1)))
            assert dense_B1(j, f1).tobytes() == kron.tobytes()


# ------------------------------------------------------------------ apply_LN

def test_apply_ln_diagonal_when_uncoupled(rng):
    rp = make_rescaled(rng, 2)
    op = cf.LinearOperatorLN(monomial_basis(2, 3), rp.f0, np.zeros((2, 2)))
    state = cf.lift_initial(rp, 3)
    out = expand(cf.LiftedState(op.basis, cf.apply_LN(op, state.vector)))
    for j in range(1, 4):
        np.testing.assert_allclose(out.blocks[j - 1],
                                   apply_b0(j, rp.f0, expand(state).blocks[j - 1]),
                                   rtol=1e-14)


def test_apply_ln_order_one(rng):
    rp = make_rescaled(rng, 2)
    op = cf.LinearOperatorLN.from_rescaled(rp, 1)
    state = cf.lift_initial(rp, 1)
    np.testing.assert_allclose(cf.apply_LN(op, state.vector),
                               apply_b0(1, rp.f0, state.blocks[0]),
                               rtol=1e-14)


def test_apply_ln_scalar_bidiagonal(rng):
    f0, f1 = 0.4 + 1.1j, -0.2 + 0.3j
    op = cf.LinearOperatorLN(monomial_basis(1, 3), [f0], [[f1]])
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


@pytest.mark.parametrize("n, order", [(1, 2), (2, 5), (3, 4), (4, 3), (5, 2)])
def test_apply_ln_sums_the_couplings_as_add_reduce(rng, n, order):
    # the in-place sum over s keeps the order of np.add.reduce along s
    op = cf.LinearOperatorLN.from_rescaled(make_rescaled(rng, n), order)
    x = complex_uniform(rng, op.monomial_size)
    want = op.diagonal * x
    want[:op.up_t.shape[1]] += np.add.reduce(x[op.up_t] * op.coupling, 0)
    assert cf.apply_LN(op, x).tobytes() == want.tobytes()


@pytest.mark.parametrize("n, order", [(1, 1), (1, 2), (1, 5), (2, 1), (2, 4),
                                      (3, 3), (4, 1), (4, 2)])
def test_apply_ln_rows_equal_single_applies(rng, n, order):
    # B states as the columns of an (M, B) array, flattened, are one state of
    # the B-fold operator; order 1 has no coupled monomials: up_t has width 0,
    # and (1, 2) has a coupling table of one entry
    rp = make_rescaled(rng, n)
    op = cf.LinearOperatorLN.from_rescaled(rp, order)
    for width in (1, 2, 5):
        rows = complex_uniform(rng, (width, op.monomial_size))
        fold = block_operator(op, width)
        out = cf.apply_LN(fold, np.ascontiguousarray(rows.T).reshape(-1))
        assert out.shape == (width * op.monomial_size,)
        for got, row in zip(out.reshape(-1, width).T, rows):
            assert got.tobytes() == cf.apply_LN(op, row).tobytes()


def test_apply_ln_refuses_malformed_input(rng):
    op = cf.LinearOperatorLN.from_rescaled(make_rescaled(rng, 2), 3)
    size = op.monomial_size
    x = complex_uniform(rng, size)
    for bad in (list(x), x[:-1], complex_uniform(rng, (2, 3, size)),
                complex_uniform(rng, (3, size + 1)), x.reshape(size, 1), x[0],
                complex_uniform(rng, (3, size)), x.reshape(1, size)):
        with pytest.raises(ConfigError, match="apply_LN"):
            cf.apply_LN(op, bad)
    # the flat layout of two states is not a state of op, nor one state of
    # the two-fold operator
    with pytest.raises(ConfigError, match="apply_LN"):
        cf.apply_LN(op, complex_uniform(rng, 2 * size))
    with pytest.raises(ConfigError, match="apply_LN"):
        cf.apply_LN(block_operator(op, 2), x)


# ------------------------------------------------------------------ dense_LN

def test_dense_ln_scalar_order_one():
    op = cf.LinearOperatorLN(monomial_basis(1, 1), [2.0 + 1j], [[1.0]])
    np.testing.assert_allclose(cf.dense_LN(op), [[1j * (2.0 + 1j)]], atol=1e-15)


def test_dense_matches_matrix_free(rng):
    for n, order in [(2, 5), (3, 4)]:
        rp = make_rescaled(rng, n)
        op = cf.LinearOperatorLN.from_rescaled(rp, order)
        dense = cf.dense_LN(op)
        for _ in range(3):
            x = complex_uniform(rng, op.monomial_size)
            out = expand(cf.LiftedState(op.basis, cf.apply_LN(op, x))).vector
            np.testing.assert_allclose(
                out, dense @ expand(cf.LiftedState(op.basis, x)).vector,
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
        cf.dense_LN(op)


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
                plus = expand(cf.exact_lifted(traj, j + 1, t0 + dt))
                minus = expand(cf.exact_lifted(traj, j + 1, t0 - dt))
                mid = expand(cf.exact_lifted(traj, j + 1, t0))
                fd = (plus.blocks[j - 1] - minus.blocks[j - 1]) / (2 * dt)
                rhs = (apply_b0(j, rp.f0, mid.blocks[j - 1])
                       + cf.apply_B1(j, rp.f1, mid.blocks[j]))
                errs.append(np.max(np.abs(fd - rhs)))
            assert errs[0] < 1e-4
            # halving dt divides the O(dt^2) defect by about four
            assert errs[1] < errs[0] / 2.5


# ----------------------------------------------------------- monomial basis

def test_monomial_basis_slots_and_classes():
    for n, order in [(1, 3), (2, 4), (3, 3), (4, 2)]:
        basis = monomial_basis(n, order)
        assert basis.offsets[-1] == sum(math.comb(n + j - 1, j)
                                        for j in range(1, order + 1))
        assert basis.offsets[-1] == cf.monomial_count(n, order)
        for mono, count in enumerate(basis.counts):
            j = int(count.sum())
            assert basis.offsets[j - 1] <= mono < basis.offsets[j]
            assert cf.monomial_index(count) == mono
            if mono > basis.offsets[j - 1]:
                # in a block, monomials are in canonical-slot order
                assert cf.canonical_slot(basis.counts[mono - 1]) \
                    < cf.canonical_slot(count)
            # multinom(j; c), the number of tensor slots of count c
            assert basis.weights[mono] == math.factorial(j) / math.prod(
                math.factorial(int(c)) for c in count)
            if j > 1:
                # the canonical slot is the parent's followed by one digit
                parent = basis.parent[mono]
                assert cf.canonical_slot(count) == n * cf.canonical_slot(
                    basis.counts[parent]) + basis.symbol[mono]
            if j < order:
                for s in range(n):
                    up = basis.up_t[s, mono]
                    np.testing.assert_array_equal(basis.counts[up],
                                                  count + np.eye(n, dtype=int)[s])
        # the tensor expansion puts at index l the monomial of count(l)
        counts = expand(cf.LiftedState(basis, np.arange(basis.offsets[-1])))
        for j, block in enumerate(counts.blocks, start=1):
            for idx, mono in enumerate(block.real.astype(int)):
                digits = np.unravel_index(idx, (n,) * j)
                np.testing.assert_array_equal(basis.counts[mono],
                                              np.bincount(digits, minlength=n))
                assert basis.weights[mono] == np.sum(block.real == mono)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 3), st.integers(1, 5), st.integers(0, 2 ** 32 - 1))
def test_monomial_generator_and_step_match_tensor(n, order, seed):
    # the gate for stepping in monomial coordinates: expanded, the monomial
    # generator and one Taylor step equal the dense tensor operators
    rng = np.random.default_rng(seed)
    op = cf.LinearOperatorLN(monomial_basis(n, order), complex_uniform(rng, n),
                             complex_uniform(rng, (n, n)))
    x = complex_uniform(rng, op.monomial_size)

    def tensor(v):
        return expand(cf.LiftedState(op.basis, v)).vector

    dense = cf.dense_LN(op)
    expected = dense @ tensor(x)
    got = tensor(cf.apply_LN(op, x))
    assert np.linalg.norm(got - expected) <= 1e-13 * np.linalg.norm(expected)
    cfg = cf.TaylorConfig(m=1, h=0.5 / max(cf.op_norm(dense, 2), 1e-3), k=6)
    expected = dense_Vk(op, cfg) @ tensor(x)
    got = tensor(cf.apply_Vk(op, cfg, x))
    assert np.linalg.norm(got - expected) <= 1e-13 * np.linalg.norm(expected)
    for p in (1, 2, 3, math.inf):
        assert cf.LiftedState(op.basis, x).norm(p) == pytest.approx(
            cf.vector_p_norm(tensor(x), p), rel=1e-13)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 4), st.integers(1, 5), st.integers(0, 2 ** 32 - 1))
def test_lift_point_is_bitwise_symmetric(n, order, seed):
    # every tensor slot of count c holds the one monomial w^c, which is the
    # Kronecker power's entry at the canonical slot, bit for bit
    rng = np.random.default_rng(seed)
    w = complex_uniform(rng, n)
    tensor = expand(cf.lift_point(w, monomial_basis(n, order)))
    power = w
    for j, block in enumerate(tensor.blocks, start=1):
        if j > 1:
            power = np.kron(power, w)
        for idx in range(n ** j):
            count = np.bincount(np.unravel_index(idx, (n,) * j), minlength=n)
            assert block[idx].tobytes() == power[cf.canonical_slot(count)].tobytes()
        np.testing.assert_allclose(block, power, rtol=1e-13)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 4), st.integers(1, 5), st.integers(0, 2 ** 32 - 1))
def test_lift_point_with_an_operator_matches_its_own_basis(n, order, seed):
    rng = np.random.default_rng(seed)
    op = cf.LinearOperatorLN.from_rescaled(make_rescaled(rng, n), order)
    w = complex_uniform(rng, n)
    assert (op.n, op.order) == (n, order)
    assert cf.lift_point(w, op.basis).vector.tobytes() \
        == cf.lift_point(w, monomial_basis(n, order)).vector.tobytes()


def test_lift_point_refuses_a_point_of_another_size(rng):
    # a point of another n than the basis'
    basis = monomial_basis(3, 4)
    for n in (2, 4):
        with pytest.raises(ConfigError):
            cf.lift_point(complex_uniform(rng, n), basis)


def test_operator_refuses_a_basis_of_another_shape(rng):
    # coefficients of another n than the basis', or a non-square F1
    basis = monomial_basis(3, 4)
    for n in (2, 4):
        with pytest.raises(ConfigError):
            cf.LinearOperatorLN(basis, complex_uniform(rng, n),
                                complex_uniform(rng, (n, n)))
    with pytest.raises(ConfigError):
        cf.LinearOperatorLN(basis, complex_uniform(rng, 3),
                            complex_uniform(rng, (3, 2)))


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 4), st.integers(1, 8), st.integers(0, 2 ** 32 - 1))
def test_leading_section_is_the_lower_order_operator(n, order, seed):
    # the gate for slicing a basis instead of building it: an operator on
    # every leading section equals a freshly built one, bit for bit
    rng = np.random.default_rng(seed)
    f0, f1 = complex_uniform(rng, n), complex_uniform(rng, (n, n))
    basis = monomial_basis(n, order)
    w = complex_uniform(rng, n)
    for lower in range(1, order + 1):
        section = cf.LinearOperatorLN(basis.leading(lower), f0, f1)
        fresh = cf.LinearOperatorLN(monomial_basis(n, lower), f0, f1)
        assert (section.basis.n, section.basis.order) == (n, lower)
        assert section.basis.offsets == fresh.basis.offsets
        for got, want in zip(section.basis[1:], fresh.basis[1:]):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()
        assert section.basis.up_t.flags.c_contiguous
        for name in ("diagonal", "coupling"):
            got, want = getattr(section, name), getattr(fresh, name)
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()
        assert section.norm_1() == fresh.norm_1()
        x = complex_uniform(rng, fresh.monomial_size)
        assert cf.apply_LN(section, x).tobytes() == cf.apply_LN(fresh, x).tobytes()
        assert cf.lift_point(w, section.basis).vector.tobytes() \
            == cf.lift_point(w, fresh.basis).vector.tobytes()


def test_leading_refuses_an_order_outside_its_own():
    basis = monomial_basis(2, 3)
    for order in (0, 4):
        with pytest.raises(ConfigError):
            basis.leading(order)


# ------------------------------------------------------------ module layout

def test_tensor_module_alone_knows_the_tensor_layout():
    # every scipy import and every name of the tensor-layout reference sit
    # in tensor.py, which the modules it builds on never import
    import ast

    src = Path(__file__).resolve().parents[1] / "src" / "carleman_fourier"
    reference = {"TensorState", "block_offsets", "canonical_slot", "expand",
                 "b0_diagonal", "apply_B1", "dense_B1", "dense_LN",
                 "DEFAULT_DENSE_BUDGET", "w_matrix", "dense_Vk",
                 "matrix_exp", "expm_at", "EXPM_NORM_CAP", "EXPM_DIM_CAP",
                 "propagate_dense"}
    scipy_users, owners = set(), {}
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module or ""]
            else:
                modules = []
            if any(m.split(".")[0] == "scipy" for m in modules):
                scipy_users.add(path.name)
            if path.stem in ("linearize", "norms", "taylor") \
                    and isinstance(node, ast.ImportFrom):
                assert node.module != "tensor", f"{path.name} imports tensor"
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                names = []
            for name in names:
                owners.setdefault(name, set()).add(path.name)
    assert scipy_users == {"tensor.py"}
    assert {name: owners.get(name) for name in reference} \
        == {name: {"tensor.py"} for name in reference}
