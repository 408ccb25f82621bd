import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import carleman_fourier as cf
from carleman_fourier.errors import ConfigError

finite = st.floats(-5, 5, allow_nan=False)


def small_matrix(rng, n=4, scale=1.0):
    return scale * (rng.uniform(-1, 1, (n, n)) + 1j * rng.uniform(-1, 1, (n, n)))


# ---------------------------------------------------------- vector p-norm

def test_vector_p_norm_pythagorean():
    assert cf.vector_p_norm([3, 4], 2) == pytest.approx(5.0, abs=1e-14)


def test_vector_p_norm_ones():
    assert cf.vector_p_norm([1, 1, 1], 1) == pytest.approx(3.0, abs=1e-14)


@pytest.mark.parametrize("p", [1, 1.5, 2, 3, math.inf])
def test_vector_p_norm_basis_vector(p):
    e1 = np.zeros(4, dtype=complex)
    e1[0] = 1.0
    assert cf.vector_p_norm(e1, p) == pytest.approx(1.0, abs=1e-14)


def test_vector_p_norm_rejects_small_p():
    with pytest.raises(ConfigError):
        cf.vector_p_norm([1, 2], 0.5)


@given(st.lists(st.tuples(finite, finite), min_size=1, max_size=8),
       st.floats(1, 20), st.floats(0, 20))
def test_vector_p_norm_monotone_in_p(pairs, p, dp):
    a = np.array([complex(re, im) for re, im in pairs])
    lo, hi = p, p + dp
    big, small = cf.vector_p_norm(a, lo), cf.vector_p_norm(a, hi)
    assert small <= big + 1e-9 * max(1.0, big)
    assert cf.vector_p_norm(a, math.inf) <= cf.vector_p_norm(a, 2) + 1e-12
    assert cf.vector_p_norm(a, 2) <= cf.vector_p_norm(a, 1) + 1e-9


# ------------------------------------------------------------- row q-norm

def test_row_q_norm_examples():
    assert cf.row_q_norm([[3, 4], [0, 1]], 2) == pytest.approx(5.0, abs=1e-14)
    assert cf.row_q_norm(np.eye(3), 1) == pytest.approx(1.0, abs=1e-14)


def test_row_q_norm_matches_bruteforce(rng):
    a = small_matrix(rng, 3)
    for q in (1, 2, 3, math.inf):
        expected = max(cf.vector_p_norm(a[i], q) for i in range(3))
        assert cf.row_q_norm(a, q) == pytest.approx(expected, rel=1e-14)


def test_row_q_norm_rejects_small_q():
    with pytest.raises(ConfigError):
        cf.row_q_norm(np.eye(2), 0.9)


# ---------------------------------------------------------------- op norm

def test_op_norm_examples():
    assert cf.op_norm(np.diag([2, -3]), 2) == pytest.approx(3.0, abs=1e-12)
    assert cf.op_norm(np.array([[1, 1], [0, 0]]), 1) == pytest.approx(1.0, abs=1e-14)


def test_op_norm_2_dominates_random_directions(rng):
    a = small_matrix(rng, 4)
    value = cf.op_norm(a, 2)
    v = rng.normal(size=(4, 100_000)) + 1j * rng.normal(size=(4, 100_000))
    ratios = np.linalg.norm(a @ v, axis=0) / np.linalg.norm(v, axis=0)
    lower = float(ratios.max())
    assert lower <= value + 1e-6
    # the top right-singular vector realizes the norm through a plain matvec
    _, _, vh = np.linalg.svd(a)
    top = vh.conj()[0]
    assert np.linalg.norm(a @ top) == pytest.approx(value, rel=1e-12)


def test_op_norm_rejects_other_p():
    with pytest.raises(ConfigError):
        cf.op_norm(np.eye(2), 3)


# ----------------------------------------------------------------- mu2

def test_log_norm_identity():
    assert cf.log_norm_2(np.eye(3)) == pytest.approx(1.0, abs=1e-14)


def test_log_norm_skew_diagonal():
    a = 1j * np.diag([0.3, -1.7, 2.5])
    assert cf.log_norm_2(a) == pytest.approx(0.0, abs=1e-14)


def test_log_norm_lifted_diagonal(rng):
    # i diag(F0) has Hermitian part -diag(Im F0)
    f0 = rng.uniform(-1, 1, 4) + 1j * rng.uniform(0.2, 2.0, 4)
    assert cf.log_norm_2(1j * np.diag(f0)) == pytest.approx(
        -float(np.min(f0.imag)), abs=1e-13)


def test_log_norm_properties(rng):
    for _ in range(25):
        a, b = small_matrix(rng), small_matrix(rng)
        mu_a, mu_b = cf.log_norm_2(a), cf.log_norm_2(b)
        assert cf.log_norm_2(a + b) <= mu_a + mu_b + 1e-9
        assert mu_a <= cf.op_norm(a, 2) + 1e-9
        abscissa = float(np.max(np.linalg.eigvals(a).real))
        assert abscissa <= mu_a + 1e-9


# ------------------------------------------------------------- matrix exp

def test_matrix_exp_zero():
    np.testing.assert_allclose(cf.matrix_exp(np.zeros((3, 3))), np.eye(3),
                               atol=1e-15)


def test_matrix_exp_diagonal():
    out = cf.matrix_exp(np.diag([1.0, -1.0]))
    np.testing.assert_allclose(out, np.diag([math.e, 1 / math.e]), rtol=1e-13)


def test_matrix_exp_nilpotent():
    a = np.array([[0.0, 1.0], [0.0, 0.0]])
    np.testing.assert_allclose(cf.matrix_exp(a), np.array([[1, 1], [0, 1]]),
                               atol=1e-15)


def test_matrix_exp_rejects_large_norm():
    with pytest.raises(ConfigError):
        cf.matrix_exp(np.diag([60.0, 0.0]))


def test_expm_at_splits_past_cap():
    a = np.diag([1.0, -1.0])
    out = cf.expm_at(a, 80.0)
    np.testing.assert_allclose(np.diag(out).real,
                               [math.exp(80), math.exp(-80)], rtol=1e-10)


def test_exp_bounded_by_log_norm(rng):
    for _ in range(10):
        a = small_matrix(rng, 3)
        mu = cf.log_norm_2(a)
        for t in np.linspace(0, 2.0, 9):
            assert cf.op_norm(cf.expm_at(a, t), 2) <= math.exp(mu * t) + 1e-9


# ----------------------------------------------------- gamma growth bound

def test_gamma_bound_no_coupling():
    for order in (1, 2, 5):
        for t in (0.0, 0.5, 3.0):
            assert cf.gamma_growth_bound(order, t, 1.0, 0.0, 0.7) <= 1.0


def test_gamma_bound_zero_horizon():
    assert cf.gamma_growth_bound(3, 0.0, 2.0, 1.5, -0.2) == 1.0


def test_gamma_bound_arithmetic():
    # N nu g1 = 2, max{-mu0, -N mu0} = max{0.5, 1.0} = 1 -> exp(3)
    assert cf.gamma_growth_bound(2, 1.0, 1.0, 1.0, -0.5) == pytest.approx(
        math.exp(3.0), rel=1e-14)


@settings(max_examples=30)
@given(st.integers(1, 5), st.floats(0, 2), st.floats(0.1, 2),
       st.floats(0, 1.5), st.floats(-1, 1))
def test_gamma_bound_dominates_mu2_rate(order, t, nu, g1, mu0):
    # the exponent rate dominates -mu0 and is nonnegative whenever g1 > 0
    rate = order * nu * g1 + max(-mu0, -order * mu0)
    assert cf.gamma_growth_bound(order, t, nu, g1, mu0) == pytest.approx(
        math.exp(t * rate), rel=1e-12)


def test_conjugate_exponent_pairs():
    assert cf.conjugate_exponent(1.0) == math.inf
    assert cf.conjugate_exponent(2.0) == 2.0
    assert cf.conjugate_exponent(math.inf) == 1.0
    assert cf.conjugate_exponent(3.0) == pytest.approx(1.5)
    with pytest.raises(ConfigError):
        cf.conjugate_exponent(0.5)
