import math

import numpy as np
import pytest

import carleman_fourier as cf
from carleman_fourier.errors import ConfigError
from carleman_fourier.linearize import monomial_basis
from carleman_fourier.tensor import expand

from conftest import complex_uniform, make_dissipative_ode, random_readout


# ---------------------------------------------------------------- rescale

def test_rescale_identity(rng):
    ode = make_dissipative_ode(rng, 2)
    ro = cf.ReadoutSpec(degree=1, coeffs={(1, 0): 2.0, (0, 1): -1j})
    rp = cf.rescale(ode, ro, 1.0)
    np.testing.assert_allclose(rp.f1, ode.g1)
    np.testing.assert_allclose(rp.w0, np.exp(1j * ode.u0), rtol=1e-15)
    for key, val in ro.coeffs.items():
        assert rp.c_coeffs[key] == pytest.approx(val)


def test_rescale_norm_relation(rng):
    ode = make_dissipative_ode(rng, 3)
    for nu in (0.5, 1.0, 2.7, 10.0):
        rp = cf.rescale(ode, None, nu)
        assert rp.gamma == pytest.approx(
            np.linalg.norm(np.exp(1j * ode.u0)) / nu, rel=1e-14)
        # w0 = e^{i x0} with x0 = u0 + i ln nu
        np.testing.assert_allclose(rp.w0, np.exp(1j * rp.x0), rtol=1e-13)


def test_rescale_scalar_arithmetic():
    ode = cf.FourierOde(n=1, g0=[1j], g1=[[0.1]], u0=[0.0])
    ro = cf.ReadoutSpec(degree=1, coeffs={(1,): 3.0})
    rp = cf.rescale(ode, ro, 2.0)
    assert rp.w0[0] == pytest.approx(0.5)
    assert rp.c_coeffs[(1,)] == pytest.approx(6.0)


def test_rescale_rejects_nonpositive_nu(rng):
    ode = make_dissipative_ode(rng, 1)
    with pytest.raises(ConfigError):
        cf.rescale(ode, None, 0.0)
    with pytest.raises(ConfigError):
        cf.rescale(ode, None, -1.0)


def test_rescale_coefficient_powers(rng):
    ode = make_dissipative_ode(rng, 2)
    ro = random_readout(rng, 2, 3, count=5)
    nu = 1.7
    rp = cf.rescale(ode, ro, nu)
    for key, val in ro.coeffs.items():
        assert rp.c_coeffs[key] == pytest.approx(nu ** sum(key) * val, rel=1e-14)


# --------------------------------------------------------- tensor indexing

def test_count_enumeration_n3_k2(rng):
    # tensor index l of block 2 holds the monomial of the digit counts of l
    counts = [(2, 0, 0), (1, 1, 0), (1, 0, 1),
              (1, 1, 0), (0, 2, 0), (0, 1, 1),
              (1, 0, 1), (0, 1, 1), (0, 0, 2)]
    assert [tuple(np.bincount(np.unravel_index(i, (3, 3)), minlength=3))
            for i in range(9)] == counts
    w = complex_uniform(rng, 3)
    block = expand(cf.lift_point(w, monomial_basis(3, 2))).blocks[1]
    np.testing.assert_allclose(block, [np.prod(w ** np.array(c)) for c in counts],
                               rtol=1e-14)


def test_count_degree_one(rng):
    w = complex_uniform(rng, 4)
    state = cf.lift_point(w, monomial_basis(4, 1))
    for digit in range(4):
        expected = tuple(1 if i == digit else 0 for i in range(4))
        assert cf.monomial_index(expected) == digit
        assert expand(state).vector[digit] == state.vector[digit] == w[digit]


def test_count_base2_example(rng):
    # flat index 5 with k=3 has digits (1, 0, 1): one zero, two ones
    assert np.unravel_index(5, (2, 2, 2)) == (1, 0, 1)
    w = complex_uniform(rng, 2)
    state = cf.lift_point(w, monomial_basis(2, 3))
    assert expand(state).blocks[2][5] == state.vector[cf.monomial_index((1, 2))]
    assert state.vector[cf.monomial_index((1, 2))] == pytest.approx(
        w[0] * w[1] ** 2, rel=1e-14)


def test_count_sums_and_cardinality():
    # block j holds C(n+j-1, j) distinct counts summing to j, and the
    # multinomial weights count all n^j tensor slots
    for n, k in [(2, 3), (3, 2), (4, 2)]:
        basis = monomial_basis(n, k)
        block = slice(basis.offsets[k - 1], basis.offsets[k])
        counts = basis.counts[block]
        assert len(counts) == math.comb(n + k - 1, k)
        assert len({tuple(c) for c in counts}) == len(counts)
        assert all(c.sum() == k for c in counts)
        assert basis.weights[block].sum() == n ** k


def test_canonical_slot_is_smallest_matching_index():
    for count in [(3, 0, 0), (1, 1, 1), (0, 2, 1), (2, 0, 1)]:
        slot = cf.canonical_slot(count)
        matching = [i for i in range(27)
                    if tuple(np.bincount(np.unravel_index(i, (3,) * 3),
                                         minlength=3)) == count]
        assert slot == min(matching)


# ---------------------------------------------------------------- readout

def test_eval_readout_unit_cases():
    ro = cf.ReadoutSpec(degree=1, coeffs={(1,): 1.0})
    assert cf.eval_readout(ro, [0.0]) == pytest.approx(1.0)
    assert cf.eval_readout(ro, [math.pi]) == pytest.approx(-1.0, abs=1e-15)


def test_eval_readout_two_terms(rng):
    ro = cf.ReadoutSpec(degree=2, coeffs={(1,): 1.0, (2,): 1j})
    for _ in range(5):
        x = complex(rng.uniform(-2, 2), rng.uniform(-1, 1))
        expected = np.exp(1j * x) + 1j * np.exp(2j * x)
        assert cf.eval_readout(ro, [x]) == pytest.approx(expected, rel=1e-14)


def test_eval_readout_dimension_mismatch():
    ro = cf.ReadoutSpec(degree=1, coeffs={(1, 0): 1.0})
    with pytest.raises(ConfigError):
        cf.eval_readout(ro, [0.1, 0.2, 0.3])


def test_readout_rejects_bad_index():
    with pytest.raises(ConfigError):
        cf.ReadoutSpec(degree=1, coeffs={(2,): 1.0})
    with pytest.raises(ConfigError):
        cf.ReadoutSpec(degree=2, coeffs={(0, 0): 1.0})
    with pytest.raises(ConfigError):
        cf.ReadoutSpec(degree=2, coeffs={(-1, 2): 1.0})


# --------------------------------------------------- coefficient expansion

def test_expand_coeff_vector_degree_one(rng):
    ode = make_dissipative_ode(rng, 2)
    ro = cf.ReadoutSpec(degree=1, coeffs={(1, 0): 2.0, (0, 1): 3j})
    rp = cf.rescale(ode, ro, 1.0)
    coeffs = cf.expand_coeff_vector(ro, rp, 3)
    assert coeffs.shape == (cf.monomial_count(2, 3),)
    np.testing.assert_allclose(coeffs[:2], [2.0, 3j])
    assert np.all(coeffs[2:] == 0)


def test_expand_coeff_vector_canonical_slot(rng):
    ode = make_dissipative_ode(rng, 2)
    ro = cf.ReadoutSpec(degree=2, coeffs={(1, 1): 1.0})
    rp = cf.rescale(ode, ro, 1.0)
    coeffs = cf.expand_coeff_vector(ro, rp, 2)
    # block 2 holds w0^2, w0 w1, w1^2: the coefficient sits on w0 w1, whose
    # canonical slot, digits (0, 1), is tensor index 1
    assert cf.canonical_slot((1, 1)) == 1
    assert coeffs[2 + 1] == pytest.approx(1.0)
    assert np.count_nonzero(coeffs) == 1


def test_expand_coeff_vector_requires_order_at_least_degree(rng):
    ode = make_dissipative_ode(rng, 2)
    ro = random_readout(rng, 2, 2)
    rp = cf.rescale(ode, ro, 1.0)
    with pytest.raises(ConfigError):
        cf.expand_coeff_vector(ro, rp, 1)


def test_coeff_dot_lift_reproduces_readout(rng):
    for n in (1, 2, 3):
        for degree in (1, 2, 3):
            ode = make_dissipative_ode(rng, n)
            ro = random_readout(rng, n, degree, count=4)
            nu = float(rng.uniform(0.5, 2.0))
            rp = cf.rescale(ode, ro, nu)
            order = degree + 1
            coeffs = cf.expand_coeff_vector(ro, rp, order)
            x = rng.uniform(-2, 2, n) + 1j * rng.uniform(-0.5, 0.5, n)
            state = cf.lift_point(np.exp(1j * x), monomial_basis(n, order))
            f_val = np.dot(coeffs, state.vector)
            # f evaluated via coefficients c at x equals g at u = x - i ln nu
            u = x - 1j * math.log(nu)
            assert f_val == pytest.approx(cf.eval_readout(ro, u), abs=1e-12)


def test_rescaled_readout_invariant(rng):
    # f(x) = g(u) for x = u + i ln nu
    for _ in range(5):
        n = int(rng.integers(1, 4))
        ode = make_dissipative_ode(rng, n)
        ro = random_readout(rng, n, 2)
        nu = float(rng.uniform(0.3, 3.0))
        rp = cf.rescale(ode, ro, nu)
        u = rng.uniform(-2, 2, n) + 1j * rng.uniform(-0.5, 0.5, n)
        x = u + 1j * math.log(nu)
        f_val = sum(val * np.exp(1j * np.dot(x, np.asarray(key)))
                    for key, val in rp.c_coeffs.items())
        assert f_val == pytest.approx(cf.eval_readout(ro, u), abs=1e-12)


def test_lifted_norm_multiplicativity(rng):
    w = complex_uniform(rng, 3, scale=0.8)
    state = cf.lift_point(w, monomial_basis(3, 4))
    tensor = expand(state)
    for p in (1, 2, 3, math.inf):
        base = cf.vector_p_norm(w, p)
        for k in range(1, 5):
            assert cf.vector_p_norm(tensor.blocks[k - 1], p) == pytest.approx(
                base ** k, rel=1e-12)
        assert state.norm(p) == pytest.approx(tensor.norm(p), rel=1e-13)


from hypothesis import given, settings
from hypothesis import strategies as st


@settings(max_examples=60)
@given(st.integers(1, 4), st.integers(1, 5), st.data())
def test_codec_roundtrip_property(n, k, data):
    idx = data.draw(st.integers(0, n ** k - 1))
    digits = np.unravel_index(idx, (n,) * k)
    assert np.ravel_multi_index(digits, (n,) * k) == idx
    count = np.bincount(digits, minlength=n)
    assert count.sum() == k
    # the canonical slot is a valid representative of the same count
    slot = cf.canonical_slot(count)
    assert np.array_equal(np.bincount(np.unravel_index(slot, (n,) * k),
                                      minlength=n), count)
    assert slot <= idx
    # and the monomial of that count sits at monomial_index
    basis = monomial_basis(n, k)
    np.testing.assert_array_equal(basis.counts[cf.monomial_index(count)], count)


@settings(max_examples=40)
@given(st.lists(st.tuples(st.floats(-2, 2), st.floats(-2, 2)),
                min_size=1, max_size=4),
       st.integers(1, 4), st.sampled_from([1.0, 2.0, 3.0, math.inf]))
def test_lift_norm_power_property(pairs, order, p):
    w = np.array([complex(re, im) for re, im in pairs])
    state = expand(cf.lift_point(w, monomial_basis(w.size, order)))
    base = cf.vector_p_norm(w, p)
    for j in range(1, order + 1):
        assert cf.vector_p_norm(state.blocks[j - 1], p) == pytest.approx(
            base ** j, rel=1e-9, abs=1e-12)
