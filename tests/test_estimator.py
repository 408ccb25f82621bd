import dataclasses
import math

import numpy as np
import pytest

import carleman_fourier as cf
from carleman_fourier.errors import HypothesisViolation
from carleman_fourier.params import ParamSet

from conftest import make_dissipative_ode, make_rescaled, random_readout

E = math.e


def worked_example_paramset(horizon=2.0, tau=1e-9, sigma=1e-3):
    """The worked example documented in the README (resource estimation)."""
    return ParamSet(
        regime="dissipative", p=2, horizon=horizon, epsilon=1e-3,
        alpha=1.5, beta=2.0, nu=2.0, order=4, taylor_order=8, steps=16,
        step_size=horizon / 16, sigma=sigma, tau=tau, delta=1e-4,
        c1=1.0, c2=1.0, s=4.0, degree=2, mu0=1.0, g1_row_q=0.5, r_p=0.5,
        z=1.0 * 4.0 * math.sqrt(1.5) * 0.5 / math.sqrt(0.75),
        d_norm2=1.0, d_normq=1.0, gamma=0.5,
    )


# ------------------------------------------------------------ scaling factors

def test_alpha_ln_examples():
    assert cf.scaling_alpha_LN(2, 1.0, 1.0, 1.0) == pytest.approx(4.0)
    assert cf.scaling_alpha_LN(1, 1.7, 0.9, 1.3) == pytest.approx(1.7)


def test_alpha_ln_quadratic_growth():
    base = cf.scaling_alpha_LN(10, 1.0, 1.0, 1.0)
    big = cf.scaling_alpha_LN(100, 1.0, 1.0, 1.0)
    ratio = big / base
    assert 80 < ratio < 120  # leading term N^2 (alpha + nu beta)/2


def test_alpha_ln_dominates_dense_norm(rng):
    for n, order in [(2, 4), (3, 3)]:
        rescaled = make_rescaled(rng, n, r_target=0.5)
        op = cf.LinearOperatorLN.from_rescaled(rescaled, order)
        alpha = float(np.max(np.abs(rescaled.f0)))
        beta = float(np.linalg.norm(rescaled.f1, 2))  # F1 = nu G1 at nu = 1
        value = cf.scaling_alpha_LN(order, alpha, beta, 1.0)
        assert value >= cf.op_norm(cf.dense_LN(op), 2) - 1e-9


def test_alpha_ainv_examples():
    alpha, err = cf.scaling_alpha_Ainv(1, 1.0, 0.5, 0.0, 4)
    assert alpha == pytest.approx(8 * E ** 2)
    assert err == pytest.approx(0.5)


def test_alpha_ainv_m_squared_term():
    _, e1 = cf.scaling_alpha_Ainv(4, 1.0, 0.0, 1e-9, 6)
    _, e2 = cf.scaling_alpha_Ainv(8, 1.0, 0.0, 1e-9, 6)
    assert e2 == pytest.approx(4 * e1, rel=1e-12)


def test_alpha_ainv_tau_precondition():
    with pytest.raises(HypothesisViolation) as err:
        cf.scaling_alpha_Ainv(10, 2.0, 0.0, 1.0, 4)
    assert err.value.layer == "estimator.scaling_alpha_Ainv"
    # the inputs its precondition compared, for the JSON error
    cap = 1.0 / (4 * math.e ** 2 * 10 * 2.0 * math.sqrt(5))
    assert err.value.params == {"m": 10, "C": 2.0, "k": 4, "tau": 1.0,
                                "tau_cap": cap}


def test_alpha_b_examples():
    g = 1 / math.sqrt(2)
    assert cf.scaling_alpha_B(g, 1) == pytest.approx(g, rel=1e-12)
    # large-N limit stays below gamma/sqrt(1-gamma^2) = 1
    assert cf.scaling_alpha_B(g, 200) <= 1.0 + 1e-12
    assert cf.scaling_alpha_B(0.3, 1) == pytest.approx(0.3, rel=1e-12)


def test_alpha_b_matches_lifted_norm(rng):
    for _ in range(5):
        rescaled = make_rescaled(rng, 2, w_mag=(0.2, 0.55))
        order = int(rng.integers(1, 6))
        state = cf.lift_initial(rescaled, order)
        assert cf.scaling_alpha_B(rescaled.gamma, order) == pytest.approx(
            state.norm(2), rel=1e-12)


def test_alpha_b_rejects_gamma_at_least_one():
    with pytest.raises(HypothesisViolation):
        cf.scaling_alpha_B(1.0, 3)
    with pytest.raises(HypothesisViolation) as err:
        cf.scaling_alpha_B(1.4, 3)
    assert err.value.layer == "estimator.scaling_alpha_B"
    assert err.value.params == {"gamma": 1.4}


def test_alpha_c_examples():
    assert cf.scaling_alpha_C(1.0, 3, 2.5, 9) == pytest.approx(2.5 / 3.0)
    assert cf.scaling_alpha_C(2.0, 3, 1.0, 4) == pytest.approx(4.0)
    base = cf.scaling_alpha_C(1.5, 2, 1.0, 5)
    assert cf.scaling_alpha_C(1.5, 2, 1.0, 20) == pytest.approx(base / 2)


# -------------------------------------------------------------- query counts

def test_query_counts_worked_example_to_12_digits():
    ps = worked_example_paramset()
    est = cf.query_counts(ps)
    # independent recomputation, spelled out term by term
    z = 1.0 * 4.0 * math.sqrt(1.5) * 0.5 / math.sqrt(1.0 - 0.25)
    coupling = 1.5 + 1.0 * 2.0 / 0.5
    inner = (4 * 2.0) ** 1.5 * 1.5 * math.sqrt(8) * z / 1e-3
    expect_g = (1 / 1e-3) * 4 ** 4.5 * 8 ** 3.5 * 2.0 ** 1.5 * z * coupling \
        * math.log(8) * math.log2(inner) ** 2
    expect_u0 = 4 ** 1.5 * math.sqrt(2.0) * z / 1e-3
    expect_d = math.sqrt(4 * 2.0) * z / 1e-3
    assert est.queries_G == pytest.approx(expect_g, rel=1e-12)
    assert est.queries_u0 == pytest.approx(expect_u0, rel=1e-12)
    assert est.queries_d == pytest.approx(expect_d, rel=1e-12)
    # frozen figures documented in the README
    assert est.queries_G == pytest.approx(22104192582050.676, rel=1e-12)
    assert est.queries_u0 == pytest.approx(32000.0, rel=1e-12)
    assert est.queries_d == pytest.approx(8000.0, rel=1e-12)
    assert est.alpha_LN == pytest.approx(39.0, rel=1e-12)
    assert est.alpha_Ainv == pytest.approx(945.79918066312314, rel=1e-12)
    assert est.encoding_error == pytest.approx(0.0013354510338036381, rel=1e-12)
    assert est.alpha_B == pytest.approx(0.57622152858080544, rel=1e-12)
    assert est.alpha_C == pytest.approx(1.0, rel=1e-12)


def test_improved_encoding_divides_by_order_cubed():
    ps = worked_example_paramset()
    plain = cf.query_counts(ps)
    improved = cf.query_counts(ps, improved_encoding=True)
    assert improved.queries_G == pytest.approx(plain.queries_G / 4 ** 3,
                                               rel=1e-12)
    assert improved.queries_u0 == plain.queries_u0
    assert improved.queries_d == plain.queries_d


def test_query_counts_double_when_epsilon_halves():
    ps = worked_example_paramset()
    tight = dataclasses.replace(ps, epsilon=ps.epsilon / 2)
    a, b = cf.query_counts(ps), cf.query_counts(tight)
    assert b.queries_G >= 2 * a.queries_G
    assert b.queries_u0 == pytest.approx(2 * a.queries_u0, rel=1e-12)
    assert b.queries_d == pytest.approx(2 * a.queries_d, rel=1e-12)


def test_query_counts_zero_horizon():
    ps = dataclasses.replace(worked_example_paramset(horizon=1.0), horizon=0.0)
    est = cf.query_counts(ps)
    assert est.queries_G == 0.0
    assert est.queries_u0 == 0.0
    assert est.queries_d == 0.0


def test_query_counts_monotone_in_order_and_taylor():
    ps = worked_example_paramset()
    for field, factor in (("order", 2), ("taylor_order", 2), ("horizon", 3)):
        bumped = dataclasses.replace(ps, **{field: getattr(ps, field) * factor})
        if field == "horizon":
            bumped = dataclasses.replace(bumped, step_size=bumped.horizon / 16)
        assert cf.query_counts(bumped).queries_G >= cf.query_counts(ps).queries_G


def test_query_counts_from_selection_nondissipative(rng):
    g0 = rng.uniform(-0.5, 0.5, 2) - 1j * rng.uniform(0.1, 0.4, 2)
    g1 = 0.3 * (rng.uniform(-1, 1, (2, 2)) + 1j * rng.uniform(-1, 1, (2, 2)))
    ode = cf.FourierOde(n=2, g0=g0, g1=g1,
                        u0=rng.uniform(-3, 3, 2) + 1j * rng.uniform(-0.2, 0.2, 2))
    ro = random_readout(rng, 2, 2)
    ps = cf.select_nondissipative(ode, ro, 1e-2, horizon=5e-3, r=5.0)
    est = cf.query_counts(ps)
    for value in (est.alpha_LN, est.alpha_Ainv, est.alpha_B, est.alpha_C,
                  est.queries_G, est.queries_u0, est.queries_d):
        assert math.isfinite(value) and value > 0


def test_query_counts_from_selection_dissipative(rng):
    ode = make_dissipative_ode(rng, 2, r_target=0.4)
    ro = random_readout(rng, 2, 2)
    ps = cf.select_dissipative(ode, ro, 1e-3, 0.7)
    est = cf.query_counts(ps)
    for value in (est.alpha_LN, est.alpha_Ainv, est.alpha_B, est.alpha_C,
                  est.queries_G, est.queries_u0, est.queries_d):
        assert math.isfinite(value) and value > 0
    # block-encoding factors dominate the dense operator norm
    rescaled = cf.rescale(ode, ro, ps.nu)
    order = min(ps.order, 5)
    op = cf.LinearOperatorLN.from_rescaled(rescaled, order)
    assert cf.scaling_alpha_LN(order, ps.alpha, ps.beta, ps.nu) >= \
        cf.op_norm(cf.dense_LN(op), 2) - 1e-9
