import math

import numpy as np
import pytest

import carleman_fourier as cf
from carleman_fourier.errors import ConfigError, HypothesisViolation

from conftest import (make_dissipative_ode, make_nondissipative_rescaled,
                      make_rescaled)

E = math.e


# --------------------------------------------------------- check_dissipative

def test_dissipative_no_coupling(rng):
    ode = cf.FourierOde(n=2, g0=[1j, 2j], g1=np.zeros((2, 2)), u0=[0.1, -0.2])
    rep = cf.check_dissipative(ode, 2)
    assert rep.r_p == 0.0 and rep.dissipative and not rep.degenerate


def test_dissipative_scalar_arithmetic():
    ode = cf.FourierOde(n=1, g0=[2j], g1=[[0.5]], u0=[0.0])
    rep = cf.check_dissipative(ode, 2)
    assert rep.mu0 == pytest.approx(2.0)
    assert rep.r_p == pytest.approx(0.25)
    assert rep.dissipative


def test_dissipative_degenerate_case():
    ode = cf.FourierOde(n=2, g0=[0.3, -0.1], g1=[[0.2, 0], [0, 0.1]],
                        u0=[0.0, 0.0])
    rep = cf.check_dissipative(ode, 2)
    assert rep.degenerate
    assert math.isinf(rep.r_p)
    assert not rep.dissipative


def test_r_p_invariant_under_rescaling(rng):
    ode = make_dissipative_ode(rng, 3, p=2)
    rep = cf.check_dissipative(ode, 2)
    for nu in (0.5, 2.0, 7.0):
        rp = cf.rescale(ode, None, nu)
        mu0 = float(np.min(rp.f0.imag))
        ratio = cf.row_q_norm(rp.f1, 2) * rp.w0_norm(2) / mu0
        assert mu0 == pytest.approx(rep.mu0, abs=1e-12)
        assert ratio == pytest.approx(rep.r_p, rel=1e-12)


# ---------------------------------------------------- eta_bound_dissipative

def test_eta_bound_under_canonical_rescaling(rng):
    ode = make_dissipative_ode(rng, 2, r_target=0.4)
    rep = cf.check_dissipative(ode, 2)
    nu = cf.vector_p_norm(np.exp(1j * ode.u0), 2) / rep.r_p
    rescaled = cf.rescale(ode, None, nu)
    order = 5
    values = [cf.eta_bound_dissipative(rep, rescaled, order, k, 2).value
              for k in range(1, order + 1)]
    for val in values:
        assert val == pytest.approx(rep.r_p ** (order + 1), rel=1e-9)


def test_eta_bound_last_block_form(rng):
    rescaled = make_rescaled(rng, 2, r_target=0.5)
    ode = cf.FourierOde(n=2, g0=rescaled.f0, g1=rescaled.f1,
                        u0=-1j * np.log(rescaled.w0))
    rep = cf.check_dissipative(ode, 2)
    order = 4
    out = cf.eta_bound_dissipative(rep, rescaled, order, order, 2)
    gamma_p = rescaled.w0_norm(2)
    ratio = cf.row_q_norm(rescaled.f1, 2) / float(np.min(rescaled.f0.imag))
    assert out.value == pytest.approx(gamma_p ** (order + 1) * ratio, rel=1e-12)


def test_eta_bound_vanishing_coupling(rng):
    rescaled = make_rescaled(rng, 2, r_target=1e-12)
    ode = cf.FourierOde(n=2, g0=rescaled.f0, g1=rescaled.f1,
                        u0=-1j * np.log(rescaled.w0))
    rep = cf.check_dissipative(ode, 2)
    out = cf.eta_bound_dissipative(rep, rescaled, 3, 1, 2)
    assert out.value < 1e-30


def test_eta_bound_unmet_hypotheses_flagged(rng):
    rescaled = make_nondissipative_rescaled(rng, 2)
    ode = cf.FourierOde(n=2, g0=rescaled.f0, g1=rescaled.f1,
                        u0=-1j * np.log(rescaled.w0))
    rep = cf.check_dissipative(ode, 2)
    out = cf.eta_bound_dissipative(rep, rescaled, 3, 1, 2)
    assert not out.hypotheses_met
    assert math.isinf(out.value)


def test_eta_bound_decreases_in_order(rng):
    rescaled = make_rescaled(rng, 2, r_target=0.5)
    ode = cf.FourierOde(n=2, g0=rescaled.f0, g1=rescaled.f1,
                        u0=-1j * np.log(rescaled.w0))
    rep = cf.check_dissipative(ode, 2)
    values = [cf.eta_bound_dissipative(rep, rescaled, order, 1, 2).value
              for order in range(2, 9)]
    assert all(b < a for a, b in zip(values, values[1:]))


# --------------------------------------------------- eta_bound_finite_time

def test_finite_time_bound_at_zero(rng):
    rescaled = make_nondissipative_rescaled(rng, 2, r=5.0)
    out = cf.eta_bound_finite_time(rescaled, 4, 5.0, 0.0, 2)
    assert out.hypotheses_met
    assert out.value == pytest.approx((1 / 5.0) ** 5, rel=1e-12)


def test_finite_time_bound_frozen_field(rng):
    rp = make_rescaled(rng, 2)
    frozen = cf.RescaledProblem(nu=1.0, f0=np.zeros(2), f1=np.zeros((2, 2)),
                                x0=rp.x0, w0=rp.w0 / (10 * np.abs(rp.w0).sum()),
                                gamma=0.0)
    for t in (0.0, 1.0, 7.0):
        out = cf.eta_bound_finite_time(frozen, 3, E, t, 2)
        assert out.value == pytest.approx(E ** -4, rel=1e-12)


def test_t_r_arithmetic():
    # Lambda_p = 1, r = e, ||Psi_1(0)||_p = e^{-3} -> T_r = 2/(1 + 1/e)
    w0 = np.array([math.exp(-3.0)])
    rescaled = cf.RescaledProblem(nu=1.0, f0=np.array([1.0 + 0j]),
                                  f1=np.zeros((1, 1)),
                                  x0=-1j * np.log(w0), w0=w0,
                                  gamma=float(np.linalg.norm(w0)))
    t_r = cf.upper_bounded_time(rescaled, E, 2)
    assert t_r == pytest.approx(2.0 / (1.0 + 1.0 / E), rel=1e-12)


def test_finite_time_threshold_is_upper_bounded_time(rng):
    # the "t <= T_r" threshold is T_r itself, to the bit; with
    # ||Psi_1(0)||_p at or above 1/r there is no horizon, and it reads 0
    for p in (1, 2, math.inf):
        for n in (1, 2, 3):
            for r in (2.0, 5.0, 30.0):
                rescaled = make_nondissipative_rescaled(rng, n, p=p, r=r)
                threshold = cf.eta_bound_finite_time(rescaled, 3, r, 0.01,
                                                     p).entry("t <= T_r")[2]
                assert threshold == cf.upper_bounded_time(rescaled, r, p)
    outside = make_nondissipative_rescaled(rng, 2, r=5.0, psi0_margin=2.0)
    assert cf.eta_bound_finite_time(outside, 3, 5.0, 0.01, 2).entry(
        "t <= T_r")[2] == 0.0
    with pytest.raises(HypothesisViolation):
        cf.upper_bounded_time(outside, 5.0, 2)


def test_finite_time_hypothesis_log_records_t_max(rng):
    rescaled = make_nondissipative_rescaled(rng, 2, r=5.0)
    out = cf.eta_bound_finite_time(rescaled, 3, 5.0, 0.01, 2)
    t_r = out.entry("t <= T_r")[1:3][1]
    t_max = out.entry("T_max")[1]
    q = cf.conjugate_exponent(2)
    rate = (cf.vector_p_norm(rescaled.f0, math.inf)
            + cf.row_q_norm(rescaled.f1, q))
    assert t_max == pytest.approx(min(t_r, math.log(5.0) / rate), rel=1e-12)


def test_finite_time_bound_monotonicity_condition(rng):
    rescaled = make_nondissipative_rescaled(rng, 2, r=5.0)
    q = cf.conjugate_exponent(2)
    rate = (cf.vector_p_norm(rescaled.f0, math.inf)
            + cf.row_q_norm(rescaled.f1, q))
    knee = math.log(5.0) / rate
    for t, expect_decreasing in ((0.5 * knee, True), (1.5 * knee, False)):
        vals = [cf.eta_bound_finite_time(rescaled, order, 5.0, t, 2).value
                for order in (2, 3, 4)]
        decreasing = vals[0] > vals[1] > vals[2]
        assert decreasing == expect_decreasing


def test_finite_time_bound_is_inf_past_the_double_range(rng):
    # e^{rate t} and its N-th power overflow; the bound reads inf, and the
    # hypotheses of the finite values stay flagged as they are
    rescaled = make_nondissipative_rescaled(rng, 2, r=5.0)
    q = cf.conjugate_exponent(2)
    rate = (cf.vector_p_norm(rescaled.f0, math.inf)
            + cf.row_q_norm(rescaled.f1, q))
    for t, order in ((800.0 / rate, 3), (10.0 / rate, 400)):
        out = cf.eta_bound_finite_time(rescaled, order, 5.0, t, 2)
        assert out.value == math.inf
        assert not out.hypotheses_met
        assert not out.entry("t <= T_r")[3]


# ----------------------------------------------------------- taylor bounds

def test_taylor_remainder_examples():
    assert cf.taylor_remainder_bound(1, 3) == pytest.approx(
        (E - 1) * E ** 2 / 24.0, rel=1e-12)
    assert cf.taylor_remainder_bound(1, 3) == pytest.approx(0.5290200343, abs=1e-9)
    values = [cf.taylor_remainder_bound(1, k) for k in range(1, 20)]
    assert all(b < a for a, b in zip(values, values[1:]))
    assert cf.taylor_remainder_bound(6, 4) == pytest.approx(
        2 * cf.taylor_remainder_bound(3, 4), rel=1e-12)


# ---------------------------------------------------- stability certificate

def test_stability_uncoupled(rng):
    rp = make_rescaled(rng, 2)
    op = cf.LinearOperatorLN(order=3, n=2, f0=rp.f0, f1=np.zeros((2, 2)))
    report = cf.stability_certificate(op)
    mu0 = float(np.min(rp.f0.imag))
    assert report.hypotheses_met
    assert report.value == pytest.approx(-mu0, abs=1e-10)


def test_stability_under_canonical_rescaling(rng):
    for n, order in [(2, 4), (3, 3)]:
        for _ in range(5):
            ode = make_dissipative_ode(rng, n, r_target=float(rng.uniform(0.2, 0.7)))
            rep = cf.check_dissipative(ode, 2)
            nu = cf.vector_p_norm(np.exp(1j * ode.u0), 2) / rep.r_p
            rescaled = cf.rescale(ode, None, nu)
            op = cf.LinearOperatorLN.from_rescaled(rescaled, order)
            report = cf.stability_certificate(op)
            assert report.hypotheses_met
            assert report.value <= 1e-10


def test_gershgorin_envelope_dominates(rng):
    for _ in range(8):
        rescaled = make_rescaled(rng, 2, r_target=float(rng.uniform(0.3, 0.9)))
        op = cf.LinearOperatorLN.from_rescaled(rescaled, 4)
        report = cf.stability_certificate(op)
        mu2 = report.entry("mu2 <= 0")[1]
        envelope = report.entry("gershgorin >= mu2")[1]
        assert envelope >= mu2 - 1e-12


# ------------------------------------------------------------------- T_max

def test_t_max_zero_at_r_equals_e(rng):
    rescaled = make_nondissipative_rescaled(rng, 2, r=E + 1e-9)
    assert cf.t_max_nondissipative(rescaled, E, 2, 1.0) == pytest.approx(
        0.0, abs=1e-12)


def test_t_max_uncoupled_branches():
    # G1 = 0, alpha = 1, nu/(r |e^{i u0}|_p) = e^ell
    r, ell = 5.0, 0.8
    w0_mag = math.exp(-ell) / r  # yields the target ratio with nu = 1
    w0 = np.array([w0_mag])
    rescaled = cf.RescaledProblem(nu=1.0, f0=np.array([0.5j]),
                                  f1=np.zeros((1, 1)), x0=-1j * np.log(w0),
                                  w0=w0, gamma=w0_mag)
    value = cf.t_max_nondissipative(rescaled, r, 2, 1.0)
    assert value == pytest.approx(min(ell / (1 + 1 / r), math.log(r / E)),
                                  rel=1e-12)


def test_t_max_monotone_in_alpha(rng):
    rescaled = make_nondissipative_rescaled(rng, 2, r=6.0)
    prev = None
    for alpha in (0.5, 1.0, 2.0, 4.0):
        val = cf.t_max_nondissipative(rescaled, 6.0, 2, alpha)
        if prev is not None:
            assert val <= prev + 1e-12
        prev = val


def test_t_max_requires_large_nu(rng):
    rp = make_rescaled(rng, 2)  # ||w0||_p ~ 1, so nu = 1 is far too small
    with pytest.raises(HypothesisViolation):
        cf.t_max_nondissipative(rp, 5.0, 2, 1.0)


def test_t_max_requires_r_at_least_e(rng):
    rescaled = make_nondissipative_rescaled(rng, 2)
    with pytest.raises(ConfigError):
        cf.t_max_nondissipative(rescaled, 2.0, 2, 1.0)
