import math

import numpy as np
import pytest

import carleman_fourier as cf
from carleman_fourier.errors import ConfigError, HypothesisViolation
from carleman_fourier.linearize import LinearOperatorLN

from conftest import make_dissipative_ode, random_readout

E = math.e


def scalar_ode(r_p=0.5, mu0=1.0):
    # u0 = 0 gives |e^{i u0}|_p = 1, so R_p = |G1|/mu0
    return cf.FourierOde(n=1, g0=[mu0 * 1j], g1=[[r_p * mu0]], u0=[0.0])


# --------------------------------------------------------------- dissipative

def test_order_formula_example():
    # K = 1, s |d|_q / eps = 1, R_p = 1/2 -> N = ceil(log 4 / log 2) = 2
    ode = scalar_ode(r_p=0.5, mu0=1.0)  # s = mu0/|G1| = 2
    ro = cf.ReadoutSpec(degree=1, coeffs={(1,): 1.0})
    ps = cf.select_dissipative(ode, ro, epsilon=2.0, horizon=1.0)
    assert ps.order == 2
    assert ps.nu == pytest.approx(2.0)
    assert ps.s == pytest.approx(2.0)


def test_step_formula_example():
    # T = 1, N = 2, alpha = 1, mu0 = 1 -> m = 4, h = 1/4
    ode = scalar_ode(r_p=0.5, mu0=1.0)
    ro = cf.ReadoutSpec(degree=1, coeffs={(1,): 1.0})
    ps = cf.select_dissipative(ode, ro, epsilon=2.0, horizon=1.0, alpha=1.0)
    assert ps.order == 2
    assert ps.steps == 4
    assert ps.step_size == pytest.approx(0.25)


def test_s_collapses_for_degree_one():
    ode = scalar_ode(r_p=0.25, mu0=2.0)
    ro = cf.ReadoutSpec(degree=1, coeffs={(1,): 1.0})
    ps = cf.select_dissipative(ode, ro, epsilon=1e-2, horizon=0.5)
    assert ps.s == pytest.approx(ps.mu0 / ps.g1_row_q)


def test_selection_satisfies_defining_inequalities(rng):
    for _ in range(6):
        n = int(rng.integers(1, 3))
        ode = make_dissipative_ode(rng, n, r_target=float(rng.uniform(0.25, 0.6)))
        ro = random_readout(rng, n, int(rng.integers(1, 3)))
        eps = float(rng.choice([1e-2, 1e-3, 1e-4]))
        ps = cf.select_dissipative(ode, ro, eps, float(rng.uniform(0.3, 1.5)))
        rescaled = cf.rescale(ode, ro, ps.nu)
        # lifting truncation: K s |d|_q R_p^{N+1} <= eps/4
        assert (ro.degree * ps.s * ps.d_normq * ps.r_p ** (ps.order + 1)
                <= eps / 4 * (1 + 1e-12))
        # and the actual coefficient norm is below the s |d|_q proxy
        c_norm = cf.vector_p_norm(np.array(list(rescaled.c_coeffs.values())),
                                  cf.conjugate_exponent(ps.p))
        assert c_norm <= ps.s * ps.d_normq * (1 + 1e-12)
        # Taylor branch: (k+1)! beats both demands
        fact = math.factorial(ps.taylor_order + 1)
        spread = ps.r_p / math.sqrt(1 - ps.r_p ** 2)
        assert fact >= 4 * E ** 3 / eps * ps.s * ps.d_norm2 * ps.steps * spread
        assert ps.steps * E ** 2 <= fact
        # encoding parameters stay inside their validity window
        assert ps.sigma > 0
        assert ps.tau <= 1.0 / (4 * E ** 2 * ps.steps
                                * math.sqrt(ps.taylor_order + 1)) + 1e-15
        # step size keeps ||L h|| <= 1 through the block-norm bound
        q = cf.conjugate_exponent(ps.p)
        cap = ps.order * (cf.vector_p_norm(rescaled.f0, math.inf)
                          + cf.row_q_norm(rescaled.f1, q))
        assert cap * ps.step_size <= 1.0 + 1e-12


def test_order_clamped_to_degree(rng):
    ode = scalar_ode(r_p=0.5)
    ro = cf.ReadoutSpec(degree=1, coeffs={(1,): 1.0})
    # epsilon loose enough that the ceiling alone would give N <= 0
    ps = cf.select_dissipative(ode, ro, epsilon=50.0, horizon=1.0)
    assert ps.order == 1


def test_dissipative_rejects_nondissipative_input():
    ode = cf.FourierOde(n=1, g0=[-1j], g1=[[0.1]], u0=[0.0])
    ro = cf.ReadoutSpec(degree=1, coeffs={(1,): 1.0})
    with pytest.raises(HypothesisViolation) as err:
        cf.select_dissipative(ode, ro, 1e-3, 1.0)
    assert err.value.layer == "params.select_dissipative"


def test_dissipative_reads_a_held_report():
    ode = scalar_ode()
    ro = cf.ReadoutSpec(degree=1, coeffs={(1,): 1.0})
    held = cf.select_dissipative(ode, ro, 1e-3, 1.0,
                                 report=cf.check_dissipative(ode, 2))
    assert held == cf.select_dissipative(ode, ro, 1e-3, 1.0)
    with pytest.raises(ConfigError, match="report at p=1"):
        cf.select_dissipative(ode, ro, 1e-3, 1.0,
                              report=cf.check_dissipative(ode, 1))


def test_dissipative_rejects_bad_epsilon():
    ode = scalar_ode()
    ro = cf.ReadoutSpec(degree=1, coeffs={(1,): 1.0})
    with pytest.raises(ConfigError):
        cf.select_dissipative(ode, ro, 0.0, 1.0)


def test_taylor_cap_reported():
    # epsilon = 1e-160 asks for k = 549, above TAYLOR_ORDER_CAP = 500
    ode = scalar_ode()
    ro = cf.ReadoutSpec(degree=1, coeffs={(1,): 1.0})
    with pytest.raises(ConfigError, match="exceeds cap 500"):
        cf.select_dissipative(ode, ro, 1e-160, 1.0)


def test_uncoupled_problem_selects_linear_params(rng):
    ode = cf.FourierOde(n=2, g0=[0.2 + 1j, 1.5j], g1=np.zeros((2, 2)),
                        u0=[0.3, -0.4])
    ro = cf.ReadoutSpec(degree=2, coeffs={(1, 0): 1.0, (1, 1): 0.5})
    ps = cf.select_dissipative(ode, ro, 1e-3, 1.0)
    assert ps.order == 2  # lifting exact above the degree
    assert 0 < ps.gamma < 1 / math.sqrt(2) + 1e-9


def test_stability_certified_at_selected_nu(rng):
    for _ in range(4):
        ode = make_dissipative_ode(rng, 2, r_target=float(rng.uniform(0.3, 0.6)))
        ro = random_readout(rng, 2, 1)
        ps = cf.select_dissipative(ode, ro, 1e-2, 0.6)
        rescaled = cf.rescale(ode, ro, ps.nu)
        op = LinearOperatorLN.from_rescaled(rescaled, min(ps.order, 5))
        assert cf.stability_certificate(op).hypotheses_met


# ------------------------------------------------------------ nondissipative

def nondissipative_ode(rng, n=2):
    g0 = rng.uniform(-0.5, 0.5, n) - 1j * rng.uniform(0.1, 0.5, n)
    g1 = 0.4 * (rng.uniform(-1, 1, (n, n)) + 1j * rng.uniform(-1, 1, (n, n)))
    u0 = rng.uniform(-np.pi, np.pi, n) + 1j * rng.uniform(-0.3, 0.3, n)
    return cf.FourierOde(n=n, g0=g0, g1=g1, u0=u0)


def test_nondissipative_default_nu_gives_small_gamma(rng):
    ode = nondissipative_ode(rng)
    ro = random_readout(rng, 2, 2)
    ps = cf.select_nondissipative(ode, ro, 1e-3, horizon=1e-3, r=5.0)
    assert ps.gamma < 1 / math.sqrt(2)


def test_nondissipative_loose_epsilon_clamps_order(rng):
    ode = nondissipative_ode(rng)
    ro = cf.ReadoutSpec(degree=1, coeffs={(1, 0): 0.01})
    # 4 K s |d|_q / (r eps) <= 1 -> ceiling argument collapses to N = 1
    ps = cf.select_nondissipative(ode, ro, epsilon=1e3, horizon=1e-3, r=5.0)
    assert ps.order == 1


def test_nondissipative_s_power(rng):
    ode = nondissipative_ode(rng)
    ro = random_readout(rng, 2, 3)
    ps = cf.select_nondissipative(ode, ro, 1e-2, horizon=1e-3, r=5.0, nu=2.0) \
        if 2.0 > max(5.0 * cf.vector_p_norm(np.exp(1j * ode.u0), 2),
                     math.sqrt(2) * cf.vector_p_norm(np.exp(1j * ode.u0), 2)) \
        else cf.select_nondissipative(ode, ro, 1e-2, horizon=1e-3, r=5.0)
    assert ps.s == pytest.approx(max(ps.nu, ps.nu ** 3))


def test_nondissipative_rejects_large_horizon(rng):
    ode = nondissipative_ode(rng)
    ro = random_readout(rng, 2, 1)
    with pytest.raises(HypothesisViolation) as err:
        cf.select_nondissipative(ode, ro, 1e-3, horizon=50.0, r=5.0)
    assert err.value.layer == "params.select_nondissipative"


def test_nondissipative_rejects_small_r(rng):
    ode = nondissipative_ode(rng)
    ro = random_readout(rng, 2, 1)
    with pytest.raises(HypothesisViolation) as err:
        cf.select_nondissipative(ode, ro, 1e-3, horizon=0.01, r=2.0)
    assert err.value.layer == "params.select_nondissipative"


def test_nondissipative_rejects_small_nu(rng):
    ode = nondissipative_ode(rng)
    ro = random_readout(rng, 2, 1)
    with pytest.raises(HypothesisViolation) as err:
        cf.select_nondissipative(ode, ro, 1e-3, horizon=0.01, r=5.0, nu=0.5)
    assert err.value.layer == "params.select_nondissipative"


def test_nondissipative_selection_inequalities(rng):
    for _ in range(4):
        ode = nondissipative_ode(rng)
        ro = random_readout(rng, 2, int(rng.integers(1, 3)))
        ps = cf.select_nondissipative(ode, ro, 1e-3, horizon=5e-3, r=5.0)
        fact = math.factorial(ps.taylor_order + 1)
        assert fact >= (4 * E ** 3 / ps.epsilon * ps.s * ps.d_norm2
                        * ps.steps * ps.gamma_bound)
        assert ps.steps * E ** 2 <= fact
        assert ps.sigma > 0
        cap = 1.0 / (4 * E ** 2 * ps.steps
                     * math.sqrt(ps.taylor_order + 1) * ps.gamma_bound)
        assert ps.tau <= cap + 1e-15
        # ||L h|| <= 1 on the rescaled operator
        rescaled = cf.rescale(ode, ro, ps.nu)
        q = cf.conjugate_exponent(ps.p)
        norm_cap = ps.order * (cf.vector_p_norm(rescaled.f0, math.inf)
                               + cf.row_q_norm(rescaled.f1, q))
        assert norm_cap * ps.step_size <= 1.0 + 1e-12


# ----------------------------------------------------------- error budget

def test_error_budget_lines():
    ode = scalar_ode()
    ro = cf.ReadoutSpec(degree=1, coeffs={(1,): 1.0})
    ps = cf.select_dissipative(ode, ro, 1e-2, 1.0)
    budget = cf.end_to_end_error_budget(ps, {"koopman": 1e-4, "taylor": 2e-4})
    assert all(within for (_name, _budget, _measured, within) in budget)
    assert sum(line[1] for line in budget) == pytest.approx(ps.epsilon)
    assert len(budget) == 4
    names = [line[0] for line in budget]
    assert names == ["koopman", "taylor", "block_encoding",
                     "expectation_estimation"]


def test_error_budget_flags_violation():
    ode = scalar_ode()
    ro = cf.ReadoutSpec(degree=1, coeffs={(1,): 1.0})
    ps = cf.select_dissipative(ode, ro, 1e-2, 1.0)
    budget = cf.end_to_end_error_budget(ps, {"koopman": 1.0, "taylor": 0.0})
    assert not all(within for (_name, _budget, _measured, within) in budget)


def test_error_budget_requires_components():
    ode = scalar_ode()
    ro = cf.ReadoutSpec(degree=1, coeffs={(1,): 1.0})
    ps = cf.select_dissipative(ode, ro, 1e-2, 1.0)
    with pytest.raises(ConfigError):
        cf.end_to_end_error_budget(ps, {"koopman": 0.0})


def test_s_scale_literal():
    from carleman_fourier.params import s_scale
    assert s_scale(2.0, 3) == 8.0
    assert s_scale(0.5, 3) == 0.5


# ------------------------------------------------------------ grid derivation

def test_derive_grid_without_pins_is_the_recipe(rng):
    # each recipe ends in derive_grid: deriving again changes nothing
    from carleman_fourier.params import derive_grid
    ode = make_dissipative_ode(rng, 2, r_target=0.4)
    ro = random_readout(rng, 2, 2)
    dissipative = cf.select_dissipative(ode, ro, 1e-3, 0.5)
    nondissipative = cf.select_nondissipative(nondissipative_ode(rng), ro,
                                              1e-3, horizon=1e-3, r=5.0)
    for ps in (dissipative, nondissipative):
        assert derive_grid(ps) == ps
        assert derive_grid(ps, {}) == ps


def test_pins_rederive_what_follows_them():
    from carleman_fourier.params import derive_grid
    ode = scalar_ode(r_p=0.5, mu0=1.0)
    ro = cf.ReadoutSpec(degree=1, coeffs={(1,): 1.0})
    ps = cf.select_dissipative(ode, ro, epsilon=1e-3, horizon=1.0, nu=3.0)
    pinned = derive_grid(ps, {"N": ps.order + 3})
    # m and k follow N; nu stays the recipe's pin
    assert pinned.steps == math.ceil(1.0 * (ps.order + 3) * ps.step_rate)
    assert pinned.taylor_order >= ps.taylor_order
    assert pinned.pinned == ("nu", "N")
    assert derive_grid(pinned, {"k": 4}).pinned == ("nu", "k")
    texts = {name: formula for name, formula, _ in pinned.derivation_log}
    assert (texts["nu"], texts["N"], texts["s"]) == ("pinned", "pinned",
                                                     "max(nu, nu^K)")


def test_derivation_log_reads_the_fields():
    # the log is a view of the fields, so a replaced field cannot leave it
    # stale
    import dataclasses
    ode = scalar_ode(r_p=0.5, mu0=1.0)
    ro = cf.ReadoutSpec(degree=1, coeffs={(1,): 1.0})
    ps = dataclasses.replace(cf.select_dissipative(ode, ro, 1e-3, 1.0), order=9)
    assert ("N", 9) in [(name, value) for name, _f, value in ps.derivation_log]
    assert "pinned" not in ps.as_dict()
    assert list(ps.as_dict())[-1] == "derivation_log"


def test_dissipative_given_nu_without_coupling_must_exceed_the_state_norm():
    # without coupling the initial-state factor needs ||e^{iu0}||_2 / nu < 1
    ode = cf.FourierOde(n=1, g0=[1j], g1=[[0.0]], u0=[0.0])
    ro = cf.ReadoutSpec(degree=1, coeffs={(1,): 1.0})
    assert cf.select_dissipative(ode, ro, 1e-3, 1.0, nu=2.0).gamma == 0.5
    with pytest.raises(HypothesisViolation) as err:
        cf.select_dissipative(ode, ro, 1e-3, 1.0, nu=1.0)
    assert err.value.layer == "params.select_dissipative"
