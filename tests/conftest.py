"""Shared instance generators for the test suite.

Random problems are drawn from seeded generators so every run sees the same
instances.  Dissipative instances are produced by scaling the coupling
matrix until the nonlinearity ratio R_p hits a target below 1; rescaled
instances are built directly from a target initial norm.
"""

import numpy as np
import pytest

import carleman_fourier as cf


def complex_uniform(rng, shape, scale=1.0):
    return scale * (rng.uniform(-1, 1, shape) + 1j * rng.uniform(-1, 1, shape))


def make_dissipative_ode(rng, n, p=2, r_target=0.4, mu_range=(1.0, 2.0),
                         re_range=0.3, u0_im=0.4):
    """FourierOde with min Im(G0) > 0 and R_p scaled to r_target."""
    g0 = rng.uniform(-re_range, re_range, n) + 1j * rng.uniform(*mu_range, n)
    u0 = rng.uniform(-np.pi, np.pi, n) + 1j * rng.uniform(-u0_im, u0_im, n)
    g1 = complex_uniform(rng, (n, n))
    ode = cf.FourierOde(n=n, g0=g0, g1=g1, u0=u0)
    rep = cf.check_dissipative(ode, p)
    assert rep.mu0 > 0
    g1 = g1 * (r_target / rep.r_p)
    ode = cf.FourierOde(n=n, g0=g0, g1=g1, u0=u0)
    rep = cf.check_dissipative(ode, p)
    assert rep.dissipative
    return ode


def make_rescaled(rng, n, p=2, r_target=0.4, mu_range=(1.0, 2.0),
                  re_range=0.3, w_mag=(0.3, 0.8)):
    """RescaledProblem built directly: dissipative in the p-norm with the
    rescaled nonlinearity ratio equal to r_target."""
    f0 = rng.uniform(-re_range, re_range, n) + 1j * rng.uniform(*mu_range, n)
    mags = rng.uniform(*w_mag, n)
    phases = rng.uniform(-np.pi, np.pi, n)
    w0 = mags * np.exp(1j * phases)
    u0 = -1j * np.log(w0)  # e^{i u0} = w0 exactly
    f1 = complex_uniform(rng, (n, n))
    mu0 = float(np.min(f0.imag))
    q = cf.conjugate_exponent(p)
    ratio = cf.row_q_norm(f1, q) * cf.vector_p_norm(w0, p) / mu0
    f1 = f1 * (r_target / ratio)
    ode = cf.FourierOde(n=n, g0=f0, g1=f1, u0=u0)
    return cf.rescale(ode, None, 1.0)


def make_nondissipative_rescaled(rng, n, p=2, r=5.0, psi0_margin=0.5,
                                 coeff_scale=0.8):
    """RescaledProblem violating dissipativity (some Im(F0) < 0) but with
    ||Psi_1(0)||_p strictly below 1/r."""
    f0 = rng.uniform(-0.5, 0.5, n) + 1j * rng.uniform(-0.6, 0.6, n)
    f0 = f0 - 1j * max(0.0, float(np.min(f0.imag)) + 0.05)  # force min Im < 0
    f1 = complex_uniform(rng, (n, n), scale=coeff_scale)
    target = psi0_margin / r
    mags = rng.uniform(0.5, 1.0, n)
    w0 = mags * np.exp(1j * rng.uniform(-np.pi, np.pi, n))
    w0 = w0 * (target / cf.vector_p_norm(w0, p))
    u0 = -1j * np.log(w0)
    ode = cf.FourierOde(n=n, g0=f0, g1=f1, u0=u0)
    return cf.rescale(ode, None, 1.0)


def random_readout(rng, n, degree, count=3):
    """ReadoutSpec with `count` random multi-indices up to the degree."""
    coeffs = {}
    for _ in range(count):
        weight = int(rng.integers(1, degree + 1))
        key = [0] * n
        for _ in range(weight):
            key[int(rng.integers(0, n))] += 1
        coeffs[tuple(key)] = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
    return cf.ReadoutSpec(degree=degree, coeffs=coeffs)


def tensor_coeff_blocks(readout, rescaled, order):
    """The tensor-layout reference of expand_coeff_vector: blocks c_l in
    C^{n^l}, with c_j on the canonical slot of block |j|."""
    n = readout.n
    blocks = [np.zeros(n ** level, dtype=complex) for level in range(1, order + 1)]
    for key, value in rescaled.c_coeffs.items():
        blocks[sum(key) - 1][cf.canonical_slot(key)] += value
    return blocks


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def rk45_passes(monkeypatch):
    """(tol, sample count) of every RK45 pass the oracle runs in the test."""
    import carleman_fourier.oracle as oracle

    passes = []
    dopri45 = oracle._dopri45

    def counted(fun, t_bound, y0, tol, t_eval):
        passes.append((tol, t_eval.size))
        return dopri45(fun, t_bound, y0, tol, t_eval)

    monkeypatch.setattr(oracle, "_dopri45", counted)
    return passes
