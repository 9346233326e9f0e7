"""Duality kernels, closed forms, generator-level identities and the
continuum scaling limit."""

import math

import numpy as np
import pytest
from scipy.special import gammaln

from asymtransport import configspace as cs
from asymtransport import dualitylab as dl
from asymtransport import engine, models
from asymtransport.configspace import ModelParams, tail_count
from asymtransport.qcalc import q_binomial, q_pochhammer

P = ModelParams(q=0.8, k=0.5, sigma=0.5, L=3)


def test_kernel_indicator_support():
    eta = np.array([2, 0, 1])
    assert dl.d_asip(eta, np.array([3, 0, 0]), P) == 0.0
    assert dl.d_asip(eta, np.array([0, 0, 0]), P) == 1.0


def test_kernel_forms_differ_by_sector_constant():
    eta = np.array([3, 1, 2])
    for xi in (np.array([1, 0, 2]), np.array([2, 1, 0]),
               np.array([0, 1, 1])):
        prod = dl.d_asip(eta, xi, P, form="product")
        poch = dl.d_asip(eta, xi, P, form="pochhammer")
        assert prod == pytest.approx(
            dl.form_conversion_factor(xi, P) * poch, rel=1e-12)


def _d_sip(eta, xi, k):
    """Symmetric inclusion-process kernel
    ``prod_i eta_i!/(eta_i - xi_i)! Gamma(2k)/Gamma(2k + xi_i)``."""
    eta = np.asarray(eta, dtype=int)
    xi = np.asarray(xi, dtype=int)
    if (xi > eta).any():
        return 0.0
    logs = (gammaln(eta + 1.0) - gammaln(eta - xi + 1.0)
            + gammaln(2.0 * k) - gammaln(2.0 * k + xi))
    return float(np.exp(logs.sum()))


def test_kernel_reduces_to_sip_kernel_at_q_one():
    p1 = ModelParams(q=1.0, k=0.75, L=3)
    eta = np.array([2, 1, 3])
    xi = np.array([1, 0, 2])
    assert dl.d_asip(eta, xi, p1) == pytest.approx(
        _d_sip(eta, xi, 0.75), rel=1e-12)


def test_single_walker_closed_form():
    eta = np.array([2, 0, 3])
    for ell in (1, 2, 3):
        closed = dl.d_asip_single(eta, ell, P)
        kernel = dl.d_asip(eta, dl.dual_occupation([ell], 3), P)
        assert closed == pytest.approx(kernel, rel=1e-12, abs=1e-15)


def test_multi_walker_closed_form():
    eta = np.array([2, 1, 3])
    for ells in ((1, 2), (1, 3), (2, 3)):
        closed = dl.d_asip_multi(eta, ells, P)
        kernel = dl.d_asip(eta, dl.dual_occupation(ells, 3), P)
        assert closed == pytest.approx(kernel, rel=1e-12, abs=1e-15)


@pytest.mark.parametrize("form", ["product", "pochhammer"])
@pytest.mark.parametrize("q,k", [(0.6, 0.5), (0.9, 1.7)])
def test_selfduality_small_grid(q, k, form):
    if form == "product":
        rep = dl.verify_selfduality_asip(3, 3, 2, ModelParams(q=q, k=k))
        assert rep.passed, str(rep)
        return
    # the library builds the product form only; the other form's kernel,
    # entry by entry, satisfies the same identity
    p = ModelParams(q=q, k=k, L=3)
    s_eta, s_xi = cs.enumerate_sector(3, 3), cs.enumerate_sector(3, 2)
    D = _ref_d_asip_matrix(s_eta, s_xi, p, "pochhammer")
    res = dl.generator_duality_residual(
        models.build_generator(s_eta, "asip", p),
        models.build_generator(s_xi, "asip", p), D)
    assert res < 1e-10


def test_thermal_selfduality_same_kernel():
    rep = dl.verify_selfduality_asip(3, 3, 2, ModelParams(q=0.8, k=0.5),
                                     thermal_version=True)
    assert rep.passed, str(rep)


def test_abep_sip_duality_random_instances():
    rng = engine.SeedTree(13).stream(0)
    worst = 0.0
    for _ in range(10):
        L = int(rng.integers(2, 5))
        x = rng.uniform(0.2, 2.0, size=L)
        xi = rng.integers(0, 3, size=L)
        p = ModelParams(q=1.0, k=float(rng.uniform(0.4, 1.6)),
                        sigma=float(rng.uniform(0.1, 1.0)), L=L)
        rep = dl.verify_abep_sip_duality(x, xi, p)
        worst = max(worst, rep.residual)
    assert worst < 1e-5


def test_g_map_conjugation():
    p = ModelParams(q=1.0, k=0.6, sigma=0.4, L=3)
    x = np.array([0.7, 1.1, 0.4])
    rep = dl.verify_g_map_conjugation(
        lambda z: float(z[0] ** 3 + z[1] * z[2]), x, p)
    assert rep.passed, str(rep)


def test_scaling_limit_monotone():
    errs, target = dl.duality_scaling_limit_check(
        np.array([1.0, 2.0]), np.array([1, 0]), 0.5, 0.5, [100, 1000])
    assert target == pytest.approx(0.08554821486874875, rel=1e-12)
    assert errs[1] < errs[0]
    assert errs[1] < 1e-2


def _d_akmp(x, xi, sigma):
    """k = 1/2 kernel, dual to uniform redistribution:
    ``prod_i g_i(x)^xi_i / xi_i!``."""
    g = cs.g_map(x, sigma)
    out = 1.0
    for gi, m in zip(g, xi):
        out *= gi ** m / math.factorial(int(m))
    return float(out)


def test_continuous_kernels_at_zero_dual():
    x = np.array([0.5, 1.5])
    p = ModelParams(q=1.0, k=0.5, sigma=0.3, L=2)
    assert dl.d_abep(x, np.array([0, 0]), p) == 1.0
    assert _d_akmp(x, np.array([0, 0]), 0.3) == 1.0


def test_akmp_kernel_is_monomial_in_g():
    # the k = 1/2 kernel is the monomial g_1^2/2! g_2 of the mapped energies
    x = np.array([0.5, 1.5])
    sigma = 0.3
    xi = np.array([2, 1])
    g = cs.g_map(x, sigma)
    ref = g[0] ** 2 / 2.0 * g[1]
    assert _d_akmp(x, xi, sigma) == pytest.approx(ref, rel=1e-12)
    p = ModelParams(q=1.0, k=0.5, sigma=sigma, L=2)
    assert dl.d_abep(x, xi, p) == pytest.approx(ref, rel=1e-12)


def test_thermal_continuous_duality():
    p = ModelParams(q=1.0, k=0.75, sigma=0.5, L=3)
    rep = dl.thermal_continuous_duality_residual(
        np.array([0.7, 1.1, 0.4]), np.array([1, 0, 2]), p)
    assert rep.passed, str(rep)


def test_thermal_continuous_duality_is_exact_over_k_and_sigma():
    # the Gauss-Jacobi rule averages the kernel exactly, so the residual
    # is round-off also at the small k where the split density is
    # sharply peaked at the edge ends
    x, xi = np.array([0.7, 1.1, 0.4]), np.array([1, 0, 2])
    for k in (1e-6, 1e-4, 0.01, 0.5, 1.0, 2.0, 3.0):
        for sigma in (1e-3, 0.5, 1.0, 5.0):
            p = ModelParams(q=1.0, k=k, sigma=sigma, L=3)
            rep = dl.thermal_continuous_duality_residual(x, xi, p)
            assert rep.residual < 1e-12, (k, sigma, rep.residual)


def _renormalized_dual_expectation(eta, ells, t, params):
    """Renormalized dual observable of a finite window configuration.

    Evolves n dual particles started at the (1-based) sites ``ells`` under
    the dual dynamics for time t (exact matrix exponential on the dual
    sector) and returns

    ``prod_m q^(-2 N_(ell_m + 1)(eta)) * E[D(eta, xi(t))]``.

    The renormalizing prefactor is what keeps the observable finite when
    the window grows into a configuration with infinitely many particles.
    """
    from scipy.sparse.linalg import expm_multiply
    eta = np.asarray(eta, dtype=int)
    L = len(eta)
    xi0 = dl.dual_occupation(ells, L)
    sector = cs.enumerate_sector(L, int(xi0.sum()))
    p = ModelParams(q=params.q, k=params.k, L=L)
    gen = models.build_generator(sector, "asip", p)
    d_vec = np.array([dl.d_asip(eta, z, p) for z in sector.configs])
    evolved = expm_multiply(gen.matrix * t, d_vec)
    value = float(evolved[sector.rank(xi0[None])[0]])
    pref = 1.0
    for l in ells:
        pref *= params.q ** (-2.0 * tail_count(eta, l + 1))
    return pref * value


def test_renormalized_dual_expectation_initial_value():
    eta = np.array([2, 1, 0])
    ells = (1, 2)
    p = ModelParams(q=0.8, k=0.5, L=3)
    val = _renormalized_dual_expectation(eta, ells, 0.0, p)
    pref = np.prod([p.q ** (-2.0 * cs.tail_count(eta, m + 1))
                    for m in ells])
    ref = pref * dl.d_asip(eta, dl.dual_occupation(ells, 3), p)
    assert val == pytest.approx(ref, rel=1e-10)


def test_renormalized_dual_expectation_finite_t():
    eta = np.array([2, 1, 0])
    p = ModelParams(q=0.8, k=0.5, L=3)
    val = _renormalized_dual_expectation(eta, (1,), 0.7, p)
    assert np.isfinite(val)


def test_check_report_formatting():
    rep = dl.CheckReport(name="x", params={}, residual=1e-3,
                         threshold=1e-5)
    assert not rep.passed
    assert "FAIL" in str(rep)


# Reference: the per-entry double loop that built the kernel matrix before
# the per-site tables, with the scalar kernel as it was written then.  The
# tables form the same products in the same order, so they must agree bit
# for bit.

def _ref_d_asip(eta, xi, params, form):
    eta = np.asarray(eta, dtype=int)
    xi = np.asarray(xi, dtype=int)
    if (xi > eta).any():
        return 0.0
    q, k = params.q, params.k
    out = 1.0
    if form == "product":
        acc = 0
        for i0, (n, m) in enumerate(zip(eta, xi)):
            i = i0 + 1
            out *= q_binomial(n, m, q) / q_binomial(m + 2 * k - 1, m, q)
            out *= q ** ((n - m) * (2 * acc + m) - 4.0 * k * i * m)
            acc += m
    else:
        for i0, (n, m) in enumerate(zip(eta, xi)):
            i = i0 + 1
            tail = tail_count(eta, i + 1)
            out *= q_pochhammer(q ** (2 * (n - m + 1)), q ** 2, m) \
                / q_pochhammer(q ** (4 * k), q ** 2, m)
            out *= q ** ((m - 4.0 * k * i + 2 * tail) * m)
    return float(out)


def _ref_d_asip_matrix(sector_eta, sector_xi, params, form):
    out = np.zeros((len(sector_eta), len(sector_xi)))
    for a, eta in enumerate(sector_eta.configs):
        for b, xi in enumerate(sector_xi.configs):
            out[a, b] = _ref_d_asip(eta, xi, params, form)
    return out


# (L, n_eta, n_xi); n_xi = 0 gives a row of ones per config, n_xi > n_eta
# an all-zero block
SECTOR_PAIRS = [(2, 5, 3), (2, 2, 4), (3, 4, 0), (3, 3, 3), (3, 0, 0),
                (4, 4, 2), (4, 3, 5), (5, 5, 3), (5, 2, 0), (5, 1, 2)]


# A float raised to a NumPy integer and to a Python int can differ in the
# last bit, and only at some (q, k); hence the full grid.  The table is the
# product form bit for bit; against the pochhammer loop it holds up to the
# xi-sector constant, to rounding.
@pytest.mark.parametrize("form", ["product", "pochhammer"])
@pytest.mark.parametrize("k", [0.3, 0.5, 0.85, 1.0, 1.5, 2.0])
@pytest.mark.parametrize("q", [0.6, 0.7, 0.8, 0.85, 0.9, 0.95])
def test_kernel_matrix_matches_per_entry_loop_bit_for_bit(q, k, form):
    for L, n_eta, n_xi in SECTOR_PAIRS:
        s_eta = cs.enumerate_sector(L, n_eta)
        s_xi = cs.enumerate_sector(L, n_xi)
        p = ModelParams(q=q, k=k, L=L)
        D = dl.d_asip_matrix(s_eta, s_xi, p)
        ref = _ref_d_asip_matrix(s_eta, s_xi, p, form)
        if form == "product":
            assert np.array_equal(D, ref), (L, n_eta, n_xi)
        else:
            factor = dl.form_conversion_factor(s_xi.configs[0], p)
            np.testing.assert_allclose(D, factor * ref, rtol=1e-12, atol=0,
                                       err_msg=str((L, n_eta, n_xi)))
        if n_xi > n_eta:
            assert not D.any()


def test_kernel_matrix_rejects_mismatched_lengths_and_forms():
    p = ModelParams(q=0.8, k=0.5, L=3)
    with pytest.raises(ValueError):
        dl.d_asip_matrix(cs.enumerate_sector(3, 2), cs.enumerate_sector(2, 1),
                         p)
    # one form is built; the keyword that chose between two is gone
    with pytest.raises(TypeError):
        dl.d_asip_matrix(cs.enumerate_sector(3, 2), cs.enumerate_sector(3, 1),
                         p, form="pochhammer")
