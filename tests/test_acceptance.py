"""End-to-end acceptance checks.

One test per acceptance criterion; each prints a single pass/fail line.
The stated tolerances and runtime budgets are asserted, not merely
reported.
"""

import math
import time

import numpy as np
import pytest
from scipy import integrate, stats

from asymtransport import (cli, configspace as cs, currents, dualitylab as dl,
                           engine, models, qalgebra as qa, thermal)
from asymtransport.configspace import ModelParams
from asymtransport.qcalc import skellam_pmf


def _report(label, ok):
    print("\ncriterion %-28s %s" % (label + ":", "pass" if ok else "FAIL"),
          flush=True)
    assert ok, label


def test_criterion_01_self_duality():
    t0 = time.monotonic()
    worst = 0.0
    for q in (0.6, 0.9):
        for k in (0.5, 1.0, 1.7):
            for L in (2, 3, 4):
                p = ModelParams(q=q, k=k, L=L)
                for ne in range(1, 6):
                    s_eta = cs.enumerate_sector(L, ne)
                    g_eta = models.build_generator(s_eta, "asip", p)
                    for nx in range(1, ne + 1):
                        s_xi = cs.enumerate_sector(L, nx)
                        g_xi = models.build_generator(s_xi, "asip", p)
                        D = dl.d_asip_matrix(s_eta, s_xi, p)
                        worst = max(worst, dl.generator_duality_residual(
                            g_eta, g_xi, D))
    elapsed = time.monotonic() - t0
    _report("01 self-duality", worst < 1e-10 and elapsed < 60.0)


def test_criterion_02_algebraic_rederivation():
    t0 = time.monotonic()
    Q, K, L, n_max = 0.7, 0.85, 3, 4
    worst = 0.0
    rates = qa.derive_generator(L, K, Q, n_max)
    for ne in range(n_max + 1):
        sec = cs.enumerate_sector(L, ne)
        idx = qa.sector_indices(sec, n_max)
        ref = models.build_generator(
            sec, "asip", ModelParams(q=Q, k=K, L=L)).matrix.toarray()
        worst = max(worst, np.abs(rates[np.ix_(idx, idx)] - ref).max())

    D = qa.derive_duality(L, K, Q, n_max)
    for ne in range(1, n_max + 1):
        for nx in range(ne + 1):
            s_eta = cs.enumerate_sector(L, ne)
            s_xi = cs.enumerate_sector(L, nx)
            ref = dl.d_asip_matrix(s_eta, s_xi, ModelParams(q=Q, k=K, L=L))
            blk = D[np.ix_(qa.sector_indices(s_eta, n_max),
                           qa.sector_indices(s_xi, n_max))]
            worst = max(worst, np.abs(blk - ref).max()
                        / max(1.0, np.abs(ref).max()))

    H = qa.build_hamiltonian(L, K, Q, n_max)
    sym = qa.coproduct_symmetries(L, K, Q, n_max)
    worst = max(worst,
                max(qa.sector_symmetry_residual(H, sym[name], L, n_max,
                                                n_max - 1)
                    for name in ("Kplus", "Kminus", "K0", "E", "F")))
    worst = max(worst, np.abs(qa.splus_from_qexp(L, K, Q, n_max)
                              - qa.splus_closed_form(L, K, Q, n_max)).max())
    elapsed = time.monotonic() - t0
    _report("02 algebra re-derivation", worst < 1e-10 and elapsed < 120.0)


def test_criterion_03_reversibility():
    p = ModelParams(q=0.8, k=0.5, L=3)
    alpha = 0.3 * models.alpha_max(p)
    sector = cs.enumerate_sector(3, 3)
    mu = models.asip_product_measure(sector.configs, p, alpha)
    db = models.detailed_balance_residual(sector, "asip", p, mu)

    worst_z = 0.0
    for k in (0.5, 1.0):
        pk = ModelParams(q=0.8, k=k)
        a = 0.3 * models.alpha_max(pk)
        for i in (1, 2, 3):
            z_series = models.asip_marginal_weights(i, pk, a, 0).sum()
            z_closed = models.asip_marginal_Z_closed(i, pk, a)
            worst_z = max(worst_z, abs(z_series - z_closed) / abs(z_series))

    # the ring's stationary law misses product form by more than round-off
    fit = models.ring_product_measure_gap(3, 3, p)
    _report("03 reversibility",
            db < 1e-12 and worst_z < 1e-10 and fit > 1e-12)


def test_criterion_04_continuum_duality_and_g_map():
    rng = engine.SeedTree(20).stream(0)
    worst = 0.0
    # modest energies keep the transformed coordinates away from the
    # boundary of the state space, where central differences degenerate
    for _ in range(50):
        L = int(rng.integers(2, 4))
        x = rng.uniform(0.2, 1.0, size=L)
        xi = rng.integers(0, 3, size=L)
        p = ModelParams(q=1.0, k=float(rng.uniform(0.4, 1.6)),
                        sigma=float(rng.uniform(0.1, 1.0)), L=L)
        worst = max(worst, dl.verify_abep_sip_duality(x, xi, p).residual)
        worst = max(worst, dl.verify_g_map_conjugation(
            lambda z: float(z[0] ** 2 * z[-1] + z.sum()), x, p).residual)
    _report("04 continuum duality + map", worst < 1e-5)


def test_criterion_05_scaling_limit():
    errs, _ = dl.duality_scaling_limit_check(
        np.array([1.0, 2.0]), np.array([1, 0]), 0.5, 0.5,
        [100, 1000, 10000])
    monotone = errs[1] < errs[0] and errs[2] < errs[1]
    _report("05 kernel scaling limit", monotone and errs[2] < 1e-2)


def test_criterion_06_current_moments_vs_mc():
    t0 = time.monotonic()
    p = ModelParams(q=0.8, k=0.5)
    W, half, t, reps = 40, 20, 1.0, 100000

    eta0 = np.array([2] * half + [0] * (W - half))
    theory_step = currents.q_moment_fixed_config(eta0, -half, 0, t, p)
    tables = models.edge_rate_table("asip", p, n_max=int(eta0.sum()))
    res = engine.q_moment_ensemble(tables, lambda rng: eta0, half, p.q, t,
                                   reps, 2026)
    z_step = (float(res.mean[0]) - theory_step) / float(res.se[0])

    mu = [0.5, 0.5]
    theory_prod = currents.q_moment_product(mu, t, p)
    tables_p = models.edge_rate_table("asip", p, n_max=W)
    res = engine.q_moment_ensemble(
        tables_p, lambda rng: (rng.random(W) < 0.5).astype(int), half, p.q,
        t, reps, 2027)
    z_prod = (float(res.mean[0]) - theory_prod) / float(res.se[0])

    # energy moment: product form against the direct walker sum
    k, sigma, c, tc = 0.5, 1.0, 0.7, 1.3
    ds = np.arange(-200, 201)
    direct = float(np.sum(skellam_pmf(ds, 2 * k * tc, 2 * k * tc)
                          * np.exp(2 * sigma * c * ds)))
    prod = currents.abep_moment_product(math.exp(2 * sigma * c),
                                        math.exp(-2 * sigma * c), tc, k)
    fixed = currents.abep_moment_fixed(np.full(400, c), -200, 0, tc, k,
                                       sigma)
    consistent = abs(direct - prod) < 1e-10 and abs(fixed - prod) < 1e-9
    elapsed = time.monotonic() - t0
    print("\n  step z=%.2f  product z=%.2f  elapsed=%.0fs"
          % (z_step, z_prod, elapsed))
    _report("06 current moments vs MC",
            abs(z_step) < 4.0 and abs(z_prod) < 4.0 and consistent
            and elapsed < 600.0)


def test_criterion_07_rate_functions():
    worst = 0.0
    cases = [(1.3, 0.4), currents.walker_rates(0.8, 0.5), (1.0, 1.0)]
    for a, b in cases:
        for x in np.linspace(0.0, 4.0, 20):
            worst = max(worst, abs(currents.rate_function(x, a, b)
                                   - currents.rate_function_legendre(x, a,
                                                                     b)))
    # the symmetric rate-2k walker's closed form
    k = 0.5
    for x in np.linspace(0.0, 4.0, 20):
        s = math.sqrt(x * x + 16 * k * k)
        sym = 4 * k - s + x * math.log((x + s) / (4 * k))
        worst = max(worst, abs(sym - currents.rate_function_legendre(
            x, 2 * k, 2 * k)))
    nonneg = all(currents.rate_function(x, 1.3, 0.4) >= -1e-13
                 for x in np.linspace(-3, 5, 41))
    zero_at_drift = abs(currents.rate_function(0.9, 1.3, 0.4)) < 1e-12

    mu = [0.5, 0.5]
    p = ModelParams(q=0.8, k=0.5)
    limit = currents.growth_rate_discrete(mu, 0.8, 0.5)
    slope = math.log(currents.q_moment_product(mu, 40.0, p)) / 40.0
    _report("07 rate functions",
            worst < 1e-8 and nonneg and zero_at_drift
            and abs(slope - limit) / limit < 0.1)


def test_criterion_08_thermalization():
    q, k, n_tot = 0.7, 0.5, 5
    p = ModelParams(q=q, k=k)
    alpha = 0.3 * models.alpha_max(p)
    r = np.arange(n_tot + 1)
    pm = models.asip_product_measure(np.column_stack([r, n_tot - r]), p,
                                     alpha)
    pm /= pm.sum()
    ref = np.array([thermal.qbetabinom_pmf(r, n_tot, q, k)
                    for r in range(n_tot + 1)])
    split_ok = np.abs(pm - ref).max() < 1e-12

    L, N = 3, 3
    p3 = ModelParams(q=q, k=k, L=L)
    sector = cs.enumerate_sector(L, N)
    gen = thermal.th_asip_generator(sector, p3)
    a3 = 0.3 * models.alpha_max(p3)
    mu = models.asip_product_measure(sector.configs, p3, a3)
    mu /= mu.sum()
    stat_ok = np.abs(mu @ gen.matrix.toarray()).max() < 1e-10

    E, sigma, kk = 1.5, 1.0, 0.75
    mean_q, _ = integrate.quad(
        lambda w: w * thermal.tilted_beta_pdf(w, E, sigma, kk), 0.0, 1.0,
        epsabs=1e-12, epsrel=1e-10, limit=200)
    rng = engine.SeedTree(30).stream(0)
    draws = thermal.sample_tilted_beta(E, sigma, kk, rng, size=40000)
    se = draws.std(ddof=1) / math.sqrt(draws.size)
    mean_ok = (mean_q >= 0.5 - 1e-10
               and abs(draws.mean() - mean_q) < 4 * se
               and draws.mean() >= 0.5 - 4 * se)

    rng = engine.SeedTree(31).stream(0)
    kmp = thermal.sample_tilted_beta(1.0, 0.0, 0.5, rng, size=100000)
    ks_ok = stats.kstest(kmp, "uniform").pvalue > 1e-3
    _report("08 thermalization",
            split_ok and stat_ok and mean_ok and ks_ok)


def test_criterion_09_limits():
    eta = np.array([3, 1])
    p1 = ModelParams(q=1.0, k=0.75, L=2)
    r, l = models.asip_edge_rates(eta, 1, p1)
    rs, ls = models.sip_edge_rates(eta, 1, 0.75)
    sip_ok = r == rs and l == ls

    gap = models.qtazrp_limit_gap(ModelParams(q=0.7, k=16.0), 6)

    a, b = 1.0, 1.0
    u, v = models.adep_relax_pair(a, b, 1.0)
    A = 0.5 * math.log(0.5 * (1.0 + math.exp(2.0 * (a + b))))
    adep_ok = max(abs(u - A), abs(v - (a + b - A))) < 1e-8
    _report("09 degenerate limits", sip_ok and gap < 1e-3 and adep_ok)


def test_criterion_10_determinism(tmp_path):
    def run(name, argv):
        out = tmp_path / name
        assert cli.main(argv + ["--out", str(out)]) == 0
        with open(out, "rb") as fh:
            return fh.read()

    sim = ["simulate", "--model", "asip", "--L", "4", "--n", "3",
           "--q", "0.8", "--k", "0.5", "--t", "1", "--replicas", "20",
           "--seed", "99"]
    cur = ["current", "--formula", "q-product", "--q", "0.8", "--k", "0.5",
           "--t", "0.5", "--window", "16", "--replicas", "80",
           "--seed", "55"]
    th = ["thermalize", "--sampler", "qbetabinom", "--n", "4", "--q", "0.7",
          "--k", "0.5", "--samples", "3000", "--seed", "77"]
    ok = (run("s1.csv", sim) == run("s2.csv", sim)
          and run("c1.csv", cur + ["--workers", "1"])
          == run("c2.csv", cur + ["--workers", "4"])
          and run("t1.csv", th) == run("t2.csv", th))
    _report("10 determinism", ok)
