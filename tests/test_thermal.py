"""Redistribution laws and thermalized dynamics."""

import math

import mpmath
import numpy as np
import pytest
from scipy import integrate, special, stats

from asymtransport import configspace as cs
from asymtransport import engine, models, thermal
from asymtransport.configspace import ModelParams
from asymtransport.qcalc import q_binomial


def test_qbetabinom_normalizes():
    for n in (0, 1, 5, 9):
        total = sum(thermal.qbetabinom_pmf(r, n, 0.7, 0.5)
                    for r in range(n + 1))
        assert total == pytest.approx(1.0, abs=1e-13)


def test_qbetabinom_equals_conditioned_product():
    # the split law of an edge is the two-site reversible product measure
    # conditioned on the edge total; independent of alpha
    q, k, n_tot = 0.7, 0.5, 5
    p = ModelParams(q=q, k=k)
    alpha = 0.3 * models.alpha_max(p)
    r = np.arange(n_tot + 1)
    pm = models.asip_product_measure(np.column_stack([r, n_tot - r]), p,
                                     alpha)
    pm /= pm.sum()
    ref = np.array([thermal.qbetabinom_pmf(r, n_tot, q, k)
                    for r in range(n_tot + 1)])
    assert np.abs(pm - ref).max() < 1e-12


@pytest.mark.parametrize("n_tot,q", [(1000, 0.7), (1200, 0.5)])
def test_qbetabinom_rejects_weights_past_the_float_range(n_tot, q):
    # (1000, 0.7) used to return NaN entries, (1200, 0.5) to overflow
    with pytest.raises(ValueError):
        thermal.qbetabinom_weights(n_tot, q, 0.5)
    assert thermal.qbetabinom_weights(300, 0.7, 0.5).sum() == \
        pytest.approx(1.0, abs=1e-12)


def test_qbetabinom_reduces_to_betabinom_at_q_one():
    for r in range(6):
        assert thermal.qbetabinom_pmf(r, 5, 1.0, 0.75) == pytest.approx(
            stats.betabinom.pmf(r, 5, 1.5, 1.5), rel=1e-12)


def test_betabinom_matches_scipy():
    # at k = 1/2 the q = 1 split law is the discrete uniform one
    for r in range(7):
        assert thermal.qbetabinom_weights(6, 1.0, 0.5)[r] == pytest.approx(
            stats.betabinom.pmf(r, 6, 1.0, 1.0), rel=1e-12)


@pytest.mark.parametrize("k", [1e-6, 1e-4, 0.3, 0.5, 2.0])
def test_q_one_split_law_against_mpmath_betabinom(k):
    # Beta-Binomial(n, 2k, 2k) masses binom(n, r) B(r + 2k, n - r + 2k)
    # / B(2k, 2k) in 30 digits
    with mpmath.workdps(30):
        a = mpmath.mpf(2 * k)
        for n_tot in range(61):
            got = thermal.qbetabinom_weights(n_tot, 1.0, k)
            for r in range(n_tot + 1):
                ref = mpmath.binomial(n_tot, r) \
                    * mpmath.beta(r + a, n_tot - r + a) / mpmath.beta(a, a)
                assert abs(got[r] / ref - 1) <= 1e-14, (n_tot, r)


def _ref_qbetabinom_weights(n_tot, q, k):
    """The split law as two fresh q-binomial products per r, as it was
    evaluated before the running product."""
    r = np.arange(n_tot + 1)
    w = np.array([q ** (-4.0 * k * rr) * q_binomial(rr + 2 * k - 1, rr, q)
                  * q_binomial(2 * k + (n_tot - rr) - 1, n_tot - rr, q)
                  for rr in r])
    return w / w.sum()


def test_running_product_bit_equal_to_per_r_products_where_2k_is_exact():
    # [2k + m - 1] gets the same argument both ways when 2k is a short
    # binary fraction, so every factor and product is the same float
    for k in (0.25, 0.5, 0.75, 1.0, 1.5, 2.0):
        for q in (0.3, 0.55, 0.7, 0.8, 0.97, 1.0):
            for n_tot in (0, 1, 2, 5, 9, 20):
                got = thermal.qbetabinom_weights(n_tot, q, k)
                ref = _ref_qbetabinom_weights(n_tot, q, k)
                assert got.tobytes() == ref.tobytes(), (k, q, n_tot)


def test_sample_qbetabinom_frequencies():
    n_tot, q, k = 4, 0.7, 0.5
    rng = engine.SeedTree(3).stream(0)
    draws = thermal.sample_qbetabinom(n_tot, q, k, rng, size=40000)
    for r in range(n_tot + 1):
        ref = thermal.qbetabinom_pmf(r, n_tot, q, k)
        se = math.sqrt(ref * (1 - ref) / 40000)
        assert abs((draws == r).mean() - ref) < 4 * se
    # weights handed in give the same draws from the same stream
    given = thermal.sample_qbetabinom(
        n_tot, q, k, engine.SeedTree(3).stream(0), size=40000,
        weights=thermal.qbetabinom_weights(n_tot, q, k))
    assert np.array_equal(given, draws)


@pytest.mark.parametrize("k,sE", [(0.5, 1.0), (1.0, 4.0), (0.75, 0.5)])
def test_tilted_beta_pdf_normalizes(k, sE):
    sigma = 1.0
    total, _ = integrate.quad(
        lambda w: thermal.tilted_beta_pdf(w, sE / sigma, sigma, k),
        0.0, 1.0, epsabs=1e-12, epsrel=1e-10, limit=200)
    assert total == pytest.approx(1.0, abs=1e-8)


def test_tilted_beta_reduces_to_beta_at_sigma_zero():
    k = 0.75
    for w in (0.2, 0.5, 0.9):
        ref = stats.beta.pdf(w, 2 * k, 2 * k)
        assert thermal.tilted_beta_pdf(w, 1.3, 0.0, k) == pytest.approx(
            ref, rel=1e-10)


def test_tilted_beta_mean_at_least_half():
    for sE in (0.5, 1.0, 4.0):
        for k in (0.5, 1.0):
            assert thermal.tilted_beta_mean(sE, 1.0, k) >= 0.5 - 1e-12
    assert thermal.tilted_beta_mean(1.0, 0.0, 0.6) == pytest.approx(
        0.5, abs=1e-10)


def test_half_k_sampler_exact_inverse_cdf():
    # k = 1/2 split: density prop e^(aw); KS against the closed-form CDF
    E, sigma = 2.0, 1.0
    a = 2.0 * sigma * E
    rng = engine.SeedTree(6).stream(0)
    draws = thermal.sample_tilted_beta(E, sigma, 0.5, rng, size=20000)
    ks = stats.kstest(draws, lambda w: np.expm1(a * w) / np.expm1(a))
    assert ks.pvalue > 1e-3


def test_kmp_split_is_uniform():
    rng = engine.SeedTree(7).stream(0)
    draws = thermal.sample_tilted_beta(1.7, 0.0, 0.5, rng, size=20000)
    ks = stats.kstest(draws, "uniform")
    assert ks.pvalue > 1e-3


def test_tabulated_sampler_matches_pdf():
    E, sigma, k = 1.5, 1.0, 1.0
    rng = engine.SeedTree(8).stream(0)
    draws = thermal.sample_tilted_beta(E, sigma, k, rng, size=20000)
    grid = np.linspace(0, 1, 2001)
    pdf = np.array([thermal.tilted_beta_pdf(w, E, sigma, k) for w in grid])
    cdf = integrate.cumulative_trapezoid(pdf, grid, initial=0.0)
    cdf /= cdf[-1]
    ks = stats.kstest(draws, lambda w: np.interp(w, grid, cdf))
    assert ks.pvalue > 1e-3


def test_th_asip_stationarity():
    L, N = 3, 3
    p = ModelParams(q=0.8, k=0.5, L=L)
    alpha = 0.3 * models.alpha_max(p)
    sec = cs.enumerate_sector(L, N)
    gen = thermal.th_asip_generator(sec, p)
    mu = models.asip_product_measure(sec.configs, p, alpha)
    mu /= mu.sum()
    assert np.abs(mu @ gen.matrix.toarray()).max() < 1e-12


def test_th_sip_stationarity():
    # the symmetric thermalized generator is th_asip at q = 1; its
    # stationary law is the homogeneous negative-binomial product
    # conditioned to the sector
    L, N, k = 3, 3, 0.75
    sec = cs.enumerate_sector(L, N)
    gen = thermal.th_asip_generator(sec, ModelParams(q=1.0, k=k, L=L))
    mu = np.array([math.exp(sum(
        special.gammaln(2 * k + n) - special.gammaln(n + 1)
        for n in c)) for c in sec.configs])
    mu /= mu.sum()
    assert np.abs(mu @ gen.matrix.toarray()).max() < 1e-12


# Reference: the per-state, per-edge loop that built the thermalized
# generators before the split-law tables.  It calls the law once per
# (state, edge) and finds each target by dictionary lookup; the table
# version must feed the same triples in the same order.

def _ref_thermal_generator(sector, n_edges, boundary, law):
    index = {tuple(c): j for j, c in enumerate(sector.configs.tolist())}
    rows, cols, rates = [], [], []
    L = sector.L
    for a, eta in enumerate(sector.configs.tolist()):
        for i in range(1, n_edges + 1):
            si = i - 1
            sj = 0 if (boundary == "periodic" and i == L) else i
            n_tot = eta[si] + eta[sj]
            pmf = law(n_tot)
            for r in range(n_tot + 1):
                if r == eta[si]:
                    continue
                tgt = list(eta)
                tgt[si], tgt[sj] = r, n_tot - r
                rows.append(a)
                cols.append(index[tuple(tgt)])
                rates.append(float(pmf[r]))
    return models.SparseRateMatrix(len(sector), rows, cols, rates)


# the symmetric generator is th_asip at q = 1: the (1.0, 0.75) case
@pytest.mark.parametrize("boundary", ["closed", "periodic"])
@pytest.mark.parametrize("model", ["th_asip"])
def test_thermal_generator_matches_per_state_loop_bit_for_bit(model,
                                                              boundary):
    for L in range(2, 6):
        for N in range(0, 7):
            sec = cs.enumerate_sector(L, N)
            for q, k in ((0.8, 0.5), (0.55, 1.5), (0.97, 0.3), (1.0, 0.75),
                         (0.3, 2.3)):
                p = ModelParams(q=q, k=k, L=L, boundary=boundary)

                def law(n_tot):
                    return thermal.qbetabinom_weights(n_tot, q, k)
                new = models.build_generator(sec, model, p).matrix
                ref = _ref_thermal_generator(sec, p.n_edges, boundary,
                                             law).matrix
                for name in ("indptr", "indices", "data"):
                    a, b = getattr(new, name), getattr(ref, name)
                    assert a.dtype == b.dtype
                    assert a.tobytes() == b.tobytes(), (L, N, q, k, name)


def test_simulate_thermal_continuous_conserves_total():
    p = ModelParams(q=1.0, k=0.5, sigma=0.5, L=4)
    rng = engine.SeedTree(11).stream(0)
    x0 = np.array([1.0, 0.0, 2.0, 0.5])
    x, events = thermal.simulate_thermal_continuous(x0, 3.0, p, rng)
    assert x.sum() == pytest.approx(x0.sum(), abs=1e-10)
    assert (x >= 0).all()
    assert all(0.0 <= w <= 1.0 for _, _, w in events)


# ------------------------------------------------ exact tilted-Beta sampler

def _table_era_unnorm(w, a, k):
    """Unnormalized tilted split density as the quadrature-normalized
    sampler evaluated it; the reference for the closed form."""
    w = np.asarray(w, dtype=float)
    core = np.expm1(a * w) * (-np.expm1(-a * (1.0 - w)))
    with np.errstate(invalid="ignore", divide="ignore"):
        out = np.exp(a * w) * np.where(core > 0, core, 0.0) ** (2 * k - 1)
    return np.where((w < 0) | (w > 1), 0.0, np.nan_to_num(out))


def test_half_k_and_untilted_draws_bit_identical_to_closed_forms():
    # k = 1/2 keeps w = log1p(u expm1(a)) / a and a vanishing tilt keeps
    # the Beta(2k, 2k) quantile, on the same uniforms, array and scalar
    for E, sigma, k in ((2.0, 1.0, 0.5), (0.3, 0.7, 0.5), (1.7, 0.0, 0.5),
                        (1.7, 0.0, 0.3), (1.2, 0.0, 0.75), (2.0, 1e-9, 1.5),
                        (1.0, 0.0, 2.3)):
        a = 2.0 * sigma * E
        seed = 40
        u = engine.SeedTree(seed).stream(0).random(5000)
        if a < 1e-8:
            ref = stats.beta.ppf(u, 2 * k, 2 * k)
        else:
            ref = np.log1p(u * math.expm1(a)) / a
        got = thermal.sample_tilted_beta(
            E, sigma, k, engine.SeedTree(seed).stream(0), size=5000)
        assert np.array_equal(got, ref)
        rng = engine.SeedTree(seed).stream(0)
        scalars = [thermal.sample_tilted_beta(E, sigma, k, rng)
                   for _ in range(50)]
        assert scalars == ref[:50].tolist()


@pytest.mark.parametrize("k", [0.3, 0.5, 0.75, 1.5, 2.3])
def test_closed_form_pdf_matches_quadrature_normalized_density(k):
    grid = np.linspace(0.005, 0.995, 41)
    for a in (0.01, 0.1, 1.0, 5.0, 20.0, 40.0):
        norm, _ = integrate.quad(
            lambda w: float(_table_era_unnorm(w, a, k)), 0.0, 1.0,
            epsabs=1e-12, epsrel=1e-12, limit=400)
        ref = _table_era_unnorm(grid, a, k) / norm
        got = np.array([thermal.tilted_beta_pdf(w, a / 2.0, 1.0, k)
                        for w in grid])
        assert np.abs(got / ref - 1.0).max() < 1e-9, a


@pytest.mark.parametrize("k", [0.3, 0.5, 1.5])
def test_cdf_matches_quadrature_of_pdf(k):
    for a in (0.0, 0.5, 3.0, 20.0):
        E, sigma = 1.25, a / 2.5
        assert thermal.tilted_beta_cdf(0.0, E, sigma, k) == 0.0
        assert thermal.tilted_beta_cdf(1.0, E, sigma, k) == 1.0
        assert thermal.tilted_beta_cdf(-0.5, E, sigma, k) == 0.0
        assert thermal.tilted_beta_cdf(1.5, E, sigma, k) == 1.0
        grid = np.array([0.1, 0.3, 0.5, 0.8, 0.95])
        cdf = thermal.tilted_beta_cdf(grid, E, sigma, k)
        for w, c in zip(grid, cdf):
            ref, _ = integrate.quad(
                lambda x: thermal.tilted_beta_pdf(x, E, sigma, k), 0.0, w,
                epsabs=1e-13, epsrel=1e-12, limit=400)
            assert c == pytest.approx(ref, abs=1e-9)


@pytest.mark.parametrize("k", [0.3, 0.75, 1.5, 2.3])
@pytest.mark.parametrize("a", [0.5, 3.0, 20.0])
def test_sampler_ks_against_exact_cdf(k, a):
    E, sigma = 2.0, a / 4.0
    rng = engine.SeedTree(50).stream(int(100 * k + a))
    draws = thermal.sample_tilted_beta(E, sigma, k, rng, size=20000)
    assert ((draws >= 0.0) & (draws <= 1.0)).all()
    ks = stats.kstest(
        draws, lambda w: thermal.tilted_beta_cdf(w, E, sigma, k))
    assert ks.pvalue > 1e-3


class _TopUniform:
    """A stream stand-in that always returns the largest uniform below 1.

    For the dynamics it also returns every waiting time equal to its mean
    and the edges ``edges`` over and over from the start of each block.
    """

    def __init__(self, edges=(1,)):
        self.edges = edges

    def random(self, size=None):
        top = 1.0 - 2.0 ** -53
        return top if size is None else np.full(size, top)

    def exponential(self, scale, size):
        return np.full(size, scale)

    def integers(self, low, high, size):
        return np.resize(np.array(self.edges), size)


def test_draws_never_leave_the_unit_interval_at_the_top_quantile():
    # at 2k < 1 the Beta quantile of the top uniform is exactly 1.0, and
    # log1p(expm1(a)) / a rounds above 1 for some of these tilts
    for a in np.geomspace(1e-6, 700.0, 3000):
        assert thermal.sample_tilted_beta(a / 2.0, 1.0, 0.3, _TopUniform()) \
            <= 1.0
        assert (thermal.sample_tilted_beta(a / 2.0, 1.0, 0.3, _TopUniform(),
                                           size=2) <= 1.0).all()


def test_dynamics_keep_w_in_the_unit_interval_at_the_top_quantile():
    # the loop's own push-forward caps w at 1 where log1p(expm1(a)) / a
    # rounds above it; the Beta quantile of the top uniform is 1.0 at 2k < 1
    tilts = [a for a in np.geomspace(1e-6, 700.0, 3000).tolist()
             if a >= thermal._TILT_SMALL
             and math.log1p(math.expm1(a)) / a > 1.0]
    assert tilts
    for a in tilts:
        p = ModelParams(q=1.0, k=0.3, sigma=1.0, L=2)
        x, events = thermal.simulate_thermal_continuous(
            [a / 2.0, 0.0], 2.5, p, _TopUniform())
        assert [w for _, _, w in events] == [1.0, 1.0]
        assert x.tolist() == [a / 2.0, 0.0]


def test_sample_qbetabinom_stays_in_the_support_at_the_top_quantile():
    # at n = 184, q = 1, k = 1/2 the summed weights fall short of the
    # largest uniform below 1 by rounding
    n = 184
    assert np.cumsum(thermal.qbetabinom_weights(n, 1.0, 0.5))[-1] \
        < 1.0 - 2.0 ** -53
    assert thermal.sample_qbetabinom(n, 1.0, 0.5, _TopUniform()) == n
    assert thermal.sample_qbetabinom(n, 1.0, 0.5, _TopUniform(),
                                     size=3).tolist() == [n, n, n]


def test_dynamics_raise_when_a_tilt_passes_the_float_range():
    # every edge of the initial chain is below MAX_TILT; the first update
    # moves edge 2's energy left, and edge 1 then carries 2 sigma E = 1200
    p = ModelParams(q=1.0, k=0.5, sigma=1.0, L=3)
    assert 2.0 * 300.0 < thermal.MAX_TILT < 2.0 * 600.0
    with pytest.raises(ValueError, match="overflows"):
        thermal.simulate_thermal_continuous([300.0, 0.0, 300.0], 10.0, p,
                                            _TopUniform(edges=(2, 1)))
    x, events = thermal.simulate_thermal_continuous(
        [300.0, 0.0, 300.0], 0.75, p, _TopUniform(edges=(2, 1)))
    assert [e for _, e, _ in events] == [2] and x.tolist() == [300.0,
                                                               300.0, 0.0]


def test_large_tilt_rejected_and_largest_finite_tilt_sampled():
    rng = engine.SeedTree(51).stream(0)
    for fn in (lambda: thermal.sample_tilted_beta(1000.0, 1.0, 0.75, rng),
               lambda: thermal.tilted_beta_pdf(0.5, 1000.0, 1.0, 0.75),
               lambda: thermal.tilted_beta_cdf(0.5, 1000.0, 1.0, 0.75)):
        with pytest.raises(ValueError):
            fn()
    E = thermal.MAX_TILT / 2.0
    draws = thermal.sample_tilted_beta(E, 1.0, 0.5, rng, size=1000)
    assert np.isfinite(draws).all() and (draws > 0.9).all()
    assert math.isfinite(thermal.tilted_beta_pdf(0.999, E, 1.0, 0.75))


def test_thermal_updates_keep_no_per_tilt_state():
    # every update has its own tilt; nothing may outlive the run
    import tracemalloc
    p = ModelParams(q=1.0, k=0.75, sigma=0.5, L=40)
    x0 = engine.SeedTree(5).stream(1).exponential(1.0, size=40)
    thermal.simulate_thermal_continuous(x0, 1.0, p,
                                        engine.SeedTree(5).stream(0))
    tracemalloc.start()
    try:
        _, events = thermal.simulate_thermal_continuous(
            x0, 32.0, p, engine.SeedTree(5).stream(0))
        n_updates = len(events)
        del events
        kept, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert n_updates >= 1200
    assert kept < 1 << 20


# ------------------------------------------ block-drawn thermal dynamics

@pytest.mark.parametrize("k", [0.5, 0.75, 1.5])
def test_two_site_dynamics_draw_exact_splits_and_clock(k):
    # at L = 2 the edge total is conserved, so each kept fraction is an
    # independent tilted-Beta draw at that total and each gap is Exp(1);
    # the run spans many blocks of draws
    E, sigma = 2.0, 0.5
    p = ModelParams(q=1.0, k=k, sigma=sigma, L=2)
    x, events = thermal.simulate_thermal_continuous(
        [1.5, 0.5], 4000.0, p, engine.SeedTree(60).stream(int(4 * k)))
    assert len(events) > 10 * thermal.BLOCK
    assert math.fsum(x) == pytest.approx(E, rel=1e-12)
    times, edges, w = (np.array(c) for c in zip(*events))
    assert (edges == 1).all() and ((w >= 0.0) & (w <= 1.0)).all()
    ks = stats.kstest(w, lambda v: thermal.tilted_beta_cdf(v, E, sigma, k))
    assert ks.pvalue > 1e-3
    gaps = np.diff(times, prepend=0.0)
    assert stats.kstest(gaps, "expon").pvalue > 1e-3


def test_dynamics_pick_edges_uniformly_at_rate_one_each():
    # L = 5: four edges, each rung at rate 1, so the gaps times 4 are Exp(1)
    p = ModelParams(q=1.0, k=0.75, sigma=0.5, L=5)
    _, events = thermal.simulate_thermal_continuous(
        [1.0, 0.3, 2.0, 0.7, 1.1], 1500.0, p, engine.SeedTree(61).stream(0))
    assert len(events) > 10 * thermal.BLOCK
    times, edges, _ = (np.array(c) for c in zip(*events))
    counts = np.bincount(edges, minlength=5)
    assert counts[0] == 0
    assert stats.chisquare(counts[1:]).pvalue > 1e-3
    gaps = 4.0 * np.diff(times, prepend=0.0)
    assert stats.kstest(gaps, "expon").pvalue > 1e-3


def test_dynamics_without_time_or_energy_leave_the_chain_alone():
    p = ModelParams(q=1.0, k=0.75, sigma=0.5, L=4)
    for x0, t_max in ((np.array([1.0, 0.0, 2.0, 0.5]), 0.0),
                      (np.zeros(4), 50.0)):
        x, events = thermal.simulate_thermal_continuous(
            x0, t_max, p, engine.SeedTree(62).stream(0))
        assert events == []
        assert x.tobytes() == x0.tobytes()


def test_dynamics_repeat_bit_for_bit_for_one_stream():
    p = ModelParams(q=1.0, k=1.5, sigma=0.5, L=6)
    x0 = [0.4, 1.0, 0.0, 2.5, 0.3, 0.9]
    runs = [thermal.simulate_thermal_continuous(
        x0, 200.0, p, engine.SeedTree(63).stream(2)) for _ in range(2)]
    assert runs[0][0].tobytes() == runs[1][0].tobytes()
    assert runs[0][1] == runs[1][1]


@pytest.mark.parametrize("x0", [[], [1.0]])
def test_dynamics_need_two_sites(x0):
    p = ModelParams(q=1.0, k=0.5, sigma=0.5)
    with pytest.raises(ValueError, match="need L >= 2"):
        thermal.simulate_thermal_continuous(x0, 1.0, p,
                                            engine.SeedTree(64).stream(0))
