"""Jump rates, generators, reversible measures and deterministic limits."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import linalg, sparse
from scipy.integrate import solve_ivp

from asymtransport import configspace as cs
from asymtransport import models, thermal
from asymtransport.configspace import ModelParams
from asymtransport.qcalc import q_binomial


def test_asip_rates_frozen():
    p = ModelParams(q=0.7, k=0.5)
    right, left = models.asip_edge_rates(np.array([1, 0]), 1, p)
    assert right == pytest.approx(0.7, abs=1e-15)
    assert left == 0.0
    p2 = ModelParams(q=0.6, k=1.0)
    right, left = models.asip_edge_rates(np.array([2, 1]), 1, p2)
    assert right == pytest.approx(3.376426666666666, rel=1e-13)
    assert left == pytest.approx(7.112296296296297, rel=1e-13)


def test_asip_rates_reduce_to_sip_at_q_one():
    p = ModelParams(q=1.0, k=0.75)
    for na in range(4):
        for nb in range(4):
            eta = np.array([na, nb])
            r, l = models.asip_edge_rates(eta, 1, p)
            rs, ls = models.sip_edge_rates(eta, 1, 0.75)
            assert r == pytest.approx(rs, abs=1e-12)
            assert l == pytest.approx(ls, abs=1e-12)


def test_qtazrp_rate_frozen():
    # (q^-6 - 1)/(q^-2 - 1) at q = 0.8
    assert models.qtazrp_rate(np.array([0, 3]), 1, 0.8) == pytest.approx(
        5.00390625, abs=1e-12)
    assert models.qtazrp_rate(np.array([0, 0]), 1, 0.8) == 0.0
    assert models.qtazrp_rate(np.array([0, 2]), 1, 1.0) == 2.0


def test_qtazrp_limit_gap_monotone():
    gaps = [models.qtazrp_limit_gap(ModelParams(q=0.7, k=k), 6)
            for k in (2, 4, 8, 16)]
    assert all(g2 < g1 for g1, g2 in zip(gaps, gaps[1:]))
    assert gaps[-1] < 1e-3


def test_generator_rows_sum_to_zero():
    sec = cs.enumerate_sector(3, 3)
    for model in ("asip", "sip", "qtazrp", "th_asip"):
        p = ModelParams(q=0.8, k=0.5, L=3)
        gen = models.build_generator(sec, model, p)
        assert np.abs(gen.matrix.sum(axis=1)).max() < 1e-12


def test_generator_periodic_has_extra_edge():
    sec = cs.enumerate_sector(3, 2)
    p_line = ModelParams(q=0.8, k=0.5, L=3)
    p_ring = ModelParams(q=0.8, k=0.5, L=3, boundary="periodic")
    g_line = models.build_generator(sec, "asip", p_line).matrix
    g_ring = models.build_generator(sec, "asip", p_ring).matrix
    assert g_ring.nnz > g_line.nnz


# Reference: the per-entry loop that built the rate tables before the
# per-site factors and broadcasting; the tables must agree bit for bit.

def _sip_rates(eta, i, p):
    # sip_edge_rates rates closed chains; on a ring the asip rates at
    # q = 1 are the same bits
    if p.boundary == "closed":
        return models.sip_edge_rates(eta, i, p.k)
    return models.asip_edge_rates(
        eta, i, ModelParams(q=1.0, k=p.k, L=p.L, boundary=p.boundary))


_RATE_FNS = {
    "asip": models.asip_edge_rates,
    "sip": _sip_rates,
    "qtazrp": lambda eta, i, p: (0.0, models.qtazrp_rate(
        eta, p.edge_sites(i)[1] - 1, p.q)),
}


def _ref_edge_rate_table(model, params, n_max):
    rate_fn = _RATE_FNS[model]
    p2 = ModelParams(q=params.q, k=params.k, sigma=params.sigma, L=2)
    right = np.zeros((n_max + 1, n_max + 1))
    left = np.zeros((n_max + 1, n_max + 1))
    for na in range(n_max + 1):
        for nb in range(n_max + 1):
            right[na, nb], left[na, nb] = rate_fn(np.array([na, nb]), 1, p2)
    return right, left


def test_edge_rate_table_matches_rate_fn():
    cases = [(q, k, n_max)
             for q in (1.0, 0.97, 0.8, 0.55, 0.3, 0.1)
             for k in (0.05, 0.3, 0.5, 1, 1.5, 7.25)
             for n_max in (0, 1, 5, 40)]
    cases += [(0.8, 0.5, 100), (0.3, 2.3, 100), (1.0, 0.75, 100)]
    for model in ("asip", "sip", "qtazrp"):
        for q, k, n_max in cases:
            p = ModelParams(q=q, k=k)
            new = models.edge_rate_table(model, p, n_max)
            ref = _ref_edge_rate_table(model, p, n_max)
            for a, b in zip(new, ref):
                assert a.shape == b.shape and a.dtype == b.dtype
                assert a.tobytes() == b.tobytes(), (model, q, k, n_max)


def test_detailed_balance():
    p = ModelParams(q=0.8, k=0.5, L=3)
    alpha = 0.4 * models.alpha_max(p)
    sec = cs.enumerate_sector(3, 3)
    mu = models.asip_product_measure(sec.configs, p, alpha)
    assert models.detailed_balance_residual(sec, "asip", p, mu) < 1e-12


@given(st.floats(min_value=0.3, max_value=1.0),
       st.floats(min_value=0.25, max_value=2.0),
       st.integers(min_value=2, max_value=4),
       st.integers(min_value=0, max_value=4),
       st.floats(min_value=0.05, max_value=0.9))
@settings(max_examples=60, deadline=2000)
def test_product_measure_is_reversible_and_thermally_stationary(
        q, k, L, N, frac):
    p = ModelParams(q=q, k=k, L=L)
    alpha = frac * models.alpha_max(p)
    sec = cs.enumerate_sector(L, N)
    mu = models.asip_product_measure(sec.configs, p, alpha)
    assert models.detailed_balance_residual(sec, "asip", p, mu) < 1e-12
    mu /= mu.sum()
    gen = thermal.th_asip_generator(sec, p)
    assert np.abs(mu @ gen.matrix.toarray()).max() < 1e-12


def test_alpha_max_frozen():
    # q^-(2k+1) at q = 0.6, k = 1
    assert models.alpha_max(ModelParams(q=0.6, k=1.0)) == pytest.approx(
        4.62962962962963, rel=1e-13)


def test_marginal_pmf_normalizes():
    # the first 400 weights over the certified sum of the shortest series
    p = ModelParams(q=0.8, k=0.5)
    alpha = 0.3 * models.alpha_max(p)
    for i in (1, 2, 3):
        z = models.asip_marginal_weights(i, p, alpha, 0).sum()
        total = models.asip_marginal_weights(i, p, alpha, 399)[:400].sum() / z
        assert total == pytest.approx(1.0, abs=1e-10)


# Reference: the written-out marginal weight that the pmf used before the
# running product.  Below q of about 0.3 it underflows itself.

def _ref_asip_marginal_weights(i, n, params, alpha):
    q, k = params.q, params.k
    return alpha ** n * q_binomial(n + 2 * k - 1, n, q) * q ** (4 * k * i * n)


@pytest.mark.parametrize("qs,n_max", [
    ((0.3, 0.55, 0.8, 0.95, 0.999, 1.0), 12),
    ((0.55, 0.7, 0.8, 0.9, 0.95, 0.99, 0.999, 1.0), 30)])
def test_marginal_weights_match_written_out_weights(qs, n_max):
    worst = 0.0
    for q in qs:
        for k in (0.3, 0.5, 0.75, 1.0, 1.5, 2.0):
            p = ModelParams(q=q, k=k)
            for i in (1, 2, 3, 4):
                for frac in (0.1, 0.5, 0.9):
                    alpha = frac * models.alpha_max(p)
                    w = models.asip_marginal_weights(i, p, alpha, n_max)
                    ref = np.array([_ref_asip_marginal_weights(i, n, p, alpha)
                                    for n in range(n_max + 1)])
                    worst = max(worst, np.abs(w[:n_max + 1] / ref - 1).max())
    assert worst <= 1e-13


def test_marginal_series_rejects_sites_below_one():
    p = ModelParams(q=0.8, k=1.0)
    for fn in (lambda i: models.asip_marginal_weights(i, p, 0.1, 0),
               lambda i: models.asip_marginal_Z_closed(i, p, 0.1),
               lambda i: models.asip_marginal_mean_closed(i, p, 0.1)):
        fn(1)
        for i in (0, -1):
            with pytest.raises(ValueError, match="numbered from 1"):
                fn(i)


def test_marginal_series_rejects_divergent_alpha():
    p = ModelParams(q=0.8, k=1.0)
    with pytest.raises(ValueError, match="diverges"):
        models.asip_marginal_weights(1, p, models.alpha_max(p), 0)


@pytest.mark.parametrize("q,frac", [(0.5, 0.99), (0.1, 0.9)])
def test_marginal_series_near_alpha_max_fails_with_its_cause(q, frac):
    # the series converges but needs more terms than q^-n can reach
    p = ModelParams(q=q, k=0.5)
    with pytest.raises(ValueError, match="too close to alpha_max"):
        models.asip_marginal_weights(1, p, frac * models.alpha_max(p), 0)


@pytest.mark.parametrize("q,k", [(0.8, 0.5), (0.7, 1.0), (0.9, 1.5)])
def test_partition_function_closed_form(q, k):
    p = ModelParams(q=q, k=k)
    alpha = 0.35 * models.alpha_max(p)
    for i in (1, 2, 3):
        z = models.asip_marginal_weights(i, p, alpha, 0).sum()
        zc = models.asip_marginal_Z_closed(i, p, alpha)
        assert abs(z - zc) / abs(z) < 1e-10


def test_partition_function_closed_form_needs_integer_2k():
    p = ModelParams(q=0.8, k=0.7)
    with pytest.raises(ValueError):
        models.asip_marginal_Z_closed(1, p, 0.1)


@pytest.mark.parametrize("q,k", [(0.8, 0.5), (0.7, 1.0)])
def test_mean_occupation_closed_form(q, k):
    p = ModelParams(q=q, k=k)
    alpha = 0.35 * models.alpha_max(p)
    for i in (1, 2, 3):
        w = models.asip_marginal_weights(i, p, alpha, 0)
        m = np.arange(len(w)) @ w / w.sum()
        mc = models.asip_marginal_mean_closed(i, p, alpha)
        assert abs(m - mc) / max(1.0, abs(m)) < 1e-10


def test_ring_has_no_homogeneous_product_measure():
    for q in (0.3, 0.8, 0.95):
        assert models.ring_product_measure_gap(
            3, 3, ModelParams(q=q, k=0.5)) > 1e-12


@pytest.mark.parametrize("k", [0.5, 1.0, 2.0])
def test_symmetric_ring_has_product_measure(k):
    assert models.ring_product_measure_gap(3, 3, ModelParams(q=1.0, k=k)) \
        < 1e-13


def test_ring_fit_is_exact_on_closed_chain_with_site_counts():
    # the closed chain's reversible measure is a product of site-dependent
    # marginals, so the same fit with counts per site leaves round-off
    L, N = 3, 3
    p = ModelParams(q=0.8, k=0.5, L=L)
    sec = cs.enumerate_sector(L, N)
    Q = models.build_generator(sec, "asip", p).toarray()
    null = linalg.null_space(Q.T)
    assert null.shape[1] == 1
    log_pi = np.log(null[:, 0] / null[:, 0].sum())
    occ = sec.configs
    site_counts = (occ[:, :, None] == np.arange(1, N + 1)).reshape(len(occ),
                                                                   -1)
    fit = np.column_stack([np.ones(len(occ)), site_counts])
    coef = np.linalg.lstsq(fit, log_pi, rcond=None)[0]
    assert np.abs(log_pi - fit @ coef).max() < 1e-13


def test_abep_coefficients_symmetric_limit():
    # sigma = 0 reduces the edge coefficients to the symmetric diffusion:
    # quadratic uv, drift -2k(u - v); checked through the generator on
    # monomials where both are exact up to discretization error
    x = np.array([0.7, 1.1])
    k = 0.75
    p0 = ModelParams(q=1.0, k=k, sigma=0.0, L=2)

    def f(y):
        return float(y[0])

    lhs = models.abep_generator_apply(f, x, 1, p0)
    # the sigma > 0 coefficients tend to the sigma = 0 ones
    near = models.abep_generator_apply(
        f, x, 1, ModelParams(q=1.0, k=k, sigma=1e-7, L=2))
    assert near == pytest.approx(lhs, rel=1e-6)
    # drift of x_1 is a1 = -2k(u - v) for sigma = 0
    assert lhs == pytest.approx(-2.0 * k * (x[0] - x[1]), rel=1e-7)


def test_abep_second_moment_coefficient():
    # generator on f = x_1^2 gives 2 a2 + 2 x_1 a1 with a2 = uv at sigma=0
    x = np.array([0.7, 1.1])
    k = 0.75
    p0 = ModelParams(q=1.0, k=k, sigma=0.0, L=2)
    val = models.abep_generator_apply(lambda y: float(y[0] ** 2), x, 1, p0)
    ref = 2.0 * x[0] * x[1] + 2.0 * x[0] * (-2.0 * k * (x[0] - x[1]))
    assert val == pytest.approx(ref, rel=1e-7)


def test_abep_conserves_edge_energy():
    x = np.array([0.7, 1.1])
    p = ModelParams(q=1.0, k=0.75, sigma=0.8, L=2)
    val = models.abep_generator_apply(lambda y: float(y.sum()), x, 1, p)
    assert abs(val) < 1e-8


def _theta_edge(x, i, params):
    """Instantaneous energy flow across edge i of the asymmetric energy
    diffusion, ``-((1 - e^(-2 sigma u))(e^(2 sigma v) - 1) + 2k((1 -
    e^(-2 sigma u)) - (e^(2 sigma v) - 1))) / (2 sigma)`` with (u, v) the
    edge's energies, so that the generator applied to x_i gives
    ``theta(x, i) - theta(x, i - 1)``."""
    u, v, k, sigma = x[i - 1], x[i], params.k, params.sigma
    eu, ev = -math.expm1(-2.0 * sigma * u), math.expm1(2.0 * sigma * v)
    return -(eu * ev + 2.0 * k * (eu - ev)) / (2.0 * sigma)


def test_theta_edge_matches_generator_drift():
    # theta is the drift of x_1 under the edge generator
    x = np.array([0.9, 1.3])
    p = ModelParams(q=1.0, k=0.8, sigma=0.6, L=2)
    drift = models.abep_generator_apply(lambda y: float(y[0]), x, 1, p)
    assert drift == pytest.approx(_theta_edge(x, 1, p), rel=1e-7)


def test_adep_fixed_point_closed_form():
    a = b = 1.0
    u, v = models.adep_relax_pair(a, b, 1.0)
    A = 0.5 * math.log(0.5 * (1.0 + math.exp(2.0 * (a + b))))
    assert u == pytest.approx(A, abs=1e-8)
    assert v == pytest.approx(a + b - A, abs=1e-8)


def test_dep_fixed_point_is_equal_split():
    # the symmetric flow is the adep kind at sigma = 0
    u, v = models.adep_relax_pair(1.5, 0.5, 0.0)
    assert u == pytest.approx(1.0, abs=1e-9)
    assert v == pytest.approx(1.0, abs=1e-9)


def test_tadep_fixed_point_all_left():
    u, v = models.adep_relax_pair(1.0, 1.0, 1.0, kind="tadep")
    assert u == pytest.approx(2.0, abs=1e-8)
    assert v == pytest.approx(0.0, abs=1e-8)


def _rk45_pair(a, b, sigma, t, kind):
    def rhs(_, y):
        w = models.adep_velocity(y[0], y[1], sigma, kind)
        return [w, -w]

    sol = solve_ivp(rhs, (0.0, t), [a, b], rtol=1e-12, atol=1e-13)
    return sol.y[:, -1]


@pytest.mark.parametrize("kind", ["adep", "tadep", "dep"])
@pytest.mark.parametrize("a,b,sigma", [(1.0, 1.0, 1.0), (0.3, 2.0, 0.5),
                                       (2.5, 0.1, 1.7), (0.0, 1.2, 0.8)])
def test_closed_form_flow_matches_rk45(kind, a, b, sigma):
    if kind == "dep":   # the symmetric flow: adep at sigma = 0
        kind, sigma = "adep", 0.0
    ts = np.array([0.0, 0.25, 1.0, 3.0])
    u, v = models.adep_relax_pair(a, b, sigma, ts, kind)
    assert u[0] == pytest.approx(a, abs=1e-15)
    assert v[0] == pytest.approx(b, abs=1e-15)
    for j, t in enumerate(ts[1:], start=1):
        ref = _rk45_pair(a, b, sigma, t, kind)
        assert abs(u[j] - ref[0]) < 1e-10 and abs(v[j] - ref[1]) < 1e-10
    assert np.abs(u + v - (a + b)).max() < 1e-14


def test_adep_flow_at_sigma_zero_is_dep():
    # u' = S - 2u: the equal split is approached at rate 2
    u0, v0 = models.adep_relax_pair(1.5, 0.5, 0.0, 0.7)
    u1 = 1.5 + 0.5 * (0.5 - 1.5) * -math.expm1(-1.4)
    assert (u0, v0) == (u1, 2.0 - u1)
    # and the sigma > 0 flow tends to it
    u2, _ = models.adep_relax_pair(1.5, 0.5, 1e-7, 0.7)
    assert u2 == pytest.approx(u1, rel=1e-6)


def test_flow_rejects_bad_input():
    for args, kw in (((-1.0, 1.0, 1.0), {}), ((1.0, 1.0, -0.5), {}),
                     ((1.0, 1.0, math.nan), {}),
                     ((1.0, 1.0, 0.0), {"kind": "tadep"}),
                     ((1.0, 1.0, 1.0), {"kind": "nope"})):
        with pytest.raises(ValueError):
            models.adep_relax_pair(*args, **kw)


@given(st.floats(min_value=0.1, max_value=0.95),
       st.floats(min_value=0.3, max_value=2.0),
       st.integers(min_value=0, max_value=3),
       st.integers(min_value=0, max_value=3))
@settings(max_examples=100, deadline=None)
def test_rates_nonnegative(q, k, na, nb):
    p = ModelParams(q=q, k=k)
    r, l = models.asip_edge_rates(np.array([na, nb]), 1, p)
    assert r >= 0.0 and l >= 0.0
    assert (r == 0.0) == (na == 0)
    assert (l == 0.0) == (nb == 0)


# Reference: the per-state, per-edge loop that built the sector generators
# before the rate tables and the closed-form rank.  The new code feeds the
# same (row, column, rate) triples in the same order, so the CSR arrays
# must agree byte for byte.

def _move_particle(eta, i, j):
    """Copy of eta with one particle moved from site i to site j
    (1-based)."""
    out = eta.copy()
    out[i - 1] -= 1
    out[j - 1] += 1
    return out


def _ref_build_generator(sector, model, params):
    rate_fn = _RATE_FNS[model]
    index = {tuple(c): j for j, c in enumerate(sector.configs.tolist())}
    rows, cols, rates = [], [], []
    for a, eta in enumerate(sector.configs):
        ev = np.asarray(eta)
        for i in range(1, params.n_edges + 1):
            si, sj = params.edge_sites(i)
            r_right, r_left = rate_fn(ev, i, params)
            if r_right > 0:
                tgt = index[tuple(_move_particle(ev, si, sj).tolist())]
                rows.append(a); cols.append(tgt); rates.append(r_right)
            if r_left > 0:
                tgt = index[tuple(_move_particle(ev, sj, si).tolist())]
                rows.append(a); cols.append(tgt); rates.append(r_left)
    return models.SparseRateMatrix(len(sector), rows, cols, rates)


@pytest.mark.parametrize("boundary", ["closed", "periodic"])
@pytest.mark.parametrize("model", ["asip", "sip", "qtazrp"])
def test_generator_matches_per_entry_loop_bit_for_bit(model, boundary):
    for L in range(2, 7):
        for N in range(0, 7):
            sec = cs.enumerate_sector(L, N)
            for q, k in ((0.8, 0.5), (0.55, 1.5), (0.97, 0.3), (1.0, 0.75),
                         (0.3, 2.3)):
                p = ModelParams(q=q, k=k, L=L, boundary=boundary)
                new = models.build_generator(sec, model, p).matrix
                ref = _ref_build_generator(sec, model, p).matrix
                for name in ("indptr", "indices", "data"):
                    a, b = getattr(new, name), getattr(ref, name)
                    assert a.dtype == b.dtype
                    assert a.tobytes() == b.tobytes(), (L, N, q, k, name)


# Reference: the five scipy passes that built every generator before the
# direct CSR assembly (COO to CSR, sum_duplicates, row sums, + diags,
# tocsr); the new build must give the same CSR arrays byte for byte.

def _ref_sparse_rate_matrix(dimension, rows, cols, rates):
    rates = np.asarray(rates, dtype=float)
    off = sparse.csr_matrix((rates, (rows, cols)),
                            shape=(dimension, dimension))
    off.sum_duplicates()
    diag = -np.asarray(off.sum(axis=1)).ravel()
    return (off + sparse.diags(diag)).tocsr()


def _assert_same_csr(new, ref, where):
    for name in ("indptr", "indices", "data"):
        a, b = getattr(new, name), getattr(ref, name)
        assert a.dtype == b.dtype, (where, name)
        assert a.tobytes() == b.tobytes(), (where, name)


@pytest.mark.parametrize("boundary", ["closed", "periodic"])
@pytest.mark.parametrize("model", ["asip", "sip", "qtazrp", "th_asip"])
def test_sparse_rate_matrix_matches_scipy_passes_bit_for_bit(
        model, boundary, monkeypatch):
    triples = []

    class Recording(models.SparseRateMatrix):
        def __init__(self, *args):
            triples.append(args)
            super().__init__(*args)

    monkeypatch.setattr(models, "SparseRateMatrix", Recording)
    rng = np.random.default_rng(7)
    for L in range(2, 7):
        for N in range(0, 7):
            sec = cs.enumerate_sector(L, N)
            for q, k in ((0.8, 0.5), (0.55, 1.5), (1.0, 0.75)):
                p = ModelParams(q=q, k=k, L=L, boundary=boundary)
                triples.clear()
                new = models.build_generator(sec, model, p).matrix
                dim, rows, cols, rates = triples[0]
                where = (L, N, q, k)
                _assert_same_csr(
                    new, _ref_sparse_rate_matrix(dim, rows, cols, rates),
                    where)
                shuffle = rng.permutation(len(rows))
                _assert_same_csr(
                    Recording(dim, rows[shuffle], cols[shuffle],
                              rates[shuffle]).matrix,
                    _ref_sparse_rate_matrix(dim, rows[shuffle],
                                            cols[shuffle], rates[shuffle]),
                    where + ("shuffled",))


def test_sparse_rate_matrix_drops_zero_rates_and_sums_pairs_like_scipy():
    # explicit zero rates, duplicate pairs and rows with no moves, as
    # neither generator builder makes them
    rng = np.random.default_rng(3)
    for dim in (1, 2, 5, 40):
        for _ in range(20):
            # distinct off-diagonal pairs, some given twice: the sum of a
            # pair does not depend on its order, that of three would
            pairs = np.unique(rng.integers(0, dim, (3 * dim, 2)), axis=0)
            pairs = pairs[pairs[:, 0] != pairs[:, 1]]
            pairs = rng.permutation(np.concatenate([pairs, pairs[::3]]))
            rows, cols = pairs.T
            rates = rng.random(len(rows)) * 10.0 ** rng.integers(-3, 3,
                                                                 len(rows))
            rates[rng.random(len(rows)) < 0.2] = 0.0
            _assert_same_csr(
                models.SparseRateMatrix(dim, rows, cols, rates).matrix,
                _ref_sparse_rate_matrix(dim, rows, cols, rates), dim)


# Reference: the per-entry loop that measured detailed balance before the
# vectorized pass; both must return the same float bit for bit.

def _ref_detailed_balance_residual(sector, model, params, mu,
                                   scale=1e-300):
    gen = models.build_generator(sector, model, params)
    coo = gen.matrix.tocoo()
    worst = 0.0
    for r, c, v in zip(coo.row, coo.col, coo.data):
        if r == c or v <= 0:
            continue
        flow = mu[r] * v
        back = mu[c] * gen.matrix[c, r]
        worst = max(worst, abs(flow - back) / max(scale, abs(flow)))
    return worst


@pytest.mark.parametrize("model,q", [("asip", 0.8), ("asip", 0.55),
                                     ("sip", 1.0)])
def test_detailed_balance_matches_per_entry_loop_bit_for_bit(model, q):
    k = 0.75
    for L in (3, 4, 5):
        p = ModelParams(q=q, k=k, L=L)
        alpha = 0.3 * models.alpha_max(p)
        for N in range(0, 5):
            sec = cs.enumerate_sector(L, N)
            weights = {
                "reversible": models.asip_product_measure(sec.configs, p,
                                                          alpha),
                "skewed": 1.0 + (sec.configs @ np.arange(1, L + 1)) ** 1.5,
            }
            for name, mu in weights.items():
                new = models.detailed_balance_residual(sec, model, p, mu)
                ref = _ref_detailed_balance_residual(sec, model, p, mu)
                assert type(new) is float
                assert np.float64(new).tobytes() == \
                    np.float64(ref).tobytes(), (L, N, name)


def test_generator_rejects_unknown_model_and_length_mismatch():
    sec = cs.enumerate_sector(3, 2)
    with pytest.raises(ValueError):
        models.build_generator(sec, "nope", ModelParams(q=0.8, k=0.5, L=3))
    with pytest.raises(ValueError):
        models.build_generator(sec, "asip", ModelParams(q=0.8, k=0.5, L=4))
