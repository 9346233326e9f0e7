"""Exponential current moments and large deviation rate functions."""

import contextlib
import math
import signal

import numpy as np
import pytest

from asymtransport import currents as cur
from asymtransport.configspace import ModelParams
from asymtransport.qcalc import skellam_pmf

P = ModelParams(q=0.8, k=0.5)


def test_rate_function_zero_at_mean_velocity():
    a, b = 1.3, 0.4
    assert cur.rate_function(a - b, a, b) == pytest.approx(0.0, abs=1e-13)


def test_rate_function_nonnegative():
    a, b = cur.walker_rates(0.8, 0.5)
    for x in np.linspace(-3, 5, 41):
        assert cur.rate_function(x, a, b) >= -1e-13


def test_rate_function_matches_legendre_transform():
    a, b = cur.walker_rates(0.8, 0.5)
    for x in np.linspace(0.0, 4.0, 20):
        exact = cur.rate_function(x, a, b)
        num = cur.rate_function_legendre(x, a, b)
        assert abs(exact - num) < 1e-8


def test_symmetric_rate_function():
    # the symmetric rate-2k walker's closed form
    k = 0.5
    for x in (0.0, 0.7, 2.1):
        ref = 4 * k - math.sqrt(x * x + 16 * k * k) + x * math.log(
            (x + math.sqrt(x * x + 16 * k * k)) / (4 * k))
        assert cur.rate_function(x, 2 * k, 2 * k) == pytest.approx(ref,
                                                                   rel=1e-13)


def test_leftward_drift_infimum():
    # a < b: the constrained infimum over x >= 0 sits at 0 with value
    # (sqrt a - sqrt b)^2
    a, b = 1.0, 2.0
    ref = (math.sqrt(a) - math.sqrt(b)) ** 2
    assert cur.rate_function(0.0, a, b) == pytest.approx(ref, rel=1e-12)
    xs = np.linspace(0.0, 3.0, 301)
    vals = [cur.rate_function(x, a, b) for x in xs]
    assert min(vals) == pytest.approx(ref, abs=1e-4)


def test_growth_rate_against_grid_search():
    a, b = cur.walker_rates(0.8, 0.5)
    c = math.log(0.8 ** -2.0 * 1.28125)
    xs = np.linspace(0.0, 50.0, 200001)
    grid = np.max(xs * c - np.array([cur.rate_function(x, a, b)
                                     for x in xs]))
    assert cur.growth_rate(c, a, b) == pytest.approx(grid, abs=1e-6)


def test_marginal_factors():
    lam_q, lam_inv = cur.marginal_q_factors([0.5, 0.5], 0.8)
    assert lam_q == pytest.approx(0.82, rel=1e-14)
    assert lam_inv == pytest.approx(1.28125, rel=1e-14)
    with pytest.raises(ValueError):
        cur.marginal_q_factors([0.5, 0.6], 0.8)


def test_fixed_config_moment_at_time_zero():
    eta = [2] * 10 + [0] * 5
    val = cur.q_moment_fixed_config(eta, -10, 0, 1e-12, P)
    assert val == pytest.approx(1.0, abs=1e-9)


def test_fixed_config_moment_empty_window():
    assert cur.q_moment_fixed_config([0, 0, 0], -1, 0, 1.0, P) == 1.0


def test_product_moment_point_mass_at_zero():
    assert cur.q_moment_product([1.0], 1.5, P) == pytest.approx(1.0,
                                                                abs=1e-12)


def test_product_moment_matches_direct_series():
    mu = [0.5, 0.5]
    for t in (0.3, 1.0, 2.0):
        compact = cur.q_moment_product(mu, t, P)
        series = cur.q_moment_product_series(mu, t, P)
        assert compact == pytest.approx(series, rel=1e-12)


def test_moments_need_strict_asymmetry():
    with pytest.raises(ValueError):
        cur.q_moment_product([1.0], 1.0, ModelParams(q=1.0, k=0.5))


def test_growth_rate_slope_is_approached():
    # log E[q^(2J(t))]/t approaches the variational growth rate
    mu = [0.5, 0.5]
    limit = cur.growth_rate_discrete(mu, 0.8, 0.5)
    slope = math.log(cur.q_moment_product(mu, 40.0, P)) / 40.0
    assert abs(slope - limit) / limit < 0.1


def test_continuous_point_mass_consistency():
    # homogeneous profile: the product form equals the direct walker sum
    k, sigma, c, t = 0.5, 1.0, 0.7, 1.3
    ds = np.arange(-200, 201)
    direct = float(np.sum(skellam_pmf(ds, 2 * k * t, 2 * k * t)
                          * np.exp(2 * sigma * c * ds)))
    prod = cur.abep_moment_product(math.exp(2 * sigma * c),
                                   math.exp(-2 * sigma * c), t, k)
    assert abs(direct - prod) < 1e-10


def test_continuous_fixed_window_homogeneous():
    k, sigma, c, t = 0.5, 1.0, 0.7, 1.3
    ds = np.arange(-200, 201)
    direct = float(np.sum(skellam_pmf(ds, 2 * k * t, 2 * k * t)
                          * np.exp(2 * sigma * c * ds)))
    fixed = cur.abep_moment_fixed(np.full(400, c), -200, 0, t, k, sigma)
    assert abs(fixed - direct) < 1e-9


def test_continuous_moment_zero_profile():
    assert cur.abep_moment_fixed([0.0] * 8, -4, 0, 1.0, 0.5, 1.0) == \
        pytest.approx(1.0, abs=1e-12)
    assert cur.abep_moment_product(1.0, 1.0, 1.3, 0.5) == pytest.approx(
        1.0, abs=1e-12)


def test_continuous_growth_rate():
    # growth of E[e^(-2 sigma J)] under a product law, lam+ = E[e^(2 sigma x)]
    lam_plus = 1.2
    k = 0.5
    limit = cur.growth_rate(math.log(lam_plus), 2 * k, 2 * k)
    # symmetric walker: sup at x* = 2k(lam+ - 1/lam+) >= 0, value
    # 2k(lam+ + 1/lam+ - 2)
    ref = 2 * k * (lam_plus + 1.0 / lam_plus - 2.0)
    assert limit == pytest.approx(ref, rel=1e-12)


def test_param_hash_stable_and_distinct():
    a = cur.param_hash("q-step", 0.8, 0.5)
    assert a == cur.param_hash("q-step", 0.8, 0.5)
    assert a != cur.param_hash("q-step", 0.8, 0.6)
    assert len(a) == 12


def test_comparison_row_z_score():
    row = cur.comparison_row("f", "h", 1.0, 0.9, 0.05)
    assert row["z"] == pytest.approx(2.0)


@contextlib.contextmanager
def _deadline(seconds):
    """Raise TimeoutError in the calling (main) thread after ``seconds``,
    so that a series loop that never stops fails the test instead of
    hanging it."""
    def expire(signum, frame):
        raise TimeoutError("no return within %g s" % seconds)

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("call", [
    lambda: cur.q_moment_product([0.5, 0.5], math.nan, P),
    lambda: cur.q_moment_product([0.5, 0.5], math.inf, P),
    lambda: cur.q_moment_product([math.nan, math.nan], 1.0, P),
    lambda: cur.q_moment_product([0.5, math.inf], 1.0, P),
    lambda: cur.q_moment_fixed_config([1, 0, 2], 0, 1, math.nan, P),
    lambda: cur.abep_moment_product(math.nan, 1.0, 1.0, 0.5),
    lambda: cur.abep_moment_product(1.2, math.inf, 1.0, 0.5),
    lambda: cur.abep_moment_product(1.2, 0.8, math.nan, 0.5),
    lambda: cur.abep_moment_fixed([1.0, 0.5], 0, 1, math.nan, 0.5, 0.5),
    lambda: cur._walk_tail(3, math.nan, "left"),
], ids=["product-t-nan", "product-t-inf", "product-mu-nan", "product-mu-inf",
        "fixed-t-nan", "abep-lam-nan", "abep-lam-inf", "abep-t-nan",
        "abep-fixed-t-nan", "walk-tail-nan"])
def test_series_reject_non_finite_input(call):
    with _deadline(5.0), pytest.raises(ValueError):
        call()
