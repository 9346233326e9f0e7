"""Exponential current moments and large deviation rate functions."""

import contextlib
import math
import signal

import mpmath as mp
import numpy as np
import pytest

from asymtransport import currents as cur
from asymtransport.cli import main
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


def test_rate_function_far_left_against_mpmath():
    # x + sqrt(x^2 + 4ab) cancels for x << 0; at -1e9 it reached 0
    a, b = cur.walker_rates(0.8, 0.5)
    for x in (-1e9, -1e6, -1e3, -30.0):
        with mp.workdps(50):
            X, A, B = mp.mpf(x), mp.mpf(a), mp.mpf(b)
            s = mp.sqrt(X * X + 4 * A * B)
            ref = float((A + B) - s + X * mp.log((X + s) / (2 * A)))
        assert cur.rate_function(x, a, b) == pytest.approx(ref, rel=1e-14), x


def test_rate_function_near_zero_against_mpmath():
    # (a + b) - sqrt(x^2 + 4ab) cancels as q -> 1 when x is small: at
    # q = 1 - 1e-7 the x = 0 value, the inf cell of `rate`, was 2.1e-2 off
    for q in (0.8, 0.9999, 1.0 - 1e-7):
        for k in (0.5, 1.0):
            a, b = cur.walker_rates(q, k)
            for x in (0.0, 1e-9, -1e-9, 1e-6, -1e-6, 1e-3, 0.1):
                with mp.workdps(50):
                    X, A, B = mp.mpf(x), mp.mpf(a), mp.mpf(b)
                    s = mp.sqrt(X * X + 4 * A * B)
                    ref = float((A + B) - s + X * mp.log((X + s) / (2 * A)))
                assert cur.rate_function(x, a, b) == pytest.approx(
                    ref, rel=1e-13, abs=0.0), (q, k, x)


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
    lambda: cur._walker_tail(3, math.nan, math.nan),
    lambda: cur.q_moment_fixed_config([1, 0, 2], 0, 1, math.inf, P),
    lambda: cur.abep_moment_fixed([1.0, 0.5], 0, 1, math.inf, 0.5, 0.5),
], ids=["product-t-nan", "product-t-inf", "product-mu-nan", "product-mu-inf",
        "fixed-t-nan", "abep-lam-nan", "abep-lam-inf", "abep-t-nan",
        "abep-fixed-t-nan", "walk-tail-nan", "fixed-t-inf",
        "abep-fixed-t-inf"])
def test_series_reject_non_finite_input(call):
    with _deadline(5.0), pytest.raises(ValueError):
        call()


# ------------------------------------------------------ 40-digit references
# Each moment is summed term by term from its defining walker series, in
# 40-digit arithmetic with mp.fsum over an explicit window that reaches
# 14 sd + 60 sites past the mean of the walker law that carries the
# terms; the inputs are the binary floats the code sees.  (mp.nsum is not
# used: its extrapolation returned -7.7e79 at q = 0.5, k = 1.5.)

def _ref_pmf(mu_r, mu_l):
    x = 2 * mp.sqrt(mu_r * mu_l)
    cache = {}

    def pmf(m):
        if m not in cache:
            cache[m] = (mp.exp(-(mu_r + mu_l)) * mp.besseli(abs(m), x)
                        * (mu_r / mu_l) ** (mp.mpf(m) / 2))
        return cache[m]
    return pmf


def _ref_reach(mu_r, mu_l):
    return int(abs(mu_r - mu_l) + 14 * mp.sqrt(mu_r + mu_l) + 60)


def _ref_rates(q, k, t):
    q, k, t = mp.mpf(q), mp.mpf(k), mp.mpf(t)
    base = (q ** (2 * k) - q ** (-2 * k)) / (q - 1 / q)
    return q, k, base * q ** (2 * k) * t, base * q ** (-2 * k) * t


def _ref_q_step(q, k, t, window=40, bond=0):
    # q^(2 sum_(n<bond) eta_n) minus the walker sum over starting points
    q, k, mu_r, mu_l = _ref_rates(q, k, t)
    half = window // 2
    eta = [2] * half + [0] * (window - half)

    def tail(n):  # N_n
        return sum(eta[max(n + half, 0):])

    pmf = _ref_pmf(mu_r, mu_l)
    occ = [m for m in range(-half, window - half) if eta[m + half]]
    weight = {m: q ** (-4 * k * m) * (1 - q ** (-2 * eta[m + half]))
              * q ** (2 * (tail(m) - tail(bond))) for m in occ}
    lowest = min(occ) - _ref_reach(mu_r, mu_l)
    terms = [q ** (4 * k * n) * pmf(m - n) * weight[m]
             for n in range(bond - 1, lowest - 1, -1) for m in occ]
    return q ** (2 * (tail(-half) - tail(bond))) - mp.fsum(terms)


def _ref_q_product(q, k, t, bernoulli):
    q, k, mu_r, mu_l = _ref_rates(q, k, t)
    b = mp.mpf(bernoulli)
    lam_q, lam_inv = 1 - b + b * q ** 2, 1 - b + b * q ** -2
    pmf = _ref_pmf(mu_r, mu_l)
    left, right = q ** (-4 * k) / lam_q, q ** (-4 * k) * lam_inv
    lo = -_ref_reach(mu_l / lam_q, mu_r * lam_q)
    hi = _ref_reach(mu_l * lam_inv, mu_r / lam_inv)
    return (mp.fsum(pmf(m) * left ** m for m in range(lo, 1))
            + mp.fsum(pmf(m) * right ** m for m in range(1, hi + 1)))


def _ref_abep_product(lam_plus, lam_minus, t, k):
    rate = 2 * mp.mpf(k) * mp.mpf(t)
    lam_plus, lam_minus = mp.mpf(lam_plus), mp.mpf(lam_minus)
    pmf = _ref_pmf(rate, rate)
    lam = max(lam_plus, 1 / lam_minus)
    return pmf(0) + mp.fsum(pmf(l) * (lam_plus ** l + lam_minus ** l)
                            for l in range(1, _ref_reach(rate * lam,
                                                         rate / lam) + 1))


def _ref_abep_fixed(x_window, window_start, bond, t, k, sigma):
    rate = 2 * mp.mpf(k) * mp.mpf(t)
    x = [mp.mpf(v) for v in x_window]

    def energy(n):  # E_n
        return mp.fsum(x[max(n - window_start, 0):])

    pmf = _ref_pmf(rate, rate)
    reach = _ref_reach(rate, rate) + len(x)
    return mp.fsum(pmf(n - bond) * mp.exp(-2 * sigma * (energy(n)
                                                         - energy(bond)))
                   for n in range(bond - reach, bond + reach + 1))


def _step(q, k, t, window=40, bond=0):
    half = window // 2
    return cur.q_moment_fixed_config([2] * half + [0] * (window - half),
                                     -half, bond, t, ModelParams(q=q, k=k))


def _product(q, k, t, bernoulli):
    return cur.q_moment_product([1.0 - bernoulli, bernoulli], t,
                                ModelParams(q=q, k=k))


ENSEMBLE_MIX = [(0.8, 0.5, 1.0, 0.5), (0.9, 1.0, 1.0, 0.3),
                (0.85, 0.5, 1.2, 0.5)]
TILT = (math.exp(1.0), math.exp(-1.0))  # the energy-product defaults
REFERENCE_POINTS = [
    # mc_step pool (W = 40, bond 0; the first is also the golden file's)
    (_step, _ref_q_step, (0.8, 0.5, 1.0), 1e-13),
    (_step, _ref_q_step, (0.85, 1.0, 1.0), 1e-13),
    (_step, _ref_q_step, (0.9, 1.0, 0.75), 1e-13),
    (_step, _ref_q_step, (0.8, 0.5, 1.0, 40, 5), 1e-13),
    (_step, _ref_q_step, (0.8, 0.5, 1.0, 40, -5), 1e-13),
    # ensemble_mix pool, and the golden file's q-product arguments
    *[(_product, _ref_q_product, args, 1e-13) for args in ENSEMBLE_MIX],
    (_product, _ref_q_product, (0.8, 0.5, 1.0, 0.4), 1e-13),
    # the energy-product defaults, and a pair off the diagonal
    (cur.abep_moment_product, _ref_abep_product, TILT + (1.0, 0.5), 1e-13),
    (cur.abep_moment_product, _ref_abep_product, (1.3, 0.9, 2.0, 0.75),
     1e-13),
    (cur.abep_moment_fixed, _ref_abep_fixed,
     (np.full(160, 1.0), -80, 0, 1.0, 0.5, 0.5), 1e-13),
    (cur.abep_moment_fixed, _ref_abep_fixed,
     (np.array([1.0, 0.5, 2.0, 0.0, 3.0]), -2, 1, 0.8, 0.75, 0.4), 1e-13),
    # the homogeneous profile of test_continuous_fixed_window_homogeneous:
    # E_n and E_bond are both near 140 there
    (cur.abep_moment_fixed, _ref_abep_fixed,
     (np.full(400, 0.7), -200, 0, 1.3, 0.5, 1.0), 1e-13),
    # strongly asymmetric walkers; the q-step moments there read 1
    (_step, _ref_q_step, (0.5, 2.0, 3.0), 1e-12),
    (_step, _ref_q_step, (0.5, 2.0, 1.0), 1e-12),
    (_step, _ref_q_step, (0.6, 2.0, 3.0), 1e-12),
    (_product, _ref_q_product, (0.5, 1.5, 3.0, 0.7), 1e-12),
]


@pytest.mark.parametrize("moment,reference,args,rel", REFERENCE_POINTS, ids=[
    "%s(%s)" % (moment.__name__.strip("_"), ",".join(
        "%.4g" % a for a in args if not isinstance(a, np.ndarray)))
    for moment, _, args, _ in REFERENCE_POINTS])
def test_moments_match_40_digit_references(moment, reference, args, rel):
    with mp.workdps(40):
        ref = reference(*args)
    value = moment(*args)
    assert abs(value - ref) <= rel * abs(ref), (value, mp.nstr(ref, 20))


@pytest.mark.parametrize("q,k,t", [(0.5, 2.0, 1.0), (0.6, 2.0, 3.0),
                                   (0.5, 2.0, 3.0), (0.5, 2.0, 10.0)])
def test_step_moment_reads_one_at_strong_asymmetry(q, k, t):
    # the walker pmf carries rounding shared by its whole window, which the
    # window's mass takes out; at t = 3 the Bessel factor underflows over
    # the window, at t = 10 to an exact 0, and only its ends are used
    assert abs(_step(q, k, t) - 1.0) <= 1e-15


@pytest.mark.parametrize("call", [
    lambda: _product(0.5, 1.5, 6.0, 0.99),
    lambda: cur.abep_moment_product(math.exp(20.0), math.exp(-20.0), 1.0,
                                    0.5),
    lambda: cur.abep_moment_fixed(np.full(640, 2.0), -320, 0, 1.0, 0.5, 1.0),
    lambda: _step(0.5, 0.5, 1.0, 1000, -499),
], ids=["product", "abep-product", "abep-fixed", "step"])
def test_moments_past_the_float_range_raise(call):
    with pytest.raises(ValueError):
        call()


def test_moment_on_an_underflowing_walker_law_is_refused():
    # Skellam(153, 6e-6): the Bessel factor of its pmf underflows over the
    # window, and the tail at 1 falls inside it
    with pytest.raises(ValueError):
        _product(0.1, 1.0, 0.003, 0.5)


@pytest.mark.parametrize("q,k,t,bernoulli", ENSEMBLE_MIX)
def test_product_series_converges_at_the_ensemble_mix_slots(q, k, t,
                                                             bernoulli):
    with mp.workdps(40):
        ref = _ref_q_product(q, k, t, bernoulli)
    series = cur.q_moment_product_series([1.0 - bernoulli, bernoulli], t,
                                         ModelParams(q=q, k=k))
    assert abs(series - ref) <= 1e-13 * abs(ref)


def test_product_series_raises_past_its_cap():
    # lam_q = 1 - 3.6e-7: the terms decay too slowly to stop
    with pytest.raises(RuntimeError):
        cur.q_moment_product_series([1.0 - 1e-6, 1e-6], 1.0, P)


@pytest.mark.parametrize("formula,most", [("q-step", 1), ("q-product", 2)])
def test_current_request_evaluates_the_walker_pmf_once_per_law(
        tmp_path, monkeypatch, formula, most):
    calls = []

    def counted(*args):
        calls.append(args)
        return skellam_pmf(*args)

    monkeypatch.setattr(cur, "skellam_pmf", counted)
    out = tmp_path / "cur.csv"
    assert main(["current", "--formula", formula, "--q", "0.8", "--k", "0.5",
                 "--t", "1.0", "--window", "40", "--replicas", "8",
                 "--seed", "1", "--out", str(out)]) == 0
    assert 1 <= len(calls) <= most


@pytest.mark.parametrize("argv", [
    ["--formula", "q-step", "--q", "0.5", "--k", "2", "--t", "1"],
    ["--formula", "q-step", "--q", "0.6", "--k", "2", "--t", "3"],
    ["--formula", "q-product", "--q", "0.5", "--k", "1.5", "--t", "3",
     "--bernoulli", "0.7"],
    ["--formula", "q-product", "--q", "0.05", "--k", "3", "--t", "5"],
], ids=["step-q0.5-t1", "step-q0.6-t3", "product-q0.5-k1.5", "product-q0.05"])
def test_extreme_current_input_ends_in_a_row_or_a_message(tmp_path, argv):
    out = tmp_path / "cur.csv"
    with _deadline(5.0):
        try:
            code = main(["current"] + argv + ["--replicas", "16", "--seed",
                                              "1", "--out", str(out)])
        except SystemExit as exc:
            assert isinstance(exc.code, str) and not out.exists()
            return
    assert code == 0
    row = out.read_text().splitlines()[1].split(",")
    assert all(math.isfinite(float(v)) for v in row[2:])
