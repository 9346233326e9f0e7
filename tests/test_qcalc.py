"""Deformed arithmetic: frozen-value oracles, independent high-precision
cross-checks, and structural identities."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from asymtransport import qcalc

QS = st.floats(min_value=0.05, max_value=0.999)


def test_check_q_rejects_out_of_range():
    with pytest.raises(ValueError):
        qcalc.check_q(0.0)
    with pytest.raises(ValueError):
        qcalc.check_q(1.2)
    qcalc.check_q(1.0)


def test_q_number_frozen_values():
    # [3]_q at q = 1/2: (1/8 - 8)/(1/2 - 2) = 5.25
    assert qcalc.q_number(3, 0.5) == pytest.approx(5.25, abs=1e-14)
    assert qcalc.q_number(0, 0.7) == 0.0
    assert qcalc.q_number(1, 0.3) == pytest.approx(1.0, abs=1e-15)
    assert qcalc.q_number(5, 1.0) == 5.0


@pytest.mark.parametrize("shape", [(), (0,), (7,), (5, 625)])
@pytest.mark.parametrize("q", [0.8458396341622736, 0.3, 1.0])
def test_q_power_is_the_scalar_power_of_every_entry(q, shape):
    # a few exponents repeated many times, both signed zeros among them,
    # as in the duality tables
    pool = [0.0, -0.0, 1.0, -3.5, 2.25, 17.0, -40.125, 1e-3]
    e = np.resize(pool, int(np.prod(shape)))
    np.random.default_rng(1).shuffle(e)
    e = e.reshape(shape)
    got = qcalc.q_power(q, e)
    ref = np.array([q ** v for v in e.ravel().tolist()], dtype=float)
    assert got.shape == shape and got.dtype == np.float64
    assert got.tobytes() == ref.tobytes()
    assert qcalc.q_power(q, -0.0).tobytes() == np.float64(1.0).tobytes()


def test_q_binomial_frozen():
    # (4 choose 2)_q at q = 1/2: [4][3]/([2][1]) = 10.625*5.25/2.5
    assert qcalc.q_binomial(4, 2, 0.5) == pytest.approx(22.3125, abs=1e-10)
    assert qcalc.q_binomial(3, 0, 0.5) == 1.0
    assert qcalc.q_binomial(2, 5, 0.5) == 0.0
    assert qcalc.q_binomial(4, -1, 0.5) == 0.0


def test_q_binomial_real_upper_index():
    # product form works for non-integer upper index
    val = qcalc.q_binomial(2.5, 2, 0.8)
    ref = qcalc.q_number(1.5, 0.8) * qcalc.q_number(2.5, 0.8) \
        / (qcalc.q_number(1, 0.8) * qcalc.q_number(2, 0.8))
    assert val == pytest.approx(ref, rel=1e-14)


def test_q_pochhammer_frozen():
    # (1/2; 1/4)_2 = (1 - 1/2)(1 - 1/8)
    assert qcalc.q_pochhammer(0.5, 0.25, 2) == pytest.approx(0.4375,
                                                             abs=1e-15)
    assert qcalc.q_pochhammer(0.3, 0.5, 0) == 1.0


@given(st.integers(min_value=0, max_value=40), QS)
@settings(max_examples=200, deadline=None)
def test_q_number_alternate_form(n, q):
    # [n]_q = q^(1-n) (1 - q^(2n)) / (1 - q^2)
    ref = q ** (1 - n) * (1.0 - q ** (2 * n)) / (1.0 - q * q)
    assert qcalc.q_number(n, q) == pytest.approx(ref, rel=1e-12)


@pytest.mark.parametrize("q", [0.9990000001, 0.9995, 1 - 1e-8,
                               math.nextafter(1.0, 0.0)])
def test_q_number_near_q_one_against_mpmath(q):
    # the naive difference cancels to [1] = 1/3 at the last float below 1
    for n in (0.5, 1, 3, 7.5, 40):
        with mpmath.workdps(40):
            Q = mpmath.mpf(q)
            ref = float((Q ** n - Q ** -n) / (Q - 1 / Q))
        assert qcalc.q_number(n, q) == pytest.approx(ref, rel=1e-14)


@given(st.integers(min_value=0, max_value=12),
       st.integers(min_value=0, max_value=12), QS)
@settings(max_examples=200, deadline=None)
def test_q_binomial_pascal(n, m, q):
    # q-Pascal rule with the symmetric q-numbers:
    # C(n+1, m) = q^m C(n, m) + q^(m - n - 1) C(n, m - 1)
    lhs = qcalc.q_binomial(n + 1, m, q)
    rhs = q ** m * qcalc.q_binomial(n, m, q) \
        + q ** (m - n - 1) * qcalc.q_binomial(n, m - 1, q)
    assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-10)


@given(st.integers(min_value=0, max_value=30), QS)
@settings(max_examples=200, deadline=None)
def test_curly_vs_square_bracket(n, q):
    # {n}_(q^2) = [n]_q q^(n-1)
    assert qcalc.curly_q_number(n, q * q) == pytest.approx(
        qcalc.q_number(n, q) * q ** (n - 1), rel=1e-12)


@pytest.mark.parametrize("n,t", [(0, 0.5), (3, 2.0), (10, 40.0), (25, 90.0),
                                 (-4, 7.0)])
def test_bessel_against_mpmath(n, t):
    # the symmetric walk's displacement law is e^-t I_|n|(t) at rate t/2
    ref = float(mpmath.exp(-t) * mpmath.besseli(abs(n), t))
    assert qcalc.skellam_pmf(n, t / 2.0, t / 2.0) == pytest.approx(
        ref, rel=1e-12)


def test_skellam_against_mpmath():
    mu1, mu2 = 1.7, 2.9
    for m in (-6, -1, 0, 2, 8):
        ref = float(mpmath.exp(-(mu1 + mu2))
                    * (mpmath.mpf(mu1) / mu2) ** (mpmath.mpf(m) / 2)
                    * mpmath.besseli(abs(m), 2 * mpmath.sqrt(mu1 * mu2)))
        assert qcalc.skellam_pmf(m, mu1, mu2) == pytest.approx(ref,
                                                               rel=1e-12)


def test_skellam_degenerate_cases():
    # zero second rate: plain Poisson
    for m in range(5):
        ref = math.exp(-1.3) * 1.3 ** m / math.factorial(m)
        assert qcalc.skellam_pmf(m, 1.3, 0.0) == pytest.approx(ref,
                                                               rel=1e-12)
    assert qcalc.skellam_pmf(-1, 1.3, 0.0) == 0.0
    assert qcalc.skellam_pmf(0, 0.0, 0.0) == 1.0


@pytest.mark.parametrize("mu1,mu2", [(-0.5, 1.0), (1.0, math.nan),
                                     (math.inf, 1.0), (math.nan, math.nan)])
def test_skellam_rejects_bad_rates(mu1, mu2):
    with pytest.raises(ValueError):
        qcalc.skellam_pmf(0, mu1, mu2)


def test_skellam_normalizes():
    ms = np.arange(-80, 81)
    assert qcalc.skellam_pmf(ms, 3.0, 5.0).sum() == pytest.approx(1.0,
                                                                  abs=1e-12)


def test_symmetric_walk_pmf_normalizes_and_is_symmetric():
    ds = np.arange(-100, 101)
    pmf = qcalc.skellam_pmf(ds, 4.0, 4.0)
    assert pmf.sum() == pytest.approx(1.0, abs=1e-12)
    assert pmf[ds == 3] == pytest.approx(pmf[ds == -3], rel=1e-14)
