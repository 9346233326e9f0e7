"""q-deformed arithmetic and the special functions used throughout the package.

Two deformation conventions coexist and must not be mixed up:

* the symmetric q-number ``[n] = (q^n - q^-n)/(q - q^-1)``, used by every
  transition rate, stationary measure and duality function;
* the "curly" number ``{n}_r = (1 - r^n)/(1 - r)``, used only by the
  deformed exponential of ``qalgebra.matrix_q_exp`` (with deformation
  base ``r = q^2``).

All functions accept ``q = 1`` and return the analytic limit instead of
evaluating a 0/0 expression.
"""

import math

import numpy as np
from scipy import special

__all__ = [
    "check_q", "q_number", "q_power", "q_binomial", "q_pochhammer",
    "curly_q_number", "skellam_pmf",
]


def check_q(q):
    """Validate a deformation parameter; q must lie in (0, 1]."""
    q = float(q)
    if not (0.0 < q <= 1.0):
        raise ValueError("q must be in (0, 1], got %r" % (q,))
    return q


def q_number(n, q):
    """Symmetric q-analogue of the number n.

    Parameters
    ----------
    n : int or float
        May be non-integer (rates involve ``[2k + eta]`` with 2k real).
    q : float
        Deformation parameter in (0, 1]; ``q = 1`` returns n itself.

    Returns
    -------
    float
        ``(q**n - q**-n) / (q - 1/q)``, which is invariant under
        ``q -> 1/q`` and reduces to n as q -> 1.

    Above ``q = 0.999`` both differences cancel more than three digits
    (at the last float below 1 they give ``[1] = 1/3``), so there the
    same value is taken as ``sinh(n s) / sinh(s)`` with ``s = -ln q``,
    which keeps full precision up to q = 1.
    """
    q = check_q(q)
    if q == 1.0:
        return float(n)
    if q > 0.999:
        s = -math.log(q)
        return math.sinh(n * s) / math.sinh(s)
    return (q ** n - q ** (-n)) / (q - 1.0 / q)


def q_power(q, exponents):
    """``q ** e`` for every entry of ``exponents``, as a float array of the
    same shape.

    Each entry is the scalar float power, so a table built here matches
    scalar code bit for bit; NumPy's array ``power`` can differ from it in
    the last bit.  The power is taken once per distinct exponent and
    gathered back, since tables repeat a few exponents many times.
    """
    e = np.asarray(exponents, dtype=float)
    values, inverse = np.unique(e.ravel(), return_inverse=True)
    powers = np.array([q ** v for v in values.tolist()], dtype=float)
    return powers[inverse].reshape(e.shape)


def q_binomial(n, m, q):
    """Generalized q-binomial coefficient with integer lower index.

    Parameters
    ----------
    n : int or float
        Upper argument; non-integer values are allowed (the measures use
        ``binom_q(n + 2k - 1, n)`` with 2k not necessarily an integer).
    m : int
        Lower argument. Negative m gives 0; for integer n, m > n gives 0.
    q : float

    Notes
    -----
    Evaluated as ``prod_{j=1..m} [n - m + j] / [j]`` rather than as a ratio
    of q-factorials ``[1][2]...[n]``; the individual factors stay moderate
    where the factorials would overflow.
    """
    if m != int(m):
        raise ValueError("lower argument of q_binomial must be an integer")
    m = int(m)
    if m < 0:
        return 0.0
    out = 1.0
    for j in range(1, m + 1):
        out *= q_number(n - m + j, q) / q_number(j, q)
    return out


def q_pochhammer(a, q, m):
    """Shifted product (a; q)_m = (1 - a)(1 - aq)...(1 - a q^(m-1))."""
    if m != int(m) or m < 0:
        raise ValueError("q_pochhammer needs an integer m >= 0")
    out = 1.0
    for j in range(int(m)):
        out *= 1.0 - a * q ** j
    return out


def curly_q_number(n, r):
    """Asymmetric analogue {n}_r = (1 - r^n)/(1 - r); r = 1 returns n."""
    if r == 1.0:
        return float(n)
    return (1.0 - r ** n) / (1.0 - r)


def skellam_pmf(m, mu1, mu2):
    """pmf of the difference of two independent Poisson counts.

    ``P(m) = e^{-mu1-mu2} (mu1/mu2)^{m/2} I_{|m|}(2 sqrt(mu1 mu2))``.
    Degenerates to a (reflected) Poisson law when either rate vanishes.
    Accepts scalar or array ``m``.  Rejects rates that are negative or not
    finite, so the walker series built on it cannot run on NaN terms.
    """
    if not (0.0 <= mu1 < math.inf and 0.0 <= mu2 < math.inf):
        raise ValueError("Poisson rates must be finite and >= 0, got %r, %r"
                         % (mu1, mu2))
    m = np.asarray(m)
    scalar = m.ndim == 0
    m = np.atleast_1d(m).astype(int)
    if mu2 == 0.0 and mu1 == 0.0:
        out = (m == 0).astype(float)
    elif mu2 == 0.0:
        out = np.zeros(m.shape)
        pos = m >= 0
        out[pos] = np.exp(-mu1 + m[pos] * math.log(mu1)
                          - special.gammaln(m[pos] + 1.0))
    elif mu1 == 0.0:
        out = np.zeros(m.shape)
        neg = m <= 0
        out[neg] = np.exp(-mu2 + (-m[neg]) * math.log(mu2)
                          - special.gammaln(-m[neg] + 1.0))
    else:
        t = 2.0 * math.sqrt(mu1 * mu2)
        with np.errstate(divide="ignore"):
            logi = np.log(special.ive(np.abs(m), t)) + t
        out = np.exp(-(mu1 + mu2) + 0.5 * m * (math.log(mu1) - math.log(mu2))
                     + logi)
    return float(out[0]) if scalar else out

