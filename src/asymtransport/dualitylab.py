"""Duality functions and machine verification of the duality identities.

A duality function D couples two processes through their generators:
``[A D(., xi)](eta) = [B D(eta, .)](xi)``.  On enumerated sectors this is a
finite matrix identity ``Q_eta D = D Q_xi^T`` and can be checked to machine
precision; for the diffusion side the generator is applied by finite
differences and the check is a small-h residual.

Provided duality functions:

* ``d_asip``   -- self-duality kernel of the asymmetric inclusion process,
  in two algebraically equivalent forms;
* ``d_abep``   -- kernel coupling the asymmetric energy diffusion to the
  symmetric inclusion process (all asymmetry sits in the kernel); at
  k = 1/2 it is dual to uniform energy redistribution.
"""

from dataclasses import dataclass
import math

import numpy as np
from scipy.special import gammaln, roots_jacobi

from . import configspace, models, qcalc, thermal
from .configspace import ModelParams, tail_count
from .qcalc import q_binomial, q_pochhammer

__all__ = [
    "CheckReport", "d_asip", "d_abep",
    "dual_occupation", "d_asip_single", "d_asip_multi", "d_asip_matrix",
    "form_conversion_factor",
    "generator_duality_residual", "verify_selfduality_asip",
    "sip_dual_action", "verify_abep_sip_duality", "verify_g_map_conjugation",
    "duality_scaling_limit_check", "thermal_continuous_duality_residual",
]


@dataclass
class CheckReport:
    """Outcome of one identity check: the worst residual observed, the
    acceptance threshold, and the parameters it was computed at."""

    name: str
    params: dict
    residual: float
    threshold: float

    @property
    def passed(self):
        return self.residual < self.threshold

    def __str__(self):
        return "%-32s residual=%.3e threshold=%.1e %s" % (
            self.name, self.residual, self.threshold,
            "ok" if self.passed else "FAIL")


def d_asip(eta, xi, params, form="product"):
    """Self-duality kernel of the asymmetric inclusion process.

    Parameters
    ----------
    eta, xi : array_like of int
        Process and dual configurations of equal length; the kernel
        vanishes unless xi <= eta sitewise.
    params : ModelParams
    form : {"product", "pochhammer"}
        "product" uses ratios of generalized binomials; "pochhammer" uses
        shifted q-products and tail counts.  The two differ by the factor
        ``q^((2k-1)|xi| - |xi|^2)``, constant on every particle-number
        sector, so both satisfy the same duality identity; the closed
        forms below follow the "product" normalization.
    """
    eta = np.asarray(eta, dtype=int)
    xi = np.asarray(xi, dtype=int)
    if eta.shape != xi.shape:
        raise ValueError("eta and xi must have the same length")
    if (xi > eta).any():
        return 0.0
    q, k = params.q, params.k
    out = 1.0
    if form == "product":
        acc = 0  # running sum of xi_m over m < i
        for i0, (n, m) in enumerate(zip(eta, xi)):
            i = i0 + 1
            out *= _site_ratio(n, m, params, form)
            out *= q ** ((n - m) * (2 * acc + m) - 4.0 * k * i * m)
            acc += m
    elif form == "pochhammer":
        for i0, (n, m) in enumerate(zip(eta, xi)):
            i = i0 + 1
            tail = tail_count(eta, i + 1)
            out *= _site_ratio(n, m, params, form)
            out *= q ** ((m - 4.0 * k * i + 2 * tail) * m)
    else:
        raise ValueError("unknown form %r" % (form,))
    return float(out)


def _site_ratio(n, m, params, form):
    """The q-binomial ("product") or shifted q-product ("pochhammer")
    ratio that one site with n particles and m dual particles, m <= n,
    contributes to the kernel.  Callers pass NumPy integers: NumPy
    raises a float to an integer power by its own algorithm, which can
    differ from the float power in the last bit."""
    q, k = params.q, params.k
    if form == "product":
        return q_binomial(n, m, q) / q_binomial(m + 2 * k - 1, m, q)
    return q_pochhammer(q ** (2 * (n - m + 1)), q ** 2, m) \
        / q_pochhammer(q ** (4 * k), q ** 2, m)


def d_abep(x, xi, params):
    """Kernel coupling the asymmetric energy diffusion to the symmetric
    inclusion process: ``prod_i Gamma(2k)/Gamma(2k + xi_i) g_i(x)^xi_i``
    with g the conjugating coordinate map.  Equals the symmetric kernel
    evaluated at g(x)."""
    xi = np.asarray(xi, dtype=int)
    g = configspace.g_map(x, params.sigma)
    k = params.k
    out = 1.0
    for gi, m in zip(g, xi):
        out *= math.exp(gammaln(2.0 * k) - gammaln(2.0 * k + m)) * gi ** m
    return float(out)


def dual_occupation(ells, L):
    """Configuration with one dual particle at each listed (1-based) site."""
    xi = np.zeros(L, dtype=int)
    for l in ells:
        if not 1 <= l <= L:
            raise IndexError("dual site %d out of 1..%d" % (l, L))
        xi[l - 1] += 1
    return xi


def d_asip_single(eta, ell, params):
    """Closed form of the kernel against one dual particle at site ell:
    ``q^-(4 k ell + 1)/(q^2k - q^-2k) (q^(2 N_ell) - q^(2 N_(ell+1)))``."""
    q, k = params.q, params.k
    return q ** (-(4.0 * k * ell + 1.0)) / (q ** (2 * k) - q ** (-2 * k)) \
        * (q ** (2 * tail_count(eta, ell)) - q ** (2 * tail_count(eta, ell + 1)))


def d_asip_multi(eta, ells, params):
    """Closed form against n dual particles at distinct sites ell_1..ell_n."""
    ells = list(ells)
    if len(set(ells)) != len(ells):
        raise ValueError("closed form needs distinct dual sites")
    q, k = params.q, params.k
    n = len(ells)
    out = q ** (-4.0 * k * sum(ells) - n ** 2) / (q ** (2 * k) - q ** (-2 * k)) ** n
    for l in ells:
        out *= q ** (2 * tail_count(eta, l)) - q ** (2 * tail_count(eta, l + 1))
    return float(out)


def d_asip_matrix(sector_eta, sector_xi, params):
    """Kernel as a dense (len eta-sector, len xi-sector) matrix, equal
    entry by entry to the "product" form of ``d_asip``; the other form
    differs from it by a constant on each xi-sector, so either one
    satisfies the duality identity.

    Each entry of ``d_asip`` is a product over sites, in site order, of a
    ratio that depends on (eta_i, xi_i) only and a power of q.  The ratios
    come from one table indexed by (eta_i, xi_i), zero where xi_i > eta_i,
    which gives the kernel its support.  The power of site i depends on
    eta_i and on the column through xi_i and the running sum of xi over
    earlier sites, and comes from one table per site indexed by eta_i and
    the column.  Each site then costs two in-place gather-multiplies.
    """
    eta = sector_eta.configs
    xi = sector_xi.configs
    if eta.shape[1] != xi.shape[1]:
        raise ValueError("eta and xi must have the same length")
    q, k = params.q, params.k
    n_grid, m_grid = np.indices((eta.max() + 1, xi.max() + 1))
    support = m_grid <= n_grid
    ratio = np.zeros(support.shape)
    for n, m in zip(n_grid[support], m_grid[support]):  # NumPy integers
        ratio[n, m] = _site_ratio(n, m, params, "product")
    key = np.arange(int(eta.max()) + 1)[:, None]
    acc = np.zeros(len(xi), dtype=int)  # running sum of xi_m over m < i
    out = np.ones((len(eta), len(xi)))
    for i0 in range(eta.shape[1]):
        i = i0 + 1
        m = xi[:, i0]
        out *= ratio[eta[:, i0][:, None], m[None, :]]
        expo = np.where(key >= m, (key - m) * (2 * acc + m)
                        - 4.0 * k * i * m, 0.0)
        acc += m
        out *= qcalc.q_power(q, expo)[eta[:, i0]]
    return out


def form_conversion_factor(xi, params):
    """Constant relating the two kernel forms on the sector of xi:
    product form = pochhammer form * this factor."""
    n = int(np.sum(xi))
    return params.q ** ((2.0 * params.k - 1.0) * n - n ** 2)


def generator_duality_residual(gen_eta, gen_xi, D):
    """Relative max-abs entry of ``Q_eta D - D Q_xi^T`` (exact duality
    gives 0).  Normalized by the larger of the two products, since kernel
    entries span many orders of magnitude."""
    lhs = gen_eta.matrix @ D
    rhs = D @ gen_xi.matrix.T.toarray()
    scale = max(1.0, float(np.abs(lhs).max()), float(np.abs(rhs).max()))
    return float(np.abs(lhs - rhs).max()) / scale


def verify_selfduality_asip(L, n_eta, n_xi, params, thermal_version=False):
    """Check the self-duality identity at the generator level on the
    (L, n_eta) x (L, n_xi) sector pair."""
    s_eta = configspace.enumerate_sector(L, n_eta)
    s_xi = configspace.enumerate_sector(L, n_xi)
    p = ModelParams(q=params.q, k=params.k, sigma=params.sigma, L=L)
    model = "th_asip" if thermal_version else "asip"
    gen_eta = models.build_generator(s_eta, model, p)
    gen_xi = models.build_generator(s_xi, model, p)
    D = d_asip_matrix(s_eta, s_xi, p)
    res = generator_duality_residual(gen_eta, gen_xi, D)
    return CheckReport(
        name=("thermal-self-duality" if thermal_version else "self-duality"),
        params=dict(L=L, n_eta=n_eta, n_xi=n_xi, q=p.q, k=p.k,
                    form="product"),
        residual=res, threshold=1e-10)


def sip_dual_action(D_of_xi, xi, k):
    """Apply the symmetric inclusion generator to ``xi -> D_of_xi(xi)``:
    sum over edges of rate x (value at the moved configuration - value)."""
    xi = np.asarray(xi, dtype=int)
    L = len(xi)
    base = D_of_xi(xi)
    out = 0.0
    for i in range(1, L):
        a, b = xi[i - 1], xi[i]
        if a > 0:
            out += a * (2 * k + b) * (D_of_xi(_moved(xi, i - 1, i)) - base)
        if b > 0:
            out += (2 * k + a) * b * (D_of_xi(_moved(xi, i, i - 1)) - base)
    return out


def _moved(xi, src0, dst0):
    out = xi.copy()
    out[src0] -= 1
    out[dst0] += 1
    return out


def verify_abep_sip_duality(x, xi, params):
    """Residual of the diffusion-side duality at one point: the edge-sum of
    the diffusion generator applied to ``D(., xi)`` at x, against the
    symmetric inclusion generator applied to ``D(x, .)`` at xi.

    The diffusion side is evaluated by Richardson-extrapolated central
    differences with step 1e-4; the discrete side is exact.
    """
    x = np.asarray(x, dtype=float)
    xi = np.asarray(xi, dtype=int)

    def kernel_at(y):
        return d_abep(y, xi, params)

    lhs = sum(models.abep_generator_apply(kernel_at, x, i, params)
              for i in range(1, len(x)))
    rhs = sip_dual_action(lambda z: d_abep(x, z, params), xi, params.k)
    scale = max(1.0, abs(lhs), abs(rhs))
    return CheckReport(
        name="abep-sip-duality",
        params=dict(sigma=params.sigma, k=params.k, L=len(x)),
        residual=abs(lhs - rhs) / scale, threshold=1e-5)


def verify_g_map_conjugation(f, x, params):
    """Residual of the conjugation identity: applying the symmetric edge
    diffusion (the asymmetric one at sigma = 0) to f at g(x) equals
    applying the asymmetric one to f o g at x, for every edge."""
    x = np.asarray(x, dtype=float)
    gx = configspace.g_map(x, params.sigma)
    symmetric = ModelParams(q=1.0, k=params.k)
    worst = 0.0
    for i in range(1, len(x)):
        lhs = models.abep_generator_apply(f, gx, i, symmetric)
        rhs = models.abep_generator_apply(
            lambda y: f(configspace.g_map(y, params.sigma)), x, i, params)
        worst = max(worst, abs(lhs - rhs) / max(1.0, abs(lhs), abs(rhs)))
    return CheckReport(
        name="g-map-conjugation",
        params=dict(sigma=params.sigma, k=params.k, L=len(x)),
        residual=worst, threshold=1e-5)


def duality_scaling_limit_check(x, xi, sigma, k, n_list):
    """Errors of the discrete kernel, rescaled by ``n^-|xi|`` and evaluated
    at ``floor(n x)`` with ``q = 1 - sigma/n``, against the continuous
    kernel; returns the list of absolute errors along n_list.

    The rescaling constant is ``n^-|xi|``: each dual particle at site i
    contributes a factor ``[floor(n x_i) - m] ~ (n/sigma) sinh(sigma x_i)``
    and the site product of ``sinh(sigma x_i)^xi_i e^(-sigma x_i f_i(xi))``
    equals ``(2 sigma)^|xi|/2^|xi| = sigma^|xi|`` times the continuous
    kernel's ``g_i(x)^xi_i``, so the ``sigma^|xi|`` must not be divided
    out again.
    """
    x = np.asarray(x, dtype=float)
    xi = np.asarray(xi, dtype=int)
    p_cont = ModelParams(q=1.0, k=k, sigma=sigma, L=max(2, len(x)))
    target = d_abep(x, xi, p_cont)
    errors = []
    for n in n_list:
        q = 1.0 - sigma / n
        p = ModelParams(q=q, k=k, L=max(2, len(x)))
        eta = np.floor(n * x).astype(int)
        val = (1.0 / n) ** int(xi.sum()) * d_asip(eta, xi, p, form="pochhammer")
        errors.append(abs(val - target))
    return errors, target


def thermal_continuous_duality_residual(x, xi, params):
    """Edge-wise duality between the thermalized continuous model and the
    thermalized symmetric inclusion process.

    For each edge of energy E the continuous side averages the kernel
    change over the tilted split law.  In the Beta(2k, 2k) coordinate v of
    that law (:mod:`thermal`) the kernel is a polynomial of degree n_tot =
    xi_(i-1) + xi_i, so the Gauss-Jacobi rule with n_tot // 2 + 1 nodes
    averages it exactly.  The discrete side is the q = 1 split law
    (Beta-Binomial) of the dual edge, also exact.
    """
    x = np.asarray(x, dtype=float)
    xi = np.asarray(xi, dtype=int)
    sigma, k = params.sigma, params.k
    worst = 0.0
    base = d_abep(x, xi, params)
    for i in range(1, len(x)):
        E = x[i - 1] + x[i]
        n_tot = int(xi[i - 1] + xi[i])
        lhs = 0.0
        if E > 0:
            nodes, weights = roots_jacobi(n_tot // 2 + 1, 2 * k - 1, 2 * k - 1)
            fractions = thermal._fraction_of_beta(0.5 * (1.0 + nodes),
                                                  thermal._tilt(E, sigma))
            for w, weight in zip(fractions, weights / weights.sum()):
                y = x.copy()
                y[i - 1], y[i] = w * E, (1.0 - w) * E
                lhs += weight * (d_abep(y, xi, params) - base)
        rhs = 0.0
        pmf = thermal.qbetabinom_weights(n_tot, 1.0, k)
        for r in range(n_tot + 1):
            z = xi.copy()
            z[i - 1], z[i] = r, n_tot - r
            rhs += pmf[r] * (d_abep(x, z, params) - base)
        worst = max(worst, abs(lhs - rhs) / max(1.0, abs(lhs), abs(rhs)))
    return CheckReport(
        name="thermal-continuous-duality",
        params=dict(sigma=sigma, k=k, L=len(x)),
        residual=worst, threshold=1e-9)
