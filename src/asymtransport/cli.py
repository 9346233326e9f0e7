"""Command line interface: identity verification suites, exact-simulation
runs, current-moment tables, rate-function grids, and redistribution
sampler diagnostics.

All numeric output is CSV with fixed headers; reports are plain text, one
line per identity.  An identical experiment description + seed gives
byte-identical outputs for any worker count.
"""

import argparse
import configparser
import functools
import math
import os
import sys
from dataclasses import dataclass, fields

import numpy as np

from . import (configspace, currents, dualitylab, engine, models, qalgebra,
               qcalc, thermal)
from .configspace import ModelParams
from .dualitylab import CheckReport

__all__ = ["main", "ExperimentSpec", "SUITES"]

SUITES = ("duality", "algebra", "measures", "thermal", "limits")

# The values each command's choice fields take, shared by the flags and
# the config-file loader.
CHOICES = {
    "verify": {"suite": SUITES + ("all",)},
    "simulate": {"model": ("asip", "sip", "qtazrp")},
    "current": {"formula": ("q-step", "q-product", "energy-product")},
    "rate": {"model": ("asip", "sip")},
    "thermalize": {"sampler": ("qbetabinom", "tilted-beta", "kmp")},
}

STOCHASTIC_COMMANDS = ("simulate", "current", "thermalize")

EXP_MAX = math.log(sys.float_info.max)  # the largest x math.exp takes

# Largest occupancy an edge-rate table covers: (n + 1)^2 entries, one
# rate call each, 16 MB for the pair at n = 1000.
TABLE_MAX = 1000

# Most jump events a simulate or current request may expect: a few
# minutes of event loop at about 2 us an event (blocks of 48 replicas).
EVENT_BUDGET = 1e8


@dataclass
class ExperimentSpec:
    """Flat description of one CLI run; round-trips losslessly through the
    sectioned key-value config file format."""

    command: str = "verify"
    suite: str = "duality"
    model: str = "asip"
    q: float = 0.8
    k: float = 0.5
    sigma: float = 0.5
    L: int = 4
    n: int = 3
    init: str = ""
    t: float = 1.0
    bond: int = 0
    window: int = 40
    formula: str = "q-step"
    bernoulli: float = 0.5
    x_min: float = 0.0
    x_max: float = 4.0
    points: int = 21
    sampler: str = "qbetabinom"
    energy: float = 1.0
    bins: int = 20
    samples: int = 10000
    replicas: int = 1000
    seed: int = -1
    workers: int = 1
    perturb_q: float = 0.0
    out: str = "-"

    def save(self, path):
        cp = configparser.ConfigParser()
        cp[self.command] = {
            f.name: repr(getattr(self, f.name)) for f in fields(self)
            if f.name != "command"
        }
        with open(path, "w") as fh:
            cp.write(fh)

    @classmethod
    def load(cls, path, command):
        """The spec of ``command`` from the file's section of that name;
        a value that its flag would reject ends in a usage message."""
        cp = configparser.ConfigParser()
        try:
            found = cp.read(path)
        except configparser.Error as exc:
            raise SystemExit("cannot parse config file %r: %s"
                             % (path, exc)) from None
        if not found:
            raise SystemExit("cannot read config file %r" % path)
        spec = cls(command=command)
        if command not in cp:
            return spec
        for f in fields(cls):
            if f.name == "command" or f.name not in cp[command]:
                continue
            raw = cp[command][f.name]
            try:
                value = raw.strip("'\"") if f.type is str else f.type(raw)
            except ValueError:
                raise SystemExit("config file %r: %s = %s is not of type %s"
                                 % (path, f.name, raw, f.type.__name__)) \
                    from None
            choices = CHOICES[command].get(f.name)
            if choices and value not in choices:
                raise SystemExit("config file %r: %s = %r is not one of %s"
                                 % (path, f.name, value, ", ".join(choices)))
            setattr(spec, f.name, value)
        return spec


def _open_out(path):
    if path in ("-", ""):
        return sys.stdout, False
    return open(path, "w"), True


def _emit(path, lines):
    fh, close = _open_out(path)
    for line in lines:
        fh.write(line + "\n")
    if close:
        fh.close()


def _fmt(x):
    return "%.17g" % float(x)


# ---------------------------------------------------------------- verify

def _suite_duality(p, p_bad):
    """p_bad carries the (possibly perturbed) q used on the kernel side."""
    out = []
    for L, ne, nx in ((3, 3, 2), (4, 4, 3)):
        s_eta = configspace.enumerate_sector(L, ne)
        s_xi = configspace.enumerate_sector(L, nx)
        pl = ModelParams(q=p.q, k=p.k, L=L)
        pl_bad = ModelParams(q=p_bad.q, k=p_bad.k, L=L)
        gen_eta = models.build_generator(s_eta, "asip", pl)
        gen_xi = models.build_generator(s_xi, "asip", pl)
        D = dualitylab.d_asip_matrix(s_eta, s_xi, pl_bad)
        out.append(CheckReport(
            name="self-duality",
            params=dict(L=L, n_eta=ne, n_xi=nx, q=p.q, k=p.k),
            residual=dualitylab.generator_duality_residual(gen_eta, gen_xi, D),
            threshold=1e-10))
    eta = np.array([2, 0, 3])
    xi = np.array([1, 0, 2])
    prod = dualitylab.d_asip(eta, xi, p_bad, form="product")
    poch = dualitylab.d_asip(eta, xi, p, form="pochhammer")
    factor = dualitylab.form_conversion_factor(xi, p)
    out.append(CheckReport(
        name="kernel-form-conversion", params=dict(q=p.q, k=p.k),
        residual=abs(prod - factor * poch) / abs(prod), threshold=1e-12))
    single = dualitylab.d_asip_single(eta, 1, p_bad)
    kernel = dualitylab.d_asip(eta, dualitylab.dual_occupation([1], 3), p)
    out.append(CheckReport(
        name="one-walker-closed-form", params=dict(q=p.q, k=p.k),
        residual=abs(single - kernel) / max(1.0, abs(kernel)),
        threshold=1e-12))
    pc = ModelParams(q=p_bad.q if p_bad.q != p.q else 1.0, k=p.k,
                     sigma=p.sigma, L=3)
    if pc.q == 1.0:
        x = np.array([0.7, 1.1, 0.4])
        out.append(dualitylab.verify_abep_sip_duality(x, xi, pc))
        out.append(dualitylab.verify_g_map_conjugation(
            lambda z: float(z[0] ** 2 * z[1] + z[2]), x, pc))
        errs, _ = dualitylab.duality_scaling_limit_check(
            np.array([1.0, 2.0]), np.array([1, 0]), p.sigma, p.k,
            [100, 1000])
        out.append(CheckReport(
            name="kernel-scaling-limit", params=dict(sigma=p.sigma, k=p.k),
            residual=errs[-1] if errs[-1] < errs[0] else 1.0,
            threshold=1e-2))
    else:
        out.append(CheckReport(
            name="abep-sip-duality", params=dict(q=pc.q),
            residual=abs(pc.q - 1.0), threshold=1e-12))
    return out


def _suite_algebra(p, p_bad):
    L, n_max = 3, 3
    out = []
    rates = qalgebra.derive_generator(L, p_bad.k, p_bad.q, n_max)
    worst = 0.0
    for ne in range(0, n_max + 1):
        sector = configspace.enumerate_sector(L, ne)
        idx = qalgebra.sector_indices(sector, n_max)
        block = rates[np.ix_(idx, idx)]
        ref = models.build_generator(
            sector, "asip", ModelParams(q=p.q, k=p.k, L=L)).matrix.toarray()
        worst = max(worst, np.abs(block - ref).max()
                    / max(1.0, np.abs(ref).max()))
    out.append(CheckReport(
        name="generator-from-hamiltonian", params=dict(L=L, q=p.q, k=p.k),
        residual=worst, threshold=1e-10))

    D = qalgebra.derive_duality(L, p_bad.k, p_bad.q, n_max)
    worst = 0.0
    for ne in range(1, n_max + 1):
        for nx in range(0, ne + 1):
            s_eta = configspace.enumerate_sector(L, ne)
            s_xi = configspace.enumerate_sector(L, nx)
            ref = dualitylab.d_asip_matrix(
                s_eta, s_xi, ModelParams(q=p.q, k=p.k, L=L))
            block = D[np.ix_(qalgebra.sector_indices(s_eta, n_max),
                             qalgebra.sector_indices(s_xi, n_max))]
            worst = max(worst, np.abs(block - ref).max()
                        / max(1.0, np.abs(ref).max()))
    out.append(CheckReport(
        name="duality-from-symmetry", params=dict(L=L, q=p.q, k=p.k),
        residual=worst, threshold=1e-10))

    H = qalgebra.build_hamiltonian(L, p.k, p.q, n_max)
    sym = qalgebra.coproduct_symmetries(L, p.k, p.q, n_max)
    worst = max(qalgebra.sector_symmetry_residual(H, sym[name], L, n_max,
                                                  n_max - 1)
                for name in ("Kplus", "Kminus", "K0", "E", "F"))
    out.append(CheckReport(
        name="hamiltonian-symmetries", params=dict(L=L, q=p.q, k=p.k),
        residual=worst, threshold=1e-10))

    S_exp = qalgebra.splus_from_qexp(L, p.k, p.q, n_max)
    S_cf = qalgebra.splus_closed_form(L, p.k, p.q, n_max)
    out.append(CheckReport(
        name="exponential-symmetry-closed-form",
        params=dict(L=L, q=p.q, k=p.k),
        residual=np.abs(S_exp - S_cf).max() / max(1.0, np.abs(S_cf).max()),
        threshold=1e-10))

    C = qalgebra.casimir_matrix(p.k, p.q, 12)
    scalar = qcalc.q_number(p.k, p.q) * qcalc.q_number(p.k - 1.0, p.q)
    out.append(CheckReport(
        name="casimir-scalar", params=dict(q=p.q, k=p.k),
        residual=np.abs(C - scalar * np.eye(13)).max() / max(1.0, abs(scalar)),
        threshold=1e-10))
    return out


def _suite_measures(p, p_bad):
    out = []
    L, N = 3, 3
    alpha = 0.3 * models.alpha_max(p)
    sector = configspace.enumerate_sector(L, N)
    out.append(CheckReport(
        name="detailed-balance", params=dict(L=L, N=N, q=p.q, k=p.k),
        residual=models.detailed_balance_residual(
            sector, "asip", p3(p, L),
            models.asip_product_measure(sector.configs, p_bad, alpha)),
        threshold=1e-12))
    worst_z = 0.0
    worst_m = 0.0
    for i in (1, 2, 3):
        w = models.asip_marginal_weights(i, p, alpha, 0)
        z_series = w.sum()
        z_closed = models.asip_marginal_Z_closed(i, p_bad, alpha)
        worst_z = max(worst_z, abs(z_series - z_closed) / abs(z_series))
        m_series = np.arange(len(w)) @ w / z_series
        m_closed = models.asip_marginal_mean_closed(i, p_bad, alpha)
        worst_m = max(worst_m, abs(m_series - m_closed)
                      / max(1.0, abs(m_series)))
    out.append(CheckReport(
        name="normalization-closed-form", params=dict(q=p.q, k=p.k),
        residual=worst_z, threshold=1e-10))
    out.append(CheckReport(
        name="mean-occupation-closed-form", params=dict(q=p.q, k=p.k),
        residual=worst_m, threshold=1e-10))
    # passes when the fit exceeds 1000 times its q = 1 round-off
    fit = models.ring_product_measure_gap(3, 3, p)
    out.append(CheckReport(
        name="ring-has-no-product-measure", params=dict(L=3, N=3, q=p.q),
        residual=1e-12 / fit, threshold=1.0))
    return out


def _suite_thermal(p, p_bad):
    out = []
    n_tot = 5
    alpha = 0.3 * models.alpha_max(p)
    r = np.arange(n_tot + 1)
    pm = models.asip_product_measure(np.column_stack([r, n_tot - r]), p,
                                     alpha)
    pm /= pm.sum()
    ref = thermal.qbetabinom_weights(n_tot, p_bad.q, p_bad.k)
    out.append(CheckReport(
        name="split-law-is-conditioned-product",
        params=dict(n=n_tot, q=p.q, k=p.k),
        residual=np.abs(pm - ref).max(), threshold=1e-12))

    L, N = 3, 3
    sector = configspace.enumerate_sector(L, N)
    gen = thermal.th_asip_generator(sector, p3(p, L))
    mu = models.asip_product_measure(sector.configs, p_bad, alpha)
    mu /= mu.sum()
    out.append(CheckReport(
        name="thermal-stationarity", params=dict(L=L, N=N, q=p.q, k=p.k),
        residual=float(np.abs(mu @ gen.matrix.toarray()).max()),
        threshold=1e-10))

    out.append(dualitylab.verify_selfduality_asip(3, 3, 2, p3(p_bad, 3),
                                                  thermal_version=True))
    pc = ModelParams(q=1.0, k=p.k, sigma=p.sigma, L=3)
    out.append(dualitylab.thermal_continuous_duality_residual(
        np.array([0.7, 1.1, 0.4]), np.array([1, 0, 2]), pc))

    worst = 0.0
    for sE in (0.5, 1.0, 4.0):
        for k in (0.5, 1.0):
            m = thermal.tilted_beta_mean(sE / p.sigma, p.sigma, k)
            worst = max(worst, 0.5 - m)
    out.append(CheckReport(
        name="left-bias-of-split-mean", params=dict(sigma=p.sigma),
        residual=max(worst, 0.0), threshold=1e-12))
    return out


def _suite_limits(p, p_bad):
    out = []
    eta = np.array([3, 1])
    pq1 = ModelParams(q=1.0 - abs(p_bad.q - p.q), k=p.k, L=2)
    r, l = models.asip_edge_rates(eta, 1, pq1)
    rs, ls = models.sip_edge_rates(eta, 1, p.k)
    out.append(CheckReport(
        name="symmetric-limit-rates", params=dict(k=p.k),
        residual=max(abs(r - rs), abs(l - ls)) / max(1.0, rs, ls),
        threshold=1e-12))
    gaps = [models.qtazrp_limit_gap(ModelParams(q=0.7, k=k), 6)
            for k in (2, 4, 8, 16)]
    monotone = all(g2 < g1 for g1, g2 in zip(gaps, gaps[1:]))
    out.append(CheckReport(
        name="zero-range-limit", params=dict(q=0.7, k=16),
        residual=gaps[-1] + (p_bad.q - p.q) if monotone else 1.0,
        threshold=1e-3))
    a, b = 1.0, 1.0
    A = 0.5 * math.log(0.5 * (1.0 + math.exp(2.0 * (a + b))))
    out.append(CheckReport(
        name="two-site-flow-fixed-point", params=dict(sigma=1.0),
        residual=_flow_residual(a, b, 1.0, "adep", A), threshold=1e-8))
    out.append(CheckReport(
        name="totally-asymmetric-flow-fixed-point", params=dict(sigma=1.0),
        residual=_flow_residual(a, b, 1.0, "tadep", a + b), threshold=1e-8))
    return out


def _flow_residual(a, b, sigma, kind, A):
    """Worst miss of the closed-form flow from (a, b): of the fixed point
    (A, a + b - A), and of ``u(t + 1) - u(t) = int_t^(t+1) velocity`` for
    t = 0..3 by Simpson's rule on 10000 steps."""
    from scipy import integrate
    u, v = models.adep_relax_pair(a, b, sigma, kind=kind)
    worst = max(abs(u - A), abs(v - (a + b - A)))
    for t in range(4):
        s = np.linspace(t, t + 1, 10001)
        u, v = models.adep_relax_pair(a, b, sigma, s, kind)
        w = models.adep_velocity(u, v, sigma, kind)
        worst = max(worst, abs(u[-1] - u[0] - integrate.simpson(w, x=s)))
    return float(worst)


def p3(p, L):
    return ModelParams(q=p.q, k=p.k, sigma=p.sigma, L=L)


_SUITE_FNS = {
    "duality": _suite_duality,
    "algebra": _suite_algebra,
    "measures": _suite_measures,
    "thermal": _suite_thermal,
    "limits": _suite_limits,
}


# The sigma at which each suite's energy checks meet their thresholds.
# Below it g_map loses ~1e-16 / sigma of its value to cancellation; above
# it the duality suite's stencil at g(x) meets the energy boundary (sigma
# > 2.3) and the thermal suite's tilt overflows e^a (sigma > 197).
_SIGMA_RANGE = {"duality": (0.01, 2.0), "thermal": (1e-6, 100.0)}


def _suite_params(suite, spec):
    """The (p, p_bad) pair of one suite, or a usage message when the
    suite cannot take the spec's q, k and sigma."""
    # the duality suite's ASIP generators are singular at q = 1, and the
    # symmetric ring does have product measures
    top = "< 1" if suite in ("duality", "measures") else "<= 1"
    qs = (spec.q, spec.q + spec.perturb_q)
    for q in qs:
        if not (0.0 < q < 1.0 or (q == 1.0 and top == "<= 1")):
            raise SystemExit("the %s suite needs 0 < q %s and "
                             "0 < q + --perturb-q %s" % (suite, top, top))
    # every suite but limits builds its rates and kernels from [2k + n]_q
    # at the occupancies n <= 4 of its sectors; where 2k is lost in that
    # sum ([2k]_q = 0 at n = 0) they divide by zero
    if suite != "limits" and any(
            qcalc.q_number(2 * spec.k + n, q) == qcalc.q_number(n, q)
            for q in qs for n in range(5)):
        raise SystemExit("the %s suite needs a --k whose 2k is not lost in "
                         "[2k + n]_q for n <= 4, got %r" % (suite, spec.k))
    if suite in _SIGMA_RANGE:
        lo, hi = _SIGMA_RANGE[suite]
        if not lo <= spec.sigma <= hi:
            raise SystemExit("the %s suite needs %g <= --sigma <= %g, got %r"
                             % (suite, lo, hi, spec.sigma))
    p = ModelParams(q=spec.q, k=spec.k, sigma=spec.sigma)
    if suite == "measures" and not p.two_k_integer:
        raise SystemExit("the measures suite checks closed forms that need "
                         "an integer 2k, got --k %r" % spec.k)
    p_bad = ModelParams(q=spec.q + spec.perturb_q, k=spec.k,
                        sigma=spec.sigma)
    return p, p_bad


def cmd_verify(spec):
    suites = SUITES if spec.suite == "all" else (spec.suite,)
    # every suite's input is checked before the first one runs
    params = [_suite_params(suite, spec) for suite in suites]
    reports = [r for suite, pair in zip(suites, params)
               for r in _SUITE_FNS[suite](*pair)]
    lines = ["[%s]" % "+".join(suites)] + [str(r) for r in reports]
    ok = all(r.passed for r in reports)
    lines.append("result: %s (%d checks)" % ("pass" if ok else "FAIL",
                                             len(reports)))
    _emit(spec.out, lines)
    return 0 if ok else 1


# -------------------------------------------------------------- simulate

def _parse_init(text):
    try:
        return configspace.config_from_line(text)
    except (ValueError, OverflowError):
        raise SystemExit("--init needs comma-separated occupancies "
                         "(integers >= 0), got %r" % text) from None


def _initial_config(spec):
    if spec.init:
        eta = _parse_init(spec.init)
        if len(eta) != spec.L:
            raise SystemExit("init length %d does not match L=%d"
                             % (len(eta), spec.L))
    elif not 0 <= spec.n <= spec.L:
        raise SystemExit("default initial condition needs 0 <= n <= L "
                         "(one particle per site from the left)")
    else:
        eta = np.array([1] * spec.n + [0] * (spec.L - spec.n))
    if len(eta) < 2:
        raise SystemExit("need a chain of L >= 2 sites, got %d" % len(eta))
    return eta


def _check_event_budget(spec, tables, na, nb, edges):
    """Reject a horizon whose run would not finish: t x replicas x edges
    x the largest total rate of an edge over its starting occupancy
    pairs (na, nb) estimates the expected number of jump events, and it
    must stay within EVENT_BUDGET."""
    right, left = tables
    rate = float((right[na, nb] + left[na, nb]).max())
    events = spec.t * spec.replicas * edges * rate
    if not events <= EVENT_BUDGET:
        raise SystemExit("--t %s with --replicas %d expects about %.3g jump "
                         "events, past the budget of %.0e; lower --t or "
                         "--replicas" % (_fmt(spec.t), spec.replicas, events,
                                         EVENT_BUDGET))


def cmd_simulate(spec):
    if spec.replicas < 1:
        raise SystemExit("need --replicas >= 1")
    eta0 = _initial_config(spec)
    n_max = int(eta0.sum())
    if n_max > TABLE_MAX:
        raise SystemExit("need at most %d particles in all (the rate "
                         "tables hold (particles + 1)^2 entries)" % TABLE_MAX)
    p = ModelParams(q=spec.q, k=spec.k, sigma=spec.sigma, L=len(eta0))
    tables = models.edge_rate_table(spec.model, p, n_max=n_max)
    _check_event_budget(spec, tables, eta0[:-1], eta0[1:], len(eta0) - 1)
    tree = engine.SeedTree(spec.seed)
    lines = ["replica,time,edge,direction"]
    for start in range(0, spec.replicas, engine.BATCH):
        block = range(start, min(start + engine.BATCH, spec.replicas))
        rngs = [tree.stream(r) for r in block]
        _, _, events = engine.simulate_batch(
            tables, [eta0] * len(rngs), spec.t, rngs, record_events=True)
        for r, log in zip(block, events):
            lines.extend("%d,%s,%d,%d" % (r, _fmt(t), edge, direction)
                         for t, edge, direction in log)
    _emit(spec.out, lines)
    return 0


# --------------------------------------------------------------- current

def _check_monte_carlo(spec):
    """Reject current requests whose comparison row could only read
    se = nan or z = inf, or whose closed form does not exist."""
    if spec.replicas < 2:
        raise SystemExit("need --replicas >= 2 for a standard error")
    if not 0.0 < spec.q < 1.0:
        raise SystemExit("the q-moment closed forms need 0 < q < 1")
    half = spec.window // 2
    if not 0 < half + spec.bond < spec.window:
        raise SystemExit("need --window >= 2 and a --bond inside the window "
                         "(%d <= bond <= %d)"
                         % (1 - half, spec.window - half - 1))
    if spec.window > TABLE_MAX:
        raise SystemExit("need --window <= %d (the rate tables hold "
                         "(window + 1)^2 entries)" % TABLE_MAX)


def cmd_current(spec):
    if spec.formula in ("q-step", "q-product"):
        _check_monte_carlo(spec)
    p = ModelParams(q=spec.q, k=spec.k, sigma=spec.sigma)
    W = spec.window
    half = W // 2
    rows = ["formula,param_hash,theory,mc,se,z"]
    try:
        if spec.formula == "q-step":
            eta0 = np.array([2] * half + [0] * (W - half))
            theory = currents.q_moment_fixed_config(eta0, -half, spec.bond,
                                                    spec.t, p)
        elif spec.formula == "q-product":
            theory = currents.q_moment_product(
                [1.0 - spec.bernoulli, spec.bernoulli], spec.t, p)
        elif spec.formula == "energy-product":
            tilt = _energy_tilt(spec)
            theory = currents.abep_moment_product(
                math.exp(tilt), math.exp(-tilt), spec.t, spec.k)
            bessel = currents.abep_moment_fixed(
                np.full(4 * spec.window, spec.energy), -2 * spec.window,
                0, spec.t, spec.k, spec.sigma)
        else:
            raise SystemExit("unknown formula %r" % spec.formula)
    except ValueError as exc:
        raise SystemExit("no %s theory at these arguments: %s"
                         % (spec.formula, exc))
    if not math.isfinite(theory):
        raise SystemExit("the %s theory overflows a float" % spec.formula)
    if spec.formula == "q-step":
        tables = models.edge_rate_table("asip", p, n_max=int(eta0.sum()))
        digest = currents.param_hash("q-step", spec.q, spec.k, spec.t, W,
                                     spec.bond)

        def init(rng):
            return eta0
    elif spec.formula == "q-product":
        tables = models.edge_rate_table("asip", p, n_max=W)
        digest = currents.param_hash("q-product", spec.q, spec.k, spec.t, W,
                                     spec.bernoulli)

        def init(rng):
            return (rng.random(W) < spec.bernoulli).astype(int)
    else:
        # the walker sum covers 4 * window sites, too few to stand for the
        # homogeneous profile when the tilt is large
        if abs(theory - bessel) > 1e-8 * abs(theory):
            raise SystemExit("the %d-site walker sum misses the product "
                             "formula by a relative %.2g at 2 * --sigma * "
                             "--energy = %g; raise --window or lower the tilt"
                             % (4 * spec.window,
                                abs(theory - bessel) / abs(theory), tilt))
        rows.append("%s,%s,%s,%s,%s,%s" % (
            "energy-product", currents.param_hash(
                "energy-product", spec.sigma, spec.k, spec.t, spec.energy),
            _fmt(theory), _fmt(bessel), _fmt(0.0),
            _fmt(abs(theory - bessel))))
        _emit(spec.out, rows)
        return 0

    if spec.formula == "q-step":
        _check_event_budget(spec, tables, eta0[:-1], eta0[1:], W - 1)
    else:
        # every site starts with 0 or 1 particle
        _check_event_budget(spec, tables, slice(0, 2), slice(0, 2), W - 1)
    res = engine.q_moment_ensemble(tables, init, half + spec.bond, spec.q,
                                   spec.t, spec.replicas, spec.seed)
    mc, se = float(res.mean[0]), float(res.se[0])
    if se == 0.0:
        raise SystemExit("every replica gave q^(2J) = %s, so there is no "
                         "standard error and no z score" % _fmt(mc))
    row = currents.comparison_row(spec.formula, digest, theory, mc, se)
    rows.append("%s,%s,%s,%s,%s,%s" % (
        row["formula"], row["param_hash"], _fmt(row["theory"]),
        _fmt(row["mc"]), _fmt(row["se"]), _fmt(row["z"])))
    _emit(spec.out, rows)
    return 0


# ------------------------------------------------------------------ rate

def _energy_tilt(spec):
    """``2 * sigma * energy``, rejected unless finite and inside the range
    of ``math.exp`` for either sign."""
    if not math.isfinite(spec.energy):
        raise SystemExit("need a finite --energy")
    tilt = 2.0 * spec.sigma * spec.energy
    if not abs(tilt) <= EXP_MAX:
        raise SystemExit("need 2 * --sigma * |--energy| <= %.6g" % EXP_MAX)
    return tilt


def cmd_rate(spec):
    if spec.points < 1:
        raise SystemExit("need a nonempty grid (points >= 1)")
    if not all(map(math.isfinite, (spec.x_min, spec.x_max, spec.energy))):
        raise SystemExit("need a finite --x-min, --x-max and --energy")
    if spec.model == "asip":
        a, b = currents.walker_rates(spec.q, spec.k)
        mu = [1.0 - spec.bernoulli, spec.bernoulli]
        _, lam_inv = currents.marginal_q_factors(mu, spec.q)
        log_factor = math.log(spec.q ** (-4.0 * spec.k) * lam_inv)
    elif spec.model == "sip":
        a, b = currents.walker_rates(1.0, spec.k)
        log_factor = _energy_tilt(spec)
    else:
        raise SystemExit("rate tables exist for models asip and sip")
    xs = np.linspace(spec.x_min, spec.x_max, spec.points)
    with np.errstate(over="ignore", invalid="ignore"):
        rates = [currents.rate_function(x, a, b) for x in xs]
    limit = currents.growth_rate(log_factor, a, b)
    inf = 0.0 if a >= b else currents.rate_function(0.0, a, b)
    if not all(map(math.isfinite, rates + [limit, inf])):
        raise SystemExit("the rate table overflows a float; narrow "
                         "--x-min .. --x-max or lower 2 * --sigma * --energy")
    lines = ["x,I(x)"]
    lines += ["%s,%s" % (_fmt(x), _fmt(r)) for x, r in zip(xs, rates)]
    lines.append("sup,inf,limit")
    lines.append("%s,%s,%s" % (_fmt(limit), _fmt(inf), _fmt(limit)))
    _emit(spec.out, lines)
    return 0


# ------------------------------------------------------------ thermalize

def _check_sampler(spec):
    """Reject sampler requests whose histogram could only read nan or
    whose sampler would raise on its parameters."""
    if spec.samples < 1:
        raise SystemExit("need --samples >= 1 for an empirical histogram")
    if spec.sampler == "qbetabinom" and spec.n < 0:
        raise SystemExit("need --n >= 0 particles on the edge")
    if spec.sampler in ("tilted-beta", "kmp"):
        if spec.bins < 1:
            raise SystemExit("need --bins >= 1")
        if spec.energy <= 0:
            raise SystemExit("need a positive edge --energy")
    if spec.sampler == "tilted-beta" and not (
            0.0 <= 2.0 * spec.sigma * spec.energy <= thermal.MAX_TILT):
        raise SystemExit("need --sigma >= 0 and 2 * --sigma * --energy <= "
                         "%.6g" % thermal.MAX_TILT)


def cmd_thermalize(spec):
    _check_sampler(spec)
    rng = engine.SeedTree(spec.seed).stream(0)
    lines = ["bin,empirical,exact"]
    if spec.sampler == "qbetabinom":
        try:
            exact = thermal.qbetabinom_weights(spec.n, spec.q, spec.k)
        except ValueError as exc:
            raise SystemExit("%s; lower --n or raise --q" % exc) from None
        draws = thermal.sample_qbetabinom(spec.n, spec.q, spec.k, rng,
                                          size=spec.samples, weights=exact)
        counts = np.bincount(draws, minlength=spec.n + 1) / spec.samples
        for r in range(spec.n + 1):
            lines.append("%d,%s,%s" % (r, _fmt(counts[r]), _fmt(exact[r])))
    elif spec.sampler in ("tilted-beta", "kmp"):
        sigma = spec.sigma if spec.sampler == "tilted-beta" else 0.0
        k = spec.k if spec.sampler == "tilted-beta" else 0.5
        draws = thermal.sample_tilted_beta(spec.energy, sigma, k, rng,
                                           size=spec.samples)
        edges = np.linspace(0.0, 1.0, spec.bins + 1)
        counts, _ = np.histogram(draws, bins=edges)
        mass = np.diff(thermal.tilted_beta_cdf(edges, spec.energy, sigma, k))
        for j in range(spec.bins):
            lines.append("%s,%s,%s" % (
                _fmt(0.5 * (edges[j] + edges[j + 1])),
                _fmt(counts[j] / spec.samples), _fmt(mass[j])))
    else:
        raise SystemExit("unknown sampler %r" % spec.sampler)
    _emit(spec.out, lines)
    return 0


# ------------------------------------------------------------------ main

def _check_spec(spec):
    """Reject bad values of the fields several commands share before
    any command runs; each command checks its own fields.  A NaN fails
    every comparison, so each test passes only values in range."""
    if spec.command in STOCHASTIC_COMMANDS and spec.seed < 0:
        raise SystemExit("--seed is required for stochastic commands")
    if not 0.0 < spec.q <= 1.0:
        raise SystemExit("need 0 < --q <= 1")
    if not 0.0 < spec.k < math.inf:
        raise SystemExit("need a finite --k > 0")
    if not 0.0 <= spec.sigma < math.inf:
        raise SystemExit("need a finite --sigma >= 0")
    if spec.command in ("simulate", "current") and not 0.0 < spec.t < math.inf:
        raise SystemExit("need a finite positive time horizon --t")
    if spec.command in ("current", "rate") and not 0.0 <= spec.bernoulli <= 1.0:
        raise SystemExit("need 0 <= --bernoulli <= 1")
    # output is written after the run, so a bad path must fail before it
    out_dir = os.path.dirname(spec.out)
    if out_dir and not os.path.isdir(out_dir):
        raise SystemExit("--out %r names a file in a missing directory"
                         % spec.out)


def _add_common(sub):
    sub.add_argument("--config", default=None,
                     help="sectioned key-value file with per-command defaults")
    sub.add_argument("--q", type=float)
    sub.add_argument("--k", type=float)
    sub.add_argument("--sigma", type=float)
    sub.add_argument("--seed", type=int)
    sub.add_argument("--out")


def build_parser():
    ap = argparse.ArgumentParser(
        prog="asymtransport",
        description="asymmetric transport models: verification, exact "
                    "simulation, current moments, rate functions, "
                    "redistribution samplers")
    sp = ap.add_subparsers(dest="command", required=True)

    v = sp.add_parser("verify", help="run an identity verification suite")
    _add_common(v)
    v.add_argument("--suite", choices=CHOICES["verify"]["suite"])
    v.add_argument("--perturb-q", type=float, dest="perturb_q",
                   help="fault injection: offset q on one side of each "
                        "identity; a nonzero value must make the suite fail")

    s = sp.add_parser("simulate", help="exact trajectory ensembles")
    _add_common(s)
    s.add_argument("--model", choices=CHOICES["simulate"]["model"])
    s.add_argument("--L", type=int)
    s.add_argument("--n", type=int)
    s.add_argument("--init", help="explicit initial occupancies, "
                                  "comma separated")
    s.add_argument("--t", type=float)
    s.add_argument("--replicas", type=int)

    c = sp.add_parser("current", help="theory-vs-simulation current moments")
    _add_common(c)
    c.add_argument("--formula", choices=CHOICES["current"]["formula"])
    c.add_argument("--t", type=float)
    c.add_argument("--bond", type=int)
    c.add_argument("--window", type=int)
    c.add_argument("--bernoulli", type=float)
    c.add_argument("--energy", type=float)
    c.add_argument("--replicas", type=int)
    c.add_argument("--workers", type=int,
                   help="accepted and ignored: replicas run in lockstep "
                        "blocks in one thread, and the output does not "
                        "depend on this value")

    r = sp.add_parser("rate", help="rate function grid and growth rate")
    _add_common(r)
    r.add_argument("--model", choices=CHOICES["rate"]["model"])
    r.add_argument("--x-min", type=float, dest="x_min")
    r.add_argument("--x-max", type=float, dest="x_max")
    r.add_argument("--points", type=int)
    r.add_argument("--bernoulli", type=float)
    r.add_argument("--energy", type=float)

    t = sp.add_parser("thermalize", help="redistribution sampler diagnostics")
    _add_common(t)
    t.add_argument("--sampler", choices=CHOICES["thermalize"]["sampler"])
    t.add_argument("--n", type=int)
    t.add_argument("--energy", type=float)
    t.add_argument("--bins", type=int)
    t.add_argument("--samples", type=int)

    return ap


_COMMANDS = {
    "verify": cmd_verify,
    "simulate": cmd_simulate,
    "current": cmd_current,
    "rate": cmd_rate,
    "thermalize": cmd_thermalize,
}


def spec_from_args(args):
    if getattr(args, "config", None):
        spec = ExperimentSpec.load(args.config, args.command)
    else:
        spec = ExperimentSpec(command=args.command)
    for f in fields(ExperimentSpec):
        val = getattr(args, f.name, None)
        if val is not None:
            setattr(spec, f.name, val)
    if getattr(args, "init", None) and getattr(args, "L", None) is None:
        # --init alone fixes the chain length; an explicit --L must match it
        spec.L = len(_parse_init(args.init))
    return spec


@functools.cache
def _parser():
    # parsing leaves the parser as it was, so one serves every main call
    return build_parser()


def main(argv=None):
    args = _parser().parse_args(argv)
    spec = spec_from_args(args)
    _check_spec(spec)
    try:
        return _COMMANDS[spec.command](spec)
    except OverflowError:  # a Python float power such as q ** -n
        raise SystemExit("a q-number or rate overflows a float at these "
                         "arguments; raise --q toward 1 or lower --k or "
                         "the occupancies") from None


if __name__ == "__main__":
    sys.exit(main())
