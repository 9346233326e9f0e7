"""The benchmark's workloads: seeded request pools and per-request gates.

Each workload is a small, fixed pool of requests built from the workload
seed and replayed in order by one closed-loop client.  The grid points
(q, k, t, chain sizes) are fixed per pool slot and the seed jitters them a
little and draws every Monte Carlo seed and initial configuration, so the
cost of a pool is nearly the same for every seed while its inputs differ.

Why a small pool that repeats:

* Monte Carlo requests are gated by ``|z| < 4``; a fresh request every time
  would mean hundreds of independent 4-sigma tests per run and a spurious
  failure every few runs.  A pool of three current requests keeps that to
  three tests per run.
* The thermal sampler caches one table per new tilt value.  Repeating the
  pool bounds the run's distinct tilts, so peak memory does not depend on
  how many updates a faster program completes in the same time.
* Repeats double as a determinism check: every replay must reproduce the
  output of the pool slot's first run byte for byte.

Only public entry points are used: ``cli.main([...])`` writing to a
temporary file, and the public functions of each module, always looked up
as module attributes at call time so that traced wrappers apply.
"""

import hashlib
import math
import os
import random

import numpy as np

from asymtransport import (cli, configspace, currents, dualitylab, engine,
                           models, qalgebra, thermal)
from asymtransport.configspace import ModelParams

__all__ = ["WORKLOADS", "build_pool", "GateFailure", "Request"]

WINDOW = 40
QSTEP_REPLICAS = 48
QPRODUCT_REPLICAS = 128
QPRODUCT_WORKERS = 2
Z_LIMIT = 4.0
QALG_L, QALG_NMAX = 4, 4
THERMAL_SIGMA = 0.5
SAMPLER_DRAWS = 2000


class GateFailure(Exception):
    """A request's output failed its correctness gate."""


class Request:
    """One closed-loop operation.  ``run()`` is timed.  Untimed:
    ``check(result) -> (ops, out_bytes)`` raises GateFailure on a wrong
    output, and ``digest(result)`` fingerprints the output."""

    def __init__(self, label, run, check, digest):
        self.label = label
        self.run = run
        self.check = check
        self.digest = digest


def _jitter(rnd, value, rel):
    return value * (1.0 + rel * (2.0 * rnd.random() - 1.0))


def _seed(rnd):
    return rnd.randrange(1, 2 ** 31)


def _sha(data):
    return hashlib.sha256(data).hexdigest()


# ------------------------------------------------------------ CLI requests

def _cli_request(label, argv, out_path, check):
    """``check(text) -> ops`` gates the text the command wrote."""

    def run():
        return cli.main(argv + ["--out", out_path])

    def read(rc):
        if rc != 0:
            raise GateFailure("%s: exit code %r" % (label, rc))
        with open(out_path, "rb") as fh:
            return fh.read()

    def gate(rc):
        data = read(rc)
        return check(data.decode()), len(data)

    return Request(label, run, gate, lambda rc: _sha(read(rc)))


def _csv_rows(text, header):
    lines = text.splitlines()
    if not lines or lines[0] != header:
        raise GateFailure("unexpected header %r" % (lines[:1],))
    return [line.split(",") for line in lines[1:]]


def _current_check(formula, q, k, t, bernoulli, replicas):
    def check(text):
        rows = _csv_rows(text, "formula,param_hash,theory,mc,se,z")
        if len(rows) != 1 or rows[0][0] != formula:
            raise GateFailure("expected one %s row" % formula)
        theory, mc, se, z = (float(v) for v in rows[0][2:])
        if not all(math.isfinite(v) for v in (theory, mc, se, z)):
            raise GateFailure("non-finite current row %r" % rows[0])
        if abs(z) >= Z_LIMIT:
            raise GateFailure("|z| = %.3g >= %g" % (abs(z), Z_LIMIT))
        if formula == "q-product":
            ref = currents.q_moment_product_series(
                [1.0 - bernoulli, bernoulli], t, ModelParams(q=q, k=k))
            if abs(theory - ref) > 1e-8 * max(1.0, abs(ref)):
                raise GateFailure("q-product theory %r != series %r"
                                  % (theory, ref))
        return replicas
    return check


def _current_request(formula, q, k, t, seed, replicas, workers, out,
                     bernoulli=0.5):
    argv = ["current", "--formula", formula, "--q", repr(q), "--k", repr(k),
            "--t", repr(t), "--window", str(WINDOW),
            "--replicas", str(replicas), "--seed", str(seed),
            "--workers", str(workers)]
    if formula == "q-product":
        argv += ["--bernoulli", repr(bernoulli)]
    return _cli_request(
        "current %s q=%.4f k=%g t=%.4f" % (formula, q, k, t), argv, out,
        _current_check(formula, q, k, t, bernoulli, replicas))


def _simulate_check(eta0, t_max, replicas):
    def check(text):
        rows = _csv_rows(text, "replica,time,edge,direction")
        by_replica = {}
        for r, t, edge, direction in rows:
            by_replica.setdefault(int(r), []).append(
                (float(t), int(edge), int(direction)))
        if not set(by_replica) <= set(range(replicas)):
            raise GateFailure("replica index out of range")
        n0 = sum(eta0)
        for events in by_replica.values():
            eta = list(eta0)
            last = 0.0
            for t, edge, direction in events:
                if not last <= t <= t_max or not 1 <= edge < len(eta):
                    raise GateFailure("event (%r, %r) out of range"
                                      % (t, edge))
                last = t
                src, dst = (edge - 1, edge) if direction > 0 \
                    else (edge, edge - 1)
                eta[src] -= 1
                eta[dst] += 1
                if eta[src] < 0:
                    raise GateFailure("replay empties a site below zero")
            if sum(eta) != n0:
                raise GateFailure("replay changed the particle number")
        return replicas
    return check


def _simulate_request(model, eta0, q, k, t, seed, replicas, out):
    argv = ["simulate", "--model", model, "--L", str(len(eta0)),
            "--init", ",".join(str(v) for v in eta0), "--q", repr(q),
            "--k", repr(k), "--t", repr(t), "--replicas", str(replicas),
            "--seed", str(seed)]
    return _cli_request("simulate %s L=%d" % (model, len(eta0)), argv, out,
                        _simulate_check(eta0, t, replicas))


def _verify_check(text):
    lines = text.splitlines()
    checks = lines[1:-1]
    if not lines or lines[-1] != "result: pass (%d checks)" % len(checks):
        raise GateFailure("verify did not pass: %r" % (lines[-1:],))
    bad = [line for line in checks if not line.endswith(" ok")]
    if bad:
        raise GateFailure("failed checks: %r" % bad)
    return len(checks)


def _histogram_check(samples, tolerance):
    """Empirical bin frequencies must sum to one and sit within six
    binomial standard errors (plus ``tolerance``) of the exact masses."""
    def check(text):
        rows = _csv_rows(text, "bin,empirical,exact")
        emp = [float(r[1]) for r in rows]
        exact = [float(r[2]) for r in rows]
        if abs(sum(emp) - 1.0) > 1e-9 or abs(sum(exact) - 1.0) > 1e-6:
            raise GateFailure("histogram masses do not sum to one")
        for e, p in zip(emp, exact):
            se = math.sqrt(max(p * (1.0 - p), 0.0) / samples)
            if abs(e - p) > 6.0 * se + tolerance:
                raise GateFailure("bin frequency %r far from exact %r"
                                  % (e, p))
        return samples
    return check


def _thermalize_request(argv, label, out, tolerance):
    argv = ["thermalize"] + argv + ["--samples", str(SAMPLER_DRAWS)]
    return _cli_request(label, argv, out,
                        _histogram_check(SAMPLER_DRAWS, tolerance))


# ------------------------------------------------------- library requests

def _selfduality_request(L, n_eta, n_xi, q, k):
    def run():
        return dualitylab.verify_selfduality_asip(L, n_eta, n_xi,
                                                  ModelParams(q=q, k=k))

    def gate(report):
        if not report.passed:
            raise GateFailure("self-duality failed: %s" % report)
        return 1, 0

    def digest(report):
        return _sha(repr((report.name, report.params,
                          report.residual)).encode())

    return Request("selfduality L=%d n=%d,%d" % (L, n_eta, n_xi), run, gate,
                   digest)


def _generator_blocks(q, k):
    for n in range(QALG_NMAX + 1):
        sector = configspace.enumerate_sector(QALG_L, n)
        idx = qalgebra.sector_indices(sector, QALG_NMAX)
        ref = models.build_generator(sector, "asip",
                                     ModelParams(q=q, k=k, L=QALG_L))
        yield idx, idx, ref.matrix.toarray()


def _duality_blocks(q, k):
    for n_eta in range(1, QALG_NMAX + 1):
        s_eta = configspace.enumerate_sector(QALG_L, n_eta)
        for n_xi in range(n_eta + 1):
            s_xi = configspace.enumerate_sector(QALG_L, n_xi)
            yield (qalgebra.sector_indices(s_eta, QALG_NMAX),
                   qalgebra.sector_indices(s_xi, QALG_NMAX),
                   dualitylab.d_asip_matrix(s_eta, s_xi,
                                            ModelParams(q=q, k=k, L=QALG_L)))


def _algebra_request(kind, q, k):
    """Re-derive the generator or the duality kernel from the algebra and
    compare each sector block with the direct construction (the gate runs
    once per pool slot: replays are checked by their output digest)."""
    derive = {"generator": "derive_generator", "duality": "derive_duality"}
    reference = {"generator": _generator_blocks, "duality": _duality_blocks}

    def run():
        return getattr(qalgebra, derive[kind])(QALG_L, k, q, QALG_NMAX)

    def gate(matrix):
        worst = 0.0
        for rows, cols, ref in reference[kind](q, k):
            block = matrix[np.ix_(rows, cols)]
            worst = max(worst, float(np.abs(block - ref).max())
                        / max(1.0, float(np.abs(ref).max())))
        if not worst < 1e-10:
            raise GateFailure("%s re-derivation residual %.3g"
                              % (kind, worst))
        return 1, 0

    return Request("%s L=%d n_max=%d" % (derive[kind], QALG_L, QALG_NMAX),
                   run, gate, lambda matrix: _sha(matrix.tobytes()))


def _thermal_request(x0, k, t_max, seed):
    params = ModelParams(q=1.0, k=k, sigma=THERMAL_SIGMA, L=len(x0))

    def run():
        rng = engine.SeedTree(seed).stream(0)
        return thermal.simulate_thermal_continuous(np.array(x0), t_max,
                                                   params, rng)

    def gate(result):
        x, events = result
        total0 = math.fsum(x0)
        if (x < 0).any() or abs(math.fsum(x) - total0) > 1e-12 * total0:
            raise GateFailure("thermal dynamics changed the total energy")
        return len(events), 0

    return Request("thermal L=%d k=%g" % (len(x0), k), run, gate,
                   lambda result: _sha(result[0].tobytes()))


# ------------------------------------------------------------------ pools

def _mc_step(rnd, tmp):
    # (q, k, t): about 230-350 events per q-step trajectory at W = 40.
    grid = ((0.8, 0.5, 1.0), (0.85, 1.0, 1.0), (0.9, 1.0, 0.75))
    return [_current_request("q-step", _jitter(rnd, q, 0.005), k,
                             _jitter(rnd, t, 0.005), _seed(rnd),
                             QSTEP_REPLICAS, 1,
                             os.path.join(tmp, "mc_step_%d.csv" % j))
            for j, (q, k, t) in enumerate(grid)]


def _ensemble_mix(rnd, tmp):
    # (q, k, t, Bernoulli density): 55-95 events per trajectory; the three
    # current slots cost about the same, so the tail percentile reads that
    # group and the median its lower edge, never a simulate slot.
    product = ((0.8, 0.5, 1.0, 0.5), (0.9, 1.0, 1.0, 0.3),
               (0.85, 0.5, 1.2, 0.5))
    simulate = (("asip", 12, 0.8, 0.5), ("sip", 16, 1.0, 1.0))
    pool = []
    for j, (q, k, t, b) in enumerate(product):
        pool.append(_current_request(
            "q-product", _jitter(rnd, q, 0.005), k, _jitter(rnd, t, 0.005),
            _seed(rnd), QPRODUCT_REPLICAS, QPRODUCT_WORKERS,
            os.path.join(tmp, "ensemble_current_%d.csv" % j), bernoulli=b))
        if j < len(simulate):
            model, L, q_s, k_s = simulate[j]
            eta0 = [rnd.randrange(3) for _ in range(L)]
            pool.append(_simulate_request(
                model, eta0, q_s, k_s, 2.0, _seed(rnd), 40,
                os.path.join(tmp, "ensemble_events_%d.csv" % j)))
    return pool


def _verify_exact(rnd, tmp):
    p1, p2, p3, p4 = [(_jitter(rnd, q, 0.005), k) for q, k in
                      ((0.85, 1.0), (0.8, 0.5), (0.9, 1.5), (0.95, 2.0))]
    q, k = p1
    verify = _cli_request(
        "verify all q=%.4f k=%g" % (q, k),
        ["verify", "--suite", "all", "--q", repr(q), "--k", repr(k)],
        os.path.join(tmp, "verify.txt"), _verify_check)
    # Slot costs fall in three groups: four cheap slots, three middle ones
    # (the suite and two large self-duality checks) and four kernel
    # re-derivations costing several times any other.  The median then
    # sits in the middle of the middle group, and the tail percentile in
    # the costly group from three passes on (four per pass leave ten
    # samples beyond it).
    return [
        verify,
        _algebra_request("duality", *p1),
        _algebra_request("generator", *p1),
        _selfduality_request(5, 6, 6, *p2),
        _algebra_request("duality", *p2),
        _selfduality_request(5, 6, 3, *p3),
        _selfduality_request(5, 6, 6, *p4),
        _algebra_request("duality", *p3),
        _algebra_request("generator", *p3),
        _selfduality_request(5, 5, 4, *p1),
        _algebra_request("duality", *p4),
    ]


def _thermal_energy(rnd, tmp):
    def chain(L):
        return [rnd.expovariate(1.0) for _ in range(L)]

    # (sites, k, t): k = 1/2 takes the closed-form sampler, the others the
    # tabulated one.  The tabulated slots fix how many tilt tables the
    # first pass over the pool builds (about 2300, roughly 150 MB), so
    # they stay short; the long closed-form slots make each pass heavy
    # enough that a run holds a few hundred requests and its tail
    # percentile is not set by one stalled request.
    trajectories = ((24, 0.5, 600.0), (20, 0.75, 30.0), (27, 1.5, 30.0),
                    (36, 0.5, 600.0), (33, 0.75, 30.0), (40, 1.5, 30.0),
                    (30, 0.5, 600.0))
    pool = [_thermal_request(chain(L), k, t, _seed(rnd))
            for L, k, t in trajectories]
    q = _jitter(rnd, 0.75, 0.02)
    pool.insert(2, _thermalize_request(
        ["--sampler", "qbetabinom", "--n", "6", "--q", repr(q), "--k", "1.0",
         "--seed", str(_seed(rnd))],
        "thermalize qbetabinom q=%.4f" % q,
        os.path.join(tmp, "thermalize_qbb.csv"), 1e-9))
    energy = _jitter(rnd, 1.2, 0.2)
    pool.insert(6, _thermalize_request(
        ["--sampler", "tilted-beta", "--k", "0.75", "--sigma",
         repr(THERMAL_SIGMA), "--energy", repr(energy), "--bins", "10",
         "--seed", str(_seed(rnd))],
        "thermalize tilted-beta E=%.4f" % energy,
        os.path.join(tmp, "thermalize_tb.csv"), 2e-3))
    return pool


WORKLOADS = {
    "mc_step": _mc_step,
    "ensemble_mix": _ensemble_mix,
    "verify_exact": _verify_exact,
    "thermal_energy": _thermal_energy,
}


def build_pool(workload, seed, tmp):
    """The workload's request pool for ``seed``; outputs go under ``tmp``."""
    return WORKLOADS[workload](random.Random("%s:%d" % (workload, seed)), tmp)
