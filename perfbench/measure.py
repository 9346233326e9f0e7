"""One measurement process: import the package, run the first request
untimed, then replay the workload's request pool as a closed loop.

    python3 perfbench/measure.py --workload NAME --seed N --seconds S \
        [--setup-only] [--traced --spans PATH]

Prints one JSON object.  Untraced processes report end-to-end numbers;
a traced process wraps the package's layer boundaries and reports
per-layer numbers.  The two never share a process, so wrappers cannot
leak into end-to-end figures.  ``run.py`` drives this script.
"""

import argparse
import json
from contextlib import nullcontext
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

MODULES = ("cli", "engine", "models", "configspace", "dualitylab",
           "qalgebra", "currents", "qcalc", "thermal")

# Trajectories whose random stream is snapshotted so that they can be
# rerun with event recording after the timed part of a traced run.
EVENT_SAMPLE = 400

# Host-speed scaling.  On a shared host the CPU runs faster or slower for
# minutes at a time (up to 40 % apart between runs a few minutes apart on
# the 2-vCPU host this was written on), which no amount of averaging
# inside one run removes.  After every request the client times a fixed
# pure-Python loop; each request's latency is divided by the median
# loop time of the 15 requests around it over REFERENCE_NOMINAL_S, so
# times read as on a host where the loop takes exactly 1 ms.  Raw times
# are reported beside the scaled ones.
REFERENCE_LOOPS = 4000
REFERENCE_NOMINAL_S = 1e-3
REFERENCE_WINDOW = 7

# Three passes give verify_exact's four costliest slots twelve samples, so
# its tail percentile stays inside that group however slow the host.
MIN_PASSES = 3


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _median(xs):
    return statistics.median(xs) if xs else 0.0


def reference_s():
    """Time one pass of the fixed reference loop."""
    start = time.perf_counter()
    acc, table = 0, {}
    for i in range(REFERENCE_LOOPS):
        acc += (i * 7) % 13
        table[i & 63] = acc * 0.5
    return time.perf_counter() - start


def slowdowns(refs, window=REFERENCE_WINDOW):
    """Per-request host slowdown: the median reference time of the
    requests within ``window`` on either side, over the nominal time."""
    n = len(refs)
    return [statistics.median(refs[max(0, i - window):i + window + 1])
            / REFERENCE_NOMINAL_S for i in range(n)]


class Loop:
    """Replays the pool; keeps per-request latency, ops and failures."""

    def __init__(self, pool, tracer=None):
        self.pool = pool
        self.tracer = tracer
        self.latencies = []
        self.refs = []
        self.ops = 0
        self.attempted = 0
        self.failed = 0
        self.out_bytes = []
        self.first = {}        # pool slot -> (ops, digest, out_bytes)
        self.errors = []

    def _gate(self, slot, result):
        """Gate a slot's first output; a replay must reproduce it byte for
        byte, and identical bytes need no second gate."""
        req = self.pool[slot]
        digest = req.digest(result)
        if slot not in self.first:
            ops, nbytes = req.check(result)
            self.first[slot] = (ops, digest, nbytes)
            return ops, nbytes
        ops, digest0, nbytes = self.first[slot]
        if digest != digest0:
            from workloads import GateFailure
            raise GateFailure("%s: replay output differs from its first run"
                              % req.label)
        return ops, nbytes

    def one(self, index):
        slot = index % len(self.pool)
        req = self.pool[slot]
        tracer = self.tracer
        if tracer is not None:
            tracer.begin_request(index)
        start = time.perf_counter()
        try:
            with tracer.span("request") if tracer else nullcontext():
                result = req.run()
            elapsed = time.perf_counter() - start
            with tracer.paused() if tracer else nullcontext():
                ops, nbytes = self._gate(slot, result)
        except Exception as exc:  # a failed request is counted, not fatal
            self.attempted += 1
            self.failed += 1
            self.latencies.append(time.perf_counter() - start)
            if len(self.errors) < 5:
                self.errors.append("%s: %s" % (req.label, "".join(
                    traceback.format_exception_only(type(exc), exc)).strip()))
            self.refs.append(reference_s())
            return
        self.refs.append(reference_s())
        self.attempted += 1
        self.latencies.append(elapsed)
        self.ops += ops
        if nbytes:
            self.out_bytes.append(nbytes)

    def digest(self):
        """Digest of the first pass over the pool, in pool order."""
        import hashlib
        h = hashlib.sha256()
        for slot in range(len(self.pool)):
            if slot not in self.first:
                return "incomplete"
            h.update(self.first[slot][1].encode())
        return h.hexdigest()[:16]


def run_loop(loop, seconds):
    """Replay the pool from slot 0 in whole passes until ``seconds`` of
    wall time have gone by, and at least MIN_PASSES times (once for
    ``seconds <= 0``, a single pass); returns the number of passes.

    Stopping only between passes keeps every slot equally represented, so
    the mix of cheap and costly requests, and with it throughput and the
    latency percentiles, does not depend on where the clock ran out."""
    m = len(loop.pool)
    min_passes = MIN_PASSES if seconds > 0 else 1
    passes = 0
    t_end = time.perf_counter() + seconds
    while passes < min_passes or time.perf_counter() < t_end:
        for slot in range(m):
            loop.one(passes * m + slot)
        passes += 1
    return passes


# ------------------------------------------------------------------ traced

def _trace_targets(tracer, notes):
    from asymtransport import (cli, configspace, currents, dualitylab,
                               engine, models, qalgebra, thermal)
    import numpy as np

    def before_sim(args, kwargs):
        if len(notes["event_samples"]) + len(notes["snapshots"]) \
                >= EVENT_SAMPLE:
            return None
        record = kwargs.get("record_events", args[5] if len(args) > 5
                            else True)
        if record:
            return "count"
        rates, eta0, t_max, rng = args[:4]
        notes["snapshots"].append((rates, np.array(eta0), t_max,
                                   type(rng.bit_generator),
                                   rng.bit_generator.state))
        return None

    def after_sim(token, sid, args, kwargs, result):
        if token == "count":
            notes["event_samples"].append(len(result.events))

    def after_ensemble(token, sid, args, kwargs, result):
        notes["workers"][sid] = kwargs.get("workers", args[3]
                                           if len(args) > 3 else 1)

    def after_states(token, sid, args, kwargs, result):
        notes["states"][sid] = len(args[0])

    def after_sector(token, sid, args, kwargs, result):
        notes["states"][sid] = len(result)

    def after_entries(token, sid, args, kwargs, result):
        notes["states"][sid] = int(result.size)

    def before_tilt(args, kwargs):
        E = args[0] if args else kwargs["E"]
        sigma = args[1] if len(args) > 1 else kwargs["sigma"]
        k = args[2] if len(args) > 2 else kwargs["k"]
        key = (2.0 * sigma * E, float(k))
        seen = notes["tilts"]
        if key in seen:
            notes["tilt_reuse"] += 1
        else:
            seen.add(key)
        return None

    def plain(owner, attr, name, before=None, after=None):
        return owner, attr, name, before, after

    return [
        plain(cli, "main", "cli.main"),
        plain(engine, "simulate_ctmc", "engine.simulate_ctmc",
              before_sim, after_sim),
        plain(engine, "run_ensemble", "engine.run_ensemble",
              after=after_ensemble),
        plain(engine.SeedTree, "stream", "engine.SeedTree.stream"),
        plain(models, "edge_rate_table", "models.edge_rate_table"),
        plain(models, "build_generator", "models.build_generator",
              after=after_states),
        plain(configspace, "enumerate_sector", "configspace.enumerate_sector",
              after=after_sector),
        plain(dualitylab, "d_asip_matrix", "dualitylab.d_asip_matrix",
              after=after_entries),
        plain(dualitylab, "generator_duality_residual",
              "dualitylab.generator_duality_residual"),
        plain(qalgebra, "derive_generator", "qalgebra.derive_generator"),
        plain(qalgebra, "derive_duality", "qalgebra.derive_duality"),
        plain(qalgebra, "build_hamiltonian", "qalgebra.build_hamiltonian"),
        plain(qalgebra, "coproduct_symmetries",
              "qalgebra.coproduct_symmetries"),
        plain(currents, "q_moment_fixed_config",
              "currents.q_moment_fixed_config"),
        plain(currents, "q_moment_product", "currents.q_moment_product"),
        plain(currents, "skellam_pmf", "qcalc.skellam_pmf"),
        plain(thermal, "simulate_thermal_continuous",
              "thermal.simulate_thermal_continuous"),
        plain(thermal, "sample_tilted_beta", "thermal.sample_tilted_beta",
              before_tilt),
        plain(thermal, "sample_qbetabinom", "thermal.sample_qbetabinom"),
    ]


def _rerun_events(notes):
    """Event counts of the snapshotted trajectories, rerun from the same
    random stream state with event recording on."""
    import numpy as np
    from asymtransport import engine
    counts = list(notes["event_samples"])
    for rates, eta0, t_max, bitgen_cls, state in notes["snapshots"]:
        bitgen = bitgen_cls()
        bitgen.state = state
        log = engine.simulate_ctmc(rates, eta0, t_max,
                                   np.random.Generator(bitgen),
                                   record_events=True)
        counts.append(len(log.events))
    return counts


def layer_metrics(tracer, notes, loop, cycles):
    """Per-layer numbers from the spans of ``cycles`` whole pool passes."""
    from tracer import self_times
    spans = tracer.spans
    selfs = self_times(spans)
    by_name = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def durations(name):
        return [s.end - s.start for s in by_name.get(name, ())]

    def busy(name):
        return sum(durations(name)) / cycles

    def calls(name):
        return len(by_name.get(name, ())) / cycles

    def states(name):
        return sum(notes["states"].get(s.sid, 0)
                   for s in by_name.get(name, ())) / cycles

    out = {}
    sim = "engine.simulate_ctmc"
    events = _rerun_events(notes)
    mean_events = sum(events) / len(events) if events else 0.0
    sim_calls = len(by_name.get(sim, ()))
    out[sim + ".calls"] = calls(sim)
    out[sim + ".busy_s"] = busy(sim)
    out[sim + ".us_per_event"] = (
        1e6 * sum(durations(sim)) / (sim_calls * mean_events)
        if sim_calls and mean_events else 0.0)

    ens = "engine.run_ensemble"
    children = {}
    for s in by_name.get(sim, ()):
        children[s.parent] = children.get(s.parent, 0.0) + (s.end - s.start)
    capacity = sum((s.end - s.start) * notes["workers"].get(s.sid, 1)
                   for s in by_name.get(ens, ()))
    out[ens + ".busy_s"] = busy(ens)
    out[ens + ".pool_util"] = (
        sum(children.get(s.sid, 0.0) for s in by_name.get(ens, ()))
        / capacity if capacity else 0.0)
    out["engine.SeedTree.stream.calls"] = calls("engine.SeedTree.stream")
    out["engine.SeedTree.stream.busy_s"] = busy("engine.SeedTree.stream")

    cli_spans = by_name.get("cli.main", ())
    out["cli.main.self_ms"] = (
        1e3 * sum(selfs[s.sid] for s in cli_spans) / len(cli_spans)
        if cli_spans else 0.0)
    out["cli.out_bytes"] = (sum(loop.out_bytes) / len(loop.out_bytes)
                            if loop.out_bytes else 0.0)

    for name in ("models.edge_rate_table", "models.build_generator",
                 "configspace.enumerate_sector", "dualitylab.d_asip_matrix",
                 "dualitylab.generator_duality_residual",
                 "qalgebra.derive_generator", "qalgebra.derive_duality",
                 "qalgebra.build_hamiltonian", "qalgebra.coproduct_symmetries",
                 "currents.q_moment_fixed_config",
                 "currents.q_moment_product", "qcalc.skellam_pmf",
                 "thermal.simulate_thermal_continuous",
                 "thermal.sample_qbetabinom"):
        out[name + ".busy_s"] = busy(name)
    out["models.build_generator.states"] = states("models.build_generator")
    out["configspace.enumerate_sector.states"] = states(
        "configspace.enumerate_sector")
    out["dualitylab.d_asip_matrix.entries"] = states(
        "dualitylab.d_asip_matrix")

    request_time = sum(durations("request"))
    closed_forms = sum(durations("currents.q_moment_fixed_config")) \
        + sum(durations("currents.q_moment_product"))
    out["currents.share"] = closed_forms / request_time \
        if request_time else 0.0
    out["qcalc.skellam_pmf.calls"] = calls("qcalc.skellam_pmf")

    tilt = "thermal.sample_tilted_beta"
    tilt_calls = len(by_name.get(tilt, ()))
    out[tilt + ".calls"] = calls(tilt)
    out[tilt + ".p50_us"] = 1e6 * _median(durations(tilt))
    out["thermal.tilt_reuse"] = (notes["tilt_reuse"] / tilt_calls
                                 if tilt_calls else 0.0)

    for module in MODULES:
        out[module + ".errors"] = sum(
            n for name, n in tracer.errors.items()
            if name.split(".")[0] == module)

    sizes = [notes["states"][s.sid]
             for s in by_name.get("configspace.enumerate_sector", ())]
    out["workload.events_per_traj"] = mean_events
    out["workload.sector_states_mean"] = (sum(sizes) / len(sizes)
                                          if sizes else 0.0)
    out["workload.sector_states_max"] = max(sizes) if sizes else 0
    out["bench.cycles"] = cycles
    return out


def write_spans(path, spans):
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        fh.write("span,parent,name,start_s,end_s,request,thread\n")
        for s in spans:
            fh.write("%d,%d,%s,%.9f,%.9f,%d,%d\n" % s)


# -------------------------------------------------------------------- main

def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--traced", action="store_true")
    ap.add_argument("--spans", default=None)
    args = ap.parse_args(argv)

    scratch = os.path.join(ROOT, ".perfbench_tmp")
    os.makedirs(scratch, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="run-", dir=scratch)
    try:
        return _measure(args, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def _measure(args, tmp):
    refs = [reference_s() for _ in range(5)]
    t0 = time.perf_counter()
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import workloads
    pool = workloads.build_pool(args.workload, args.seed, tmp)
    pool[0].run()
    setup_s = time.perf_counter() - t0
    refs += [reference_s() for _ in range(5)]
    result = {"setup_s": setup_s,
              "scaled_setup_s": setup_s * REFERENCE_NOMINAL_S
              / statistics.median(refs)}
    if args.setup_only:
        print(json.dumps(result))
        return 0

    tracer = notes = None
    if args.traced:
        from tracer import Tracer, install
        tracer = Tracer()
        notes = {"event_samples": [], "snapshots": [], "workers": {},
                 "states": {}, "tilts": set(), "tilt_reuse": 0}
        install(tracer, _trace_targets(tracer, notes))
    loop = Loop(pool, tracer)
    passes = run_loop(loop, args.seconds)
    slow = slowdowns(loop.refs)
    scaled = [lat / f for lat, f in zip(loop.latencies, slow)]
    result.update({
        "passes": passes,
        "ops": loop.ops,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "latencies_s": loop.latencies,
        "scaled_latencies_s": scaled,
        "host_slowdown": statistics.median(slow),
        "peak_rss_mb": _peak_rss_mb(),
        "digest": loop.digest(),
        "errors": loop.errors,
    })
    if args.traced:
        tracer.enabled = False
        result["layers"] = layer_metrics(tracer, notes, loop, passes)
        if args.spans:
            write_spans(args.spans, tracer.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
