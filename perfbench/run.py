"""Repository benchmark for asymtransport.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Workloads (see workloads.py and README.md):
mc_step, ensemble_mix, verify_exact, thermal_energy.

``--trace 0`` reports the end-to-end metrics: it times the set-up (import
plus first request) in three fresh processes and then replays the
workload's request pool for S seconds in the last of them.  ``--trace 1``
reports the per-layer metrics: an untraced process and a traced process
run S/2 seconds each, one after the other, and their throughput ratio is
the tracing overhead.  The last line of standard output is one JSON
object; the lines before it repeat every metric with its unit.

Metric names and units come from BENCHMARK.json at the repository root.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

from tracer import tail_percentile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
MEASURE = os.path.join(HERE, "measure.py")
SETUP_SAMPLES = 3
SETUP_TIMEOUT_S = 60


class BenchError(Exception):
    pass


def _child(args, timeout):
    """Run measure.py in a fresh interpreter; returns its JSON report."""
    proc = subprocess.run([sys.executable, MEASURE] + args, cwd=ROOT,
                          capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise BenchError("measure.py %s failed (exit %d):\n%s"
                         % (" ".join(args), proc.returncode,
                            proc.stderr[-4000:]))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _declared():
    """Workload names and metric units declared in BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return ([w["name"] for w in spec["workloads"]],
            {m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def _throughput(report, scaled=True):
    """Completed operations per second of request time."""
    lat = report["scaled_latencies_s" if scaled else "latencies_s"]
    return report["ops"] / sum(lat)


def _latency(report, scaled=True):
    """(p50 ms, tail ms, tail percentile) of a report's request latencies."""
    lat = report["scaled_latencies_s" if scaled else "latencies_s"]
    pct, tail = tail_percentile(lat)
    return 1e3 * statistics.median(lat), 1e3 * tail, pct


def end_to_end(base, seconds):
    setups = [_child(base + ["--setup-only"], SETUP_TIMEOUT_S)
              for _ in range(SETUP_SAMPLES - 1)]
    report = _child(base, seconds + 120)
    setups.append(report)
    p50, tail, pct = _latency(report)
    metrics = {
        "setup_s": statistics.median(s["scaled_setup_s"] for s in setups),
        "ops_per_s": _throughput(report),
        "req_p50_ms": p50,
        "req_tail_ms": tail,
        "peak_rss_mb": report["peak_rss_mb"],
    }
    raw_p50, raw_tail, _ = _latency(report, scaled=False)
    notes = [
        "req_tail_ms is the p%.2f latency of %d requests in %d passes"
        % (pct, len(report["latencies_s"]), report["passes"]),
        "times are scaled to the reference host speed; host slowdown "
        "%.4f (median reference loop time / 1 ms)" % report["host_slowdown"],
        "unscaled: setup_s %.4f, ops_per_s %.6g, req_p50_ms %.6g, "
        "req_tail_ms %.6g" % (
            statistics.median(s["setup_s"] for s in setups),
            _throughput(report, scaled=False), raw_p50, raw_tail),
    ]
    return metrics, [report], notes


def per_layer(base, workload, seconds):
    half = max(seconds / 2.0, 0.5)
    plain = _child(base[:-1] + [repr(half)], half + 120)
    spans = os.path.join(ROOT, ".perfbench_out", "spans-%s.csv" % workload)
    traced = _child(base[:-1] + [repr(half), "--traced", "--spans", spans],
                    half + 150)
    untraced_ops, traced_ops = _throughput(plain), _throughput(traced)
    metrics = dict(traced["layers"])
    metrics["trace.ops_per_s_untraced"] = untraced_ops
    metrics["trace.ops_per_s_traced"] = traced_ops
    metrics["trace.overhead_pct"] = 100.0 * (1.0 - traced_ops / untraced_ops)
    metrics["bench.req_tail_pct"] = _latency(plain)[2]
    notes = ["spans written to %s" % os.path.relpath(spans, ROOT)]
    return metrics, [plain, traced], notes


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not os.path.isfile(os.path.join(ROOT, "src", "asymtransport",
                                       "__init__.py")):
        print("perfbench: no asymtransport sources under %s/src; run from "
              "a checkout of the repository" % ROOT, file=sys.stderr)
        return 2

    workloads, e2e_units, layer_units = _declared()
    if args.workload not in workloads:
        ap.error("--workload must be one of %s" % ", ".join(workloads))
    base = ["--workload", args.workload, "--seed", str(args.seed),
            "--seconds", repr(args.seconds)]
    try:
        if args.trace:
            metrics, reports, notes = per_layer(base, args.workload,
                                                args.seconds)
            units = layer_units
        else:
            metrics, reports, notes = end_to_end(base, args.seconds)
            units = e2e_units
    except (BenchError, subprocess.TimeoutExpired, ValueError) as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        return 1
    missing = set(units) ^ set(metrics)
    if missing:
        print("perfbench: metrics and BENCHMARK.json disagree on %s"
              % sorted(missing), file=sys.stderr)
        return 1

    attempted = sum(r["attempted"] for r in reports)
    failed = sum(r["failed"] for r in reports)
    print("workload %s seed %d: %d requests, output digest %s"
          % (args.workload, args.seed, attempted,
             ", ".join(r["digest"] for r in reports)))
    for name in units:
        print("  %-40s %16.6g %s" % (name, metrics[name], units[name]))
    print("  %-40s %16.6g ratio (%d of %d requests failed)"
          % ("fail_ratio", failed / attempted if attempted else 0.0,
             failed, attempted))
    for note in notes:
        print("  " + note)
    for r in reports:
        for err in r["errors"]:
            print("  failure: " + err)
    print(json.dumps({
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
