"""Two measurements behind the baseline's observations; prints JSON.

    python3 perfbench/observations.py

* the same q-product ``current`` request with ``--workers 1`` and
  ``--workers 2`` (median of three alternating runs each);
* resident memory grown by 1200 thermal edge updates at k = 0.75, where
  most updates meet a tilt value not seen before.
"""

import json
import os
import statistics
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _rss_mb():
    with open("/proc/self/statm") as fh:
        pages = int(fh.read().split()[1])
    return pages * os.sysconf("SC_PAGE_SIZE") / 2 ** 20


def workers_slowdown(replicas=1000, reps=3):
    from asymtransport import cli
    scratch = os.path.join(ROOT, ".perfbench_tmp")
    os.makedirs(scratch, exist_ok=True)
    times = {1: [], 2: []}
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        for _ in range(reps):
            for workers in (1, 2):
                argv = ["current", "--formula", "q-product", "--q", "0.8",
                        "--k", "0.5", "--t", "1", "--window", "40",
                        "--replicas", str(replicas), "--seed", "7",
                        "--workers", str(workers),
                        "--out", os.path.join(tmp, "out.csv")]
                start = time.perf_counter()
                cli.main(argv)
                times[workers].append(time.perf_counter() - start)
    w1, w2 = (statistics.median(times[w]) for w in (1, 2))
    return {"replicas": replicas, "workers1_s": w1, "workers2_s": w2,
            "slowdown": w2 / w1}


def thermal_memory_growth(target_updates=1200, sites=40, seed=5):
    import numpy as np
    from asymtransport import engine, thermal
    from asymtransport.configspace import ModelParams
    params = ModelParams(q=1.0, k=0.75, sigma=0.5, L=sites)
    rng = engine.SeedTree(seed).stream(0)
    x0 = rng.exponential(1.0, sites)
    before = _rss_mb()
    _, events = thermal.simulate_thermal_continuous(
        x0, target_updates / (sites - 1), params, rng)
    return {"updates": len(events), "rss_growth_mb": _rss_mb() - before}


def main():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    print(json.dumps({"workers": workers_slowdown(),
                      "thermal_memory": thermal_memory_growth()}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
