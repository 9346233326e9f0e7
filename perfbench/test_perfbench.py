"""Self-tests of the benchmark's own machinery.

    python3 -m pytest -q perfbench
"""

import concurrent.futures
import json
import math
import os
import shutil
import subprocess
import sys
import time
import types

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import tracer as tr  # noqa: E402


# ------------------------------------------------------- percentile rule

@pytest.mark.parametrize("n", [11, 12, 37, 100, 1000])
def test_tail_percentile_is_highest_with_ten_beyond(n):
    samples = [float(x) for x in range(n)][::-1]
    pct, value = tr.tail_percentile(samples)
    assert sum(1 for x in samples if x > value) == 10
    assert pct == pytest.approx(100.0 * (n - 10) / n)
    # nearest rank: the p-th percentile is the ceil(p n / 100)-th smallest
    rank = math.ceil(round(pct * n / 100.0, 9))
    assert sorted(samples)[rank - 1] == value
    # any higher percentile leaves fewer than ten samples beyond it
    higher = math.ceil(round((pct + 1e-6) * n / 100.0, 9))
    assert n - higher < 10


def test_tail_percentile_needs_more_than_ten_samples():
    with pytest.raises(ValueError):
        tr.tail_percentile(range(10))


# ------------------------------------------------------- self-time rule

def _span(sid, parent, start, end, thread):
    return tr.Span(sid, parent, "s%d" % sid, start, end, 0, thread)


def test_self_time_counts_overlapping_children_once():
    spans = [
        _span(1, 0, 0.0, 10.0, "main"),
        _span(2, 1, 1.0, 5.0, "worker-a"),    # overlaps span 3
        _span(3, 1, 3.0, 8.0, "worker-b"),
        _span(4, 2, 2.0, 3.0, "worker-a"),    # grandchild of 1
        _span(5, 1, 9.5, 11.0, "worker-a"),   # runs past its parent's end
    ]
    selfs = tr.self_times(spans)
    assert selfs[1] == pytest.approx(10.0 - 7.0 - 0.5)
    assert selfs[2] == pytest.approx(4.0 - 1.0)
    assert selfs[3] == pytest.approx(5.0)
    assert selfs[4] == pytest.approx(1.0)


def test_worker_thread_spans_hang_under_the_waiting_span():
    tracer = tr.Tracer()
    work = tracer.wrap(lambda: time.sleep(0.02), "child")
    tracer.begin_request(7)
    with tracer.span("parent") as parent:
        with concurrent.futures.ThreadPoolExecutor(max_workers=2) as ex:
            for f in [ex.submit(work) for _ in range(4)]:
                f.result()
    children = [s for s in tracer.spans if s.name == "child"]
    (top,) = [s for s in tracer.spans if s.name == "parent"]
    assert len(children) == 4
    assert {s.parent for s in children} == {parent}
    assert {s.request for s in tracer.spans} == {7}
    assert len({s.thread for s in children}) == 2
    covered = tr.union_length([(c.start, c.end) for c in children])
    # two threads of sleeping children overlap: cover < their summed time
    assert covered < sum(c.end - c.start for c in children)
    assert tr.self_times(tracer.spans)[parent] == pytest.approx(
        (top.end - top.start) - covered)


# ----------------------------------------------- wrapper install/restore

def _fake_module():
    mod = types.ModuleType("fake")
    exec(
        "def inner(x):\n"
        "    if x < 0:\n"
        "        raise ValueError(x)\n"
        "    return 2 * x\n"
        "def outer(x):\n"
        "    return inner(x) + 1\n"      # module-global lookup, as in dualitylab
        "class Tree:\n"
        "    def __init__(self, seed):\n"
        "        self.seed = seed\n"
        "    def stream(self, r):\n"
        "        return (self.seed, r)\n", mod.__dict__)
    return mod


def test_install_wraps_caller_lookups_and_restore_undoes_it():
    mod = _fake_module()
    originals = (mod.inner, mod.outer, mod.Tree.__dict__["stream"])
    tracer = tr.Tracer()
    seen = []
    targets = [
        (mod, "inner", "fake.inner", None,
         lambda tok, sid, a, kw, out: seen.append(out)),
        (mod, "outer", "fake.outer", None, None),
        (mod.Tree, "stream", "fake.Tree.stream", None, None),
    ]
    saved = tr.install(tracer, targets)
    try:
        assert mod.outer(3) == 7
        assert mod.Tree(5).stream(2) == (5, 2)
        with pytest.raises(ValueError):
            mod.outer(-1)
        with tracer.paused():
            mod.outer(4)
    finally:
        tr.restore(saved)
    by_name = {}
    for s in tracer.spans:
        by_name.setdefault(s.name, []).append(s)
    assert len(by_name["fake.outer"]) == 2
    assert len(by_name["fake.inner"]) == 2
    assert by_name["fake.inner"][0].parent == by_name["fake.outer"][0].sid
    assert len(by_name["fake.Tree.stream"]) == 1
    assert seen == [6]
    assert tracer.errors == {"fake.inner": 1, "fake.outer": 1}
    assert (mod.inner, mod.outer, mod.Tree.__dict__["stream"]) == originals
    assert mod.inner is originals[0] and mod.outer is originals[1]
    assert mod.outer(3) == 7 and len(tracer.spans) == 5


# ------------------------------------------------------ host-speed scale

def test_slowdown_is_the_median_reference_time_around_each_request():
    import measure
    nominal = measure.REFERENCE_NOMINAL_S
    refs = [nominal] * 10 + [2 * nominal] * 10
    refs[3] = 50 * nominal                  # one stalled sample is ignored
    slow = measure.slowdowns(refs, window=2)
    assert slow[3] == pytest.approx(1.0)
    assert slow[9] == pytest.approx(1.0)    # window holds 3 fast, 2 slow
    assert slow[10] == pytest.approx(2.0)
    assert slow[-1] == pytest.approx(2.0)


# ----------------------------------------------------- declared metrics

def test_per_layer_metrics_match_benchmark_json():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import measure

    class NoRequests:
        out_bytes = []

    notes = {"event_samples": [], "snapshots": [], "workers": {},
             "states": {}, "tilts": set(), "tilt_reuse": 0}
    emitted = set(measure.layer_metrics(tr.Tracer(), notes, NoRequests(), 1))
    emitted |= {"trace.ops_per_s_untraced", "trace.ops_per_s_traced",
                "trace.overhead_pct", "bench.req_tail_pct"}
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = {m["name"] for m in json.load(fh)["per_layer"]}
    assert emitted == declared
    prefixes = {name.split(".")[0] for name in declared}
    assert set(measure.MODULES) <= prefixes


# ------------------------------------------------------------ end to end

def _one_pass(workload, seed):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "measure.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report["failed"] == 0, report["errors"]
    return report["digest"]


@pytest.mark.parametrize("workload", ["mc_step", "ensemble_mix",
                                      "verify_exact", "thermal_energy"])
def test_same_seed_gives_identical_outputs(workload):
    first = _one_pass(workload, 3)
    assert first != "incomplete"
    assert _one_pass(workload, 3) == first
    assert _one_pass(workload, 4) != first


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mc_step",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
