"""Command line interface: config round trips, CSV formats, determinism,
fault injection and input validation."""

import json
import math
import os
import subprocess
import sys
import time

import pytest

from asymtransport import cli
from asymtransport.cli import ExperimentSpec, main

DATA = os.path.join(os.path.dirname(__file__), "data")
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _read(path):
    with open(path, "rb") as fh:
        return fh.read()


def test_spec_config_round_trip(tmp_path):
    spec = ExperimentSpec(command="current", formula="q-product", q=0.77,
                          k=1.25, t=2.5, window=24, bernoulli=0.4,
                          replicas=321, seed=9, workers=3, out="x.csv")
    path = tmp_path / "run.cfg"
    spec.save(path)
    back = ExperimentSpec.load(path, "current")
    assert back == spec


def test_config_as_defaults(tmp_path):
    path = tmp_path / "run.cfg"
    ExperimentSpec(command="rate", model="asip", q=0.9, points=3,
                   x_max=1.0).save(path)
    out = tmp_path / "rate.csv"
    code = main(["rate", "--config", str(path), "--out", str(out)])
    assert code == 0
    lines = _read(out).decode().splitlines()
    assert lines[0] == "x,I(x)"
    assert len(lines) == 3 + 1 + 2
    assert lines[-2] == "sup,inf,limit"


def test_verify_suites_pass(tmp_path):
    out = tmp_path / "rep.txt"
    code = main(["verify", "--suite", "all", "--q", "0.8", "--k", "0.5",
                 "--out", str(out)])
    text = _read(out).decode()
    assert code == 0
    assert "result: pass" in text
    assert "FAIL" not in text


@pytest.mark.parametrize("q,k", [("0.99", "2"), ("0.999", "0.5")])
def test_verify_measures_pass_near_q_one(tmp_path, q, k):
    # the ring's product-form residual is 5.4e-6 and 1.3e-9 here, far
    # below any fixed bound on an optimizer's gap but above round-off
    out = tmp_path / "rep.txt"
    code = main(["verify", "--suite", "measures", "--q", q, "--k", k,
                 "--out", str(out)])
    text = _read(out).decode()
    assert code == 0
    assert "ring-has-no-product-measure" in text and "FAIL" not in text


@pytest.mark.parametrize("q", ["0.1", "0.5", "0.7", "0.75", "0.95"])
@pytest.mark.parametrize("k", ["0.5", "1", "2"])
def test_verify_measures_pass_across_q_and_k(tmp_path, q, k):
    # the measures live on sites 1..L; a series at site 0 diverged at
    # alpha = 0.3 alpha_max for most of these points
    out = tmp_path / "rep.txt"
    code = main(["verify", "--suite", "measures", "--q", q, "--k", k,
                 "--out", str(out)])
    assert code == 0
    assert _read(out).decode().splitlines()[-1].startswith("result: pass")


def test_verify_all_passes_at_q_07_k_1(tmp_path):
    out = tmp_path / "rep.txt"
    code = main(["verify", "--suite", "all", "--q", "0.7", "--k", "1.0",
                 "--sigma", "1.3", "--out", str(out)])
    assert code == 0
    assert _read(out).decode().splitlines()[-1].startswith("result: pass")


def test_verify_fault_injection_fails(tmp_path):
    out = tmp_path / "rep.txt"
    code = main(["verify", "--suite", "duality", "--q", "0.8", "--k", "0.5",
                 "--perturb-q", "0.01", "--out", str(out)])
    text = _read(out).decode()
    assert code == 1
    assert "result: FAIL" in text
    assert "self-duality" in text


def test_simulate_matches_golden_file(tmp_path):
    out = tmp_path / "sim.csv"
    code = main(["simulate", "--model", "asip", "--L", "4", "--n", "3",
                 "--q", "0.8", "--k", "0.5", "--t", "1", "--replicas", "5",
                 "--seed", "42", "--out", str(out)])
    assert code == 0
    assert _read(out) == _read(os.path.join(DATA, "simulate_golden.csv"))


def test_simulate_long_chain_matches_golden_file(tmp_path):
    # 72 sites give 142 edge rates: the total takes NumPy's split-and-recurse
    # and 8-accumulator summation paths, and any last-bit change in it moves
    # the %.17g event times written here
    out = tmp_path / "sim.csv"
    code = main(["simulate", "--model", "asip",
                 "--init", ",".join(["2"] * 36 + ["0"] * 36), "--q", "0.8",
                 "--k", "0.5", "--t", "0.3", "--replicas", "2", "--seed", "19",
                 "--out", str(out)])
    assert code == 0
    assert _read(out) == _read(os.path.join(DATA, "simulate_long_golden.csv"))


# Rows written by the array-based event loop that the scalar loop replaced;
# W = 40 gives 78 edge rates and W = 72 gives 142.
CURRENT_GOLDEN = [
    ("current_step_golden.csv",
     ["--formula", "q-step", "--q", "0.8", "--k", "0.5", "--t", "1.0",
      "--window", "40", "--bond", "0", "--replicas", "60", "--seed", "13"]),
    ("current_product_golden.csv",
     ["--formula", "q-product", "--q", "0.8", "--k", "0.5", "--t", "1.0",
      "--window", "72", "--bernoulli", "0.4", "--replicas", "80",
      "--seed", "17", "--workers", "2"]),
]


@pytest.mark.parametrize("golden,args", CURRENT_GOLDEN)
def test_current_matches_golden_file(tmp_path, golden, args):
    out = tmp_path / "cur.csv"
    assert main(["current"] + args + ["--out", str(out)]) == 0
    assert _read(out) == _read(os.path.join(DATA, golden))


def test_simulate_deterministic_across_runs(tmp_path):
    args = ["simulate", "--model", "sip", "--L", "3", "--n", "2",
            "--k", "0.75", "--t", "0.5", "--replicas", "4", "--seed", "7"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    main(args + ["--out", str(a)])
    main(args + ["--out", str(b)])
    assert _read(a) == _read(b)


def test_simulate_explicit_init(tmp_path):
    out = tmp_path / "sim.csv"
    code = main(["simulate", "--model", "asip", "--init", "2,0,1",
                 "--q", "0.7", "--k", "0.5", "--t", "0.3", "--replicas", "2",
                 "--seed", "1", "--out", str(out)])
    assert code == 0
    lines = _read(out).decode().splitlines()
    assert lines[0] == "replica,time,edge,direction"
    for line in lines[1:]:
        r, t, e, d = line.split(",")
        assert 0 <= int(r) < 2
        assert 0.0 < float(t) <= 0.3
        assert int(e) in (1, 2)
        assert int(d) in (-1, 1)


def test_current_worker_count_invariance(tmp_path):
    base = ["current", "--formula", "q-product", "--q", "0.8", "--k", "0.5",
            "--t", "0.5", "--window", "16", "--bernoulli", "0.5",
            "--replicas", "60", "--seed", "11"]
    a, b = tmp_path / "w1.csv", tmp_path / "w4.csv"
    main(base + ["--workers", "1", "--out", str(a)])
    main(base + ["--workers", "4", "--out", str(b)])
    assert _read(a) == _read(b)
    lines = _read(a).decode().splitlines()
    assert lines[0] == "formula,param_hash,theory,mc,se,z"
    row = lines[1].split(",")
    assert row[0] == "q-product"
    assert abs(float(row[5])) < 4.0


def test_current_step_formula(tmp_path):
    out = tmp_path / "cur.csv"
    code = main(["current", "--formula", "q-step", "--q", "0.8", "--k", "0.5",
                 "--t", "0.4", "--window", "12", "--replicas", "80",
                 "--seed", "5", "--out", str(out)])
    assert code == 0
    row = _read(out).decode().splitlines()[1].split(",")
    assert abs(float(row[5])) < 4.0


def test_current_energy_product_no_mc(tmp_path):
    out = tmp_path / "cur.csv"
    code = main(["current", "--formula", "energy-product", "--sigma", "0.5",
                 "--k", "0.5", "--t", "0.8", "--energy", "1.0",
                 "--seed", "3", "--out", str(out)])
    assert code == 0
    row = _read(out).decode().splitlines()[1].split(",")
    assert float(row[4]) == 0.0
    assert abs(float(row[5])) < 1e-10


def test_rate_csv_shape(tmp_path):
    out = tmp_path / "rate.csv"
    code = main(["rate", "--model", "sip", "--k", "0.5", "--sigma", "1.0",
                 "--energy", "0.5", "--points", "5", "--x-max", "2.0",
                 "--out", str(out)])
    assert code == 0
    lines = _read(out).decode().splitlines()
    assert lines[0] == "x,I(x)"
    assert len(lines) == 5 + 1 + 2
    sup, inf, limit = map(float, lines[-1].split(","))
    assert sup == limit
    assert inf == 0.0


def test_rate_far_left_grid_writes_finite_rows(tmp_path):
    out = tmp_path / "rate.csv"
    code = main(["rate", "--model", "asip", "--points", "3", "--x-min=-1e9",
                 "--x-max", "0", "--out", str(out)])
    assert code == 0
    lines = _read(out).decode().splitlines()
    assert len(lines) == 3 + 1 + 2
    values = [float(v) for line in lines[1:] if line != "sup,inf,limit"
              for v in line.split(",")]
    assert len(values) == 2 * 3 + 3 and all(map(math.isfinite, values))


def test_thermalize_qbetabinom(tmp_path):
    out = tmp_path / "th.csv"
    code = main(["thermalize", "--sampler", "qbetabinom", "--n", "4",
                 "--q", "0.7", "--k", "0.5", "--samples", "2000",
                 "--seed", "2", "--out", str(out)])
    assert code == 0
    lines = _read(out).decode().splitlines()
    assert lines[0] == "bin,empirical,exact"
    assert len(lines) == 1 + 5
    total = sum(float(line.split(",")[2]) for line in lines[1:])
    assert total == pytest.approx(1.0, abs=1e-12)


def test_thermalize_kmp_bins(tmp_path):
    out = tmp_path / "th.csv"
    code = main(["thermalize", "--sampler", "kmp", "--energy", "1.0",
                 "--bins", "10", "--samples", "1000", "--seed", "4",
                 "--out", str(out)])
    assert code == 0
    lines = _read(out).decode().splitlines()
    assert len(lines) == 1 + 10
    for line in lines[1:]:
        _, emp, exact = map(float, line.split(","))
        assert exact == pytest.approx(0.1, abs=1e-8)
        assert 0.0 <= emp <= 1.0


def test_empty_grid_rejected():
    with pytest.raises(SystemExit):
        main(["rate", "--model", "asip", "--q", "0.8", "--k", "0.5",
              "--points", "0"])


def test_nonpositive_horizon_rejected():
    with pytest.raises(SystemExit):
        main(["simulate", "--model", "asip", "--q", "0.8", "--k", "0.5",
              "--t", "0", "--seed", "1"])


def test_seed_required_for_stochastic_commands():
    for argv in (["simulate", "--model", "asip", "--t", "1"],
                 ["current", "--formula", "q-step", "--t", "1"],
                 ["thermalize", "--sampler", "kmp"]):
        with pytest.raises(SystemExit):
            main(argv)


def test_init_length_mismatch_rejected():
    with pytest.raises(SystemExit):
        main(["simulate", "--model", "asip", "--L", "5", "--init", "1,1",
              "--t", "1", "--seed", "1"])


def test_init_length_checked_against_default_valued_L():
    # an explicit --L equal to the spec default is still a given length
    with pytest.raises(SystemExit):
        main(["simulate", "--model", "asip", "--L", "4", "--init", "2,0,1",
              "--t", "1", "--seed", "1"])


@pytest.mark.parametrize("bad", [
    ["--replicas", "0"], ["--replicas", "1"], ["--q", "1.0"],
    ["--t", "0"], ["--window", "1"], ["--bond", "20"], ["--bond", "-20"],
    ["--t", "nan"], ["--t", "inf"], ["--k", "0"], ["--k", "-1"],
    ["--bernoulli", "nan"], ["--bernoulli", "1.5"], ["--bernoulli", "-0.1"],
    # no jump by t = 1e-12 (nor any particle for q-product): every
    # replica ends with q^(2J) = 1, so se = 0 and there is no z score
    ["--window", "4", "--bond", "1", "--t", "1e-12", "--replicas", "2",
     "--bernoulli", "0"],
])
@pytest.mark.parametrize("formula", ["q-step", "q-product"])
def test_current_bad_monte_carlo_input_rejected(tmp_path, formula, bad):
    out = tmp_path / "cur.csv"
    argv = ["current", "--formula", formula, "--q", "0.8", "--t", "0.5",
            "--window", "40", "--replicas", "10", "--seed", "1",
            "--out", str(out)] + bad
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert isinstance(exc.value.code, str)
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["thermalize", "--sampler", "kmp", "--samples", "0"],
    ["thermalize", "--sampler", "qbetabinom", "--samples", "-5"],
    ["thermalize", "--sampler", "qbetabinom", "--q", "1.5"],
    ["thermalize", "--sampler", "qbetabinom", "--q", "0"],
    ["thermalize", "--sampler", "qbetabinom", "--n", "-1"],
    ["thermalize", "--sampler", "qbetabinom", "--k", "0"],
    ["thermalize", "--sampler", "tilted-beta", "--k", "-1"],
    ["thermalize", "--sampler", "tilted-beta", "--sigma", "-1"],
    ["thermalize", "--sampler", "kmp", "--energy", "0"],
    ["thermalize", "--sampler", "kmp", "--bins", "0"],
    ["thermalize", "--sampler", "tilted-beta", "--k", "0.75", "--sigma", "1",
     "--energy", "1000", "--samples", "100", "--bins", "4"],
    ["thermalize", "--sampler", "tilted-beta", "--k", "0.5", "--sigma", "1",
     "--energy", "1000", "--samples", "100", "--bins", "4"],
    ["verify", "--q", "1.5"],
    ["verify", "--suite", "duality", "--q", "1.0"],
    ["verify", "--suite", "measures", "--q", "1.0"],
    ["verify", "--suite", "thermal", "--q", "0.8", "--perturb-q", "0.5"],
    ["verify", "--suite", "limits", "--q", "0.8", "--perturb-q", "-0.9"],
    ["rate", "--model", "asip", "--q", "1.5", "--k", "0.5"],
    ["rate", "--model", "asip", "--q", "0", "--k", "0.5"],
    ["simulate", "--model", "asip", "--t", "1", "--replicas", "0"],
    ["simulate", "--model", "asip", "--t", "1", "--replicas", "-3"],
    ["simulate", "--model", "asip", "--t", "nan"],
    ["simulate", "--model", "asip", "--t", "inf"],
    ["simulate", "--model", "asip", "--t", "1", "--k", "0"],
    ["verify", "--k", "0"],
    ["verify", "--k", "-1"],
    ["verify", "--k", "nan"],
    ["verify", "--sigma", "-1"],
    ["verify", "--sigma", "nan"],
    ["rate", "--model", "asip", "--k", "0"],
    ["rate", "--model", "sip", "--k", "-0.5"],
    ["rate", "--model", "asip", "--bernoulli", "nan"],
    ["current", "--formula", "energy-product", "--t", "nan"],
    ["current", "--formula", "energy-product", "--sigma", "-1"],
    ["current", "--formula", "energy-product", "--energy", "nan"],
    ["current", "--formula", "energy-product", "--sigma", "1",
     "--energy", "1e6"],
    ["current", "--formula", "energy-product", "--sigma", "1",
     "--energy", "20"],
    ["current", "--formula", "energy-product", "--sigma", "1",
     "--energy", "2", "--window", "160"],
    ["current", "--formula", "energy-product", "--sigma", "1",
     "--energy", "2"],
    ["rate", "--model", "asip", "--x-min", "nan", "--points", "3"],
    ["rate", "--model", "asip", "--x-max", "inf", "--points", "2"],
    ["rate", "--model", "sip", "--energy", "nan"],
    ["rate", "--model", "sip", "--sigma", "1", "--energy", "1e6"],
    ["rate", "--model", "asip", "--x-max", "1e308", "--points", "2"],
    ["simulate", "--init", "1,-1,2", "--L", "3", "--t", "1"],
    ["simulate", "--init", "a,b", "--L", "2", "--t", "1"],
    ["simulate", "--init", "1,99999999999999999999", "--L", "2", "--t", "1"],
    ["simulate", "--init", "a,b"],
    ["simulate", "--init", "1,-1,2"],
    ["simulate", "--init", "99999999999999999999,0"],
    ["verify", "--suite", "measures", "--k", "0.75"],
    ["verify", "--suite", "all", "--k", "0.75"],
    ["verify", "--suite", "duality", "--k", "1e-100"],
    ["verify", "--suite", "thermal", "--k", "1e-100"],
    ["verify", "--suite", "thermal", "--q", "1", "--k", "1e-100"],
    ["verify", "--suite", "algebra", "--q", "1", "--k", "1e-16"],
    ["thermalize", "--sampler", "qbetabinom", "--n", "1200", "--q", "0.5"],
    ["thermalize", "--sampler", "qbetabinom", "--n", "1000", "--q", "0.7"],
    ["simulate", "--L", "1", "--n", "1", "--t", "1"],
    ["simulate", "--init", "5", "--t", "1"],
    ["simulate", "--L", "3", "--n", "-2", "--t", "1"],
    ["verify", "--suite", "thermal", "--sigma", "0"],
    ["verify", "--suite", "all", "--sigma", "0"],
    ["verify", "--suite", "duality", "--sigma", "0"],
    ["verify", "--suite", "duality", "--sigma", "1e-300"],
    ["verify", "--suite", "thermal", "--sigma", "1e300"],
    # q ** -n past the float range inside q_number
    ["current", "--formula", "q-step", "--q", "0.5", "--k", "600", "--t", "1"],
    ["rate", "--model", "asip", "--q", "0.5", "--k", "600"],
    ["simulate", "--model", "asip", "--q", "0.5", "--k", "600", "--t", "1",
     "--L", "3", "--n", "2"],
    ["simulate", "--model", "asip", "--q", "0.1", "--init", "400,0,0",
     "--t", "0.01"],
])
def test_bad_sampler_and_simulate_input_rejected(tmp_path, argv):
    out = tmp_path / "out.csv"
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--seed", "1", "--out", str(out)])
    assert isinstance(exc.value.code, str)
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    # hung before the budget: the clock never reaches 1e308
    ["simulate", "--model", "asip", "--L", "3", "--n", "2", "--q", "0.8",
     "--k", "0.5", "--t", "1e308", "--replicas", "1"],
    # 1e5 x 2 replicas x 39 edges x 13.1, the rate of an edge holding
    # (2, 2): about 1.02e8 events
    ["current", "--formula", "q-step", "--q", "0.8", "--k", "0.5", "--t",
     "1e5", "--window", "40", "--replicas", "2"],
])
def test_horizon_past_the_event_budget_rejected(tmp_path, monkeypatch, argv):
    def run(*args, **kwargs):
        raise AssertionError("event loop started")

    monkeypatch.setattr(cli.engine, "simulate_batch", run)
    out = tmp_path / "out.csv"
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--seed", "1", "--out", str(out)])
    assert "budget of %.0e" % cli.EVENT_BUDGET in str(exc.value.code)
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["simulate", "--init", "%d,0" % (cli.TABLE_MAX + 1), "--t", "1"],
    ["current", "--formula", "q-step", "--window", str(cli.TABLE_MAX + 1)],
    ["current", "--formula", "q-product", "--window", str(cli.TABLE_MAX + 1)],
])
def test_oversized_rate_tables_rejected_before_build(tmp_path, monkeypatch,
                                                    argv):
    # a table over n particles makes (n + 1)^2 rate calls; past the limit
    # the request must fail before the first one
    def build(*args, **kwargs):
        raise AssertionError("rate table built")

    monkeypatch.setattr(cli.models, "edge_rate_table", build)
    out = tmp_path / "out.csv"
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--seed", "1", "--out", str(out)])
    assert isinstance(exc.value.code, str)
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["verify", "--suite", "limits"],
    ["simulate", "--model", "asip", "--t", "1", "--replicas", "2"],
    ["current", "--formula", "energy-product"],
    ["rate", "--model", "asip", "--points", "3"],
    ["thermalize", "--sampler", "kmp", "--samples", "10"],
], ids=lambda argv: argv[0])
def test_out_in_missing_directory_rejected_before_the_run(tmp_path,
                                                          monkeypatch, argv):
    # output is written after the run, so the path is checked first
    def run(spec):
        raise AssertionError("command ran")

    monkeypatch.setitem(cli._COMMANDS, argv[0], run)
    out = tmp_path / "missing" / "out.csv"
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--seed", "1", "--out", str(out)])
    assert isinstance(exc.value.code, str)
    assert list(tmp_path.iterdir()) == []


def test_thermalize_qbetabinom_on_a_large_edge_is_fast(tmp_path):
    # the split law is one running product over the occupancies: O(n)
    # q-numbers, not O(n^2)
    out = tmp_path / "th.csv"
    t0 = time.monotonic()
    assert main(["thermalize", "--sampler", "qbetabinom", "--n", "2000",
                 "--q", "0.99", "--seed", "1", "--out", str(out)]) == 0
    assert time.monotonic() - t0 < 2.0
    assert len(_read(out).decode().splitlines()) == 2002


@pytest.mark.parametrize("k", ["0.5", "0.75"])
def test_largest_tilts_put_their_mass_in_the_last_bin(tmp_path, k):
    # a = 2 sigma E = 600: the split keeps nearly all energy on the left
    out = tmp_path / "tb.csv"
    code = main(["thermalize", "--sampler", "tilted-beta", "--k", k,
                 "--sigma", "1", "--energy", "300", "--samples", "100",
                 "--bins", "4", "--seed", "1", "--out", str(out)])
    assert code == 0
    rows = [list(map(float, line.split(",")))
            for line in _read(out).decode().splitlines()[1:]]
    assert [emp for _, emp, _ in rows] == [0.0, 0.0, 0.0, 1.0]
    assert rows[-1][2] == pytest.approx(1.0, abs=1e-15)
    assert sum(exact for _, _, exact in rows[:-1]) < 1e-60


# Histograms written by the quadrature-binned sampler diagnostics that the
# closed-form distribution function replaced: draws are bit-identical, the
# exact bin masses move only in their last bits.
THERMALIZE_GOLDEN = [
    ("thermalize_kmp_golden.csv", ["--sampler", "kmp"]),
    ("thermalize_tb05_golden.csv",
     ["--sampler", "tilted-beta", "--k", "0.5", "--sigma", "0.5",
      "--energy", "1.3"]),
]


@pytest.mark.parametrize("golden,args", THERMALIZE_GOLDEN)
def test_thermalize_matches_golden_file(tmp_path, golden, args):
    out = tmp_path / "th.csv"
    assert main(["thermalize", "--energy", "1.0", "--bins", "10",
                 "--samples", "1000", "--seed", "4"] + args
                + ["--out", str(out)]) == 0
    got = _read(out).decode().splitlines()
    ref = _read(os.path.join(DATA, golden)).decode().splitlines()
    assert got[0] == ref[0] and len(got) == len(ref)
    for row, ref_row in zip(got[1:], ref[1:]):
        *head, exact = row.split(",")
        *ref_head, ref_exact = ref_row.split(",")
        assert head == ref_head
        assert abs(float(exact) - float(ref_exact)) < 1e-14


def test_verify_all_matches_golden_file(tmp_path):
    # the printed residuals of the re-derivation checks would show any
    # change in the last bits of the exact kernels
    out = tmp_path / "rep.txt"
    code = main(["verify", "--suite", "all", "--q", "0.85", "--k", "1.0",
                 "--out", str(out)])
    assert code == 0
    assert _read(out) == _read(os.path.join(DATA, "verify_all_golden.txt"))


@pytest.mark.parametrize("text,argv", [
    ("[simulate]\nreplicas = abc\n", ["simulate", "--seed", "1"]),
    ("replicas = 3\n", ["simulate", "--seed", "1"]),
    ("[verify]\nsuite = 'bogus'\n", ["verify"]),
    ("[simulate]\nmodel = 'th_asip'\n", ["simulate", "--seed", "1"]),
], ids=["bad-int", "no-section", "bad-suite", "bad-model"])
def test_bad_config_file_rejected(tmp_path, text, argv):
    # a config value goes through the type and choice checks of its flag
    path = tmp_path / "run.cfg"
    path.write_text(text)
    out = tmp_path / "out.csv"
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--config", str(path), "--out", str(out)])
    assert isinstance(exc.value.code, str)
    assert str(path) in exc.value.code
    assert not out.exists()


def test_unknown_sampler_rejected():
    with pytest.raises(SystemExit):
        cli.cmd_thermalize(ExperimentSpec(command="thermalize",
                                          sampler="nope", seed=1))


def test_import_leaves_slow_scipy_parts_unloaded():
    # scipy.stats, scipy.integrate and scipy.sparse.linalg cost about 0.6 s
    # of start-up and serve no simulation path: they are imported inside
    # the functions that use them, and scipy.stats not at all
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p)
    code = ("import sys, asymtransport, asymtransport.cli; print(' '.join("
            "m for m in ('scipy.stats', 'scipy.integrate', "
            "'scipy.sparse.linalg', 'scipy.optimize') if m in sys.modules))")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []


# main builds its parser once per process; these runs must read the same
# in one process, in this order, as each does in a fresh one
PARSER_RUNS = [
    ["verify", "--suite", "limits", "--out"],
    ["current", "--formula", "nope"],          # argparse exits with 2
    ["--help"],
    ["simulate", "--model", "asip", "--L", "3", "--n", "2", "--t", "1",
     "--replicas", "2", "--seed", "1", "--out"],
]

_RUN_MAINS = """
import contextlib, io, json, os, sys
from asymtransport.cli import main
results = []
for i, argv in enumerate(json.loads(sys.argv[1])):
    out = os.path.join(sys.argv[2], "out%d" % i)
    if argv[-1] == "--out":
        argv = argv + [out]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    text = open(out).read() if os.path.exists(out) else None
    results.append([code, stdout.getvalue(), stderr.getvalue(), text])
print(json.dumps(results))
"""


def _run_mains(runs, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p)
    tmp_path.mkdir()
    proc = subprocess.run(
        [sys.executable, "-c", _RUN_MAINS, json.dumps(runs), str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_parser_built_once_gives_the_output_of_a_fresh_one(tmp_path):
    together = _run_mains(PARSER_RUNS, tmp_path / "together")
    assert [code for code, *_ in together] == [0, 2, 0, 0]
    assert "invalid choice" in together[1][2]
    assert together[2][1].startswith("usage: asymtransport")
    assert together[0][3] and together[3][3]
    for i, argv in enumerate(PARSER_RUNS):
        fresh = _run_mains([argv], tmp_path / ("fresh%d" % i))
        assert fresh == [together[i]], argv
