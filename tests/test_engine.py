"""Exact simulation: correctness against the dense generator, the
reproducibility contract, and the event logs."""

from bisect import bisect_left
from itertools import accumulate, cycle
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import linalg, stats

from asymtransport import configspace as cs
from asymtransport import engine, models
from asymtransport.cli import main
from asymtransport.configspace import ModelParams


def _tables(p, n_max):
    return models.edge_rate_table("asip", p, n_max)


# ------------------------------------------------ scalar reference loop

def _pairwise_sum(x):
    """Sum of the list of floats ``x``, rounded exactly as NumPy's float64
    ``np.add.reduce`` rounds it.

    NumPy sums fewer than 8 items in order.  From 8 to 128 items it keeps 8
    strided accumulators, combines them as
    ``((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7))`` and adds the remainder in
    order.  Above 128 it splits at ``n//2 - (n//2)%8`` and recurses.
    The builtin ``sum`` is not used: from Python 3.12 on it compensates.
    """
    n = len(x)
    if n < 8:
        s = 0.0
        for v in x:
            s += v
        return s
    if n > 128:
        mid = n // 2 - (n // 2) % 8
        return _pairwise_sum(x[:mid]) + _pairwise_sum(x[mid:])
    it = iter(x)
    rows = zip(it, it, it, it, it, it, it, it)  # drops the n % 8 left over
    r0, r1, r2, r3, r4, r5, r6, r7 = next(rows)
    for a0, a1, a2, a3, a4, a5, a6, a7 in rows:
        r0 += a0
        r1 += a1
        r2 += a2
        r3 += a3
        r4 += a4
        r5 += a5
        r6 += a6
        r7 += a7
    s = ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7))
    for v in x[n - n % 8:]:
        s += v
    return s


def _ref_simulate_ctmc(tables, eta0, t_max, rng):
    """One replica as a scalar Python loop over lists, the reference that
    ``engine.simulate_batch`` must reproduce bit for bit.

    The state is the occupancies, the ``2*(L-1)`` edge rates
    ``[right_1, left_1, right_2, ...]`` and their sequential running sums.
    A jump at edge i refreshes the rates of edges i-1, i, i+1; the running
    sums from there on are recomputed only when a later pick lands beyond
    the part still valid.  The total rate is summed in NumPy's float64
    order (``_pairwise_sum``) and the jump is the first rate whose running
    sum reaches ``u = U * total``, clamped to the last rate, exactly as
    ``searchsorted(cumsum, u)`` picks it.  Each waiting time is
    ``-math.log1p(-U)`` of one uniform, times ``1/total``.
    """
    table_r, table_l = tables
    initial = np.asarray(eta0, dtype=int).copy()
    eta = initial.tolist()
    n_edges = len(eta) - 1
    n = 2 * n_edges
    rates = [0.0] * n
    cap = table_r.shape[0] - 1
    top = sum(eta) + 1  # no site ever holds more than every particle
    right = table_r[:top, :top].tolist()
    left = table_l[:top, :top].tolist()

    def refresh(lo, hi):
        for e in range(lo, hi):
            na, nb = eta[e], eta[e + 1]
            rates[2 * e] = right[na][nb]
            rates[2 * e + 1] = left[na][nb]

    refresh(0, n_edges)
    # cums[i] = rates[0] + ... + rates[i-1], summed in order, for i <= valid.
    # The leading 0.0 can only change the sign of a zero running sum, which
    # no comparison with u >= 0 can see.
    cums = [0.0] * (n + 1)
    valid = 0
    log = engine.TrajectoryLog(initial=initial, t_final=t_max)
    random, log1p = rng.random, math.log1p
    t = 0.0
    while True:
        total = _pairwise_sum(rates)
        if total <= 0.0:
            break
        t += -log1p(-random()) * (1.0 / total)
        if t > t_max:
            break
        u = random() * total
        if u > cums[valid]:
            cums[valid:] = accumulate(rates[valid:], initial=cums[valid])
            valid = n
        j = bisect_left(cums, u, 1, valid + 1) - 1
        if j == n:
            j -= 1
        edge = j >> 1
        if j & 1:
            eta[edge] += 1
            eta[edge + 1] -= 1
            log.events.append((t, edge + 1, -1))
        else:
            eta[edge] -= 1
            eta[edge + 1] += 1
            log.events.append((t, edge + 1, +1))
        if eta[edge] > cap or eta[edge + 1] > cap:
            raise RuntimeError("occupancy cap %d exceeded" % cap)
        lo = edge - 1 if edge else 0
        refresh(lo, edge + 2 if edge + 2 < n_edges else n_edges)
        if 2 * lo < valid:
            valid = 2 * lo
    log.final = np.array(eta)
    log.n_events = len(log.events)
    return log


def test_pairwise_sum_matches_numpy_bit_for_bit():
    # the reference loop's total must round exactly as np.add.reduce does,
    # or event times drift in the last bit; lengths 0..300 cover the
    # in-order, 8-accumulator and split-and-recurse paths
    rng = np.random.default_rng(0)
    for n in range(301):
        for scale in (1.0, 1e-3 * 10.0 ** rng.integers(0, 9, n)):
            x = rng.random(n) * scale
            x[rng.random(n) < 0.5] = 0.0
            assert _pairwise_sum(x.tolist()) == np.add.reduce(x), n
            # simulate_batch sums rows of a padded 2-D view
            block = np.zeros((3, n + 4))
            block[:, 2:-2] = x
            assert (np.add.reduce(block[:, 2:-2], axis=1)
                    == _pairwise_sum(x.tolist())).all(), n


# ------------------------------------------------------- public API


def test_seed_tree_streams_are_reproducible_and_distinct():
    tree = engine.SeedTree(123)
    a = tree.stream(0).random(4)
    b = tree.stream(0).random(4)
    c = tree.stream(1).random(4)
    assert (a == b).all()
    assert not (a == c).all()


def _replay(initial, events):
    """Configuration reached from ``initial`` by the logged jumps."""
    eta = np.asarray(initial).copy()
    for _, edge, direction in events:
        eta[edge - 1] -= direction
        eta[edge] += direction
    return eta


def _current_at(events, i, t):
    """Net signed crossings of bond (i-1, i) up to time t; i = 1 (no bond
    to the left of the first site) gives 0 identically."""
    return sum(d for s, e, d in events if e == i - 1 and s <= t)


def test_trajectory_conservation_and_serialization():
    p = ModelParams(q=0.8, k=0.5, L=4)
    eta0 = np.array([1, 1, 1, 0])
    log = engine.simulate_ctmc(_tables(p, 3), eta0, 1.0,
                               engine.SeedTree(5).stream(0))
    assert log.final.sum() == eta0.sum()
    # event replay reproduces the stored final state
    assert (_replay(eta0, log.events) == log.final).all()


def test_event_count_with_and_without_recording():
    p = ModelParams(q=0.8, k=0.5, L=6)
    eta0 = np.array([2, 2, 1, 0, 0, 0])
    tables = _tables(p, 5)
    for r in range(5):
        rec = engine.simulate_ctmc(tables, eta0, 2.0,
                                   engine.SeedTree(8).stream(r))
        bare = engine.simulate_ctmc(tables, eta0, 2.0,
                                    engine.SeedTree(8).stream(r),
                                    record_events=False)
        assert rec.n_events == len(rec.events) > 0
        assert bare.events == [] and bare.n_events == rec.n_events
        assert (bare.final == rec.final).all()


def test_current_equals_tail_count_change():
    p = ModelParams(q=0.8, k=0.5, L=4)
    eta0 = np.array([2, 0, 1, 0])
    log = engine.simulate_ctmc(_tables(p, 3), eta0, 1.5,
                               engine.SeedTree(9).stream(0))
    for i in range(1, 5):
        dN = cs.tail_count(log.final, i) - cs.tail_count(eta0, i)
        assert _current_at(log.events, i, 1.5) == dN
    assert _current_at(log.events, 1, 1.5) == 0


def test_frozen_state_stops_immediately():
    p = ModelParams(q=0.8, k=0.5, L=3)
    log = engine.simulate_ctmc(_tables(p, 1), np.array([0, 0, 0]), 2.0,
                               engine.SeedTree(1).stream(0))
    assert log.events == []
    assert (log.final == 0).all()


@pytest.mark.parametrize("t_max", [float("nan"), float("inf"), -1.0])
def test_horizon_must_be_finite_and_nonnegative(t_max):
    # a NaN horizon is never passed, so the loop would record events forever
    p = ModelParams(q=0.8, k=0.5, L=3)
    with pytest.raises(ValueError):
        engine.simulate_ctmc(_tables(p, 3), np.array([2, 1, 0]), t_max,
                             engine.SeedTree(1).stream(0))
    with pytest.raises(ValueError):
        engine.simulate_batch(_tables(p, 3), [[2, 1, 0]], t_max,
                              [engine.SeedTree(1).stream(0)])


def test_run_ensemble_single_replica_reduces_to_job():
    def job(rng, r):
        return rng.random()

    res = engine.run_ensemble(job, 1, 77)
    direct = job(engine.SeedTree(77).stream(0), 0)
    assert res.mean[0] == direct
    assert res.replicas == 1


def test_se_scaling_with_replicas():
    def job(rng, r):
        return rng.normal()

    se1 = engine.run_ensemble(job, 1000, 8).se[0]
    se2 = engine.run_ensemble(job, 4000, 8).se[0]
    assert abs(se1 / se2 - 2.0) < 0.6  # 1/sqrt(replicas), 30% band


def test_marginal_law_against_matrix_exponential():
    # empirical state frequencies vs the exp(tQ) row of the dense sector
    # generator, within 4 binomial SE, at two times
    L, N = 3, 3
    p = ModelParams(q=0.8, k=0.5, L=L)
    sec = cs.enumerate_sector(L, N)
    Q = models.build_generator(sec, "asip", p).matrix.toarray()
    eta0 = np.array([3, 0, 0])
    row0 = sec.rank(eta0[None])[0]
    tables = _tables(p, N)
    reps = 4000
    tree = engine.SeedTree(21)
    for t in (0.5, 2.0):
        probs = linalg.expm(t * Q)[row0]
        finals, _ = engine.simulate_batch(
            tables, [eta0] * reps, t, [tree.stream(r) for r in range(reps)])
        finals = np.asarray(finals)
        rows = sec.rank(finals)
        # rank does not check membership: a final state outside the
        # (L, N) sector would be counted as some other state
        assert (sec.configs[rows] == finals).all()
        counts = np.bincount(rows, minlength=len(sec))
        freq = counts / reps
        se = np.sqrt(probs * (1 - probs) / reps)
        assert np.all(np.abs(freq - probs) <= 4 * se + 1e-9)


def test_replicas_must_be_positive():
    with pytest.raises(ValueError):
        engine.run_ensemble(lambda rng, r: 0.0, 0, 1)


# ------------------------------------------------- lockstep batch loop

def _stream_state(rng):
    s = rng.bit_generator.state
    return (s["state"]["counter"].tolist(), s["state"]["key"].tolist(),
            s["buffer"].tolist(), s["buffer_pos"], s["has_uint32"],
            s["uinteger"])


def _scalar_runs(tables, init, t_max, replicas, seed):
    """Per replica (final, n_events, stream state, events) of the scalar
    reference loop, which simulate_batch must reproduce bit for bit."""
    tree = engine.SeedTree(seed)
    out = []
    for r in range(replicas):
        rng = tree.stream(r)
        log = _ref_simulate_ctmc(tables, init(rng), t_max, rng)
        out.append((log.final.tolist(), log.n_events, _stream_state(rng),
                    log.events))
    return out


def _batch_runs(tables, init, t_max, replicas, seed):
    """The same from one simulate_batch call with event recording on; a
    call with it off must leave the finals, counts and streams alike."""
    runs = {}
    for record in (False, True):
        tree = engine.SeedTree(seed)
        rngs = [tree.stream(r) for r in range(replicas)]
        eta0s = [init(rng) for rng in rngs]
        finals, n_events, *events = engine.simulate_batch(
            tables, eta0s, t_max, rngs, record_events=record)
        runs[record] = [(f.tolist(), int(n), _stream_state(g))
                        for f, n, g in zip(finals, n_events, rngs)]
    assert runs[False] == runs[True]
    return [run + (ev,) for run, ev in zip(runs[True], events[0])]


def _fixed(eta0s):
    """``init(rng)`` that hands out the rows of eta0s in replica order,
    starting over after the last."""
    rows = cycle(eta0s)
    return lambda rng: np.array(next(rows))


def _current_case(formula, W, q=0.8, k=0.5):
    """(tables, init) of the q-step or q-product current request."""
    p = ModelParams(q=q, k=k)
    if formula == "q-step":
        eta0 = np.array([2] * (W // 2) + [0] * (W - W // 2))
        return _tables(p, int(eta0.sum())), lambda rng: eta0
    return _tables(p, W), lambda rng: (rng.random(W) < 0.5).astype(int)


@pytest.mark.parametrize("replicas", [1, 2, 47, engine.BATCH + 1])
@pytest.mark.parametrize("formula", ["q-step", "q-product"])
def test_batch_matches_scalar_loop(formula, replicas):
    tables, init = _current_case(formula, 16)
    ref = _scalar_runs(tables, init, 1.0, replicas, 31)
    assert _batch_runs(tables, init, 1.0, replicas, 31) == ref
    assert sum(n for _, n, _, _ in ref) > replicas


@pytest.mark.parametrize("eta0s", [
    [[0, 0, 0, 0]] * 3,          # no particles: total rate 0
    [[3]] * 2,                   # one site: no edges
    [[0, 0, 0, 0, 0, 0], [0, 0, 0, 0, 0, 1], [3, 3, 3, 3, 3, 3],
     [0, 0, 0, 0, 0, 0], [1, 0, 0, 0, 0, 0]],   # stop at very different steps
])
@pytest.mark.parametrize("t_max", [0.0, 0.3, 4.0])
def test_batch_matches_scalar_on_frozen_and_ragged_blocks(eta0s, t_max):
    p = ModelParams(q=0.7, k=1.0)
    tables = _tables(p, 18)
    ref = _scalar_runs(tables, _fixed(eta0s), t_max, len(eta0s), 4)
    got = _batch_runs(tables, _fixed(eta0s), t_max, len(eta0s), 4)
    assert got == ref
    if t_max == 0.0 or sum(map(sum, eta0s)) == 0:
        assert all(n == 0 for _, n, _, _ in got)
    # a replica that retires before its first draw leaves its stream as
    # it found it, although its word buffer was filled
    tree = engine.SeedTree(4)
    for r, (row, (_, n, state, _)) in enumerate(zip(eta0s, got)):
        if sum(row) == 0 or len(row) == 1:
            assert n == 0 and state == _stream_state(tree.stream(r))


def test_batch_rejects_negative_occupancy():
    # a negative occupancy would wrap around in the rate-table gather
    p = ModelParams(q=0.8, k=0.5)
    tables = _tables(p, 6)
    with pytest.raises(ValueError, match="occupancies must be >= 0"):
        engine.simulate_batch(tables, [[2, -1, 3]], 1.0,
                              [engine.SeedTree(1).stream(0)])
    with pytest.raises(ValueError, match="occupancies must be >= 0"):
        engine.simulate_ctmc(tables, [2, -1, 3], 1.0,
                             engine.SeedTree(1).stream(0))


def test_batch_truncated_table_raises_occupancy_cap():
    p = ModelParams(q=0.8, k=0.5)
    tables = _tables(p, 3)
    eta0 = np.array([2, 2])
    with pytest.raises(RuntimeError, match="occupancy cap 3 exceeded"):
        engine.simulate_ctmc(tables, eta0, 50.0, engine.SeedTree(2).stream(0))
    with pytest.raises(RuntimeError, match="occupancy cap 3 exceeded"):
        engine.simulate_batch(tables, [eta0] * 3, 50.0,
                              [engine.SeedTree(2).stream(r) for r in range(3)])
    with pytest.raises(RuntimeError, match="occupancy cap 3 exceeded"):
        engine.simulate_batch(tables, [[4, 0]], 1.0,
                              [engine.SeedTree(2).stream(0)])


def test_simulate_cli_matches_reference_across_blocks(tmp_path):
    # BATCH + 1 replicas run as two blocks; every line is the reference's
    replicas, eta0, t = engine.BATCH + 1, [2, 0, 1, 0], 0.4
    out = tmp_path / "sim.csv"
    assert main(["simulate", "--model", "asip", "--q", "0.8", "--k", "0.5",
                 "--init", "2,0,1,0", "--t", str(t), "--replicas",
                 str(replicas), "--seed", "6", "--out", str(out)]) == 0
    tables = _tables(ModelParams(q=0.8, k=0.5), sum(eta0))
    tree = engine.SeedTree(6)
    ref = ["replica,time,edge,direction"]
    for r in range(replicas):
        ref += ["%d,%.17g,%d,%d" % ((r,) + ev) for ev in
                _ref_simulate_ctmc(tables, eta0, t, tree.stream(r)).events]
    assert out.read_text().splitlines() == ref
    assert len(ref) > replicas


@pytest.mark.parametrize("replicas", [1, 2, engine.BATCH + 1])
@pytest.mark.parametrize("formula", ["q-step", "q-product"])
def test_q_moment_ensemble_matches_run_ensemble(formula, replicas):
    # the ensemble helper runs blocks of BATCH replicas through
    # simulate_batch; the reference is the per-replica job it replaced
    W, site, q, t = 12, 6, 0.8, 0.7
    tables, init = _current_case(formula, W)

    def job(rng, r):
        eta = init(rng)
        log = _ref_simulate_ctmc(tables, eta, t, rng)
        J = log.final[site:].sum() - eta[site:].sum()
        return q ** (2.0 * J)

    ref = engine.run_ensemble(job, replicas, 23)
    got = engine.q_moment_ensemble(tables, init, site, q, t, replicas, 23)
    assert got.replicas == ref.replicas == replicas
    assert np.array_equal(got.mean, ref.mean)
    assert np.array_equal(got.se, ref.se, equal_nan=True)


@settings(max_examples=150, deadline=2000)
@given(data=st.data(), L=st.integers(1, 6), replicas=st.integers(1, 5),
       model=st.sampled_from(["asip", "sip", "qtazrp"]),
       q=st.floats(0.3, 1.0), k=st.floats(0.25, 2.0),
       t_max=st.floats(0.0, 2.0), seed=st.integers(0, 2**32))
def test_batch_matches_scalar_on_random_chains(data, L, replicas, model, q,
                                               k, t_max, seed):
    eta0s = data.draw(st.lists(st.lists(st.integers(0, 3), min_size=L,
                                        max_size=L),
                               min_size=replicas, max_size=replicas))
    n_max = data.draw(st.integers(max(map(max, eta0s)),
                                  max(map(sum, eta0s)) + 1))
    tables = models.edge_rate_table(model, ModelParams(q=q, k=k), n_max)

    def run(runner):
        try:
            return runner(tables, _fixed(eta0s), t_max, replicas, seed)
        except RuntimeError as exc:  # a table that stops short of a site
            return str(exc)

    assert run(_batch_runs) == run(_scalar_runs)


# ------------------------------------------------- uniform buffers

@pytest.mark.parametrize("words", [2, 6, engine.WORDS])
def test_batch_matches_scalar_across_buffer_refills(monkeypatch, words):
    # trajectories of several hundred steps cross many refills of the
    # word buffers; q-product draws W = 21 uniforms first, which leaves
    # each stream in the middle of a Philox block of four words
    monkeypatch.setattr(engine, "WORDS", words)
    for formula, W, t_max in (("q-step", 40, 1.0), ("q-product", 21, 6.0)):
        tables, init = _current_case(formula, W)
        if formula == "q-product":
            rng = engine.SeedTree(12).stream(0)
            init(rng)
            assert rng.bit_generator.state["buffer_pos"] != 4
        ref = _scalar_runs(tables, init, t_max, 5, 12)
        assert _batch_runs(tables, init, t_max, 5, 12) == ref
        assert max(n for _, n, _, _ in ref) > 3 * engine.WORDS // 2


def test_waiting_times_are_exponential_by_inversion():
    # One particle on two sites hops right at rate 2 and is then stuck, so
    # each replica makes one event at time e / 2, e = -log1p(-u) of its
    # first uniform.  The inversion of a uniform below 1 is at most
    # -log(2**-53) = 53 ln 2, and the scaling by 1/2 is exact.
    tables = (np.array([[0.0, 0.0], [2.0, 0.0]]), np.zeros((2, 2)))
    tree = engine.SeedTree(2016)
    rngs = [tree.stream(r) for r in range(10_000)]
    finals, n_events, events = engine.simulate_batch(
        tables, [[1, 0]] * len(rngs), 20.0, rngs, record_events=True)
    assert (n_events == 1).all() and (finals == [0, 1]).all()
    scaled = np.array([ev[0][0] for ev in events]) * 2.0
    assert np.isfinite(scaled).all()
    assert scaled.min() >= 0.0 and scaled.max() <= 53 * math.log(2)
    assert stats.kstest(scaled, "expon").pvalue > 0.01

