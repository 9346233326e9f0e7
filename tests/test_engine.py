"""Exact simulation: correctness against the dense generator, the
reproducibility contract, and trajectory serialization."""

import numpy as np
import pytest
from scipy import linalg, stats

from asymtransport import configspace as cs
from asymtransport import engine, models
from asymtransport.configspace import ModelParams


def _tables(p, n_max):
    return models.edge_rate_table("asip", p, n_max)


def test_seed_tree_streams_are_reproducible_and_distinct():
    tree = engine.SeedTree(123)
    a = tree.stream(0).random(4)
    b = tree.stream(0).random(4)
    c = tree.stream(1).random(4)
    assert (a == b).all()
    assert not (a == c).all()


def test_trajectory_conservation_and_serialization():
    p = ModelParams(q=0.8, k=0.5, L=4)
    eta0 = np.array([1, 1, 1, 0])
    log = engine.simulate_ctmc(_tables(p, 3), eta0, 1.0,
                               engine.SeedTree(5).stream(0))
    final = log.final_config()
    assert final.sum() == eta0.sum()
    # event replay reproduces the stored final state
    replayed = engine.TrajectoryLog(initial=eta0, t_final=1.0,
                                    events=log.events).final_config()
    assert (replayed == final).all()
    lines = log.to_lines()
    assert engine.TrajectoryLog.events_from_lines(lines) == log.events


def test_pairwise_sum_matches_numpy_bit_for_bit():
    # the event loop's total must round exactly as np.add.reduce does, or
    # event times drift in the last bit; lengths 0..300 cover the in-order,
    # 8-accumulator and split-and-recurse paths
    rng = np.random.default_rng(0)
    for n in range(301):
        for scale in (1.0, 1e-3 * 10.0 ** rng.integers(0, 9, n)):
            x = rng.random(n) * scale
            x[rng.random(n) < 0.5] = 0.0
            assert engine._pairwise_sum(x.tolist()) == np.add.reduce(x), n


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
        assert (bare.final_config() == rec.final_config()).all()


def test_current_equals_tail_count_change():
    p = ModelParams(q=0.8, k=0.5, L=4)
    eta0 = np.array([2, 0, 1, 0])
    log = engine.simulate_ctmc(_tables(p, 3), eta0, 1.5,
                               engine.SeedTree(9).stream(0))
    final = log.final_config()
    for i in range(1, 5):
        dN = cs.tail_count(final, i) - cs.tail_count(eta0, i)
        assert log.current_at(i, 1.5) == dN
    assert log.current_at(1, 1.5) == 0


def test_frozen_state_stops_immediately():
    p = ModelParams(q=0.8, k=0.5, L=3)
    log = engine.simulate_ctmc(_tables(p, 1), np.array([0, 0, 0]), 2.0,
                               engine.SeedTree(1).stream(0))
    assert log.events == []
    assert (log.final_config() == 0).all()


def test_callable_and_tabular_rates_agree():
    p = ModelParams(q=0.8, k=0.5, L=3)
    eta0 = np.array([2, 1, 0])

    def rate_fn(eta, i):
        return models.asip_edge_rates(eta, i, p)

    log_a = engine.simulate_ctmc(rate_fn, eta0, 1.0,
                                 engine.SeedTree(3).stream(0))
    log_b = engine.simulate_ctmc(_tables(p, 3), eta0, 1.0,
                                 engine.SeedTree(3).stream(0))
    assert log_a.events == log_b.events


@pytest.mark.parametrize("t_max", [float("nan"), float("inf"), -1.0])
def test_horizon_must_be_finite_and_nonnegative(t_max):
    # a NaN horizon is never passed, so the loop would record events forever
    p = ModelParams(q=0.8, k=0.5, L=3)
    with pytest.raises(ValueError):
        engine.simulate_ctmc(_tables(p, 3), np.array([2, 1, 0]), t_max,
                             engine.SeedTree(1).stream(0))


def test_occupancy_cap_guard():
    p = ModelParams(q=0.8, k=0.5, L=2)
    with pytest.raises(RuntimeError):
        engine.simulate_ctmc(_tables(p, 4), np.array([2, 2]), 50.0,
                             engine.SeedTree(2).stream(0), occupancy_cap=3)


def test_dual_walker_kinds():
    p = ModelParams(q=0.8, k=0.5)
    rng = engine.SeedTree(4).stream(0)
    m = engine.simulate_dual_walker("asip_single", 3, 0.5, p, rng)
    assert isinstance(m, int)
    with pytest.raises(ValueError):
        engine.simulate_dual_walker("bogus", 0, 1.0, p, rng)


def test_dual_walker_matches_skellam_law():
    from asymtransport.qcalc import q_number, skellam_pmf
    p = ModelParams(q=0.8, k=0.5)
    tree = engine.SeedTree(11)
    n = 20000
    draws = np.array([engine.simulate_dual_walker("asip_single", 0, 1.0, p,
                                                  tree.stream(r))
                      for r in range(n)])
    mu_r = q_number(1, 0.8) * 0.8
    mu_l = q_number(1, 0.8) / 0.8
    mean_ref = mu_r - mu_l
    se = draws.std(ddof=1) / np.sqrt(n)
    assert abs(draws.mean() - mean_ref) < 4 * se
    p0_ref = skellam_pmf(0, mu_r, mu_l)
    p0_hat = (draws == 0).mean()
    assert abs(p0_hat - p0_ref) < 4 * np.sqrt(p0_ref * (1 - p0_ref) / n)


def test_run_ensemble_single_replica_reduces_to_job():
    def job(rng, r):
        return rng.random()

    res = engine.run_ensemble(job, 1, 77)
    direct = job(engine.SeedTree(77).stream(0), 0)
    assert res.mean[0] == direct
    assert res.replicas == 1


def test_run_ensemble_worker_count_invariance():
    def job(rng, r):
        return rng.random(3)

    a = engine.run_ensemble(job, 40, 5, workers=1)
    b = engine.run_ensemble(job, 40, 5, workers=4)
    assert (a.mean == b.mean).all()
    assert (a.se == b.se).all()


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
    row0 = sec.index[tuple(eta0)]
    tables = _tables(p, N)
    reps = 4000
    tree = engine.SeedTree(21)
    for t in (0.5, 2.0):
        probs = linalg.expm(t * Q)[row0]
        counts = np.zeros(len(sec))
        for r in range(reps):
            log = engine.simulate_ctmc(tables, eta0, t, tree.stream(r),
                                       record_events=False)
            counts[sec.index[tuple(log.final_config())]] += 1
        freq = counts / reps
        se = np.sqrt(probs * (1 - probs) / reps)
        assert np.all(np.abs(freq - probs) <= 4 * se + 1e-9)


def test_replicas_must_be_positive():
    with pytest.raises(ValueError):
        engine.run_ensemble(lambda rng, r: 0.0, 0, 1)
