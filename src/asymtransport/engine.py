"""Exact continuous-time Markov chain simulation and deterministic ensembles.

The simulator is the standard exponential-clock construction: wait an
Exp(total rate) time, pick a transition with probability proportional to its
rate.  Edge rates are updated incrementally (a jump at edge i only changes
the rates of edges i-1, i, i+1), so each event costs O(1) rate evaluations.

There is one event loop, ``simulate_batch``.  It advances a block of
replicas in lockstep as arrays, one NumPy call per step for the whole
block, so the Python overhead of an event is shared by every live
replica.  ``simulate_ctmc`` runs one replica through it and returns its
event log, and ``q_moment_ensemble`` runs the current-moment Monte Carlo
through it.

Each replica follows the one-replica array formulation (``rates.sum()``,
``np.searchsorted(np.cumsum(rates), u)``): its total rate is summed in
NumPy's own float64 order and the pick uses sequential running sums, so
its event times and jump choices do not depend on the block it runs in.

A replica's random numbers come from its own stream in blocks of
``random()`` uniforms.  Each waiting time is Exp(1) by inversion,
``-math.log1p(-u)`` of one uniform ``u``, scaled by ``1/total``: every
draw is finite and at most 53 ln 2.  ``math.log1p`` is the C library's,
as is the ``q ** x`` of the rate tables; NumPy's own ``log1p`` may take
another implementation by CPU (SVML on AVX-512 hosts), which differs from
it in the last bit for some uniforms and would make the output depend on
the host.  The tests compare every replica's draws and final stream state
with a per-call scalar loop.

Reproducibility contract: every replica draws from its own counter-based
stream keyed by (master seed, replica index), and ensemble reduction
always runs in replica order, so results are byte-identical however the
replicas are split into blocks.
"""

from dataclasses import dataclass, field
from itertools import compress
import math

import numpy as np

__all__ = [
    "SeedTree", "TrajectoryLog", "simulate_ctmc", "simulate_batch",
    "run_ensemble", "q_moment_ensemble", "EnsembleResult",
]

BATCH = 2048  # replicas that q_moment_ensemble advances in lockstep
WORDS = 128  # uniforms buffered per live replica, two per step


class SeedTree:
    """Derives independent, reproducible per-replica random streams from a
    master seed using a counter-based generator keyed (seed, replica)."""

    def __init__(self, master_seed):
        self.master_seed = int(master_seed)

    def stream(self, replica):
        key = np.array([self.master_seed & 0xFFFFFFFFFFFFFFFF,
                        int(replica) & 0xFFFFFFFFFFFFFFFF], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key))


@dataclass
class TrajectoryLog:
    """Ordered jump events of one discrete trajectory.

    Events are (time, edge, direction) with direction +1 for a rightward
    particle move across the edge and -1 for leftward.  The current J_i(t)
    across bond (i-1, i) is the signed number of crossings of edge i-1 up
    to time t, and always equals the change of the tail count N_i.
    """

    initial: np.ndarray
    t_final: float
    events: list = field(default_factory=list)
    final: np.ndarray = None


def simulate_ctmc(tables, eta0, t_max, rng, record_events=True):
    """Simulate one replica exactly: ``simulate_batch`` on a block of one,
    returned as a ``TrajectoryLog``.

    ``n_events`` is set either way; with ``record_events`` False the
    event list is left empty (currents are still recoverable from the
    tail-count change between the initial and final configurations).
    """
    initial = np.asarray(eta0, dtype=int).copy()
    out = simulate_batch(tables, [initial], t_max, [rng], record_events)
    log = TrajectoryLog(initial=initial, t_final=t_max, final=out[0][0],
                        events=out[2][0] if record_events else [])
    log.n_events = int(out[1][0])
    return log


def simulate_batch(tables, eta0s, t_max, rngs, record_events=False):
    """Advance a block of replicas of a table-driven chain in lockstep;
    returns ``(finals, n_events)``, one row and one count per replica, and
    with ``record_events`` also each replica's event list.

    Replica r starts from ``eta0s[r]`` and draws from ``rngs[r]``, and
    nothing it does depends on the other replicas.  Its events, its final
    configuration and the state it leaves its stream in are those of the
    one-replica array formulation, bit for bit:

    * the live replicas' edge rates form one array, entries 2e and
      2e + 1 of a row being the right and left rates of edge e; the
      totals are ``np.add.reduce`` along its rows;
    * each step a replica draws two ``random()`` uniforms from its own
      stream: the first makes its waiting time ``-math.log1p(-u)``,
      scaled by ``1/total``, and the second picks the jump.  They are
      read from a buffer of ``WORDS`` uniforms per replica, filled by one
      ``random(WORDS)`` call, whose even columns are turned into
      exponentials once per fill;
    * the jump is the number of running sums (``np.cumsum``, in order)
      below ``u = random() * total``, clamped to the last rate, as
      ``searchsorted(cumsum, u)`` picks it;
    * a jump refreshes the three edges around it by one table gather.
      A ghost site and a ghost edge at each end of the chain make that
      gather the same for every edge; ghost rates are never summed.

    A replica whose total rate is 0 or whose clock passes ``t_max`` is
    compacted out of the live arrays, and its stream is put back to just
    after the last uniform it used.  Replicas are independent, so an
    ensemble split into blocks of any size gives the same bits.

    Parameters
    ----------
    tables : (array, array)
        Occupancy-indexed edge-rate tables ``(right[na, nb], left[na, nb])``
        as ``models.edge_rate_table`` builds them.  A site holding more
        particles than the tables cover raises ``RuntimeError``.
    eta0s : (R, L) array_like of int
        Occupancies >= 0, else ``ValueError``.
    t_max : float
        Finite and >= 0, else ``ValueError``: the clock never passes a
        NaN or infinite horizon.
    rngs : sequence of R numpy Generators on ``Philox`` bit generators
    record_events : bool
        When True, the third item returned holds, per replica, the list
        of its events ``(time, edge, direction)`` in time order, as
        Python floats and ints: ``edge`` is 1-based and ``direction`` is
        +1 for a particle moving right across it, -1 for one moving left.
    """
    if not 0.0 <= t_max < math.inf:
        raise ValueError("need a finite time horizon t_max >= 0")
    table_r, table_l = tables
    size = table_r.shape[0]
    cap = size - 1
    pair = np.stack((table_r, table_l), axis=-1).reshape(size * size, 2)
    finals = np.array(eta0s, dtype=int)
    if finals.min(initial=0) < 0:
        raise ValueError("occupancies must be >= 0")
    if finals.max(initial=0) > cap:
        raise RuntimeError("occupancy cap %d exceeded" % cap)
    n_events = np.zeros(len(finals), dtype=int)
    L = finals.shape[1]
    width = 2 * (L + 1)
    # Padded sites 0 and L + 1 stay empty.  Row entries 2p and 2p + 1 of
    # ``rates`` are the right and left rates of padded edge p, which joins
    # padded sites p and p + 1: real edge e is padded edge e + 1, and the
    # ghost edges 0 and L lie outside the view ``rates[:, 2:-2]``.
    eta = np.zeros((len(finals), L + 2), dtype=int)
    eta[:, 1:-1] = finals
    rates = pair[eta[:, :-1] * size + eta[:, 1:]].reshape(-1, width)
    # the last running sum is replaced by inf, so the first one >= u is
    # the pick clamped to the last rate
    cums = np.full((len(finals), width - 4), math.inf)
    live = np.arange(len(finals))
    t = np.zeros(len(finals))
    gens = list(rngs)
    # no site can pass the cap while no replica holds more particles
    guard = finals.sum(axis=1).max(initial=0) > cap
    window, refresh = np.arange(-1, 3), np.arange(6)
    step = 0
    steps = []  # one (replicas, times, picks) record per step

    def retire(stop, used):
        # ``used`` uniforms of the current buffer are spent
        nonlocal live, eta, rates, t, total, draws, gens, states
        gone = live[stop]
        finals[gone] = eta[stop, 1:-1]
        n_events[gone] = step
        for i in np.flatnonzero(stop).tolist():
            gens[i].bit_generator.state = states[i]
            gens[i].random(used)
        keep = ~stop
        live, eta, rates, t, total, draws = (live[keep], eta[keep],
                                             rates[keep], t[keep],
                                             total[keep], draws[keep])
        kept = keep.tolist()
        gens = list(compress(gens, kept))
        states = list(compress(states, kept))

    # step col of a buffer reads its columns 2 col and 2 col + 1
    states, draws = _fill(gens)
    col = 0
    while True:
        total = np.add.reduce(rates[:, 2:-2], axis=1)
        stop = total <= 0.0
        if stop.any():
            retire(stop, 2 * col)
        t += draws[:, 2 * col] * (1.0 / total)
        stop = t > t_max
        if stop.any():
            retire(stop, 2 * col + 1)
        n = len(live)
        if not n:
            if not record_events:
                return finals, n_events
            return finals, n_events, _event_lists(steps, n_events)
        u = draws[:, 2 * col + 1] * total
        np.cumsum(rates[:, 2:-3], axis=1, out=cums[:n, :-1])
        j = (cums[:n] < u[:, None]).argmin(axis=1)
        if record_events:
            steps.append((live, t.copy(), j))
        # flat index of the jump's left padded site, and +1 for a jump to
        # the left (odd j), -1 for a jump to the right
        left = j & 1
        site = np.arange(1, n * (L + 2), L + 2) + (j >> 1)
        move = 2 * left - 1
        flat = eta.reshape(-1)
        flat[site] += move
        flat[site + 1] -= move
        if guard and flat[site + 1 - left].max() > cap:
            raise RuntimeError("occupancy cap %d exceeded" % cap)
        # padded sites p - 1 .. p + 2 fix the rates of edges p - 1 .. p + 1,
        # which are row entries 2p - 2 .. 2p + 3 = j - left + 0 .. 5
        near = flat.take(site[:, None] + window)
        codes = near[:, :3] * size + near[:, 1:]
        at = np.arange(0, n * width, width) + (j - left)
        rates.reshape(-1).put(at[:, None] + refresh, pair.take(codes, axis=0))
        step += 1
        col += 1
        if col == WORDS // 2:
            states, draws = _fill(gens)
            col = 0


def _fill(gens):
    """Each stream's state, and its next ``WORDS`` uniforms with the even
    columns turned into exponentials, ``-math.log1p(-u)``."""
    states = [g.bit_generator.state for g in gens]
    draws = np.array([g.random(WORDS) for g in gens])
    even = draws[:, 0::2]
    logs = map(math.log1p, (-even).ravel().tolist())
    even[...] = -np.fromiter(logs, float, even.size).reshape(even.shape)
    return states, draws


def _event_lists(steps, n_events):
    """Per-replica ``(time, edge, direction)`` lists from the per-step
    records of ``simulate_batch``.  A stable sort by replica keeps each
    replica's events in step order, which is time order."""
    if not steps:
        return [[] for _ in n_events]
    who, times, picks = map(np.concatenate, zip(*steps))
    order = np.argsort(who, kind="stable")
    picks = picks[order]
    events = list(zip(times[order].tolist(), ((picks >> 1) + 1).tolist(),
                      (1 - 2 * (picks & 1)).tolist()))
    ends = np.cumsum(n_events).tolist()
    return [events[end - n:end] for n, end in zip(n_events.tolist(), ends)]


@dataclass
class EnsembleResult:
    mean: np.ndarray
    se: np.ndarray
    replicas: int


def _reduce(values):
    """Mean and standard error over the first axis of the (replicas, ...)
    array ``values``, which holds the replicas in index order."""
    replicas = len(values)
    mean = values.mean(axis=0)
    if replicas > 1:
        se = values.std(axis=0, ddof=1) / math.sqrt(replicas)
    else:
        se = np.full_like(mean, np.nan)
    return EnsembleResult(mean=mean, se=se, replicas=replicas)


def run_ensemble(job, replicas, master_seed):
    """Run ``job(rng, replica) -> scalar or vector`` over independent
    replicas and reduce to mean and standard error.

    The result is a deterministic function of (job, replicas, master_seed):
    replica r always uses the stream keyed (master_seed, r), and the
    reduction runs over a preallocated array in index order.

    Replicas run one after another in the calling thread, each through
    ``job``.  Current moments do not come through here:
    ``q_moment_ensemble`` advances their replicas in lockstep blocks with
    ``simulate_batch``.
    """
    if replicas < 1:
        raise ValueError("need replicas >= 1")
    tree = SeedTree(master_seed)

    def one(r):
        return np.atleast_1d(np.asarray(job(tree.stream(r), r), dtype=float))

    first = one(0)
    values = np.empty((replicas,) + first.shape)
    values[0] = first
    for r in range(1, replicas):
        values[r] = one(r)
    return _reduce(values)


def q_moment_ensemble(tables, init, site, q, t_max, replicas, master_seed):
    """Monte Carlo estimate of E[q^{2J}], J the net number of particles
    that enter sites ``site, site + 1, ...`` of the chain by ``t_max``.

    Replica r draws its initial configuration ``init(rng)`` from the
    stream keyed (master_seed, r), then its trajectory from the same
    stream.  Blocks of ``BATCH`` replicas run through ``simulate_batch``,
    and each replica's q^{2J} is ``q ** (2.0 * J)`` with J a NumPy
    integer, so the result is bit for bit that of ``run_ensemble`` over
    ``simulate_ctmc`` trajectories.
    """
    if replicas < 1:
        raise ValueError("need replicas >= 1")
    tree = SeedTree(master_seed)
    values = np.empty((replicas, 1))
    for start in range(0, replicas, BATCH):
        rngs = [tree.stream(r)
                for r in range(start, min(start + BATCH, replicas))]
        eta0s = np.array([init(rng) for rng in rngs], dtype=int)
        finals, _ = simulate_batch(tables, eta0s, t_max, rngs)
        J = finals[:, site:].sum(axis=1) - eta0s[:, site:].sum(axis=1)
        values[start:start + len(rngs), 0] = [q ** (2.0 * j) for j in J]
    return _reduce(values)
