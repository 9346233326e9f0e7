"""Exact continuous-time Markov chain simulation and deterministic ensembles.

The simulator is the standard exponential-clock construction: wait an
Exp(total rate) time, pick a transition with probability proportional to its
rate.  Edge rates are updated incrementally (a jump at edge i only changes
the rates of edges i-1, i, i+1), so each event costs O(1) rate evaluations.

The event loop is scalar Python over lists: on chains of tens of sites
NumPy's per-call overhead would dominate each event.  It still reproduces the array formulation (``rates.sum()``,
``np.searchsorted(np.cumsum(rates), u)``) bit for bit: the total rate is
summed in NumPy's own float64 order and the pick uses sequential running
sums, so event times and jump choices do not depend on which of the two
computes them.

Reproducibility contract: every replica draws from its own counter-based
stream keyed by (master seed, replica index), and ensemble reduction always
runs in replica order, so results are byte-identical for any worker count.
"""

from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import accumulate
import math

import numpy as np

__all__ = [
    "SeedTree", "TrajectoryLog", "simulate_ctmc", "simulate_dual_walker",
    "run_ensemble", "EnsembleResult",
]

OCCUPANCY_CAP = 10_000


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

    def final_config(self):
        if self.final is not None:
            return self.final
        eta = np.asarray(self.initial).copy()
        for _, edge, direction in self.events:
            if direction > 0:
                eta[edge - 1] -= 1
                eta[edge] += 1
            else:
                eta[edge - 1] += 1
                eta[edge] -= 1
        return eta

    def current_at(self, i, t):
        """Net signed crossings of bond (i-1, i) up to time t; i = 1 (no bond
        to the left of the first site) gives 0 identically."""
        edge = i - 1
        if edge < 1:
            return 0
        return sum(int(d) for (s, e, d) in self.events if e == edge and s <= t)

    def to_lines(self):
        return ["%.17g,%d,%d" % ev for ev in self.events]

    @staticmethod
    def events_from_lines(lines):
        out = []
        for line in lines:
            t, e, d = line.strip().split(",")
            out.append((float(t), int(e), int(d)))
        return out


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


def simulate_ctmc(rates_spec, eta0, t_max, rng, occupancy_cap=OCCUPANCY_CAP,
                  record_events=True):
    """Simulate a discrete edge-jump process exactly.

    The event loop is plain Python over lists: the occupancies, the
    ``2*(L-1)`` edge rates ``[right_1, left_1, right_2, ...]`` and their
    sequential running sums.  A jump at edge i refreshes the rates of
    edges i-1, i, i+1; the running sums from there on are recomputed only
    when a later pick lands beyond the part still valid.  The total rate
    is summed in NumPy's float64 order (``_pairwise_sum``) and the jump is
    the first rate whose running sum reaches ``u = U * total``, clamped to
    the last rate, exactly as ``searchsorted(cumsum, u)`` picks it.  Event
    times and choices are therefore bit for bit those of the array
    formulation with ``rates.sum()`` and ``np.cumsum``.

    Parameters
    ----------
    rates_spec : callable or (array, array)
        Either ``rate_fn(eta, i) -> (rate_right, rate_left)`` for 1-based
        edge i on a closed chain, with ``eta`` an integer array, or a pair
        of occupancy-indexed lookup tables ``(right[na, nb], left[na, nb])``
        giving the edge rates for left/right site occupancies (na, nb).
        Tables are the fast path for Monte Carlo runs: each refresh is two
        list lookups instead of a rate-function call.
    eta0 : array_like of int
    t_max : float
        Finite and >= 0, else ``ValueError``: the clock never passes a
        NaN or infinite horizon.
    rng : numpy Generator
        Each event draws ``rng.exponential`` then ``rng.random``.
    occupancy_cap : int
        Aborts if any site exceeds this (runaway clustering guard).
    record_events : bool
        When False the event list is left empty (currents are still
        recoverable from the tail-count change between the initial and
        final configurations); ``n_events`` is counted either way.
    """
    if not 0.0 <= t_max < math.inf:
        raise ValueError("need a finite time horizon t_max >= 0")
    initial = np.asarray(eta0, dtype=int).copy()
    eta = initial.tolist()
    n_edges = len(eta) - 1
    n = 2 * n_edges
    rates = [0.0] * n
    if callable(rates_spec):
        cap = occupancy_cap

        def refresh(lo, hi):
            view = np.array(eta)
            for e in range(lo, hi):
                r, l = rates_spec(view, e + 1)
                rates[2 * e] = float(r)
                rates[2 * e + 1] = float(l)
    else:
        table_r, table_l = rates_spec
        cap = min(occupancy_cap, table_r.shape[0] - 1)
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
    log = TrajectoryLog(initial=initial, t_final=t_max)
    append = log.events.append
    exponential, random = rng.exponential, rng.random
    n_events = 0
    t = 0.0
    while True:
        total = _pairwise_sum(rates)
        if total <= 0.0:
            break
        t += exponential(1.0 / total)
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
        n_events += 1
        if j & 1:
            eta[edge] += 1
            eta[edge + 1] -= 1
            if record_events:
                append((t, edge + 1, -1))
        else:
            eta[edge] -= 1
            eta[edge + 1] += 1
            if record_events:
                append((t, edge + 1, +1))
        if eta[edge] > cap or eta[edge + 1] > cap:
            raise RuntimeError("occupancy cap %d exceeded" % cap)
        lo = edge - 1 if edge else 0
        refresh(lo, edge + 2 if edge + 2 < n_edges else n_edges)
        if 2 * lo < valid:
            valid = 2 * lo
    log.final = np.array(eta)
    log.n_events = n_events
    return log


def simulate_dual_walker(kind, start, t, params, rng):
    """Final position of a single dual walker on the integers.

    * ``asip_single``: jumps right at rate ``q^{2k}[2k]`` and left at rate
      ``q^{-2k}[2k]``; its displacement is exactly the difference of two
      independent Poisson counts, which is how it is sampled.
    * ``sip_single``: jumps both ways at rate 2k.
    """
    from .qcalc import q_number
    if kind == "asip_single":
        q, k = params.q, params.k
        mu_r = q_number(2 * k, q) * q ** (2 * k) * t
        mu_l = q_number(2 * k, q) * q ** (-2 * k) * t
    elif kind == "sip_single":
        mu_r = mu_l = 2.0 * params.k * t
    else:
        raise ValueError("unknown walker kind %r" % (kind,))
    return int(start + rng.poisson(mu_r) - rng.poisson(mu_l))


@dataclass
class EnsembleResult:
    mean: np.ndarray
    se: np.ndarray
    replicas: int


def run_ensemble(job, replicas, master_seed, workers=1):
    """Run ``job(rng, replica) -> scalar or vector`` over independent
    replicas and reduce to mean and standard error.

    The result is a deterministic function of (job, replicas, master_seed):
    replica r always uses the stream keyed (master_seed, r), and the
    reduction sums a preallocated array in index order.

    Replicas run in order in the calling thread; ``workers`` is accepted
    and not used.  The event loop is plain Python that holds the
    interpreter lock for every event, so worker threads could only pass
    that lock back and forth, which slows each request and makes its
    time depend on how the OS schedules the threads.
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
    mean = values.mean(axis=0)
    if replicas > 1:
        se = values.std(axis=0, ddof=1) / math.sqrt(replicas)
    else:
        se = np.full_like(mean, np.nan)
    return EnsembleResult(mean=mean, se=se, replicas=replicas)
