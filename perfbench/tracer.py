"""Span recording around the package's layer boundaries, from outside.

A layer is timed by replacing the attribute its caller resolves at call
time (``engine.simulate_ctmc`` as looked up by ``cli``, the module global
``dualitylab.d_asip_matrix`` as looked up by ``verify_selfduality_asip``,
``currents.skellam_pmf`` for the ``qcalc`` Bessel sums) with a wrapper that
records one span per call.  Spans stay in memory and are written out once,
when the benchmark ends.  Nothing in the package is edited.
"""

import contextlib
import functools
import itertools
import threading
import time
from collections import namedtuple

__all__ = ["Span", "Tracer", "install", "restore", "self_times",
           "union_length", "tail_percentile"]

Span = namedtuple("Span", "sid parent name start end request thread")


class Tracer:
    """Records spans; one instance per traced process.

    Parents come from a per-thread stack.  A span opened in a thread whose
    stack is empty (an ensemble worker thread) takes as parent the innermost
    open span of the thread that began the current request, so trajectory
    spans run by pool threads hang under the ``run_ensemble`` span that
    waits for them.
    """

    def __init__(self):
        self.spans = []
        self.errors = {}
        self.enabled = True
        self.request = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._root_stack = self._stack()
        self._errors_lock = threading.Lock()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin_request(self, request_id):
        """Mark the calling thread as the request's client thread."""
        self.request = request_id
        self._root_stack = self._stack()

    @contextlib.contextmanager
    def paused(self):
        """Calls made inside run unrecorded (correctness gates, reruns)."""
        was, self.enabled = self.enabled, False
        try:
            yield
        finally:
            self.enabled = was

    @contextlib.contextmanager
    def span(self, name):
        """Record a span around a block; yields the span id."""
        stack = self._stack()
        parent = stack[-1] if stack else (
            self._root_stack[-1] if self._root_stack else 0)
        sid = next(self._ids)
        stack.append(sid)
        start = time.perf_counter()
        try:
            yield sid
        except BaseException:
            self._count_error(name)
            raise
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(Span(sid, parent, name, start, end,
                                   self.request, threading.get_ident()))

    def _count_error(self, name):
        with self._errors_lock:
            self.errors[name] = self.errors.get(name, 0) + 1

    def wrap(self, fn, name, before=None, after=None):
        """Return ``fn`` wrapped to record a span named ``name``.

        ``before(args, kwargs)`` runs ahead of the call and its value is
        passed on as ``after(token, sid, args, kwargs, result)``; both run
        outside the span and only while tracing is enabled.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            token = before(args, kwargs) if before else None
            with self.span(name) as sid:
                result = fn(*args, **kwargs)
            if after:
                after(token, sid, args, kwargs, result)
            return result

        return traced


def install(tracer, targets):
    """Replace each ``(owner, attribute, span_name, before, after)`` target
    by a traced wrapper; returns what ``restore`` needs to undo it."""
    saved = []
    for owner, attr, name, before, after in targets:
        original = vars(owner)[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        saved.append((owner, attr, original))
        setattr(owner, attr, tracer.wrap(original, name, before, after))
    return saved


def restore(saved):
    for owner, attr, original in reversed(saved):
        setattr(owner, attr, original)


def union_length(intervals):
    """Total length covered by possibly overlapping ``(start, end)`` pairs."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans):
    """Map span id to self time: the span's duration minus the part of its
    interval covered by its children.  Children from several threads may
    overlap each other; the covered part counts once."""
    children = {}
    for s in spans:
        children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        kids = [(max(c.start, s.start), min(c.end, s.end))
                for c in children.get(s.sid, ())]
        kids = [(a, b) for a, b in kids if b > a]
        out[s.sid] = (s.end - s.start) - union_length(kids)
    return out


def tail_percentile(samples, beyond=10):
    """The highest percentile that still has at least ``beyond`` samples
    above it, by the nearest-rank rule: ``(percentile, value)``.

    With n sorted samples the p-th percentile is the ceil(p n / 100)-th
    smallest, which leaves n - ceil(p n / 100) samples beyond it, so the
    answer is p = 100 (n - beyond) / n and the (n - beyond)-th smallest.
    """
    xs = sorted(samples)
    n = len(xs)
    if n <= beyond:
        raise ValueError("need more than %d samples, got %d" % (beyond, n))
    return 100.0 * (n - beyond) / n, xs[n - beyond - 1]

