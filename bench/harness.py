"""Timing primitives shared by the workloads.

Raw wall time on a shared host drifts by up to 2x between identical runs,
so in-process timings are expressed in units of one pass of a fixed
reference loop (``ref``), timed right before and after each chunk of
operations.  Per-op latencies are divided instead by a short pass of the
same loop timed right around each small group of ops.  The loop is stdlib
only and calls no tropmat code.
"""

from __future__ import annotations

import math
import resource
import statistics
from fractions import Fraction
from time import perf_counter, perf_counter_ns

# An in-process op chunk ends once its ops have been busy this long.
CHUNK_NS = 20_000_000
# A chunk whose reference passes before and after differ by more than this
# factor straddles a change of host speed.
STRADDLE = 1.2
# A latency segment closes once it holds SEGMENT_OPS ops (so its p99 has
# ten ops beyond it) and has lasted SEGMENT_S seconds (so the number of
# segments, and with it memory, does not grow with the op rate).
SEGMENT_OPS = 1000
SEGMENT_S = 1.0
REF_ITERS = 70
# Host speed also changes within a chunk, in bursts of a few milliseconds
# that hit a few percent of the ops: divided by the chunk's passes, the
# 99th percentile of op latency moved by 1.5x with the share of bursts on
# the host.  So op latencies are divided by a short pass of OP_REF_ITERS
# iterations, timed before and after each group of ops that has been busy
# GROUP_NS, and scaled to a full pass.
OP_REF_ITERS = 6
GROUP_NS = 500_000


class _Cell:
    """A max-plus scalar in miniature: an exact rational or None for -inf."""

    __slots__ = ("f",)

    def __init__(self, f):
        self.f = f.f if isinstance(f, _Cell) else f

    def __mul__(self, other):
        if self.f is None or other.f is None:
            return _BOTTOM
        return _Cell(self.f + other.f)

    def __add__(self, other):
        if self.f is None:
            return other
        if other.f is None:
            return self
        return self if self.f >= other.f else other

    def __eq__(self, other):
        return self.f == other.f

    __hash__ = None


_BOTTOM = _Cell(None)
_VALUES = (None, Fraction(0), Fraction(1, 2), Fraction(-3, 4), Fraction(5, 3), Fraction(-2), None, Fraction(7, 4))
_MATRICES = [
    tuple(tuple(_Cell(_VALUES[(i * 5 + r * 3 + c) % len(_VALUES)]) for c in range(2)) for r in range(2))
    for i in range(16)
]


def ref_pass(iters: int = REF_ITERS) -> int:
    """Run the reference loop once and return its wall time in ns.

    The loop multiplies 2x2 max-plus matrices of a tiny slotted scalar class
    and churns tuples and a dict.  It mimics the kind of work tropmat does
    (object creation, method dispatch, ``Fraction`` addition and
    comparison) without calling it: when a busy neighbour slows this host,
    per-chunk ops-per-pass of the workloads moved by 3-6% between the fast
    and slow host states, against 10-14% for a loop of bare ``Fraction``
    arithmetic.
    """
    t0 = perf_counter_ns()
    table = {}
    for i in range(iters):
        a, b = _MATRICES[i & 15], _MATRICES[(i * 7 + 3) & 15]
        p = tuple(tuple(a[r][0] * b[0][c] + a[r][1] * b[1][c] for c in range(2)) for r in range(2))
        finite = [q.f for row in p for q in row if q.f is not None]
        table[(i & 31, len(finite))] = (p, max(finite) - min(finite) if finite else Fraction(0))
        if p[0][0] == a[0][0]:
            table.pop(((i + 7) & 31, 4), None)
    return perf_counter_ns() - t0


def op_ref_pass() -> float:
    """A short reference pass, scaled to the time of a full one in ns."""
    return ref_pass(OP_REF_ITERS) * (REF_ITERS / OP_REF_ITERS)


class Quantiles:
    """Bounded-memory quantiles of positive samples.

    Samples fall into log-spaced bins 0.5% wide; each bin keeps its count
    and sum, and a quantile reads the mean of the bin holding that rank.
    Memory does not grow with the number of samples, so a faster program
    running more ops in a run does not show as a larger peak RSS.
    """

    _SCALE = 1.0 / math.log1p(0.005)

    def __init__(self):
        self.n = 0
        self._count = {}
        self._sum = {}

    def add(self, x: float):
        b = int(math.log(x) * self._SCALE)
        self._count[b] = self._count.get(b, 0) + 1
        self._sum[b] = self._sum.get(b, 0.0) + x
        self.n += 1

    def merge(self, other: "Quantiles"):
        for b, c in other._count.items():
            self._count[b] = self._count.get(b, 0) + c
            self._sum[b] = self._sum.get(b, 0.0) + other._sum[b]
        self.n += other.n

    def quantile(self, q: float) -> float:
        """Nearest-rank quantile: the smallest sample with at least q*n
        samples at or below it (up to the bin width)."""
        if not self.n:
            raise ValueError("no samples")
        rank = max(1, math.ceil(q * self.n))
        seen = 0
        for b in sorted(self._count):
            seen += self._count[b]
            if seen >= rank:
                return self._sum[b] / self._count[b]
        raise AssertionError("rank beyond sample count")


class LoopStats:
    """What one closed-loop run measured."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.unexpected = []  # failures not on the workload's known-defect list
        # Per-op latency in refs, in segments, so a burst of
        # host interference moves one segment's tail and not the reported
        # lower quartile over segments.
        self.segments = [Quantiles()]
        self.latency_ns = Quantiles()
        self.chunk_rates = []  # ops per ref, one per calibrated chunk
        # Chunks that straddle a change of host speed, kept apart and used
        # only if no chunk of the run was calibrated.
        self.straddled = []
        self.straddled_latency = Quantiles()
        self.ref_ns = []
        self.busy_ns = 0

    def latency_quantile(self, q: float) -> float:
        """Lower quartile over segments of the segment's q-quantile of op
        latency in refs.  Host bursts only ever add latency, and a burst
        that outlasts its group of ops raises a whole segment's tail, so the
        lower quartile follows the program where the median followed the
        share of bursty segments.  A short last segment joins the one
        before it."""
        segments = [seg for seg in self.segments if seg.n] or [self.straddled_latency]
        if len(segments) > 1 and segments[-1].n < SEGMENT_OPS:
            last = segments.pop()
            merged = Quantiles()
            merged.merge(segments.pop())
            merged.merge(last)
            segments.append(merged)
        values = [seg.quantile(q) for seg in segments]
        if len(values) == 1:
            return values[0]
        return statistics.quantiles(values, n=4, method="inclusive")[0]

    @property
    def ops_per_ref(self) -> float:
        return statistics.median(self.chunk_rates or self.straddled)

    @property
    def ref_us(self) -> float:
        return statistics.median(self.ref_ns) / 1e3

    @property
    def ops_per_s_raw(self) -> float:
        return self.attempted / (self.busy_ns / 1e9)


def run_loop(
    workload, inputs, seconds: float, digest=None, on_op=None, ref=ref_pass, chunk_ns=CHUNK_NS, op_ref=None
) -> LoopStats:
    """Closed loop with one client: each op starts when the previous ends.

    ``inputs`` is an iterator of op inputs.  The loop stops at the first
    workload boundary after ``seconds`` of wall time and after the
    workload's digest prefix, or when ``inputs`` runs out.  The first
    ``workload.prefix_ops`` decision records feed ``digest``.  ``on_op(i)``
    runs before op i, outside its timing.  ``ref()`` times one reference
    pass in ns; a chunk of ops ends once they have been busy ``chunk_ns``.

    Host speed changes every few tens of milliseconds to seconds, so chunks
    are short and each is timed against the mean of the reference passes
    right before and right after it.  Given ``op_ref()``, a short pass in
    full-pass ns, op latencies are divided by the mean of the short passes
    right before and after their group of ops, a group closing once its
    ops have been busy ``GROUP_NS``; without it, by their chunk's passes.
    """
    stats = LoopStats()
    deadline = perf_counter() + seconds
    segment_end = perf_counter() + SEGMENT_S
    ref_before = ref()
    done = False
    while not done:
        lats = []
        chunk_busy = 0
        # Latencies in refs, when op_ref is given.
        scaled = []
        group_start, group_busy = 0, 0
        group_ref = op_ref() if op_ref is not None else None
        while chunk_busy < chunk_ns:
            inp = next(inputs, None)
            if inp is None:
                done = True
                break
            i = stats.attempted
            if on_op is not None:
                on_op(i)
            t0 = perf_counter_ns()
            try:
                ok, record = workload.run(inp)
            except Exception as exc:  # an op that raises is a failed op
                ok, record = False, f"raised {type(exc).__name__}: {exc}"
            lat = perf_counter_ns() - t0
            stats.attempted += 1
            chunk_busy += lat
            lats.append(lat)
            group_busy += lat
            if op_ref is not None and group_busy >= GROUP_NS:
                group_ref = _close_group(lats, group_start, group_ref, op_ref(), scaled)
                group_start, group_busy = len(lats), 0
            if not ok:
                stats.failed += 1
                if not workload.known_defect(inp):
                    stats.unexpected.append(f"op {i}: {record}")
            if digest is not None and i < workload.prefix_ops:
                digest.update(f"{i}:{ok}:{record}\n".encode())
            if (
                stats.attempted >= workload.prefix_ops
                and workload.at_boundary(stats.attempted)
                and perf_counter() >= deadline
            ):
                done = True
                break
        if op_ref is not None and group_start < len(lats):
            _close_group(lats, group_start, group_ref, op_ref(), scaled)
        ref_after = ref()
        stats.ref_ns.append(ref_after)
        if lats:
            stats.busy_ns += chunk_busy
            for lat in lats:
                stats.latency_ns.add(lat)
            chunk_ref = (ref_before + ref_after) / 2
            if op_ref is None:
                scaled = [lat / chunk_ref for lat in lats]
            rate = len(lats) * chunk_ref / chunk_busy
            if max(ref_before, ref_after) > STRADDLE * min(ref_before, ref_after):
                # The host changed speed during the chunk, so neither pass
                # calibrates its ops; they still count as attempted.
                stats.straddled.append(rate)
                for x in scaled:
                    stats.straddled_latency.add(x)
            else:
                segment = stats.segments[-1]
                for x in scaled:
                    segment.add(x)
                stats.chunk_rates.append(rate)
                if segment.n >= SEGMENT_OPS and perf_counter() >= segment_end:
                    stats.segments.append(Quantiles())
                    segment_end = perf_counter() + SEGMENT_S
        ref_before = ref_after
    return stats


def _close_group(lats, start, ref_before, ref_after, out) -> float:
    """Append the group ``lats[start:]`` to ``out`` in refs; return
    ``ref_after``, the pass before the next group."""
    group_ref = (ref_before + ref_after) / 2
    out.extend(lat / group_ref for lat in lats[start:])
    return ref_after


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
