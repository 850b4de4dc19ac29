"""Percentiles and open-loop latency accounting.

Latencies are timed from when each request was *due*, not from when the
generator managed to send it, so a stall in the generator or the server
shows up in every request it delays.  A request that failed (an
``"ok":false`` reply) or never got a reply counts as infinitely slow: it
misses any latency limit.
"""

import math

MIN_BEYOND = 10


def percentile(values, q):
    """Nearest-rank percentile of ``values`` at fraction ``q`` in (0, 1].

    Returns ``(value, beyond)`` where ``beyond`` is how many samples lie
    above the rank the value was taken from.
    """
    if not values:
        raise ValueError("percentile of no samples")
    if not 0.0 < q <= 1.0:
        raise ValueError("percentile fraction must be in (0, 1]")
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def reportable_percentile(values, q, min_beyond=MIN_BEYOND):
    """The percentile with its sample count, or None when fewer than
    ``min_beyond`` samples lie beyond it (the sample cannot support it)."""
    if not values:
        return None
    value, beyond = percentile(values, q)
    if beyond < min_beyond:
        return None
    return {"value": value, "samples": len(values), "beyond": beyond}


class Record:
    """One request of an open-loop phase, times in ns from phase start."""

    __slots__ = ("due_ns", "sent_ns", "recv_ns", "ok", "op")

    def __init__(self, due_ns, sent_ns, recv_ns, ok, op="decide"):
        self.due_ns = due_ns
        self.sent_ns = sent_ns
        self.recv_ns = recv_ns
        self.ok = ok
        self.op = op

    @property
    def answered(self):
        return self.recv_ns >= 0

    def latency_us(self):
        """Due-to-reply time; infinite for a failed or unanswered request."""
        if not self.ok or not self.answered:
            return math.inf
        return (self.recv_ns - self.due_ns) / 1e3

    def lateness_us(self):
        """How late the generator sent the request."""
        return (self.sent_ns - self.due_ns) / 1e3


def parse_records(lines, ops):
    """Records from serve-client output lines; ``ops`` names each line's op."""
    if len(lines) != len(ops):
        raise ValueError("serve-client returned %d records for %d requests"
                         % (len(lines), len(ops)))
    records = []
    for line, op in zip(lines, ops):
        due, sent, recv, ok = (int(x) for x in line.split())
        records.append(Record(due, sent, recv, ok == 1, op))
    return records


def latencies(records, op=None):
    return [r.latency_us() for r in records if op is None or r.op == op]


def failed(records):
    return sum(1 for r in records if not r.ok or not r.answered)


def phase_summary(records, q=0.99):
    """Percentiles, failure and lateness accounting of one phase."""
    lat = latencies(records)
    late = [r.lateness_us() for r in records]
    return {
        "requests": len(records),
        "failed": failed(records),
        "p50": reportable_percentile(lat, 0.5),
        "p%g" % (q * 100): reportable_percentile(lat, q),
        "late_p50_us": percentile(late, 0.5)[0],
        "late_max_us": max(late),
    }
