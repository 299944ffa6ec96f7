"""Open-loop latency and capacity over measured service times.

Batch k of an online workload is due at k * interval.  The service takes
batches one at a time, in order, so

    done_k = max(due_k, done_{k-1}) + service_k,   latency_k = done_k - due_k

and a stall delays every batch queued behind it.  Batch contents come
from the seeded trace, so service times do not depend on pacing: the
benchmark measures each batch's service time once and derives every
open-loop number from them instead of sleeping.  Everything here is a
pure function of its arguments.
"""


def latencies(service_ms, interval_ms):
    """Latency of each batch, counted from its due time, in ms."""
    out = []
    done = 0.0
    for k, service in enumerate(service_ms):
        due = k * interval_ms
        done = max(due, done) + service
        out.append(done - due)
    return out


def percentile(values, q):
    """The q-th percentile (0..100), interpolated linearly between ranks."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def sustainable(service_ms, interval_ms, limit_ms):
    """True when batches offered every interval_ms keep the p95 latency
    within limit_ms without a growing backlog.

    The backlog grows when the offered work reaches the time it is
    offered over (utilization >= 1): the queue then never drains, however
    short the trace is.
    """
    if sum(service_ms) >= len(service_ms) * interval_ms:
        return False
    return percentile(latencies(service_ms, interval_ms), 95) <= limit_ms


def max_events_per_s(service_ms, events, limit_ms):
    """Highest sustainable offered rate, in events per second.

    Latencies only fall as the interval grows, so the smallest
    sustainable interval is found by bisection.  Returns 0.0 when even an
    idle server misses the limit.
    """
    hi = 2.0 * max(service_ms)  # no batch ever waits at this interval
    if not sustainable(service_ms, hi, limit_ms):
        return 0.0
    lo = 0.0
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if sustainable(service_ms, mid, limit_ms):
            hi = mid
        else:
            lo = mid
    return 1000.0 * sum(events) / (len(events) * hi)
