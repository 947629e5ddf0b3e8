"""Per-layer numbers from a `sparsify_cli sweep --trace=FILE` Chrome trace.

The trace holds one span per unit of engine work (`score_group`,
`subgraph`, `metric_unit`) plus the store's `store_replay`. Spans on one
thread nest (a worker that helps a nested parallel loop runs other tasks
inside its own span), so every time below is a span's self time: its
duration minus the part its direct children cover.
"""

import json
from dataclasses import dataclass

ENGINE_SPANS = ("score_group", "subgraph", "metric_unit")


@dataclass
class Span:
    name: str
    tid: int
    begin: float  # seconds from the trace's origin
    end: float
    detail: str
    self_time: float = 0.0


def load_spans(path):
    """Reads B/E pairs (matched per thread) and X events into Spans."""
    with open(path, encoding="utf-8") as f:
        events = json.load(f)["traceEvents"]
    spans, open_by_tid = [], {}
    for ev in events:
        ph, tid = ev.get("ph"), ev.get("tid", 0)
        args = ev.get("args") or {}
        if ph == "X":
            begin = ev["ts"] * 1e-6
            spans.append(Span(ev["name"], tid, begin, begin + ev["dur"] * 1e-6,
                              args.get("detail", "")))
        elif ph == "B":
            open_by_tid.setdefault(tid, []).append(ev)
        elif ph == "E":
            stack = open_by_tid.get(tid)
            if not stack or stack[-1]["name"] != ev["name"]:
                raise ValueError(f"unbalanced trace: end of {ev['name']!r} "
                                 f"on thread {tid} without its begin")
            b = stack.pop()
            spans.append(Span(b["name"], tid, b["ts"] * 1e-6, ev["ts"] * 1e-6,
                              (b.get("args") or {}).get("detail", "")))
    if any(open_by_tid.values()):
        raise ValueError("unbalanced trace: spans begun but never ended")
    _fill_self_times(spans)
    return spans


def _fill_self_times(spans):
    by_tid = {}
    for s in spans:
        by_tid.setdefault(s.tid, []).append(s)
    for thread_spans in by_tid.values():
        # Parents sort before the children they enclose.
        thread_spans.sort(key=lambda s: (s.begin, -s.end))
        stack = []
        for s in thread_spans:
            s.self_time = s.end - s.begin
            while stack and stack[-1].end <= s.begin:
                stack.pop()
            if stack:
                stack[-1].self_time -= s.end - s.begin
            stack.append(s)


def busy_seconds(spans):
    """Sum over worker threads of the union of their spans' intervals."""
    workers = {s.tid for s in spans if s.name in ENGINE_SPANS}
    total = 0.0
    for tid in workers:
        intervals = sorted((s.begin, s.end) for s in spans if s.tid == tid)
        cur_begin, cur_end = intervals[0]
        for begin, end in intervals[1:]:
            if begin > cur_end:
                total += cur_end - cur_begin
                cur_begin, cur_end = begin, end
            else:
                cur_end = max(cur_end, end)
        total += cur_end - cur_begin
    return total


def nearest_rank(sorted_values, p):
    """The p-th percentile (0 < p <= 100) by the nearest-rank rule."""
    rank = max(1, -(-len(sorted_values) * p // 100))
    return sorted_values[int(rank) - 1]


TAIL_LADDER = (99.9, 99, 98, 95, 90, 75, 50)


def tail_percentile(n):
    """Highest ladder percentile with at least ten of n samples beyond it;
    None when n < 20 (not even the median has ten beyond it)."""
    for p in TAIL_LADDER:
        if n * (100 - p) / 100 >= 10:
            return p
    return None


def latency_ms(durations):
    """(p50, tail, tail percentile, n) of span self times, in ms. With
    fewer than 20 samples the tail is the maximum."""
    values = sorted(d * 1e3 for d in durations)
    p = tail_percentile(len(values))
    tail = nearest_rank(values, p) if p is not None else values[-1]
    return nearest_rank(values, 50), tail, p, len(values)


def summarize(spans, wall_s, threads):
    """Layer metrics of one traced cold sweep.

    Returns (metrics, notes, breakdown): `metrics` maps the per-layer names
    that every workload exercises to values, `notes` states the sample
    counts behind the latency ones, and `breakdown` maps the per-sparsifier
    and per-metric names to (value, unit, note) for the report.
    """
    score = [s for s in spans if s.name == "score_group"]
    subgraph = [s for s in spans if s.name == "subgraph"]
    units = [s for s in spans if s.name == "metric_unit"]
    busy = busy_seconds(spans)
    p50, tail, tail_p, n = latency_ms(s.self_time for s in units)
    metrics = {
        "sparsifiers.score_s": sum(s.self_time for s in score),
        "sparsifiers.score_max_s": max(s.self_time for s in score),
        "sparsifiers.score_groups": len(score),
        "engine.subgraph_s": sum(s.self_time for s in subgraph),
        "engine.subgraph_builds": len(subgraph),
        "engine.pool_util": busy / (wall_s * threads),
        "engine.idle_s": wall_s * threads - busy,
        "metrics.unit_s": sum(s.self_time for s in units),
        "metrics.unit_p50_ms": p50,
        "metrics.unit_tail_ms": tail,
        "metrics.units": len(units),
    }
    notes = {
        "metrics.unit_p50_ms": f"{n} samples",
        "metrics.unit_tail_ms": _tail_note(tail_p, n),
    }
    breakdown = {}
    for algo in sorted({s.detail for s in score}):
        breakdown[f"sparsifiers.score_s.{algo}"] = (
            sum(s.self_time for s in score if s.detail == algo), "s", "")
    for metric in sorted({s.detail for s in units}):
        times = [s.self_time for s in units if s.detail == metric]
        m50, mtail, mp, mn = latency_ms(times)
        breakdown[f"metrics.unit_s.{metric}"] = (sum(times), "s", "")
        breakdown[f"metrics.unit_p50_ms.{metric}"] = (m50, "ms",
                                                      f"{mn} samples")
        breakdown[f"metrics.unit_tail_ms.{metric}"] = (mtail, "ms",
                                                       _tail_note(mp, mn))
    return metrics, notes, breakdown


def _tail_note(p, n):
    return f"p{p:g} of {n} samples" if p else f"max of {n} samples"
