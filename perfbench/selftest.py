#!/usr/bin/env python3
"""Self-test of the benchmark, at a tiny scale.

  python3 perfbench/selftest.py

Run from the repository root (it builds like run.py does). It checks the
trace aggregation on hand-made spans, runs every workload shrunk to a tiny
graph in both modes and asserts that every metric BENCHMARK.json names is
emitted with its unit and that the outputs check out, and runs a workload
with an armed failpoint and a crashing store to assert the failure
accounting. Exits 0 when everything passes.
"""

import dataclasses
import json
import os
import sys
import tempfile

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402
import trace_layers  # noqa: E402

# The same grids on tiny graphs. Unit counts depend only on the grid:
# 211 cells at runs=2 (844 = 211 x 4 metrics) and 45 cells for RN/LD/KN.
TINY = {
    "scoring": dataclasses.replace(run.WORKLOADS["scoring"], scale=0.1),
    "centrality": dataclasses.replace(run.WORKLOADS["centrality"],
                                      scale=0.05),
    "paper_grid": dataclasses.replace(run.WORKLOADS["paper_grid"],
                                      scale=0.02, runs=2, units=14 * 211 * 6),
}


def check(condition, message):
    if not condition:
        raise AssertionError(message)


def test_trace_aggregation():
    # Thread 1: a metric_unit [0, 10] that ran a subgraph [2, 5] inside it
    # (so its self time is 7), then a score_group [12, 20]. Thread 2 is
    # busy [1, 4]. Written B/E-adjacent, child first, the way the CLI's
    # writer emits completed spans.
    events = [
        {"name": "subgraph", "ph": "B", "tid": 1, "ts": 2e6,
         "args": {"detail": "RN"}},
        {"name": "subgraph", "ph": "E", "tid": 1, "ts": 5e6},
        {"name": "metric_unit", "ph": "B", "tid": 1, "ts": 0,
         "args": {"detail": "degree"}},
        {"name": "metric_unit", "ph": "E", "tid": 1, "ts": 10e6},
        {"name": "score_group", "ph": "B", "tid": 1, "ts": 12e6,
         "args": {"detail": "SP-3"}},
        {"name": "score_group", "ph": "E", "tid": 1, "ts": 20e6},
        {"name": "metric_unit", "ph": "X", "tid": 2, "ts": 1e6, "dur": 3e6,
         "args": {"detail": "degree"}},
    ]
    with tempfile.NamedTemporaryFile("w", suffix=".json",
                                     delete=False) as f:
        json.dump({"traceEvents": events}, f)
    try:
        spans = trace_layers.load_spans(f.name)
    finally:
        os.remove(f.name)
    self_time = {(s.name, s.tid): s.self_time for s in spans}
    check(self_time[("metric_unit", 1)] == 7.0, self_time)
    check(self_time[("subgraph", 1)] == 3.0, self_time)
    check(trace_layers.busy_seconds(spans) == 18.0 + 3.0, "busy union")
    m, notes, breakdown = trace_layers.summarize(spans, wall_s=20.0,
                                                 threads=2)
    check(m["metrics.unit_s"] == 10.0 and m["metrics.units"] == 2, m)
    check(m["sparsifiers.score_max_s"] == 8.0, m)
    check(abs(m["engine.pool_util"] - 21.0 / 40.0) < 1e-12, m)
    check(breakdown["sparsifiers.score_s.SP-3"][0] == 8.0, breakdown)
    check("max of 2" in notes["metrics.unit_tail_ms"], notes)
    check(trace_layers.tail_percentile(844) == 98, "tail of 844")
    check(trace_layers.tail_percentile(270) == 95, "tail of 270")
    check(trace_layers.tail_percentile(19) is None, "tail of 19")
    check(trace_layers.nearest_rank([1, 2, 3, 4], 50) == 2, "p50")


def declared_metrics():
    root = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = [w["name"] for w in spec["workloads"]]
    check(sorted(workloads) == sorted(run.WORKLOADS), workloads)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def test_workloads_emit_every_metric():
    end_to_end, per_layer = declared_metrics()
    for name, workload in TINY.items():
        for trace, declared in ((0, end_to_end), (1, per_layer)):
            result, _ = run.run_workload(workload, seed=7, seconds=1,
                                         trace=trace, env=run.bench_env())
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            check(result["correct"], f"{name} trace={trace}: {result}")
            check(got == declared, f"{name} trace={trace}: metrics {got} "
                  f"!= declared {declared}")
            check(result["failed"] == 0 and result["attempted"] >= 1,
                  result)
            print(f"ok  {name} trace={trace}: {len(got)} metrics, "
                  f"{result['attempted']} units")


def test_failure_accounting():
    # A metric that always throws makes the warm-up sweep exit nonzero (its
    # units become error records), so the run stops there with all 844
    # units failed. The warm-up sweep has no store, so a SIGKILL mid-append
    # first crashes the next, measured, sweep: 844 of 1688 units failed.
    for spec, attempted, rate in (("engine.metric_unit/degree=throw", 844,
                                   0.0),
                                  ("store.append=kill@50", 1688, 0.5)):
        result, _ = run.run_workload(
            TINY["scoring"], seed=7, seconds=1, trace=0,
            env=run.bench_env({"SPARSIFY_FAILPOINTS": spec}))
        got = result["metrics"]["unit_ok_rate"]["value"]
        check(not result["correct"], f"{spec}: {result}")
        check(result["attempted"] == attempted and result["failed"] == 844,
              f"{spec}: {result}")
        check(got == rate, f"{spec}: unit_ok_rate {got}, expected {rate}")
        print(f"ok  failure accounting under {spec}: unit_ok_rate={got}")


def main():
    test_trace_aggregation()
    print("ok  trace aggregation")
    if not run.build():
        return 2
    test_failure_accounting()
    test_workloads_emit_every_metric()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
