#!/usr/bin/env python3
"""The paper's N-to-N protocol as one benchmark command.

  python3 perfbench/run.py --workload scoring --seed 1 --seconds 30 --trace 0

Run from the repository root. It builds `sparsify_cli` and the dataset-load
timer from source into `.bench_build/` (see perfbench/CMakeLists.txt), runs
one untimed warm-up sweep, then for --seconds repeats, at --threads=4, the
researcher's loop: a cold
`sparsify_cli sweep` into a fresh store directory, the warm
`sweep --resume` over the finished store, and `export`. `--seed` becomes
the sweep's --seed: the graphs are the registry's fixed dataset recipes,
so the seed changes the randomized sparsifiers' samples and the sampled
metrics' draws.

--trace 0 reports the end-to-end metrics (tracing off). --trace 1 runs
traced sweeps and reports the per-layer breakdown computed from their
Chrome traces (see trace_layers.py). Every run checks its outputs: each
invocation exits 0, every export holds all of the workload's units and is
byte-identical to every other export of the run (cold, warm and traced),
and a traced sweep has one `metric_unit` span per unit. The last line of
stdout is one JSON object; the exit code is 1 when a check failed and 2
when the program could not be built.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass
from statistics import fmean, median

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import trace_layers  # noqa: E402

BUILD_DIR = ".bench_build"
THREADS = 4
MIN_ITERATIONS = 3
# Every child process is killed after this long, so a hung sweep ends the
# run (as a failure) well inside the 180 s a run may take.
CHILD_TIMEOUT_S = 120.0

ALL_ALGOS = ("RN", "KN", "RD", "LD", "SF", "SP-3", "SP-5", "SP-7", "FF",
             "LS", "GS", "LSim", "SCAN", "ER-uw", "ER-w", "TRI", "SIMM",
             "ALG", "LS-MH")
ALL_DATASETS = ("ego-Facebook", "ego-Twitter", "human_gene2", "com-DBLP",
                "com-Amazon", "email-Enron", "ca-AstroPh", "ca-HepPh",
                "web-BerkStan", "web-Google", "web-NotreDame",
                "web-Stanford", "Reddit", "ogbn-proteins")
RATES = "0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9"
CHEAP_METRICS = ("connectivity", "isolated", "degree", "kcore")
CENTRALITY_METRICS = ("closeness", "betweenness", "pagerank", "eigenvector",
                      "katz", "f1")


@dataclass(frozen=True)
class Workload:
    name: str
    datasets: tuple
    scale: float
    algos: tuple
    runs: int
    metrics: tuple
    units: int  # (cell, metric) units one cold sweep evaluates
    warm_reps: int  # warm passes (each followed by an export) per cold sweep

    def sweep_args(self, seed):
        return ["sweep", "--dataset=" + ",".join(self.datasets),
                f"--scale={self.scale!r}", "--algos=" + ",".join(self.algos),
                "--rates=" + RATES, f"--runs={self.runs}",
                "--metrics=" + ",".join(self.metrics), f"--seed={seed}",
                f"--threads={THREADS}"]


# Why each workload exists is in perfbench/README.md. The unit counts are
# fixed by the grid (19 sparsifiers, 9 rates; deterministic sparsifiers
# run once, fixed-output ones have one rate), not by the graph or seed.
WORKLOADS = {
    "scoring": Workload("scoring", ("ego-Facebook",), 1.0, ALL_ALGOS, 2,
                        CHEAP_METRICS, 844, 8),
    "centrality": Workload("centrality", ("ca-AstroPh",), 0.6,
                           ("RN", "LD", "KN"), 2, CENTRALITY_METRICS, 270, 8),
    "paper_grid": Workload("paper_grid", ALL_DATASETS, 0.1, ALL_ALGOS, 10,
                           CHEAP_METRICS + ("gcc", "mcc"), 66108, 2),
}

END_TO_END_UNITS = {"sweep_s": "s", "cpu_s": "s", "peak_rss_mb": "MB",
                    "setup_s": "s", "export_s": "s", "unit_ok_rate": "ratio"}
PER_LAYER_UNITS = {
    "graph.load_s": "s",
    "sparsifiers.score_s": "s", "sparsifiers.score_max_s": "s",
    "sparsifiers.score_groups": "count",
    "engine.subgraph_s": "s", "engine.subgraph_builds": "count",
    "engine.pool_util": "ratio", "engine.idle_s": "s",
    "metrics.unit_s": "s", "metrics.unit_p50_ms": "ms",
    "metrics.unit_tail_ms": "ms", "metrics.units": "count",
    "store.replay_s": "s", "store.write_s": "s", "store.bytes_per_unit": "B",
    "trace.overhead_s": "s",
}


@dataclass
class Proc:
    rc: int
    wall: float
    cpu: float
    rss_mb: float


class Bench:
    """Runs the built binaries in a private scratch directory and keeps the
    failure accounting: attempted and failed units, and failed checks."""

    def __init__(self, workload, seed, env):
        self.wl = workload
        self.seed = seed
        self.env = env
        self.cli = os.path.join(BUILD_DIR, "sparsify", "sparsify_cli")
        self.loader = os.path.join(BUILD_DIR, "perfbench_load")
        self.spawner = os.path.join(BUILD_DIR, "perfbench_spawn")
        self.dir = os.path.join(BUILD_DIR, "runs",
                                f"{workload.name}.{os.getpid()}")
        shutil.rmtree(self.dir, ignore_errors=True)
        os.makedirs(self.dir)
        self.stderr_log = os.path.join(self.dir, "stderr.log")
        self.counter = 0
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.digest = None

    def close(self):
        if self.errors and os.path.exists(self.stderr_log):
            with open(self.stderr_log, errors="replace") as f:
                tail = f.readlines()[-40:]
            sys.stderr.write("# program stderr (last lines):\n" + "".join(tail))
        shutil.rmtree(self.dir, ignore_errors=True)

    def path(self, stem):
        self.counter += 1
        return os.path.join(self.dir, f"{stem}.{self.counter}")

    def fail(self, message):
        self.errors.append(message)
        print(f"# CHECK FAILED: {message}", file=sys.stderr)

    def run(self, argv, stdout_path=None):
        """Runs argv through perfbench_spawn (spawn.cc), which measures
        its wall time, CPU time and peak RSS from outside the process."""
        spawner = subprocess.Popen(
            [self.spawner, stdout_path or os.devnull, self.stderr_log] + argv,
            env=self.env, stdout=subprocess.PIPE, text=True)
        try:
            out, _ = spawner.communicate(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            spawner.terminate()  # kills the program and waits for it
            out, _ = spawner.communicate()
        try:
            rc, wall, cpu, rss_kib = out.split()
            proc = Proc(int(rc), float(wall), float(cpu),
                        int(rss_kib) / 1024.0)
        except ValueError:
            proc = Proc(-9, CHILD_TIMEOUT_S, 0.0, 0.0)
        if proc.rc != 0:
            self.fail(f"{' '.join(argv[:2])} exited {proc.rc} "
                      f"(its stderr follows)")
        return proc

    def sweep(self, store=None, resume=False, trace=None):
        argv = [self.cli] + self.wl.sweep_args(self.seed)
        if store:
            argv.append(f"--store={store}")
        if resume:
            argv.append("--resume")
        if trace:
            argv.append(f"--trace={trace}")
        return self.run(argv)

    def cold_sweep(self, store=None, trace=None):
        """A cold sweep: its units count as attempted, and all of them as
        failed if it does not exit 0."""
        p = self.sweep(store=store, trace=trace)
        self.attempted += self.wl.units
        if p.rc != 0:
            self.failed += self.wl.units
        return p

    def export(self, store, count_missing=False):
        """Exports `store`, checks it against every other export of this
        run, and returns the export's wall time (None if it failed).
        With count_missing, units absent from the export (error records)
        count as failed."""
        out = self.path("export")
        p = self.run([self.cli, "export", f"--store={store}"], out)
        if p.rc != 0:
            return None
        with open(out, "rb") as f:
            text = f.read()
        os.remove(out)
        digest = hashlib.sha256(text).hexdigest()
        units = exported_units(text.decode())
        if units != self.wl.units:
            self.fail(f"export holds {units} units, expected {self.wl.units}")
            if count_missing:
                self.failed += max(0, self.wl.units - units)
        if self.digest is None:
            self.digest = digest
            print(f"# export sha256={digest} units={units}")
        elif digest != self.digest:
            self.fail(f"export {digest} differs from the run's first "
                      f"export {self.digest}")
        return p.wall


def exported_units(csv_text):
    """Sum of the `runs` column: one stored unit per run of each point."""
    total = 0
    for line in csv_text.splitlines():
        if line and not line.startswith("#") and not line.startswith(
                "sparsifier,"):
            total += int(line.rsplit(",", 1)[1])
    return total


def dir_bytes(path):
    return sum(os.path.getsize(os.path.join(root, f))
               for root, _, files in os.walk(path) for f in files)


def keep_going(started, iteration_times, seconds):
    """Another iteration fits: fewer than MIN_ITERATIONS done, or the
    median iteration still ends within the --seconds budget."""
    if len(iteration_times) < MIN_ITERATIONS:
        return True
    elapsed = time.perf_counter() - started
    return elapsed + median(iteration_times) <= seconds


def end_to_end(b, seconds):
    """Cold sweep, export, then warm passes each followed by an export;
    trimmed means over the iterations that fit in `seconds`."""
    cold, cpu, rss, setup, export = [], [], [], [], []
    started, iteration_times = time.perf_counter(), []
    while keep_going(started, iteration_times, seconds):
        t = time.perf_counter()
        store = b.path("store")
        c = b.cold_sweep(store=store)
        if c.rc != 0:
            break
        cold.append(c.wall)
        cpu.append(c.cpu)
        rss.append(c.rss_mb)
        export.append(b.export(store, count_missing=True))
        for _ in range(b.wl.warm_reps):
            w = b.sweep(store=store, resume=True)
            if w.rc != 0:
                break
            setup.append(w.wall)
            export.append(b.export(store))
        shutil.rmtree(store, ignore_errors=True)
        if b.errors:
            break
        iteration_times.append(time.perf_counter() - t)
    print(f"# {len(cold)} cold sweeps, {len(setup)} warm passes, "
          f"{len(export)} exports")
    if b.errors:
        return {}, {}
    return {"sweep_s": trimmed_mean(cold), "cpu_s": trimmed_mean(cpu),
            "peak_rss_mb": trimmed_mean(rss), "setup_s": trimmed_mean(setup),
            "export_s": trimmed_mean(export)}, {}


def trimmed_mean(values):
    """Mean of the samples left after dropping the lowest and the highest
    fifth. Like a median it ignores a stray slow run, but it is steadier
    when a process's times cluster in two modes, as single-threaded runs
    of the same binary here do (about 20% apart, from run to run)."""
    values = sorted(values)
    k = len(values) // 5
    return fmean(values[k:len(values) - k])


def load_seconds(b, reps=3):
    """Median over `reps` passes of the summed LoadDatasetScaled time of
    the workload's datasets."""
    out = b.path("load")
    specs = [f"{d}@{b.wl.scale!r}" for d in b.wl.datasets]
    if b.run([b.loader, str(reps)] + specs, out).rc != 0:
        return None
    with open(out) as f:
        rows = [line.split() for line in f if line.startswith("load ")]
    sums, shapes = [], set()
    for r in range(reps):
        rep = rows[r * len(specs):(r + 1) * len(specs)]
        sums.append(sum(float(row[3]) for row in rep))
        shapes.add(tuple((row[1], row[4], row[5]) for row in rep))
    if len(rows) != reps * len(specs) or len(shapes) != 1:
        b.fail("LoadDatasetScaled returned different graphs across calls")
    return median(sums)


# A missing, malformed or unbalanced trace, or one without the expected
# spans, fails the run's checks instead of crashing it.
TRACE_ERRORS = (OSError, ValueError, KeyError, IndexError)


def per_layer(b, seconds):
    """Each iteration: an untraced cold sweep (the reference export and
    the tracing-overhead base), a traced cold sweep (the layer numbers),
    its traced warm pass (store replay), and a traced cold sweep without a
    store (the store-append share). Medians over the iterations."""
    load = load_seconds(b)
    plain, traced, storeless, replay, per_unit = [], [], [], [], []
    layers, breakdown, notes = {}, {}, {}
    started, iteration_times = time.perf_counter(), []
    while keep_going(started, iteration_times, seconds):
        t = time.perf_counter()
        ref_store, store = b.path("store"), b.path("store")
        trace = b.path("trace")
        u = b.cold_sweep(store=ref_store)
        if u.rc != 0 or b.export(ref_store, count_missing=True) is None:
            break
        c = b.cold_sweep(store=store, trace=trace)
        if c.rc != 0:
            break
        try:
            m, notes, bd = trace_layers.summarize(
                trace_layers.load_spans(trace), c.wall, THREADS)
        except TRACE_ERRORS as e:
            b.fail(f"cannot aggregate the traced sweep's trace: {e!r}")
            break
        if m["metrics.units"] != b.wl.units:
            b.fail(f"traced sweep has {m['metrics.units']} metric_unit "
                   f"spans, expected {b.wl.units}")
        per_unit.append(dir_bytes(store) / b.wl.units)
        b.export(store, count_missing=True)
        w = b.sweep(store=store, resume=True, trace=trace)
        if w.rc != 0:
            break
        try:
            warm = trace_layers.load_spans(trace)
        except TRACE_ERRORS as e:
            b.fail(f"cannot read the warm pass's trace: {e!r}")
            break
        if any(s.name == "metric_unit" for s in warm):
            b.fail("the warm pass over a finished store evaluated units")
        replay.append(sum(s.end - s.begin for s in warm
                          if s.name == "store_replay"))
        n = b.cold_sweep(trace=trace)
        if n.rc != 0:
            break
        for store_dir in (ref_store, store):
            shutil.rmtree(store_dir, ignore_errors=True)
        os.remove(trace)
        plain.append(u.wall)
        traced.append(c.wall)
        storeless.append(n.wall)
        for k, v in m.items():
            layers.setdefault(k, []).append(v)
        for k, (v, unit, note) in bd.items():
            breakdown.setdefault(k, [unit, note, []])[2].append(v)
        if b.errors:
            break
        iteration_times.append(time.perf_counter() - t)
    if b.errors or load is None:
        return {}, {}
    print(f"# {len(traced)} iterations; per-sparsifier and per-metric "
          "breakdown (medians):")
    for k, (unit, note, values) in breakdown.items():
        print(f"#   {k} = {median(values)!r} {unit}"
              + (f" ({note})" if note else ""))
    result = {k: median(v) for k, v in layers.items()}
    result.update({
        "graph.load_s": load,
        "store.replay_s": median(replay),
        "store.write_s": median(traced) - median(storeless),
        "store.bytes_per_unit": median(per_unit),
        "trace.overhead_s": median(traced) - median(plain),
    })
    return result, notes


def build():
    """Configures and builds into BUILD_DIR; False if either step fails."""
    os.makedirs(BUILD_DIR, exist_ok=True)
    log_path = os.path.join(BUILD_DIR, "build.log")
    steps = [["cmake", "-S", HERE, "-B", BUILD_DIR,
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", BUILD_DIR, "-j", str(THREADS), "--target",
              "sparsify_cli", "perfbench_load", "perfbench_spawn"]]
    with open(log_path, "wb") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                              timeout=850).returncode != 0:
                print(f"build failed: {' '.join(step)} (log: {log_path})",
                      file=sys.stderr)
                return False
    return True


def bench_env(extra=None):
    """The environment with no SPARSIFY_* setting (fault injection, lease
    TTL, segment size) except one: the store does not fsync. On a shared
    machine the disk's fsync latency swings several-fold from minute to
    minute; with the default policy (one fsync per 32 appends) it added
    0.7-2 s to a 3.5 s paper_grid sweep and pushed that sweep's run-to-run
    spread from 6% to 22%. Appends still go through write(2)."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("SPARSIFY_")}
    env["SPARSIFY_STORE_FSYNC"] = "none"
    env.update(extra or {})
    return env


def run_workload(workload, seed, seconds, trace, env):
    """Measures one workload; returns (result dict, per-metric notes)."""
    b = Bench(workload, seed, env)
    try:
        # Untimed warm-up: the first sweep after the machine idles runs up
        # to a third slower (CPUs waking up), and users of a sweep loop do
        # not pay that on every run. It is still checked and counted.
        b.cold_sweep()
        names = PER_LAYER_UNITS if trace else END_TO_END_UNITS
        if b.errors:
            metrics, notes = {}, {}
        else:
            metrics, notes = (per_layer if trace else end_to_end)(b, seconds)
        if not trace:
            metrics["unit_ok_rate"] = (b.attempted - b.failed) / b.attempted
    finally:
        b.close()
    correct = not b.errors and b.failed == 0 and set(metrics) == set(names)
    return {"correct": correct, "attempted": b.attempted,
            "failed": b.failed,
            "metrics": {k: {"value": metrics[k], "unit": names[k]}
                        for k in names if k in metrics}}, notes


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not build():
        return 2
    result, notes = run_workload(WORKLOADS[args.workload], args.seed,
                                 args.seconds, args.trace, bench_env())
    for name, m in result["metrics"].items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name} = {m['value']!r} {m['unit']}{note}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
