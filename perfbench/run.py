"""Benchmark for sitscreen: one workload per invocation.

    python3 perfbench/run.py --workload screen_wide --seed 1 --seconds 22 --trace 0

Run from the root of a source checkout; the package is imported from its
``src/`` directory and child processes get the same ``PYTHONPATH``.  The
run generates the workload's inputs from ``--seed`` (several times, to time
set-up), runs operations one at a time for ``--seconds`` seconds at one
screening thread, and checks every output, including one operation at two
threads.  With ``--trace 0``
the last line reports the end-to-end metrics; with ``--trace 1`` it reports
the per-layer metrics of a separate traced run and writes the spans to
``perfbench/out/``.  The last line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "out"
SETUP_REPEATS = 3

END_TO_END = {
    "wall_s": "s",
    "wall_tail_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
# Span-backed per-layer times: metric name -> span name.
LAYER_SPANS = {
    "cli.import_s": "cli.import",
    "io.ingest_s": "io.ingest",
    "seeding.derive_s": "seeding.derive",
    "seeding.rng_s": "seeding.rng",
    "screening.screen_all_s": "screening.screen_all",
    "screening.screen_all_2t_s": "screening.screen_all_2t",
    "estimator.calibrate_s": "estimator.calibrate",
    "estimator.rank_counts_s": "estimator.rank_counts",
    "fdr.threshold_s": "fdr.threshold",
    "reports.build_s": "reports.build",
    "reports.dump_s": "reports.dump",
    "reports.plot_s": "reports.plot",
    "simlab.design_s": "simlab.design",
    "simlab.response_s": "simlab.response",
    "simlab.replication_s": "simlab.replication",
    "simlab.aggregate_s": "simlab.aggregate",
}
# Counts that must repeat exactly for a given seed.
COUNTERS = {
    "io.cells": "count",
    "screening.cols": "count",
    "screening.cols_x_ties": "count",
    "screening.trimmed_obs": "count",
    "screening.input_mb": "MB",
    "estimator.calibration_plugin": "count",
    "fdr.selected": "count",
    "fdr.true_pos": "count",
    "reports.json_bytes": "bytes",
}
PER_LAYER = {
    **{name: "s" for name in LAYER_SPANS},
    **COUNTERS,
    "io.ingest_mb_per_s": "MB/s",
    "screening.per_col_us": "us",
    "screening.parallel_eff": "ratio",
    "fdr.precision": "ratio",
    "trace.overhead_s": "s",
    "trace.untraced_s": "s",
}


def import_package():
    """Put the checkout's src/ first on the path; refuse any other copy."""
    src = ROOT / "src"
    if not (src / "sitscreen" / "__init__.py").is_file():
        raise SystemExit(f"error: no package source at {src / 'sitscreen'}")
    sys.path.insert(0, str(src))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])
    )
    import sitscreen

    if Path(sitscreen.__file__).resolve().parent != (src / "sitscreen").resolve():
        raise SystemExit(f"error: imported sitscreen from {sitscreen.__file__}")


def environment(input_mb: float) -> dict:
    import numpy
    import scipy

    caches = {}  # e.g. {"L3u": "107520K"}, sizes in KiB as sysfs gives them
    cpu = platform.processor()
    try:
        for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
            level, kind, size = (
                Path(index, name).read_text().strip()
                for name in ("level", "type", "size")
            )
            caches[f"L{level}{kind[0].lower()}"] = size
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    llc = caches.get("L3u") or caches.get("L2u") or "0K"
    llc_mb = int(llc[:-1]) * {"K": 2**10, "M": 2**20, "G": 2**30}[llc[-1]] / 1e6
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "input_mb": round(input_mb, 1),
        "llc_mb": llc_mb,
        # A working set under 4x the last-level cache partly stays cached,
        # so timings are not memory-bandwidth figures.
        "input_over_4x_llc": input_mb > 4 * llc_mb,
    }


def tail(values: list[float]) -> tuple[float, float]:
    """Highest order statistic with >= 10 samples beyond it, never below the
    upper median; returns (value, percentile)."""
    ordered = sorted(values)
    n = len(ordered)
    k = max(n - 11, n // 2)
    return ordered[k], 100.0 * (k + 1) / n


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def fail(self, message: str):
        self.failed += 1
        self.problems.append(message)

    def fail_all(self, problems: list[str]):
        """A wrong shared result fails every operation that produced it."""
        self.failed = self.attempted
        self.problems += problems


def record(result, threads, firsts, tally) -> bool:
    """Count a failed operation, or one whose output differs from the first
    output at the same thread count."""
    if result.error:
        tally.fail(f"threads={threads}: {result.error}")
        return False
    first = firsts.setdefault(threads, result)
    if result.output != first.output:
        tally.fail(f"threads={threads}: output differs from the first operation")
        return False
    return True


def verify(wl, inputs, firsts, tally):
    """Check the first output of each thread count.  Later operations
    repeated it bit for bit, so a wrong one means every operation failed."""
    for threads in (1, 2):
        for _ in range(3):
            if threads in firsts:
                break
            tally.attempted += 1
            record(wl.op(inputs, threads), threads, firsts, tally)
    if len(firsts) < 2:
        tally.problems.append("no operation succeeded at some thread count")
        return
    try:
        problems = wl.verify(inputs, firsts)
    except Exception as err:  # a crash in a check is a failed check
        problems = [f"verify raised {err!r}"]
    if problems:
        tally.fail_all(problems)


def timed_run(wl, inputs, seconds, tally):
    """Closed loop: one operation at a time at threads=1, started until
    ``seconds`` have passed; one threads=2 operation follows for the checks."""
    wl.warm_up(inputs)
    times = []
    rss = []
    firsts = {}
    deadline = time.perf_counter() + seconds
    while tally.attempted < 2 or time.perf_counter() < deadline:
        tally.attempted += 1
        result = wl.op(inputs, 1)
        if record(result, 1, firsts, tally):
            times.append(result.seconds)
            if result.rss_mb is not None:
                rss.append(result.rss_mb)
    verify(wl, inputs, firsts, tally)
    if not times:
        return None
    tail_value, percentile = tail(times)
    self_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    print(f"samples: {len(times)}, seconds " + " ".join(f"{v:.3f}" for v in times))
    print(f"wall_tail_s is p{percentile:.0f} of {len(times)} samples")
    return {
        "wall_s": statistics.median(times),
        "wall_tail_s": tail_value,
        "peak_rss_mb": statistics.median(rss) if rss else self_rss,
    }


def traced_run(wl, inputs, seconds, tally, tracer):
    """Per iteration: the untraced operation (threads=1), the untraced and
    the traced mirror of it, then the traced replays."""
    from spans import NullTracer

    e2e, untraced, traced, layers = [], [], [], []
    counters = None
    firsts = {}
    wl.warm_up(inputs)
    deadline = time.perf_counter() + seconds
    while tracer.run_id == 0 or time.perf_counter() < deadline:
        tracer.run_id += 1
        tally.attempted += 1
        try:
            result = wl.op(inputs, 1)
            if not record(result, 1, firsts, tally):
                continue
            counts = wl.op_counts(result)
            started = time.perf_counter()
            wl.mirror(inputs, NullTracer())
            untraced.append(time.perf_counter() - started)
            root = len(tracer.spans)
            with tracer.span("op"):
                counts.update(wl.mirror(inputs, tracer))
            with tracer.span("replay"):
                counts.update(wl.replay(inputs, tracer))
        except Exception as err:  # one failed iteration must not end the run
            tally.fail(f"iteration {tracer.run_id}: {err!r}")
            continue
        traced.append(tracer.spans[root].seconds)
        layers.append(sum(s.seconds for s in tracer.children(root)) + sum(
            s.seconds for s in tracer.spans
            if s.name == "cli.import" and s.run_id == tracer.run_id
        ))
        e2e.append(result.seconds if wl.child_process else untraced[-1])
        if counters is None:
            counters = counts
        elif counts != counters:
            tally.fail(f"iteration {tracer.run_id}: counters {counts} != {counters}")
    verify(wl, inputs, firsts, tally)
    if counters is None:
        return None

    metrics = {name: tracer.median_seconds(span) for name, span in LAYER_SPANS.items()}
    metrics.update({name: counters.get(name, 0) for name in COUNTERS})
    ingest = metrics["io.ingest_s"]
    metrics["io.ingest_mb_per_s"] = inputs.csv_bytes / 1e6 / ingest if ingest else 0.0
    one, two = metrics["screening.screen_all_s"], metrics["screening.screen_all_2t_s"]
    metrics["screening.per_col_us"] = 1e6 * one / metrics["screening.cols"]
    metrics["screening.parallel_eff"] = one / (2 * two)
    selected = metrics["fdr.selected"]
    metrics["fdr.precision"] = metrics["fdr.true_pos"] / selected if selected else 0.0
    median = statistics.median
    metrics["trace.overhead_s"] = median(traced) - median(untraced)
    metrics["trace.untraced_s"] = median(e2e) - median(layers)
    return metrics


def check_counters_repeat(name, seed, metrics, tally):
    """Counters of one seed must repeat exactly across runs in this checkout."""
    path = OUT / f"counters-{name}-seed{seed}.json"
    current = {key: metrics[key] for key in COUNTERS}
    if path.exists():
        earlier = json.loads(path.read_text())
        if earlier != current:
            tally.fail_all([f"counters {current} differ from an earlier run's "
                            f"{earlier}"])
    else:
        path.write_text(json.dumps(current, sort_keys=True))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    import_package()
    import workloads
    from spans import Tracer

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload; choose from {sorted(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[args.workload]
    workdir = OUT / f"work-{wl.name}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    tally = Tally()
    tracer = Tracer()
    try:
        setup_times = []
        inputs = None
        for _ in range(1 if args.trace else SETUP_REPEATS):
            inputs = None  # release the previous copy before timing the next
            started = time.perf_counter()
            inputs = wl.setup(args.seed, workdir)
            setup_times.append(time.perf_counter() - started)
        input_mb = inputs.data.x.nbytes / 1e6
        if args.trace:
            measured = traced_run(wl, inputs, args.seconds, tally, tracer)
        else:
            measured = timed_run(wl, inputs, args.seconds, tally)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print("env:", json.dumps(environment(input_mb), sort_keys=True))
    print(f"workload: {wl.name}: {wl.why}")
    print(f"  stresses: {', '.join(wl.stresses)}; bypasses: {', '.join(wl.bypasses)}")
    if args.trace:
        tracer.write(OUT / f"trace-{wl.name}-seed{args.seed}.json")
        for name, row in sorted(tracer.summary().items()):
            print(f"span {name:26s} calls={row['calls']:3d} "
                  f"median={row['median_s']:.6f}s self={row['median_self_s']:.6f}s")
        if measured is not None:
            check_counters_repeat(wl.name, args.seed, measured, tally)
        units = PER_LAYER
    else:
        if measured is not None:
            measured["setup_s"] = statistics.median(setup_times)
        units = END_TO_END
    for problem in tally.problems:
        print(f"FAILED: {problem}")
    print(f"fail_ratio: {tally.failed}/{tally.attempted}")
    measured = measured or {}
    metrics = {
        name: {"value": float(measured.get(name, 0.0)), "unit": unit}
        for name, unit in units.items()
    }
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    correct = not tally.problems and bool(measured)
    attempted = max(tally.attempted, 1)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": tally.failed if correct else max(tally.failed, 1),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
