#!/usr/bin/env python3
"""In-process ``screen_all`` timings of the untrimmed, trimmed and tied paths.

Three workloads, each timed at one and at two threads (c = 32):

- ``wide_gaussian``: a 1024x5000 Gaussian design, nothing trimmed, no
  ties: the float path alone, which a change to the tied or integer paths
  must leave where it was;
- ``trimmed_gaussian``: a 1000x5000 Gaussian design, 8 rows trimmed per
  column, no ties;
- ``genotypes``: a 1000x1000 design of {0, 1, 2} genotypes, every column
  tied and trimmed, with a tied response (the plug-in calibration).

Every measurement is one child process: it makes the data from --seed,
screens once to warm up, then times --calls calls.  The children of all
configurations alternate, --rounds times over.  With --baseline, the src/
directory of a second checkout is timed too, each of its children next to
the matching child of this checkout, so the two can be compared pair by
pair.  The medians and interquartile ranges of the pooled calls, each
round's median and the machine (nproc, CPU model, load average, numpy
version) go to --output as JSON.

    python3 scripts/bench_screen.py --rounds 3 --calls 5 --output BENCH_screen.json
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
WORKLOADS = ("wide_gaussian", "trimmed_gaussian", "genotypes")
THREADS = (1, 2)


def make_data(workload, seed):
    import numpy as np

    from sitscreen import Dataset

    rng = np.random.default_rng(seed)
    if workload.endswith("_gaussian"):
        n = 1024 if workload == "wide_gaussian" else 1000
        x = rng.standard_normal((n, 5000))
        return Dataset(x, x[:, :10].sum(axis=1) + rng.standard_normal(n))
    x = rng.binomial(2, rng.uniform(0.05, 0.5, 1000), (1000, 1000)).astype(float)
    return Dataset(x, np.rint(x[:, :20].sum(axis=1) + rng.standard_normal(1000)))


def child(workload, threads, calls, seed):
    """Time ``calls`` screens in this process; print the seconds as JSON."""
    from sitscreen import SliceConfig, screen_all

    data, config = make_data(workload, seed), SliceConfig(c=32, tie_seed=seed)
    screen_all(data, config, threads=threads)
    times = []
    for _ in range(calls):
        started = time.perf_counter()
        screen_all(data, config, threads=threads)
        times.append(time.perf_counter() - started)
    print(json.dumps(times))


def run_child(src, workload, threads, calls, seed):
    env = dict(os.environ, PYTHONPATH=str(src))
    argv = [sys.executable, __file__, "--child", workload, str(threads),
            "--calls", str(calls), "--seed", str(seed)]
    done = subprocess.run(argv, env=env, capture_output=True, text=True, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def summary(times):
    q1, median, q3 = statistics.quantiles(times, n=4, method="inclusive")
    return {"median_s": median, "q1_s": q1, "q3_s": q3, "iqr_s": q3 - q1}


def machine():
    import numpy

    cpu = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "load_average": list(os.getloadavg()),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--rounds", type=int, default=3)
    parser.add_argument("--calls", type=int, default=5)
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--baseline", type=Path, default=None,
                        help="src/ directory of a second checkout to time alternately")
    parser.add_argument("--output", type=Path, default=Path("BENCH_screen.json"))
    parser.add_argument("--child", nargs=2, metavar=("WORKLOAD", "THREADS"),
                        help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.child:
        child(args.child[0], int(args.child[1]), args.calls, args.seed)
        return

    trees = {"src": SRC} | ({"baseline": args.baseline} if args.baseline else {})
    load_before = list(os.getloadavg())
    times = {(tree, w, t): [] for tree in trees for w in WORKLOADS for t in THREADS}
    rounds = {key: [] for key in times}
    for _ in range(args.rounds):
        for workload in WORKLOADS:
            for threads in THREADS:
                for tree, src in trees.items():
                    got = run_child(src, workload, threads, args.calls, args.seed)
                    times[tree, workload, threads] += got
                    rounds[tree, workload, threads].append(statistics.median(got))
    results = {tree: {w: {} for w in WORKLOADS} for tree in trees}
    for (tree, workload, threads), pooled in times.items():
        row = summary(pooled)
        row["round_medians_s"] = rounds[tree, workload, threads]
        results[tree][workload][str(threads)] = row
        print(f"{tree:8s} {workload:16s} threads={threads} "
              f"median={row['median_s']:.4f}s iqr={row['iqr_s']:.4f}s")
    record = {
        "machine": machine() | {"load_average_before": load_before},
        "settings": {"rounds": args.rounds, "calls": args.calls, "seed": args.seed,
                     "trees": list(trees)},
        "results": results,
    }
    args.output.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(f"wrote {args.output}")


if __name__ == "__main__":
    main()
