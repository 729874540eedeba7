#!/usr/bin/env python3
"""In-process ``screen_all`` timings of the untrimmed, trimmed and tied paths.

Five workloads, each timed at one and at two threads (c = 32):

- ``wide_gaussian``: a 1024x5000 Gaussian design, nothing trimmed, no
  ties: the float path alone, which a change to the tied or integer paths
  must leave where it was;
- ``trimmed_gaussian``: a 1000x5000 Gaussian design, 8 rows trimmed per
  column, no ties;
- ``genotypes``: a 1000x1000 design of {0, 1, 2} genotypes, every column
  tied and trimmed, with a tied response (the plug-in calibration);
- ``counts``: the same with Poisson(300) counts in place of genotypes, an
  integer design too wide for int8;
- ``mixed_genotypes``: the genotypes plus one Gaussian column, a float
  design whose integer columns take the float sort.

Every measurement is one child process: it makes the data from --seed,
screens once to warm up, then times --calls calls, and records the minor
page faults of each call (``getrusage(RUSAGE_SELF).ru_minflt``) beside its
time.  With --baseline, the child imports the package of a second
checkout's src/ directory under its own name as well, and alternates the
two within the child: call i of one tree runs next to call i of the other,
which goes first on even calls and second on odd ones.  So both trees see
the same machine load, and each pair gives one ratio, change over
baseline.  The child also compares the two trees' omega, z, p-value and
order bytes from their warm-up screens; the record holds ``same_bits``
for each workload and thread count (it reports, and asserts nothing, so a
change that alters bits on purpose is timed all the same).  A child
loads and sets up its trees in turn, and the heap each one's calls meet
depends on that turn, so the order is swapped every round (an even
--rounds gives each tree each place equally often) and recorded in the
output's settings.  The children of all configurations alternate,
--rounds times over.  The medians and interquartile ranges of
the pooled calls and faults, each round's median, the paired ratios and
the machine (nproc, CPU model, load average, numpy version) go to
--output as JSON, keyed by tree; each line printed for the change also
shows its median paired ratio, in how many pairs it was faster and
whether its bits matched.

    python3 scripts/bench_screen.py --rounds 4 --calls 5 --output BENCH_screen.json
"""

import argparse
import importlib.util
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
WORKLOADS = ("wide_gaussian", "trimmed_gaussian", "genotypes", "counts", "mixed_genotypes")
THREADS = (1, 2)


def load_package(src, alias):
    """The sitscreen package under ``src``, imported under the name ``alias``."""
    root = Path(src) / "sitscreen"
    spec = importlib.util.spec_from_file_location(
        alias, root / "__init__.py", submodule_search_locations=[str(root)]
    )
    package = importlib.util.module_from_spec(spec)
    sys.modules[alias] = package
    spec.loader.exec_module(package)
    return package


def make_data(package, workload, seed):
    import numpy as np

    rng = np.random.default_rng(seed)
    if workload.endswith("_gaussian"):
        n = 1024 if workload == "wide_gaussian" else 1000
        x = rng.standard_normal((n, 5000))
        return package.Dataset(x, x[:, :10].sum(axis=1) + rng.standard_normal(n))
    if workload == "counts":
        x = rng.poisson(300, (1000, 1000)).astype(float)
    else:
        x = rng.binomial(2, rng.uniform(0.05, 0.5, 1000), (1000, 1000)).astype(float)
    y = np.rint(x[:, :20].sum(axis=1) + rng.standard_normal(1000))
    if workload == "mixed_genotypes":
        x = np.column_stack([x, rng.standard_normal(1000)])
    return package.Dataset(x, y)


def child(srcs, workload, threads, calls, seed):
    """Time ``calls`` screens of each tree in this process, the trees loaded
    and set up in the order of ``srcs`` and then taking turns; print each
    tree's seconds and minor faults per call as JSON, in that order, and
    whether every tree's warm-up screen gave the same bytes."""
    packages = [load_package(src, f"sitscreen_tree{i}") for i, src in enumerate(srcs)]
    runs, warm = [], set()
    for package in packages:
        data = make_data(package, workload, seed)
        config = package.SliceConfig(c=32, tie_seed=seed)
        result = package.screen_all(data, config, threads=threads)
        warm.add(b"".join(a.tobytes() for a in
                          (result.omega, result.z, result.p_values, result.order)))
        runs.append((package.screen_all, data, config))
    times = [[] for _ in runs]
    faults = [[] for _ in runs]
    for call in range(calls):
        turn = range(len(runs)) if call % 2 == 0 else reversed(range(len(runs)))
        for i in turn:
            screen, data, config = runs[i]
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            started = time.perf_counter()
            screen(data, config, threads=threads)
            times[i].append(time.perf_counter() - started)
            faults[i].append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
    print(json.dumps({"times": times, "faults": faults, "same_bits": len(warm) == 1}))


def run_child(srcs, workload, threads, calls, seed):
    argv = [sys.executable, __file__, "--child", workload, str(threads),
            "--calls", str(calls), "--seed", str(seed), "--trees", *map(str, srcs)]
    done = subprocess.run(argv, capture_output=True, text=True, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def summary(values, unit="s"):
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {f"median_{unit}": median, f"q1_{unit}": q1, f"q3_{unit}": q3,
            f"iqr_{unit}": q3 - q1}


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
    parser.add_argument("--rounds", type=int, default=4)
    parser.add_argument("--calls", type=int, default=5)
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--baseline", type=Path, default=None,
                        help="src/ directory of a second checkout to time alternately")
    parser.add_argument("--output", type=Path, default=Path("BENCH_screen.json"))
    parser.add_argument("--child", nargs=2, metavar=("WORKLOAD", "THREADS"),
                        help=argparse.SUPPRESS)
    parser.add_argument("--trees", nargs="+", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.child:
        child(args.trees, args.child[0], int(args.child[1]), args.calls, args.seed)
        return

    trees = {"src": SRC} | ({"baseline": args.baseline} if args.baseline else {})
    load_before = list(os.getloadavg())
    keys = [(w, t) for w in WORKLOADS for t in THREADS]
    times = {(tree, *key): [] for tree in trees for key in keys}
    faults = {key: [] for key in times}
    rounds = {key: [] for key in times}
    same_bits = dict.fromkeys(keys, True)
    orders = []
    for round_index in range(args.rounds):
        order = list(trees) if round_index % 2 == 0 else list(trees)[::-1]
        orders.append(order)
        for workload, threads in keys:
            srcs = [trees[tree] for tree in order]
            got = run_child(srcs, workload, threads, args.calls, args.seed)
            same_bits[workload, threads] &= got["same_bits"]
            for tree, tree_times, tree_faults in zip(order, got["times"], got["faults"]):
                times[tree, workload, threads] += tree_times
                faults[tree, workload, threads] += tree_faults
                rounds[tree, workload, threads].append(statistics.median(tree_times))
    results = {tree: {w: {} for w in WORKLOADS} for tree in trees}
    for (tree, workload, threads), pooled in times.items():
        row = summary(pooled) | summary(faults[tree, workload, threads], "faults")
        row["round_medians_s"] = rounds[tree, workload, threads]
        if tree == "src" and args.baseline:
            ratios = [a / b for a, b in zip(pooled, times["baseline", workload, threads])]
            row["paired_ratio"] = summary(ratios, "ratio")
            row["paired_wins"] = sum(r < 1 for r in ratios)
            row["pairs"] = len(ratios)
            row["same_bits"] = same_bits[workload, threads]
        results[tree][workload][str(threads)] = row
        paired = (f" ratio={row['paired_ratio']['median_ratio']:.3f}"
                  f" wins={row['paired_wins']}/{row['pairs']}"
                  f" same_bits={row['same_bits']}" if "pairs" in row else "")
        print(f"{tree:8s} {workload:16s} threads={threads} "
              f"median={row['median_s']:.4f}s iqr={row['iqr_s']:.4f}s "
              f"faults={row['median_faults']:g}{paired}")
    record = {
        "machine": machine() | {"load_average_before": load_before},
        "settings": {"rounds": args.rounds, "calls": args.calls, "seed": args.seed,
                     "trees": list(trees), "load_order_per_round": orders},
        "results": results,
    }
    args.output.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(f"wrote {args.output}")


if __name__ == "__main__":
    main()
