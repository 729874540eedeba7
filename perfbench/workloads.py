"""The benchmark's workloads.

Each workload makes its inputs from the seed (``setup``), times one
operation at a time (``op``: a ``screen_all`` call, or one CLI child
process), and checks the outputs (``verify``).  For the traced run it also
repeats the operation as a chain of calls into the package's layers
(``mirror``) and replays, from outside, the work that ``screen_all`` does
inside (``replay``).  Spans come only from this file: the package itself
is not instrumented.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from sitscreen.estimator import (
    PairedSample,
    SliceConfig,
    VarianceCalibration,
    auto_calibration,
    rank_counts,
    sliced_estimate,
)
from sitscreen.fdr import FdrConfig, by_threshold
from sitscreen.io import ingest_csv
from sitscreen.oracle import oracle_estimate
from sitscreen.reports import (
    dump_json,
    plot_data_lines,
    replication_csv_rows,
    screen_report,
    simulation_report_dict,
)
from sitscreen.screening import Dataset, screen_all
from sitscreen.seeding import derive_seed, rng_from_seed
from sitscreen.simlab import (
    DesignSpec,
    ModelSpec,
    ThresholdRule,
    aggregate,
    generate_design,
    generate_response,
    run_replication,
)

C, Q = 32, 0.1
ACTIVE = frozenset(range(20))
# Fixed sample of columns checked against the brute-force oracle: active
# columns, the first inactive one, and a spread of the rest (every workload
# has at least 1000 columns).
ORACLE_COLUMNS = (0, 7, 19, 20, 333, 500, 777, 999)
THREAD_CHECK_COLUMNS = 1000
CHILD_TIMEOUT_S = 150


@dataclass
class OpResult:
    seconds: float
    output: bytes = b""  # must repeat bit for bit across operations
    value: object = None  # what ``verify`` inspects
    rss_mb: float | None = None  # child's peak RSS; None for in-process ops
    error: str | None = None


def run_child(argv, workdir: Path, threads: int):
    """Run one child with SIT_SCREEN_THREADS pinned; (seconds, rss_mb, error)."""
    env = dict(os.environ, SIT_SCREEN_THREADS=str(threads))
    err_path = workdir / "child.err"
    with open(err_path, "w", encoding="utf-8") as err:
        started = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, stdout=subprocess.DEVNULL, stderr=err)
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        seconds = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    rss_mb = usage.ru_maxrss * 1024 / 1e6
    if proc.returncode != 0:
        tail = err_path.read_text(encoding="utf-8")[-400:]
        return seconds, rss_mb, f"exit {proc.returncode}: {tail}"
    return seconds, rss_mb, None


def probe_import(tracer, workdir: Path) -> None:
    """Time a child that only imports the CLI module."""
    with tracer.span("cli.import"):
        argv = [sys.executable, "-c", "import sitscreen.cli"]
        _, _, error = run_child(argv, workdir, 1)
    if error:
        raise RuntimeError(f"import sitscreen.cli failed: {error}")


def cli_argv(*args) -> list[str]:
    return [sys.executable, "-m", "sitscreen.cli", *map(str, args)]


def canonical_report(path: Path) -> dict:
    doc = json.loads(path.read_text(encoding="utf-8"))
    doc.pop("timing")
    return doc


def dumps(doc: dict) -> bytes:
    return json.dumps(doc, indent=2, sort_keys=True).encode()


def same_bits(a, b) -> bool:
    return np.array_equal(
        np.asarray(a, dtype=np.float64).view(np.uint64),
        np.asarray(b, dtype=np.float64).view(np.uint64),
    )


def gaussian_xy(rng, n: int, p: int):
    """n x p standard normal; y = 2 * (sum of the first 20 columns) + N(0, 1)."""
    x = rng.standard_normal((n, p))
    y = 2.0 * x[:, :20].sum(axis=1) + rng.standard_normal(n)
    return x, y


def reference_failures(inputs, omega) -> list[str]:
    """omega must equal the brute-force oracle on a fixed sample of columns,
    and the single-pair ``sliced_estimate`` on every k-th column (about
    1000 of them), bit for bit."""
    x, y = inputs.data.x, inputs.data.y
    p = x.shape[1]
    problems = []

    def config(k):
        return SliceConfig(c=C, tie_seed=derive_seed(inputs.config.tie_seed, k))

    for k in ORACLE_COLUMNS:
        expected = oracle_estimate(PairedSample(x[:, k], y), config(k))
        if not same_bits(omega[k], expected):
            problems.append(
                f"column {k}: omega {float(omega[k])!r} != oracle {expected!r}"
            )
    calibration = VarianceCalibration.fixed()  # omega does not depend on it
    for k in range(0, p, max(1, p // 1000)):
        pair = PairedSample(x[:, k], y)
        expected = sliced_estimate(pair, config(k), calibration).omega_hat
        if not same_bits(omega[k], expected):
            problems.append(
                f"column {k}: omega {float(omega[k])!r} != sliced_estimate {expected!r}"
            )
    return problems


def selection_failures(omega, selected, threshold) -> list[str]:
    """The selected set must be exactly {k : omega_k >= realized threshold}."""
    threshold = np.inf if threshold is None else threshold
    expected = np.flatnonzero(np.asarray(omega) >= threshold)
    if not np.array_equal(np.sort(np.asarray(selected, dtype=np.intp)), expected):
        return [f"selection differs from {{k : omega_k >= {threshold!r}}}"]
    return []


def selection_counts(selected) -> dict:
    chosen = {int(k) for k in selected}
    return {"fdr.selected": len(chosen), "fdr.true_pos": len(chosen & ACTIVE)}


def data_counts(x, c: int = C) -> dict:
    """Computed (not measured) counts describing a screening input."""
    n, p = x.shape
    tied = (np.diff(np.sort(x, axis=0), axis=0) == 0).any(axis=0)
    return {
        "screening.cols": p,
        "screening.cols_x_ties": int(np.count_nonzero(tied)),
        "screening.trimmed_obs": p * (n % c),
        "screening.input_mb": x.nbytes / 1e6,
    }


def thresholds(tracer, result, adjustments):
    """Run by_threshold once per adjustment; returns the first decision."""
    decisions = []
    for adjustment in adjustments:
        with tracer.span("fdr.threshold"):
            decisions.append(
                by_threshold(result, FdrConfig(q=Q, adjustment=adjustment))
            )
    return decisions[0]


def screen_op(inputs, threads: int) -> OpResult:
    """One in-process screen_all call on the workload's in-memory data."""
    started = time.perf_counter()
    result = screen_all(inputs.data, inputs.config, threads=threads)
    seconds = time.perf_counter() - started
    return OpResult(seconds, result.omega.tobytes(), result)


def replay_screening(tracer, data: Dataset, config: SliceConfig, calibration) -> dict:
    """The same screen at two threads, then screen_all's per-column seeding
    and rank counting replayed from outside."""
    n, p = data.x.shape
    n_eff = n - n % config.c
    with tracer.span("screening.screen_all_2t"):
        screen_all(data, config, calibration=calibration, threads=2)
    with tracer.span("seeding.derive"):
        seeds = [derive_seed(config.tie_seed, k) for k in range(p)]
    drops = []
    with tracer.span("seeding.rng"):
        for seed in seeds:
            rng = rng_from_seed(seed)
            if n_eff != n:
                drops.append(rng.choice(n, size=n - n_eff, replace=False))
            rng.random(n_eff)
    # Without trimming screen_all counts ranks once; with it, once per
    # column on that column's kept rows.
    with tracer.span("estimator.rank_counts"):
        if drops:
            rows = np.arange(n)
            for drop in drops:
                rank_counts(data.y[np.setdiff1d(rows, drop)])
        else:
            rank_counts(data.y)
    return {
        "estimator.calibration_plugin": int(calibration.mode == "plugin"),
        **data_counts(data.x, config.c),
    }


@dataclass
class Inputs:
    """What set-up generates from the seed."""

    data: Dataset  # the matrix and response of the in-process screen
    config: SliceConfig  # its slicing and master seed
    master: int  # the --seed of a CLI child
    workdir: Path
    csv: Path | None = None
    csv_bytes: int = 0


class Workload:
    name = ""
    why = ""
    stresses: tuple[str, ...] = ()
    bypasses: tuple[str, ...] = ()
    child_process = False  # the timed threads=1 operation is a CLI child

    def setup(self, seed: int, workdir: Path):
        raise NotImplementedError

    def warm_up(self, inputs) -> None:
        """Run the in-process screen on a few columns so lazy set-up is done."""
        small = Dataset(x=inputs.data.x[:, :64], y=inputs.data.y)
        for threads in (1, 2):
            screen_all(small, inputs.config, threads=threads)

    def op(self, inputs, threads: int) -> OpResult:
        return screen_op(inputs, threads)

    def op_counts(self, result: OpResult) -> dict:
        return {}

    def verify(self, inputs, firsts: dict) -> list[str]:
        """Check the first output of each thread count ({1: ..., 2: ...})."""
        raise NotImplementedError

    def mirror(self, inputs, tracer) -> dict:
        raise NotImplementedError

    def replay(self, inputs, tracer) -> dict:
        raise NotImplementedError


class _Library(Workload):
    """In-process screen_all on an in-memory matrix, at one and two threads."""

    def make_xy(self, rng):
        raise NotImplementedError

    def setup(self, seed, workdir):
        x, y = self.make_xy(np.random.default_rng(seed))
        return Inputs(Dataset(x=x, y=y), SliceConfig(c=C, tie_seed=seed), seed, workdir)

    def op(self, inputs, threads):
        if threads == 1:
            return screen_op(inputs, threads)
        # The threads=2 operation only feeds the thread-count check, so it
        # screens the first columns; column k is seeded by hash(master, k)
        # whatever the column count.
        head = Dataset(x=inputs.data.x[:, :THREAD_CHECK_COLUMNS], y=inputs.data.y)
        return screen_op(replace(inputs, data=head), threads)

    def verify(self, inputs, firsts):
        one, two = firsts[1].value, firsts[2].value
        problems = reference_failures(inputs, one.omega)
        if not same_bits(one.omega[:THREAD_CHECK_COLUMNS], two.omega):
            problems.append("omega at threads=2 differs from threads=1")
        decision = by_threshold(one, FdrConfig(q=Q))
        return problems + selection_failures(
            one.omega, decision.selected, decision.realized_threshold
        )

    def mirror(self, inputs, tracer):
        with tracer.span("estimator.calibrate"):
            calibration = auto_calibration(inputs.data.y)
        with tracer.span("screening.screen_all"):
            result = screen_all(
                inputs.data, inputs.config, calibration=calibration, threads=1
            )
        decision = thresholds(tracer, result, ("by", "bh"))
        return selection_counts(decision.selected)

    def replay(self, inputs, tracer):
        calibration = auto_calibration(inputs.data.y)
        return replay_screening(tracer, inputs.data, inputs.config, calibration)


class ScreenWide(_Library):
    name = "screen_wide"
    why = (
        "README headline: in-process screen_all, 1024x5000 Gaussian, c=32, no trim, "
        "no ties. Stresses seeding, screening, estimator; bypasses cli, io, reports, "
        "simlab"
    )
    stresses = ("seeding", "screening", "estimator")
    bypasses = ("cli", "io", "reports", "simlab")

    def make_xy(self, rng):
        return gaussian_xy(rng, 1024, 5000)


class ScreenSnpTrim(_Library):
    name = "screen_snp_trim"
    why = (
        "screen_all on 1000x1000 genotypes {0,1,2}: every column tied, 8 rows "
        "trimmed each, plugin calibration. Stresses the trim path; a tie-free fast "
        "path must not move it"
    )
    stresses = ("screening trim path", "estimator plugin calibration", "seeding")
    bypasses = ("cli", "io", "reports", "simlab", "tie-free path")

    def make_xy(self, rng):
        n, p = 1000, 1000
        maf = rng.uniform(0.05, 0.5, size=p)
        x = rng.binomial(2, maf, size=(n, p)).astype(np.float64)
        y = np.rint(x[:, :20].sum(axis=1) + rng.standard_normal(n))
        return x, y


class _Cli(Workload):
    """One CLI child per operation at threads=1; the threads=2 operation is
    the command's screen_all call on the same data, in process."""

    child_process = True

    def child_args(self, inputs) -> tuple:
        raise NotImplementedError

    def read_outputs(self, inputs):
        """(bytes that must repeat, value for verify) from the child's files."""
        raise NotImplementedError

    def op(self, inputs, threads):
        if threads != 1:
            return screen_op(inputs, threads)
        argv = cli_argv(*self.child_args(inputs), "--seed", inputs.master)
        seconds, rss_mb, error = run_child(argv, inputs.workdir, threads)
        if error:
            return OpResult(seconds, rss_mb=rss_mb, error=error)
        output, value = self.read_outputs(inputs)
        return OpResult(seconds, output, value, rss_mb)

    def op_counts(self, result):
        return {"reports.json_bytes": len(dumps(result.value[0]))}

    def replay(self, inputs, tracer):
        probe_import(tracer, inputs.workdir)
        return replay_screening(
            tracer, inputs.data, inputs.config, auto_calibration(inputs.data.y)
        )


class ScreenCsv(_Cli):
    name = "cli_screen_csv"
    why = (
        "sitscreen screen child on a 20 MB CSV (1024x1000 Gaussian): what a CLI user "
        "pays. Stresses cli import, io, reports; a kernel-only change should move it "
        "little"
    )
    stresses = ("cli import", "io", "reports")
    bypasses = ("simlab", "trim path")

    def setup(self, seed, workdir):
        x, y = gaussian_xy(np.random.default_rng(seed), 1024, 1000)
        path = workdir / "screen.csv"
        header = ",".join(["y"] + [f"x{k}" for k in range(x.shape[1])])
        np.savetxt(path, np.column_stack([y, x]), fmt="%.17g", delimiter=",",
                   header=header, comments="")
        return Inputs(Dataset(x=x, y=y), SliceConfig(c=C, tie_seed=seed), seed,
                      workdir, path, path.stat().st_size)

    def warm_up(self, inputs):
        super().warm_up(inputs)
        # Flush the freshly written CSV so its write-back does not run
        # during the first timed operation.
        with open(inputs.csv, "rb+") as fh:
            os.fsync(fh.fileno())

    def child_args(self, inputs):
        return ("screen", "--input", inputs.csv, "--response", "y", "--rule", "by",
                "--q", Q, "--output", inputs.workdir / "report.json",
                "--plot-data", inputs.workdir / "plot.csv")

    def read_outputs(self, inputs):
        doc = canonical_report(inputs.workdir / "report.json")
        plot = (inputs.workdir / "plot.csv").read_bytes()
        return dumps(doc) + plot, (doc,)

    def verify(self, inputs, firsts):
        (doc,), reference = firsts[1].value, firsts[2].value
        omega = np.empty(inputs.data.p)
        selected = []
        for record in doc["covariates"]:
            omega[record["index"]] = record["omega"]
            if record["selected"]:
                selected.append(record["index"])
        problems = reference_failures(inputs, reference.omega)
        if not same_bits(omega, reference.omega):
            problems.append("report omega differs from in-process screen_all")
        return problems + selection_failures(
            omega, selected, doc["threshold"]["realized_threshold"]
        )

    def mirror(self, inputs, tracer):
        """cmd_screen as a chain of layer calls."""
        with tracer.span("io.ingest"):
            data = ingest_csv(str(inputs.csv), "y")
        with tracer.span("estimator.calibrate"):
            calibration = auto_calibration(data.y)
        with tracer.span("screening.screen_all"):
            result = screen_all(data, inputs.config, calibration=calibration, threads=1)
        decision = thresholds(tracer, result, ("by",))
        effective = {"input": str(inputs.csv), "response": "y", "rule": "by",
                     "q": Q, "seed": inputs.master}
        with tracer.span("reports.build"):
            report = screen_report(
                result, decision, decision.selected, data.names, effective,
                timing_seconds=0.0,
            )
        with tracer.span("reports.dump"):
            dump_json(report, str(inputs.workdir / "mirror.json"))
        with tracer.span("reports.plot"):
            lines = plot_data_lines(
                result, decision.selected, data.names, decision.realized_threshold
            )
            with open(inputs.workdir / "mirror.csv", "w", encoding="utf-8") as fh:
                fh.write("\n".join(lines) + "\n")
        return {"io.cells": data.x.size + data.y.size,
                **selection_counts(decision.selected)}


class SimulateStudy3(_Cli):
    name = "simulate_study3"
    why = (
        "sitscreen simulate --study 3 --model c1 --reps 1 child: the only simlab "
        "workload, a fresh AR(1) 1024x5000 design. Stresses simlab, cli import, "
        "screening; bypasses io"
    )
    stresses = ("cli import", "simlab", "seeding", "screening")
    bypasses = ("io", "trim path")
    REPS = 1

    @staticmethod
    def spec(master: int):
        """The study the CLI runs: preset 3, model c1, by and bh at q=0.1."""
        design = DesignSpec(n=1024, p=5000, rho=0.5, seed=derive_seed(master, 0))
        rules = [ThresholdRule(kind=kind, q=Q) for kind in ("by", "bh")]
        return design, ModelSpec(id="c1"), rules

    def setup(self, seed, workdir):
        # The CLI draws its own designs from --seed.  Set-up draws one design
        # and response of the same study for the in-process screen, seeded
        # the way run_replication seeds replication 0.
        design, model, _ = self.spec(seed)
        spec = DesignSpec(n=design.n, p=design.p, rho=design.rho,
                          seed=derive_seed(seed, 0, 0))
        x = generate_design(spec)
        y = generate_response(x, model, derive_seed(seed, 0, 1))
        config = SliceConfig(c=C, tie_seed=derive_seed(seed, 0, 2))
        return Inputs(Dataset(x=x, y=y), config, seed, workdir)

    def child_args(self, inputs):
        return ("simulate", "--study", "3", "--model", "c1", "--rule", "by",
                "--rule", "bh", "--reps", self.REPS,
                "--output", inputs.workdir / "report.json",
                "--per-rep", inputs.workdir / "per_rep.csv")

    def read_outputs(self, inputs):
        doc = canonical_report(inputs.workdir / "report.json")
        per_rep = (inputs.workdir / "per_rep.csv").read_bytes()
        return dumps(doc) + per_rep, (doc, per_rep.decode().splitlines()[1:])

    def verify(self, inputs, firsts):
        (doc, rows), screened = firsts[1].value, firsts[2].value
        problems = reference_failures(inputs, screened.omega)
        design, model, rules = self.spec(inputs.master)
        reference = run_replication(design, model, C, rules, 0, inputs.master,
                                    threads=2)
        expected = replication_csv_rows(reference)
        if rows[: len(expected)] != expected:
            problems.append(f"replication 0 rows {rows[:len(expected)]} != {expected}")
        # The per-rule means in the report must fold the per-replication rows.
        for label, summary in doc["criteria"]["per_rule"].items():
            fields = [row.split(",") for row in rows if row.split(",")[1] == label]
            folded = {
                "ams": float(np.mean([int(f[2]) for f in fields])),
                "mean_fdp": float(np.mean([float(f[3]) for f in fields])),
                "p_all": float(np.mean([int(f[4]) for f in fields])),
            }
            for key, value in folded.items():
                if len(fields) != self.REPS or summary[key] != value:
                    problems.append(f"{label} {key} {summary[key]!r} != {value!r}")
        return problems

    def mirror(self, inputs, tracer):
        """cmd_simulate as a chain of layer calls."""
        design, model, rules = self.spec(inputs.master)
        outcomes = []
        for rep in range(self.REPS):
            with tracer.span("simlab.replication"):
                outcomes.append(run_replication(
                    design, model, C, rules, rep, inputs.master, threads=1
                ))
        with tracer.span("simlab.aggregate"):
            report = aggregate(outcomes, model, design, C, rules, inputs.master)
        effective = {"model": model.id, "reps": self.REPS, "seed": inputs.master}
        with tracer.span("reports.build"):
            payload = simulation_report_dict(report, effective, timing_seconds=0.0)
        with tracer.span("reports.dump"):
            dump_json(payload, str(inputs.workdir / "mirror.json"))
        counts = [selection_counts(o.selections[rules[0].label]) for o in outcomes]
        return {key: sum(c[key] for c in counts) for key in counts[0]}

    def replay(self, inputs, tracer):
        """One replication's design, response, screen and thresholds."""
        design, model, _ = self.spec(inputs.master)
        spec = DesignSpec(n=design.n, p=design.p, rho=design.rho,
                          seed=derive_seed(inputs.master, 0, 0))
        with tracer.span("simlab.design"):
            generate_design(spec)
        with tracer.span("simlab.response"):
            generate_response(inputs.data.x, model, derive_seed(inputs.master, 0, 1))
        with tracer.span("estimator.calibrate"):
            calibration = auto_calibration(inputs.data.y)
        with tracer.span("screening.screen_all"):
            result = screen_all(inputs.data, inputs.config, calibration=calibration,
                                threads=1)
        thresholds(tracer, result, ("by", "bh"))
        return super().replay(inputs, tracer)


WORKLOADS = {
    wl.name: wl for wl in (ScreenWide(), ScreenSnpTrim(), ScreenCsv(), SimulateStudy3())
}
