"""Acceptance suite.

One test per criterion, each printing a PASS/FAIL line (visible with
``pytest -s`` or in the captured-output section on failure).  Criteria 6-8
share the session-scoped study fixtures from conftest; everything else is
self-contained.  Tolerances are pinned here and nowhere else.
"""

import json
import math
import time

import numpy as np
from scipy.stats import kstest

from sitscreen import (
    Dataset,
    PairedSample,
    SliceConfig,
    VarianceCalibration,
    by_threshold,
    FdrConfig,
    screen_all,
    sliced_estimate,
)
from sitscreen.errors import DegenerateResponse
from sitscreen.estimator import p_value_from_z, plugin_calibration
from sitscreen.oracle import oracle_estimate, oracle_threshold
from sitscreen.cli import main as cli_main
from sitscreen.screening import ScreeningResult


def _criterion(number, description, passed, detail=""):
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {number:>2}: {status} - {description}" +
          (f" ({detail})" if detail else ""))
    assert passed, f"criterion {number}: {description}: {detail}"


def test_criterion_01_oracle_equivalence():
    started = time.perf_counter()
    rng = np.random.default_rng(list(b"criterion-1"))
    mismatches = 0
    checked = 0
    while checked < 500:
        c = int(rng.choice([2, 4, 8]))
        n = int(rng.integers(8, 129))
        if n < 2 * c:
            continue
        if rng.random() < 0.5:  # with ties
            x = rng.integers(-5, 6, n).astype(float)
            y = rng.integers(-5, 6, n).astype(float)
        else:  # without ties
            x = rng.standard_normal(n)
            y = rng.standard_normal(n)
        seed = int(rng.integers(0, 2**63))
        sample = PairedSample(x, y)
        config = SliceConfig(c=c, tie_seed=seed)
        try:
            fast = sliced_estimate(sample, config).omega_hat
        except DegenerateResponse:
            continue
        slow = oracle_estimate(sample, config)
        mismatches += fast != slow
        checked += 1
    elapsed = time.perf_counter() - started
    _criterion(
        1, "sliced_estimate equals oracle exactly on 500 instances",
        mismatches == 0 and elapsed < 60.0,
        f"{mismatches} mismatches, {elapsed:.1f}s",
    )


def test_criterion_02_hand_computed_values():
    first = sliced_estimate(
        PairedSample([1, 2, 3, 4], [1, 2, 3, 4]), SliceConfig(c=2)
    ).omega_hat
    second = sliced_estimate(
        PairedSample([1, 2, 3, 4], [1, 4, 2, 3]), SliceConfig(c=2)
    ).omega_hat
    _criterion(
        2, "worked examples reproduce exactly",
        first == 0.4 and second == -0.2,
        f"got {first!r} and {second!r}",
    )


def test_criterion_03_monotone_invariance():
    rng = np.random.default_rng(list(b"criterion-3"))
    failures = 0
    for i in range(100):
        c = int(rng.choice([2, 4, 8]))
        H = int(rng.integers(2, 9))
        n = H * c
        seed = int(rng.integers(0, 2**63))
        with_ties = rng.random() < 0.5
        if with_ties:
            x = rng.integers(-8, 9, n).astype(float)
            y = rng.integers(-8, 9, n).astype(float)
        else:
            x = rng.permutation(n).astype(float) - n / 2
            y = rng.permutation(n).astype(float) - n / 2

        def value(xv, yv):
            return sliced_estimate(
                PairedSample(xv, yv), SliceConfig(c=c, tie_seed=seed)
            ).omega_hat

        try:
            base = value(x, y)
        except DegenerateResponse:
            continue
        ok = (
            value(x**3, y) == base
            and value(3.0 * x + 5.0, y) == base
            and value(x, y**3) == base
            and value(x, 7.0 * y + 2.0) == base
        )
        if not with_ties:  # decreasing transforms need tie-free x and n = Hc
            ok = ok and value(-x, y) == base and value(-(x**3), y) == base
        failures += not ok
    _criterion(
        3, "statistic is bit-identical under monotone transforms",
        failures == 0, f"{failures} failing instances",
    )


def test_criterion_04_null_calibration():
    started = time.perf_counter()
    n, c, reps = 1024, 8, 2000
    rng = np.random.default_rng(list(b"criterion-4"))
    cal = VarianceCalibration.fixed()
    z_values = np.empty(reps)
    for i in range(reps):
        x = rng.standard_normal(n)
        y = rng.standard_normal(n)
        est = sliced_estimate(
            PairedSample(x, y), SliceConfig(c=c, tie_seed=i), calibration=cal
        )
        z_values[i] = est.z
    elapsed = time.perf_counter() - started
    mean = float(np.mean(z_values))
    var = float(np.var(z_values))
    ks = float(kstest(z_values, "norm").statistic)
    _criterion(
        4, "null z is standard normal (mean, variance, KS)",
        abs(mean) < 0.1 and abs(var - 1.0) < 0.15 and ks < 0.05
        and elapsed < 120.0,
        f"mean={mean:.4f} var={var:.4f} ks={ks:.4f} {elapsed:.0f}s",
    )


def test_criterion_05_sigma_constant():
    rng = np.random.default_rng(list(b"criterion-5"))
    y = rng.random(10_000)
    cal = plugin_calibration(y)
    _criterion(
        5, "plug-in calibration recovers sigma^2 = 4/5 and theta2 = 1/6",
        abs(cal.sigma_sq - 0.8) <= 0.05 and abs(cal.theta2 - 1 / 6) <= 0.01,
        f"sigma_sq={cal.sigma_sq:.4f} theta2={cal.theta2:.5f}",
    )


def test_criterion_06_study1_table(study1_reports):
    from conftest import STUDY_TIMINGS

    wide = study1_reports[32]
    narrow = study1_reports[2]
    elapsed = STUDY_TIMINGS["study1"]
    median_wide = wide.mms_quantiles["50"]
    median_narrow = narrow.mms_quantiles["50"]
    ok = (
        wide.p_a >= 0.98
        and median_wide == 4
        and 0.55 <= narrow.p_a <= 0.80
        and 10 <= median_narrow <= 25
        and elapsed < 600.0
    )
    _criterion(
        6, "study-1 model a1: slice size 32 vs 2",
        ok,
        f"P_a(32)={wide.p_a:.3f} medMMS(32)={median_wide} "
        f"P_a(2)={narrow.p_a:.3f} medMMS(2)={median_narrow} [{elapsed:.0f}s]",
    )


def test_criterion_07_study2_table(study2_b4_report):
    report = study2_b4_report
    median = report.mms_quantiles["50"]
    q95 = report.mms_quantiles["95"]
    _criterion(
        7, "study-2 model b4 at rho=0.8: median MMS 4, 95% quantile <= 8",
        median == 4 and q95 <= 8,
        f"median={median} q95={q95}",
    )


def test_criterion_08_study3_table(study3_c1_report):
    from conftest import STUDY_TIMINGS

    report = study3_c1_report
    by = report.per_rule["by(q=0.1)"]
    bh = report.per_rule["bh(q=0.1)"]
    elapsed = STUDY_TIMINGS["study3"]
    ok = (
        0.05 <= by.mean_fdp <= 0.19
        and 19.0 <= by.ams <= 28.0
        and bh.mean_fdp >= 0.30
        and elapsed < 1800.0
    )
    _criterion(
        8, "study-3 model c1: BY controls FDR, BH does not",
        ok,
        f"BY fdp={by.mean_fdp:.3f} ams={by.ams:.2f} "
        f"BH fdp={bh.mean_fdp:.3f} [{elapsed:.0f}s]",
    )


def test_criterion_08b_study3_smoke_runs_quickly():
    from sitscreen import DesignSpec, ModelSpec, ThresholdRule, run_study

    started = time.perf_counter()
    report = run_study(
        DesignSpec(n=1024, p=1000, rho=0.5),
        ModelSpec(id="c1", s=20),
        c=32,
        rules=[ThresholdRule(kind="by", q=0.1)],
        reps=100,
        master_seed=40404,
    )
    elapsed = time.perf_counter() - started
    by = report.per_rule["by(q=0.1)"]
    _criterion(
        8.5, "study-3 smoke variant (p=1000) finishes under 3 minutes",
        elapsed < 180.0 and by.mean_fdp <= 0.19,
        f"{elapsed:.0f}s, fdp={by.mean_fdp:.3f}",
    )


def _random_screening_result(rng, p):
    z = np.where(rng.random(p) < 0.25, rng.normal(4, 1, p), rng.standard_normal(p))
    if p >= 4 and rng.random() < 0.3:  # inject value ties
        z[1] = z[0]
    cal = VarianceCalibration.fixed()
    n_eff, c = 256, 8
    omega = z * cal.sigma / math.sqrt(n_eff * (c - 1))
    zz = math.sqrt(n_eff * (c - 1)) * omega / cal.sigma
    return ScreeningResult(
        omega=omega,
        z=zz,
        p_values=p_value_from_z(zz),
        order=np.lexsort((np.arange(p), -omega)),
        config=SliceConfig(c=c),
        n_effective=n_eff,
        calibration=cal,
    )


def test_criterion_09_threshold_oracle():
    rng = np.random.default_rng(list(b"criterion-9"))
    mismatches = 0
    property_failures = 0
    for i in range(200):
        p = int(rng.integers(1, 51))
        result = _random_screening_result(rng, p)
        q = float(rng.uniform(0.02, 0.4))
        for adjustment in ("by", "bh"):
            decision = by_threshold(result, FdrConfig(q=q, adjustment=adjustment))
            reference = oracle_threshold(result.omega, result.p_values, q, adjustment)
            mismatches += not np.array_equal(decision.selected, reference)
        q_hi = min(q * 2, 0.5)
        sel_lo = set(by_threshold(result, FdrConfig(q=q)).selected.tolist())
        sel_hi = set(by_threshold(result, FdrConfig(q=q_hi)).selected.tolist())
        sel_by = sel_lo
        sel_bh = set(
            by_threshold(result, FdrConfig(q=q, adjustment="bh")).selected.tolist()
        )
        property_failures += not (sel_lo <= sel_hi and sel_by <= sel_bh)
    _criterion(
        9, "step-up threshold equals brute-force scan; q-monotone; BY within BH",
        mismatches == 0 and property_failures == 0,
        f"{mismatches} mismatches, {property_failures} property failures",
    )


def test_criterion_10_performance(monkeypatch):
    monkeypatch.setenv("SIT_SCREEN_THREADS", "8")
    rng = np.random.default_rng(list(b"criterion-10"))
    n = 1024
    x_full = rng.standard_normal((n, 5000))
    y = rng.standard_normal(n)

    def run_once(p):
        data = Dataset(x_full[:, :p], y)
        started = time.perf_counter()
        screen_all(data, SliceConfig(c=32, tie_seed=1), threads=8)
        return time.perf_counter() - started

    full = min(run_once(5000) for _ in range(3))
    half = min(run_once(2500) for _ in range(3))
    ratio = full / half
    _criterion(
        10, "screening 1024 x 5000 under 30 s; doubling p at most ~doubles time",
        full < 30.0 and ratio <= 2.6,
        f"full={full:.2f}s half={half:.2f}s ratio={ratio:.2f}",
    )


def test_criterion_11_deterministic_reports(tmp_path, monkeypatch):
    rng = np.random.default_rng(list(b"criterion-11"))
    n, p = 128, 37  # 128 % 8 == 0 but 37 columns force uneven chunking
    x = rng.standard_normal((n, p))
    x[:, 5] = np.round(x[:, 5])  # tie-heavy column
    y = x[:, 0] + rng.standard_normal(n)
    lines = [",".join([f"x{j}" for j in range(p)] + ["y"])]
    for i in range(n):
        lines.append(",".join(repr(float(v)) for v in x[i]) + f",{float(y[i])!r}")
    csv_path = tmp_path / "det.csv"
    csv_path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    payloads = []
    for threads in ("1", "4", "8"):
        monkeypatch.setenv("SIT_SCREEN_THREADS", threads)
        out = tmp_path / f"report_{threads}.json"
        code = cli_main([
            "screen", "--input", str(csv_path), "--response", "y",
            "--c", "8", "--rule", "by", "--q", "0.2", "--seed", "21",
            "--output", str(out),
        ])
        assert code == 0
        with open(out, encoding="utf-8") as fh:
            report = json.load(fh)
        del report["timing"]
        payloads.append(json.dumps(report, sort_keys=True, indent=2).encode())
    _criterion(
        11, "identical seeds give byte-identical reports across 1/4/8 threads",
        payloads[0] == payloads[1] == payloads[2],
        f"sizes {len(payloads[0])}/{len(payloads[1])}/{len(payloads[2])}",
    )
