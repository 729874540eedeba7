import csv
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import sitscreen
from sitscreen import errors, estimator, screening, simlab
from sitscreen.cli import auto_slice_size, default_hard_size, main
from sitscreen.fdr import ThresholdRule, level_threshold_select
from sitscreen.reports import plot_data_lines


def write_csv(path, x, y, names=None):
    p = x.shape[1]
    names = names or [f"x{j}" for j in range(p)]
    lines = [",".join(names + ["y"])]
    for i in range(x.shape[0]):
        lines.append(",".join(repr(float(v)) for v in x[i]) + f",{float(y[i])!r}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


def signal_csv(tmp_path, seed=0, n=256, p=40, s=3, name="data.csv"):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, p))
    y = 2 * x[:, :s].sum(axis=1) + rng.standard_normal(n)
    return write_csv(tmp_path / name, x, y)


def run_cli(args):
    return main(args)


def load(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


class TestDefaults:
    def test_auto_slice_size(self):
        assert auto_slice_size(256) == 16
        assert auto_slice_size(1024) == 32
        assert auto_slice_size(120) == 8
        assert auto_slice_size(4) == 2

    def test_default_hard_size_natural_log(self):
        assert default_hard_size(256, 1000) == int(256 / np.log(256))  # 46
        assert default_hard_size(120, 1000) == 25
        assert default_hard_size(100, 10) == 10  # capped at p


class TestScreen:
    def test_report_structure(self, tmp_path):
        csv_path = signal_csv(tmp_path)
        out = tmp_path / "report.json"
        code = run_cli(["screen", "--input", csv_path, "--response", "y",
                        "--rule", "by", "--q", "0.1", "--seed", "5",
                        "--output", str(out)])
        assert code == 0
        report = load(out)
        assert report["schema_version"] == 2
        assert "standardize" not in report["config"]
        assert report["config"]["c"] == 16 and report["config"]["n"] == 256
        records = report["covariates"]
        assert [r["rank"] for r in records] == list(range(1, 41))
        threshold = report["threshold"]["realized_threshold"]
        for r in records:
            assert r["selected"] == (r["omega"] >= threshold)
        assert {r["name"] for r in records if r["selected"]} >= {"x0", "x1", "x2"}

    def test_hard_size_full_selection(self, tmp_path):
        csv_path = signal_csv(tmp_path)
        out = tmp_path / "report.json"
        code = run_cli(["screen", "--input", csv_path, "--response", "y",
                        "--rule", "hard-size", "--d", "40", "--output", str(out)])
        assert code == 0
        assert all(r["selected"] for r in load(out)["covariates"])

    def test_hard_level_rule(self, tmp_path):
        csv_path = signal_csv(tmp_path)
        out = tmp_path / "report.json"
        code = run_cli(["screen", "--input", csv_path, "--response", "y",
                        "--rule", "hard-level", "--level", "0.15",
                        "--output", str(out)])
        assert code == 0
        report = load(out)
        assert report["threshold"]["realized_threshold"] == 0.15
        for r in report["covariates"]:
            assert r["selected"] == (r["omega"] >= 0.15)
        # hard-level without --level is a config error
        assert run_cli(["screen", "--input", csv_path, "--response", "y",
                        "--rule", "hard-level"]) == 4

    @pytest.mark.parametrize("level", ["inf", "-inf"])
    def test_hard_level_infinite_is_config_error(self, tmp_path, capsys, level):
        csv_path = signal_csv(tmp_path)
        out = tmp_path / "report.json"
        code = run_cli(["screen", "--input", csv_path, "--response", "y",
                        "--rule", "hard-level", f"--level={level}",
                        "--output", str(out)])
        assert code == 4
        err = capsys.readouterr().err
        assert f"hard-level rule needs a finite level, got {level}" in err
        assert "JSON" not in err
        assert not out.exists()

    def test_hard_level_above_every_omega_selects_nothing(self, tmp_path):
        csv_path = signal_csv(tmp_path)
        out = tmp_path / "report.json"
        code = run_cli(["screen", "--input", csv_path, "--response", "y",
                        "--rule", "hard-level", "--level", "2",
                        "--output", str(out)])
        assert code == 0
        report = load(out)
        assert report["threshold"]["realized_threshold"] == 2.0
        assert not any(r["selected"] for r in report["covariates"])

    def test_plot_data_rows(self, tmp_path):
        csv_path = signal_csv(tmp_path)
        out = tmp_path / "report.json"
        plot = tmp_path / "plot.csv"
        run_cli(["screen", "--input", csv_path, "--response", "y",
                 "--output", str(out), "--plot-data", str(plot)])
        lines = plot.read_text().strip().split("\n")
        assert len(lines) == 40 + 1
        assert lines[-1].startswith("THRESHOLD,,")
        assert lines[0].split(",")[0] == "0"

    @pytest.mark.parametrize("select, row", [
        (lambda r: level_threshold_select(r, -np.inf), "THRESHOLD,,-inf,"),
        (lambda r: level_threshold_select(r, np.inf), "THRESHOLD,,inf,"),
        (lambda r: ThresholdRule(kind="by", q=1e-9).apply(r), "THRESHOLD,,inf,"),
    ])
    def test_plot_data_threshold_keeps_its_sign(self, select, row):
        rng = np.random.default_rng(5)
        data = screening.Dataset(rng.standard_normal((64, 6)), rng.standard_normal(64))
        result = screening.screen_all(data, estimator.SliceConfig(c=8))
        selection = select(result)
        lines = plot_data_lines(result, selection.selected, None,
                                selection.realized_threshold)
        assert lines[-1] == row

    def test_plot_data_omega_parses_to_the_report_value(self, tmp_path):
        out = tmp_path / "report.json"
        plot = tmp_path / "plot.csv"
        run_cli(["screen", "--input", signal_csv(tmp_path), "--response", "y",
                 "--output", str(out), "--plot-data", str(plot)])
        reported = {r["index"]: r["omega"] for r in load(out)["covariates"]}
        rows = [line.split(",") for line in plot.read_text().splitlines()[:-1]]
        parsed = {int(index): float(omega) for index, _, omega, _ in rows}
        assert parsed.keys() == reported.keys()
        for k, value in parsed.items():
            assert np.float64(value).view(np.uint64) == np.float64(reported[k]).view(np.uint64)
        table = np.genfromtxt(plot, delimiter=",", usecols=2)
        assert np.isfinite(table).all() and table.shape == (41,)

    def test_plot_data_quotes_names_as_csv(self, tmp_path):
        names = ["a,b", 'say "hi"', "two\nlines", "plain"]
        rng = np.random.default_rng(1)
        data = tmp_path / "data.csv"
        with open(data, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow([*names, "y"])
            writer.writerows(rng.standard_normal((64, 5)).tolist())
        plot = tmp_path / "plot.csv"
        assert run_cli(["screen", "--input", str(data), "--response", "y",
                        "--output", str(tmp_path / "r.json"),
                        "--plot-data", str(plot)]) == 0
        with open(plot, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert [len(row) for row in rows] == [4] * 5
        assert [row[1] for row in rows[:-1]] == names
        assert "plain," in plot.read_text()  # a plain name keeps its bytes

    def test_bad_plot_data_path_leaves_no_report(self, tmp_path):
        out = tmp_path / "r.json"
        code = run_cli(["screen", "--input", signal_csv(tmp_path), "--response", "y",
                        "--output", str(out), "--plot-data", str(tmp_path)])
        assert code == 2
        assert not out.exists()

    def test_bad_output_path_leaves_no_plot_data(self, tmp_path):
        plot = tmp_path / "plot.csv"
        code = run_cli(["screen", "--input", signal_csv(tmp_path), "--response", "y",
                        "--output", str(tmp_path), "--plot-data", str(plot)])
        assert code == 2
        assert not plot.exists()

    @pytest.mark.parametrize("absent_input, response", [(True, "y"), (False, "zz")])
    def test_input_mistake_keeps_existing_plot_data(self, tmp_path, absent_input,
                                                    response):
        plot = tmp_path / "plot.csv"
        plot.write_text("previous run\n")
        path = str(tmp_path / "absent.csv") if absent_input else signal_csv(tmp_path)
        code = run_cli(["screen", "--input", path, "--response", response,
                        "--plot-data", str(plot)])
        assert code == 2
        assert plot.read_text() == "previous run\n"

    @pytest.mark.parametrize("flags, echoed", [
        # d is the derived default floor(200 / ln 200) = 37, below p = 40
        (["--rule", "hard-size", "--level", "0.2"],
         {"d": 37, "q": None, "level": None}),
        (["--rule", "by", "--d", "5", "--level", "0.2"],
         {"d": None, "q": 0.1, "level": None}),
        (["--rule", "hard-level", "--level", "0.2", "--d", "5"],
         {"d": None, "q": None, "level": 0.2}),
    ])
    def test_report_echoes_the_rule_parameters_used(self, tmp_path, flags, echoed):
        out = tmp_path / "r.json"
        code = run_cli(["screen", "--input", signal_csv(tmp_path, n=200),
                        "--response", "y", *flags, "--output", str(out)])
        assert code == 0
        config = load(out)["config"]
        assert {key: config[key] for key in echoed} == echoed

    def test_auto_sigma_sorts_the_response_once(self, tmp_path, monkeypatch):
        # every --sigma reads the dataset's one level table, which
        # augment-check's noise-augmented dataset shares
        calls = []

        def counted(y, real=estimator.rank_counts):
            calls.append(len(y))
            return real(y)

        monkeypatch.setattr(estimator, "rank_counts", counted)
        monkeypatch.setattr(screening, "rank_counts", counted)
        rng = np.random.default_rng(6)
        x = rng.standard_normal((64, 3))
        tied = write_csv(tmp_path / "tied.csv", x, rng.integers(0, 3, 64))
        out = tmp_path / "r.json"
        for sigma, mode in [("auto", "plugin"), ("fixed", "fixed"), ("plugin", "plugin")]:
            for command in ("screen", "augment-check"):
                calls.clear()
                assert run_cli([command, "--input", tied, "--response", "y",
                                "--sigma", sigma, "--output", str(out)]) == 0
                report = load(out)
                report = report.get("augmented", report)
                assert report["calibration"]["mode"] == mode
                assert calls == [64], (command, sigma)

    def test_deterministic_across_thread_counts(self, tmp_path, monkeypatch):
        csv_path = signal_csv(tmp_path, seed=4, n=128, p=23)  # prime p, trim path
        payloads = []
        for threads in ("1", "4"):
            monkeypatch.setenv("SIT_SCREEN_THREADS", threads)
            out = tmp_path / f"report_{threads}.json"
            run_cli(["screen", "--input", csv_path, "--response", "y",
                     "--c", "8", "--seed", "7", "--output", str(out)])
            report = load(out)
            del report["timing"]
            payloads.append(json.dumps(report, sort_keys=True))
        assert payloads[0] == payloads[1]

    def test_by_rule_selects_active_in_most_seeds(self, tmp_path):
        hits = 0
        seeds = 20
        for seed in range(seeds):
            csv_path = signal_csv(tmp_path, seed=100 + seed, n=1024, p=100,
                                  name=f"d{seed}.csv")
            out = tmp_path / f"r{seed}.json"
            run_cli(["screen", "--input", csv_path, "--response", "y",
                     "--rule", "by", "--q", "0.1", "--c", "32",
                     "--seed", str(seed), "--output", str(out)])
            selected = {r["name"] for r in load(out)["covariates"] if r["selected"]}
            hits += {"x0", "x1", "x2"} <= selected
        assert hits >= 0.95 * seeds


class TestExitCodes:
    def test_missing_file(self, tmp_path, capsys):
        code = run_cli(["screen", "--input", str(tmp_path / "nope.csv"),
                        "--response", "y"])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_degenerate_response(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((32, 3))
        path = write_csv(tmp_path / "flat.csv", x, np.zeros(32))
        assert run_cli(["screen", "--input", path, "--response", "y"]) == 3
        assert capsys.readouterr().err == "error: response is constant\n"

    def test_bad_q(self, tmp_path):
        csv_path = signal_csv(tmp_path)
        code = run_cli(["screen", "--input", csv_path, "--response", "y",
                        "--rule", "by", "--q", "1.5"])
        assert code == 4

    def test_bad_flag_value(self, tmp_path, capsys):
        csv_path = signal_csv(tmp_path)
        code = run_cli(["screen", "--input", csv_path, "--response", "y",
                        "--c", "one"])
        assert code == 4
        assert "--c must be an integer or 'auto', got 'one'" in capsys.readouterr().err
        # covariates are screened as read, so --standardize is an unknown
        # flag, refused before an output file is opened
        out = tmp_path / "r.json"
        for command in ("screen", "augment-check"):
            code = run_cli([command, "--input", csv_path, "--response", "y",
                            "--standardize", "--output", str(out)])
            assert code == 4
            err = capsys.readouterr().err
            assert err.startswith("error: ") and "--standardize" in err
            assert not out.exists()

    def test_bad_thread_cap(self, tmp_path, monkeypatch, capsys):
        csv_path = signal_csv(tmp_path)
        monkeypatch.setenv("SIT_SCREEN_THREADS", "abc")
        code = run_cli(["screen", "--input", csv_path, "--response", "y"])
        assert code == 4
        err = capsys.readouterr().err
        assert "SIT_SCREEN_THREADS" in err and "'abc'" in err

    @pytest.mark.parametrize("cap", ["0", "-2"])
    def test_thread_cap_below_one(self, tmp_path, monkeypatch, capsys, cap):
        # refused before any screen, so no report is written
        csv_path = signal_csv(tmp_path)
        out = tmp_path / "report.json"
        monkeypatch.setenv("SIT_SCREEN_THREADS", cap)
        code = run_cli(["screen", "--input", csv_path, "--response", "y",
                        "--output", str(out)])
        assert code == 4
        assert capsys.readouterr().err == "error: SIT_SCREEN_THREADS must be at least 1\n"
        assert not out.exists()

    def test_sample_too_small(self, tmp_path):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((6, 2))
        path = write_csv(tmp_path / "tiny.csv", x, rng.standard_normal(6))
        code = run_cli(["screen", "--input", path, "--response", "y",
                        "--c", "4"])
        assert code == 3

    @pytest.mark.parametrize("command", ["screen", "augment-check"])
    @pytest.mark.parametrize("flags", [[], ["--c", "2"], ["--sigma", "plugin"]])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_too_few_rows_is_degenerate(self, tmp_path, capsys, command, flags, n):
        # The row floor is checked before calibration, so a constant or
        # tied response gets the same message under every --sigma.
        rng = np.random.default_rng(n)
        x = rng.standard_normal((n, 2))
        for y in (rng.standard_normal(n), np.ones(n)):
            path = write_csv(tmp_path / "rows.csv", x, y)
            assert run_cli([command, "--input", path, "--response", "y", *flags]) == 3
            err = capsys.readouterr().err
            assert err.startswith("error: need at least two slices")

    @pytest.mark.parametrize("text", ["x,y\n", "x,y\n\n\r\n\r\n"])
    def test_no_data_rows(self, tmp_path, capsys, text):
        path = tmp_path / "empty.csv"
        path.write_bytes(text.encode("utf-8"))
        assert run_cli(["screen", "--input", str(path), "--response", "y"]) == 2
        assert capsys.readouterr().err == f"error: {path}: no data rows\n"

    def test_directory_input(self, tmp_path, capsys):
        code = run_cli(["screen", "--input", str(tmp_path), "--response", "y"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err

    def test_undecodable_input(self, tmp_path, capsys):
        path = tmp_path / "latin1.csv"
        path.write_bytes("x,y\ncaf\xe9,1\n".encode("latin-1"))
        assert run_cli(["screen", "--input", str(path), "--response", "y"]) == 2
        assert "latin1.csv: 'utf-8' codec" in capsys.readouterr().err

    def test_response_only_csv_is_input_error(self, tmp_path, capsys):
        path = tmp_path / "only_y.csv"
        path.write_text("y\n1\n2\n3\n4\n5\n", encoding="utf-8")
        assert run_cli(["screen", "--input", str(path), "--response", "y"]) == 2
        assert "only_y.csv: no covariate column" in capsys.readouterr().err

    def test_negative_seed(self, capsys):
        code = run_cli(["simulate", "--model", "a1", "--n", "64", "--p", "30",
                        "--reps", "1", "--seed", "-1"])
        assert code == 4
        err = capsys.readouterr().err
        assert "seeds must be non-negative integers, got -1" in err

    def test_a_master_seed_beyond_64_bits_simulates(self, tmp_path):
        # derive_seed folds every 64-bit word of a wide master seed
        out = tmp_path / "sim.json"
        code = run_cli(["simulate", "--model", "c1", "--n", "64", "--p", "40",
                        "--c", "4", "--reps", "1", "--seed", str(2**70),
                        "--output", str(out)])
        assert code == 0 and load(out)["config"]["seed"] == 2**70

    def test_a_screen_seed_beyond_64_bits_is_refused(self, tmp_path, capsys):
        csv_path = signal_csv(tmp_path, n=64, p=10)
        code = run_cli(["screen", "--input", csv_path, "--response", "y",
                        "--seed", str(2**64)])
        assert code == 4
        assert "tie_seed must be an integer in [0, 2**64)" in capsys.readouterr().err


# Every exception class the library defines, each with its documented code.
SITSCREEN_ERRORS = [
    cls for _, cls in inspect.getmembers(errors, inspect.isclass)
    if issubclass(cls, errors.SitScreenError)
]
FAMILY_CODES = {errors.InputError: 2, errors.DegenerateData: 3,
                errors.ConfigError: 4}


def _family_code(cls):
    codes = [code for family, code in FAMILY_CODES.items() if issubclass(cls, family)]
    assert len(codes) <= 1, f"{cls.__name__} sits in more than one family"
    return codes[0] if codes else 4  # the base class maps to config error


class TestErrorPath:
    ARGV = ["screen", "--input", "unused.csv", "--response", "y"]

    def test_unexpected_exception_propagates(self, monkeypatch):
        def broken(args):
            raise ValueError("a bug, not a config error")

        monkeypatch.setattr("sitscreen.cli.cmd_screen", broken)
        with pytest.raises(ValueError, match="a bug"):
            main(self.ARGV)

    @pytest.mark.parametrize("cls", SITSCREEN_ERRORS, ids=lambda cls: cls.__name__)
    def test_each_error_class_maps_to_its_family_code(self, monkeypatch, capsys, cls):
        def failing(args):
            raise cls("boom")

        monkeypatch.setattr("sitscreen.cli.cmd_screen", failing)
        assert main(self.ARGV) == _family_code(cls)
        assert capsys.readouterr().err == "error: boom\n"


class TestSimulate:
    SMALL = ["--model", "a1", "--n", "64", "--p", "20", "--reps", "2"]

    def test_single_rep_degenerate_quantiles(self, tmp_path):
        out = tmp_path / "sim.json"
        code = run_cli(["simulate", "--model", "a1", "--n", "64", "--p", "30",
                        "--s", "2", "--rho", "0.0", "--c", "8",
                        "--rule", "hard-size", "--d", "5", "--reps", "1",
                        "--seed", "3", "--output", str(out)])
        assert code == 0
        quantiles = load(out)["criteria"]["mms_quantiles"]
        assert len(set(quantiles.values())) == 1

    def test_multiple_rules_and_per_rep(self, tmp_path):
        out = tmp_path / "sim.json"
        per_rep = tmp_path / "reps.csv"
        code = run_cli(["simulate", "--model", "a1", "--n", "64", "--p", "30",
                        "--s", "2", "--rho", "0.5", "--c", "8",
                        "--rule", "hard-size", "--rule", "by", "--rule", "bh",
                        "--d", "5", "--q", "0.2", "--reps", "4",
                        "--seed", "3", "--per-rep", str(per_rep),
                        "--output", str(out)])
        assert code == 0
        report = load(out)
        rules = set(report["criteria"]["per_rule"])
        assert rules == {"hard-size(d=5)", "by(q=0.2)", "bh(q=0.2)"}
        lines = per_rep.read_text().strip().split("\n")
        assert lines[0] == "rep,rule,model_size,fdp,all_active,mms"
        assert len(lines) == 1 + 4 * 3

    @pytest.mark.parametrize("flags", [
        ["--model", "a1", "--n", "64", "--p", "20", "--reps", "0"],
        ["--model", "b1", "--n", "64", "--p", "10", "--reps", "2"],
    ])
    def test_failed_run_leaves_no_per_rep_file(self, tmp_path, flags):
        per_rep = tmp_path / "pr.csv"
        code = run_cli(["simulate", *flags, "--per-rep", str(per_rep),
                        "--output", str(tmp_path / "sim.json")])
        assert code == 4
        assert not per_rep.exists()

    def test_bad_output_path_leaves_no_per_rep_file(self, tmp_path):
        per_rep = tmp_path / "pr.csv"
        code = run_cli(["simulate", *self.SMALL, "--per-rep", str(per_rep),
                        "--output", str(tmp_path / "missing" / "r.json")])
        assert code == 2
        assert not per_rep.exists()

    def test_bad_per_rep_path_fails_before_any_replication(self, tmp_path, monkeypatch):
        calls = []
        real = simlab.run_replication

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(simlab, "run_replication", counting)
        code = run_cli(["simulate", *self.SMALL, "--per-rep", str(tmp_path),
                        "--output", str(tmp_path / "sim.json")])
        assert code == 2
        assert calls == []

    FAILING = ["--model", "b1", "--n", "64", "--p", "10", "--reps", "2"]

    def test_failed_run_keeps_a_fifo(self, tmp_path, capsys):
        fifo = tmp_path / "pr.fifo"
        os.mkfifo(fifo)
        reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)  # lets the open proceed
        try:
            code = run_cli(["simulate", *self.FAILING, "--per-rep", str(fifo)])
        finally:
            os.close(reader)
        assert code == 4
        assert fifo.is_fifo()
        assert "Errno" not in capsys.readouterr().err

    def test_failed_run_keeps_a_symlink(self, tmp_path):
        target = tmp_path / "target.csv"
        link = tmp_path / "pr.csv"
        link.symlink_to(target)
        code = run_cli(["simulate", *self.FAILING, "--per-rep", str(link)])
        assert code == 4
        assert link.is_symlink()

    def test_failed_removal_keeps_the_run_error(self, tmp_path, capsys, monkeypatch):
        def refuse(path):
            raise PermissionError(13, "Permission denied", str(path))

        monkeypatch.setattr(os, "remove", refuse)
        code = run_cli(["simulate", *self.FAILING,
                        "--per-rep", str(tmp_path / "pr.csv")])
        assert code == 4
        assert "Errno" not in capsys.readouterr().err

    def test_interrupted_run_keeps_streamed_rows(self, tmp_path, monkeypatch):
        real = simlab.run_replication

        def interrupted(*args, **kwargs):
            if args[4] == 1:  # rep_index
                raise KeyboardInterrupt
            return real(*args, **kwargs)

        monkeypatch.setattr(simlab, "run_replication", interrupted)
        per_rep = tmp_path / "pr.csv"
        with pytest.raises(KeyboardInterrupt):
            run_cli(["simulate", *self.SMALL, "--per-rep", str(per_rep)])
        lines = per_rep.read_text().strip().split("\n")
        assert lines[0] == "rep,rule,model_size,fdp,all_active,mms"
        assert [line.split(",")[0] for line in lines[1:]] == ["0"]

    def test_study_preset(self, tmp_path):
        out = tmp_path / "sim.json"
        code = run_cli(["simulate", "--study", "3", "--model", "c1",
                        "--p", "200", "--s", "5", "--rule", "by",
                        "--reps", "2", "--seed", "8", "--output", str(out)])
        assert code == 0
        config = load(out)["config"]
        assert config["n"] == 1024 and config["rho"] == 0.5 and config["c"] == 32
        assert config["p"] == 200  # explicit flag overrides the preset

    @pytest.mark.parametrize("flags", [[], ["--c", "2"]])
    @pytest.mark.parametrize("n", ["0", "1", "3"])
    def test_too_small_n_is_config_error(self, capsys, flags, n):
        code = run_cli(["simulate", "--model", "a1", "--n", n, "--p", "30",
                        "--reps", "1", *flags])
        assert code == 4
        assert capsys.readouterr().err == "error: n must be at least 4\n"

    def test_bad_model_exits_config(self, tmp_path):
        assert run_cli(["simulate", "--model", "q7", "--reps", "1"]) == 4

    @pytest.mark.parametrize("flags, code, message", [
        (["--model", "b1", "--p", "10"], 4, "model b1 needs p >= 21, got 10"),
        (["--model", "a1", "--c", "1"], 4,
         "slice size c must be an integer >= 2, got 1"),
        (["--model", "a1", "--c", "40"], 3,
         "need at least two slices: n=64 leaves 40 observations for slices of 40"),
        (["--model", "b1", "--p", "10", "--c", "40"], 4,
         "model b1 needs p >= 21, got 10"),
    ])
    def test_bad_settings_refused_before_any_design(
        self, tmp_path, capsys, monkeypatch, flags, code, message
    ):
        calls = []
        real = simlab.generate_design

        def counting(spec):
            calls.append(spec)
            return real(spec)

        monkeypatch.setattr(simlab, "generate_design", counting)
        argv = ["simulate", "--n", "64", "--p", "30", "--reps", "2", *flags,
                "--output", str(tmp_path / "sim.json")]
        assert run_cli(argv) == code
        assert capsys.readouterr().err == f"error: {message}\n"
        assert calls == []


class TestAugmentCheck:
    def test_identity_when_everything_kept(self, tmp_path):
        csv_path = signal_csv(tmp_path)
        out = tmp_path / "aug.json"
        code = run_cli(["augment-check", "--input", csv_path, "--response", "y",
                        "--rule", "hard-size", "--d", "40", "--num-aux", "0",
                        "--seed", "4", "--output", str(out)])
        assert code == 0
        report = load(out)
        assert report["original"] == report["augmented"]
        assert report["overlap"]["retained_fraction"] == 1.0

    def test_num_aux_config_echoes_augmented_p(self, tmp_path):
        csv_path = signal_csv(tmp_path, p=30)
        out = tmp_path / "aug.json"
        code = run_cli(["augment-check", "--input", csv_path, "--response", "y",
                        "--rule", "hard-size", "--d", "3", "--num-aux", "5",
                        "--output", str(out)])
        assert code == 0
        report = load(out)
        augmented = report["augmented"]
        assert len(augmented["covariates"]) == 8
        assert augmented["config"]["p"] == len(augmented["covariates"])
        assert augmented["config"]["num_aux"] == 5
        assert report["original"]["config"]["p"] == 30

    def test_strong_signal_selection_is_stable(self, tmp_path):
        stable = 0
        for seed in range(10):
            csv_path = signal_csv(tmp_path, seed=200 + seed, n=512, p=60,
                                  name=f"a{seed}.csv")
            out = tmp_path / f"aug{seed}.json"
            run_cli(["augment-check", "--input", csv_path, "--response", "y",
                     "--rule", "by", "--q", "0.1", "--c", "16",
                     "--seed", str(seed), "--output", str(out)])
            stable += load(out)["overlap"]["retained_fraction"] == 1.0
        assert stable >= 9

    def test_pure_noise_stays_empty(self, tmp_path):
        empty = 0
        seeds = 20
        for seed in range(seeds):
            rng = np.random.default_rng(300 + seed)
            x = rng.standard_normal((512, 50))
            y = rng.standard_normal(512)
            csv_path = write_csv(tmp_path / f"n{seed}.csv", x, y)
            out = tmp_path / f"noise{seed}.json"
            run_cli(["augment-check", "--input", csv_path, "--response", "y",
                     "--rule", "by", "--q", "0.1", "--c", "4",
                     "--seed", str(seed), "--output", str(out)])
            report = load(out)
            both_empty = (
                report["original"]["threshold"]["num_selected"] == 0
                and report["augmented"]["threshold"]["num_selected"] == 0
            )
            empty += both_empty
        assert empty >= 0.9 * seeds


def test_console_entry_point(tmp_path):
    rng = np.random.default_rng(1)
    x = rng.standard_normal((64, 5))
    y = x[:, 0] + 0.5 * rng.standard_normal(64)
    csv_path = write_csv(tmp_path / "cli.csv", x, y)
    # the child imports the same package as this process, installed or not
    src = str(Path(sitscreen.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "sitscreen.cli", "screen", "--input", csv_path,
         "--response", "y", "--rule", "hard-size", "--d", "2"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert report["threshold"]["num_selected"] == 2


def test_closed_stdout_exits_quietly(tmp_path, child_env):
    # ~1000 covariate records make a report far larger than a pipe buffer,
    # so the child is still writing when the reader goes away.
    rng = np.random.default_rng(2)
    csv_path = write_csv(tmp_path / "wide.csv", rng.standard_normal((16, 1000)),
                         rng.standard_normal(16))
    proc = subprocess.Popen(
        [sys.executable, "-m", "sitscreen.cli", "screen", "--input", csv_path,
         "--response", "y"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env=child_env,
    )
    assert proc.stdout.readline() == "{\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    for marker in ("error:", "Traceback", "Exception ignored"):
        assert marker not in err
