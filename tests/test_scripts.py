import json
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"
RUN_STUDY = SCRIPTS / "run_study.py"


@pytest.mark.parametrize("flags, header, keys", [
    (["--study", "1", "--models", "a1", "--slice-sizes", "32"],
     "   c  X0  X1  X2  X3  P_a    25% 50% 75% 95%", ["a1/c=32"]),
    (["--study", "2", "--models", "b4", "--slice-sizes", "2", "32"],
     "   c  X0  X1  X10  X11  P_a    25% 50% 75% 95%", ["b4/c=2", "b4/c=32"]),
    (["--study", "3", "--n", "256", "--p", "100", "--models", "c1"],
     "    q rule     FDP      AMS   P_all",
     ["c1/q=0.1/bh", "c1/q=0.1/by", "c1/q=0.2/bh", "c1/q=0.2/by"]),
], ids=["study1", "study2", "study3"])
def test_run_study_tables(tmp_path, child_env, flags, header, keys):
    out = tmp_path / "study.json"
    proc = subprocess.run(
        [sys.executable, str(RUN_STUDY), *flags, "--reps", "1", "--output", str(out)],
        capture_output=True, text=True, env=child_env,
    )
    assert proc.returncode == 0, proc.stderr
    assert header in proc.stdout.splitlines()
    assert sorted(json.loads(out.read_text())) == keys


@pytest.mark.parametrize("flags", [
    ["--study", "3", "--slice-sizes", "8", "32"],
    ["--study", "1", "--levels", "0.1"],
    ["--study", "2", "--models", "b1", "b1"],
], ids=["two-slice-sizes", "levels-outside-study3", "repeated-model"])
def test_run_study_refuses_cells_sharing_a_key(child_env, flags):
    proc = subprocess.run([sys.executable, str(RUN_STUDY), *flags],
                          capture_output=True, text=True, env=child_env)
    assert proc.returncode == 2 and "error:" in proc.stderr


@pytest.mark.parametrize("flags", [
    ["--study", "2", "--s", "3"],
    ["--study", "1", "--models", "zz"],
    ["--study", "1", "--slice-sizes", "1"],
    ["--study", "3", "--p", "10"],
], ids=["fixed-active-set", "unknown-model", "slice-size-1", "p-below-s"])
def test_run_study_reports_a_config_error_without_traceback(child_env, flags):
    proc = subprocess.run([sys.executable, str(RUN_STUDY), *flags, "--reps", "1"],
                          capture_output=True, text=True, env=child_env)
    assert proc.returncode == 4
    assert proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr


def test_null_calibration_prints_its_table(child_env):
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / "null_calibration.py"), "--n", "128",
         "--slice-sizes", "4", "--reps", "50", "--response", "binary:0.5"],
        capture_output=True, text=True, env=child_env,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[1].split() == ["c", "sigma^2", "mean(z)", "var(z)", "var*s^2", "KS", "by", "sel"]
    assert lines[2].split()[:2] == ["4", "2.0000"]
