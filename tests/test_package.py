import subprocess
import sys

import sitscreen

USER_API = {
    # README Library section
    "Dataset", "SliceConfig", "FdrConfig", "screen_all", "by_threshold",
    "hard_threshold_select", "Selection", "ThresholdRule",
    # what scripts/ imports
    "DesignSpec", "ModelSpec", "run_study",
    # the README's single-pair API
    "PairedSample", "VarianceCalibration", "sliced_estimate",
    # the exit-code families
    "SitScreenError", "InputError", "DegenerateData", "ConfigError",
}


def test_all_names_resolve_once():
    names = sitscreen.__all__
    assert len(names) == len(set(names))
    assert [name for name in names if not hasattr(sitscreen, name)] == []


def test_top_level_is_the_user_api():
    assert set(sitscreen.__all__) == USER_API


def test_import_skips_scipy_and_oracle(child_env):
    for module in ("sitscreen", "sitscreen.cli"):
        probe = (f"import sys, {module}; print(sorted(m for m in sys.modules "
                 "if m.split('.')[0] == 'scipy' or m == 'sitscreen.oracle'))")
        proc = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                              text=True, env=child_env, check=True)
        assert proc.stdout.strip() == "[]", module


def test_a_replication_skips_numpy_ma(child_env):
    # np.setdiff1d imports numpy.ma (about 10 ms) on first use; a simulate
    # child must not pay that
    probe = ("import sys\n"
             "from sitscreen import DesignSpec, ModelSpec, ThresholdRule\n"
             "from sitscreen.simlab import run_replication\n"
             "run_replication(DesignSpec(n=64, p=40, rho=0.5), ModelSpec(id='a1'), 8,\n"
             "                [ThresholdRule(kind='by', q=0.1)], 0, 3)\n"
             "print('numpy.ma' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, env=child_env, check=True)
    assert proc.stdout.strip() == "False"
