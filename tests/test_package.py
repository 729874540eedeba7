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
