"""Shared fixtures.

The three study fixtures are session-scoped because they are expensive
(minutes for study 3); acceptance tests and module-level property tests
share one run each.  Wall times land in STUDY_TIMINGS for the acceptance
suite's runtime targets.
"""

import os
import time
from pathlib import Path

import numpy as np
import pytest

import sitscreen
from sitscreen import DesignSpec, ModelSpec, ThresholdRule, run_study

STUDY1_SEED = 20103
STUDY2_SEED = 20202
STUDY3_SEED = 20303

STUDY_TIMINGS = {}


@pytest.fixture
def child_env():
    """Environment whose child processes import the package under test."""
    src = str(Path(sitscreen.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


def _timed(key, fn):
    started = time.perf_counter()
    value = fn()
    STUDY_TIMINGS[key] = time.perf_counter() - started
    return value


@pytest.fixture(scope="session")
def study1_reports():
    """Model a1 at n=256, p=1000, s=4, rho=0.5, d=32; c=32 and c=2, 100 reps."""
    design = DesignSpec(n=256, p=1000, rho=0.5)
    model = ModelSpec(id="a1", s=4)
    rules = [ThresholdRule(kind="hard-size", d=32)]
    return _timed(
        "study1",
        lambda: {
            c: run_study(design, model, c=c, rules=rules, reps=100,
                         master_seed=STUDY1_SEED)
            for c in (32, 2)
        },
    )


@pytest.fixture(scope="session")
def study2_b4_report():
    """Model b4 at n=256, p=1000, rho=0.8, c=32, d=32, 100 reps."""
    design = DesignSpec(n=256, p=1000, rho=0.8)
    model = ModelSpec(id="b4")
    rules = [ThresholdRule(kind="hard-size", d=32)]
    return _timed(
        "study2",
        lambda: run_study(design, model, c=32, rules=rules, reps=100,
                          master_seed=STUDY2_SEED),
    )


@pytest.fixture(scope="session")
def study3_c1_report():
    """Model c1 at n=1024, p=5000, s=20, rho=0.5, c=32, q=0.1, 100 reps."""
    design = DesignSpec(n=1024, p=5000, rho=0.5)
    model = ModelSpec(id="c1", s=20)
    rules = [ThresholdRule(kind="by", q=0.1), ThresholdRule(kind="bh", q=0.1)]
    return _timed(
        "study3",
        lambda: run_study(design, model, c=32, rules=rules, reps=100,
                          master_seed=STUDY3_SEED),
    )


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)
