import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import norm

from sitscreen import (
    FdrConfig,
    SliceConfig,
    ThresholdRule,
    VarianceCalibration,
    by_threshold,
    hard_threshold_select,
)
from sitscreen.errors import ConfigError, NonPositiveThreshold
from sitscreen.estimator import p_value_from_z
from sitscreen.fdr import (
    Selection,
    evaluate_selection,
    harmonic_number,
    level_threshold_select,
)
from sitscreen.oracle import fdp_hat, oracle_threshold
from sitscreen.screening import ScreeningResult


def result_from_pvalues(p_values, n_effective=256, c=8):
    """Build a coherent ScreeningResult whose p-values are as prescribed.

    z is the normal quantile of each p-value and omega the statistic that
    would have produced it, so all invariants hold up to float round-trip.
    """
    p_values = np.asarray(p_values, dtype=float)
    cal = VarianceCalibration.fixed()
    z = norm.isf(p_values)
    scale = math.sqrt(n_effective * (c - 1))
    omega = z * cal.sigma / scale
    order = np.lexsort((np.arange(len(omega)), -omega))
    return ScreeningResult(
        omega=omega,
        z=z,
        p_values=p_value_from_z(z),
        order=order,
        config=SliceConfig(c=c),
        n_effective=n_effective,
        calibration=cal,
    )


def result_from_omega(omega, n_effective=256, c=8):
    omega = np.asarray(omega, dtype=float)
    cal = VarianceCalibration.fixed()
    scale = math.sqrt(n_effective * (c - 1))
    z = scale * omega / cal.sigma
    return ScreeningResult(
        omega=omega,
        z=z,
        p_values=p_value_from_z(z),
        order=np.lexsort((np.arange(len(omega)), -omega)),
        config=SliceConfig(c=c),
        n_effective=n_effective,
        calibration=cal,
    )


class TestHarmonic:
    def test_values(self):
        assert harmonic_number(1) == 1.0
        assert harmonic_number(4) == pytest.approx(25 / 12, abs=1e-15)


class TestByThreshold:
    def test_worked_example_by_vs_bh(self):
        result = result_from_pvalues([0.01, 0.03, 0.08, 0.9])
        by = by_threshold(result, FdrConfig(q=0.2, adjustment="by"))
        bh = by_threshold(result, FdrConfig(q=0.2, adjustment="bh"))
        assert by.num_selected == 2 and list(by.selected) == [0, 1]
        assert bh.num_selected == 3 and list(bh.selected) == [0, 1, 2]
        assert by.harmonic_constant == pytest.approx(25 / 12, abs=1e-15)
        assert bh.harmonic_constant == 1.0

    def test_nothing_qualifies(self):
        result = result_from_pvalues([0.99, 0.99, 0.99])
        decision = by_threshold(result, FdrConfig(q=0.2))
        assert decision.num_selected == 0
        assert decision.selected.size == 0
        assert decision.realized_threshold == math.inf

    def test_single_hypothesis_reduction(self):
        accepted = by_threshold(result_from_pvalues([0.05]), FdrConfig(q=0.1))
        rejected = by_threshold(result_from_pvalues([0.2]), FdrConfig(q=0.1))
        assert list(accepted.selected) == [0]
        assert rejected.num_selected == 0

    def test_negative_omegas_never_selected(self):
        # a high q makes the step-up bound exceed 0.5; t > 0 must still block
        result = result_from_pvalues([0.6, 0.7])
        decision = by_threshold(result, FdrConfig(q=0.9, adjustment="bh"))
        assert decision.num_selected == 0

    def test_value_ties_selected_together(self):
        result = result_from_omega([0.08, 0.08, 0.08, -0.1])
        decision = by_threshold(result, FdrConfig(q=0.3, adjustment="by"))
        assert list(decision.selected) == [0, 1, 2]
        assert decision.realized_threshold == 0.08

    def test_threshold_coherence(self):
        result = result_from_omega([0.1, 0.05, 0.02, -0.03, 0.0])
        decision = by_threshold(result, FdrConfig(q=0.4, adjustment="bh"))
        above = np.flatnonzero(result.omega > decision.realized_threshold)
        assert set(above) <= set(decision.selected)
        assert all(result.omega[k] > 0 for k in decision.selected)

    def test_bad_q(self):
        for q in (0.0, 1.0, -0.1):
            with pytest.raises(ConfigError):
                FdrConfig(q=q)


class TestFdpHat:
    def test_above_max_omega(self):
        result = result_from_omega([0.02, 0.01])
        config = FdrConfig(q=0.1, adjustment="by")
        t = 0.5
        scale = math.sqrt(result.n_effective * (result.config.c - 1))
        expected = harmonic_number(2) * 2 * p_value_from_z(scale * t / result.calibration.sigma)
        assert fdp_hat(t, result, config) == pytest.approx(expected, rel=1e-12)

    def test_small_near_zero_when_all_z_large(self):
        result = result_from_omega([0.5, 0.6, 0.7], n_effective=1024, c=8)
        assert fdp_hat(0.4, result, FdrConfig(q=0.1)) < 1e-6

    def test_rejects_nonpositive_t(self):
        result = result_from_omega([0.1, 0.2])
        for t in (0.0, -0.5):
            with pytest.raises(NonPositiveThreshold):
                fdp_hat(t, result, FdrConfig(q=0.1))

    def test_stepup_equals_infimum_scan(self):
        rng = np.random.default_rng(44)
        config_by = FdrConfig(q=0.15, adjustment="by")
        for _ in range(50):
            p = int(rng.integers(2, 40))
            z = np.where(rng.random(p) < 0.3, rng.normal(3.5, 1, p), rng.standard_normal(p))
            result = result_from_omega(z * 0.01)
            decision = by_threshold(result, config_by)
            qualifying = [
                t for t in result.omega
                if t > 0 and fdp_hat(t, result, config_by) <= config_by.q
            ]
            if decision.num_selected == 0:
                assert not qualifying
            else:
                assert decision.realized_threshold == min(qualifying)


class TestThresholdRule:
    def test_hard_level_needs_level(self):
        with pytest.raises(ConfigError):
            ThresholdRule(kind="hard-level")

    @pytest.mark.parametrize("level", [np.inf, -np.inf, np.nan])
    def test_hard_level_needs_finite_level(self, level):
        with pytest.raises(ConfigError, match="finite level"):
            ThresholdRule(kind="hard-level", level=level)

    @pytest.mark.parametrize("rule, select", [
        (ThresholdRule(kind="hard-level", level=0.3),
         lambda r: level_threshold_select(r, 0.3)),
        (ThresholdRule(kind="hard-size", d=2),
         lambda r: hard_threshold_select(r, 2)),
        (ThresholdRule(kind="by", q=0.2),
         lambda r: by_threshold(r, FdrConfig(q=0.2, adjustment="by"))),
        (ThresholdRule(kind="bh", q=0.2),
         lambda r: by_threshold(r, FdrConfig(q=0.2, adjustment="bh"))),
    ])
    def test_apply_matches_selector(self, rule, select):
        result = result_from_omega([0.5, 0.1, 0.3, 0.3, 0.02])
        got, want = rule.apply(result), select(result)
        assert np.array_equal(got.selected, want.selected)
        assert (got.rule, got.realized_threshold, got.harmonic_constant) == (
            want.rule, want.realized_threshold, want.harmonic_constant
        )


class TestEvaluateSelection:
    def test_mixed(self):
        fdp, tp = evaluate_selection({0, 1, 2, 8, 9}, {0, 1, 2, 3})
        assert fdp == 0.4 and tp == 3

    def test_empty_selection(self):
        assert evaluate_selection(set(), {1, 2}) == (0.0, 0)

    def test_perfect(self):
        fdp, tp = evaluate_selection({1, 2}, {1, 2})
        assert fdp == 0.0 and tp == 2


@pytest.mark.parametrize("build", [
    lambda: Selection(selected=[0.5, 1.7], rule="by", realized_threshold=0.1),
    lambda: Selection(selected=np.array([True, False]), rule="by", realized_threshold=0.1),
    lambda: evaluate_selection([0.5], [0]),
    lambda: evaluate_selection([0], np.array([1.0])),
])
def test_indices_that_are_not_integers_are_refused(build):
    # a cast to intp would truncate 0.5 to 0 and read a mask as 0s and 1s
    with pytest.raises(ConfigError, match="indices must be integers"):
        build()


def test_an_empty_selection_needs_no_integer_dtype():
    assert Selection(selected=[], rule="by", realized_threshold=np.inf).num_selected == 0
    assert evaluate_selection([], np.array([], dtype=float)) == (0.0, 0)


@st.composite
def z_instances(draw):
    p = draw(st.integers(1, 50))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    z = np.where(rng.random(p) < 0.25, rng.normal(4, 1, p), rng.standard_normal(p))
    dup = draw(st.booleans())
    if dup and p >= 4:
        z[1] = z[0]
        z[3] = z[2]
    return z


@settings(max_examples=80, deadline=None)
@given(z_instances(), st.sampled_from(["by", "bh"]))
def test_matches_oracle_threshold(z, adjustment):
    result = result_from_omega(z * 0.02)
    decision = by_threshold(result, FdrConfig(q=0.12, adjustment=adjustment))
    reference = oracle_threshold(result.omega, result.p_values, 0.12, adjustment)
    assert np.array_equal(decision.selected, reference)


@settings(max_examples=60, deadline=None)
@given(z_instances(), st.floats(0.02, 0.4), st.floats(0.02, 0.4))
def test_monotone_in_q_and_by_subset_of_bh(z, q1, q2):
    result = result_from_omega(z * 0.02)
    lo, hi = sorted((q1, q2))
    sel_lo = set(by_threshold(result, FdrConfig(q=lo)).selected.tolist())
    sel_hi = set(by_threshold(result, FdrConfig(q=hi)).selected.tolist())
    assert sel_lo <= sel_hi
    sel_by = set(by_threshold(result, FdrConfig(q=lo, adjustment="by")).selected.tolist())
    sel_bh = set(by_threshold(result, FdrConfig(q=lo, adjustment="bh")).selected.tolist())
    assert sel_by <= sel_bh


class TestAsymptoticBehaviour:
    def test_fdr_control_study3(self, study3_c1_report):
        assert study3_c1_report.per_rule["by(q=0.1)"].mean_fdp <= 0.18

    def test_sure_screening_under_adaptive_threshold(self, study3_c1_report):
        proportions = study3_c1_report.per_rule["by(q=0.1)"].selection_proportions
        assert min(proportions.values()) >= 0.95

    def test_bh_less_conservative(self, study3_c1_report):
        by = study3_c1_report.per_rule["by(q=0.1)"]
        bh = study3_c1_report.per_rule["bh(q=0.1)"]
        assert bh.mean_fdp >= by.mean_fdp
        assert bh.ams >= by.ams
