import numpy as np
import pytest

from sitscreen import DesignSpec, ModelSpec, ThresholdRule, run_study
from sitscreen.errors import ConfigError, IncompatibleDimensions, InvalidRho
from sitscreen.simlab import (
    aggregate,
    generate_design,
    generate_response,
    run_replication,
)


class TestDesign:
    def test_independent_columns(self):
        x = generate_design(DesignSpec(n=1000, p=5, rho=0.0, seed=1))
        corr = np.corrcoef(x, rowvar=False)
        off_diag = corr[~np.eye(5, dtype=bool)]
        assert np.abs(off_diag).max() < 0.1

    def test_ar_correlation_decays_geometrically(self):
        x = generate_design(DesignSpec(n=10000, p=4, rho=0.5, seed=2))
        lag2 = np.corrcoef(x[:, 0], x[:, 2])[0, 1]
        assert lag2 == pytest.approx(0.25, abs=0.03)

    def test_deterministic(self):
        spec = DesignSpec(n=64, p=16, rho=0.3, seed=7)
        assert np.array_equal(generate_design(spec), generate_design(spec))

    def test_design_is_c_contiguous(self):
        # generate_response's x @ beta rounds by memory layout: an equal but
        # F-ordered design (a transposed (p, n) buffer) changes the response
        # bits of the a- and c-models.
        x = generate_design(DesignSpec(n=64, p=16, rho=0.3, seed=7))
        assert x.flags.c_contiguous

    def test_invalid_rho(self):
        for rho in (1.0, -1.0, 1.5):
            with pytest.raises(InvalidRho):
                DesignSpec(n=16, p=4, rho=rho)


class TestModelSpec:
    def test_active_sets(self):
        assert ModelSpec("a1").active_set == (0, 1, 2, 3)
        assert ModelSpec("a1", s=6).active_set == tuple(range(6))
        assert ModelSpec("b1").active_set == (0, 1, 19, 20)
        assert ModelSpec("b2").active_set == (0, 1, 2, 19)
        assert ModelSpec("b3").active_set == (0, 1, 2, 19)
        assert ModelSpec("b4").active_set == (0, 1, 10, 11)
        assert ModelSpec("c1").active_set == tuple(range(20))

    def test_unknown_model(self):
        with pytest.raises(ConfigError):
            ModelSpec("z9")

    def test_b_models_reject_s(self):
        with pytest.raises(ConfigError):
            ModelSpec("b1", s=4)

    def test_dimension_check(self):
        x = np.zeros((8, 5))
        with pytest.raises(IncompatibleDimensions):
            generate_response(x, ModelSpec("b1"), seed=0)


class TestResponses:
    """Same-seed calls share the noise draw, which isolates the formula."""

    def test_a1_linear_part(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal((50, 30))
        model = ModelSpec("a1", s=4)
        y = generate_response(x, model, seed=3)
        y0 = generate_response(np.zeros_like(x), model, seed=3)
        beta = np.zeros(30)
        beta[:4] = 1.0
        assert np.allclose(y - y0, x @ beta, atol=1e-12)
        # x of zeros leaves exactly twice the noise
        eps = y0 / 2.0
        assert np.std(eps) == pytest.approx(1.0, abs=0.35)

    def test_b4_formula(self):
        rng = np.random.default_rng(12)
        x = rng.standard_normal((40, 25))
        model = ModelSpec("b4")
        y = generate_response(x, model, seed=4)
        y0 = generate_response(np.zeros_like(x), model, seed=4)
        expected = 2 * x[:, 0] * x[:, 1] + 3 * x[:, 10] * x[:, 11]
        assert np.allclose(y - y0, expected, atol=1e-12)

    def test_c3_exponential(self):
        rng = np.random.default_rng(13)
        x = rng.standard_normal((40, 25))
        model = ModelSpec("c3", s=20)
        y = generate_response(x, model, seed=5)
        y0 = generate_response(np.zeros_like(x), model, seed=5)
        beta = np.zeros(25)
        beta[:20] = 1.0
        assert np.allclose(y - y0, np.exp(x @ beta / 5) - 1.0, atol=1e-12)

    def test_b1_multiplicative_noise(self):
        rng = np.random.default_rng(14)
        x = rng.standard_normal((40, 25))
        model = ModelSpec("b1")
        eps = generate_response(np.zeros_like(x), model, seed=6)  # factor exp(0)=1
        y = generate_response(x, model, seed=6)
        s = x[:, 19] + x[:, 20]
        expected = 4 * x[:, 0] * x[:, 1] + np.exp(5 * s * (s <= 3)) * eps
        assert np.allclose(y, expected, rtol=1e-12)

    def test_t3_noise_differs_from_normal(self):
        x = np.zeros((64, 25))
        normal = generate_response(x, ModelSpec("c1"), seed=7)
        heavy = generate_response(x, ModelSpec("c2"), seed=7)
        assert not np.allclose(normal, heavy)


class TestThresholdRule:
    def test_labels(self):
        assert ThresholdRule(kind="hard-size", d=32).label == "hard-size(d=32)"
        assert ThresholdRule(kind="by", q=0.1).label == "by(q=0.1)"
        assert ThresholdRule(kind="bh", q=0.2).label == "bh(q=0.2)"

    def test_validation(self):
        with pytest.raises(ConfigError):
            ThresholdRule(kind="hard-size")
        with pytest.raises(ConfigError):
            ThresholdRule(kind="by", q=1.5)
        with pytest.raises(ConfigError):
            ThresholdRule(kind="nope", d=3)


@pytest.fixture(scope="module")
def small_study():
    design = DesignSpec(n=64, p=40, rho=0.5)
    model = ModelSpec("a1", s=3)
    rules = [ThresholdRule(kind="hard-size", d=8), ThresholdRule(kind="by", q=0.2)]
    outcomes = [
        run_replication(design, model, 8, rules, i, master_seed=55)
        for i in range(12)
    ]
    report = aggregate(outcomes, model, design, 8, rules, master_seed=55)
    return design, model, rules, outcomes, report


class TestRunStudy:
    def test_pa_equals_mms_coverage(self, small_study):
        design, model, rules, outcomes, report = small_study
        frac = np.mean([o.mms <= 8 for o in outcomes])
        assert report.p_a == frac
        assert report.p_a == report.per_rule["hard-size(d=8)"].p_all

    def test_aggregation_is_order_independent(self, small_study):
        design, model, rules, outcomes, report = small_study
        shuffled = [outcomes[i] for i in (5, 0, 11, 3, 7, 1, 9, 2, 10, 4, 8, 6)]
        again = aggregate(shuffled, model, design, 8, rules, master_seed=55)
        assert again == report

    def test_quantiles_nondecreasing(self, small_study):
        *_, report = small_study
        values = [report.mms_quantiles[k] for k in ("25", "50", "75", "95")]
        assert values == sorted(values)

    def test_pa_bounded_by_individual_proportions(self, small_study):
        *_, report = small_study
        summary = report.per_rule["hard-size(d=8)"]
        assert summary.p_all <= min(summary.selection_proportions.values())

    def test_single_replication_degenerate_quantiles(self):
        design = DesignSpec(n=64, p=20, rho=0.0)
        report = run_study(design, ModelSpec("a1", s=2), 8,
                           [ThresholdRule(kind="hard-size", d=4)],
                           reps=1, master_seed=9)
        assert len(set(report.mms_quantiles.values())) == 1

    def test_same_seed_same_report(self):
        design = DesignSpec(n=64, p=20, rho=0.0)
        rules = [ThresholdRule(kind="by", q=0.2)]
        a = run_study(design, ModelSpec("a1", s=2), 8, rules, reps=3, master_seed=77)
        b = run_study(design, ModelSpec("a1", s=2), 8, rules, reps=3, master_seed=77)
        assert a == b

    def test_rejects_bad_reps(self):
        with pytest.raises(ConfigError):
            run_study(DesignSpec(n=64, p=20, rho=0.0), ModelSpec("a1", s=2), 8,
                      [ThresholdRule(kind="hard-size", d=4)], reps=0, master_seed=1)
