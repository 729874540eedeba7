import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sitscreen import (
    Dataset,
    DesignSpec,
    ModelSpec,
    SliceConfig,
    ThresholdRule,
    run_study,
    screen_all,
    simlab,
)
from sitscreen.errors import (
    ConfigError,
    IncompatibleDimensions,
    InvalidRho,
    InvalidSize,
    SampleTooSmall,
)
from sitscreen.oracle import oracle_design
from sitscreen.fdr import hard_threshold_select
from sitscreen.screening import augment_with_noise, resolve_threads
from sitscreen.seeding import derive_seed
from sitscreen.simlab import (
    MODEL_IDS,
    aggregate,
    generate_design,
    generate_response,
    run_replication,
)


def bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


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

    def test_peak_memory_is_one_design(self):
        spec = DesignSpec(n=512, p=400, rho=0.5, seed=3)
        generate_design(spec)  # first-call set-up stays out of the peak
        tracemalloc.start()
        try:
            x = generate_design(spec)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * x.nbytes


PINNED_SEEDS = (0, 2**64 - 1)
PINNED_RHOS = (0.0, 0.999, -0.999, -0.5)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(4, 80),
    st.integers(1, 60),
    st.one_of(st.sampled_from(PINNED_RHOS), st.floats(-0.999, 0.999)),
    st.one_of(st.sampled_from(PINNED_SEEDS), st.integers(0, 2**64 - 1)),
)
@example(4, 1, 0.0, 0)
@example(80, 60, 0.999, 2**64 - 1)
@example(17, 33, -0.999, 0)
@example(64, 21, -0.5, 2**64 - 1)
def test_design_matches_oracle_bits(n, p, rho, seed):
    spec = DesignSpec(n=n, p=p, rho=rho, seed=seed)
    x, ref = generate_design(spec), oracle_design(spec)
    assert x.flags.c_contiguous and ref.flags.c_contiguous
    assert np.array_equal(bits(x), bits(ref))


@pytest.mark.parametrize("rho", PINNED_RHOS)
@pytest.mark.parametrize("seed", PINNED_SEEDS)
def test_pinned_design_matches_oracle_bits(rho, seed):
    spec = DesignSpec(n=48, p=40, rho=rho, seed=seed)
    assert np.array_equal(bits(generate_design(spec)), bits(oracle_design(spec)))


@pytest.mark.parametrize("model_id", MODEL_IDS)
def test_response_bits_equal_on_oracle_design(model_id):
    # x @ beta rounds by layout, so equal designs must also share it
    spec = DesignSpec(n=96, p=45, rho=0.5, seed=21)
    model = ModelSpec(model_id)
    y = generate_response(generate_design(spec), model, seed=8)
    ref = generate_response(oracle_design(spec), model, seed=8)
    assert np.array_equal(bits(y), bits(ref))


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


class TestRefusedBeforeDesign:
    """A bad width, slice size or model size is refused before any design is
    drawn."""

    @pytest.fixture
    def designs(self, monkeypatch):
        calls = []
        real = simlab.generate_design

        def counting(spec):
            calls.append(spec)
            return real(spec)

        monkeypatch.setattr(simlab, "generate_design", counting)
        return calls

    @pytest.mark.parametrize("p, c, error, message", [
        (10, 8, IncompatibleDimensions, "model b1 needs p >= 21, got 10"),
        (30, 1, ConfigError, "slice size c must be an integer >= 2, got 1"),
        (30, 40, SampleTooSmall,
         "need at least two slices: n=64 leaves 40 observations for slices of 40"),
        (10, 40, IncompatibleDimensions, "model b1 needs p >= 21, got 10"),
    ])
    def test_refused_in_order(self, designs, p, c, error, message):
        rules = [ThresholdRule(kind="hard-size", d=4)]
        with pytest.raises(error) as info:
            run_study(DesignSpec(n=64, p=p, rho=0.5), ModelSpec("b1"), c, rules,
                      reps=2, master_seed=1)
        assert type(info.value) is error
        assert str(info.value) == message
        assert designs == []

    def test_hard_size_above_p(self, designs):
        rules = [ThresholdRule(kind="by", q=0.1), ThresholdRule(kind="hard-size", d=31)]
        with pytest.raises(InvalidSize, match=r"^model size d=31 outside \[1, 30\]$"):
            run_study(DesignSpec(n=64, p=30, rho=0.5), ModelSpec("b1"), 8, rules,
                      reps=2, master_seed=1)
        assert designs == []

    def test_valid_settings_draw_one_design_per_rep(self, designs):
        run_study(DesignSpec(n=64, p=30, rho=0.5), ModelSpec("b1"), 8,
                  [ThresholdRule(kind="hard-size", d=4)], reps=2, master_seed=1)
        assert len(designs) == 2


def _tiny_study(n=64, p=30, s=None, reps=1, master_seed=1):
    run_study(DesignSpec(n=n, p=p, rho=0.5), ModelSpec("a1", s=s), 8,
              [ThresholdRule(kind="hard-size", d=4)], reps=reps, master_seed=master_seed)


def _tiny_data():
    rng = np.random.default_rng(4)
    return Dataset(rng.standard_normal((32, 3)), rng.standard_normal(32))


@pytest.mark.parametrize("call, message", [
    (lambda: ThresholdRule(kind="hard-size", d=2.5), "model size d must be an integer, got 2.5"),
    (lambda: ThresholdRule(kind="hard-size", d=True), "model size d must be an integer, got True"),
    (lambda: _tiny_study(n=64.5), "n must be an integer, got 64.5"),
    (lambda: _tiny_study(p=30.0), "p must be an integer, got 30.0"),
    (lambda: _tiny_study(s=2.5), "sparsity s must be an integer, got 2.5"),
    (lambda: _tiny_study(reps=1.5), "reps must be an integer, got 1.5"),
    (lambda: augment_with_noise(_tiny_data(), keep=[0], num_aux=2.5, seed=0),
     "num_aux must be an integer, got 2.5"),
    (lambda: screen_all(_tiny_data(), SliceConfig(c=8), threads=2.5),
     "threads must be an integer, got 2.5"),
    # seeds and indices that int() would truncate: 2.5 as 2, [0.5, 1.9] as [0, 1]
    (lambda: augment_with_noise(_tiny_data(), keep=[0.5, 1.9], num_aux=0, seed=0),
     "keep index must be an integer, got 0.5"),
    (lambda: augment_with_noise(_tiny_data(), keep=[0], num_aux=1, seed=2.5),
     "seeds must be non-negative integers, got 2.5"),
    (lambda: _tiny_study(master_seed=2.5), "seeds must be non-negative integers, got 2.5"),
    (lambda: derive_seed(2.5, 1), "seeds must be non-negative integers, got 2.5"),
    (lambda: derive_seed(True), "seeds must be non-negative integers, got True"),
    # a bool d would keep one covariate, a float fail as a slice bound
    (lambda: hard_threshold_select(screen_all(_tiny_data(), SliceConfig(c=8)), True),
     "model size d must be an integer, got True"),
    (lambda: hard_threshold_select(screen_all(_tiny_data(), SliceConfig(c=8)), 2.5),
     "model size d must be an integer, got 2.5"),
])
def test_a_non_integer_argument_is_a_config_error(call, message):
    # a float would pass the range checks and fail later with a raw TypeError
    with pytest.raises(ConfigError) as info:
        call()
    assert type(info.value) is ConfigError and str(info.value) == message


@pytest.mark.parametrize("call, message", [
    (lambda: DesignSpec(n=64, p=30, rho=0.5, seed=-1), "seed must be at least 0"),
    (lambda: _tiny_study(n=3), "n must be at least 4"),
    (lambda: _tiny_study(s=0), "sparsity s must be at least 1"),
    (lambda: _tiny_study(reps=0), "reps must be at least 1"),
    (lambda: ThresholdRule(kind="hard-size", d=0), "model size d must be at least 1"),
    (lambda: augment_with_noise(_tiny_data(), keep=[0], num_aux=-1, seed=0),
     "num_aux must be at least 0"),
    (lambda: augment_with_noise(_tiny_data(), keep=[-1], num_aux=1, seed=0),
     "keep index must be at least 0"),
    # 0 must not read as the default worker count, nor a negative count as one
    (lambda: resolve_threads(0), "threads must be at least 1"),
    (lambda: resolve_threads(-3), "threads must be at least 1"),
])
def test_an_integer_below_its_floor_is_a_config_error(call, message):
    # every lower bound is worded by estimator._check_integer
    with pytest.raises(ConfigError) as info:
        call()
    assert type(info.value) is ConfigError and str(info.value) == message
