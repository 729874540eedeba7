import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtr
from scipy.stats import norm

from sitscreen import PairedSample, SliceConfig, VarianceCalibration, sliced_estimate
from sitscreen.errors import (
    ConfigError,
    DegenerateResponse,
    InvalidCalibration,
    SampleTooSmall,
)
from sitscreen.estimator import (
    FIXED_SIGMA_SQ,
    _kept_counts,
    _ndtr,
    _packed_order,
    _tie_order,
    arrange_by_covariate,
    auto_calibration,
    p_value_from_z,
    plugin_calibration,
    rank_counts,
    z_statistic,
)


def estimate_value(x, y, c, seed=0):
    return sliced_estimate(PairedSample(x, y), SliceConfig(c=c, tie_seed=seed)).omega_hat


class TestWorkedExamples:
    def test_monotone_pairs(self):
        assert estimate_value([1, 2, 3, 4], [1, 2, 3, 4], c=2) == 0.4

    def test_negative_value_is_legal(self):
        assert estimate_value([1, 2, 3, 4], [1, 4, 2, 3], c=2) == -0.2

    def test_constant_response_raises(self):
        with pytest.raises(DegenerateResponse):
            estimate_value([1, 2, 3, 4], [5, 5, 5, 5], c=2)

    def test_estimate_carries_layout(self):
        est = sliced_estimate(PairedSample([1, 2, 3, 4], [1, 2, 3, 4]), SliceConfig(c=2))
        assert est.n_effective == 4 and est.c == 2
        assert est.p_value == p_value_from_z(est.z)


class TestValidation:
    def test_sample_too_small(self):
        with pytest.raises(SampleTooSmall):
            estimate_value([1, 2, 3, 4, 5], [5, 4, 3, 2, 1], c=4)

    def test_min_sample_size(self):
        # The row floor belongs to SliceConfig.slices, checked before calibrating.
        for n in (1, 2, 3):
            sample = PairedSample(np.arange(n), np.ones(n))
            with pytest.raises(SampleTooSmall):
                sliced_estimate(sample, SliceConfig(c=2))

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            PairedSample([1, 2, 3, np.inf], [1, 2, 3, 4])

    def test_bad_slice_size(self):
        with pytest.raises(ConfigError):
            SliceConfig(c=1)

    def test_spread_sum_bound(self):
        # n_effective * c * n is exactly 2**64 here; nothing is allocated
        with pytest.raises(ConfigError, match=r"n=4194304 with c=1048576.*2\*\*64"):
            SliceConfig(c=2**20).slices(2**22)
        # the largest n for this c below the bound: n_effective = 3 * 2**20
        assert SliceConfig(c=2**20).slices(2**22 - 1) == 3

    def test_config_holds_only_the_callers_choices(self):
        assert [f.name for f in dataclasses.fields(SliceConfig)] == ["c", "tie_seed"]
        assert SliceConfig(c=4).slices(11) == 2  # H follows from n, never stored

    def test_trim_keeps_multiple_of_c(self):
        sample = PairedSample(np.arange(11.0), np.arange(11.0))
        y_sliced = arrange_by_covariate(sample, SliceConfig(c=4, tie_seed=9))
        assert y_sliced.shape[0] == 8 and SliceConfig(c=4).slices(11) == 2


class TestZStatistic:
    def test_spec_value(self):
        z = z_statistic(0.4, 4, 2, VarianceCalibration.fixed())
        assert z == pytest.approx(2 * 0.4 / math.sqrt(0.8), abs=1e-12)
        assert z == pytest.approx(0.894427, abs=1e-6)

    def test_zero_statistic(self):
        z = z_statistic(0.0, 128, 4, VarianceCalibration.fixed())
        assert z == 0.0
        assert p_value_from_z(z) == 0.5

    def test_negative_statistic_upper_tail(self):
        z = z_statistic(-0.2, 4, 2, VarianceCalibration.fixed())
        assert z == pytest.approx(-0.447214, abs=1e-6)
        assert p_value_from_z(z) == pytest.approx(0.6726, abs=1e-4)

    def test_invalid_calibration(self):
        cal = VarianceCalibration.fixed()
        object.__setattr__(cal, "sigma_sq", 0.0)
        with pytest.raises(InvalidCalibration):
            z_statistic(0.1, 64, 2, cal)

    def test_pvalue_matches_normal_cdf(self):
        for z in (-3.0, -0.5, 0.0, 0.7, 2.5):
            assert p_value_from_z(z) == pytest.approx(1 - norm.cdf(z), abs=1e-12)

    def test_pvalue_is_norm_sf_bit_for_bit(self):
        rng = np.random.default_rng(5)
        z = np.concatenate([
            [0.0, -0.0, np.inf, -np.inf, np.nan, 1e300, -1e300, 5e-324, -5e-324],
            np.linspace(-40.0, 40.0, 8001),
            rng.standard_normal(5000) * 10.0,
            np.ldexp(1.0, np.arange(-1074, 1024)),
            -np.ldexp(1.0, np.arange(-1074, 1024)),
        ])
        assert p_value_from_z(z).tobytes() == norm.sf(z).tobytes()
        for value in (0.0, -0.0, np.inf, -np.inf, 38.5, -38.5, 1.25):
            assert np.float64(p_value_from_z(value)).tobytes() == \
                np.float64(norm.sf(value)).tobytes()


def bits(values):
    return np.asarray(values, dtype=np.float64).view(np.uint64)


class TestNdtrPort:
    """The package's Cephes port against scipy.special.ndtr, bit for bit."""

    @settings(max_examples=500, deadline=None)
    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1))
    def test_every_finite_double(self, values):
        a = np.array(values)
        assert (bits(_ndtr(a)) == bits(ndtr(a))).all()
        assert bits(_ndtr(values[0])) == bits(ndtr(values[0]))

    def test_branch_edges_powers_of_two_and_specials(self):
        # a = +-1, +-sqrt(2), +-8 sqrt(2) are |x| = sqrt(1/2), 1, 8; past
        # a = sqrt(2 MAXLOG) ~ 37.68 exp(-x^2) underflows and erfc is 0.
        edges = [1.0, math.sqrt(2.0), 8.0 * math.sqrt(2.0), math.sqrt(2 * 709.782712893384)]
        window = np.linspace(-1e-9, 1e-9, 2001)
        ulps = np.arange(-64, 65) * 1.0
        sweep = [[37.7, 0.0, np.inf], np.ldexp(1.0, np.arange(-1074, 1024))]
        for edge in edges:
            sweep += [edge + window, edge + ulps * np.spacing(edge)]
        a = np.concatenate(sweep)
        a = np.concatenate([a, -a])
        assert (bits(_ndtr(a)) == bits(ndtr(a))).all()
        assert np.isnan(_ndtr(np.nan)) and np.isnan(_ndtr(np.array([np.nan, 1.0]))[0])

    def test_scalar_and_shapes(self):
        assert type(_ndtr(0.3)) is np.float64
        assert type(_ndtr(np.float64(-2.0))) is np.float64
        for shape in [(), (5,), (2, 3)]:
            a = np.linspace(-40.0, 40.0, math.prod(shape)).reshape(shape)
            out = _ndtr(a)
            assert np.shape(out) == shape
            assert (bits(out) == bits(ndtr(a))).all()

    def test_huge_arguments_raise_no_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _ndtr(np.array([1e300, -1e300])).tolist() == [1.0, 0.0]
            assert _ndtr(-1e300) == 0.0


class TestPluginCalibration:
    def test_hand_value(self):
        cal = plugin_calibration(np.array([1.0, 2.0, 3.0, 4.0]))
        assert cal.theta2 == 10 / 64
        assert cal.sigma_sq == 2 * cal.theta1 / cal.theta2**2

    def test_rank_only(self):
        y = np.array([0.3, -1.2, 5.0, 2.2, 2.2, -7.0, 0.0, 1.0])
        a = plugin_calibration(y)
        b = plugin_calibration(np.exp(y))
        assert (a.theta1, a.theta2) == (b.theta1, b.theta2)

    def test_constant_raises(self):
        with pytest.raises(DegenerateResponse):
            plugin_calibration(np.full(6, 3.0))

    def test_single_observation_is_too_small(self):
        with pytest.raises(SampleTooSmall):
            plugin_calibration(np.array([1.0]))

    def test_near_constant_raises(self):
        # one value below a tied maximum: theta1 collapses to zero
        with pytest.raises(DegenerateResponse):
            plugin_calibration(np.array([1.0, 2.0, 2.0, 2.0]))

    def test_auto_switches_on_ties(self):
        assert auto_calibration(np.array([1.0, 2.0, 3.0, 4.0])).mode == "fixed"
        assert auto_calibration(np.array([1.0, 2.0, 2.0, 4.0])).mode == "plugin"

    def test_fixed_constant(self):
        assert VarianceCalibration.fixed().sigma_sq == FIXED_SIGMA_SQ == 4 / 5


def test_exact_dispersion_sum_beyond_int64():
    # sum R (n - R) = n (n^2 - 1) / 6 exceeds 2^63 at this n
    n, c = 4_000_000, 2000
    x = np.arange(n, dtype=np.float64)
    estimate = sliced_estimate(PairedSample(x, x), SliceConfig(c=c))
    assert estimate.omega_hat == (n - c) / (n + 1)
    assert plugin_calibration(x).theta2 == (n * (n * n - 1) // 6) / n**3


def literal_counts(y):
    """r_i = #{y_j <= y_i} and the sum of R_i (n - R_i), R_i = #{y_j >= y_i},
    by comparing every pair."""
    r = (y[None, :] <= y[:, None]).sum(axis=1)
    R = (y[None, :] >= y[:, None]).sum(axis=1)
    return r.tolist(), sum(int(v) * (y.shape[0] - int(v)) for v in R)


# few levels with -0.0 and 0.0 on one of them, up to n levels, or a mix
FEW_LEVELS = st.sampled_from([-1.5, -0.0, 0.0, 2.0, 7.0])
MANY_LEVELS = st.integers(-10**6, 10**6).map(float)
LEVEL_MIXES = st.sampled_from([FEW_LEVELS, MANY_LEVELS, FEW_LEVELS | MANY_LEVELS])


def trimmed_rows(rng, n, rows, dropped):
    keep = np.ones((rows, n), dtype=bool)
    for row in keep:
        row[rng.choice(n, size=dropped, replace=False)] = False
    return keep


class TestRankCounts:
    def test_worked_level_table(self):
        counts = rank_counts(np.array([3.0, 1.0, 4.0, 1.0, 5.0, -0.0, 0.0]))
        assert counts.level.tolist() == [2, 1, 3, 1, 4, 0, 0]
        assert counts.sizes.tolist() == [2, 2, 1, 1, 1]
        assert counts.r.tolist() == [5, 4, 6, 4, 7, 2, 2]
        # R = [3, 5, 2, 5, 1, 7, 7]
        assert counts.dispersion == 3 * 4 + 5 * 2 + 2 * 5 + 5 * 2 + 1 * 6
        assert not counts.tie_free

    def test_distinct_values_same_multiset(self):
        counts = rank_counts(np.array([0.4, -2.0, 3.3, 1.1]))
        assert sorted(counts.r) == [1, 2, 3, 4]
        assert counts.sizes.tolist() == [1, 1, 1, 1] and counts.tie_free

    @settings(max_examples=80, deadline=None)
    @given(st.integers(1, 80), st.data())
    def test_counts_are_literal_comparisons(self, n, data):
        values = data.draw(LEVEL_MIXES)
        y = np.array(data.draw(st.lists(values, min_size=n, max_size=n)))
        counts = rank_counts(y)
        r, dispersion = literal_counts(y)
        assert counts.r.tolist() == r
        assert counts.dispersion == dispersion
        assert counts.tie_free == (sorted(r) == list(range(1, n + 1)))


int_arrays = st.lists(st.integers(min_value=-20, max_value=20), min_size=8, max_size=48)


@st.composite
def paired_instances(draw):
    x = draw(int_arrays)
    y = draw(st.lists(st.integers(-20, 20), min_size=len(x), max_size=len(x)))
    c = draw(st.sampled_from([2, 3, 4]))
    seed = draw(st.integers(0, 2**32 - 1))
    return np.array(x, float), np.array(y, float), c, seed


@settings(max_examples=60, deadline=None)
@given(paired_instances())
def test_upper_bound(instance):
    x, y, c, seed = instance
    if len(x) < 2 * c or np.all(y == y[0]):
        return
    try:
        value = estimate_value(x, y, c, seed)
    except DegenerateResponse:
        return
    assert value <= 1.0


@settings(max_examples=60, deadline=None)
@given(paired_instances())
def test_monotone_invariance_increasing(instance):
    x, y, c, seed = instance
    if len(x) < 2 * c or np.all(y == y[0]):
        return
    try:
        base = estimate_value(x, y, c, seed)
    except DegenerateResponse:
        return
    # cubes and affine maps are strictly increasing and exact on small ints
    assert estimate_value(x**3, y, c, seed) == base
    assert estimate_value(x, 5.0 * y + 7.0, c, seed) == base
    assert estimate_value(7.0 * x + 3.0, y**3, c, seed) == base


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([2, 4]), st.integers(2, 8))
def test_monotone_invariance_decreasing_x(seed, c, H):
    rng = np.random.default_rng(seed)
    n = H * c
    x = rng.permutation(n).astype(float)  # no ties, n = H*c
    y = rng.standard_normal(n)
    base = estimate_value(x, y, c, seed)
    assert estimate_value(-x, y, c, seed) == base
    assert estimate_value(-(x**3), y, c, seed) == base


def test_determinism_bitwise():
    rng = np.random.default_rng(0)
    x = rng.integers(0, 6, 40).astype(float)  # heavy ties
    y = rng.standard_normal(40)
    a = estimate_value(x, y, 4, seed=99)
    b = estimate_value(x, y, 4, seed=99)
    assert a == b


def test_consistency_grows_with_n():
    # signal Y = X + small noise: the statistic approaches its population
    # value from below as n grows at fixed c
    means = []
    for n in (128, 512, 2048):
        rng = np.random.default_rng(31)
        values = []
        for rep in range(200):
            x = rng.standard_normal(n)
            y = x + 0.1 * rng.standard_normal(n)
            values.append(estimate_value(x, y, 8, seed=rep))
        means.append(np.mean(values))
    assert means[1] >= means[0] - 0.02
    assert means[2] >= means[1] - 0.02


@settings(max_examples=60, deadline=None)
@given(st.integers(4, 300), st.integers(1, 5), st.data())
def test_trimmed_tie_free_dispersion_is_closed_form(n, rows, data):
    # the kept R of a tie-free response are a permutation of 1..n_eff
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    y = rng.standard_normal(n)
    counts = rank_counts(y)
    assert counts.tie_free
    dropped = data.draw(st.integers(1, n - 2))
    keep = trimmed_rows(rng, n, rows, dropped)
    n_eff = n - dropped
    ranks, den = _kept_counts(counts, keep, n_eff)
    assert den == [n_eff * (n_eff**2 - 1) // 6] * rows
    for j in range(rows):
        assert (ranks[j].tolist(), den[j]) == literal_counts(y[keep[j]])


@settings(max_examples=80, deadline=None)
@given(st.integers(4, 120), st.integers(1, 5), st.data())
def test_kept_dispersion_from_level_drop_counts(n, rows, data):
    values = data.draw(LEVEL_MIXES)
    y = np.array(data.draw(st.lists(values, min_size=n, max_size=n)))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    dropped = data.draw(st.integers(1, n - 2))
    keep = trimmed_rows(rng, n, rows, dropped)
    ranks, den = _kept_counts(rank_counts(y), keep, n - dropped)
    for j in range(rows):
        assert (ranks[j].tolist(), den[j]) == literal_counts(y[keep[j]])


def test_response_constant_after_trimming_raises():
    # the one larger response value is the row that trimming drops
    y = np.array([1.0, 1.0, 1.0, 1.0, 2.0])
    seed = next(s for s in range(100) if np.random.default_rng(s).choice(5, 1)[0] == 4)
    with pytest.raises(DegenerateResponse, match="after trimming"):
        sliced_estimate(PairedSample(np.arange(5.0), y), SliceConfig(2, tie_seed=seed))


def test_constant_untrimmed_response_is_named_constant():
    # with the caller's calibration nothing calibrates; the table refuses it
    sample = PairedSample(np.arange(64.0), np.full(64, 2.5))
    with pytest.raises(DegenerateResponse, match="^response is constant$"):
        sliced_estimate(sample, SliceConfig(8), VarianceCalibration.fixed())


def test_tie_free_flag():
    assert rank_counts(np.array([0.5, -1.0, 2.0])).tie_free
    assert not rank_counts(np.array([0.5, -1.0, 0.5])).tie_free
    assert not rank_counts(np.array([0.0, -0.0, 1.0])).tie_free


def packed_order(x, u):
    return _tie_order(x, np.argsort(x, axis=1), np.sort(x, axis=1), u)


def assert_lexsort_order(x, u):
    assert np.array_equal(packed_order(x, u), np.lexsort((u, x), axis=1))


class TestTieOrder:
    """The packed-key order of tied rows equals np.lexsort((u, x), axis=1)."""

    def test_genotype_rows(self):
        rng = np.random.default_rng(0)
        x = rng.binomial(2, rng.uniform(0.05, 0.5, (16, 1)), (16, 992)).astype(float)
        assert_lexsort_order(x, rng.random(x.shape))

    def test_forced_equal_u(self):
        # quarters are multiples of 2**-53: many equal keys inside one level
        rng = np.random.default_rng(1)
        x = rng.integers(0, 3, (8, 1000)).astype(float)
        u = rng.integers(0, 4, x.shape) / 4
        assert_lexsort_order(x, u)
        u = rng.random(x.shape)
        u[:, 1::2] = u[:, ::2]  # equal pairs, within or across levels
        assert_lexsort_order(x, u)

    def test_signed_zeros_share_a_level(self):
        rng = np.random.default_rng(2)
        x = rng.choice([-0.0, 0.0, 1.0, -1.0], (8, 500))
        assert_lexsort_order(x, rng.random(x.shape))

    def test_many_levels_fall_back(self):
        rng = np.random.default_rng(3)
        x = np.stack([rng.permutation(3000).astype(float) for _ in range(3)])
        x[:, 7] = x[:, 11]  # one tie among 2,999 levels
        x[1] = np.round(x[1] / 1000)  # a row with few levels stays packed
        assert_lexsort_order(x, rng.random(x.shape))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 4), st.integers(2, 40), st.data())
    def test_small_rows(self, rows, n, data):
        values = st.sampled_from([-2.0, -0.0, 0.0, 0.5, 3.0])
        x = np.array(data.draw(st.lists(values, min_size=rows * n, max_size=rows * n)))
        eighths = st.integers(0, 7).map(lambda k: k / 8)
        u = np.array(data.draw(st.lists(eighths, min_size=rows * n, max_size=rows * n)))
        assert_lexsort_order(x.reshape(rows, n), u.reshape(rows, n))


class TestPackedOrder:
    """One float sort gives each tie-free row its argsort order."""

    def check(self, xt):
        order, tied, ordered = _packed_order(xt)
        gathered = np.take_along_axis(xt, order, axis=1)
        assert (gathered[:, 1:] >= gathered[:, :-1]).all()
        has_ties = (gathered[:, 1:] == gathered[:, :-1]).any(axis=1)
        assert np.array_equal(tied, np.flatnonzero(has_ties))
        untied = ~has_ties
        assert np.array_equal(order[untied], np.argsort(xt[untied], axis=1))
        if tied.size:
            assert (ordered == gathered[tied]).all()

    def test_kinds(self):
        rng = np.random.default_rng(4)
        n = 257
        run = 1.0 + rng.permutation(n) * 2.0**-52  # inside one bucket
        xt = np.stack([
            rng.standard_normal(n),
            run,
            -run,
            rng.choice([-1.0, 1.0], n) * run,
            rng.choice([-0.0, 0.0, 5e-324, -5e-324], n),
            rng.integers(-2**40, 2**40, n) * 5e-324,
            rng.uniform(1, 2, n) * 2.0 ** rng.integers(-1070, 1021, n).astype(float),
            rng.binomial(2, 0.3, n).astype(float),
        ])
        self.check(xt)
        self.check(xt.T.copy().T)  # a strided view

    def test_signed_zero_pair_is_a_tie(self):
        xt = np.array([[3.0, -0.0, -2.0, 0.0, 1.0]])
        order, tied, ordered = _packed_order(xt)
        assert tied.tolist() == [0]
        assert ordered.tolist() == [[-2.0, 0.0, 0.0, 1.0, 3.0]]
