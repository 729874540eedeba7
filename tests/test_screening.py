import re
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from sitscreen import (
    Dataset,
    FdrConfig,
    PairedSample,
    SliceConfig,
    by_threshold,
    estimator,
    hard_threshold_select,
    screen_all,
    screening,
    sliced_estimate,
)
from sitscreen.errors import (
    AllColumnsConstant,
    ConfigError,
    DegenerateResponse,
    EmptyActiveSet,
    InvalidSize,
    SampleTooSmall,
)
from sitscreen.estimator import (
    BLOCK_CELLS,
    VarianceCalibration,
    auto_calibration,
    rank_counts,
)
from sitscreen.fdr import level_threshold_select
from sitscreen.oracle import oracle_estimate
from sitscreen.screening import (
    augment_with_noise,
    minimum_model_size,
    resolve_threads,
)
from sitscreen.seeding import derive_seed, dropped_rows, tie_counters, tie_keys


def make_result(omega_like, n=64, c=2, seed=0):
    """Screening result with prescribed utility ordering, via a linear y."""
    omega = np.asarray(omega_like, dtype=float)
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, len(omega)))
    y = rng.standard_normal(n)
    result = screen_all(Dataset(x, y), SliceConfig(c=c, tie_seed=seed))
    # overwrite utilities to the prescribed values, keeping shapes coherent
    object.__setattr__(result, "omega", omega)
    object.__setattr__(
        result, "order", np.lexsort((np.arange(len(omega)), -omega))
    )
    return result


class TestScreenAll:
    def test_single_column_reduces_to_estimate(self):
        data = Dataset(np.array([[1.0], [2.0], [3.0], [4.0]]), np.array([1.0, 2.0, 3.0, 4.0]))
        result = screen_all(data, SliceConfig(c=2))
        assert result.omega[0] == 0.4

    def test_matches_per_column_estimates(self):
        rng = np.random.default_rng(3)
        n, p, c, master = 21, 7, 4, 17  # trimming exercised (21 % 4 != 0)
        x = rng.integers(0, 4, (n, p)).astype(float)  # ties exercised
        y = rng.standard_normal(n)
        result = screen_all(Dataset(x, y), SliceConfig(c=c, tie_seed=master))
        for k in range(p):
            single = sliced_estimate(
                PairedSample(x[:, k], y),
                SliceConfig(c=c, tie_seed=derive_seed(master, k)),
                calibration=result.calibration,
            )
            assert result.omega[k] == single.omega_hat
            assert result.z[k] == single.z

    def test_column_permutation_permutes_omega(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((32, 6))
        y = rng.standard_normal(32)
        perm = np.array([3, 0, 5, 1, 4, 2])
        base = screen_all(Dataset(x, y), SliceConfig(c=4, tie_seed=8))
        permuted = screen_all(Dataset(x[:, perm], y), SliceConfig(c=4, tie_seed=8))
        assert np.array_equal(permuted.omega, base.omega[perm])

    def test_thread_count_is_irrelevant(self):
        rng = np.random.default_rng(5)
        x = rng.integers(0, 3, (30, 40)).astype(float)
        y = rng.standard_normal(30)
        cfg = SliceConfig(c=4, tie_seed=123)
        a = screen_all(Dataset(x, y), cfg, threads=1)
        b = screen_all(Dataset(x, y), cfg, threads=4)
        assert np.array_equal(a.omega, b.omega)

    def test_trimmed_result_counts_kept_rows(self):
        rng = np.random.default_rng(8)
        data = Dataset(rng.standard_normal((23, 3)), rng.standard_normal(23))
        config = SliceConfig(c=4, tie_seed=2)
        result = screen_all(data, config)
        assert result.config is config
        assert result.n_effective == config.slices(23) * config.c == 20

    @pytest.mark.parametrize("n", [1, 3, 7])
    def test_row_floor_comes_before_other_checks(self, n):
        # constant response and columns: the row floor still speaks first
        data = Dataset(np.ones((n, 2)), np.zeros(n))
        with pytest.raises(SampleTooSmall):
            screen_all(data, SliceConfig(c=4))

    def test_constant_response_raises(self):
        data = Dataset(np.random.default_rng(0).standard_normal((16, 3)), np.zeros(16))
        with pytest.raises(DegenerateResponse):
            screen_all(data, SliceConfig(c=2))

    def test_constant_columns_are_tolerated(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((64, 3))
        x[:, 1] = 2.5
        y = x[:, 0] + 0.1 * rng.standard_normal(64)
        result = screen_all(Dataset(x, y), SliceConfig(c=4, tie_seed=1))
        assert np.isfinite(result.omega).all()
        assert result.omega[0] > result.omega[1]

    def test_all_columns_constant_raises(self):
        x = np.ones((16, 4))
        y = np.arange(16.0)
        with pytest.raises(AllColumnsConstant):
            screen_all(Dataset(x, y), SliceConfig(c=2))

    def test_rows_0_and_1_equal_with_a_later_row_different(self):
        x = np.ones((16, 4))
        x[9, 2] = 2.0
        result = screen_all(Dataset(x, np.arange(16.0)), SliceConfig(c=2))
        assert result.omega.shape == (4,)

    def test_constant_columns_mixing_signed_zeros_raise(self):
        x = np.zeros((16, 3))
        x[0, :] = -0.0  # rows 0 and 1 differ only in sign: still constant
        x[1::3, 1] = -0.0
        x[:, 2] = 5.0
        with pytest.raises(AllColumnsConstant):
            screen_all(Dataset(x, np.arange(16.0)), SliceConfig(c=2))

    def test_null_pvalues_roughly_uniform(self):
        hits, total = 0, 0
        for rep in range(50):
            rng = np.random.default_rng(1000 + rep)
            x = rng.standard_normal((1024, 100))
            y = rng.standard_normal(1024)
            result = screen_all(Dataset(x, y), SliceConfig(c=8, tie_seed=rep))
            hits += int(np.sum(result.p_values <= 0.05))
            total += 100
        assert abs(hits / total - 0.05) <= 0.02

    def test_tied_response_uses_plugin_calibration(self):
        rng = np.random.default_rng(15)
        x = rng.standard_normal((128, 8))
        y = np.round(x[:, 0] + 0.3 * rng.standard_normal(128))  # many ties
        result = screen_all(Dataset(x, y), SliceConfig(c=8, tie_seed=6))
        assert result.calibration.mode == "plugin"
        assert np.isfinite(result.z).all()
        # p-values decrease as utilities increase
        p_by_rank = result.p_values[result.order]
        assert (np.diff(p_by_rank) >= 0).all()
        assert result.omega[0] == result.omega.max()

    def test_monotone_invariance_end_to_end(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((64, 20))
        y = x[:, 0] + rng.standard_normal(64)
        cfg = SliceConfig(c=4, tie_seed=2)
        base = screen_all(Dataset(x, y), cfg)
        transformed = screen_all(Dataset(np.exp(x), y), cfg)
        assert np.array_equal(base.omega, transformed.omega)
        assert np.array_equal(base.order, transformed.order)
        d_base = hard_threshold_select(base, 5)
        d_tr = hard_threshold_select(transformed, 5)
        assert np.array_equal(d_base.selected, d_tr.selected)
        by_base = by_threshold(base, FdrConfig(q=0.2))
        by_tr = by_threshold(transformed, FdrConfig(q=0.2))
        assert np.array_equal(by_base.selected, by_tr.selected)


class TestSelectionRules:
    def test_hard_top_two(self):
        result = make_result([0.5, 0.1, 0.3])
        chosen = hard_threshold_select(result, 2)
        assert list(chosen.selected) == [0, 2]
        assert chosen.realized_threshold == 0.3

    def test_hard_tie_breaks_by_index(self):
        result = make_result([0.5, 0.5, 0.1])
        chosen = hard_threshold_select(result, 1)
        assert list(chosen.selected) == [0]

    def test_hard_full_set(self):
        result = make_result([0.5, 0.1, 0.3])
        assert list(hard_threshold_select(result, 3).selected) == [0, 1, 2]

    def test_hard_bad_size(self):
        result = make_result([0.5, 0.1, 0.3])
        for d in (0, 4):
            with pytest.raises(InvalidSize):
                hard_threshold_select(result, d)

    def test_level_select(self):
        result = make_result([0.5, 0.1, 0.3])
        assert list(level_threshold_select(result, 0.2).selected) == [0, 2]
        assert list(level_threshold_select(result, np.inf).selected) == []
        assert list(level_threshold_select(result, -np.inf).selected) == [0, 1, 2]

    def test_rules_agree_without_boundary_ties(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal((64, 10))
        y = x @ np.linspace(1, 0.1, 10) + 0.2 * rng.standard_normal(64)
        result = screen_all(Dataset(x, y), SliceConfig(c=4, tie_seed=3))
        for d in (1, 3, 10):
            cutoff = result.omega[result.order[d - 1]]
            hard = hard_threshold_select(result, d)
            level = level_threshold_select(result, cutoff)
            assert np.array_equal(hard.selected, level.selected)


class TestMinimumModelSize:
    def test_rank_positions(self):
        result = make_result([0.9, 0.8, 0.7, 0.1, 0.2, 0.3, 0.6])
        # active at descending ranks {1, 2, 3, 7} -> MMS 7
        assert minimum_model_size(result, [0, 1, 2, 3]) == 7

    def test_perfect_ranking(self):
        result = make_result([0.9, 0.8, 0.7, 0.1, 0.0])
        assert minimum_model_size(result, [0, 1, 2]) == 3

    def test_empty_active_set(self):
        result = make_result([0.9, 0.8])
        with pytest.raises(EmptyActiveSet):
            minimum_model_size(result, [])

    @pytest.mark.parametrize("active, entry", [
        ([0.5], "0.5"), ([0, 2.9], "2.9"), ([True], "True"),
        (np.array([1.0]), "np.float64(1.0)"),
    ])
    def test_non_integer_index_is_refused(self, active, entry):
        # a cast to intp would read 0.5 as column 0 and 2.9 as column 2
        result = make_result([0.9, 0.8, 0.7])
        with pytest.raises(ConfigError) as info:
            minimum_model_size(result, active)
        assert str(info.value) == f"active index must be an integer, got {entry}"


class TestAugment:
    def test_identity(self):
        rng = np.random.default_rng(9)
        data = Dataset(rng.standard_normal((16, 5)), rng.standard_normal(16),
                       names=tuple("abcde"))
        same = augment_with_noise(data, keep=range(5), num_aux=0, seed=1)
        assert np.array_equal(same.x, data.x)
        assert same.names == data.names

    def test_aux_columns_appended(self):
        rng = np.random.default_rng(10)
        data = Dataset(rng.standard_normal((16, 4)), rng.standard_normal(16),
                       names=("a", "b", "c", "d"))
        augmented = augment_with_noise(data, keep=[2], num_aux=3, seed=1)
        assert augmented.p == 4
        assert augmented.names == ("c", "aux_0001", "aux_0002", "aux_0003")
        assert np.array_equal(augmented.x[:, 0], data.x[:, 2])

    def test_pure_noise_by_selects_nothing_mostly(self):
        # small c keeps the null z close to normal, so the adaptive rule
        # stays empty under the global null in nearly every seed
        empty = 0
        seeds = 30
        for seed in range(seeds):
            rng = np.random.default_rng(2000 + seed)
            data = Dataset(rng.standard_normal((512, 5)), rng.standard_normal(512))
            noise = augment_with_noise(data, keep=[], num_aux=150, seed=seed)
            result = screen_all(noise, SliceConfig(c=4, tie_seed=seed))
            decision = by_threshold(result, FdrConfig(q=0.1))
            empty += decision.num_selected == 0
        assert empty >= 0.9 * seeds


class TestSureScreeningProperties:
    def test_sure_screening_rate(self, study1_reports):
        assert study1_reports[32].p_a >= 0.98

    def test_rank_consistency_rate(self, study1_reports):
        assert study1_reports[32].rank_consistent_proportion >= 0.98


def test_resolve_threads_env_cap(monkeypatch):
    monkeypatch.setenv("SIT_SCREEN_THREADS", "2")
    assert resolve_threads(8) == 2
    assert resolve_threads(1) == 1
    monkeypatch.delenv("SIT_SCREEN_THREADS")
    assert resolve_threads(3) == 3


@pytest.mark.parametrize("cap, requested, message", [
    ("0", None, "SIT_SCREEN_THREADS must be at least 1"),
    ("-2", 4, "SIT_SCREEN_THREADS must be at least 1"),
    ("2.5", None, "SIT_SCREEN_THREADS must be an integer, got '2.5'"),
    ("4", 0, "threads must be at least 1"),
])
def test_a_thread_count_below_one_is_a_config_error(monkeypatch, cap, requested, message):
    # a cap below 1 must not run one worker, whatever was asked
    monkeypatch.setenv("SIT_SCREEN_THREADS", cap)
    with pytest.raises(ConfigError) as info:
        resolve_threads(requested)
    assert str(info.value) == message


def _column(rng, kind, n):
    if kind == "tie-free":
        return rng.standard_normal(n)
    if kind == "integers":
        return rng.integers(-2, 3, n).astype(float)
    if kind == "signed-zeros":
        return rng.choice([-0.0, 0.0, 1.0], n)
    return np.full(n, 1.5)  # constant


KINDS = ("tie-free", "integers", "signed-zeros", "constant")


@st.composite
def block_datasets(draw):
    """More columns than one kernel block, with tied columns past each boundary."""
    n = draw(st.integers(33, 64))
    c = draw(st.sampled_from([2, 3, 4, 8]))
    step = BLOCK_CELLS // n
    p = step + draw(st.integers(1, 24))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    kinds = rng.choice(KINDS, p)
    kinds[[0, step - 1, step, p - 1]] = draw(
        st.lists(st.sampled_from(KINDS[1:]), min_size=4, max_size=4)
    )
    x = np.column_stack([_column(rng, kind, n) for kind in kinds])
    if draw(st.booleans()):
        y = rng.standard_normal(n)
    else:
        # each value appears at least 8 times; trimming drops at most 7 rows
        y = rng.permutation(np.arange(n) % 4).astype(float)
    return x, y, c, seed, step


@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(block_datasets())
def test_block_kernel_matches_single_column_paths(instance):
    x, y, c, master, step = instance
    data = Dataset(x, y)
    config = SliceConfig(c=c, tie_seed=master)
    result = screen_all(data, config, threads=1)
    for threads in (2, 8):
        other = screen_all(data, config, threads=threads)
        assert other.omega.tobytes() == result.omega.tobytes()
        assert other.z.tobytes() == result.z.tobytes()
        assert other.p_values.tobytes() == result.p_values.tobytes()
    for k in range(data.p):
        single = sliced_estimate(
            PairedSample(x[:, k], y),
            SliceConfig(c=c, tie_seed=derive_seed(master, k)),
            calibration=result.calibration,
        )
        assert (result.omega[k], result.z[k], result.p_values[k]) == (
            single.omega_hat, single.z, single.p_value
        )
    sampled = np.random.default_rng(master).integers(0, data.p, 4)
    for k in {0, step - 1, step, data.p - 1, *sampled}:
        column = SliceConfig(c=c, tie_seed=derive_seed(master, k))
        assert result.omega[k] == oracle_estimate(PairedSample(x[:, k], y), column)


@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.integers(33, 100), st.sampled_from([3, 4, 8, 32]), st.integers(0, 2**32 - 1),
       st.booleans(), st.integers(1, 24))
def test_a_trimmed_screen_is_the_screen_of_its_kept_rows(n, c, master, tied_y, extra):
    # every column drops the same rows, and the kept rows take the keys of
    # their kept positions: tied, integer and signed-zero columns at the
    # kept screen's block boundaries must give its bits
    assume(n % c and n // c >= 2)
    kept = np.delete(np.arange(n), dropped_rows(n, n % c))
    step = BLOCK_CELLS // kept.size
    p = step + extra
    rng = np.random.default_rng(master)
    kinds = rng.choice(KINDS, p)
    kinds[[0, step - 1, step, p - 1]] = rng.choice(KINDS[1:3], 4)
    x = np.column_stack([_column(rng, kind, n) for kind in kinds])
    y = rng.permutation(np.arange(n) % 2).astype(float) if tied_y else rng.standard_normal(n)
    assume(np.unique(y[kept]).size > 1)
    config = SliceConfig(c=c, tie_seed=master)
    expected = screen_all(Dataset(x[kept], y[kept]), config, threads=1).omega.tobytes()
    for threads in (1, 2, 8):
        assert screen_all(Dataset(x, y), config, threads=threads).omega.tobytes() == expected


@pytest.mark.parametrize("blocks, extra", [(1, -1), (1, 0), (1, 1), (2, -1), (2, 0), (2, 1)])
@pytest.mark.parametrize("n", [64, 67])  # c = 4 divides 64; 67 trims 3 rows
@pytest.mark.parametrize("tied_y", [False, True])
def test_screens_of_whole_and_short_blocks_match_the_oracle(blocks, extra, n, tied_y):
    # p = k * step - 1, k * step and k * step + 1: a short last block, whole
    # blocks only, and one column past them, where step is the block width
    c, master = 4, 17 + blocks + extra
    step = BLOCK_CELLS // n
    p = blocks * step + extra
    rng = np.random.default_rng(master)
    kinds = rng.choice(["tie-free"] * 6 + ["integers", "signed-zeros"], p)
    edges = sorted({0, step - 1, step, p - 1} & set(range(p)))
    kinds[edges] = rng.choice(["tie-free", "integers", "signed-zeros"], len(edges))
    x = np.column_stack([_column(rng, kind, n) for kind in kinds])
    y = rng.integers(0, 6, n).astype(float) if tied_y else rng.standard_normal(n)
    data = Dataset(x, y)
    config = SliceConfig(c=c, tie_seed=master)
    result = screen_all(data, config, threads=1)
    for threads in (2, 8):
        other = screen_all(data, config, threads=threads)
        assert other.omega.tobytes() == result.omega.tobytes()
        assert other.p_values.tobytes() == result.p_values.tobytes()
    for k in {*edges, *rng.integers(0, p, 6).tolist()}:
        column = SliceConfig(c=c, tie_seed=derive_seed(master, k))
        assert result.omega[k] == oracle_estimate(PairedSample(x[:, k], y), column)


def test_tie_detection_decides_the_bits():
    # -0.0 and 0.0 compare equal, so this column's order needs its tie-break
    # keys; for the master picked here the bare argsort order gives
    # different bits.  It sits first in the second kernel block.
    n, c = 8, 2
    step = BLOCK_CELLS // n
    tied = np.array([0.0, -0.0, 1.0, -0.0, 0.0, 1.0, 0.0, -0.0])
    y = np.array([3.0, 1, 4, 1, 5, 9, 2, 6])
    untied = np.empty(n)
    untied[np.argsort(tied)] = np.arange(n)

    def oracle(master, column):
        config = SliceConfig(c=c, tie_seed=derive_seed(master, step))
        return oracle_estimate(PairedSample(column, y), config)

    master = next((m for m in range(64) if oracle(m, untied) != oracle(m, tied)), None)
    assert master is not None
    x = np.random.default_rng(1).standard_normal((n, step + 1))
    x[:, step] = tied
    result = screen_all(Dataset(x, y), SliceConfig(c=c, tie_seed=master))
    assert result.omega[step] == oracle(master, tied)


def test_trimmed_tied_screen_calls_no_choice(monkeypatch):
    rng = np.random.default_rng(12)
    x = rng.binomial(2, 0.3, (101, 40)).astype(float)  # every column tied
    y = rng.integers(0, 4, 101).astype(float)
    calls = []

    class Counting(np.random.Generator):
        def choice(self, *args, **kwargs):
            calls.append(args)
            return super().choice(*args, **kwargs)

    monkeypatch.setattr(
        np.random, "default_rng", lambda seed=None: Counting(np.random.PCG64(seed))
    )
    config = SliceConfig(c=4, tie_seed=3)
    result = screen_all(Dataset(x, y), config, threads=2)
    assert calls == []
    monkeypatch.undo()
    for k in (0, 39):
        column = SliceConfig(c=4, tie_seed=derive_seed(3, k))
        assert result.omega[k] == oracle_estimate(PairedSample(x[:, k], y), column)


def test_a_wide_trimmed_screen_of_a_binary_response_draws_in_small_tables():
    # 31 of 95 rows trimmed: the kept rows are gathered a block at a time,
    # never the whole design at once
    rng = np.random.default_rng(15)
    n, p = 95, 8192  # n mod 32 = 31
    data = Dataset(rng.standard_normal((n, p)), rng.integers(0, 2, n).astype(float))
    config = SliceConfig(c=32, tie_seed=4)
    screen_all(Dataset(data.x[:, :64], data.y), config, threads=1)  # first-call set-up
    tracemalloc.start()
    try:
        screen_all(data, config, threads=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < data.x.nbytes / 2


def test_tie_free_blocks_work_in_the_workspace():
    # tie-free float blocks and every int8 or int16 block, untrimmed or
    # trimmed, allocate no block-sized temporary: beyond the workspace (16
    # bytes a cell) only numpy's 64 KB broadcast buffer and per-column
    # vectors, under one block of int32 ranks; a trimmed integer block also
    # gathers its kept rows, one block of the design's dtype
    rng = np.random.default_rng(16)
    c = 32
    step = BLOCK_CELLS // 1024
    designs = [(1024, rng.standard_normal((1024, 4 * step)))]
    for dtype in (np.int8, np.int16):
        info = np.iinfo(dtype)
        for n in (1024, 1000):
            designs.append((n, rng.integers(info.min, info.max + 1, (n, 4 * step), dtype=dtype)))
    for n, x in designs:
        kept, counts = estimator._trim(rank_counts(rng.standard_normal(n)), c)
        seeds = tie_keys(np.uint64(3), tie_counters(np.arange(x.shape[1])))
        first = estimator._omegas(x, kept, counts, seeds, c, 0, x.shape[1])
        tracemalloc.start()
        try:
            again = estimator._omegas(x, kept, counts, seeds, c, 0, x.shape[1])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert again.tobytes() == first.tobytes()
        gathered = 0 if kept is None else x.itemsize * step * n
        assert peak < 16 * step * n + 4 * BLOCK_CELLS + gathered, (x.dtype, n)


@pytest.mark.parametrize("at", ["first", "chunk-end", "chunk-start", "last", "response"])
def test_dataset_refuses_a_non_finite_entry_anywhere(at):
    # the covariates are checked a few rows at a time
    p = 4096
    rows = screening.FINITE_CELLS // p
    x, y = np.zeros((3 * rows + 1, p)), np.zeros(3 * rows + 1)
    row = {"first": 0, "chunk-end": rows - 1, "chunk-start": rows, "last": 3 * rows}
    if at == "response":
        y[-1] = np.inf
    else:
        x[row[at], p - 1] = np.nan
    with pytest.raises(ConfigError, match="finite"):
        Dataset(x, y)


@pytest.mark.parametrize(
    "kind", ["int64", "negative-int64", "uint64", "complex", "longdouble"]
)
@pytest.mark.parametrize("where", ["x", "y", "sample-x", "sample-y", "calibration"])
def test_entries_float64_cannot_hold_are_refused(kind, where):
    # 64 distinct integers near 2**60, or longdoubles 1 + k 2**-60, would
    # round to one float64 and screen as a constant; a complex entry would
    # lose its imaginary part
    if kind == "longdouble" and np.finfo(np.longdouble).nmant <= 52:
        pytest.skip("longdouble is float64 here")
    big = 2**60 + np.arange(64, dtype=np.int64)
    close = 1 + np.arange(64, dtype=np.longdouble) * np.longdouble(2) ** -60
    values = {"int64": big, "negative-int64": -big, "uint64": big.astype(np.uint64),
              "complex": np.arange(64) + 1j, "longdouble": close}[kind]
    other = np.arange(64.0)
    build = {
        "x": lambda: Dataset(values[:, None], other),
        "y": lambda: Dataset(other[:, None], values),
        "sample-x": lambda: PairedSample(values, other),
        "sample-y": lambda: PairedSample(other, values),
        "calibration": lambda: auto_calibration(values),
    }[where]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        match = {"complex": "imaginary", "longdouble": "exactly"}.get(kind, r"2\*\*53")
        with pytest.raises(ConfigError, match=match):
            build()


def test_a_longdouble_input_names_its_first_rounded_entry():
    # the message names the first entry float64 would round, and a NaN is
    # left to the finiteness check
    if np.finfo(np.longdouble).nmant <= 52:
        pytest.skip("longdouble is float64 here")
    values = np.arange(64, dtype=np.longdouble)
    values[[9, 5]] += np.longdouble(2) ** -59
    with pytest.raises(ConfigError, match=re.escape(f"entry {values[5]!r} is not held")):
        Dataset(values[:, None], np.arange(64.0))
    values[[5, 9]] = np.nan
    with pytest.raises(ConfigError, match="finite"):
        Dataset(values[:, None], np.arange(64.0))


@pytest.mark.parametrize(
    "kind", ["int", "negative-int", "fraction", "text", "object-text", "none"]
)
@pytest.mark.parametrize("where", ["x", "y", "sample-x", "sample-y", "calibration"])
def test_entries_that_are_not_exact_real_numbers_are_refused(kind, where):
    # Python ints beyond int64 make an object array, which float64 would
    # round (64 values near 2**70 to one constant); a third is no float64,
    # and text or None is no number at all
    values = {
        "int": [2**70 + k for k in range(64)],
        "negative-int": [-(2**70) - k for k in range(64)],
        "fraction": [Fraction(1, 3)] + list(range(63)),
        "text": [str(k) for k in range(64)],
        "object-text": np.array(["a"] * 32 + ["b"] * 32, dtype=object),
        "none": [None] + list(range(63)),
    }[kind]
    column = np.array(values, dtype=object if kind != "text" else None)
    other = np.arange(64.0)
    build = {
        "x": lambda: Dataset(column[:, None], other),
        "y": lambda: Dataset(other[:, None], column),
        "sample-x": lambda: PairedSample(column, other),
        "sample-y": lambda: PairedSample(other, column),
        "calibration": lambda: auto_calibration(column),
    }[where]
    match = {"int": r"2\*\*53", "negative-int": r"2\*\*53", "fraction": "exactly"}
    with pytest.raises(ConfigError, match=match.get(kind, "real numbers")):
        build()


def test_an_object_array_of_exact_numbers_screens_as_floats():
    rng = np.random.default_rng(10)
    x = rng.integers(-(2**53), 2**53, (64, 3)).astype(float)
    x[:, 2] = rng.standard_normal(64)
    y = rng.standard_normal(64)
    objects = np.array([[int(a), int(b), float(c)] for a, b, c in x.tolist()], dtype=object)
    config = SliceConfig(c=4, tie_seed=5)
    got = screen_all(Dataset(objects, y), config, threads=1)
    assert got.omega.tobytes() == screen_all(Dataset(x, y), config, threads=1).omega.tobytes()


def test_integers_up_to_2_53_screen_as_their_ranks():
    edge = np.r_[2**53, -(2**53), 2**53 - 1 - np.arange(62)].astype(np.int64)
    rng = np.random.default_rng(9)
    y = rng.standard_normal(64)
    x = np.column_stack([edge, rng.permutation(edge)])
    ranks = np.argsort(np.argsort(x, axis=0), axis=0).astype(float)
    config = SliceConfig(c=4, tie_seed=3)
    result = screen_all(Dataset(x, y), config, threads=1)
    assert result.omega.tobytes() == screen_all(Dataset(ranks, y), config, threads=1).omega.tobytes()
    assert auto_calibration(edge).mode == "fixed"
    assert PairedSample(edge, y).x.tolist() == [float(v) for v in edge.tolist()]



def _int_column(rng, kind, n):
    if kind == "genotype":
        return rng.binomial(2, rng.uniform(0.05, 0.5), n).astype(float)
    if kind == "full-range":
        return rng.integers(-128, 128, n).astype(float)
    if kind == "extremes":
        return rng.choice([-128.0, -0.0, 0.0, 127.0], n)
    if kind == "int16-full-range":
        return rng.integers(-32768, 32768, n).astype(float)
    if kind == "counts":
        return rng.integers(0, 1001, n).astype(float)
    if kind == "int16-extremes":
        return rng.choice([-32768.0, -0.0, 0.0, 32767.0], n)
    return np.full(n, -0.0)  # constant


INT8_KINDS = ("genotype", "full-range", "extremes", "constant")
INT16_KINDS = ("int16-full-range", "counts", "int16-extremes")


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.integers(33, 200), st.sampled_from([3, 4, 8, 32]), st.integers(0, 2**32 - 1),
       st.booleans(), st.integers(1, 24), st.sampled_from([np.int8, np.int16]))
def test_an_int8_design_screens_as_its_float_columns(n, c, master, tied_y, extra, dtype):
    # integer columns held as int8 or int16 take their levels from their
    # bits; inside a float design they take the float sort
    assume(n // c >= 2)
    kept = np.delete(np.arange(n), dropped_rows(n, n % c))
    step = BLOCK_CELLS // kept.size
    p = step + extra
    rng = np.random.default_rng(master)
    edges = INT8_KINDS[:3] if dtype == np.int8 else INT16_KINDS
    kinds = rng.choice(INT8_KINDS + (INT16_KINDS if dtype == np.int16 else ()), p)
    kinds[[0, step - 1, step, p - 1]] = rng.choice(edges, 4)
    x = np.column_stack([_int_column(rng, kind, n) for kind in kinds])
    y = rng.permutation(np.arange(n) % 3).astype(float) if tied_y else rng.standard_normal(n)
    assume(np.unique(y[kept]).size > 1)
    small = Dataset(x, y)
    wide = Dataset(np.column_stack([x, rng.standard_normal(n)]), y)
    assert (small.x.dtype, wide.x.dtype) == (dtype, np.float64)
    config = SliceConfig(c=c, tie_seed=master)
    for threads in (1, 2, 8):
        result = screen_all(small, config, threads=threads)
        expected = screen_all(wide, config, threads=threads)
        for field in ("omega", "z", "p_values"):
            assert getattr(result, field).tobytes() == getattr(expected, field)[:p].tobytes()
        assert result.order.tobytes() == expected.order[expected.order != p].tobytes()
    for k in {0, step - 1, step, p - 1, *rng.integers(0, p, 3).tolist()}:
        column = SliceConfig(c=c, tie_seed=derive_seed(master, k))
        assert result.omega[k] == oracle_estimate(PairedSample(x[:, k], y), column)


@pytest.mark.parametrize("row", [0, 3 * (screening.FINITE_CELLS // 64)])
@pytest.mark.parametrize("value, dtype", [
    (127.0, np.int8), (-128.0, np.int8), (-0.0, np.int8),
    (128.0, np.int16), (-129.0, np.int16), (32767.0, np.int16), (-32768.0, np.int16),
    (32768.0, np.float64), (-32769.0, np.float64), (0.5, np.float64), (1e300, np.float64),
    (np.nan, None), (np.inf, None), (-np.inf, None),
])
def test_the_int8_probe_reads_every_cell(row, value, dtype):
    # the first row, then FINITE_CELLS cells at a time, for int8 and then
    # int16; a value both probes turn away keeps float64, and a non-finite
    # one the finiteness refusal
    x = np.random.default_rng(4).integers(-3, 3, (3 * (screening.FINITE_CELLS // 64) + 1, 64))
    x = x.astype(float)
    x[row, 63] = value
    y = np.arange(x.shape[0], dtype=float)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if dtype is None:
            with pytest.raises(ConfigError, match="all entries must be finite"):
                Dataset(x, y)
            return
        data = Dataset(x, y)
    assert data.x.dtype == dtype and data.x.flags.c_contiguous
    assert np.array_equal(data.x, x)


def test_an_int8_design_is_kept_and_a_bool_one_is_cast():
    rng = np.random.default_rng(6)
    x, y = rng.integers(-128, 128, (40, 5), dtype=np.int8), rng.standard_normal(40)
    assert Dataset(x, y).x is x
    strided = x[:, ::2]
    assert Dataset(strided, y).x is strided  # in any layout
    counts = rng.integers(-32768, 32768, (40, 5)).astype(np.int16)
    assert Dataset(counts, y).x is counts
    flags = rng.random((40, 5)) < 0.5
    data = Dataset(flags, y)
    assert data.x.dtype == np.int8 and np.array_equal(data.x, flags)
    config = SliceConfig(c=4, tie_seed=2)
    screened = screen_all(data, config, threads=1).omega.tobytes()
    assert screened == screen_all(Dataset(flags + 0.5, y), config, threads=1).omega.tobytes()
    wide = np.array([[40000, 1], [2, 3]] * 10)  # int64 out of the int16 range
    assert Dataset(wide, np.arange(20.0)).x.dtype == np.float64
    exact = np.arange(64, dtype=np.longdouble) % 3  # longdoubles float64 holds exactly
    data = Dataset(exact[:, None], exact + 0.5)
    assert data.x.dtype == np.int8 and data.x[:, 0].tolist() == exact.tolist()
    assert data.y.dtype == np.float64 and data.y.tolist() == (exact + 0.5).tolist()


def test_a_float_genotype_design_becomes_int8_in_small_chunks():
    rng = np.random.default_rng(8)
    x = rng.binomial(2, 0.3, (2000, 1000)).astype(float)
    y = rng.standard_normal(2000)
    Dataset(x[:2], y[:2])  # first-call set-up
    tracemalloc.start()
    try:
        data = Dataset(x, y)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert data.x.dtype == np.int8
    # the int8 copy, and two float64 chunks of FINITE_CELLS cells at most
    assert peak < x.nbytes / 8 + 2 * 8 * screening.FINITE_CELLS

def _packed_column(rng, kind, n, c):
    run = 1.0 + rng.permutation(n) * 2.0**-52  # distinct values in one bucket
    if kind == "ulp-run":
        return run
    if kind == "negative-ulp-run":
        return -run
    if kind == "mixed-ulp-run":
        return rng.choice([-1.0, 1.0], n) * run
    if kind == "signed-zero-pair":
        # one -0.0 and one 0.0, the only tie, across a slice boundary when
        # nothing is trimmed
        below = c * int(rng.integers(1, n // c)) - 1
        x = np.concatenate(
            [-1 - rng.random(below), [-0.0, 0.0], 1 + rng.random(n - below - 2)]
        )
        return rng.permutation(x)
    if kind == "tiny":
        return rng.choice([-0.0, 0.0, 5e-324, -5e-324], n)
    if kind == "subnormal":
        return rng.integers(-(2**52) + 1, 2**52, n) * 5e-324
    if kind == "exponents":
        signs = rng.choice([-1.0, 1.0], n)
        return signs * rng.uniform(1, 2, n) * 2.0 ** rng.integers(-1070, 1021, n)
    if kind == "negative-integers":
        return rng.integers(-40, -3, n).astype(float)
    if kind in ("range-2047", "range-2048"):
        # the extremes repeat past any trim, so the kept range is exact:
        # integers 2**11 - 1 and 2**11 apart in a float design
        x = rng.integers(0, 2048, n)
        x[:8], x[8:16] = 0, 2047 if kind == "range-2047" else 2048
        return rng.permutation(x).astype(float) - 1000
    if kind == "signed-zero-integers":
        return rng.choice([-0.0, 0.0, 1.0, -1.0], n)
    if kind == "huge-integers":
        return 2.0**53 + 2 * rng.integers(0, 4, n).astype(float)
    if kind == "integer-permutation":
        return rng.permutation(n).astype(float) - n // 2
    if kind == "gaussian":
        return rng.standard_normal(n)
    return rng.binomial(2, rng.uniform(0.05, 0.5), n).astype(float)  # genotype


PACKED_KINDS = ("ulp-run", "negative-ulp-run", "mixed-ulp-run", "signed-zero-pair",
                "tiny", "subnormal", "exponents", "genotype", "negative-integers",
                "range-2047", "range-2048", "signed-zero-integers", "huge-integers",
                "integer-permutation", "gaussian")


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.integers(5, 7), st.booleans(), st.sampled_from([2, 3, 4, 8]),
       st.integers(0, 2**32 - 1), st.booleans())
def test_packed_order_on_adversarial_columns(k, plus_one, c, master, tied_y):
    # n = 2**k fills the position bits exactly; n = 2**k + 1 needs one more,
    # and is trimmed unless c divides it
    n = 2**k + plus_one
    rng = np.random.default_rng(master)
    kinds = [*PACKED_KINDS, *rng.choice(PACKED_KINDS, 6)]
    x = np.column_stack([_packed_column(rng, kind, n, c) for kind in kinds])
    y = rng.integers(0, 5, n).astype(float) if tied_y else rng.standard_normal(n)
    data = Dataset(x, y)
    config = SliceConfig(c=c, tie_seed=master)
    result = screen_all(data, config, threads=1)
    for threads in (2, 8):
        other = screen_all(data, config, threads=threads)
        assert other.omega.tobytes() == result.omega.tobytes()
        assert other.z.tobytes() == result.z.tobytes()
        assert other.p_values.tobytes() == result.p_values.tobytes()
    for j in range(data.p):
        column = SliceConfig(c=c, tie_seed=derive_seed(master, j))
        assert result.omega[j] == oracle_estimate(PairedSample(x[:, j], y), column)


@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.integers(5, 7), st.booleans(), st.sampled_from([2, 3, 4, 8]),
       st.integers(0, 2**32 - 1))
def test_single_columns_of_every_packed_kind_match_the_oracle(k, plus_one, c, master):
    # integer columns and float columns share a block in a screen but not
    # alone: each column's sliced_estimate must give the screen's bits
    n = 2**k + plus_one
    rng = np.random.default_rng(master)
    x = np.column_stack([_packed_column(rng, kind, n, c) for kind in PACKED_KINDS])
    y = rng.integers(0, 5, n).astype(float)
    result = screen_all(Dataset(x, y), SliceConfig(c=c, tie_seed=master), threads=2)
    for j in range(x.shape[1]):
        sample = PairedSample(x[:, j], y)
        column = SliceConfig(c=c, tie_seed=derive_seed(master, j))
        single = sliced_estimate(sample, column, calibration=result.calibration)
        assert single.omega_hat == result.omega[j] == oracle_estimate(sample, column)


def test_level_table_follows_the_datasets_own_response():
    rng = np.random.default_rng(12)
    x, y = rng.standard_normal((40, 3)), rng.integers(0, 3, 40).astype(float)
    data = Dataset(x, y)
    first = screen_all(data, SliceConfig(c=4))
    y[:] = rng.standard_normal(40)  # the caller's array, not the dataset's
    assert screen_all(data, SliceConfig(c=4)).z.tobytes() == first.z.tobytes()
    with pytest.raises(ValueError):
        data.y[0] = 1.0


def test_response_is_sorted_once_per_screen(monkeypatch):
    calls = []

    def counted(y, real=estimator.rank_counts):
        calls.append(len(y))
        return real(y)

    monkeypatch.setattr(estimator, "rank_counts", counted)
    monkeypatch.setattr(screening, "rank_counts", counted)
    rng = np.random.default_rng(9)
    y = rng.integers(0, 3, 50).astype(float)  # tied: the plug-in calibration
    result = screen_all(Dataset(rng.standard_normal((50, 4)), y), SliceConfig(c=4))
    assert result.calibration.mode == "plugin"
    assert calls == [50]


@pytest.mark.parametrize("kind", ["tie-free", "tied", "signed-zeros"])
def test_screen_calibration_matches_unique_count_rule(kind):
    rng = np.random.default_rng(10)
    y = {
        "tie-free": rng.standard_normal(40),
        "tied": rng.integers(0, 4, 40).astype(float),
        "signed-zeros": np.concatenate([[-0.0, 0.0], rng.standard_normal(38)]),
    }[kind]
    if np.unique(y).shape[0] == y.shape[0]:
        expected = VarianceCalibration.fixed()
    else:
        expected = VarianceCalibration.from_counts(rank_counts(y), "plugin")
    x = rng.standard_normal((40, 3))
    result = screen_all(Dataset(x, y), SliceConfig(c=4))
    assert result.calibration == expected == auto_calibration(y)
    assert (kind == "tie-free") == (expected.mode == "fixed")
    single = sliced_estimate(PairedSample(x[:, 0], y), SliceConfig(4, derive_seed(0, 0)))
    assert single.z == result.z[0]
