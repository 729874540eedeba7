import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sitscreen import (
    Dataset,
    FdrConfig,
    PairedSample,
    SliceConfig,
    by_threshold,
    hard_threshold_select,
    screen_all,
    sliced_estimate,
)
from sitscreen.errors import (
    AllColumnsConstant,
    DegenerateResponse,
    EmptyActiveSet,
    InvalidSize,
    SampleTooSmall,
)
from sitscreen.fdr import level_threshold_select
from sitscreen.oracle import oracle_estimate
from sitscreen.screening import (
    BLOCK_CELLS,
    augment_with_noise,
    minimum_model_size,
    resolve_threads,
)
from sitscreen.seeding import derive_seed


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


def test_tie_detection_decides_the_bits():
    # -0.0 and 0.0 compare equal, so this column's order needs its tie-break
    # keys; the bare argsort order gives different bits.  It sits first in
    # the second kernel block.
    n, c, master = 8, 2, 0
    step = BLOCK_CELLS // n
    tied = np.array([0.0, -0.0, 1.0, -0.0, 0.0, 1.0, 0.0, -0.0])
    y = np.array([3.0, 1, 4, 1, 5, 9, 2, 6])
    x = np.random.default_rng(1).standard_normal((n, step + 1))
    x[:, step] = tied
    result = screen_all(Dataset(x, y), SliceConfig(c=c, tie_seed=master))
    column = SliceConfig(c=c, tie_seed=derive_seed(master, step))
    untied = np.empty(n)
    untied[np.argsort(tied)] = np.arange(n)
    expected = oracle_estimate(PairedSample(tied, y), column)
    assert result.omega[step] == expected
    assert oracle_estimate(PairedSample(untied, y), column) != expected
