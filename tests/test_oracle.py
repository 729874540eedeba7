import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sitscreen import PairedSample, SliceConfig, sliced_estimate
from sitscreen.errors import DegenerateResponse
from sitscreen.oracle import oracle_estimate, oracle_threshold


def test_oracle_hand_values():
    assert oracle_estimate(PairedSample([1, 2, 3, 4], [1, 2, 3, 4]), SliceConfig(c=2)) == 0.4
    assert oracle_estimate(PairedSample([1, 2, 3, 4], [1, 4, 2, 3]), SliceConfig(c=2)) == -0.2


def test_oracle_constant_response():
    with pytest.raises(DegenerateResponse):
        oracle_estimate(PairedSample([1, 2, 3, 4], [7, 7, 7, 7]), SliceConfig(c=2))


@st.composite
def instances(draw):
    n = draw(st.integers(8, 48))
    discrete = draw(st.booleans())
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    if discrete:
        x = rng.integers(-3, 4, n).astype(float)
        y = rng.integers(-3, 4, n).astype(float)
    else:
        x = rng.standard_normal(n)
        y = rng.standard_normal(n)
    c = draw(st.sampled_from([2, 3, 4, 8]))
    return x, y, c, seed


@settings(max_examples=80, deadline=None)
@given(instances())
# tied values in both x and y
@example((np.array([3.0, 1, 4, 1, 5, 9, 2, 6]),
          np.array([2.0, 7, 1, 8, 2, 8, 1, 8]), 2, 11))
def test_fast_equals_oracle_exactly(instance):
    x, y, c, seed = instance
    if len(x) < 2 * c:
        return
    sample = PairedSample(x, y)
    config = SliceConfig(c=c, tie_seed=seed)
    try:
        fast = sliced_estimate(sample, config).omega_hat
    except DegenerateResponse:
        with pytest.raises(DegenerateResponse):
            oracle_estimate(sample, config)
        return
    assert fast == oracle_estimate(sample, config)


def test_threshold_single_pvalue_above_q():
    assert oracle_threshold(np.array([0.2]), np.array([0.3]), q=0.2).size == 0


def test_threshold_all_negative():
    selected = oracle_threshold(
        np.array([-0.1, -0.2, -0.5]), np.array([0.7, 0.8, 0.9]), q=0.5
    )
    assert selected.size == 0


def test_threshold_scan_simple():
    omega = np.array([0.5, 0.4, 0.3, 0.01])
    p_values = np.array([0.001, 0.002, 0.003, 0.4])
    selected = oracle_threshold(omega, p_values, q=0.2, adjustment="by")
    assert list(selected) == [0, 1, 2]
