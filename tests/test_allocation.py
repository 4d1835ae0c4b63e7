import math

import numpy as np
import pytest

from dpledger import (
    ClipSplit,
    InfiniteSensitivityError,
    PrivacyTuple,
    dim_adjusted_allocation,
    effective_z,
    proportional_allocation,
    split_clip_budget,
)


# -------------------------------------------------------------- effective_z


def test_effective_z_unit_tuple():
    assert effective_z([(1.0, 1.0)]) == 1.0


def test_effective_z_accepts_privacy_tuples():
    tuples = [PrivacyTuple(clip_s=3.0, sigma_sum=6.0), PrivacyTuple(clip_s=4.0, sigma_sum=8.0)]
    assert effective_z(tuples) == pytest.approx(math.sqrt(2.0), rel=1e-15)
    assert effective_z([(3.0, 6.0), (4.0, 8.0)]) == effective_z(tuples)


def test_effective_z_proportional_cancellation():
    # sigma_g = z sqrt(G) S_g makes S* collapse to 1/z
    z = 0.7
    for g_count in (1, 3, 7):
        tuples = [
            PrivacyTuple(s, z * math.sqrt(g_count) * s)
            for s in np.linspace(0.5, 4.0, g_count)
        ]
        assert effective_z(tuples) == pytest.approx(z, rel=1e-12)


def test_effective_z_validation():
    with pytest.raises(ValueError):
        effective_z([])
    with pytest.raises(InfiniteSensitivityError):
        effective_z([(1.0, 0.0)])
    with pytest.raises(ValueError):
        effective_z([(1.0, -1.0)])
    with pytest.raises(ValueError):
        effective_z([(0.0, 1.0)])


def test_effective_z_refuses_s_star_out_of_range():
    # finite, nonzero tuples whose S* overflows to inf or underflows to 0
    with pytest.raises(ValueError, match="out of range"):
        effective_z([PrivacyTuple(1.0, 2.0**-1074)])
    with pytest.raises(ValueError, match="out of range"):
        effective_z([PrivacyTuple(2.0**-1074, 1e300)])
    # a finite ratio whose square overflows (float ** raises OverflowError)
    with pytest.raises(ValueError, match="out of range"):
        effective_z([PrivacyTuple(1e155, 1.0)])


def test_proportional_example():
    assert proportional_allocation(1.0, [2.0] * 4) == (4.0, 4.0, 4.0, 4.0)


def test_proportional_single_group_is_identity():
    assert proportional_allocation(1.0, [1.0]) == (1.0,)


def test_proportional_round_trips_to_target():
    rng = np.random.default_rng(11)
    for _ in range(50):
        g = int(rng.integers(1, 9))
        z = float(rng.uniform(0.3, 5.0))
        bounds = [(float(rng.uniform(0.1, 4.0)), int(rng.integers(1, 200))) for _ in range(g)]
        sigmas = proportional_allocation(z, [s for s, _ in bounds])
        tuples = [(s, sig) for (s, _), sig in zip(bounds, sigmas)]
        assert effective_z(tuples) == pytest.approx(z, rel=1e-12)


# ------------------------------------------------------------- dim-adjusted


def test_dim_adjusted_example():
    sigmas = dim_adjusted_allocation(1.0, [1.0, 1.0], [25, 75])
    assert sigmas[0] == pytest.approx(2.0, rel=1e-12)
    assert sigmas[1] == pytest.approx(math.sqrt(100.0 / 75.0), rel=1e-12)
    assert sigmas[1] == pytest.approx(1.1547, abs=1e-4)


def test_dim_adjusted_equal_dims_coincides_with_proportional():
    clips = [0.7, 1.3, 2.0]
    adj = dim_adjusted_allocation(1.5, clips, [40, 40, 40])
    prop = proportional_allocation(1.5, clips)
    assert adj == prop


def test_dim_adjusted_round_trips_to_target():
    rng = np.random.default_rng(12)
    for _ in range(50):
        g = int(rng.integers(1, 9))
        z = float(rng.uniform(0.3, 5.0))
        bounds = [(float(rng.uniform(0.1, 4.0)), int(rng.integers(1, 500))) for _ in range(g)]
        sigmas = dim_adjusted_allocation(z, *zip(*bounds))
        tuples = [(s, sig) for (s, _), sig in zip(bounds, sigmas)]
        assert effective_z(tuples) == pytest.approx(z, rel=1e-12)


def test_request_validation():
    def dim_adjusted(z, clips):
        return dim_adjusted_allocation(z, clips, [1] * len(clips))

    for allocate in (proportional_allocation, dim_adjusted):
        with pytest.raises(ValueError, match="target_z must be positive"):
            allocate(0.0, [1.0])
        with pytest.raises(ValueError, match="nonempty"):
            allocate(1.0, [])
        with pytest.raises(ValueError, match="clip bounds must be positive"):
            allocate(1.0, [-1.0])
    with pytest.raises(ValueError, match="dimensions must be at least 1"):
        dim_adjusted_allocation(1.0, [1.0], [0])


def test_dim_adjusted_takes_one_dim_per_clip():
    with pytest.raises(ValueError, match="as many dims"):
        dim_adjusted_allocation(1.0, [1.0, 1.0], [3])


# -------------------------------------------------------------- clip splits


def test_flat_split_keeps_budget_whole():
    assert split_clip_budget(2.5, [100], ClipSplit.FLAT) == (2.5,)
    # flat ignores extra groups: one bound covers everything
    assert split_clip_budget(2.5, [10, 20], ClipSplit.FLAT) == (2.5,)


def test_per_layer_split_example():
    got = split_clip_budget(2.0, [1, 1, 1, 1], ClipSplit.PER_LAYER)
    assert got == pytest.approx((1.0, 1.0, 1.0, 1.0), rel=1e-12)


def test_dim_fraction_split_example():
    got = split_clip_budget(1.0, [25, 75], ClipSplit.DIM_FRACTION)
    assert got[0] == pytest.approx(0.5, rel=1e-12)
    assert got[1] == pytest.approx(math.sqrt(0.75), rel=1e-12)
    assert got[1] == pytest.approx(0.866, abs=1e-3)


def test_splits_conserve_squared_budget():
    rng = np.random.default_rng(13)
    for _ in range(30):
        m = int(rng.integers(1, 9))
        dims = [int(rng.integers(1, 300)) for _ in range(m)]
        total = float(rng.uniform(0.2, 6.0))
        for strategy in (ClipSplit.PER_LAYER, ClipSplit.DIM_FRACTION):
            parts = split_clip_budget(total, dims, strategy)
            assert len(parts) == m
            assert sum(s * s for s in parts) == pytest.approx(
                total * total, rel=1e-12
            )


def test_split_validation():
    with pytest.raises(ValueError):
        split_clip_budget(0.0, [1], ClipSplit.FLAT)
    with pytest.raises(ValueError):
        split_clip_budget(1.0, [], ClipSplit.PER_LAYER)
    with pytest.raises(ValueError):
        split_clip_budget(1.0, [0], ClipSplit.DIM_FRACTION)
