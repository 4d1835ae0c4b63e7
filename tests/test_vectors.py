import math

import numpy as np
import pytest

from clip_cases import wide_range_member
from conftest import open_ledger
from dpledger import (
    GroupPartition,
    GroupSpec,
    PrivacyTuple,
    SecureStream,
    clip_rows,
    group_query,
)
from dpledger.vectors import _clip_factors, _clip_member


# ---------------------------------------------------------------- clipping
# one vector v is clipped as the one-row block v[None, :]


def test_clip_shrinks_to_bound():
    out = clip_rows(np.array([[3.0, 4.0]]), 1.0)[0]
    assert out == pytest.approx([0.6, 0.8], rel=1e-12)
    assert np.linalg.norm(out) <= 1.0 + 1e-12


def test_clip_identity_below_bound():
    v = np.array([0.3, 0.4])
    out = clip_rows(v[None, :], 1.0)[0]
    assert np.array_equal(out, v)


def test_clip_idempotent_bitwise():
    rng = np.random.default_rng(7)
    for _ in range(200):
        v = rng.normal(size=rng.integers(1, 20)) * rng.choice([1e-3, 1.0, 1e3])
        once = clip_rows(v[None, :], 1.0)[0]
        twice = clip_rows(once[None, :], 1.0)[0]
        assert np.array_equal(once, twice)
    # blocks and factored members at every magnitude and near the clip: a
    # clipped row measures at most s (1 - kappa_d), so it is kept
    for d in (1, 2, 100, 4096):
        for clip in (1.0, 0.37, 12.5):
            member = wide_range_member(rng, 60, d, clip)
            once = clip_rows(member.rows * member.scalars[:, None], clip)
            assert clip_rows(once, clip).tobytes() == once.tobytes()
            weights = _clip_member(member, _clip_factors([member], None, clip))
            assert _clip_factors([weights], None, clip) is None


def test_clip_norm_bound_randomized():
    # 1e4 random draws across scales; the bound must hold with slack 1e-12.
    rng = np.random.default_rng(11)
    dims = rng.integers(1, 50, size=10_000)
    for d in dims:
        v = rng.normal(size=int(d)) * 10.0 ** rng.uniform(-6, 6)
        s = 10.0 ** rng.uniform(-3, 3)
        assert np.linalg.norm(clip_rows(v[None, :], s)[0]) <= s * (1.0 + 1e-12)


def test_clip_positive_homogeneity():
    rng = np.random.default_rng(13)
    for _ in range(200):
        v = rng.normal(size=8)
        s = float(rng.uniform(0.1, 5.0))
        c = float(rng.uniform(0.1, 10.0))
        left = clip_rows((c * v)[None, :], c * s)[0]
        right = c * clip_rows(v[None, :], s)[0]
        assert np.allclose(left, right, rtol=1e-12, atol=0.0)


def test_clip_rejects_bad_inputs():
    with pytest.raises(ValueError):
        clip_rows(np.array([[1.0, 2.0]]), 0.0)
    with pytest.raises(ValueError):
        clip_rows(np.array([[1.0, 2.0]]), -1.0)
    with pytest.raises(ValueError):
        clip_rows(np.array([[1.0, math.nan]]), 1.0)
    with pytest.raises(ValueError):
        clip_rows(np.array([[1.0, math.inf]]), 1.0)


# -------------------------------------------------------------- joint scales


def _joint_estimates(vs, scales, clip_s):
    """Zero-noise joint query on one record with q * n = 1."""
    names = tuple(f"v{j}" for j in range(len(vs)))
    spec = GroupSpec(
        member_names=names,
        clip_s=clip_s,
        sigma_sum=0.0,
        joint_scales=tuple(scales),
    )
    ledger = open_ledger()
    batch = {name: np.asarray(v)[None, :] for name, v in zip(names, vs)}
    width = sum(block.shape[1] for block in batch.values())
    noise = SecureStream(b"vectors-tests-00", "noise", 0).standard_normal(width)
    est = group_query(batch, spec, noise, ledger=ledger, insecure_test_mode=True)
    return [est[name] for name in names]


def test_scale_then_clip_norm_at_most_sqrt_k():
    # Scaling each member by its own norm puts every piece on the unit
    # sphere, so the scaled concatenation has norm sqrt(k): the joint clip
    # at sqrt(k) does not bind, and the estimate is the record itself.
    rng = np.random.default_rng(19)
    for k in (1, 2, 5):
        vs = [rng.normal(size=4) + 0.1 for _ in range(k)]
        alphas = [float(np.linalg.norm(v)) for v in vs]
        for v, est in zip(vs, _joint_estimates(vs, alphas, math.sqrt(k))):
            assert np.allclose(est, v, rtol=1e-12, atol=0.0)


def test_scale_unscale_roundtrip():
    # the joint query divides member j by alphas[j] before the clip and
    # multiplies the estimate back afterwards
    rng = np.random.default_rng(23)
    vs = [0.1 * rng.normal(size=3), 0.01 * rng.normal(size=5)]
    back = _joint_estimates(vs, [2.0, 0.25], 1.0)
    for v, b in zip(vs, back):
        assert np.allclose(v, b, rtol=1e-15)


# ---------------------------------------------------------- specs and parts


def test_group_spec_defaults_and_validation():
    g = GroupSpec(
        member_names=("w", "b"),
        clip_s=1.0,
        sigma_sum=0.5,
    )
    assert g.name == "w+b"
    assert g.k == 2

    with pytest.raises(ValueError):
        GroupSpec(member_names=(), clip_s=1.0, sigma_sum=1.0)
    with pytest.raises(ValueError):
        GroupSpec(member_names=("w",), clip_s=0.0, sigma_sum=1.0)
    with pytest.raises(ValueError):
        GroupSpec(member_names=("w",), clip_s=1.0, sigma_sum=-1.0)
    with pytest.raises(ValueError, match="noise std must be nonnegative and finite"):
        GroupSpec(member_names=("w",), clip_s=1.0, sigma_sum=math.inf)


def test_joint_spec_scale_rules():
    # scales are one per member, all positive
    with pytest.raises(ValueError):
        GroupSpec(
            member_names=("a", "b"),
            clip_s=1.0,
            sigma_sum=1.0,
            joint_scales=(1.0,),
        )
    with pytest.raises(ValueError):
        GroupSpec(
            member_names=("a", "b"),
            clip_s=1.0,
            sigma_sum=1.0,
            joint_scales=(1.0, 0.0),
        )
    # after per-member scaling each piece has norm <= 1, so clip_s beyond
    # sqrt(k) can never bind
    with pytest.raises(ValueError):
        GroupSpec(
            member_names=("a", "b"),
            clip_s=2.0,
            sigma_sum=1.0,
            joint_scales=(1.0, 1.0),
        )
    ok = GroupSpec(
        member_names=("a", "b"),
        clip_s=math.sqrt(2.0),
        sigma_sum=1.0,
        joint_scales=(1.0, 100.0),
    )
    assert ok.k == 2


def test_partition_disjointness():
    g1 = GroupSpec(member_names=("w",), clip_s=1.0, sigma_sum=1.0)
    g2 = GroupSpec(member_names=("w",), clip_s=1.0, sigma_sum=1.0, name="other")
    with pytest.raises(ValueError):
        GroupPartition(groups=(g1, g2))


def test_partition_duplicate_group_names():
    g1 = GroupSpec(member_names=("a",), clip_s=1.0, sigma_sum=1.0, name="g")
    g2 = GroupSpec(member_names=("b",), clip_s=1.0, sigma_sum=1.0, name="g")
    with pytest.raises(ValueError):
        GroupPartition(groups=(g1, g2))


def test_privacy_tuple_validation():
    t = PrivacyTuple(clip_s=1.0, sigma_sum=0.0)  # sigma 0 is representable
    assert t.sigma_sum == 0.0
    with pytest.raises(ValueError):
        PrivacyTuple(clip_s=0.0, sigma_sum=1.0)
    with pytest.raises(ValueError):
        PrivacyTuple(clip_s=1.0, sigma_sum=-1.0)

