import math

import numpy as np
import pytest

from dpledger import (
    GroupPartition,
    GroupSpec,
    Mechanism,
    PrivacyTuple,
    RoundContext,
    SecureStream,
    clip_to_norm,
    group_query,
)


# ---------------------------------------------------------------- clipping


def test_clip_shrinks_to_bound():
    out = clip_to_norm([3.0, 4.0], 1.0)
    assert out == pytest.approx([0.6, 0.8], rel=1e-12)
    assert np.linalg.norm(out) <= 1.0 + 1e-12


def test_clip_identity_below_bound():
    v = np.array([0.3, 0.4])
    out = clip_to_norm(v, 1.0)
    assert np.array_equal(out, v)


def test_clip_idempotent_bitwise():
    rng = np.random.default_rng(7)
    for _ in range(200):
        v = rng.normal(size=rng.integers(1, 20)) * rng.choice([1e-3, 1.0, 1e3])
        once = clip_to_norm(v, 1.0)
        twice = clip_to_norm(once, 1.0)
        assert np.array_equal(once, twice)


def test_clip_norm_bound_randomized():
    # 1e4 random draws across scales; the bound must hold with slack 1e-12.
    rng = np.random.default_rng(11)
    dims = rng.integers(1, 50, size=10_000)
    for d in dims:
        v = rng.normal(size=int(d)) * 10.0 ** rng.uniform(-6, 6)
        s = 10.0 ** rng.uniform(-3, 3)
        assert np.linalg.norm(clip_to_norm(v, s)) <= s * (1.0 + 1e-12)


def test_clip_positive_homogeneity():
    rng = np.random.default_rng(13)
    for _ in range(200):
        v = rng.normal(size=8)
        s = float(rng.uniform(0.1, 5.0))
        c = float(rng.uniform(0.1, 10.0))
        left = clip_to_norm(c * v, c * s)
        right = c * clip_to_norm(v, s)
        assert np.allclose(left, right, rtol=1e-12, atol=0.0)


def test_clip_rejects_bad_inputs():
    with pytest.raises(ValueError):
        clip_to_norm([1.0, 2.0], 0.0)
    with pytest.raises(ValueError):
        clip_to_norm([1.0, 2.0], -1.0)
    with pytest.raises(ValueError):
        clip_to_norm([1.0, math.nan], 1.0)
    with pytest.raises(ValueError):
        clip_to_norm([1.0, math.inf], 1.0)
    with pytest.raises(ValueError):
        clip_to_norm([[1.0, 2.0]], 1.0)  # not 1-d


def test_clip_output_not_writeable():
    out = clip_to_norm([3.0, 4.0], 1.0)
    with pytest.raises(ValueError):
        out[0] = 0.0


# -------------------------------------------------------------- joint scales


def _joint_estimates(vs, scales, clip_s):
    """Zero-noise joint query on one record with q * n = 1."""
    names = tuple(f"v{j}" for j in range(len(vs)))
    spec = GroupSpec(
        member_names=names,
        mechanism=Mechanism.JOINT,
        clip_s=clip_s,
        noise_sigma=0.0,
        joint_scales=tuple(scales),
    )
    ctx = RoundContext(q=1.0, n=1, round_id=0, insecure_test_mode=True)
    batch = {name: np.asarray(v)[None, :] for name, v in zip(names, vs)}
    width = sum(block.shape[1] for block in batch.values())
    noise = SecureStream(b"vectors-tests-00", "noise", 0).standard_normal(width)
    return group_query(batch, spec, ctx, noise).estimates


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
        mechanism=Mechanism.SEPARATE,
        clip_s=1.0,
        noise_sigma=0.5,
    )
    assert g.name == "w+b"
    assert g.k == 2

    with pytest.raises(ValueError):
        GroupSpec(member_names=(), mechanism=Mechanism.SEPARATE, clip_s=1.0, noise_sigma=1.0)
    with pytest.raises(ValueError):
        GroupSpec(member_names=("w",), mechanism=Mechanism.SEPARATE, clip_s=0.0, noise_sigma=1.0)
    with pytest.raises(ValueError):
        GroupSpec(member_names=("w",), mechanism=Mechanism.SEPARATE, clip_s=1.0, noise_sigma=-1.0)
    with pytest.raises(ValueError):  # the mechanism decides how a group is noised
        GroupSpec(member_names=("w",), mechanism="separate", clip_s=1.0, noise_sigma=1.0)


def test_joint_spec_scale_rules():
    # joint needs scales, one per member, all positive
    with pytest.raises(ValueError):
        GroupSpec(member_names=("a", "b"), mechanism=Mechanism.JOINT, clip_s=1.0, noise_sigma=1.0)
    with pytest.raises(ValueError):
        GroupSpec(
            member_names=("a", "b"),
            mechanism=Mechanism.JOINT,
            clip_s=1.0,
            noise_sigma=1.0,
            joint_scales=(1.0,),
        )
    with pytest.raises(ValueError):
        GroupSpec(
            member_names=("a", "b"),
            mechanism=Mechanism.JOINT,
            clip_s=1.0,
            noise_sigma=1.0,
            joint_scales=(1.0, 0.0),
        )
    # after per-member scaling each piece has norm <= 1, so clip_s beyond
    # sqrt(k) can never bind
    with pytest.raises(ValueError):
        GroupSpec(
            member_names=("a", "b"),
            mechanism=Mechanism.JOINT,
            clip_s=2.0,
            noise_sigma=1.0,
            joint_scales=(1.0, 1.0),
        )
    ok = GroupSpec(
        member_names=("a", "b"),
        mechanism=Mechanism.JOINT,
        clip_s=math.sqrt(2.0),
        noise_sigma=1.0,
        joint_scales=(1.0, 100.0),
    )
    assert ok.k == 2


def test_partition_disjointness():
    g1 = GroupSpec(member_names=("w",), mechanism=Mechanism.SEPARATE, clip_s=1.0, noise_sigma=1.0)
    g2 = GroupSpec(member_names=("w",), mechanism=Mechanism.SEPARATE, clip_s=1.0, noise_sigma=1.0, name="other")
    with pytest.raises(ValueError):
        GroupPartition(groups=(g1, g2))


def test_partition_duplicate_group_names():
    g1 = GroupSpec(member_names=("a",), mechanism=Mechanism.SEPARATE, clip_s=1.0, noise_sigma=1.0, name="g")
    g2 = GroupSpec(member_names=("b",), mechanism=Mechanism.SEPARATE, clip_s=1.0, noise_sigma=1.0, name="g")
    with pytest.raises(ValueError):
        GroupPartition(groups=(g1, g2))


def test_privacy_tuple_validation():
    t = PrivacyTuple(clip_s=1.0, sigma_sum=0.0)  # sigma 0 is representable
    assert t.sigma_sum == 0.0
    with pytest.raises(ValueError):
        PrivacyTuple(clip_s=0.0, sigma_sum=1.0)
    with pytest.raises(ValueError):
        PrivacyTuple(clip_s=1.0, sigma_sum=-1.0)

