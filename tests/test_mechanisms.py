import math
import tracemalloc
import warnings

import numpy as np
import pytest

from dpledger import (
    ConfigurationError,
    GroupPartition,
    GroupSpec,
    InfiniteSensitivityError,
    Ledger,
    LedgerUsageError,
    Mechanism,
    PrivacyTuple,
    RoundContext,
    SamplerConfig,
    SamplingPolicy,
    SecureStream,
    clip_rows,
    clip_to_norm,
    draw_round_noise,
    draw_sample,
    effective_z,
    gaussian_sum,
    group_query,
    microbatch_reduce,
    run_partitioned_round,
)


def _sep(members, clip_s, sigma, name=None):
    return GroupSpec(
        member_names=tuple(members),
        mechanism=Mechanism.SEPARATE,
        clip_s=clip_s,
        noise_sigma=sigma,
        name=name,
    )


# ------------------------------------------------------------ gaussian_sum


def test_gaussian_sum_noiseless_sum():
    noise = SecureStream(1, "t", 0).standard_normal(2)
    block = np.array([[1.0, 2.0], [3.0, 4.0]])
    out = gaussian_sum(block, 0.0, noise, insecure_test_mode=True)
    assert np.array_equal(out, [4.0, 6.0])


def test_gaussian_sum_empty_sample():
    empty = np.empty((0, 3))
    noise = SecureStream(1, "t", 0).standard_normal(3)
    out = gaussian_sum(empty, 0.0, noise, insecure_test_mode=True)
    assert np.array_equal(out, np.zeros(3))


def test_gaussian_sum_zero_sigma_needs_flag():
    with pytest.raises(ConfigurationError):
        gaussian_sum(np.ones((1, 1)), 0.0, SecureStream(1, "t", 0).standard_normal(1))


def test_gaussian_sum_shape_mismatch():
    with pytest.raises(ValueError):
        gaussian_sum([[1.0, 2.0], [3.0]], 1.0, np.zeros(2))
    with pytest.raises(ValueError):  # a vector, not an (m x d) block
        gaussian_sum(np.ones(2), 1.0, np.zeros(2))
    with pytest.raises(ValueError):  # no columns to noise
        gaussian_sum(np.empty((2, 0)), 1.0, np.zeros(0))


@pytest.mark.parametrize("shape", [(1,), (99,), (101,), (1, 100), (100, 1)])
def test_gaussian_sum_refuses_a_noise_row_of_another_shape(shape):
    # a length-1 row would broadcast one Gaussian value onto all 100 sums
    with pytest.raises(ValueError, match="noise row"):
        gaussian_sum(np.ones((3, 100)), 1.0, np.ones(shape))


def test_gaussian_sum_never_writes_its_noise_row():
    noise = SecureStream(1, "t", 0).standard_normal(3)
    before = noise.copy()
    noise.setflags(write=False)
    out = gaussian_sum(np.ones((2, 3)), 2.5, noise)
    assert noise.tobytes() == before.tobytes()
    assert out.tobytes() == (before * 2.5 + 2.0).tobytes()


def test_gaussian_sum_noise_distribution():
    # 1e5 repeated queries on a zero vector; stream is fixed, so the
    # observed moments are frozen, not flaky
    s = SecureStream(2, "gauss-stat", 0)
    zero = np.zeros((1, 1))
    reps = 100_000
    draws = np.empty(reps)
    for i in range(reps):
        draws[i] = gaussian_sum(zero, 1.0, s.standard_normal(1))[0]
    assert abs(draws.mean()) < 4.0 / math.sqrt(reps)
    assert abs(draws.std() - 1.0) < 0.02


# ----------------------------------------------------------- separate query


def test_separate_no_clip_no_noise():
    ctx = RoundContext(q=1.0, n=1, round_id=0, insecure_test_mode=True)
    spec = _sep(["v"], clip_s=5.0, sigma=0.0)
    noise = SecureStream(3, "t", 0).standard_normal(2)
    est = group_query({"v": np.array([[3.0, 4.0]])}, spec, ctx, noise)
    assert np.array_equal(est.get("v"), [3.0, 4.0])
    assert est.emitted == PrivacyTuple(clip_s=5.0, sigma_sum=0.0)


def test_separate_two_records_fixed_denominator():
    # sum (1,1), divided by q*n = 2 regardless of realized sample size
    ctx = RoundContext(q=0.5, n=4, round_id=0, insecure_test_mode=True)
    spec = _sep(["v"], clip_s=1.0, sigma=0.0)
    batch = {"v": np.array([[1.0, 0.0], [0.0, 1.0]])}
    est = group_query(batch, spec, ctx, SecureStream(3, "t", 0).standard_normal(2))
    assert np.allclose(est.get("v"), [0.5, 0.5], rtol=1e-15)
    assert est.emitted.clip_s == 1.0
    assert est.emitted.sigma_sum == 0.0


def test_separate_clips_the_member_concatenation():
    # one record with two members; the clip applies to the joint 4-vector
    ctx = RoundContext(q=1.0, n=1, round_id=0, insecure_test_mode=True)
    spec = _sep(["a", "b"], clip_s=1.0, sigma=0.0)
    rec = [np.array([3.0, 0.0]), np.array([0.0, 4.0])]
    batch = {"a": rec[0][None, :], "b": rec[1][None, :]}
    est = group_query(batch, spec, ctx, SecureStream(3, "t", 0).standard_normal(4))
    manual = clip_to_norm(np.concatenate(rec), 1.0)
    assert np.array_equal(est.get("a"), manual[:2])
    assert np.array_equal(est.get("b"), manual[2:])


def test_separate_empty_sample_needs_dims():
    ctx = RoundContext(q=0.5, n=10, round_id=0, insecure_test_mode=True)
    spec = _sep(["v"], clip_s=1.0, sigma=0.0)
    # an empty sample is a (0 x d) block, which carries its own d
    noise = SecureStream(3, "t", 0).standard_normal(2)
    est = group_query({"v": np.empty((0, 2))}, spec, ctx, noise)
    assert np.array_equal(est.get("v"), [0.0, 0.0])
    with pytest.raises(ValueError):
        group_query({"v": np.empty((0, 0))}, spec, ctx, noise)


def test_emitted_sigma_is_exactly_qn_sigma():
    ctx = RoundContext(q=0.01, n=10_000, round_id=0)
    spec = _sep(["v"], clip_s=1.0, sigma=0.013)
    noise = SecureStream(3, "t", 0).standard_normal(1)
    est = group_query({"v": np.array([[0.5]])}, spec, ctx, noise)
    assert est.emitted.sigma_sum == 0.01 * 10_000 * 0.013


# -------------------------------------------------------------- joint query


def _joint(members, clip_s, sigma, scales):
    return GroupSpec(
        member_names=tuple(members),
        mechanism=Mechanism.JOINT,
        clip_s=clip_s,
        noise_sigma=sigma,
        joint_scales=tuple(scales),
    )


def test_joint_identity_when_no_clipping():
    ctx = RoundContext(q=1.0, n=1, round_id=0, insecure_test_mode=True)
    spec = _joint(["v1", "v2"], clip_s=1.0, sigma=0.0, scales=(1.0, 100.0))
    rec = [np.array([0.3, 0.4]), np.array([20.0, 30.0])]
    # scaled concat is (0.3, 0.4, 0.2, 0.3): norm < 1, no clipping
    batch = {"v1": rec[0][None, :], "v2": rec[1][None, :]}
    est = group_query(batch, spec, ctx, SecureStream(4, "t", 0).standard_normal(4))
    assert np.allclose(est.get("v1"), rec[0], rtol=1e-12)
    assert np.allclose(est.get("v2"), rec[1], rtol=1e-12)


def test_joint_preserves_zero_component():
    ctx = RoundContext(q=1.0, n=1, round_id=0, insecure_test_mode=True)
    spec = _joint(["v1", "v2"], clip_s=1.0, sigma=0.0, scales=(1.0, 100.0))
    batch = {"v1": np.array([[1.0]]), "v2": np.array([[0.0]])}
    est = group_query(batch, spec, ctx, SecureStream(4, "t", 0).standard_normal(2))
    assert np.allclose(est.get("v1"), [1.0], rtol=1e-12)
    assert np.array_equal(est.get("v2"), [0.0])


def test_joint_clipping_route_matches_manual():
    ctx = RoundContext(q=1.0, n=1, round_id=0, insecure_test_mode=True)
    spec = _joint(["v1", "v2"], clip_s=1.0, sigma=0.0, scales=(2.0, 5.0))
    rec = [np.array([4.0, 0.0]), np.array([0.0, 10.0])]
    batch = {"v1": rec[0][None, :], "v2": rec[1][None, :]}
    est = group_query(batch, spec, ctx, SecureStream(4, "t", 0).standard_normal(4))
    scaled = np.concatenate([rec[0] / 2.0, rec[1] / 5.0])
    clipped = clip_to_norm(scaled, 1.0)
    assert np.allclose(est.get("v1"), 2.0 * clipped[:2], rtol=1e-12)
    assert np.allclose(est.get("v2"), 5.0 * clipped[2:], rtol=1e-12)


def test_joint_noise_scales_linearly_in_alpha():
    # zero records: output is alpha_j * sigma_sum * noise / qn, so doubling
    # one alpha doubles exactly that component under a replayed stream
    ctx = RoundContext(q=1.0, n=1, round_id=0)
    noise = SecureStream(5, "alpha", 0).standard_normal(2)
    empty = {"x": np.empty((0, 1)), "y": np.empty((0, 1))}
    a = group_query(empty, _joint(["x", "y"], 1.0, 0.7, scales=(1.0, 3.0)), ctx, noise)
    b = group_query(empty, _joint(["x", "y"], 1.0, 0.7, scales=(1.0, 6.0)), ctx, noise)
    assert np.array_equal(b.get("x"), a.get("x"))
    assert np.allclose(b.get("y"), 2.0 * a.get("y"), rtol=1e-15)


def test_group_query_refuses_a_noise_row_that_is_not_the_group_width():
    # members of widths 1 and 2 make a 3-wide group sum
    ctx = RoundContext(q=0.5, n=4, round_id=0)
    batch = {"a": np.ones((2, 1)), "b": np.ones((2, 2))}
    for spec in (_sep(["a", "b"], 1.0, 0.5), _joint(["a", "b"], 1.0, 0.5, (1.0, 2.0))):
        assert len(group_query(batch, spec, ctx, np.zeros(3)).estimates) == 2
        for bad in (np.zeros(1), np.zeros(2), np.zeros(4), np.zeros((1, 3))):
            with pytest.raises(ValueError, match="noise row"):
                group_query(batch, spec, ctx, bad)


def test_k1_separate_and_joint_coincide():
    # fixed noise stream, alpha_1 = 1, same clip: identical mechanisms
    ctx = RoundContext(q=0.5, n=4, round_id=0)
    batch = {"v": np.array([[3.0, 1.0], [-0.2, 0.9]])}
    noise = SecureStream(6, "k1", 0).standard_normal(2)
    sep = group_query(batch, _sep(["v"], 0.8, 0.4), ctx, noise)
    joint = group_query(batch, _joint(["v"], 0.8, 0.4, scales=(1.0,)), ctx, noise)
    assert np.array_equal(sep.get("v"), joint.get("v"))
    assert sep.emitted == joint.emitted


# ------------------------------------------------------ round composition
# a round's PrivacyTuples compose to one query of z = 1/S* (ledger.effective_z)


def test_round_compose_single_tuple():
    assert effective_z([PrivacyTuple(1.0, 1.0)]) == 1.0


def test_round_compose_two_tuples():
    z = effective_z([PrivacyTuple(3.0, 6.0), PrivacyTuple(4.0, 8.0)])
    assert 1.0 / z == pytest.approx(math.sqrt(0.5), rel=1e-15)
    assert z == pytest.approx(math.sqrt(2.0), rel=1e-15)


def test_round_compose_rejects_degenerate():
    with pytest.raises(ValueError):
        effective_z([])
    with pytest.raises(InfiniteSensitivityError):
        effective_z([PrivacyTuple(1.0, 0.0)])


def test_round_facts_refuse_non_integer_n():
    # the same (q, n, round) check the ledger records with
    with pytest.raises(ValueError, match="n must be an integer"):
        RoundContext(q=0.5, n=10.5, round_id=0)
    with pytest.raises(ValueError, match="n must be an integer"):
        SamplerConfig(policy=SamplingPolicy.POISSON_IID, n=10.5, seed=b"n-check-seed-000", q=0.5)


# -------------------------------------------------------- microbatch_reduce


def _batch(*vals):
    """A batch of len(vals) one-entry examples under the name "x"."""
    return {"x": np.array(vals, dtype=np.float64)[:, None]}


def test_microbatch_size_one_is_identity():
    examples = _batch(1.0, 2.0, 3.0, 4.0)
    out = microbatch_reduce(examples, 1)
    assert out["x"].shape[0] == 4
    assert np.array_equal(out["x"], examples["x"])


def test_microbatch_mean():
    out = microbatch_reduce(_batch(2.0, 4.0), 2)
    assert out["x"].shape[0] == 1
    assert np.array_equal(out["x"][0], [3.0])


def test_microbatch_remainder_drop_is_default():
    out = microbatch_reduce(_batch(*(float(i) for i in range(5))), 2)
    assert out["x"].shape[0] == 2
    assert np.array_equal(out["x"][0], [0.5])
    assert np.array_equal(out["x"][1], [2.5])


def test_microbatch_validation():
    with pytest.raises(ValueError):
        microbatch_reduce(_batch(1.0), 0)
    with pytest.raises(TypeError):
        microbatch_reduce([[1.0]], 2)
    with pytest.raises(ValueError):
        microbatch_reduce({"x": [[1.0]], "y": [[1.0], [2.0]]}, 2)
    with pytest.raises(ValueError):
        microbatch_reduce({"x": [1.0, 2.0]}, 2)  # not an (m x d) block


@pytest.mark.parametrize("m", [0, 3, 8, 11])
def test_microbatch_batch_matches_chunk_loop(m):
    # reference: average each run of `size` rows with its own np.mean
    rng = np.random.default_rng(m)
    batch = {"w": rng.normal(size=(m, 3)), "b": rng.normal(size=(m, 1))}
    size = 4
    out = microbatch_reduce(batch, size)
    for name, block in batch.items():
        chunks = [block[i : i + size] for i in range(0, m, size)]
        if chunks and len(chunks[-1]) < size:
            chunks.pop()
        want = [np.mean(chunk, axis=0) for chunk in chunks]
        assert out[name].shape == (len(want), block.shape[1])
        for got_row, want_row in zip(out[name], want):
            assert np.array_equal(got_row, want_row)


# -------------------------------------------------------------- clip_rows


@pytest.mark.parametrize("s", [1.0, 0.3, 7.5])
def test_clip_rows_never_exceeds_bound(s):
    rng = np.random.default_rng(17)
    unit = rng.normal(size=6)
    unit /= np.sqrt(np.dot(unit, unit))
    # From 1e200 on, the squared norm overflows float64.
    norms = [0.0, s, s * (1 + 2.0**-52), s * (1 - 2.0**-52), 0.5 * s, 1e150, 1e200]
    axis_rows = [np.eye(6)[0] * r for r in norms]
    pythagorean = np.array([3e160, 4e160, 0.0, 0.0, 0.0, 0.0])
    block = np.array(axis_rows + [unit * r for r in norms] + [pythagorean])
    before = block.copy()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = clip_rows(block, s)
    assert np.array_equal(block, before)  # input untouched
    for row_in, row_out in zip(block, out):
        assert math.sqrt(np.dot(row_out, row_out)) <= s
        with np.errstate(over="ignore"):
            unclipped = math.sqrt(np.dot(row_in, row_in)) <= s
        if unclipped:
            assert np.array_equal(row_out, row_in)
    # overflowing rows are projected, not zeroed
    assert out[len(norms) - 1] == pytest.approx(np.eye(6)[0] * s, rel=1e-15)
    assert out[-2] == pytest.approx(unit * s, rel=1e-14)
    assert out[-1] == pytest.approx([0.6 * s, 0.8 * s, 0, 0, 0, 0], rel=1e-15)
    # each row is clipped exactly as clip_to_norm clips it alone
    for row_in, row_out in zip(block, out):
        assert np.array_equal(row_out, clip_to_norm(row_in, s))


def test_clip_rows_validation():
    with pytest.raises(ValueError):
        clip_rows(np.ones((2, 3)), 0.0)
    with pytest.raises(ValueError):
        clip_rows(np.ones(3), 1.0)
    with pytest.raises(ValueError):
        clip_rows(np.array([[1.0, math.nan]]), 1.0)
    with pytest.raises(ValueError):
        clip_rows(np.array([[1.7e308, 1.7e308]]), 1.0)  # norm beyond float range
    assert clip_rows(np.empty((0, 4)), 1.0).shape == (0, 4)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_clip_rows_refuses_a_non_finite_entry_as_a_non_finite_block(bad):
    block = np.ones((3, 4))
    block[1, 2] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        finite_block = r"^clip_rows expects a finite \(m x d\) block$"
        with pytest.raises(ValueError, match=finite_block):
            clip_rows(block, 1.0)
    block[1, 1:3] = 1.7e308  # finite, but the row's norm is not
    with pytest.raises(ValueError, match="exceeds the float range"):
        clip_rows(block, 1.0)


def _gathered_clip_rows(block, s):
    """clip_rows as an out-of-place sequence: copy the block, gather the
    rows above s, rescale and re-shrink them, and scatter them back."""
    norms = np.array([math.sqrt(np.dot(row, row)) for row in block])
    over = norms > s
    out = block.copy()
    rows = out[over] * (s / norms[over])[:, None]
    for _ in range(4):
        norms = np.array([math.sqrt(np.dot(row, row)) for row in rows])
        high = norms > s
        if not high.any():
            break
        factor = s / norms[high]
        factor[factor >= 1.0] = 1.0 - 2.0**-52
        rows[high] *= factor[:, None]
    out[over] = rows
    return out


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4, 5, 7, 32])
def test_clip_rows_is_the_gathered_out_of_place_clip(seed):
    # rows on both sides of s, at scales where the first rescale often
    # lands a hair above s and is re-shrunk; at seeds 7 and 32 some rows
    # are re-shrunk twice
    rng = np.random.default_rng(seed)
    m, d = 300, (1, 7, 100)[seed % 3]
    block = rng.normal(size=(m, d)) * 10.0 ** rng.uniform(-3, 3, size=(m, 1))
    block[::7] = 0.0
    s = float(10.0 ** rng.uniform(-1, 1))
    got = clip_rows(block, s)
    assert got.tobytes() == _gathered_clip_rows(block, s).tobytes()


def test_clip_rows_peak_memory_when_every_row_is_clipped():
    # the result, and at most a gather of the rows that are re-shrunk
    block = np.random.default_rng(5).normal(size=(1000, 100)) + 1.0
    tracemalloc.start()
    try:
        out = clip_rows(block, 0.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not np.array_equal(out[0], block[0])  # every row was clipped
    assert peak <= 2.25 * block.nbytes, peak / block.nbytes


# ----------------------------------------------- composition equivalence


def test_equivalence_with_single_normalized_query():
    # G separate group queries against one sigma=1 query on the scaled
    # clipped concatenation, sharing one replayed noise stream
    rng = np.random.default_rng(42)
    q, n = 0.25, 8
    ctx = RoundContext(q=q, n=n, round_id=0)
    specs = [
        _sep(["a", "b"], clip_s=1.0, sigma=0.5, name="g0"),
        _sep(["c"], clip_s=2.0, sigma=1.25, name="g1"),
    ]
    dims = {"g0": (2, 3), "g1": (4,)}
    draws = [
        {"a": rng.normal(size=2), "b": rng.normal(size=3), "c": rng.normal(size=4)}
        for _ in range(3)
    ]
    batch = {m: np.array([rec[m] for rec in draws]) for m in ("a", "b", "c")}
    total_dim = 9
    master = SecureStream(7, "eq", 0).standard_normal(total_dim)

    # path A: per-group mechanism, each group replaying its slice
    outs = {}
    at = 0
    for spec in specs:
        d = sum(dims[spec.name])
        outs[spec.name] = group_query(batch, spec, ctx, master[at : at + d])
        at += d

    # path B: one sigma=1 sum query over the (clip/sigma)-scaled concat,
    # rescaled per group by sigma_g_sum/(qn)
    sigma_sums = {s.name: q * n * s.noise_sigma for s in specs}
    scaled_rows = []
    for rec in draws:
        parts = []
        for spec in specs:
            v = np.concatenate([rec[m] for m in spec.member_names])
            parts.append(clip_to_norm(v, spec.clip_s) / sigma_sums[spec.name])
        scaled_rows.append(np.concatenate(parts))
    combined = gaussian_sum(np.array(scaled_rows), 1.0, master)
    assert combined.shape == (total_dim,)

    at = 0
    for spec in specs:
        d = sum(dims[spec.name])
        expect = combined[at : at + d] * sigma_sums[spec.name] / (q * n)
        got = np.concatenate([outs[spec.name].get(m) for m in spec.member_names])
        assert np.allclose(got, expect, rtol=1e-9, atol=0.0)
        at += d


def test_unbiasedness_under_sampling_and_noise():
    # clipping inactive; the mean over Poisson sampling and noise of the
    # estimate must match the population average sum(v_i)/n. 1e5 rounds,
    # 3-standard-error tolerance. Streams are fixed, so the outcome is
    # deterministic.
    n, q = 8, 0.5
    rng = np.random.default_rng(99)
    values = rng.uniform(-0.5, 0.5, size=n)  # all |v| < clip 1.0
    spec = _sep(["x"], clip_s=1.0, sigma=0.25)
    cfg = SamplerConfig(
        policy=SamplingPolicy.POISSON_IID, n=n, seed=b"unbias-unbias-00", q=q
    )
    trials = 100_000
    ests = np.empty(trials)
    for t in range(trials):
        sample = draw_sample(cfg, t)
        picked = {"x": values[sample.indices][:, None]}
        ctx = RoundContext(q=q, n=n, round_id=t)
        noise = SecureStream(8, "unbias-noise", t).standard_normal(1)
        est = group_query(picked, spec, ctx, noise)
        ests[t] = est.get("x")[0]
    true_avg = values.sum() / n
    se = ests.std() / math.sqrt(trials)
    assert abs(ests.mean() - true_avg) <= 3.0 * se


# ------------------------------------------------------ partitioned rounds


def _partition():
    return GroupPartition(
        groups=(
            _sep(["w"], clip_s=1.0, sigma=0.5, name="weights"),
            _sep(["m"], clip_s=1.0, sigma=0.25, name="metrics"),
        ),
    )


def _one_record():
    return {"w": np.array([[0.1, 0.2]]), "m": np.array([[1.0]])}


def test_run_partitioned_round_records_events():
    part = _partition()
    recs = _one_record()
    ctx = RoundContext(q=0.5, n=4, round_id=0)
    led = Ledger()
    rid = led.record_sample(q=0.5, n=4, policy_tag="poisson_iid")
    noise = _round_noise(coerce16(b"round-seed"), part, recs, ctx)
    out = run_partitioned_round(recs, part, ctx, noise, ledger=led)
    led.close_round()
    assert set(out) == {"weights", "metrics"}
    rounds = led.rounds()
    assert len(rounds) == 1
    sample_ev, sums = rounds[0]
    assert sample_ev.round_id == rid
    assert {e.group_name for e in sums} == {"weights", "metrics"}
    by_name = {e.group_name: e for e in sums}
    assert by_name["weights"].sigma_sum == 0.5 * 4 * 0.5
    assert by_name["metrics"].sigma_sum == 0.5 * 4 * 0.25


def coerce16(prefix: bytes) -> bytes:
    return prefix.ljust(16, b"\0")


def _round_noise(seed, partition, batch, ctx):
    """Each group's noise row for round ctx.round_id, as dp_sgd_train
    hands it to run_partitioned_round."""
    widths = {name: block.shape[1] for name, block in batch.items()}
    rounds = range(ctx.round_id, ctx.round_id + 1)
    noise = draw_round_noise(seed, partition, widths, rounds)
    return {name: rows[0] for name, rows in noise.items()}


def _open_ledger(ctx):
    """A ledger whose open round is ctx.round_id, the rounds before it
    closed with no queries."""
    led = Ledger()
    for _ in range(ctx.round_id):
        led.record_sample(q=ctx.q, n=ctx.n, policy_tag="poisson_iid")
        led.close_round()
    led.record_sample(q=ctx.q, n=ctx.n, policy_tag="poisson_iid")
    return led


def test_run_partitioned_round_records_in_the_open_round_or_refuses():
    recs = _one_record()
    ctx = RoundContext(q=0.5, n=4, round_id=1)
    noise = _round_noise(coerce16(b"ledger-seed"), _partition(), recs, ctx)
    with pytest.raises(TypeError):
        run_partitioned_round(recs, _partition(), ctx, noise)
    closed = _open_ledger(ctx)
    closed.close_round()
    for led in (Ledger(), _open_ledger(RoundContext(q=0.5, n=4, round_id=0)), closed):
        out = None
        with pytest.raises(LedgerUsageError):
            out = run_partitioned_round(recs, _partition(), ctx, noise, ledger=led)
        assert out is None
        assert not any(sums for _, sums in led.rounds())


def test_run_partitioned_round_noise_keyed_by_group_name():
    # same seed, same round: each group's noise depends on its name, not
    # its position, so reordering the partition cannot change results
    recs = _one_record()
    ctx = RoundContext(q=0.5, n=4, round_id=3)
    part = _partition()
    flipped = GroupPartition(groups=tuple(reversed(part.groups)))
    seed = coerce16(b"order-seed")
    a = run_partitioned_round(
        recs, part, ctx, _round_noise(seed, part, recs, ctx), ledger=_open_ledger(ctx)
    )
    b = run_partitioned_round(
        recs, flipped, ctx, _round_noise(seed, flipped, recs, ctx), ledger=_open_ledger(ctx)
    )
    for name in ("weights", "metrics"):
        for member in a[name].member_names:
            assert np.array_equal(a[name].get(member), b[name].get(member))


def test_run_partitioned_round_deterministic():
    recs = _one_record()
    ctx = RoundContext(q=0.5, n=4, round_id=7)
    part = _partition()
    seed = coerce16(b"det-seed")
    a, b = (
        run_partitioned_round(
            recs, part, ctx, _round_noise(seed, part, recs, ctx), ledger=_open_ledger(ctx)
        )
        for _ in range(2)
    )
    assert np.array_equal(a["weights"].get("w"), b["weights"].get("w"))
    ctx2 = RoundContext(q=0.5, n=4, round_id=8)
    noise2 = _round_noise(seed, part, recs, ctx2)
    c = run_partitioned_round(recs, part, ctx2, noise2, ledger=_open_ledger(ctx2))
    assert not np.array_equal(a["weights"].get("w"), c["weights"].get("w"))


# ----------------------------------------------------------- columnar batches


def _batch_partition():
    return GroupPartition(
        groups=(
            _sep(["w"], clip_s=1.0, sigma=0.5, name="weights"),
            GroupSpec(
                member_names=("a", "b"),
                mechanism=Mechanism.JOINT,
                clip_s=1.0,
                noise_sigma=0.25,
                joint_scales=(1.0, 10.0),
                name="joint",
            ),
        ),
    )


def _random_batch(m, seed=5):
    rng = np.random.default_rng(seed)
    return {
        "w": rng.normal(size=(m, 3)) * rng.uniform(0.1, 3.0, size=(m, 1)),
        "a": rng.normal(size=(m, 1)),
        "b": rng.normal(size=(m, 2)) * 8.0,
    }


def test_batch_noise_replays_from_group_stream():
    # estimate * qn - colsum(clipped rows) is exactly the group's noise
    batch = _random_batch(40)
    ctx = RoundContext(q=0.25, n=100, round_id=9)
    seed = coerce16(b"replay-seed")
    part = _batch_partition()
    noise = _round_noise(seed, part, batch, ctx)
    out = run_partitioned_round(batch, part, ctx, noise, ledger=_open_ledger(ctx))
    for spec in part.groups:
        est = out[spec.name]
        dims = [batch[m].shape[1] for m in spec.member_names]
        scales = np.repeat(spec.joint_scales or (1.0,), dims)
        block = np.concatenate([batch[m] for m in spec.member_names], axis=1) / scales
        clipped = clip_rows(block, spec.clip_s)
        got = np.concatenate(est.estimates) / scales * ctx.qn - clipped.sum(axis=0)
        noise = SecureStream(seed, f"noise/{spec.name}", ctx.round_id).standard_normal(
            block.shape[1]
        )
        want = est.emitted.sigma_sum * noise
        assert np.allclose(got, want, rtol=1e-12, atol=0.0)
        assert np.any(np.sqrt(np.einsum("ij,ij->i", block, block)) > spec.clip_s)


def test_round_noise_rows_are_each_groups_per_round_stream():
    seed = coerce16(b"rows-seed")
    part = _batch_partition()
    widths = {"w": 3, "a": 1, "b": 2}
    rounds = range(3, 10)
    rows = draw_round_noise(seed, part, widths, rounds)
    assert {name: r.shape for name, r in rows.items()} == {
        "weights": (7, 3),
        "joint": (7, 3),
    }
    for spec in part.groups:
        for row, t in zip(rows[spec.name], rounds):
            want = SecureStream(seed, f"noise/{spec.name}", t).standard_normal(3)
            assert row.tobytes() == want.tobytes()


def test_empty_batch_still_draws_full_noise_and_records():
    part = _batch_partition()
    ctx = RoundContext(q=0.25, n=100, round_id=0)
    seed = coerce16(b"empty-seed")
    dims = {"weights": (3,), "joint": (1, 2)}
    empty_batch = {"w": np.empty((0, 3)), "a": np.empty((0, 1)), "b": np.empty((0, 2))}
    led = Ledger()
    led.record_sample(q=0.25, n=100, policy_tag="poisson_iid")
    noise = _round_noise(seed, part, empty_batch, ctx)
    out = run_partitioned_round(empty_batch, part, ctx, noise, ledger=led)
    led.close_round()
    assert [e.group_name for e in led.rounds()[0][1]] == ["weights", "joint"]
    for spec in part.groups:
        d = sum(dims[spec.name])
        noise = SecureStream(seed, f"noise/{spec.name}", 0).standard_normal(d)
        scales = np.repeat(spec.joint_scales or (1.0,), dims[spec.name])
        want = scales * (out[spec.name].emitted.sigma_sum * noise / ctx.qn)
        assert np.array_equal(np.concatenate(out[spec.name].estimates), want)


def test_group_block_rejects_bad_batches():
    part = _batch_partition()
    ctx = RoundContext(q=0.25, n=100, round_id=0)
    good = _random_batch(4)
    noise = _round_noise(coerce16(b"bad-seed"), part, good, ctx)
    with pytest.raises(ValueError):  # row counts disagree
        run_partitioned_round(
            {**good, "b": good["b"][:3]}, part, ctx, noise, ledger=_open_ledger(ctx)
        )
    with pytest.raises(ValueError):  # non-finite entry
        bad = {**good, "w": good["w"].copy()}
        bad["w"][1, 2] = math.inf
        run_partitioned_round(bad, part, ctx, noise, ledger=_open_ledger(ctx))
    with pytest.raises(KeyError):  # a member is missing
        run_partitioned_round({"w": good["w"]}, part, ctx, noise, ledger=_open_ledger(ctx))


# ------------------------------------------------------- neighbour batches
# The accountant reads each group's recorded clip as the most that adding
# one record can move the group's pre-noise sum. With the same seed and
# round the noise is the same draw, so (est' - est) * qn / scales is that
# move exactly, up to float rounding.


def _neighbour_batches(at, m=200, seed=31):
    """A batch of m records whose rows lie far above or far below the clip,
    and the same batch with a record far above the clip inserted at row at."""
    rng = np.random.default_rng(seed)
    base, plus = {}, {}
    for name, d in (("w", 3), ("a", 1), ("b", 2)):
        base[name] = rng.normal(size=(m, d)) * rng.choice([1e-3, 1e3], size=(m, 1))
        plus[name] = np.insert(base[name], at, 1e3 * rng.normal(size=d), axis=0)
    return base, plus


def _largest_move_over_clip(reduce):
    """max over groups and insert positions of |sum' - sum| / clip_s when
    both batches pass through `reduce` before the round."""
    part = _batch_partition()
    ctx = RoundContext(q=0.25, n=800, round_id=4)
    seed = coerce16(b"neighbour-seed")
    worst = 0.0
    for at in (0, 100):
        base, plus = _neighbour_batches(at)
        noise = _round_noise(seed, part, base, ctx)
        est, est2 = (
            run_partitioned_round(reduce(b), part, ctx, noise, ledger=_open_ledger(ctx))
            for b in (base, plus)
        )
        for spec in part.groups:
            dims = [base[m].shape[1] for m in spec.member_names]
            scales = np.repeat(spec.joint_scales or (1.0,), dims)
            before = np.concatenate(est[spec.name].estimates)
            after = np.concatenate(est2[spec.name].estimates)
            move = (after - before) * ctx.qn / scales
            worst = max(worst, math.sqrt(np.dot(move, move)) / spec.clip_s)
    return worst


def test_one_added_record_moves_each_group_sum_by_at_most_its_clip():
    worst = _largest_move_over_clip(lambda batch: batch)
    assert 0.5 < worst <= 1.0 + 1e-9


@pytest.mark.parametrize(
    "k",
    [
        pytest.param(
            k,
            marks=pytest.mark.xfail(
                strict=True,
                reason="ROADMAP item 1: microbatches cut by position let one "
                "added record move a group's sum by far more than its clip",
            ),
        )
        for k in (2, 4)
    ],
)
def test_microbatched_added_record_moves_each_group_sum_by_at_most_its_clip(k):
    worst = _largest_move_over_clip(lambda batch: microbatch_reduce(batch, k))
    assert worst <= 1.0 + 1e-9
