import math
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest

from clip_cases import exact_sq_norm, wide_range_member
from conftest import open_ledger
from dpledger import (
    ConfigurationError,
    GroupPartition,
    GroupSpec,
    InfiniteSensitivityError,
    Ledger,
    LedgerUsageError,
    PrivacyTuple,
    SamplerConfig,
    SamplingPolicy,
    ScaledRows,
    SecureStream,
    clip_rows,
    draw_round_noise,
    draw_sample,
    effective_z,
    group_query,
    microbatch_reduce,
    run_partitioned_round,
    serialize,
)
from dpledger.vectors import _clip_factors, _clip_member


def _sep(members, clip_s, sigma_sum, name=None):
    return GroupSpec(
        member_names=tuple(members),
        clip_s=clip_s,
        sigma_sum=sigma_sum,
        name=name,
    )


def _recorded(ledger):
    """(clip_s, sigma_sum) of each serialized sum line of the ledger's last
    round, which this closes if it is open."""
    if ledger.open_round is not None:
        ledger.close_round()
    lines = serialize(ledger).decode("ascii").splitlines()
    last = max(i for i, line in enumerate(lines) if line.startswith("sample "))
    sums = [dict(f.split("=") for f in line.split()[1:]) for line in lines[last + 1 :]]
    return [(float.fromhex(f["clip"]), float.fromhex(f["sigma_sum"])) for f in sums]


# ------------------------------------------------------------ gaussian sum
# The Gaussian sum query is group_query's last step. With q * n = 1 and
# rows inside the clip, a one-member group's estimate is its column sum
# plus sigma_sum times its noise row, bit for bit.


def _noisy_sum(block, sigma_sum, noise, insecure=False):
    spec = _sep(["v"], clip_s=1e6, sigma_sum=sigma_sum)
    est = group_query(
        {"v": block}, spec, noise, ledger=open_ledger(), insecure_test_mode=insecure
    )
    return est["v"]


def test_gaussian_sum_noiseless_sum():
    noise = SecureStream(1, "t", 0).standard_normal(2)
    block = np.array([[1.0, 2.0], [3.0, 4.0]])
    out = _noisy_sum(block, 0.0, noise, insecure=True)
    assert np.array_equal(out, [4.0, 6.0])


def test_gaussian_sum_empty_sample():
    empty = np.empty((0, 3))
    noise = SecureStream(1, "t", 0).standard_normal(3)
    out = _noisy_sum(empty, 0.0, noise, insecure=True)
    assert np.array_equal(out, np.zeros(3))


def test_gaussian_sum_zero_sigma_needs_flag():
    with pytest.raises(ConfigurationError):
        _noisy_sum(np.ones((1, 1)), 0.0, SecureStream(1, "t", 0).standard_normal(1))


def test_gaussian_sum_shape_mismatch():
    with pytest.raises(ValueError):
        _noisy_sum([[1.0, 2.0], [3.0]], 1.0, np.zeros(2))
    with pytest.raises(ValueError):  # a vector, not an (m x d) block
        _noisy_sum(np.ones(2), 1.0, np.zeros(2))
    with pytest.raises(ValueError):  # no columns to noise
        _noisy_sum(np.empty((2, 0)), 1.0, np.zeros(0))


@pytest.mark.parametrize("shape", [(1,), (99,), (101,), (1, 100), (100, 1)])
def test_gaussian_sum_refuses_a_noise_row_of_another_shape(shape):
    # a length-1 row would broadcast one Gaussian value onto all 100 sums
    with pytest.raises(ValueError, match="noise row"):
        _noisy_sum(np.ones((3, 100)), 1.0, np.ones(shape))


def test_gaussian_sum_never_writes_its_noise_row():
    noise = SecureStream(1, "t", 0).standard_normal(3)
    before = noise.copy()
    noise.setflags(write=False)
    out = _noisy_sum(np.ones((2, 3)), 2.5, noise)
    assert noise.tobytes() == before.tobytes()
    assert out.tobytes() == (before * 2.5 + 2.0).tobytes()


class _UnreadNoise:
    """A noise row that fails the test if it is ever read."""

    def __array__(self, *args, **kwargs):
        raise AssertionError("the noise row was read")


def test_gaussian_sum_noise_distribution():
    # 1e5 repeated queries on a zero vector; stream is fixed, so the
    # observed moments are frozen, not flaky
    s = SecureStream(2, "gauss-stat", 0)
    zero = np.zeros((1, 1))
    reps = 100_000
    draws = np.empty(reps)
    for i in range(reps):
        draws[i] = _noisy_sum(zero, 1.0, s.standard_normal(1))[0]
    assert abs(draws.mean()) < 4.0 / math.sqrt(reps)
    assert abs(draws.std() - 1.0) < 0.02


# ----------------------------------------------------------- separate query


def test_separate_no_clip_no_noise():
    # a row measured at the clip lies above 5 (1 - kappa_2), so it is
    # scaled to measure 5 (1 - 2 kappa_2), 20 ulps of 1 in; no noise
    ledger = open_ledger()
    spec = _sep(["v"], clip_s=5.0, sigma_sum=0.0)
    noise = SecureStream(3, "t", 0).standard_normal(2)
    block = np.array([[3.0, 4.0]])
    est = group_query({"v": block}, spec, noise, ledger=ledger, insecure_test_mode=True)
    assert np.array_equal(est["v"], clip_rows(block, 5.0)[0])
    assert est["v"] == pytest.approx([3.0, 4.0], rel=22 * 2.0**-53)
    assert exact_sq_norm(est["v"]) < 25
    assert _recorded(ledger) == [(5.0, 0.0)]


def test_separate_two_records_fixed_denominator():
    # sum (1,1), divided by q*n = 2 regardless of realized sample size
    ledger = open_ledger(q=0.5, n=4)
    spec = _sep(["v"], clip_s=1.0, sigma_sum=0.0)
    batch = {"v": np.array([[1.0, 0.0], [0.0, 1.0]])}
    noise = SecureStream(3, "t", 0).standard_normal(2)
    est = group_query(batch, spec, noise, ledger=ledger, insecure_test_mode=True)
    assert np.allclose(est["v"], [0.5, 0.5], rtol=1e-15)
    [(clip_s, sigma_sum)] = _recorded(ledger)
    assert clip_s == 1.0
    assert sigma_sum == 0.0


def test_separate_clips_the_member_concatenation():
    # one record with two members; the clip applies to the joint 4-vector
    spec = _sep(["a", "b"], clip_s=1.0, sigma_sum=0.0)
    rec = [np.array([3.0, 0.0]), np.array([0.0, 4.0])]
    batch = {"a": rec[0][None, :], "b": rec[1][None, :]}
    noise = SecureStream(3, "t", 0).standard_normal(4)
    est = group_query(batch, spec, noise, ledger=open_ledger(), insecure_test_mode=True)
    # The rule on this record alone: the members measure 3 and 4, and the
    # record 5, all exactly; above 1 - kappa it is scaled by (1 - 2 kappa) /
    # 5, with kappa = (D + 8 k) 2^-53 for D = 4 entries in k = 2 members.
    factor = (1.0 - 2.0 * (4 + 8 * 2) * 2.0**-53) / 5.0
    assert np.array_equal(est["a"], rec[0] * factor)
    assert np.array_equal(est["b"], rec[1] * factor)
    flat = clip_rows(np.concatenate(rec)[None, :], 1.0)[0]
    got = np.concatenate([est["a"], est["b"]])
    assert got == pytest.approx(flat, rel=20 * 2.0**-53)


def test_separate_empty_sample_needs_dims():
    ledger = open_ledger(q=0.5, n=10)
    spec = _sep(["v"], clip_s=1.0, sigma_sum=0.0)
    # an empty sample is a (0 x d) block, which carries its own d
    noise = SecureStream(3, "t", 0).standard_normal(2)
    est = group_query(
        {"v": np.empty((0, 2))}, spec, noise, ledger=ledger, insecure_test_mode=True
    )
    assert np.array_equal(est["v"], [0.0, 0.0])
    with pytest.raises(ValueError):
        group_query(
            {"v": np.empty((0, 0))}, spec, noise, ledger=ledger, insecure_test_mode=True
        )


def test_emitted_sigma_is_exactly_qn_sigma():
    ledger = open_ledger(q=0.01, n=10_000)
    spec = _sep(["v"], clip_s=1.0, sigma_sum=0.01 * 10_000 * 0.013)
    noise = SecureStream(3, "t", 0).standard_normal(1)
    group_query({"v": np.array([[0.5]])}, spec, noise, ledger=ledger)
    [(_, sigma_sum)] = _recorded(ledger)
    assert sigma_sum == 0.01 * 10_000 * 0.013


# -------------------------------------------------------------- joint query


def _joint(members, clip_s, sigma_sum, scales, name=None):
    return GroupSpec(
        member_names=tuple(members),
        clip_s=clip_s,
        sigma_sum=sigma_sum,
        joint_scales=tuple(scales),
        name=name,
    )


def test_joint_identity_when_no_clipping():
    spec = _joint(["v1", "v2"], clip_s=1.0, sigma_sum=0.0, scales=(1.0, 100.0))
    rec = [np.array([0.3, 0.4]), np.array([20.0, 30.0])]
    # scaled concat is (0.3, 0.4, 0.2, 0.3): norm < 1, no clipping
    batch = {"v1": rec[0][None, :], "v2": rec[1][None, :]}
    noise = SecureStream(4, "t", 0).standard_normal(4)
    est = group_query(batch, spec, noise, ledger=open_ledger(), insecure_test_mode=True)
    assert np.allclose(est["v1"], rec[0], rtol=1e-12)
    assert np.allclose(est["v2"], rec[1], rtol=1e-12)


def test_joint_preserves_zero_component():
    spec = _joint(["v1", "v2"], clip_s=1.0, sigma_sum=0.0, scales=(1.0, 100.0))
    batch = {"v1": np.array([[1.0]]), "v2": np.array([[0.0]])}
    noise = SecureStream(4, "t", 0).standard_normal(2)
    est = group_query(batch, spec, noise, ledger=open_ledger(), insecure_test_mode=True)
    assert np.allclose(est["v1"], [1.0], rtol=1e-12)
    assert np.array_equal(est["v2"], [0.0])


def test_joint_clipping_route_matches_manual():
    spec = _joint(["v1", "v2"], clip_s=1.0, sigma_sum=0.0, scales=(2.0, 5.0))
    rec = [np.array([4.0, 0.0]), np.array([0.0, 10.0])]
    batch = {"v1": rec[0][None, :], "v2": rec[1][None, :]}
    noise = SecureStream(4, "t", 0).standard_normal(4)
    est = group_query(batch, spec, noise, ledger=open_ledger(), insecure_test_mode=True)
    scaled = np.concatenate([rec[0] / 2.0, rec[1] / 5.0])
    clipped = clip_rows(scaled[None, :], 1.0)[0]
    assert np.allclose(est["v1"], 2.0 * clipped[:2], rtol=1e-12)
    assert np.allclose(est["v2"], 5.0 * clipped[2:], rtol=1e-12)


def test_joint_noise_scales_linearly_in_alpha():
    # zero records: output is alpha_j * sigma_sum * noise / qn, so doubling
    # one alpha doubles exactly that component under a replayed stream
    noise = SecureStream(5, "alpha", 0).standard_normal(2)
    empty = {"x": np.empty((0, 1)), "y": np.empty((0, 1))}
    a, b = (
        group_query(empty, _joint(["x", "y"], 1.0, 0.7, s), noise, ledger=open_ledger())
        for s in ((1.0, 3.0), (1.0, 6.0))
    )
    assert np.array_equal(b["x"], a["x"])
    assert np.allclose(b["y"], 2.0 * a["y"], rtol=1e-15)


def test_group_query_refuses_a_noise_row_that_is_not_the_group_width():
    # members of widths 1 and 2 make a 3-wide group sum
    ledger = open_ledger(q=0.5, n=4)
    batch = {"a": np.ones((2, 1)), "b": np.ones((2, 2))}
    for spec in (_sep(["a", "b"], 1.0, 1.0), _joint(["a", "b"], 1.0, 1.0, (1.0, 2.0))):
        assert len(group_query(batch, spec, np.zeros(3), ledger=ledger)) == 2
        for bad in (np.zeros(1), np.zeros(2), np.zeros(4), np.zeros((1, 3))):
            with pytest.raises(ValueError, match="noise row"):
                group_query(batch, spec, bad, ledger=ledger)


def test_k1_separate_and_joint_coincide():
    # fixed noise stream, alpha_1 = 1, same clip: identical mechanisms
    batch = {"v": np.array([[3.0, 1.0], [-0.2, 0.9]])}
    noise = SecureStream(6, "k1", 0).standard_normal(2)
    sep_ledger, joint_ledger = open_ledger(q=0.5, n=4), open_ledger(q=0.5, n=4)
    sep = group_query(batch, _sep(["v"], 0.8, 0.5 * 4 * 0.4), noise, ledger=sep_ledger)
    joint_spec = _joint(["v"], 0.8, 0.5 * 4 * 0.4, scales=(1.0,))
    joint = group_query(batch, joint_spec, noise, ledger=joint_ledger)
    assert np.array_equal(sep["v"], joint["v"])
    assert _recorded(sep_ledger) == _recorded(joint_ledger)


# -------------------------------------------------------------- recording
# A query records its spec's (clip_s, sigma_sum) in the ledger's open
# round after its last check and before it computes any estimate, so a
# refused query records nothing.


def test_group_query_without_an_open_round_refuses_and_records_nothing():
    spec = _sep(["v"], clip_s=1.0, sigma_sum=1.0)
    batch = {"v": np.full((2, 3), math.nan)}  # refused before the clip reads it
    closed = open_ledger(q=0.5, n=4)
    closed.close_round()
    for ledger in (Ledger(), closed):
        before = serialize(ledger)
        with pytest.raises(LedgerUsageError, match="no open round"):
            group_query(batch, spec, _UnreadNoise(), ledger=ledger)
        assert ledger.open_round is None
        assert serialize(ledger) == before


@pytest.mark.parametrize(
    "batch, spec, noise, error",
    [
        pytest.param(
            {"v": np.ones((2, 3))}, _sep(["v"], 1.0, 0.0), np.zeros(3),
            ConfigurationError, id="zero-sigma-without-insecure-test-mode",
        ),
        pytest.param(
            {"v": np.ones((2, 3))}, _sep(["v"], 1.0, 1.0), np.zeros(2),
            ValueError, id="noise-row-of-the-wrong-width",
        ),
        pytest.param(
            {"v": np.array([[1.0, math.inf, 0.0]])}, _sep(["v"], 1.0, 1.0), np.zeros(3),
            ValueError, id="non-finite-member",
        ),
        pytest.param(
            {"a": np.ones((2, 1)), "b": np.ones((3, 1))}, _sep(["a", "b"], 1.0, 1.0),
            np.zeros(2), ValueError, id="mismatched-row-counts",
        ),
        pytest.param(
            {"v": np.ones((2, 0))}, _sep(["v"], 1.0, 1.0), np.zeros(0),
            ValueError, id="zero-column-member",
        ),
    ],
)  # fmt: skip
def test_a_refused_group_query_records_nothing(batch, spec, noise, error):
    ledger = open_ledger(q=0.5, n=4)
    with pytest.raises(error):
        group_query(batch, spec, noise, ledger=ledger)
    assert ledger.open_round == 0
    assert _recorded(ledger) == []


class _FailingLedger(Ledger):
    """A ledger whose sum-query record fails, as a full disk would."""

    def record_sum_query(self, *args, **kwargs):
        raise OSError("the record could not be kept")


def test_an_accepted_group_query_is_recorded_before_its_estimate():
    rng = np.random.default_rng(11)
    ledger = open_ledger(q=0.037, n=12_345)
    spec = _sep(["v"], clip_s=0.9, sigma_sum=0.037 * 12_345 * 0.0123)
    block = rng.normal(size=(30, 4))
    noise = rng.normal(size=4)
    est = group_query({"v": block}, spec, noise, ledger=ledger)
    [(sample, [event])] = ledger.rounds()
    qn = sample.q * sample.n
    assert (event.group_name, event.clip_s) == ("v", 0.9)
    assert event.sigma_sum.hex() == (qn * 0.0123).hex()
    clipped = clip_rows(block, 0.9)
    assert not np.array_equal(clipped, block)  # the clip binds
    want = (clipped.sum(axis=0) + event.sigma_sum * noise) / qn
    assert list(est) == ["v"]
    assert est["v"].tobytes() == want.tobytes()
    # a query whose record fails returns no estimate
    failing = _FailingLedger()
    failing.record_sample(q=0.037, n=12_345, policy_tag="poisson_iid")
    with pytest.raises(OSError):
        group_query({"v": block}, spec, noise, ledger=failing)


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
    # Rows measured at most s (1 - kappa_6) are kept; the others, those at
    # s and s (1 -/+ 2^-52) too, are scaled to measure s (1 - 2 kappa_6).
    kappa = 14 * 2.0**-53
    for row_in, row_out in zip(block, out):
        assert exact_sq_norm(row_out) <= Fraction(s) ** 2
        assert math.sqrt(np.dot(row_out, row_out)) <= s * (1 - kappa)
        with np.errstate(over="ignore"):
            kept = math.sqrt(np.dot(row_in, row_in)) <= s * (1 - kappa)
        assert np.array_equal(row_out, row_in) == kept
    # overflowing rows are projected, not zeroed
    rel = 2 * kappa + 4 * 2.0**-53
    assert out[len(norms) - 1] == pytest.approx(np.eye(6)[0] * s, rel=rel)
    assert out[-2] == pytest.approx(unit * s, rel=1e-14)
    assert out[-1] == pytest.approx([0.6 * s, 0.8 * s, 0, 0, 0, 0], rel=rel)
    # each row is clipped exactly as it is clipped alone
    for row_in, row_out in zip(block, out):
        assert np.array_equal(row_out, clip_rows(row_in[None, :], s)[0])


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
    # every row of an (m x 0) block has norm 0, so none is rescaled
    no_columns = np.zeros((2, 0))
    assert clip_rows(no_columns, 1.0) is no_columns


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


def test_clip_rows_measures_a_row_whose_squares_underflow():
    # each square is below the smallest float, so a plain dot product
    # measures the row as 0 and would keep it
    block = np.array([[3e-170, -4e-170], [0.0, 0.0]])
    s = 1e-171
    out = clip_rows(block, s)
    assert np.array_equal(out[1], block[1])
    assert abs(math.hypot(*out[0]) - s * (1 - 20 * 2.0**-53)) <= 2**-50 * s
    assert exact_sq_norm(out[0]) <= Fraction(s) ** 2


def test_one_entry_rows_measure_as_the_root_of_their_square():
    # |x| for a one-entry row is the same float as sqrt(x * x) wherever the
    # square neither overflows nor underflows, which clip_rows relies on
    rng = np.random.default_rng(12)
    x = rng.normal(size=200_000) * 2.0 ** rng.integers(-500, 500, size=200_000)
    x[:4096] = 1.0 + np.arange(4096) * 2.0**-52  # mantissas just above 1
    x[4096:8192] = 2.0 - np.arange(1, 4097) * 2.0**-52  # and just below 2
    out = clip_rows(x[:, None], 2.0**600)  # nothing is clipped
    assert np.array_equal(out[:, 0], x)
    # measured exactly, a row is kept up to the clip itself; a row above it
    # is scaled to 0.5 (1 - 2 kappa_1)
    kept = clip_rows(x[:, None], 0.5)[:, 0]
    target = 0.5 * (1 - 18 * 2.0**-53)
    want = np.where(np.abs(x) > 0.5, x * (target / np.sqrt(x * x)), x)
    assert kept.tobytes() == want.tobytes()


def test_clip_rows_peak_memory_when_every_row_is_clipped():
    # the result, and vectors of one entry per row (1.09x the block)
    block = np.random.default_rng(5).normal(size=(1000, 100)) + 1.0
    tracemalloc.start()
    try:
        out = clip_rows(block, 0.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not np.array_equal(out[0], block[0])  # every row was clipped
    assert peak <= 1.25 * block.nbytes, peak / block.nbytes


# ------------------------------------------------- factored members
# A factored member's row i is scalars[i] * rows[i]. The clip rule
# measures it as |scalars[i]| * ||rows[i]|| and clips it by its weight
# scalars[i] * f_i; the exact norm of every clipped record must be at most
# the clip.


def _clip_alone(member, clip):
    """A one-member group's clipped member: a block, or a ScaledRows."""
    return _clip_member(member, _clip_factors([member], None, clip))


@pytest.mark.parametrize("d", [1, 2, 100, 4096])
def test_factored_clip_keeps_every_exact_row_norm_within_the_clip(d):
    rng = np.random.default_rng(d)
    m = 60 if d == 4096 else 300
    for clip in (1.0, 0.37, 12.5):
        member = wide_range_member(rng, m, d, clip)
        weights = _clip_alone(member, clip).scalars
        kept = weights == member.scalars
        assert kept.any() and not kept.all()
        bound = Fraction(clip) ** 2
        for w, row in zip(weights.tolist(), member.rows):
            assert Fraction(w) ** 2 * exact_sq_norm(row) <= bound
        # the same records as a plain block, clipped by clip_rows
        block = member.rows * member.scalars[:, None]
        out = clip_rows(block, clip)
        kept = (out == block).all(axis=1)
        assert kept.any() and not kept.all()
        for row in out:
            assert exact_sq_norm(row) <= bound


def _scaled_mixed_group(rng, m, d, clip, scales):
    """A factored member of d entries and a block member of 2 entries whose
    records sit at every magnitude; every third record's scaled norm is
    within a few ulps of clip."""
    factored = wide_range_member(rng, m, d, 1.0)
    other = wide_range_member(rng, m, 2, 1.0)
    block = other.rows * other.scalars[:, None]
    near = np.arange(1, m, 3)  # where both members measure about 1
    angle = rng.uniform(0.05, 1.5, size=near.size)
    scalars = factored.scalars.copy()
    scalars[near] *= scales[0] * clip * np.cos(angle)
    block[near] *= (scales[1] * clip * np.sin(angle))[:, None]
    return ScaledRows(scalars, factored.rows), block


@pytest.mark.parametrize("d", [1, 3, 100])
def test_a_scaled_group_keeps_every_exact_record_norm_within_the_clip(d):
    # a factored and a block member, each divided by its scale, clipped by
    # one weight per record: exactly, record i's norm is
    # sqrt(w_i^2 ||rows_i||^2 / a_0^2 + ||block_i||^2 / a_1^2)
    rng = np.random.default_rng(70 + d)
    for clip, scales in ((1.0, (0.3, 7.0)), (0.37, (1.0, 1e-3)), (1.4, (3.0, 0.6))):
        factored, block = _scaled_mixed_group(rng, 300, d, clip, scales)
        factors = _clip_factors([factored, block], scales, clip)
        assert (factors == 1.0).any() and (factors < 1.0).any()
        weights = _clip_member(factored, factors)
        rows = _clip_member(block, factors)
        a0, a1 = (Fraction(a) ** 2 for a in scales)
        bound = Fraction(clip) ** 2
        for w, x, y in zip(weights.scalars.tolist(), factored.rows, rows):
            sq_norm = Fraction(w) ** 2 * exact_sq_norm(x) / a0 + exact_sq_norm(y) / a1
            assert sq_norm <= bound
        # a clipped record measures within the margin, so clipping twice
        # clips nothing more
        assert _clip_factors([weights, rows], scales, clip) is None


def test_a_joint_weights_and_bias_query_builds_no_group_block():
    # one joint group of factored weights and a bias block: the clip and
    # the sums take vectors of one entry per record, never an (m x D) block
    rng = np.random.default_rng(9)
    m, dim = 1000, 100
    weights = ScaledRows(rng.normal(size=m), rng.normal(size=(m, dim)))
    batch = {"weights": weights, "bias": weights.scalars[:, None]}
    spec = _joint(["weights", "bias"], clip_s=1.0, sigma_sum=500.0, scales=(1.0, 0.5))
    ledger = open_ledger(q=0.05, n=20_000)
    noise = rng.normal(size=dim + 1)
    tracemalloc.start()
    try:
        est = group_query(batch, spec, noise, ledger=ledger)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert est["weights"].shape == (dim,)
    assert peak < 0.25 * m * (dim + 1) * 8, peak / (m * (dim + 1) * 8)


@pytest.mark.parametrize("d", [1, 7, 100])
def test_factored_sum_matches_the_clipped_block_sum(d):
    rng = np.random.default_rng(40 + d)
    m, clip = 500, 0.8
    rows = rng.normal(size=(m, d)) * 10.0 ** rng.uniform(-2, 2, size=(m, 1))
    scalars = rng.normal(size=m) * 10.0 ** rng.uniform(-2, 2, size=m)
    member = ScaledRows(scalars, rows)
    spec = _sep(["w"], clip_s=clip, sigma_sum=0.0)
    got = group_query(
        {"w": member}, spec, np.zeros(d), ledger=open_ledger(), insecure_test_mode=True
    )["w"]
    want = clip_rows(rows * scalars[:, None], clip).sum(axis=0)
    # Each clipped row moves by at most (kappa_d + 8 ulps) of the clip, and
    # each of the two sums of m rows of norm <= clip rounds by at most
    # m * clip * m ulps.
    tolerance = m * clip * (d + 16 + 2 * m) * 2.0**-53
    assert np.abs(got - want).max() <= tolerance
    assert not np.array_equal(got, want)  # the margin moves the last bits


def test_group_query_sums_a_factored_member_by_one_matrix_vector_product():
    rng = np.random.default_rng(8)
    m = 50
    member = ScaledRows(rng.normal(size=m) * 3.0, rng.normal(size=(m, 4)))
    a = rng.normal(size=(m, 2))
    ledger = open_ledger(q=0.25, n=400)
    spec = _sep(["w"], clip_s=1.0, sigma_sum=0.25 * 400 * 0.5)
    noise = rng.normal(size=4)
    est = group_query({"w": member}, spec, noise, ledger=ledger)
    # The rule on each record alone: it measures |scalars[i]| times the
    # root of its row's dot product, and above 1 - kappa_4 its weight is
    # scaled to measure 1 - 2 kappa_4.
    kappa = (4 + 8) * 2.0**-53
    weights = member.scalars.copy()
    for i, (scalar, row) in enumerate(zip(member.scalars, member.rows)):
        measure = abs(scalar) * math.sqrt(np.dot(row, row))
        if measure > 1.0 - kappa:
            weights[i] = scalar * ((1.0 - 2.0 * kappa) / measure)
    assert (weights == member.scalars).any() and (weights != member.scalars).any()
    [(clip_s, sigma_sum)] = _recorded(ledger)
    total = noise * sigma_sum
    total += member.rows.T @ weights
    assert est["w"].tobytes() == (total / (0.25 * 400)).tobytes()
    assert (clip_s, sigma_sum) == (1.0, 0.25 * 400 * 0.5)
    # size 1 passes the factored member through; a larger size averages
    # its runs to the block's means, bit for bit
    block = member.rows * member.scalars[:, None]
    assert microbatch_reduce({"w": member, "a": a}, 1)["w"] is member
    for size in (2, 3, 4, 7):
        got = microbatch_reduce({"w": member, "a": a}, size)
        want = microbatch_reduce({"w": block, "a": a}, size)
        assert got.keys() == want.keys()
        assert all(got[k].tobytes() == want[k].tobytes() for k in got)


def test_empty_factored_member_sums_to_zero():
    member = ScaledRows(np.empty(0), np.empty((0, 3)))
    ledger = open_ledger(q=0.25, n=100)
    noise = np.array([1.0, -2.0, 0.5])
    est = group_query({"w": member}, _sep(["w"], 1.0, 12.5), noise, ledger=ledger)
    [(_, sigma_sum)] = _recorded(ledger)
    assert np.array_equal(est["w"], noise * sigma_sum / (0.25 * 100))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_factored_member_refuses_non_finite_input_as_clip_rows_does(bad):
    finite_block = r"^clip_rows expects a finite \(m x d\) block$"
    ledger = open_ledger(q=0.25, n=100)
    spec = _sep(["w"], 1.0, 12.5)
    for where in ("scalars", "rows"):
        scalars, rows = np.ones(3), np.ones((3, 4))
        (scalars if where == "scalars" else rows)[1] = bad
        batch = {"w": ScaledRows(scalars, rows)}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=finite_block):
                group_query(batch, spec, np.zeros(4), ledger=ledger)
    scalars = np.array([1.0, 1e300, 1.0])  # finite, but its row's norm is not
    with pytest.raises(ValueError, match="exceeds the float range"):
        batch = {"w": ScaledRows(scalars, np.full((3, 4), 1e10))}
        group_query(batch, spec, np.zeros(4), ledger=ledger)


def test_scaled_rows_validation():
    with pytest.raises(ValueError):
        ScaledRows(np.ones(3), np.ones((2, 4)))
    with pytest.raises(ValueError):
        ScaledRows(np.ones((3, 1)), np.ones((3, 4)))
    with pytest.raises(ValueError):
        ScaledRows(np.ones(3), np.ones(3))
    with pytest.raises(ValueError):
        ScaledRows(np.ones(2), np.ones((2, 0)))
    with pytest.raises(ValueError):
        _clip_alone(ScaledRows(np.ones(2), np.ones((2, 2))), 0.0)
    member = ScaledRows([1, 2], [[1, 2, 3], [4, 5, 6]])
    assert member.shape == (2, 3) and member.rows.dtype == np.float64


# ----------------------------------------------- composition equivalence


def test_equivalence_with_single_normalized_query():
    # G separate group queries against one sigma=1 query on the scaled
    # clipped concatenation, sharing one replayed noise stream
    rng = np.random.default_rng(42)
    q, n = 0.25, 8
    ledger = open_ledger(q=q, n=n)
    specs = [
        _sep(["a", "b"], clip_s=1.0, sigma_sum=q * n * 0.5, name="g0"),
        _sep(["c"], clip_s=2.0, sigma_sum=q * n * 1.25, name="g1"),
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
        outs[spec.name] = group_query(batch, spec, master[at : at + d], ledger=ledger)
        at += d

    # path B: one sigma=1 sum query over the (clip/sigma)-scaled concat,
    # rescaled per group by sigma_g_sum/(qn)
    sigma_sums = {s.name: s.sigma_sum for s in specs}
    scaled_rows = []
    for rec in draws:
        parts = []
        for spec in specs:
            v = np.concatenate([rec[m] for m in spec.member_names])
            parts.append(clip_rows(v[None, :], spec.clip_s)[0] / sigma_sums[spec.name])
        scaled_rows.append(np.concatenate(parts))
    combined = np.array(scaled_rows).sum(axis=0) + master
    assert combined.shape == (total_dim,)

    at = 0
    for spec in specs:
        d = sum(dims[spec.name])
        expect = combined[at : at + d] * sigma_sums[spec.name] / (q * n)
        got = np.concatenate([outs[spec.name][m] for m in spec.member_names])
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
    spec = _sep(["x"], clip_s=1.0, sigma_sum=q * n * 0.25)
    cfg = SamplerConfig(
        policy=SamplingPolicy.POISSON_IID, n=n, seed=b"unbias-unbias-00", q=q
    )
    trials = 100_000
    ests = np.empty(trials)
    ledger = open_ledger(q=q, n=n)
    for t in range(trials):
        sample = draw_sample(cfg, t)
        picked = {"x": values[sample.indices][:, None]}
        noise = SecureStream(8, "unbias-noise", t).standard_normal(1)
        est = group_query(picked, spec, noise, ledger=ledger)
        ests[t] = est["x"][0]
    true_avg = values.sum() / n
    se = ests.std() / math.sqrt(trials)
    assert abs(ests.mean() - true_avg) <= 3.0 * se


# ------------------------------------------------------ partitioned rounds


def _partition():
    return GroupPartition(
        groups=(
            _sep(["w"], clip_s=1.0, sigma_sum=0.5 * 4 * 0.5, name="weights"),
            _sep(["m"], clip_s=1.0, sigma_sum=0.5 * 4 * 0.25, name="metrics"),
        ),
    )


def _one_record():
    return {"w": np.array([[0.1, 0.2]]), "m": np.array([[1.0]])}


def test_run_partitioned_round_records_events():
    part = _partition()
    recs = _one_record()
    led = Ledger()
    rid = led.record_sample(q=0.5, n=4, policy_tag="poisson_iid")
    noise = _round_noise(coerce16(b"round-seed"), part, recs, rid)
    out = run_partitioned_round(recs, part, noise, ledger=led)
    led.close_round()
    assert set(out) == {"w", "m"}
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


def _round_noise(seed, partition, batch, round_id):
    """Each group's noise row for round round_id, as dp_sgd_train hands it
    to run_partitioned_round."""
    widths = {name: block.shape[1] for name, block in batch.items()}
    noise = draw_round_noise(seed, partition, widths, range(round_id, round_id + 1))
    return {name: rows[0] for name, rows in noise.items()}


def test_run_partitioned_round_records_in_the_open_round_or_refuses():
    recs = _one_record()
    noise = _round_noise(coerce16(b"ledger-seed"), _partition(), recs, 1)
    with pytest.raises(TypeError):
        run_partitioned_round(recs, _partition(), noise)
    closed = open_ledger(q=0.5, n=4)
    closed.close_round()
    for led in (Ledger(), closed):
        out = None
        with pytest.raises(LedgerUsageError):
            out = run_partitioned_round(recs, _partition(), noise, ledger=led)
        assert out is None
        assert not any(sums for _, sums in led.rounds())


def test_run_partitioned_round_noise_keyed_by_group_name():
    # same seed, same round: each group's noise depends on its name, not
    # its position, so reordering the partition cannot change results
    recs = _one_record()
    part = _partition()
    flipped = GroupPartition(groups=tuple(reversed(part.groups)))
    seed = coerce16(b"order-seed")
    a, b = (
        run_partitioned_round(
            recs, p, _round_noise(seed, p, recs, 3), ledger=open_ledger(q=0.5, n=4)
        )
        for p in (part, flipped)
    )
    for member in ("w", "m"):
        assert np.array_equal(a[member], b[member])


def test_run_partitioned_round_deterministic():
    recs = _one_record()
    part = _partition()
    seed = coerce16(b"det-seed")
    a, b, c = (
        run_partitioned_round(
            recs, part, _round_noise(seed, part, recs, t), ledger=open_ledger(0.5, 4)
        )
        for t in (7, 7, 8)
    )
    assert np.array_equal(a["w"], b["w"])
    assert not np.array_equal(a["w"], c["w"])


# ----------------------------------------------------------- columnar batches


def _batch_partition(qn=0.25 * 100):
    return GroupPartition(
        groups=(
            _sep(["w"], clip_s=1.0, sigma_sum=qn * 0.5, name="weights"),
            _joint(["a", "b"], 1.0, qn * 0.25, scales=(1.0, 10.0), name="joint"),
            # one factored member once _factored runs, and one block
            _joint(["v", "c"], 1.2, qn * 0.5, scales=(0.5, 4.0), name="mixed"),
        ),
    )


def _random_batch(m, seed=5):
    rng = np.random.default_rng(seed)
    return {
        "w": rng.normal(size=(m, 3)) * rng.uniform(0.1, 3.0, size=(m, 1)),
        "a": rng.normal(size=(m, 1)),
        "b": rng.normal(size=(m, 2)) * 8.0,
        "v": rng.normal(size=(m, 2)) * rng.uniform(0.05, 2.0, size=(m, 1)),
        "c": rng.normal(size=(m, 1)) * 4.0,
    }


def test_batch_noise_replays_from_group_stream():
    # estimate * qn - colsum(clipped rows) is exactly the group's noise
    batch = _random_batch(40)
    ledger = open_ledger(q=0.25, n=100)
    seed = coerce16(b"replay-seed")
    part = _batch_partition()
    noise = _round_noise(seed, part, batch, 9)
    out = run_partitioned_round(batch, part, noise, ledger=ledger)
    for spec, (_, sigma_sum) in zip(part.groups, _recorded(ledger), strict=True):
        est = np.concatenate([out[m] for m in spec.member_names])
        dims = [batch[m].shape[1] for m in spec.member_names]
        scales = np.repeat(spec.joint_scales or (1.0,), dims)
        block = np.concatenate([batch[m] for m in spec.member_names], axis=1) / scales
        clipped = clip_rows(block, spec.clip_s)
        got = est / scales * (0.25 * 100) - clipped.sum(axis=0)
        noise = SecureStream(seed, f"noise/{spec.name}", 9).standard_normal(
            block.shape[1]
        )
        want = sigma_sum * noise
        assert np.allclose(got, want, rtol=1e-12, atol=0.0)
        assert np.any(np.sqrt(np.einsum("ij,ij->i", block, block)) > spec.clip_s)


def test_round_noise_rows_are_each_groups_per_round_stream():
    seed = coerce16(b"rows-seed")
    part = _batch_partition()
    widths = {"w": 3, "a": 1, "b": 2, "v": 2, "c": 1}
    rounds = range(3, 10)
    rows = draw_round_noise(seed, part, widths, rounds)
    assert {name: r.shape for name, r in rows.items()} == {
        "weights": (7, 3),
        "joint": (7, 3),
        "mixed": (7, 3),
    }
    for spec in part.groups:
        for row, t in zip(rows[spec.name], rounds):
            want = SecureStream(seed, f"noise/{spec.name}", t).standard_normal(3)
            assert row.tobytes() == want.tobytes()


def test_empty_batch_still_draws_full_noise_and_records():
    part = _batch_partition()
    seed = coerce16(b"empty-seed")
    dims = {"weights": (3,), "joint": (1, 2), "mixed": (2, 1)}
    empty_batch = {
        name: np.empty((0, d))
        for name, d in (("w", 3), ("a", 1), ("b", 2), ("v", 2), ("c", 1))
    }
    led = Ledger()
    led.record_sample(q=0.25, n=100, policy_tag="poisson_iid")
    noise = _round_noise(seed, part, empty_batch, 0)
    out = run_partitioned_round(empty_batch, part, noise, ledger=led)
    led.close_round()
    events = led.rounds()[0][1]
    assert [e.group_name for e in events] == ["weights", "joint", "mixed"]
    for spec, event in zip(part.groups, events):
        d = sum(dims[spec.name])
        noise = SecureStream(seed, f"noise/{spec.name}", 0).standard_normal(d)
        scales = np.repeat(spec.joint_scales or (1.0,), dims[spec.name])
        want = scales * (event.sigma_sum * noise / (0.25 * 100))
        assert np.array_equal(np.concatenate([out[m] for m in spec.member_names]), want)


def test_group_block_rejects_bad_batches():
    part = _batch_partition()
    good = _random_batch(4)
    noise = _round_noise(coerce16(b"bad-seed"), part, good, 0)
    with pytest.raises(ValueError):  # row counts disagree
        run_partitioned_round(
            {**good, "b": good["b"][:3]}, part, noise, ledger=open_ledger(0.25, 100)
        )
    with pytest.raises(ValueError):  # non-finite entry
        bad = {**good, "w": good["w"].copy()}
        bad["w"][1, 2] = math.inf
        run_partitioned_round(bad, part, noise, ledger=open_ledger(0.25, 100))
    with pytest.raises(KeyError):  # a member is missing
        ledger = open_ledger(0.25, 100)
        run_partitioned_round({"w": good["w"]}, part, noise, ledger=ledger)


def test_run_partitioned_round_returns_every_member_and_records_in_partition_order():
    part = _batch_partition()
    flipped = GroupPartition(groups=tuple(reversed(part.groups)))
    batch = _random_batch(10)
    noise = _round_noise(coerce16(b"partition-seed"), part, batch, 0)
    for p, members in ((part, "wabvc"), (flipped, "vcabw")):
        ledger = open_ledger(q=0.25, n=100)
        out = run_partitioned_round(batch, p, noise, ledger=ledger)
        assert list(out) == list(members)
        events = ledger.rounds()[-1][1]
        assert [ev.group_name for ev in events] == [spec.name for spec in p.groups]
        for spec in p.groups:  # each member's entry is its group's query alone
            alone = group_query(
                batch, spec, noise[spec.name], ledger=open_ledger(0.25, 100)
            )
            for m in spec.member_names:
                assert out[m].tobytes() == alone[m].tobytes()


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
    for name, d in (("w", 3), ("a", 1), ("b", 2), ("v", 2), ("c", 1)):
        base[name] = rng.normal(size=(m, d)) * rng.choice([1e-3, 1e3], size=(m, 1))
        plus[name] = np.insert(base[name], at, 1e3 * rng.normal(size=d), axis=0)
    return base, plus


def _largest_move_over_clip(reduce):
    """max over groups and insert positions of |sum' - sum| / clip_s when
    both batches pass through `reduce` before the round."""
    part = _batch_partition(0.25 * 800)
    seed = coerce16(b"neighbour-seed")
    worst = 0.0
    for at in (0, 100):
        base, plus = _neighbour_batches(at)
        noise = _round_noise(seed, part, base, 4)
        est, est2 = (
            run_partitioned_round(reduce(b), part, noise, ledger=open_ledger(0.25, 800))
            for b in (base, plus)
        )
        for spec in part.groups:
            dims = [base[m].shape[1] for m in spec.member_names]
            scales = np.repeat(spec.joint_scales or (1.0,), dims)
            before = np.concatenate([est[m] for m in spec.member_names])
            after = np.concatenate([est2[m] for m in spec.member_names])
            move = (after - before) * (0.25 * 800) / scales
            worst = max(worst, math.sqrt(np.dot(move, move)) / spec.clip_s)
    return worst


def test_one_added_record_moves_each_group_sum_by_at_most_its_clip():
    worst = _largest_move_over_clip(lambda batch: batch)
    assert 0.5 < worst <= 1.0 + 1e-9


def _factored(batch):
    """The batch with members w and v factored: row i as its first entry
    times row i divided by it, a rule of the row alone, so the two
    neighbours factor their shared rows alike."""
    factored = dict(batch)
    for name in ("w", "v"):
        rows = batch[name]
        factored[name] = ScaledRows(rows[:, 0], rows / rows[:, :1])
    return factored


def test_one_added_record_moves_a_factored_group_sum_by_at_most_its_clip():
    worst = _largest_move_over_clip(_factored)
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
