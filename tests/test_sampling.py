import hashlib
import itertools
import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from dpledger import (
    SamplerConfig,
    SamplingPolicy,
    draw_sample,
    fixed_size_sample,
    partition_epoch,
    sampling,
)

SEED = b"sampling-tests-0"


def _poisson(n, q, seed=SEED):
    return SamplerConfig(policy=SamplingPolicy.POISSON_IID, n=n, seed=seed, q=q)


def _fixed(n, b, seed=SEED):
    return SamplerConfig(
        policy=SamplingPolicy.FIXED_SIZE_WOR, n=n, seed=seed, batch_size=b
    )


def _disjoint(n, b, seed=SEED):
    return SamplerConfig(
        policy=SamplingPolicy.DISJOINT_PARTITION, n=n, seed=seed, batch_size=b
    )


# -------------------------------------------------------------- validation


def test_config_rejects_bad_knobs():
    with pytest.raises(ValueError):
        _poisson(10, 0.0)  # q = 0 rejected at config; empty samples stay legal
    with pytest.raises(ValueError):
        _poisson(10, 1.5)
    with pytest.raises(ValueError):
        _fixed(10, 0)
    with pytest.raises(ValueError):
        _fixed(10, 11)
    with pytest.raises(ValueError):
        SamplerConfig(policy=SamplingPolicy.POISSON_IID, n=10, seed=SEED, batch_size=2)
    with pytest.raises(ValueError):
        SamplerConfig(policy=SamplingPolicy.FIXED_SIZE_WOR, n=10, seed=SEED, q=0.5)
    with pytest.raises(ValueError):
        SamplerConfig(policy=SamplingPolicy.POISSON_IID, n=10, seed=SEED)
    with pytest.raises(ValueError):
        _poisson(0, 0.5)


def test_policy_mismatch_rejected():
    with pytest.raises(ValueError):
        draw_sample(_fixed(10, 2), 0)
    with pytest.raises(ValueError):
        fixed_size_sample(_poisson(10, 0.5), 0)
    with pytest.raises(ValueError):
        partition_epoch(_poisson(10, 0.5), 0)


# ----------------------------------------------------------------- poisson


def test_poisson_q_one_takes_everything():
    for r in range(5):
        s = draw_sample(_poisson(37, 1.0), r)
        assert np.array_equal(s.indices, np.arange(37))


def test_poisson_peak_memory_is_about_its_words():
    # one 8-byte keystream word per record, plus the mask and the ~q * n
    # chosen indices
    n = 20_000
    cfg = _poisson(n, 0.05)
    tracemalloc.start()
    try:
        draw_sample(cfg, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * 8 * n, peak / (8 * n)


def test_poisson_mean_size():
    # binomial oracle: mean |R| near n*q at 3 standard errors of the mean
    n, q, trials = 10_000, 0.01, 1_000
    cfg = _poisson(n, q)
    sizes = np.array(
        [len(draw_sample(cfg, r).indices) for r in range(trials)], dtype=float
    )
    bound = 3.0 * math.sqrt(n * q * (1.0 - q) / trials)
    assert abs(sizes.mean() - n * q) <= bound


def test_poisson_membership_pairwise_uncorrelated():
    # indicator covariance across all index pairs, n=16, q=0.3, 1e4 trials;
    # the stream is fixed so this is a frozen observation
    n, q, trials = 16, 0.3, 10_000
    cfg = _poisson(n, q)
    hits = np.zeros((trials, n))
    for r in range(trials):
        hits[r, list(draw_sample(cfg, r).indices)] = 1.0
    centered = hits - hits.mean(axis=0)
    # standard error of an empirical covariance of two q-Bernoullis
    se = q * (1.0 - q) / math.sqrt(trials)
    for i, j in itertools.combinations(range(n), 2):
        cov = float(np.dot(centered[:, i], centered[:, j])) / trials
        assert abs(cov) <= 3.0 * se, (i, j, cov)


def test_poisson_size_confidential():
    s = draw_sample(_poisson(100, 0.5), 0)
    with pytest.raises(ValueError):
        s.size()
    assert s.size(reveal=True) == len(s.indices)
    assert "<confidential>" in repr(s)
    assert str(len(s.indices)) not in repr(s).split("round_id")[1]


def test_poisson_rate_recorded_is_the_rate_that_runs(monkeypatch):
    # For edge rates and 200 log-uniform ones down to 1e-19: the recorded
    # q is a multiple of 2^-64, at most 2^-64 below the q asked for and
    # unchanged from 2^-12 up, and the sampler keeps a word exactly when
    # it lies below q * 2^64.
    rng = random.Random(12)
    edges = [1.0, 0.05, 1.0 - 2.0**-53, 2.0**-12, math.nextafter(2.0**-12, 0), 2.0**-64]
    rates = edges + [10.0 ** rng.uniform(-19.0, 0.0) for _ in range(200)]
    for q in rates:
        cfg = _poisson(2, q)
        threshold = Fraction(cfg.q) * 2**64
        assert threshold.denominator == 1, q
        assert Fraction(threshold, 2**64) == Fraction(cfg.q)
        assert 0 <= Fraction(q) - Fraction(cfg.q) < Fraction(1, 2**64), q
        if q >= 2.0**-12:
            assert cfg.q == q
        with monkeypatch.context() as patch:
            if q < 1.0:
                cut = int(threshold)
                patch.setattr(
                    sampling.SecureStream,
                    "uint64",
                    lambda self, count: np.array([cut - 1, cut], dtype=np.uint64),
                )
            kept = draw_sample(cfg, 0).indices.tolist()
        assert kept == ([0, 1] if q == 1.0 else [0]), q


@pytest.mark.parametrize("q", [2.0**-65, 1e-30, 5e-324])
def test_poisson_rate_below_2_to_the_minus_64_refused(q):
    with pytest.raises(ValueError, match="q must be at least 2\\*\\*-64"):
        _poisson(10, q)


def _reference_poisson(seed, n, q, round_id):
    """Index i is kept when word i of the round's keystream, read
    big-endian as a Python int, lies below q * 2^64 as a Fraction."""
    buf = bytes(sampling.SecureStream(seed, "sample", round_id).take_bytes(8 * n))
    cut = Fraction(q) * 2**64
    return [i for i in range(n) if int.from_bytes(buf[8 * i : 8 * i + 8], "big") < cut]


@pytest.mark.parametrize("q", [0.05, 0.3, 1.0 - 2.0**-53, 3e-5, 2.0**-64])
def test_poisson_matches_a_big_integer_reference(q):
    cfg = _poisson(300, q)
    for r in range(3):
        want = _reference_poisson(SEED, 300, cfg.q, r)
        assert draw_sample(cfg, r).indices.tolist() == want


# -------------------------------------------------------------- fixed size


def test_fixed_full_batch_is_everything():
    s = fixed_size_sample(_fixed(12, 12), 0)
    assert np.array_equal(s.indices, np.arange(12))


def test_fixed_no_duplicates_and_size():
    cfg = _fixed(50, 7)
    for r in range(200):
        s = fixed_size_sample(cfg, r)
        assert len(s.indices) == 7
        assert len(set(s.indices)) == 7
        assert all(0 <= i < 50 for i in s.indices)
        assert s.size() == 7  # fixed size is public


def test_fixed_singletons_uniform():
    # b=1, n=3: each singleton lands near 1/3
    trials = 30_000
    cfg = _fixed(3, 1)
    counts = np.zeros(3)
    for r in range(trials):
        counts[fixed_size_sample(cfg, r).indices[0]] += 1
    p = 1.0 / 3.0
    bound = 3.0 * math.sqrt(p * (1.0 - p) / trials)
    for c in counts:
        assert abs(c / trials - p) <= bound


def test_fixed_pairs_uniform():
    # b=2, n=4: all 6 pairs equiprobable
    trials = 60_000
    cfg = _fixed(4, 2)
    freq = {pair: 0 for pair in itertools.combinations(range(4), 2)}
    for r in range(trials):
        freq[tuple(sorted(fixed_size_sample(cfg, r).indices))] += 1
    p = 1.0 / 6.0
    bound = 3.0 * math.sqrt(p * (1.0 - p) / trials)
    for pair, c in freq.items():
        assert abs(c / trials - p) <= bound, pair


# --------------------------------------------------------------- partition


def test_partition_covers_when_divisible():
    batches = partition_epoch(_disjoint(4, 2), 0)
    assert len(batches) == 2
    seen = sorted(i for b in batches for i in b.indices)
    assert seen == [0, 1, 2, 3]


def test_partition_drops_remainder():
    batches = partition_epoch(_disjoint(5, 2), 0)
    assert len(batches) == 2
    seen = [i for b in batches for i in b.indices]
    assert len(seen) == 4
    assert len(set(seen)) == 4


def test_partition_always_disjoint():
    cfg = _disjoint(23, 4)
    for epoch in range(50):
        batches = partition_epoch(cfg, epoch)
        seen = [i for b in batches for i in b.indices]
        assert len(seen) == len(set(seen))
        assert len(batches) == 23 // 4


def test_partition_epochs_independent():
    # chance that two consecutive epochs start with the same first batch
    # should sit near 1/C(6,2) = 1/15
    epochs = 10_000
    cfg = _disjoint(6, 2)
    prev = None
    matches = 0
    for e in range(epochs + 1):
        first = frozenset(partition_epoch(cfg, e)[0].indices)
        if prev is not None and first == prev:
            matches += 1
        prev = first
    p = 1.0 / math.comb(6, 2)
    bound = 3.0 * math.sqrt(p * (1.0 - p) / epochs)
    assert abs(matches / epochs - p) <= bound


# ------------------------------------------------------------- determinism


def test_same_seed_same_sample():
    for draw, cfg in (
        (draw_sample, _poisson(64, 0.25)),
        (fixed_size_sample, _fixed(64, 9)),
    ):
        a = draw(cfg, 5)
        b = draw(cfg, 5)
        assert np.array_equal(a.indices, b.indices)
        c = draw(cfg, 6)
        assert not np.array_equal(a.indices, c.indices)


def test_different_seed_different_sample():
    a = draw_sample(_poisson(64, 0.25, seed=b"sampling-seed-0a"), 0)
    b = draw_sample(_poisson(64, 0.25, seed=b"sampling-seed-0b"), 0)
    assert not np.array_equal(a.indices, b.indices)


def _index_digest(samples) -> str:
    digest = hashlib.sha256()
    for sample in samples:
        digest.update(np.asarray(sample.indices, dtype="<i8").tobytes())
    return digest.hexdigest()


def test_samplers_known_answers():
    # sha256 of the little-endian int64 index bytes, round after round:
    # the same seed must give the same samples on every platform and
    # every later version of the samplers. The Poisson digest is also that
    # of _reference_poisson at the same seed, n and q.
    seed = b"known-answer-smp"
    poisson = SamplerConfig(
        policy=SamplingPolicy.POISSON_IID, n=1000, seed=seed, q=0.05
    )
    fixed = SamplerConfig(
        policy=SamplingPolicy.FIXED_SIZE_WOR, n=1000, seed=seed, batch_size=40
    )
    disjoint = SamplerConfig(
        policy=SamplingPolicy.DISJOINT_PARTITION, n=103, seed=seed, batch_size=20
    )
    assert _index_digest(draw_sample(poisson, r) for r in range(3)) == (
        "bc50ff84751e7684e51d54bab488c07d48c474b4f7499e3ddec9186fac294114"
    )
    assert _index_digest(fixed_size_sample(fixed, r) for r in range(3)) == (
        "a57641bb1ad016fd485a787cd9568bbd083546fff001521b2fe625c33c769f67"
    )
    epochs = (b for e in range(2) for b in partition_epoch(disjoint, e))
    assert _index_digest(epochs) == (
        "706362f2daf11af7b2eb69414e4341c6599c3d78f319fc90f26927b0924ca7d5"
    )


def test_indices_are_read_only_int64():
    for sample in (
        draw_sample(_poisson(64, 0.25), 0),
        fixed_size_sample(_fixed(64, 9), 0),
        partition_epoch(_disjoint(64, 9), 0)[0],
    ):
        assert sample.indices.dtype == np.int64
        assert np.all(np.diff(sample.indices) > 0)
        with pytest.raises(ValueError):
            sample.indices[0] = 1


def test_draw_sample_dispatch():
    assert draw_sample(_poisson(10, 0.5), 0).policy is SamplingPolicy.POISSON_IID
    # the partition policy is epoch-structured; the Poisson sampler refuses it
    with pytest.raises(ValueError):
        draw_sample(_disjoint(10, 3), 4)

