import hashlib
import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from cryptography.hazmat.primitives.ciphers import Cipher, algorithms
from scipy import stats

from dpledger import SecureStream, coerce_seed, new_seed, prng


class _OutOfPlaceStream:
    """The keyed stream rebuilt from its definition, drawn out of place:
    each read encrypts a fresh zero bytes object, words are an astype copy
    of the big-endian view, and Box-Muller allocates a result per step."""

    def __init__(self, seed: bytes, purpose: str, round_id: int):
        raw = purpose.encode("utf-8")
        key = hashlib.sha256(
            b"dpledger.stream.v1" + len(raw).to_bytes(4, "big") + raw + seed
        ).digest()
        nonce = round_id.to_bytes(16, "big")
        self._enc = Cipher(algorithms.ChaCha20(key, nonce), mode=None).encryptor()

    def take_bytes(self, n):
        return self._enc.update(bytes(n))

    def uint64(self, count):
        return np.frombuffer(self.take_bytes(8 * count), ">u8").astype(np.uint64)

    def standard_normal(self, count):
        # half-angle Box-Muller: with t = tan(pi v 2**-53) and
        # g = 2r / (1 + t**2), the pair is r cos(2 pi v 2**-53) = g - r and
        # r sin(2 pi v 2**-53) = t g
        pairs = (count + 1) // 2
        bits = self.uint64(2 * pairs) >> np.uint64(11)
        bits[:pairs] += np.uint64(1)
        v = bits.astype(np.float64)
        radius = np.sqrt(-2.0 * np.log(v[:pairs] * 2.0**-53))
        t = np.tan(v[pairs:] * (np.pi * 2.0**-53))
        g = 2.0 * radius / (1.0 + t * t)
        out = np.concatenate([g - radius, t * g])
        return out[:count]


_SEED = b"in-place-draws-0"
# odd and even counts around 2**16 variates, and around the Box-Muller
# block of 2**16 pairs: one full block, then one and two pairs past it; the
# last two are an odd and an even count of blocks
_COUNTS = (
    1, 2, 3, 101, 2**16 - 1, 2**16, 2**16 + 1, 2**17, 2**17 + 1, 2**17 + 3,
    2**19 + 1, 2**20 + 3,
)  # fmt: skip


@pytest.mark.parametrize("count", _COUNTS)
def test_standard_normal_is_the_out_of_place_box_muller(count):
    got = SecureStream(_SEED, "noise/w", 7).standard_normal(count)
    want = _OutOfPlaceStream(_SEED, "noise/w", 7).standard_normal(count)
    assert got.dtype == np.float64 and got.shape == (count,)
    assert got.tobytes() == want.tobytes()


def test_successive_draws_match_the_out_of_place_stream():
    stream = SecureStream(_SEED, "noise/b", 2)
    ref = _OutOfPlaceStream(_SEED, "noise/b", 2)
    for count in _COUNTS:
        got, want = stream.standard_normal(count), ref.standard_normal(count)
        assert got.tobytes() == want.tobytes()
        assert np.array_equal(stream.uint64(count), ref.uint64(count))
        assert stream.take_bytes(count) == ref.take_bytes(count)


def test_words_and_bytes_match_the_out_of_place_reads():
    for n in (0, 1, 8, 13, 4096):
        got = SecureStream(_SEED, "sample", 3).take_bytes(n)
        assert isinstance(got, bytearray)
        assert got == _OutOfPlaceStream(_SEED, "sample", 3).take_bytes(n)
        words = SecureStream(_SEED, "sample", 3).uint64(n)
        assert words.dtype == np.uint64 and words.dtype.isnative
        assert np.array_equal(words, _OutOfPlaceStream(_SEED, "sample", 3).uint64(n))


def test_half_angle_box_muller_is_within_8_ulps_of_cos_and_sin():
    # 2**20 keyed pairs, then the angles 0, 1/4, 1/2, 3/4 and 1 - 2**-53 of
    # a turn: every value is finite and within 8 * 2**-53 * r of r cos and
    # r sin of the angle, as numpy's cos and sin give them
    n = 2**20
    stream = SecureStream(_SEED, "noise/accuracy", 0)
    edges = np.array([0, 2**51, 2**52, 3 * 2**51, 2**53 - 1], dtype=np.uint64)
    radius_words = stream.uint64(n + edges.size)
    angle_words = np.concatenate([stream.uint64(n), edges << np.uint64(11)])
    pairs = radius_words.size
    words = np.concatenate([radius_words, angle_words])
    prng._box_muller(words, pairs)
    got = words.view(np.float64)
    assert np.isfinite(got).all()
    u = ((radius_words >> np.uint64(11)) + np.uint64(1)).astype(np.float64) * 2.0**-53
    r = np.sqrt(-2.0 * np.log(u))
    angle = 2.0 * np.pi * ((angle_words >> np.uint64(11)).astype(np.float64) * 2.0**-53)
    bound = 8 * 2.0**-53 * r
    assert (np.abs(got[:pairs] - r * np.cos(angle)) <= bound).all()
    assert (np.abs(got[pairs:] - r * np.sin(angle)) <= bound).all()


def test_frozen_stream_passes_a_ks_test_against_the_normal():
    # fixed stream, so the statistics are frozen observations; the cos and
    # sin halves of the pairs are tested apart and together
    x = SecureStream(3, "test", 1).standard_normal(2**18)
    for sample in (x[: 2**17], x[2**17 :], x):
        assert stats.kstest(sample, stats.norm.cdf).pvalue > 0.01


def test_standard_normal_peak_memory_is_about_its_output():
    stream = SecureStream(_SEED, "noise/w", 0)
    tracemalloc.start()
    try:
        x = stream.standard_normal(2**20)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * x.nbytes, peak / x.nbytes


def test_concurrent_two_thread_draws_keep_their_bits():
    # more caller threads than cores, each drawing several blocks and
    # switching often: each draw still writes only its own buffer, every
    # block exactly once
    count = 2**18 + 5
    got = {}

    def draw(r):
        got[r] = SecureStream(_SEED, "noise/w", r).standard_normal(count)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=draw, args=(r,)) for r in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for r in range(4):
        want = _OutOfPlaceStream(_SEED, "noise/w", r).standard_normal(count)
        assert got[r].tobytes() == want.tobytes()


# ------------------------------------------------ a batch of rounds' draws


@pytest.mark.parametrize("count", [1, 2, 3, 100, 101])
@pytest.mark.parametrize(
    "rounds",
    [range(0, 1), range(0, 50), range(2**40, 2**40 + 3)],
    ids=["one", "fifty", "far"],
)
def test_standard_normal_rows_are_the_per_round_draws(count, rounds):
    got = prng.standard_normal_rows(_SEED, "noise/w", rounds, count)
    assert got.dtype == np.float64 and got.shape == (len(rounds), count)
    for row, r in zip(got, rounds):
        want = SecureStream(_SEED, "noise/w", r).standard_normal(count)
        assert row.tobytes() == want.tobytes()


def test_standard_normal_rows_past_one_block_are_the_per_round_draws():
    # three rounds of 2**15 + 1 pairs each: no round's own draw passes one
    # block, but the batch does
    count, rounds = 2**16 + 1, range(5, 8)
    got = prng.standard_normal_rows(_SEED, "noise/b", rounds, count)
    for row, r in zip(got, rounds):
        want = _OutOfPlaceStream(_SEED, "noise/b", r).standard_normal(count)
        assert row.tobytes() == want.tobytes()


def test_standard_normal_rows_peak_memory_is_about_twice_its_output():
    # the words, then the rows gathered from them, plus one block
    tracemalloc.start()
    try:
        rows = prng.standard_normal_rows(_SEED, "noise/w", range(4), 2**17)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.25 * rows.nbytes, peak / rows.nbytes


def test_same_key_same_stream():
    a = SecureStream(b"seed-bytes-00000", "noise/w", 3)
    b = SecureStream(b"seed-bytes-00000", "noise/w", 3)
    assert a.take_bytes(64) == b.take_bytes(64)
    assert np.array_equal(a.standard_normal(100), b.standard_normal(100))


def test_purpose_round_and_seed_separate_streams():
    base = SecureStream(b"seed-bytes-00000", "noise/w", 3).take_bytes(32)
    assert SecureStream(b"seed-bytes-00000", "noise/b", 3).take_bytes(32) != base
    assert SecureStream(b"seed-bytes-00000", "noise/w", 4).take_bytes(32) != base
    assert SecureStream(b"seed-bytes-00001", "noise/w", 3).take_bytes(32) != base


def test_prefix_purposes_do_not_alias():
    # the derived key length-prefixes the purpose, so one purpose being a
    # prefix of another cannot collide
    a = SecureStream(8, "noise/w", 0).take_bytes(32)
    b = SecureStream(8, "noise/w2", 0).take_bytes(32)
    c = SecureStream(8, "noise/", 0).take_bytes(32)
    assert a != b and a != c and b != c


def test_standard_normal_moments():
    # fixed stream, so these are frozen observations, not a flaky monte carlo
    s = SecureStream(3, "test", 0)
    x = s.standard_normal(100_000)
    n = x.size
    assert abs(x.mean()) < 4.0 / math.sqrt(n)
    assert abs(x.std() - 1.0) < 0.02


def test_standard_normal_count_parity():
    # odd counts must not disturb the stream contract
    s1 = SecureStream(4, "test", 0)
    s2 = SecureStream(4, "test", 0)
    a = np.concatenate([s1.standard_normal(3), s1.standard_normal(3)])
    b = np.concatenate([s2.standard_normal(3), s2.standard_normal(3)])
    assert np.array_equal(a, b)


def test_randbelow_bounds_and_spread():
    s = SecureStream(5, "test", 0)
    draws = [s.randbelow(7) for _ in range(7000)]
    assert min(draws) == 0
    assert max(draws) == 6
    counts = np.bincount(draws, minlength=7)
    # expected 1000 per bucket; 3 sigma of a binomial(7000, 1/7) is ~88
    assert np.all(np.abs(counts - 1000) < 120)


def test_randbelow_one_is_zero():
    s = SecureStream(6, "test", 0)
    assert s.randbelow(1) == 0
    assert 0 <= s.randbelow(2**64) < 2**64
    for bad in (0, 2**64 + 1):  # above 2**64 no 8-byte draw would be accepted
        with pytest.raises(ValueError):
            s.randbelow(bad)


def test_uint64_shape_and_determinism():
    a = SecureStream(7, "test", 5).uint64(17)
    b = SecureStream(7, "test", 5).uint64(17)
    assert a.dtype == np.uint64
    assert a.shape == (17,)
    assert np.array_equal(a, b)


def test_coerce_seed_forms():
    raw = b"x" * 16
    assert coerce_seed(raw) == raw
    assert coerce_seed(raw.hex()) == raw
    assert coerce_seed(12345) == (12345).to_bytes(16, "big")
    with pytest.raises(ValueError):
        coerce_seed(b"short")
    with pytest.raises(ValueError):
        coerce_seed("abcd")  # hex but wrong length
    with pytest.raises(ValueError):
        coerce_seed(-1)
    with pytest.raises(TypeError):
        coerce_seed(3.14)


def test_new_seed_entropy():
    a = new_seed()
    b = new_seed()
    assert isinstance(a, bytes)
    assert len(a) >= 16
    assert a != b
