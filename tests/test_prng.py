import math

import numpy as np
import pytest

from dpledger import SecureStream, coerce_seed, new_seed


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
