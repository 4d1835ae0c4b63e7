"""Deterministic cryptographically secure random streams.

Sampling decisions and Gaussian noise are the two randomness consumers whose
draws affect the privacy of the output, so both are generated from a stream
cipher (ChaCha20) keyed by a 128-bit seed. Each consumer gets its own
substream, addressed by a purpose label and a round number, so that

  * distinct purposes ("sample", "noise/<group>") never share bytes,
  * a round's noise can be replayed exactly by reconstructing the stream,
  * the same seed produces the same samples on any platform (the sampling
    path is integer/compare-only arithmetic on the keystream).

Gaussian variates use the Box-Muller transform over 53-bit uniforms taken
from the keystream, in its half-angle form: one tan of half the angle in
place of a cos and a sin of the angle (see _box_muller). Note this is an
exact transform of the uniforms, not a floating-point-exact DP mechanism;
noise values may differ in the last ulps across math libraries and CPUs
even though the underlying keystream is identical, since numpy picks its
log and tan kernels by the SIMD extensions the CPU has.

Every draw works in place, on the calling thread: the cipher encrypts
zeros into one fresh buffer, and that same memory becomes the 64-bit
words, then the uniforms, then the Gaussians, one block of pairs at a
time. A draw holds about 1x its output at its peak, plus one block.

A round's noise is small (one value per column of each group), and one
Box-Muller pass per round would be mostly per-call overhead, so
standard_normal_rows draws one purpose's Gaussians for a batch of rounds
at once: each round still reads its own stream, and each row has the
bits that round's own standard_normal draw would give it.
"""

from __future__ import annotations

import hashlib
import secrets
import sys
from collections.abc import Sequence

import numpy as np
from cryptography.hazmat.primitives.ciphers import Cipher, algorithms

SEED_BYTES = 16

_KEY_DOMAIN = b"dpledger.stream.v1"
_TWO_POW_MINUS_53 = 2.0**-53
_PI_TWO_POW_MINUS_53 = np.pi * _TWO_POW_MINUS_53  # exact: a power-of-two scale
_DROP = np.uint64(11)  # a uniform keeps the top 53 bits of a 64-bit word
_ONE = np.uint64(1)
# Box-Muller pairs turned into Gaussians per step; the one temporary a
# normal draw holds is a block of this many floats.
_PAIR_BLOCK = 2**16


def new_seed() -> bytes:
    """Draw a fresh 128-bit seed from the operating system entropy pool."""
    return secrets.token_bytes(SEED_BYTES)


def coerce_seed(seed: int | str | bytes) -> bytes:
    """Normalize a user-supplied seed to 16 bytes.

    Accepts raw bytes, a hex string, or a nonnegative integer below 2**128.
    """
    if isinstance(seed, bytes):
        if len(seed) != SEED_BYTES:
            raise ValueError(f"seed must be {SEED_BYTES} bytes, got {len(seed)}")
        return seed
    if isinstance(seed, str):
        raw = bytes.fromhex(seed)
        if len(raw) != SEED_BYTES:
            raise ValueError(f"hex seed must encode {SEED_BYTES} bytes, got {len(raw)}")
        return raw
    if isinstance(seed, int):
        if not 0 <= seed < 2 ** (8 * SEED_BYTES):
            raise ValueError("integer seed out of range for 128 bits")
        return seed.to_bytes(SEED_BYTES, "big")
    raise TypeError(f"unsupported seed type {type(seed).__name__}")


class SecureStream:
    """One (seed, purpose, round) substream of the keyed cipher.

    The key is derived as SHA-256(domain || len(purpose) || purpose || seed)
    and the 16-byte nonce encodes the round number, so streams for distinct
    purposes or rounds are independent keystreams. Instances are stateful
    readers: successive calls consume successive keystream bytes.
    """

    def __init__(self, seed: int | str | bytes, purpose: str, round_id: int = 0):
        if round_id < 0:
            raise ValueError(f"round_id must be nonnegative, got {round_id}")
        seed_raw = coerce_seed(seed)
        purpose_raw = purpose.encode("utf-8")
        digest = hashlib.sha256(
            _KEY_DOMAIN + len(purpose_raw).to_bytes(4, "big") + purpose_raw + seed_raw
        ).digest()
        nonce = round_id.to_bytes(16, "big")
        self._encryptor = Cipher(
            algorithms.ChaCha20(digest, nonce), mode=None
        ).encryptor()

    def take_bytes(self, n: int) -> bytearray:
        """Read the next n keystream bytes: zeros encrypted in place into
        a fresh, writable buffer, which the caller owns."""
        buf = bytearray(n)
        self._encryptor.update_into(buf, buf)
        return buf

    def uint64(self, count: int) -> np.ndarray:
        """Next `count` independent 64-bit unsigned integers, read
        big-endian from the keystream. The array is the keystream buffer
        itself, byte-swapped in place into native words."""
        words = np.frombuffer(self.take_bytes(8 * count), dtype=np.uint64)
        if sys.byteorder == "little":
            words.byteswap(inplace=True)
        return words

    def standard_normal(self, count: int) -> np.ndarray:
        """Next `count` i.i.d. N(0, 1) variates via Box-Muller, computed in
        the keystream buffer itself (see _box_muller). The peak is the
        output plus one block of floats: 1.0625x for 2**20 variates.
        """
        if count < 0:
            raise ValueError("count must be nonnegative")
        if count == 0:
            return np.zeros(0)
        pairs = (count + 1) // 2
        words = self.uint64(2 * pairs)
        _box_muller(words, pairs)
        return words.view(np.float64)[:count]

    def randbelow(self, bound: int) -> int:
        """Uniform integer in [0, bound) by rejection (no modulo bias); one
        draw is 8 bytes, so bound is at most 2**64."""
        if not 0 < bound <= 2**64:
            raise ValueError(f"bound must be in [1, 2**64], got {bound}")
        limit = (2**64 // bound) * bound
        while True:
            x = int.from_bytes(self.take_bytes(8), "big")
            if x < limit:
                return x % bound


def standard_normal_rows(
    seed: int | str | bytes, purpose: str, rounds: Sequence[int], count: int
) -> np.ndarray:
    """A (len(rounds) x count) array whose row r is, bit for bit,
    SecureStream(seed, purpose, rounds[r]).standard_normal(count).

    Each round's stream reads its 2 * ceil(count / 2) words through
    take_bytes, radius half then angle half, as its own draw would. The
    rows' radius halves are laid out one after another, then their angle
    halves, so the batch is one draw of len(rounds) * ceil(count / 2)
    pairs, in which round r's pair j is pair r * ceil(count / 2) + j.
    One Box-Muller pass transforms it; every step is elementwise, so
    each pair gets the bits of its round's own draw. The peak is about
    twice the output (the words, then the rows gathered from them), plus
    one block of floats.
    """
    if count < 0:
        raise ValueError("count must be nonnegative")
    pairs = (count + 1) // 2
    words = np.empty(2 * len(rounds) * pairs, dtype=np.uint64)
    halves = words.reshape(2, len(rounds), pairs)
    for r, round_id in enumerate(rounds):
        # The round's keystream buffer is freed as soon as it is copied.
        halves[:, r] = np.frombuffer(
            SecureStream(seed, purpose, round_id).take_bytes(16 * pairs), dtype=">u8"
        ).reshape(2, pairs)
    _box_muller(words, len(rounds) * pairs)
    gaussians = halves.view(np.float64)
    return np.concatenate((gaussians[0], gaussians[1]), axis=1)[:, :count]


def _box_muller(words: np.ndarray, pairs: int) -> None:
    """Turn a draw's 2 * pairs keystream words into Gaussians in place, one
    block of _PAIR_BLOCK pairs at a time, on the calling thread.

    Word i < pairs is the radius half of pair i and word pairs + i its
    angle half. Each word keeps its top 53 bits, v; the radius half takes
    u = (v + 1) * 2**-53, a uniform on (0, 1] (safe under log), and
    r = sqrt(-2 log u). The angle half takes t = tan(v * (pi * 2**-53)),
    the tangent of half the angle 2 pi v 2**-53. With g = 2r / (1 + t**2),
    pair i becomes g - r = r cos(2 pi v 2**-53) at word i and
    t * g = r sin(2 pi v 2**-53) at word pairs + i: the half-angle
    identities, exact in exact arithmetic, with one tan in place of a cos
    and a sin. The words become floats in the same memory: element i is
    read before it is written. Every step is elementwise, so a block's
    bits do not depend on the other blocks.
    """
    as_float = words.view(np.float64)
    block = np.empty(min(pairs, _PAIR_BLOCK))
    for lo in range(0, pairs, _PAIR_BLOCK):
        hi = min(lo + _PAIR_BLOCK, pairs)
        radius_bits = words[lo:hi]
        angle_bits = words[pairs + lo : pairs + hi]
        radius_bits >>= _DROP
        radius_bits += _ONE
        angle_bits >>= _DROP
        r = as_float[lo:hi]
        t = as_float[pairs + lo : pairs + hi]
        np.copyto(r, radius_bits, casting="unsafe")
        np.copyto(t, angle_bits, casting="unsafe")
        r *= _TWO_POW_MINUS_53
        np.log(r, out=r)
        r *= -2.0
        np.sqrt(r, out=r)
        t *= _PI_TWO_POW_MINUS_53
        np.tan(t, out=t)
        g = np.multiply(t, t, out=block[: hi - lo])
        g += 1.0
        np.divide(r, g, out=g)
        g *= 2.0  # exact, so 2 * (r / x) is (2 * r) / x bit for bit
        t *= g
        np.subtract(g, r, out=r)
