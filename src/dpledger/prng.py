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
from the keystream. Note this is an exact transform of the uniforms, not a
floating-point-exact DP mechanism; noise values may differ in the last ulp
across math libraries even though the underlying keystream is identical.
"""

from __future__ import annotations

import hashlib
import secrets

import numpy as np
from cryptography.hazmat.primitives.ciphers import Cipher, algorithms

SEED_BYTES = 16

_KEY_DOMAIN = b"dpledger.stream.v1"
_TWO_POW_MINUS_53 = 2.0**-53
_DROP = np.uint64(11)  # a uniform keeps the top 53 bits of a 64-bit word
_ONE = np.uint64(1)


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

    def take_bytes(self, n: int) -> bytes:
        """Read the next n keystream bytes."""
        return self._encryptor.update(bytes(n))

    def uint64(self, count: int) -> np.ndarray:
        """Next `count` independent 64-bit unsigned integers."""
        raw = self.take_bytes(8 * count)
        return np.frombuffer(raw, dtype=">u8").astype(np.uint64)

    def standard_normal(self, count: int) -> np.ndarray:
        """Next `count` i.i.d. N(0, 1) variates via Box-Muller."""
        if count < 0:
            raise ValueError("count must be nonnegative")
        if count == 0:
            return np.zeros(0)
        pairs = (count + 1) // 2
        # One keystream read for both halves, then steps in place. Each
        # 64-bit word keeps its top 53 bits; the first half adds 1 and the
        # second does not, and both are scaled by 2**-53, giving uniforms
        # on (0, 1] (safe under log) for the radius and on [0, 1) for the
        # angle of the Box-Muller formula.
        bits = self.uint64(2 * pairs)
        bits >>= _DROP
        bits[:pairs] += _ONE
        u = bits.astype(np.float64)
        del bits
        u *= _TWO_POW_MINUS_53
        u1, angle = u.reshape(2, pairs)
        radius = np.sqrt(-2.0 * np.log(u1))
        angle *= 2.0 * np.pi
        out = np.empty((2, pairs))
        np.cos(angle, out[0])
        np.sin(angle, out[1])
        out *= radius
        return out.reshape(-1)[:count]

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
