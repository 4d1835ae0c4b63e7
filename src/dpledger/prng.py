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

Every draw works in place: the cipher encrypts zeros into one fresh
buffer, and that same memory becomes the 64-bit words, then the uniforms,
then the Gaussians. A draw of several Box-Muller blocks (a dataset) shares
the steps after the cipher between the calling thread and one worker
thread, block by block; numpy's ufuncs release the GIL, so the two run on
two cores, and each element goes through the same ufuncs on the same
input, so the bits do not depend on which thread took which block. A draw
holds about 1x its output at its peak, plus one block per thread.

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
import threading
from collections.abc import Callable, Sequence

import numpy as np
from cryptography.hazmat.primitives.ciphers import Cipher, algorithms

SEED_BYTES = 16

_KEY_DOMAIN = b"dpledger.stream.v1"
_TWO_POW_MINUS_53 = 2.0**-53
_DROP = np.uint64(11)  # a uniform keeps the top 53 bits of a 64-bit word
_ONE = np.uint64(1)
# Box-Muller pairs turned into Gaussians per step; the one temporary a
# normal draw holds per thread is a block of this many floats.
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
        the keystream buffer itself, on two threads if the draw spans two
        or more blocks of _PAIR_BLOCK pairs (see _transform). A failure on
        either thread is raised here, and no partly transformed array is
        returned. The peak is the output plus one block of floats per
        thread: 1.125x for 2**20 variates.
        """
        if count < 0:
            raise ValueError("count must be nonnegative")
        if count == 0:
            return np.zeros(0)
        pairs = (count + 1) // 2
        words = self.uint64(2 * pairs)
        _transform(words, pairs)
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
    one block of floats per Box-Muller thread.
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
    _transform(words, len(rounds) * pairs)
    gaussians = halves.view(np.float64)
    return np.concatenate((gaussians[0], gaussians[1]), axis=1)[:, :count]


def _transform(words: np.ndarray, pairs: int) -> None:
    """Box-Muller over a draw's 2 * pairs words, in place.

    A draw of two or more blocks of _PAIR_BLOCK pairs is transformed by
    two threads, the caller and one worker, each taking the next block no
    thread has taken until none is left, so a thread slowed by other work
    takes fewer; a smaller draw stays on the caller. The bits are the
    same either way. A failure on either thread is raised here, after
    both threads are done.
    """
    starts = iter(range(0, pairs, _PAIR_BLOCK))
    lock = threading.Lock()

    def take() -> int | None:
        with lock:
            return next(starts, None)

    if pairs <= _PAIR_BLOCK:
        _box_muller(words, pairs, take)
        return
    failure: list[BaseException] = []

    def work():
        try:
            _box_muller(words, pairs, take)
        except BaseException as exc:
            failure.append(exc)

    worker = threading.Thread(target=work, name="dpledger-box-muller")
    worker.start()
    try:
        _box_muller(words, pairs, take)
    finally:
        worker.join()
    if failure:
        raise failure[0]


def _box_muller(words: np.ndarray, pairs: int, take: Callable[[], int | None]) -> None:
    """Turn a draw's 2 * pairs keystream words into Gaussians in place, one
    block of _PAIR_BLOCK pairs at a time, for each block start take() gives,
    until it gives None.

    Word i < pairs is the radius half of pair i and word pairs + i its
    angle half. Each word keeps its top 53 bits; the radius half adds 1
    and the angle half does not, and both are scaled by 2**-53, giving
    uniforms on (0, 1] (safe under log) for the radius and on [0, 1) for
    the angle. The words become floats in the same memory: element i is
    read before it is written. Pair i then becomes cos(angle) * radius at
    word i and sin(angle) * radius at word pairs + i. Every step is
    elementwise, so a block's bits do not depend on the other blocks.
    """
    as_float = words.view(np.float64)
    block = np.empty(min(pairs, _PAIR_BLOCK))
    while (lo := take()) is not None:
        hi = min(lo + _PAIR_BLOCK, pairs)
        radius_bits = words[lo:hi]
        angle_bits = words[pairs + lo : pairs + hi]
        radius_bits >>= _DROP
        radius_bits += _ONE
        angle_bits >>= _DROP
        r = as_float[lo:hi]
        a = as_float[pairs + lo : pairs + hi]
        np.copyto(r, radius_bits, casting="unsafe")
        np.copyto(a, angle_bits, casting="unsafe")
        r *= _TWO_POW_MINUS_53
        a *= _TWO_POW_MINUS_53
        np.log(r, out=r)
        r *= -2.0
        np.sqrt(r, out=r)
        a *= 2.0 * np.pi
        cos_r = np.cos(a, out=block[: hi - lo])
        cos_r *= r
        np.sin(a, out=a)
        a *= r
        r[...] = cos_r
