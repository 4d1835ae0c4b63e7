"""Record-selection policies: which records each round touches.

Three policies pick which of n records participate in a round: Poisson
(each record independently with probability q), fixed-size sampling
without replacement (a uniformly random b-subset), and disjoint partition
(shuffle once per epoch, deal out non-overlapping batches). Selection is
driven entirely by the keyed byte stream in prng, through integer draws
and comparisons only, so the same seed reproduces the same samples on any
platform.

A Poisson sample's realized size is data-flow from the random tape and is
treated as confidential: repr hides it, and callers that need it must say
so explicitly. Fixed-size and partition batch sizes are configuration,
not secrets. The policy tags and the (q, n, round) check are the
ledger's; what each tag means for accounting is the accountant's.

The Poisson sampler includes each record at exactly the q of its config,
so that q is the rate a round records: SamplerConfig rounds a q below
2^-12 down to a multiple of 2^-64 (every larger float is one already),
and draw_sample keeps index i when its 64-bit keystream word lies below
q * 2^64.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ledger import SamplingPolicy, _check_round
from .prng import SecureStream, coerce_seed


@dataclass(frozen=True, eq=False)
class Sample:
    """Indices chosen for one round: a read-only, ascending int64 array.

    size_confidential marks realized sizes that leak information about the
    random tape (Poisson). repr respects it; size(reveal=True) is the
    explicit, non-private escape hatch for diagnostics. Samples compare by
    identity; compare their indices with np.array_equal.
    """

    indices: np.ndarray
    round_id: int
    policy: SamplingPolicy
    size_confidential: bool

    def __post_init__(self):
        self.indices.flags.writeable = False

    def size(self, reveal: bool = False) -> int:
        if self.size_confidential and not reveal:
            raise ValueError(
                "realized sample size is confidential under this policy; "
                "pass reveal=True only for non-private diagnostics"
            )
        return len(self.indices)

    def __repr__(self) -> str:
        shown = "<confidential>" if self.size_confidential else str(len(self.indices))
        return (
            f"Sample(policy={self.policy.value}, round_id={self.round_id}, "
            f"size={shown})"
        )


@dataclass(frozen=True)
class SamplerConfig:
    """Population size, policy, and the policy's knob (q or batch_size)."""

    policy: SamplingPolicy
    n: int
    seed: bytes
    q: float | None = None
    batch_size: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "seed", coerce_seed(self.seed))
        if self.policy is SamplingPolicy.POISSON_IID:
            if self.q is None:
                raise ValueError("poisson sampling needs q")
            if self.batch_size is not None:
                raise ValueError("poisson sampling takes q, not batch_size")
            _check_round(self.q, self.n)
            # Down to a multiple of 2^-64, the rate draw_sample runs.
            q = math.ldexp(math.floor(math.ldexp(self.q, 64)), -64)
            if q == 0.0:
                raise ValueError(f"q must be at least 2**-64, got {self.q}")
            object.__setattr__(self, "q", q)
        else:
            if self.batch_size is None or not (1 <= self.batch_size <= self.n):
                raise ValueError(
                    f"batch_size must be in [1, n={self.n}], got {self.batch_size}"
                )
            if self.q is not None:
                raise ValueError(f"{self.policy.value} takes batch_size, not q")
            _check_round(self.batch_size / self.n, self.n)


def draw_sample(cfg: SamplerConfig, round_id: int) -> Sample:
    """The Poisson sampler: include each index independently with
    probability q."""
    if cfg.policy is not SamplingPolicy.POISSON_IID:
        raise ValueError(f"config is for {cfg.policy.value}, not poisson_iid")
    if cfg.q == 1.0:
        indices = np.arange(cfg.n, dtype=np.int64)
    else:
        # Index i is kept when its 64-bit word is below q * 2^64, an
        # integer because SamplerConfig makes q a multiple of 2^-64: so
        # with probability exactly q, by integer comparisons alone,
        # identical on every platform.
        threshold = np.uint64(math.ldexp(cfg.q, 64))
        words = SecureStream(cfg.seed, "sample", round_id).uint64(cfg.n)
        indices = np.flatnonzero(words < threshold).astype(np.int64, copy=False)
    return Sample(
        indices=indices,
        round_id=round_id,
        policy=cfg.policy,
        size_confidential=True,
    )


def _fisher_yates(stream: SecureStream, n: int, take: int) -> list[int]:
    """First `take` entries of a uniform permutation of range(n)."""
    pool = list(range(n))
    for i in range(take):
        j = i + stream.randbelow(n - i)
        pool[i], pool[j] = pool[j], pool[i]
    return pool[:take]


def fixed_size_sample(cfg: SamplerConfig, round_id: int) -> Sample:
    """Draw a uniformly random batch_size-subset, without replacement."""
    if cfg.policy is not SamplingPolicy.FIXED_SIZE_WOR:
        raise ValueError(f"config is for {cfg.policy.value}, not fixed_size_wor")
    stream = SecureStream(cfg.seed, "sample", round_id)
    chosen = _fisher_yates(stream, cfg.n, cfg.batch_size)
    return Sample(
        indices=np.sort(np.array(chosen, dtype=np.int64)),
        round_id=round_id,
        policy=cfg.policy,
        size_confidential=False,
    )


def partition_epoch(cfg: SamplerConfig, epoch_id: int) -> list[Sample]:
    """Shuffle the population once, deal floor(n / batch_size) disjoint
    batches, and drop the remainder.

    Round ids of the returned samples are epoch-local ordinals; callers map
    them onto their global round numbering.
    """
    if cfg.policy is not SamplingPolicy.DISJOINT_PARTITION:
        raise ValueError(f"config is for {cfg.policy.value}, not disjoint_partition")
    stream = SecureStream(cfg.seed, "sample", epoch_id)
    order = np.array(_fisher_yates(stream, cfg.n, cfg.n), dtype=np.int64)
    b = cfg.batch_size
    batches = []
    for i in range(cfg.n // b):
        batches.append(
            Sample(
                indices=np.sort(order[i * b : (i + 1) * b]),
                round_id=i,
                policy=cfg.policy,
                size_confidential=False,
            )
        )
    return batches
