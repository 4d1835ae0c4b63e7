"""Record-selection policies and what each one means for accounting.

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
not secrets.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .prng import SecureStream, coerce_seed


class SamplingPolicy(enum.Enum):
    """Selection policy tags; the string values are what the ledger stores."""

    POISSON_IID = "poisson_iid"
    FIXED_SIZE_WOR = "fixed_size_wor"
    DISJOINT_PARTITION = "disjoint_partition"


def _check_round(q: float, n: int, round_id: int = 0) -> None:
    """The sampling facts every round carries: rate q in (0, 1], population
    n at least 1, round id nonnegative."""
    if not (0.0 < q <= 1.0):
        raise ValueError(f"q must be in (0, 1], got {q}")
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    if round_id < 0:
        raise ValueError(f"round_id must be nonnegative, got {round_id}")


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
        else:
            if self.batch_size is None or not (1 <= self.batch_size <= self.n):
                raise ValueError(
                    f"batch_size must be in [1, n={self.n}], got {self.batch_size}"
                )
            if self.q is not None:
                raise ValueError(f"{self.policy.value} takes batch_size, not q")
        _check_round(self.rate, self.n)

    @property
    def rate(self) -> float:
        """The sampling rate each round records and is accounted at: q, or
        batch_size / n for the fixed-size and partition policies."""
        if self.policy is SamplingPolicy.POISSON_IID:
            return self.q
        return self.batch_size / self.n


@dataclass(frozen=True)
class AccountingSupport:
    """Whether rounds under a policy can be fed to the accountant, and how."""

    supported: bool
    caveat: str | None = None
    reason: str | None = None


def poisson_sample(cfg: SamplerConfig, round_id: int) -> Sample:
    """Include each index independently with probability q."""
    if cfg.policy is not SamplingPolicy.POISSON_IID:
        raise ValueError(f"config is for {cfg.policy.value}, not poisson_iid")
    stream = SecureStream(cfg.seed, "sample", round_id)
    # bits < ceil(q * 2^53) is exactly "53-bit uniform < q" (the product is
    # a pure exponent shift, never rounded): integer selection, identical
    # on every platform. q = 1 makes every index pass.
    threshold = math.ceil(cfg.q * 2.0**53)
    bits = stream.uint64(cfg.n) >> np.uint64(11)
    return Sample(
        indices=np.flatnonzero(bits < threshold).astype(np.int64, copy=False),
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


def draw_sample(cfg: SamplerConfig, round_id: int) -> Sample:
    """Dispatch to the policy's per-round sampler (not valid for the
    epoch-structured partition policy)."""
    if cfg.policy is SamplingPolicy.POISSON_IID:
        return poisson_sample(cfg, round_id)
    if cfg.policy is SamplingPolicy.FIXED_SIZE_WOR:
        return fixed_size_sample(cfg, round_id)
    raise ValueError(
        "disjoint_partition is sampled per epoch; use partition_epoch"
    )


_WOR_CAVEAT = (
    "fixed-size sampling without replacement is accounted as Poisson at "
    "q = batch_size / n; this is a heuristic, not a proven equivalence"
)


def policy_accounting_support(
    policy: SamplingPolicy | str, *, wor_as_poisson: bool = True
) -> AccountingSupport:
    """Accounting stance for a policy tag as found in a ledger."""
    tag = policy.value if isinstance(policy, SamplingPolicy) else str(policy)
    if tag == SamplingPolicy.POISSON_IID.value:
        return AccountingSupport(supported=True)
    if tag == SamplingPolicy.FIXED_SIZE_WOR.value:
        if wor_as_poisson:
            return AccountingSupport(supported=True, caveat=_WOR_CAVEAT)
        return AccountingSupport(
            supported=False, reason="poisson-style accounting for fixed-size "
            "sampling was disabled by configuration"
        )
    if tag == SamplingPolicy.DISJOINT_PARTITION.value:
        return AccountingSupport(
            supported=False,
            reason="no supported analysis for disjoint-partition sampling; "
            "the accountant refuses rather than guessing",
        )
    return AccountingSupport(supported=False, reason=f"unknown policy tag {tag!r}")
