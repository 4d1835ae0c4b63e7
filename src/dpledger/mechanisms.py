"""Noisy group queries over a batch of records and their round-level algebra.

A batch is the one record format: a mapping from member name to a float64
(m x d) block with one row per record. group_query clips the rows of a
group's (m x D_g) block, sums its columns and adds one Gaussian draw; a
microbatch is a reshape and a mean.

The spec's mechanism picks how a group is privatized. The separate
mechanism clips each record's concatenation of the group's members to
clip_s. The joint mechanism divides member j by its scale alpha_j, clips
the scaled concatenation once, and multiplies the estimate back, so
member j sees noise of std alpha_j * noise_sigma while the group costs one
(clip_s, sigma_sum) tuple instead of k. Both emit the tuple the privacy
ledger exists to record, with sigma_sum = q * n * noise_sigma computed
here, once, so the ledger sees the identical float. How a round's tuples
compose into one equivalent query is the ledger's effective_z, not
decided here.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .ledger import Ledger, PrivacyTuple, _check_round
from .prng import SecureStream
from .vectors import GroupPartition, GroupSpec, clip_rows


@dataclass(frozen=True)
class RoundContext:
    """Per-round facts the mechanisms need: sampling rate, population, id.

    insecure_test_mode permits sigma_sum = 0 (no noise, no privacy); any
    round run that way must be treated as tainted downstream.
    """

    q: float
    n: int
    round_id: int
    insecure_test_mode: bool = False

    def __post_init__(self):
        _check_round(self.q, self.n, self.round_id)

    @property
    def qn(self) -> float:
        """The fixed average denominator: expected sample size q * n."""
        return self.q * self.n


@dataclass(frozen=True)
class GroupEstimate:
    """Privatized average estimates for one group, plus the emitted tuple."""

    group_name: str
    member_names: tuple[str, ...]
    estimates: tuple[np.ndarray, ...]
    emitted: PrivacyTuple

    def get(self, name: str) -> np.ndarray:
        for member, est in zip(self.member_names, self.estimates):
            if member == name:
                return est
        raise KeyError(name)


def gaussian_sum(
    block: np.ndarray,
    sigma_sum: float,
    rng: SecureStream,
    *,
    insecure_test_mode: bool = False,
) -> np.ndarray:
    """Column-sum an (m x d) block and add isotropic Gaussian noise of std
    sigma_sum.

    m may be 0, as a Poisson sample can be empty: the sum is then zero and
    the noise still has the block's d entries. Noise is always drawn, even
    at sigma_sum = 0, so replay alignment of the keyed stream does not
    depend on the noise level.
    """
    block = np.asarray(block, dtype=np.float64)
    if block.ndim != 2 or block.shape[1] < 1:
        raise ValueError("a sum takes an (m x d) block with d >= 1")
    if not (math.isfinite(sigma_sum) and sigma_sum >= 0.0):
        raise ValueError(f"sigma_sum must be nonnegative and finite, got {sigma_sum}")
    if sigma_sum == 0.0 and not insecure_test_mode:
        raise ConfigurationError(
            "sigma_sum = 0 adds no noise and gives no privacy; "
            "requires insecure_test_mode=True"
        )
    noise = rng.standard_normal(block.shape[1])
    noise *= sigma_sum
    noise += block.sum(axis=0)
    return noise


def _batch_rows(blocks) -> int:
    """Row count shared by a batch's (m x d) arrays, of which there is at
    least one."""
    rows = None
    for block in blocks:
        if block.ndim != 2 or (rows is not None and block.shape[0] != rows):
            rows = None
            break
        rows = block.shape[0]
    if rows is None:
        raise ValueError("a batch holds 2-d (m x d) blocks that share one row count")
    return rows


def _split(concat: np.ndarray, dims: tuple[int, ...]) -> tuple[np.ndarray, ...]:
    ends = tuple(itertools.accumulate(dims))
    return tuple(concat[end - d : end] for d, end in zip(dims, ends))


def group_query(
    batch: Mapping[str, np.ndarray],
    spec: GroupSpec,
    ctx: RoundContext,
    rng: SecureStream,
) -> GroupEstimate:
    """One group's noisy average over a batch, under either mechanism.

    batch maps each member name to a float64 (m x d) block with one row per
    record; an empty sample is a batch of (0 x d) blocks. The group's
    members sit side by side as one (m x D_g) block. A joint group's columns
    are divided by their member's scale; then the rows are clipped to
    clip_s, column-summed, noised with N(0, sigma_sum^2 I), divided by
    q * n, and a joint group's scales are multiplied back. Emits
    (clip_s, sigma_sum = q * n * noise_sigma).

    The accountant trusts this step to make the recorded clip true: it
    reads clip_s as the most that adding or removing one record moves
    this group's pre-noise sum, in L2. The row clip makes
    that hold while each row of the batch is one record. A row built from
    several records breaks it: microbatch_reduce at size k > 1 averages
    records by their position in the sample, so one added record shifts
    every later row (ROADMAP item 1).
    """
    parts = [np.asarray(batch[name], dtype=np.float64) for name in spec.member_names]
    _batch_rows(parts)
    dims = tuple(part.shape[1] for part in parts)
    if min(dims) < 1:
        raise ValueError(f"member dims {dims} must be positive")
    block = parts[0] if spec.k == 1 else np.concatenate(parts, axis=1)
    scales = None if spec.joint_scales is None else np.array(spec.joint_scales).repeat(dims)
    if scales is not None:
        block = block / scales
    sigma_sum = ctx.qn * spec.noise_sigma
    total = gaussian_sum(
        clip_rows(block, spec.clip_s),
        sigma_sum,
        rng,
        insecure_test_mode=ctx.insecure_test_mode,
    )
    estimate = total / ctx.qn
    if scales is not None:
        estimate = scales * estimate
    return GroupEstimate(
        group_name=spec.name,
        member_names=spec.member_names,
        estimates=_split(estimate, dims),
        emitted=PrivacyTuple(clip_s=spec.clip_s, sigma_sum=sigma_sum),
    )


def microbatch_reduce(batch, size: int) -> dict[str, np.ndarray]:
    """Average consecutive runs of `size` rows into one row each.

    batch maps names to (m x d) blocks with one row per example; the result
    maps the same names to (m // size x d) blocks, and a final short run is
    dropped. Chunking is deterministic by position, never randomized;
    randomness belongs to the sampler that picks which records participate.
    """
    if size < 1:
        raise ValueError(f"microbatch size must be at least 1, got {size}")
    if not isinstance(batch, Mapping):
        raise TypeError("microbatch_reduce expects a mapping of names to blocks")
    blocks = {name: np.asarray(b, dtype=np.float64) for name, b in batch.items()}
    m = _batch_rows(blocks.values())
    if size == 1:
        # Chunks of one average to themselves.
        return blocks
    full = m - m % size
    return {
        name: block[:full].reshape(full // size, size, block.shape[1]).mean(axis=1)
        for name, block in blocks.items()
    }


def run_partitioned_round(
    batch: Mapping[str, np.ndarray],
    partition: GroupPartition,
    ctx: RoundContext,
    seed: bytes,
    *,
    ledger: Ledger,
) -> dict[str, GroupEstimate]:
    """Run every group's query on one batch and record it.

    Each group draws from its own keyed noise stream ("noise/<group>",
    round_id), so group order cannot entangle the randomness. One
    sum-query event per group is appended to ledger, whose open round must
    be ctx.round_id; the caller records the sample event (it knows the
    sampler). No estimate is returned that the ledger does not hold.
    """
    estimates: dict[str, GroupEstimate] = {}
    for spec in partition.groups:
        rng = SecureStream(seed, f"noise/{spec.name}", ctx.round_id)
        est = estimates[spec.name] = group_query(batch, spec, ctx, rng)
        ledger.record_sum_query(
            ctx.round_id,
            clip_s=est.emitted.clip_s,
            sigma_sum=est.emitted.sigma_sum,
            group_name=spec.name,
        )
    return estimates
