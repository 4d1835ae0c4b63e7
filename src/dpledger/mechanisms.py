"""Noisy group queries over sampled records and their round-level algebra.

A round's records arrive as a batch, one float64 (m x d) block per member
with a row per record: clipping scales rows of a group's (m x D_g) block,
summing adds its columns, and a microbatch is a reshape and a mean.

Two mechanisms privatize a group of vectors: the separate mechanism clips
each group's concatenation to its own bound and adds one Gaussian; the
joint mechanism rescales members by per-vector factors, clips once across
the scaled concatenation, then undoes the scaling on the estimate. Both
emit the (clip_s, sigma_sum) tuple the privacy ledger exists to record,
with sigma_sum = q * n * noise_sigma computed here, once, so the ledger
sees the identical float. How a round's tuples compose into one
equivalent query is the ledger's effective_z, not decided here.
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
from .vectors import (
    GroupPartition,
    GroupSpec,
    Mechanism,
    RecordVectors,
    clip_rows,
)


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
    vs,
    sigma_sum: float,
    rng: SecureStream,
    *,
    dim: int | None = None,
    insecure_test_mode: bool = False,
) -> np.ndarray:
    """Column-sum an (m x d) block and add isotropic Gaussian noise of std
    sigma_sum.

    vs is the block, or anything np.asarray turns into one, such as a list
    of equal-length vectors. An empty list is legal (a Poisson sample can
    be empty) but then dim must say what shape to noise. Noise is always
    drawn, even at sigma_sum = 0, so replay alignment of the keyed stream
    does not depend on the noise level.
    """
    block = np.asarray(vs, dtype=np.float64)
    if block.size == 0 and block.ndim == 1:
        if dim is None:
            raise ValueError("empty input needs an explicit dim for the noise shape")
        block = block.reshape(0, int(dim))
    if block.ndim != 2:
        raise ValueError("a sum takes an (m x d) block of equal-length rows")
    d = block.shape[1]
    if d < 1 or (dim is not None and dim != d):
        raise ValueError(f"vector size {d} must be positive and match dim={dim}")
    if not (math.isfinite(sigma_sum) and sigma_sum >= 0.0):
        raise ValueError(f"sigma_sum must be nonnegative and finite, got {sigma_sum}")
    if sigma_sum == 0.0 and not insecure_test_mode:
        raise ConfigurationError(
            "sigma_sum = 0 adds no noise and gives no privacy; "
            "requires insecure_test_mode=True"
        )
    noise = rng.standard_normal(d)
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


def _group_block(
    records, spec: GroupSpec, member_dims
) -> tuple[np.ndarray, tuple[int, ...]]:
    """This group's members side by side as one float64 (m x D_g) block.

    records is a batch, a mapping from member name to an (m x d_j) block
    with one row per record, or a sequence of records (RecordVectors, or
    sequences of the group's k vectors in member order), which is stacked
    here once. member_dims gives the member dims of an empty sequence and
    must agree with the records otherwise.
    """
    k = spec.k
    if member_dims is not None:
        member_dims = tuple(int(d) for d in member_dims)
    if not isinstance(records, Mapping):
        rows = [
            [rec.get(name) for name in spec.member_names]
            if isinstance(rec, RecordVectors)
            else list(rec)
            for rec in records
        ]
        if any(len(row) != k for row in rows):
            raise ValueError(f"every record must hold the group's {k} vectors")
        if not rows:
            if member_dims is None or len(member_dims) != k:
                raise ValueError(f"no records sampled; pass the group's {k} member_dims")
            if min(member_dims) < 1:
                raise ValueError(f"member dims {member_dims} must be positive")
            return np.empty((0, sum(member_dims))), member_dims
        records = {
            name: np.array([row[j] for row in rows], dtype=np.float64)
            for j, name in enumerate(spec.member_names)
        }
    parts = [np.asarray(records[name], dtype=np.float64) for name in spec.member_names]
    _batch_rows(parts)
    dims = tuple(part.shape[1] for part in parts)
    if min(dims) < 1 or (member_dims is not None and member_dims != dims):
        raise ValueError(f"member dims {dims} must be positive and match {member_dims}")
    block = parts[0] if k == 1 else np.concatenate(parts, axis=1)
    return block, dims


def _split(concat: np.ndarray, dims: tuple[int, ...]) -> tuple[np.ndarray, ...]:
    ends = tuple(itertools.accumulate(dims))
    return tuple(concat[end - d : end] for d, end in zip(dims, ends))


def _group_query(
    records, spec: GroupSpec, ctx: RoundContext, rng: SecureStream, member_dims
) -> GroupEstimate:
    """Both mechanisms on one group's block: divide a joint group's columns
    by their member's scale, clip the rows to clip_s, column-sum, add
    N(0, sigma_sum^2 I), divide by q * n, and multiply the scales back."""
    block, dims = _group_block(records, spec, member_dims)
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


def separate_group_query(
    records, spec: GroupSpec, ctx: RoundContext, rng: SecureStream, member_dims=None
) -> GroupEstimate:
    """Clip each record's group concatenation to clip_s, sum, noise, average.

    The estimate of member j is (sum_i clip(v_i) + N(0, sigma_sum^2 I))_j
    divided by q * n. Emits (clip_s, sigma_sum = q * n * noise_sigma).
    """
    if spec.mechanism is not Mechanism.SEPARATE:
        raise ValueError(f"group {spec.name!r} is not configured for separate clipping")
    return _group_query(records, spec, ctx, rng, member_dims)


def joint_group_query(
    records, spec: GroupSpec, ctx: RoundContext, rng: SecureStream, member_dims=None
) -> GroupEstimate:
    """Scale members down by alpha_j, clip the joint concatenation once,
    sum, noise, average, then scale estimates back up by alpha_j.

    Member j's coordinates see noise of std alpha_j * noise_sigma after the
    unscaling, while the whole group costs a single (clip_s, sigma_sum)
    tuple instead of k of them.
    """
    if spec.mechanism is not Mechanism.JOINT:
        raise ValueError(f"group {spec.name!r} is not configured for joint clipping")
    return _group_query(records, spec, ctx, rng, member_dims)


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
    records,
    partition: GroupPartition,
    ctx: RoundContext,
    seed: bytes,
    member_dims: dict[str, tuple[int, ...]] | None = None,
    *,
    ledger: Ledger,
) -> dict[str, GroupEstimate]:
    """Run every group's query for one round and record it.

    records is a batch (member name to (m x d) block) or a sequence of
    records; see _group_block. Each group draws from its own keyed noise
    stream ("noise/<group>", round_id), so group order cannot entangle the
    randomness. member_dims maps group name to per-member dims and is
    required if records may be an empty sequence. One sum-query event per
    group is appended to ledger, whose open round must be ctx.round_id;
    the caller records the sample event (it knows the sampler). No
    estimate is returned that the ledger does not hold.
    """
    estimates: dict[str, GroupEstimate] = {}
    for spec in partition.groups:
        rng = SecureStream(seed, f"noise/{spec.name}", ctx.round_id)
        dims = None if member_dims is None else member_dims.get(spec.name)
        est = estimates[spec.name] = _group_query(records, spec, ctx, rng, dims)
        ledger.record_sum_query(
            ctx.round_id,
            clip_s=est.emitted.clip_s,
            sigma_sum=est.emitted.sigma_sum,
            group_name=spec.name,
        )
    return estimates
