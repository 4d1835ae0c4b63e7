"""Noisy group queries over a batch of records and their round-level algebra.

A batch is the one record format: a mapping from member name to a float64
(m x d) block with one row per record, or to a ScaledRows, the same block
in factored form, whose clipped sum is one matrix-vector product that
never builds the block (the rank-one case of per-example gradient norms,
Goodfellow 2015, arXiv 1510.01799). group_query clips each record of a
group by one weight (vectors._clip_factors), then sums, noises and
averages each member; a microbatch is a reshape and a mean.

A group's noise depends on (seed, group name, round) alone, never on the
data or the model, so draw_round_noise draws every group's rows for a
batch of rounds at once, and each round hands its rows to
run_partitioned_round. A row must be used in its round and nowhere else:
noise reused across rounds or groups is not independent, and the
accountant assumes it is.

A group with scales divides member j by alpha_j before the clip and
multiplies its estimate back, so member j's sum sees noise of std
alpha_j * sigma_sum while the group costs one (clip_s, sigma_sum) tuple
instead of k. Every group query records its spec's (clip_s, sigma_sum),
the tuple the privacy ledger exists to record, in the ledger's open
round itself, as given, so the ledger holds the float the noise is
scaled by; the q and n that round recorded only divide the noisy sum
into an average. It records after its last check and before it computes
any estimate: a refused query records nothing, and no estimate leaves
this module that the ledger does not hold. How a round's tuples compose
into one equivalent query is the ledger's effective_z, not decided here.
"""

from __future__ import annotations

from collections.abc import Mapping

import numpy as np

from .errors import ConfigurationError
from .ledger import Ledger
from .prng import standard_normal_rows
from .vectors import GroupPartition, GroupSpec, ScaledRows, _clip_factors, _clip_member


def _batch_rows(blocks) -> int:
    """Row count shared by a batch's (m x d) arrays and ScaledRows, of
    which there is at least one."""
    rows = None
    for block in blocks:
        if len(block.shape) != 2 or (rows is not None and block.shape[0] != rows):
            rows = None
            break
        rows = block.shape[0]
    if rows is None:
        raise ValueError("a batch holds 2-d (m x d) blocks that share one row count")
    return rows


def _column_sum(member) -> np.ndarray:
    """A member's column sum; a factored member's is rows.T @ scalars, one
    matrix-vector product that builds no block."""
    if isinstance(member, ScaledRows):
        return member.rows.T @ member.scalars
    return member.sum(axis=0)


def group_query(
    batch: Mapping[str, np.ndarray | ScaledRows],
    spec: GroupSpec,
    noise: np.ndarray,
    *,
    ledger: Ledger,
    insecure_test_mode: bool = False,
) -> dict[str, np.ndarray]:
    """One group's noisy average over a batch, recorded in ledger's open
    round before it is computed.

    batch maps each member name to a float64 (m x d) block with one row per
    record, or to a ScaledRows; an empty sample is a batch of (0 x d)
    blocks. One weight per record clips all of the group's members to
    clip_s (vectors._clip_factors). q and n are the open round's recorded
    ones; with none open the query raises LedgerUsageError. The query
    records spec's (clip_s, sigma_sum) in the open round once every check
    has passed and before any estimate exists, so a refused query records
    nothing: sigma_sum = 0 needs insecure_test_mode, and a noise row that
    is not the group's D_g unit Gaussians for this round is refused, never
    broadcast; the row is read, never written. Member j is then
    column-summed, divided by its scale alpha_j (1 without scales), noised
    with sigma_sum times its part of noise, divided by q * n and
    multiplied back by alpha_j. Returns member name -> estimate, in
    spec.member_names order. m may be 0, as a Poisson sample can be
    empty: the sums are then zero and the noise still has D_g entries.

    The accountant trusts this step to make the recorded clip true: it
    reads clip_s as the most that adding or removing one record moves
    this group's pre-noise sum, in L2. The clip, whose written margin
    covers the float rounding, makes that hold while each row of the
    batch is one record. A row built from several records breaks it:
    microbatch_reduce at size k > 1 averages records by their position in
    the sample, so one added record shifts every later row (ROADMAP item
    1).
    """
    q, n = ledger.open_sample()
    members = [
        b if isinstance(b, ScaledRows) else np.asarray(b, dtype=np.float64)
        for b in (batch[name] for name in spec.member_names)
    ]
    _batch_rows(members)
    dims = tuple(member.shape[1] for member in members)
    if min(dims) < 1:
        raise ValueError(f"member dims {dims} must be positive")
    factors = _clip_factors(members, spec.joint_scales, spec.clip_s)
    sigma_sum = spec.sigma_sum
    if sigma_sum == 0.0 and not insecure_test_mode:
        raise ConfigurationError(
            "sigma_sum = 0 adds no noise and gives no privacy; "
            "requires insecure_test_mode=True"
        )
    noise = np.asarray(noise, dtype=np.float64)
    if noise.shape != (sum(dims),):
        raise ValueError(
            f"a sum of {sum(dims)} columns takes a noise row of as many "
            f"entries, got shape {noise.shape}"
        )
    ledger.record_sum_query(
        ledger.open_round, clip_s=spec.clip_s, sigma_sum=sigma_sum, group_name=spec.name
    )
    qn = q * n
    estimates = {}
    end = 0
    for name, member, d, scale in zip(
        spec.member_names, members, dims, spec.joint_scales or (None,) * spec.k
    ):
        column_sum = _column_sum(_clip_member(member, factors))
        end += d
        if scale is not None:
            column_sum = column_sum / scale
        total = noise[end - d : end] * sigma_sum
        total += column_sum
        estimate = total / qn
        estimates[name] = estimate if scale is None else scale * estimate
    return estimates


def microbatch_reduce(batch, size: int) -> dict[str, np.ndarray | ScaledRows]:
    """Average consecutive runs of `size` rows into one row each.

    batch maps names to (m x d) blocks, or ScaledRows, with one row per
    example; the result maps the same names to (m // size x d) blocks, and
    a final short run is dropped. At size 1 every chunk averages to itself,
    so a factored member passes through as it is; at a larger size its
    runs are averaged without building its block. Chunking is
    deterministic by position, never randomized; randomness belongs to the
    sampler that picks which records participate.
    """
    if size < 1:
        raise ValueError(f"microbatch size must be at least 1, got {size}")
    if not isinstance(batch, Mapping):
        raise TypeError("microbatch_reduce expects a mapping of names to blocks")
    blocks = {
        name: b if isinstance(b, ScaledRows) else np.asarray(b, dtype=np.float64)
        for name, b in batch.items()
    }
    m = _batch_rows(blocks.values())
    if size == 1:
        return blocks
    full = m - m % size
    return {
        name: _run_means(block, size, full)
        if isinstance(block, ScaledRows)
        else block[:full].reshape(full // size, size, block.shape[1]).mean(axis=1)
        for name, block in blocks.items()
    }


def _run_means(member: ScaledRows, size: int, full: int) -> np.ndarray:
    """The means of a factored member's runs of size rows, in its first
    full rows, without building its (m x d) block: the products of each
    position in a run, one (full // size x d) array at a time, added in
    order and divided by size. For d > 1 that is the block's mean, bit
    for bit; numpy sums a one-column block's runs of 8 or more pairwise."""
    rows = member.rows[:full].reshape(full // size, size, member.shape[1])
    scalars = member.scalars[:full].reshape(full // size, size, 1)
    total = rows[:, 0] * scalars[:, 0]
    part = np.empty_like(total)
    for j in range(1, size):
        total += np.multiply(rows[:, j], scalars[:, j], out=part)
    total /= size
    return total


def draw_round_noise(
    seed: bytes,
    partition: GroupPartition,
    widths: Mapping[str, int],
    rounds: range,
) -> dict[str, np.ndarray]:
    """Every group's unit-Gaussian noise for each round in rounds.

    Group g's noise in round t comes from its own keyed stream
    ("noise/<g>", t), so group order cannot entangle the randomness and
    any round's noise can be replayed from (seed, group name, round)
    alone. widths maps each member name to its column count; a group's
    width D_g is its members' sum. Returns group name -> a
    (len(rounds) x D_g) array whose row i is round rounds[i]'s noise.
    """
    return {
        spec.name: standard_normal_rows(
            seed,
            f"noise/{spec.name}",
            rounds,
            sum(widths[name] for name in spec.member_names),
        )
        for spec in partition.groups
    }


def run_partitioned_round(
    batch: Mapping[str, np.ndarray | ScaledRows],
    partition: GroupPartition,
    noise: Mapping[str, np.ndarray],
    *,
    ledger: Ledger,
    insecure_test_mode: bool = False,
) -> dict[str, np.ndarray]:
    """Every group's group_query on one batch, in partition order.

    noise maps each group's name to its row of unit Gaussians for the
    ledger's open round, as draw_round_noise gives it; the caller records
    the round's sample event (it knows the sampler), and each query
    records its own sum-query event. Returns member name -> estimate over
    all of the partition's members, which it keeps disjoint.
    """
    estimates: dict[str, np.ndarray] = {}
    for spec in partition.groups:
        estimates.update(
            group_query(
                batch,
                spec,
                noise[spec.name],
                ledger=ledger,
                insecure_test_mode=insecure_test_mode,
            )
        )
    return estimates
