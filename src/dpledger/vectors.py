"""Vector groups and the clip rule.

A round's records reach the mechanisms as a batch: a mapping from member
name to a float64 (m x d) block, one row per record, or to a ScaledRows,
the same block in factored form (row i is scalars[i] * rows[i]). Groups
partition the member names; a group is its members and optional
per-member scales, with its clip bound and the noise std of its sum.
Specs are immutable values, and the clip is a pure function.

One rule clips every group (_clip_factors): each member's rows are
measured from their entries, or from a factored member's scalars and
rows, and divided by the member's scale; the measures combine into one
norm per record, and one weight per record clips all of the group's
members at once. This is per-layer ghost clipping summed across members
(Li, Tramer, Liang and Hashimoto 2021, arXiv 2110.05679). A measured norm
differs from the exact one by a few ulps, so the rule keeps a written
relative margin kappa below the clip s, and every clipped record's exact
(scaled) norm is at most s. clip_rows is its one-member block case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ledger import PrivacyTuple, _check_name


@dataclass(frozen=True)
class GroupSpec:
    """Configuration for one group of vectors.

    clip_s bounds the L2 norm of each record's concatenation of the
    group's members, member j divided by joint_scales[j] when the group
    has scales; sigma_sum is the noise standard deviation of the group's
    sum, the one (clip_s, sigma_sum) pair every query of the group
    records. Scales are one positive number per member, and with them
    clip_s may not exceed sqrt(k).
    """

    member_names: tuple[str, ...]
    clip_s: float
    sigma_sum: float
    joint_scales: tuple[float, ...] | None = None
    name: str = ""

    def __post_init__(self):
        members = tuple(self.member_names)
        if not members:
            raise ValueError("group must have at least one member")
        if len(set(members)) != len(members):
            raise ValueError(f"duplicate member names in group: {members}")
        for m in members:
            _check_name(m, "member name")
        object.__setattr__(self, "member_names", members)
        PrivacyTuple.check(self.clip_s, self.sigma_sum)
        if self.joint_scales is not None:
            scales = tuple(float(a) for a in self.joint_scales)
            if len(scales) != len(members):
                raise ValueError(
                    f"joint_scales has {len(scales)} entries for "
                    f"{len(members)} members"
                )
            if any(not (math.isfinite(a) and a > 0) for a in scales):
                raise ValueError("joint_scales must all be positive and finite")
            k = len(members)
            if self.clip_s > math.sqrt(k) * (1 + 1e-12):
                raise ValueError(
                    f"joint clip_s={self.clip_s} exceeds sqrt(k)={math.sqrt(k)}"
                )
            object.__setattr__(self, "joint_scales", scales)
        if not self.name:
            object.__setattr__(self, "name", "+".join(members))
        else:
            _check_name(self.name, "group name")

    @property
    def k(self) -> int:
        return len(self.member_names)


@dataclass(frozen=True)
class GroupPartition:
    """A disjoint assignment of every vector name to exactly one group."""

    groups: tuple[GroupSpec, ...]

    def __post_init__(self):
        groups = tuple(self.groups)
        if not groups:
            raise ValueError("partition must contain at least one group")
        seen: set[str] = set()
        for g in groups:
            overlap = seen & set(g.member_names)
            if overlap:
                raise ValueError(f"vector(s) {sorted(overlap)} assigned to two groups")
            seen |= set(g.member_names)
        names = [g.name for g in groups]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate group names: {names}")
        object.__setattr__(self, "groups", groups)

    def member_names(self) -> set[str]:
        out: set[str] = set()
        for g in self.groups:
            out |= set(g.member_names)
        return out


@dataclass(frozen=True, eq=False)
class ScaledRows:
    """A member in factored form: row i of its (m x d) block is
    scalars[i] * rows[i].

    A linear model's weight gradient for record i is its residual times
    its features, so a round's weight gradients are the gathered features
    and one scalar per record. The clip rule measures and sums a member
    in this form without building its block. Compares by identity, as
    arrays do not compare as values.
    """

    scalars: np.ndarray
    rows: np.ndarray

    def __post_init__(self):
        scalars = np.asarray(self.scalars, dtype=np.float64)
        rows = np.asarray(self.rows, dtype=np.float64)
        if (
            scalars.ndim != 1
            or rows.ndim != 2
            or scalars.shape[0] != rows.shape[0]
            or rows.shape[1] < 1
        ):
            raise ValueError(
                "a factored member is m scalars and an (m x d) block, d >= 1"
            )
        object.__setattr__(self, "scalars", scalars)
        object.__setattr__(self, "rows", rows)

    @property
    def shape(self) -> tuple[int, int]:
        return self.rows.shape


# A row norm below this may have lost squares to underflow; it is measured
# again, rescaled by a power of two, so that every finite row's norm has
# the relative error of a d-term sum of squares.
_SMALL_NORM = 2.0**-450


def _row_norms(block: np.ndarray) -> np.ndarray:
    if block.shape[1] == 0:
        return np.zeros(block.shape[0])
    if block.shape[1] == 1:
        # In binary floating point sqrt(x * x) rounds to |x| wherever x * x
        # neither overflows nor underflows: the same bits as below, and
        # exact everywhere.
        return np.abs(block[:, 0])
    # One (1 x d) @ (d x 1) product per row: the same dot product, and the
    # same bits, as np.dot on the row alone. A row with a non-finite entry
    # gets a non-finite norm.
    with np.errstate(over="ignore", invalid="ignore"):
        norms = np.sqrt(np.matmul(block[:, None, :], block[:, :, None])[:, 0, 0])
        if norms.size and not (norms.min() >= _SMALL_NORM and norms.max() < math.inf):
            # A finite row whose squared norm overflows, or whose squares
            # underflow: measure it divided by the power of two that brings
            # its largest |entry| into [1, 2). Dividing and multiplying back
            # by a power of two are exact. A zero row stays 0, and a row
            # with a non-finite entry keeps its non-finite norm.
            odd = np.flatnonzero(np.isinf(norms) | (norms < _SMALL_NORM))
            top = np.abs(block[odd]).max(axis=1)
            finite = (top > 0) & (top < math.inf)
            odd, top = odd[finite], top[finite]
            if odd.size:
                scale = np.ldexp(1.0, np.frexp(top)[1] - 1)
                norms[odd] = scale * _row_norms(block[odd] / scale[:, None])
    return norms


def _clip_margin(width: int, k: int, scaled: bool) -> float:
    """kappa = (D + 8 k + 2 c) * 2^-53, the clip's relative margin for a
    group of k members of D entries in all, where c = 1 when a scale other
    than 1 divides its members and c = 0 otherwise; for one unscaled
    member of d entries it is kappa_d = (d + 8) * 2^-53. 1 - kappa and
    1 - 2 kappa are exact floats.

    Let u = 2^-53 and g_n = n u / (1 - n u). A record's member j has exact
    norm N_j (of its block row, or |scalars[i]| ||rows[i]||) and scale
    a_j, and the record's exact norm is N = sqrt(sum_j (N_j / a_j)^2).
    _row_norms measures a row of d_j entries within a factor sqrt(1 -/+
    g_{d_j})(1 -/+ u) of its norm (a d_j-term sum of squares in any order,
    then its root; its rescale is exact), and a one-entry row exactly.
    The product with |scalars[i]| and the division by a_j add a factor
    (1 -/+ u) each, and for k >= 2 the _row_norms that combines the k
    measures adds sqrt(1 -/+ g_k)(1 -/+ u). As max_j d_j + k <= D + 1, the
    record measures M = N (1 -/+ e u) to first order in u, with e = (D +
    1) / 2 + 3 + c for k >= 2 and d / 2 + 2 + c for k = 1. Then:
    - a kept record measures at most fl(s (1 - kappa)), so N <= s (1 -
      kappa + (e + 1) u), at least (D / 2 + 5) u s below s;
    - a clipped record's weight f = fl(s (1 - 2 kappa)) / M rounds twice,
      and each member's clipped row once more (its entries times f, or
      the weight scalars[i] * f): N <= s (1 - 2 kappa + (e + 3) u), at
      least (3 D / 2 + 11) u s below s;
    - measured again, a clipped record's member j reads at most f times
      its first measure times 1 + (d_j + 3 + 2 c) u for a block (the
      entries' product, and their new sum of squares, root and division,
      against the first root and division), or 1 + (3 + 2 c) u for a
      factored member, whose rows, and so their measure, are unchanged.
      Combining twice adds (k + 2) u for k >= 2, so the record reads at
      most s (1 - 2 kappa + (d + 5 + 2 c) u) for k = 1 and s (1 - 2 kappa
      + (D + 8 + 2 c) u) for k >= 2: 2u s and (8 k - 9) u s below s (1 -
      kappa - u) <= fl(s (1 - kappa)), so clipping is idempotent.
    The bounds hold for D up to 2^24, where second-order terms stay below
    u. Lost squares move a sum of at least 2^-900 by under D 2^-170 of it.
    A product, quotient or clipped entry below 2^-1022 is off by up to
    2^-1075 rather than by u of itself, and a division by a scale below 1
    magnifies that: with a the least of 1 and the scales, a record's
    measure moves by at most 2 sqrt(k) 2^-1075 / a, and its clipped norm
    by sqrt(D) 2^-1075 / a more. For s a >= 2^-1022 the first two bounds'
    slack covers that, and the third's 2u s covers it for s a >= (D + k)
    2^-1020. Where s (1 - 2 kappa) a < 2^-1022 every measured record is
    clipped to 0.
    """
    return (width + 8 * k + 2 * scaled) * 2.0**-53


_TINY = np.finfo(np.float64).tiny


def _measure(member) -> np.ndarray:
    """Each record's L2 norm of one member's row, measured from its
    entries, or from a factored member's scalars and rows."""
    if isinstance(member, ScaledRows):
        with np.errstate(over="ignore", invalid="ignore"):
            return np.abs(member.scalars) * _row_norms(member.rows)
    return _row_norms(member)


def _clip_factors(members, scales, s: float) -> np.ndarray | None:
    """The clip rule: one weight f_i per record that clips all of a
    group's members at once, or None when no record is clipped.

    members are float64 (m x d_j) blocks or ScaledRows of one row count;
    scales is None or one positive a_j per member. Record i measures M_i:
    member j's measure divided by a_j, and for k >= 2 the _row_norms of
    those k measures. f_i = 1 when M_i <= s (1 - kappa) (_clip_margin), or
    when M_i <= s for a one-entry block without scales, which is measured
    exactly; else f_i = s (1 - 2 kappa) / M_i, or 0 where that quotient
    is subnormal, too inexact for the margin. The clipped record is each
    member's row times f_i (_clip_member) divided by a_j, of exact L2
    norm at most s. Non-finite input, and a record whose measure exceeds
    the float range, are refused.
    """
    if not (math.isfinite(s) and s > 0):
        raise ValueError(f"clip bound must be positive and finite, got {s}")
    first = members[0]
    if not first.shape[0]:
        return None
    norms = [_measure(member) for member in members]
    scaled = scales is not None and any(a != 1.0 for a in scales)
    least = 1.0
    if scaled:
        with np.errstate(over="ignore", invalid="ignore"):
            norms = [norm / a for norm, a in zip(norms, scales)]
        least = min(1.0, *scales)
    # One measure is its own norm: _row_norms of one column is |x|, exactly.
    measure = norms[0] if len(norms) == 1 else _row_norms(np.column_stack(norms))
    if not np.isfinite(measure).all():
        # Only then are the members themselves scanned, to say which refusal.
        for x in members:
            parts = (x.scalars, x.rows) if isinstance(x, ScaledRows) else (x,)
            if not all(np.isfinite(part).all() for part in parts):
                raise ValueError("clip_rows expects a finite (m x d) block")
        raise ValueError("clip_rows: a row's L2 norm exceeds the float range")
    width = sum(member.shape[1] for member in members)
    margin = _clip_margin(width, len(members), scaled)
    target, keep = s * (1.0 - 2.0 * margin), s * (1.0 - margin)
    if target * least < _TINY:
        # Below the normal range the products round by more than the margin.
        target = keep = 0.0
    if width == 1 and not scaled and not isinstance(first, ScaledRows):
        keep = s  # one one-entry member, measured as |x|, exactly
    over = measure > keep
    if not over.any():
        return None
    quotient = target / measure[over]
    quotient[quotient < _TINY] = 0.0
    factors = np.ones(first.shape[0])
    factors[over] = quotient
    return factors


def _clip_member(member, factors: np.ndarray | None):
    """A member with record i weighted by its clip factor f_i
    (_clip_factors; None when none is clipped): a block's rows times f, or
    a factored member's scalars times f, 0 where a clipped weight is
    subnormal, too inexact for the margin."""
    if factors is None:
        return member
    if isinstance(member, ScaledRows):
        weights = member.scalars * factors
        weights[(np.abs(weights) < _TINY) & (factors < 1.0)] = 0.0
        return ScaledRows(weights, member.rows)
    return member * factors[:, None]


def clip_rows(block, s: float) -> np.ndarray:
    """Clip each row of a finite (m x d) block to L2 norm at most s: the
    clip rule (_clip_factors) of a one-member group. A row within the
    margin comes back bitwise unchanged, and clipping twice is clipping
    once. The input is never written to; an empty block, or one of no
    columns, is its own clip. A row whose norm exceeds the float range is
    refused.
    """
    block = np.asarray(block, dtype=np.float64)
    if block.ndim != 2:
        raise ValueError("clip_rows expects a finite (m x d) block")
    return _clip_member(block, _clip_factors([block], None, s))
