"""Vector groups and the clipping primitives.

A round's records reach the mechanisms as a batch: a mapping from member
name to a float64 (m x d) block, one row per record, or to a ScaledRows,
the same block in factored form (row i is scalars[i] * rows[i]). Groups
partition the member names and carry the mechanism configuration (clip
bound, noise level, optional per-member scales for the joint mechanism).
Specs are immutable values; clip_rows and clipped_scalars are pure
functions.

Both clip by one rule (_clip_weights), measuring each row from its
entries; clipped_scalars clips a factored member without building its
block and returns one weight per record. A measured norm differs from
the exact one by a few ulps, so the rule keeps a written relative margin
kappa_d below the clip s, and every row's exact norm is at most s.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .ledger import PrivacyTuple, _check_name


class Mechanism(enum.Enum):
    """How a group of vectors is clipped and noised."""

    SEPARATE = "separate"
    JOINT = "joint"


@dataclass(frozen=True)
class GroupSpec:
    """Mechanism configuration for one group of vectors.

    clip_s bounds the L2 norm of the (scaled) concatenation of the group's
    members; noise_sigma is the per-average noise standard deviation. For
    the joint mechanism, joint_scales holds one positive scale per member
    and clip_s may not exceed sqrt(k).
    """

    member_names: tuple[str, ...]
    mechanism: Mechanism
    clip_s: float
    noise_sigma: float
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
        PrivacyTuple.check(self.clip_s, self.noise_sigma)
        if not isinstance(self.mechanism, Mechanism):
            raise ValueError(f"mechanism must be a Mechanism, got {self.mechanism!r}")
        if self.mechanism is Mechanism.JOINT:
            if self.joint_scales is None:
                raise ValueError("joint mechanism requires joint_scales")
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
        elif self.joint_scales is not None:
            raise ValueError("joint_scales only apply to the joint mechanism")
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
    and one scalar per record. A one-member separate group is clipped and
    summed in this form (clipped_scalars); everything else lowers it to
    its block with materialize. Compares by identity, as arrays do not
    compare as values.
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

    def materialize(self) -> np.ndarray:
        """The (m x d) block: rows * scalars[:, None], a new array."""
        return self.rows * self.scalars[:, None]


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


def _clip_margin(d: int) -> float:
    """kappa_d = (d + 8) * 2^-53, the clip's relative margin for rows of d
    entries; 1 - kappa_d and 1 - 2 kappa_d are exact floats.

    With u = 2^-53 and g = d u / (1 - d u), _row_norms measures a row within
    a factor sqrt(1 -/+ g)(1 -/+ u) of its exact norm N (a d-term sum of
    squares in any order, then its root; its rescale is exact); a factored
    row's product with |scalars[i]| adds (1 -/+ u). To first order in u:
    - a kept row measures at most fl(s (1 - kappa_d)), so N <= s (1 -
      kappa_d)(1 + u) / (sqrt(1 - g)(1 - u)^2) ~ s (1 - (d / 2 + 5) u);
    - a clipped row's weight scalars[i] * fl(s (1 - 2 kappa_d)) / n rounds
      three times, a block's entries once more: N <= s (1 - 2 kappa_d)(1 +
      u)^3 / (sqrt(1 - g)(1 - u)^2) ~ s (1 - (3 d / 2 + 11) u);
    - measured again, a clipped row reads at most s (1 - 2 kappa_d)(1 +
      u)^4 sqrt((1 + g) / (1 - g)) / (1 - u) ~ s (1 - kappa_d - 3u), 2u s
      or more below fl(s (1 - kappa_d)), so clipping is idempotent.
    Both bounds hold for d up to 2^24, where second-order terms stay below
    u. Lost squares move a sum of at least 2^-900 by under d 2^-170 of it;
    a clipped block row's subnormal entries move it by at most sqrt(d)
    2^-1075, which s kappa_d covers for s >= 2^-1022, and 2u s for s >=
    sqrt(d) 2^-1022.
    """
    return (d + 8) * 2.0**-53


_TINY = np.finfo(np.float64).tiny


def _clip_weights(scalars: np.ndarray | None, rows: np.ndarray, s: float):
    """The clip rule: weights w such that w[i] * rows[i] is row i of the
    block scalars[i] * rows[i] clipped to s; scalars None stands for ones,
    the block rows itself. Returns scalars itself when no row is clipped.

    Row i measures n_i = |scalars[i]| * ||rows[i]||, computed here.
    w[i] = scalars[i] when n_i <= s (1 - kappa_d) (_clip_margin), or when
    n_i <= s for a one-entry block row, which is measured exactly; else
    w[i] = scalars[i] * s (1 - 2 kappa_d) / n_i, or 0 where that quotient
    or weight is subnormal, too inexact for the margin. Non-finite input,
    and a row whose norm exceeds the float range, are refused.
    """
    if not (math.isfinite(s) and s > 0):
        raise ValueError(f"clip bound must be positive and finite, got {s}")
    if not len(rows):
        return scalars
    norms = _row_norms(rows)
    if scalars is not None:
        with np.errstate(over="ignore", invalid="ignore"):
            norms = np.abs(scalars) * norms
    if not np.isfinite(norms).all():
        # Only then are the arrays themselves scanned, to say which refusal.
        parts = (rows,) if scalars is None else (scalars, rows)
        if not all(np.isfinite(part).all() for part in parts):
            raise ValueError("clip_rows expects a finite (m x d) block")
        raise ValueError("clip_rows: a row's L2 norm exceeds the float range")
    d = rows.shape[1]
    margin = _clip_margin(d)
    target, keep = s * (1.0 - 2.0 * margin), s * (1.0 - margin)
    if target < _TINY:
        # Below the normal range the products round by more than the margin.
        target = keep = 0.0
    if scalars is None and d == 1:
        keep = s  # a one-entry row measures as |x|, exactly
    over = norms > keep
    if not over.any():
        return scalars
    quotient = target / norms[over]
    clipped = quotient if scalars is None else scalars[over] * quotient
    clipped[(quotient < _TINY) | (np.abs(clipped) < _TINY)] = 0.0
    weights = np.where(over, 0.0, 1.0 if scalars is None else scalars)
    weights[over] = clipped
    return weights


def clip_rows(block, s: float) -> np.ndarray:
    """Clip each row of a finite (m x d) block to L2 norm at most s, by the
    rule of _clip_weights: a row within the margin comes back bitwise
    unchanged, and clipping twice is clipping once. The input is never
    written to; an empty block, or one of no columns, is its own clip. A
    row whose norm exceeds the float range is refused.
    """
    block = np.asarray(block, dtype=np.float64)
    if block.ndim != 2:
        raise ValueError("clip_rows expects a finite (m x d) block")
    weights = _clip_weights(None, block, s)
    return block if weights is None else block * weights[:, None]


def clipped_scalars(member: ScaledRows, s: float) -> np.ndarray:
    """Per-record weights w that clip a factored member's rows to s
    (_clip_weights): row i of the clipped block is w[i] * member.rows[i],
    of exact L2 norm at most s."""
    return _clip_weights(member.scalars, member.rows, s)

