"""Vector groups and the clipping primitives.

A round's records reach the mechanisms as a batch: a mapping from member
name to a float64 (m x d) block, one row per record, or to a ScaledRows,
the same block in factored form (row i is scalars[i] * rows[i]). Groups
partition the member names and carry the mechanism configuration (clip
bound, noise level, optional per-member scales for the joint mechanism).
Specs are immutable values; clip_rows, clip_to_norm and clipped_scalars
are pure functions.

clipped_scalars clips a factored member without building its block: it
measures row i as |scalars[i]| times the norm of rows[i], and returns one
weight per record. Float rounding makes that measure differ from the
exact norm by a few ulps, so the clip aims at s(1 - kappa_d), a written
relative margin below s, and every row's exact norm is at most s.
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
# again, rescaled, so that every finite row's norm has the relative error
# of a d-term sum of squares.
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
            # underflow: measure it divided by its largest |entry|, which
            # brings the largest square to 1. A zero row stays 0.
            odd = np.flatnonzero(np.isinf(norms) | (norms < _SMALL_NORM))
            scale = np.abs(block[odd]).max(axis=1)
            odd, scale = odd[scale > 0], scale[scale > 0]
            if odd.size:
                norms[odd] = scale * _row_norms(block[odd] / scale[:, None])
    return norms


def _check_clip(s: float) -> None:
    if not (math.isfinite(s) and s > 0):
        raise ValueError(f"clip bound must be positive and finite, got {s}")


def _refuse_non_finite(*parts: np.ndarray) -> None:
    """Raise the refusal that arrays whose row norms are not all finite earn."""
    if not all(np.isfinite(part).all() for part in parts):
        raise ValueError("clip_rows expects a finite (m x d) block")
    raise ValueError("clip_rows: a row's L2 norm exceeds the float range")


def clip_rows(block, s: float) -> np.ndarray:
    """Project each row of a finite (m x d) block onto the L2 ball of radius s.

    Rows whose norm is at most s come back bitwise unchanged; the others are
    rescaled, and re-shrunk if float rounding lands a hair above s. The
    input is never written to. An empty block (m = 0) is its own
    projection, and so is a block of no columns (d = 0).
    A row whose norm exceeds the float range is refused.
    """
    _check_clip(s)
    block = np.asarray(block, dtype=np.float64)
    if block.ndim != 2:
        raise ValueError("clip_rows expects a finite (m x d) block")
    if block.shape[0] == 0:
        return block
    norms = _row_norms(block)
    if not np.isfinite(norms).all():
        # Only then is the block itself scanned, to say which refusal.
        _refuse_non_finite(block)
    over = norms > s
    if not over.any():
        return block
    # One product makes the result. A row at most s is multiplied by 1.0,
    # which leaves it bitwise unchanged, so only the rescaled rows are
    # measured again, and after that only the rows just re-shrunk.
    factor = np.ones_like(norms)
    factor[over] = s / norms[over]
    out = block * factor[:, None]
    rows = np.flatnonzero(over)
    for _ in range(4):
        norms = _row_norms(out[rows])
        high = norms > s
        if not high.any():
            break
        rows = rows[high]
        factor = s / norms[high]
        factor[factor >= 1.0] = 1.0 - 2.0**-52
        out[rows] *= factor[:, None]
    return out


def _clip_margin(d: int) -> float:
    """kappa_d = (d + 8) * 2^-53, the relative margin clipped_scalars
    leaves below the clip for rows of d entries.

    With u = 2^-53, the computed norm of rows[i] is within a factor
    sqrt(1 -/+ gamma_d) (1 -/+ u)^3 of the exact one, gamma_d = d u /
    (1 - d u): the d-term sum of squares in any order, its square root,
    and the divide and multiply of a rescaled row. The product with
    |scalars[i]| adds a factor (1 -/+ u); s (1 - kappa_d), the quotient
    and the final multiply add (1 + u)^3. (1 - kappa_d)(1 + u)^3 <=
    sqrt(1 - gamma_d)(1 - u)^4 holds with du / 2 + u to spare for any d
    up to 2^51, so no row's exact norm exceeds s. 1 - kappa_d is an exact
    float.
    """
    return (d + 8) * 2.0**-53


def clipped_scalars(member: ScaledRows, s: float) -> np.ndarray:
    """Per-record weights w that clip a factored member's rows to s: row i
    of the clipped block is w[i] * member.rows[i], and its exact L2 norm
    |w[i]| * ||rows[i]|| is at most s, for every row.

    Row i is measured as n_i = |scalars[i]| * ||rows[i]||, with the norm
    computed here from the rows, never taken from a caller. A row with
    n_i <= s (1 - kappa_d) (_clip_margin) keeps w[i] = scalars[i]; any
    other gets w[i] = scalars[i] * (s (1 - kappa_d) / n_i). Where that
    quotient or weight falls below the normal float range it would lose
    the relative accuracy the margin assumes, so w[i] is 0, which lies
    inside every ball. Non-finite input, and a row whose norm exceeds the
    float range, are refused as clip_rows refuses them.
    """
    _check_clip(s)
    scalars, rows = member.scalars, member.rows
    with np.errstate(over="ignore", invalid="ignore"):
        norms = np.abs(scalars) * _row_norms(rows)
    if not np.isfinite(norms).all():
        _refuse_non_finite(scalars, rows)
    target = s * (1.0 - _clip_margin(rows.shape[1]))
    tiny = np.finfo(np.float64).tiny
    if target < tiny:
        # Below the normal range the product rounds by more than the margin.
        target = 0.0
    over = np.flatnonzero(norms > target)
    if not over.size:
        return scalars
    weights = scalars.copy()
    quotient = target / norms[over]
    clipped = scalars[over] * quotient
    clipped[(quotient < tiny) | (np.abs(clipped) < tiny)] = 0.0
    weights[over] = clipped
    return weights


def clip_to_norm(v, s: float) -> np.ndarray:
    """Project v onto the L2 ball of radius s: clip_rows on a one-row block.

    Returns v unchanged (bitwise) when its norm is at most s; the zero
    vector is its own projection. The result is read-only.
    """
    # A copy, so that making the result read-only leaves v writable.
    vec = np.array(v, dtype=np.float64)
    if vec.ndim != 1 or vec.size < 1:
        raise ValueError("vector must be 1-dimensional with at least one entry")
    out = clip_rows(vec[None, :], s)[0]
    out.flags.writeable = False
    return out
