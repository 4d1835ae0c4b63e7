"""Vector groups and the clipping primitives.

A round's records reach the mechanisms as a batch: a mapping from member
name to a float64 (m x d) block, one row per record. Groups partition the
member names and carry the mechanism configuration (clip bound, noise
level, optional per-member scales for the joint mechanism). Specs are
immutable values; clip_rows and clip_to_norm are pure functions.
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


def _row_norms(block: np.ndarray) -> np.ndarray:
    # One (1 x d) @ (d x 1) product per row: the same dot product, and the
    # same bits, as np.dot on the row alone. A row with a non-finite entry
    # gets a non-finite norm.
    with np.errstate(over="ignore", invalid="ignore"):
        norms = np.sqrt(np.matmul(block[:, None, :], block[:, :, None])[:, 0, 0])
        big = np.isinf(norms)
        if big.any():
            # A finite row whose squared norm overflows: measure it divided
            # by its largest |entry|, which brings every square into range.
            scale = np.abs(block[big]).max(axis=1)
            norms[big] = scale * _row_norms(block[big] / scale[:, None])
    return norms


def clip_rows(block, s: float) -> np.ndarray:
    """Project each row of a finite (m x d) block onto the L2 ball of radius s.

    Rows whose norm is at most s come back bitwise unchanged; the others are
    rescaled, and re-shrunk if float rounding lands a hair above s. The
    input is never written to. An empty block (m = 0) is its own projection.
    A row whose norm exceeds the float range is refused.
    """
    if not (math.isfinite(s) and s > 0):
        raise ValueError(f"clip bound must be positive and finite, got {s}")
    block = np.asarray(block, dtype=np.float64)
    if block.ndim != 2:
        raise ValueError("clip_rows expects a finite (m x d) block")
    if block.shape[0] == 0:
        return block
    norms = _row_norms(block)
    if not np.isfinite(norms).all():
        # Only then is the block itself scanned, to say which refusal.
        if not np.isfinite(block).all():
            raise ValueError("clip_rows expects a finite (m x d) block")
        raise ValueError("clip_rows: a row's L2 norm exceeds the float range")
    over = norms > s
    if not over.any():
        return block
    # One product makes the result. A row at most s is multiplied by 1.0,
    # which leaves it bitwise unchanged, so the re-shrink never picks it.
    factor = np.ones_like(norms)
    factor[over] = s / norms[over]
    out = block * factor[:, None]
    # Re-measure every row, then only the rows just re-shrunk: a row
    # measured at most s is not changed again.
    rows = None
    for _ in range(4):
        norms = _row_norms(out if rows is None else out[rows])
        high = norms > s
        if not high.any():
            break
        rows = np.flatnonzero(high) if rows is None else rows[high]
        factor = s / norms[high]
        factor[factor >= 1.0] = 1.0 - 2.0**-52
        out[rows] *= factor[:, None]
    return out


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
