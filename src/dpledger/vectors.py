"""Records, vector groups, and the clipping/scaling primitives.

A record is the unit of privacy: an ordered, named collection of dense
float64 vectors. Groups partition those vectors and carry the mechanism
configuration (clip bound, noise level, optional per-vector scales for the
joint mechanism). Everything here is an immutable value; all operations are
pure functions.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .ledger import PrivacyTuple, _check_name


def _as_vector(value, what: str = "vector") -> np.ndarray:
    arr = np.asarray(value, dtype=np.float64)
    if arr.ndim != 1 or arr.size < 1:
        raise ValueError(f"{what} must be 1-dimensional with at least one entry")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{what} contains NaN or Inf")
    out = arr.copy()
    out.flags.writeable = False
    return out


class Mechanism(enum.Enum):
    """How a group of vectors is clipped and noised."""

    SEPARATE = "separate"
    JOINT = "joint"


@dataclass(frozen=True)
class RecordVectors:
    """One record's named vectors, in a fixed order.

    Names are unique and every vector is finite; both are enforced at
    construction so a bad gradient cannot silently corrupt a privatized sum.
    """

    entries: tuple[tuple[str, np.ndarray], ...]

    def __init__(self, entries):
        items = []
        seen = set()
        for name, vec in entries:
            _check_name(name, "vector name")
            if name in seen:
                raise ValueError(f"duplicate vector name {name!r}")
            seen.add(name)
            items.append((name, _as_vector(vec, f"vector {name!r}")))
        if not items:
            raise ValueError("a record must contain at least one vector")
        object.__setattr__(self, "entries", tuple(items))

    def get(self, name: str) -> np.ndarray:
        for entry_name, vec in self.entries:
            if entry_name == name:
                return vec
        raise KeyError(name)


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
    # same bits, as np.dot on the row alone.
    with np.errstate(over="ignore"):
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
    if block.ndim != 2 or not np.isfinite(block).all():
        raise ValueError("clip_rows expects a finite (m x d) block")
    if block.shape[0] == 0:
        return block
    norms = _row_norms(block)
    if np.isinf(norms).any():
        raise ValueError("clip_rows: a row's L2 norm exceeds the float range")
    over = norms > s
    if not over.any():
        return block
    out = block.copy()
    rows = out[over] * (s / norms[over])[:, None]
    for _ in range(4):
        norms = _row_norms(rows)
        high = norms > s
        if not high.any():
            break
        factor = s / norms[high]
        factor[factor >= 1.0] = 1.0 - 2.0**-52
        rows[high] *= factor[:, None]
    out[over] = rows
    return out


def clip_to_norm(v, s: float) -> np.ndarray:
    """Project v onto the L2 ball of radius s: clip_rows on a one-row block.

    Returns v unchanged (bitwise) when its norm is at most s; the zero
    vector is its own projection. The result is read-only.
    """
    out = clip_rows(_as_vector(v)[None, :], s)[0]
    out.flags.writeable = False
    return out
