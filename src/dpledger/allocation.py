"""Distributing a target noise multiplier across groups, and splitting a
clip budget across layers.

Given a target z, an allocation returns per-group sum-level noise stds
whose round composition lands exactly back on z: proportional allocation
spends sqrt(G) per group, dimensionality-adjusted allocation spends
sqrt(D / d_g) so high-dimensional groups get relatively less noise per
coordinate. Both are pure functions of bounds and dimensions: they never
see data, so a bug here can change utility but cannot change what the
ledger records meaning anything other than what it says.

split_clip_budget is the dual knob: dividing a total sensitivity budget
into per-group clip bounds. Flat keeps one bound, PerLayer divides by
sqrt(m), DimFraction weights by sqrt(d_g / D); the latter two conserve
the sum of squared bounds.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .mechanisms import round_compose


class AllocationStrategy(enum.Enum):
    PROPORTIONAL = "proportional"
    DIMENSIONALITY_ADJUSTED = "dimensionality_adjusted"


class ClipSplit(enum.Enum):
    FLAT = "flat"
    PER_LAYER = "per_layer"
    DIM_FRACTION = "dim_fraction"


@dataclass(frozen=True)
class AllocationRequest:
    """Target noise multiplier plus each group's (clip bound, dimension)."""

    target_z: float
    group_bounds: tuple[tuple[float, int], ...]
    strategy: AllocationStrategy

    def __post_init__(self):
        if not (math.isfinite(self.target_z) and self.target_z > 0):
            raise ValueError(f"target_z must be positive, got {self.target_z}")
        bounds = tuple((float(s), int(d)) for s, d in self.group_bounds)
        if not bounds:
            raise ValueError("group_bounds must be nonempty")
        for s, d in bounds:
            if not (math.isfinite(s) and s > 0):
                raise ValueError(f"clip bounds must be positive, got {s}")
            if d < 1:
                raise ValueError(f"dimensions must be at least 1, got {d}")
        object.__setattr__(self, "group_bounds", bounds)


def effective_z(tuples) -> float:
    """Noise multiplier 1/S* of one round's sum-level (clip_s, sigma_sum)
    tuples, as round_compose defines it."""
    return round_compose(tuples).z_effective


def proportional_allocation(req: AllocationRequest) -> tuple[float, ...]:
    """sigma_g = z * sqrt(G) * S_g: every group gets noise proportional to
    its own bound, and the sqrt(G) factor makes the G-term composition
    cancel back to exactly z."""
    if req.strategy is not AllocationStrategy.PROPORTIONAL:
        raise ValueError(f"request asks for {req.strategy.value}")
    g = len(req.group_bounds)
    root_g = math.sqrt(g)
    return tuple(req.target_z * root_g * s for s, _ in req.group_bounds)


def dim_adjusted_allocation(req: AllocationRequest) -> tuple[float, ...]:
    """sigma_g = z * sqrt(D / d_g) * S_g: groups with more coordinates get
    relatively less per-coordinate noise; sum(d_g / D) = 1 makes the
    composition cancel to z just like the proportional rule."""
    if req.strategy is not AllocationStrategy.DIMENSIONALITY_ADJUSTED:
        raise ValueError(f"request asks for {req.strategy.value}")
    total_d = sum(d for _, d in req.group_bounds)
    return tuple(
        req.target_z * math.sqrt(total_d / d) * s for s, d in req.group_bounds
    )


def allocate(req: AllocationRequest) -> tuple[float, ...]:
    if req.strategy is AllocationStrategy.PROPORTIONAL:
        return proportional_allocation(req)
    return dim_adjusted_allocation(req)


def split_clip_budget(
    total_s: float, group_dims, strategy: ClipSplit
) -> tuple[float, ...]:
    """Divide a total clip budget into per-group bounds.

    Flat does not split: one group, the whole budget. PerLayer gives each
    of the m groups total_s / sqrt(m); DimFraction gives group g
    total_s * sqrt(d_g / D). Both conserve sum(S_g^2) = total_s^2.
    """
    if not (math.isfinite(total_s) and total_s > 0):
        raise ValueError(f"total_s must be positive, got {total_s}")
    dims = [int(d) for d in group_dims]
    if not dims:
        raise ValueError("group_dims must be nonempty")
    if any(d < 1 for d in dims):
        raise ValueError(f"dimensions must be at least 1, got {dims}")
    if strategy is ClipSplit.FLAT:
        return (total_s,)
    if strategy is ClipSplit.PER_LAYER:
        root_m = math.sqrt(len(dims))
        return tuple(total_s / root_m for _ in dims)
    if strategy is ClipSplit.DIM_FRACTION:
        total_d = sum(dims)
        return tuple(total_s * math.sqrt(d / total_d) for d in dims)
    raise ValueError(f"unknown split strategy {strategy!r}")
