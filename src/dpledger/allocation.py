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

calibrate bisects q or z to a target epsilon. Like the splits, it only
proposes what gets recorded; the accountant reads the ledger alone.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .accountant import OrderGrid, compose_rdp, epsilon_at_delta, rdp_step
from .errors import CalibrationError
from .ledger import round_compose


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


class Knob(enum.Enum):
    """Which parameter calibrate() is allowed to move."""

    SAMPLING_RATE = "sampling_rate"
    NOISE_MULTIPLIER = "noise_multiplier"


def _total_epsilon(
    q: float, z: float, rounds: int, delta: float, grid: OrderGrid
) -> float:
    profile = rdp_step(q, z, grid)
    total = compose_rdp([profile] * rounds, grid)
    return epsilon_at_delta(total, delta).epsilon


def calibrate(
    target_epsilon: float,
    delta: float,
    *,
    rounds: int,
    knob: Knob,
    q: float | None = None,
    z: float | None = None,
    bounds: tuple[float, float],
    tolerance: float = 1e-3,
    grid: OrderGrid | None = None,
    max_iterations: int = 60,
) -> float:
    """Bisect the chosen knob until `rounds` identical rounds cost
    target_epsilon at delta, within tolerance.

    Epsilon grows with q and shrinks with z; both directions are verified
    at the bounds before bisecting, and a target outside the bracket fails
    with the epsilon values at both bounds so the caller can see how far
    off the bracket is.
    """
    if not (math.isfinite(target_epsilon) and target_epsilon > 0.0):
        raise ValueError(f"target epsilon must be positive, got {target_epsilon}")
    if not (0.0 < delta < 1.0):
        raise ValueError(f"delta must be in (0, 1), got {delta}")
    if rounds < 1:
        raise ValueError(f"rounds must be at least 1, got {rounds}")
    if not (math.isfinite(tolerance) and tolerance > 0.0):
        raise ValueError(f"tolerance must be positive and finite, got {tolerance}")
    lo, hi = float(bounds[0]), float(bounds[1])
    if not lo < hi:
        raise ValueError(f"bounds must satisfy lo < hi, got {bounds}")
    grid = grid or OrderGrid.default()

    if knob is Knob.SAMPLING_RATE:
        if z is None or not (math.isfinite(z) and z > 0.0):
            raise ValueError("calibrating q requires a fixed noise multiplier z > 0")
        if not (0.0 < lo and hi <= 1.0):
            raise ValueError(f"q bounds must lie in (0, 1], got {bounds}")
        evaluate = lambda x: _total_epsilon(x, z, rounds, delta, grid)
        increasing = True
    elif knob is Knob.NOISE_MULTIPLIER:
        if q is None or not (0.0 < q <= 1.0):
            raise ValueError("calibrating z requires a fixed sampling rate q in (0, 1]")
        if lo <= 0.0:
            raise ValueError(f"z bounds must be positive, got {bounds}")
        evaluate = lambda x: _total_epsilon(q, x, rounds, delta, grid)
        increasing = False
    else:
        raise ValueError(f"unknown knob {knob!r}")

    eps_lo = evaluate(lo)
    eps_hi = evaluate(hi)
    if increasing and eps_lo > eps_hi or not increasing and eps_lo < eps_hi:
        raise CalibrationError(
            f"epsilon is not monotone over the bounds as expected: "
            f"eps({lo}) = {eps_lo}, eps({hi}) = {eps_hi}",
            bracket=(eps_lo, eps_hi),
        )
    if abs(eps_lo - target_epsilon) <= tolerance:
        return lo
    if abs(eps_hi - target_epsilon) <= tolerance:
        return hi
    low_eps, high_eps = min(eps_lo, eps_hi), max(eps_lo, eps_hi)
    if not low_eps <= target_epsilon <= high_eps:
        raise CalibrationError(
            f"target epsilon {target_epsilon} is not bracketed: the bounds "
            f"reach eps({lo}) = {eps_lo} and eps({hi}) = {eps_hi}",
            bracket=(eps_lo, eps_hi),
        )
    for _ in range(max_iterations):
        mid = 0.5 * (lo + hi)
        eps_mid = evaluate(mid)
        if abs(eps_mid - target_epsilon) <= tolerance:
            return mid
        if (eps_mid < target_epsilon) == increasing:
            lo = mid
        else:
            hi = mid
    raise CalibrationError(
        f"no knob value within tolerance {tolerance} of epsilon "
        f"{target_epsilon} after {max_iterations} bisection steps",
        bracket=(eps_lo, eps_hi),
    )
