"""Distributing a target noise multiplier across groups, and splitting a
clip budget across layers.

Given a target z and the groups' clip bounds, an allocation returns
per-group sum-level noise stds whose round composition, the ledger's
effective_z, lands exactly back on z: proportional_allocation spends
sqrt(G) per group, and dim_adjusted_allocation, which also takes the
groups' dimensions, spends sqrt(D / d_g) so high-dimensional groups get
relatively less noise per coordinate. Both are pure functions of bounds
and dimensions: they never see data, so a bug here can change utility
but cannot change what the ledger records meaning anything other than
what it says.

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

from .accountant import OrderGrid, _check_delta, epsilon_at_delta, rdp_step
from .errors import CalibrationError


class ClipSplit(enum.Enum):
    FLAT = "flat"
    PER_LAYER = "per_layer"
    DIM_FRACTION = "dim_fraction"


def _check_dims(dims) -> tuple[int, ...]:
    dims = tuple(int(d) for d in dims)
    if not dims:
        raise ValueError("group_dims must be nonempty")
    if any(d < 1 for d in dims):
        raise ValueError(f"dimensions must be at least 1, got {dims}")
    return dims


def _check_allocation(target_z: float, clips, dims=None):
    """A target z > 0, a nonempty sequence of positive finite clip bounds
    as floats and, if given, one dimension of at least 1 per bound, as
    ints."""
    if not (math.isfinite(target_z) and target_z > 0):
        raise ValueError(f"target_z must be positive, got {target_z}")
    clips = tuple(float(s) for s in clips)
    if not clips:
        raise ValueError("clips must be nonempty")
    for s in clips:
        if not (math.isfinite(s) and s > 0):
            raise ValueError(f"clip bounds must be positive, got {s}")
    if dims is not None:
        dims = _check_dims(dims)
        if len(dims) != len(clips):
            raise ValueError(f"{len(clips)} clip bounds take as many dims, got {dims}")
    return clips, dims


def proportional_allocation(target_z: float, clips) -> tuple[float, ...]:
    """sigma_g = z * sqrt(G) * S_g: every group gets noise proportional to
    its own bound, and the sqrt(G) factor makes the G-term composition
    cancel back to exactly z."""
    clips, _ = _check_allocation(target_z, clips)
    root_g = math.sqrt(len(clips))
    return tuple(target_z * root_g * s for s in clips)


def dim_adjusted_allocation(target_z: float, clips, dims) -> tuple[float, ...]:
    """sigma_g = z * sqrt(D / d_g) * S_g: groups with more coordinates get
    relatively less per-coordinate noise; sum(d_g / D) = 1 makes the
    composition cancel to z just like the proportional rule."""
    clips, dims = _check_allocation(target_z, clips, dims)
    total_d = sum(dims)
    return tuple(target_z * math.sqrt(total_d / d) * s for s, d in zip(clips, dims))


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
    dims = _check_dims(group_dims)
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


# Bisection steps before calibrate gives up: 60 halvings narrow a bracket
# by 2**60, past the 53 bits of a float when its bounds are of one scale.
_MAX_BISECTIONS = 60


def _total_epsilon(
    q: float, z: float, rounds: int, delta: float, grid: OrderGrid
) -> float:
    total = rdp_step(q, z, grid).repeated(rounds)
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
) -> float:
    """Bisect the chosen knob until `rounds` identical rounds cost at
    most target_epsilon at delta, and at least target_epsilon - tolerance.

    The search is one-sided, at the bounds too: a knob value whose epsilon
    exceeds the target is never returned, however close. Epsilon grows
    with q and shrinks with z; both directions are verified at the bounds
    before bisecting, and a target outside the bracket fails with the
    epsilon values at both bounds so the caller can see how far off the
    bracket is.
    """
    if not (math.isfinite(target_epsilon) and target_epsilon > 0.0):
        raise ValueError(f"target epsilon must be positive, got {target_epsilon}")
    _check_delta(delta)
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
    within = lambda eps: target_epsilon - tolerance <= eps <= target_epsilon
    if within(eps_lo):
        return lo
    if within(eps_hi):
        return hi
    low_eps, high_eps = min(eps_lo, eps_hi), max(eps_lo, eps_hi)
    if not low_eps <= target_epsilon <= high_eps:
        raise CalibrationError(
            f"target epsilon {target_epsilon} is not bracketed: the bounds "
            f"reach eps({lo}) = {eps_lo} and eps({hi}) = {eps_hi}",
            bracket=(eps_lo, eps_hi),
        )
    for _ in range(_MAX_BISECTIONS):
        mid = 0.5 * (lo + hi)
        eps_mid = evaluate(mid)
        if within(eps_mid):
            return mid
        if (eps_mid < target_epsilon) == increasing:
            lo = mid
        else:
            hi = mid
    raise CalibrationError(
        f"no knob value within tolerance {tolerance} below epsilon "
        f"{target_epsilon} after {_MAX_BISECTIONS} bisection steps",
        bracket=(eps_lo, eps_hi),
    )
