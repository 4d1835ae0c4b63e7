"""Renyi-divergence accounting over ledger rounds, and its conversions.

One subsampled Gaussian round at rate q and noise multiplier z costs, at
Renyi order lam, RDP(lam) = log(A_lam) / (lam - 1) where A_lam is the
lam-th moment of the privacy loss. For integer orders the moment expands
exactly into a binomial sum,

    A_lam = sum_{k=0..lam} C(lam, k) (1-q)^(lam-k) q^k exp(k (k-1) / (2 z^2)),

evaluated here entirely in log space. Only integer orders are accepted,
so every per-round value is this finite sum and no step of the
computation is a numerical approximation with an unchecked error. Costs
add across rounds order-by-order, and the classic conversion
eps = min_lam [ RDP(lam) + log(1/delta) / (lam - 1) ] turns the composed
profile into an (eps, delta) guarantee. The conversion is deliberately
the textbook one; sharper conversions exist but are out of scope, and the
achieving order is reported so a user can audit the minimization.

Everything is deterministic: the same ledger, grid, and delta give
bit-identical epsilon, whether the ledger came from memory or a file.

With ledger, this is the trusted core; it imports only ledger and errors.
It decides which policies it can account; calibration is in allocation.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln, logsumexp

from .errors import UnsupportedPolicyError
from .ledger import Ledger, SamplingPolicy, formal_ledger

_DEFAULT_ORDERS = tuple(float(k) for k in range(2, 65)) + (
    80.0,
    96.0,
    128.0,
    256.0,
    512.0,
)

# The binomial sum at order lam holds lam + 1 terms; 2**16 keeps each
# table at 0.5 MB, far above the default grid's largest order.
_MAX_ORDER = 2**16


@dataclass(frozen=True)
class OrderGrid:
    """Strictly ascending integer Renyi orders in [2, _MAX_ORDER].

    Orders are stored as floats (an achieving order prints as 9.0), but
    each must be an integer, since the accountant evaluates the moment
    only as its exact binomial sum.
    """

    orders: tuple[float, ...]

    def __post_init__(self):
        orders = tuple(float(o) for o in self.orders)
        if not orders:
            raise ValueError("order grid must be nonempty")
        for o in orders:
            if not (o.is_integer() and 2.0 <= o <= _MAX_ORDER):
                raise ValueError(
                    f"orders must be integers in [2, {_MAX_ORDER}], got {o}"
                )
        if any(b <= a for a, b in zip(orders, orders[1:])):
            raise ValueError("orders must be strictly ascending")
        object.__setattr__(self, "orders", orders)

    @classmethod
    def default(cls) -> "OrderGrid":
        """Integers 2..64 densely, then a sparse tail out to 512."""
        return cls(_DEFAULT_ORDERS)

    def __len__(self) -> int:
        return len(self.orders)


@dataclass(frozen=True)
class RdpProfile:
    """RDP cost at every order of a grid; +inf marks a diverged order."""

    grid: OrderGrid
    values: tuple[float, ...]

    def __post_init__(self):
        values = tuple(float(v) for v in self.values)
        if len(values) != len(self.grid):
            raise ValueError(
                f"{len(values)} values for {len(self.grid)} orders"
            )
        for v in values:
            if math.isnan(v) or v < 0.0:
                raise ValueError(f"RDP values must be nonnegative, got {v}")
        object.__setattr__(self, "values", values)

    @classmethod
    def zero(cls, grid: OrderGrid) -> "RdpProfile":
        return cls(grid=grid, values=(0.0,) * len(grid))

    @classmethod
    def diverged(cls, grid: OrderGrid) -> "RdpProfile":
        return cls(grid=grid, values=(math.inf,) * len(grid))


@dataclass(frozen=True)
class PrivacyGuarantee:
    """An (epsilon, delta) statement plus how it was reached."""

    epsilon: float
    delta: float
    achieving_order: float | None
    caveats: tuple[str, ...] = ()


def _log_binom(lam: int, ks: np.ndarray) -> np.ndarray:
    return gammaln(lam + 1.0) - gammaln(ks + 1.0) - gammaln(lam - ks + 1.0)


def _rdp_integer_order(q: float, z: float, lam: int) -> float:
    """Exact binomial expansion of the forward moment, in log space."""
    ks = np.arange(lam + 1, dtype=np.float64)
    with np.errstate(over="ignore"):
        terms = (
            _log_binom(lam, ks)
            + ks * math.log(q)
            + (lam - ks) * math.log1p(-q)
            + ks * (ks - 1.0) / (2.0 * z * z)
        )
    if not np.isfinite(terms).all():
        return math.inf
    log_a = float(logsumexp(terms))
    return max(0.0, log_a / (lam - 1.0))


@functools.lru_cache(maxsize=16384)
def _rdp_step_cached(q: float, z: float, grid: OrderGrid) -> RdpProfile:
    values = tuple(_rdp_integer_order(q, z, int(lam)) for lam in grid.orders)
    return RdpProfile(grid=grid, values=values)


def rdp_step(q: float, z: float, grid: OrderGrid | None = None) -> RdpProfile:
    """RDP cost of one round sampled at rate q with noise multiplier z.

    q = 0 touches no records and costs nothing; q = 1 is the plain Gaussian
    mechanism, costing exactly lam / (2 z^2) at every order. A z so small
    that z^2 underflows to 0 gives the diverged profile at every q > 0.
    """
    if not (0.0 <= q <= 1.0):
        raise ValueError(f"q must be in [0, 1], got {q}")
    if not (math.isfinite(z) and z > 0.0):
        raise ValueError(f"noise multiplier must be positive and finite, got {z}")
    grid = grid or OrderGrid.default()
    if q == 0.0:
        return RdpProfile.zero(grid)
    if z * z == 0.0:
        return RdpProfile.diverged(grid)
    if q == 1.0:
        return RdpProfile(
            grid=grid, values=tuple(lam / (2.0 * z * z) for lam in grid.orders)
        )
    return _rdp_step_cached(float(q), float(z), grid)


def compose_rdp(profiles, grid: OrderGrid | None = None) -> RdpProfile:
    """Add per-round costs order-by-order; +inf anywhere stays +inf.

    An empty sequence composes to the zero profile on `grid` (default grid
    if none is given). Mixed grids are an error, not an interpolation.
    """
    profiles = list(profiles)
    if not profiles:
        return RdpProfile.zero(grid or OrderGrid.default())
    base = profiles[0].grid
    if grid is not None and grid != base:
        raise ValueError("explicit grid disagrees with the profiles' grid")
    totals = [0.0] * len(base)
    for p in profiles:
        if p.grid != base:
            raise ValueError("cannot compose profiles on different order grids")
        for i, v in enumerate(p.values):
            totals[i] += v
    return RdpProfile(grid=base, values=tuple(totals))


_EDGE_CAVEAT = (
    "the optimal order lies at the edge of the grid; a wider grid might "
    "give a smaller epsilon"
)


def epsilon_at_delta(profile: RdpProfile, delta: float) -> PrivacyGuarantee:
    """Classic conversion: eps = min over orders of
    RDP(lam) + log(1/delta) / (lam - 1). delta has no default anywhere;
    the caller must commit to one."""
    if not (0.0 < delta < 1.0):
        raise ValueError(f"delta must be in (0, 1), got {delta}")
    log_inv_delta = math.log(1.0 / delta)
    best = math.inf
    best_idx: int | None = None
    for i, (lam, value) in enumerate(zip(profile.grid.orders, profile.values)):
        if math.isinf(value):
            continue
        eps = value + log_inv_delta / (lam - 1.0)
        if eps < best:
            best = eps
            best_idx = i
    if best_idx is None:
        return PrivacyGuarantee(
            epsilon=math.inf,
            delta=delta,
            achieving_order=None,
            caveats=("every order diverged; no finite guarantee exists",),
        )
    caveats = ()
    if best_idx in (0, len(profile.grid) - 1):
        caveats = (_EDGE_CAVEAT,)
    return PrivacyGuarantee(
        epsilon=best,
        delta=delta,
        achieving_order=profile.grid.orders[best_idx],
        caveats=caveats,
    )


@dataclass(frozen=True)
class AccountingSupport:
    """Whether rounds under a policy can be fed to the accountant, and how."""

    supported: bool
    caveat: str | None = None
    reason: str | None = None


_WOR_CAVEAT = (
    "fixed-size sampling without replacement is accounted as Poisson at "
    "q = batch_size / n; this is a heuristic, not a proven equivalence"
)


def policy_accounting_support(
    policy: SamplingPolicy | str, *, wor_as_poisson: bool = True
) -> AccountingSupport:
    """Accounting stance for a policy tag as found in a ledger."""
    tag = policy.value if isinstance(policy, SamplingPolicy) else str(policy)
    if tag == SamplingPolicy.POISSON_IID.value:
        return AccountingSupport(supported=True)
    if tag == SamplingPolicy.FIXED_SIZE_WOR.value:
        if wor_as_poisson:
            return AccountingSupport(supported=True, caveat=_WOR_CAVEAT)
        return AccountingSupport(
            supported=False, reason="poisson-style accounting for fixed-size "
            "sampling was disabled by configuration"
        )
    if tag == SamplingPolicy.DISJOINT_PARTITION.value:
        return AccountingSupport(
            supported=False,
            reason="no supported analysis for disjoint-partition sampling; "
            "the accountant refuses rather than guessing",
        )
    return AccountingSupport(supported=False, reason=f"unknown policy tag {tag!r}")


_INSECURE_CAVEAT = (
    "zero-noise round(s) present: the guarantee is vacuous (epsilon = inf)"
)


def account_ledger(
    ledger: Ledger,
    delta: float,
    *,
    grid: OrderGrid | None = None,
    allow_insecure: bool = False,
    wor_as_poisson: bool = True,
) -> PrivacyGuarantee:
    """Recompute the end-to-end guarantee from a ledger's events alone.

    Per round: reduce to the single equivalent query, take its RDP profile
    at (q, z = z_effective), compose, convert at delta. Policies the
    accountant cannot analyze raise UnsupportedPolicyError instead of
    returning a number that means nothing.
    """
    if not (0.0 < delta < 1.0):
        raise ValueError(f"delta must be in (0, 1), got {delta}")
    grid = grid or OrderGrid.default()
    rows = formal_ledger(ledger, allow_insecure=allow_insecure)
    caveats: list[str] = []
    profiles: list[RdpProfile] = []
    for row in rows:
        support = policy_accounting_support(
            row.policy_tag, wor_as_poisson=wor_as_poisson
        )
        if not support.supported:
            raise UnsupportedPolicyError(
                f"round {row.round_id} used policy {row.policy_tag!r}: "
                f"{support.reason}"
            )
        if support.caveat and support.caveat not in caveats:
            caveats.append(support.caveat)
        if row.effective is None:
            profiles.append(RdpProfile.diverged(grid))
            if _INSECURE_CAVEAT not in caveats:
                caveats.append(_INSECURE_CAVEAT)
        else:
            profiles.append(rdp_step(row.q, row.effective.z_effective, grid))
    guarantee = epsilon_at_delta(compose_rdp(profiles, grid), delta)
    return PrivacyGuarantee(
        epsilon=guarantee.epsilon,
        delta=guarantee.delta,
        achieving_order=guarantee.achieving_order,
        caveats=tuple(caveats) + guarantee.caveats,
    )
