"""Renyi-divergence accounting over ledger rounds, and its conversions.

One subsampled Gaussian round at rate q and noise multiplier z costs, at
Renyi order lam, RDP(lam) = log(A_lam) / (lam - 1) where A_lam is the
lam-th moment of the privacy loss (Mironov 2017, arXiv 1702.07476). For
integer orders the moment expands exactly into a binomial sum. Its
weights C(lam, k) q^k (1-q)^(lam-k) sum to 1 and its k = 0 and k = 1
terms have exponent 0, so

    A_lam - 1 = sum_{k=2..lam} C(lam, k) q^k (1-q)^(lam-k) expm1(c_k),
    c_k = k (k - 1) / (2 z^2),

and RDP(lam) = log1p(A_lam - 1) / (lam - 1). Every term of that sum is
positive, so the log-space sum (max-shifted, as in Mironov, Talwar and
Zhang 2019, arXiv 1908.10530) adds and never subtracts: nothing cancels,
even when RDP is about q^2 and A_lam is 1 + tiny. What is left is the
rounding of each log term, mostly the log-binomial taken as a difference
of lgammas. Against a 60-digit sum it stays within about 1e-13 relative
at orders up to 512, in either direction: that is an error estimate, not
a signed bound. Only integer orders are accepted, so no step is a
numerical approximation with an unchecked error.

Costs add across rounds order-by-order, so n rounds at one (q, z) cost n
times one round's profile. The accountant reads a ledger only through
ledger.formal_ledger, its count table: one row per distinct (policy, q, z)
with its number of rounds, where z = 1/S* comes from ledger.effective_z,
the one S*. It evaluates each row's profile once. The classic conversion
eps = min_lam [ RDP(lam) + log(1/delta) / (lam - 1) ] turns the composed
profile into an (eps, delta) guarantee. The conversion is deliberately
the textbook one; sharper conversions exist but are out of scope, and the
achieving order is reported so a user can audit the minimization.

Everything is deterministic: the same ledger, grid, and delta give
bit-identical epsilon, whether the ledger came from memory or a file.

With ledger, this is the trusted core; it imports only ledger and errors,
and of third-party code only numpy. The analysis above is for Poisson
subsampling, so that is the one policy it accounts: a ledger with a round
under any other policy, or with a zero-noise round, is refused, never
given a caveated or vacuous epsilon. Calibration is in allocation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import UnsupportedPolicyError
from .ledger import Ledger, SamplingPolicy, formal_ledger

_DEFAULT_ORDERS = tuple(float(k) for k in range(2, 65)) + (
    80.0,
    96.0,
    128.0,
    256.0,
    512.0,
)

# The A - 1 sum at order lam holds lam - 1 terms (k = 2..lam). 2**16 is far
# above the default grid's largest order and keeps the log-factorial table
# at 0.5 MB; a grid of every order up to it holds about 2**31 terms, so
# whole orders are evaluated in chunks of about _CHUNK_TERMS terms.
_MAX_ORDER = 2**16
_CHUNK_TERMS = 2**20

# log(i!) = lgamma(i + 1) for i = 0, 1, ..., extended on demand to the
# largest order asked for. A table of a pure function, so sharing it
# across calls changes no result; it is replaced, never written in place.
_log_fact = np.zeros(0)


def _log_factorials(top: int) -> np.ndarray:
    """log(i!) for i = 0..top (at least), read-only."""
    global _log_fact
    have = len(_log_fact)
    if have <= top:
        more = np.array([math.lgamma(i + 1.0) for i in range(have, top + 1)])
        table = np.concatenate([_log_fact, more])
        table.flags.writeable = False
        _log_fact = table
    return _log_fact


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

    def repeated(self, rounds: int) -> "RdpProfile":
        """Cost of `rounds` rounds at this cost: each order times rounds."""
        return RdpProfile(
            grid=self.grid, values=tuple(rounds * v for v in self.values)
        )


@dataclass(frozen=True)
class PrivacyGuarantee:
    """An (epsilon, delta) statement plus how it was reached."""

    epsilon: float
    delta: float
    achieving_order: float | None
    caveats: tuple[str, ...] = ()


def _log_a_minus_one(
    q: float, z: float, lams: np.ndarray, log_fact: np.ndarray
) -> np.ndarray:
    """log(A_lam - 1) at each order in lams, over their (lam, k >= 2) terms.

    A term of +inf (c_k overflows) makes its order +inf; a term of -inf
    (c_k underflows to 0) adds nothing.
    """
    counts = lams - 1
    starts = np.cumsum(counts) - counts
    lam = np.repeat(lams, counts)
    k = np.arange(counts.sum()) - np.repeat(starts, counts) + 2
    with np.errstate(over="ignore", divide="ignore"):
        c = k * (k - 1.0) / (2.0 * z * z)
        terms = (
            log_fact[lam]
            - log_fact[k]
            - log_fact[lam - k]
            + k * math.log(q)
            + (lam - k) * math.log1p(-q)
            + c
            + np.log(-np.expm1(-c))
        )
        top = np.maximum.reduceat(terms, starts)
        shift = np.where(np.isfinite(top), top, 0.0)
        shifted = np.exp(terms - np.repeat(shift, counts))
        return np.log(np.add.reduceat(shifted, starts)) + shift


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
    lams = np.array(grid.orders, dtype=np.int64)
    log_fact = _log_factorials(int(lams[-1]))
    # Cut before each order whose terms end in a new block of _CHUNK_TERMS,
    # so a chunk holds at most _CHUNK_TERMS + _MAX_ORDER terms.
    ends = np.cumsum(lams - 1)
    cuts = np.flatnonzero(np.diff((ends - 1) // _CHUNK_TERMS)) + 1
    log_am1 = np.concatenate(
        [_log_a_minus_one(q, z, part, log_fact) for part in np.split(lams, cuts)]
    )
    values = np.logaddexp(0.0, log_am1) / (lams - 1.0)
    return RdpProfile(grid=grid, values=tuple(values.tolist()))


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


# Why each known policy other than Poisson is refused.
_UNSUPPORTED = {
    SamplingPolicy.FIXED_SIZE_WOR.value: "fixed-size sampling goes with "
    "replace-one neighbours, which the Poisson analysis does not cover",
    SamplingPolicy.DISJOINT_PARTITION.value: "no supported analysis for "
    "disjoint-partition sampling",
}


def account_ledger(
    ledger: Ledger, delta: float, *, grid: OrderGrid | None = None
) -> PrivacyGuarantee:
    """Recompute the end-to-end guarantee from a ledger's events alone.

    formal_ledger counts the usable rounds by (policy, q, z = 1/S*) in
    first-seen order; each row's RDP profile is taken once and composed
    its count times, then converted at delta. Only Poisson-subsampled
    rounds have an analysis here: any other policy raises
    UnsupportedPolicyError naming its first round, instead of returning a
    number that means nothing.
    """
    if not (0.0 < delta < 1.0):
        raise ValueError(f"delta must be in (0, 1), got {delta}")
    grid = grid or OrderGrid.default()
    profiles: list[RdpProfile] = []
    for row in formal_ledger(ledger):
        if row.policy_tag != SamplingPolicy.POISSON_IID.value:
            reason = _UNSUPPORTED.get(row.policy_tag, "unknown policy tag")
            raise UnsupportedPolicyError(
                f"round {row.first_round} used policy {row.policy_tag!r}: {reason}"
            )
        profiles.append(rdp_step(row.q, row.z, grid).repeated(row.rounds))
    return epsilon_at_delta(compose_rdp(profiles, grid), delta)
