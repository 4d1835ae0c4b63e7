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
the one S*. All rows are evaluated in one batched pass, each row with the
bits rdp_step(q, z) gives it alone. The classic conversion
eps = min_lam [ RDP(lam) + log(1/delta) / (lam - 1) ] turns the composed
profile into an (eps, delta) guarantee. The conversion is deliberately
the textbook one; sharper conversions exist but are out of scope, and the
achieving order is reported so a user can audit the minimization.

Everything is deterministic: the same ledger, grid, and delta give
bit-identical epsilon, whether the ledger came from memory or a file.

With ledger, this is the trusted core; it imports only ledger and errors,
and of third-party code only numpy. The analysis above is for Poisson
subsampling, so that is the one policy it accounts: a ledger with a round
under any other policy, a zero-noise or empty round, or no finite epsilon
at any order of the grid is refused, never given a caveated or vacuous
epsilon. Calibration is in allocation.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import SensitivityRangeError, UnsupportedPolicyError
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
# whole orders are evaluated in blocks of about _CHUNK_TERMS terms, and rows
# in chunks of about as many. Of 2**12..2**20, 2**15 was fastest on 200
# rows of the default grid (2 MB of L2 per core): a chunk stays in cache.
_MAX_ORDER = 2**16
_CHUNK_TERMS = 2**15

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

    def repeated(self, rounds: int) -> "RdpProfile":
        """Cost of `rounds` rounds at this cost: each order times rounds."""
        return _compose(self.grid, [rounds], np.array([self.values]))


@dataclass(frozen=True)
class PrivacyGuarantee:
    """An (epsilon, delta) statement plus how it was reached."""

    epsilon: float
    delta: float
    achieving_order: float | None
    caveats: tuple[str, ...] = ()


@functools.lru_cache(maxsize=1)
def _block(orders: tuple[float, ...]):
    """Tables of the grid alone, for a run of whole orders and their terms
    k = 2..lam: (lams, term counts, first terms, k, lam - k, log C(lam, k),
    k (k - 1)), each computed as for one row alone."""
    lams = np.array(orders, dtype=np.int64)
    counts = lams - 1
    starts = np.cumsum(counts) - counts
    lam = np.repeat(lams, counts)
    k = np.arange(counts.sum()) - np.repeat(starts, counts) + 2
    log_fact = _log_factorials(int(lams[-1]))
    log_binom = log_fact[lam] - log_fact[k] - log_fact[lam - k]
    tables = (lams, counts, starts, k * 1.0, (lam - k) * 1.0, log_binom, k * (k - 1.0))
    for table in tables:
        table.flags.writeable = False  # cached, so shared by every call
    return tables


def _rdp_chunk(block, log_q, log_1mq, zz2) -> np.ndarray:
    """RDP at the block's orders of rows with 0 < q < 1, given log q,
    log(1 - q) and 2 z^2 per row. A term of +inf (c_k overflows) makes its
    order +inf; a term of -inf (c_k underflows to 0) adds nothing."""
    lams, counts, starts, k, lam_k, log_binom, kk1 = block
    noise, which = np.unique(zz2, return_inverse=True)
    segments = (np.arange(len(log_q))[:, None] * len(k) + starts).reshape(-1)
    with np.errstate(over="ignore", divide="ignore"):
        c = kk1 / noise[:, None]
        log_expm1 = np.log(-np.expm1(-c))
        # log C(lam, k) + k log q + (lam - k) log(1 - q) + c + log(-expm1(-c)),
        # added left to right as for one row alone (the first + commutes)
        terms = np.multiply(k, log_q[:, None])
        terms += log_binom
        more = np.multiply(lam_k, log_1mq[:, None])
        terms += more
        terms += np.take(c, which, axis=0, out=more)
        terms += np.take(log_expm1, which, axis=0, out=more)
        flat = terms.reshape(-1)
        top = np.maximum.reduceat(flat, segments).reshape(len(log_q), -1)
        shift = np.where(np.isfinite(top), top, 0.0)
        terms -= np.repeat(shift, counts, axis=1)
        np.exp(terms, out=terms)
        log_am1 = np.log(np.add.reduceat(flat, segments)).reshape(shift.shape) + shift
        return np.logaddexp(0.0, log_am1) / (lams - 1.0)


def _rdp_rows(qs, zs, grid: OrderGrid) -> np.ndarray:
    """RDP of one round at each row (q, z), at every order of grid, as a
    (rows, orders) array; each row has the bits it has when evaluated alone.

    q = 0 touches no records and costs nothing; q = 1 is the plain Gaussian
    mechanism, costing exactly lam / (2 z^2) at every order. A z so small
    that z^2 underflows to 0 gives +inf at every order at every q > 0.
    """
    lams = np.array(grid.orders)
    values = np.zeros((len(qs), len(lams)))
    live = []
    for r, (q, z) in enumerate(zip(qs, zs)):
        if not (0.0 <= q <= 1.0):
            raise ValueError(f"q must be in [0, 1], got {q}")
        if not (math.isfinite(z) and z > 0.0):
            raise ValueError(f"noise multiplier must be positive and finite, got {z}")
        if q == 0.0:
            continue
        if z * z == 0.0:
            values[r] = math.inf
        elif q == 1.0:
            values[r] = lams / (2.0 * z * z)
        else:
            live.append((r, math.log(q), math.log1p(-q), 2.0 * z * z))
    if not live:
        return values
    rows, log_q, log_1mq, zz2 = (np.array(column) for column in zip(*live))
    # Blocks of whole orders, cut before each order whose terms end in a new
    # run of _CHUNK_TERMS, then chunks of rows of about _CHUNK_TERMS terms.
    ends = np.cumsum(lams - 1.0)
    cuts = [0, *(np.flatnonzero(np.diff((ends - 1) // _CHUNK_TERMS)) + 1), len(lams)]
    for lo, hi in zip(cuts, cuts[1:]):
        block = _block(grid.orders[lo:hi])
        step = max(1, _CHUNK_TERMS // len(block[3]))  # block[3]: k of each term
        for i in range(0, len(rows), step):
            part = slice(i, i + step)
            values[rows[part], lo:hi] = _rdp_chunk(
                block, log_q[part], log_1mq[part], zz2[part]
            )
    return values


def rdp_step(q: float, z: float, grid: OrderGrid | None = None) -> RdpProfile:
    """RDP cost of one round sampled at rate q with noise multiplier z: the
    one-row case of _rdp_rows."""
    grid = grid or OrderGrid.default()
    return RdpProfile(grid=grid, values=tuple(_rdp_rows([q], [z], grid)[0].tolist()))


def _compose(grid: OrderGrid, rounds, values: np.ndarray) -> RdpProfile:
    """sum_r rounds_r * values_r, order by order, added in row order."""
    totals = sum((count * row for count, row in zip(rounds, values)), np.zeros(len(grid)))
    return RdpProfile(grid=grid, values=tuple(totals.tolist()))


def compose_rdp(profiles, grid: OrderGrid | None = None) -> RdpProfile:
    """Add per-round costs order-by-order; +inf anywhere stays +inf.

    An empty sequence composes to the zero profile on `grid` (default grid
    if none is given). Mixed grids are an error, not an interpolation.
    """
    profiles = list(profiles)
    base = profiles[0].grid if profiles else grid or OrderGrid.default()
    if grid is not None and grid != base:
        raise ValueError("explicit grid disagrees with the profiles' grid")
    if any(p.grid != base for p in profiles):
        raise ValueError("cannot compose profiles on different order grids")
    return _compose(base, [1] * len(profiles), np.array([p.values for p in profiles]))


_EDGE_CAVEAT = (
    "the optimal order lies at the edge of the grid; a wider grid might "
    "give a smaller epsilon"
)


def _check_delta(delta: float) -> None:
    if not (0.0 < delta < 1.0):
        raise ValueError(f"delta must be in (0, 1), got {delta}")


def epsilon_at_delta(profile: RdpProfile, delta: float) -> PrivacyGuarantee:
    """Classic conversion: eps = min over orders of
    RDP(lam) + log(1/delta) / (lam - 1). delta has no default anywhere;
    the caller must commit to one."""
    _check_delta(delta)
    # 1 / delta overflows below about 5.6e-309; -log(delta) does not.
    inverse = 1.0 / delta
    log_inv_delta = math.log(inverse) if inverse < math.inf else -math.log(delta)
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

    formal_ledger counts the rounds by (policy, q, z = 1/S*) in first-seen
    order; all rows' RDP profiles are taken in one pass, composed as the
    sum of count times profile and converted at delta. Only
    Poisson-subsampled rounds have an analysis here: any other policy raises
    UnsupportedPolicyError naming its first round, instead of returning a
    number that means nothing. A profile that diverges at every order of
    the grid raises SensitivityRangeError, as no finite epsilon exists.
    """
    _check_delta(delta)
    grid = grid or OrderGrid.default()
    rows = formal_ledger(ledger)
    for row in rows:
        if row.policy_tag != SamplingPolicy.POISSON_IID.value:
            reason = _UNSUPPORTED.get(row.policy_tag, "unknown policy tag")
            raise UnsupportedPolicyError(
                f"round {row.first_round} used policy {row.policy_tag!r}: {reason}"
            )
    values = _rdp_rows([row.q for row in rows], [row.z for row in rows], grid)
    profile = _compose(grid, [row.rounds for row in rows], values)
    guarantee = epsilon_at_delta(profile, delta)
    if guarantee.achieving_order is None:
        raise SensitivityRangeError(
            "every order of the grid diverged; no finite epsilon exists"
        )
    return guarantee
