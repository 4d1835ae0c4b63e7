"""Independent float64 reference for integer-order subsampled-Gaussian RDP.

One round at sampling rate q and noise multiplier z costs, at integer
order lam, log(A_lam) / (lam - 1) with the binomial expansion

    A_lam = sum_{k=0..lam} C(lam, k) (1-q)^(lam-k) q^k exp(k (k-1) / (2 z^2)).

This module uses only the standard library, so it shares no code with the
package it checks. Every order on the package's default grid is an
integer, so the expansion is exact there and the benchmark can hold the
printed epsilon to a relative 1e-9.
"""

from __future__ import annotations

import functools
import math

ORDERS = tuple(range(2, 65)) + (80, 96, 128, 256, 512)


@functools.lru_cache(maxsize=None)
def _log_binomials(lam: int) -> tuple[float, ...]:
    head = math.lgamma(lam + 1.0)
    return tuple(
        head - math.lgamma(k + 1.0) - math.lgamma(lam - k + 1.0)
        for k in range(lam + 1)
    )


def rdp_orders(q: float, z: float) -> tuple[float, ...]:
    """Per-round RDP at every order of ORDERS."""
    if q >= 1.0:
        return tuple(lam / (2.0 * z * z) for lam in ORDERS)
    log_q = math.log(q)
    log_1mq = math.log1p(-q)
    inv_2zz = 1.0 / (2.0 * z * z)
    out = []
    for lam in ORDERS:
        terms = [
            lb + k * log_q + (lam - k) * log_1mq + k * (k - 1) * inv_2zz
            for k, lb in enumerate(_log_binomials(lam))
        ]
        peak = max(terms)
        log_a = peak + math.log(math.fsum(math.exp(t - peak) for t in terms))
        out.append(max(0.0, log_a / (lam - 1)))
    return tuple(out)


def effective_z(queries) -> float:
    """Noise multiplier of one round of (clip, sigma_sum) queries:
    z = 1 / sqrt(sum_g (clip_g / sigma_g)^2)."""
    return 1.0 / math.sqrt(sum((clip / sigma) ** 2 for clip, sigma in queries))


def epsilon(schedule, z: float, delta: float) -> float:
    """Epsilon at delta of rounds with noise multiplier z, run at the
    (q, rounds) pairs of `schedule`, by the classic conversion
    min_lam [sum of RDP(lam) over rounds + log(1/delta) / (lam - 1)]."""
    totals = [0.0] * len(ORDERS)
    for q, rounds in schedule:
        for i, r in enumerate(rdp_orders(q, z)):
            totals[i] += rounds * r
    log_inv_delta = math.log(1.0 / delta)
    return min(t + log_inv_delta / (lam - 1) for lam, t in zip(ORDERS, totals))
