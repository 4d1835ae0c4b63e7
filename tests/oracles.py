"""Independent numerical oracle for subsampled-Gaussian Renyi moments.

Everything here is computed by adaptive quadrature over the explicit mixture
densities, sharing no code with the package's accountant. The accountant
expands the moment as a binomial sum; the oracle integrates the defining
expectation directly, in a standardized coordinate system, so agreement
between the two is meaningful evidence rather than a tautology.

Densities (sensitivity-1 sum query, noise std z):
    mu0 = N(0, z^2)                       no record present
    mu1 = N(1, z^2)                       record present
    mu  = (1 - q) mu0 + q mu1             record present with probability q

Forward moment:  A(lam) = E_{x ~ mu0} [ (mu(x) / mu0(x))^lam ]
Reverse moment:  B(lam) = E_{x ~ mu }[ (mu0(x) / mu(x))^lam ]

The Renyi divergence of order lam is log(max(A, B)) / (lam - 1); for this
mixture pair the forward direction dominates, which test_accountant checks
explicitly rather than assuming.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import integrate, optimize

_LOG_INV_SQRT_2PI = -0.5 * math.log(2.0 * math.pi)


def _log_ratio(t: np.ndarray | float, q: float, z: float):
    """log(mu/mu0) at x = z*t, i.e. log((1-q) + q*exp((2*z*t - 1)/(2 z^2)))."""
    expo = (2.0 * z * np.asarray(t, dtype=np.float64) - 1.0) / (2.0 * z * z)
    return np.logaddexp(math.log1p(-q), math.log(q) + expo)


def _integrate_log(g, lo: float, hi: float, seeds) -> float:
    """log of integral(exp(g(t)) dt, lo..hi) with the peak factored out.

    seeds are abscissae near suspected modes; the true max is located by a
    dense grid plus local refinement before the shifted integrand is handed
    to adaptive quadrature.
    """
    grid = np.unique(
        np.concatenate([np.linspace(lo, hi, 4001), np.asarray(seeds, dtype=np.float64)])
    )
    vals = g(grid)
    best = int(np.argmax(vals))
    a = grid[max(best - 1, 0)]
    b = grid[min(best + 1, grid.size - 1)]
    res = optimize.minimize_scalar(lambda t: -g(t), bounds=(a, b), method="bounded")
    peak = max(float(vals[best]), float(-res.fun))
    shifted = lambda t: np.exp(g(t) - peak)
    inner = [float(s) for s in seeds if lo < s < hi]
    total, _ = integrate.quad(
        shifted, lo, hi, points=sorted(set(inner)), limit=500, epsabs=1e-14, epsrel=1e-13
    )
    return peak + math.log(total)


def log_forward_moment(q: float, z: float, lam: float) -> float:
    """log E_{mu0}[(mu/mu0)^lam], integrated in units of z (x = z*t)."""
    if not 0.0 < q <= 1.0:
        raise ValueError(f"q must be in (0, 1], got {q}")
    if z <= 0.0 or lam <= 1.0:
        raise ValueError(f"need z > 0 and lam > 1, got z={z} lam={lam}")
    if q == 1.0:
        return lam * lam / (2.0 * z * z) - lam / (2.0 * z * z) + 0.0  # lam(lam-1)/(2z^2)

    def g(t):
        t = np.asarray(t, dtype=np.float64)
        log_mu0 = _LOG_INV_SQRT_2PI - 0.5 * t * t  # N(0,1) density in t-space
        return log_mu0 + lam * _log_ratio(t, q, z)

    # exp(g) is a positive mixture of unit-variance Gaussians centered at
    # t = 0 .. lam/z; pad generously on both sides.
    lo = -40.0
    hi = lam / z + 40.0
    seeds = np.linspace(0.0, lam / z, max(int(lam / z) + 2, 8))
    return _integrate_log(g, lo, hi, seeds)


def log_reverse_moment(q: float, z: float, lam: float) -> float:
    """log E_{mu}[(mu0/mu)^lam] = log integral mu0^lam mu^(1-lam)."""
    if not 0.0 < q < 1.0:
        raise ValueError(f"q must be in (0, 1), got {q}")
    if z <= 0.0 or lam <= 1.0:
        raise ValueError(f"need z > 0 and lam > 1, got z={z} lam={lam}")

    def g(t):
        # mu0^lam mu^(1-lam) = mu0 * exp(-(lam-1) log(mu/mu0))
        t = np.asarray(t, dtype=np.float64)
        log_mu0 = _LOG_INV_SQRT_2PI - 0.5 * t * t
        return log_mu0 - (lam - 1.0) * _log_ratio(t, q, z)

    # The integrand is mu0 * (mu/mu0)^(-lam): largest where the ratio is
    # smallest, i.e. far left; it decays like a shifted Gaussian either way.
    lo = -(lam / z + 40.0)
    hi = 40.0
    seeds = np.linspace(-lam / z, 0.0, max(int(lam / z) + 2, 8))
    return _integrate_log(g, lo, hi, seeds)


def epsilon_from_rdp(orders, values, delta: float) -> tuple[float, float]:
    """Classic RDP-to-DP conversion done longhand: min over the grid of
    value + log(1/delta)/(order - 1). Returns (epsilon, achieving order)."""
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must be in (0, 1), got {delta}")
    best = math.inf
    best_order = math.nan
    for order, value in zip(orders, values, strict=True):
        if math.isinf(value):
            continue
        eps = value + math.log(1.0 / delta) / (order - 1.0)
        if eps < best:
            best = eps
            best_order = order
    return best, best_order
