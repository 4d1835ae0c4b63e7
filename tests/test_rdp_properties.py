"""Property tests for the RDP kernel against a 60-digit mpmath sum.

The oracle sums the same exact series as the accountant,

    A_lam - 1 = sum_{k=2..lam} C(lam, k) q^k (1-q)^(lam-k) expm1(k (k-1) / (2 z^2)),

but in 60-digit arithmetic, so its rounding is far below float64's and the
comparison measures only the accountant's own rounding. RDP at order lam
is log1p(A_lam - 1) / (lam - 1).
"""

import math

import mpmath
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dpledger import OrderGrid, deserialize, formal_ledger, rdp_step
from test_cli import GOLDEN, GOLDEN_EPSILON, GOLDEN_ORDER

_ORDERS = tuple(range(2, 65)) + (256, 512)
_GRID = OrderGrid(tuple(float(o) for o in _ORDERS))


def _oracle_rdp(q: float, z: float, lam: int) -> mpmath.mpf:
    q, z = mpmath.mpf(q), mpmath.mpf(z)
    a_minus_one = mpmath.fsum(
        mpmath.binomial(lam, k)
        * q**k
        * (1 - q) ** (lam - k)
        * mpmath.expm1(k * (k - 1) / (2 * z * z))
        for k in range(2, lam + 1)
    )
    return mpmath.log1p(a_minus_one) / (lam - 1)


@settings(max_examples=25, deadline=None)
@given(
    log10_q=st.floats(min_value=-10.0, max_value=0.0, exclude_max=True),
    z=st.floats(min_value=0.3, max_value=100.0),
)
@example(log10_q=-8.0, z=20.0)
@example(log10_q=-8.0, z=4.0)
def test_rdp_step_matches_60_digit_sum(log10_q, z):
    q = min(10.0**log10_q, math.nextafter(1.0, 0.0))
    values = rdp_step(q, z, _GRID).values
    with mpmath.workdps(60):
        for lam, got in zip(_ORDERS, values):
            want = _oracle_rdp(q, z, lam)
            rel = abs((mpmath.mpf(got) - want) / want)
            assert rel <= 1e-12, (q, z, lam, got, want)


def test_golden_epsilon_is_the_60_digit_value_to_one_ulp():
    with open(GOLDEN, "rb") as fh:
        rows = formal_ledger(deserialize(fh.read()))
    grid = OrderGrid.default()
    with mpmath.workdps(60):
        log_inv_delta = mpmath.log(1 / mpmath.mpf(1e-5))
        candidates = [
            (
                sum(r.rounds * _oracle_rdp(r.q, r.z, int(lam)) for r in rows)
                + log_inv_delta / (lam - 1),
                lam,
            )
            for lam in grid.orders
        ]
        eps, order = min(candidates)
        assert order == GOLDEN_ORDER
        assert abs(eps - mpmath.mpf(GOLDEN_EPSILON)) <= math.ulp(GOLDEN_EPSILON)
