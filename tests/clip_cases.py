"""Exact norms and wide-range inputs for the clip tests.

A clipped row must have an exact L2 norm at most the clip, which float
arithmetic cannot confirm by itself: exact_sq_norm takes the sum of
squares in rational arithmetic. wide_range_member makes factored members,
and through materialize blocks, whose rows sit at every magnitude and
within a few ulps of the clip.
"""

from fractions import Fraction

import numpy as np

from dpledger import ScaledRows


def exact_sq_norm(row) -> Fraction:
    """The sum of squares of a float row, in exact rational arithmetic."""
    ratios = [v.as_integer_ratio() for v in row.tolist()]
    den = max(d for _, d in ratios)  # every denominator is a power of two
    return Fraction(sum((num * (den // d)) ** 2 for num, d in ratios), den * den)


def wide_range_member(rng, m, d, clip):
    """m records of d entries, rows and scalars at magnitudes 1e-150 to
    1e150; every tenth row at 1e+-160 to 1e+-300, where its squares
    overflow or underflow, with a scalar that brings it near the clip;
    and every third record within a few ulps of the clip."""
    rows = rng.normal(size=(m, d)) * 10.0 ** rng.uniform(-150, 150, size=(m, 1))
    scalars = rng.choice([-1.0, 1.0], size=m) * 10.0 ** rng.uniform(-150, 150, size=m)
    far = np.arange(0, m, 10)
    exps = rng.choice([-1, 1], size=far.size) * rng.uniform(160, 300, size=far.size)
    rows[far] = rng.normal(size=(far.size, d)) * 10.0 ** exps[:, None]
    scalars[far] = 10.0 ** (-exps + rng.uniform(-3, 3, size=far.size))
    near = np.arange(1, m, 3)
    top = np.abs(rows[near]).max(axis=1)
    scaled = rows[near] / top[:, None]
    sizes = top * np.sqrt(np.einsum("ij,ij->i", scaled, scaled))
    ulps = rng.integers(-4, 5, size=near.size)
    scalars[near] = np.sign(scalars[near]) * clip * (1 + ulps * 2.0**-52) / sizes
    return ScaledRows(scalars, rows)
