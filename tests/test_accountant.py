import math
import random
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dpledger import (
    CalibrationError,
    InsecureLedgerError,
    Knob,
    Ledger,
    OrderGrid,
    RdpProfile,
    SensitivityRangeError,
    UnsupportedPolicyError,
    account_ledger,
    calibrate,
    compose_rdp,
    epsilon_at_delta,
    rdp_step,
)
from dpledger import accountant
from dpledger.accountant import _MAX_ORDER

DELTA = 1e-5


def _ledger_of_rounds(rounds, policy="poisson_iid", n=10_000):
    """rounds: list of (q, [(clip, sigma), ...])."""
    led = Ledger()
    for q, tuples in rounds:
        rid = led.record_sample(q=q, n=n, policy_tag=policy)
        for i, (clip, sigma) in enumerate(tuples):
            led.record_sum_query(rid, clip_s=clip, sigma_sum=sigma, group_name=f"g{i}")
        led.close_round()
    return led


# -------------------------------------------------------------------- grids


def test_default_grid_contents():
    grid = OrderGrid.default()
    assert grid.orders[:63] == tuple(float(v) for v in range(2, 65))
    assert grid.orders[63:] == (80.0, 96.0, 128.0, 256.0, 512.0)


def test_order_grid_validation():
    with pytest.raises(ValueError):
        OrderGrid(())
    with pytest.raises(ValueError):
        OrderGrid((1.0, 2.0))  # orders must exceed 1
    with pytest.raises(ValueError):
        OrderGrid((3.0, 2.0))
    with pytest.raises(ValueError):
        OrderGrid((2.0, 2.0))


def test_order_grid_refuses_non_integer_and_oversized_orders():
    # the accountant evaluates only the exact integer-order binomial sum,
    # whose table at order lam holds lam + 1 terms
    for orders in ((2.5,), (2.0, 3.5), (1.0000001,), (_MAX_ORDER + 1.0,), (1e12,)):
        with pytest.raises(ValueError):
            OrderGrid(orders)
    assert OrderGrid((2.0, float(_MAX_ORDER))).orders == (2.0, float(_MAX_ORDER))


def test_profile_validation():
    grid = OrderGrid((2.0, 3.0))
    RdpProfile(grid=grid, values=(0.0, math.inf))  # inf is legal
    with pytest.raises(ValueError):
        RdpProfile(grid=grid, values=(0.0,))
    with pytest.raises(ValueError):
        RdpProfile(grid=grid, values=(-0.1, 0.0))
    with pytest.raises(ValueError):
        RdpProfile(grid=grid, values=(math.nan, 0.0))


# ----------------------------------------------------------------- rdp_step


def test_rdp_step_zero_rate_is_free():
    profile = rdp_step(0.0, 1.0)
    assert all(v == 0.0 for v in profile.values)


def test_rdp_step_full_sampling_is_pure_gaussian():
    # q = 1 must give exactly lam / (2 z^2)
    for z in (0.5, 1.0, 2.0):
        profile = rdp_step(1.0, z)
        for lam, v in zip(profile.grid.orders, profile.values):
            assert v == pytest.approx(lam / (2.0 * z * z), abs=1e-12)
    assert rdp_step(1.0, 1.0).values[0] == pytest.approx(1.0, abs=1e-12)


def test_rdp_step_matches_oracle_spot(oracle_table):
    grid = OrderGrid((32.0,))
    got = rdp_step(0.01, 1.0, grid).values[0]
    want = oracle_table.rdp(0.01, 1.0, 32)
    assert got == pytest.approx(want, rel=1e-6)


def test_rdp_step_vanishing_z_diverges_without_warning():
    # z^2 underflows to 0: no finite guarantee, and no division warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for q in (0.5, 1.0):
            profile = rdp_step(q, 1e-200)
            assert all(math.isinf(v) for v in profile.values)


def test_forward_moment_dominates_reverse(oracle_table):
    # the step value uses the mu0-referenced moment; this asserts that the
    # choice is the larger direction everywhere on the tested grid, so a
    # violation fails loudly instead of being silently maxed away
    for (q, z, lam), (fwd, rev) in oracle_table.moments.items():
        slack = 1e-10 * max(1.0, abs(fwd))
        assert fwd >= rev - slack, (q, z, lam, fwd, rev)


def test_rdp_step_monotone_in_q_z_and_order():
    grid = OrderGrid(tuple(float(v) for v in range(2, 33)))
    rng = np.random.default_rng(5)
    qs = np.sort(rng.uniform(0.005, 0.9, size=4))
    zs = np.sort(rng.uniform(0.6, 2.5, size=4))
    for z in zs:
        prev = None
        for q in qs:
            profile = rdp_step(float(q), float(z), grid)
            vals = np.array(profile.values)
            # nondecreasing in order
            assert np.all(np.diff(vals) >= -1e-15)
            # nondecreasing in q
            if prev is not None:
                assert np.all(vals >= prev - 1e-12)
            prev = vals
    for q in qs:
        prev = None
        for z in zs:
            vals = np.array(rdp_step(float(q), float(z), grid).values)
            # nonincreasing in z
            if prev is not None:
                assert np.all(vals <= prev + 1e-12)
            prev = vals


def test_small_q_never_beats_full_sampling():
    grid = OrderGrid(tuple(float(v) for v in range(2, 65)))
    for z in (0.8, 1.0, 2.0):
        full = np.array(rdp_step(1.0, z, grid).values)
        for q in (0.01, 0.1, 0.5, 0.99):
            vals = np.array(rdp_step(q, z, grid).values)
            assert np.all(vals <= full + 1e-12)


def test_rdp_step_chunks_do_not_change_values():
    # orders 2..1600 hold about 1.28M (order, k) terms, more than one chunk;
    # each order must come out as it does when evaluated alone
    wide = OrderGrid(tuple(float(o) for o in range(2, 1601)))
    orders = (2.0, 1400.0, 1450.0, 1600.0)
    got = dict(zip(wide.orders, rdp_step(0.01, 1.5, wide).values))
    for lam in orders:
        assert got[lam] == rdp_step(0.01, 1.5, OrderGrid((lam,))).values[0]


_RATES = st.one_of(
    st.floats(1e-7, 1.0),
    st.floats(5e-7, 2e-6),
    st.floats(0.999, 1.0),
    st.sampled_from([0.0, 1.0, 1.0 - 2.0**-53]),
)
_MULTIPLIERS = st.one_of(st.sampled_from([0.7, 1.1, 3.0, 1e-200]), st.floats(0.05, 100.0))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(_RATES, _MULTIPLIERS), min_size=1, max_size=12))
@example([(0.01, 1.1), (1.0, 1.1), (0.5, 1e-200), (1e-6, 1.1), (1.0 - 1e-9, 3.0)])
def test_count_table_rows_are_bit_identical_to_rdp_step(rows):
    # the count table's pass evaluates rows together, in chunks of rows and
    # blocks of orders. With 200 terms a chunk, the default grid's orders
    # straddle blocks; with 2**14, chunks of 5 rows straddle the rows. Each
    # row must still be rdp_step's alone, at the default chunk size.
    grid = OrderGrid.default()
    want = [[v.hex() for v in rdp_step(q, z, grid).values] for q, z in rows]
    for chunk in (200, 2**14):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(accountant, "_CHUNK_TERMS", chunk)
            batch = accountant._rdp_rows([q for q, _ in rows], [z for _, z in rows], grid)
        assert [[v.hex() for v in row] for row in batch.tolist()] == want


def _schedule_ledger(seed=2, rates=200, step=10):
    """3 groups, q redrawn every `step` rounds: `rates` distinct rows."""
    rng = random.Random(seed)
    queries = [(rng.uniform(0.1, 2.0), rng.uniform(1.0, 6.0)) for _ in range(3)]
    led = Ledger()
    for _ in range(rates):
        q = 10 ** rng.uniform(-3.0, -1.3)
        for _ in range(step):
            rid = led.record_sample(q=q, n=60_000, policy_tag="poisson_iid")
            for g, (clip, sigma) in enumerate(queries):
                led.record_sum_query(rid, clip_s=clip, sigma_sum=sigma, group_name=f"g{g}")
            led.close_round()
    return led


def _mixed_z_ledger():
    """35 distinct (q, z) rows over 150 rounds, q = 1 among them."""
    led = Ledger()
    for i in range(150):
        q = (0.004, 0.01, 0.02, 0.05, 1.0)[i % 5]
        rid = led.record_sample(q=q, n=60_000, policy_tag="poisson_iid")
        sigma = (2.0, 3.5, 5.0, 8.0, 12.0, 30.0, 3.5)[i % 7]
        led.record_sum_query(rid, clip_s=1.0, sigma_sum=sigma, group_name="g")
        led.close_round()
    return led


@pytest.mark.parametrize(
    "build, want_hex, want_order",
    [
        (_schedule_ledger, "0x1.2ee052db7a0bfp+1", 11.0),
        (_mixed_z_ledger, "0x1.f0ae67dd1fc98p+2", 4.0),
    ],
)
def test_multi_row_ledger_epsilon_bits_are_pinned(build, want_hex, want_order):
    # computed with one rdp_step per row and compose_rdp over the rows'
    # repeated profiles; accounting all rows in one pass changes no bit
    got = account_ledger(build(), DELTA)
    assert got.epsilon.hex() == want_hex
    assert got.achieving_order == want_order


def test_log_factorial_table_grows_with_the_same_bits():
    # rdp_step reads one table per process, grown to the largest order
    # asked for; growing it must not change an entry already there.
    small = accountant._log_factorials(10).copy()
    table = accountant._log_factorials(2000)
    want = np.array([math.lgamma(i + 1.0) for i in range(2001)])
    assert table[:2001].tobytes() == want.tobytes()
    assert table[:11].tobytes() == small[:11].tobytes()
    assert not table.flags.writeable


def test_rdp_step_input_validation():
    with pytest.raises(ValueError):
        rdp_step(-0.1, 1.0)
    with pytest.raises(ValueError):
        rdp_step(1.1, 1.0)
    with pytest.raises(ValueError):
        rdp_step(0.5, 0.0)
    with pytest.raises(ValueError):
        rdp_step(0.5, math.inf)


# -------------------------------------------------------------- composition


def test_compose_empty_is_zero():
    grid = OrderGrid((2.0, 4.0))
    p = compose_rdp([], grid)
    assert p.values == (0.0, 0.0)
    assert len(compose_rdp([]).grid) == len(OrderGrid.default())


def test_compose_is_linear():
    grid = OrderGrid((2.0, 3.0, 4.0))
    p = RdpProfile(grid=grid, values=(0.25, 0.5, 2.0))  # dyadic, exact sums
    total = compose_rdp([p] * 7)
    assert total.values == (7 * 0.25, 7 * 0.5, 7 * 2.0)


def test_compose_associative():
    grid = OrderGrid((2.0, 3.0))
    a = RdpProfile(grid=grid, values=(0.5, 1.0))
    b = RdpProfile(grid=grid, values=(0.25, 2.0))
    c = RdpProfile(grid=grid, values=(4.0, 0.125))
    left = compose_rdp([compose_rdp([a, b]), c])
    right = compose_rdp([a, compose_rdp([b, c])])
    assert left.values == right.values


def test_compose_rejects_mixed_grids():
    a = RdpProfile(grid=OrderGrid((2.0, 3.0)), values=(0.1, 0.2))
    b = RdpProfile(grid=OrderGrid((2.0, 4.0)), values=(0.1, 0.2))
    with pytest.raises(ValueError):
        compose_rdp([a, b])
    with pytest.raises(ValueError):
        compose_rdp([a], OrderGrid((2.0, 4.0)))


def test_compose_propagates_divergence():
    grid = OrderGrid((2.0, 3.0))
    a = RdpProfile(grid=grid, values=(math.inf, 0.5))
    b = RdpProfile(grid=grid, values=(1.0, 0.5))
    assert compose_rdp([a, b]).values == (math.inf, 1.0)


# ---------------------------------------------------------------- epsilon


def test_epsilon_of_zero_profile():
    grid = OrderGrid.default()
    guarantee = epsilon_at_delta(RdpProfile(grid, (0.0,) * len(grid)), DELTA)
    lam_max = grid.orders[-1]
    assert guarantee.epsilon == pytest.approx(
        math.log(1.0 / DELTA) / (lam_max - 1.0), rel=1e-15
    )
    assert guarantee.achieving_order == lam_max
    assert guarantee.caveats  # grid endpoint flagged


def test_epsilon_single_full_gaussian_step():
    # continuous-order optimum is at lam = 1 + sqrt(2 log(1/delta)):
    # eps = 1/2 + sqrt(2 log(1/delta)); the grid value must come close
    guarantee = epsilon_at_delta(rdp_step(1.0, 1.0), DELTA)
    continuous = 0.5 + math.sqrt(2.0 * math.log(1.0 / DELTA))
    assert guarantee.epsilon == pytest.approx(continuous, abs=0.02)
    assert guarantee.epsilon >= continuous  # grid can only be worse
    assert not guarantee.caveats


def test_epsilon_skips_diverged_orders():
    grid = OrderGrid((2.0, 3.0, 4.0))
    clean = epsilon_at_delta(RdpProfile(grid=grid, values=(0.0, 0.0, 0.0)), DELTA)
    assert clean.achieving_order == 4.0
    poked = epsilon_at_delta(
        RdpProfile(grid=grid, values=(0.0, 0.0, math.inf)), DELTA
    )
    assert poked.achieving_order == 3.0
    assert math.isfinite(poked.epsilon)


def test_epsilon_all_diverged():
    grid = OrderGrid.default()
    guarantee = epsilon_at_delta(RdpProfile(grid, (math.inf,) * len(grid)), DELTA)
    assert guarantee.epsilon == math.inf
    assert guarantee.achieving_order is None


def test_epsilon_interior_minimum_has_no_caveat():
    guarantee = epsilon_at_delta(rdp_step(0.01, 1.1), DELTA)
    assert not guarantee.caveats


def test_epsilon_monotone_in_delta():
    profile = rdp_step(0.01, 1.1)
    eps = [epsilon_at_delta(profile, d).epsilon for d in (1e-3, 1e-5, 1e-7)]
    assert eps[0] < eps[1] < eps[2]


def test_epsilon_delta_validation():
    grid = OrderGrid.default()
    profile = RdpProfile(grid, (0.0,) * len(grid))
    for bad in (0.0, 1.0, -0.5, 2.0):
        with pytest.raises(ValueError):
            epsilon_at_delta(profile, bad)


# ----------------------------------------------------------- ledger account


def test_account_empty_ledger():
    got = account_ledger(Ledger(), DELTA)
    grid = OrderGrid.default()
    want = epsilon_at_delta(RdpProfile(grid, (0.0,) * len(grid)), DELTA)
    assert got.epsilon == want.epsilon
    assert got.achieving_order == want.achieving_order


def test_account_refuses_when_every_order_diverges():
    # S* = 1.2e154: order 2 is finite, every term from k = 3 on overflows
    led = _ledger_of_rounds([(0.5, [(1.2e154, 1.0)])])
    assert math.isfinite(account_ledger(led, DELTA, grid=OrderGrid((2.0, 3.0))).epsilon)
    with pytest.raises(SensitivityRangeError, match="every order of the grid diverged"):
        account_ledger(led, DELTA, grid=OrderGrid((3.0, 4.0)))


def test_account_single_round_pipeline_identity():
    # one round, q=0.01, single tuple (S=1, sigma=100) means z = 100; the
    # ledger route must equal the manual two-call route bit-for-bit
    led = _ledger_of_rounds([(0.01, [(1.0, 100.0)])])
    got = account_ledger(led, DELTA)
    manual = epsilon_at_delta(rdp_step(0.01, 100.0), DELTA)
    assert got.epsilon == manual.epsilon
    assert got.achieving_order == manual.achieving_order


def test_account_multi_round_matches_manual_composition():
    led = _ledger_of_rounds(
        [
            (0.01, [(1.0, 110.0)]),
            (0.02, [(1.0, 55.0), (0.5, 60.0)]),
            (0.01, [(2.0, 340.0)]),
        ]
    )
    got = account_ledger(led, DELTA)
    from dpledger import formal_ledger

    rows = formal_ledger(led)
    assert [row.rounds for row in rows] == [1, 1, 1]
    profiles = [rdp_step(row.q, row.z) for row in rows]
    manual = epsilon_at_delta(compose_rdp(profiles), DELTA)
    assert got.epsilon == manual.epsilon
    assert got.achieving_order == manual.achieving_order


def test_account_epsilon_grows_with_rounds():
    one = account_ledger(_ledger_of_rounds([(0.01, [(1.0, 110.0)])]), DELTA)
    ten = account_ledger(
        _ledger_of_rounds([(0.01, [(1.0, 110.0)])] * 10), DELTA
    )
    assert ten.epsilon > one.epsilon


def test_account_insecure_round_refused():
    led = _ledger_of_rounds([(0.5, [(1.0, 0.0)])])
    with pytest.raises(InsecureLedgerError):
        account_ledger(led, DELTA)


def test_account_composes_repeated_rounds_by_count():
    # each distinct (q, z) is evaluated once and scaled by its count, which
    # agrees with round-by-round composition up to rounding
    rounds = [(0.01, [(1.0, 110.0)]), (0.02, [(1.0, 55.0), (0.5, 60.0)])] * 40
    led = _ledger_of_rounds(rounds + [(0.01, [(1.0, 110.0)])])
    got = account_ledger(led, DELTA)
    a, b = rdp_step(*_q_z(led, 0)), rdp_step(*_q_z(led, 1))
    manual = epsilon_at_delta(compose_rdp([a, b] * 40 + [a]), DELTA)
    assert got.epsilon == pytest.approx(manual.epsilon, rel=1e-14)
    assert got.achieving_order == manual.achieving_order
    by_count = epsilon_at_delta(compose_rdp([a.repeated(41), b.repeated(40)]), DELTA)
    assert got.epsilon == by_count.epsilon


def _q_z(led, row_index):
    from dpledger import formal_ledger

    row = formal_ledger(led)[row_index]
    return row.q, row.z


def _mixed_ledger(rounds):
    """rounds: list of (policy, q, sigma_sum), one clip-1 query each."""
    led = Ledger()
    for policy, q, sigma in rounds:
        rid = led.record_sample(q=q, n=10_000, policy_tag=policy)
        led.record_sum_query(rid, clip_s=1.0, sigma_sum=sigma, group_name="g")
        led.close_round()
    return led


def test_account_refusal_names_first_round_of_the_policy():
    led = _mixed_ledger(
        [
            ("poisson_iid", 0.01, 100.0),
            ("poisson_iid", 0.02, 100.0),
            ("disjoint_partition", 0.03, 100.0),
            ("poisson_iid", 0.01, 100.0),
            ("disjoint_partition", 0.02, 100.0),
        ]
    )
    with pytest.raises(UnsupportedPolicyError, match=r"^round 2 used policy"):
        account_ledger(led, DELTA)


def test_account_refuses_unsupported_policy():
    led = _ledger_of_rounds([(0.1, [(1.0, 5.0)])], policy="disjoint_partition")
    with pytest.raises(UnsupportedPolicyError):
        account_ledger(led, DELTA)


_REFUSED_POLICIES = {
    "fixed_size_wor": "fixed-size sampling goes with replace-one neighbours",
    "disjoint_partition": "no supported analysis for disjoint-partition",
    "made_up_policy": "unknown policy tag",
}


@pytest.mark.parametrize("tag", sorted(_REFUSED_POLICIES))
def test_account_refuses_every_policy_but_poisson(tag):
    # only Poisson rounds have a proof; the refusal names the tag's first
    # round, after Poisson rounds and before a later round of the same tag
    led = _mixed_ledger(
        [
            ("poisson_iid", 0.01, 100.0),
            ("poisson_iid", 0.02, 100.0),
            (tag, 0.01, 100.0),
            ("poisson_iid", 0.01, 100.0),
            (tag, 0.02, 100.0),
        ]
    )
    with pytest.raises(
        UnsupportedPolicyError,
        match=rf"^round 2 used policy '{tag}': {_REFUSED_POLICIES[tag]}",
    ):
        account_ledger(led, DELTA)


def test_account_delta_required_valid():
    with pytest.raises(ValueError):
        account_ledger(Ledger(), 0.0)


# -------------------------------------------------------------- calibration


def _eps_of(q, z, rounds, delta=DELTA):
    return epsilon_at_delta(compose_rdp([rdp_step(q, z)] * rounds), delta).epsilon


def test_calibrate_returns_bound_when_target_sits_there():
    eps_lo = _eps_of(0.01, 4.0, 100)  # z high -> low epsilon bound
    got = calibrate(
        eps_lo, DELTA, rounds=100, knob=Knob.NOISE_MULTIPLIER, q=0.01,
        bounds=(0.5, 4.0),
    )
    assert got == 4.0


def test_calibrate_noise_multiplier_self_consistent():
    z = calibrate(
        2.0, DELTA, rounds=1000, knob=Knob.NOISE_MULTIPLIER, q=0.01,
        bounds=(0.5, 4.0), tolerance=1e-3,
    )
    assert abs(_eps_of(0.01, z, 1000) - 2.0) <= 1e-3


def test_calibrate_sampling_rate_self_consistent():
    q = calibrate(
        2.0, DELTA, rounds=1000, knob=Knob.SAMPLING_RATE, z=1.1,
        bounds=(1e-4, 0.5), tolerance=1e-3,
    )
    assert abs(_eps_of(q, 1.1, 1000) - 2.0) <= 1e-3


@pytest.mark.parametrize(
    "knob, fixed, bounds",
    [
        (Knob.NOISE_MULTIPLIER, dict(q=0.01), (0.5, 4.0)),
        (Knob.SAMPLING_RATE, dict(z=1.1), (1e-4, 0.5)),
    ],
)
def test_calibrate_never_overshoots_the_target(knob, fixed, bounds):
    # With tolerance 0.1 a two-sided search stopped at z = 1.1016 (epsilon
    # 2.0796) and at q = 0.009864 (epsilon 2.0594): a knob costing more
    # than was asked for.
    got = calibrate(
        2.0, DELTA, rounds=1000, knob=knob, bounds=bounds, tolerance=0.1, **fixed
    )
    q, z = fixed.get("q", got), fixed.get("z", got)
    assert 1.9 <= _eps_of(q, z, 1000) <= 2.0


def test_calibrate_bound_just_above_the_target_is_infeasible():
    # Every z in the bounds costs more than the target, if only by a
    # tenth of the tolerance: the bound is not returned.
    target = _eps_of(0.01, 4.0, 100) - 1e-4
    with pytest.raises(CalibrationError) as exc:
        calibrate(
            target, DELTA, rounds=100, knob=Knob.NOISE_MULTIPLIER, q=0.01,
            bounds=(0.5, 4.0), tolerance=1e-3,
        )
    assert min(exc.value.bracket) > target


def test_calibrate_infeasible_reports_bracket():
    with pytest.raises(CalibrationError) as exc:
        calibrate(
            1e-6, DELTA, rounds=1000, knob=Knob.NOISE_MULTIPLIER, q=0.01,
            bounds=(0.5, 4.0),
        )
    lo_eps, hi_eps = exc.value.bracket
    assert lo_eps > hi_eps  # epsilon falls as z rises
    assert hi_eps > 1e-6  # the target really was unreachable


def test_calibrate_widening_bounds_is_stable():
    kwargs = dict(rounds=1000, knob=Knob.NOISE_MULTIPLIER, q=0.01, tolerance=1e-3)
    z1 = calibrate(2.0, DELTA, bounds=(0.5, 4.0), **kwargs)
    z2 = calibrate(2.0, DELTA, bounds=(0.25, 8.0), **kwargs)
    assert abs(_eps_of(0.01, z1, 1000) - _eps_of(0.01, z2, 1000)) <= 2e-3


def test_calibrate_validation():
    with pytest.raises(ValueError):
        calibrate(2.0, DELTA, rounds=10, knob=Knob.NOISE_MULTIPLIER, bounds=(0.5, 4.0))
    with pytest.raises(ValueError):
        calibrate(2.0, DELTA, rounds=10, knob=Knob.SAMPLING_RATE, bounds=(0.1, 0.5))
    with pytest.raises(ValueError):
        calibrate(
            2.0, DELTA, rounds=10, knob=Knob.NOISE_MULTIPLIER, q=0.01, bounds=(4.0, 0.5)
        )
    with pytest.raises(ValueError):
        calibrate(
            -1.0, DELTA, rounds=10, knob=Knob.NOISE_MULTIPLIER, q=0.01, bounds=(0.5, 4.0)
        )
    for tolerance in (math.inf, math.nan):  # inf would return lo unbisected
        with pytest.raises(ValueError):
            calibrate(
                2.0,
                DELTA,
                rounds=1000,
                knob=Knob.NOISE_MULTIPLIER,
                q=0.01,
                bounds=(0.5, 4.0),
                tolerance=tolerance,
            )
