import collections
import gc
import math
import warnings

import numpy as np
import pytest

from dpledger import (
    AccountingRefusal,
    InsecureLedgerError,
    Ledger,
    LedgerParseError,
    LedgerUsageError,
    SensitivityRangeError,
    FormalRow,
    deserialize,
    formal_ledger,
    serialize,
)
from dpledger import ledger as ledger_module


def _one_round(q=0.5, clip=1.0, sigma=1.0, policy="poisson_iid", n=100):
    led = Ledger()
    rid = led.record_sample(q=q, n=n, policy_tag=policy)
    led.record_sum_query(rid, clip_s=clip, sigma_sum=sigma, group_name="g")
    led.close_round()
    return led


# --------------------------------------------------------------- recording


def test_round_ids_count_up():
    led = Ledger()
    assert led.record_sample(q=0.01, n=10_000, policy_tag="poisson_iid") == 0
    led.close_round()
    assert led.record_sample(q=0.01, n=10_000, policy_tag="poisson_iid") == 1


def test_nested_round_is_a_usage_error():
    led = Ledger()
    led.record_sample(q=0.5, n=10, policy_tag="poisson_iid")
    with pytest.raises(LedgerUsageError):
        led.record_sample(q=0.5, n=10, policy_tag="poisson_iid")


def test_sum_query_appends():
    led = Ledger()
    rid = led.record_sample(q=0.5, n=10, policy_tag="poisson_iid")
    led.record_sum_query(rid, clip_s=1.0, sigma_sum=100.0, group_name="g")
    ((sample, sums),) = led.rounds()
    assert [(e.round_id, e.group_name) for e in sums] == [(rid, "g")]


def test_sum_query_requires_open_round():
    led = Ledger()
    with pytest.raises(LedgerUsageError):
        led.record_sum_query(0, clip_s=1.0, sigma_sum=1.0, group_name="g")
    rid = led.record_sample(q=0.5, n=10, policy_tag="poisson_iid")
    led.close_round()
    with pytest.raises(LedgerUsageError):
        led.record_sum_query(rid, clip_s=1.0, sigma_sum=1.0, group_name="g")


def test_zero_sigma_recorded_but_taints():
    led = Ledger()
    rid = led.record_sample(q=0.5, n=10, policy_tag="poisson_iid")
    led.record_sum_query(rid, clip_s=1.0, sigma_sum=0.0, group_name="g")
    led.close_round()
    assert led.insecure_rounds() == (rid,)


def test_nonpositive_clip_rejected():
    led = Ledger()
    rid = led.record_sample(q=0.5, n=10, policy_tag="poisson_iid")
    with pytest.raises(ValueError):
        led.record_sum_query(rid, clip_s=0.0, sigma_sum=1.0, group_name="g")
    with pytest.raises(ValueError):
        led.record_sum_query(rid, clip_s=-1.0, sigma_sum=1.0, group_name="g")


def test_negative_sigma_rejected():
    led = Ledger()
    rid = led.record_sample(q=0.5, n=10, policy_tag="poisson_iid")
    with pytest.raises(ValueError):
        led.record_sum_query(rid, clip_s=1.0, sigma_sum=-0.5, group_name="g")


def test_sample_event_validation():
    led = Ledger()
    with pytest.raises(ValueError):
        led.record_sample(q=0.0, n=10, policy_tag="poisson_iid")
    with pytest.raises(ValueError):
        led.record_sample(q=1.5, n=10, policy_tag="poisson_iid")
    with pytest.raises(ValueError):
        led.record_sample(q=0.5, n=0, policy_tag="poisson_iid")


@pytest.mark.parametrize("bad_n", [10.0, 10.5, True])
def test_non_integer_n_refused_at_record_time(bad_n):
    # the equal int is recorded first, so the refusal cannot depend on
    # 10.0 or True matching an already checked n
    led = Ledger()
    led.record_sample(q=0.5, n=int(bad_n), policy_tag="poisson_iid")
    led.close_round()
    with pytest.raises(ValueError, match="n must be an integer"):
        led.record_sample(q=0.5, n=bad_n, policy_tag="poisson_iid")


def test_integral_n_is_stored_as_int():
    led = Ledger()
    led.record_sample(q=0.5, n=np.int64(10), policy_tag="poisson_iid")
    led.close_round()
    ((sample, _),) = led.rounds()
    assert type(sample.n) is int
    assert serialize(led).endswith(b" n=10\n")
    assert serialize(deserialize(serialize(led))) == serialize(led)


# ----------------------------------------------------------- normalization


def test_formal_single_round():
    rows = formal_ledger(_one_round(q=0.5, clip=1.0, sigma=1.0))
    assert rows == [FormalRow("poisson_iid", 0.5, 1.0, rounds=1, first_round=0)]


def test_formal_two_tuple_round():
    led = Ledger()
    rid = led.record_sample(q=0.01, n=100, policy_tag="poisson_iid")
    led.record_sum_query(rid, clip_s=3.0, sigma_sum=6.0, group_name="a")
    led.record_sum_query(rid, clip_s=4.0, sigma_sum=8.0, group_name="b")
    led.close_round()
    (row,) = formal_ledger(led)
    assert row.q == 0.01
    assert row.z == pytest.approx(math.sqrt(2.0), rel=1e-15)


def test_formal_requires_closed_rounds():
    led = Ledger()
    led.record_sample(q=0.5, n=10, policy_tag="poisson_iid")
    with pytest.raises(LedgerUsageError):
        formal_ledger(led)


def _ledger_of(sigmas):
    """One round per entry: None is a round with no sum queries, else one
    query at clip 1 and that sigma_sum."""
    led = Ledger()
    for sigma in sigmas:
        rid = led.record_sample(q=0.25, n=10, policy_tag="poisson_iid")
        if sigma is not None:
            led.record_sum_query(rid, clip_s=1.0, sigma_sum=sigma, group_name="g")
        led.close_round()
    return led


@pytest.mark.parametrize(
    "sigmas, refused",
    [
        ((None, 2.0, 2.0), 0),  # empty first round
        ((2.0, None, 2.0), 1),  # empty middle round
        ((2.0, 2.0, None), 2),  # empty last round, as a cut file leaves it
        ((2.0, None, 2.0, 2.0**-1074), 1),  # empty before S* out of range
        ((2.0, 2.0**-1074, None, 2.0), 1),  # S* out of range before empty
    ],
)
def test_formal_refuses_empty_rounds(sigmas, refused):
    led = _ledger_of(sigmas)
    for ledger in (led, deserialize(serialize(led))):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SensitivityRangeError) as exc:
                formal_ledger(ledger)
        assert str(exc.value).startswith(f"round {refused}: ")
    if sigmas[refused] is None:
        assert str(exc.value) == f"round {refused}: no sum queries recorded (S* = 0)"


def test_formal_refuses_insecure_by_default():
    led = Ledger()
    rid = led.record_sample(q=0.5, n=10, policy_tag="poisson_iid")
    led.record_sum_query(rid, clip_s=1.0, sigma_sum=0.0, group_name="g")
    led.close_round()
    with pytest.raises(InsecureLedgerError):
        formal_ledger(led)


def test_formal_keeps_policy_tag_for_later_refusal():
    led = Ledger()
    rid = led.record_sample(q=0.1, n=10, policy_tag="disjoint_partition")
    led.record_sum_query(rid, clip_s=1.0, sigma_sum=2.0, group_name="g")
    led.close_round()
    rows = formal_ledger(led)
    assert rows[0].policy_tag == "disjoint_partition"


def _rounds_ledger(rounds):
    """rounds: list of (policy, q, n, [(group, clip, sigma_sum), ...])."""
    led = Ledger()
    for policy, q, n, queries in rounds:
        rid = led.record_sample(q=q, n=n, policy_tag=policy)
        for group, clip, sigma in queries:
            led.record_sum_query(rid, clip_s=clip, sigma_sum=sigma, group_name=group)
        led.close_round()
    return led


def test_formal_counts_rounds_per_policy_q_z_in_first_seen_order():
    one, two = [("g", 1.0, 2.0)], [("g", 1.0, 4.0), ("h", 1.0, 4.0)]
    led = _rounds_ledger(
        [
            ("poisson_iid", 0.5, 10, one),
            ("fixed_size_wor", 0.5, 10, one),
            ("poisson_iid", 0.5, 20, one),  # n is not part of the key
            ("poisson_iid", 0.25, 10, one),
            ("poisson_iid", 0.5, 10, two),
            ("fixed_size_wor", 0.5, 10, one),
        ]
    )
    assert formal_ledger(led) == [
        FormalRow("poisson_iid", 0.5, 2.0, rounds=2, first_round=0),
        FormalRow("fixed_size_wor", 0.5, 2.0, rounds=2, first_round=1),
        FormalRow("poisson_iid", 0.25, 2.0, rounds=1, first_round=3),
        FormalRow("poisson_iid", 0.5, 1 / math.sqrt(2 * 0.25**2), rounds=1, first_round=4),
    ]


def test_formal_merges_rounds_whose_queries_differ_only_in_group_name():
    led = _rounds_ledger(
        [
            ("poisson_iid", 0.25, 10, [("a", 1.0, 3.0)]),
            ("poisson_iid", 0.5, 10, [("a", 1.0, 3.0)]),
            ("poisson_iid", 0.5, 10, [("b", 1.0, 3.0)]),
        ]
    )
    assert formal_ledger(led) == [
        FormalRow("poisson_iid", 0.25, 3.0, rounds=1, first_round=0),
        FormalRow("poisson_iid", 0.5, 3.0, rounds=2, first_round=1),
    ]


# ------------------------------------------------------------ serialization


def test_empty_ledger_is_header_only():
    data = serialize(Ledger())
    assert data == b"dpledger ledger v1\n"
    assert serialize(deserialize(data)) == data


def test_roundtrip_byte_exact():
    led = Ledger()
    rid = led.record_sample(q=0.01, n=10_000, policy_tag="poisson_iid")
    led.record_sum_query(rid, clip_s=1.0, sigma_sum=110.00000000001, group_name="w")
    led.record_sum_query(rid, clip_s=0.5, sigma_sum=55.0, group_name="b")
    led.close_round()
    rid = led.record_sample(q=0.02, n=10_000, policy_tag="fixed_size_wor")
    led.record_sum_query(rid, clip_s=1.0, sigma_sum=220.0, group_name="w")
    led.close_round()
    data = serialize(led)
    assert serialize(deserialize(data)) == data


def test_roundtrip_preserves_awkward_floats():
    # values with no short decimal form must survive exactly
    q = 0.1 + 0.2  # 0.30000000000000004
    sigma = math.pi * 37.0
    led = Ledger()
    rid = led.record_sample(q=q, n=7, policy_tag="poisson_iid")
    led.record_sum_query(rid, clip_s=1.0 / 3.0, sigma_sum=sigma, group_name="g")
    led.close_round()
    back = deserialize(serialize(led))
    sample, sums = back.rounds()[0]
    assert sample.q == q
    assert sums[0].clip_s == 1.0 / 3.0
    assert sums[0].sigma_sum == sigma


def test_serialize_refuses_open_round():
    led = Ledger()
    led.record_sample(q=0.5, n=10, policy_tag="poisson_iid")
    with pytest.raises(LedgerUsageError):
        serialize(led)


def test_append_only_prefix_property():
    led = Ledger()
    rid = led.record_sample(q=0.5, n=10, policy_tag="poisson_iid")
    led.record_sum_query(rid, clip_s=1.0, sigma_sum=2.0, group_name="g")
    led.close_round()
    first = serialize(led)
    rid = led.record_sample(q=0.5, n=10, policy_tag="poisson_iid")
    led.record_sum_query(rid, clip_s=1.0, sigma_sum=2.0, group_name="g")
    led.close_round()
    second = serialize(led)
    assert second.startswith(first)
    assert len(second) > len(first)


def test_truncated_input_is_a_parse_error():
    led = _one_round()
    data = serialize(led)
    with pytest.raises(LedgerParseError) as exc:
        deserialize(data[:-1])  # lost trailing newline
    assert "truncat" in str(exc.value)
    with pytest.raises(LedgerParseError):
        deserialize(data[: len(data) // 2])


def test_bad_header_rejected():
    with pytest.raises(LedgerParseError) as exc:
        deserialize(b"some other file\n")
    assert exc.value.line == 1


def test_parse_errors_carry_line_numbers():
    data = serialize(_one_round())
    bad = data + b"sum round=9 group=g clip=XYZ sigma_sum=0x1p+0\n"
    with pytest.raises(LedgerParseError) as exc:
        deserialize(bad)
    assert exc.value.line == data.count(b"\n") + 1


_CANONICAL_ROUND = (
    b"dpledger ledger v1\n"
    b"sample round=0 policy=poisson_iid q=0x1.0000000000000p-1 n=1000\n"
)


@pytest.mark.parametrize(
    "field, token",
    [
        ("n", "+1000"),
        ("n", "01000"),
        ("n", "1_000"),
        ("n", "-1000"),
        ("n", ""),
        ("n", "1000\t"),
        ("round", "00"),
        ("round", "+0"),
        ("round", "-0"),
        ("round", "0x0"),
    ],
)
def test_noncanonical_integers_rejected(field, token):
    assert serialize(deserialize(_CANONICAL_ROUND)) == _CANONICAL_ROUND
    canonical = {"n": b"n=1000", "round": b"round=0"}[field]
    bad = _CANONICAL_ROUND.replace(canonical, f"{field}={token}".encode())
    with pytest.raises(LedgerParseError) as exc:
        deserialize(bad)
    assert exc.value.line == 2


_CANONICAL_SUM = _CANONICAL_ROUND + (
    b"sum round=0 group=g clip=0x1.8000000000000p+0 sigma_sum=0x1.0000000000000p+2\n"
)


@pytest.mark.parametrize(
    "field, line",
    [("q", 2), ("clip", 3), ("sigma_sum", 3)],
)
@pytest.mark.parametrize(
    "token",
    ["0x1p-1", "0X1P0", "1.0", "inf", "nan", "0x.8p0", "0x1.0000000000000p-1\t",
     "+0x1.0000000000000p-1", "0x1.0000000000000P-1", "0x1p99999"],
)  # fmt: skip
def test_noncanonical_floats_rejected(field, line, token):
    assert serialize(deserialize(_CANONICAL_SUM)) == _CANONICAL_SUM
    canonical = {
        "q": b"q=0x1.0000000000000p-1",
        "clip": b"clip=0x1.8000000000000p+0",
        "sigma_sum": b"sigma_sum=0x1.0000000000000p+2",
    }[field]
    bad = _CANONICAL_SUM.replace(canonical, f"{field}={token}".encode())
    with pytest.raises(LedgerParseError) as exc:
        deserialize(bad)
    assert exc.value.line == line


@pytest.mark.parametrize("line", [2, 3])
@pytest.mark.parametrize("ending", [b"\r\n", b"\x0c\n", b"\x1e\n"])
def test_noncanonical_line_endings_rejected(line, ending):
    lines = _CANONICAL_SUM.split(b"\n")
    lines[line - 1] += ending[:-1]
    bad = b"\n".join(lines)
    with pytest.raises(LedgerParseError) as exc:
        deserialize(bad)
    assert exc.value.line == line


def _three_rounds():
    led = Ledger()
    for q in (0.01, 0.02, 0.03):
        rid = led.record_sample(q=q, n=10_000, policy_tag="poisson_iid")
        for g in ("a", "b", "c"):
            led.record_sum_query(rid, clip_s=1.0, sigma_sum=100.0, group_name=g)
        led.close_round()
    return serialize(led)


def test_deleted_middle_round_is_refused():
    lines = _three_rounds().split(b"\n")
    # header, then 4 lines per round: round 1 is lines 6-9
    cut = b"\n".join(lines[:5] + lines[9:])
    with pytest.raises(LedgerParseError) as exc:
        deserialize(cut)
    assert exc.value.line == 6
    assert "strictly increasing" in str(exc.value)


def test_sum_for_another_round_is_refused():
    data = _three_rounds().replace(b"sum round=1 group=b", b"sum round=0 group=b")
    with pytest.raises(LedgerParseError) as exc:
        deserialize(data)
    assert exc.value.line == 8
    assert "not the open round 1" in str(exc.value)


def test_insecure_rounds_first_seen_order_without_repeats():
    led = Ledger()
    for sigmas in ((1.0,), (0.0, 0.0), (1.0, 0.0), (0.0,)):
        rid = led.record_sample(q=0.5, n=10, policy_tag="poisson_iid")
        for g, sigma in enumerate(sigmas):
            led.record_sum_query(rid, clip_s=1.0, sigma_sum=sigma, group_name=f"g{g}")
        led.close_round()
    assert led.insecure_rounds() == (1, 2, 3)


def test_insecure_rounds_include_the_open_round():
    led = _one_round()
    rid = led.record_sample(q=0.5, n=10, policy_tag="poisson_iid")
    led.record_sum_query(rid, clip_s=1.0, sigma_sum=1.0, group_name="g0")
    assert led.insecure_rounds() == ()
    led.record_sum_query(rid, clip_s=1.0, sigma_sum=0.0, group_name="g1")
    assert led.insecure_rounds() == (rid,)
    led.close_round()
    assert led.insecure_rounds() == (rid,)


def test_formal_refuses_sensitivity_out_of_range():
    # a nonzero sigma_sum so small that S* = clip / sigma_sum overflows
    led = _one_round(sigma=2.0**-1074)
    with pytest.raises(SensitivityRangeError) as exc:
        formal_ledger(led)
    assert "round 0" in str(exc.value)
    assert isinstance(exc.value, AccountingRefusal)


def test_sum_before_sample_rejected():
    bad = (
        b"dpledger ledger v1\n"
        b"sum round=0 group=g clip=0x1.0000000000000p+0 sigma_sum=0x1.0000000000000p+0\n"
    )
    with pytest.raises(LedgerParseError) as exc:
        deserialize(bad)
    assert "before any sample" in str(exc.value)
    assert exc.value.line == 2


def test_round_ids_must_increase():
    led = _one_round()
    data = serialize(led)
    dup = data + data[len(b"dpledger ledger v1\n") :]
    with pytest.raises(LedgerParseError) as exc:
        deserialize(dup)
    assert "strictly increasing" in str(exc.value)


def test_unknown_event_kind():
    bad = b"dpledger ledger v1\nnote round=0 hello=1 a=2 b=3\n"
    with pytest.raises(LedgerParseError):
        deserialize(bad)


def test_deserialized_ledger_is_appendable():
    led = deserialize(serialize(_one_round()))
    rid = led.record_sample(q=0.5, n=100, policy_tag="poisson_iid")
    assert rid == 1
    led.record_sum_query(rid, clip_s=1.0, sigma_sum=3.0, group_name="g")
    led.close_round()
    assert len(led.rounds()) == 2


def test_deserialize_preserves_insecure_flags():
    led = Ledger()
    rid = led.record_sample(q=0.5, n=10, policy_tag="poisson_iid")
    led.record_sum_query(rid, clip_s=1.0, sigma_sum=0.0, group_name="g")
    led.close_round()
    back = deserialize(serialize(led))
    assert back.insecure_rounds() == (0,)


def test_signed_zero_sigma_stays_distinct():
    # -0.0 == 0.0, so equal-value sharing must not merge the two spellings
    led = Ledger()
    for sigmas in ((0.0,), (-0.0,), (-0.0, 0.0), (0.0,)):
        rid = led.record_sample(q=0.5, n=10, policy_tag="poisson_iid")
        for sigma in sigmas:
            led.record_sum_query(rid, clip_s=1.0, sigma_sum=sigma, group_name="g")
        led.close_round()
    data = serialize(led)
    sigma_texts = [
        line.rsplit(b"=", 1)[1] for line in data.split(b"\n") if line.startswith(b"sum ")
    ]
    assert sigma_texts == [b"0x0.0p+0", b"-0x0.0p+0", b"-0x0.0p+0", b"0x0.0p+0", b"0x0.0p+0"]
    back = deserialize(data)
    assert serialize(back) == data
    assert led.insecure_rounds() == back.insecure_rounds() == (0, 1, 2, 3)
    signs = [
        [math.copysign(1.0, ev.sigma_sum) for ev in sums] for _, sums in back.rounds()
    ]
    assert signs == [[1.0], [-1.0], [-1.0, 1.0], [1.0]]


def test_out_of_range_round_named_when_its_queries_repeat():
    # S* is composed once per distinct tuple of queries; the refusal still
    # names the first round that carries it.
    led = Ledger()
    for sigma in (1.0, 2.0**-1074, 1.0, 2.0**-1074):
        rid = led.record_sample(q=0.5, n=10, policy_tag="poisson_iid")
        led.record_sum_query(rid, clip_s=1.0, sigma_sum=sigma, group_name="g")
        led.close_round()
    for ledger in (led, deserialize(serialize(led))):
        with pytest.raises(SensitivityRangeError) as exc:
            formal_ledger(ledger)
        assert str(exc.value).startswith("round 1:")


@pytest.fixture(scope="module")
def fixed_hyperparameter_bytes():
    """20k rounds of the same 12 queries, serialized."""
    led = Ledger()
    for _ in range(20_000):
        rid = led.record_sample(q=0.01, n=60_000, policy_tag="poisson_iid")
        for g in range(12):
            led.record_sum_query(
                rid, clip_s=0.5 + g / 16, sigma_sum=3.0 + g, group_name=f"layer{g}"
            )
        led.close_round()
    return serialize(led)


def test_fixed_hyperparameter_ledger_parses_into_shared_events(fixed_hyperparameter_bytes):
    # 20k rounds of the same 12 queries: the parsed ledger holds the 13
    # distinct events once, so it adds a few GC-tracked objects, where one
    # object per event would add 260,000.
    data = fixed_hyperparameter_bytes
    gc.collect()
    before = len(gc.get_objects())
    back = deserialize(data)
    gc.collect()
    assert len(gc.get_objects()) - before <= 40
    assert serialize(back) == data


def test_zero_noise_rounds_recorded_live_share_one_record():
    # 20k rounds of the same 3 zero-noise queries: the zero-noise queries
    # are not interned as events, but their equal rounds share one record,
    # so the ledger adds a few GC-tracked objects, not several per round.
    gc.collect()
    before = len(gc.get_objects())
    led = Ledger()
    for _ in range(20_000):
        rid = led.record_sample(q=0.01, n=60_000, policy_tag="poisson_iid")
        for g in range(3):
            led.record_sum_query(rid, clip_s=1.0, sigma_sum=0.0, group_name=f"g{g}")
        led.close_round()
    gc.collect()
    assert len(gc.get_objects()) - before <= 40
    assert led.insecure_rounds() == tuple(range(20_000))
    with pytest.raises(InsecureLedgerError, match="20000 zero-noise round"):
        formal_ledger(led)


def test_fixed_hyperparameter_ledger_is_accounted_per_distinct_round(
    fixed_hyperparameter_bytes, monkeypatch
):
    # The parse replays round 0 through the Ledger methods and reads the
    # other 19,999 rounds as whole copies of it; formal_ledger composes
    # the one distinct round once.
    calls = collections.Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(
        Ledger, "record_sum_query", counted("record_sum_query", Ledger.record_sum_query)
    )
    monkeypatch.setattr(
        ledger_module, "effective_z", counted("effective_z", ledger_module.effective_z)
    )
    rows = formal_ledger(deserialize(fixed_hyperparameter_bytes))
    assert calls["effective_z"] == 1
    assert calls["record_sum_query"] <= 12
    assert [(row.rounds, row.first_round) for row in rows] == [(20_000, 0)]


def test_formal_is_pure_over_serialization():
    led = Ledger()
    rid = led.record_sample(q=0.037, n=999, policy_tag="poisson_iid")
    led.record_sum_query(rid, clip_s=1.7, sigma_sum=41.3, group_name="a")
    led.record_sum_query(rid, clip_s=0.2, sigma_sum=5.55, group_name="b")
    led.close_round()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rows_a = formal_ledger(led)
        rows_b = formal_ledger(deserialize(serialize(led)))
    assert rows_a == rows_b
    assert [row.z.hex() for row in rows_a] == [row.z.hex() for row in rows_b]
