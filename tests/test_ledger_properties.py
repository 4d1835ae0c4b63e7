"""Property tests for the ledger wire format (hypothesis).

Random ledgers must round-trip byte-exactly and account to the same bits
from memory and from file; a file with a whole round cut out of its middle
must be refused at the line where the round is missing. Ledgers drawn from
a small pool of events repeat their line texts, as a fixed-hyperparameter
run does, so the parser's check-once path is taken; a repeated line with
its round id or line ending spoiled must be refused at that line.
formal_ledger's count table must match a per-round reduction written out
here.
"""

import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpledger import (
    AccountingRefusal,
    Ledger,
    LedgerParseError,
    OrderGrid,
    SensitivityRangeError,
    account_ledger,
    deserialize,
    effective_z,
    formal_ledger,
    serialize,
)

_NAMES = st.text(alphabet="abcxyzABCXYZ0189_.+-/", min_size=1, max_size=8)
_POLICIES = st.sampled_from(["poisson_iid", "fixed_size_wor", "disjoint_partition"])
# finite floats, subnormals included; q in (0, 1], clip > 0, sigma_sum >= 0
_Q = st.floats(min_value=0.0, max_value=1.0, exclude_min=True)
_CLIP = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
_SIGMA = st.floats(min_value=0.0, allow_infinity=False)
_QUERIES = st.lists(st.tuples(_NAMES, _CLIP, _SIGMA), max_size=4)
_ROUNDS = st.lists(
    st.tuples(_Q, st.integers(1, 10**12), _POLICIES, _QUERIES), min_size=1, max_size=30
)
# At most 3 distinct sample facts and 4 distinct queries over at least 5
# rounds (each with a query), so some sample and some sum line texts repeat.
_POOLED_ROUNDS = st.tuples(
    st.lists(st.tuples(_Q, st.integers(1, 10**12), _POLICIES), min_size=1, max_size=3),
    st.lists(st.tuples(_NAMES, _CLIP, _SIGMA), min_size=1, max_size=4),
).flatmap(
    lambda pools: st.lists(
        st.tuples(
            st.sampled_from(pools[0]),
            st.lists(st.sampled_from(pools[1]), min_size=1, max_size=4),
        ),
        min_size=5,
        max_size=30,
    ).map(lambda rounds: [(*sample, queries) for sample, queries in rounds])
)
# Few distinct values, zero noise included, so that (policy, q, z) keys
# repeat and rounds whose queries differ can still share a z.
_SMALL_POOL_ROUNDS = st.lists(
    st.tuples(
        st.sampled_from([0.25, 0.5, 1.0]),
        st.sampled_from([10, 20]),
        _POLICIES,
        st.lists(
            st.tuples(
                st.sampled_from(["a", "b"]),
                st.sampled_from([0.5, 1.0, 2.0]),
                st.sampled_from([0.0, 1.0, 2.0, 4.0]),
            ),
            max_size=3,
        ),
    ),
    min_size=1,
    max_size=30,
)
# a short grid keeps each cold rdp_step cheap; the property is about inputs
_GRID = OrderGrid((2.0, 3.0, 8.0, 32.0))


def _build(rounds) -> Ledger:
    led = Ledger()
    for q, n, policy, queries in rounds:
        rid = led.record_sample(q=q, n=n, policy_tag=policy)
        for group, clip, sigma in queries:
            led.record_sum_query(rid, clip_s=clip, sigma_sum=sigma, group_name=group)
        led.close_round()
    return led


def _outcome(led: Ledger):
    """The guarantee's bits, or the typed refusal (most random clip/sigma
    pairs put S* out of float range; zero noise makes epsilon inf)."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            g = account_ledger(led, 1e-5, grid=_GRID, allow_insecure=True)
        except AccountingRefusal as exc:
            return type(exc).__name__, str(exc)
    return g.epsilon.hex(), g.achieving_order, g.caveats


@settings(max_examples=100, deadline=None)
@given(st.one_of(_ROUNDS, _POOLED_ROUNDS))
def test_random_ledgers_round_trip_and_account_identically(rounds):
    led = _build(rounds)
    data = serialize(led)
    back = deserialize(data)
    assert serialize(back) == data
    assert back.rounds() == led.rounds()
    assert back.insecure_rounds() == led.insecure_rounds()
    assert _outcome(back) == _outcome(led)


@settings(max_examples=100, deadline=None)
@given(_ROUNDS.filter(lambda r: len(r) >= 2), st.data())
def test_deleting_a_round_before_the_last_is_refused(rounds, data):
    lines = serialize(_build(rounds)).split(b"\n")
    # 0-based index of each round's sample line; the header is index 0
    starts = [i for i, ln in enumerate(lines) if ln.startswith(b"sample ")]
    k = data.draw(st.integers(0, len(rounds) - 2), label="deleted round")
    cut = b"\n".join(lines[: starts[k]] + lines[starts[k + 1] :])
    with pytest.raises(LedgerParseError) as exc:
        deserialize(cut)
    assert exc.value.line == starts[k] + 1
    assert "strictly increasing" in str(exc.value)


def _repeated_lines(lines):
    """0-based indices of event lines whose text after "round=K " already
    appeared on an earlier line of the same kind."""
    seen, repeated = set(), []
    for i, line in enumerate(lines[1:-1], start=1):
        kind, _, rest = line.split(b" ", 2)
        if (kind, rest) in seen:
            repeated.append(i)
        seen.add((kind, rest))
    return repeated


_SPOILERS = {
    "leading zero": lambda kind, rid, rest: kind + b" round=0%d " % rid + rest,
    "plus sign": lambda kind, rid, rest: kind + b" round=+%d " % rid + rest,
    "one more": lambda kind, rid, rest: kind + b" round=%d " % (rid + 1) + rest,
    "one less": lambda kind, rid, rest: kind + b" round=%d " % (rid - 1) + rest,
    "trailing CR": lambda kind, rid, rest: kind + b" round=%d " % rid + rest + b"\r",
    "trailing space": lambda kind, rid, rest: kind + b" round=%d " % rid + rest + b" ",
}


@settings(max_examples=100, deadline=None)
@given(_POOLED_ROUNDS, st.sampled_from(sorted(_SPOILERS)), st.data())
def test_spoiled_repeated_line_is_refused_at_that_line(rounds, spoiler, data):
    lines = serialize(_build(rounds)).split(b"\n")
    repeated = _repeated_lines(lines)
    i = data.draw(st.sampled_from(repeated), label="spoiled line")
    kind, rid_text, rest = lines[i].split(b" ", 2)
    rid = int(rid_text.removeprefix(b"round="))
    if spoiler == "one less" and rid == 0:
        spoiler = "one more"
    lines[i] = _SPOILERS[spoiler](kind, rid, rest)
    with pytest.raises(LedgerParseError) as exc:
        deserialize(b"\n".join(lines))
    assert exc.value.line == i + 1


def _per_round_keys(rounds):
    """(round id, (policy, q, z)) for each round with a query, one round at
    a time; z is None for a round with a zero-noise query. Raises
    SensitivityRangeError naming the first round whose S* is out of range."""
    keys = []
    for round_id, (q, _, policy, queries) in enumerate(rounds):
        if not queries:
            continue
        z = None
        if all(sigma != 0.0 for _, _, sigma in queries):
            try:
                z = effective_z([(clip, sigma) for _, clip, sigma in queries])
            except ValueError as exc:
                raise SensitivityRangeError(f"round {round_id}: {exc}") from None
        keys.append((round_id, (policy, q, z)))
    return keys


@settings(max_examples=200, deadline=None)
@given(st.one_of(_ROUNDS, _SMALL_POOL_ROUNDS))
def test_formal_ledger_is_the_per_round_count_table(rounds):
    led = _build(rounds)
    try:
        keys = _per_round_keys(rounds)
    except SensitivityRangeError as exc:
        with pytest.raises(SensitivityRangeError) as got, warnings.catch_warnings():
            warnings.simplefilter("ignore")
            formal_ledger(led, allow_insecure=True)
        assert str(got.value) == str(exc)
        return
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rows = formal_ledger(led, allow_insecure=True)
    assert [row[:3] for row in rows] == list(dict.fromkeys(k for _, k in keys))
    assert sum(row.rounds for row in rows) == len(keys)
    for row in rows:
        ids = [round_id for round_id, key in keys if key == row[:3]]
        assert (row.rounds, row.first_round) == (len(ids), min(ids))
