"""Property tests for the ledger wire format (hypothesis).

Random ledgers must round-trip byte-exactly and account to the same bits
from memory and from file; a file with a whole round cut out of its middle
must be refused at the line where the round is missing. Ledgers drawn from
a small pool of events repeat their line texts, as a fixed-hyperparameter
run does, so the parser's check-once path is taken; a repeated line with
its round id or line ending spoiled must be refused at that line.
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
    account_ledger,
    deserialize,
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
