"""Property tests for ledger wire format v2, the round table (hypothesis).

serialize writes v2: each distinct round once, as a kind block with a
CRC-32, then one fixed-width round line per round with its own check
value, and a close line. Every v2 file must parse as the reference parser
in ledger_v2 (which shares no code with the reader) parses it: the same
rounds, or a refusal at the same line. Every single-byte substitution,
every proper byte prefix and anything appended after the close line must
be refused. A file read in blocks of any of _BLOCK_SIZES bytes must parse
as its bytes do; serialize(deserialize(b)) == b; and epsilon must have the
same bits from memory, from v2 bytes and from v1 bytes. The damage that
v1 accounts short (a cut at a round boundary, one changed byte in a
sigma_sum or q exponent) is refused in v2.
"""

import collections
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dpledger.ledger
from dpledger import (
    Ledger,
    LedgerParseError,
    account_ledger,
    deserialize,
    formal_ledger,
    serialize,
)
from ledger_v1 import serialize_v1
from ledger_v2 import (
    V2_HEADER,
    close_line,
    kind_block,
    reference_deserialize_v2,
    round_line,
)
from test_ledger_properties import (
    _BLOCK_SIZES,
    _FILLED_POOL_ROUNDS,
    _GRID,
    _PERIODIC_ROUNDS,
    _POOLED_ROUNDS,
    _ROUNDS,
    _RUN_ROUNDS,
    _build,
    _cyclic_ledger,
    _outcome,
    _parsed,
    _parsed_from_files,
    ledger_path,  # noqa: F401  (a fixture)
)

_ANY_ROUNDS = st.one_of(
    _ROUNDS, _POOLED_ROUNDS, _RUN_ROUNDS, _PERIODIC_ROUNDS, _FILLED_POOL_ROUNDS
)


def _result(parse, data):
    """The parsed ledger's bytes and rounds, or the line of the refusal."""
    try:
        led = parse(data)
    except LedgerParseError as exc:
        return "refused", exc.line
    return serialize(led), led.rounds()


def _agrees_with_the_reference(data: bytes):
    """deserialize's result, after checking that the reference parser
    gives the same one. A substitution that turns the header into v1's
    is read as v1, so only the refusal is compared then."""
    got = _result(deserialize, data)
    want = _result(reference_deserialize_v2, data)
    if data.startswith(b"dpledger ledger v1\n"):
        assert got[0] == want[0] == "refused"
    else:
        assert got == want
    return got


# 23 rounds that cycle through 3 kinds, one with a third query; and the
# three-round ledger of the ROADMAP's damage cases.
_PERIODIC = [(0.01, (3.0, 5.0)), (0.02, (3.0, 5.0)), (0.01, (3.0, 5.0, 7.0))]
_SMALL = _cyclic_ledger(23, _PERIODIC, serialize)
_THREE = [(q, (100.0,) * 3) for q in (0.01, 0.02, 0.03)]


@settings(max_examples=150, deadline=None)
@given(_ANY_ROUNDS)
def test_v2_round_trips_and_parses_as_the_reference_does(rounds):
    led = _build(rounds)
    data = serialize(led)
    back = deserialize(data)
    assert serialize(back) == data
    assert back.rounds() == led.rounds()
    assert back.caveats == ()
    assert _agrees_with_the_reference(data) == (data, led.rounds())


@settings(max_examples=150, deadline=None)
@given(_ANY_ROUNDS)
def test_epsilon_has_the_same_bits_from_memory_v2_and_v1(rounds):
    led = _build(rounds)
    v2, v1 = deserialize(serialize(led)), deserialize(serialize_v1(led))
    assert _outcome(led) == _outcome(v2) == _outcome(v1)
    # a v2 parse holds the same runs as a v1 parse of the same ledger
    assert [(rnd.sample, rnd.queries, n) for rnd, n in v2._runs] == [
        (rnd.sample, rnd.queries, n) for rnd, n in v1._runs
    ]


@settings(max_examples=300, deadline=None)
@given(_ANY_ROUNDS, st.data())
def test_every_single_byte_substitution_is_refused(rounds, data):
    whole = serialize(_build(rounds))
    pos = data.draw(st.integers(0, len(whole) - 1), label="position")
    byte = data.draw(st.integers(0, 255).filter(lambda b: b != whole[pos]), label="byte")
    spoiled = whole[:pos] + bytes([byte]) + whole[pos + 1 :]
    assert _agrees_with_the_reference(spoiled)[0] == "refused"


def test_five_substitutions_at_every_byte_are_refused():
    for pos, old in enumerate(_SMALL):
        for new in {old ^ 1, old ^ 0x20, (old + 7) % 256, ord("\n"), ord("0")} - {old}:
            spoiled = _SMALL[:pos] + bytes([new]) + _SMALL[pos + 1 :]
            assert _agrees_with_the_reference(spoiled)[0] == "refused", (pos, new)


def test_every_proper_prefix_is_refused():
    for end in range(len(_SMALL)):
        assert _agrees_with_the_reference(_SMALL[:end])[0] == "refused", end
    assert _agrees_with_the_reference(_SMALL)[0] == _SMALL


@settings(max_examples=100, deadline=None)
@given(_ANY_ROUNDS, st.data())
def test_byte_prefixes_are_refused(rounds, data):
    whole = serialize(_build(rounds))
    end = data.draw(st.integers(0, len(whole) - 1), label="prefix length")
    assert _agrees_with_the_reference(whole[:end])[0] == "refused"


@settings(max_examples=100, deadline=None)
@given(_ANY_ROUNDS, st.binary(min_size=1, max_size=60))
def test_anything_after_the_close_line_is_refused(rounds, tail):
    whole = serialize(_build(rounds))
    got = _agrees_with_the_reference(whole + tail)
    assert got == ("refused", whole.count(b"\n") + 1)


@settings(max_examples=100, deadline=None)
@given(
    _ANY_ROUNDS,
    st.sampled_from(["whole", "substituted", "prefix", "appended"]),
    st.sampled_from(_BLOCK_SIZES),
    st.data(),
)
def test_a_v2_file_parses_as_its_bytes_at_every_block_size(
    ledger_path, rounds, change, block, data  # noqa: F811
):
    whole = serialize(_build(rounds))
    if change == "substituted":
        pos = data.draw(st.integers(0, len(whole) - 1), label="position")
        whole = whole[:pos] + bytes([whole[pos] ^ 1]) + whole[pos + 1 :]
    elif change == "prefix":
        whole = whole[: data.draw(st.integers(0, len(whole)), label="prefix length")]
    elif change == "appended":
        whole += b"round 0000000000000000 0000000000000000 00000\n"
    assert _parsed_from_files(whole, block, ledger_path) == _parsed(deserialize, whole)


_STRUCTURE = {
    # What is done to the file's lines, given the indices of its round
    # lines, and the 0-based index of the first line that must be refused.
    # Rounds 3 and 4, of kinds 0 and 1, are the first adjacent round lines.
    "round line deleted": lambda lines, r: (lines[: r[3]] + lines[r[3] + 1 :], r[3]),
    "round line repeated": lambda lines, r: (lines[: r[3] + 1] + lines[r[3] :], r[3] + 1),
    "round lines swapped": lambda lines, r: (
        lines[: r[3]] + [lines[r[4]], lines[r[3]]] + lines[r[4] + 1 :], r[3]
    ),
    # caught by the close line's count
    "last round line deleted": lambda lines, r: (
        lines[: r[-1]] + lines[r[-1] + 1 :], r[-1]
    ),
}


@pytest.mark.parametrize("spoiler", sorted(_STRUCTURE))
def test_a_moved_round_line_is_refused_at_its_line(spoiler):
    lines = _SMALL.split(b"\n")
    rounds = [i for i, line in enumerate(lines) if line.startswith(b"round ")]
    assert rounds[4] == rounds[3] + 1
    spoiled, first = _STRUCTURE[spoiler](lines, rounds)
    assert _agrees_with_the_reference(b"\n".join(spoiled)) == ("refused", first + 1)


def test_a_kind_block_must_stand_at_its_first_use_and_be_new():
    led = _build([(0.5, 10, "poisson_iid", [("g", 1.0, 2.0)])] * 2)
    block = kind_block(0, ("poisson_iid", 0.5, 10), [("g", 1.0, 2.0)])
    table = block + round_line(0, 0) + round_line(1, 0)
    assert serialize(led) == V2_HEADER + table + close_line(2)
    cases = {
        # a block no round uses before the next block
        V2_HEADER + block + kind_block(1, ("poisson_iid", 0.25, 10), [("g", 1.0, 2.0)])
        + round_line(0, 0) + close_line(1): 5,
        # the same round defined again as kind 1
        V2_HEADER + block + round_line(0, 0) + kind_block(1, ("poisson_iid", 0.5, 10),
                                                          [("g", 1.0, 2.0)])
        + round_line(1, 1) + close_line(2): 8,
        # kind 1 defined before round 1, which is of kind 0; round 2 uses it
        V2_HEADER + block + round_line(0, 0) + kind_block(1, ("poisson_iid", 0.25, 10),
                                                          [("g", 1.0, 2.0)])
        + round_line(1, 0) + round_line(2, 1) + close_line(3): 9,
        # a round line before any kind
        V2_HEADER + round_line(0, 0) + close_line(1): 2,
        # an empty ledger's close line, where a kind block is still unused
        V2_HEADER + block + close_line(0): 5,
    }  # fmt: skip
    for data, line in cases.items():
        assert _agrees_with_the_reference(data) == ("refused", line)


def test_the_damage_v1_accounts_short_is_refused_in_v2():
    # The three cases of the ROADMAP's state block: each v1 file parses and
    # prints a smaller epsilon, with the v1 caveat; each v2 file is refused.
    full = 0.022638136816961186
    v1 = _cyclic_ledger(3, _THREE)
    v2 = _cyclic_ledger(3, _THREE, serialize)
    assert account_ledger(deserialize(v1), 1e-5).epsilon == full
    assert account_ledger(deserialize(v2), 1e-5).epsilon == full

    def cut_after_round_2s_first_sum(data):
        at = data.index(b"q=0x1.eb851eb851eb8p-6")  # round 2's sample line
        end = data.index(b"\n", data.index(b"\nsum ", at) + 1) + 1
        return data[:end]

    def sigma_exponent(data):  # round 0's last sigma_sum, p+6 to p+7
        last = data.index(b"\nsample", data.index(b"sample") + 1)
        at = data.rindex(b"p+6", 0, last)
        return data[:at] + b"p+7" + data[at + 3 :]

    def q_exponent(data):  # round 0's q, p-7 to p-8
        at = data.index(b"p-7")
        return data[:at] + b"p-8" + data[at + 3 :]

    for damage in (cut_after_round_2s_first_sum, sigma_exponent, q_exponent):
        short = deserialize(damage(v1))
        assert account_ledger(short, 1e-5).epsilon < full, damage.__name__
        assert short.caveats == (dpledger.ledger._V1_CAVEAT,)
        assert _agrees_with_the_reference(damage(v2))[0] == "refused", damage.__name__
    # the changed bytes are inside kind 0's block, so its CRC refuses it at
    # its end line (line 6); the cut file has no close line
    assert _result(deserialize, sigma_exponent(v2)) == ("refused", 6)
    assert _result(deserialize, q_exponent(v2)) == ("refused", 6)
    with pytest.raises(LedgerParseError, match="after 2 round.s. with no close line"):
        deserialize(cut_after_round_2s_first_sum(v2))


def test_each_kind_is_replayed_once(monkeypatch):
    # 20k rounds with a period of 5: the five kinds are replayed through
    # the Ledger methods once each, and the 20k round lines add runs.
    cycle = [(q, (2.0, 3.0, 4.0)) for q in (0.01, 0.02, 0.03, 0.04, 0.05)]
    data = _cyclic_ledger(20_000, cycle, serialize)
    calls = collections.Counter()
    for name in ("record_sample", "record_sum_query", "close_round"):
        method = getattr(Ledger, name)

        def counted(*args, _name=name, _method=method, **kwargs):
            calls[_name] += 1
            return _method(*args, **kwargs)

        monkeypatch.setattr(Ledger, name, counted)
    led = deserialize(data)
    assert calls == {"record_sample": 5, "record_sum_query": 15}
    assert [count for _, count in led._runs] == [1] * 20_000
    assert [row.rounds for row in formal_ledger(led)] == [4000] * 5


def test_accounting_a_v2_file_holds_a_block_not_the_file(tmp_path):
    path = tmp_path / "ledger.txt"
    peaks = {}
    for rounds in (40_000, 200_000):  # 2 blocks and 9 blocks
        path.write_bytes(_cyclic_ledger(rounds, [(0.01, (100.0,) * 3)], serialize))
        tracemalloc.start()
        try:
            with open(path, "rb") as fh:
                assert account_ledger(deserialize(fh), 1e-5, grid=_GRID).epsilon > 0
            peaks[rounds] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert path.stat().st_size > 9_000_000
    path.unlink()
    # one block and one pass of round lines, whatever the file's size
    assert max(peaks.values()) < dpledger.ledger._BLOCK_BYTES + 1_000_000, peaks
    assert peaks[200_000] - peaks[40_000] < 16 * 160_000, peaks
