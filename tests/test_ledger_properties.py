"""Property tests for the ledger wire format (hypothesis).

Random ledgers must round-trip byte-exactly and account to the same bits
from memory and from file; a file with a whole round cut out of its middle
must be refused at the line where the round is missing. Ledgers drawn from
a small pool of events repeat their line texts, as a fixed-hyperparameter
run does; a repeated line with its round id or line ending spoiled must be
refused at that line. Runs of identical whole rounds take the parser's
whole-copy path, and cycles through a few distinct rounds, whose
serializations may share a head, move between it and line replay; in a
round that repeats an earlier one, a dropped, duplicated or swapped sum
line, or a changed hex digit, must parse exactly as a line-by-line
reference parser written out here does, and so must every line prefix and
sampled byte prefixes of a fixed-hyperparameter and a periodic ledger. A
refusal early in a long ledger stops at its line. formal_ledger's count
table must match a per-round reduction written out here.
"""

import re
import tracemalloc
import warnings

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dpledger import (
    AccountingRefusal,
    InsecureLedgerError,
    Ledger,
    LedgerParseError,
    LedgerUsageError,
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


@st.composite
def _run_rounds(draw):
    """Runs of identical whole rounds (1 to 50 each), as a fixed-
    hyperparameter run writes them. Before or after some runs stands a
    round with one query more or one fewer than the run's rounds, whose
    serialization shares a head with theirs."""
    samples = draw(
        st.lists(st.tuples(_Q, st.integers(1, 10**12), _POLICIES), min_size=1, max_size=2)
    )
    pool = draw(st.lists(st.tuples(_NAMES, _CLIP, _SIGMA), min_size=1, max_size=3))
    rounds = []
    for _ in range(draw(st.integers(1, 4))):
        sample = draw(st.sampled_from(samples))
        queries = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=3))
        run = [(*sample, queries)] * draw(st.integers(1, 50))
        odd = draw(st.sampled_from(["more", "fewer", None]))
        if odd is not None:
            more = queries + [draw(st.sampled_from(pool))]
            other = queries[:-1] if odd == "fewer" else more
            run.insert(draw(st.sampled_from([0, len(run)])), (*sample, other))
        rounds += run
    return rounds


# At most 2 distinct sample facts over at least 3 rounds, so some sample
# line text repeats.
_RUN_ROUNDS = _run_rounds().filter(lambda rounds: len(rounds) >= 3)


@st.composite
def _periodic_rounds(draw):
    """2 to 4 distinct rounds written in turn, as a run writes them when
    (q, sigma) follows a cycle. Some rounds have one query more than the
    round before them in the cycle, so that their serializations share a
    head. The cycle's first round is written at least twice."""
    samples = draw(
        st.lists(st.tuples(_Q, st.integers(1, 10**12), _POLICIES), min_size=1, max_size=2)
    )
    pool = draw(st.lists(st.tuples(_NAMES, _CLIP, _SIGMA), min_size=1, max_size=3))
    cycle = []
    for _ in range(draw(st.integers(2, 4))):
        if cycle and draw(st.booleans()):
            *sample, queries = cycle[-1]
            rnd = (*sample, queries + [draw(st.sampled_from(pool))])
        else:
            queries = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=3))
            rnd = (*draw(st.sampled_from(samples)), queries)
        if rnd not in cycle:
            cycle.append(rnd)
    assume(len(cycle) >= 2)
    length = draw(st.integers(len(cycle) + 1, 40))
    return [cycle[k % len(cycle)] for k in range(length)]


_PERIODIC_ROUNDS = _periodic_rounds()


def _small_pool_rounds(sigmas, min_queries=0):
    """Ledgers of few distinct values, their noise drawn from sigmas, with
    at least min_queries queries in each round."""
    return st.lists(
        st.tuples(
            st.sampled_from([0.25, 0.5, 1.0]),
            st.sampled_from([10, 20]),
            _POLICIES,
            st.lists(
                st.tuples(
                    st.sampled_from(["a", "b"]),
                    st.sampled_from([0.5, 1.0, 2.0]),
                    st.sampled_from(sigmas),
                ),
                min_size=min_queries,
                max_size=3,
            ),
        ),
        min_size=1,
        max_size=30,
    )


# Few distinct values, so that (policy, q, z) keys repeat and rounds whose
# queries differ can still share a z. With zero noise in the pool nearly
# every ledger is refused as insecure; without it, most ledgers still hold
# an empty round and are refused for it.
_SMALL_POOL_ROUNDS = st.one_of(
    _small_pool_rounds([0.0, 1.0, 2.0, 4.0]), _small_pool_rounds([1.0, 2.0, 4.0])
)
# Every round holds a query and none is noiseless, so a count table is built.
_FILLED_POOL_ROUNDS = _small_pool_rounds([1.0, 2.0, 4.0], min_queries=1)
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
    pairs put S* out of float range; zero noise, empty rounds and policies
    other than Poisson are refused)."""
    try:
        g = account_ledger(led, 1e-5, grid=_GRID)
    except AccountingRefusal as exc:
        return type(exc).__name__, str(exc)
    return g.epsilon.hex(), g.achieving_order, g.caveats


@settings(max_examples=100, deadline=None)
@given(st.one_of(_ROUNDS, _POOLED_ROUNDS, _RUN_ROUNDS, _PERIODIC_ROUNDS))
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
    "no id": lambda kind, rid, rest: kind + b" round= " + rest,
    "one more": lambda kind, rid, rest: kind + b" round=%d " % (rid + 1) + rest,
    "one less": lambda kind, rid, rest: kind + b" round=%d " % (rid - 1) + rest,
    "trailing CR": lambda kind, rid, rest: kind + b" round=%d " % rid + rest + b"\r",
    "trailing space": lambda kind, rid, rest: kind + b" round=%d " % rid + rest + b" ",
}


@settings(max_examples=100, deadline=None)
@given(
    st.one_of(_POOLED_ROUNDS, _RUN_ROUNDS, _PERIODIC_ROUNDS),
    st.sampled_from(sorted(_SPOILERS)),
    st.data(),
)
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


_EVENT = re.compile(
    r"sample round=(0|[1-9][0-9]*) policy=(\S+) q=(\S+) n=(0|[1-9][0-9]*)"
    r"|sum round=(0|[1-9][0-9]*) group=(\S+) clip=(\S+) sigma_sum=(\S+)"
)


def _hex_float(text: str, field: str) -> float:
    try:
        value = float.fromhex(text)
    except (ValueError, OverflowError):
        value = None
    if value is None or value.hex() != text:
        raise ValueError(f"field {field}={text!r} is not a canonical hex float")
    return value


def _reference_deserialize(data: bytes) -> Ledger:
    """deserialize one line at a time: every line is matched, its floats
    read and its event replayed through record_sample/record_sum_query,
    with nothing kept from one line to the next."""
    if not data.startswith(b"dpledger ledger v1\n"):
        raise LedgerParseError("missing or unrecognized header", line=1)
    if not data.endswith(b"\n"):
        raise LedgerParseError(
            "input does not end with a newline; file is truncated",
            line=data.count(b"\n") + 1,
        )
    try:
        text = data.decode("ascii")
    except UnicodeDecodeError as exc:
        raise LedgerParseError(f"not ascii: {exc}") from None
    led = Ledger()
    for line_no, line in enumerate(text.split("\n")[1:-1], start=2):
        try:
            match = _EVENT.fullmatch(line)
            if match is None:
                raise ValueError(f"not a sample or sum event line: {line!r}")
            round_id, policy, q, n, sum_round, group, clip, sigma = match.groups()
            if round_id is None:
                led.record_sum_query(
                    int(sum_round),
                    clip_s=_hex_float(clip, "clip"),
                    sigma_sum=_hex_float(sigma, "sigma_sum"),
                    group_name=group,
                )
                continue
            if led.open_round is not None:
                led.close_round()
            q = _hex_float(q, "q")
            expected = led.record_sample(q=q, n=int(n), policy_tag=policy)
            if int(round_id) != expected:
                raise ValueError(
                    f"round ids must be strictly increasing from 0 with no "
                    f"gaps; round {round_id} where {expected} is next"
                )
        except (ValueError, LedgerUsageError) as exc:
            raise LedgerParseError(str(exc), line=line_no) from None
    if led.open_round is not None:
        led.close_round()
    return led


def _parsed(parse, data: bytes):
    """What parse makes of data: its refusal (type, message, line), or the
    parsed ledger's bytes, rounds, insecure rounds and count table (or its
    refusal)."""
    try:
        led = parse(data)
    except LedgerParseError as exc:
        return type(exc), str(exc), exc.line
    try:
        table = formal_ledger(led)
    except AccountingRefusal as exc:
        table = type(exc), str(exc)
    return serialize(led), led.rounds(), led.insecure_rounds(), table


def _spoil_run(lines, spoiler, i, data):
    """lines with sum line i spoiled; the index of the first changed line."""
    lines = list(lines)
    if spoiler == "drop":
        del lines[i]
    elif spoiler == "duplicate":
        lines.insert(i, lines[i])
        i += 1
    elif spoiler == "swap":  # with the next sum line, else the one before
        sums = [k for k, line in enumerate(lines) if line.startswith(b"sum ")]
        later = [k for k in sums if k > i]
        k = later[0] if later else max(k for k in sums if k < i)
        lines[i], lines[k] = lines[k], lines[i]
        i = min(i, k)
    else:  # one hex digit of a mantissa, to another
        digits = [
            pos
            for match in re.finditer(rb"0x([0-9a-f.]+)p", lines[i])
            for pos in range(match.start(1), match.end(1))
            if lines[i][pos] != ord(".")
        ]
        pos = data.draw(st.sampled_from(digits), label="digit")
        old = lines[i][pos]
        new = data.draw(st.sampled_from([d for d in b"0123456789abcdef" if d != old]))
        lines[i] = lines[i][:pos] + bytes([new]) + lines[i][pos + 1 :]
    return lines, i


@settings(max_examples=150, deadline=None)
@given(
    st.one_of(_RUN_ROUNDS, _PERIODIC_ROUNDS),
    st.sampled_from(["drop", "duplicate", "swap", "hex"]),
    st.data(),
)
def test_spoiled_run_parses_as_the_reference_does(rounds, spoiler, data):
    # A dropped, duplicated or in-round swapped sum line, or a new mantissa
    # digit, can leave a well-formed ledger: v1 does not record how many
    # queries a round has. So the round must be read as written, never as
    # a copy of an earlier round, and any refusal must name the spoiled line.
    lines = serialize(_build(rounds)).split(b"\n")
    starts = [k for k, line in enumerate(lines) if line.startswith(b"sample ")]
    starts.append(len(lines) - 1)  # where a round after the last would start
    copies = [
        k
        for j in range(1, len(rounds))
        if rounds[j] in rounds[:j]
        for k in range(starts[j] + 1, starts[j + 1])
    ]
    assume(copies)
    i = data.draw(st.sampled_from(copies), label="spoiled line")
    spoiled, first = _spoil_run(lines, spoiler, i, data)
    spoiled = b"\n".join(spoiled)
    got = _parsed(deserialize, spoiled)
    assert got == _parsed(_reference_deserialize, spoiled)
    if got[0] is LedgerParseError:
        assert got[2] == first + 1


def _cyclic_ledger(rounds: int, cycle) -> bytes:
    """rounds rounds that take their (q, sigma_sum per group) from cycle
    in turn, at clip 1."""
    led = Ledger()
    for k in range(rounds):
        q, sigmas = cycle[k % len(cycle)]
        rid = led.record_sample(q=q, n=60_000, policy_tag="poisson_iid")
        for g, sigma in enumerate(sigmas):
            led.record_sum_query(rid, clip_s=1.0, sigma_sum=sigma, group_name=f"g{g}")
        led.close_round()
    return serialize(led)


# 200 rounds of 2 groups, the second file with a zero-noise query; and 200
# rounds cycling through 3, one of them with a third query.
_FIXED = {
    "secure": _cyclic_ledger(200, [(0.01, (3.0, 5.0))]),
    "insecure": _cyclic_ledger(200, [(0.01, (3.0, 0.0))]),
    "periodic": _cyclic_ledger(
        200, [(0.01, (3.0, 5.0)), (0.02, (3.0, 5.0)), (0.01, (3.0, 5.0, 7.0))]
    ),
}


@pytest.mark.parametrize("name", sorted(_FIXED))
def test_every_line_prefix_parses_as_the_reference_does(name):
    # Today a prefix cut at a line boundary parses as the rounds it holds,
    # its last round possibly short; this pins that the fast paths agree.
    data = _FIXED[name]
    ends = [k + 1 for k, byte in enumerate(data) if byte == ord("\n")]
    for prefix in (data[:end] for end in [0, *ends]):
        assert _parsed(deserialize, prefix) == _parsed(_reference_deserialize, prefix)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(sorted(_FIXED)), st.data())
def test_byte_prefixes_parse_as_the_reference_does(name, data):
    whole = _FIXED[name]
    prefix = whole[: data.draw(st.integers(0, len(whole)), label="prefix length")]
    assert _parsed(deserialize, prefix) == _parsed(_reference_deserialize, prefix)


def test_refusal_early_in_a_long_ledger_stops_at_its_line():
    # Round 1's sample line (line 6) is cut out of a 20k-round ledger, so
    # its first sum line is refused there. The parse must not decode, copy
    # or split the rest of the input on its way to that refusal.
    lines = _cyclic_ledger(20_000, [(0.01, (100.0,) * 3), (0.02, (101.0,) * 3)])
    lines = lines.split(b"\n")
    assert lines.pop(5).startswith(b"sample round=1 ")
    data = b"\n".join(lines)
    tracemalloc.start()
    try:
        with pytest.raises(LedgerParseError) as info:
            deserialize(data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert info.value.line == 6
    assert peak < len(data) // 100


def _per_round_keys(rounds):
    """(round id, (policy, q, z)) for each round, one round at a time.
    Raises InsecureLedgerError, naming the count and the first ids, if any
    round has a zero-noise query; else SensitivityRangeError naming the
    first round with no query or whose S* is out of range."""
    insecure = [
        round_id
        for round_id, (*_, queries) in enumerate(rounds)
        if any(sigma == 0.0 for _, _, sigma in queries)
    ]
    if insecure:
        ids = ", ".join(map(str, insecure[:5])) + (", ..." if len(insecure) > 5 else "")
        raise InsecureLedgerError(
            f"ledger contains {len(insecure)} zero-noise round(s) (ids {ids}); "
            f"these provide no privacy"
        )
    keys = []
    for round_id, (q, _, policy, queries) in enumerate(rounds):
        try:
            z = effective_z([(clip, sigma) for _, clip, sigma in queries])
        except ValueError as exc:
            raise SensitivityRangeError(f"round {round_id}: {exc}") from None
        keys.append((round_id, (policy, q, z)))
    return keys


@settings(max_examples=200, deadline=None)
@given(st.one_of(_ROUNDS, _SMALL_POOL_ROUNDS, _FILLED_POOL_ROUNDS))
def test_formal_ledger_is_the_per_round_count_table(rounds):
    led = _build(rounds)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a refusal or a table, never a warning
        try:
            keys = _per_round_keys(rounds)
        except AccountingRefusal as exc:
            with pytest.raises(type(exc)) as got:
                formal_ledger(led)
            assert str(got.value) == str(exc)
            return
        rows = formal_ledger(led)
    assert [row[:3] for row in rows] == list(dict.fromkeys(k for _, k in keys))
    assert sum(row.rounds for row in rows) == len(keys)
    for row in rows:
        ids = [round_id for round_id, key in keys if key == row[:3]]
        assert (row.rounds, row.first_round) == (len(ids), min(ids))
