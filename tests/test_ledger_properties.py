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
refusal early in a long ledger stops at its line. Read as a file, through
an io.BytesIO and from disk, in blocks of 1 to 4096 bytes or the default,
each of these inputs must parse exactly as its bytes do, refusals and
which fault they name first included, and accounting a file must hold a
block, not the file. formal_ledger's count table must match a per-round
reduction written out here.
"""

import io
import re
import tracemalloc
import warnings

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import dpledger.ledger
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


def _parsed(parse, data):
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


# Sizes a file is read in: one byte, a few, part of a line, lines, and
# the default (None).
_BLOCK_SIZES = (1, 2, 3, 7, 64, 4096, None)


@pytest.fixture(scope="module")
def ledger_path(tmp_path_factory):
    return tmp_path_factory.mktemp("ledger") / "ledger.txt"


def _parsed_from_files(data: bytes, block, path):
    """_parsed of data read as a file in blocks of block bytes, through
    an io.BytesIO and from path; both must agree."""
    with pytest.MonkeyPatch.context() as patch:
        if block is not None:
            patch.setattr(dpledger.ledger, "_BLOCK_BYTES", block)
        from_memory = _parsed(deserialize, io.BytesIO(data))
        path.write_bytes(data)
        with open(path, "rb") as fh:
            assert _parsed(deserialize, fh) == from_memory
    return from_memory


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
def test_spoiled_run_parses_as_the_reference_does(ledger_path, rounds, spoiler, data):
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
    block = data.draw(st.sampled_from(_BLOCK_SIZES), label="block")
    assert _parsed_from_files(spoiled, block, ledger_path) == got


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
def test_byte_prefixes_parse_as_the_reference_does(ledger_path, name, data):
    whole = _FIXED[name]
    prefix = whole[: data.draw(st.integers(0, len(whole)), label="prefix length")]
    got = _parsed(deserialize, prefix)
    assert got == _parsed(_reference_deserialize, prefix)
    block = data.draw(st.sampled_from(_BLOCK_SIZES), label="block")
    assert _parsed_from_files(prefix, block, ledger_path) == got


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


@settings(max_examples=100, deadline=None)
@given(
    st.one_of(
        _ROUNDS,
        _POOLED_ROUNDS,
        _RUN_ROUNDS,
        _PERIODIC_ROUNDS,
        _SMALL_POOL_ROUNDS,
        _FILLED_POOL_ROUNDS,
    ),
    st.sampled_from(_BLOCK_SIZES),
)
def test_a_ledger_read_from_a_file_parses_as_its_bytes(ledger_path, rounds, block):
    data = serialize(_build(rounds))
    assert _parsed_from_files(data, block, ledger_path) == _parsed(deserialize, data)


@pytest.mark.parametrize("name", sorted(_FIXED))
def test_line_prefixes_read_from_a_file_parse_as_their_bytes(ledger_path, name):
    # The first 40 line prefixes, then every 23rd and the last 3 in blocks
    # of 64 bytes or more: each prefix at each block size would take
    # minutes, as a parse costs a few microseconds per block.
    data = _FIXED[name]
    ends = [0, *(k + 1 for k, byte in enumerate(data) if byte == ord("\n"))]
    for i, end in enumerate(ends[:40] + ends[40::23] + ends[-3:]):
        want = _parsed(deserialize, data[:end])
        for block in _BLOCK_SIZES:
            if block is not None and block < 64 and 40 <= i and end < len(data):
                continue
            assert _parsed_from_files(data[:end], block, ledger_path) == want, (end, block)


def _spoil_line_6(data: bytes) -> bytes:
    lines = data.split(b"\n")
    lines[5] = b"sum round=1 not an event"
    return b"\n".join(lines)


@pytest.mark.parametrize("block", _BLOCK_SIZES)
def test_a_file_is_refused_as_its_bytes_are_whatever_the_blocks(ledger_path, block):
    # Which refusal wins does not depend on where the blocks fall: the
    # header, then a missing final newline, then the first non-ascii byte,
    # then the first bad line, even when the bad line is read blocks
    # before what outranks it.
    bad = _spoil_line_6(_FIXED["secure"])
    far = len(bad) - 30
    cases = {
        "bad line": (bad, 6, "not a sample or sum event line"),
        "non-ascii after it": (
            bad[:far] + b"\xe9" + bad[far + 1 :],
            None,
            f"byte 0xe9 in position {far}:",
        ),
        "no final newline after it": (
            bad[:-1],
            bad.count(b"\n"),
            "does not end with a newline",
        ),
        "both after it": (
            bad[:far] + b"\xe9" + bad[far + 1 : -1],
            bad.count(b"\n"),
            "does not end with a newline",
        ),
        "no header": (b"dpledger ledger v2\n" + bad[19:-1], 1, "header"),
    }
    for name, (data, line, words) in cases.items():
        got = _parsed(deserialize, data)
        assert got[0] is LedgerParseError and got[2] == line, name
        assert words in got[1], (name, got)
        assert _parsed_from_files(data, block, ledger_path) == got, name


def test_copies_that_straddle_a_block_edge_parse_as_their_bytes(ledger_path):
    # Block edges one byte before, at and one byte after the end of a
    # round in a run of equal rounds, the end of the file among them; and
    # around the end of the head of a round with one query more, which is
    # a whole copy of the round before it up to the edge.
    data = _FIXED["secure"]
    starts = [k + 1 for k, byte in enumerate(data) if data.startswith(b"sample", k + 1)]
    edges = [(data, end) for end in (starts[2], starts[3], starts[57], len(data))]
    queries = [("g0", 1.0, 3.0), ("g1", 1.0, 5.0)]
    run = [(0.01, 60_000, "poisson_iid", queries)] * 10
    more = [(0.01, 60_000, "poisson_iid", [*queries, ("g2", 1.0, 7.0)])]
    longer = serialize(_build(run + more + run))
    edges.append((longer, longer.index(b"sum round=10 group=g2 ")))
    for data, end in edges:
        want = _parsed(deserialize, data)
        for block in (end - 1, end, end + 1):
            assert _parsed_from_files(data, block, ledger_path) == want, block


def _write_copies(path, rounds: int) -> int:
    """Write, 10k rounds at a time, what serialize writes for rounds
    equal rounds of three groups; returns the file's size."""
    led = Ledger()
    rid = led.record_sample(q=0.01, n=60_000, policy_tag="poisson_iid")
    for g in range(3):
        led.record_sum_query(rid, clip_s=1.0, sigma_sum=100.0, group_name=f"g{g}")
    led.close_round()
    header, text = serialize(led).split(b"\n", 1)
    text = text.replace(b" round=0 ", b" round=%d ")
    with open(path, "wb") as fh:
        fh.write(header + b"\n")
        for start in range(0, rounds, 10_000):
            ids = range(start, min(start + 10_000, rounds))
            fh.write(b"".join(text % ((k,) * 4) for k in ids))
        return fh.tell()


def test_accounting_a_file_holds_a_block_not_the_file(tmp_path):
    path = tmp_path / "ledger.txt"
    _write_copies(path, 3)
    assert path.read_bytes() == _cyclic_ledger(3, [(0.01, (100.0,) * 3)])

    def peak():
        tracemalloc.start()
        try:
            with open(path, "rb") as fh:
                assert account_ledger(deserialize(fh), 1e-5, grid=_GRID).epsilon > 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peaks = {}
    for rounds in (20_000, 200_000):
        size = _write_copies(path, rounds)
        peaks[rounds] = peak()
    assert size > 60_000_000
    # 20k rounds that alternate between two, read by line replay
    path.write_bytes(_cyclic_ledger(20_000, [(0.01, (100.0,) * 3), (0.02, (101.0,) * 3)]))
    peaks["alternating"] = peak()
    path.unlink()
    # One block and a few batches of copies, plus the ledger, which holds
    # a run of copies as one count.
    bound = 3 * dpledger.ledger._BLOCK_BYTES + 1_000_000
    assert max(peaks.values()) < bound, peaks
    per_round = (peaks[200_000] - peaks[20_000]) / 180_000
    assert per_round < 16, peaks  # the file grows by 317 bytes a round


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


def test_a_parsed_run_of_copies_is_one_count(tmp_path):
    # A file of 200k equal rounds parses into one run: the ledger it
    # returns holds what a 3-round file's holds, not a slot per round.
    path = tmp_path / "ledger.txt"
    held = {}
    for rounds in (3, 200_000):
        _write_copies(path, rounds)
        tracemalloc.start()
        try:
            with open(path, "rb") as fh:
                led = deserialize(fh)
            held[rounds] = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert [count for _, count in led._runs] == [rounds]
        assert formal_ledger(led)[0].rounds == rounds
    path.unlink()
    assert held[200_000] - held[3] < 4096, held
