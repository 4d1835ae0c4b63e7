"""Append-only record of what was sampled and what was asked, per round.

The ledger is the trust boundary between training and accounting: training
appends one sample event per round (policy, q, n) and one sum-query event
per group query (clip_s, sigma_sum), and the accountant later recomputes
the guarantee from those events alone. Events are never mutated or
removed; round ids run 0, 1, 2, ... with no gaps.

With accountant, this is the trusted core; it imports only errors. It
holds what an event is checked or read against: the name, (q, n, round)
and (clip, sigma) checks, the policy tags, and effective_z, the one S*.
formal_ledger is the one reduction the accountant reads: a count table
with one row per distinct (policy, q, z) of the rounds, giving how many
rounds it covers and the id of the first. A round it cannot give a finite
positive z (zero noise, no sum queries, S* out of float range) is refused
by a typed AccountingRefusal, never dropped.

Storage is interned and run-length. A Ledger keeps its closed rounds as
runs: one entry per run of consecutive equal rounds, holding the round
record and how many rounds the run covers. A round record is the round's
sample, the tuple of its queries and its wire form split at the round
id. Each distinct checked (policy, q, n) and (group, clip, sigma_sum) is
one shared object, carrying its serialized text, and rounds equal in
value share one record, so a run with fixed hyperparameters holds G + 1
event objects, one round record and one run entry however many rounds it
records. The SampleEvent and SumQueryEvent views, round ids included,
are built only when rounds() is called. formal_ledger, serialize and
insecure_rounds walk the runs, so their work follows the runs, not the
rounds.

The wire format is line-delimited text with a version header. Floats are
written with float.hex() so parsing returns the exact bits that were
recorded: a guarantee recomputed from a file must equal the one computed
in memory, not approximate it. The parser reads back only the spellings
serialize writes, so serialize(deserialize(b)) == b or the parse fails.
A round enters a parsed ledger in one of two ways. Where the input holds,
byte for byte, what serialize writes for the round just closed at the
next ids, those rounds are whole copies of it. Anything else is replayed
line by line through the Ledger methods, each line checked in full
(pattern, canonical floats, event checks), so a file obeys the same
round bracketing as a live run, and errors and their line numbers do not
depend on what came before. Appending events to a ledger appends lines to
its serialization, so the old file is always a byte prefix of the new.

deserialize takes bytes or a binary file. A file is read in blocks of
_BLOCK_BYTES (1 MiB) into one reused buffer, by the same parse that takes
bytes as a single block; only what a block ends in, a partial line or a
copy that the next block must confirm, is carried into the next. So
reading a file holds one block, its largest round and the parsed ledger,
whose memory follows its runs and distinct rounds, not the round count
or the file's size. The read stops at the first fault in file order, so
a bad line is refused without reading the blocks after its own.
"""

from __future__ import annotations

import enum
import io
import math
import numbers
import re
from dataclasses import dataclass
from typing import NamedTuple

from .errors import (
    InfiniteSensitivityError,
    InsecureLedgerError,
    LedgerParseError,
    LedgerUsageError,
    SensitivityRangeError,
)

_NAME = re.compile(r"[A-Za-z0-9_.+/-]+")


def _check_name(name: str, what: str) -> None:
    if not (isinstance(name, str) and _NAME.fullmatch(name)):
        raise ValueError(
            f"{what} {name!r} must be nonempty and use only [A-Za-z0-9_.+-/]"
        )


def _check_round(q: float, n: int, round_id: int = 0) -> int:
    """The sampling facts every round carries: rate q in (0, 1], population
    n an integer (not a bool) at least 1, round id nonnegative. Returns n
    as an int."""
    if not (0.0 < q <= 1.0):
        raise ValueError(f"q must be in (0, 1], got {q}")
    if isinstance(n, bool) or not isinstance(n, numbers.Integral):
        raise ValueError(f"n must be an integer, got {n!r}")
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    if round_id < 0:
        raise ValueError(f"round_id must be nonnegative, got {round_id}")
    return int(n)


class SamplingPolicy(enum.Enum):
    """Selection policy tags; the string values are what the ledger stores."""

    POISSON_IID = "poisson_iid"
    FIXED_SIZE_WOR = "fixed_size_wor"
    DISJOINT_PARTITION = "disjoint_partition"


@dataclass(frozen=True)
class PrivacyTuple:
    """Sensitivity bound and sum-level noise std of one Gaussian sum query.

    check is the one definition of a valid (clip bound, noise std) pair:
    the ledger's sum-query events are privacy tuples, and GroupSpec applies
    it to the (clip_s, sigma_sum) its queries record.
    """

    clip_s: float
    sigma_sum: float

    def __post_init__(self):
        self.check(self.clip_s, self.sigma_sum)

    @staticmethod
    def check(clip_s: float, sigma: float) -> None:
        if not (math.isfinite(clip_s) and clip_s > 0):
            raise ValueError(f"clip_s must be positive and finite, got {clip_s}")
        if not (math.isfinite(sigma) and sigma >= 0):
            raise ValueError(f"noise std must be nonnegative and finite, got {sigma}")


def effective_z(tuples) -> float:
    """The noise multiplier z = 1/S* of one round's sum-level (clip_s,
    sigma_sum) tuples: the one definition of S*.

    S* = sqrt(sum_g (clip_s_g / sigma_sum_g)^2) is the sensitivity of the
    single query, at noise std 1, that the round's queries compose to. Each
    tuple is a PrivacyTuple, used as already checked, or a plain (clip_s,
    sigma_sum) pair, checked here. A zero sigma_sum would make S* infinite
    and raises InfiniteSensitivityError; an S* that is not a positive
    finite float (no tuples at all, or a sum that overflowed to inf or
    underflowed to 0) raises ValueError rather than being represented.
    """
    tuples = list(tuples)
    if not tuples:
        raise ValueError("no sum queries recorded (S* = 0)")
    acc = 0.0
    for t in tuples:
        if not isinstance(t, PrivacyTuple):
            t = PrivacyTuple(*t)
        if t.sigma_sum == 0.0:
            raise InfiniteSensitivityError(
                "a zero-noise query has unbounded equivalent sensitivity"
            )
        try:
            acc += (t.clip_s / t.sigma_sum) ** 2
        except OverflowError:  # float ** raises where * would give inf
            acc = math.inf
    s_star = math.sqrt(acc)
    if not (math.isfinite(s_star) and s_star > 0):
        raise ValueError(f"equivalent sensitivity S* = {s_star!r} is out of range")
    return 1.0 / s_star


_HEADER = b"dpledger ledger v1\n"

# One event per line. Integers are canonical (0 or no leading zero, sign or
# underscore); names and floats are single tokens that the event checks and
# _parse_float hold to the spelling serialize writes.
_INT = r"(0|[1-9][0-9]*)"
_EVENT_LINE = re.compile(
    rf"sample round={_INT} policy=(\S+) q=(\S+) n={_INT}"
    rf"|sum round={_INT} group=(\S+) clip=(\S+) sigma_sum=(\S+)"
)


class SampleEvent(NamedTuple):
    """One round's selection facts: policy tag, rate q, population n."""

    round_id: int
    q: float
    n: int
    policy_tag: str


class SumQueryEvent(NamedTuple):
    """One Gaussian sum query of a round: a group's clip bound and
    sum-level noise std.

    sigma_sum = 0 is recordable (insecure test runs still get logged) but
    poisons the round; the accountant refuses such ledgers.
    """

    clip_s: float
    sigma_sum: float
    round_id: int
    group_name: str


class FormalRow(NamedTuple):
    """Every round at one (policy, q, z): how many there are and the id
    of the first. z = 1/S* is a positive finite float, since formal_ledger
    refuses zero-noise rounds, empty rounds and an S* out of range."""

    policy_tag: str
    q: float
    z: float
    rounds: int
    first_round: int


class _Sample(NamedTuple):
    """A checked (policy, q, n), one object shared by every round that
    records it; text is its serialized line after "round=K "."""

    policy_tag: str
    q: float
    n: int
    text: str


class _Query(NamedTuple):
    """A checked (group, clip, sigma_sum), one object shared by every
    round that records it; text is its serialized line after "round=K "."""

    group_name: str
    clip_s: float
    sigma_sum: float
    text: str


@dataclass(frozen=True, eq=False)  # hashed by identity: one per distinct round
class _Round:
    """A closed round: its sample, its queries and its wire form split at
    the round id, so that str(k).join(parts) is the round's serialization
    at id k. Rounds equal in value share one record."""

    sample: _Sample
    queries: tuple[_Query, ...]
    parts: tuple[str, ...]


class Ledger:
    """In-memory log of rounds, each a sample event and its sum queries.

    This is the one definition of round bracketing: record_sample opens
    round k, where k rounds are closed, and returns that id;
    record_sum_query appends to the open round; close_round seals it.
    Opening a round while one is open, or querying with none open, is a
    usage error. deserialize replays a file through these methods,
    treating each sample line as closing the round before it, and adds the
    whole copies of a replayed round that follow it to that round's run.

    An event is checked when its values are first recorded; recording
    equal values again appends the interned event, and closing a round
    equal in value to one closed before uses the interned round: it adds
    one to the last run if that run is of this round, or starts a run. A
    zero-noise query is not interned, as its value key cannot tell -0.0
    from 0.0, but its round is: a query's text is part of its value.
    Which rounds are zero-noise is read off the round records.
    """

    def __init__(self):
        self._runs: list[list] = []  # closed rounds: [round record, count] per run
        self._closed = 0  # closed rounds, the sum of the run counts
        self._sample: _Sample | None = None  # the open round's, if any
        self._queries: list[_Query] = []  # the open round's
        self._sample_pool: dict[tuple, _Sample] = {}
        self._query_pool: dict[tuple, _Query] = {}
        self._round_pool: dict[tuple, _Round] = {}  # by (sample, queries)

    @property
    def open_round(self) -> int | None:
        return None if self._sample is None else self._closed

    def open_sample(self) -> tuple[float, int]:
        """The open round's recorded (q, n)."""
        if self._sample is None:
            raise LedgerUsageError("no open round; record_sample() first")
        return self._sample.q, self._sample.n

    def record_sample(self, q: float, n: int, policy_tag: str) -> int:
        if self._sample is not None:
            raise LedgerUsageError(
                f"round {self.open_round} is still open; close_round() first"
            )
        round_id = self._closed
        try:
            # 10.0 and True hash as 10 and 1 do; only an int n may match
            sample = self._sample_pool.get((policy_tag, q, n)) if type(n) is int else None
        except TypeError:  # unhashable; the checks below refuse it
            sample = None
        if sample is None:
            n = _check_round(q, n, round_id)
            _check_name(policy_tag, "policy tag")
            q = float(q)
            sample = _Sample(policy_tag, q, n, f"policy={policy_tag} q={q.hex()} n={n}\n")
            sample = self._sample_pool.setdefault(sample[:3], sample)
        self._sample = sample
        return round_id

    def record_sum_query(
        self, round_id: int, *, clip_s: float, sigma_sum: float, group_name: str
    ) -> None:
        if self._sample is None:
            raise LedgerUsageError(
                "no open round; record_sample() first (a sum query before "
                "any sample, or after close_round(), belongs to no round)"
            )
        open_round = self._closed
        if round_id != open_round:
            raise LedgerUsageError(f"round {round_id} is not the open round {open_round}")
        try:
            query = self._query_pool.get((group_name, clip_s, sigma_sum))
        except TypeError:  # unhashable; the checks below refuse it
            query = None
        if query is None:
            PrivacyTuple.check(clip_s, sigma_sum)
            _check_name(group_name, "group name")
            clip_s, sigma_sum = float(clip_s), float(sigma_sum)
            query = _Query(
                group_name,
                clip_s,
                sigma_sum,
                f"group={group_name} clip={clip_s.hex()} sigma_sum={sigma_sum.hex()}\n",
            )
            if sigma_sum:
                query = self._query_pool.setdefault(query[:3], query)
        self._queries.append(query)

    def close_round(self) -> None:
        if self._sample is None:
            raise LedgerUsageError("no open round to close")
        sample, queries = self._sample, tuple(self._queries)
        rnd = self._round_pool.get((sample, queries))
        if rnd is None:
            texts = [sample.text, *(ev.text for ev in queries)]
            parts = (
                "sample round=",
                *(f" {t}sum round=" for t in texts[:-1]),
                f" {texts[-1]}",
            )
            rnd = self._round_pool[sample, queries] = _Round(sample, queries, parts)
        self._append(rnd, 1)
        self._sample = None
        self._queries.clear()

    def _append(self, rnd: _Round, count: int) -> None:
        """Close count more rounds equal to rnd, extending the last run if
        rnd is its record."""
        if self._runs and self._runs[-1][0] is rnd:
            self._runs[-1][1] += count
        else:
            self._runs.append([rnd, count])
        self._closed += count

    def rounds(self) -> list[tuple[SampleEvent, list[SumQueryEvent]]]:
        """Each round's sample event and sum queries, in id order, the
        open round included, built from the stored facts on each call."""
        rounds = [
            (rnd.sample, rnd.queries)
            for rnd, count in self._runs
            for _ in range(count)
        ]
        if self._sample is not None:
            rounds.append((self._sample, self._queries))
        return [
            (
                SampleEvent(round_id, sample.q, sample.n, sample.policy_tag),
                [
                    SumQueryEvent(ev.clip_s, ev.sigma_sum, round_id, ev.group_name)
                    for ev in queries
                ],
            )
            for round_id, (sample, queries) in enumerate(rounds)
        ]

    def insecure_rounds(self) -> tuple[int, ...]:
        """Ids of rounds with any zero-noise sum query, in id order, the
        open round included; each run is tested once."""
        ids: list[int] = []
        start = 0
        for rnd, count in self._runs:
            if _zero_noise(rnd.queries):
                ids.extend(range(start, start + count))
            start += count
        if self._sample is not None and _zero_noise(self._queries):
            ids.append(start)
        return tuple(ids)


def _zero_noise(queries) -> bool:
    return any(ev.sigma_sum == 0.0 for ev in queries)


def formal_ledger(ledger: Ledger) -> list[FormalRow]:
    """Reduce a fully closed ledger to its count table: one FormalRow per
    distinct (policy, q, z) of its rounds, in first-seen order.

    A ledger with any zero-noise query is refused first, with
    InsecureLedgerError naming how many rounds have one and the first ids:
    such a round's equivalent sensitivity is unbounded, so no epsilon
    exists. A round whose S* is not a positive finite float is refused
    with SensitivityRangeError naming the round: one with no sum queries
    (S* = 0; an empty round usually means a crashed producer, so it is
    never accounted short), or one whose clip and noise values put S* out
    of float range. The work is per run of equal rounds, and each distinct
    round is composed and keyed once, at the start of its first run, so a
    refusal names the first offending round.
    """
    if ledger.open_round is not None:
        raise LedgerUsageError(
            f"round {ledger.open_round} is still open; a partial round "
            f"cannot be accounted"
        )
    # the pool holds each distinct closed round once
    if any(_zero_noise(rnd.queries) for rnd in ledger._round_pool.values()):
        insecure = ledger.insecure_rounds()
        ids = ", ".join(map(str, insecure[:5])) + (", ..." if len(insecure) > 5 else "")
        raise InsecureLedgerError(
            f"ledger contains {len(insecure)} zero-noise round(s) (ids {ids}); "
            f"these provide no privacy"
        )
    tally: dict[tuple, list[int]] = {}  # (policy, q, z) -> [rounds, first round]
    rows: dict[_Round, list[int]] = {}  # round record -> its row in tally
    start = 0
    for rnd, count in ledger._runs:
        row = rows.get(rnd)
        if row is None:
            try:
                z = effective_z((ev.clip_s, ev.sigma_sum) for ev in rnd.queries)
            except ValueError as exc:
                raise SensitivityRangeError(f"round {start}: {exc}") from None
            key = (rnd.sample.policy_tag, rnd.sample.q, z)
            row = rows[rnd] = tally.setdefault(key, [0, start])
        row[0] += count
        start += count
    return [FormalRow(*key, *row) for key, row in tally.items()]


def _parse_float(text: str, field: str) -> float:
    """Only the spelling serialize writes, float.hex(): float.fromhex also
    takes 0x1p-1 or 1.0, which would not round-trip."""
    try:
        value = float.fromhex(text)
        if value.hex() == text:
            return value
    except (ValueError, OverflowError):  # 0x1p99999 overflows
        pass
    raise ValueError(f"field {field}={text!r} is not a canonical hex float")


def serialize(ledger: Ledger) -> bytes:
    """Encode a fully closed ledger; see the module docstring for format.
    Each round's bytes, joined from its record's parts, are written to one
    buffer, so no text or list of pieces of the whole file is held beside
    the result."""
    if ledger.open_round is not None:
        raise LedgerUsageError(
            f"round {ledger.open_round} is still open; close it before serializing"
        )
    out = io.BytesIO()
    out.write(_HEADER)
    parts = (rnd.parts for rnd, count in ledger._runs for _ in range(count))
    out.writelines(str(k).join(p).encode("ascii") for k, p in enumerate(parts))
    return out.getvalue()


def _replay(ledger: Ledger, line: str) -> None:
    """Check one event line in full and replay it through the Ledger
    methods. Raises ValueError or LedgerUsageError."""
    match = _EVENT_LINE.fullmatch(line)
    if match is None:
        raise ValueError(f"not a sample or sum event line: {line!r}")
    round_id, policy, q, n, sum_round, group, clip, sigma_sum = match.groups()
    if round_id is None:
        ledger.record_sum_query(
            int(sum_round),
            clip_s=_parse_float(clip, "clip"),
            sigma_sum=_parse_float(sigma_sum, "sigma_sum"),
            group_name=group,
        )
        return
    if ledger.open_round is not None:
        ledger.close_round()
    expected = ledger.record_sample(q=_parse_float(q, "q"), n=int(n), policy_tag=policy)
    if int(round_id) != expected:
        raise ValueError(
            f"round ids must be strictly increasing from 0 with no "
            f"gaps; round {round_id} where {expected} is next"
        )


# A file is read in blocks of this many bytes (256 KiB parsed no faster),
# into one buffer that every block reuses; only the undecided part of a
# block's last round is carried over.
_BLOCK_BYTES = 1 << 20

# The most expected bytes one whole-round comparison builds, so that a
# long run of copies costs little memory beyond the block.
_BATCH_BYTES = 1 << 16


def _copies(
    data, pos: int, parts: tuple[str, ...], round_id: int, at_end: bool
) -> tuple[int, int]:
    """How many whole copies of a round data holds from pos on, at ids
    round_id, round_id + 1, ..., and the position after them.

    A copy is what serialize writes for the round at its id. Batches of
    copies are compared at once, doubling up to about _BATCH_BYTES or
    what is left of data; the first batch that does not match is then
    compared copy by copy. The last copy counts only when the next id's
    sample line follows it, or the end of the input (at_end: data is the
    input's last block); otherwise it may be the head of a longer round,
    or the block may stop before what follows it.
    """
    copies, batch = 0, 1
    size = len(str(round_id).join(parts))  # the shortest copy: ids only grow
    while True:
        ids = range(round_id + copies, round_id + copies + batch)
        pieces = [str(k).join(parts) for k in ids]
        expected = "".join(pieces).encode("ascii")
        if not data.startswith(expected, pos):
            break
        pos += len(expected)
        copies += batch
        batch = max(1, min(2 * batch, _BATCH_BYTES // size, (len(data) - pos) // size))
    for piece in pieces:
        if not data.startswith(piece.encode("ascii"), pos):
            break
        pos += len(piece)
        copies += 1
    follows = b"sample round=%d " % (round_id + copies)
    if copies and not (at_end and pos == len(data)) and not data.startswith(follows, pos):
        copies -= 1
        pos -= len(str(round_id + copies).join(parts))
    return copies, pos


def _undecided(data, pos: int, parts: tuple[str, ...], round_id: int) -> bool:
    """Whether data from pos on is all a proper prefix of the round's copy
    at round_id and the next id's sample line: too short to tell a copy
    from the head of a longer round, or from a round that differs later."""
    head = (str(round_id).join(parts) + f"sample round={round_id + 1} ").encode("ascii")
    return len(data) - pos < len(head) and head.startswith(data[pos:])


def _parse(ledger: Ledger, data, pos: int, line_no: int, at_end: bool):
    """Read data from pos on into ledger; line_no is the number of the
    line before pos. Returns the position where the next block must go
    on and the number of the line before it. A bad line, a non-ascii one
    among them, raises LedgerParseError at its number.

    Where the next id's sample line follows a closed round, or closes the
    open one, the rounds from there on are read as whole copies of the
    last closed round (_copies). Every other line is replayed through the
    Ledger methods. A partial line, and a copy the block ends in, are
    left for the next block: what follows such a copy decides whether it
    is one.
    """
    while True:
        next_id = ledger._closed + (ledger.open_round is not None)
        if next_id and data.startswith(b"sample round=%d " % next_id, pos):
            if ledger.open_round is not None:
                ledger.close_round()
            last = ledger._runs[-1][0]
            copies, pos = _copies(data, pos, last.parts, next_id, at_end)
            ledger._append(last, copies)
            line_no += copies * (len(last.parts) - 1)  # lines per round
            if not at_end and _undecided(data, pos, last.parts, next_id + copies):
                return pos, line_no
            if copies:
                continue
        end = data.find(b"\n", pos) + 1
        if not end:
            return pos, line_no
        line_no += 1
        try:
            _replay(ledger, data[pos : end - 1].decode("ascii"))
        except (ValueError, LedgerUsageError) as exc:
            raise LedgerParseError(str(exc), line=line_no) from None
        pos = end


class _Blocks:
    """The input, one block at a time, and whether the block is its last.

    bytes input is one block, the last. A binary file is read with
    readinto, _BLOCK_BYTES at a time, into one bytearray: next(pos) moves
    the bytes from pos on, which the parse has not used, to its front and
    reads the next block in after them.
    """

    def __init__(self, source):
        if isinstance(source, bytes):
            self.buf, self.at_end = source, True
        elif hasattr(source, "readinto"):
            self.buf, self.at_end = bytearray(_BLOCK_BYTES), False
            self._file = source
            self._read(0)
        else:
            raise TypeError("deserialize expects bytes or a binary file")

    def next(self, pos: int):
        buf = self.buf
        tail = len(buf) - pos
        if pos:
            buf[:tail] = buf[pos:]
        if len(buf) < tail + _BLOCK_BYTES:  # room for a block after the tail
            buf.extend(bytes(tail + _BLOCK_BYTES - len(buf)))
        self._read(tail)
        return buf

    def _read(self, tail: int) -> None:
        """Fill the buffer after its first tail bytes with the next block,
        or with what is left of the file."""
        buf, size, stop = self.buf, tail, tail + _BLOCK_BYTES
        while size < stop:
            with memoryview(buf)[size:stop] as free:
                read = self._file.readinto(free)
            if not read:
                self.at_end = True
                break
            size += read
        del buf[size:]


def deserialize(source) -> Ledger:
    """Decode what serialize wrote, as bytes or a binary file open for
    reading, back into an appendable Ledger.

    Lines end in "\\n" only, and the last one too: a stream that stops
    mid-line is reported as truncation rather than silently loaded short.
    Round ids run 0, 1, 2, ... with no gaps, and each sum line carries the
    id of the sample line above it. All rounds are closed at end of input.
    Errors carry 1-based line numbers. A file is refused at its first
    fault in file order, and read no further: the header, then each line
    in turn, a line with a non-ascii byte refused like any other bad line,
    and a last line with no newline refused as truncated.

    A round enters the ledger in one of two ways. Each line is replayed
    through the Ledger methods and checked in full, so a missing round, a
    wrong id or a bad field is refused at its line. When the next id's
    sample line follows a replayed round, the round is closed and the
    rounds after it are read as whole copies of it while their bytes
    match what serialize writes for it at their ids (_copies); where the
    copies stop, line replay goes on. Both ways accept only ascii bytes: a
    replayed line is decoded as ascii, and a copy must equal the ascii
    bytes serialize writes.

    A file is read in blocks of _BLOCK_BYTES (1 MiB) by one pass of that
    parse, which bytes input takes as a single block. Only a partial line,
    or a copy the block ends in (which may be the head of a longer round,
    so the next block decides), moves to the next block. So the parse
    holds one block, the largest round and the ledger, whose memory
    follows its runs: a run of copies is one count, however long.
    """
    blocks = _Blocks(source)
    buf = blocks.buf
    while len(buf) < len(_HEADER) and not blocks.at_end:
        buf = blocks.next(0)
    if not buf.startswith(_HEADER):
        raise LedgerParseError("missing or unrecognized header", line=1)
    ledger = Ledger()
    pos, line_no = len(_HEADER), 1  # line_no: the newlines before pos
    while True:
        pos, line_no = _parse(ledger, buf, pos, line_no, blocks.at_end)
        if blocks.at_end:
            break
        buf, pos = blocks.next(pos), 0
    if pos < len(buf):  # the last line has no newline
        raise LedgerParseError(
            "input does not end with a newline; file is truncated", line=line_no + 1
        )
    if ledger.open_round is not None:
        ledger.close_round()
    return ledger
