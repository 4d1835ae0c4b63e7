"""Append-only record of what was sampled and what was asked, per round.

The ledger is the trust boundary between training and accounting: training
appends one sample event per round (policy, q, n) and one sum-query event
per group query (clip_s, sigma_sum), and the accountant later recomputes
the guarantee from those events alone. Events are never mutated or
removed; round ids run 0, 1, 2, ... with no gaps.

With accountant, this is the trusted core; of the package it imports only
errors, and it imports numpy to check the round lines of a v2 file. It
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
sample, the tuple of its queries and its v1 wire form split at the round
id. Each distinct checked (policy, q, n) and (group, clip, sigma_sum) is
one shared object, carrying its serialized text, and rounds equal in
value share one record, so a run with fixed hyperparameters holds G + 1
event objects, one round record and one run entry however many rounds it
records. The SampleEvent and SumQueryEvent views, round ids included,
are built only when rounds() is called. formal_ledger, serialize and
insecure_rounds walk the runs, so their work follows the runs, not the
rounds.

serialize writes wire format v2, a round table. Each distinct round is
written once, as a kind block at its first use, and every round is one
fixed-width line that names its kind. Every line ends in "\n":

    dpledger ledger v2
    for each round k = 0, 1, ..., N - 1 in turn:
        if round k is the first of its kind K (kinds are numbered 0, 1,
        2, ... in first-use order), the kind block:
            sample policy=<tag> q=<float> n=<int>
            sum group=<name> clip=<float> sigma_sum=<float>  (per query)
            end kind=<K> crc=<8 hex digits>
        round <k: 16 digits> <K: 16 digits> <check: 5 digits>
    close rounds=<N> check=<5 digits>

Floats are written with float.hex() and integers in canonical decimal,
so parsing returns the exact bits that were recorded: a guarantee
recomputed from a file must equal the one computed in memory, not
approximate it. A kind block's crc is the CRC-32 (zlib) of its bytes from
its sample line up to "crc=". A round line is 46 bytes, and its check
value is the sum of (i + 1) * b_i over its bytes b_0 ... b_39 before the
check, modulo the prime 65521; the close line's check is the same sum
over its bytes before "check=". The parser reads back only the spellings
serialize writes, so serialize(deserialize(b)) == b or the parse fails.
Appending rounds to a ledger appends lines before the close line, so the
format can be written by a stream that writes a kind block, then one
short line per round, and the close line when the run finishes.

Threat model: the check values are against accidental damage (disks,
copies, editors). CRC-32 catches every change of up to 32 bits in a
row inside a kind block. A one-byte change to a round or close line
moves its sum by w * d with 1 <= w <= 40 and 0 < |d| <= 255, never a
multiple of 65521, so it is refused. A file cut anywhere before its
close line is refused, and so is anything after it. They are not a MAC:
whoever can edit the file can recompute them, and a keyed MAC, which
needs a key the accountant holds, is out of scope.

deserialize reads v2 in three steps. It replays each kind block once
through the Ledger methods (record_sample, record_sum_query), each line
checked in full (pattern, canonical floats, event checks), and checks
its CRC. It checks the round lines in numpy passes of up to _PASS_ROWS
lines, gathered across the kind blocks between them: the fixed bytes,
the digits, id = position, the check value, and that the kind is defined
and, after a kind block, is that block's kind. It adds each run of equal
kinds with one Ledger._append. So its work follows the distinct rounds
and the file's size, whatever the schedule.

Wire format v1, which serialize wrote before v2, is still read:
"dpledger ledger v1", then each round's sample line and sum lines, each
with the round id ("sample round=<k> policy=...", "sum round=<k>
group=..."). A v1 round enters a parsed ledger in one of two ways. Where
the input holds, byte for byte, what v1 holds for the round just closed
at the next ids, those rounds are whole copies of it. Anything else is
replayed line by line through the Ledger methods, each line checked in
full, so a file obeys the same round bracketing as a live run, and
errors and their line numbers do not depend on what came before. v1 has
no close line or check values, so a v1 file cut at a round boundary or
changed inside a field can be accounted short; the parsed ledger's
caveats say so.

deserialize takes bytes or a binary file. A file is read in blocks of
_BLOCK_BYTES (1 MiB) into one reused buffer, by the same parse that takes
bytes as a single block; only what a block ends in, a partial line or a
v1 copy that the next block must confirm, is carried into the next. So
reading a file holds one block, its largest round and the parsed ledger,
whose memory follows its runs and distinct rounds, not the round count
or the file's size. The read stops at the first fault in file order, so
a bad line is refused without reading the blocks after its own.
"""

from __future__ import annotations

import enum
import functools
import io
import math
import numbers
import re
import zlib
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

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


_HEADER = b"dpledger ledger v2\n"
_HEADER_V1 = b"dpledger ledger v1\n"

_V1_CAVEAT = (
    "ledger format v1 has no close line or check values, so a cut or "
    "damaged v1 file can be accounted short"
)

# v1: one event per line. Integers are canonical (0 or no leading zero, sign or
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
    usage error. deserialize replays a file through these methods: a v2
    kind block once, sealed into a round record that the kind's round
    lines then add as runs; a v1 file line by line, treating each sample
    line as closing the round before it, with the whole copies of a
    replayed round that follow it added to that round's run.

    An event is checked when its values are first recorded; recording
    equal values again appends the interned event, and closing a round
    equal in value to one closed before uses the interned round: it adds
    one to the last run if that run is of this round, or starts a run. A
    zero-noise query is not interned, as its value key cannot tell -0.0
    from 0.0, but its round is: a query's text is part of its value.
    Which rounds are zero-noise is read off the round records.

    caveats names what reading the ledger from a file could not check:
    empty for a ledger recorded live or read from v2.
    """

    def __init__(self):
        self.caveats: tuple[str, ...] = ()
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
        self._append(self._seal(), 1)

    def _seal(self) -> _Round:
        """End the open round and return its interned record, adding it to
        no run: close_round adds it as one round, and a v2 parse adds the
        runs of its round lines."""
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
        self._sample = None
        self._queries.clear()
        return rnd

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


# A v2 round line: "round ", the id and the kind in 16 digits each, and a
# check of the _CHECKED bytes before it in 5 digits. Round lines are
# checked, and written, _PASS_ROWS at a time: a pass holds about 400 kB
# of float32 temporaries.
_ROUND_LINE = b"round " + b"0" * 16 + b" " + b"0" * 16 + b" 00000\n"
_WIDTH = len(_ROUND_LINE)
_CHECKED = 40
_PRIME = 65521
_PASS_ROWS = 2048

_LAYOUT = np.frombuffer(_ROUND_LINE, np.uint8)  # "0" where a digit goes
_SPAN = np.where(_LAYOUT == ord("0"), 9, 0).astype(np.uint8)
_POW10 = 10 ** np.arange(15, -1, -1, dtype=np.int64)
# One float32 product reads a pass of lines: column 0 is the check sum,
# 1-4 and 5-8 the id and the kind in groups of 4 digits, 9 the written
# check. Each is an integer below 2**24, so the product is exact; _FIELDS
# joins each 4 groups into one float64, exact below 2**53.
_READ = np.zeros((_WIDTH, 10), np.float32)
_READ[:_CHECKED, 0] = np.arange(1, _CHECKED + 1)
for _g in range(4):
    _READ[6 + 4 * _g : 10 + 4 * _g, 1 + _g] = (1000, 100, 10, 1)
    _READ[23 + 4 * _g : 27 + 4 * _g, 5 + _g] = (1000, 100, 10, 1)
_READ[40:45, 9] = (10000, 1000, 100, 10, 1)
_READ_ZERO = _LAYOUT.astype(np.float32) @ _READ  # the "0" digits' part
_READ_ZERO[0] = 0.0
_FIELDS = np.zeros((8, 2))
_FIELDS[:4, 0] = _FIELDS[4:, 1] = (1e12, 1e8, 1e4, 1.0)


def _check_value(text: bytes) -> int:
    """The check of a line's bytes b_0, b_1, ...: the sum of (i + 1) * b_i,
    modulo the prime 65521."""
    return sum(i * b for i, b in enumerate(text, 1)) % _PRIME


def _round_lines(first: int, kinds) -> bytes:
    """The round lines of ids first, first + 1, ..., of the given kinds."""
    rows = np.tile(_LAYOUT, (len(kinds), 1))
    ids = np.arange(first, first + len(kinds), dtype=np.int64)
    rows[:, 6:22] += (ids[:, None] // _POW10 % 10).astype(np.uint8)
    rows[:, 23:39] += (kinds[:, None] // _POW10 % 10).astype(np.uint8)
    check = rows[:, :_CHECKED].astype(np.float32) @ _READ[:_CHECKED, 0]
    check = check.astype(np.int64) % _PRIME
    rows[:, 40:45] += (check[:, None] // _POW10[-5:] % 10).astype(np.uint8)
    return rows.tobytes()


def _write_rounds(out, first: int, runs: list[tuple[int, int]]) -> int:
    """Write the round lines of runs, (kind, count) pairs, from id first
    on; returns the id after them."""
    if not runs:
        return first
    kinds = np.repeat(*np.array(runs, dtype=np.int64).T)
    for at in range(0, len(kinds), _PASS_ROWS):
        out.write(_round_lines(first + at, kinds[at : at + _PASS_ROWS]))
    return first + len(kinds)


def _kind_block(rnd: _Round, kind: int) -> bytes:
    text = "".join(
        ["sample ", rnd.sample.text, *(f"sum {ev.text}" for ev in rnd.queries),
         f"end kind={kind} "]
    ).encode("ascii")  # fmt: skip
    return b"%scrc=%08x\n" % (text, zlib.crc32(text))


def serialize(ledger: Ledger) -> bytes:
    """Encode a fully closed ledger as v2; see the module docstring for
    the format. A kind block is written at its kind's first use, and the
    round lines between two kind blocks are built by numpy, _PASS_ROWS at
    a time, into one buffer: no Python runs per round, and no text of the
    whole file is held beside the result."""
    if ledger.open_round is not None:
        raise LedgerUsageError(
            f"round {ledger.open_round} is still open; close it before serializing"
        )
    if ledger._closed >= 10**16:
        raise ValueError("a v2 round id has 16 digits; the ledger has more rounds")
    out = io.BytesIO()
    out.write(_HEADER)
    kind_of: dict[_Round, int] = {}
    first, runs = 0, []  # the first id and the (kind, count) runs not yet written
    for rnd, count in ledger._runs:
        kind = kind_of.get(rnd)
        if kind is None:
            first, runs = _write_rounds(out, first, runs), []
            kind = kind_of[rnd] = len(kind_of)
            out.write(_kind_block(rnd, kind))
        runs.append((kind, count))
    close = b"close rounds=%d " % _write_rounds(out, first, runs)
    out.write(b"%scheck=%05d\n" % (close, _check_value(close)))
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


# v2's lines other than round lines. A stretch of round lines ends where a
# line does not start with "r".
_SAMPLE_LINE = re.compile(rf"sample policy=(\S+) q=(\S+) n={_INT}")
_SUM_LINE = re.compile(r"sum group=(\S+) clip=(\S+) sigma_sum=(\S+)")
_END_LINE = re.compile(rf"end kind={_INT} crc=([0-9a-f]{{8}})")
_CLOSE_LINE = re.compile(rf"close rounds={_INT} check=([0-9]{{5}})")
_NOT_A_ROUND = re.compile(rb"\n[^r]")


class _Table:
    """v2's reader: what it carries from one block of input to the next.

    parse(data, pos, line_no, at_end) reads data from pos on, where
    line_no lines come before pos, and returns where the next block must
    go on and the number of lines before that. It replays each kind block
    as it meets it. Round lines are queued and checked by _flush in one
    numpy pass per _PASS_ROWS lines, across the kind blocks between them,
    and before parse returns or refuses a later line, so a file is
    refused at its first fault in file order.
    """

    def __init__(self, ledger: Ledger):
        self.ledger = ledger
        self.kinds: list[_Round] = []  # by kind number
        self.kind_of: dict[_Round, int] = {}
        self.rounds = 0  # round lines read, queued ones included
        self.line_no = 0
        self.crc: int | None = None  # the open kind block's CRC so far
        self.fresh: int | None = None  # a kind no round line has used yet
        self.closed = False
        # queued stretches of round lines: (position, lines, first line
        # number, kinds defined, kind the first line must be or None)
        self.queue: list[tuple] = []
        self.queued = 0

    def parse(self, data, pos: int, line_no: int, at_end: bool):
        # at_end is v1's: here a partial line waits for the next block, and
        # deserialize refuses one the input ends in
        self.line_no = line_no
        while pos < len(data):
            if self.closed:
                self._refuse(data, "data after the close line", self.line_no + 1)
            if self.crc is None and data[pos] == ord("r"):
                stop = _NOT_A_ROUND.search(data, pos)
                end = stop.start() + 1 if stop else data.rfind(b"\n") + 1
                if end <= pos:  # a partial line
                    break
                self._queue(data, pos, end)
                pos = end
                continue
            end = data.find(b"\n", pos) + 1
            if not end:
                break
            self.line_no += 1
            try:
                self._line(data[pos:end])
            except (ValueError, LedgerUsageError) as exc:
                self._refuse(data, str(exc), self.line_no)
            pos = end
        self._flush(data)
        return pos, self.line_no

    def finish(self, line_no: int) -> None:
        if not self.closed:
            raise LedgerParseError(
                f"the input ends after {self.rounds} round(s) with no close "
                f"line: it is cut, or its run did not finish",
                line=line_no + 1,
            )

    def _refuse(self, data, message: str, line: int):
        self._flush(data)  # a queued round line comes first in file order
        raise LedgerParseError(message, line=line)

    def _line(self, raw) -> None:
        """Check one line of a kind block, or the close line, and replay
        it. Raises ValueError or LedgerUsageError."""
        text = raw[:-1].decode("ascii")
        ledger = self.ledger
        if self.crc is not None:  # inside a kind block
            if match := _SUM_LINE.fullmatch(text):
                group, clip, sigma_sum = match.groups()
                ledger.record_sum_query(
                    ledger.open_round,
                    clip_s=_parse_float(clip, "clip"),
                    sigma_sum=_parse_float(sigma_sum, "sigma_sum"),
                    group_name=group,
                )
                self.crc = zlib.crc32(raw, self.crc)
            elif match := _END_LINE.fullmatch(text):
                self._end(int(match[1]), int(match[2], 16), raw)
            else:
                raise ValueError(
                    f"not a sum or end line of kind {len(self.kinds)}'s block: {text!r}"
                )
            return
        if self.fresh is not None:
            raise ValueError(f"kind {self.fresh} is not used by the round after it")
        if match := _SAMPLE_LINE.fullmatch(text):
            policy, q, n = match.groups()
            ledger.record_sample(q=_parse_float(q, "q"), n=int(n), policy_tag=policy)
            self.crc = zlib.crc32(raw)
        elif match := _CLOSE_LINE.fullmatch(text):
            if _check_value(raw[: raw.index(b"check=")]) != int(match[2]):
                raise ValueError("the close line fails its check value: it is damaged")
            if int(match[1]) != self.rounds:
                raise ValueError(
                    f"the close line counts {match[1]} rounds where the file "
                    f"holds {self.rounds}"
                )
            self.closed = True
        else:
            raise ValueError(f"not a round, kind block or close line: {text!r}")

    def _end(self, kind: int, crc: int, raw) -> None:
        """The end line of a kind block: its number, its CRC, and a round
        no kind before it is."""
        if kind != len(self.kinds):
            raise ValueError(f"kind {kind} where kind {len(self.kinds)} is next")
        if zlib.crc32(raw[: raw.index(b"crc=")], self.crc) != crc:
            raise ValueError(f"kind {kind}'s block fails its CRC-32: it is damaged")
        self.crc = None
        rnd = self.ledger._seal()
        if rnd in self.kind_of:
            raise ValueError(f"kind {kind} repeats kind {self.kind_of[rnd]}")
        self.kind_of[rnd] = kind
        self.kinds.append(rnd)
        self.fresh = kind

    def _queue(self, data, pos: int, end: int) -> None:
        """Queue the lines from pos to end, each starting with "r", as
        round lines, checking each pass that fills up."""
        lines, rest = divmod(end - pos, _WIDTH)
        while lines:
            take = min(lines, _PASS_ROWS - self.queued)
            self.queue.append((pos, take, self.line_no + 1, len(self.kinds), self.fresh))
            self.fresh = None
            self.line_no += take
            self.rounds += take
            self.queued += take
            pos += take * _WIDTH
            lines -= take
            if self.queued == _PASS_ROWS:
                self._flush(data)
        if rest:  # every whole line before it is a round line
            line = bytes(data[pos : data.index(b"\n", pos)])
            self._refuse(data, f"not a round line: {line!r}", self.line_no + 1)

    def _flush(self, data) -> None:
        """Check the queued round lines in one pass and add their runs."""
        queue, self.queue, self.queued = self.queue, [], 0
        if not queue:
            return
        flat = np.frombuffer(data, np.uint8)
        stretches = [
            flat[pos : pos + n * _WIDTH].reshape(n, _WIDTH) for pos, n, *_ in queue
        ]
        rows = stretches[0] if len(stretches) == 1 else np.concatenate(stretches)
        starts = np.cumsum([0] + [n for _, n, *_ in queue])
        first = self.rounds - len(rows)
        values = rows.astype(np.float32) @ _READ - _READ_ZERO
        ids, kinds = (values[:, 1:9].astype(np.float64) @ _FIELDS).T
        defined = np.repeat([entry[3] for entry in queue], np.diff(starts))
        fresh = [(at, kind) for at, (*_, kind) in zip(starts, queue) if kind is not None]
        # the pass as a whole; _fault finds the first line that fails
        if not (
            ((rows - _LAYOUT) <= _SPAN).all()
            and (np.fmod(values[:, 0], _PRIME) == values[:, 9]).all()
            and (ids == np.arange(first, self.rounds)).all()
            and (kinds < defined).all()
            and all(kinds[start] == kind for start, kind in fresh)
        ):
            self._fault(rows, values, ids, kinds, defined, fresh, first, queue, starts)
        kinds = kinds.astype(np.int64)
        cuts = [0, *(np.flatnonzero(kinds[1:] != kinds[:-1]) + 1).tolist()]
        for a, b, kind in zip(cuts, [*cuts[1:], len(kinds)], kinds[cuts].tolist()):
            self.ledger._append(self.kinds[kind], b - a)

    @staticmethod
    def _fault(rows, values, ids, kinds, defined, fresh, first, queue, starts):
        """Refuse the first round line of a pass that fails a check."""
        layout = ((rows - _LAYOUT) <= _SPAN).all(axis=1)
        checked = np.fmod(values[:, 0], _PRIME) == values[:, 9]
        expected = np.arange(first, first + len(rows))
        good = layout & checked & (ids == expected) & (kinds < defined)
        for start, kind in fresh:
            good[start] &= kinds[start] == kind
        i = int(np.argmin(good))
        k = int(np.searchsorted(starts, i, side="right")) - 1
        line, round_id = queue[k][2] + i - starts[k], first + i
        if not layout[i]:
            text = rows[i].tobytes().split(b"\n")[0]
            raise LedgerParseError(f"not a round line: {text!r}", line=line)
        if not checked[i]:
            raise LedgerParseError(
                "the round line fails its check value: it is damaged", line=line
            )
        if ids[i] != round_id:
            raise LedgerParseError(
                f"round ids must run 0, 1, 2, ... with no gaps; round "
                f"{int(ids[i])} where {round_id} is next",
                line=line,
            )
        if kinds[i] >= defined[i]:
            raise LedgerParseError(
                f"round {round_id} is of kind {int(kinds[i])}, which is not "
                f"defined before it",
                line=line,
            )
        raise LedgerParseError(
            f"kind {queue[k][4]} is defined just before round {round_id}, which is "
            f"of kind {int(kinds[i])}: a kind is defined at its first use",
            line=line,
        )


def deserialize(source) -> Ledger:
    """Decode what serialize wrote, v2, or a v1 file, as bytes or a binary
    file open for reading, back into an appendable Ledger.

    Lines end in "\\n" only, and the last one too: a stream that stops
    mid-line is reported as truncation rather than silently loaded short.
    Errors carry 1-based line numbers. A file is refused at its first
    fault in file order, and read no further: the header, then each line
    in turn, a line with a non-ascii byte refused like any other bad line,
    and a last line with no newline refused as truncated.

    v2 (_Table): each kind block is replayed once through the Ledger
    methods and checked against its CRC-32; round lines are checked by
    numpy passes; a file with no close line, or anything after it, is
    refused. So a cut file, and one with any byte changed inside a round
    line, are refused.

    v1 (_parse): round ids run 0, 1, 2, ... with no gaps, each sum line
    carries the id of the sample line above it, and all rounds are closed
    at end of input. Each line is replayed through the Ledger methods and
    checked in full, so a missing round, a wrong id or a bad field is
    refused at its line. When the next id's sample line follows a replayed
    round, the round is closed and the rounds after it are read as whole
    copies of it while their bytes match what v1 holds for it at their
    ids (_copies); where the copies stop, line replay goes on. Both ways
    accept only ascii bytes. The ledger's caveats say what v1 cannot
    check.

    A file is read in blocks of _BLOCK_BYTES (1 MiB) by one pass of the
    version's parse, which bytes input takes as a single block. Only a
    partial line, or a v1 copy the block ends in (which may be the head of
    a longer round, so the next block decides), moves to the next block.
    So the parse holds one block, the largest round and the ledger, whose
    memory follows its runs: a run of equal rounds is one count, however
    long.
    """
    blocks = _Blocks(source)
    buf = blocks.buf
    while len(buf) < len(_HEADER) and not blocks.at_end:
        buf = blocks.next(0)
    ledger = Ledger()
    table = _Table(ledger) if buf.startswith(_HEADER) else None
    if table is not None:
        parse = table.parse
    elif buf.startswith(_HEADER_V1):
        ledger.caveats = (_V1_CAVEAT,)
        parse = functools.partial(_parse, ledger)
    else:
        raise LedgerParseError("missing or unrecognized header", line=1)
    pos, line_no = len(_HEADER), 1  # line_no: the newlines before pos
    while True:
        pos, line_no = parse(buf, pos, line_no, blocks.at_end)
        if blocks.at_end:
            break
        buf, pos = blocks.next(pos), 0
    if pos < len(buf):  # the last line has no newline
        raise LedgerParseError(
            "input does not end with a newline; file is truncated", line=line_no + 1
        )
    if table is not None:
        table.finish(line_no)
    elif ledger.open_round is not None:
        ledger.close_round()
    return ledger
