"""Append-only record of what was sampled and what was asked, per round.

The ledger is the trust boundary between training and accounting: training
appends one sample event per round (policy, q, n) and one sum-query event
per group query (clip_s, sigma_sum), and the accountant later recomputes
the guarantee from those events alone. Events are never mutated or
removed; round ids run 0, 1, 2, ... with no gaps.

With accountant, this is the trusted core; it imports only errors. It
holds what an event is checked or read against: the name, (q, n, round)
and (clip, sigma) checks, the policy tags, and round_compose, the one S*.

Storage is flat and interned. A Ledger keeps three lists: each round's
sample facts, every round's queries in order, and the int index where each
round's queries start. Each distinct checked (policy, q, n) and (group,
clip, sigma_sum) is one shared object, carrying its serialized text, so a
run with fixed hyperparameters holds G + 1 event objects however many
rounds it records. The SampleEvent and SumQueryEvent views, round ids
included, are built only when rounds() is called.

The wire format is line-delimited text with a version header. Floats are
written with float.hex() so parsing returns the exact bits that were
recorded: a guarantee recomputed from a file must equal the one computed
in memory, not approximate it. The parser reads back only the spellings
serialize writes, so serialize(deserialize(b)) == b or the parse fails,
and it rebuilds the ledger by replaying each line through the Ledger
methods, so a file obeys the same round bracketing as a live run. It
checks each distinct line text after "round=K " in full once (pattern,
canonical floats, event checks); a later line with the same text is
replayed as that event once its K is the expected round id, and any other
line takes the full check, so errors and their line numbers do not depend
on what was seen before. Appending events to a ledger appends lines to its
serialization, so the old file is always a byte prefix of the new.
"""

from __future__ import annotations

import enum
import io
import math
import re
import warnings
from dataclasses import dataclass, field
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


def _check_round(q: float, n: int, round_id: int = 0) -> None:
    """The sampling facts every round carries: rate q in (0, 1], population
    n at least 1, round id nonnegative."""
    if not (0.0 < q <= 1.0):
        raise ValueError(f"q must be in (0, 1], got {q}")
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    if round_id < 0:
        raise ValueError(f"round_id must be nonnegative, got {round_id}")


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
    it to its per-average noise_sigma.
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


@dataclass(frozen=True)
class EffectiveQuery:
    """One round collapsed to a single sensitivity-s_star, sigma-1 query,
    whose noise multiplier is z_effective = 1 / s_star.

    An s_star that is not a positive finite float (a sum that overflowed
    to inf or underflowed to 0) is refused rather than represented.
    """

    s_star: float
    z_effective: float = field(init=False)

    def __post_init__(self):
        if not (math.isfinite(self.s_star) and self.s_star > 0):
            raise ValueError(
                f"equivalent sensitivity S* = {self.s_star!r} is out of range"
            )
        object.__setattr__(self, "z_effective", 1.0 / self.s_star)


def round_compose(tuples) -> EffectiveQuery:
    """Collapse one round's (clip_s, sigma_sum) tuples to a single
    equivalent query of sensitivity s_star at noise std 1.

    s_star = sqrt(sum_g (clip_s_g / sigma_sum_g)^2); the round's noise
    multiplier is z = 1 / s_star. Each tuple is a PrivacyTuple (the
    ledger's sum-query events are), used as already checked, or a plain
    (clip_s, sigma_sum) pair, checked here. A zero sigma_sum would make
    s_star infinite, which is rejected rather than represented.
    """
    tuples = list(tuples)
    if not tuples:
        raise ValueError("round_compose needs at least one query tuple")
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
    return EffectiveQuery(s_star=math.sqrt(acc))


_HEADER = b"dpledger ledger v1\n"

# One event per line. Integers are canonical (0 or no leading zero, sign or
# underscore); names and floats are single tokens that the event checks and
# _parse_float hold to the spelling serialize writes.
_INT = r"(0|[1-9][0-9]*)"
_EVENT_LINE = re.compile(
    rf"sample round={_INT} policy=(\S+) q=(\S+) n={_INT}"
    rf"|sum round={_INT} group=(\S+) clip=(\S+) sigma_sum=(\S+)"
)


@dataclass(frozen=True)
class SampleEvent:
    """One round's selection facts: policy tag, rate q, population n."""

    round_id: int
    q: float
    n: int
    policy_tag: str

    def __post_init__(self):
        _check_round(self.q, self.n, self.round_id)
        _check_name(self.policy_tag, "policy tag")


@dataclass(frozen=True)
class SumQueryEvent(PrivacyTuple):
    """One Gaussian sum query: the privacy tuple (clip bound, sum-level
    noise std) of a group in a round, checked once, here.

    sigma_sum = 0 is recordable (insecure test runs still get logged) but
    poisons the round; the accountant refuses such ledgers by default.
    """

    round_id: int
    group_name: str

    def __post_init__(self):
        self.check(self.clip_s, self.sigma_sum)
        if self.round_id < 0:
            raise ValueError(f"round_id must be nonnegative, got {self.round_id}")
        _check_name(self.group_name, "group name")


@dataclass(frozen=True)
class RoundQuery:
    """A closed round reduced for accounting: sampling facts plus the
    single equivalent query (None when a zero-noise event made the round's
    equivalent sensitivity unbounded)."""

    round_id: int
    q: float
    policy_tag: str
    effective: EffectiveQuery | None


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


class Ledger:
    """In-memory log of rounds, each a sample event and its sum queries.

    This is the one definition of round bracketing: record_sample opens
    round len(rounds) and returns that id; record_sum_query appends to the
    open round; close_round seals it. Opening a round while one is open,
    or querying with none open, is a usage error. deserialize replays a
    file through these methods, treating each sample line as closing the
    round before it.

    An event is checked when its values are first recorded; recording
    equal values again appends the interned event. A zero-noise query is
    never interned, so -0.0 and 0.0 stay distinct; its round is noted as
    insecure instead.
    """

    def __init__(self):
        self._samples: list[_Sample] = []  # one per round
        self._queries: list[_Query] = []  # every round's, in order
        self._starts: list[int] = []  # index in _queries of each round's first
        self._insecure: list[int] = []  # rounds with a zero-noise query
        self._sample_pool: dict[tuple, _Sample] = {}
        self._query_pool: dict[tuple, _Query] = {}
        self._open = False

    @property
    def open_round(self) -> int | None:
        return len(self._samples) - 1 if self._open else None

    def record_sample(self, q: float, n: int, policy_tag: str) -> int:
        if self._open:
            raise LedgerUsageError(
                f"round {self.open_round} is still open; close_round() first"
            )
        round_id = len(self._samples)
        try:
            sample = self._sample_pool.get((policy_tag, q, n))
        except TypeError:  # unhashable; the checks below refuse it
            sample = None
        if sample is None:
            _check_round(q, n, round_id)
            _check_name(policy_tag, "policy tag")
            q = float(q)
            sample = _Sample(policy_tag, q, n, f"policy={policy_tag} q={q.hex()} n={n}\n")
            sample = self._sample_pool.setdefault(sample[:3], sample)
        self._samples.append(sample)
        self._starts.append(len(self._queries))
        self._open = True
        return round_id

    def record_sum_query(
        self, round_id: int, *, clip_s: float, sigma_sum: float, group_name: str
    ) -> None:
        if not self._open:
            raise LedgerUsageError(
                "no open round; record_sample() first (a sum query before "
                "any sample, or after close_round(), belongs to no round)"
            )
        open_round = len(self._samples) - 1
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
            elif self._insecure[-1:] != [open_round]:
                self._insecure.append(open_round)
        self._queries.append(query)

    def close_round(self) -> None:
        if not self._open:
            raise LedgerUsageError("no open round to close")
        self._open = False

    def _each_round(self):
        """(round id, sample, that round's queries) for each round, in order."""
        ends = self._starts[1:] + [len(self._queries)]
        for round_id, (sample, start, end) in enumerate(
            zip(self._samples, self._starts, ends)
        ):
            yield round_id, sample, self._queries[start:end]

    def rounds(self) -> list[tuple[SampleEvent, list[SumQueryEvent]]]:
        """Each round's sample event and sum queries, in id order, built
        from the stored facts on each call."""
        return [
            (
                SampleEvent(
                    round_id=round_id, q=sample.q, n=sample.n, policy_tag=sample.policy_tag
                ),
                [
                    SumQueryEvent(
                        round_id=round_id,
                        group_name=ev.group_name,
                        clip_s=ev.clip_s,
                        sigma_sum=ev.sigma_sum,
                    )
                    for ev in queries
                ],
            )
            for round_id, sample, queries in self._each_round()
        ]

    def insecure_rounds(self) -> tuple[int, ...]:
        """Ids of rounds with any zero-noise sum query, in id order."""
        return tuple(self._insecure)


def formal_ledger(ledger: Ledger, *, allow_insecure: bool = False) -> list[RoundQuery]:
    """Reduce a fully closed ledger to one RoundQuery per usable round.

    Rounds with no sum queries carry no privacy cost; they are dropped with
    a warning (an empty round usually means a crashed producer). Rounds
    containing a zero-noise query are refused outright unless
    allow_insecure is set, in which case they surface with effective=None
    so the accountant can mark the guarantee vacuous instead of wrong. A
    round whose clip and noise values put S* out of float range is refused
    with SensitivityRangeError naming the round. Each distinct tuple of
    queries is composed once, at its first round.
    """
    if ledger.open_round is not None:
        raise LedgerUsageError(
            f"round {ledger.open_round} is still open; a partial round "
            f"cannot be accounted"
        )
    insecure = ledger.insecure_rounds()
    if insecure and not allow_insecure:
        raise InsecureLedgerError(
            f"ledger contains zero-noise round(s) {list(insecure)}; these "
            f"provide no privacy. Pass allow_insecure=True only to inspect "
            f"test-mode ledgers"
        )
    out: list[RoundQuery] = []
    effective_of: dict[tuple[_Query, ...], EffectiveQuery | None] = {}
    for round_id, sample, queries in ledger._each_round():
        if not queries:
            warnings.warn(
                f"round {round_id} recorded no sum queries; dropping it",
                stacklevel=2,
            )
            continue
        key = tuple(queries)
        if key not in effective_of:
            effective = None
            if all(ev.sigma_sum != 0.0 for ev in queries):
                try:
                    effective = round_compose((ev.clip_s, ev.sigma_sum) for ev in queries)
                except ValueError as exc:
                    raise SensitivityRangeError(f"round {round_id}: {exc}") from None
            effective_of[key] = effective
        out.append(
            RoundQuery(
                round_id=round_id,
                q=sample.q,
                policy_tag=sample.policy_tag,
                effective=effective_of[key],
            )
        )
    return out


def _parse_float(text: str, field: str) -> float:
    """Only the spelling serialize writes, float.hex(): float.fromhex also
    takes 0x1p-1 or 1.0, which would not round-trip."""
    try:
        value = float.fromhex(text)
        if value.hex() == text:
            return value
    except ValueError:
        pass
    raise ValueError(f"field {field}={text!r} is not a canonical hex float")


def serialize(ledger: Ledger) -> bytes:
    """Encode a fully closed ledger; see the module docstring for format."""
    if ledger.open_round is not None:
        raise LedgerUsageError(
            f"round {ledger.open_round} is still open; close it before serializing"
        )
    lines = [_HEADER.decode()]
    for round_id, sample, queries in ledger._each_round():
        lines.append(f"sample round={round_id} {sample.text}")
        head = f"sum round={round_id} "
        lines.extend(head + ev.text for ev in queries)
    return "".join(lines).encode("ascii")


def _replay(ledger: Ledger, line: str) -> bool:
    """Check one event line in full and replay it through the Ledger
    methods; True if it was a sample line. Raises ValueError or
    LedgerUsageError."""
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
        return False
    if ledger.open_round is not None:
        ledger.close_round()
    expected = ledger.record_sample(q=_parse_float(q, "q"), n=int(n), policy_tag=policy)
    if int(round_id) != expected:
        raise ValueError(
            f"round ids must be strictly increasing from 0 with no "
            f"gaps; round {round_id} where {expected} is next"
        )
    return True


def _heads(round_id: int) -> tuple[bytes, bytes]:
    """How the sum lines of open round round_id, and the next sample
    line, begin."""
    return b"sum round=%d " % round_id, b"sample round=%d " % (round_id + 1)


def deserialize(data: bytes) -> Ledger:
    """Decode bytes produced by serialize back into an appendable Ledger.

    Lines end in "\\n" only, and the last one too: a stream that stops
    mid-line is reported as truncation rather than silently loaded short.
    Each event line is replayed through the Ledger methods: a sample line
    closes the open round and must carry the next id, so a missing round
    is refused; a sum line must carry the open round's id. All rounds are
    closed at end of input. Errors carry 1-based line numbers.

    The text after "round=K " of each line that passed the full check is
    kept with the event it recorded. A later line that is the expected
    "sample round=K " or "sum round=K " followed by kept text replays that
    event without parsing it again; every other line takes the full check.
    """
    if not isinstance(data, bytes):
        raise TypeError("deserialize expects bytes")
    if not data.startswith(_HEADER):
        raise LedgerParseError("missing or unrecognized header", line=1)
    if not data.endswith(b"\n"):
        raise LedgerParseError(
            "input does not end with a newline; file is truncated",
            line=data.count(b"\n") + 1,
        )
    if not data.isascii():
        try:
            data.decode("ascii")  # raises, naming the first non-ascii byte
        except UnicodeDecodeError as exc:
            raise LedgerParseError(f"not ascii: {exc}") from None
    ledger = Ledger()
    seen_samples: dict[bytes, _Sample] = {}
    seen_queries: dict[bytes, _Query] = {}
    round_id, sum_head, sample_head = None, None, b"sample round=0 "
    lines = io.BytesIO(data)
    next(lines)  # the header
    for line_no, line in enumerate(lines, start=2):
        try:
            if sum_head and line.startswith(sum_head):
                query = seen_queries.get(line[len(sum_head) :])
                if query is not None:
                    ledger.record_sum_query(
                        round_id,
                        clip_s=query.clip_s,
                        sigma_sum=query.sigma_sum,
                        group_name=query.group_name,
                    )
                    continue
            elif line.startswith(sample_head):
                sample = seen_samples.get(line[len(sample_head) :])
                if sample is not None:
                    ledger.close_round()  # open since the sample line that kept it
                    round_id = ledger.record_sample(
                        q=sample.q, n=sample.n, policy_tag=sample.policy_tag
                    )
                    sum_head, sample_head = _heads(round_id)
                    continue
            if _replay(ledger, line[:-1].decode("ascii")):
                seen_samples[line[len(sample_head) :]] = ledger._samples[-1]
                round_id = ledger.open_round
                sum_head, sample_head = _heads(round_id)
            else:
                seen_queries[line[len(sum_head) :]] = ledger._queries[-1]
        except (ValueError, LedgerUsageError) as exc:
            raise LedgerParseError(str(exc), line=line_no) from None
    if ledger.open_round is not None:
        ledger.close_round()
    return ledger
