"""Append-only record of what was sampled and what was asked, per round.

The ledger is the trust boundary between training and accounting: training
appends one sample event per round (policy, q, n) and one sum-query event
per group query (clip_s, sigma_sum), and the accountant later recomputes
the guarantee from those events alone. Events are never mutated or
removed; round ids run 0, 1, 2, ... with no gaps.

The wire format is line-delimited text with a version header. Floats are
written with float.hex() so parsing returns the exact bits that were
recorded: a guarantee recomputed from a file must equal the one computed
in memory, not approximate it. The parser reads back only the spellings
serialize writes, so serialize(deserialize(b)) == b or the parse fails,
and it rebuilds the ledger by replaying each line through the Ledger
methods, so a file obeys the same round bracketing as a live run.
Appending events to a ledger appends lines to its serialization, so the
old file is always a byte prefix of the new.
"""

from __future__ import annotations

import re
import warnings
from dataclasses import dataclass

from .errors import (
    InsecureLedgerError,
    LedgerParseError,
    LedgerUsageError,
    SensitivityRangeError,
)
from .mechanisms import EffectiveQuery, round_compose
from .sampling import _check_round
from .vectors import PrivacyTuple, _check_name

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


class Ledger:
    """In-memory log of rounds, each a sample event and its sum queries.

    This is the one definition of round bracketing: record_sample opens
    round len(rounds) and returns that id; record_sum_query appends to the
    open round; close_round seals it. Opening a round while one is open,
    or querying with none open, is a usage error. deserialize replays a
    file through these methods, treating each sample line as closing the
    round before it.
    """

    def __init__(self):
        self._rounds: list[tuple[SampleEvent, list[SumQueryEvent]]] = []
        self._open = False

    @property
    def open_round(self) -> int | None:
        return len(self._rounds) - 1 if self._open else None

    def record_sample(self, q: float, n: int, policy_tag: str) -> int:
        if self._open:
            raise LedgerUsageError(
                f"round {self.open_round} is still open; close_round() first"
            )
        round_id = len(self._rounds)
        sample = SampleEvent(round_id=round_id, q=q, n=n, policy_tag=policy_tag)
        self._rounds.append((sample, []))
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
        if round_id != len(self._rounds) - 1:
            raise LedgerUsageError(
                f"round {round_id} is not the open round {self.open_round}"
            )
        self._rounds[-1][1].append(
            SumQueryEvent(
                round_id=round_id,
                group_name=group_name,
                clip_s=clip_s,
                sigma_sum=sigma_sum,
            )
        )

    def close_round(self) -> None:
        if not self._open:
            raise LedgerUsageError("no open round to close")
        self._open = False

    def rounds(self) -> list[tuple[SampleEvent, list[SumQueryEvent]]]:
        """Each round's sample event and sum queries, in id order (a copy)."""
        return [(sample, list(queries)) for sample, queries in self._rounds]

    def insecure_rounds(self) -> tuple[int, ...]:
        """Ids of rounds with any zero-noise sum query, in id order."""
        return tuple(
            sample.round_id
            for sample, queries in self._rounds
            if any(ev.sigma_sum == 0.0 for ev in queries)
        )


def formal_ledger(ledger: Ledger, *, allow_insecure: bool = False) -> list[RoundQuery]:
    """Reduce a fully closed ledger to one RoundQuery per usable round.

    Rounds with no sum queries carry no privacy cost; they are dropped with
    a warning (an empty round usually means a crashed producer). Rounds
    containing a zero-noise query are refused outright unless
    allow_insecure is set, in which case they surface with effective=None
    so the accountant can mark the guarantee vacuous instead of wrong. A
    round whose clip and noise values put S* out of float range is refused
    with SensitivityRangeError naming the round.
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
    for sample, queries in ledger._rounds:
        if not queries:
            warnings.warn(
                f"round {sample.round_id} recorded no sum queries; dropping it",
                stacklevel=2,
            )
            continue
        effective = None
        if all(ev.sigma_sum != 0.0 for ev in queries):
            try:
                effective = round_compose(queries)
            except ValueError as exc:
                raise SensitivityRangeError(f"round {sample.round_id}: {exc}") from None
        out.append(
            RoundQuery(
                round_id=sample.round_id,
                q=sample.q,
                policy_tag=sample.policy_tag,
                effective=effective,
            )
        )
    return out


def _fmt_float(x: float) -> str:
    return float(x).hex()


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
    for sample, queries in ledger._rounds:
        lines.append(
            f"sample round={sample.round_id} policy={sample.policy_tag} "
            f"q={_fmt_float(sample.q)} n={sample.n}\n"
        )
        for ev in queries:
            lines.append(
                f"sum round={ev.round_id} group={ev.group_name} "
                f"clip={_fmt_float(ev.clip_s)} sigma_sum={_fmt_float(ev.sigma_sum)}\n"
            )
    return "".join(lines).encode("ascii")


def deserialize(data: bytes) -> Ledger:
    """Decode bytes produced by serialize back into an appendable Ledger.

    Lines end in "\\n" only, and the last one too: a stream that stops
    mid-line is reported as truncation rather than silently loaded short.
    Each event line is replayed through the Ledger methods: a sample line
    closes the open round and must carry the next id, so a missing round
    is refused; a sum line must carry the open round's id. All rounds are
    closed at end of input. Errors carry 1-based line numbers.
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
    try:
        text = data.decode("ascii")
    except UnicodeDecodeError as exc:
        raise LedgerParseError(f"not ascii: {exc}") from None
    ledger = Ledger()
    for line_no, line in enumerate(text.split("\n")[1:-1], start=2):
        try:
            match = _EVENT_LINE.fullmatch(line)
            if match is None:
                raise ValueError(f"not a sample or sum event line: {line!r}")
            round_id, policy, q, n, sum_round, group, clip, sigma_sum = match.groups()
            if round_id is not None:
                if ledger.open_round is not None:
                    ledger.close_round()
                expected = ledger.record_sample(
                    q=_parse_float(q, "q"), n=int(n), policy_tag=policy
                )
                if int(round_id) != expected:
                    raise ValueError(
                        f"round ids must be strictly increasing from 0 with no "
                        f"gaps; round {round_id} where {expected} is next"
                    )
            else:
                ledger.record_sum_query(
                    int(sum_round),
                    clip_s=_parse_float(clip, "clip"),
                    sigma_sum=_parse_float(sigma_sum, "sigma_sum"),
                    group_name=group,
                )
        except (ValueError, LedgerUsageError) as exc:
            raise LedgerParseError(str(exc), line=line_no) from None
    if ledger.open_round is not None:
        ledger.close_round()
    return ledger
