"""Append-only record of what was sampled and what was asked, per round.

The ledger is the trust boundary between training and accounting: training
appends one sample event per round (policy, q, n) and one sum-query event
per group query (clip_s, sigma_sum), and the accountant later recomputes
the guarantee from those events alone. Events are never mutated or
removed; rounds carry strictly increasing ids.

The wire format is line-delimited text with a version header. Floats are
written with float.hex() so parsing returns the exact bits that were
recorded: a guarantee recomputed from a file must equal the one computed
in memory, not approximate it. The parser reads back only the spellings
serialize writes, so serialize(deserialize(b)) == b or the parse fails.
Appending events to a ledger appends lines to its serialization, so the
old file is always a byte prefix of the new.
"""

from __future__ import annotations

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
    n: int
    policy_tag: str
    effective: EffectiveQuery | None
    insecure: bool


class Ledger:
    """In-memory event log with explicit round bracketing.

    record_sample opens a round and assigns its id; record_sum_query
    appends to the open round; close_round seals it. Opening a new round
    while one is open is a usage error here (the file parser is more
    lenient, treating the next sample line as an implicit close, so files
    written by simpler producers still load).
    """

    def __init__(self):
        self._events: list[SampleEvent | SumQueryEvent] = []
        self._open_round: int | None = None
        self._next_round: int = 0

    @classmethod
    def _restore(cls, events) -> "Ledger":
        """Rebuild from already-validated events, all rounds closed."""
        ledger = cls()
        ledger._events = list(events)
        rounds = [ev.round_id for ev in ledger._events]
        ledger._next_round = max(rounds) + 1 if rounds else 0
        return ledger

    @property
    def events(self) -> tuple[SampleEvent | SumQueryEvent, ...]:
        return tuple(self._events)

    @property
    def open_round(self) -> int | None:
        return self._open_round

    def record_sample(self, q: float, n: int, policy_tag: str) -> int:
        if self._open_round is not None:
            raise LedgerUsageError(
                f"round {self._open_round} is still open; close_round() first"
            )
        round_id = self._next_round
        self._events.append(SampleEvent(round_id=round_id, q=q, n=n, policy_tag=policy_tag))
        self._open_round = round_id
        self._next_round = round_id + 1
        return round_id

    def record_sum_query(
        self, round_id: int, *, clip_s: float, sigma_sum: float, group_name: str
    ) -> None:
        if self._open_round is None:
            raise LedgerUsageError("no open round; record_sample() first")
        if round_id != self._open_round:
            raise LedgerUsageError(
                f"round {round_id} is not the open round {self._open_round}"
            )
        self._events.append(
            SumQueryEvent(
                round_id=round_id,
                group_name=group_name,
                clip_s=clip_s,
                sigma_sum=sigma_sum,
            )
        )

    def close_round(self) -> None:
        if self._open_round is None:
            raise LedgerUsageError("no open round to close")
        self._open_round = None

    def rounds(self) -> list[tuple[SampleEvent, list[SumQueryEvent]]]:
        """Events regrouped by round, in id order."""
        out: list[tuple[SampleEvent, list[SumQueryEvent]]] = []
        for ev in self._events:
            if isinstance(ev, SampleEvent):
                out.append((ev, []))
            else:
                out[-1][1].append(ev)
        return out

    def insecure_rounds(self) -> tuple[int, ...]:
        """Ids of rounds with any zero-noise sum query, in first-seen order."""
        seen: dict[int, None] = {}
        for ev in self._events:
            if isinstance(ev, SumQueryEvent) and ev.sigma_sum == 0.0:
                seen[ev.round_id] = None
        return tuple(seen)


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
    for sample, queries in ledger.rounds():
        if not queries:
            warnings.warn(
                f"round {sample.round_id} recorded no sum queries; dropping it",
                stacklevel=2,
            )
            continue
        tainted = any(ev.sigma_sum == 0.0 for ev in queries)
        effective = None
        if not tainted:
            try:
                effective = round_compose(queries)
            except ValueError as exc:
                raise SensitivityRangeError(f"round {sample.round_id}: {exc}") from None
        out.append(
            RoundQuery(
                round_id=sample.round_id,
                q=sample.q,
                n=sample.n,
                policy_tag=sample.policy_tag,
                effective=effective,
                insecure=tainted,
            )
        )
    return out


def _fmt_float(x: float) -> str:
    return float(x).hex()


def _parse_float(text: str, line_no: int, field: str) -> float:
    """Only the spelling serialize writes, float.hex(): float.fromhex also
    takes 0x1p-1, 1.0 or a trailing tab, which would not round-trip."""
    try:
        value = float.fromhex(text)
        if value.hex() == text:
            return value
    except ValueError:
        pass
    raise LedgerParseError(
        f"field {field}={text!r} is not a canonical hex float", line=line_no
    )


def _parse_int(text: str, line_no: int, field: str) -> int:
    """Only the canonical spelling serialize writes: 0 or [1-9][0-9]* (the
    text is ASCII, so isdigit means [0-9]+)."""
    if not text.isdigit() or (text[0] == "0" and text != "0"):
        raise LedgerParseError(
            f"field {field}={text!r} is not a canonical integer", line=line_no
        )
    return int(text)


def serialize(ledger: Ledger) -> bytes:
    """Encode a fully closed ledger; see the module docstring for format."""
    if ledger.open_round is not None:
        raise LedgerUsageError(
            f"round {ledger.open_round} is still open; close it before serializing"
        )
    lines = [_HEADER.decode()]
    for ev in ledger.events:
        if isinstance(ev, SampleEvent):
            lines.append(
                f"sample round={ev.round_id} policy={ev.policy_tag} "
                f"q={_fmt_float(ev.q)} n={ev.n}\n"
            )
        else:
            lines.append(
                f"sum round={ev.round_id} group={ev.group_name} "
                f"clip={_fmt_float(ev.clip_s)} sigma_sum={_fmt_float(ev.sigma_sum)}\n"
            )
    return "".join(lines).encode("ascii")


def _fields(body: str, expected: tuple[str, ...], line_no: int) -> dict[str, str]:
    parts = body.split(" ")
    if len(parts) != len(expected):
        raise LedgerParseError(
            f"expected fields {list(expected)}, got {len(parts)} tokens", line=line_no
        )
    out = {}
    for part, key in zip(parts, expected):
        prefix = key + "="
        if not part.startswith(prefix):
            raise LedgerParseError(f"expected {key}=..., got {part!r}", line=line_no)
        out[key] = part[len(prefix) :]
    return out


def deserialize(data: bytes) -> Ledger:
    """Decode bytes produced by serialize back into an appendable Ledger.

    Every event line must end in a newline; a stream that stops mid-line is
    reported as truncation rather than silently loaded short. Errors carry
    1-based line numbers. A sample line implicitly closes the previous
    round; all rounds are closed at end of input.
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
    events: list[SampleEvent | SumQueryEvent] = []
    current_round: int | None = None
    for line_no, line in enumerate(text.splitlines(), start=1):
        if line_no == 1:
            continue
        if not line:
            raise LedgerParseError("blank line", line=line_no)
        kind, _, body = line.partition(" ")
        try:
            if kind == "sample":
                f = _fields(body, ("round", "policy", "q", "n"), line_no)
                round_id = _parse_int(f["round"], line_no, "round")
                if current_round is not None and round_id <= current_round:
                    raise LedgerParseError(
                        f"round ids must be strictly increasing; "
                        f"{round_id} after {current_round}",
                        line=line_no,
                    )
                events.append(
                    SampleEvent(
                        round_id=round_id,
                        q=_parse_float(f["q"], line_no, "q"),
                        n=_parse_int(f["n"], line_no, "n"),
                        policy_tag=f["policy"],
                    )
                )
                current_round = round_id
            elif kind == "sum":
                f = _fields(body, ("round", "group", "clip", "sigma_sum"), line_no)
                round_id = _parse_int(f["round"], line_no, "round")
                if current_round is None:
                    raise LedgerParseError(
                        "sum event before any sample event", line=line_no
                    )
                if round_id != current_round:
                    raise LedgerParseError(
                        f"sum event for round {round_id} inside round "
                        f"{current_round}",
                        line=line_no,
                    )
                events.append(
                    SumQueryEvent(
                        round_id=round_id,
                        group_name=f["group"],
                        clip_s=_parse_float(f["clip"], line_no, "clip"),
                        sigma_sum=_parse_float(f["sigma_sum"], line_no, "sigma_sum"),
                    )
                )
            else:
                raise LedgerParseError(f"unknown event kind {kind!r}", line=line_no)
        except (ValueError, LedgerUsageError) as exc:
            if isinstance(exc, LedgerParseError):
                raise
            raise LedgerParseError(str(exc), line=line_no) from None
    return Ledger._restore(events)
