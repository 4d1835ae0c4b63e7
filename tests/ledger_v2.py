"""Ledger format v2, written out for the tests from its grammar alone.

A reference parser and line writers that share no code with
dpledger.ledger: plain Python, zlib and re, one line at a time, with
nothing kept from one line to the next but what the grammar needs. The
parser builds its Ledger through the public recording methods, one round
at a time, as the rounds' own lines name them.
"""

import re
import zlib

from dpledger import Ledger, LedgerParseError, LedgerUsageError

V2_HEADER = b"dpledger ledger v2\n"
_INT = rb"(0|[1-9][0-9]*)"
_SAMPLE = re.compile(rb"sample policy=(\S+) q=(\S+) n=" + _INT)
_SUM = re.compile(rb"sum group=(\S+) clip=(\S+) sigma_sum=(\S+)")
_END = re.compile(rb"end kind=" + _INT + rb" crc=([0-9a-f]{8})")
_ROUND = re.compile(rb"round ([0-9]{16}) ([0-9]{16}) ([0-9]{5})")
_CLOSE = re.compile(rb"close rounds=" + _INT + rb" check=([0-9]{5})")


def check_value(text: bytes) -> int:
    """(1 * b_0 + 2 * b_1 + ...) mod 65521."""
    total = 0
    for weight, byte in enumerate(text, start=1):
        total += weight * byte
    return total % 65521


def round_line(round_id: int, kind: int) -> bytes:
    text = b"round %016d %016d " % (round_id, kind)
    return text + b"%05d\n" % check_value(text)


def close_line(rounds: int) -> bytes:
    text = b"close rounds=%d " % rounds
    return text + b"check=%05d\n" % check_value(text)


def kind_block(kind: int, sample: tuple, queries) -> bytes:
    """sample: (policy, q, n); queries: (group, clip, sigma_sum) each."""
    policy, q, n = sample
    text = b"sample policy=%s q=%s n=%d\n" % (policy.encode(), q.hex().encode(), n)
    for group, clip, sigma in queries:
        text += b"sum group=%s clip=%s sigma_sum=%s\n" % (
            group.encode(), clip.hex().encode(), sigma.hex().encode()
        )
    text += b"end kind=%d " % kind
    return text + b"crc=%08x\n" % zlib.crc32(text)


def _float(text: bytes, field: str) -> float:
    try:
        value = float.fromhex(text.decode("ascii"))
    except (ValueError, OverflowError):
        value = None
    if value is None or value.hex().encode() != text:
        raise ValueError(f"field {field}={text!r} is not a canonical hex float")
    return value


def reference_deserialize_v2(data: bytes) -> Ledger:
    """Parse v2 one line at a time; every refusal is a LedgerParseError at
    the line of the first fault in file order."""
    if not data.startswith(V2_HEADER):
        raise LedgerParseError("missing or unrecognized header", line=1)
    *lines, partial = data.split(b"\n")
    led = Ledger()
    kinds = []  # each kind's (sample, queries) and its text
    block = None  # the open kind block: [text, sample, queries, checker]
    fresh = None  # a kind no round line has used yet
    rounds, closed = 0, False
    for line_no, line in enumerate(lines[1:], start=2):
        try:
            line.decode("ascii")  # a non-ascii byte is refused at its line
            if closed:
                raise ValueError("data after the close line")
            if block is not None:
                if match := _SUM.fullmatch(line):
                    group, clip, sigma = match.groups()
                    query = (
                        group.decode(), _float(clip, "clip"), _float(sigma, "sigma_sum")
                    )
                    checker = block[3]
                    checker.record_sum_query(
                        checker.open_round, clip_s=query[1], sigma_sum=query[2],
                        group_name=query[0],
                    )  # fmt: skip
                    block[0] += line + b"\n"
                    block[2].append(query)
                    continue
                match = _END.fullmatch(line)
                if match is None:
                    raise ValueError("not a sum or end line")
                kind = int(match[1])
                if kind != len(kinds):
                    raise ValueError("kind out of order")
                text = block[0] + b"end kind=%d " % kind
                if zlib.crc32(text) != int(match[2], 16):
                    raise ValueError("CRC mismatch")
                if block[0] in [known for known, _ in kinds]:
                    raise ValueError("a kind repeats")
                kinds.append((block[0], (block[1], block[2])))
                block, fresh = None, kind
                continue
            if match := _ROUND.fullmatch(line):
                round_id, kind, check = (int(field) for field in match.groups())
                if check_value(line[:40]) != check:
                    raise ValueError("check mismatch")
                if round_id != rounds:
                    raise ValueError("round id is not its position")
                if kind >= len(kinds) or (fresh is not None and kind != fresh):
                    raise ValueError("kind not defined, or not the fresh one")
                fresh = None
                (policy, q, n), queries = kinds[kind][1]
                rid = led.record_sample(q=q, n=n, policy_tag=policy)
                for group, clip, sigma in queries:
                    led.record_sum_query(
                        rid, clip_s=clip, sigma_sum=sigma, group_name=group
                    )
                led.close_round()
                rounds += 1
                continue
            if fresh is not None:
                raise ValueError("a kind is not used by the round after it")
            if match := _SAMPLE.fullmatch(line):
                policy, q, n = match.groups()
                sample = (policy.decode(), _float(q, "q"), int(n))
                checker = Ledger()
                checker.record_sample(q=sample[1], n=sample[2], policy_tag=sample[0])
                block = [line + b"\n", sample, [], checker]
                continue
            if match := _CLOSE.fullmatch(line):
                if check_value(line[: line.index(b"check=")]) != int(match[2]):
                    raise ValueError("close check mismatch")
                if int(match[1]) != rounds:
                    raise ValueError("close count mismatch")
                closed = True
                continue
            raise ValueError("not a v2 line")
        except (ValueError, LedgerUsageError) as exc:
            raise LedgerParseError(str(exc), line=line_no) from None
    if partial:
        raise LedgerParseError("truncated", line=len(lines) + 1)
    if not closed:
        raise LedgerParseError("no close line", line=len(lines) + 1)
    return led

