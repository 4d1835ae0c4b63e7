"""A test-only writer of ledger format v1.

The library writes v2 and still reads v1. The v1 reader's tests need v1
bytes, so this writes them as the library's v1 writer did: the header,
then for each round its sample line and one sum line per query, each
with the round id, floats as float.hex() and integers in decimal. It
reads a Ledger through its rounds' recorded values only, not through any
text the library keeps.
"""

V1_HEADER = b"dpledger ledger v1\n"


def serialize_v1(ledger) -> bytes:
    """What the v1 writer wrote for a fully closed ledger."""
    assert ledger.open_round is None, "v1 wrote closed rounds only"
    lines = [V1_HEADER]
    round_id = 0
    for rnd, count in ledger._runs:
        sample = rnd.sample
        head = f" policy={sample.policy_tag} q={sample.q.hex()} n={sample.n}\n"
        sums = [
            f" group={ev.group_name} clip={ev.clip_s.hex()} "
            f"sigma_sum={ev.sigma_sum.hex()}\n"
            for ev in rnd.queries
        ]
        for k in range(round_id, round_id + count):
            text = f"sample round={k}{head}" + "".join(f"sum round={k}{s}" for s in sums)
            lines.append(text.encode("ascii"))
        round_id += count
    return b"".join(lines)
