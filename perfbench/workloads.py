"""The workloads: seeded CLI argument streams, fixtures and checks.

Each workload turns a seed into an endless, deterministic stream of
`dpledger` command lines (one operation each) and checks every
operation's output against facts the benchmark knows independently.
Operations fall into classes of different cost (microbatch size for
`train`, file shape for `account`); the runner averages each class, so
each class counts once in a run's mix.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

import reference

DELTA = 1e-5
# Holdout accuracy a `train` op must reach. Two clusters 4 standard
# deviations apart are separable to about 98%; the floor leaves room for
# the noise of a private run, not for a broken one.
ACCURACY_FLOOR = 0.9
ACCOUNT_REL_TOL = 1e-9


@dataclass(frozen=True)
class Op:
    """One CLI call. `cls` is its cost class; `rounds` the rounds it
    trains, accounts or plans; `expect` what the check needs."""

    argv: tuple[str, ...]
    cls: str
    rounds: int
    expect: dict


def _field(stdout: str, key: str) -> str | None:
    """Value of the first `key = value` line the CLI printed."""
    prefix = f"{key} = "
    for line in stdout.splitlines():
        if line.startswith(prefix):
            return line[len(prefix) :]
    return None


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


class Train:
    """`dpledger train` for 250 rounds at n = 20000, dim = 100, q = 0.05:
    about 1000 expected records per round, so the round loop dominates.
    Each op has its own data seed and output directory, and ops alternate
    microbatch sizes 1 and 4."""

    name = "train"
    classes = ("mb1", "mb4")
    cycle = 2
    N, DIM, Q, Z = 20000, 100, 0.05, 1.1
    # Fixed, so that op latency does not vary with the seed.
    ROUNDS = 250
    CLIPS = (("weights", 1.0), ("bias", 0.5), ("metrics", 1.0))

    def __init__(self, seed: int, work_dir: Path):
        self.rng = random.Random(f"train/{seed}")
        self.work_dir = work_dir

    def build_fixtures(self) -> None:
        """Each op writes its own output directory; nothing to build."""

    def op(self, i: int) -> Op:
        microbatch = (1, 4)[i % 2]
        data_seed = f"{self.rng.getrandbits(128):032x}"
        out_dir = self.work_dir / f"train-{i}"
        argv = (
            "train", "--policy", "poisson",
            "--n", str(self.N), "--dim", str(self.DIM), "--q", repr(self.Q),
            "--noise-multiplier", repr(self.Z),
            "--clip-weights", repr(self.CLIPS[0][1]),
            "--clip-bias", repr(self.CLIPS[1][1]),
            "--delta", repr(DELTA), "--rounds", str(self.ROUNDS),
            "--microbatch-size", str(microbatch),
            "--seed", data_seed, "--out-dir", str(out_dir),
        )  # fmt: skip
        return Op(argv, self.classes[i % 2], self.ROUNDS, {"out_dir": out_dir})

    def check(self, op: Op, stdout: str, cli_call) -> str | None:
        from dpledger import deserialize

        out_dir = op.expect["out_dir"]
        ledger_path = out_dir / "ledger.txt"
        rounds = deserialize(ledger_path.read_bytes()).rounds()
        if len(rounds) != op.rounds:
            return f"ledger has {len(rounds)} rounds, configured {op.rounds}"
        qn = self.Q * self.N
        root_g = math.sqrt(len(self.CLIPS))
        expected = [(g, c, self.Z * root_g * c / qn * qn) for g, c in self.CLIPS]
        for sample, sums in rounds:
            if (sample.q, sample.n, sample.policy_tag) != (self.Q, self.N, "poisson_iid"):
                return f"round {sample.round_id} records sampling {sample!r}"
            got = [(s.group_name, s.clip_s, s.sigma_sum) for s in sums]
            if len(got) != len(expected) or any(
                g != eg or c != ec or not math.isclose(s, es, rel_tol=1e-12)
                for (g, c, s), (eg, ec, es) in zip(got, expected)
            ):
                return f"round {sample.round_id} records queries {got}"
        report = json.loads((out_dir / "report.json").read_text())
        if report["holdout_accuracy_nonprivate"] < ACCURACY_FLOOR:
            return f"holdout accuracy {report['holdout_accuracy_nonprivate']} < floor"
        rc, account_out = cli_call(
            ("account", "--ledger", str(ledger_path), "--delta", repr(DELTA))
        )
        printed = _field(account_out, "epsilon")
        if rc != 0 or printed is None or printed != report["epsilon"]:
            return f"report epsilon {report['epsilon']} but account printed {printed}"
        return None


@dataclass(frozen=True)
class LedgerSpec:
    """One account fixture: `step` rounds at each sampling rate in `qs`,
    every round with the same (clip, sigma_sum) queries."""

    path: Path
    qs: tuple[float, ...]
    step: int
    n: int
    queries: tuple[tuple[float, float], ...]  # (clip, sigma_sum) per group

    @property
    def rounds(self) -> int:
        return len(self.qs) * self.step

    def write(self) -> None:
        """Write the file through the public Ledger API."""
        from dpledger import Ledger, serialize

        ledger = Ledger()
        for q in self.qs:
            for _ in range(self.step):
                rid = ledger.record_sample(q, self.n, "poisson_iid")
                for g, (clip, sigma) in enumerate(self.queries):
                    ledger.record_sum_query(
                        rid, clip_s=clip, sigma_sum=sigma, group_name=f"layer{g}"
                    )
                ledger.close_round()
        self.path.write_bytes(serialize(ledger))

    def epsilon(self) -> float:
        """The reference's epsilon for this file at DELTA."""
        z = reference.effective_z(self.queries)
        return reference.epsilon([(q, self.step) for q in self.qs], z, DELTA)


def _ledger_spec(rng: random.Random, path: Path, groups: int, rates: int, step: int):
    """A seeded file of `groups` queries whose round multiplier is one z
    in [0.8, 3], with `rates` sampling rates log-uniform in [1e-3, 0.05]."""
    z = rng.uniform(0.8, 3.0)
    clips = [rng.uniform(0.1, 2.0) for _ in range(groups)]
    weights = [rng.uniform(0.5, 2.0) for _ in range(groups)]
    # sigma_g chosen so that the round's effective multiplier is z.
    norm = math.sqrt(sum(a * a for a in weights))
    queries = tuple((c, c * z * norm / a) for c, a in zip(clips, weights))
    qs = tuple(_log_uniform(rng, 1e-3, 0.05) for _ in range(rates))
    return LedgerSpec(path, qs, step, rng.randint(20000, 200000), queries)


class Account:
    """`dpledger account` over three kinds of seeded ledger file, in turn.

    Two fixed files of 20k rounds keep one (q, z) throughout, as in a
    fixed-hyperparameter run: one has 3 groups (the harness's shape), the
    other 12 (per-layer clipping). They are the ledger's read path;
    after an op's first RDP evaluation every round is a cache hit. The
    third kind follows a sampling-rate schedule: 2k rounds of 3 groups
    whose q is redrawn every 10 rounds, so 200 distinct (q, z). Each of
    these ops reads a file of its own, so its RDP evaluations are cold,
    as in a fresh `dpledger` process: this is the RDP kernel's path."""

    name = "account"
    classes = ("g3", "g12", "sched")
    cycle = 3
    # Fixed, so that op latency does not vary with the seed.
    FIXED_ROUNDS = 20000
    SCHED_RATES, SCHED_STEP = 200, 10

    def __init__(self, seed: int, work_dir: Path):
        rng = random.Random(f"account/{seed}")
        self.fixed = [
            _ledger_spec(rng, work_dir / f"ledger-g{g}.txt", g, 1, self.FIXED_ROUNDS)
            for g in (3, 12)
        ]
        # A stream of its own, so the fixed files do not depend on how
        # many schedule files were made.
        self.sched_rng = random.Random(f"account-sched/{seed}")
        self.work_dir = work_dir
        self._expected: dict[Path, float] = {}

    def build_fixtures(self) -> None:
        """Write the fixed files; each schedule op writes its own."""
        for spec in self.fixed:
            spec.write()

    def op(self, i: int) -> Op:
        j = i % self.cycle
        if j < len(self.fixed):
            spec = self.fixed[j]
        else:
            path = self.work_dir / f"sched-{i}.txt"
            spec = _ledger_spec(self.sched_rng, path, 3, self.SCHED_RATES, self.SCHED_STEP)
            spec.write()
        argv = ("account", "--ledger", str(spec.path), "--delta", repr(DELTA))
        return Op(argv, self.classes[j], spec.rounds, {"spec": spec})

    def check(self, op: Op, stdout: str, cli_call) -> str | None:
        spec = op.expect["spec"]
        if spec.path not in self._expected:
            self._expected[spec.path] = spec.epsilon()
        want = self._expected[spec.path]
        printed = _field(stdout, "epsilon")
        if printed is None:
            return "no epsilon printed"
        got = float(printed)
        if not abs(got - want) <= ACCOUNT_REL_TOL * abs(want):
            return f"epsilon {got!r}, reference {want!r}"
        return None


WORKLOADS = {w.name: w for w in (Train, Account)}
