"""Tests of the benchmark's own parts: the reference, the checks, the
tracer's data hygiene and the runner's refusal outside a checkout.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import contextlib
import io
import math
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import reference  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from dpledger import Ledger, account_ledger, rdp_step  # noqa: E402
from dpledger import cli  # noqa: E402


def _cli(argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main(list(argv))
    return rc, out.getvalue()


def _small_train(out_dir: Path, seed: str) -> tuple[str, ...]:
    return (
        "train", "--policy", "poisson", "--n", "400", "--dim", "5",
        "--q", "0.05", "--delta", "1e-05", "--rounds", "6",
        "--microbatch-size", "2", "--seed", seed, "--out-dir", str(out_dir),
    )  # fmt: skip


def _trace(argvs) -> spans.Tracer:
    tracer = spans.Tracer()
    for i, argv in enumerate(argvs):
        tracer.op = i
        tracer.install()
        try:
            rc, _ = _cli(argv)
        finally:
            tracer.uninstall()
        assert rc == 0
    return tracer


def test_reference_matches_package_on_benchmark_ranges():
    rng = random.Random(0)
    for _ in range(10):
        q = math.exp(rng.uniform(math.log(1e-3), math.log(0.05)))
        z = rng.uniform(0.8, 3.0)
        got = rdp_step(q, z).values
        want = reference.rdp_orders(q, z)
        for a, b in zip(got, want):
            assert a == pytest.approx(b, rel=1e-9)


def test_reference_epsilon_matches_account_ledger():
    queries = ((1.0, 3.0), (0.5, 2.0), (1.0, 4.0))
    ledger = Ledger()
    for _ in range(50):
        rid = ledger.record_sample(0.02, 10000, "poisson_iid")
        for g, (clip, sigma) in enumerate(queries):
            ledger.record_sum_query(rid, clip_s=clip, sigma_sum=sigma, group_name=f"g{g}")
        ledger.close_round()
    want = reference.epsilon([(0.02, 50)], reference.effective_z(queries), 1e-5)
    assert account_ledger(ledger, 1e-5).epsilon == pytest.approx(want, rel=1e-12)


def test_schedule_file_matches_reference(tmp_path):
    account = workloads.Account(1, tmp_path)
    op = account.op(2)
    spec = op.expect["spec"]
    assert (op.cls, op.rounds, len(set(spec.qs))) == ("sched", 2000, 200)
    rc, out = _cli(op.argv)
    assert rc == 0
    assert account.check(op, out, None) is None


def test_checks_reject_wrong_answers(tmp_path):
    account = workloads.Account(1, tmp_path)
    op = account.op(0)
    spec = account.fixed[0]
    eps = reference.epsilon(
        [(spec.qs[0], spec.rounds)], reference.effective_z(spec.queries), workloads.DELTA
    )
    assert account.check(op, f"epsilon = {eps!r}\n", None) is None
    assert account.check(op, f"epsilon = {eps * (1 + 1e-8)!r}\n", None) is not None
    assert account.check(op, "", None) is not None


def test_op_streams_repeat_for_a_seed(tmp_path):
    for cls in workloads.WORKLOADS.values():
        a, b = cls(5, tmp_path), cls(5, tmp_path)
        assert [a.op(i) for i in range(6)] == [b.op(i) for i in range(6)]
    a, b = workloads.Account(5, tmp_path / "a"), workloads.Account(6, tmp_path / "b")
    assert a.fixed[0].qs != b.fixed[0].qs


def test_span_attributes_are_allow_listed(tmp_path):
    ledger_path = tmp_path / "a" / "ledger.txt"
    tracer = _trace(
        [
            _small_train(tmp_path / "a", "00" * 16),
            ("account", "--ledger", str(ledger_path), "--delta", "1e-05"),
        ]
    )
    assert not tracer.absent
    records = list(tracer.records(0, len(tracer.names)))
    assert {r["name"] for r in records} >= {"cli.main", "ledger.deserialize"}
    for rec in records:
        assert set(rec.get("attrs", {})) <= spans.ALLOWED_ATTRS
    layer = tracer.layer_metrics(0, len(tracer.names))
    assert layer["ledger.bytes_read"] == ledger_path.stat().st_size


def test_train_trace_does_not_depend_on_the_data(tmp_path):
    """Same configuration, different data seeds: the traces may differ
    only in their timing fields."""

    def untimed(seed):
        tracer = _trace([_small_train(tmp_path / seed, seed)])
        return [
            {k: v for k, v in rec.items() if k not in ("start", "end")}
            for rec in tracer.records(0, len(tracer.names))
        ]

    first, second = untimed("01" * 16), untimed("02" * 16)
    assert len(first) > 50
    # Out-dir paths differ by construction, and no span records them.
    assert first == second


def test_missing_target_is_absent_not_a_crash(monkeypatch, tmp_path):
    monkeypatch.setattr(
        spans,
        "TARGETS",
        spans.TARGETS
        + (
            ("dpledger.cli", "no_such_function", "cli.missing", None, None),
            ("dpledger.no_such_module", "f", "missing.module", None, None),
            ("dpledger.prng", "NoSuchClass.method", "missing.method", None, None),
        ),
    )
    tracer = _trace([_small_train(tmp_path / "run", "03" * 16)])
    assert len(tracer.absent) == 3
    assert tracer.layer_metrics(0, len(tracer.names))["trace.absent_targets"] == 3


def test_runner_refuses_a_tree_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "train", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )  # fmt: skip
    assert proc.returncode != 0
    assert proc.stdout == ""
