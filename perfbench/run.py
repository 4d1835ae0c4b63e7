"""dpledger benchmark: closed-loop CLI workloads with an optional traced run.

    python3 perfbench/run.py --workload train|account \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
`src/`. One client calls `dpledger.cli.main([...])` in-process, one
operation at a time, for S seconds (and at least a few full cycles of the
workload's op classes). Every op's output is checked. The last stdout
line is one JSON object: `correct`, `attempted`, `failed` and `metrics`,
the end-to-end metrics with --trace 0 and the per-layer metrics with
--trace 1. See perfbench/README.md for what each metric means.
"""

from __future__ import annotations

import os

# The program is single-threaded and the load comes from one process; pin
# native thread pools before numpy can start them.
for _var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import importlib.metadata  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import NamedTuple  # noqa: E402

from spans import LAYER_METRICS, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 3
# Ops traced for the per-layer metrics: a fixed prefix of the op stream,
# so every count repeats exactly for a given seed.
TRACED_OPS = {"train": 2, "account": 3}


def cli_call(argv) -> tuple[int, str]:
    """Run `dpledger <argv>` in-process; return (exit code, stdout)."""
    import dpledger.cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = dpledger.cli.main(list(argv))
        except SystemExit as exc:  # argparse usage errors
            rc = exc.code if isinstance(exc.code, int) else 2
    return rc, out.getvalue()


def run_setup(workload: str, seed: int, work: Path) -> float:
    """Wall seconds of one set-up in a fresh interpreter."""
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, str(Path(__file__).with_name("prepare.py")),
         "--workload", workload, "--seed", str(seed), "--out", str(work)],
        check=True, timeout=170,
    )  # fmt: skip
    return time.perf_counter() - start


class Sample(NamedTuple):
    cls: str
    seconds: float
    rounds: int
    traced: bool
    ok: bool


def run_ops(workload, seconds: float, tracer) -> tuple[list[Sample], list[str], int]:
    """Closed loop over the op stream. Returns the samples, the failure
    messages and the number of leading ops whose spans are traced."""
    traced_prefix = TRACED_OPS[workload.name] if tracer else 0
    min_ops = traced_prefix + 2 * workload.cycle
    samples: list[Sample] = []
    failures: list[str] = []
    deadline = time.perf_counter() + seconds
    i = 0
    while i < min_ops or time.perf_counter() < deadline:
        op = workload.op(i)
        # After the traced prefix, whole cycles alternate untraced and
        # traced, so the overhead compares like with like.
        traced = tracer is not None and (
            i < traced_prefix or (i - traced_prefix) // workload.cycle % 2 == 1
        )
        if traced:
            tracer.op = i
            tracer.install()
        error = None
        start = time.perf_counter()
        try:
            rc, stdout = cli_call(op.argv)
        except Exception:  # an op that raises is a failed op, not a crash
            rc, stdout, error = None, "", traceback.format_exc(limit=3)
        elapsed = time.perf_counter() - start
        if traced:
            tracer.uninstall()
        if error is None and rc != 0:
            error = f"exit code {rc}"
        if error is None:
            try:
                error = workload.check(op, stdout, cli_call)
            except Exception:
                error = "check raised: " + traceback.format_exc(limit=3)
        if error is not None:
            failures.append(f"op {i} {' '.join(op.argv)}: {error}")
        samples.append(Sample(op.cls, elapsed, op.rounds, traced, error is None))
        i += 1
    return samples, failures, traced_prefix


def _class_ops(samples, cls) -> list[Sample]:
    """A class's successful ops (all of its ops if none succeeded)."""
    mine = [s for s in samples if s.cls == cls]
    return [s for s in mine if s.ok] or mine


def end_to_end(samples, classes, setup_times) -> tuple[dict, dict]:
    # Throughput of a mix with one average call of each class: the work
    # done over the time it took. A mean over the whole run, not a
    # median over its few calls per class, because the host's speed
    # drifts within a run and the mean weighs every second of it.
    rounds = sum(statistics.fmean(s.rounds for s in _class_ops(samples, c)) for c in classes)
    seconds = sum(statistics.fmean(s.seconds for s in _class_ops(samples, c)) for c in classes)
    metrics = {
        "rounds_per_s": (rounds / seconds, "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "setup_s": (statistics.median(setup_times), "s"),
    }
    detail = {"setup_runs_s": setup_times, "classes": {}}
    for cls in classes:
        latencies = [s.seconds for s in _class_ops(samples, cls)]
        detail["classes"][cls] = {
            "ops": sum(1 for s in samples if s.cls == cls),
            "p50_ms": 1e3 * statistics.median(latencies),
            "max_ms": 1e3 * max(latencies),
        }
    return metrics, detail


def per_layer(tracer, samples, classes, traced_prefix) -> tuple[dict, dict]:
    last = sum(1 for op in tracer.ops if op < traced_prefix)
    layer = tracer.layer_metrics(0, last)
    # Overhead from the ops after the traced prefix, where traced and
    # untraced cycles alternate.
    ratios = []
    for cls in classes:
        mine = [s for s in samples[traced_prefix:] if s.cls == cls and s.ok]
        on = [s.seconds for s in mine if s.traced]
        off = [s.seconds for s in mine if not s.traced]
        if on and off:
            ratios.append(statistics.median(on) / statistics.median(off))
    layer["trace.overhead_pct"] = 100.0 * (statistics.fmean(ratios) - 1.0) if ratios else 0.0
    metrics = {name: (layer[name], unit) for name, unit, _ in LAYER_METRICS}
    detail = {"traced_ops": traced_prefix, "absent": tracer.absent, "spans_written": last}
    return metrics, detail


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def environment(args) -> dict:
    sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
        sha = proc.stdout.strip() if proc.returncode == 0 else None
    versions = {}
    for pkg in ("numpy", "scipy", "cryptography"):
        try:
            versions[pkg] = importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            versions[pkg] = None
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        **versions,
        "git_sha": sha,
        "src_sha256": _source_digest(),
        "threads": {var: os.environ[var] for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "dpledger" / "cli.py").is_file():
        print(f"error: no dpledger sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    work = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        setup_times = [run_setup(args.workload, args.seed, work) for _ in range(SETUP_REPEATS)]
        import dpledger

        if SRC not in Path(dpledger.__file__).resolve().parents:
            print(f"error: dpledger imported from {dpledger.__file__}", file=sys.stderr)
            return 2
        workload = WORKLOADS[args.workload](args.seed, work)
        tracer = Tracer() if args.trace else None
        samples, failures, traced_prefix = run_ops(workload, args.seconds, tracer)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if tracer is None:
        metrics, detail = end_to_end(samples, workload.classes, setup_times)
    else:
        metrics, detail = per_layer(tracer, samples, workload.classes, traced_prefix)
    env = environment(args)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    if tracer is not None:
        (OUT / "traces").mkdir(parents=True, exist_ok=True)
        tracer.write(OUT / "traces" / f"{stem}.jsonl", 0, detail["spans_written"])
    result = {
        "correct": not failures,
        "attempted": len(samples),
        "failed": len(failures),
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    ops = [(s.cls, s.seconds, s.ok, s.traced) for s in samples]
    record = {**result, "env": env, "detail": detail, "failures": failures, "ops": ops}
    (OUT / "results" / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")

    for line in failures[:5]:
        print(f"failed: {line}", file=sys.stderr)
    print("env " + json.dumps(env, sort_keys=True))
    print("detail " + json.dumps(detail, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
