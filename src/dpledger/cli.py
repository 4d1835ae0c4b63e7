"""Command-line front end: account | calibrate | train.

Every subcommand that touches a guarantee requires an explicit --delta;
there is deliberately no default failure probability. Exit codes: 0 on
success, 1 when the accountant or calibrator refuses (insecure or empty
rounds, a policy other than Poisson, no finite epsilon, infeasible
target, unreadable ledger), train refuses its configuration or cannot
write its output, 2 for usage errors (argparse's convention), which
include a --delta outside the open interval (0, 1).

account and calibrate load numpy and the trusted core alone: ledger,
accountant, allocation and errors. The training stack (harness,
mechanisms, sampling, vectors, prng and cryptography) is imported only
when train runs. new_seed and dp_sgd_train are the names train calls;
each imports its definition on first call, so it stays one module-level
name that a caller can replace.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .accountant import OrderGrid, account_ledger
from .allocation import Knob, calibrate
from .errors import AccountingRefusal, CalibrationError, LedgerParseError
from .ledger import deserialize

_TUNING_NOTE = (
    "note: if this target or configuration was chosen by measuring utility "
    "on the private data, that selection step is not covered by the "
    "reported guarantee"
)


def _parse_orders(text: str) -> OrderGrid:
    try:
        return OrderGrid(tuple(float(tok) for tok in text.split(",") if tok.strip()))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _parse_delta(text: str) -> float:
    try:
        delta = float(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))
    if not 0.0 < delta < 1.0:
        raise argparse.ArgumentTypeError(f"delta must be in (0, 1), got {text}")
    return delta


def _print_guarantee(guarantee) -> None:
    print(f"epsilon = {guarantee.epsilon!r}")
    print(f"delta = {guarantee.delta!r}")
    print(f"achieving_order = {guarantee.achieving_order}")
    for caveat in guarantee.caveats:
        print(f"caveat: {caveat}")


def _cmd_account(args) -> int:
    try:
        with open(args.ledger, "rb") as fh:
            ledger = deserialize(fh)  # block by block, never the whole file
    except OSError as exc:
        print(f"error: cannot read ledger: {exc}", file=sys.stderr)
        return 1
    except LedgerParseError as exc:
        print(f"error: {args.ledger}: {exc}", file=sys.stderr)
        return 1
    try:
        guarantee = account_ledger(ledger, args.delta, grid=args.orders)
    except AccountingRefusal as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 1
    _print_guarantee(guarantee)
    return 0


def _cmd_calibrate(args) -> int:
    knob = Knob.SAMPLING_RATE if args.knob == "q" else Knob.NOISE_MULTIPLIER
    if knob is Knob.SAMPLING_RATE and args.z is None:
        print("error: calibrating q requires --z", file=sys.stderr)
        return 1
    if knob is Knob.NOISE_MULTIPLIER and args.q is None:
        print("error: calibrating z requires --q", file=sys.stderr)
        return 1
    try:
        value = calibrate(
            args.target_epsilon,
            args.delta,
            rounds=args.rounds,
            knob=knob,
            q=args.q,
            z=args.z,
            bounds=(args.lo, args.hi),
            tolerance=args.tolerance,
            grid=args.orders,
        )
    except CalibrationError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        if exc.bracket is not None:
            lo_eps, hi_eps = exc.bracket
            print(
                f"epsilon at bounds: eps({args.lo}) = {lo_eps!r}, "
                f"eps({args.hi}) = {hi_eps!r}",
                file=sys.stderr,
            )
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"{args.knob} = {value!r}")
    print(_TUNING_NOTE)
    return 0


def new_seed() -> bytes:
    from .prng import new_seed

    return new_seed()


def dp_sgd_train(cfg):
    from .harness import dp_sgd_train

    return dp_sgd_train(cfg)


def _cmd_train(args) -> int:
    from .harness import TrainConfig, make_sgd_partition, sigmas_for_target_z

    seed = args.seed if args.seed is not None else new_seed().hex()
    try:
        clips = (args.clip_weights, args.clip_bias, 1.0)
        if args.insecure_no_noise:
            sigmas = (0.0, 0.0, 0.0)
        else:
            sigmas = sigmas_for_target_z(args.noise_multiplier, clips, args.q, args.n)
        partition = make_sgd_partition(
            clip_weights=args.clip_weights,
            clip_bias=args.clip_bias,
            sigma_weights=sigmas[0],
            sigma_bias=sigmas[1],
            sigma_metrics=sigmas[2],
        )
        ledger_path = os.path.join(args.out_dir, "ledger.txt")
        cfg = TrainConfig(
            n=args.n,
            dim=args.dim,
            rounds=args.rounds,
            q=args.q,
            microbatch_size=args.microbatch_size,
            partition=partition,
            learning_rate=args.learning_rate,
            seed=seed,
            delta=args.delta,
            separation=args.separation,
            holdout_n=args.holdout_n,
            insecure_test_mode=args.insecure_no_noise,
            ledger_path=ledger_path,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    report_path = os.path.join(args.out_dir, "report.json")
    try:
        os.makedirs(args.out_dir, exist_ok=True)
        # Create both outputs before round 0, so an unwritable path is
        # refused before any compute. An empty ledger left by a failed run
        # has no header, so it is refused, never accounted short.
        for path in (ledger_path, report_path):
            open(path, "wb").close()
        report = dp_sgd_train(cfg)
        summary = {
            "holdout_accuracy_nonprivate": report.holdout_accuracy,
            "metric_estimates": list(report.metric_estimates),
            "ledger_path": report.ledger_path,
            "epsilon": None
            if report.guarantee is None
            else repr(report.guarantee.epsilon),
            "delta": None if report.guarantee is None else repr(report.guarantee.delta),
            "achieving_order": None
            if report.guarantee is None
            else report.guarantee.achieving_order,
            "caveats": [] if report.guarantee is None else list(report.guarantee.caveats),
            "refusal": report.refusal,
        }
        with open(report_path, "w") as fh:
            json.dump(summary, fh, indent=2, sort_keys=True)
            fh.write("\n")
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:  # such as a q below 2**-64, which no sampler runs
        print(f"error: {exc}", file=sys.stderr)
        return 1

    print(f"holdout accuracy (non-private measurement): {report.holdout_accuracy:.4f}")
    print(f"ledger: {report.ledger_path}")
    print(f"report: {report_path}")
    if report.guarantee is not None:
        _print_guarantee(report.guarantee)
    else:
        print(f"accounting refused: {report.refusal}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dpledger",
        description="Private multi-group aggregation: account, calibrate, train.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_account = sub.add_parser("account", help="recompute a guarantee from a ledger file")
    p_account.add_argument("--ledger", required=True, help="path to a serialized ledger")
    p_account.add_argument(
        "--delta",
        type=_parse_delta,
        required=True,
        help="failure probability in (0, 1) (no default)",
    )
    p_account.add_argument(
        "--orders",
        type=_parse_orders,
        default=None,
        help="comma-separated integer Renyi orders ≥ 2 (default: built-in grid)",
    )
    p_account.set_defaults(func=_cmd_account)

    p_cal = sub.add_parser("calibrate", help="bisect q or z to hit a target epsilon")
    p_cal.add_argument("--target-epsilon", type=float, required=True)
    p_cal.add_argument("--delta", type=_parse_delta, required=True)
    p_cal.add_argument("--rounds", type=int, required=True)
    p_cal.add_argument("--knob", choices=("q", "z"), required=True)
    p_cal.add_argument("--q", type=float, default=None, help="fixed q when tuning z")
    p_cal.add_argument("--z", type=float, default=None, help="fixed z when tuning q")
    p_cal.add_argument("--lo", type=float, required=True, help="lower knob bound")
    p_cal.add_argument("--hi", type=float, required=True, help="upper knob bound")
    p_cal.add_argument(
        "--tolerance",
        type=float,
        default=1e-3,
        help="how far below the target the epsilon found may be (never above)",
    )
    p_cal.add_argument("--orders", type=_parse_orders, default=None)
    p_cal.set_defaults(func=_cmd_calibrate)

    p_train = sub.add_parser("train", help="run the synthetic DP-SGD demo")
    p_train.add_argument("--n", type=int, default=10_000)
    p_train.add_argument("--dim", type=int, default=2)
    p_train.add_argument("--rounds", type=int, default=200)
    p_train.add_argument(
        "--policy",
        choices=("poisson",),
        default="poisson",
        help="Poisson, the one sampling policy the accountant accepts",
    )
    p_train.add_argument("--q", type=float, default=0.01)
    p_train.add_argument("--noise-multiplier", type=float, default=1.1)
    p_train.add_argument("--clip-weights", type=float, default=1.0)
    p_train.add_argument("--clip-bias", type=float, default=0.5)
    p_train.add_argument("--microbatch-size", type=int, default=1)
    p_train.add_argument("--learning-rate", type=float, default=1.0)
    p_train.add_argument("--separation", type=float, default=4.0)
    p_train.add_argument("--holdout-n", type=int, default=1000)
    p_train.add_argument("--delta", type=_parse_delta, required=True)
    p_train.add_argument(
        "--seed", default=None, help="32 hex chars; omitted = fresh secure entropy"
    )
    p_train.add_argument("--out-dir", default="dpledger-out")
    p_train.add_argument(
        "--insecure-no-noise",
        action="store_true",
        help="disable all noise for plumbing tests; the run provides no privacy",
    )
    p_train.set_defaults(func=_cmd_train)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        # Flush here, so a reader that closed the pipe early (`| head -1`)
        # is met inside this try rather than at interpreter exit.
        sys.stdout.flush()
    except BrokenPipeError:
        # The recipe of the Python signal docs' "Note on SIGPIPE": point
        # stdout at devnull so the flush at exit cannot fail again, and
        # exit 1 with no traceback.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
