import json
import math
import os
import pathlib
import subprocess
import sys

import pytest

import dpledger
from dpledger import (
    Ledger,
    account_ledger,
    compose_rdp,
    deserialize,
    epsilon_at_delta,
    rdp_step,
    serialize,
)
from dpledger import cli, harness
from dpledger.cli import main

GOLDEN = pathlib.Path(__file__).parent / "golden" / "ledger.txt"
# A 60-digit mpmath sum of each round's A - 1 series gives the golden
# ledger's epsilon as 1.44674952079284553387... at order 9; the constant is
# that value rounded to nearest (0.2 ulp off). test_rdp_properties checks
# the derivation; the constant guards against silent accounting regressions.
GOLDEN_EPSILON = 1.4467495207928456
GOLDEN_ORDER = 9.0

SEED_HEX = "00112233445566778899aabbccddeeff"


def _train(tmp_path, *extra, seed=SEED_HEX):
    """Run a small train into tmp_path / "out"; seed None omits --seed."""
    out = tmp_path / "out"
    argv = [
        "train",
        "--n", "200",
        "--dim", "2",
        "--rounds", "10",
        "--q", "0.05",
        "--noise-multiplier", "1.5",
        "--learning-rate", "0.5",
        "--holdout-n", "100",
        "--delta", "1e-5",
        *(() if seed is None else ("--seed", seed)),
        "--out-dir", str(out),
        *extra,
    ]
    return main(argv), out


# -------------------------------------------------------------- usage errors


def test_account_requires_delta(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["account", "--ledger", str(GOLDEN)])
    assert exc.value.code == 2
    assert "--delta" in capsys.readouterr().err


@pytest.mark.parametrize("delta", ["0", "1", "2", "-1", "nan", "inf"])
@pytest.mark.parametrize(
    "argv",
    [
        ["account", "--ledger", str(GOLDEN)],
        ["calibrate", "--target-epsilon", "2", "--rounds", "10", "--knob", "z",
         "--q", "0.01", "--lo", "0.5", "--hi", "4"],
        ["train", "--n", "200", "--rounds", "1"],
    ],
    ids=["account", "calibrate", "train"],
)  # fmt: skip
def test_delta_outside_open_unit_interval_is_usage_error(
    argv, delta, tmp_path, monkeypatch, capsys
):
    monkeypatch.chdir(tmp_path)  # a train that ran anyway writes here
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--delta", delta])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "delta must be in (0, 1)" in err
    assert "Traceback" not in err


def test_unknown_command_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_account_missing_file(tmp_path, capsys):
    code = main(["account", "--ledger", str(tmp_path / "nope.txt"), "--delta", "1e-5"])
    assert code == 1
    assert "cannot read" in capsys.readouterr().err


def test_account_truncated_file(tmp_path, capsys):
    clipped = tmp_path / "clipped.txt"
    clipped.write_bytes(GOLDEN.read_bytes()[:-1])
    code = main(["account", "--ledger", str(clipped), "--delta", "1e-5"])
    assert code == 1
    assert "truncat" in capsys.readouterr().err


# ------------------------------------------------------------------- account


def test_account_golden_ledger_regression(capsys):
    code = main(["account", "--ledger", str(GOLDEN), "--delta", "1e-5"])
    assert code == 0
    out = capsys.readouterr().out
    assert f"epsilon = {GOLDEN_EPSILON!r}" in out
    assert f"achieving_order = {GOLDEN_ORDER}" in out


def test_account_custom_orders(capsys):
    code = main(
        ["account", "--ledger", str(GOLDEN), "--delta", "1e-5", "--orders", "8,9,10"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert f"epsilon = {GOLDEN_EPSILON!r}" in out  # optimum sits at order 9


def test_account_bad_orders_is_usage_error(capsys):
    for orders in ("1,0.5", "2.5", "2,3.5", "1e12"):
        with pytest.raises(SystemExit) as exc:
            main(
                ["account", "--ledger", str(GOLDEN), "--delta", "1e-5", "--orders", orders]
            )
        assert exc.value.code == 2, orders


# --------------------------------------------------------------------- train


def test_train_then_account_round_trip(tmp_path, capsys):
    code, out = _train(tmp_path)
    assert code == 0
    stdout = capsys.readouterr().out
    assert "epsilon = " in stdout
    report = json.loads((out / "report.json").read_text())
    assert report["refusal"] is None
    eps_train = float(report["epsilon"])
    assert math.isfinite(eps_train)

    code = main(["account", "--ledger", str(out / "ledger.txt"), "--delta", "1e-5"])
    assert code == 0
    assert f"epsilon = {report['epsilon']}" in capsys.readouterr().out

    ledger = deserialize((out / "ledger.txt").read_bytes())
    assert account_ledger(ledger, 1e-5).epsilon == eps_train


def test_train_deterministic_given_seed(tmp_path, capsys):
    _, out1 = _train(tmp_path / "a")
    _, out2 = _train(tmp_path / "b")
    capsys.readouterr()
    assert (out1 / "ledger.txt").read_bytes() == (out2 / "ledger.txt").read_bytes()
    r1 = json.loads((out1 / "report.json").read_text())
    r2 = json.loads((out2 / "report.json").read_text())
    r1.pop("ledger_path"), r2.pop("ledger_path")
    assert r1 == r2


def test_train_without_seed_publishes_no_key(tmp_path, capfdbinary, monkeypatch):
    # A run without --seed is keyed by a fresh new_seed(), which keys the
    # data, every sample and every noise draw. No byte the run writes
    # (stdout, stderr, the report, the ledger) carries that key, raw or as
    # hex in either case.
    key = bytes.fromhex("5eed0badc0ffee15deadbeef0a1b2c3d")
    calls = []
    monkeypatch.setattr(cli, "new_seed", lambda: calls.append(1) or key)
    code, out = _train(tmp_path / "fresh", seed=None)
    assert code == 0 and calls == [1]
    captured = capfdbinary.readouterr()
    outputs = [captured.out, captured.err]
    outputs += [path.read_bytes() for path in sorted(out.iterdir())]
    assert [path.name for path in sorted(out.iterdir())] == ["ledger.txt", "report.json"]
    for blob in outputs:
        for spelling in (key, key.hex().encode(), key.hex().upper().encode()):
            assert spelling not in blob
    # the patched key is the one the run used: --seed with it gives the
    # same report
    _, again = _train(tmp_path / "given", seed=key.hex())
    fresh, given = (json.loads((d / "report.json").read_text()) for d in (out, again))
    fresh.pop("ledger_path"), given.pop("ledger_path")
    assert fresh == given


# Every field report.json carries, and what it is. No other field may
# appear: key material least of all.
REPORT_FIELDS = {
    "achieving_order": "ledger fact: the order the accountant's epsilon is taken at",
    "caveats": "ledger fact: the accountant's caveats",
    "delta": "configuration",
    "epsilon": "ledger fact: the epsilon accounted from the ledger",
    "holdout_accuracy_nonprivate": "labelled non-private measurement",
    "ledger_path": "configuration",
    "metric_estimates": "privatized output",
    "refusal": "ledger fact: the accountant's refusal",
}


@pytest.mark.parametrize("extra", [(), ("--insecure-no-noise",)])
def test_train_report_fields_are_an_allowlist(extra, tmp_path, capsys):
    code, out = _train(tmp_path, *extra)
    assert code == 0
    assert set(json.loads((out / "report.json").read_text())) == set(REPORT_FIELDS)


def test_account_refuses_sensitivity_overflow(tmp_path, capsys):
    # sigma_sum is finite and nonzero, but clip / sigma_sum overflows S*
    path = tmp_path / "tiny-sigma.txt"
    path.write_bytes(
        b"dpledger ledger v1\n"
        b"sample round=0 policy=poisson_iid q=0x1.47ae147ae147bp-7 n=10000\n"
        b"sum round=0 group=weights clip=0x1.0000000000000p+0 "
        b"sigma_sum=0x0.0000000000001p-1022\n"
    )
    code = main(["account", "--ledger", str(path), "--delta", "1e-5"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith("refused: ")
    assert "round 0" in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""


def test_account_refuses_ledger_with_a_round_deleted(tmp_path, capsys):
    lines = GOLDEN.read_bytes().split(b"\n")
    second = next(i for i, ln in enumerate(lines) if ln.startswith(b"sample round=1 "))
    third = next(i for i, ln in enumerate(lines) if ln.startswith(b"sample round=2 "))
    path = tmp_path / "cut.txt"
    path.write_bytes(b"\n".join(lines[:second] + lines[third:]))
    code = main(["account", "--ledger", str(path), "--delta", "1e-5"])
    captured = capsys.readouterr()
    assert code == 1
    assert f"line {second + 1}" in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""


def _three_round_ledger() -> bytes:
    """3 rounds of 3 groups at q = 0.01, 0.02, 0.03, clip 1, sigma_sum 100."""
    led = Ledger()
    for q in (0.01, 0.02, 0.03):
        rid = led.record_sample(q=q, n=10_000, policy_tag="poisson_iid")
        for g in range(3):
            led.record_sum_query(rid, clip_s=1.0, sigma_sum=100.0, group_name=f"g{g}")
        led.close_round()
    return serialize(led)


def _env() -> dict:
    """The environment of a child `python -m dpledger`: this dpledger first."""
    src = str(pathlib.Path(dpledger.__file__).resolve().parents[1])
    path = [src, os.environ.get("PYTHONPATH", "")]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))


def test_account_refuses_an_empty_round_without_a_warning(tmp_path):
    # A file cut after round 2's sample line, and one with round 1's sum
    # lines deleted: each leaves a round with no sum queries, which is
    # refused, never dropped and accounted short. Run as a child process,
    # so that a warning would reach stderr as it does for a user.
    lines = _three_round_ledger().splitlines(keepends=True)
    assert lines[9].startswith(b"sample round=2 ")
    cut = b"".join(lines[:10])
    no_sums = b"".join(ln for ln in lines if not ln.startswith(b"sum round=1 "))
    for data, refused in ((cut, 2), (no_sums, 1)):
        path = tmp_path / f"empty-round-{refused}.txt"
        path.write_bytes(data)
        done = subprocess.run(
            [sys.executable, "-m", "dpledger", "account", "--ledger", str(path),
             "--delta", "1e-5"],
            capture_output=True,
            env=_env(),
            timeout=120,
        )  # fmt: skip
        err = done.stderr.decode()
        assert done.returncode == 1
        assert done.stdout == b""
        assert err.startswith(f"refused: round {refused}: ")
        assert err.count("\n") == 1
        assert "Warning" not in err and "Traceback" not in err


def test_account_refuses_when_every_order_diverges(tmp_path, capsys):
    # S* = 1.2e154 puts 2 z^2 near the smallest normal float, so every
    # term from k = 3 on overflows: orders 3 and 4 both diverge.
    led = Ledger()
    rid = led.record_sample(q=0.5, n=10, policy_tag="poisson_iid")
    led.record_sum_query(rid, clip_s=1.2e154, sigma_sum=1.0, group_name="g")
    led.close_round()
    path = tmp_path / "diverged.txt"
    path.write_bytes(serialize(led))
    argv = ["account", "--ledger", str(path), "--delta", "1e-5", "--orders", "3,4"]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == (
        "refused: every order of the grid diverged; no finite epsilon exists\n"
    )


def test_insecure_train_refused_by_account(tmp_path, capsys):
    code, out = _train(tmp_path, "--insecure-no-noise")
    assert code == 0
    stdout = capsys.readouterr().out
    assert "accounting refused" in stdout
    report = json.loads((out / "report.json").read_text())
    assert report["epsilon"] is None
    assert report["refusal"]

    code = main(["account", "--ledger", str(out / "ledger.txt"), "--delta", "1e-5"])
    captured = capsys.readouterr()
    assert code == 1
    assert "refused" in captured.err


def test_insecure_refusal_names_a_count_not_every_round(tmp_path, capsys):
    # The refusal names a count and a few ids, so its size does not grow
    # with the number of zero-noise rounds.
    led = Ledger()
    for _ in range(20_000):
        rid = led.record_sample(q=0.01, n=60_000, policy_tag="poisson_iid")
        led.record_sum_query(rid, clip_s=1.0, sigma_sum=0.0, group_name="g")
        led.close_round()
    path = tmp_path / "ledger.txt"
    path.write_bytes(serialize(led))
    code = main(["account", "--ledger", str(path), "--delta", "1e-5"])
    err = capsys.readouterr().err
    assert code == 1
    assert len(err.encode()) < 300
    assert "20000 zero-noise round(s) (ids 0, 1," in err


@pytest.mark.parametrize("separation", ["nan", "-1", "inf"])
def test_train_bad_separation_is_refused_without_traceback(
    separation, tmp_path, capsys
):
    code, out = _train(tmp_path, "--separation", separation)
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: separation must be finite and nonnegative")
    assert "Traceback" not in err
    assert not (out / "ledger.txt").exists()


@pytest.mark.parametrize("policy", ["fixed_size_wor", "disjoint_partition"])
def test_account_refuses_a_hand_written_ledger_of_another_policy(
    policy, tmp_path, capsys
):
    led = Ledger()
    for q in (0.01, 0.02, 0.03):
        rid = led.record_sample(q=q, n=10_000, policy_tag=policy)
        led.record_sum_query(rid, clip_s=1.0, sigma_sum=100.0, group_name="g")
        led.close_round()
    path = tmp_path / "ledger.txt"
    path.write_bytes(serialize(led))
    code = main(["account", "--ledger", str(path), "--delta", "1e-5"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith(f"refused: round 0 used policy '{policy}'")
    assert "Traceback" not in captured.err


def test_train_q_below_2_to_the_minus_64_is_refused_without_traceback(
    tmp_path, capsys
):
    # the sampler runs at multiples of 2^-64, so it cannot run this rate
    code, out = _train(tmp_path, "--q", "1e-25")
    assert code == 1
    err = capsys.readouterr().err
    assert err == "error: q must be at least 2**-64, got 1e-25\n"
    assert (out / "ledger.txt").read_bytes() == b""


def test_train_policy_fixed_is_a_usage_error(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        _train(tmp_path, "--policy", "fixed")
    assert exc.value.code == 2
    assert "--policy" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("blocked", ["afile/sub", "ledger.txt/", "report.json/"])
def test_train_unwritable_output_is_refused_without_traceback(
    blocked, tmp_path, capsys, monkeypatch
):
    # a regular file where the output directory should be, or a directory
    # where the ledger or the report should be written: refused before
    # round 0 draws its sample
    draws = []
    draw = harness.draw_sample
    monkeypatch.setattr(harness, "draw_sample", lambda *a: draws.append(a) or draw(*a))
    (tmp_path / "afile").write_text("")
    out = tmp_path / "out"
    if blocked.endswith("/"):
        (out / blocked).mkdir(parents=True)
    else:
        out = tmp_path / blocked
    code = main(
        [
            "train", "--n", "200", "--rounds", "3", "--q", "0.1",
            "--holdout-n", "100", "--delta", "1e-5", "--out-dir", str(out),
        ]
    )
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write output: ")
    assert "Traceback" not in err
    assert draws == []


# ----------------------------------------------------------------- calibrate


def _eps_of(q, z, rounds, delta=1e-5):
    return epsilon_at_delta(compose_rdp([rdp_step(q, z)] * rounds), delta).epsilon


def test_calibrate_z_then_verify(capsys):
    code = main(
        [
            "calibrate", "--target-epsilon", "2", "--delta", "1e-5",
            "--rounds", "1000", "--knob", "z", "--q", "0.01",
            "--lo", "0.5", "--hi", "4",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    z = float(out.splitlines()[0].split("=")[1])
    assert abs(_eps_of(0.01, z, 1000) - 2.0) <= 1e-3
    assert "note:" in out  # tuning-on-private-data warning


def test_calibrate_q_then_verify(capsys):
    code = main(
        [
            "calibrate", "--target-epsilon", "2", "--delta", "1e-5",
            "--rounds", "1000", "--knob", "q", "--z", "1.1",
            "--lo", "1e-4", "--hi", "0.5",
        ]
    )
    assert code == 0
    q = float(capsys.readouterr().out.splitlines()[0].split("=")[1])
    assert abs(_eps_of(q, 1.1, 1000) - 2.0) <= 1e-3


def test_calibrate_into_a_closed_pipe_exits_1_without_traceback():
    # `dpledger calibrate ... | head -1`, where the reader is gone before
    # the output is written: every write to stdout fails with EPIPE.
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run(
            [
                sys.executable, "-m", "dpledger", "calibrate",
                "--target-epsilon", "2", "--delta", "1e-5", "--rounds", "1000",
                "--knob", "z", "--q", "0.01", "--lo", "0.5", "--hi", "4",
            ],
            stdout=write_end,
            stderr=subprocess.PIPE,
            env=_env(),
            timeout=120,
        )  # fmt: skip
    finally:
        os.close(write_end)
    assert done.returncode == 1
    assert b"Traceback" not in done.stderr, done.stderr.decode()


def test_calibrate_infeasible_prints_bracket(capsys):
    code = main(
        [
            "calibrate", "--target-epsilon", "1e-6", "--delta", "1e-5",
            "--rounds", "1000", "--knob", "z", "--q", "0.01",
            "--lo", "0.5", "--hi", "4",
        ]
    )
    assert code == 1
    err = capsys.readouterr().err
    assert "infeasible" in err
    assert "eps(0.5) = " in err and "eps(4.0) = " in err


def test_calibrate_non_finite_tolerance_is_refused(capsys):
    for tolerance in ("inf", "nan"):
        code = main(
            [
                "calibrate", "--target-epsilon", "2", "--delta", "1e-5",
                "--rounds", "1000", "--knob", "z", "--q", "0.01",
                "--lo", "0.5", "--hi", "4", "--tolerance", tolerance,
            ]
        )
        assert code == 1
        assert "error:" in capsys.readouterr().err


def test_calibrate_z_requires_q(capsys):
    code = main(
        [
            "calibrate", "--target-epsilon", "2", "--delta", "1e-5",
            "--rounds", "10", "--knob", "z", "--lo", "0.5", "--hi", "4",
        ]
    )
    assert code == 1
    assert "requires --q" in capsys.readouterr().err
