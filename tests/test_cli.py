import json
import math
import os
import pathlib
import subprocess
import sys

import pytest

import dpledger
from dpledger import account_ledger, compose_rdp, deserialize, epsilon_at_delta, rdp_step
from dpledger.cli import main

GOLDEN = pathlib.Path(__file__).parent / "golden" / "ledger.txt"
# A 60-digit mpmath sum of each round's A - 1 series gives the golden
# ledger's epsilon as 1.44674952079284553387... at order 9; the constant is
# that value rounded to nearest (0.2 ulp off). test_rdp_properties checks
# the derivation; the constant guards against silent accounting regressions.
GOLDEN_EPSILON = 1.4467495207928456
GOLDEN_ORDER = 9.0

SEED_HEX = "00112233445566778899aabbccddeeff"


def _train(tmp_path, *extra):
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
        "--seed", SEED_HEX,
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

    code = main(
        [
            "account", "--ledger", str(out / "ledger.txt"),
            "--delta", "1e-5", "--allow-insecure",
        ]
    )
    captured = capsys.readouterr()
    assert code == 1  # vacuous guarantees never exit 0
    assert "epsilon = inf" in captured.out
    assert "caveat:" in captured.out


def test_disjoint_train_runs_account_refuses(tmp_path, capsys):
    out = tmp_path / "out"
    code = main(
        [
            "train", "--n", "200", "--dim", "2", "--rounds", "4",
            "--policy", "disjoint", "--batch-size", "50",
            "--noise-multiplier", "1.5", "--learning-rate", "0.5",
            "--holdout-n", "100", "--delta", "1e-5",
            "--seed", SEED_HEX, "--out-dir", str(out),
        ]
    )
    assert code == 0
    assert "accounting refused" in capsys.readouterr().out

    code = main(["account", "--ledger", str(out / "ledger.txt"), "--delta", "1e-5"])
    captured = capsys.readouterr()
    assert code == 1
    assert "disjoint" in captured.err


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


def test_fixed_policy_requires_batch_size(tmp_path, capsys):
    code = main(
        [
            "train", "--n", "200", "--policy", "fixed", "--delta", "1e-5",
            "--out-dir", str(tmp_path / "out"),
        ]
    )
    assert code == 1
    assert "--batch-size" in capsys.readouterr().err


def test_fixed_policy_account_is_caveated(tmp_path, capsys):
    out = tmp_path / "out"
    code = main(
        [
            "train", "--n", "200", "--dim", "2", "--rounds", "4",
            "--policy", "fixed", "--batch-size", "20",
            "--noise-multiplier", "1.5", "--learning-rate", "0.5",
            "--holdout-n", "100", "--delta", "1e-5",
            "--seed", SEED_HEX, "--out-dir", str(out),
        ]
    )
    assert code == 0
    capsys.readouterr()
    code = main(["account", "--ledger", str(out / "ledger.txt"), "--delta", "1e-5"])
    captured = capsys.readouterr()
    assert code == 0
    assert "caveat:" in captured.out

    code = main(
        [
            "account", "--ledger", str(out / "ledger.txt"),
            "--delta", "1e-5", "--no-wor-as-poisson",
        ]
    )
    captured = capsys.readouterr()
    assert code == 1
    assert "refused" in captured.err


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
    src = str(pathlib.Path(dpledger.__file__).resolve().parents[1])
    path = [src, os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
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
            env=env,
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
