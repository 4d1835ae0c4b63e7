"""Package structure: ledger bytes -> epsilon loads only the trusted core,
and the package namespace resolves each exported name from its one home."""

import json
import os
import pathlib
import subprocess
import sys

import pytest

import dpledger
from test_cli import GOLDEN, GOLDEN_EPSILON, GOLDEN_ORDER

# Run in a fresh interpreter. sys.modules is read after accounting, so an
# import made inside a function on the epsilon path is caught too.
_ACCOUNT_WITH_CORE_ONLY = """
import json, sys
import dpledger.ledger, dpledger.accountant
with open(sys.argv[1], "rb") as fh:
    ledger = dpledger.ledger.deserialize(fh.read())
guarantee = dpledger.accountant.account_ledger(ledger, 1e-5)
print(json.dumps({
    "epsilon": guarantee.epsilon,
    "order": guarantee.achieving_order,
    "modules": sorted(m for m in sys.modules if m.split(".")[0] == "dpledger"),
    "cryptography": "cryptography" in sys.modules,
}))
"""


def test_ledger_bytes_to_epsilon_loads_only_the_core():
    src = str(pathlib.Path(dpledger.__file__).resolve().parents[1])
    path = [src, os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    done = subprocess.run(
        [sys.executable, "-c", _ACCOUNT_WITH_CORE_ONLY, str(GOLDEN)],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout)
    assert report["epsilon"] == GOLDEN_EPSILON
    assert report["order"] == GOLDEN_ORDER
    assert report["modules"] == [
        "dpledger",
        "dpledger.accountant",
        "dpledger.errors",
        "dpledger.ledger",
    ]
    assert report["cryptography"] is False


def test_every_exported_name_resolves_to_its_definition():
    listed = dir(dpledger)
    for name in dpledger.__all__:
        assert name in listed
        home = f"dpledger.{dpledger._MODULE_OF[name]}"
        assert getattr(dpledger, name).__module__ == home


def test_unknown_name_is_attribute_error_so_submodules_still_import():
    with pytest.raises(AttributeError, match="no_such_name"):
        dpledger.no_such_name
    from dpledger import cli

    assert cli.__name__ == "dpledger.cli"
