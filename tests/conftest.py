"""Shared fixtures and helpers.

The quadrature oracle grid costs hundreds of adaptive integrations, so it is
computed once per session and shared by the accountant unit tests and the
acceptance suite. The fixture records its own wall-clock cost so acceptance
tests can enforce their runtime budgets honestly even when another test
triggered the computation first.
"""

import contextlib
import time
from dataclasses import dataclass

import pytest

import oracles
from dpledger import Ledger

# The grid both the accountant tests and the acceptance gate check against.
# The first six pairs are the acceptance grid; (0.01, 1.1) is extra, used by
# the end-to-end accounting check.
ORACLE_QZ = (
    (0.01, 0.8),
    (0.01, 1.0),
    (0.01, 2.0),
    (0.1, 0.8),
    (0.1, 1.0),
    (0.1, 2.0),
    (0.01, 1.1),
)
ACCEPTANCE_QZ = ORACLE_QZ[:6]
ORACLE_ORDERS = tuple(range(2, 65))


@dataclass(frozen=True)
class OracleTable:
    # (q, z, lam) -> (log forward moment, log reverse moment)
    moments: dict
    elapsed_seconds: float

    def rdp(self, q: float, z: float, lam: int) -> float:
        fwd, rev = self.moments[(q, z, lam)]
        return max(fwd, rev) / (lam - 1.0)

    def forward_rdp(self, q: float, z: float, lam: int) -> float:
        return self.moments[(q, z, lam)][0] / (lam - 1.0)


@pytest.fixture(scope="session")
def oracle_table() -> OracleTable:
    start = time.perf_counter()
    moments = {}
    for q, z in ORACLE_QZ:
        for lam in ORACLE_ORDERS:
            fwd = oracles.log_forward_moment(q, z, lam)
            rev = oracles.log_reverse_moment(q, z, lam)
            moments[(q, z, lam)] = (fwd, rev)
    return OracleTable(moments=moments, elapsed_seconds=time.perf_counter() - start)


def open_ledger(q=1.0, n=1):
    """A fresh ledger whose round 0 is open at rate q and population n, for
    group queries to read q and n from and record in."""
    ledger = Ledger()
    ledger.record_sample(q=q, n=n, policy_tag="poisson_iid")
    return ledger


# One pass/fail line per acceptance criterion, echoed after the run so the
# verdicts are visible even when pytest swallows captured stdout.
ACCEPTANCE_RESULTS: list[tuple[int, str, str]] = []


@contextlib.contextmanager
def criterion(number: int, title: str):
    try:
        yield
    except BaseException:
        ACCEPTANCE_RESULTS.append((number, title, "FAIL"))
        print(f"acceptance {number:02d} FAIL  {title}")
        raise
    ACCEPTANCE_RESULTS.append((number, title, "PASS"))
    print(f"acceptance {number:02d} PASS  {title}")


def pytest_terminal_summary(terminalreporter):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for number, title, verdict in sorted(ACCEPTANCE_RESULTS):
        terminalreporter.write_line(f"criterion {number:02d} {verdict}  {title}")
