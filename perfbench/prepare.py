"""One set-up of a workload, in a fresh interpreter.

Imports `dpledger.cli` as a CLI process would and builds the workload's
fixtures into --out. run.py starts this several times and reports the
median wall time as `setup_s`.

    python3 perfbench/prepare.py --workload account --seed 1 --out DIR
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    import dpledger.cli  # noqa: F401  (the import a CLI call pays)

    from workloads import WORKLOADS

    WORKLOADS[args.workload](args.seed, args.out).build_fixtures()
    return 0


if __name__ == "__main__":
    sys.exit(main())
