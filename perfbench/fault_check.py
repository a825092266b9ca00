"""Check that the benchmark's correctness gate fails wrong results.

Runs validate_suite and oracle_ladder once clean and once with
``--inject-fault 1e-6``: the fault skews the oracle susceptibility inside
``validate.run_equivalence_suite`` (its ``fault`` hook) and, on
oracle_ladder, the benchmark's own reference.  Clean runs must report
error_rate 0 and faulted runs error_rate > 0.  Run from the checkout root::

    python3 perfbench/fault_check.py
"""

import json
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"
CASES = (("validate_suite", 0.0), ("validate_suite", 1e-6),
         ("oracle_ladder", 0.0), ("oracle_ladder", 1e-6))


def error_rate(workload, fault):
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", "1", "--seconds", "2",
         "--trace", "0", "--inject-fault", repr(fault)],
        cwd=RUN.parent.parent, capture_output=True, text=True, timeout=175)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return result["failed"] / result["attempted"], proc.returncode


def main():
    ok = True
    for workload, fault in CASES:
        rate, returncode = error_rate(workload, fault)
        expected = rate > 0.0 and returncode != 0 if fault else rate == 0.0 and returncode == 0
        ok &= expected
        print(f"{workload:15s} fault={fault:<6g} error_rate={rate:.3f} exit={returncode} "
              f"{'ok' if expected else 'UNEXPECTED'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
