"""Rewrite bench/reference.json: per-op result digests of every workload at seed 0.

    python3 bench/record_reference.py

Run it only at a commit whose results are known to be right; every later
run at seed 0 is checked against what it writes.
"""

import json
import sys

import run


def main() -> int:
    run.use_checkout()
    reference = {}
    for name in run.WORKLOAD_NAMES:
        result = run.run_workload(name, run.DEFAULT_SEED, seconds=0, trace=False)
        if not result["correct"]:
            print(f"{name}: checks failed, reference not written", file=sys.stderr)
            return 1
        reference[name] = result["op_digests"]
    run.REFERENCE_FILE.write_text(json.dumps(reference, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
