"""Time two copies of teqtools in one process, input by input, on the opcode meter's inputs.

Separate benchmark processes on a small shared host spread by more than a
change of a few percent moves; one process that runs both copies on each
input in turn can resolve it. Compare the working tree with a revision:

    PYTHONPATH=src python tests/time_ab.py REV                # full input set, 10 rounds
    PYTHONPATH=src python tests/time_ab.py REV --small --rounds 1

REV is a git revision, whose ``src`` tree is extracted with the local
``git archive REV src`` into a temporary directory, or a directory that is
or holds a ``teqtools`` package tree. The copy at REV and the working
tree's ``src/teqtools`` load as two packages under their own names, which
works because every import inside the package is relative.

The inputs and calls are the meter's one table of groups,
``count_opcodes.groups`` (``search``, ``regular``, ``io``; ``regular``
includes the order-24 instance and its two minimal sets), built once per
copy by that copy. After one untimed warm-up round, each round times every
input on both copies in turn, alternating which copy runs first from one
input to the next and from one round to the next. A ratio is the working
tree's time over REV's, so below 1 the working tree is faster. Each input
counts by its median time over the rounds, so one slow call of a
sub-millisecond input does not swing a group. Per group the script prints
the median per-input ratio with its quartiles, the ratio of the summed
per-input medians (the total), and the range of the per-round geometric
means of the per-input ratios. ``--json`` prints the same as one JSON
object.

Each input's result is hashed with the meter's ``digest``, and the script
exits 1 when an input's digest differs between the copies, so a speed-up
that changes an answer does not pass.

What it cannot see: interpreter start-up, import cost and resident memory,
which stay with ``bench/run.py``. Both copies share one heap and one
garbage collector, so one copy's garbage can be collected during the
other's run, and the first calls of a process grow the heap for both; that
is why each copy builds its own inputs, a warm-up round comes first and
the copy that runs first alternates.
"""

import argparse
import importlib.util
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import count_opcodes

REPO = Path(__file__).resolve().parents[1]


def load(name, tree):
    """Import the ``teqtools`` tree at ``tree`` as the package ``name``."""
    spec = importlib.util.spec_from_file_location(name, tree / "__init__.py",
                                                  submodule_search_locations=[str(tree)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def package_dir(rev, tmp):
    """The ``teqtools`` tree of ``rev``: a directory as given, or the revision extracted into ``tmp``."""
    path = Path(rev)
    if path.is_dir():
        return path if (path / "__init__.py").is_file() else path / "teqtools"
    archive = subprocess.run(["git", "archive", rev, "src"], cwd=REPO, capture_output=True, check=True).stdout
    subprocess.run(["tar", "-x", "-C", tmp], input=archive, check=True)
    return Path(tmp) / "src" / "teqtools"


def compare(base, change, rounds):
    """Per group, the ratio summary of ``change`` over ``base``, or the first input whose digests differ."""
    summary = {}
    for (group, *rev), (_, *work) in zip(base, change):
        copies = rev, work
        count = len(rev[1])
        times = [[[] for _ in range(count)] for _ in copies]  # per copy (REV's, the work tree's), per input
        for r in range(rounds + 1):
            for i in range(count):
                digests = [None, None]
                for side in (0, 1) if (r + i) % 2 == 0 else (1, 0):
                    call, inputs = copies[side]
                    start = time.perf_counter()
                    result = call(inputs[i])
                    elapsed = time.perf_counter() - start
                    if r:  # round 0 warms up: the first calls fill each copy's caches and grow the shared heap
                        times[side][i].append(elapsed)
                    digests[side] = count_opcodes.digest(result)
                if digests[0] != digests[1]:
                    return f"{group} input {i}: result {digests[1]} differs from REV's {digests[0]}"
        medians = [[statistics.median(t) for t in side] for side in times]
        per_input = [c / b for b, c in zip(*medians)]
        geomeans = [statistics.geometric_mean(c[r] / b[r] for b, c in zip(*times)) for r in range(rounds)]
        q1, median, q3 = statistics.quantiles(per_input, n=4, method="inclusive")
        summary[group] = {
            "inputs": count,
            "median_ratio": round(median, 4),
            "quartiles": [round(q1, 4), round(q3, 4)],
            "total_ratio": round(sum(medians[1]) / sum(medians[0]), 4),
            "round_geomeans": [round(min(geomeans), 4), round(max(geomeans), 4)],
        }
    return summary


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("rev", help="git revision, or a directory that is or holds a teqtools tree")
    parser.add_argument("--rounds", type=int, default=10, help="runs of each input on each copy (default 10)")
    parser.add_argument("--small", action="store_true", help="the meter's small input set")
    parser.add_argument("--json", action="store_true", help="print the summary as one JSON object")
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    with tempfile.TemporaryDirectory() as tmp:
        base = list(count_opcodes.groups(load("teqtools_rev", package_dir(args.rev, tmp)), args.small))
        change = list(count_opcodes.groups(load("teqtools_work", REPO / "src" / "teqtools"), args.small))
        summary = compare(base, change, args.rounds)
    if isinstance(summary, str):
        print(f"time_ab: {summary}", file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps({"python": platform.python_version(), "cpus": os.cpu_count(), "rev": args.rev,
                          "rounds": args.rounds, "small": args.small, **summary}, indent=2))
    else:
        for group, s in summary.items():
            print(f"{group}: median ratio {s['median_ratio']:.3f} (quartiles {s['quartiles'][0]:.3f}-"
                  f"{s['quartiles'][1]:.3f}) over {s['inputs']} inputs, total {s['total_ratio']:.3f}, "
                  f"round geomeans {s['round_geomeans'][0]:.3f}-{s['round_geomeans'][1]:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
