"""Count the Python opcodes each teqtools function executes on fixed inputs.

A deterministic cost meter for changes to the TEQ recursion. Wall-clock
numbers on a shared host spread by 15% or more between runs of one commit;
opcode counts for a fixed input set repeat exactly, so two commits can be
compared by running this script at each:

    PYTHONPATH=src python tests/count_opcodes.py            # full input set
    PYTHONPATH=src python tests/count_opcodes.py --small    # about a second

Three groups of inputs, built with fixed seeds:

* ``search``: ``search_random`` over the benchmark's seven (order, mode)
  configurations, uniform orders 13, 17, 21, 23 and structured 16, 20, 24;
* ``regular``: ``minimal_retentive_sets`` on relabelled circulant
  tournaments, Paley 31, 43 and 59 plus seeded connection sets at odd
  orders 31 to 45;
* ``io``: ``Tournament(rows)``, ``serialize`` and ``parse`` in turn on the
  rows of the order-24 instance and of seeded random tournaments at orders
  8, 24, 31, 45, 59 and 64.

The circulant, Paley and relabelling builders come from ``tests/conftest.py``,
so the meter needs pytest and hypothesis installed, as the tests do.

Opcode events come from ``sys.settrace`` and are counted only in frames whose
code lives in the teqtools package. Per group, the script prints the total,
the functions that executed the most opcodes, and a digest of the results, so
a change that alters an answer shows in the digest. ``--json`` prints the
same per group as one JSON object (keys ``opcodes``, ``inputs``,
``results`` and ``top``) for scripts to read, with the interpreter version
under ``python``; without ``--small`` it adds the small set's groups under
``small``. Counts vary with the Python version, so compare them under one
interpreter. ``BENCH_opcodes.json`` at the repository root holds both sets
under Python 3.11; this one command rewrites every number in it:

    PYTHONPATH=src python tests/count_opcodes.py --json > BENCH_opcodes.json

``tests/test_count_opcodes.py`` checks the small set's digests against it
under any version. CI, under 3.11, checks that the record names that minor
version, and every digest and total of both sets, totals within 5% of it.

Opcodes do not count the work done inside one big-integer operation in C, so
a kernel that moves a loop into whole-integer arithmetic shows a smaller
opcode drop than, or the opposite of, its wall-time change. Drawing all the
pairs of ``random_tournament`` in 128-bit lanes of one integer cut ``search``
opcodes by 8.4% and the benchmark's median ``search`` op time by 16%; packing
the coverage pass of ``_minimal_sets`` into one integer cut opcodes by 13.7%
and ran 17% slower. Transposing the dominance matrix at once for
``Tournament`` validation, and reading and writing whole rows in ``parse``
and ``serialize``, cut ``io`` opcodes by 93% and the benchmark's median
``regular`` set-up time by 42%. Deciding validity from the packed matrix
and its transpose in a few big-integer steps, with no Python step per row,
then cut ``io`` opcodes by another 51%, from 225,649 to 111,208, though
``parse`` executes more opcodes to check a row's characters in less time.
Mapping each successor of the TEQ orbit step through one digit getter per
automorphism, in place of a Python step per member, and walking a cell's
bits in ``_split`` itself, cut ``regular`` opcodes by 16.3%, from 3,302,263
to 2,763,534, but the benchmark's median ``regular`` ``op_p90_ms`` by 7.7%
(22 alternating 20 s pairs on a 2-CPU host): the getter's string work runs
in C, uncounted, on every mapped set. Time such a change on the benchmark
as well.
"""

import argparse
import collections
import hashlib
import json
import platform
import random
import sys
from pathlib import Path

import teqtools
from teqtools import (SearchConfig, Tournament, build_counterexample, minimal_retentive_sets, parse,
                      random_tournament, search_random, serialize)

from conftest import circulant, quadratic_residues, relabel

PACKAGE = str(Path(teqtools.__file__).resolve().parent)
SEARCH_CONFIGS = ((13, "uniform"), (17, "uniform"), (21, "uniform"), (23, "uniform"),
                  (16, "structured"), (20, "structured"), (24, "structured"))
PALEY_ORDERS = (31, 43, 59)
CIRCULANT_ORDERS = tuple(range(31, 46, 2))
IO_ORDERS = (8, 24, 31, 45, 59, 64)
TOP = 12  # functions listed per group


def search_inputs(small):
    trials, seeds = (2, range(1)) if small else (20, range(3))
    return [SearchConfig(order=order, trials=trials, seed=seed, mode=mode)
            for seed in seeds for order, mode in SEARCH_CONFIGS]


def regular_inputs(small):
    rng = random.Random(9)
    bases = [(p, quadratic_residues(p)) for p in PALEY_ORDERS[:1 if small else 3]]
    for n in CIRCULANT_ORDERS[:1 if small else None]:
        for _ in range(1 if small else 4):
            bases.append((n, [k if rng.getrandbits(1) else n - k for k in range(1, n // 2 + 1)]))
    tournaments = []
    for n, connection in bases:
        perm = list(range(n))
        rng.shuffle(perm)
        tournaments.append(relabel(circulant(n, connection), perm))
    return tournaments


def io_inputs(small):
    return [build_counterexample().tournament.beats] + [
        random_tournament(n, seed).beats for seed in range(1 if small else 5) for n in IO_ORDERS]


def io_round_trip(rows):
    """Validate the rows, write them as text and read the text back."""
    text = serialize(Tournament(rows))
    return text, parse(text).dom_of


def counted(fn, inputs):
    """(opcodes per code object, results) of fn over inputs, counting in teqtools frames only."""
    counts = collections.Counter()

    def local(frame, event, arg):
        if event == "opcode":
            counts[frame.f_code] += 1
        return local

    def calls(frame, event, arg):
        if frame.f_code.co_filename.startswith(PACKAGE):
            frame.f_trace_opcodes = True
            return local
        return None

    previous = sys.gettrace()
    sys.settrace(calls)
    try:
        results = [fn(x) for x in inputs]
    finally:
        sys.settrace(previous)
    return counts, results


def summary(counts, results):
    """Total opcodes, input count, result digest and the busiest functions of one group."""
    by_function = collections.Counter()
    for code, n in counts.items():
        by_function[getattr(code, "co_qualname", code.co_name)] += n
    digest = hashlib.sha256(json.dumps(results, sort_keys=True).encode()).hexdigest()[:16]
    return {"opcodes": sum(by_function.values()), "inputs": len(results), "results": digest,
            "top": [{"function": f, "opcodes": n} for f, n in by_function.most_common(TOP)]}


def print_text(name, group):
    print(f"{name}: {group['opcodes']:,} opcodes over {group['inputs']} inputs, "
          f"results {group['results']}")
    for row in group["top"]:
        print(f"  {row['opcodes']:>12,}  {row['function']}")


def measure(small):
    """The ``search``, ``regular`` and ``io`` groups of the small or the full input set."""
    return {
        "search": summary(*counted(lambda c: search_random(c).to_dict(include_timing=False),
                                   search_inputs(small))),
        "regular": summary(*counted(minimal_retentive_sets, regular_inputs(small))),
        "io": summary(*counted(io_round_trip, io_inputs(small))),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--small", action="store_true", help="a few inputs per group")
    parser.add_argument("--json", action="store_true",
                        help="print the groups as one JSON object; without --small, the small set too")
    args = parser.parse_args(argv)
    groups = measure(args.small)
    if args.json:
        record = {"python": platform.python_version(), **groups}
        if not args.small:
            record["small"] = measure(small=True)
        print(json.dumps(record, indent=2))
    else:
        for name, group in groups.items():
            print_text(name, group)


if __name__ == "__main__":
    main()
