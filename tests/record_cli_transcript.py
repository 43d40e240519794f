"""Record ``data/cli_transcript.json``, the byte-identical CLI gate.

Run it only at a commit whose CLI output is known to be right: the replay test
(``test_cli_transcript.py``) then holds every later change to that output.

    PYTHONPATH=src python tests/record_cli_transcript.py

Every case runs through ``cli.main`` in a fresh directory holding the files
below and the bundled order-24 instance as ``counterexample24.txt``, so paths
in the output are relative. The JSON keeps the files, and for each command its
argv, exit code, stdout and stderr. ``search`` reports wall time, so its
``total time:`` text line and its ``*_seconds`` JSON values are recorded as
``<time>``; a second run writes the same bytes. The replay test sets up its
directory and runs each case through ``write_inputs`` and ``run`` below.

To add a case, append its argv to ``CASES`` (a new input file goes in
``MALFORMED`` or ``input_files``) and re-run the command above. The replay test
fails until the transcript is re-recorded, and the re-recorded file differs
from the old one only in what was added.
"""

import contextlib
import io
import json
import os
import random
import re
import tempfile
from pathlib import Path

import teqtools
from teqtools import cli, core
from teqtools.counterexample import GOLDEN_FILE
from teqtools.teq import minimal_retentive_sets

from conftest import circulant, paley_tournament, random_connection_set, relabel

OUT = Path(__file__).parent / "data" / "cli_transcript.json"

MALFORMED = {
    "empty.txt": "",
    "bad_header.txt": "three\n011\n001\n000\n",
    "bad_order.txt": "65\n",
    "short_rows.txt": "3\n011\n001\n",
    "row_length.txt": "3\n011\n01\n000\n",
    "bad_char.txt": "3\n011\n0x1\n000\n",
    "diagonal.txt": "3\n111\n001\n000\n",
    "trailing.txt": "3\n011\n001\n000\nextra\n",
    "asymmetry.txt": "3\n011\n101\n000\n",
    "completeness.txt": "2\n00\n00\n",
    "pairs_order3.txt": "3\n001\n001\n110\n",
    "pairs_order4.txt": "4\n0010\n0000\n1001\n0100\n",
}

CE = "counterexample24.txt"
SEARCH = ["search", "--order", "13", "--trials", "3", "--seed", "1"]
OUTPUT_FLAGS = ([], ["--quiet"], ["--json"], ["--json", "--quiet"])

CASES = [
    ["verify-counterexample"],
    ["verify-counterexample", "--json"],
    ["verify-counterexample", "--quiet"],
    ["teq", CE],
    ["teq", CE, "--json"],
    ["minimal-retentive", CE],
    ["minimal-retentive", CE, "--json"],
    ["gen", "--order", "64", "--seed", "7"],
    ["gen", "--order", "0", "--seed", "7"],
    ["retentive", CE, "--set", "0,1"],
    ["teq", "missing.txt"],
    *(["teq", name] for name in MALFORMED),
    ["verify-counterexample", "--json", "--quiet"],
    *(["teq", CE, *m] for m in OUTPUT_FLAGS[1::2]),
    *(["minimal-retentive", CE, *m] for m in OUTPUT_FLAGS[1::2]),
    *(["retentive", CE, "--set", s, *m] for s in ("1,2,3,4,5,6,7,8,9,10,11,12", "1,13") for m in OUTPUT_FLAGS),
    *(["dominators", CE, "--alt", "1", *m] for m in OUTPUT_FLAGS),
    ["dominators", CE, "--alt", "1", "--within", "1,2,3,4,5,6,7,8,9,10,11,12"],
    *(["isomorphic", CE, other, *m] for other in ("relabelled24.txt", "random24.txt") for m in OUTPUT_FLAGS),
    *(["gen", "--order", "5", "--seed", "3", *m] for m in OUTPUT_FLAGS[1:]),
    *([*SEARCH, *m] for m in OUTPUT_FLAGS),
    ["search", "--order", "16", "--trials", "2", "--seed", "1", "--mode", "structured"],
    [*SEARCH, "--witness-dir", "witnesses"],
    ["dominators", CE, "--alt", "0"],
    ["retentive", CE, "--set", "a"],
    ["gen", "--order", "-1", "--seed", "1"],
    [*SEARCH, "--time-budget", "-1"],
    ["retentive", CE, "--set", "1_3"],
    ["retentive", CE, "--set", "+3"],
    ["dominators", CE, "--alt", "1", "--within", "1,\u0663"],  # an Arabic-Indic 3
    ["dominators", CE, "--alt", "1_3"],
    ["gen", "--order", "\u0661\u0662", "--seed", "1"],  # Arabic-Indic digits for 12
    ["gen", "--order", "12", "--seed", "+7"],
    # seconds follow the integer rule with at most one "."; "\u0661_0" is an Arabic-Indic 1, "_" and 0
    *([*SEARCH, "--time-budget", b] for b in ("\u0661_0", " 1", "1_0", "0x1", "1e-3", "1e309", "inf", "nan")),
    *([*SEARCH, "--time-budget", b] for b in ("0", "0.5", "10")),  # 0: every trial times out
    [*SEARCH, "--mode", "bogus"],
    # argparse's own usage errors, worded alike on every supported Python
    ["gen", "--order", "5"],
    ["gen", "--order"],
    ["teq", CE, "--frobnicate"],
    ["teq", "cycle3.txt"],
    ["teq", "crlf.txt"],
    ["teq", "cr.txt"],  # a lone "\r" ends no line, so the header is the whole file
    ["minimal-retentive", "paley59.txt", "--json"],
    ["retentive", CE, "--set", ",".join(str(v) for v in range(13, 25))],
    *(["retentive", CE, "--set", s] for s in ("1", "1,abc", "25")),
    ["dominators", CE, "--alt", "25"],
    ["isomorphic", "x_half.txt", "y_half.txt"],
    ["isomorphic", "cycle3.txt", "transitive3.txt"],
    ["isomorphic", "cycle3.txt", "cycle3.txt", "--json"],
    *(["isomorphic", "circulant63.txt", "other63.txt", *m] for m in OUTPUT_FLAGS[::2]),
    ["isomorphic", "copy63_a.txt", "copy63_b.txt", "--json"],
    ["gen", "--order", "5", "--seed", "42"],
    ["gen", "--order", "4", "--seed", "1", "--json"],
    ["search", "--order", "10", "--trials", "1", "--seed", "0", "--mode", "structured"],
]

TIMING = re.compile(r"(total time: |_seconds\": )[^ ,\n]+(  \(max trial [^)]*\))?")
CYCLE = "3\n010\n001\n100\n"


def out_neighbourhood_scores(t: core.Tournament) -> list:
    """Sorted scores inside 0's out-neighbourhood; 0 stands for any vertex of a vertex-transitive t."""
    return sorted((t.beats[u] & t.beats[0]).bit_count() for u in core.members(t.beats[0]))


def input_files(golden: str) -> dict:
    """The malformed files plus the tournaments of the other cases, with the premise of each asserted."""
    t = core.parse(golden)
    n = t.order
    x_half, y_half = (core.restrict(t, h)[0] for h in (core.full_set(12), core.full_set(12) << 12))
    assert core.is_isomorphism(x_half, y_half, list(range(12)))  # x_i maps to y_i
    # a regular order-59 tournament, the largest Paley order under the cap
    paley = relabel(paley_tournament(59), random.Random(59).sample(range(59), 59))
    assert minimal_retentive_sets(paley) == [core.full_set(59)]
    # the rotational circulant's out-neighbourhoods are transitive, the other's are not
    rotational = circulant(63, range(1, 32))
    other = relabel(circulant(63, [d if d % 3 else 63 - d for d in range(1, 32)]),
                    random.Random(63).sample(range(63), 63))
    assert out_neighbourhood_scores(rotational) == list(range(31)) != out_neighbourhood_scores(other)
    rng = random.Random(6363)
    connection = random_connection_set(rng, 63)
    copy_a, copy_b = (relabel(circulant(63, connection), rng.sample(range(63), 63)) for _ in "ab")
    return {**MALFORMED,
            "relabelled24.txt": core.serialize(relabel(t, range(n)[::-1])),  # v renamed n-1-v
            "random24.txt": core.serialize(core.random_tournament(n, 1)),
            "cycle3.txt": CYCLE,
            "transitive3.txt": "3\n011\n001\n000\n",
            "crlf.txt": CYCLE.replace("\n", "\r\n"),
            "cr.txt": "3\r011\r001\r000\r",
            "paley59.txt": core.serialize(paley),
            "x_half.txt": core.serialize(x_half),
            "y_half.txt": core.serialize(y_half),
            "circulant63.txt": core.serialize(rotational),
            "other63.txt": core.serialize(other),
            "copy63_a.txt": core.serialize(copy_a),
            "copy63_b.txt": core.serialize(copy_b)}


def write_inputs(directory: Path, files: dict, golden: str) -> None:
    """Write the files and the instance as ``counterexample24.txt``, with no newline translation."""
    for name, text in {**files, CE: golden}.items():
        (directory / name).write_text(text, newline="")


def run(argv: list) -> dict:
    """One case as recorded: ``search`` wall times become ``<time>``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    stdout = TIMING.sub(r"\1<time>", out.getvalue()) if argv[0] == "search" else out.getvalue()
    return {"argv": argv, "exit": code, "stdout": stdout, "stderr": err.getvalue()}


def main() -> None:
    golden = (Path(teqtools.__file__).parent / "data" / GOLDEN_FILE).read_text()
    files = input_files(golden)
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        write_inputs(Path(tmp), files, golden)
        os.chdir(tmp)
        try:
            cases = [run(argv) for argv in CASES]
        finally:
            os.chdir(cwd)
    OUT.write_text(json.dumps({"files": files, "cases": cases}, indent=1) + "\n")
    print(f"wrote {len(cases)} cases to {OUT}")


if __name__ == "__main__":
    main()
