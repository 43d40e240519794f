"""Record ``data/cli_transcript.json``, the byte-identical CLI gate.

Run it only at a commit whose CLI output is known to be right: the replay test
(``test_cli_transcript.py``) then holds every later change to that output.

    PYTHONPATH=src python tests/record_cli_transcript.py

Every case runs through ``cli.main`` in a fresh directory holding the files
below and the bundled order-24 instance as ``counterexample24.txt``, so paths
in the output are relative. The JSON keeps the files, and for each command its
argv, exit code, stdout and stderr.

To add a case, append its argv to ``CASES`` (a new input file goes in
``MALFORMED`` or ``input_files``) and re-run the command above. The replay test
fails until the transcript is re-recorded. Check that the re-recorded file
differs from the old one only in the appended case and in the ``search``
timings, which change on every run and which the replay masks.
"""

import contextlib
import io
import json
import os
import tempfile
from pathlib import Path

import teqtools
from teqtools import cli, core
from teqtools.counterexample import GOLDEN_FILE

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
]


def input_files(golden: str) -> dict:
    """The malformed files plus two order-24 files for ``isomorphic``."""
    t = core.parse(golden)
    n = t.order
    # alternative v renamed n-1-v: isomorphic to the instance by construction
    reversed_beats = [core.altset(n - 1 - w for w in core.members(t.beats[n - 1 - v])) for v in range(n)]
    return {**MALFORMED,
            "relabelled24.txt": core.serialize(core.Tournament(reversed_beats)),
            "random24.txt": core.serialize(core.random_tournament(n, 1))}


def run(argv: list) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return {"argv": argv, "exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def main() -> None:
    golden = (Path(teqtools.__file__).parent / "data" / GOLDEN_FILE).read_text()
    files = input_files(golden)
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in {**files, CE: golden}.items():
            (Path(tmp) / name).write_text(text)
        os.chdir(tmp)
        try:
            cases = [run(argv) for argv in CASES]
        finally:
            os.chdir(cwd)
    OUT.write_text(json.dumps({"files": files, "cases": cases}, indent=1) + "\n")
    print(f"wrote {len(cases)} cases to {OUT}")


if __name__ == "__main__":
    main()
