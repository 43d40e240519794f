"""Byte-identical CLI gate: replay a recorded transcript through ``cli.main``.

``data/cli_transcript.json`` holds the input files and, for each command, the
exit code, stdout and stderr the CLI produced when it was recorded. The
commands run in a directory holding those files and the bundled order-24
instance as ``counterexample24.txt``, so every path in the output is relative.
A change that alters any output byte, JSON key or exit code fails here.

The one normalisation: ``search`` reports wall time, so its ``total time:``
text line and its ``*_seconds`` JSON values are masked on both sides. The
transcript is written by ``record_cli_transcript.py``.
"""

import json
import re
from pathlib import Path

import pytest

from teqtools.cli import main

import record_cli_transcript

TRANSCRIPT = json.loads((Path(__file__).parent / "data" / "cli_transcript.json").read_text())
TIMING = re.compile(r"(total time: |_seconds\": )[^ ,\n]+(  \(max trial [^)]*\))?")


def mask_timing(argv, stdout):
    return TIMING.sub(r"\1<time>", stdout) if argv[0] == "search" else stdout


@pytest.fixture
def workdir(tmp_path, monkeypatch, golden_text):
    for name, text in TRANSCRIPT["files"].items():
        (tmp_path / name).write_text(text)
    (tmp_path / "counterexample24.txt").write_text(golden_text)
    monkeypatch.chdir(tmp_path)
    return tmp_path


@pytest.mark.parametrize("case", TRANSCRIPT["cases"], ids=lambda c: " ".join(c["argv"]))
def test_replay(case, workdir, capsys):
    code = main(list(case["argv"]))
    out, err = capsys.readouterr()
    expected = mask_timing(case["argv"], case["stdout"])
    assert (code, mask_timing(case["argv"], out), err) == (case["exit"], expected, case["stderr"])


def test_transcript_is_recorded_from_the_current_cases(golden_text):
    # an edit to the recorder's cases or input files fails here until it is re-run
    assert [case["argv"] for case in TRANSCRIPT["cases"]] == record_cli_transcript.CASES
    assert TRANSCRIPT["files"] == record_cli_transcript.input_files(golden_text)
