"""Byte-identical CLI gate: replay a recorded transcript through ``cli.main``.

``data/cli_transcript.json`` holds the input files and, for each command, the
exit code, stdout and stderr the CLI produced when it was recorded. The
commands run in a directory holding those files and the bundled order-24
instance as ``counterexample24.txt``, so every path in the output is relative.
A change that alters any output byte, JSON key or exit code fails here.

The directory and each case come from the recorder's own ``write_inputs`` and
``run`` (``record_cli_transcript.py``), so record and replay cannot drift; both
sides carry ``search`` wall times as ``<time>``.
"""

import json
from pathlib import Path

import pytest

import record_cli_transcript

TRANSCRIPT = json.loads((Path(__file__).parent / "data" / "cli_transcript.json").read_text())


@pytest.fixture
def workdir(tmp_path, monkeypatch, golden_text):
    record_cli_transcript.write_inputs(tmp_path, TRANSCRIPT["files"], golden_text)
    monkeypatch.chdir(tmp_path)


@pytest.mark.parametrize("case", TRANSCRIPT["cases"], ids=lambda c: " ".join(c["argv"]))
def test_replay(case, workdir):
    assert record_cli_transcript.run(case["argv"]) == case


def test_transcript_is_recorded_from_the_current_cases(golden_text):
    # an edit to the recorder's cases or input files fails here until it is re-run;
    # input_files also asserts the premise of each tournament it builds
    assert [case["argv"] for case in TRANSCRIPT["cases"]] == record_cli_transcript.CASES
    assert TRANSCRIPT["files"] == record_cli_transcript.input_files(golden_text)
