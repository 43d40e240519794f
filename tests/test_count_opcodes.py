"""The opcode meter's small input set gives the answers recorded in BENCH_opcodes.json.

The digests cover results only, not opcode counts, so this holds under every
Python version; CI checks the counts under the recorded interpreter.
"""

import json
from pathlib import Path

import count_opcodes

RECORD = Path(__file__).resolve().parents[1] / "BENCH_opcodes.json"


def test_small_set_gives_the_recorded_digests(capsys):
    count_opcodes.main(["--small", "--json"])
    now = json.loads(capsys.readouterr().out)
    recorded = json.loads(RECORD.read_text())["small"]
    assert {g: now[g]["results"] for g in recorded} == {g: recorded[g]["results"] for g in recorded}
