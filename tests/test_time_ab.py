"""The in-process A/B timer, run on the working tree against itself, finds every result equal."""

import count_opcodes
import teqtools
import time_ab


def test_working_tree_against_itself(capsys):
    assert time_ab.main([str(time_ab.REPO / "src" / "teqtools"), "--small", "--rounds", "1"]) == 0
    assert [line.split(":")[0] for line in capsys.readouterr().out.splitlines()] == [
        name for name, _, _ in count_opcodes.groups(teqtools, small=True)]
