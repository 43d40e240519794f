"""CLI checks that a transcript row cannot hold.

Output the CLI prints for text inputs is pinned in ``data/cli_transcript.json``
(``test_cli_transcript.py``). What stays here needs bytes that are not UTF-8,
a filesystem side effect or a monkeypatch, argparse wording that differs
between Python versions, or a fresh interpreter, except
``test_not_isomorphic``, which the transcript row
``isomorphic cycle3.txt transitive3.txt`` also covers.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import teqtools
from teqtools import search
from teqtools.cli import main
from teqtools.core import parse

THREE_CYCLE = "3\n010\n001\n100\n"
TRANSITIVE_3 = "3\n011\n001\n000\n"


class TestTeqCommand:
    def test_undecodable_file_is_malformed_input(self, capsys, tmp_path):
        bad = tmp_path / "bin.txt"
        bad.write_bytes(b"\xff\xfe")
        assert main(["teq", str(bad)]) == 3
        out, err = capsys.readouterr()
        assert out == "" and err == (f"teqtools: error: {bad}: 'utf-8' codec can't decode byte 0xff "
                                     "in position 0: invalid start byte\n")


class TestIsomorphicCommand:
    def test_not_isomorphic(self, capsys, tmp_path):
        fa = tmp_path / "a.txt"
        fb = tmp_path / "b.txt"
        fa.write_text(THREE_CYCLE)
        fb.write_text(TRANSITIVE_3)
        assert main(["isomorphic", str(fa), str(fb)]) == 1
        assert capsys.readouterr().out.strip() == "not isomorphic"

    def test_undecodable_second_file_is_malformed_input(self, capsys, tmp_path):
        fa = tmp_path / "a.txt"
        fb = tmp_path / "b.txt"
        fa.write_text(THREE_CYCLE)
        fb.write_bytes(b"3\n0\xe91\n001\n000\n")
        assert main(["isomorphic", str(fa), str(fb)]) == 3
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("teqtools: error: ") and err.count("\n") == 1


class TestSearchCommand:
    def test_witness_dir_created(self, capsys, tmp_path):
        out_dir = tmp_path / "wit"
        assert main(["search", "--order", "6", "--trials", "5", "--seed", "3",
                     "--witness-dir", str(out_dir)]) == 0
        assert out_dir.is_dir()
        assert list(out_dir.iterdir()) == []

    def test_witness_files_written(self, capsys, tmp_path, big_t, embedded_half):
        out_dir = tmp_path / "wit"
        argv = ["search", "--order", "24", "--trials", "3", "--seed", "0", "--mode", "structured",
                "--witness-cap", "2", "--witness-dir", str(out_dir)]
        files = [out_dir / "witness_000.txt", out_dir / "witness_001.txt"]
        assert main(argv + ["--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert (payload["found"], payload["witness_files"]) == (3, [str(path) for path in files])
        assert sorted(out_dir.iterdir()) == files  # the cap holds: no witness_002.txt
        assert all(parse(path.read_text()) == big_t for path in files)
        assert main(argv) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[-2:] == [f"witness written: {path}" for path in files]

    def test_unusable_witness_dir_fails_before_any_trial(self, capsys, tmp_path, monkeypatch):
        afile = tmp_path / "afile"
        afile.write_text("")

        def no_search(config):
            raise AssertionError("search ran before the witness directory was made")

        monkeypatch.setattr(search, "search_random", no_search)
        assert main(["search", "--order", "13", "--trials", "300", "--seed", "1",
                     "--witness-dir", str(afile / "sub")]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("teqtools: error: ")
        assert "Not a directory" in captured.err

    def test_bad_value_with_witness_dir_is_a_usage_error(self, capsys, tmp_path):
        out_dir = tmp_path / "wit"
        assert main(["search", "--order", "10", "--trials", "1", "--seed", "0",
                     "--mode", "structured", "--witness-dir", str(out_dir)]) == 2
        assert not out_dir.exists()


class TestUsageErrors:
    def test_unknown_command(self, capsys):
        # checked by shape, not in the transcript: argparse quotes the choices on 3.11, not on 3.13
        assert main(["frobnicate"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1
        assert err.startswith("teqtools: error: argument command: invalid choice: 'frobnicate'")


class TestStartup:
    def test_import_skips_heavy_stdlib_modules(self):
        # -S keeps site from preloading typing and importlib.resources, which
        # would hide a package import of either; the CLI imports every package
        # module, and on Python >= 3.10 none needs __future__ for its annotations
        heavy = ("__future__", "dataclasses", "inspect", "typing", "importlib.resources")
        env = dict(os.environ, PYTHONPATH=str(Path(teqtools.__file__).parents[1]))
        code = f"import sys, teqtools.cli; print([m for m in {heavy!r} if m in sys.modules])"
        proc = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                              capture_output=True, text=True, check=True)
        assert proc.stdout == "[]\n"
