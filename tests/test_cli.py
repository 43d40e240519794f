import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import teqtools
from teqtools import search
from teqtools.cli import main
from teqtools.core import FormatError, is_isomorphism, members, parse, random_tournament, restrict, serialize

from conftest import circulant, paley_tournament, random_connection_set, relabel

THREE_CYCLE = "3\n010\n001\n100\n"
TRANSITIVE_3 = "3\n011\n001\n000\n"


@pytest.fixture
def cx_file(tmp_path, golden_text):
    path = tmp_path / "cx.txt"
    path.write_text(golden_text)
    return str(path)


@pytest.fixture
def cycle_file(tmp_path):
    path = tmp_path / "cycle.txt"
    path.write_text(THREE_CYCLE)
    return str(path)


class TestTeqCommand:
    def test_three_cycle(self, capsys, cycle_file):
        assert main(["teq", cycle_file]) == 0
        assert capsys.readouterr().out.strip() == "1 2 3"

    def test_undecodable_file_is_malformed_input(self, capsys, tmp_path):
        bad = tmp_path / "bin.txt"
        bad.write_bytes(b"\xff\xfe")
        assert main(["teq", str(bad)]) == 3
        out, err = capsys.readouterr()
        assert out == "" and err == (f"teqtools: error: {bad}: 'utf-8' codec can't decode byte 0xff "
                                     "in position 0: invalid start byte\n")

    def test_lone_carriage_returns_fail_as_parse_does(self, capsys, tmp_path):
        # the file's exact text reaches parse: no newline translation
        text = "3\r011\r001\r000\r"
        bad = tmp_path / "cr.txt"
        bad.write_bytes(text.encode())
        with pytest.raises(FormatError) as raised:
            parse(text)
        assert main(["teq", str(bad)]) == 3
        out, err = capsys.readouterr()
        assert out == "" and err == f"teqtools: error: {raised.value}\n"
        assert "line 1: expected integer order" in err

    def test_crlf_file(self, capsys, tmp_path):
        path = tmp_path / "crlf.txt"
        path.write_bytes(b"3\r\n010\r\n001\r\n100\r\n")
        assert main(["teq", str(path)]) == 0
        assert capsys.readouterr().out == "1 2 3\n"


class TestMinimalRetentiveCommand:
    def test_paley_59_json(self, capsys, tmp_path):
        # a regular order-59 tournament, the largest Paley order under the cap
        path = tmp_path / "paley59.txt"
        perm = random.Random(59).sample(range(59), 59)
        path.write_text(serialize(relabel(paley_tournament(59), perm)))
        assert main(["minimal-retentive", str(path), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["minimal_retentive_sets"] == [list(range(1, 60))]


class TestRetentiveCommand:
    def test_y_half_retentive(self, capsys, cx_file):
        y_indices = ",".join(str(v) for v in range(13, 25))
        assert main(["retentive", cx_file, "--set", y_indices]) == 0
        assert capsys.readouterr().out.strip() == "retentive"

    def test_singleton_not_retentive(self, capsys, cx_file):
        assert main(["retentive", cx_file, "--set", "1"]) == 1
        assert capsys.readouterr().out.strip() == "not retentive"

    def test_garbage_index_is_usage_error(self, cx_file):
        assert main(["retentive", cx_file, "--set", "1,abc"]) == 2

    def test_out_of_range_index(self, capsys, cx_file):
        assert main(["retentive", cx_file, "--set", "25"]) == 2
        assert "out of range" in capsys.readouterr().err


class TestDominatorsCommand:
    def test_alt_out_of_range(self, capsys, cx_file):
        assert main(["dominators", cx_file, "--alt", "25"]) == 2


class TestIsomorphicCommand:
    def test_halves_isomorphic(self, capsys, tmp_path, big_t, instance):
        tx, _ = restrict(big_t, instance.x_set)
        ty, _ = restrict(big_t, instance.y_set)
        fa = tmp_path / "a.txt"
        fb = tmp_path / "b.txt"
        fa.write_text(serialize(tx))
        fb.write_text(serialize(ty))
        assert main(["isomorphic", str(fa), str(fb)]) == 0
        assert "isomorphic:" in capsys.readouterr().out

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

    def test_json_mapping(self, capsys, tmp_path):
        fa = tmp_path / "a.txt"
        fa.write_text(THREE_CYCLE)
        assert main(["isomorphic", str(fa), str(fa), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["isomorphic"] is True
        assert sorted(payload["mapping"]) == [1, 2, 3]

    def test_order_63_not_isomorphic(self, capsys, tmp_path):
        # Out-neighbourhoods of the rotational circulant are transitive; those
        # of the other are not, so the pair is not isomorphic.
        rotational = tuple(range(1, 32))
        other = tuple(d if d % 3 else 63 - d for d in range(1, 32))
        a = circulant(63, rotational)
        b = relabel(circulant(63, other), random.Random(63).sample(range(63), 63))

        def out_neighbourhood_scores(t):
            # Both are vertex-transitive, so any one vertex stands for all.
            within = t.beats[0]
            return sorted((t.beats[u] & within).bit_count() for u in members(within))

        assert out_neighbourhood_scores(a) == list(range(31))
        assert out_neighbourhood_scores(b) != list(range(31))
        fa, fb = tmp_path / "a.txt", tmp_path / "b.txt"
        fa.write_text(serialize(a))
        fb.write_text(serialize(b))
        assert main(["isomorphic", str(fa), str(fb)]) == 1
        assert capsys.readouterr().out.strip() == "not isomorphic"
        assert main(["isomorphic", str(fa), str(fb), "--json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["isomorphic"] is False
        assert payload["mapping"] is None

    def test_order_63_relabelled_copies(self, capsys, tmp_path):
        rng = random.Random(6363)
        connection = random_connection_set(rng, 63)
        fa, fb = tmp_path / "a.txt", tmp_path / "b.txt"
        fa.write_text(serialize(relabel(circulant(63, connection), rng.sample(range(63), 63))))
        fb.write_text(serialize(relabel(circulant(63, connection), rng.sample(range(63), 63))))
        assert main(["isomorphic", str(fa), str(fb), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["isomorphic"] is True
        mapping = [w - 1 for w in payload["mapping"]]
        assert is_isomorphism(parse(fa.read_text()), parse(fb.read_text()), mapping)


class TestGenCommand:
    def test_deterministic(self, capsys):
        main(["gen", "--order", "5", "--seed", "42"])
        first = capsys.readouterr().out
        main(["gen", "--order", "5", "--seed", "42"])
        assert capsys.readouterr().out == first
        assert parse(first) == random_tournament(5, 42)

    def test_json(self, capsys):
        main(["gen", "--order", "4", "--seed", "1", "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert parse(payload["tournament"]) == random_tournament(4, 1)


class TestSearchCommand:
    def test_structured_needs_multiple_of_four(self, capsys):
        assert main(["search", "--order", "10", "--trials", "1", "--seed", "0",
                     "--mode", "structured"]) == 2
        assert capsys.readouterr().err == \
            "teqtools: error: structured mode needs order divisible by 4, got 10\n"

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
