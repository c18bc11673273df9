import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import bitmine
from bitmine.cli import main
from bitmine.textio import parse_result, parse_transactions

FIXTURES = Path(__file__).parent / "fixtures"
DATASET = str(FIXTURES / "dataset7.txt")
MINE_FLAGS = ["--epsilon", "4", "--step-bits", "2", "--c1", "0.6", "--c2", "0.3"]
# the CLI's one stderr line for the library's non-monotone warning
NON_MONOTONE = ("warning: non-monotone backend: pruning is best-effort, "
                "result may be incomplete\n")


def read(path):
    return Path(path).read_text(encoding="utf-8")


class TestMine:
    def test_golden_result_byte_identical(self, tmp_path):
        out = tmp_path / "result.txt"
        assert main(["mine", DATASET, *MINE_FLAGS, "--out", str(out)]) == 0
        assert read(out) == read(FIXTURES / "mine7.golden.txt")

    def test_stats_side_file_leaves_result_bytes(self, tmp_path):
        out, stats = tmp_path / "result.txt", tmp_path / "stats.json"
        assert main(["mine", DATASET, *MINE_FLAGS, "--out", str(out),
                     "--stats", str(stats)]) == 0
        assert read(out) == read(FIXTURES / "mine7.golden.txt")
        levels = json.loads(read(stats))
        records, _ = parse_result(read(out))
        assert [r["level"] for r in levels] == list(range(len(levels)))
        assert set(levels[0]) == {"level", "candidates", "kept", "groups",
                                  "pairs", "frequent", "seconds"}
        assert sum(r["frequent"] for r in levels) == len(records)

    @pytest.mark.parametrize("argv", [
        ["mine", DATASET, *MINE_FLAGS, "--step-bits", "17"],
        ["mine", DATASET, *MINE_FLAGS, "--threads", "65"],
        ["oracle", DATASET, "--epsilon", "4", "--max-len", "21"],
    ])
    def test_over_budget_is_usage_error_before_any_work(self, argv, monkeypatch,
                                                        capsys):
        def refuse(path):
            raise AssertionError("input loaded despite an over-budget request")

        monkeypatch.setattr("bitmine.cli._load_transactions", refuse)
        assert main(argv) == 1
        assert "must be in 1.." in capsys.readouterr().err

    def test_level_over_the_candidate_cap_is_usage_error(self, monkeypatch,
                                                         capsys):
        monkeypatch.setattr("bitmine.miner.MAX_LEVEL_CANDIDATES", 1)
        assert main(["mine", DATASET, *MINE_FLAGS]) == 1
        assert "over the cap of 1" in capsys.readouterr().err

    def test_refused_level_still_writes_stats(self, monkeypatch, tmp_path):
        # levels 0-2 generate 6, 24 and 96 candidates; level 3 would
        # generate 384
        monkeypatch.setattr("bitmine.miner.MAX_LEVEL_CANDIDATES", 100)
        out, stats = tmp_path / "result.txt", tmp_path / "stats.json"
        assert main(["mine", DATASET, *MINE_FLAGS, "--out", str(out),
                     "--stats", str(stats)]) == 1
        assert not out.exists()
        records = json.loads(read(stats))
        assert [r["candidates"] for r in records] == [6, 24, 96, 384]
        assert [r["level"] for r in records] == [0, 1, 2, 3]
        assert records[-1] == {"level": 3, "candidates": 384, "cap": 100,
                               "refused": True}
        assert all(set(r) == {"level", "candidates", "kept", "groups", "pairs",
                              "frequent", "seconds"} for r in records[:-1])

    def test_threads_do_not_change_output_bytes(self, tmp_path):
        outs = []
        for threads in ("1", "8"):
            out = tmp_path / f"t{threads}.txt"
            assert main(["mine", DATASET, *MINE_FLAGS,
                         "--threads", threads, "--out", str(out)]) == 0
            outs.append(read(out))
        assert outs[0] == outs[1]

    def test_epsilon_above_count_gives_empty_result(self, tmp_path):
        out = tmp_path / "empty.txt"
        assert main(["mine", DATASET, "--epsilon", "99", "--step-bits", "2",
                     "--c1", "0.6", "--c2", "0.3", "--out", str(out)]) == 0
        records, _ = parse_result(read(out))
        assert records == []

    def test_fractional_epsilon_suffix(self, tmp_path):
        # 0.3f of 12 transactions resolves to ceil(3.6) = 4
        out = tmp_path / "frac.txt"
        assert main(["mine", DATASET, "--epsilon", "0.3f", "--step-bits", "2",
                     "--c1", "0.6", "--c2", "0.3", "--out", str(out)]) == 0
        frac_records, _ = parse_result(read(out))
        golden_records, _ = parse_result(read(FIXTURES / "mine7.golden.txt"))
        assert frac_records == golden_records

    def test_empty_transaction_file_is_data_error(self, tmp_path, capsys):
        empty = tmp_path / "empty_input.txt"
        empty.write_text("# nothing here\n")
        assert main(["mine", str(empty), *MINE_FLAGS]) == 2
        assert "no transactions" in capsys.readouterr().err

    def test_malformed_line_names_line_number(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("0101\n01x1\n")
        assert main(["mine", str(bad), *MINE_FLAGS]) == 2
        assert "line 2" in capsys.readouterr().err

    def test_external_backend_refused_in_sound_mode(self, capsys):
        assert main(["mine", DATASET, *MINE_FLAGS,
                     "--backend", "external:cat"]) == 1
        assert "heuristic" in capsys.readouterr().err

    def test_external_backend_heuristic_stamps_approximate(self, tmp_path,
                                                           capsys):
        out = tmp_path / "heur.txt"
        assert main(["mine", DATASET, *MINE_FLAGS, "--backend",
                     "external:cat", "--mode", "heuristic",
                     "--max-level", "1", "--out", str(out)]) == 0
        assert capsys.readouterr().err == NON_MONOTONE
        _, header = parse_result(read(out))
        assert header["approximate"] == "true"

    def test_unknown_backend_is_usage_error(self):
        assert main(["mine", DATASET, *MINE_FLAGS, "--backend", "zstd"]) == 1

    def test_missing_epsilon_is_usage_error(self, capsys):
        assert main(["mine", DATASET]) == 1
        assert "usage error:" in capsys.readouterr().err

    def test_failing_compressor_is_backend_error(self, capsys):
        assert main(["mine", DATASET, "--epsilon", "1", "--backend",
                     "external:false", "--mode", "heuristic"]) == 3
        err = capsys.readouterr().err
        assert err.startswith(NON_MONOTONE)
        assert "backend error:" in err and ".py:" not in err

    def test_missing_input_file_is_data_error(self, tmp_path):
        assert main(["mine", str(tmp_path / "nope.txt"), *MINE_FLAGS]) == 2

    @pytest.mark.parametrize("command", ["mine", "oracle"])
    def test_additive_variant_writes_c3_and_c4(self, tmp_path, command):
        out = tmp_path / "result.txt"
        flags = {"mine": ["--step-bits", "2"], "oracle": ["--max-len", "6"]}
        assert main([command, DATASET, "--epsilon", "4", *flags[command],
                     "--variant", "additive", "--c3", "1.5", "--c4", "2",
                     "--out", str(out)]) == 0
        _, header = parse_result(read(out))
        assert (header["variant"], header["c3"], header["c4"]) == \
            ("additive", "1.5", "2.0")
        assert "c1" not in header and "c2" not in header

    def test_group_members_across_an_entropy_bound(self, tmp_path, capsys):
        # KT order-3 signature groups whose members' L(x) differ by
        # rounding, with the entropy bound after the first transaction on
        # the smaller value: every count reported is ``frequency``'s, and
        # the oracle agrees
        data, out = tmp_path / "data.txt", tmp_path / "result.txt"
        data.write_text("0110100110010110" * 4 + "\n"
                        + "0011101001011100011010111" * 6 + "\n")
        flags = ["--order", "3", "--variant", "additive",
                 "--c3", "36.73830516120686", "--c4", "1000000",
                 "--epsilon", "2"]
        assert main(["mine", str(data), *flags, "--step-bits", "2",
                     "--max-level", "6", "--out", str(out)]) == 0
        records, _ = parse_result(read(out))
        counts = {x: count for x, count, _, _ in records}
        assert counts["01111111010110"] == 2
        assert "10010100000001" not in counts
        backend = bitmine.KTBackend(3)
        params = bitmine.OccurrenceParams(variant="additive",
                                          c3=36.73830516120686, c4=1e6)
        T = bitmine.TransactionSet(parse_transactions(read(data).splitlines()))
        assert counts == {x: bitmine.frequency(backend, params, T, x)
                          for x in counts}
        capsys.readouterr()
        assert main(["oracle", str(data), *flags, "--max-len", "14",
                     "--diff", str(out)]) == 0
        assert capsys.readouterr().out.startswith("identical")


def _refuse(*args):
    raise AssertionError("code_len called")


class TestOracle:
    def test_diff_against_mine_output_is_identical(self, capsys):
        assert main(["oracle", DATASET, "--epsilon", "4", "--max-len", "15",
                     "--c1", "0.6", "--c2", "0.3",
                     "--diff", str(FIXTURES / "mine7.golden.txt")]) == 0
        assert "identical" in capsys.readouterr().out

    def test_diff_detects_mismatch(self, tmp_path, capsys):
        doctored = tmp_path / "doctored.txt"
        lines = read(FIXTURES / "mine7.golden.txt").splitlines()
        kept = [ln for ln in lines if not ln.startswith("0 ")]
        doctored.write_text("\n".join(kept) + "\n")
        assert main(["oracle", DATASET, "--epsilon", "4", "--max-len", "15",
                     "--c1", "0.6", "--c2", "0.3", "--diff", str(doctored)]) == 2
        assert "MISMATCH" in capsys.readouterr().err

    def test_writes_result_file(self, tmp_path):
        out = tmp_path / "oracle.txt"
        assert main(["oracle", DATASET, "--epsilon", "6", "--max-len", "6",
                     "--c1", "0.6", "--c2", "0.3", "--out", str(out)]) == 0
        records, header = parse_result(read(out))
        assert header["epsilon"] == "6"
        assert all(count >= 6 for _, count, _, _ in records)

    def test_diff_writes_out_on_a_match_and_a_mismatch(self, tmp_path,
                                                       capsys):
        # stdout keeps the verdict alone; --out gets the oracle's result
        diff = ["--diff", str(FIXTURES / "mine7.golden.txt")]
        for max_len, status in (("15", 0), ("10", 2)):
            plain, out = tmp_path / "plain.txt", tmp_path / "out.txt"
            argv = ["oracle", DATASET, "--epsilon", "4", "--c1", "0.6",
                    "--c2", "0.3", "--max-len", max_len]
            assert main([*argv, "--out", str(plain)]) == 0
            capsys.readouterr()
            assert main([*argv, *diff, "--out", str(out)]) == status
            verdict = capsys.readouterr().out
            assert verdict == ("identical: 341 patterns\n" if status == 0
                               else "")
            assert read(out) == read(plain)

    @pytest.mark.parametrize("flags, coder", [
        (["--order", "1"], bitmine.KTBackend(1)),
        (["--backend", "lz"], bitmine.LZBackend()),
    ], ids=["kt1", "lz"])
    def test_out_writes_the_lengths_the_oracle_coded(self, flags, coder,
                                                     tmp_path, monkeypatch):
        argv = ["oracle", DATASET, *flags, "--epsilon", "4", "--max-len",
                "10", "--c1", "0.6", "--c2", "0.3", "--out"]
        first, second = tmp_path / "first.txt", tmp_path / "second.txt"
        assert main([*argv, str(first)]) == 0
        rows = [ln.split() for ln in read(first).splitlines()
                if not ln.startswith("#")]
        assert rows
        assert all(length == f"{coder.code_len(p):.6f}"
                   for p, _, length, _ in rows)
        # no pattern is coded again for the file
        for cls in (bitmine.KTBackend, bitmine.LZBackend):
            monkeypatch.setattr(cls, "code_len", _refuse)
        assert main([*argv, str(second)]) == 0
        assert read(second) == read(first)

    def test_stats_side_file_leaves_result_bytes(self, tmp_path, capsys):
        argv = ["oracle", DATASET, "--epsilon", "4", "--max-len", "10",
                "--c1", "0.6", "--c2", "0.3"]
        plain, out = tmp_path / "plain.txt", tmp_path / "result.txt"
        stats = tmp_path / "stats.json"
        assert main([*argv, "--out", str(plain)]) == 0
        assert main([*argv, "--out", str(out), "--stats", str(stats)]) == 0
        assert read(out) == read(plain)
        classes = json.loads(read(stats))
        assert [r["width"] for r in classes] == list(range(1, 11))
        assert set(classes[0]) == {"width", "strings", "kept", "groups",
                                   "pairs", "min_code_len",
                                   "termination_covered"}
        # a diff writes them too, also one that finds a mismatch (the
        # golden mine has an 11-bit pattern)
        stats.unlink()
        assert main([*argv, "--stats", str(stats),
                     "--diff", str(FIXTURES / "mine7.golden.txt")]) == 2
        assert json.loads(read(stats)) == classes

    def test_must_cover_termination_flag_is_data_error_here(self, capsys):
        assert main(["oracle", DATASET, "--epsilon", "4", "--max-len", "8",
                     "--c1", "0.6", "--c2", "0.3",
                     "--must-cover-termination"]) == 2

    def test_refused_enumeration_still_writes_stats(self, tmp_path, capsys):
        # the classes enumerated before the refusal go to --stats, as the
        # levels run before a refused level do for mine
        stats = tmp_path / "stats.json"
        assert main(["oracle", DATASET, "--epsilon", "4", "--max-len", "8",
                     "--c1", "0.6", "--c2", "0.3", "--must-cover-termination",
                     "--stats", str(stats)]) == 2
        assert "enumeration may be incomplete" in capsys.readouterr().err
        classes = json.loads(read(stats))
        assert [r["width"] for r in classes] == list(range(1, 9))
        assert not any(r["termination_covered"] for r in classes)


class TestNcd:
    def test_golden_matrix(self, tmp_path):
        out = tmp_path / "m.txt"
        assert main(["ncd", str(FIXTURES / "corpus10.txt"),
                     "--measure", "ncd", "--out", str(out)]) == 0
        assert read(out) == read(FIXTURES / "ncd10.golden.txt")

    def test_two_identical_items_symmetric(self, tmp_path, capsys):
        f = tmp_path / "pair.txt"
        f.write_text("00000000000000000000\n00000000000000000000\n")
        assert main(["ncd", str(f)]) == 0
        rows = [ln for ln in capsys.readouterr().out.splitlines()
                if ln and not ln.startswith(("#", "labels:"))]
        assert len(rows) == 2
        assert rows[0].split() == rows[1].split()[::-1] or rows[0] == rows[1]

    def test_single_item_is_usage_error(self, tmp_path):
        f = tmp_path / "one.txt"
        f.write_text("0101\n")
        assert main(["ncd", str(f)]) == 1

    @pytest.mark.parametrize("text", ["", "# a comment, no items\n"])
    def test_input_without_transactions_is_data_error(self, tmp_path, capsys,
                                                       text):
        f = tmp_path / "none.txt"
        f.write_text(text)
        assert main(["ncd", str(f)]) == 2
        assert f"{f}: no transactions" in capsys.readouterr().err

    def test_empty_input_file_is_data_error(self, tmp_path, capsys):
        a, empty = tmp_path / "a.bin", tmp_path / "empty.bin"
        a.write_bytes(b"aaaaaaaaaa")
        empty.write_bytes(b"")
        assert main(["ncd", str(a), str(empty), str(a)]) == 2
        assert str(empty) in capsys.readouterr().err

    def test_failing_compressor_is_backend_error(self, capsys):
        assert main(["ncd", str(FIXTURES / "corpus10.txt"),
                     "--backend", "external:false"]) == 3
        assert "backend error:" in capsys.readouterr().err

    def test_compressor_without_output_is_backend_error(self, capsys):
        assert main(["ncd", str(FIXTURES / "corpus10.txt"),
                     "--backend", "external:true"]) == 3
        assert "backend error: external compressor produced no output" in \
            capsys.readouterr().err

    @pytest.mark.parametrize("timeout", ["inf", "nan", "0", "-1"])
    def test_bad_external_timeout_is_refused_before_running(
            self, tmp_path, capsys, timeout):
        ran = tmp_path / "ran"
        assert main(["ncd", str(FIXTURES / "corpus10.txt"), "--backend",
                     f"external:touch {ran}", "--timeout", timeout]) == 1
        assert f"timeout must be finite and > 0, not {float(timeout)!r}" in \
            capsys.readouterr().err
        assert not ran.exists()

    def test_unknown_measure_is_usage_error(self):
        assert main(["ncd", str(FIXTURES / "corpus10.txt"),
                     "--measure", "hamming"]) == 1

    def test_multiple_files_as_items(self, tmp_path, capsys):
        a, b = tmp_path / "a.bin", tmp_path / "b.bin"
        a.write_bytes(b"aaaaaaaaaa")
        b.write_bytes(b"ababababab")
        assert main(["ncd", str(a), str(b)]) == 0
        assert "labels:" in capsys.readouterr().out

    def test_lz_codes_long_items(self, tmp_path, capsys):
        # two 20,000-bit items: about 1,500 LZ phrases each
        rng = random.Random(22)
        f = tmp_path / "long.txt"
        f.write_text("".join(f"hex:{rng.getrandbits(20_000):05000x}\n"
                             for _ in range(2)))
        assert main(["ncd", str(f), "--backend", "lz"]) == 0
        rows = [ln.split() for ln in capsys.readouterr().out.splitlines()
                if ln and not ln.startswith(("#", "labels:"))]
        assert [len(r) for r in rows] == [2, 2]


class TestFileErrors:
    """Files that cannot be read or written, or are not UTF-8: exit 2."""

    @pytest.mark.parametrize("argv", [
        ["mine", "{dir}", *MINE_FLAGS],
        ["oracle", DATASET, "--epsilon", "4", "--diff", "{dir}"],
        ["ncd", DATASET, "{dir}"],
    ], ids=["mine", "oracle-diff", "ncd"])
    def test_input_path_that_is_a_directory_is_data_error(self, tmp_path,
                                                          capsys, argv):
        assert main([a.format(dir=tmp_path) for a in argv]) == 2
        assert f"data error: [Errno 21] Is a directory: '{tmp_path}'" in \
            capsys.readouterr().err

    def test_diff_file_that_is_not_utf8_is_data_error(self, tmp_path, capsys):
        bad = tmp_path / "result.txt"
        bad.write_bytes(b"# bitmine result\n\xff 1 1.0 1\n")
        assert main(["oracle", DATASET, "--epsilon", "4",
                     "--diff", str(bad)]) == 2
        assert f"data error: {bad}: not UTF-8" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--out", "--stats"])
    def test_output_path_that_is_a_directory_is_data_error(
            self, tmp_path, capsys, flag):
        assert main(["mine", DATASET, *MINE_FLAGS, flag, f"{tmp_path}/"]) == 2
        assert f"data error: [Errno 21] Is a directory: '{tmp_path}/'" in \
            capsys.readouterr().err

    @pytest.mark.parametrize("argv, error", [
        (["mine", DATASET, *MINE_FLAGS, "--stats", "{dir}/"],
         "[Errno 21] Is a directory: '{dir}/'"),
        (["mine", DATASET, *MINE_FLAGS, "--out", "{dir}/no/result.txt"],
         "[Errno 2] No such file or directory: '{dir}/no'"),
        (["oracle", DATASET, "--epsilon", "4", "--out", "{dir}"],
         "[Errno 21] Is a directory: '{dir}'"),
        (["oracle", DATASET, "--epsilon", "4", "--stats", "{dir}/"],
         "[Errno 21] Is a directory: '{dir}/'"),
        (["ncd", DATASET, "--out", "{dir}/no/matrix.txt"],
         "[Errno 2] No such file or directory: '{dir}/no'"),
        (["oracle", DATASET, "--epsilon", "4", "--out",
          f"{DATASET}/result.txt"],
         f"[Errno 20] Not a directory: '{DATASET}'"),
    ], ids=["mine-stats", "mine-out", "oracle-out", "oracle-stats",
            "ncd-out", "oracle-out-in-a-file"])
    def test_unwritable_output_is_refused_before_any_input_is_read(
            self, tmp_path, capsys, monkeypatch, argv, error):
        def refuse(path):
            raise AssertionError("input read despite an unwritable output")

        monkeypatch.setattr(bitmine.textio, "load_transactions", refuse)
        assert main([a.format(dir=tmp_path) for a in argv]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert f"data error: {error.format(dir=tmp_path)}" in err

    def test_input_that_is_not_utf8_is_data_error(self, tmp_path, capsys):
        bad = tmp_path / "latin1.txt"
        bad.write_bytes(b"0101\n\xff\n")
        assert main(["mine", str(bad), *MINE_FLAGS]) == 2
        assert f"data error: {bad}: not UTF-8" in capsys.readouterr().err


class TestGen:
    def test_same_seed_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        for path in (a, b):
            assert main(["gen", "--seed", "9", "--out", str(path)]) == 0
        assert read(a) == read(b)

    def test_degenerate_planted_spec_emits_motif_lines(self, tmp_path):
        out = tmp_path / "motif.txt"
        assert main(["gen", "--motif", "0011", "--count", "5",
                     "--planted-fraction", "1.0", "--flip-prob", "0",
                     "--pad-min", "0", "--pad-max", "0",
                     "--out", str(out)]) == 0
        assert parse_transactions(read(out).splitlines()) == ["0011"] * 5

    def test_manifest_sidecar(self, tmp_path):
        out, man = tmp_path / "d.txt", tmp_path / "d.manifest.jsonl"
        assert main(["gen", "--seed", "7", "--out", str(out),
                     "--manifest-out", str(man)]) == 0
        from bitmine.textio import parse_manifest
        entries = parse_manifest(read(man))
        assert [e.bits for e in entries] == parse_transactions(read(out).splitlines())
        assert sum(e.planted for e in entries) == 40

    def test_manifest_in_a_missing_directory_writes_nothing(self, tmp_path,
                                                             capsys):
        out = tmp_path / "d.txt"
        assert main(["gen", "--count", "5", "--seed", "3", "--out", str(out),
                     "--manifest-out", str(tmp_path / "nodir" / "m.jsonl")]) == 2
        assert "No such file or directory" in capsys.readouterr().err
        assert not out.exists()

    def test_random_dataset_matches_library(self, tmp_path):
        out = tmp_path / "r.txt"
        assert main(["gen", "--random", "--count", "12", "--len-min", "24",
                     "--len-max", "24", "--seed", "7", "--out", str(out)]) == 0
        assert read(out) == read(FIXTURES / "dataset7.txt") or \
            parse_transactions(read(out).splitlines()) == \
            parse_transactions(read(FIXTURES / "dataset7.txt").splitlines())


@pytest.mark.parametrize("argv, status", [
    (["gen", "--count", "2"], 0),
    (["mine", DATASET], 1),
    (["mine", "nope.txt", *MINE_FLAGS], 2),
], ids=["ok", "usage", "data"])
def test_module_entry_point_exits_with_mains_status(tmp_path, argv, status):
    env = dict(os.environ)
    src = str(Path(bitmine.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "bitmine.cli", *argv],
                          cwd=tmp_path, env=env, capture_output=True,
                          timeout=60)
    assert proc.returncode == status, proc.stderr
