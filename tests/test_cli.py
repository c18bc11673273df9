import json
import os
import random
from pathlib import Path

import pytest

from bitmine.cli import main
from bitmine.textio import parse_result, parse_transactions

FIXTURES = Path(__file__).parent / "fixtures"
DATASET = str(FIXTURES / "dataset7.txt")
MINE_FLAGS = ["--epsilon", "4", "--step-bits", "2", "--c1", "0.6", "--c2", "0.3"]


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

    def test_external_backend_heuristic_stamps_approximate(self, tmp_path):
        out = tmp_path / "heur.txt"
        with pytest.warns(UserWarning):
            assert main(["mine", DATASET, *MINE_FLAGS, "--backend",
                         "external:cat", "--mode", "heuristic",
                         "--max-level", "1", "--out", str(out)]) == 0
        _, header = parse_result(read(out))
        assert header["approximate"] == "true"

    def test_unknown_backend_is_usage_error(self):
        assert main(["mine", DATASET, *MINE_FLAGS, "--backend", "zstd"]) == 1

    def test_missing_input_file_is_data_error(self, tmp_path):
        assert main(["mine", str(tmp_path / "nope.txt"), *MINE_FLAGS]) == 2


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

    def test_must_cover_termination_flag_is_data_error_here(self, capsys):
        assert main(["oracle", DATASET, "--epsilon", "4", "--max-len", "8",
                     "--c1", "0.6", "--c2", "0.3",
                     "--must-cover-termination"]) == 2


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

    def test_random_dataset_matches_library(self, tmp_path):
        out = tmp_path / "r.txt"
        assert main(["gen", "--random", "--count", "12", "--len-min", "24",
                     "--len-max", "24", "--seed", "7", "--out", str(out)]) == 0
        assert read(out) == read(FIXTURES / "dataset7.txt") or \
            parse_transactions(read(out).splitlines()) == \
            parse_transactions(read(FIXTURES / "dataset7.txt").splitlines())
