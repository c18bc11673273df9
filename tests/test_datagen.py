import pytest

from bitmine import (PlantSpec, Xorshift64Star, gen_planted, gen_random,
                     replay_manifest, verify_manifest)


class TestPrng:
    # reference outputs pin the exact update so fixtures stay portable
    def test_frozen_reference_outputs_seed1(self):
        rng = Xorshift64Star(1)
        assert [rng.next64() for _ in range(4)] == [
            5180492295206395165, 12380297144915551517,
            13389498078930870103, 5599127315341312413]

    def test_frozen_reference_outputs_seed7(self):
        rng = Xorshift64Star(7)
        assert rng.next64() == 15130880334998875822

    def test_zero_seed_uses_fixed_constant(self):
        a, b = Xorshift64Star(0), Xorshift64Star(0x9E3779B97F4A7C15)
        assert [a.next64() for _ in range(3)] == [b.next64() for _ in range(3)]
        assert a.next64() != 0

    def test_bits_and_ranges(self):
        rng = Xorshift64Star(3)
        s = rng.bits(64)
        assert set(s) <= {"0", "1"} and len(s) == 64
        rng = Xorshift64Star(3)
        assert all(2 <= rng.int_range(2, 5) <= 5 for _ in range(100))
        assert all(0.0 <= Xorshift64Star(4).uniform() <= 1.0 for _ in range(100))


class TestGenRandom:
    def test_zero_count_rejected(self):
        with pytest.raises(ValueError):
            gen_random(0, (8, 8), 1)

    def test_bad_length_range_rejected(self):
        with pytest.raises(ValueError):
            gen_random(3, (0, 8), 1)
        with pytest.raises(ValueError):
            gen_random(3, (9, 8), 1)

    def test_same_seed_identical(self):
        a = gen_random(12, (24, 32), 7)
        b = gen_random(12, (24, 32), 7)
        assert a.items == b.items

    def test_frozen_fixture_head(self):
        assert gen_random(3, (8, 8), 7).items == ["10000100", "11110011", "10001100"]

    def test_lengths_in_range(self):
        T = gen_random(50, (10, 20), 13)
        assert all(10 <= len(y) <= 20 for y in T.items)


class TestGenPlanted:
    def test_degenerate_spec_reproduces_motif_exactly(self):
        spec = PlantSpec(motif="0011", transaction_count=5, planted_fraction=1.0,
                         flip_prob=0.0, pad_len_range=(0, 0), rng_seed=1)
        T, manifest = gen_planted(spec)
        assert T.items == ["0011"] * 5
        assert all(e.planted and e.motif_offset == 0 and e.flipped == ()
                   for e in manifest)

    def test_same_seed_bit_identical(self):
        spec = PlantSpec(rng_seed=7)
        a, _ = gen_planted(spec)
        b, _ = gen_planted(spec)
        assert a.items == b.items

    def test_planted_count_from_manifest(self):
        spec = PlantSpec(motif="00000001111111", transaction_count=50,
                         planted_fraction=0.8, flip_prob=0.05,
                         pad_len_range=(4, 10), rng_seed=7)
        _, manifest = gen_planted(spec)
        assert sum(e.planted for e in manifest) == 40 == spec.planted_count

    def test_manifest_consistency(self):
        spec = PlantSpec(rng_seed=11, flip_prob=0.2)
        T, manifest = gen_planted(spec)
        verify_manifest(spec, manifest)  # raises on inconsistency
        assert replay_manifest(manifest).items == T.items

    def test_verify_manifest_detects_tampering(self):
        spec = PlantSpec(rng_seed=11)
        _, manifest = gen_planted(spec)
        bad = list(manifest)
        e = bad[0]
        bad[0] = type(e)(e.index, e.bits, e.planted, e.motif_offset,
                         tuple(set(e.flipped) ^ {0}))
        with pytest.raises(ValueError):
            verify_manifest(spec, bad)

    def test_pads_within_range(self):
        spec = PlantSpec(rng_seed=3, pad_len_range=(2, 6))
        T, manifest = gen_planted(spec)
        for e in manifest:
            pad_total = len(e.bits) - len(spec.motif)
            assert 4 <= pad_total <= 12
            if e.planted:
                assert 2 <= e.motif_offset <= 6

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            PlantSpec(motif="")
        with pytest.raises(ValueError, match="^motif holds '2'"):
            PlantSpec(motif="0120")
        with pytest.raises(ValueError):
            PlantSpec(planted_fraction=1.5)
        with pytest.raises(ValueError):
            PlantSpec(flip_prob=1.0)
        with pytest.raises(ValueError):
            PlantSpec(pad_len_range=(5, 3))
