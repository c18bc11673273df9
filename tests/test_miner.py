import warnings

import numpy as np
import pytest

from bitmine import (ExternalBackend, KTBackend, LZBackend, MiningConfig, OccurrenceParams,
                     OracleConfig, TransactionSet, enumerate_frequent,
                     frequency, gen_random, generate, mine, seed_level0,
                     support)
from bitmine import bits as bitutil
from bitmine import miner, occurrence
from bitmine.miner import MAX_LEVEL_CANDIDATES, MAX_STEP_BITS, FrequentPattern
from bitmine.oracle import MAX_LEN

SCALE = OccurrenceParams(c1=0.6, c2=0.3)


def fp(pattern, level=0):
    return FrequentPattern(pattern, 1, 0.0, level)


class TestConfig:
    def test_epsilon_validation(self):
        with pytest.raises(ValueError):
            MiningConfig(epsilon=0)
        with pytest.raises(ValueError):
            MiningConfig(epsilon=1.5)
        with pytest.raises(ValueError):
            MiningConfig(epsilon="4")

    def test_fraction_resolves_by_ceiling(self):
        assert MiningConfig(epsilon=0.3).resolve_epsilon(12) == 4
        assert MiningConfig(epsilon=1.0).resolve_epsilon(12) == 12
        assert MiningConfig(epsilon=0.01).resolve_epsilon(12) == 1
        assert MiningConfig(epsilon=5).resolve_epsilon(12) == 5

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            MiningConfig(step_bits=0)
        with pytest.raises(ValueError):
            MiningConfig(mode="fast")

    def test_budget_caps(self):
        MiningConfig(step_bits=MAX_STEP_BITS)
        with pytest.raises(ValueError, match="step_bits"):
            MiningConfig(step_bits=MAX_STEP_BITS + 1)
        # the seed level at the largest step is not capped, and fits anyway
        assert 2 ** (MAX_STEP_BITS + 1) - 2 <= MAX_LEVEL_CANDIDATES
        OracleConfig(max_len=MAX_LEN)
        with pytest.raises(ValueError, match="max_len"):
            OracleConfig(max_len=MAX_LEN + 1)


class TestGenerate:
    def test_exact_two_bit_extensions(self):
        assert generate([fp("0")], 2) == ["000", "001", "010", "011"]

    def test_empty_frontier(self):
        assert generate([], 4) == []

    def test_candidate_count_and_distinctness(self):
        prev = [fp(p) for p in ["00000", "00111", "01010", "10101", "11111"]]
        out = generate(prev, 4)
        assert len(out) == 5 * 16
        assert len(set(out)) == 80


class TestSeedLevel0:
    def test_epsilon_above_transaction_count(self, kt0, fixture_transactions):
        cfg = MiningConfig(epsilon=len(fixture_transactions) + 1, step_bits=2)
        assert seed_level0(kt0, SCALE, fixture_transactions, cfg) == []

    def test_entropy_reduction_can_empty_the_seed_level(self, kt0):
        # near-constant transactions have tiny code lengths: c1 * L(y) < L(x)
        T = TransactionSet(["0" * 12] * 12)
        params = OccurrenceParams(c1=0.1, c2=0.3)
        cfg = MiningConfig(epsilon=2, step_bits=1)
        assert seed_level0(kt0, params, T, cfg) == []

    def test_matches_oracle_on_short_lengths(self, kt0, fixture_transactions):
        T = fixture_transactions
        cfg = MiningConfig(epsilon=4, step_bits=2)
        seeds = seed_level0(kt0, SCALE, T, cfg)
        oracle = enumerate_frequent(kt0, SCALE, T, 4, OracleConfig(max_len=2))
        assert {p.pattern: p.count for p in seeds} == oracle
        assert all(p.level == 0 for p in seeds)

    def test_rejects_empty_transaction_set(self, kt0):
        with pytest.raises(ValueError):
            seed_level0(kt0, SCALE, TransactionSet([]), MiningConfig(epsilon=1))


class TestMine:
    def test_epsilon_above_transaction_count_gives_empty(self, kt0, fixture_transactions):
        res = mine(kt0, SCALE, fixture_transactions,
                   MiningConfig(epsilon=99, step_bits=2))
        assert len(res) == 0 and not res.truncated

    def test_equals_oracle_on_fixture(self, kt0, fixture_transactions):
        T = fixture_transactions
        res = mine(kt0, SCALE, T, MiningConfig(epsilon=4, step_bits=2))
        maxlen = max(len(p.pattern) for p in res)
        oracle = enumerate_frequent(kt0, SCALE, T, 4, OracleConfig(max_len=maxlen + 1))
        assert res.as_dict() == oracle

    def test_counts_match_independent_frequency(self, kt0, fixture_transactions):
        T = fixture_transactions
        res = mine(kt0, SCALE, T, MiningConfig(epsilon=5, step_bits=2))
        for p in res:
            assert p.count == frequency(kt0, SCALE, T, p.pattern)

    def test_prefix_closure(self, kt0, fixture_transactions):
        res = mine(kt0, SCALE, fixture_transactions,
                   MiningConfig(epsilon=4, step_bits=3))
        by_level = {}
        for p in res:
            by_level.setdefault(p.level, set()).add(p.pattern)
        for p in res:
            if p.level >= 1:
                prefix = p.pattern[:len(p.pattern) - 3]
                assert prefix in by_level[p.level - 1]

    def test_level_length_arithmetic(self, kt0, fixture_transactions):
        n = 2
        res = mine(kt0, SCALE, fixture_transactions,
                   MiningConfig(epsilon=4, step_bits=n))
        for p in res:
            l0 = len(p.pattern) - p.level * n
            assert 1 <= l0 <= n

    def test_max_level_truncation_flag(self, kt0, fixture_transactions):
        res = mine(kt0, SCALE, fixture_transactions,
                   MiningConfig(epsilon=4, step_bits=2, max_level=1))
        assert res.truncated is True
        full = mine(kt0, SCALE, fixture_transactions,
                    MiningConfig(epsilon=4, step_bits=2))
        assert full.truncated is False
        assert {p.pattern for p in res} <= {p.pattern for p in full}

    def test_transaction_order_invariance(self, kt0, fixture_transactions):
        T = fixture_transactions
        shuffled = TransactionSet(list(reversed(T.items)))
        a = mine(kt0, SCALE, T, MiningConfig(epsilon=4, step_bits=2))
        b = mine(kt0, SCALE, shuffled, MiningConfig(epsilon=4, step_bits=2))
        assert a.patterns == b.patterns

    def test_lz_backend_agrees_with_oracle(self, lz, fixture_transactions):
        T = fixture_transactions
        res = mine(lz, SCALE, T, MiningConfig(epsilon=4, step_bits=2))
        maxlen = max((len(p.pattern) for p in res), default=2)
        oracle = enumerate_frequent(lz, SCALE, T, 4, OracleConfig(max_len=maxlen + 1))
        assert res.as_dict() == oracle

    @pytest.mark.parametrize("backend_name", ["kt0", "lz"])
    def test_stats_describe_every_level(self, backend_name, request,
                                        fixture_transactions):
        backend = request.getfixturevalue(backend_name)
        T = fixture_transactions
        res = mine(backend, SCALE, T, MiningConfig(epsilon=4, step_bits=2))
        assert [s.level for s in res.stats] == list(range(res.levels + 1))
        assert res.stats[0].candidates == 2 + 4
        for prev, s in zip(res.stats, res.stats[1:]):
            assert s.candidates == 4 * prev.frequent
        for s in res.stats:
            assert s.frequent == sum(1 for p in res if p.level == s.level)
            assert s.frequent <= s.kept and s.groups <= s.kept <= s.candidates
            assert s.pairs <= s.groups * len(T)
            assert s.seconds >= 0.0
        if backend_name == "kt0":  # the closed form evaluates every pair
            assert all(s.pairs == s.groups * len(T) for s in res.stats)
            assert any(s.groups < s.kept for s in res.stats)
        else:  # each LZ candidate is a group of its own
            assert all(s.groups == s.kept for s in res.stats)

    def test_sound_mode_refuses_external_backend(self, fixture_transactions):
        backend = ExternalBackend("cat")
        with pytest.raises(ValueError):
            mine(backend, SCALE, fixture_transactions,
                 MiningConfig(epsilon=4, step_bits=2, mode="sound"))

    def test_heuristic_mode_flags_approximate(self, fixture_transactions):
        backend = ExternalBackend("cat")
        with pytest.warns(UserWarning):
            res = mine(backend, SCALE, fixture_transactions,
                       MiningConfig(epsilon=4, step_bits=2, mode="heuristic",
                                    max_level=2))
        assert res.approximate is True

    @pytest.mark.parametrize("backend", [KTBackend(0), KTBackend(2), LZBackend()],
                             ids=["kt0", "kt2", "lz"])
    def test_heuristic_mode_on_a_monotone_backend_is_exact(
            self, backend, fixture_transactions):
        sound = mine(backend, SCALE, fixture_transactions,
                     MiningConfig(epsilon=4, step_bits=2))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = mine(backend, SCALE, fixture_transactions,
                       MiningConfig(epsilon=4, step_bits=2, mode="heuristic"))
        assert res.approximate is False
        assert res.as_dict() == sound.as_dict() and len(res) > 0

    @pytest.mark.parametrize("backend", [KTBackend(1), LZBackend()],
                             ids=["kt1", "lz"])
    def test_patterns_are_in_level_then_pattern_order(self, backend,
                                                      fixture_transactions):
        res = mine(backend, SCALE, fixture_transactions,
                   MiningConfig(epsilon=3, step_bits=2))
        keys = [(p.level, p.pattern) for p in res]
        assert res.levels >= 2 and keys == sorted(keys)

    def test_heuristic_external_counts_every_transaction(self):
        # The external backend is not monotone: a child may occur where its
        # parent does not, so it is counted on every transaction.
        backend = ExternalBackend("cat")
        T = gen_random(5, (30, 50), 11)
        with pytest.warns(UserWarning):
            res = mine(backend, SCALE, T,
                       MiningConfig(epsilon=2, step_bits=1, mode="heuristic",
                                    max_level=2))
        assert res.levels == 2 and len(res) > 0
        for p in res:
            assert p.count == frequency(backend, SCALE, T, p.pattern)

    def test_heuristic_external_codes_each_string_once(self, monkeypatch):
        # One compressor call per transaction, per candidate coded and per
        # (candidate, transaction) pair priced; none builds a coder state.
        backend = ExternalBackend("cat")
        calls = []
        real = backend.code_len

        def counted(x):
            calls.append(x)
            return real(x)

        monkeypatch.setattr(backend, "code_len", counted)
        T = gen_random(5, (30, 50), 11)
        with pytest.warns(UserWarning):
            res = mine(backend, SCALE, T,
                       MiningConfig(epsilon=2, step_bits=1, mode="heuristic",
                                    max_level=2))
        assert res.levels == 2 and len(res) > 0
        assert len(calls) == len(T) + sum(s.candidates + s.pairs
                                          for s in res.stats)

    @pytest.mark.parametrize("backend, mode", [
        (KTBackend(2), "sound"), (LZBackend(), "sound"),
        (ExternalBackend("cat"), "heuristic")], ids=["kt2", "lz", "external"])
    def test_mining_builds_no_coder_state(self, backend, mode, monkeypatch):
        # Once T's own states are cached, no level extends a coder state:
        # every candidate is priced from scratch or from count arrays.
        def refuse(*args, **kwargs):
            raise AssertionError("a coder state was built")

        T = gen_random(5, (24, 40), 11)
        config = MiningConfig(epsilon=2, step_bits=1, max_level=3, mode=mode)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            expected = mine(backend, SCALE, T, config)
            T.cached(backend)
            monkeypatch.setattr(type(backend), "extend", refuse)
            res = mine(backend, SCALE, T, config)
        assert res.levels >= 2 and len(res) > 0
        assert res.patterns == expected.patterns
        assert res.levels == expected.levels
        assert res.truncated == expected.truncated

    def test_level_over_the_candidate_cap_is_refused(self, kt0,
                                                     fixture_transactions,
                                                     monkeypatch):
        # With a cap of 1 the seed level (6 strings, not generated) still
        # runs; level 1 is refused before any candidate is generated.
        def refuse(prev, step_bits):
            raise AssertionError("level generated despite the cap")

        cfg = MiningConfig(epsilon=4, step_bits=2)
        seeds = seed_level0(kt0, SCALE, fixture_transactions, cfg)
        monkeypatch.setattr(miner, "MAX_LEVEL_CANDIDATES", 1)
        monkeypatch.setattr(miner, "generate", refuse)
        with pytest.raises(ValueError, match=(
                f"level 1 would generate {4 * len(seeds)} candidates, "
                "over the cap of 1")):
            mine(kt0, SCALE, fixture_transactions, cfg)

    def test_lz_prices_children_on_their_parents_occurrences(self, lz,
                                                             fixture_transactions):
        T = fixture_transactions
        res = mine(lz, SCALE, T, MiningConfig(epsilon=4, step_bits=2))
        assert res.levels >= 1
        assert any(s.pairs < s.kept * len(T) for s in res.stats[1:])
        for s in res.stats[1:]:
            # each of a parent's 4 children is priced only where it occurs
            parents = [p for p in res if p.level == s.level - 1]
            assert s.pairs <= 4 * sum(p.count for p in parents)


class TestKTLevels:
    """The KT miner codes each level from its frontier's counts; what it
    finds, codes and reports must be what the walk and ``support`` give."""

    @pytest.mark.parametrize("order", [0, 1, 2, 3, 5, 9, 24])
    @pytest.mark.parametrize("params", [
        # the entropy-reduction prefilter drops candidates of the last
        # scale-free level at orders 0-3 and 9
        OccurrenceParams(c1=0.5, c2=0.4),
        OccurrenceParams(variant="additive", c3=6.0, c4=3.0)],
        ids=["scale-free", "additive"])
    def test_levels_equal_the_walk_and_support(self, order, params,
                                               fixture_transactions,
                                               monkeypatch):
        backend = KTBackend(order)
        T = fixture_transactions
        config = MiningConfig(epsilon=3, step_bits=2, max_level=5)
        result = mine(backend, params, T, config)
        assert len(result) > 0
        assert all(p.code_len == backend.code_len(p.pattern) for p in result)
        # every level's stats (but its time) are those of support on the
        # strings it kept, each on its parent's occurrence list as the
        # miner passes it (above order 8 the coder path prices only those)
        bound = params.entropy_bound(T.max_code_len(backend))
        candidates = [x for n in (1, 2) for x in bitutil.all_of_length(n)]
        patterns, lists = [""], [None]
        for stats in result.stats:
            kept = [x for x in candidates if backend.code_len(x) <= bound]
            index = {p: i for i, p in enumerate(patterns)}
            of = np.array([index[x[:-2]] for x in kept], dtype=np.intp)
            counts = support(backend, params, T, kept,
                             parents=(patterns, lists, of))
            frequent = [p for p in result if p.level == stats.level]
            assert {p.pattern: p.count for p in frequent} == {
                x: c for x, c in counts.items() if c >= 3}
            assert (stats.candidates, stats.kept, stats.groups, stats.pairs,
                    stats.frequent) == (len(candidates), len(kept),
                                        counts.groups, counts.pairs,
                                        len(frequent))
            candidates = generate(frequent, 2)
            found = dict(zip(kept, counts.occurrences or [None] * len(kept)))
            patterns = [p.pattern for p in frequent]
            lists = [found[p] for p in patterns]
        # with the count tables refused, the coder path counts each kept
        # candidate on its own, on its parent's occurrence list, and finds
        # the same
        monkeypatch.setattr(occurrence, "_KT_TABLE_MAX", 0)
        coder = mine(backend, params, TransactionSet(T.items), config)
        assert coder.patterns == result.patterns
        assert [s.groups for s in coder.stats] == [s.kept for s in result.stats]
