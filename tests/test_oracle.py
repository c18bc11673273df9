import math

import numpy as np
import pytest

from bitmine import (IncompleteEnumerationError, KTBackend, LZBackend,
                     MiningConfig, OccurrenceParams, OracleConfig, PlantSpec,
                     TransactionSet, enumerate_frequent, frequency,
                     gen_planted, gen_random, mine, support)
from bitmine import bits as bitutil
from bitmine import oracle

SCALE = OccurrenceParams(c1=0.6, c2=0.3)


def test_epsilon_above_transaction_count(kt0, fixture_transactions):
    out = enumerate_frequent(kt0, SCALE, fixture_transactions, 99,
                             OracleConfig(max_len=6))
    assert out == {}


def test_is_definitional_exhaustion(kt0):
    # recompute the frequent set with a literal double loop
    T = TransactionSet(["0101010101010101"] * 5)
    params = OccurrenceParams(c1=0.6, c2=0.25)
    out = enumerate_frequent(kt0, params, T, 5, OracleConfig(max_len=8))
    expected = {}
    for length in range(1, 9):
        for x in bitutil.all_of_length(length):
            count = frequency(kt0, params, T, x)
            if count >= 5:
                expected[x] = count
    assert out == expected


def test_counts_match_frequency(kt0, fixture_transactions):
    out = enumerate_frequent(kt0, SCALE, fixture_transactions, 4,
                             OracleConfig(max_len=6))
    for pattern, count in out.items():
        assert count == frequency(kt0, SCALE, fixture_transactions, pattern)


def test_equals_the_miner_at_a_high_kt_order():
    # order 9 gives contexts of up to 9 bits, coded sparsely per row; both
    # sides stop at 10 bits (the miner after level 4, step 2)
    backend = KTBackend(9)
    T, _ = gen_planted(PlantSpec(transaction_count=6, rng_seed=2))
    result = mine(backend, SCALE, T,
                  MiningConfig(epsilon=3, step_bits=2, max_level=4))
    assert any(len(p.pattern) == 10 for p in result)
    assert result.as_dict() == enumerate_frequent(backend, SCALE, T, 3,
                                                  OracleConfig(max_len=10))


@pytest.mark.parametrize("order", [0, 1, 2, 9])
def test_kt_classes_carry_over_chunk_boundaries(order, fixture_transactions,
                                                monkeypatch):
    # each chunk reads the previous class's lengths and counts one string
    # per signature group of its own; chunks of 3 and 5 strings split
    # every class and its groups differently
    backend = KTBackend(order)
    config = OracleConfig(max_len=10)
    expected = enumerate_frequent(backend, SCALE, fixture_transactions, 4,
                                  config)
    assert len(expected) > 200
    for chunk in (3, 5):
        monkeypatch.setattr(oracle, "_CHUNK", chunk)
        assert enumerate_frequent(backend, SCALE, fixture_transactions, 4,
                                  config) == expected


def test_must_cover_termination_fails_loudly(kt0, fixture_transactions):
    # random 24-bit transactions: the cheapest length-8 string is far below
    # the entropy-reduction bound, so the cap provably cannot cover it
    with pytest.raises(IncompleteEnumerationError):
        enumerate_frequent(kt0, SCALE, fixture_transactions, 4,
                           OracleConfig(max_len=8, must_cover_termination=True))


def test_refusal_carries_the_stats_of_the_classes_enumerated(
        kt0, fixture_transactions):
    found = enumerate_frequent(kt0, SCALE, fixture_transactions, 4,
                               OracleConfig(max_len=8))
    with pytest.raises(IncompleteEnumerationError) as refused:
        enumerate_frequent(kt0, SCALE, fixture_transactions, 4,
                           OracleConfig(max_len=8, must_cover_termination=True))
    assert refused.value.stats == found.stats
    assert len(found.stats) == 8


def test_must_cover_termination_passes_when_covered(kt0):
    # tiny code lengths: every length-4 string already exceeds c1 * max L(y)
    T = TransactionSet(["0000000000"] * 3)
    params = OccurrenceParams(c1=0.4, c2=0.3)
    out = enumerate_frequent(kt0, params, T, 2,
                             OracleConfig(max_len=10, must_cover_termination=True))
    assert isinstance(out, dict)


def test_max_len_validation():
    with pytest.raises(ValueError):
        OracleConfig(max_len=0)


def test_rejects_empty_transaction_set(kt0):
    with pytest.raises(ValueError):
        enumerate_frequent(kt0, SCALE, TransactionSet([]), 1, OracleConfig(max_len=4))


KT_ORDERS = [0, 1, 2, 3, 4, 5, 6, 9, 24]


def _first_of_each(keys):
    # {key: index of its first holder}, in order of first holder
    first: dict = {}
    for i, key in enumerate(keys):
        first.setdefault(key, i)
    return first


@pytest.mark.parametrize("order", KT_ORDERS)
def test_kt_class_groups_are_the_signature_partition(order, monkeypatch):
    # each class's groups, carried over from the class before, are
    # signature()'s partition of its kept strings, numbered by first kept
    # member: of the whole class, and of the strings within a bound that
    # cuts every class from 7 bits on; in chunks of 3 strings and of the
    # default size
    backend = KTBackend(order)
    strings = [list(bitutil.all_of_length(w)) for w in range(11)]
    sigs = [[backend.signature(x) for x in row] for row in strings]
    cut = float(np.median([backend.code_len(x) for x in strings[7]]))
    for chunk in (3, oracle._CHUNK):
        monkeypatch.setattr(oracle, "_CHUNK", chunk)
        for bound in (math.inf, cut):
            classes = oracle._kt_groups(order, bound, 10)
            for width, (lengths, group, first) in enumerate(classes, 1):
                kept = np.flatnonzero(lengths <= bound).tolist()
                assert len(kept) == (1 << width if bound == math.inf
                                     else len(kept))
                leads = _first_of_each(sigs[width][v] for v in kept)
                number = {sig: g for g, sig in enumerate(leads)}
                assert first.tolist() == [kept[i] for i in leads.values()]
                assert [group[v] for v in kept] == \
                    [number[sigs[width][v]] for v in kept]


@pytest.mark.parametrize("order", [0, 1, 2, 5, 9])
@pytest.mark.parametrize("chunk", [5, oracle._CHUNK])
def test_kt_support_counts_each_kept_signature_once_per_class(
        order, chunk, fixture_transactions, monkeypatch):
    # every support call counts at most _CHUNK first members; over a class
    # they are each distinct kept signature's first member, once, and
    # every reported count is frequency's
    T = fixture_transactions
    backend = KTBackend(order)
    calls = []

    def recording(*args):
        calls.append(list(args[3]))
        return support(*args)

    monkeypatch.setattr(oracle, "support", recording)
    monkeypatch.setattr(oracle, "_CHUNK", chunk)
    out = enumerate_frequent(backend, SCALE, T, 4, OracleConfig(max_len=8))
    bound = SCALE.entropy_bound(T.max_code_len(backend))
    assert calls and all(len(call) <= chunk for call in calls)
    for stats in out.stats:
        width = stats.width
        kept = [x for x in bitutil.all_of_length(width)
                if backend.code_len(x) <= bound]
        leads = _first_of_each(backend.signature(x) for x in kept)
        counted = [x for call in calls if len(call[0]) == width for x in call]
        assert counted == [kept[i] for i in leads.values()]
        assert (stats.kept, stats.groups) == (len(kept), len(leads))
        assert stats.pairs <= len(leads) * len(T)  # all, below order 9
    assert out
    for pattern, count in out.items():
        assert count == frequency(backend, SCALE, T, pattern)


@pytest.mark.parametrize("backend", [KTBackend(1), LZBackend()],
                         ids=["kt1", "lz"])
def test_stats_per_class(backend, fixture_transactions):
    # one record per class enumerated; only a class whose cheapest string
    # is above the bound covers termination, and it ends the enumeration;
    # LZ counts each kept string on its own
    covered = (TransactionSet(["0000000000"] * 3),
               OccurrenceParams(c1=0.4, c2=0.3))
    for T, params in ((fixture_transactions, SCALE), covered):
        out = enumerate_frequent(backend, params, T, 2,
                                 OracleConfig(max_len=8))
        bound = params.entropy_bound(T.max_code_len(backend))
        assert [s.width for s in out.stats] == \
            list(range(1, len(out.stats) + 1))
        assert [s.termination_covered for s in out.stats[:-1]] == \
            [False] * (len(out.stats) - 1)
        assert out.stats[-1].termination_covered == (len(out.stats) < 8)
        for s in out.stats:
            coded = [backend.code_len(x)
                     for x in bitutil.all_of_length(s.width)]
            assert s.strings == len(coded) == 2 ** s.width
            assert s.kept == sum(c <= bound for c in coded)
            assert s.min_code_len == min(coded)
            assert s.termination_covered == (s.min_code_len > bound)
            assert 0 < s.groups <= s.kept or s.groups == s.kept == 0
            if isinstance(backend, LZBackend):
                # pairs priced where L(x) passes entropy reduction
                assert s.groups == s.kept
                assert s.pairs <= s.groups * len(T)
            else:
                assert s.pairs == s.groups * len(T)
    assert out.stats[-1].termination_covered


def test_oracle_kt1_counts_each_signature_once_per_class():
    # the oracle-kt1 instance at seed 1: 1,150 distinct kept signatures
    # over classes 1-15, each counted once against 40 transactions
    T = gen_random(40, (32, 32), 1)
    out = enumerate_frequent(KTBackend(1), SCALE, T, 20,
                             OracleConfig(max_len=15))
    assert sum(s.groups for s in out.stats) == 1150
    assert sum(s.pairs for s in out.stats) == 1150 * 40
