import pytest

from bitmine import (IncompleteEnumerationError, KTBackend, MiningConfig,
                     OccurrenceParams, OracleConfig, PlantSpec, TransactionSet,
                     enumerate_frequent, frequency, gen_planted, mine)
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
