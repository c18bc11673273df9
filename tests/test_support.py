"""The batched support kernel against the sequential, definitional count.

``frequency`` and ``occurs`` code every (pattern, transaction) pair with the
sequential coder.  ``support`` counts KT candidates in closed form and must
reach the same decisions, also at the non-strict threshold boundaries.
"""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bitmine import (KTBackend, LZBackend, MiningConfig, OccurrenceParams,
                     OracleConfig, PlantSpec, TransactionSet,
                     enumerate_frequent, frequency, gen_planted, gen_random,
                     mine, occurs, support)
from bitmine import ktbatch, occurrence
from bitmine.codelength import ExternalBackend

BACKENDS = [KTBackend(0), KTBackend(1), KTBackend(2), KTBackend(3), LZBackend()]


def bit_strings(lo, hi):
    return st.text(alphabet="01", min_size=lo, max_size=hi)


params_strategy = st.one_of(
    st.builds(OccurrenceParams, variant=st.just("scale-free"),
              c1=st.floats(0.05, 0.95), c2=st.floats(0.05, 0.95)),
    st.builds(OccurrenceParams, variant=st.just("additive"),
              c3=st.floats(0.1, 12.0), c4=st.floats(0.1, 12.0)))


@settings(max_examples=200, deadline=None)
@given(backend=st.sampled_from(BACKENDS), params=params_strategy,
       items=st.lists(bit_strings(1, 24), min_size=1, max_size=8),
       candidates=st.lists(bit_strings(1, 10), min_size=1, max_size=30))
def test_support_equals_frequency(backend, params, items, candidates):
    # transactions and patterns as short as one bit, below every order
    T = TransactionSet(items)
    expected = {x: frequency(backend, params, T, x) for x in candidates}
    assert support(backend, params, T, candidates) == expected


def test_count_tables_over_budget_take_the_sequential_path(monkeypatch):
    T = gen_random(6, (12, 20), 3)
    params = OccurrenceParams(c1=0.6, c2=0.3)
    candidates = [format(v, "06b") for v in range(64)]
    backend = KTBackend(2)
    monkeypatch.setattr(occurrence, "_KT_TABLE_MAX", 1)
    counts = support(backend, params, T, candidates)
    assert T.cached(backend).kt is None  # the closed form did not run
    assert counts == {x: frequency(backend, params, T, x) for x in candidates}


def test_orders_past_integer_context_ids_take_the_sequential_path():
    # the closed form names contexts by int64 ids, which hold orders up
    # to 62, but it runs only up to order 8: these orders, 62 included,
    # are counted by the coder, and mined and enumerated alike
    T = gen_random(8, (20, 30), 3)
    params = OccurrenceParams(c1=0.6, c2=0.3)
    candidates = [format(v, "05b") for v in range(32)]
    for order in (62, 63, 70):
        backend = KTBackend(order)
        assert support(backend, params, T, candidates) == {
            x: frequency(backend, params, T, x) for x in candidates}
        assert T.cached(backend).kt is None
        assert mine(backend, params, T, MiningConfig(
            epsilon=3, step_bits=2, max_level=2)).as_dict() == \
            enumerate_frequent(backend, params, T, 3, OracleConfig(max_len=6))


def _counted_in_closed_form(backend, T, candidates):
    """Count ``candidates`` with ``support``, check the counts against
    ``frequency`` and say whether the closed form counted them."""
    params = OccurrenceParams(c1=0.6, c2=0.3)
    counts = support(backend, params, T, candidates)
    assert counts == {x: frequency(backend, params, T, x) for x in candidates}
    closed = counts.occurrences is None  # the coder path reports the lists
    assert closed == (T.cached(backend).kt is not None)
    return closed


def test_closed_form_runs_up_to_order_8():
    # past order 8 the coder path, pruned by parents, is the faster one
    T = gen_random(8, (20, 30), 3)
    candidates = [format(v, "05b") for v in range(32)]
    assert _counted_in_closed_form(KTBackend(8), T, candidates)
    assert not _counted_in_closed_form(KTBackend(9), T, candidates)


@pytest.mark.parametrize("order", [0, 2, 8])
def test_closed_form_runs_while_its_table_fits_the_budget(order, monkeypatch):
    # a table of 2 << order rows (context ids) by |T| transactions bounds
    # the count tables and every count's (column x transaction) arrays
    T = gen_random(8, (20, 30), 3)
    candidates = [format(v, "05b") for v in range(32)]
    table = (2 << order) * len(T)
    monkeypatch.setattr(occurrence, "_KT_TABLE_MAX", table)
    assert _counted_in_closed_form(KTBackend(order), T, candidates)
    monkeypatch.setattr(occurrence, "_KT_TABLE_MAX", table - 1)
    assert not _counted_in_closed_form(KTBackend(order), TransactionSet(T.items),
                                       candidates)


def test_planted_order_24_mines_like_the_oracle_on_the_coder_path(monkeypatch):
    # at order 24 the closed form's columns (each head's contexts after
    # every tail) took minutes on these 30 transactions; the coder path,
    # pruned by the parents' occurrence lists, takes about a second
    def refuse(*args):
        raise AssertionError("the closed form ran at order 24")

    monkeypatch.setattr(occurrence, "_kt_support", refuse)
    T, _ = gen_planted(PlantSpec(transaction_count=30, rng_seed=2))
    backend = KTBackend(24)
    params = OccurrenceParams(c1=0.6, c2=0.3)
    config = MiningConfig(epsilon=0.3, step_bits=3, max_level=3)
    result = mine(backend, params, T, config)
    assert len(result) > 1000
    assert result.as_dict() == enumerate_frequent(
        backend, params, T, config.resolve_epsilon(len(T)),
        OracleConfig(max_len=12))


def _per_group_is_the_dict(counts, candidates, group):
    assert len(counts.per_group) == counts.groups
    assert counts.per_group[group].tolist() == [counts[x] for x in candidates]


@pytest.mark.parametrize("table_max", [1 << 22, 0],
                         ids=["closed-form", "coder-path"])
def test_kt_per_group_holds_each_groups_count(table_max, monkeypatch):
    # the closed form, and the coder path when the table is over budget
    monkeypatch.setattr(occurrence, "_KT_TABLE_MAX", table_max)
    T = gen_random(8, (20, 30), 3)
    candidates = [format(v, "06b") for v in range(64)]
    groups = ktbatch.string_groups(2, candidates)
    counts = support(KTBackend(2), OccurrenceParams(c1=0.6, c2=0.3), T,
                     candidates, groups)
    assert (counts.occurrences is None) == (table_max > 0)
    assert counts.groups < len(candidates)
    _per_group_is_the_dict(counts, candidates, groups.group)


@pytest.mark.parametrize("backend", [LZBackend(), ExternalBackend("cat")],
                         ids=["lz", "external"])
def test_per_group_holds_each_distinct_candidates_count(backend):
    T = gen_random(6, (20, 30), 3)
    candidates = ["0110", "1", "0110", "00", "1011", "1"]
    counts = support(backend, OccurrenceParams(c1=0.6, c2=0.3), T,
                     candidates)
    # each distinct candidate is a group, numbered in order of first sight
    number = {}
    group = [number.setdefault(x, len(number)) for x in candidates]
    assert counts.groups == 4
    _per_group_is_the_dict(counts, candidates, group)


class _ScannedCounts(dict):
    """Counts that record every iteration over their contexts."""
    scans = 0

    def __iter__(self):
        type(self).scans += 1
        return super().__iter__()


@pytest.mark.parametrize("order, table_max", [(2, 0), (9, 1 << 22)],
                         ids=["over-budget", "past-order-8"])
def test_choosing_the_coder_path_scans_no_contexts(order, table_max,
                                                   monkeypatch):
    # the path is chosen from the order and |T| alone, before any table
    T = gen_random(6, (12, 20), 3)
    candidates = [format(v, "04b") for v in range(16)]
    backend = KTBackend(order)
    monkeypatch.setattr(occurrence, "_KT_TABLE_MAX", table_max)
    monkeypatch.setattr(_ScannedCounts, "scans", 0)
    coded = T.cached(backend)
    coded.states[:] = [s._replace(counts=_ScannedCounts(s.counts))
                       for s in coded.states]
    assert not _counted_in_closed_form(backend, T, candidates)
    assert _ScannedCounts.scans == 0


@pytest.mark.parametrize("order", [0, 2, 4])
def test_small_chunks_count_like_frequency(order, monkeypatch):
    # Chunks of one or a few groups, transactions shorter than the order.
    monkeypatch.setattr(occurrence, "_BLOCK_ELEMENTS", 60)
    T = TransactionSet(gen_random(8, (6, 20), 7 + order).items + ["0", "10", "011"])
    params = OccurrenceParams(c1=0.7, c2=0.4)
    backend = KTBackend(order)
    candidates = [format(v, f"0{n}b") for n in range(1, 8) for v in range(1 << n)]
    assert support(backend, params, T, candidates) == {
        x: frequency(backend, params, T, x) for x in candidates}


def _boundary_pairs(backend, rng, count):
    """(x, y, L(y), sequential L(y||x) - L(y)) for random short x, long y."""
    pairs = []
    for _ in range(count):
        y = "".join(rng.choice("01") for _ in range(rng.randint(16, 40)))
        x = "".join(rng.choice("01") for _ in range(rng.randint(1, 8)))
        state, len_y = backend.extend(backend.initial_state(), y)
        pairs.append((x, y, len_y, backend.extend_cost(state, x)))
    return pairs


def _check_boundary(backend, T, x, params):
    expected = sum(occurs(backend, params, x, y) for y in T.items)
    assert support(backend, params, T, [x])[x] == expected, (x, params)
    return expected


@pytest.mark.parametrize("order", [0, 1, 2, 3])
def test_scale_free_boundary_decided_like_occurs(order):
    backend = KTBackend(order)
    pairs = _boundary_pairs(backend, random.Random(900 + order), 60)
    T = TransactionSet([y for _, y, _, _ in pairs])
    flips = 0
    for x, _, len_y, extra in pairs:
        c2 = extra / len_y
        decided = [_check_boundary(backend, T, x, OccurrenceParams(c1=0.9, c2=c))
                   for c in (math.nextafter(c2, 0.0), c2, math.nextafter(c2, 1.0))]
        flips += decided[0] != decided[2]
    assert flips > 0  # the thresholds really straddle some pairs' extra cost


@pytest.mark.parametrize("order", [0, 1, 2, 3])
def test_additive_boundary_decided_like_occurs(order):
    backend = KTBackend(order)
    pairs = _boundary_pairs(backend, random.Random(950 + order), 60)
    T = TransactionSet([y for _, y, _, _ in pairs])
    flips = 0
    for x, _, _, extra in pairs:
        decided = [_check_boundary(backend, T, x,
                                   OccurrenceParams(variant="additive", c3=0.5, c4=c))
                   for c in (math.nextafter(extra, 0.0), extra,
                             math.nextafter(extra, math.inf))]
        flips += decided[0] != decided[2]
    assert flips > 0


def _long_boundary_pairs(backend, rng):
    """(T, [(x, L(y), sequential L(y||x) - L(y))]) for a few 2,000-20,000-bit
    transactions y of different bit biases and random short x.  On such y
    the tables' rounding term, not ``REDECIDE_TOL``, dominates the
    closed form's re-decide margin."""
    items = ["".join("1" if rng.random() < bias else "0"
                     for _ in range(rng.randint(2_000, 20_000)))
             for bias in (0.5, 0.2, 0.03)]
    T = TransactionSet(items)
    coded = T.cached(backend)
    pairs = []
    for _ in range(6):
        x = "".join(rng.choice("01") for _ in range(rng.randint(1, 8)))
        pairs += [(x, len_y, backend.extend_cost(state, x))
                  for state, len_y in zip(coded.states, coded.lengths)]
    return T, pairs


def _check_long_boundary(backend, T, x, params):
    expected = frequency(backend, params, T, x)
    assert support(backend, params, T, [x])[x] == expected, (x, params)
    return expected


@pytest.mark.parametrize("order", [0, 2])
def test_scale_free_boundary_on_long_transactions_decided_like_frequency(order):
    backend = KTBackend(order)
    T, pairs = _long_boundary_pairs(backend, random.Random(1900 + order))
    flips = 0
    for x, len_y, extra in pairs:
        c2 = extra / len_y
        decided = [_check_long_boundary(backend, T, x, OccurrenceParams(c1=0.9, c2=c))
                   for c in (math.nextafter(c2, 0.0), c2, math.nextafter(c2, 1.0))]
        flips += decided[0] != decided[2]
    assert flips > 0


@pytest.mark.parametrize("order", [0, 2])
def test_additive_boundary_on_long_transactions_decided_like_frequency(order):
    backend = KTBackend(order)
    T, pairs = _long_boundary_pairs(backend, random.Random(1950 + order))
    flips = 0
    for x, _, extra in pairs:
        decided = [_check_long_boundary(backend, T, x,
                                        OccurrenceParams(variant="additive", c3=0.5, c4=c))
                   for c in (math.nextafter(extra, 0.0), extra,
                             math.nextafter(extra, math.inf))]
        flips += decided[0] != decided[2]
    assert flips > 0


@pytest.mark.parametrize("order, params", [
    (2, OccurrenceParams(c1=0.6, c2=0.3)),
    (3, OccurrenceParams(c1=0.6, c2=0.3)),
    (0, OccurrenceParams(variant="additive", c3=8.0, c4=4.0)),
    (2, OccurrenceParams(variant="additive", c3=8.0, c4=4.0)),
])
def test_miner_equals_oracle(order, params):
    # Under KT order >= 1 runs such as 0^n stay frequent at any length, so
    # both sides stop at 12 bits: the miner after level 5 (step 2), the
    # oracle at max_len 12.
    backend = KTBackend(order)
    T = gen_random(10, (16, 20), 40 + order)
    result = mine(backend, params, T, MiningConfig(epsilon=3, step_bits=2, max_level=5))
    assert len(result) > 10
    assert result.as_dict() == enumerate_frequent(backend, params, T, 3,
                                                  OracleConfig(max_len=12))


@pytest.mark.parametrize("step", [1, 2, 3, 4])
@pytest.mark.parametrize("params", [
    OccurrenceParams(c1=0.6, c2=0.3),
    OccurrenceParams(variant="additive", c3=6.0, c4=5.0)],
    ids=["scale-free", "additive"])
def test_lz_miner_equals_oracle_at_each_step(step, params):
    # LZ counts in numpy, child by child on its parent's list; both sides
    # stop at 12 bits: the miner after the level that reaches them
    backend = LZBackend()
    T = gen_random(10, (16, 24), 60 + step)
    result = mine(backend, params, T, MiningConfig(
        epsilon=3, step_bits=step, max_level=12 // step - 1))
    assert len(result) > 10
    assert result.as_dict() == enumerate_frequent(backend, params, T, 3,
                                                  OracleConfig(max_len=12))


@settings(max_examples=40, deadline=None)
@given(backend=st.sampled_from(BACKENDS + [KTBackend(k) for k in (5, 8, 9, 24)]),
       params=params_strategy,
       items=st.lists(bit_strings(6, 16), min_size=2, max_size=6),
       step_bits=st.integers(1, 3), epsilon=st.integers(1, 3))
def test_miner_equals_oracle_on_random_instances(backend, params, items, step_bits,
                                                 epsilon):
    # Both sides stop at 12 bits: the miner after the level whose patterns
    # reach 12 bits, the oracle at max_len 12.
    T = TransactionSet(items)
    config = MiningConfig(epsilon=epsilon, step_bits=step_bits,
                          max_level=12 // step_bits - 1)
    result = mine(backend, params, T, config)
    assert result.as_dict() == enumerate_frequent(backend, params, T, epsilon,
                                                  OracleConfig(max_len=12))
