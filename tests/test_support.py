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


@pytest.mark.parametrize("table_max", [1 << 22, 0],
                         ids=["closed-form", "coder-path"])
def test_kt_groups_are_counted_only_in_closed_form(table_max, monkeypatch):
    # the closed form counts each signature group once, and each member
    # takes its group's count; the coder path (the table over budget)
    # counts each candidate on its own
    monkeypatch.setattr(occurrence, "_KT_TABLE_MAX", table_max)
    T = gen_random(8, (20, 30), 3)
    candidates = [format(v, "06b") for v in range(64)]
    groups = ktbatch.string_groups(2, candidates)
    params = OccurrenceParams(c1=0.6, c2=0.3)
    counts = support(KTBackend(2), params, T, candidates, groups)
    closed = table_max > 0
    assert (counts.occurrences is None) == closed
    assert len(groups.first) < len(candidates)
    assert counts.groups == (len(groups.first) if closed else len(candidates))
    assert counts == {x: frequency(KTBackend(2), params, T, x)
                      for x in candidates}
    assert not counts.near.any()
    first = [candidates[i] for i in groups.first.tolist()]
    assert [counts[x] for x in candidates] == [
        counts[first[g]] for g in groups.group.tolist()]


@pytest.mark.parametrize("backend", [LZBackend(), ExternalBackend("cat")],
                         ids=["lz", "external"])
def test_per_group_holds_each_distinct_candidates_count(backend):
    # each candidate is a group of its own; a repeated candidate is counted
    # again and holds its first copy's count
    T = gen_random(6, (20, 30), 3)
    params = OccurrenceParams(c1=0.6, c2=0.3)
    candidates = ["0110", "1", "0110", "00", "0110011", "1", "00"]
    counts = support(backend, params, T, candidates)
    assert counts.groups == len(counts.occurrences) == len(candidates)
    assert counts == {x: frequency(backend, params, T, x) for x in candidates}
    assert len(set(counts.values())) > 1
    assert counts.occurrences[0] == counts.occurrences[2]
    assert [len(ts) for ts in counts.occurrences] == [counts[x]
                                                     for x in candidates]


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


# Two transactions on which members of one KT order-3 signature group
# straddle a bound: their L(x) (or extra costs) differ by rounding, and the
# thresholds put the entropy (or noise) bound exactly on the smaller value.
GROUP_EDGE = ["0110100110010110" * 4, "0011101001011100011010111" * 6]


@pytest.mark.parametrize("params", [
    OccurrenceParams(variant="additive", c3=36.73830516120686, c4=1e6),
    OccurrenceParams(c1=0.3059201658912567, c2=0.99)],
    ids=["additive", "scale-free"])
def test_group_members_across_an_entropy_bound_count_like_frequency(params):
    # two groups of two, in ascending order, whose members' L(x) are
    # 16.192645077942398 and ...394 (first group) and ...394 and ...398;
    # the bound in the first transaction is the smaller value, so in each
    # group the first member decides otherwise than the second
    backend, T = KTBackend(3), TransactionSet(GROUP_EDGE)
    xs = ["01101011111110", "01111111010110", "10000000101001",
          "10010100000001"]
    assert ktbatch.string_groups(3, xs).group.tolist() == [0, 0, 1, 1]
    expected = {x: frequency(backend, params, T, x) for x in xs}
    assert expected == {"01101011111110": 1, "01111111010110": 2,
                        "10000000101001": 2, "10010100000001": 1}
    assert support(backend, params, T, xs) == expected
    assert support(backend, params, T, xs[::-1]) == expected
    mined = mine(backend, params, T, MiningConfig(
        epsilon=1, step_bits=2, max_level=6)).as_dict()
    assert {x: mined[x] for x in xs} == expected
    found = enumerate_frequent(backend, params, T, 1, OracleConfig(max_len=14))
    assert {x: found[x] for x in xs} == expected


def test_group_members_across_the_noise_bound_count_like_frequency():
    # extra costs after the first transaction 9.811997522012168 and ...167,
    # the bound the smaller
    backend, T = KTBackend(3), TransactionSet(GROUP_EDGE)
    params = OccurrenceParams(variant="additive", c3=1e-9, c4=9.811997522012167)
    xs = ["01101110", "01110110"]
    groups = ktbatch.string_groups(3, xs)
    assert groups.group[0] == groups.group[1]
    expected = {x: frequency(backend, params, T, x) for x in xs}
    assert expected == {"01101110": 1, "01110110": 2}
    for order in (xs, xs[::-1]):
        counts = support(backend, params, T, order)
        assert counts == expected
        assert counts.near.all()  # recounted by the coder
    mined = mine(backend, params, T, MiningConfig(
        epsilon=1, step_bits=2, max_level=3)).as_dict()
    assert {x: mined[x] for x in xs} == expected
    found = enumerate_frequent(backend, params, T, 1, OracleConfig(max_len=8))
    assert {x: found[x] for x in xs} == expected


def _land(bound, target, c):
    """``c`` moved by at most 8 ulps, so that ``bound(c) == target``."""
    near, down, up = [c], c, c
    for _ in range(8):
        down, up = math.nextafter(down, -math.inf), math.nextafter(up, math.inf)
        near += [down, up]
    landed = [v for v in near if bound(v) == target]
    assert landed, (target, c)
    return landed[0]


def _thresholds(variant, side, target, len_y, other):
    """Params whose entropy (or noise, by ``side``) bound after a
    transaction of L(y) ``len_y`` is exactly ``target``, and whose other
    bound there is about ``other``."""
    if variant == "scale-free":
        c = _land(lambda c: c * len_y, target, target / len_y)
        return (OccurrenceParams(c1=c, c2=other / len_y) if side == "entropy"
                else OccurrenceParams(c1=other / len_y, c2=c))
    if side == "entropy":
        return OccurrenceParams(variant="additive", c4=other, c3=_land(
            lambda c: len_y - c, target, len_y - target))
    return OccurrenceParams(variant="additive", c3=len_y - other, c4=target)


_ZERO_RUNS = ["0" * 30 + "1" + "0" * 30, "0" * 12 + "1" + "0" * 40 + "1" + "0" * 8]
# (transactions, the one the bound is set in, two candidates) per backend
# and side.  At KT orders 0-3 the two share a signature group and their
# values there differ by rounding; at order 9 (the coder path) a group of
# two needs 20 bits, and its values are equal; LZ has no groups.
_ON_A_VALUE = {
    (0, "entropy"): (GROUP_EDGE, 0, ["00000001111", "00000011101"]),
    (0, "noise"): (GROUP_EDGE, 1, ["000001110", "000000111"]),
    (1, "entropy"): (GROUP_EDGE, 0, ["00000010100", "00000001010"]),
    (1, "noise"): (GROUP_EDGE, 1, ["00000100", "00000010"]),
    (2, "entropy"): (GROUP_EDGE, 0, ["0100000011101", "0101110000001"]),
    (2, "noise"): (GROUP_EDGE, 0, ["000100", "001000"]),
    (3, "entropy"): (GROUP_EDGE, 0, ["01111111010110", "01101011111110"]),
    (3, "noise"): (GROUP_EDGE, 1, ["01001010", "01010010"]),
    (9, "entropy"): (_ZERO_RUNS, 1, ["0" * 10 + "1" + "0" * 9,
                                     "0" * 9 + "1" + "0" * 10]),
    (9, "noise"): (_ZERO_RUNS, 1, ["0" * 10 + "1" + "0" * 9,
                                   "0" * 9 + "1" + "0" * 10]),
    ("lz", "entropy"): (GROUP_EDGE, 0, ["00000000", "00000010"]),
    ("lz", "noise"): (GROUP_EDGE, 0, ["00100100", "00101000"]),
}


@pytest.mark.parametrize("side", ["entropy", "noise"])
@pytest.mark.parametrize("variant", ["scale-free", "additive"])
@pytest.mark.parametrize("order", [0, 1, 2, 3, 9, "lz"])
def test_bound_on_a_computed_value_counts_like_frequency(order, variant, side):
    # c1/c3 (entropy) or c2/c4 (noise) set so that the bound after one
    # transaction is exactly the smaller candidate's L(x) (``code_len``) or
    # extra cost (``extend_cost``); LZ costs are integers, so its bound
    # also lies half a bit above it.  Every count of ``support`` and of
    # ``mine`` must be ``frequency``'s.
    items, t, xs = _ON_A_VALUE[order, side]
    backend = LZBackend() if order == "lz" else KTBackend(order)
    T = TransactionSet(items)
    state, len_y = T.cached(backend).states[t], T.cached(backend).lengths[t]
    L = [backend.code_len(x) for x in xs]
    extra = [backend.extend_cost(state, x) for x in xs]
    values, others = (L, extra) if side == "entropy" else (extra, L)
    if order != "lz":
        groups = ktbatch.string_groups(order, xs)
        assert groups.group[0] == groups.group[1]
    targets = [min(values)] + [min(values) + 0.5] * (order == "lz")
    for target in targets:
        params = _thresholds(variant, side, target, len_y, max(others) + 1)
        expected = {x: frequency(backend, params, T, x) for x in xs}
        if order != 9:  # the bound splits the two
            assert expected[xs[0]] != expected[xs[1]]
        assert support(backend, params, T, xs) == expected
        assert support(backend, params, T, xs[::-1]) == expected
        mined = mine(backend, params, T, MiningConfig(
            epsilon=1, step_bits=2, max_level=(len(xs[0]) - 1) // 2)).as_dict()
        assert {x: mined.get(x, 0) for x in xs} == expected
        assert mined == {x: frequency(backend, params, T, x) for x in mined}


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
