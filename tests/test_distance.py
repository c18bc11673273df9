import math
import random
import tracemalloc
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bitmine import (ExternalBackend, KTBackend, LZBackend, TransactionSet,
                     UndefinedDistanceError, code_len, cond_code_len,
                     distance_matrix, gen_random, info_dist, kraft_diagnostic,
                     ncd, nid_estimate, triangle_violation_rate)
from bitmine import bits as bitutil
from bitmine import distance, ktbatch
from bitmine.distance import _MEASURE_FN, MAX_NEIGHBORHOOD_LEN, DistanceMatrix

from conftest import ZeroBackend


def random_bits(rng, n):
    return "".join(rng.choice("01") for _ in range(n))


class TestNid:
    def test_self_distance_sixteen_zeros(self, kt0):
        a = "0" * 16
        assert nid_estimate(kt0, a, a) == pytest.approx(0.174, abs=1e-3)

    def test_symmetric_exactly(self, kt0, kt1):
        rng = random.Random(21)
        for backend in (kt0, kt1):
            for _ in range(50):
                a = random_bits(rng, rng.randint(1, 40))
                b = random_bits(rng, rng.randint(1, 40))
                assert nid_estimate(backend, a, b) == nid_estimate(backend, b, a)

    def test_unrelated_random_strings_regression(self, kt0):
        # regression values for two unrelated 64-bit seeded strings
        rng = random.Random(42)
        a, b = random_bits(rng, 64), random_bits(rng, 64)
        d = nid_estimate(kt0, a, b)
        assert 0.6 <= d <= 1.1

    def test_nonnegative(self, kt0, lz):
        rng = random.Random(22)
        for backend in (kt0, lz):
            for _ in range(50):
                a = random_bits(rng, rng.randint(1, 32))
                b = random_bits(rng, rng.randint(1, 32))
                assert nid_estimate(backend, a, b) >= 0.0

    def test_empty_operand_rejected(self, kt0):
        with pytest.raises(ValueError):
            nid_estimate(kt0, "", "01")


class TestNcd:
    def test_self_distance_sixteen_zeros(self, kt0):
        a = "0" * 16
        assert ncd(kt0, a, a) == pytest.approx(0.174, abs=1e-3)

    def test_exactly_symmetric(self, kt0):
        rng = random.Random(23)
        for _ in range(100):
            a = random_bits(rng, rng.randint(1, 48))
            b = random_bits(rng, rng.randint(1, 48))
            assert ncd(kt0, a, b) == ncd(kt0, b, a)

    def test_corpus_range(self, kt0):
        corpus = gen_random(10, (32, 48), 77)
        for a in corpus:
            for b in corpus:
                assert 0.0 <= ncd(kt0, a, b) <= 1.1


class TestInfoDist:
    def test_self_distance_is_small_and_nonnegative(self, kt0):
        a = "0" * 16
        d = info_dist(kt0, a, a)
        assert d == pytest.approx(code_len(kt0, a + a) - code_len(kt0, a), abs=1e-12)
        assert 0.0 <= d < code_len(kt0, a)

    def test_single_bit_case(self, kt0):
        expected = max(cond_code_len(kt0, "1", "0"), cond_code_len(kt0, "0", "1"))
        assert info_dist(kt0, "0", "1") == pytest.approx(expected, abs=1e-12)

    def test_exactly_symmetric(self, kt1):
        rng = random.Random(24)
        for _ in range(50):
            a = random_bits(rng, rng.randint(1, 32))
            b = random_bits(rng, rng.randint(1, 32))
            assert info_dist(kt1, a, b) == info_dist(kt1, b, a)


class TestMatrix:
    def test_two_identical_items(self, kt0):
        a = "0" * 24
        m = distance_matrix(kt0, [a, a], "ncd")
        assert m.values.shape == (2, 2)
        assert m.values[0, 1] == m.values[1, 0] == m.values[0, 0] == m.values[1, 1]

    def test_three_items_symmetric(self, kt0):
        items = ["000000000000", "010101010101", "011011100011"]
        m = distance_matrix(kt0, items, "nid")
        assert np.array_equal(m.values, m.values.T)

    def test_matches_individual_calls(self):
        # length-1 items, a constant string and equal-length distinct items
        # (the canonical joint's lexicographic tie-break) beside random ones
        corpus = (list(gen_random(10, (24, 32), 5))
                  + ["0", "1", "0" * 30, "0110", "1001", "0110"])
        n = len(corpus)
        for backend in (KTBackend(0), KTBackend(1), KTBackend(3), KTBackend(5),
                        KTBackend(24), LZBackend()):
            for measure, fn in _MEASURE_FN.items():
                m = distance_matrix(backend, corpus, measure)
                for i in range(n):
                    for j in range(n):
                        ref = fn(backend, corpus[min(i, j)], corpus[max(i, j)])
                        assert m.values[i, j] == ref, (backend, measure, i, j)

    @pytest.mark.parametrize("chunk", [3, ktbatch._JOINT_CHUNK])
    @settings(max_examples=30, deadline=None)
    @given(order=st.sampled_from([0, 1, 2, 3, 4, 5, 6, 24]),
           short=st.lists(st.text(alphabet="01", min_size=1, max_size=64),
                          min_size=1, max_size=5),
           seed=st.integers(0, 2 ** 32 - 1),
           ones=st.sampled_from([0.02, 0.5, 0.97]))
    def test_kt_matrix_equals_the_single_pair_functions(self, chunk, order,
                                                         short, seed, ones):
        # one item runs past the 1,024-entry step-cost tables; a chunk of
        # 3 entries prices each plan and pair on its own
        rng = random.Random(seed)
        long = "".join("1" if rng.random() < ones else "0"
                       for _ in range(rng.randint(2100, 2300)))
        items = short + [long]
        rng.shuffle(items)
        backend = KTBackend(order)
        with mock.patch.object(ktbatch, "_JOINT_CHUNK", chunk):
            for measure, fn in _MEASURE_FN.items():
                m = distance_matrix(backend, items, measure)
                for i in range(len(items)):
                    for j in range(i, len(items)):
                        ref = fn(backend, items[i], items[j])
                        assert m.values[i, j] == m.values[j, i] == ref, (
                            measure, i, j)

    def test_needs_two_items(self, kt0):
        with pytest.raises(ValueError):
            distance_matrix(kt0, ["0101"], "ncd")

    def test_empty_item_names_its_pair(self, kt0):
        with pytest.raises(ValueError, match=r"^pair \(1, 1\): distance "
                                             r"operands must have length >= 1"):
            distance_matrix(kt0, ["01", "", "1", ""], "nid")

    def test_unknown_measure(self, kt0):
        with pytest.raises(ValueError):
            distance_matrix(kt0, ["01", "10"], "euclid")


class _Counting:
    """A backend that delegates to another and counts the calls it gets."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = Counter()

    def initial_state(self):
        return self.inner.initial_state()

    def extend(self, state, bits, cost=0.0):
        self.calls["extend"] += 1
        if state == self.inner.initial_state():
            self.calls["extend_from_initial"] += 1
        return self.inner.extend(state, bits, cost)

    def extend_cost(self, state, bits, cost=0.0):
        self.calls["extend_cost"] += 1
        return self.inner.extend_cost(state, bits, cost)

    def code_len(self, x):
        self.calls["code_len"] += 1
        return self.inner.code_len(x)


@pytest.mark.parametrize("measure", ["ncd", "nid", "info"])
def test_matrix_codes_each_item_once(measure):
    corpus = list(gen_random(7, (8, 24), 3)) + ["1"]
    n = len(corpus)
    backend = _Counting(KTBackend(1))
    distance_matrix(backend, corpus, measure)
    assert backend.calls["extend"] == backend.calls["extend_from_initial"] == n
    assert backend.calls["code_len"] == 0
    # per unordered pair, the diagonal included: one canonical joint for
    # ncd, both conditionals for nid and info
    pairs = n * (n + 1) // 2
    joints = pairs if measure == "ncd" else 2 * pairs
    assert backend.calls["extend_cost"] == joints


@pytest.mark.parametrize("measure", ["ncd", "nid", "info"])
def test_kt_matrix_walks_each_item_once(measure, monkeypatch):
    # the per-bit walk codes each item; every joint is priced without it
    walked = []
    walk = KTBackend._walk

    def counting(self, ctx, counts, new, bits, cost):
        walked.append(bits)
        return walk(self, ctx, counts, new, bits, cost)

    monkeypatch.setattr(KTBackend, "_walk", counting)
    corpus = list(gen_random(7, (8, 24), 3)) + ["1"]
    distance_matrix(KTBackend(1), corpus, measure)
    assert walked == corpus


def test_kt_matrix_memory_is_bounded():
    # 1,640 joints of 2,000-4,000 bits: pricing them all at once would hold
    # tens of MB
    rng = random.Random(31)
    items = [random_bits(rng, rng.randint(2000, 4000)) for _ in range(40)]
    tracemalloc.start()
    try:
        m = distance_matrix(KTBackend(4), items, "nid")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - m.values.nbytes < 4 * 2 ** 20


@pytest.mark.parametrize("measure", ["ncd", "nid"])
@pytest.mark.parametrize("order", [0, 1, 4])
def test_kt_matrix_of_long_items_is_bounded(order, measure):
    # a joint of two 2**16-bit items, priced whole, would hold about 10 MB
    # (40 MB at 2**18 bits); a long second string is priced a chunk at a
    # time, in 2.0-2.4 MB with the term tables, which uncapped would add
    # 1 MB here.  The items are coded before tracing, which makes the
    # per-bit walk about 13 times slower.  The short item's joints take the
    # batch.
    rng = random.Random(order)
    items = [random_bits(rng, 1 << 16) for _ in range(2)]
    items.insert(1, random_bits(rng, 40))
    backend = KTBackend(order)
    fn = _MEASURE_FN[measure]
    ref = np.zeros((3, 3))
    for i in range(3):
        for j in range(i, 3):
            ref[i, j] = ref[j, i] = fn(backend, items[i], items[j])
    assert distance_matrix(backend, items, measure).values.tolist() == \
        ref.tolist()
    coded = [distance._code(backend, x) for x in items]
    pairs = np.array([(i, j) for i in range(3) for j in range(3)])
    tracemalloc.start()
    try:
        distance._joint_costs(backend, coded, pairs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * 2 ** 20


def test_cumsum_along_rows_adds_in_order():
    # the KT joint pricer sums each row with np.cumsum along axis 1 and
    # needs the per-bit walk's order of additions
    rng = np.random.default_rng(7)
    rows = rng.random((37, 300)) * rng.choice([1e-3, 1.0, 1e3], (37, 300))
    sums = np.cumsum(rows, axis=1)
    for r, row in enumerate(rows.tolist()):
        acc = 0.0
        for k, v in enumerate(row):
            acc += v
            assert sums[r, k] == acc, (r, k)


def test_external_matrix_runs_the_command_once_per_item_and_joint(monkeypatch):
    backend = ExternalBackend("cat")
    calls = []

    def fake_code_len(x):
        calls.append(x)
        return 8.0 * (1 + x.count("1") // 3)

    monkeypatch.setattr(backend, "code_len", fake_code_len)
    corpus = list(gen_random(6, (8, 16), 4))
    n = len(corpus)
    m = distance_matrix(backend, corpus, "ncd")
    assert len(calls) == n + n * (n + 1) // 2
    for i in range(n):
        for j in range(n):
            assert m.values[i, j] == ncd(backend, corpus[min(i, j)],
                                         corpus[max(i, j)])


def test_triangle_violation_rate_is_a_rate(kt0):
    corpus = list(gen_random(12, (24, 32), 9))
    m = distance_matrix(kt0, corpus, "ncd")
    rate = triangle_violation_rate(m)
    assert 0.0 <= rate <= 1.0


def _triangle_rate_by_triples(d):
    # the definition, one ordered triple at a time
    n = d.shape[0]
    triples = violations = 0
    for a in range(n):
        for b in range(n):
            for c in range(n):
                if len({a, b, c}) < 3:
                    continue
                triples += 1
                if d[a, c] > d[a, b] + d[b, c] + 1e-12:
                    violations += 1
    return violations / triples if triples else 0.0


@pytest.mark.parametrize("n", [0, 1, 2, 3, 7, 16])
def test_triangle_violation_rate_equals_the_triple_loop(n):
    rng = np.random.default_rng(n)
    uniform = rng.random((n, n))
    # few distinct values: many sums land on the comparison's boundary
    ties = rng.integers(0, 3, (n, n)) / 2.0
    for values in (uniform, (uniform + uniform.T) / 2, ties, ties + ties.T):
        m = DistanceMatrix([f"i{k}" for k in range(n)], values, "ncd")
        assert triangle_violation_rate(m) == _triangle_rate_by_triples(values)


def test_kraft_diagnostic_runs(kt0):
    total = kraft_diagnostic(kt0, "01010101", 4, "nid")
    assert math.isfinite(total) and total > 0.0


@pytest.mark.parametrize("measure", ["nid", "ncd", "info"])
def test_kraft_diagnostic_equals_the_sum_of_single_pair_distances(measure):
    fn = _MEASURE_FN[measure]
    for backend in (KTBackend(0), KTBackend(2), KTBackend(5), LZBackend()):
        for x in ("0", "0110", "01011011", "11111"):
            ref = 0.0
            for y in bitutil.all_of_length(5):
                if y != x:
                    ref += 2.0 ** (-fn(backend, x, y))
            assert kraft_diagnostic(backend, x, 5, measure) == ref


def test_kraft_diagnostic_refuses_an_over_budget_neighborhood(kt0, monkeypatch):
    def refuse(n):
        raise AssertionError("neighborhood enumerated despite the cap")

    monkeypatch.setattr(bitutil, "all_of_length", refuse)
    with pytest.raises(ValueError, match="neighborhood_len"):
        kraft_diagnostic(kt0, "01", MAX_NEIGHBORHOOD_LEN + 1)


def test_kraft_diagnostic_refuses_an_empty_neighborhood(kt0):
    with pytest.raises(ValueError, match="neighborhood_len must be in 1.."):
        kraft_diagnostic(kt0, "01", 0)


def test_kraft_diagnostic_refuses_an_unknown_measure(kt0):
    with pytest.raises(ValueError, match="measure must be one of"):
        kraft_diagnostic(kt0, "01", 4, "hamming")


def test_matrix_over_the_item_cap_is_refused_before_coding(kt0, monkeypatch):
    def refuse(backend, x):
        raise AssertionError("item coded despite the cap")

    monkeypatch.setattr(distance, "MAX_MATRIX_ITEMS", 3)
    monkeypatch.setattr(distance, "_code", refuse)
    with pytest.raises(ValueError, match="4 items, over the cap of 3"):
        distance_matrix(kt0, ["0", "1", "01", "10"])
    with pytest.raises(AssertionError, match="despite the cap"):
        distance_matrix(kt0, ["0", "1", "01"])


def test_matrix_with_a_wrong_label_count_is_refused_before_coding(
        kt0, monkeypatch):
    def refuse(backend, x):
        raise AssertionError("item coded despite the label count")

    monkeypatch.setattr(distance, "_code", refuse)
    for labels in (["a", "b"], ["a", "b", "c", "d"]):
        with pytest.raises(ValueError,
                           match=f"^{len(labels)} labels for 3 items$"):
            distance_matrix(kt0, ["0", "1", "01"], labels=labels)
    with pytest.raises(AssertionError, match="despite the label count"):
        distance_matrix(kt0, ["0", "1", "01"], labels=iter("abc"))


@pytest.mark.parametrize("measure", ["nid", "ncd"])
def test_zero_code_lengths_leave_the_distance_undefined(measure):
    zero = ZeroBackend()
    with pytest.raises(UndefinedDistanceError,
                       match="^both code lengths are zero$"):
        _MEASURE_FN[measure](zero, "01", "10")
    with pytest.raises(UndefinedDistanceError,
                       match=r"^pair \(0, 0\): both code lengths are zero$"):
        distance_matrix(zero, ["01", "10"], measure)
    with pytest.raises(UndefinedDistanceError,
                       match="^neighbour 00: both code lengths are zero$"):
        kraft_diagnostic(zero, "01", 2, measure)
