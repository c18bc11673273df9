import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bitmine import (EstimationError, ExternalBackend, KTBackend, LZBackend,
                     OccurrenceParams, PredicateError, TransactionSet,
                     code_len, frequency, gen_random, occurs, support)
from bitmine import bits as bitutil
from bitmine import lzbatch, occurrence

from conftest import ZeroBackend, ktk_len_exact

SCALE = OccurrenceParams(variant="scale-free", c1=0.6, c2=0.3)
ADDITIVE = OccurrenceParams(variant="additive", c3=2.0, c4=3.0)


def random_bits(rng, lo, hi):
    return "".join(rng.choice("01") for _ in range(rng.randint(lo, hi)))


def parents_of(xs, parent, occ=None):
    """``support``'s ``parents`` for ``xs``: (patterns, occurrence lists,
    each x's parent's index), from {x: its parent} and {parent: its
    occurrence list} (None: every transaction)."""
    patterns = list(dict.fromkeys(parent[x] for x in xs))
    index = {p: i for i, p in enumerate(patterns)}
    return (patterns, [None if occ is None else occ[p] for p in patterns],
            np.array([index[parent[x]] for x in xs], dtype=np.intp))


class TestParams:
    def test_scale_free_threshold_bounds(self):
        with pytest.raises(ValueError):
            OccurrenceParams(variant="scale-free", c1=1.0, c2=0.3)
        with pytest.raises(ValueError):
            OccurrenceParams(variant="scale-free", c1=0.5, c2=0.0)

    def test_additive_threshold_bounds(self):
        with pytest.raises(ValueError):
            OccurrenceParams(variant="additive", c3=0.0, c4=1.0)
        with pytest.raises(ValueError):
            OccurrenceParams(variant="additive", c3=1.0, c4=-1.0)

    def test_unknown_variant(self):
        with pytest.raises(ValueError):
            OccurrenceParams(variant="multiplicative")


class TestOccurs:
    def test_pattern_never_occurs_in_itself_scale_free(self, kt0):
        # L(x) = L(y) > c1 * L(y) whenever L(y) > 0
        for x in ["0", "0110", "0010111010001101"]:
            for c1 in (0.2, 0.5, 0.9):
                params = OccurrenceParams(c1=c1, c2=0.5)
                assert occurs(kt0, params, x, x) is False

    def test_simple_pattern_in_complex_datum(self, kt0):
        assert occurs(kt0, SCALE, "0000", "0010111010001101") is True

    def test_entropy_reduction_gate(self, kt0):
        # the datum is itself too simple: c1 * L(y) < L(x)
        assert occurs(kt0, SCALE, "0000", "0" * 16) is False

    def test_additive_variant(self, kt0):
        y = "0010111010001101"
        # L(x) ~ 1.87 <= L(y) - 2 and small conditional cost
        assert occurs(kt0, OccurrenceParams(variant="additive", c3=2.0, c4=4.0),
                      "0000", y) is True
        assert occurs(kt0, OccurrenceParams(variant="additive", c3=2.0, c4=0.5),
                      "0000", y) is False

    def test_empty_pattern_rejected(self, kt0):
        with pytest.raises(ValueError):
            occurs(kt0, SCALE, "", "0101")

    def test_empty_datum_rejected(self, kt0):
        with pytest.raises(ValueError):
            occurs(kt0, SCALE, "0", "")

    def test_inequalities_are_non_strict(self, kt0):
        # pick c1 exactly at L(x)/L(y): condition 1 holds with equality
        x, y = "0000", "0010111010001101"
        c1 = code_len(kt0, x) / code_len(kt0, y)
        params = OccurrenceParams(c1=c1, c2=0.9)
        assert occurs(kt0, params, x, y) is True


class TestFrequency:
    def test_empty_transaction_set(self, kt0):
        T = TransactionSet([])
        assert frequency(kt0, SCALE, T, "0000") == 0

    def test_multiset_counts_repetitions(self, kt0):
        y = "0010111010001101"
        assert occurs(kt0, SCALE, "0000", y)
        T = TransactionSet([y, y])
        assert frequency(kt0, SCALE, T, "0000") == 2

    def test_matches_per_transaction_loop(self, kt0, fixture_transactions):
        T = fixture_transactions
        for x in ["0000", "01", "111", "010101"]:
            expected = sum(occurs(kt0, SCALE, x, y) for y in T.items)
            assert frequency(kt0, SCALE, T, x) == expected

    def test_cached_path_matches_uncached(self, kt1, lz, fixture_transactions):
        T = fixture_transactions
        for backend in (kt1, lz):
            for x in ["00", "0110", "000000"]:
                expected = sum(occurs(backend, SCALE, x, y) for y in T.items)
                assert frequency(backend, SCALE, T, x) == expected

    def test_rejects_empty_transaction(self):
        with pytest.raises(ValueError):
            TransactionSet(["010", ""])

    def test_zero_code_length_of_a_datum_is_undecidable(self):
        zero, T = ZeroBackend(), TransactionSet(["0110", "10"])
        with pytest.raises(PredicateError, match="^backend reports code "
                                                 "length 0.0 for a non-empty"):
            occurs(zero, SCALE, "01", "0110")
        for count in (frequency, lambda *a: support(*a[:3], [a[3]])):
            with pytest.raises(PredicateError, match="^transaction 0: backend "
                                                     "reports code length 0.0"):
                count(zero, SCALE, T, "01")


class TestTransactionSet:
    def test_rejects_non_bit_items(self):
        with pytest.raises(ValueError, match="transaction 1 holds 'x'"):
            TransactionSet(["0110", "01x2"])
        with pytest.raises(ValueError, match="transaction 0"):
            TransactionSet([101])

    def test_items_stay_a_list(self):
        assert TransactionSet(["01", "10"]).items == ["01", "10"]

    def test_cache_is_keyed_by_backend_value(self):
        # A cache keyed by id(backend) served the order-0 lengths to an
        # order-3 backend that reused the freed object's id.
        T = gen_random(4, (30, 30), 11)
        assert T.max_code_len(KTBackend(0)) == pytest.approx(
            max(ktk_len_exact(y, 0) for y in T.items))
        assert T.max_code_len(KTBackend(3)) == pytest.approx(
            max(ktk_len_exact(y, 3) for y in T.items))
        assert T.cached(KTBackend(2)) is T.cached(KTBackend(2))

    def test_cache_follows_changed_items(self):
        kt0 = KTBackend(0)
        T = TransactionSet(["0010111010001101"] * 2)
        assert frequency(kt0, SCALE, T, "0000") == 2
        T.items[0] = "0" * 16
        expected = sum(occurs(kt0, SCALE, "0000", y) for y in T.items)
        assert expected == 1
        assert frequency(kt0, SCALE, T, "0000") == expected
        T.items.append("01x")
        with pytest.raises(ValueError, match="transaction 2"):
            T.cached(kt0)


class TestAntiMonotonicity:
    """Extensions of a non-occurring pattern do not occur (both variants)."""

    def _run(self, backend, params, cases, rng):
        for _ in range(cases):
            x = random_bits(rng, 1, 8)
            e = random_bits(rng, 1, 6)
            z = random_bits(rng, 8, 32)
            if not occurs(backend, params, x, z):
                assert not occurs(backend, params, x + e, z), (x, e, z)

    def test_scale_free_kt(self, kt0):
        self._run(kt0, SCALE, 2000, random.Random(101))

    def test_scale_free_kt_order1(self, kt1):
        self._run(kt1, SCALE, 1000, random.Random(102))

    def test_scale_free_lz(self, lz):
        self._run(lz, SCALE, 1000, random.Random(103))

    def test_additive_kt(self, kt0):
        self._run(kt0, ADDITIVE, 2000, random.Random(104))

    def test_additive_lz(self, lz):
        self._run(lz, ADDITIVE, 1000, random.Random(105))

    def test_frequency_non_increasing_under_extension(self, kt0, fixture_transactions):
        T = fixture_transactions
        rng = random.Random(106)
        for _ in range(200):
            x = random_bits(rng, 1, 6)
            e = random_bits(rng, 1, 4)
            assert frequency(kt0, SCALE, T, x + e) <= frequency(kt0, SCALE, T, x)


class TestSupportByParent:
    """``support`` with ``parents``: children counted on their parent's
    occurrence list, from one parse of y || parent per transaction."""

    @staticmethod
    def _children(parents, step_bits):
        # the seed level's parent "" has every string of length 1..step_bits
        if parents == [""]:
            return {x: "" for n in range(1, step_bits + 1)
                    for x in bitutil.all_of_length(n)}
        return {p + s: p for p in parents for s in bitutil.all_of_length(step_bits)}

    def _check(self, backend, params, items, parents, step_bits):
        T = TransactionSet(items)
        occ = {p: [t for t, y in enumerate(items) if occurs(backend, params, p, y)]
               for p in parents if p}
        occ[""] = None
        children = self._children(parents, step_bits)
        counts = support(backend, params, T, list(children),
                         parents=parents_of(children, children, occ))
        for x, found in zip(children, counts.occurrences):
            # infrequent candidates included: every count is checked
            assert counts[x] == frequency(backend, params, T, x), x
            assert found == [
                t for t, y in enumerate(items) if occurs(backend, params, x, y)], x
        return T, occ, counts

    @settings(max_examples=150, deadline=None)
    @given(variant=st.sampled_from(["scale-free", "additive"]),
           c_a=st.floats(0.05, 0.95), c_b=st.floats(0.05, 0.95),
           items=st.lists(st.text(alphabet="01", min_size=1, max_size=24),
                          min_size=1, max_size=8),
           parent_len=st.integers(0, 8), step_bits=st.integers(1, 3),
           data=st.data())
    def test_lz_counts_and_occurrences_equal_the_definition(
            self, variant, c_a, c_b, items, parent_len, step_bits, data):
        params = (OccurrenceParams(c1=c_a, c2=c_b) if variant == "scale-free"
                  else OccurrenceParams(variant="additive", c3=12 * c_a, c4=12 * c_b))
        parents = [""]
        if parent_len:
            # parents of lengths shortest..parent_len in one count, as
            # level 1 has after the seed
            shortest = data.draw(st.integers(1, parent_len))
            parents = data.draw(st.lists(
                st.text(alphabet="01", min_size=shortest, max_size=parent_len),
                min_size=1, max_size=4, unique=True))
        self._check(LZBackend(), params, items, parents, step_bits)

    def test_kt_sequential_path_takes_parents_too(self, monkeypatch):
        # Count tables over budget: KT is counted by the coder, parent by
        # parent, continuing the parent's float sum, so decisions match.
        monkeypatch.setattr(occurrence, "_KT_TABLE_MAX", 1)
        items = gen_random(10, (16, 28), 21).items
        backend = KTBackend(2)
        # parents of one length, and of lengths 1 and 2 as at level 1
        for parents in ([format(v, "04b") for v in range(16)],
                        ["0", "1", "00", "01", "10", "11"]):
            T, _, counts = self._check(backend, SCALE, items, parents, 2)
            assert T.cached(backend).kt is None  # the closed form did not run
            assert any(counts.values())

    @pytest.mark.parametrize("backend", [LZBackend(), KTBackend(2)],
                             ids=["lz", "kt2-coder"])
    def test_a_parent_with_an_empty_list_beside_one_with_none(
            self, backend, monkeypatch):
        # each child is counted on its parent's list alone: on no
        # transaction for the empty list, on every one for None
        monkeypatch.setattr(occurrence, "_KT_TABLE_MAX", 1)  # KT: the coder
        items = gen_random(10, (16, 28), 21).items
        T = TransactionSet(items)
        patterns, lists = ["0110", "", "1"], [[], None, [0, 3, 4, 7]]
        xs = [p + s for p in patterns for s in bitutil.all_of_length(2)]
        of = np.repeat(np.arange(len(patterns)), 4)
        counts = support(backend, SCALE, T, xs, parents=(patterns, lists, of))
        for x, i, found in zip(xs, of.tolist(), counts.occurrences):
            on = range(len(items)) if lists[i] is None else lists[i]
            expected = [t for t in on if occurs(backend, SCALE, x, items[t])]
            assert counts[x] == len(expected) and found == expected, x
        # the empty list hides occurrences, and the other two lists count
        assert any(frequency(backend, SCALE, T, x) for x in xs[:4])
        assert all(any(counts[x] for x in xs[k:k + 4]) for k in (4, 8))

    def test_external_backend_is_counted_from_its_coder_states(self):
        # The external adapter has no signature groups: each candidate is
        # priced once for L(x), then on every transaction where L(x)
        # passes entropy reduction, from the transaction's coder state.
        ext = ExternalBackend("cat")
        items = ["0110" * 4, "1" * 16, "01101001" * 4, "001" * 10, "1" * 7]
        T = TransactionSet(items)
        xs = ["0", "1", "01", "10", "110", "0" * 9, "1101001011"]
        counts = support(ext, SCALE, T, xs)
        for x in xs:
            assert counts[x] == frequency(ext, SCALE, T, x), x
        lengths = T.cached(ext).lengths
        assert counts.pairs == sum(
            ext.code_len(x) <= SCALE.entropy_bound(len_y)
            for x in xs for len_y in lengths)
        assert counts.groups == len(xs) and counts.pairs < len(xs) * len(items)
        assert len(set(counts.values())) > 1

    def test_external_backend_ignores_parent_occurrence_lists(self):
        # Not monotone: a child may occur where its parent does not, so the
        # parent lists given must not prune the count.
        ext = ExternalBackend("cat")
        items = ["0110" * 4, "1" * 16, "01101001" * 4, "001" * 10, "1" * 7]
        T = TransactionSet(items)
        xs = ["0", "1", "01", "10", "110"]
        counts = support(ext, SCALE, T, xs,
                         parents=([""], [[0]], np.zeros(len(xs), dtype=np.intp)))
        for x in xs:
            assert counts[x] == frequency(ext, SCALE, T, x), x

    def test_pairs_priced_follow_the_occurrence_lists(self, lz, fixture_transactions):
        # a pair is priced where the parent occurs and L(x) passes entropy
        # reduction, and nowhere else
        items = fixture_transactions.items
        parents = ["0101", "1100", "0000", "0110"]
        T, occ, counts = self._check(lz, SCALE, items, parents, 2)
        lengths = T.cached(lz).lengths
        assert counts.pairs == sum(
            lz.code_len(p + s) <= SCALE.entropy_bound(lengths[t])
            for p in parents for t in occ[p] for s in bitutil.all_of_length(2))
        assert counts.pairs < 4 * len(parents) * len(items)


@pytest.mark.parametrize("count", [
    frequency, lambda backend, params, T, x: support(backend, params, T, [x])],
    ids=["frequency", "support"])
def test_estimation_error_names_the_transaction(count, monkeypatch):
    # The compressor fails on every string longer than both transactions,
    # so pricing x after the first transaction already fails.
    code_len = ExternalBackend.code_len

    def failing(self, x):
        if len(x) > 16:
            raise EstimationError("compressor crashed")
        return code_len(self, x)

    monkeypatch.setattr(ExternalBackend, "code_len", failing)
    T = TransactionSet(["0110" * 4, "1" * 16])
    with pytest.raises(EstimationError, match="^transaction 0: compressor crashed$"):
        count(ExternalBackend("cat"), SCALE, T, "01")


@pytest.mark.parametrize("backend", [
    KTBackend(2), LZBackend(), ExternalBackend("cat")],
    ids=["kt2", "lz", "external"])
def test_candidates_are_priced_without_a_coder_state(backend, monkeypatch):
    # code_strings prices each x from scratch and builds no coder state
    xs = ["0", "1", "0110", "1101001", "011010011"]

    def refuse(*args, **kwargs):
        raise AssertionError("a coder state was built")

    expected = [backend.code_len(x) for x in xs]
    for name in ("extend", "signature"):
        monkeypatch.setattr(type(backend), name, refuse, raising=False)
    assert occurrence.code_strings(backend, xs).tolist() == expected


def test_lz_support_counts_each_distinct_candidate_once(lz,
                                                       fixture_transactions):
    # a repeated candidate is counted again, like its first copy: the counts
    # and occurrence lists equal those of the distinct candidates alone
    T = fixture_transactions
    xs = ["01", "0110", "01", "1", "0110", "01"]
    distinct = list(dict.fromkeys(xs))
    counts = support(lz, SCALE, T, xs)
    once = support(lz, SCALE, T, distinct)
    assert counts == once == {x: frequency(lz, SCALE, T, x) for x in xs}
    assert len(set(counts.values())) > 1
    assert counts.occurrences == [once.occurrences[distinct.index(x)]
                                  for x in xs]


def _reads_own_phrase(state, bits, cut=0):
    """Where does an LZ parse of ``bits`` after ``state`` walk into a phrase
    that it added itself, at a bit from ``cut`` on?  The set of kinds:
    "parent" for a phrase added by ``bits[:cut]``, "own" for one added
    from ``cut`` on (empty: nowhere)."""
    new, node, nxt, kinds = {}, state.node, state.next_node, set()
    for i, ch in enumerate(bits):
        key = (node, ch)
        child = state.trie.get(key)
        if child is None and key in new:
            child, added = new[key]
            if i >= cut:
                kinds.add("parent" if added < cut else "own")
        if child is None:
            new[key], nxt, node = (nxt, i), nxt + 1, 0
        else:
            node = child
    return kinds


class TestLZKernel:
    """``lzbatch.extras`` prices the live (child, transaction) pairs
    of an LZ count in numpy, as ``occurrence._per_parent`` plans them;
    every extra cost must be the coder's, ``extend_cost`` after
    ``extend(state_y, p)``, bit for bit."""

    @staticmethod
    def _check(items, xs, parents=None, params=SCALE):
        # parents: {x: its parent p}, every transaction on p's list
        lz = LZBackend()
        T = TransactionSet(items)
        coded = T.cached(lz)
        lens = [lz.code_len(x) for x in xs]
        bounds = occurrence._bounds(params, coded)
        yielded = []

        def recording(plan, chunks):
            for block in lzbatch.extras(coded, plan, chunks):
                yielded.append(block)
                yield block

        occurrence._per_parent(recording, bounds, coded, xs, np.array(lens),
                               parents_of(xs, parents or dict.fromkeys(xs, "")))
        priced = {}
        for g, t, extra in yielded:
            for i, y, e in zip(g.tolist(), t.tolist(), extra.tolist()):
                x = xs[i]
                p = "" if parents is None else parents[x]
                state, extra_p = lz.extend(coded.states[y], p)
                assert e == lz.extend_cost(state, x[len(p):], extra_p), (x, y)
                assert e == lz.extend_cost(coded.states[y], x), (x, y)
                assert (i, y) not in priced
                priced[i, y] = e
        # the live pairs: those where L(x) passes entropy reduction
        assert set(priced) == {(i, y) for i in range(len(xs))
                               for y in range(len(items))
                               if lens[i] <= bounds[0][y]}
        return coded, priced

    @pytest.mark.parametrize("block", [1 << 13, 5], ids=["default", "tiny"])
    def test_a_pattern_walks_into_a_phrase_it_added(self, block, monkeypatch):
        # after y = "0" the root has no 1-edge: "1" adds it, and the next
        # "1" reads it, in the parent's parse or in the child's own
        monkeypatch.setattr(occurrence, "_BLOCK_ELEMENTS", block)
        items = ["0", "1", "0110", "0" * 40, "0110100110010110" * 3]
        xs = [p + s for p in ("1", "11", "0101") for s in ("0", "1")]
        xs = list(dict.fromkeys(xs + ["1011", "110110"]))
        parents = {x: x[:-1] for x in xs}
        coded, priced = self._check(items, xs, parents,
                                    OccurrenceParams(c1=0.99, c2=0.5))
        assert any(_reads_own_phrase(coded.states[y], xs[i])
                   for i, y in priced)

    def test_parents_of_different_lengths_share_a_chunk(self, monkeypatch):
        # the chunk's child rows name their phrases from the longest
        # parent's width on, past a shorter parent's own last phrase
        widths = []

        def spy(lz, parse, bits, which, widths_, pairs=None):
            if lz is not lzbatch._ROOT and pairs is None:
                widths.append(sorted(set(widths_.tolist())))
            return parse_(lz, parse, bits, which, widths_, pairs)

        parse_ = lzbatch._parse
        monkeypatch.setattr(lzbatch, "_parse", spy)
        items = ["0", "1", "0110", "0" * 40, "0110100110010110" * 3,
                 "110110" * 4]
        parents = ("1", "0101", "110110")
        xs = [p + s for p in parents for n in (1, 2, 3)
              for s in bitutil.all_of_length(n)]
        for params in (OccurrenceParams(c1=0.99, c2=0.5), ADDITIVE):
            widths.clear()
            self._check(items, xs, {x: p for p in parents
                                    for x in xs if x.startswith(p)}, params)
            assert widths == [[1, 4, 6]]  # one chunk, every parent in it

    @pytest.mark.parametrize("block", [1, 5, 7, 40, 1 << 13])
    def test_a_pairs_children_across_child_blocks(self, block, monkeypatch):
        # each child row reads its pair's phrases by index, in whichever
        # block it lands; small blocks split one pair's children
        monkeypatch.setattr(occurrence, "_BLOCK_ELEMENTS", block)
        rows = []

        def spy(lz, parse, bits, which, widths, pairs=None):
            if pairs is not None:  # the chunk's parents' key, and each pair
                rows.append((pairs[0], pairs[1].tolist()))
            return parse_(lz, parse, bits, which, widths, pairs)

        parse_ = lzbatch._parse
        monkeypatch.setattr(lzbatch, "_parse", spy)
        items = gen_random(7, (16, 48), 11).items
        rng = random.Random(block)
        parents = list(dict.fromkeys(random_bits(rng, 2, 6) for _ in range(4)))
        xs = [p + s for p in parents for n in (1, 2, 3)
              for s in bitutil.all_of_length(n)]
        self._check(items, xs, {x: p for p in parents
                                for x in xs if x.startswith(p)},
                    OccurrenceParams(c1=0.99, c2=0.9))
        # a pair whose children span two child blocks of its chunk
        split = any(a is b and ks[-1] == next_ks[0]
                    for (a, ks), (b, next_ks) in zip(rows, rows[1:]))
        assert split == (block != 1 << 13)

    @pytest.mark.parametrize("step", [2, 3, 4])
    def test_child_steps_find_parent_and_own_phrases(self, step):
        # a child step that misses y's table may walk into a phrase its
        # pair's parse added; after y = 0^24 and p = 0000 the suffix 11
        # adds the root's 1-edge and walks into it (and so after 1^30)
        items = [*gen_random(8, (20, 60), 40 + step).items, "0" * 24, "1" * 30]
        rng = random.Random(100 + step)
        parents = list(dict.fromkeys([random_bits(rng, 3, 8) for _ in range(8)]
                                     + ["0000", "111111"]))
        of = {p + s: p for p in parents for s in bitutil.all_of_length(step)}
        xs = list(of)
        for params in (OccurrenceParams(c1=0.99, c2=0.9),
                       OccurrenceParams(variant="additive", c3=0.5, c4=40.0)):
            coded, priced = self._check(items, xs, of, params)
            kinds = set().union(*(
                _reads_own_phrase(coded.states[y], xs[i], len(of[xs[i]]))
                for i, y in priced))
            assert kinds == {"parent", "own"}

    def test_one_bit_transactions_lack_root_edges(self):
        xs = ["0", "1", "00", "01", "10", "11", "0101", "1110"]
        self._check(["0", "1"], xs, params=OccurrenceParams(
            variant="additive", c3=0.5, c4=1.0))
        self._check(["1", "0", "1"], xs, {x: x[:1] for x in xs},
                    OccurrenceParams(variant="additive", c3=0.5, c4=1.0))

    def test_a_16384_bit_transaction(self):
        rng = random.Random(16384)
        items = gen_random(2, (16384, 16384), 5).items + ["0110", "1" * 30]
        parents = [random_bits(rng, 3, 9) for _ in range(6)]
        xs = list(dict.fromkeys(p + random_bits(rng, 1, 4)
                                for p in parents for _ in range(5)))
        coded, priced = self._check(items, xs, {x: p for p in parents
                                                for x in xs if x.startswith(p)})
        assert {y for _, y in priced} >= {0, 1}

    @pytest.mark.parametrize("step", [1, 2, 3, 4])
    def test_children_of_each_step(self, step, monkeypatch):
        monkeypatch.setattr(occurrence, "_BLOCK_ELEMENTS", 40)
        items = gen_random(9, (20, 60), 40 + step).items
        rng = random.Random(step)
        parents = [random_bits(rng, 2, 7) for _ in range(5)]
        xs, of = [], {}
        for p in dict.fromkeys(parents):
            for s in bitutil.all_of_length(step):
                xs.append(p + s)
                of[p + s] = p
        self._check(items, xs, of)
        self._check(items, xs, of, ADDITIVE)

    def test_seed_candidates_of_mixed_length(self):
        # the seed level: every string of 1..4 bits, children of ""
        xs = [x for n in range(1, 5) for x in bitutil.all_of_length(n)]
        items = gen_random(8, (12, 40), 3).items
        self._check(items, xs, {x: "" for x in xs})

    def test_without_parents_as_the_oracle_counts(self):
        # the oracle passes no parent lists: one empty parent, every
        # transaction
        xs = list(bitutil.all_of_length(7))
        items = gen_random(6, (24, 24), 7).items
        coded, priced = self._check(items, xs)
        assert len(priced) == len(xs) * len(items)

    @pytest.mark.parametrize("with_parents", [True, False])
    def test_support_parses_no_pair_in_python(self, with_parents,
                                              monkeypatch):
        lz = LZBackend()
        T = gen_random(10, (20, 40), 17)
        parents = ["", "0", "1", "01", "110"]
        xs = [p + s for p in parents for n in (1, 2)
              for s in bitutil.all_of_length(n)]
        occ = {p: [t for t, y in enumerate(T.items) if occurs(lz, SCALE, p, y)]
               for p in parents if p}
        occ[""] = None
        of = {x: max((p for p in parents if x.startswith(p) and p != x),
                     key=len) for x in xs}
        expected = {x: frequency(lz, SCALE, T, x) for x in xs}
        coded = occurrence.code_strings(lz, xs)

        def refuse(*args, **kwargs):
            raise AssertionError("a pair was parsed in Python")

        for name in ("extend", "extend_cost", "_parse"):
            monkeypatch.setattr(LZBackend, name, refuse)
        counts = support(lz, SCALE, T, xs, coded,
                         parents_of(xs, of, occ) if with_parents else None)
        assert counts == expected
        assert any(counts.values())

    def test_lz_lengths_are_the_coder_lengths(self, monkeypatch):
        # the numpy pricer parses each x from the initial state, in blocks
        rng = random.Random(5)
        xs = [random_bits(rng, 1, 300) for _ in range(40)] + ["0", "1"]
        expected = [code_len(LZBackend(), x) for x in xs]
        monkeypatch.setattr(occurrence, "_BLOCK_ELEMENTS", 64)
        monkeypatch.setattr(LZBackend, "extend_cost", None)
        assert occurrence.code_strings(LZBackend(), xs).tolist() == expected
