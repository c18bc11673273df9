import gc
import math
import random
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bitmine import (EstimationError, ExternalBackend, KTBackend, LZBackend,
                     code_len, cond_code_len, joint_code_len,
                     joint_code_len_canonical, make_backend)
from bitmine import bits as bitutil
from bitmine import codelength
from bitmine.codelength import KTState

from conftest import kt0_len_exact, ktk_len_exact, lz_len_exact

bitstrings = st.text(alphabet="01", max_size=48)


class TestKT:
    def test_empty_codes_to_nothing(self, kt0):
        assert code_len(kt0, "") == 0.0

    def test_known_products(self, kt0):
        # (1/2)(3/4)(5/6)(7/8) and (1/2)(1/4)
        assert code_len(kt0, "0000") == pytest.approx(-math.log2(105 / 384), abs=1e-12)
        assert code_len(kt0, "01") == pytest.approx(3.0, abs=1e-12)
        assert code_len(kt0, "0" * 16) == pytest.approx(
            -math.log2(math.comb(32, 16) / 4 ** 16), abs=1e-9)

    def test_matches_exact_product_formula_short_strings(self, kt0):
        for n in range(0, 8):
            for x in bitutil.all_of_length(n):
                assert code_len(kt0, x) == pytest.approx(kt0_len_exact(x), abs=1e-9)

    def test_order1_matches_direct_products(self, kt1):
        rng = random.Random(5)
        for _ in range(200):
            x = "".join(rng.choice("01") for _ in range(rng.randint(0, 30)))
            assert code_len(kt1, x) == pytest.approx(ktk_len_exact(x, 1), abs=1e-9)

    def test_order2_matches_direct_products(self):
        kt2 = KTBackend(order=2)
        rng = random.Random(6)
        for _ in range(100):
            x = "".join(rng.choice("01") for _ in range(rng.randint(0, 30)))
            assert code_len(kt2, x) == pytest.approx(ktk_len_exact(x, 2), abs=1e-9)

    def test_order_zero_is_exchangeable(self, kt0):
        assert code_len(kt0, "0011") == pytest.approx(code_len(kt0, "0101"), abs=1e-12)

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError):
            KTBackend(order=-1)

    def test_determinism(self, kt0, kt1):
        x = "01101001011010010110"
        for backend in (kt0, kt1):
            assert code_len(backend, x) == code_len(backend, x)

    def test_coding_retains_no_memory(self):
        # no memo may grow with the counts a long input reaches
        rng = random.Random(21)
        xs = ["".join(rng.choices("01", k=100_000)) for _ in range(2)]
        kt3 = KTBackend(order=3)
        tables = (codelength._KT_LOG2_TOTAL, codelength._KT_LOG2_COUNT)
        sizes = [len(table) for table in tables]
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            lengths = [kt3.code_len(x) for x in xs]
            del lengths
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert retained < 1 << 20
        # counts reach about 12,500 per context, far past the log2 tables
        assert [len(table) for table in tables] == sizes

    @given(x=bitstrings)
    def test_signature_groups_cost_equal_strings(self, x):
        # strings sharing a signature must share their code length
        kt = KTBackend(order=1)
        sig = kt.signature(x)
        flipped = x[::-1]
        if kt.signature(flipped) == sig:
            assert code_len(kt, flipped) == pytest.approx(code_len(kt, x), abs=1e-9)


class TestLZ:
    def test_empty(self, lz):
        assert code_len(lz, "") == 0.0

    def test_small_parses(self, lz):
        assert code_len(lz, "0") == 1.0          # one phrase
        assert code_len(lz, "00") == 3.0         # "0" + partial "0"
        assert code_len(lz, "001") == 3.0        # "0", "01"
        assert code_len(lz, "0010") == 6.0       # "0", "01", "0?" partial

    def test_matches_reference_reparse(self, lz):
        rng = random.Random(9)
        for _ in range(300):
            x = "".join(rng.choice("01") for _ in range(rng.randint(0, 60)))
            assert code_len(lz, x) == pytest.approx(lz_len_exact(x), abs=1e-12)

    def test_long_string_matches_reference(self, lz):
        # about 1,500 phrases: far deeper than Python's recursion limit
        rng = random.Random(20)
        x = "".join(rng.choice("01") for _ in range(20_000))
        assert lz.code_len(x) == lz_len_exact(x)
        state, cost = lz.extend(lz.initial_state(), x[:7_001])
        state, cost = lz.extend(state, x[7_001:13_000], cost)
        assert lz.extend(state, x[13_000:], cost)[1] == lz_len_exact(x)


class TestMonotonicity:
    @settings(max_examples=300)
    @given(x=bitstrings, e=st.text(alphabet="01", min_size=1, max_size=16))
    def test_kt_appending_never_decreases(self, x, e):
        for backend in (KTBackend(0), KTBackend(1), KTBackend(3)):
            assert code_len(backend, x + e) >= code_len(backend, x) - 1e-12

    @settings(max_examples=300)
    @given(x=bitstrings, e=st.text(alphabet="01", min_size=1, max_size=16))
    def test_lz_appending_never_decreases(self, x, e):
        lz = LZBackend()
        assert code_len(lz, x + e) >= code_len(lz, x) - 1e-12

    @settings(max_examples=200)
    @given(c=bitstrings, x=bitstrings, e=st.text(alphabet="01", min_size=1, max_size=8))
    def test_joint_monotone_in_second_argument(self, c, x, e):
        for backend in (KTBackend(0), LZBackend()):
            assert (joint_code_len(backend, c, x + e)
                    >= joint_code_len(backend, c, x) - 1e-12)

    @settings(max_examples=300)
    @given(x=bitstrings, y=bitstrings)
    def test_conditionals_nonnegative(self, x, y):
        for backend in (KTBackend(0), KTBackend(2), LZBackend()):
            assert cond_code_len(backend, x, y) >= -1e-12


class TestJointAndConditional:
    def test_joint_with_empty_context_is_plain_coding(self, kt0, lz):
        x = "0110100101"
        for backend in (kt0, lz):
            assert joint_code_len(backend, "", x) == pytest.approx(
                code_len(backend, x), abs=1e-12)

    def test_joint_of_nothing_appended(self, kt0):
        x = "011010"
        assert joint_code_len(kt0, x, "") == pytest.approx(code_len(kt0, x), abs=1e-12)

    def test_joint_example(self, kt0):
        # KT product over "000" = (1/2)(3/4)(5/6)
        assert joint_code_len(kt0, "00", "0") == pytest.approx(
            -math.log2(15 / 48), abs=1e-9)

    def test_model_carries_across_boundary(self, kt0):
        # conditioning on an all-zero context makes zeros cheaper
        assert (joint_code_len(kt0, "0" * 8, "0000") - code_len(kt0, "0" * 8)
                < code_len(kt0, "0000"))

    def test_cond_examples(self, kt0):
        assert cond_code_len(kt0, "0", "00") == pytest.approx(0.263, abs=1e-3)
        assert cond_code_len(kt0, "", "0110") == 0.0
        assert cond_code_len(kt0, "0110", "") == pytest.approx(
            code_len(kt0, "0110"), abs=1e-12)


class TestCanonicalJoint:
    def test_equal_inputs(self, kt0):
        a = "0110"
        assert joint_code_len_canonical(kt0, a, a) == pytest.approx(
            joint_code_len(kt0, a, a), abs=1e-12)

    def test_sixteen_zeros_pair(self, kt0):
        assert joint_code_len_canonical(kt0, "0" * 16, "0" * 16) == pytest.approx(
            -math.log2(math.comb(64, 32) / 4 ** 32), abs=1e-9)

    @given(a=bitstrings, b=bitstrings)
    def test_exactly_symmetric(self, a, b):
        kt = KTBackend(order=1)
        assert (joint_code_len_canonical(kt, a, b)
                == joint_code_len_canonical(kt, b, a))

    def test_shorter_string_goes_first(self, kt1):
        a, b = "1", "00"
        assert joint_code_len_canonical(kt1, a, b) == pytest.approx(
            code_len(kt1, "100"), abs=1e-12)


class TestExternal:
    def test_identity_compressor_scores_eight_bits_per_byte(self):
        backend = ExternalBackend("cat")
        assert code_len(backend, "1" * 16) == 16.0
        assert code_len(backend, "1" * 9) == 16.0  # padded to 2 bytes

    def test_empty_input_short_circuits(self):
        backend = ExternalBackend("/nonexistent-compressor")
        assert code_len(backend, "") == 0.0

    def test_failing_command_raises(self):
        with pytest.raises(EstimationError):
            code_len(ExternalBackend("false"), "0101")

    def test_missing_command_raises(self):
        with pytest.raises(EstimationError):
            code_len(ExternalBackend("/nonexistent-compressor"), "0101")

    def test_command_without_output_raises(self):
        with pytest.raises(EstimationError, match="produced no output"):
            code_len(ExternalBackend("true"), "0101")

    def test_not_monotone_flag(self):
        assert ExternalBackend("cat").monotone is False

    def test_blank_command_rejected(self):
        with pytest.raises(ValueError):
            ExternalBackend("  ")

    @pytest.mark.parametrize("timeout", [math.inf, math.nan, 0, -1.0, None])
    def test_timeout_must_be_finite_and_positive(self, timeout):
        with pytest.raises(ValueError, match=f"timeout .*, not {timeout!r}$"):
            ExternalBackend("cat", timeout=timeout)


def test_make_backend():
    assert isinstance(make_backend("kt", 2), KTBackend)
    assert isinstance(make_backend("lz"), LZBackend)
    assert isinstance(make_backend("external:cat"), ExternalBackend)
    with pytest.raises(ValueError):
        make_backend("zstd")


@settings(max_examples=300, deadline=None)
@given(backend=st.sampled_from([KTBackend(k) for k in range(5)] + [LZBackend()]),
       a=bitstrings, b=st.text(alphabet="01", max_size=12))
# the external adapter runs a process per call: a few fixed strings, across
# byte boundaries
@example(backend=ExternalBackend("cat"), a="", b="1")
@example(backend=ExternalBackend("cat"), a="0110", b="")
@example(backend=ExternalBackend("cat"), a="0110100", b="1101")
@example(backend=ExternalBackend("cat"), a="1" * 9, b="0" * 7)
def test_extension_from_a_prefix_state_is_bit_identical(backend, a, b):
    # The miner codes a child from its parent's state, continuing the
    # parent's running sum; that must equal coding the child from scratch
    # exactly.
    state, len_a = backend.extend(backend.initial_state(), a)
    state, length = backend.extend(state, b, cost=len_a)
    assert length == backend.code_len(a + b)


def _kt_reference_extend(order, state, bits, cost=0.0):
    # the per-bit definition: copy the counts, call math.log2 at every step
    ctx, counts = state.context, dict(state.counts)
    for ch in bits:
        b = ch == "1"
        c0, c1 = counts.get(ctx, (0, 0))
        cost += math.log2(2 * (c0 + c1) + 2) - math.log2(2 * (c1 if b else c0) + 1)
        counts[ctx] = (c0, c1 + 1) if b else (c0 + 1, c1)
        if order:
            ctx = ctx[1 - order:] + ch if order > 1 else ch
    return KTState(ctx, counts), cost


def _check_kt_against_reference(order, a, b):
    # from the state after a, continuing L(a)'s running sum
    kt = KTBackend(order)
    state, len_a = kt.extend(kt.initial_state(), a)
    ref_state, ref_len_a = _kt_reference_extend(order, KTState("", {}), a)
    assert state == ref_state and len_a == ref_len_a
    snapshot = dict(state.counts)
    new_state, length = kt.extend(state, b, len_a)
    ref_new_state, ref_length = _kt_reference_extend(order, state, b, len_a)
    assert length == ref_length
    assert new_state == ref_new_state
    assert list(new_state.counts) == list(ref_new_state.counts)
    assert kt.extend_cost(state, b, len_a) == ref_length
    assert kt.extend_cost(state, b) == _kt_reference_extend(order, state, b)[1]
    assert state.counts == snapshot  # neither call wrote the state's counts


@settings(max_examples=300, deadline=None)
@given(order=st.integers(0, 4), a=st.text(alphabet="01", max_size=64),
       b=st.text(alphabet="01", max_size=24))
def test_kt_coder_equals_the_per_bit_log2_reference(order, a, b):
    _check_kt_against_reference(order, a, b)


@settings(max_examples=50, deadline=None)
@given(order=st.integers(0, 4), bit=st.sampled_from("01"),
       a=st.text(alphabet="01", max_size=16),
       b=st.text(alphabet="01", max_size=24))
def test_kt_coder_past_the_table_end_equals_the_reference(order, bit, a, b):
    # 2,100 equal bits take one context's count past the 1,024-entry tables,
    # so the step costs after it come from the math.log2 fallback
    assert codelength._KT_LOG2_LEN < 2_100
    _check_kt_against_reference(order, bit * 2_100 + a, b)


def test_kt_coder_with_tiny_tables_equals_the_reference(monkeypatch):
    # tables of 3 entries: every string crosses the fallback boundary
    monkeypatch.setattr(codelength, "_KT_LOG2_TOTAL",
                        codelength._KT_LOG2_TOTAL[:3])
    monkeypatch.setattr(codelength, "_KT_LOG2_COUNT",
                        codelength._KT_LOG2_COUNT[:3])
    rng = random.Random(22)
    for order in range(5):
        for _ in range(40):
            a = "".join(rng.choices("01", k=rng.randint(0, 40)))
            b = "".join(rng.choices("01", k=rng.randint(0, 20)))
            _check_kt_against_reference(order, a, b)


def test_kt_signature_keys_counts_after_the_head():
    kt = KTBackend(order=2)
    # contexts "" and "0" lie within the head "01"
    assert kt.signature("01101") == (
        "01", (("", (1, 0)), ("0", (0, 1)), ("01", (0, 1)), ("10", (0, 1)),
               ("11", (1, 0))))
    assert kt.signature("0") == ("0", (("", (1, 0)),))


@settings(max_examples=300, deadline=None)
@given(a=bitstrings, b=st.text(alphabet="01", max_size=12),
       c=st.text(alphabet="01", max_size=12))
def test_lz_extend_splits_whole_string_coding_exactly(a, b, c):
    # Counting prices a child from the state after y || parent, continuing
    # the parent's cost; LZ costs are integers, so every split of a string
    # must code to exactly its whole-string length, and a parse must leave
    # the trie of the state it starts from as it was.
    lz = LZBackend()
    whole = lz.code_len(a + b + c)
    sa, la = lz.extend(lz.initial_state(), a)
    snap_a = dict(sa.trie)
    sab, lab = lz.extend(sa, b, cost=la)
    snap_ab = dict(sab.trie)
    state, labc = lz.extend(sab, c, cost=lab)
    assert labc == whole
    assert lz.extend_cost(sab, c, lab) == whole
    assert lab + lz.extend_cost(sab, c) == whole
    assert la + lz.extend_cost(sa, b + c) == whole
    assert sa.trie == snap_a and sab.trie == snap_ab
    assert state == lz.extend(lz.initial_state(), a + b + c)[0]
    if state.next_node == sab.next_node:  # c added no phrase
        assert state.trie is sab.trie
