import pytest

from bitmine import (KTBackend, OccurrenceParams, TransactionSet, bits,
                     code_len, cond_code_len, distance_matrix, frequency,
                     info_dist, joint_code_len, joint_code_len_canonical,
                     kraft_diagnostic, ncd, nid_estimate, occurs, support)


def test_validate_accepts_bit_strings():
    assert bits.validate("") == ""
    assert bits.validate("0101") == "0101"


def test_validate_rejects_other_characters():
    with pytest.raises(ValueError):
        bits.validate("01x1")
    with pytest.raises(ValueError):
        bits.validate(b"01")


def test_validate_names_its_subject_and_the_first_bad_character():
    with pytest.raises(ValueError,
                       match="^item 3 holds 'x'; only '0' and '1' are bits$"):
        bits.validate("01x2", "item 3")
    with pytest.raises(ValueError, match="^item is a bytes, not a bit string$"):
        bits.validate(b"01", "item")


def test_check_refuses_the_empty_string():
    assert bits.check("0", "item") == "0"
    with pytest.raises(ValueError, match="^item must have length >= 1$"):
        bits.check("", "item")
    with pytest.raises(ValueError, match="^item holds '2'"):
        bits.check("2", "item")


_KT = KTBackend(1)
_PARAMS = OccurrenceParams()
_T = TransactionSet(["0101", "0011"])


# Every exported function that takes bit strings refuses one holding a
# character that is not a bit, naming the argument; the coder methods do not
# check (their callers have).
@pytest.mark.parametrize("call, subject", [
    (lambda: TransactionSet(["0101", "0a"]), "transaction 1"),
    (lambda: occurs(_KT, _PARAMS, "0a", "0101"), "pattern"),
    (lambda: occurs(_KT, _PARAMS, "01", "01a1"), "datum"),
    (lambda: frequency(_KT, _PARAMS, _T, "0a"), "pattern"),
    (lambda: support(_KT, _PARAMS, _T, ["01", "0a"]), "pattern"),
    (lambda: info_dist(_KT, "0120", "0100"), "distance operands"),
    (lambda: nid_estimate(_KT, "0100", "0120"), "distance operands"),
    (lambda: ncd(_KT, "0120", "0100"), "distance operands"),
    (lambda: distance_matrix(_KT, ["0101", "01a1"]),
     r"pair \(1, 1\): distance operands"),
    (lambda: kraft_diagnostic(_KT, "0x", 2), "x"),
    (lambda: code_len(_KT, "0x"), "x"),
    (lambda: joint_code_len(_KT, "0x", "1"), "context"),
    (lambda: cond_code_len(_KT, "1", "0x"), "given"),
    (lambda: joint_code_len_canonical(_KT, "1", "0x"), "b"),
], ids=["TransactionSet", "occurs-pattern", "occurs-datum", "frequency",
        "support", "info_dist", "nid_estimate", "ncd", "distance_matrix",
        "kraft_diagnostic", "code_len", "joint_code_len", "cond_code_len",
        "joint_code_len_canonical"])
def test_entry_points_refuse_a_character_that_is_not_a_bit(call, subject):
    with pytest.raises(ValueError, match=f"^{subject} holds '[^01]'"):
        call()


def test_equality_is_length_sensitive():
    assert "0" != "00"


def test_hex_round_trip():
    assert bits.from_hex("a3") == "10100011"
    assert bits.to_hex("10100011") == "a3"
    for s in ["", "0000", "1111", "011010010110"]:
        assert bits.from_hex(bits.to_hex(s)) == s


def test_hex_needs_full_nibbles():
    with pytest.raises(ValueError):
        bits.to_hex("101")


def test_text_round_trip():
    assert bits.from_text("A") == "01000001"
    packed = bits.to_bytes(bits.from_text("hello"))
    assert packed == b"hello"


def test_to_bytes_pads_final_byte_with_zeros():
    assert bits.to_bytes("1") == b"\x80"
    assert bits.to_bytes("111111111") == b"\xff\x80"
    assert bits.to_bytes("") == b""


def test_all_of_length():
    assert list(bits.all_of_length(0)) == [""]
    assert list(bits.all_of_length(2)) == ["00", "01", "10", "11"]
    assert len(list(bits.all_of_length(10))) == 1024
