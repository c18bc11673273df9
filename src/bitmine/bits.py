"""Bit string helpers.

Bit strings are plain Python ``str`` objects containing only the characters
'0' and '1'.  Equality is therefore bitwise and length-sensitive ("0" != "00"),
and there is no hidden byte padding.  The empty string is a valid (empty)
bit string.
"""


def validate(bits: str, what: str = "bit string") -> str:
    """Return ``bits`` unchanged, raising ValueError naming ``what`` if it
    is not a bit string (the empty string is one)."""
    if not isinstance(bits, str):
        raise ValueError(f"{what} is a {type(bits).__name__}, not a bit string")
    bad = bits.strip("01")
    if bad:
        raise ValueError(f"{what} holds {bad[0]!r}; only '0' and '1' are bits")
    return bits


def check(bits: str, what: str) -> str:
    """``validate``, and refuse the empty string."""
    if not validate(bits, what):
        raise ValueError(f"{what} must have length >= 1")
    return bits


def from_hex(s: str) -> str:
    """Decode a hex string to bits, MSB first, full nibbles."""
    if not s:
        return ""
    return "".join(f"{int(c, 16):04b}" for c in s)


def to_hex(bits: str) -> str:
    """Encode bits (length must be a multiple of 4) as hex, MSB first."""
    if len(bits) % 4:
        raise ValueError("hex encoding needs a multiple of 4 bits")
    return "".join(f"{int(bits[i:i + 4], 2):x}" for i in range(0, len(bits), 4))


def from_text(s: str) -> str:
    """Expand raw text bytes (UTF-8) to bits, MSB first within each byte."""
    return "".join(f"{b:08b}" for b in s.encode("utf-8"))


def from_bytes(data: bytes) -> str:
    return "".join(f"{b:08b}" for b in data)


def to_bytes(bits: str) -> bytes:
    """Pack bits MSB-first into bytes; the final partial byte is zero-padded."""
    padded = bits + "0" * (-len(bits) % 8)
    return bytes(int(padded[i:i + 8], 2) for i in range(0, len(padded), 8))


def all_of_length(n: int):
    """Yield every bit string of length exactly n in lexicographic order."""
    if n == 0:
        yield ""
        return
    for v in range(1 << n):
        yield format(v, f"0{n}b")
