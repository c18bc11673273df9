"""File formats: transaction files, result files, matrices, manifests.

Transaction files hold one transaction per line.  A line of bare 0/1
characters is a bit literal; a ``hex:`` prefix selects hexadecimal (full
nibbles, MSB-first); a ``txt:`` prefix expands the remaining raw text bytes
MSB-first.  Blank lines and ``#`` comment lines are ignored.
"""

from __future__ import annotations

import json

from . import bits as bitutil
from .datagen import ManifestEntry


class DataFormatError(Exception):
    """Malformed input data; the message names the offending line."""


def parse_transaction_line(line: str) -> str:
    if line.startswith("hex:"):
        body = line[4:].strip()
        try:
            return bitutil.from_hex(body)
        except ValueError as exc:
            raise DataFormatError(f"bad hex payload: {exc}") from exc
    if line.startswith("txt:"):
        return bitutil.from_text(line[4:])
    try:
        return bitutil.validate(line.strip())
    except ValueError as exc:
        raise DataFormatError(str(exc)) from exc


def parse_transactions(lines) -> list:
    """Decode an iterable of lines; raises DataFormatError with line numbers.
    Every decoded transaction must be non-empty."""
    items = []
    for lineno, raw in enumerate(lines, 1):
        line = raw.rstrip("\n")
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        try:
            bits = parse_transaction_line(line)
        except DataFormatError as exc:
            raise DataFormatError(f"line {lineno}: {exc}") from exc
        if not bits:
            raise DataFormatError(f"line {lineno}: empty transaction")
        items.append(bits)
    return items


def read_text(path: str) -> str:
    """The text of the file at ``path``, which must be UTF-8."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise DataFormatError(f"{path}: not UTF-8: {exc}") from exc


def load_transactions(path: str) -> list:
    return parse_transactions(read_text(path).split("\n"))


def emit_transaction(bits: str, encoding: str = "bits") -> str:
    if encoding == "bits":
        return bits
    if encoding == "hex":
        return "hex:" + bitutil.to_hex(bits)
    if encoding == "txt":
        if len(bits) % 8:
            raise ValueError("txt encoding needs a multiple of 8 bits")
        try:
            text = bitutil.to_bytes(bits).decode("ascii")
        except UnicodeDecodeError as exc:
            raise ValueError("txt encoding needs ASCII-representable bytes") from exc
        if any(c in "\r\n" for c in text):
            raise ValueError("txt encoding cannot represent newline bytes")
        return "txt:" + text
    raise ValueError(f"unknown encoding {encoding!r}")


def emit_transactions(items, encoding: str = "bits") -> str:
    return "".join(emit_transaction(x, encoding) + "\n" for x in items)


# Result files: a header block of "# key: value" lines echoing the full run
# configuration, then one record per line "pattern count code_len level",
# sorted by (level, pattern), so the bytes depend only on the run's
# configuration and input.

_HEADER_ORDER = ("backend", "order", "external_command", "variant", "c1", "c2",
                 "c3", "c4", "epsilon", "step_bits", "max_level", "mode",
                 "seed", "input", "approximate", "truncated")


def format_result(patterns, header: dict) -> str:
    lines = ["# bitmine result"]
    for key in _HEADER_ORDER:
        if key in header and header[key] is not None:
            value = header[key]
            if isinstance(value, bool):
                value = "true" if value else "false"
            lines.append(f"# {key}: {value}")
    for p in sorted(patterns, key=lambda p: (p.level, p.pattern)):
        lines.append(f"{p.pattern} {p.count} {p.code_len:.6f} {p.level}")
    return "\n".join(lines) + "\n"


def parse_result(text: str):
    """Return (records, header) where records are (pattern, count, code_len,
    level) tuples."""
    header = {}
    records = []
    for lineno, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            if ":" in body:
                key, _, value = body.partition(":")
                header[key.strip()] = value.strip()
            continue
        parts = line.split()
        if len(parts) != 4:
            raise DataFormatError(f"line {lineno}: expected 4 fields")
        try:
            records.append((bitutil.validate(parts[0]), int(parts[1]),
                            float(parts[2]), int(parts[3])))
        except ValueError as exc:
            raise DataFormatError(f"line {lineno}: {exc}") from exc
    return records, header


def format_matrix(matrix, header: dict) -> str:
    lines = ["# bitmine distance matrix"]
    for key, value in header.items():
        if value is not None:
            lines.append(f"# {key}: {value}")
    lines.append("labels: " + " ".join(matrix.labels))
    for row in matrix.values:
        lines.append(" ".join(f"{v:.6f}" for v in row))
    return "\n".join(lines) + "\n"


def format_manifest(manifest) -> str:
    lines = []
    for e in manifest:
        lines.append(json.dumps({
            "index": e.index, "bits": e.bits, "planted": e.planted,
            "motif_offset": e.motif_offset, "flipped": list(e.flipped),
        }, sort_keys=True))
    return "\n".join(lines) + "\n"


def parse_manifest(text: str):
    entries = []
    for lineno, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        try:
            rec = json.loads(line)
            entries.append(ManifestEntry(
                rec["index"], bitutil.validate(rec["bits"]), rec["planted"],
                rec.get("motif_offset", -1), tuple(rec.get("flipped", ()))))
        except (ValueError, KeyError) as exc:
            raise DataFormatError(f"line {lineno}: {exc}") from exc
    return entries
