"""Command-line interface.

Subcommands: mine (level-wise pattern mining), oracle (brute-force
enumeration, optionally diffed against a mine result), ncd (pairwise
distance matrices) and gen (synthetic dataset generation).

Exit codes: 0 success, 1 usage error, 2 data or file error, 3 backend error.
"""

from __future__ import annotations

import argparse
import dataclasses
import errno
import json
import os
import sys
import warnings

from . import textio
from .codelength import EstimationError, make_backend
from .datagen import DEFAULT_MOTIF, PlantSpec, gen_planted, gen_random
from .distance import MEASURES, UndefinedDistanceError, distance_matrix
from .miner import (MAX_STEP_BITS, FrequentPattern, LevelCapError,
                    MiningConfig, mine)
from .occurrence import OccurrenceParams, PredicateError, TransactionSet
from .oracle import MAX_LEN, IncompleteEnumerationError, OracleConfig, enumerate_frequent

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_BACKEND = 3
MAX_THREADS = 64  # cap of ``mine --threads``, which changes nothing


class UsageError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # map argparse failures onto exit code 1
        raise UsageError(message)


def _parse_epsilon(text: str):
    """'4' is an absolute count; '0.3f' is a fraction of |T|."""
    if text.endswith("f"):
        return float(text[:-1])
    return int(text)


def _add_backend_args(p):
    p.add_argument("--backend", default="kt",
                   help="kt, lz, or external:<command> (default kt)")
    p.add_argument("--order", type=int, default=0,
                   help="context length in bits for the kt backend")
    p.add_argument("--timeout", type=float, default=10.0,
                   help="external compressor timeout in seconds")


def _add_threshold_args(p):
    p.add_argument("--variant", choices=["scale-free", "additive"],
                   default="scale-free")
    p.add_argument("--c1", type=float, default=0.5)
    p.add_argument("--c2", type=float, default=0.25)
    p.add_argument("--c3", type=float, default=1.0)
    p.add_argument("--c4", type=float, default=1.0)


def _make_params(args):
    return OccurrenceParams(variant=args.variant, c1=args.c1, c2=args.c2,
                            c3=args.c3, c4=args.c4)


def _backend_header(args):
    header = {"backend": args.backend.split(":", 1)[0]}
    if header["backend"] == "kt":
        header["order"] = args.order
    if header["backend"] == "external":
        header["external_command"] = args.backend.split(":", 1)[1]
    return header


def _threshold_header(args):
    if args.variant == "scale-free":
        return {"variant": args.variant, "c1": args.c1, "c2": args.c2}
    return {"variant": args.variant, "c3": args.c3, "c4": args.c4}


def _check_outputs(*paths):
    """Refuse, before any work, an output path that ``_write`` could not
    open: a directory, or a file in a missing directory.  Nothing is
    opened, so an existing file is not truncated by a run that fails."""
    for path in paths:
        if path in (None, "-"):
            continue
        if os.path.isdir(path):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR),
                                    path)
        parent = os.path.dirname(path) or os.curdir
        if not os.path.exists(parent):
            raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT),
                                    parent)
        if not os.path.isdir(parent):
            raise NotADirectoryError(errno.ENOTDIR,
                                     os.strerror(errno.ENOTDIR), parent)


def _write(path, text):
    if path in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def build_parser() -> _Parser:
    parser = _Parser(prog="bitmine", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("mine", help="mine frequent abstract patterns")
    p.add_argument("input", help="transaction file")
    p.add_argument("--epsilon", required=True,
                   help="support: absolute count (e.g. 4) or fraction (e.g. 0.3f)")
    p.add_argument("--step-bits", type=int, default=4,
                   help=f"bits added per level, 1..{MAX_STEP_BITS}")
    p.add_argument("--max-level", type=int, default=64)
    p.add_argument("--mode", choices=["sound", "heuristic"], default="sound")
    p.add_argument("--threads", type=int, default=1,
                   help=f"accepted for compatibility (1..{MAX_THREADS}); "
                        "counting is serial and the value changes nothing")
    p.add_argument("--out", default=None)
    p.add_argument("--stats", default=None, metavar="FILE",
                   help="write per-level search statistics as JSON")
    _add_backend_args(p)
    _add_threshold_args(p)

    p = sub.add_parser("oracle", help="brute-force frequent pattern enumeration")
    p.add_argument("input", help="transaction file")
    p.add_argument("--epsilon", required=True)
    p.add_argument("--max-len", type=int, default=12,
                   help=f"longest pattern enumerated, 1..{MAX_LEN}")
    p.add_argument("--must-cover-termination", action="store_true")
    p.add_argument("--diff", default=None,
                   help="result file to compare against (patterns and counts)")
    p.add_argument("--out", default=None)
    p.add_argument("--stats", default=None, metavar="FILE",
                   help="write per-length-class statistics as JSON")
    _add_backend_args(p)
    _add_threshold_args(p)

    p = sub.add_parser("ncd", help="pairwise distance matrix")
    p.add_argument("inputs", nargs="+",
                   help="one transaction file (items are its lines) or >= 2 "
                        "files (each file's bytes are one item)")
    p.add_argument("--measure", default="ncd",
                   help="nid, ncd, or info")
    p.add_argument("--out", default=None)
    _add_backend_args(p)

    p = sub.add_parser("gen", help="generate synthetic transactions")
    p.add_argument("--random", action="store_true",
                   help="uniform random dataset instead of planted motifs")
    p.add_argument("--motif", default=DEFAULT_MOTIF)
    p.add_argument("--count", type=int, default=50)
    p.add_argument("--planted-fraction", type=float, default=0.8)
    p.add_argument("--flip-prob", type=float, default=0.05)
    p.add_argument("--pad-min", type=int, default=4)
    p.add_argument("--pad-max", type=int, default=10)
    p.add_argument("--len-min", type=int, default=24)
    p.add_argument("--len-max", type=int, default=24)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.add_argument("--manifest-out", default=None)
    return parser


def _load_items(path: str) -> list:
    items = textio.load_transactions(path)
    if not items:
        raise textio.DataFormatError(f"{path}: no transactions")
    return items


def _load_transactions(path: str) -> TransactionSet:
    return TransactionSet(_load_items(path))


def _cmd_mine(args) -> int:
    backend = make_backend(args.backend, args.order, args.timeout)
    if args.mode == "sound" and not backend.monotone:
        raise UsageError("external backend requires --mode heuristic")
    if not 1 <= args.threads <= MAX_THREADS:
        raise UsageError(f"threads must be in 1..{MAX_THREADS}")
    params = _make_params(args)
    config = MiningConfig(epsilon=_parse_epsilon(args.epsilon),
                          step_bits=args.step_bits, max_level=args.max_level,
                          mode=args.mode)
    _check_outputs(args.out, args.stats)
    T = _load_transactions(args.input)
    with warnings.catch_warnings(record=True) as caught:
        try:
            result = mine(backend, params, T, config)
        except LevelCapError as exc:
            # the levels run, then the refused one, still go to --stats
            refused = {"level": exc.level, "candidates": exc.size,
                       "cap": exc.cap, "refused": True}
            _write_stats(args.stats, exc.stats, refused)
            raise
        finally:
            for w in caught:
                print(f"warning: {w.message}", file=sys.stderr)
    header = _backend_header(args)
    header.update(_threshold_header(args))
    header.update(epsilon=args.epsilon, step_bits=args.step_bits,
                  max_level=args.max_level, mode=args.mode,
                  input=os.path.basename(args.input),
                  approximate=result.approximate, truncated=result.truncated)
    _write(args.out, textio.format_result(result.patterns, header))
    _write_stats(args.stats, result.stats)
    return EXIT_OK


def _write_stats(path, stats, *extra):
    """Write one JSON record per stats record (``LevelStats`` of a mine,
    ``ClassStats`` of an oracle), then ``extra``, to ``--stats`` (if
    given)."""
    if path is not None:
        records = [dataclasses.asdict(level) for level in stats] + list(extra)
        _write(path, json.dumps(records, indent=1) + "\n")


def _cmd_oracle(args) -> int:
    backend = make_backend(args.backend, args.order, args.timeout)
    params = _make_params(args)
    config = MiningConfig(epsilon=_parse_epsilon(args.epsilon))  # epsilon rules
    oracle_config = OracleConfig(args.max_len, args.must_cover_termination)
    _check_outputs(args.out, args.stats)
    T = _load_transactions(args.input)
    try:
        found = enumerate_frequent(backend, params, T,
                                   config.resolve_epsilon(len(T)), oracle_config)
    except IncompleteEnumerationError as exc:
        # the classes enumerated still go to --stats
        _write_stats(args.stats, exc.stats)
        raise
    _write_stats(args.stats, found.stats)
    # a diff alone prints only its verdict; --out is written either way
    if args.out is not None or args.diff is None:
        header = _backend_header(args)
        header.update(_threshold_header(args))
        header.update(epsilon=args.epsilon, input=os.path.basename(args.input))
        records = [FrequentPattern(p, c, found.code_len[p], 0)
                   for p, c in found.items()]
        _write(args.out, textio.format_result(records, header))
    if args.diff is not None:
        records, _ = textio.parse_result(textio.read_text(args.diff))
        mined = {pattern: count for pattern, count, _, _ in records}
        if mined == found:
            print(f"identical: {len(found)} patterns")
            return EXIT_OK
        only_oracle = sorted(set(found) - set(mined))
        only_mined = sorted(set(mined) - set(found))
        both_diff = sorted(p for p in set(found) & set(mined)
                           if found[p] != mined[p])
        print(f"MISMATCH: {len(only_oracle)} only in oracle, "
              f"{len(only_mined)} only in mined, "
              f"{len(both_diff)} with differing counts", file=sys.stderr)
        for p in (only_oracle + only_mined + both_diff)[:20]:
            print(f"  {p}: oracle={found.get(p)} mined={mined.get(p)}",
                  file=sys.stderr)
        return EXIT_DATA
    return EXIT_OK


def _cmd_ncd(args) -> int:
    if args.measure not in MEASURES:
        raise UsageError(f"unknown measure {args.measure!r}")
    backend = make_backend(args.backend, args.order, args.timeout)
    _check_outputs(args.out)
    if len(args.inputs) == 1:
        items = _load_items(args.inputs[0])
        labels = [f"line{i + 1}" for i in range(len(items))]
    else:
        from . import bits as bitutil
        items, labels = [], []
        for path in args.inputs:
            with open(path, "rb") as fh:
                data = fh.read()
            if not data:
                raise textio.DataFormatError(f"{path}: empty file")
            items.append(bitutil.from_bytes(data))
            labels.append(path)
    matrix = distance_matrix(backend, items, args.measure, labels)
    header = _backend_header(args)
    header["measure"] = args.measure
    _write(args.out, textio.format_matrix(matrix, header))
    return EXIT_OK


def _cmd_gen(args) -> int:
    _check_outputs(args.out, None if args.random else args.manifest_out)
    if args.random:
        T = gen_random(args.count, (args.len_min, args.len_max), args.seed)
        manifest = None
    else:
        spec = PlantSpec(motif=args.motif,
                         transaction_count=args.count,
                         planted_fraction=args.planted_fraction,
                         flip_prob=args.flip_prob,
                         pad_len_range=(args.pad_min, args.pad_max),
                         rng_seed=args.seed)
        T, manifest = gen_planted(spec)
    body = f"# seed: {args.seed}\n" + textio.emit_transactions(T.items)
    _write(args.out, body)
    if manifest is not None and args.manifest_out:
        _write(args.manifest_out, textio.format_manifest(manifest))
    return EXIT_OK


_COMMANDS = {"mine": _cmd_mine, "oracle": _cmd_oracle,
             "ncd": _cmd_ncd, "gen": _cmd_gen}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except (textio.DataFormatError, OSError,
            IncompleteEnumerationError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (EstimationError, PredicateError, UndefinedDistanceError) as exc:
        print(f"backend error: {exc}", file=sys.stderr)
        return EXIT_BACKEND


if __name__ == "__main__":
    raise SystemExit(main())
