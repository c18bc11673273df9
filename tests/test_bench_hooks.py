"""The names the benchmark's tracer wraps must exist.

``perfbench/tracer.py`` times bitmine's layers by replacing module
functions, class methods and one dispatch-table entry by name; a name it
cannot find turns its metrics into null.  These tests load the tracer as
the benchmark does and check that every hook installs, that uninstalling
restores each wrapped attribute, and that a traced mine runs.
"""

import importlib.util
from pathlib import Path

import pytest

import bitmine
import bitmine.cli
from bitmine import (KTBackend, LZBackend, MiningConfig, OccurrenceParams,
                     TransactionSet)

FIXTURES = Path(__file__).parent / "fixtures"
DATASET = str(FIXTURES / "dataset7.txt")
MINE_FLAGS = ["--epsilon", "4", "--step-bits", "2", "--c1", "0.6", "--c2", "0.3"]
TRACER = Path(__file__).parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _hookable():
    """Every namespace the tracer may wrap, as {name: snapshot of it}."""
    bm = bitmine
    spaces = {mod.__name__: vars(mod) for mod in (
        bm.codelength, bm.occurrence, bm.miner, bm.textio, bm.distance, bm.cli)}
    for cls in (bm.codelength.KTBackend, bm.codelength.LZBackend,
                bm.occurrence.TransactionSet):
        spaces[cls.__qualname__] = vars(cls)
    spaces["distance._MEASURE_FN"] = bm.distance._MEASURE_FN
    return {name: dict(space) for name, space in spaces.items()}


def test_every_hook_installs_and_uninstalls():
    tracing = _load_tracer()
    before = _hookable()
    tracer = tracing.Tracer()
    tracing.install(tracer, bitmine, 1)
    try:
        assert tracer.missing == set()
        during = _hookable()
        wrapped = [(name, attr) for name, space in before.items()
                   for attr, value in space.items()
                   if during[name][attr] is not value]
        assert len(wrapped) == len(tracer._undo)
    finally:
        tracer.uninstall()
    assert wrapped
    after = _hookable()
    assert [(name, attr) for name, space in before.items()
            for attr, value in space.items()
            if after[name].get(attr) is not value] == []


def test_traced_mine_fills_the_level_table():
    tracing = _load_tracer()
    tracer = tracing.Tracer()
    tracing.install(tracer, bitmine, 4)
    try:
        assert bitmine.cli.main(["mine", DATASET, *MINE_FLAGS]) == 0
    finally:
        tracer.uninstall()
    assert tracer.levels
    assert all({"candidates", "kept", "pairs", "frequent"} <= set(row)
               for row in tracer.levels)


@pytest.mark.parametrize("order", [0, 2])
def test_traced_kt_mine_levels_equal_the_stats(order):
    # the tracer rebuilds each level's row from the miner's hooks; the KT
    # level coder must still call them with the candidate and kept strings
    tracing = _load_tracer()
    tracer = tracing.Tracer()
    T = TransactionSet(bitmine.textio.load_transactions(DATASET))
    tracing.install(tracer, bitmine, 4)
    try:
        result = bitmine.miner.mine(KTBackend(order),
                                    OccurrenceParams(c1=0.6, c2=0.3), T,
                                    MiningConfig(epsilon=4, step_bits=2))
    finally:
        tracer.uninstall()
    assert len(result.stats) > 2
    assert [(row["candidates"], row["kept"], row["frequent"])
            for row in tracer.levels] == [(s.candidates, s.kept, s.frequent)
                                          for s in result.stats]


def test_traced_lz_mine_levels_equal_the_stats():
    # the LZ level prefilters an array of the lengths it priced; the
    # tracer's rows must still read the candidates, kept and frequent
    tracing = _load_tracer()
    tracer = tracing.Tracer()
    T = TransactionSet(bitmine.textio.load_transactions(DATASET))
    tracing.install(tracer, bitmine, 4)
    try:
        result = bitmine.miner.mine(LZBackend(),
                                    OccurrenceParams(c1=0.6, c2=0.3), T,
                                    MiningConfig(epsilon=4, step_bits=2))
    finally:
        tracer.uninstall()
    assert len(result.stats) > 2
    assert [(row["candidates"], row["kept"], row["frequent"])
            for row in tracer.levels] == [(s.candidates, s.kept, s.frequent)
                                          for s in result.stats]


def test_mine_takes_the_threads_flag_the_benchmark_times(capsys):
    assert bitmine.cli.main(["mine", DATASET, *MINE_FLAGS, "--threads", "2"]) == 0
    assert capsys.readouterr().out
