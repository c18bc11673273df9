"""The batch module's class coder against the per-bit walk."""

import tracemalloc
from itertools import islice

from hypothesis import given, settings
from hypothesis import strategies as st

from bitmine import KTBackend
from bitmine import bits as bitutil
from bitmine.ktbatch import code_class


@settings(max_examples=200, deadline=None)
@given(order=st.sampled_from([0, 1, 2, 3, 4, 5, 6, 24]),
       width=st.integers(1, 12), data=st.data())
def test_class_coder_equals_the_walk(order, width, data):
    # any strings of one length, in any order: the oracle passes chunks of
    # all_of_length, but rows are coded independently
    values = data.draw(st.lists(st.integers(0, 2 ** width - 1), min_size=1,
                                max_size=300, unique=True))
    strings = [format(v, f"0{width}b") for v in values]
    backend = KTBackend(order)
    coded = code_class(order, strings)
    assert list(coded) == strings
    for x in strings:
        assert coded[x] == (backend.code_len(x), backend.signature(x))
    # equal signatures share one object, so support's groups are the
    # partition signature() gives
    assert len({id(sig) for _, sig in coded.values()}) == \
        len({sig for _, sig in coded.values()})


def test_class_coder_memory_does_not_span_the_contexts():
    # order 24 has 2**25 context ids; the coder keeps each row's contexts
    # sparse, so a chunk of 2,048 16-bit strings (every one its own
    # signature group) stays within a bound a dense axis would break
    chunk = list(islice(bitutil.all_of_length(16), 20_000, 22_048))
    tracemalloc.start()
    try:
        coded = code_class(24, chunk)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len({id(sig) for _, sig in coded.values()}) == len(chunk)
    assert peak < 8 * 2 ** 20
