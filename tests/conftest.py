import tracemalloc

import pytest

from ganf import parallel


def traced_peak(fn):
    """(fn(), the most memory traced while it ran, in bytes, above what was traced before)."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = fn()
        return out, tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


@pytest.fixture
def blas_at_three():
    """OpenBLAS held at 3 threads, a count the pool never sets, restored afterwards."""
    if parallel._openblas() is None:
        pytest.skip("no OpenBLAS found in this NumPy")
    get, put = parallel._openblas()
    before = get()
    put(3)
    try:
        yield 3
    finally:
        put(before)
