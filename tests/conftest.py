import pytest

from ganf import parallel


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
