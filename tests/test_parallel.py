import os
import sys
import threading

import pytest

from ganf import parallel


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity"), reason="no CPU affinity mask")
def test_worker_count_defaults_to_affinity_mask(monkeypatch):
    monkeypatch.delenv("GANF_THREADS", raising=False)
    assert parallel.worker_count() == len(os.sched_getaffinity(0))


def test_worker_count_reads_env(monkeypatch):
    monkeypatch.setenv("GANF_THREADS", "3")
    assert parallel.worker_count() == 3


@pytest.mark.parametrize("raw", ["banana", "0", "-2", "", "1.5"])
def test_worker_count_rejects_non_positive_and_non_integer(monkeypatch, raw):
    monkeypatch.setenv("GANF_THREADS", raw)
    with pytest.raises(ValueError, match="GANF_THREADS"):
        parallel.worker_count()


@pytest.mark.parametrize("n_tasks, workers, want", [
    (0, 4, 1), (1, 2, 1), (3, 2, 1), (4, 2, 2), (10, 2, 2), (6, 4, 3), (100, 4, 4)])
def test_pool_size_gives_each_thread_two_tasks(n_tasks, workers, want):
    assert parallel.pool_size(n_tasks, workers) == want


def test_run_tasks_raises_the_lowest_failure_after_every_lower_task_ran():
    ran = set()
    lock = threading.Lock()

    def task(k):
        with lock:
            ran.add(k)
        if k in (7, 12):
            raise KeyError(k)

    with pytest.raises(KeyError) as err:
        parallel.run_tasks(task, 20, 3)
    assert err.value.args == (7,)
    assert set(range(8)) <= ran


def test_blas_pin_is_shared_and_the_last_holder_restores(blas_at_three):
    get = parallel._openblas()[0]
    with parallel._blas_pinned():
        with parallel._blas_pinned():
            assert get() == 1
        assert get() == 1
    assert get() == blas_at_three


def test_concurrent_blas_pins_hold_one_thread_and_restore(blas_at_three):
    get = parallel._openblas()[0]
    seen = []

    def hold():
        for _ in range(200):
            with parallel._blas_pinned():
                seen.append(get())

    holders = [threading.Thread(target=hold) for _ in range(6)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in holders:
            t.start()
        for t in holders:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in holders)
    assert len(seen) == 1200 and set(seen) == {1}
    assert get() == blas_at_three
