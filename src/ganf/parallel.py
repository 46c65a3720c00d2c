"""Threads for batch scoring: the worker count, the OpenBLAS pin and the pool.

``GANF_THREADS`` sets how many threads score a stack of windows; by default
every CPU in the process's affinity mask. While more than one thread scores,
OpenBLAS is held at one thread, so the scorers do not each start BLAS
threads on the same cores.
"""
from __future__ import annotations

import contextlib
import contextvars
import ctypes
import functools
import os
from threading import Lock, Thread
from typing import Callable, Optional

import numpy as np


def worker_count() -> int:
    """Scoring threads: ``GANF_THREADS``, or else the CPUs this process may run on.

    Raises ValueError when the variable is set to anything but an integer of
    at least 1.
    """
    raw = os.environ.get("GANF_THREADS")
    if raw is None:
        if hasattr(os, "sched_getaffinity"):
            return len(os.sched_getaffinity(0))
        return os.cpu_count() or 1
    try:
        count = int(raw)
    except ValueError:
        count = 0
    if count < 1:
        raise ValueError(f"GANF_THREADS must be an integer of at least 1, got {raw!r}")
    return count


# symbol names of OpenBLAS's thread-count functions, by build
_OPENBLAS_NAMES = ("scipy_openblas_{}64_", "scipy_openblas_{}", "openblas_{}64_", "openblas_{}")


@functools.cache
def _openblas():
    """(get, set) of the thread count of the OpenBLAS NumPy loaded, or None.

    A symbol lookup on NumPy's core extension also searches the libraries it
    links, so this finds a wheel's bundled OpenBLAS as well as a system one.
    """
    try:
        lib = ctypes.CDLL(np._core._multiarray_umath.__file__)
    except (AttributeError, OSError):
        return None
    for name in _OPENBLAS_NAMES:
        get = getattr(lib, name.format("get_num_threads"), None)
        put = getattr(lib, name.format("set_num_threads"), None)
        if get is not None and put is not None:
            get.argtypes, get.restype = [], ctypes.c_int
            put.argtypes, put.restype = [ctypes.c_int], None
            return get, put
    return None


def blas_threads(threads: int = 1) -> Optional[int]:
    """OpenBLAS's thread count while ``threads`` threads score, or None without OpenBLAS.

    One thread leaves OpenBLAS at its current count; a pool holds it at 1.
    """
    lib = _openblas()
    if lib is None:
        return None
    return 1 if threads > 1 else lib[0]()


class _BlasPin:
    """OpenBLAS held at one thread, process-wide, for as long as any pool runs.

    The count is a global of the BLAS library, so one pin serves the whole
    process. The first holder saves the count and sets 1, and the last one
    out restores it; the lock guards only the holder count, never a pass.
    """

    def __init__(self):
        self._lock = Lock()
        self._holders = 0
        self._saved = 0

    @contextlib.contextmanager
    def __call__(self):
        lib = _openblas()
        if lib is None:
            yield
            return
        get, put = lib
        with self._lock:
            if self._holders == 0:
                self._saved = get()
                put(1)
            self._holders += 1
        try:
            yield
        finally:
            with self._lock:
                self._holders -= 1
                if self._holders == 0:
                    put(self._saved)


_blas_pinned = _BlasPin()


def pool_size(n_tasks: int, workers: int) -> int:
    """Threads :func:`run_tasks` uses: at most ``workers``, each with two tasks or more."""
    return max(1, min(workers, n_tasks // 2))


def run_tasks(task: Callable[[int], None], n_tasks: int, workers: int):
    """Call ``task(k)`` for every k in ``range(n_tasks)``.

    With one thread (see :func:`pool_size`) this is a plain loop on the
    calling thread. Otherwise the calling thread runs tasks alongside
    ``threads - 1`` threads started here, all taking the next task in order,
    with OpenBLAS pinned to one thread until every one of them has finished.
    After a task raises, no further task starts; the exception raised is
    the one from the lowest failing task, as the plain loop would raise.
    """
    threads = pool_size(n_tasks, workers)
    if threads == 1:
        for k in range(n_tasks):
            task(k)
        return
    lock = Lock()
    next_task = 0
    failures: dict[int, Exception] = {}

    def drain():
        nonlocal next_task
        while True:
            with lock:
                if failures or next_task >= n_tasks:
                    return
                k = next_task
                next_task += 1
            try:
                task(k)
            except Exception as exc:   # handed to the calling thread, raised below
                with lock:
                    failures[k] = exc

    started: list[Thread] = []
    with _blas_pinned():
        try:
            for _ in range(threads - 1):
                # an empty context, also where threads inherit the caller's: no pool
                # thread records onto the caller's tape
                worker = Thread(target=contextvars.Context().run, args=(drain,),
                                name="ganf-score")
                worker.start()
                started.append(worker)
            drain()
        finally:
            with lock:
                next_task = n_tasks   # an interrupted caller stops the rest early
            for worker in started:
                worker.join()
    if failures:
        raise failures[min(failures)]
