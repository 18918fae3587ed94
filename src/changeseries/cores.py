"""One process-wide pool of threads for work split inside a layer.

A layer that splits its work hands run() a function over index ranges:
images of a conv, channels of a BatchNorm, pixel tiles of the
temporal refiner or of the Markov decoders.  run() calls it once on the
whole range, or on one contiguous range per part, the first on the calling
thread and each other on a thread of the shared pool.  Every range writes
its own part of an output the caller allocated, with the same operations
the whole range would run, so results do not depend on the worker count.
Each pool range runs in a copy of the caller's context, so numpy's error
state (np.errstate, a contextvar) holds there as on the calling thread.
No other module starts a thread.

Work is split only inside a threaded() block, which the caller opens
around a whole pass (ChangeModel's inference forward, the decoding in
markov.integrate).  Inside it, OpenBLAS is held at one thread through the
scipy_openblas_set_num_threads64_ symbol that numpy's bundled OpenBLAS
exports, and afterwards it goes back to its default.  The block spans the
pass, not each split: an OpenBLAS worker spins on a core for about 0.1 s
after every multi-threaded GEMM (measured on 2 vCPUs), so a GEMM between
two splits would leave it spinning against both workers.  Outside a block
nothing is split and BLAS threads its GEMMs as before, which training,
whose weight gradients are whole-batch GEMMs, runs faster.

Split work runs on WORKERS threads, len(os.sched_getaffinity(0)) when
WORKERS is None: the calling thread and a pool of WORKERS - 1.  Two
workers never run on a multi-threaded BLAS (46% slower than running in
sequence, measured on 2 vCPUs): where the symbol cannot be found there is
one worker and nothing is split.  Neither the pool nor the symbol lookup
exists before the first threaded() block.
"""

from __future__ import annotations

import contextvars
import ctypes
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from contextlib import contextmanager

## worker threads for split work; None means one per core this process may use
WORKERS: int | None = None

_SET_THREADS = "scipy_openblas_set_num_threads64_"
_GET_THREADS = "scipy_openblas_get_num_threads64_"

_lock = threading.Lock()
## looked up on first use: (set, get, default count), or None if not found
_blas: tuple | None | bool = False
_pinned = 0
_executor: ThreadPoolExecutor | None = None
_executor_size = 0
_local = threading.local()


def _find_blas() -> tuple | None:
    """numpy's OpenBLAS thread setter and getter and its default count.

    The symbols are looked up in the OpenBLAS libraries this process has
    loaded, as listed in /proc/self/maps.
    """
    try:
        with open("/proc/self/maps") as maps:
            paths = {line.split()[-1] for line in maps if "openblas" in line}
    except OSError:
        return None
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
            set_threads, get_threads = getattr(lib, _SET_THREADS), getattr(lib, _GET_THREADS)
        except (OSError, AttributeError):
            continue
        set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
        get_threads.argtypes, get_threads.restype = [], ctypes.c_int
        return set_threads, get_threads, get_threads()
    return None


def _blas_handle() -> tuple | None:
    global _blas
    with _lock:
        if _blas is False:
            _blas = _find_blas()
        return _blas


def workers() -> int:
    """Threads split work runs on: WORKERS, or 1 if OpenBLAS cannot be pinned."""
    n = WORKERS if WORKERS is not None else len(os.sched_getaffinity(0))
    return n if n > 1 and _blas_handle() is not None else 1


@contextmanager
def threaded():
    """Let run() split inside the block, with OpenBLAS at one thread.

    With one worker this does nothing: BLAS keeps its threads.  Blocks may
    nest and overlap across threads: the default comes back when the last
    one ends.
    """
    global _pinned
    if workers() <= 1:
        yield
        return
    set_threads, _, default = _blas_handle()
    with _lock:
        if _pinned == 0:
            set_threads(1)
        _pinned += 1
    try:
        yield
    finally:
        with _lock:
            _pinned -= 1
            if _pinned == 0:
                set_threads(default)


def _mark_worker() -> None:
    _local.worker = True


def _pool(size: int) -> ThreadPoolExecutor:
    global _executor, _executor_size
    with _lock:
        if _executor_size != size:
            if _executor is not None:
                _executor.shutdown(wait=False)
            _executor = ThreadPoolExecutor(
                size, thread_name_prefix="changeseries-split", initializer=_mark_worker
            )
            _executor_size = size
        return _executor


def ranges(n: int, parts: int) -> list[tuple[int, int]]:
    """[0, n) as `parts` contiguous ranges whose lengths differ by at most one."""
    return [(i * n // parts, (i + 1) * n // parts) for i in range(parts)]


def splitting() -> int:
    """Ranges run() splits work into here: workers() inside a threaded() block, else 1.

    Split work itself is never split again: a worker waiting on its own
    pool could wait forever.
    """
    if not _pinned or getattr(_local, "worker", False):
        return 1
    return workers()


def run(fn, n: int, parts: int) -> None:
    """Call fn(lo, hi) on `parts` ranges of [0, n), or once on [0, n) for one part.

    parts is capped at splitting(), so nothing splits outside a threaded()
    block.  The calling thread runs the first range itself and the pool
    the others.
    """
    parts = min(parts, n, splitting())
    if parts <= 1:
        fn(0, n)
        return
    (lo, hi), *rest = ranges(n, parts)
    pool = _pool(workers() - 1)
    ## one context cannot be entered by two threads at once: a copy per range
    futures = [pool.submit(contextvars.copy_context().run, fn, a, b) for a, b in rest]
    _local.worker = True
    try:
        fn(lo, hi)
    finally:
        _local.worker = False
        ## every range finishes before the caller reads the output or leaves the block
        wait(futures)
    for future in futures:
        future.result()
