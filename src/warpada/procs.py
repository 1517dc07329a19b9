"""Process policy: how many processes share a call's work (workers), how
one is started (Child) and fed (map_chunks), and the malloc policy forked
children inherit.  The three sites that fork (the ascent, the SGD partner
and the inference worker) each call workers() with their own limits only."""

from __future__ import annotations

import contextlib
import ctypes
import os
import pickle
import threading
import traceback
from signal import SIGKILL

__all__ = ["Child", "map_chunks", "workers"]

# The variables through which OpenBLAS, MKL and OpenMP builds of BLAS take
# their thread count, read once when numpy loads.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "MKL_NUM_THREADS",
                    "OMP_NUM_THREADS")
# Whether a map_chunks call's shares are running, in this process's share
# or in a forked child's (which inherits it set): a call made from inside a
# share runs its work where it is called, so a share never forks again.
_in_share = False


def fork_cpus() -> int:
    """CPUs a fork may spread this process's work over: the usable CPUs,
    but one where ``os.fork`` is missing, where the usable CPUs cannot be
    read, and while other threads run (a fork copies any lock they hold,
    held for ever)."""
    if (not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity")
            or threading.active_count() > 1):
        return 1
    return len(os.sched_getaffinity(0))


def _one_blas_thread() -> bool:
    """Whether the environment holds BLAS to one thread: at least one of
    BLAS_THREAD_VARS is set, and each one set is 1.

    A BLAS thread pool (OpenBLAS's default: one thread per CPU) spreads a
    step's larger products over the CPUs and spins between them, so no CPU
    is idle for a second process: with the pool, an erm run() on the
    default benchmark took 5.1-5.6 s with an SGD partner and 1.0-1.1 s
    without.  The pool cannot be told from the process's thread count,
    since OpenBLAS stops it for every fork and restarts it on the next
    large product.
    """
    values = [os.environ[name].strip() for name in BLAS_THREAD_VARS if name in os.environ]
    return bool(values) and all(v == "1" for v in values)


def workers(units: int, least: int, most: int, one_blas_thread: bool = True) -> int:
    """Processes to share a call's ``units`` units of work between: one per
    CPU of fork_cpus(), at most ``most`` and one per unit; but one for fewer
    than ``least`` units, inside a share (map_chunks) and, unless
    ``one_blas_thread`` is False, where BLAS may run a pool (_one_blas_thread)."""
    if units < least or _in_share or (one_blas_thread and not _one_blas_thread()):
        return 1
    return min(fork_cpus(), most, units)


class Child:
    """The package's one way to start a process: a fork that runs
    ``target(rx, tx)``, rx and tx being its ends of pipes from and to this
    process (``self.tx``, ``self.rx``).  It ends with os._exit, never
    returning into the caller's frames: code 0 if the target returns, else 1
    after printing the traceback.  The context forks on entry; on exit it
    closes this side's ends, kills the child if an error cut the block short
    before it was reaped, and reaps it."""

    def __init__(self, target, name: str, what: str):
        self._target, self._name, self._what = target, name, what

    def __enter__(self):
        down, up = os.pipe(), os.pipe()  # to the child, from the child
        try:
            self.pid = os.fork()
        except BaseException:
            for fd in down + up:
                os.close(fd)
            raise
        if self.pid == 0:
            code = 1
            try:
                os.close(down[1])
                os.close(up[0])
                self._target(down[0], up[1])
                code = 0
            except BaseException:
                os.write(2, traceback.format_exc().encode())
            finally:
                os._exit(code)
        # each side keeps its own ends only: EOF or EPIPE once the other is gone
        os.close(down[0])
        os.close(up[1])
        self._target = None  # only the child calls it; a bound method here is a cycle
        self.rx, self.tx, self._code = up[0], down[1], None
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        os.close(self.tx)
        os.close(self.rx)
        if exc_type is not None and self._code is None:
            os.kill(self.pid, SIGKILL)
        self.reap()

    def reap(self) -> int:
        """Wait for the child to end, once; returns its exit code."""
        if self._code is None:
            self._code = os.waitstatus_to_exitcode(os.waitpid(self.pid, 0)[1])
        return self._code

    def fail(self):
        """Reap the child and raise the error of one that ended early."""
        raise RuntimeError(f"{self._name} {self.pid} exited with code {self.reap()} "
                           f"before sending its {self._what}") from None


def map_chunks(run_chunk, chunks: list, processes: int, name: str, what: str) -> list:
    """[run_chunk(c) for c in chunks].  With ``processes`` above one the chunks
    are split into that many interleaved shares: forked children
    (Child(..., name, what)) run shares 1.., inheriting the model and the
    data by copy-on-write, while this process runs share 0, and the results
    are put back in chunk order.  Child k pickles its share into its pipe,
    unpickled as it streams in (a share can be larger than a pipe buffer),
    and is reaped before child k + 1's pipe is read, so a child that died
    raises at once and the others are killed.  A call made while the shares
    of another run, in this process or in a child, runs all its chunks in
    the process it is made in.  An error is the serial one: the exception
    of the earliest failing chunk, which also ends its share."""
    global _in_share
    if _in_share:
        processes = 1

    def run_share(w):
        done = []
        for k in range(w, len(chunks), processes):
            try:
                done.append(run_chunk(chunks[k]))
            except Exception as exc:  # reported to the caller, which raises the earliest
                return done, (k, exc)
        return done, None

    def sender(w):
        def send(rx, tx):
            with open(tx, "wb") as out:  # flushed before the child exits
                pickle.dump(run_share(w), out)
        return send

    if processes == 1:
        shares = [run_share(0)]
    else:
        _in_share = True
        try:
            with contextlib.ExitStack() as stack:
                children = [stack.enter_context(Child(sender(w), name, what))
                            for w in range(1, processes)]
                shares = [run_share(0)]
                for child in children:
                    try:
                        with open(child.rx, "rb", closefd=False) as reader:
                            shares.append(pickle.load(reader))
                    except (EOFError, pickle.UnpicklingError):  # cut short: the code says why
                        if child.reap() == 0:
                            raise
                    if child.reap() != 0:
                        child.fail()
        finally:
            _in_share = False
    failures = [failure for _, failure in shares if failure is not None]
    if failures:
        raise min(failures, key=lambda failure: failure[0])[1]
    return [shares[k % processes][0][k // processes] for k in range(len(chunks))]


# glibc's malloc policy for the process (mallopt parameters from malloc.h).
# By default free() hands a batch-32 SGD step's buffers back to the OS and
# the next step faults them in again: ~940 minor faults per step (see
# training.run() for whole runs).  A step peaks at 4.4 MiB above its start
# (tracemalloc) and its largest array is 0.5-1 MiB (a fixed mmap threshold
# of 512 KiB still faults, 1 MiB does not).  8/1, 16/2 and 64/32 MiB
# (trim/mmap) each cut a tada run() to ~7.8k faults; 64/32 leaves a margin of
# ~15x over the step's peak, and 32 MiB is the largest mmap threshold glibc
# accepts on 64-bit.  Both are set: a trim threshold alone freezes glibc's
# dynamic mmap threshold at 128 KiB, so every larger array is mmapped afresh.
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_HEAP_TRIM_BYTES, _HEAP_MMAP_BYTES = 64 << 20, 32 << 20
_heap_policy_set = False


def _libc():
    return ctypes.CDLL(None)


def _keep_freed_memory() -> None:
    """Set the malloc policy above, once per process; forked children
    inherit it.  A silent no-op where libc has no ``mallopt`` or refuses
    the value (anything but glibc)."""
    global _heap_policy_set
    if _heap_policy_set:
        return
    _heap_policy_set = True
    try:
        mallopt = _libc().mallopt
    except (OSError, AttributeError, TypeError):
        return
    mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
    mallopt.restype = ctypes.c_int
    # the trim threshold only once the mmap one holds: alone it is worse
    if mallopt(_M_MMAP_THRESHOLD, _HEAP_MMAP_BYTES):
        mallopt(_M_TRIM_THRESHOLD, _HEAP_TRIM_BYTES)
