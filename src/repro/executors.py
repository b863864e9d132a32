"""Pluggable map-style executors for embarrassingly parallel work.

The selection-problem build and the evaluation engine fan out over
independent, picklable work units (one per candidate, per grid cell).
This module gives them a common, minimal execution abstraction:

* :class:`SerialExecutor` — in-process ``map``; zero overhead, always
  available, shares in-process caches with the caller;
* :class:`ThreadExecutor` — a shared ``ThreadPoolExecutor``; cheap
  per-call dispatch and shared memory, a good backend for numpy-heavy
  steps (which release the GIL);
* :class:`ProcessExecutor` — ``concurrent.futures.ProcessPoolExecutor``
  with chunked dispatch; true multi-core parallelism for CPU-bound pure
  Python work.  In **persistent** mode the worker pool outlives
  individual ``map`` calls (created lazily), so a caller that maps many
  times — grid waves, candidate chases — pays the pool spawn once, not
  per map.

All executors preserve input order, so callers get deterministic merges
for free.  The parallel ``map`` paths *stream*: they return a generator
that keeps only a bounded window of work in flight, so a caller that
merges results one by one holds O(window) results, not O(all work
units).  ``resolve_executor`` turns user-facing specs
(``"serial"``, ``"thread[:N]"``, ``"process[:8]"``) into executor
objects — the form the CLI exposes — handing out one shared (and, for
processes, persistent) instance per backend and worker count.
"""

from __future__ import annotations

import os
import threading
import weakref
from collections import deque
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from itertools import islice
from typing import Callable, Iterator, Protocol, Sequence, TypeVar

from repro.errors import ReproError

T = TypeVar("T")
R = TypeVar("R")

_SENTINEL = object()


class MapExecutor(Protocol):
    """Anything that maps a picklable function over work units in order."""

    def map(self, fn: Callable[[T], R], items: Sequence[T]) -> Iterator[R]:
        ...


class SerialExecutor:
    """Run work units one after another in the calling process."""

    def map(self, fn: Callable[[T], R], items: Sequence[T]) -> Iterator[R]:
        return map(fn, list(items))

    def __repr__(self) -> str:
        return "SerialExecutor()"


#: Every live ThreadExecutor / ProcessExecutor, so a forked child can
#: discard inherited pools: the pool's worker threads/processes do not
#: survive fork, but the pool object does — submitting to it in the
#: child would hang forever.
_LIVE_THREAD_EXECUTORS: "weakref.WeakSet[ThreadExecutor]" = weakref.WeakSet()
_LIVE_PROCESS_EXECUTORS: "weakref.WeakSet[ProcessExecutor]" = weakref.WeakSet()


def _reset_executors_after_fork() -> None:
    for executor in list(_LIVE_THREAD_EXECUTORS):
        executor._discard_pool()
    for executor in list(_LIVE_PROCESS_EXECUTORS):
        executor._discard_pool()


if hasattr(os, "register_at_fork"):  # not on Windows
    os.register_at_fork(after_in_child=_reset_executors_after_fork)


def _close_process_executors_at_exit(force: bool = False) -> None:
    """Shut down every live persistent process pool before exit joins.

    Two exit paths need this, and neither runs the other's hooks:

    * a normal interpreter exit runs ``threading._shutdown``, whose
      first registered callbacks fire *before* non-daemon threads are
      joined — closing the pools here lets ``concurrent.futures``' own
      exit hook find everything already shut down instead of joining
      worker processes that still hold open grandchild pools;
    * a *pool worker* process exits through ``os._exit`` after
      ``multiprocessing.util._exit_function``, skipping
      ``threading._shutdown`` entirely — but running util finalizers.
      Without this hook, a worker that resolved ``"process:N"`` for its
      own nested maps (an engine cell building its problem through a
      process executor) would join its inner pool's processes at exit
      while nothing ever told them to stop: a deadlock that freezes the whole
      grid at shutdown.

    *force* (the multiprocessing-finalizer path, where no thread will
    ever consume a registered stream again) shuts pools down even with
    live stream registrations; the threading path stays graceful so a
    still-running consumer thread can drain first.
    """
    for executor in list(_LIVE_PROCESS_EXECUTORS):
        try:
            executor.close(force=force)
        except Exception:
            pass


if hasattr(threading, "_register_atexit"):
    # Runs at the START of threading._shutdown, last-registered first —
    # i.e. before concurrent.futures' _python_exit joins anything.
    threading._register_atexit(_close_process_executors_at_exit)


_EXIT_CLOSE_PID: int | None = None


def _register_exit_close() -> None:
    """Register the exit hook with *this process's* multiprocessing util.

    ``util.Finalize`` entries are pid-guarded AND the registry is
    cleared by ``BaseProcess._bootstrap`` in every multiprocessing
    child, so registering at import or at fork time is useless inside a
    pool worker — the registration must happen lazily, after bootstrap,
    in whichever process actually creates a persistent pool
    (:meth:`ProcessExecutor._ensure_pool` calls this).  The hook also
    runs a second time in the driver via multiprocessing's atexit;
    ``close`` is idempotent, so that is harmless.
    """
    global _EXIT_CLOSE_PID
    if _EXIT_CLOSE_PID == os.getpid():
        return
    try:
        from multiprocessing import util as _mp_util

        _mp_util.Finalize(
            None, _close_process_executors_at_exit, args=(True,), exitpriority=50
        )
        _EXIT_CLOSE_PID = os.getpid()
    except Exception:  # pragma: no cover - multiprocessing always importable
        pass


class ThreadExecutor:
    """Run work units on a shared thread pool (created lazily, reused).

    Threads share the caller's memory, so work units need not be
    picklable and large arrays travel for free — but pure-Python work
    still serializes on the GIL.  The sweet spot is numpy-dominated
    steps mapped many times, where per-call pool reuse matters and the
    heavy ops release the GIL.  Instances pickle as their configuration
    only; the pool is rebuilt lazily wherever they land.

    The pool is kept for the instance's lifetime (idle threads are
    joined at interpreter exit); :func:`resolve_executor` hands out one
    shared instance per worker count, so resolving ``"thread:N"`` once
    per caller does not accumulate pools.  Because instances are shared,
    a :meth:`map` issued *from one of the pool's own worker threads*
    (e.g. an engine grid on ``thread:2`` whose cells build their
    problems with ``thread:2``) runs inline instead of queueing: the
    nested tasks would otherwise wait behind the very jobs occupying
    every worker — a deadlock, not a slowdown.
    """

    def __init__(self, max_workers: int | None = None):
        self.max_workers = max_workers or os.cpu_count() or 1
        self._discard_pool()
        _LIVE_THREAD_EXECUTORS.add(self)

    def _discard_pool(self) -> None:
        """Forget the pool and its worker bookkeeping (fresh state)."""
        self._pool: ThreadPoolExecutor | None = None
        self._lock = threading.Lock()
        self._worker_idents: set[int] = set()

    def _register_worker(self) -> None:
        self._worker_idents.add(threading.get_ident())

    def map(self, fn: Callable[[T], R], items: Sequence[T]) -> Iterator[R]:
        items = list(items)
        if len(items) <= 1 or self.max_workers <= 1:
            return map(fn, items)
        if threading.get_ident() in self._worker_idents:
            # Nested map from our own pool: run inline (see class doc).
            return map(fn, items)
        with self._lock:
            if self._pool is None:
                self._pool = ThreadPoolExecutor(
                    max_workers=self.max_workers, initializer=self._register_worker
                )
        return self._stream(fn, items, self._pool)

    def _stream(
        self, fn: Callable[[T], R], items: list[T], pool: ThreadPoolExecutor
    ) -> Iterator[R]:
        # Same bounded in-flight window as ProcessExecutor: submitting
        # everything up front would buffer completed results without
        # bound whenever workers outpace the consumer — exactly the
        # O(whole program) peak a streaming merge exists to avoid.
        pending: deque = deque()
        try:
            remaining = iter(items)
            for item in islice(remaining, 2 * self.max_workers):
                pending.append(pool.submit(fn, item))
            while pending:
                result = pending.popleft().result()
                nxt = next(remaining, _SENTINEL)
                if nxt is not _SENTINEL:
                    pending.append(pool.submit(fn, nxt))
                yield result
        finally:
            # A raising work unit or an abandoned consumer must not
            # leave the in-flight window running on the shared pool:
            # cancel whatever has not started yet.
            for future in pending:
                future.cancel()

    def __getstate__(self) -> dict:
        return {"max_workers": self.max_workers}

    def __setstate__(self, state: dict) -> None:
        self.__init__(state["max_workers"])

    def __repr__(self) -> str:
        return f"ThreadExecutor(max_workers={self.max_workers})"


def _run_chunk(fn: Callable[[T], R], chunk: list[T]) -> list[R]:
    """Worker-side adapter: evaluate one chunk of work units in order."""
    return [fn(item) for item in chunk]


#: Upper bound on items per dispatched chunk.  Deriving chunk size only
#: from ``len(items)`` would make the streaming window's memory O(n)
#: in disguise (2×workers chunks of n/(4×workers) items each is half the
#: input); the cap keeps the in-flight result buffer a true constant,
#: at most ``2 * max_workers * _CHUNK_CAP`` results.
_CHUNK_CAP = 64


class ProcessExecutor:
    """Run work units in a pool of worker processes, streaming results.

    Two pool-lifecycle modes:

    * ``persistent=False`` (default for direct construction) — a fresh
      pool per :meth:`map` call, torn down when the returned generator
      is exhausted, closed, or garbage-collected.  Stateless and simple,
      but a caller that maps many times pays a pool spawn each time.
    * ``persistent=True`` (what :func:`resolve_executor` hands out for
      ``"process[:N]"`` specs) — a long-lived pool owned by the
      executor: created lazily on the first parallel ``map``, reused
      across calls, discarded in forked children (like
      :class:`ThreadExecutor`), shut down by :meth:`close` (the executor
      is a context manager) or at interpreter exit.  This is what makes
      repeated grid waves actually fast.

    Work is dispatched in chunks to amortize IPC.  The returned
    generator keeps a bounded window of chunks in flight (submitting the
    next chunk as each one completes) and yields results in submission
    order, so the driver's peak result memory is O(window × chunk), not
    O(all items).  If a work unit raises or the consumer abandons the
    generator early, in-flight chunks are cancelled (and, in fresh-pool
    mode, the pool is shut down) — nothing keeps running unobserved.

    Workers hold no per-map state: every work unit carries what it
    needs, so any map can run on the warm pool.  One item or one worker
    runs serially in the calling process.

    Instances pickle as their configuration only; the pool is rebuilt
    lazily wherever they land.
    """

    def __init__(self, max_workers: int | None = None, persistent: bool = False):
        self.max_workers = max_workers or os.cpu_count() or 1
        self.persistent = persistent
        self._discard_pool()
        _LIVE_PROCESS_EXECUTORS.add(self)

    def _discard_pool(self) -> None:
        """Forget the pool without shutdown (fresh state / after fork)."""
        self._pool: ProcessPoolExecutor | None = None
        #: Live streaming maps per pool — a pool displaced by a
        #: broken-pool recycle (or close()) while another thread's
        #: stream is still submitting to it must not be shut down under
        #: that stream; the last stream to finish retires it instead.
        self._active: dict[ProcessPoolExecutor, int] = {}
        #: Pools whose stream slot was released from GC context (a
        #: collected never-started generator), where taking the executor
        #: lock or blocking on a shutdown could deadlock the triggering
        #: thread; drained on the next map()/close() in normal context.
        self._zombies: deque = deque()
        self._lock = threading.Lock()

    def close(self, force: bool = False) -> None:
        """Shut down the persistent pool (if any); the executor stays
        usable — a later :meth:`map` lazily builds a fresh pool.

        A pool with registered live streams is normally retired by the
        last stream's exit rather than shut down under it; *force*
        (used by the process-exit hook, where no stream will ever run
        again) shuts it down regardless — ``shutdown`` is idempotent,
        so a zombie stream's later retire attempt is harmless.
        """
        self._drain_zombies()
        with self._lock:
            pool, self._pool = self._pool, None
            defer = (
                not force and pool is not None and self._active.get(pool, 0) > 0
            )
        if pool is not None and not defer:
            pool.shutdown(wait=True, cancel_futures=True)

    def _release_stream(self, pool: ProcessPoolExecutor, released: list) -> None:
        """Deregister one stream exactly once (the generator's finally).

        ``released`` is shared with the GC finalizer; only one of the
        two paths runs (the finalizer fires after the generator dies,
        the finally only while it is alive), so a plain flag suffices.
        """
        if released[0]:
            return
        released[0] = True
        self._exit_stream(pool)

    def _release_stream_from_gc(
        self, pool: ProcessPoolExecutor, released: list
    ) -> None:
        """GC-finalizer twin of :meth:`_release_stream`, lock-free.

        Runs during garbage collection, which can trigger on any
        allocation — including on a thread currently holding
        ``self._lock`` (the lock is not reentrant) or inside a pool
        operation.  So: flip the flag, enqueue the pool (atomic deque
        append), and let the next map()/close() in normal context do
        the actual deregistration/retirement.
        """
        if released[0]:
            return
        released[0] = True
        self._zombies.append(pool)

    def _drain_zombies(self) -> None:
        while True:
            try:
                pool = self._zombies.popleft()
            except IndexError:
                return
            self._exit_stream(pool)

    def _exit_stream(self, pool: ProcessPoolExecutor) -> None:
        with self._lock:
            count = self._active.get(pool, 1) - 1
            if count > 0:
                self._active[pool] = count
                return
            self._active.pop(pool, None)
            retire = pool is not self._pool  # displaced while we streamed
        if retire:
            pool.shutdown(wait=True, cancel_futures=True)

    def __enter__(self) -> "ProcessExecutor":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def map(self, fn: Callable[[T], R], items: Sequence[T]) -> Iterator[R]:
        items = list(items)
        if len(items) <= 1 or self.max_workers <= 1:
            return map(fn, items)
        # Ceil-divide so a small map fills one in-flight window (about
        # 2×workers chunks) instead of degenerating to one item per
        # chunk: every chunk is an IPC round trip, and a latency-bound
        # map lives or dies by the round-trip count.  Large maps still
        # hit the _CHUNK_CAP.
        chunksize = max(
            1, min(_CHUNK_CAP, -(-len(items) // (self.max_workers * 2)))
        )
        chunks = [items[lo : lo + chunksize] for lo in range(0, len(items), chunksize)]
        if not self.persistent:
            return self._stream_fresh(fn, chunks)
        self._drain_zombies()
        pool = self._ensure_pool()
        released = [False]
        stream = self._stream_persistent(fn, chunks, pool, released)
        # A generator that is never started never runs its finally; the
        # GC finalizer releases its stream slot instead, so an abandoned
        # unstarted map cannot defer the pool's retirement forever.
        weakref.finalize(stream, self._release_stream_from_gc, pool, released)
        return stream

    def _stream_persistent(
        self,
        fn: Callable[[T], R],
        chunks: list[list[T]],
        pool: ProcessPoolExecutor,
        released: list,
    ) -> Iterator[R]:
        # _ensure_pool registered this stream on the pool (atomically
        # with the reuse-vs-recycle decision); deregistering in a finally
        # lets a concurrent recycle or close() defer the old pool's
        # shutdown until the last stream on it drains.
        try:
            yield from self._windowed(fn, chunks, pool)
        except GeneratorExit:
            # close() on the generator — possibly the GC collecting an
            # abandoned stream, which can run on a thread already
            # holding the executor lock: release via the lock-free
            # queue, like the never-started finalizer.
            self._release_stream_from_gc(pool, released)
            raise
        finally:
            # Normal exhaustion or a work-unit exception surfaces on the
            # consuming thread, where locking inline is safe (and the
            # released flag makes this a no-op after the except above).
            self._release_stream(pool, released)

    def _ensure_pool(self) -> ProcessPoolExecutor:
        """The persistent pool, recycled when its workers broke.

        A pool whose worker died (``BrokenProcessPool``) is rebuilt: the
        fresh-pool-per-map design self-healed from crashed workers, and
        a shared registry instance must not stay poisoned forever.
        A displaced pool that another thread's stream is still consuming
        is retired by that stream's exit instead of being shut down
        under it.

        The returned pool is registered as carrying one live stream —
        under the same lock acquisition that decided reuse-vs-recycle,
        so a concurrent recycle/close cannot shut the pool down in the
        gap before the caller's generator starts.  The stream generator
        deregisters via :meth:`_exit_stream`.
        """
        stale: ProcessPoolExecutor | None = None
        with self._lock:
            pool = self._pool
            broken = pool is not None and getattr(pool, "_broken", False)
            if pool is not None and not broken:
                self._active[pool] = self._active.get(pool, 0) + 1
                return pool
            stale, self._pool = pool, None
            if stale is not None and self._active.get(stale, 0) > 0:
                stale = None  # live streams retire it on exit
            _register_exit_close()
            pool = ProcessPoolExecutor(max_workers=self.max_workers)
            self._pool = pool
            self._active[pool] = 1
        if stale is not None:
            # Outside the lock: draining a displaced pool (its running
            # chunks finish, pending ones are cancelled) must not stall
            # every other thread's map()/close() on this executor.
            stale.shutdown(wait=True, cancel_futures=True)
        return pool

    def _stream_fresh(
        self, fn: Callable[[T], R], chunks: list[list[T]]
    ) -> Iterator[R]:
        pool = ProcessPoolExecutor(max_workers=self.max_workers)
        try:
            yield from self._windowed(fn, chunks, pool)
        finally:
            pool.shutdown(wait=True, cancel_futures=True)

    def _windowed(
        self, fn: Callable[[T], R], chunks: list[list[T]], pool: ProcessPoolExecutor
    ) -> Iterator[R]:
        pending: deque = deque()
        try:
            remaining = iter(chunks)
            for chunk in islice(remaining, 2 * self.max_workers):
                pending.append(pool.submit(_run_chunk, fn, chunk))
            while pending:
                results = pending.popleft().result()
                nxt = next(remaining, None)
                if nxt is not None:
                    pending.append(pool.submit(_run_chunk, fn, nxt))
                yield from results
        finally:
            # On a worker exception or an abandoned consumer, unstarted
            # chunks must not keep a (possibly shared, persistent) pool
            # busy; fresh-mode shutdown in _stream_fresh handles the rest.
            for future in pending:
                future.cancel()

    def __getstate__(self) -> dict:
        return {"max_workers": self.max_workers, "persistent": self.persistent}

    def __setstate__(self, state: dict) -> None:
        self.__init__(state["max_workers"], state.get("persistent", False))

    def __repr__(self) -> str:
        return (
            f"ProcessExecutor(max_workers={self.max_workers}, "
            f"persistent={self.persistent})"
        )


#: Shared executors by worker count — ``resolve_executor`` hands these
#: out so repeated "thread:N" / "process:N" resolutions (one per
#: AdmmSolver, one per sweep cell...) reuse one pool instead of leaking
#: one each.  The process instances are persistent-mode: their worker
#: pool survives across maps, which is what makes per-iteration
#: process dispatch viable.
_THREAD_EXECUTORS: dict[int, ThreadExecutor] = {}
_PROCESS_EXECUTORS: dict[int, ProcessExecutor] = {}


def _shared_thread_executor(max_workers: int | None) -> ThreadExecutor:
    # Normalize the count and look up the registry BEFORE constructing:
    # building a throwaway ThreadExecutor per resolution would churn the
    # at-fork WeakSet and a lock on every resolve.
    workers = max_workers or os.cpu_count() or 1
    executor = _THREAD_EXECUTORS.get(workers)
    if executor is None:
        executor = _THREAD_EXECUTORS.setdefault(workers, ThreadExecutor(workers))
    return executor


def _shared_process_executor(max_workers: int | None) -> ProcessExecutor:
    workers = max_workers or os.cpu_count() or 1
    executor = _PROCESS_EXECUTORS.get(workers)
    if executor is None:
        executor = _PROCESS_EXECUTORS.setdefault(
            workers, ProcessExecutor(workers, persistent=True)
        )
    return executor


def _worker_count(spec: str, arg: str) -> int:
    try:
        workers = int(arg)
    except ValueError:
        raise ReproError(f"bad worker count in executor spec {spec!r}")
    if workers < 1:
        raise ReproError(f"worker count must be >= 1 in {spec!r}")
    return workers


def resolve_executor(spec: object | None) -> MapExecutor:
    """Resolve an executor spec into an executor instance.

    Accepts ``None`` / ``"serial"`` (serial), ``"thread"`` /
    ``"thread:N"`` (the process-wide shared thread executor for that
    worker count), ``"process"`` / ``"process:N"`` (the process-wide
    shared *persistent* process executor for that worker count — its
    pool outlives individual maps), or any object that already has a
    ``map`` method (returned as-is).
    """
    if spec is None:
        return SerialExecutor()
    if isinstance(spec, str):
        name, _, arg = spec.partition(":")
        if name == "serial":
            return SerialExecutor()
        if name == "thread":
            return _shared_thread_executor(_worker_count(spec, arg) if arg else None)
        if name == "process":
            return _shared_process_executor(_worker_count(spec, arg) if arg else None)
        raise ReproError(
            f"unknown executor spec {spec!r} (use 'serial', 'thread[:N]' or 'process[:N]')"
        )
    if hasattr(spec, "map"):
        return spec  # type: ignore[return-value]
    raise ReproError(f"cannot interpret {spec!r} as an executor")
