"""Job worker processes: where ``backend="processes"`` jobs run.

A job's ranks never run in parallel (one baton per run, see
:mod:`repro.comm.fabric`); what pays on a multi-core host is running whole
*jobs* side by side, each on its own interpreter and GIL.  This module
keeps one warm, process-wide :class:`~concurrent.futures.ProcessPoolExecutor`
with a worker per usable CPU, built on first use and only ever imported by
:func:`repro.serve.spec.execute_job`'s ``"processes"`` branch.  A worker
receives ``spec.to_dict()`` and returns the payload ``execute_job`` builds
in-process there — same loop, different process.

Workers start by ``forkserver`` (``spawn`` where that is missing), never
``fork``: the parent runs rank and server threads.  Each worker settles on
its host before its first job.  One CPU: a run hands its baton from thread
to thread, and on one CPU that is a context switch where across two it is a
remote wake-up (one heat3d@64 job: 92 ms confined, 149 ms free, 9 of 10
interleaved pairs).  One heap: those threads take turns, so a malloc arena
each only strands freed memory (:func:`repro.serve.spec.use_one_heap`).
A worker that dies breaks the executor; the jobs in flight fail saying so
and the next job gets a fresh pool.  :func:`shutdown_pool` (also run at
exit) stops the workers *and* multiprocessing's forkserver and resource
tracker, so nothing of ours outlives it.
"""

from __future__ import annotations

import atexit
import multiprocessing
import os
import threading
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Any

from repro.serve.spec import usable_cpus, use_one_heap


def _run_job(doc: dict[str, Any]) -> dict[str, Any]:
    """Worker side: execute one spec document in this process."""
    from repro.serve.spec import JobSpec, execute_job

    return execute_job(JobSpec.from_dict({**doc, "backend": None}))


def _settle_on_host() -> None:
    """Worker initializer: one heap, and one usable CPU, round-robin.

    multiprocessing numbers the processes a parent starts (``...Process-N``)
    and a pool's workers are started together, so they spread evenly.
    """
    use_one_heap()  # the worker has no second thread yet
    if hasattr(os, "sched_setaffinity"):
        cpus = sorted(os.sched_getaffinity(0))
        number = int(multiprocessing.current_process().name.rpartition("-")[2])
        os.sched_setaffinity(0, {cpus[number % len(cpus)]})


class _JobPool:
    """The lazily built executor plus its lifetime counters."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._executor: ProcessPoolExecutor | None = None
        self._workers = 0
        self.jobs = 0
        self.rebuilt = 0

    def _live_executor(self) -> ProcessPoolExecutor:
        with self._lock:
            if self._executor is None:
                methods = multiprocessing.get_all_start_methods()
                context = multiprocessing.get_context(
                    "forkserver" if "forkserver" in methods else "spawn"
                )
                self._workers = usable_cpus()
                self._executor = ProcessPoolExecutor(
                    self._workers, mp_context=context, initializer=_settle_on_host
                )
            self.jobs += 1
            return self._executor

    def run(self, doc: dict[str, Any]) -> dict[str, Any]:
        executor = self._live_executor()
        try:
            return executor.submit(_run_job, doc).result()
        except BrokenProcessPool as exc:
            with self._lock:
                if self._executor is executor:
                    self._executor = None
                    self.rebuilt += 1
            executor.shutdown()
            raise RuntimeError(
                "a job worker process died while this job was in flight; "
                "the worker pool is rebuilt for the next job"
            ) from exc

    def stats(self) -> dict[str, int]:
        with self._lock:
            workers = 0 if self._executor is None else self._workers
            return {"workers": workers, "jobs": self.jobs, "rebuilt": self.rebuilt}

    def shutdown(self) -> None:
        with self._lock:
            executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(cancel_futures=True)
        # The stdlib keeps these two helpers until interpreter exit; stopping
        # them (a no-op when they are not running) is what its own test suite
        # does.  Both restart on demand if a later job builds a new pool.
        from multiprocessing import forkserver, resource_tracker

        forkserver._forkserver._stop()
        resource_tracker._resource_tracker._stop()


_pool = _JobPool()


def run_in_worker(doc: dict[str, Any]) -> dict[str, Any]:
    """Run one ``JobSpec.to_dict()`` document in a worker; its payload."""
    return _pool.run(doc)


def job_pool_stats() -> dict[str, int]:
    """Worker count of the live pool, jobs sent to workers, pools rebuilt."""
    return _pool.stats()


def shutdown_pool() -> None:
    """Stop every worker and helper process; the next job starts afresh."""
    _pool.shutdown()


atexit.register(shutdown_pool)
