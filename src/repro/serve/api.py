"""The job API: what each request answers, over one :class:`JobScheduler`.

Two transports carry it.  The HTTP handler of :mod:`repro.serve.server`
reads a request, calls one of the functions below and writes the document
it returns, or the status of the :class:`ServeError` it raises.
:class:`LocalClient` calls the same functions in-process: a library caller
(an in-process campaign) opens no port, yet gets the documents and errors a
:class:`~repro.serve.client.ServeClient` would, so for the calls a campaign
makes either client will do.
"""

from __future__ import annotations

import time
from typing import Any, Mapping

from repro.serve.scheduler import TERMINAL_STATES, AdmissionError, Job, JobRetired, JobScheduler
from repro.serve.spec import JobSpec
from repro.util.errors import ValidationError

#: Most specs accepted in one ``POST /jobs/batch`` request.
MAX_BATCH_JOBS = 4096

#: Longest one ``GET /jobs/<id>?wait=`` request is held; a larger value is
#: clamped, and the client asks again.
MAX_WAIT_SECONDS = 30.0

#: HTTP status per :attr:`AdmissionError.reason`: a spec that can never fit
#: is the client's error, a full queue asks for a retry, a stopped
#: scheduler is the server's condition.
_ADMISSION_STATUS = {"over_budget": 400, "queue_full": 429, "shut_down": 503}


class ServeError(Exception):
    """A request the job API refused, with the HTTP status it answers."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(f"HTTP {status}: {message}")
        self.status = status
        self.message = message


def _spec(item: JobSpec | Any) -> JobSpec:
    if isinstance(item, JobSpec):
        return item
    try:
        return JobSpec.from_dict(item)
    except ValidationError as exc:
        raise ServeError(400, f"bad job spec: {exc}") from None


def _job(scheduler: JobScheduler, job_id: str) -> Job:
    """The job's record: 404 for an id never issued, 410 for a retired one."""
    try:
        return scheduler.get(job_id)
    except JobRetired as exc:
        raise ServeError(410, exc.args[0]) from None
    except KeyError:
        raise ServeError(404, f"unknown job id {job_id!r}") from None


def submit_job(scheduler: JobScheduler, item: JobSpec | Any) -> tuple[int, dict[str, Any]]:
    """``POST /jobs``: (200 for a cache hit or 202 for a queued job, its status)."""
    try:
        job = scheduler.submit(_spec(item))
    except AdmissionError as exc:
        raise ServeError(_ADMISSION_STATUS[exc.reason], str(exc)) from None
    return (200 if job.cached else 202), job.describe()


def submit_jobs(scheduler: JobScheduler, items: Any) -> dict[str, Any]:
    """``POST /jobs/batch``: one admission for a whole spec list.

    ``items`` is ``{"jobs": [spec, ...]}`` or a bare list.  The answer is
    ``{"jobs": [...]}`` with one entry per spec: a job status document (it
    may already be ``done`` via the result cache or store — check
    ``cached``) or ``{"error": ...}`` for that spec alone; a malformed or
    inadmissible spec never fails its batch-mates.
    """
    if isinstance(items, dict):
        items = items.get("jobs")
    if not isinstance(items, list):
        raise ServeError(400, "batch body must be a JSON list or {'jobs': [...]}")
    if len(items) > MAX_BATCH_JOBS:
        raise ServeError(413, f"batch of {len(items)} specs exceeds the {MAX_BATCH_JOBS} cap")
    entries: list[dict[str, Any]] = [{} for _ in items]
    specs: dict[int, JobSpec] = {}
    for i, item in enumerate(items):
        try:
            specs[i] = _spec(item)
        except ServeError as exc:
            entries[i] = {"index": i, "error": exc.message}
    for i, outcome in zip(specs, scheduler.submit_many(list(specs.values()))):
        if outcome["ok"]:
            entries[i] = {**outcome["job"].describe(with_spec=False), "index": i}
        else:
            entries[i] = {"index": i, "error": outcome["error"]}
    return {"jobs": entries}


def job_status(scheduler: JobScheduler, job_id: str, wait: Any = None) -> dict[str, Any]:
    """``GET /jobs/<id>[?wait=<s>]``: the status, held until the job is
    terminal or ``wait`` seconds (at most :data:`MAX_WAIT_SECONDS`) are up."""
    job = _job(scheduler, job_id)
    if wait is not None:
        try:
            seconds = float(wait)
        except ValueError:
            seconds = -1.0
        if not 0 <= seconds < float("inf"):
            raise ServeError(400, f"wait must be a finite number of seconds >= 0, got {wait!r}")
        try:
            scheduler.wait(job.id, timeout=min(seconds, MAX_WAIT_SECONDS))
        except (TimeoutError, JobRetired):
            pass  # "not yet" is an answer, not an error; "retired since" is "done"
    return job.describe()


def job_result(scheduler: JobScheduler, job_id: str) -> dict[str, Any]:
    """``GET /jobs/<id>/result``: the payload without its trace; 409 until terminal."""
    job = _job(scheduler, job_id)
    if job.state in ("queued", "running"):
        raise ServeError(409, f"job {job_id} is still {job.state}")
    if job.state == "cancelled":
        raise ServeError(409, f"job {job_id} was cancelled")
    if job.state == "failed":
        return {"id": job.id, "state": job.state, "error": job.error}
    result = {k: v for k, v in (job.result or {}).items() if k != "trace"}
    return {"id": job.id, "state": job.state, "cached": job.cached, "result": result}


def job_trace(scheduler: JobScheduler, job_id: str) -> dict[str, Any]:
    """``GET /jobs/<id>/trace``: the Chrome-trace document of a traced job."""
    job = _job(scheduler, job_id)
    if job.state in ("queued", "running"):
        raise ServeError(409, f"job {job_id} is still {job.state}")
    trace = (job.result or {}).get("trace")
    if trace is None:
        raise ServeError(404, f"job {job_id} has no trace (submit with trace=true)")
    return trace


def cancel_job(scheduler: JobScheduler, job_id: str) -> dict[str, Any]:
    """``POST /jobs/<id>/cancel``: cancel a queued job; 409 once it runs."""
    job = _job(scheduler, job_id)
    try:
        cancelled = scheduler.cancel(job.id)
    except JobRetired:  # since the line above: it is terminal
        cancelled = False
    if cancelled or job.state == "cancelled":
        return job.describe()
    raise ServeError(409, f"job {job_id} is {job.state}; only queued jobs cancel")


class JobClient:
    """``wait`` / ``wait_many`` over a transport's held status request."""

    def _held_status(self, job_id: str, seconds: float) -> dict[str, Any]:
        raise NotImplementedError

    def wait(self, job_id: str, *, timeout: float = 300.0, poll: float = 0.05) -> dict[str, Any]:
        """Block until the job reaches a terminal state; returns its status.

        Each status request is held until then or for a slice of the time
        left.  ``poll`` is accepted and unused: ``benchmarks/e2e/harness.py``
        still passes it.
        """
        deadline = time.monotonic() + timeout
        while True:
            status = self._held_status(job_id, max(0.0, deadline - time.monotonic()))
            if status["state"] in TERMINAL_STATES:
                return status
            if time.monotonic() >= deadline:
                raise TimeoutError(f"job {job_id} still {status['state']} after {timeout}s")

    def wait_many(
        self, job_ids: list[str], *, timeout: float = 600.0, poll: float = 0.05
    ) -> dict[str, dict[str, Any]]:
        """Block until every listed job is terminal; id -> final status.

        One shared deadline covers the whole set (a campaign waits for the
        sweep, not for each point in sequence): one held request per id,
        which together return when the slowest job does.  ``poll``: see :meth:`wait`.
        """
        deadline = time.monotonic() + timeout
        ids = list(dict.fromkeys(job_ids))
        done: dict[str, dict[str, Any]] = {}
        for i, job_id in enumerate(ids):
            try:
                done[job_id] = self.wait(job_id, timeout=max(0.0, deadline - time.monotonic()))
            except TimeoutError:
                raise TimeoutError(
                    f"{len(ids) - i} job(s) still running after {timeout}s: {ids[i:i + 5]}"
                ) from None
        return done


class LocalClient(JobClient):
    """The job API in-process: :class:`~repro.serve.client.ServeClient`'s
    campaign calls, answered by ``scheduler`` with no socket in between."""

    def __init__(self, scheduler: JobScheduler) -> None:
        self.scheduler = scheduler

    def submit(self, spec: JobSpec | Mapping[str, Any]) -> dict[str, Any]:
        return submit_job(self.scheduler, spec)[1]

    def submit_many(self, specs: list[JobSpec | Mapping[str, Any]]) -> list[dict[str, Any]]:
        return submit_jobs(self.scheduler, list(specs))["jobs"]

    def result(self, job_id: str) -> dict[str, Any]:
        return job_result(self.scheduler, job_id)

    def _held_status(self, job_id: str, seconds: float) -> dict[str, Any]:
        return job_status(self.scheduler, job_id, wait=seconds)
