"""Stdlib HTTP client for the job service.

:class:`ServeClient` is what the CLI (``repro submit`` / ``repro jobs``),
the test suite, and future batch drivers (the campaign engine) talk to the
server with — plain ``urllib`` underneath, JSON in and out, no third-party
dependencies.  It never sleeps: the server holds a waiting request until
the job is done.

The canonical loop::

    client = ServeClient("http://127.0.0.1:8642")
    job = client.submit(JobSpec(app="heat3d", nodes=4, preset="laptop"))
    done = client.wait(job["id"])
    print(client.result(job["id"])["result"]["makespan"])
"""

from __future__ import annotations

import json
import time
import urllib.error
import urllib.request
from typing import Any, Mapping

from repro.serve.scheduler import TERMINAL_STATES
from repro.serve.spec import JobSpec

#: Default server address (the ``repro serve`` default port).
DEFAULT_URL = "http://127.0.0.1:8642"


class ServeError(Exception):
    """An HTTP-level failure, carrying the server's error message."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(f"HTTP {status}: {message}")
        self.status = status
        self.message = message


class ServeClient:
    """Thin JSON client for one job server."""

    def __init__(self, url: str = DEFAULT_URL, *, timeout: float = 30.0) -> None:
        self.url = url.rstrip("/")
        self.timeout = timeout

    # -- transport ---------------------------------------------------------
    def _request(self, method: str, path: str, body: Any = None) -> Any:
        data = None if body is None else json.dumps(body).encode("utf-8")
        req = urllib.request.Request(
            f"{self.url}{path}",
            data=data,
            method=method,
            headers={"Content-Type": "application/json"} if data else {},
        )
        try:
            with urllib.request.urlopen(req, timeout=self.timeout) as resp:
                return json.loads(resp.read().decode("utf-8"))
        except urllib.error.HTTPError as exc:
            try:
                message = json.loads(exc.read().decode("utf-8")).get("error", "")
            except Exception:  # noqa: BLE001 - error body is best-effort
                message = exc.reason
            raise ServeError(exc.code, message) from None
        except urllib.error.URLError as exc:
            raise ServeError(0, f"cannot reach {self.url}: {exc.reason}") from None

    # -- API ----------------------------------------------------------------
    def healthy(self) -> bool:
        try:
            return bool(self._request("GET", "/healthz").get("ok"))
        except ServeError:
            return False

    def stats(self) -> dict[str, Any]:
        return self._request("GET", "/stats")

    def submit(self, spec: JobSpec | Mapping[str, Any]) -> dict[str, Any]:
        """Submit one job; returns its status document (maybe already done
        — cache hits complete at submission)."""
        payload = spec.to_dict() if isinstance(spec, JobSpec) else dict(spec)
        return self._request("POST", "/jobs", payload)

    def submit_many(
        self, specs: list[JobSpec | Mapping[str, Any]]
    ) -> list[dict[str, Any]]:
        """Submit a whole spec list in **one** HTTP round trip.

        Returns one entry per spec, in order: a job status document
        (possibly already ``done`` via the server's result cache or
        persistent store — check ``cached``) or ``{"error": ...}`` for the
        specs the server refused.  One bad spec never fails the batch.
        """
        payload = [
            spec.to_dict() if isinstance(spec, JobSpec) else dict(spec)
            for spec in specs
        ]
        return self._request("POST", "/jobs/batch", {"jobs": payload})["jobs"]

    def jobs(self) -> list[dict[str, Any]]:
        return self._request("GET", "/jobs")["jobs"]

    def status(self, job_id: str) -> dict[str, Any]:
        return self._request("GET", f"/jobs/{job_id}")

    def result(self, job_id: str) -> dict[str, Any]:
        return self._request("GET", f"/jobs/{job_id}/result")

    def trace(self, job_id: str) -> dict[str, Any]:
        return self._request("GET", f"/jobs/{job_id}/trace")

    def cancel(self, job_id: str) -> dict[str, Any]:
        return self._request("POST", f"/jobs/{job_id}/cancel")

    def wait(
        self, job_id: str, *, timeout: float = 300.0, poll: float = 0.05
    ) -> dict[str, Any]:
        """Block until the job reaches a terminal state; returns its status.

        The server holds each request (``GET /jobs/<id>?wait=``, in slices of
        half the socket timeout) until then.  ``poll`` is accepted and
        unused: ``benchmarks/e2e/harness.py`` still passes it.
        """
        deadline = time.monotonic() + timeout
        while True:
            left = max(0.0, deadline - time.monotonic())
            status = self._request("GET", f"/jobs/{job_id}?wait={min(left, self.timeout / 2):.3f}")
            if status["state"] in TERMINAL_STATES:
                return status
            if time.monotonic() >= deadline:
                raise TimeoutError(
                    f"job {job_id} still {status['state']} after {timeout}s"
                )

    def wait_many(
        self, job_ids: list[str], *, timeout: float = 600.0, poll: float = 0.05
    ) -> dict[str, dict[str, Any]]:
        """Block until every listed job is terminal; id -> final status.

        One shared deadline covers the whole set (a campaign waits for the
        sweep, not for each point in sequence): one blocking request per id,
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
