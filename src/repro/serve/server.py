"""The job service's HTTP front end: a JSON API on ``socketserver``.

A deliberately small, dependency-free JSON API on localhost:

====== =========================== ===========================================
Method Path                        Meaning
====== =========================== ===========================================
GET    ``/healthz``                liveness probe
GET    ``/stats``                  scheduler / cache / pool counters
GET    ``/jobs``                   all jobs (status summaries)
POST   ``/jobs``                   submit a job spec; 200 = cache hit,
                                   202 = queued, 400/429 = rejected
POST   ``/jobs/batch``             submit a list of specs in one round trip;
                                   always 200 with a per-spec outcome
                                   ({job id | cached result | error}) —
                                   one bad spec never fails the batch
GET    ``/jobs/<id>``              one job's status
GET    ``/jobs/<id>?wait=<s>``     the same, held until the job is terminal
                                   or ``<s>`` seconds are up; always 200
GET    ``/jobs/<id>/result``       result payload (409 until terminal)
GET    ``/jobs/<id>/trace``        Chrome-trace document (jobs with trace=true)
POST   ``/jobs/<id>/cancel``       cancel a queued job (409 if running)
====== =========================== ===========================================

Every ``/jobs/<id>`` path answers 404 for an id this server never issued and
410 for one whose record left the scheduler's bounded table (the last
``max_queued`` finished jobs stay): resubmit the spec, it is a cache hit.

The server reads HTTP/1.1 itself (:meth:`_Handler._one_request`) rather than
load ``http.server`` -> ``http.client`` + ``ssl`` + ``email`` into a process
that never speaks TLS or parses mail; docs/architecture.md, "Job service",
says exactly what it speaks.

Each connection is handled on its own thread, but handlers only touch the
lock-protected :class:`~repro.serve.scheduler.JobScheduler` — the actual
simulations run on the scheduler's job threads (one in-process job at a
time), so a slow job never blocks a status request; a ``?wait=`` one parks
on its completion condition.

:class:`JobServer` bundles scheduler + HTTP server + the serving thread;
``port=0`` binds an ephemeral port (the bound address is on ``.url``).
Use it as a context manager in tests.  Its threads take turns, so before
the first one starts it puts the process on one malloc arena
(:func:`repro.serve.spec.use_one_heap`); ``/stats`` says what it holds.
"""

from __future__ import annotations

import json
import socketserver
import sys
import threading
from typing import Any

from repro import __version__
from repro.serve.cache import ResultCache
from repro.serve.scheduler import AdmissionError, JobRetired, JobScheduler
from repro.serve.spec import JobSpec, use_one_heap
from repro.serve.store import ResultStore
from repro.util.errors import ValidationError

#: Largest request body accepted (job specs are small; this is a guardrail).
MAX_BODY_BYTES = 4 * 1024 * 1024

#: Most specs accepted in one ``POST /jobs/batch`` request.
MAX_BATCH_JOBS = 4096

#: Longest request or header line and most header lines read before the
#: request is refused (``http.server``'s limits).
MAX_LINE_BYTES = 65536
MAX_HEADERS = 100

#: Longest one ``GET /jobs/<id>?wait=`` request is held; a larger value is
#: clamped, and the client asks again.
MAX_WAIT_SECONDS = 30.0

#: HTTP status per :attr:`AdmissionError.reason`: a spec that can never fit
#: is the client's error, a full queue asks for a retry, a stopped
#: scheduler is the server's condition.
_ADMISSION_STATUS = {"over_budget": 400, "queue_full": 429, "shut_down": 503}

#: Reason phrase of every status this API answers with.
_REASONS = {
    200: "OK",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    410: "Gone",
    413: "Request Entity Too Large",
    429: "Too Many Requests",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error",
    501: "Not Implemented",
    503: "Service Unavailable",
}


class _ApiError(Exception):
    """An error with an HTTP status, rendered as a JSON body."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


class _Handler(socketserver.StreamRequestHandler):
    # -- plumbing ---------------------------------------------------------
    @property
    def scheduler(self) -> JobScheduler:
        return self.server.scheduler  # type: ignore[attr-defined]

    def handle(self) -> None:
        self.close_connection = False
        try:
            while not self.close_connection:
                self._one_request()
        except OSError:
            pass  # the peer went away: there is nobody to answer

    def _read_line(self) -> bytes:
        line = self.rfile.readline(MAX_LINE_BYTES + 1)
        if len(line) > MAX_LINE_BYTES:
            raise _ApiError(431, f"request or header line exceeds {MAX_LINE_BYTES} bytes")
        return line

    def _one_request(self) -> None:
        """Read one request, answer it, and say whether another may follow."""
        # Until a whole head has been read nothing says where the next
        # request would start, so every refusal up to there closes.
        self.close_connection = True
        self.unread = 0  # declared body bytes still on the wire
        self.requestline = ""
        try:
            line = self._read_line()
            if not line:
                return  # the client is done with this connection
            self.scheduler.count_request()
            self.requestline = line.decode("latin-1").rstrip("\r\n")
            words = self.requestline.split(" ")
            if len(words) != 3 or words[2] not in ("HTTP/1.0", "HTTP/1.1"):
                raise _ApiError(400, f"malformed request line {self.requestline[:80]!r}")
            method, self.path, version = words
            self.headers = self._read_headers()
            if method not in ("GET", "POST"):
                raise _ApiError(405, f"method {method[:20]!r} is not supported")
            if "transfer-encoding" in self.headers:
                raise _ApiError(501, "Transfer-Encoding is not supported; send Content-Length")
            try:
                self.unread = int(self.headers.get("content-length") or 0)
            except ValueError:
                self.unread = -1
            if self.unread < 0:
                raise _ApiError(400, "Content-Length must be an integer >= 0")
            connection = self.headers.get("connection", "").lower()
            self.close_connection = "close" in connection or (
                version == "HTTP/1.0" and "keep-alive" not in connection
            )
            path, _, query = self.path.partition("?")
            self.query = dict(pair.partition("=")[::2] for pair in query.split("&"))
            self._dispatch(method, [p for p in path.split("/") if p])
        except _ApiError as exc:
            self._send_json({"error": str(exc)}, status=exc.status)
        except Exception as exc:  # noqa: BLE001 - must answer the client
            self._send_json({"error": f"internal error: {type(exc).__name__}: {exc}"}, status=500)

    def _read_headers(self) -> dict[str, str]:
        """Header lines up to the blank one, names lower-cased."""
        headers: dict[str, str] = {}
        for _ in range(MAX_HEADERS + 1):
            line = self._read_line()
            if line in (b"\r\n", b"\n"):
                return headers
            name, colon, value = line.decode("latin-1").partition(":")
            # A name with white space in or around it is how a folded line
            # or a second request hides from the next parser along.
            if not colon or name.split() != [name]:
                raise _ApiError(400, f"malformed header line {line[:80]!r}")
            name, value = name.lower(), value.strip()
            if name == "content-length" and headers.get(name, value) != value:
                raise _ApiError(400, "conflicting Content-Length headers")
            headers[name] = value
        raise _ApiError(431, f"more than {MAX_HEADERS} header lines")

    def _send_json(self, obj: Any, status: int = 200) -> None:
        body = json.dumps(obj).encode("utf-8")
        head = (
            f"HTTP/1.1 {status} {_REASONS.get(status, '')}\r\n"
            f"Server: repro-serve/{__version__}\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
        )
        if status == 405:
            head += "Allow: GET, POST\r\n"
        # A declared body that nobody read would be parsed as the next request.
        if self.close_connection or self.unread:
            self.close_connection = True
            head += "Connection: close\r\n"
        self.wfile.write(head.encode("latin-1") + b"\r\n" + body)  # one segment
        if self.server.verbose:  # type: ignore[attr-defined]  # quiet by default
            print(f'{self.client_address[0]} "{self.requestline}" {status}', file=sys.stderr)

    def _read_json(self) -> Any:
        if self.unread == 0:
            raise _ApiError(400, "request requires a JSON body")
        if self.unread > MAX_BODY_BYTES:
            raise _ApiError(413, f"request body exceeds {MAX_BODY_BYTES} bytes")
        if self.headers.get("expect", "").lower() == "100-continue":
            self.wfile.write(b"HTTP/1.1 100 Continue\r\n\r\n")  # curl, above 1 KiB
        raw, self.unread = self.rfile.read(self.unread), 0
        try:
            return json.loads(raw.decode("utf-8"))
        except (ValueError, RecursionError) as exc:  # also: an integer past the digit limit
            raise _ApiError(400, f"invalid JSON body: {exc}") from None

    def _job(self, job_id: str):
        try:
            return self.scheduler.get(job_id)
        except JobRetired as exc:
            raise _ApiError(410, exc.args[0]) from None
        except KeyError:
            raise _ApiError(404, f"unknown job id {job_id!r}") from None

    # -- routing ------------------------------------------------------------
    def _dispatch(self, method: str, parts: list[str]) -> None:
        if method == "GET" and parts == ["healthz"]:
            self._send_json({"ok": True, "version": __version__})
        elif method == "GET" and parts == ["stats"]:
            self._send_json(self.scheduler.stats())
        elif method == "GET" and parts == ["jobs"]:
            self._send_json(
                {"jobs": [j.describe(with_spec=False) for j in self.scheduler.jobs()]}
            )
        elif method == "POST" and parts == ["jobs"]:
            self._submit()
        elif method == "POST" and parts == ["jobs", "batch"]:
            self._submit_batch()
        elif len(parts) == 2 and parts[0] == "jobs" and method == "GET":
            self._status(parts[1])
        elif len(parts) == 3 and parts[0] == "jobs":
            job_id, action = parts[1], parts[2]
            if method == "GET" and action == "result":
                self._result(job_id)
            elif method == "GET" and action == "trace":
                self._trace(job_id)
            elif method == "POST" and action == "cancel":
                self._cancel(job_id)
            else:
                raise _ApiError(404, f"no such endpoint: {method} {self.path}")
        else:
            raise _ApiError(404, f"no such endpoint: {method} {self.path}")

    # -- endpoints ------------------------------------------------------------
    def _submit(self) -> None:
        data = self._read_json()
        try:
            spec = JobSpec.from_dict(data)
        except ValidationError as exc:
            raise _ApiError(400, f"bad job spec: {exc}") from None
        try:
            job = self.scheduler.submit(spec)
        except AdmissionError as exc:
            raise _ApiError(_ADMISSION_STATUS[exc.reason], str(exc)) from None
        self._send_json(job.describe(), status=200 if job.cached else 202)

    def _submit_batch(self) -> None:
        """One round trip admits a whole spec list, one outcome per spec.

        The request body is ``{"jobs": [spec, ...]}`` (a bare JSON list is
        accepted too).  The response is always 200 with ``{"jobs": [...]}``
        where each entry is either a job status document (it may already be
        ``done`` via the result cache/persistent store — check ``cached``)
        or ``{"error": ...}`` for that spec alone; a malformed or
        inadmissible spec never fails its batch-mates.
        """
        data = self._read_json()
        if isinstance(data, dict):
            data = data.get("jobs")
        if not isinstance(data, list):
            raise _ApiError(400, "batch body must be a JSON list or {'jobs': [...]}")
        if len(data) > MAX_BATCH_JOBS:
            raise _ApiError(
                413, f"batch of {len(data)} specs exceeds the {MAX_BATCH_JOBS} cap"
            )
        entries: list[dict[str, Any]] = []
        specs: list[tuple[int, JobSpec]] = []
        for i, item in enumerate(data):
            try:
                specs.append((i, JobSpec.from_dict(item)))
                entries.append({})  # placeholder, filled from the scheduler
            except ValidationError as exc:
                entries.append({"index": i, "error": f"bad job spec: {exc}"})
        outcomes = self.scheduler.submit_many([spec for _, spec in specs])
        for (i, _), outcome in zip(specs, outcomes):
            if outcome["ok"]:
                entry = outcome["job"].describe(with_spec=False)
                entry["index"] = i
                entries[i] = entry
            else:
                entries[i] = {"index": i, "error": outcome["error"]}
        self._send_json({"jobs": entries})

    def _status(self, job_id: str) -> None:
        job = self._job(job_id)
        wait = self.query.get("wait")
        if wait is not None:
            try:
                seconds = float(wait)
            except ValueError:
                seconds = -1.0
            if not 0 <= seconds < float("inf"):
                raise _ApiError(400, f"wait must be a finite number of seconds >= 0, got {wait!r}")
            try:
                self.scheduler.wait(job.id, timeout=min(seconds, MAX_WAIT_SECONDS))
            except (TimeoutError, JobRetired):
                pass  # "not yet" is an answer, not an error; "retired since" is "done"
        self._send_json(job.describe())

    def _result(self, job_id: str) -> None:
        job = self._job(job_id)
        if job.state in ("queued", "running"):
            raise _ApiError(409, f"job {job_id} is still {job.state}")
        if job.state == "cancelled":
            raise _ApiError(409, f"job {job_id} was cancelled")
        if job.state == "failed":
            self._send_json({"id": job.id, "state": job.state, "error": job.error})
            return
        result = {k: v for k, v in (job.result or {}).items() if k != "trace"}
        self._send_json(
            {"id": job.id, "state": job.state, "cached": job.cached, "result": result}
        )

    def _trace(self, job_id: str) -> None:
        job = self._job(job_id)
        if job.state in ("queued", "running"):
            raise _ApiError(409, f"job {job_id} is still {job.state}")
        trace = (job.result or {}).get("trace")
        if trace is None:
            raise _ApiError(
                404, f"job {job_id} has no trace (submit with trace=true)"
            )
        self._send_json(trace)

    def _cancel(self, job_id: str) -> None:
        job = self._job(job_id)
        try:
            cancelled = self.scheduler.cancel(job.id)
        except JobRetired:  # since the line above: it is terminal
            cancelled = False
        if cancelled or job.state == "cancelled":
            self._send_json(job.describe())
        else:
            raise _ApiError(409, f"job {job_id} is {job.state}; only queued jobs cancel")


class _HTTPServer(socketserver.ThreadingTCPServer):
    daemon_threads = True
    allow_reuse_address = True


class JobServer:
    """The long-lived simulation job service (scheduler + HTTP API)."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        rank_budget: int = 64,
        cache_size: int = 128,
        max_queued: int = 1024,
        executor: Any = None,
        verbose: bool = False,
        store_dir: Any = None,
    ) -> None:
        use_one_heap()  # before the scheduler starts this process's first thread
        store = None if store_dir is None else ResultStore(store_dir)
        self.scheduler = JobScheduler(
            executor,
            rank_budget=rank_budget,
            cache=ResultCache(cache_size, store=store),
            max_queued=max_queued,
        )
        self._http = _HTTPServer((host, port), _Handler)
        self._http.scheduler = self.scheduler  # type: ignore[attr-defined]
        self._http.verbose = verbose  # type: ignore[attr-defined]
        self._thread: threading.Thread | None = None

    @property
    def host(self) -> str:
        return self._http.server_address[0]

    @property
    def port(self) -> int:
        return self._http.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> "JobServer":
        """Serve requests on a background thread; returns self."""
        if self._thread is not None:
            raise ValidationError("server already started")
        self._thread = threading.Thread(
            target=self._http.serve_forever,
            kwargs={"poll_interval": 0.05},
            name="serve-http",
            daemon=True,
        )
        self._thread.start()
        return self

    def serve_forever(self) -> None:
        """Serve on the calling thread (the ``repro serve`` CLI path)."""
        self._http.serve_forever(poll_interval=0.1)

    def shutdown(self, *, wait_running: float = 0.0) -> None:
        self._http.shutdown()
        self._http.server_close()
        self.scheduler.shutdown(wait_running=wait_running)
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None

    def __enter__(self) -> "JobServer":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.shutdown()
