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

What each request answers is :mod:`repro.serve.api`'s, which an in-process
:class:`~repro.serve.api.LocalClient` calls too; this module only reads the
request and writes the document or the :class:`~repro.serve.api.ServeError`.

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
from repro.serve import api
from repro.serve.api import ServeError
from repro.serve.cache import ResultCache
from repro.serve.scheduler import JobScheduler
from repro.serve.spec import use_one_heap
from repro.serve.store import ResultStore
from repro.util.errors import ValidationError

#: Largest request body accepted (job specs are small; this is a guardrail).
MAX_BODY_BYTES = 4 * 1024 * 1024

#: Longest request or header line and most header lines read before the
#: request is refused (``http.server``'s limits).
MAX_LINE_BYTES = 65536
MAX_HEADERS = 100

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
            raise ServeError(431, f"request or header line exceeds {MAX_LINE_BYTES} bytes")
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
                raise ServeError(400, f"malformed request line {self.requestline[:80]!r}")
            method, self.path, version = words
            self.headers = self._read_headers()
            if method not in ("GET", "POST"):
                raise ServeError(405, f"method {method[:20]!r} is not supported")
            if "transfer-encoding" in self.headers:
                raise ServeError(501, "Transfer-Encoding is not supported; send Content-Length")
            try:
                self.unread = int(self.headers.get("content-length") or 0)
            except ValueError:
                self.unread = -1
            if self.unread < 0:
                raise ServeError(400, "Content-Length must be an integer >= 0")
            connection = self.headers.get("connection", "").lower()
            self.close_connection = "close" in connection or (
                version == "HTTP/1.0" and "keep-alive" not in connection
            )
            path, _, query = self.path.partition("?")
            self.query = dict(pair.partition("=")[::2] for pair in query.split("&"))
            self._dispatch(method, [p for p in path.split("/") if p])
        except ServeError as exc:
            self._send_json({"error": exc.message}, status=exc.status)
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
                raise ServeError(400, f"malformed header line {line[:80]!r}")
            name, value = name.lower(), value.strip()
            if name == "content-length" and headers.get(name, value) != value:
                raise ServeError(400, "conflicting Content-Length headers")
            headers[name] = value
        raise ServeError(431, f"more than {MAX_HEADERS} header lines")

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
            raise ServeError(400, "request requires a JSON body")
        if self.unread > MAX_BODY_BYTES:
            raise ServeError(413, f"request body exceeds {MAX_BODY_BYTES} bytes")
        if self.headers.get("expect", "").lower() == "100-continue":
            self.wfile.write(b"HTTP/1.1 100 Continue\r\n\r\n")  # curl, above 1 KiB
        raw, self.unread = self.rfile.read(self.unread), 0
        try:
            return json.loads(raw.decode("utf-8"))
        except (ValueError, RecursionError) as exc:  # also: an integer past the digit limit
            raise ServeError(400, f"invalid JSON body: {exc}") from None

    # -- routing ------------------------------------------------------------
    def _dispatch(self, method: str, parts: list[str]) -> None:
        scheduler = self.scheduler
        if method == "GET" and parts == ["healthz"]:
            self._send_json({"ok": True, "version": __version__})
        elif method == "GET" and parts == ["stats"]:
            self._send_json(scheduler.stats())
        elif method == "GET" and parts == ["jobs"]:
            self._send_json({"jobs": [j.describe(with_spec=False) for j in scheduler.jobs()]})
        elif method == "POST" and parts == ["jobs"]:
            status, doc = api.submit_job(scheduler, self._read_json())
            self._send_json(doc, status=status)
        elif method == "POST" and parts == ["jobs", "batch"]:
            self._send_json(api.submit_jobs(scheduler, self._read_json()))
        elif len(parts) == 2 and parts[0] == "jobs" and method == "GET":
            self._send_json(api.job_status(scheduler, parts[1], self.query.get("wait")))
        elif len(parts) == 3 and parts[0] == "jobs" and (method, parts[2]) in _JOB_ACTIONS:
            self._send_json(_JOB_ACTIONS[method, parts[2]](scheduler, parts[1]))
        else:
            raise ServeError(404, f"no such endpoint: {method} {self.path}")


#: ``/jobs/<id>/<action>`` endpoints by (method, action).
_JOB_ACTIONS = {
    ("GET", "result"): api.job_result,
    ("GET", "trace"): api.job_trace,
    ("POST", "cancel"): api.cancel_job,
}


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
