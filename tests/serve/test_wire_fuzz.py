"""Generated framing test: whatever arrives on the socket, the reply is ours.

The job server reads HTTP/1.1 itself, so its reader is tested the way a
parser is: random bytes, and well-formed requests mutated where framing
lives — the request line, header names / values / counts, ``Content-Length``
against the body actually sent, line endings.  Each example goes over a raw
socket followed by a well-formed ``GET /healthz`` and a half-close, and the
whole reply stream is read back under a 2 s socket timeout.  Required:

- every reply is ``HTTP/1.1 <status> <reason>`` + headers + a
  ``Content-Length``-framed JSON body (``tests.conftest.parse_replies``);
- its status is 2xx, 4xx or 501 — never 500 — and an error body is
  ``{"error": ...}``;
- a reply that says ``Connection: close`` is the last one, and a connection
  that was never closed answered the trailing ``/healthz``;
- a body the client framed is never answered as a request: however the
  framing is spelled, a request and the ``/healthz`` behind it get at most
  two replies;
- nothing hangs (a timeout fails the example) and, afterwards, no handler
  thread is left behind and the server still answers.
"""

import json
import socket
import threading

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import __version__
from repro.serve import JobServer, ServeClient
from repro.serve.server import MAX_BODY_BYTES, MAX_HEADERS, MAX_LINE_BYTES
from tests.conftest import parse_replies, wait_until

HEALTHZ = b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n"
SPEC = json.dumps({"app": "heat3d", "nodes": 2, "preset": "laptop", "mix": "cpu"}).encode()


@pytest.fixture(scope="module")
def served():
    """One server for every example, and the id of a finished job on it."""
    threads = threading.active_count()
    with JobServer(port=0, executor=lambda spec: {"makespan": 0.0}) as server:
        client = ServeClient(server.url)
        job = client.submit(json.loads(SPEC))
        client.wait(job["id"], timeout=10.0)
        yield server, job["id"].encode()
        # A handler still parked on a half-read request would be a thread.
        wait_until(lambda: threading.active_count() <= threads + 2)  # http + dispatcher
        assert client.healthy()


def exchange(server: JobServer, request: bytes) -> bytes:
    with socket.create_connection((server.host, server.port), timeout=2.0) as sock:
        try:
            sock.sendall(request + HEALTHZ)
            sock.shutdown(socket.SHUT_WR)
        except OSError:
            pass  # refused and closed while the rest was still being sent
        chunks = []
        try:
            while chunk := sock.recv(65536):
                chunks.append(chunk)
        except ConnectionResetError:
            pass  # closed with bytes of ours unread; the reply came first
    return b"".join(chunks)


def check(raw: bytes) -> list:
    replies = parse_replies(raw)
    assert replies, "no reply at all"
    for status, _, body in replies:
        assert status == 100 or 200 <= status < 300 or 400 <= status < 500 or status == 501, (
            status,
            body,
        )
        if status >= 400:
            assert set(body) == {"error"}, body
    *earlier, (_, headers, body) = replies
    assert all("connection" not in h for _, h, _ in earlier), replies
    assert headers.get("connection") == "close" or body == {"ok": True, "version": __version__}
    return replies


noise = st.binary(max_size=12)
methods = st.sampled_from([b"GET", b"POST", b"DELETE", b"PUT", b"get", b"G ET", b""]) | noise
versions = st.sampled_from([b"HTTP/1.1", b"HTTP/1.0", b"HTTP/2.0", b"HTTP/1.1x", b"http/1.1", b""]) | noise
endings = st.sampled_from([b"\r\n", b"\n", b"\r", b"", b"\r\n\r\n"])
bodies = st.sampled_from(
    [SPEC, b"", b"{}", b"[]", b"{", b'{"jobs": [%s, {"app": 7}]}' % SPEC, b"\xff\xfe", b"null"]
) | st.binary(max_size=40)


def targets(job_id: bytes):
    waits = st.sampled_from([b"0", b"0.01", b"1e9", b"-1", b"nan", b"inf", b"abc", b""]) | noise
    fixed = [b"/healthz", b"/stats", b"/jobs", b"/jobs/batch", b"/", b"", b"//jobs//", b"/jobs/nope",
             b"/jobs/%s" % job_id, b"/jobs/%s/result" % job_id, b"/jobs/%s/trace" % job_id,
             b"/jobs/%s/cancel" % job_id, b"/jobs/%s/explode" % job_id,
             b"/" + b"a" * MAX_LINE_BYTES]  # fmt: skip
    return (
        st.sampled_from(fixed)
        | waits.map(lambda w: b"/jobs/%s?wait=%s" % (job_id, w))
        | waits.map(lambda w: b"/jobs/%s?x=1&wait=%s&wait" % (job_id, w))
        | noise
    )


@st.composite
def requests(draw, job_id: bytes) -> bytes:
    body = draw(bodies)
    names = st.sampled_from(
        [b"Content-Length", b"content-length", b"Transfer-Encoding", b"Connection", b"Expect",
         b"Host", b"X-Pad", b" Folded", b"Bad Name", b"Content-Length ", b""]
    ) | noise  # fmt: skip
    values = st.sampled_from(
        [b"%d" % len(body), b"%d" % (len(body) + 3), b"%d" % max(len(body) - 1, 0), b"0", b"-1",
         b"+5", b"abc", b"9" * 30, b"close", b"keep-alive", b"chunked", b"100-continue",
         b"x" * MAX_LINE_BYTES]
    ) | noise  # fmt: skip
    header = st.tuples(names, st.sampled_from([b": ", b":", b" : ", b""]), values, endings)
    counts = st.lists(header, max_size=6) | st.lists(
        header, min_size=MAX_HEADERS - 1, max_size=MAX_HEADERS + 2
    )
    gap = st.sampled_from([b" ", b" ", b" ", b"  ", b"\t", b""])
    line = draw(methods) + draw(gap) + draw(targets(job_id)) + draw(gap) + draw(versions)
    head = b"".join(b"".join(parts) for parts in draw(counts))
    return line + draw(endings) + head + draw(endings) + body


@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(data=st.data())
def test_every_reply_is_well_formed_json_and_nothing_hangs(served, data):
    server, job_id = served
    # Two parts mutated requests to one part noise: noise rarely gets past the request line.
    request = data.draw(st.binary(max_size=200) | requests(job_id) | requests(job_id))
    check(exchange(server, request))


@st.composite
def framed_requests(draw, job_id: bytes) -> bytes:
    """A well-formed request whose client knows where its body ends — and
    whose body is itself a well-formed request, should the server not."""
    body = draw(st.sampled_from([HEALTHZ, HEALTHZ * 2, SPEC + HEALTHZ]))
    n = len(body)
    framing = draw(st.sampled_from(
        [b"Content-Length: %d\r\n" % n,
         b"content-length:%d\r\nContent-Length: %d\r\n" % (n, n),
         b"Content-Length: %d\r\nContent-Length: 0\r\n" % n,
         b"Content-Length: 0\r\nContent-Length: %d\r\n" % n,
         b"Content-Length: %d\r\nExpect: 100-continue\r\n" % n,
         b"Transfer-Encoding: chunked\r\n",
         b"transfer-encoding:identity\r\n",
         b"Content-Length: %d\r\nTransfer-Encoding: chunked\r\n" % n,
         b"Transfer-Encoding: chunked\r\nContent-Length: 0\r\n",
         b"Content-Length: %d\r\n" % (MAX_BODY_BYTES + n),
         b"Content-Length: lots\r\n", b"Content-Length: -%d\r\n" % n,
         b"Content-Length : %d\r\n" % n, b" Content-Length: %d\r\n" % n]
    ))  # fmt: skip
    line = draw(st.sampled_from(
        [b"POST /jobs", b"POST /jobs/batch", b"POST /jobs/%s/cancel" % job_id, b"POST /nowhere",
         b"GET /healthz", b"GET /jobs/%s?wait=0" % job_id, b"GET /jobs/nope", b"DELETE /jobs/x"]
    ))  # fmt: skip
    version = draw(st.sampled_from([b" HTTP/1.1\r\n", b" HTTP/1.0\r\nConnection: keep-alive\r\n"]))
    return line + version + b"Host: x\r\n" + framing + b"\r\n" + body


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_a_framed_body_is_never_answered_as_a_request(served, data):
    server, job_id = served
    replies = check(exchange(server, data.draw(framed_requests(job_id))))
    assert len([status for status, _, _ in replies if status != 100]) <= 2, replies
