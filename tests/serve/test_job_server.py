"""The HTTP job service end to end.

Two layers: protocol tests against a gated fake executor (deterministic
queue/cancel/error behaviour, no sims), and acceptance tests running real
simulations — concurrent jobs submitted over the API must produce
makespans repr-equal to the same specs run directly, resubmission must hit
the result cache, and jobs beyond the rank budget must queue, not crash.
"""

import os
import socket
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.data import clear_memo, memo_stats
from repro.serve import JobServer, JobSpec, ServeClient, ServeError, execute_job
from repro.serve.server import MAX_BODY_BYTES
from repro.serve.server import MAX_HEADERS, MAX_LINE_BYTES
from tests.conftest import HeldExecutor, parse_replies, wait_until


def _spec(seed: int = 0, **over) -> JobSpec:
    fields = dict(
        app="heat3d",
        nodes=2,
        preset="laptop",
        mix="cpu",
        params={"functional_shape": [12, 12, 12], "simulated_steps": 2, "seed": seed},
    )
    fields.update(over)
    return JobSpec(**fields)


# ------------------------------------------------------------- protocol
class GatedExecutor:
    def __init__(self) -> None:
        self.release = threading.Event()
        self.started: list[int] = []

    def __call__(self, spec: JobSpec) -> dict:
        self.started.append(spec.params.get("seed", 0))
        assert self.release.wait(10.0)
        return {"makespan": float(spec.params.get("seed", 0))}


@pytest.fixture
def gated_server():
    executor = GatedExecutor()
    with JobServer(port=0, rank_budget=4, max_queued=2, executor=executor) as server:
        yield ServeClient(server.url), executor
        executor.release.set()


def test_healthz_and_stats(gated_server):
    client, _ = gated_server
    assert client.healthy()
    stats = client.stats()
    assert stats["rank_budget"] == 4 and stats["jobs"] == 0
    assert "cache" in stats and "engine" in stats


def test_submit_status_queue_cancel_flow(gated_server):
    client, executor = gated_server
    first = client.submit(_spec(1, nodes=4))  # occupies the whole budget
    wait_until(lambda: executor.started)
    assert executor.started == [1]

    queued = client.submit(_spec(2))
    assert queued["state"] == "queued"
    with pytest.raises(ServeError) as excinfo:
        client.result(queued["id"])
    assert excinfo.value.status == 409

    cancelled = client.cancel(queued["id"])
    assert cancelled["state"] == "cancelled"
    with pytest.raises(ServeError) as excinfo:
        client.cancel(first["id"])  # running jobs don't cancel
    assert excinfo.value.status == 409

    executor.release.set()
    done = client.wait(first["id"], timeout=10.0)
    assert done["state"] == "done"
    assert client.result(first["id"])["result"]["makespan"] == 1.0
    states = {j["id"]: j["state"] for j in client.jobs()}
    assert states[queued["id"]] == "cancelled" and states[first["id"]] == "done"


def test_queue_full_returns_429(gated_server):
    client, executor = gated_server
    client.submit(_spec(1, nodes=4))
    client.submit(_spec(2))
    client.submit(_spec(3))
    with pytest.raises(ServeError) as excinfo:
        client.submit(_spec(4))
    assert excinfo.value.status == 429
    executor.release.set()


def test_bad_requests(gated_server):
    client, _ = gated_server
    with pytest.raises(ServeError) as excinfo:
        client.submit({"app": "nbody"})
    assert excinfo.value.status == 400
    with pytest.raises(ServeError) as excinfo:
        client.submit({"app": "heat3d", "nodes": 64})  # over the budget forever
    assert excinfo.value.status == 400
    with pytest.raises(ServeError) as excinfo:
        client.status("nope")
    assert excinfo.value.status == 404
    with pytest.raises(ServeError) as excinfo:
        client._request("GET", "/jobs/x/explode")
    assert excinfo.value.status == 404


def test_a_retired_id_is_gone_and_an_unknown_one_not_found():
    """The table keeps the last ``max_queued`` finished jobs; an older id is
    410 on every by-id path, and its result one resubmission away."""
    with JobServer(port=0, max_queued=2, executor=lambda spec: {"makespan": 1.5}) as server:
        client = ServeClient(server.url)
        ids = []
        for seed in range(3):
            ids.append(client.submit(_spec(seed))["id"])
            assert client.wait(ids[-1], timeout=10.0)["state"] == "done"
        assert [job["id"] for job in client.jobs()] == ids[1:]
        for method, path in (
            ("GET", ""), ("GET", "?wait=5"), ("GET", "/result"), ("GET", "/trace"), ("POST", "/cancel"),
        ):
            with pytest.raises(ServeError) as excinfo:
                client._request(method, f"/jobs/{ids[0]}{path}")
            assert excinfo.value.status == 410 and "resubmitting the spec" in excinfo.value.message
            with pytest.raises(ServeError) as excinfo:
                client._request(method, f"/jobs/{ids[0][:-1]}{path}")  # never issued
            assert excinfo.value.status == 404
        again = client.submit(_spec(0))
        assert again["cached"] and client.result(again["id"])["result"] == {"makespan": 1.5}
        stats = client.stats()
        assert stats["jobs"] == 2 == sum(stats["by_state"].values())


def _raw_exchange(server: JobServer, request: bytes) -> bytes:
    """Send raw bytes; return everything the server answers until it closes."""
    with socket.create_connection((server.host, server.port), timeout=5.0) as sock:
        sock.sendall(request)
        chunks = []
        while chunk := sock.recv(65536):  # a kept-alive socket would time out
            chunks.append(chunk)
    return b"".join(chunks)


def test_non_integer_content_length_is_a_client_error():
    with JobServer(port=0, executor=lambda spec: {}) as server:
        reply = _raw_exchange(
            server, b"POST /jobs HTTP/1.1\r\nHost: x\r\nContent-Length: lots\r\n\r\n"
        )
    assert reply.startswith(b"HTTP/1.1 400 ")
    assert b"Content-Length must be an integer" in reply


def test_refused_body_is_not_parsed_as_the_next_request():
    # The oversized "body" is a well-formed request: a server that answers
    # 413 and keeps the connection would answer it too.
    smuggled = b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n"
    head = (
        b"POST /jobs HTTP/1.1\r\nHost: x\r\n"
        + f"Content-Length: {MAX_BODY_BYTES + 1}\r\n\r\n".encode()
    )
    with JobServer(port=0, executor=lambda spec: {}) as server:
        reply = _raw_exchange(server, head + smuggled)
    assert reply.startswith(b"HTTP/1.1 413 ")
    assert b"Connection: close" in reply
    assert reply.count(b"HTTP/1.1 ") == 1


HEALTHZ = b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n"


def _closing_error(reply: bytes, status: int) -> dict:
    """The one JSON error reply, ``Connection: close``, that ``reply`` must be."""
    [(got, headers, body)] = parse_replies(reply)
    assert got == status and headers["connection"] == "close", (got, headers)
    assert set(body) == {"error"}
    return headers


def test_transfer_encoding_is_refused_and_its_body_never_answered():
    # No Content-Length, so a server that only looks there sees no body,
    # keeps the connection and answers the "body" as a second request.
    head = b"POST /jobs HTTP/1.1\r\nHost: x\r\nTransfer-Encoding: chunked\r\n\r\n"
    with JobServer(port=0, executor=lambda spec: {}) as server:
        reply = _raw_exchange(server, head + HEALTHZ)
    _closing_error(reply, 501)


def test_a_body_no_route_reads_is_not_the_next_request():
    # Only the two submit routes read a body; any other reply that leaves
    # one on the wire must close, whatever its status.
    with JobServer(port=0, executor=lambda spec: {}) as server:
        for line, status in ((b"GET /healthz", 200), (b"POST /jobs/x/cancel", 404)):
            head = line + b" HTTP/1.1\r\nContent-Length: %d\r\n\r\n" % len(HEALTHZ)
            [(got, headers, _)] = parse_replies(_raw_exchange(server, head + HEALTHZ))
            assert got == status and headers["connection"] == "close"


def test_conflicting_content_lengths_are_refused():
    body = b'{"app": "nbody"}'
    lengths = b"Content-Length: %d\r\nContent-Length: %d\r\n\r\n"
    head = b"POST /jobs HTTP/1.1\r\nConnection: close\r\n"
    with JobServer(port=0, executor=lambda spec: {}) as server:
        differ = _raw_exchange(server, head + lengths % (len(body), len(body) + 1) + body)
        agree = _raw_exchange(server, head + lengths % (len(body), len(body)) + body)
    assert "conflicting" in parse_replies(differ)[0][2]["error"]
    _closing_error(differ, 400)
    assert "bad job spec" in parse_replies(agree)[0][2]["error"]  # the body was read


def test_framing_errors_are_json_like_every_other_error():
    line = b"GET /" + b"a" * MAX_LINE_BYTES + b" HTTP/1.1\r\n\r\n"
    fields = b"".join(b"X-%d: 1\r\n" % i for i in range(MAX_HEADERS + 1))
    with JobServer(port=0, executor=lambda spec: {}) as server:
        allow = _closing_error(_raw_exchange(server, b"DELETE /jobs/x HTTP/1.1\r\n\r\n"), 405)
        assert allow["allow"] == "GET, POST"
        for malformed in (b"GARBAGE\r\n\r\n", b"GET /healthz\r\n\r\n", b"GET / HTTP/2.0\r\n\r\n"):
            _closing_error(_raw_exchange(server, malformed), 400)
        _closing_error(_raw_exchange(server, line), 431)
        _closing_error(_raw_exchange(server, b"GET /healthz HTTP/1.1\r\n" + fields + b"\r\n"), 431)
        assert ServeClient(server.url).healthy()


def test_keep_alive_http10_and_expect_continue():
    body = b'{"app": "nbody"}'
    with JobServer(port=0, executor=lambda spec: {}) as server:
        # Two requests on one connection, the second asking to close it.
        last = HEALTHZ.replace(b"Host: x", b"Connection: close")
        first, second = parse_replies(_raw_exchange(server, HEALTHZ + last))
        assert first[0] == second[0] == 200
        assert "connection" not in first[1] and second[1]["connection"] == "close"
        # HTTP/1.0 closes unless told otherwise: the second request is not read.
        [(status, headers, _)] = parse_replies(
            _raw_exchange(server, b"GET /healthz HTTP/1.0\r\n\r\n" + HEALTHZ)
        )
        assert status == 200 and headers["connection"] == "close"
        # The interim reply arrives while the body is still unsent.
        with socket.create_connection((server.host, server.port), timeout=5.0) as sock:
            sock.sendall(
                b"POST /jobs HTTP/1.1\r\nExpect: 100-continue\r\nConnection: close\r\n"
                + b"Content-Length: %d\r\n\r\n" % len(body)
            )
            assert sock.recv(65536) == b"HTTP/1.1 100 Continue\r\n\r\n"
            sock.sendall(body)
            final = b""
            while chunk := sock.recv(65536):
                final += chunk
        [(status, _, answer)] = parse_replies(final)
        assert status == 400 and "bad job spec" in answer["error"]


def test_shut_down_scheduler_is_a_server_side_refusal():
    with JobServer(port=0, executor=lambda spec: {}) as server:
        server.scheduler.shutdown()
        with pytest.raises(ServeError) as excinfo:
            ServeClient(server.url).submit(_spec(1))
    assert excinfo.value.status == 503
    assert "shut down" in str(excinfo.value)


def test_failed_job_surfaces_error():
    def boom(spec):
        raise RuntimeError("kaboom")

    with JobServer(port=0, executor=boom) as server:
        client = ServeClient(server.url)
        job = client.submit(_spec(1))
        done = client.wait(job["id"], timeout=10.0)
        assert done["state"] == "failed"
        body = client.result(job["id"])
        assert body["state"] == "failed" and "kaboom" in body["error"]


# ------------------------------------------------- blocking wait, counted
def _requests(server: JobServer) -> int:
    return server.scheduler.stats()["http"]["requests"]


def test_one_job_costs_three_requests_however_long_it_is_held():
    executor = GatedExecutor()
    with JobServer(port=0, executor=executor) as server, ThreadPoolExecutor() as pool:
        client = ServeClient(server.url)
        job = client.submit(_spec(1))
        waiter = pool.submit(client.wait, job["id"], timeout=60.0)
        # The status request has been read and the job is held: a reply
        # now could only say "running", and would cost a second request.
        wait_until(lambda: _requests(server) == 2 and executor.started)
        assert not waiter.done()
        executor.release.set()
        assert waiter.result(timeout=10.0)["state"] == "done"
        assert client.result(job["id"])["result"]["makespan"] == 1.0
        assert _requests(server) == 3


def test_wait_many_costs_one_request_per_job():
    executor = GatedExecutor()
    with JobServer(port=0, rank_budget=4, executor=executor) as server, ThreadPoolExecutor() as pool:
        client = ServeClient(server.url)
        jobs = client.submit_many([_spec(seed) for seed in range(5)])  # 2 run, 3 queue
        ids = [job["id"] for job in jobs]
        waiter = pool.submit(client.wait_many, ids + ids[:2], timeout=60.0)
        wait_until(lambda: _requests(server) == 2)
        executor.release.set()
        done = waiter.result(timeout=10.0)
        assert list(done) == ids and {d["state"] for d in done.values()} == {"done"}
        assert _requests(server) == 1 + len(ids)


def test_wait_parameter(monkeypatch):
    executor = GatedExecutor()
    with JobServer(port=0, executor=executor) as server, ThreadPoolExecutor() as pool:
        client = ServeClient(server.url)
        job = client.submit(_spec(1))
        wait_until(lambda: executor.started)
        path = f"/jobs/{job['id']}?wait="
        assert client._request("GET", path + "0.05")["state"] == "running"  # 200, not an error
        for bad in ("abc", "-1", "nan", "inf", ""):
            with pytest.raises(ServeError) as excinfo:
                client._request("GET", path + bad)
            assert excinfo.value.status == 400 and "wait" in excinfo.value.message
        with pytest.raises(TimeoutError, match=f"job {job['id']} still running after 0.2s"):
            client.wait(job["id"], timeout=0.2)
        # Too long a wait is clamped, not refused.
        monkeypatch.setattr("repro.serve.server.MAX_WAIT_SECONDS", 0.05)
        assert client._request("GET", path + "1e9")["state"] == "running"
        monkeypatch.undo()
        # A held request is answered by the job finishing, not by the clock.
        before = _requests(server)
        waiter = pool.submit(client._request, "GET", path + "30")
        wait_until(lambda: _requests(server) == before + 1)
        executor.release.set()
        assert waiter.result(timeout=10.0)["state"] == "done"


def test_client_gone_mid_wait_leaves_the_server_answering(capfd):
    executor = GatedExecutor()
    with JobServer(port=0, executor=executor) as server:
        client = ServeClient(server.url)
        threads = threading.active_count()
        job = client.submit(_spec(1))
        before = _requests(server)
        with socket.create_connection((server.host, server.port), timeout=5.0) as sock:
            sock.sendall(f"GET /jobs/{job['id']}?wait=30 HTTP/1.1\r\n\r\n".encode())
            wait_until(lambda: _requests(server) == before + 1)
        executor.release.set()  # the parked handler now answers a closed socket
        assert client.wait(job["id"], timeout=10.0)["state"] == "done"
        wait_until(lambda: threading.active_count() <= threads)  # it ended ...
        assert client.healthy()
    assert capfd.readouterr().err == ""  # ... without a traceback


def test_shutdown_does_not_wait_for_a_parked_waiter():
    executor = GatedExecutor()
    server = JobServer(port=0, executor=executor).start()
    with ThreadPoolExecutor() as pool:
        try:
            client = ServeClient(server.url)
            job = client.submit(_spec(1))
            waiter = pool.submit(client._request, "GET", f"/jobs/{job['id']}?wait=30")
            wait_until(lambda: _requests(server) == 2 and executor.started)
            pool.submit(server.shutdown).result(timeout=10.0)
            assert not waiter.done()  # still parked on the running job
        finally:
            executor.release.set()
        assert waiter.result(timeout=10.0)["state"] == "done"  # answered when it ends


# ------------------------------------------------------------- acceptance
class CountingExecutor:
    """Real executor, counting executions (to prove cache hits skip work)."""

    def __init__(self) -> None:
        self.calls = 0
        self._lock = threading.Lock()

    def __call__(self, spec: JobSpec) -> dict:
        with self._lock:
            self.calls += 1
        return execute_job(spec)


def _batch_specs() -> list[JobSpec]:
    return [
        _spec(0),
        _spec(1),
        JobSpec(
            app="kmeans",
            nodes=2,
            preset="laptop",
            mix="cpu",
            params={"functional_points": 3000, "k": 8, "seed": 1},
        ),
        JobSpec(
            app="moldyn",
            nodes=2,
            preset="laptop",
            mix="cpu",
            params={"functional_nodes": 800, "simulated_steps": 2},
        ),
    ]


def test_concurrent_jobs_bit_identical_to_direct_runs():
    """ISSUE 9 acceptance: N>=4 concurrent API jobs == direct runs, and
    resubmission is a cache hit without re-execution."""
    specs = _batch_specs()
    direct = [execute_job(spec) for spec in specs]

    executor = CountingExecutor()
    with JobServer(port=0, rank_budget=16, executor=executor) as server:
        client = ServeClient(server.url)
        jobs = [client.submit(spec) for spec in specs]  # all admitted at once
        for job, expected in zip(jobs, direct):
            done = client.wait(job["id"], timeout=300.0)
            assert done["state"] == "done" and not done["cached"]
            result = client.result(job["id"])["result"]
            assert repr(result["makespan"]) == repr(expected["makespan"])
            assert result["result_digest"] == expected["result_digest"]
        assert executor.calls == len(specs)

        # Identical resubmission: served from the content-addressed cache.
        again = client.submit(specs[0])
        assert again["cached"] and again["state"] == "done"
        result = client.result(again["id"])["result"]
        assert repr(result["makespan"]) == repr(direct[0]["makespan"])
        assert executor.calls == len(specs)  # nothing re-executed
        assert client.stats()["cache"]["hits"] == 1


def _memo_counts(datasets: dict) -> tuple:
    return tuple(datasets[name] for name in ("size", "misses", "hits", "evictions"))


def test_stats_say_what_the_dataset_memo_did():
    clear_memo()
    held = HeldExecutor()
    try:
        with JobServer(port=0, rank_budget=4, executor=held) as server:
            client = ServeClient(server.url)
            job = client.submit(JobSpec(app="heat3d", nodes=4, preset="laptop", mix="cpu"))
            assert held.ran.wait(300.0)
            running = client.stats()["datasets"]
            assert running == memo_stats()  # /stats reads the memo's own counters
            assert _memo_counts(running) == (1, 1, 3, 0)  # the job's input, while it is admitted
            held.release.set()
            assert client.wait(job["id"], timeout=300.0)["state"] == "done"
            drained = client.stats()["datasets"]
        assert drained == memo_stats()
        assert _memo_counts(drained) == (0, 1, 3, 1)  # released with the last admitted job
        assert drained["bytes"] == 0
    finally:
        held.release.set()
        clear_memo()


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="no /proc")
def test_stats_say_what_the_process_holds():
    clear_memo()
    held = HeldExecutor()
    try:
        with JobServer(port=0, rank_budget=4, executor=held) as server:
            client = ServeClient(server.url)
            spec = JobSpec(app="heat3d", nodes=4, preset="laptop", mix="cpu")
            job = client.submit(spec)
            assert held.ran.wait(300.0)
            stats = client.stats()
            process = stats["process"]
            assert process["peak_rss_mb"] >= process["rss_mb"] > 0
            assert process["threads"] >= 3  # main, dispatcher, HTTP (+ the rank pool)
            # The memo holds the running job's one input: a float64 functional grid.
            grid = spec.build_config().functional_shape
            assert stats["datasets"]["bytes"] == 8 * grid[0] * grid[1] * grid[2] > 0
            held.release.set()
            assert client.wait(job["id"], timeout=300.0)["state"] == "done"
            assert client.stats()["datasets"]["bytes"] == 0  # and nothing once it is idle
    finally:
        held.release.set()
        clear_memo()


def test_admission_queues_beyond_budget_then_completes():
    """Jobs beyond the rank budget queue (never crash) and still finish
    bit-identically."""
    specs = [_spec(seed) for seed in range(3)]
    direct = [execute_job(spec) for spec in specs]
    with JobServer(port=0, rank_budget=2) as server:  # one 2-rank job at a time
        client = ServeClient(server.url)
        jobs = [client.submit(spec) for spec in specs]
        stats = client.stats()
        assert stats["ranks_in_use"] <= 2
        for job, expected in zip(jobs, direct):
            done = client.wait(job["id"], timeout=300.0)
            assert done["state"] == "done"
            result = client.result(job["id"])["result"]
            assert repr(result["makespan"]) == repr(expected["makespan"])


def test_traced_job_exposes_chrome_trace_and_report():
    from repro.obs.export import validate_chrome_trace

    spec = _spec(0, trace=True)
    with JobServer(port=0) as server:
        client = ServeClient(server.url)
        job = client.submit(spec)
        client.wait(job["id"], timeout=300.0)
        trace = client.trace(job["id"])
        validate_chrome_trace(trace)
        result = client.result(job["id"])["result"]
        assert "trace" not in result  # the big document lives on /trace
        assert result["report"]["makespan"] > 0

        untraced = client.submit(_spec(0))
        client.wait(untraced["id"], timeout=300.0)
        with pytest.raises(ServeError) as excinfo:
            client.trace(untraced["id"])
        assert excinfo.value.status == 404


def test_faulty_checkpointed_job_matches_direct_run():
    from repro.faults.plan import FaultPlan, RankCrash

    plan = FaultPlan.lossy(
        seed=7,
        drop=0.02,
        dup=0.01,
        delay=0.02,
        max_delay=1e-4,
        crashes=[RankCrash(rank=1, at_time=0.05, restart_cost=0.5)],
    )
    spec = _spec(
        0,
        params={"functional_shape": [12, 12, 12], "simulated_steps": 4, "seed": 0},
        options={"reliable": True, "checkpoint_every": 2},
        fault_plan=plan.to_dict(),
    )
    expected = execute_job(spec)
    assert expected["fault_stats"]["crashes_consumed"] == 1
    with JobServer(port=0) as server:
        client = ServeClient(server.url)
        job = client.submit(spec)
        client.wait(job["id"], timeout=300.0)
        result = client.result(job["id"])["result"]
        assert repr(result["makespan"]) == repr(expected["makespan"])
        assert result["fault_stats"] == expected["fault_stats"]
        assert result["metrics"]["recoveries"] == 1


# ------------------------------------------------------------- batched submit
def test_batch_submit_mixed_outcomes(gated_server):
    """One POST /jobs/batch: good specs admit, bad specs error per-entry."""
    client, executor = gated_server
    executor.release.set()
    entries = client.submit_many(
        [
            _spec(1).to_dict(),
            {"app": "no-such-app", "nodes": 2},          # invalid spec
            _spec(2, nodes=40).to_dict(),                # over the rank budget
            _spec(3).to_dict(),
        ]
    )
    assert len(entries) == 4
    assert [e["index"] for e in entries] == [0, 1, 2, 3]
    assert entries[0]["error"] is None and entries[3]["error"] is None
    assert "id" not in entries[1] and "bad job spec" in entries[1]["error"]
    assert "never be scheduled" in entries[2]["error"]
    done = client.wait_many([entries[0]["id"], entries[3]["id"]], timeout=10.0)
    assert all(s["state"] == "done" for s in done.values())
    assert client.stats()["batches"] == 1


def test_batch_submit_body_shapes(gated_server):
    client, executor = gated_server
    executor.release.set()
    # a bare JSON list works too
    entries = client._request("POST", "/jobs/batch", [_spec(7).to_dict()])["jobs"]
    assert entries[0]["state"] in ("queued", "running", "done")
    with pytest.raises(ServeError) as err:
        client._request("POST", "/jobs/batch", {"jobs": "nope"})
    assert err.value.status == 400


def test_batch_cache_hits_complete_at_submission(gated_server):
    client, executor = gated_server
    executor.release.set()
    first = client.submit(_spec(5))
    client.wait(first["id"], timeout=10.0)
    entries = client.submit_many([_spec(5).to_dict()])
    assert entries[0]["state"] == "done" and entries[0]["cached"] is True


# ------------------------------------------------------- persistent store
def test_server_store_survives_restart(tmp_path):
    """A fresh server over the same store answers without executing."""
    calls = []

    def executor(spec):
        calls.append(spec.params.get("seed"))
        return {"makespan": 1.0}

    spec = _spec(0)
    with JobServer(port=0, executor=executor, store_dir=tmp_path) as server:
        client = ServeClient(server.url)
        job = client.submit(spec)
        client.wait(job["id"], timeout=10.0)
    assert calls == [0]
    with JobServer(port=0, executor=executor, store_dir=tmp_path) as server:
        client = ServeClient(server.url)
        job = client.submit(spec)  # cold LRU, warm disk
        assert job["state"] == "done" and job["cached"] is True
        assert calls == [0]  # no second execution
        stats = client.stats()["cache"]
        assert stats["store_hits"] == 1
        assert stats["store"]["root"] == str(tmp_path)
