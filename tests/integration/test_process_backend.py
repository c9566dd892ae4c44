"""Job workers: ``backend="processes"`` is the same loop in another process.

A job's ranks never run in parallel, so there is one engine; the process
boundary sits at :func:`repro.serve.spec.execute_job`, which hands a
``"processes"`` spec (as its dict) to a warm pool of job worker processes.
These tests pin the equivalence that makes trivially true — payloads equal
key for key — and drill the pool's failure and shutdown behaviour: a killed
worker fails its job loudly and the pool rebuilds, and after
``shutdown_pool()`` (or interpreter exit) nothing of ours is left running.
"""

import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from repro.campaign import CampaignSpec
from repro.faults.plan import FaultPlan, RankCrash
from repro.serve import JobScheduler, JobSpec, execute_job
from repro.serve.jobpool import job_pool_stats, shutdown_pool
from repro.util.errors import ConfigurationError, ValidationError
from tests.conftest import wait_until

SRC = Path(__file__).resolve().parents[2] / "src"

# Pinned in-process makespan (see tests/integration/test_many_ranks.py); a
# job worker must reproduce it bit-for-bit.
SEED_FAULTY_RELIABLE_MAKESPAN = "0.27536852547664836"

SMALL = dict(nodes=2, preset="laptop", mix="cpu")
HEAT = {"functional_shape": [16, 16, 16], "simulated_steps": 4}

#: The faulty + reliable + checkpointed heat3d of ``examples/serve_smoke.py``.
CRASHING = JobSpec(
    app="heat3d",
    **SMALL,
    params={"functional_shape": [12, 12, 12], "simulated_steps": 4},
    options={"reliable": True, "checkpoint_every": 2},
    fault_plan=FaultPlan.lossy(
        seed=7,
        drop=0.02,
        dup=0.01,
        delay=0.02,
        max_delay=1e-4,
        crashes=[RankCrash(rank=1, at_time=0.05, restart_cost=0.5)],
    ).to_dict(),
)

TABLE = {
    "heat3d time_block": JobSpec(app="heat3d", **SMALL, params=HEAT, options={"time_block": 2}),
    "kmeans": JobSpec(app="kmeans", **SMALL, params={"functional_points": 3000, "k": 8}),
    "moldyn": JobSpec(
        app="moldyn", **SMALL, params={"functional_nodes": 800, "simulated_steps": 2}
    ),
    "faulty reliable checkpointed heat3d": CRASHING,
    "traced heat3d": JobSpec(app="heat3d", **SMALL, params=HEAT, trace=True),
}


def _on(spec: JobSpec, backend: str | None) -> JobSpec:
    return JobSpec.from_dict({**spec.to_dict(), "backend": backend})


def _children() -> dict[int, list[int]]:
    """Parent pid -> live (non-zombie) child pids, from ``/proc``."""
    children: dict[int, list[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = Path(f"/proc/{entry}/stat").read_text()
        except OSError:
            continue  # exited while we were listing
        state, ppid = stat.rsplit(")", 1)[1].split()[:2]
        if state != "Z":
            children.setdefault(int(ppid), []).append(int(entry))
    return children


def _descendants(pid: int) -> list[int]:
    children, found, frontier = _children(), [], [pid]
    while frontier:
        kids = children.get(frontier.pop(), [])
        found += kids
        frontier += kids
    return found


def _worker_pids() -> list[int]:
    """Job workers are the forkserver's children: our grandchildren."""
    children = _children()
    return sorted(w for helper in children.get(os.getpid(), []) for w in children.get(helper, []))


def _cpu_ticks(pid: int) -> int:
    """User + system CPU time ``pid`` has used, in clock ticks (``/proc/<pid>/stat``)."""
    fields = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
    return int(fields[11]) + int(fields[12])  # utime, stime: fields 14 and 15


@pytest.fixture
def clean_pool():
    """Start from no pool; leave none behind (and check nothing leaked)."""
    shutdown_pool()
    before = set(_descendants(os.getpid()))
    shm_before = set(os.listdir("/dev/shm"))
    yield
    shutdown_pool()
    assert set(_descendants(os.getpid())) <= before
    assert set(os.listdir("/dev/shm")) <= shm_before


# -- equivalence ----------------------------------------------------------------

def test_results_match_thread_backend_exactly():
    for name, spec in TABLE.items():
        here = execute_job(_on(spec, "threads"))
        there = execute_job(_on(spec, "processes"))
        assert here.keys() == there.keys(), name
        assert repr(there["makespan"]) == repr(here["makespan"]), name
        for key in ("result_digest", "fault_stats", "spec_hash", "speedup"):
            assert there[key] == here[key], (name, key)
        for key in here["metrics"].keys() | there["metrics"].keys():
            if not key.startswith("wall_"):  # host seconds the MD apps report
                assert there["metrics"][key] == here["metrics"][key], (name, key)
        if spec.trace:
            assert there["trace"]["traceEvents"] == here["trace"]["traceEvents"]
            assert there["report"]["critical_path"] == here["report"]["critical_path"]
            assert there["report"]["counters"] == here["report"]["counters"]


def test_faulty_reliable_run_is_bit_identical_on_process_backend():
    spec = JobSpec(
        app="heat3d",
        nodes=4,
        scale="full",
        params={"functional_shape": [24, 24, 24], "simulated_steps": 4},
        options={"reliable": True},
        fault_plan=FaultPlan.lossy(
            seed=7, drop=0.08, dup=0.05, delay=0.1, max_delay=5e-4
        ).to_dict(),
        backend="processes",
    )
    payload = execute_job(spec)
    assert repr(payload["makespan"]) == SEED_FAULTY_RELIABLE_MAKESPAN
    # What the plan injected inside the worker comes back in the payload.
    assert payload["fault_stats"]["decisions"] > 0
    assert payload["fault_stats"]["drops"] > 0


def test_crash_recovery_in_a_job_worker_reports_stats():
    here = execute_job(CRASHING)
    there = execute_job(_on(CRASHING, "processes"))
    assert there["fault_stats"] == here["fault_stats"]
    assert there["fault_stats"]["crashes_consumed"] == 1
    assert there["result_digest"] == here["result_digest"]
    assert there["metrics"]["recoveries"] == 1


def test_unknown_backend_rejected():
    with pytest.raises(ValidationError, match="unknown execution backend"):
        JobSpec(app="heat3d", backend="gpu")
    with pytest.raises(ValidationError, match="unknown execution backend"):
        CampaignSpec(name="c", axes={"app": ["heat3d"]}, backend="gpu")
    assert CampaignSpec.from_dict(
        {"name": "c", "axes": {"app": ["heat3d"]}, "backend": None}
    ).expand()[0].backend is None


def test_remote_rank_exception_propagates():
    """A rank that raises inside a worker fails the job with the same
    exception type and message as in-process."""
    spec = JobSpec(app="heat3d", nodes=8, preset="laptop", mix="cpu",
                   params={"functional_shape": [2, 2, 2]})
    with pytest.raises(ConfigurationError) as here:
        execute_job(spec)
    with pytest.raises(ConfigurationError) as there:
        execute_job(_on(spec, "processes"))
    assert str(there.value) == str(here.value)
    # The pool survives a failing job.
    assert execute_job(_on(TABLE["kmeans"], "processes"))["makespan"] > 0


# -- observability ------------------------------------------------------------

def test_pool_gauges_exposed_on_trace():
    spec = TABLE["traced heat3d"]
    here = execute_job(spec)["report"]["gauges_by_rank"][0]
    there = execute_job(_on(spec, "processes"))["report"]["gauges_by_rank"][0]
    assert there["rank_pool.spawned"] >= spec.nodes  # the worker's own pool
    for gauge in ("engine.switches", "engine.parks"):
        assert there[gauge] == here[gauge] > 0


def test_scheduler_stats_report_the_job_pool(clean_pool):
    scheduler = JobScheduler(rank_budget=8)
    try:
        job = scheduler.wait(scheduler.submit(_on(TABLE["kmeans"], "processes")).id)
        assert job.state == "done"
        pool = scheduler.stats()["job_pool"]
        assert set(pool) == {"workers", "jobs", "rebuilt"}
        assert pool["workers"] == len(os.sched_getaffinity(0))
        assert pool["jobs"] >= 1
        assert scheduler.stats()["rank_pool"]["spawned"] >= 0  # where /stats has it
    finally:
        scheduler.shutdown()


# -- failure drills -----------------------------------------------------------

LONG = JobSpec(
    app="heat3d",
    **SMALL,
    params={"functional_shape": [40, 40, 40], "simulated_steps": 50_000, "iterations": 50_000},
    backend="processes",
)


def test_killed_worker_fails_its_job_and_pool_recovers(clean_pool):
    scheduler = JobScheduler(rank_budget=2)
    try:
        warm = scheduler.wait(scheduler.submit(_on(TABLE["kmeans"], "processes")).id)
        assert warm.state == "done"
        rebuilt = job_pool_stats()["rebuilt"]
        doomed = scheduler.submit(LONG)
        queued = scheduler.submit(_on(TABLE["moldyn"], "processes"))  # waits for budget
        wait_until(lambda: doomed.state == "running")
        idle = {pid: _cpu_ticks(pid) for pid in _worker_pids()}
        # A worker has picked the job up once one uses CPU (a new one counts from 0).
        wait_until(lambda: any(_cpu_ticks(p) > idle.get(p, 0) for p in _worker_pids()), 30.0)
        os.kill(_worker_pids()[0], signal.SIGKILL)
        scheduler.wait(doomed.id, timeout=30)
        assert doomed.state == "failed"
        assert "job worker process died" in doomed.error
        # The next submission runs on a rebuilt pool.
        after = scheduler.wait(queued.id, timeout=60)
        assert after.state == "done", after.error
        assert repr(after.result["makespan"]) == repr(
            execute_job(TABLE["moldyn"])["makespan"]
        )
        assert job_pool_stats()["rebuilt"] == rebuilt + 1
    finally:
        scheduler.shutdown()


def test_scheduler_shutdown_with_queued_worker_jobs_leaves_nothing_behind(clean_pool):
    scheduler = JobScheduler(rank_budget=2)
    running = scheduler.submit(_on(TABLE["heat3d time_block"], "processes"))
    queued = [
        scheduler.submit(JobSpec.from_dict({**LONG.to_dict(), "params": {**LONG.params, "seed": s}}))
        for s in (1, 2, 3)
    ]
    wait_until(lambda: running.state != "queued")
    scheduler.shutdown(wait_running=30)
    assert running.state == "done"
    assert [job.state for job in queued] == ["cancelled"] * 3
    shutdown_pool()
    assert _worker_pids() == []
    assert job_pool_stats()["workers"] == 0
    # The clean_pool fixture then checks no helper process or /dev/shm
    # segment is left either.


def test_interpreter_exit_leaves_no_process_behind():
    """``shutdown_pool`` is registered atexit: a program that used job
    workers and simply returns leaves no worker, forkserver or resource
    tracker in its process group, and no ``/dev/shm`` entry."""
    driver = (
        "from repro.serve import JobSpec, execute_job\n"
        "if __name__ == '__main__':\n"
        "    doc = dict(app='kmeans', nodes=2, preset='laptop', mix='cpu',\n"
        "               params={'functional_points': 3000, 'k': 8})\n"
        "    print(execute_job(JobSpec(**doc, backend='processes'))['makespan'])\n"
    )
    shm_before = set(os.listdir("/dev/shm"))
    proc = subprocess.Popen(
        [sys.executable, "-c", driver],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,  # its own process group, as benchmarks/e2e does
    )
    out, err = proc.communicate(timeout=120)
    try:
        assert proc.returncode == 0, err
        assert float(out) == execute_job(TABLE["kmeans"])["makespan"]
        with pytest.raises(ProcessLookupError):
            os.killpg(proc.pid, 0)  # nobody left in the group
        assert set(os.listdir("/dev/shm")) <= shm_before
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass


def test_a_server_stopped_by_sigterm_leaves_no_process_behind():
    """``repro serve`` takes SIGTERM as it takes Ctrl-C: the server shuts
    down and exits, and its job workers, forkserver and resource tracker
    go with it, so its process group is empty within seconds."""
    env = {**os.environ, "PYTHONPATH": str(SRC), "PYTHONUNBUFFERED": "1"}
    server = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0", "--store", "none"],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        text=True,
        start_new_session=True,  # its own process group, as an operator's shell gives it
    )
    try:
        url = server.stdout.readline().split()[-1]
        assert url.startswith("http://"), url
        submit = subprocess.run(
            [sys.executable, "-m", "repro", "submit", "kmeans", "--nodes", "2",
             "--backend", "processes", "--url", url],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert submit.returncode == 0, submit.stderr
        server.send_signal(signal.SIGTERM)
        server.wait(timeout=30)

        def group_is_empty():
            try:
                os.killpg(server.pid, 0)
            except ProcessLookupError:
                return True
            return False

        wait_until(group_is_empty, timeout=5.0)
    finally:
        try:
            os.killpg(server.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        server.stdout.close()
