"""What a repro-owned process holds: one malloc arena, the inputs of admitted
work and nothing else, and generators that allocate a bounded multiple of
what they return.

Counted, not timed.  A fresh interpreter serves jobs from two concurrent
clients (and, second probe, runs them in a job worker process) and then
asks glibc's ``malloc_info`` how many arenas exist: exactly one, because
:func:`repro.serve.spec.use_one_heap` ran before the process's first
secondary thread.  Runs in subprocesses because the pytest process has long
since grown its arenas.  The helper's refusals (operator's own
``MALLOC_ARENA_MAX``, no libc, no ``mallopt``, ``mallopt`` failing) are
checked in-process against a fake libc.  The input lifetime rule (the
scheduler releases the dataset memo when the last job of an admission ends)
is probed the same way: ten unique-seed sobel jobs through one server, and
twelve from two clients that keep it from ever draining, must not raise its
peak RSS the way eight retained images used to.  So is the job rule (one running
in-process job, a job table that keeps the last ``max_queued`` finished
records): a 24-job batch never shows more than one job's threads, and ten
tables' worth of no-op jobs leave RSS and ``stats()`` where they were.
Generator transients are counted with ``tracemalloc``, to which NumPy reports
its buffers, and so are stencil transients: the runtime applies each sweep
in axis-0 slabs, so one sobel round allocates a few slabs' bytes whatever the
image size (the whole-region apply allocated 13.5 MiB at 768², 54 MiB at
1536²).  A job holds each kernel array once: float64-sum scatter plans keep at
most one bin index per key (bit-identical to the unplanned scatter), and a
gathered grid costs the root the grid plus one other rank's block.  A
simulated rank holds only what it uses: a halo pack buffer or a step-5 node
gather lives as long as its messages, timelines keep no interval history,
and a CPU device builds per-core timelines only for per-core scheduling, so
a wide heat3d job's traced peak per rank is bounded.
"""

import ctypes
import json
import os
import subprocess
import sys
import tracemalloc
import types
import weakref
from pathlib import Path
from statistics import median
from typing import Any

import numpy as np
import pytest

from repro.apps import moldyn
from repro.apps.sobel import make_kernel, sobel_apply
from repro.comm.communicator import SimComm
from repro.core.env import RuntimeEnv
from repro.core.irregular import _TAG_DATA
from repro.core.reduction_object import DenseReductionObject
from repro.core.stencil import SLAB_ELEMS
from repro.data import clear_memo
from repro.data.grids import heat3d_initial, synthetic_image
from repro.data.meshes import geometric_mesh
from repro.data.points import clustered_points
from repro.serve import spec as serve_spec
from tests.conftest import run_spmd

SRC = Path(__file__).resolve().parents[2] / "src"


def _libc_counts_arenas() -> bool:
    try:
        libc = ctypes.CDLL(None)
    except (OSError, TypeError):
        return False
    return hasattr(libc, "mallopt") and hasattr(libc, "malloc_info")


needs_glibc = pytest.mark.skipif(
    not _libc_counts_arenas(), reason="libc has no mallopt + malloc_info (not glibc)"
)

#: Written to the probes' ``PYTHONPATH`` so that a job worker can import it.
HEAP_PROBE = '''
import ctypes
import tempfile


def arena_count():
    """How many arenas glibc's ``malloc_info`` lists for this process."""
    libc = ctypes.CDLL(None)
    libc.fopen.argtypes = (ctypes.c_char_p, ctypes.c_char_p)
    libc.fopen.restype = ctypes.c_void_p
    libc.malloc_info.argtypes = (ctypes.c_int, ctypes.c_void_p)
    libc.fclose.argtypes = (ctypes.c_void_p,)
    with tempfile.NamedTemporaryFile() as report:
        stream = libc.fopen(report.name.encode(), b"w")
        assert stream and libc.malloc_info(0, stream) == 0
        libc.fclose(stream)
        return report.read().count(b"<heap nr=")
'''

#: heat3d@4, sobel@4 and kmeans@2 from each of two concurrent clients: ten
#: rank threads, two job threads and the HTTP handlers all allocate.
SERVER_PROBE = """
import json, threading
from heap_probe import arena_count
from repro.serve import JobServer, JobSpec, ServeClient
from repro.serve.spec import use_one_heap

states = []

def client(url, seed):
    api = ServeClient(url)
    for app, nodes in (("heat3d", 4), ("sobel", 4), ("kmeans", 2)):
        spec = JobSpec(app=app, nodes=nodes, preset="laptop", mix="cpu", params={"seed": seed})
        states.append(api.wait(api.submit(spec)["id"], timeout=300.0)["state"])

with JobServer(port=0, rank_budget=16) as server:
    clients = [threading.Thread(target=client, args=(server.url, seed)) for seed in (1, 2)]
    for thread in clients:
        thread.start()
    for thread in clients:
        thread.join(600.0)
    stats = ServeClient(server.url).stats()
    print(json.dumps({
        "arenas": arena_count(),
        "asked_again": use_one_heap(),
        "states": states,
        "executed": stats["executed"],
        "rank_threads": stats["rank_pool"]["spawned"],
    }))
"""

#: The same jobs in a job worker process, which then counts its own arenas.
#: One CPU means one worker, so the count comes from the worker that ran them.
WORKER_PROBE = """
import json, os
from heap_probe import arena_count
from repro.serve import JobSpec, execute_job
from repro.serve import jobpool

if __name__ == "__main__":
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    makespans = [
        execute_job(
            JobSpec(app=app, nodes=nodes, preset="laptop", mix="cpu", backend="processes")
        )["makespan"]
        for app, nodes in (("heat3d", 4), ("sobel", 4), ("kmeans", 2))
    ]
    executor = jobpool._pool._live_executor()
    print(json.dumps({
        "arenas": executor.submit(arena_count).result(60.0),
        "worker_pid": executor.submit(os.getpid).result(60.0),
        "pid": os.getpid(),
        "workers": jobpool.job_pool_stats()["workers"],
        "makespans": makespans,
    }))
"""


#: Ten sobel jobs at the e2e benchmark's kernel_heavy size (a 1.7 MiB image
#: each), one after the other, every one on its own seed.
GROWTH_PROBE = """
import json
from repro.serve import JobServer, JobSpec, ServeClient

peaks = []
with JobServer(port=0, rank_budget=4) as server:
    api = ServeClient(server.url)
    for seed in range(10):
        params = {"functional_shape": [672, 672], "simulated_steps": 3, "seed": seed}
        spec = JobSpec(app="sobel", nodes=2, preset="laptop", mix="cpu", params=params)
        assert api.wait(api.submit(spec)["id"], timeout=300.0)["state"] == "done"
        stats = api.stats()
        peaks.append(stats["process"]["peak_rss_mb"])
print(json.dumps({"peaks": peaks, "datasets": stats["datasets"]}))
"""


#: The same sobel jobs from two closed-loop clients, six each: one job always
#: runs while the other client's waits, so the scheduler never drains.  The
#: executor reads what the memo holds as each job starts.
CLIENTS_PROBE = """
import json, threading
from repro.data import memo_stats
from repro.serve import JobServer, JobSpec, ServeClient, execute_job

held, peaks = [], []

def executor(spec):
    held.append(memo_stats()["bytes"])
    return execute_job(spec)

def client(url, first_seed):
    api = ServeClient(url)
    for seed in range(first_seed, first_seed + 12, 2):
        params = {"functional_shape": [672, 672], "simulated_steps": 3, "seed": seed}
        spec = JobSpec(app="sobel", nodes=2, preset="laptop", mix="cpu", params=params)
        assert api.wait(api.submit(spec)["id"], timeout=300.0)["state"] == "done"
        peaks.append(api.stats()["process"]["peak_rss_mb"])

with JobServer(port=0, rank_budget=4, executor=executor) as server:
    clients = [threading.Thread(target=client, args=(server.url, seed)) for seed in (0, 1)]
    for thread in clients:
        thread.start()
    for thread in clients:
        thread.join(600.0)
    datasets = server.scheduler.stats()["datasets"]
print(json.dumps({"held": held, "peaks": peaks, "datasets": datasets}))
"""


#: A campaign-sized batch of 2-rank jobs, watched through ``/stats`` while it
#: drains; then ten job tables' worth of no-op jobs through a second server.
BATON_PROBE = """
import json, time
from repro.serve import JobServer, JobSpec, ServeClient
from repro.serve.scheduler import _process_stats

MAX_QUEUED = 128

def spec(seed):
    return JobSpec(app="heat3d", nodes=2, preset="laptop", mix="cpu", params={"seed": seed})

def drained(stats):
    return stats["queued"] == 0 and stats["ranks_in_use"] == 0

threads, running = [], []
with JobServer(port=0, rank_budget=64) as server:
    api = ServeClient(server.url)
    entries = api.submit_many([spec(seed) for seed in range(24)])
    while True:
        stats = api.stats()
        threads.append(stats["process"]["threads"])
        running.append(stats["by_state"].get("running", 0))
        if drained(stats):
            break
    states = [api.status(entry["id"])["state"] for entry in entries]

rss, jobs, stats_us = [], [], []
with JobServer(port=0, max_queued=MAX_QUEUED, executor=lambda spec: {"makespan": 0.0}) as server:
    api = ServeClient(server.url)
    for batch in range(10):
        api.submit_many([spec(batch * MAX_QUEUED + i) for i in range(MAX_QUEUED)])
        while not drained(server.scheduler.stats()):
            time.sleep(0.001)
        # stats() less its /proc/self/status read, timed in the same loop: the
        # read's latency swings 1.7x with the host for up to a second at a
        # time, and it does not grow with the jobs a scheduler has served.
        timings, reads = [], []
        for _ in range(51):
            t0 = time.perf_counter()
            stats = server.scheduler.stats()
            t1 = time.perf_counter()
            _process_stats()
            timings.append(t1 - t0)
            reads.append(time.perf_counter() - t1)
        stats_us.append((min(timings) - min(reads)) * 1e6)
        rss.append(stats["process"]["rss_mb"])
        jobs.append(stats["jobs"])
print(json.dumps({"threads": threads, "running": running, "states": states,
                  "rss": rss, "jobs": jobs, "stats_us": stats_us}))
"""


def _run_probe(tmp_path, source: str) -> dict:
    (tmp_path / "heap_probe.py").write_text(HEAP_PROBE, encoding="utf-8")
    env = {k: v for k, v in os.environ.items() if k != "MALLOC_ARENA_MAX"}
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(tmp_path)])
    done = subprocess.run(
        [sys.executable, "-c", source], env=env, capture_output=True, text=True, timeout=300
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


@needs_glibc
def test_a_server_that_served_two_concurrent_clients_has_one_arena(tmp_path):
    report = _run_probe(tmp_path, SERVER_PROBE)
    assert report["states"] == ["done"] * 6 and report["executed"] == 6
    assert report["rank_threads"] >= 4  # the jobs did run on secondary threads
    assert report["arenas"] == 1
    assert report["asked_again"] is True  # the real call succeeds, and repeats


@needs_glibc
def test_a_job_worker_process_has_one_arena(tmp_path):
    report = _run_probe(tmp_path, WORKER_PROBE)
    assert report["workers"] == 1 and report["worker_pid"] != report["pid"]
    assert all(makespan > 0 for makespan in report["makespans"])
    assert report["arenas"] == 1


# ------------------------------------------------- inputs of admitted work only
@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="no /proc")
def test_sequential_unique_jobs_do_not_grow_the_server(tmp_path):
    """Peak RSS from the second job to the tenth, measured on the 2-vCPU
    development host, three runs each: 13.82-13.83 MiB at the parent (06d68c4:
    it climbs 1.7 MiB a job until the memo holds eight images), 0.00-0.14 MiB
    with the memo released at every drain.  The bound is a third of the
    parent's growth."""
    report = _run_probe(tmp_path, GROWTH_PROBE)
    peaks = report["peaks"]
    assert peaks[-1] - peaks[1] <= 13.8 / 3, peaks
    datasets = report["datasets"]
    assert (datasets["size"], datasets["bytes"]) == (0, 0)
    assert (datasets["misses"], datasets["hits"], datasets["evictions"]) == (10, 10, 10)


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="no /proc")
def test_two_clients_do_not_keep_each_others_finished_inputs(tmp_path):
    """Measured on the 2-vCPU development host, two runs each: at 7c1e930,
    which released the memo only when the scheduler drained, the jobs started
    with 0, 1, 2, ... up to 8 images of finished jobs in the memo and the peak
    rose 11.26-11.27 MiB from the first pair of jobs to the last; released when
    each job's admission ends, every job starts with none and the peak rises
    0.00-0.07 MiB.  The bounds are one image and a third of the parent's growth."""
    report = _run_probe(tmp_path, CLIENTS_PROBE)
    image = 672 * 672 * 4  # one float32 sobel input
    assert len(report["held"]) == 12 and max(report["held"]) <= image, report["held"]
    peaks = sorted(report["peaks"])  # two clients append in no fixed order
    assert peaks[-1] - peaks[1] <= 11.26 / 3, report["peaks"]
    datasets = report["datasets"]
    assert (datasets["size"], datasets["misses"], datasets["hits"]) == (0, 12, 12)


# --------------------------------------- one running job, a bounded job table
@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="no /proc")
def test_a_server_runs_one_job_at_a_time_and_keeps_a_bounded_table(tmp_path):
    """Measured on the 2-vCPU development host.  While the batch drains the
    parent (c4da08b) showed 48 threads and 18 jobs running, this 10 and 1.  Over
    the last nine of ten tables' worth of no-op jobs the parent's RSS rose 1.64
    MiB (every record kept: 1280 at the end) and its ``stats()`` went 45 -> 134
    us; the bounded table holds 128 records throughout, +0.27 MiB and a flat
    50 us.  The bounds are a third of the parent's growth.  ``stats()`` is
    timed without its /proc read (a flat 8-22 us here) and compared as the
    median of tables 8-10 against that of tables 2-4, so neither one table's
    hiccup nor the host's slow spells decide it."""
    report = _run_probe(tmp_path, BATON_PROBE)
    assert set(report["states"]) == {"done"} and len(report["states"]) == 24
    assert max(report["running"]) == 1 and max(report["threads"]) <= 12, report["threads"]
    assert report["jobs"] == [128] * 10
    rss, stats_us = report["rss"], report["stats_us"]
    assert rss[-1] - rss[1] <= 1.64 / 3, rss
    assert median(stats_us[7:10]) <= median(stats_us[1:4]) + (134 - 45) / 3, stats_us


#: generator call -> most its traced peak may be, in multiples of the bytes it
#: returns: as measured plus 10 %.  synthetic_image was 8.7x while it built
#: np.mgrid index grids and 4.0x with a whole-image gradient and noise draw
#: (1.22x drawn in row slabs); heat3d_initial 2.0x with a whole-grid noise
#: draw (1.13x); geometric_mesh 4.6x while ``neighbor_pairs`` stacked its
#: divmod (3.70x); clustered_points 5.7x.
GENERATOR_PEAKS = {
    "synthetic_image": (lambda: synthetic_image((672, 672), seed=5), 1.35),
    "heat3d_initial": (lambda: heat3d_initial((64, 64, 64), seed=5), 1.25),
    "clustered_points": (lambda: clustered_points(75_000, 40, 3, seed=5), 6.3),
    "geometric_mesh": (lambda: geometric_mesh(6500, 26.0, seed=5, shuffle_fraction=0.1), 4.1),
}


def traced_peak(fn) -> tuple[Any, int]:
    """``fn()``'s value and the bytes it allocated at its peak above what was
    already held."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        value = fn()
        return value, tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("name", sorted(GENERATOR_PEAKS))
def test_a_generator_allocates_a_bounded_multiple_of_its_output(name):
    generate, bound = GENERATOR_PEAKS[name]
    synthetic_image((16, 16))  # first-use imports are not the generator's transient
    clear_memo()
    try:
        value, peak = traced_peak(generate)
    finally:
        clear_memo()
    returned = sum(array.nbytes for array in (value if isinstance(value, tuple) else (value,)))
    assert peak <= bound * returned, (peak / returned, bound)


def sobel_round_transient(n: int) -> int:
    """Traced peak of one one-rank sobel round over an ``n``² image."""

    def prog(ctx):
        st = RuntimeEnv(ctx, "cpu").get_stencil()
        st.configure(make_kernel(ctx.node), (n, n))
        st.set_global_grid(np.random.default_rng(1).random((n, n)).astype(np.float32))
        st.run(1)  # the round plan is built once, not per round
        return traced_peak(lambda: st.run(1))[1]

    return run_spmd(prog, nodes=1, gpus_per_node=0).values[0]


def test_a_stencil_round_allocates_a_few_slabs_whatever_the_region():
    # Measured 0.42 / 0.44 MiB: sobel's three slab buffers plus NumPy's
    # fixed-size ufunc buffers.  The whole-region apply read 13.5 / 54 MiB.
    slab = SLAB_ELEMS * np.dtype(np.float32).itemsize
    small, large = sobel_round_transient(768), sobel_round_transient(1536)
    assert small <= 4 * slab and large <= 4 * slab, (small / slab, large / slab)
    assert large <= 1.25 * small, (small, large)


#: Upper key bound per float64-sum plan layout, keys drawn in ``[0, bound)``
#: for a 1000-key object: every key in range, ~91 % (a trailing trash bin)
#: and ~10 % (a take-index).
PLAN_LAYOUTS = {"all_in_range": 1000, "trash_bin": 1100, "take": 10_000}


def layout_keys(bound: int) -> np.ndarray:
    """A strided edge-array column, the way the irregular runtime plans keys."""
    return np.random.default_rng(bound).integers(0, bound, size=(30_000, 2))[:, 0]


def test_a_width3_plan_set_holds_at_most_12_bytes_per_planned_key():
    # Measured 18.5 B per planned key at the parent, which stored an int64
    # bin per key and column (24 B in range) plus masks and a pooled take
    # buffer; 3.2 B now: nothing where the keys are the bins, one int64 bin
    # per key before a trash bin, a take-index and a bin per owned key.
    keys = [layout_keys(bound) for bound in PLAN_LAYOUTS.values()]
    obj = DenseReductionObject(1000, 3, "sum")
    tracemalloc.start()
    try:
        plans = [obj.plan_scatter(k) for k in keys]
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(plans) == len(obj._plans) == 3
    assert held <= 12 * sum(len(k) for k in keys), held / sum(len(k) for k in keys)


@pytest.mark.parametrize("layout", sorted(PLAN_LAYOUTS))
def test_planned_width3_sums_are_bit_identical_to_unplanned(layout):
    keys = layout_keys(PLAN_LAYOUTS[layout])
    planned, plain = DenseReductionObject(1000, 3, "sum"), DenseReductionObject(1000, 3, "sum")
    planned.plan_scatter(keys)
    rng = np.random.default_rng(7)
    for _ in range(3):  # later batches land on non-zero bins
        values = rng.standard_normal((len(keys), 3))
        planned.insert_many(keys, values)
        plain.insert_many(keys, values)
    assert planned.values.tobytes() == plain.values.tobytes()
    assert (planned.n_inserts, planned.n_dropped) == (plain.n_inserts, plain.n_dropped)


def root_gather_peak(n: int) -> int:
    """Traced peak of a 2-rank ``gather_global`` of an ``n``² float32 grid,
    both ranks' allocations counted, read at the root."""

    def prog(ctx):
        st = RuntimeEnv(ctx, "cpu").get_stencil()
        st.configure(make_kernel(ctx.node), (n, n))
        st.set_global_grid(np.zeros((n, n), dtype=np.float32))
        ctx.comm.barrier()  # both ranks' grids are allocated before tracing
        if ctx.rank != 0:
            ctx.comm.barrier()  # and this rank copies its block after it starts
            return st.gather_global()
        tracemalloc.start()
        try:
            ctx.comm.barrier()
            st.gather_global()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    return run_spmd(prog, nodes=2, gpus_per_node=0).values[0]


def test_a_two_rank_gather_holds_one_grid_and_one_block():
    # Measured 2.00 grids at the parent, which copied every block twice (to
    # send it, then again as the payload snapshot) and the root's own once
    # more beside the assembled grid; 1.50 now: the grid and one block.
    n = 512
    grid = n * n * np.dtype(np.float32).itemsize
    peak = root_gather_peak(n)
    assert peak <= grid + grid // 2 + 64 * 1024, peak / grid


def heat3d_peak_per_rank(nodes: int) -> float:
    """Traced peak of one default ``heat3d`` job on ``nodes`` CPU ranks,
    divided by the rank count."""
    spec = serve_spec.JobSpec(app="heat3d", nodes=nodes, mix="cpu")
    try:
        serve_spec.execute_job(spec)  # first-use imports and the input are not per rank
        return traced_peak(lambda: serve_spec.execute_job(spec))[1] / nodes
    finally:
        clear_memo()


def test_a_64_rank_heat3d_job_holds_at_most_45_kb_per_rank():
    # Measured 53.1 kB per rank at the parent, whose ranks each kept two
    # pack buffers per face with a neighbour for the whole job, a timeline
    # per CPU core and every interval each timeline placed; 37.1 kB now.
    # The bound is halfway between.
    per_rank = heat3d_peak_per_rank(64)
    assert per_rank <= 45_000, per_rank


def test_a_stencil_holds_no_sent_halo_strip_once_it_is_delivered(monkeypatch):
    sent: dict[int, list] = {0: [], 1: []}
    isend = SimComm.isend

    def tracking_isend(self, buf, *args, **kwargs):
        sent[self.rank].append(weakref.ref(buf))
        return isend(self, buf, *args, **kwargs)

    monkeypatch.setattr(SimComm, "isend", tracking_isend)

    def prog(ctx):
        st = RuntimeEnv(ctx, "cpu").get_stencil()
        st.configure(make_kernel(ctx.node), (64, 64), dims=(2, 1))
        st.set_global_grid(np.ones((64, 64), dtype=np.float32))
        st._begin_step_early()  # sent; the peer has not received it yet
        in_flight = [ref() is not None for ref in sent[ctx.rank]]
        st.run(3)
        ctx.comm.barrier()  # the peer has received ours too
        return in_flight, [ref() is None for ref in sent[ctx.rank]]

    # dims=(2, 1): one face with a neighbour, one strip per step.
    assert run_spmd(prog, nodes=2, gpus_per_node=0).values == [([True], [True] * 3)] * 2


def test_an_irregular_rank_holds_no_sent_gather_once_it_is_delivered(monkeypatch):
    gathers: dict[int, list] = {0: [], 1: []}
    isend = SimComm.isend

    def tracking_isend(self, buf, dest, tag, *args, **kwargs):
        if tag == _TAG_DATA:  # a step-5 node-data slice, not a step-3 ID list
            gathers[self.rank].append(weakref.ref(buf.base))
        return isend(self, buf, dest, tag, *args, **kwargs)

    monkeypatch.setattr(SimComm, "isend", tracking_isend)
    positions, edges = geometric_mesh(400, 12.0, seed=0, shuffle_fraction=0.1)

    def prog(ctx):
        ir = RuntimeEnv(ctx, "cpu").get_IR()
        ir.set_kernel(moldyn.make_cf_kernel(ctx.node, moldyn.MoldynConfig()))
        ir.set_parameter(1.0)
        ir.set_mesh(edges, np.concatenate([positions, np.zeros_like(positions)], axis=1))
        for _ in range(4):
            ir.start()
            ir.update_nodedata(ir.get_local_nodes())
        ctx.comm.barrier()  # the peer has received every gather we sent
        return [ref() is None for ref in gathers[ctx.rank]]

    # Two ranks: one requester each, one gather per step.
    assert run_spmd(prog, nodes=2, gpus_per_node=0).values == [[True] * 4] * 2


def test_sobel_apply_allocates_three_slab_buffers():
    rows, cols = 42, 768
    src = np.random.default_rng(2).random((rows + 2, cols + 2)).astype(np.float32)
    dst = np.zeros_like(src)
    region = (slice(1, rows + 1), slice(1, cols + 1))
    sobel_apply(src, dst, region, None)
    # ``d`` and ``s`` span the slab's rows plus one neighbour row each side;
    # NumPy's ufunc iterator adds fixed 8192-element buffers (measured 3.2x).
    buffer = (rows + 2) * cols * src.itemsize
    _, peak = traced_peak(lambda: sobel_apply(src, dst, region, None))
    assert peak <= 3 * buffer + 64 * 1024, peak / buffer


# ------------------------------------------------------- the helper's refusals
def fake_libc(status: int) -> types.SimpleNamespace:
    """Stands in for ``ctypes.CDLL(None)``; ``calls`` is what ``mallopt`` was asked."""
    calls: list[tuple[int, int]] = []

    def mallopt(param: int, value: int) -> int:
        calls.append((param, value))
        return status

    return types.SimpleNamespace(mallopt=mallopt, calls=calls)


@pytest.fixture
def no_operator_setting(monkeypatch):
    monkeypatch.delenv("MALLOC_ARENA_MAX", raising=False)


def test_asks_for_one_arena_and_is_idempotent(monkeypatch, no_operator_setting):
    libc = fake_libc(status=1)
    monkeypatch.setattr(ctypes, "CDLL", lambda name: libc)
    assert serve_spec.use_one_heap() is True
    assert serve_spec.use_one_heap() is True
    assert libc.calls == [(-8, 1), (-8, 1)]  # M_ARENA_MAX = -8 in <malloc.h>


def test_operators_own_setting_wins(monkeypatch):
    monkeypatch.setenv("MALLOC_ARENA_MAX", "4")

    def untouched(name):
        raise AssertionError("libc must not be loaded")

    monkeypatch.setattr(ctypes, "CDLL", untouched)
    assert serve_spec.use_one_heap() is False


def test_unloadable_libc_is_a_silent_no(monkeypatch, no_operator_setting):
    def unloadable(name):
        raise OSError("no libc here")

    monkeypatch.setattr(ctypes, "CDLL", unloadable)
    assert serve_spec.use_one_heap() is False


def test_libc_without_mallopt_is_a_silent_no(monkeypatch, no_operator_setting):
    # The symbol is missing on macOS; ctypes raises AttributeError at lookup.
    monkeypatch.setattr(ctypes, "CDLL", lambda name: types.SimpleNamespace())
    assert serve_spec.use_one_heap() is False


def test_mallopt_reporting_failure_is_a_no(monkeypatch, no_operator_setting):
    libc = fake_libc(status=0)  # what musl's stub returns
    monkeypatch.setattr(ctypes, "CDLL", lambda name: libc)
    assert serve_spec.use_one_heap() is False
    assert libc.calls == [(-8, 1)]

