"""The dataset memo: one generation per process per distinct argument tuple."""

import sys
import threading

import numpy as np
import pytest

import repro.data as data
from repro.data import clear_memo, memo_stats, memoized, release_memo
from repro.data.atoms import build_neighbor_edges, fcc_lattice
from repro.data.grids import heat3d_initial, synthetic_image
from repro.data.meshes import geometric_mesh
from repro.data.points import clear_points_cache, clustered_points, points_cache_stats
from repro.serve import JobSpec, execute_job
from repro.serve.scheduler import JobScheduler
from tests.conftest import GatedExecutor


@pytest.fixture(autouse=True)
def fresh_memo():
    clear_memo()
    yield
    clear_memo()
    assert not data._in_flight  # no test leaves a generation marked in flight


def _counted(calls: list):
    @memoized
    def generate(tag, scale=1):
        calls.append(tag)
        return np.full(4, scale)

    return generate


# ------------------------------------------------------ one input per job
@pytest.mark.parametrize(
    "app, nodes, misses, hits",
    [
        ("heat3d", 8, 1, 7),
        ("sobel", 4, 1, 3),
        ("moldyn", 2, 1, 1),  # the mesh; positions and edges are one entry
    ],
)
def test_a_job_generates_its_input_once(app, nodes, misses, hits):
    execute_job(JobSpec(app=app, nodes=nodes, preset="laptop", mix="cpu"))
    stats = memo_stats()
    assert (stats["misses"], stats["hits"]) == (misses, hits)


def test_minimd_builds_atoms_and_first_neighbor_list_once():
    execute_job(JobSpec(app="minimd", nodes=2, preset="laptop", mix="cpu"))
    stats = memo_stats()
    assert (stats["misses"], stats["hits"]) == (2, 2)  # lattice + list, once each


# ------------------------------------------------------------------ keys
def test_key_is_the_full_argument_tuple():
    a, _ = clustered_points(300, 4, seed=1)
    assert clustered_points(300, 4, seed=1)[0] is a
    assert clustered_points(300, 4, seed=2)[0] is not a
    assert clustered_points(300, 4, dims=2, seed=1)[0] is not a
    # one memo, one reader: the points names are the shared memo's
    assert points_cache_stats() == memo_stats()
    assert memo_stats()["size"] == 3
    clear_points_cache()
    assert memo_stats()["size"] == 0
    assert clustered_points(300, 4, seed=1)[0] is not a  # a real generation again


def test_two_generators_never_share_a_key():
    calls: list = []
    first, second = _counted(calls), _counted(calls)
    first("x")
    second("x")
    assert calls == ["x", "x"]


def test_array_arguments_are_keyed_by_content():
    atoms = np.concatenate([fcc_lattice(3, jitter=0.0), np.zeros((108, 3))], axis=1)
    edges = build_neighbor_edges(atoms[:, 0:3], 1.0)  # a strided view
    assert build_neighbor_edges(atoms[:, 0:3].copy(), 1.0) is edges
    moved = atoms[:, 0:3].copy()
    moved[0, 0] += 0.25
    assert build_neighbor_edges(moved, 1.0) is not edges
    assert build_neighbor_edges(atoms[:, 0:3].astype(np.float32), 1.0) is not edges
    assert memo_stats()["hits"] == 1


def test_list_and_tuple_shapes_are_distinct_inputs():
    # derive_seed sees the shape's text, so the two spellings draw different noise
    as_tuple = heat3d_initial((8, 8, 8))
    as_list = heat3d_initial([8, 8, 8])
    assert as_list is not as_tuple and not np.array_equal(as_list, as_tuple)
    assert heat3d_initial([8, 8, 8]) is as_list


# --------------------------------------------------------------- results
def test_generated_arrays_are_read_only():
    positions, edges = geometric_mesh(200, 8.0, seed=1)
    lattice = fcc_lattice(2)
    arrays = [
        heat3d_initial((8, 8, 8)),
        synthetic_image((16, 16)),
        positions,
        edges,
        lattice,
        build_neighbor_edges(lattice, 1.0),
        *clustered_points(100, 4),
    ]
    for array in arrays:
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0


# ---------------------------------------------------------- single flight
def test_concurrent_misses_share_one_generation():
    started, release = threading.Event(), threading.Event()
    calls: list = []
    results: list = []

    @memoized
    def slow(tag):
        calls.append(tag)
        started.set()
        assert release.wait(30)
        return np.arange(4)

    threads = [threading.Thread(target=lambda: results.append(slow("x"))) for _ in range(2)]
    threads[0].start()
    assert started.wait(30)
    threads[1].start()
    threads[1].join(0.2)
    assert threads[1].is_alive()  # blocked behind the generation in flight
    assert memo_stats()["misses"] == 1
    release_memo()  # a scheduler draining now touches neither the generation nor its waiter
    release.set()
    for t in threads:
        t.join(30)
        assert not t.is_alive()
    assert calls == ["x"]
    assert results[0] is results[1]
    stats = memo_stats()
    assert (stats["misses"], stats["hits"], stats["size"]) == (1, 1, 1)
    assert stats["evictions"] == 0  # the release found nothing: the result arrived after it


def test_failed_generation_leaves_nothing_and_the_waiter_regenerates():
    started, release = threading.Event(), threading.Event()
    calls: list = []
    outcomes: dict = {}

    @memoized
    def flaky(tag):
        calls.append(tag)
        if len(calls) == 1:
            started.set()
            assert release.wait(30)
            raise RuntimeError("boom")
        return np.arange(3)

    def ask(name):
        try:
            outcomes[name] = flaky("x")
        except RuntimeError as exc:
            outcomes[name] = exc

    first = threading.Thread(target=ask, args=("first",))
    second = threading.Thread(target=ask, args=("second",))
    first.start()
    assert started.wait(30)
    second.start()
    second.join(0.2)
    assert second.is_alive()
    release.set()
    for t in (first, second):
        t.join(30)
        assert not t.is_alive()
    assert isinstance(outcomes["first"], RuntimeError)
    np.testing.assert_array_equal(outcomes["second"], np.arange(3))
    assert len(calls) == 2 and memo_stats()["size"] == 1


def test_raising_generator_is_not_cached():
    calls: list = []

    @memoized
    def broken(tag):
        calls.append(tag)
        raise ValueError(tag)

    for _ in range(2):
        with pytest.raises(ValueError):
            broken("x")
    assert calls == ["x", "x"]
    assert memo_stats()["size"] == 0 and not data._in_flight


def test_counters_survive_contention():
    """More threads than cores, a short switch interval, more keys than
    entries: a lost update would break one of the identities below."""
    calls: list = []
    generate = _counted(calls)
    keys = data.MEMO_ENTRIES + 4
    per_thread, n_threads = 300, 8
    wrong: list = []

    def worker(seed):
        rng = np.random.default_rng(seed)
        for tag in rng.integers(0, keys, size=per_thread).tolist():
            if generate(tag, scale=tag)[0] != tag:
                wrong.append(tag)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=worker, args=(s,)) for s in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(60)
            assert not t.is_alive()
    finally:
        sys.setswitchinterval(interval)
    stats = memo_stats()
    assert not wrong
    assert stats["hits"] + stats["misses"] == per_thread * n_threads
    assert stats["misses"] == len(calls)  # single-flight: no duplicated generation
    assert stats["size"] == data.MEMO_ENTRIES == stats["misses"] - stats["evictions"]


# ------------------------------------------------ lifetime: admitted work
def _counts() -> tuple:
    stats = memo_stats()
    return tuple(stats[name] for name in ("size", "misses", "hits", "evictions"))


def _kmeans(nodes: int, seed: int = 3) -> JobSpec:
    params = {"functional_points": 3000, "k": 8, "seed": seed}
    return JobSpec(app="kmeans", nodes=nodes, preset="laptop", mix="cpu", params=params)


@pytest.fixture
def scheduler():
    schedulers: list = []

    def make(executor=None, **kwargs) -> JobScheduler:
        schedulers.append(JobScheduler(executor, **kwargs))
        return schedulers[-1]

    yield make
    for made in schedulers:
        made.shutdown(wait_running=30.0)


def test_release_drops_entries_and_keeps_the_hit_and_miss_counters():
    kept, _ = clustered_points(300, 4, seed=1)
    clustered_points(300, 4, seed=1)
    heat3d_initial((8, 8, 8))
    assert _counts() == (2, 2, 1, 0)
    release_memo()
    assert _counts() == (0, 2, 1, 2) and memo_stats()["bytes"] == 0
    assert clustered_points(300, 4, seed=1)[0] is not kept  # a real generation again
    release_memo()
    release_memo()  # releasing an empty memo counts nothing
    assert _counts() == (0, 3, 1, 3)


@pytest.mark.parametrize(
    "rank_budget, specs",
    [
        (64, [_kmeans(1), _kmeans(2)]),  # the second waits for the interpreter
        (2, [_kmeans(2), _kmeans(1)]),  # ... and here for the budget as well
    ],
)
def test_a_batch_shares_its_input_and_the_drain_releases_it(scheduler, rank_budget, specs):
    sched = scheduler(rank_budget=rank_budget)
    jobs = [out["job"] for out in sched.submit_many(specs)]
    assert [sched.wait(job.id, timeout=300.0).state for job in jobs] == ["done", "done"]
    # One after the other: the queued job kept the first one's input admitted.
    assert jobs[1].started_at >= jobs[0].finished_at
    assert _counts() == (0, 1, 2, 1)  # one generation; one release, after the last job


def test_no_job_is_short_enough_to_drain_the_scheduler_mid_batch(scheduler):
    """A batch is admitted in one critical section.  Spec by spec, 3 of 300
    such batches lost their input between the first job's end and the second
    spec's admission, and generated it again."""
    sched = scheduler()
    for seed in range(300):
        specs = [
            JobSpec(
                app="kmeans", nodes=1, preset="laptop", mix="cpu",
                params={"functional_points": 400, "k": 8, "iterations": iterations, "seed": seed},
            )
            for iterations in (1, 2)  # two jobs, one input
        ]
        jobs = [out["job"] for out in sched.submit_many(specs)]
        assert [sched.wait(job.id, timeout=300.0).state for job in jobs] == ["done", "done"]
    stats = memo_stats()
    assert (stats["misses"], stats["hits"], stats["evictions"]) == (300, 300, 300)


def test_jobs_submitted_one_at_a_time_regenerate_a_shared_input(scheduler):
    sched = scheduler()
    for nodes in (2, 1):  # a closed loop: the scheduler drains between the two
        assert sched.wait(sched.submit(_kmeans(nodes)).id, timeout=300.0).state == "done"
    assert _counts() == (0, 2, 1, 2)


def test_a_job_submitted_alone_releases_its_input_when_it_ends(scheduler):
    """Two closed-loop clients: the second job is admitted while the first
    runs, so the scheduler never drains.  The first job's input goes when that
    job ends (at 7c1e930, which released only on a drain, the second job
    found it still held)."""
    first_started, finish_first = threading.Event(), threading.Event()
    held_at_start: dict = {}

    def generate(spec):
        seed = spec.params["seed"]
        held_at_start[seed] = memo_stats()["size"]
        clustered_points(300, 4, seed=seed)
        if seed == 1:
            first_started.set()
            assert finish_first.wait(30.0)
        return {"makespan": 0.0}

    sched = scheduler(generate)
    first = sched.submit(_kmeans(1, seed=1))
    assert first_started.wait(30.0)
    second = sched.submit(_kmeans(1, seed=2))
    assert second.state == "queued"
    finish_first.set()
    assert sched.wait(second.id, timeout=30.0).state == "done"
    assert first.state == "done" and held_at_start == {1: 0, 2: 0}
    assert _counts() == (0, 2, 0, 2)


def test_a_job_alone_ending_between_a_batchs_jobs_costs_it_one_regeneration(scheduler):
    """The documented consequence: a higher-priority job of its own admission
    runs between the two jobs of a batch that share an input.  It ends its
    admission, so the memo is released and the batch's second job generates
    the input again — one extra miss, and the same result."""
    first_ran, go_on = threading.Event(), threading.Event()

    def hold_the_first(spec):
        payload = execute_job(spec)
        if spec.params.get("iterations") == 1:
            first_ran.set()
            assert go_on.wait(60.0)
        return payload

    def batch_job(iterations):
        params = {"functional_points": 3000, "k": 8, "seed": 3, "iterations": iterations}
        return JobSpec(app="kmeans", nodes=1, preset="laptop", mix="cpu", params=params)

    sched = scheduler(hold_the_first)
    first, second = (out["job"] for out in sched.submit_many([batch_job(1), batch_job(2)]))
    assert first_ran.wait(60.0)
    alone = sched.submit(JobSpec.from_dict({**_kmeans(1, seed=4).to_dict(), "priority": 1}))
    go_on.set()
    for job in (first, alone, second):
        assert sched.wait(job.id, timeout=300.0).state == "done"
    assert first.finished_at <= alone.started_at and alone.finished_at <= second.started_at
    assert _counts() == (0, 3, 0, 3)  # batched alone, the second job would have hit
    direct = execute_job(second.spec)
    assert repr(second.result["makespan"]) == repr(direct["makespan"])
    assert second.result["metrics"] == direct["metrics"]


def test_an_admission_that_ends_behind_a_running_job_is_released_after_it(scheduler):
    """A batch of an in-process job and a worker job keeps the input its
    in-process job generated while the worker job runs.  When the worker job
    ends, another admission's job holds the interpreter: nothing is released
    under it, and the first batch's input goes when it ends — although that
    job's own batch-mate is still running."""
    gate = GatedExecutor()
    gate.expect(1, 2, 3, 4)

    def generate_then_wait(spec):
        if spec.backend != "processes":  # a worker job generates in its own process
            clustered_points(300, 4, seed=spec.params["seed"])
        return gate(spec)

    def batch(seed):  # an in-process job and a worker job
        worker = JobSpec.from_dict({**_kmeans(1, seed + 1).to_dict(), "backend": "processes"})
        return [out["job"] for out in sched.submit_many([_kmeans(1, seed), worker])]

    sched = scheduler(generate_then_wait)
    first, first_worker = batch(1)
    gate.release[1].set()
    sched.wait(first.id, timeout=30.0)
    assert _counts() == (1, 1, 0, 0)  # its batch-mate still runs
    second, second_worker = batch(3)
    assert gate.started[3].wait(30.0)
    gate.release[2].set()
    sched.wait(first_worker.id, timeout=30.0)
    assert _counts() == (2, 2, 0, 0)  # the first batch has ended; a job is reading an input
    gate.release[3].set()
    sched.wait(second.id, timeout=30.0)
    assert _counts() == (0, 2, 0, 2)
    gate.release[4].set()
    assert sched.wait(second_worker.id, timeout=30.0).state == "done"
    assert _counts() == (0, 2, 0, 2)


def test_a_failing_job_releases(scheduler):
    def generate_then_fail(spec):
        clustered_points(300, 4, seed=1)
        raise RuntimeError("boom")

    sched = scheduler(generate_then_fail)
    assert sched.wait(sched.submit(_kmeans(1)).id, timeout=30.0).state == "failed"
    assert _counts() == (0, 1, 0, 1)


def test_cancelling_the_last_queued_job_releases(scheduler):
    sched = scheduler()
    clustered_points(300, 4, seed=1)
    with sched._cond:  # the dispatcher cannot pick the job before it is cancelled
        job = sched.submit(_kmeans(1))
        assert _counts() == (1, 1, 0, 0)
        assert sched.cancel(job.id)
    assert job.state == "cancelled"
    assert _counts() == (0, 1, 0, 1)


def test_cancelling_a_queued_job_behind_a_running_one_releases_nothing(scheduler):
    started, finish = threading.Event(), threading.Event()

    def held(spec):
        clustered_points(300, 4, seed=1)
        started.set()
        assert finish.wait(30.0)
        return {"makespan": 0.0}

    sched = scheduler(held, rank_budget=1)
    running, queued = sched.submit(_kmeans(1, seed=1)), sched.submit(_kmeans(1, seed=2))
    assert started.wait(30.0)
    assert sched.cancel(queued.id)
    assert _counts() == (1, 1, 0, 0)  # the running job's input is still admitted work's
    finish.set()
    assert sched.wait(running.id, timeout=30.0).state == "done"
    assert _counts() == (0, 1, 0, 1)
