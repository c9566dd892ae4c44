"""Campaign execution: maximum throughput over the job scheduler.

The runner turns an expanded campaign into completed results as fast as
the host allows:

- **One submission round trip.**  The whole spec list goes through
  :meth:`JobScheduler.submit_many` in-process, or one ``POST /jobs/batch``
  when pointed at a running server — never N individual submits.
- **Backfill-friendly ordering.**  Specs are submitted widest-first
  (descending rank cost, ties in expansion order): the classic
  longest-processing-time shape that lets the scheduler's first-fit
  backfill keep the rank budget saturated instead of stranding a wide job
  behind a drained budget (worker-process jobs; in-process jobs run one at
  a time, in this order).
- **One input per dataset.**  Points that share an input generate it once:
  the process-wide dataset memo (:func:`repro.data.memoized`) is
  single-flight.  A job worker process has its own memo.
- **Deduplicated execution.**  Points with equal content hashes execute
  once; every row still reports.
- **Warm pools and backends.**  ``backend: "auto"`` campaigns run their
  jobs in worker processes when more than one CPU is usable (the spec
  hash never sees the backend, so cached results stay shared), and all
  jobs reuse the process-wide warm rank-thread and job-worker pools.
- **Persistence.**  With a :class:`~repro.serve.store.ResultStore`
  attached, completed points land on disk; a repeated or extended
  campaign re-executes only new points — a warm re-run completes with
  **zero** executions.

Every reported makespan is bit-identical to a direct
:func:`~repro.sim.engine.spmd_run` of the same spec — the job service's
core guarantee, which the ``campaign_throughput`` bench case pins in CI.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.campaign.spec import CampaignSpec
from repro.serve.cache import ResultCache
from repro.serve.client import ServeClient, ServeError
from repro.serve.scheduler import JobScheduler
from repro.serve.spec import JobSpec
from repro.serve.store import ResultStore
from repro.util.errors import ValidationError

#: Run-table columns every row carries (the schema CI asserts).
RUN_TABLE_COLUMNS = (
    "index",
    "app",
    "preset",
    "nodes",
    "mix",
    "scale",
    "seed",
    "faulty",
    "spec_hash",
    "job_id",
    "state",
    "cached",
    "makespan",
    "seq_time",
    "speedup",
    "error",
)


def throughput_order(specs: list[JobSpec]) -> list[int]:
    """Submission order: widest first, expansion order among equals."""
    return sorted(range(len(specs)), key=lambda i: (-specs[i].ranks, i))


def distinct_points(specs: list[JobSpec]) -> list[int]:
    """Throughput order with repeats of a content hash dropped: identical
    points execute once, every row still reports."""
    first: dict[str, int] = {}
    for i in throughput_order(specs):
        first.setdefault(specs[i].content_hash(), i)
    return list(first.values())


def _mean_utilization(report: dict[str, Any]) -> float | None:
    timelines = report.get("timelines") or []
    if not timelines:
        return None
    return sum(t["utilization"] for t in timelines) / len(timelines)


def _row_from_payload(
    index: int, spec: JobSpec, status: dict[str, Any], payload: dict[str, Any] | None
) -> dict[str, Any]:
    """One run-table row: the point's axes plus its job outcome."""
    row: dict[str, Any] = {
        "index": index,
        "app": spec.app,
        "preset": spec.preset,
        "nodes": spec.nodes,
        "mix": spec.mix,
        "scale": spec.scale,
        "seed": spec.params.get("seed"),
        "faulty": spec.fault_plan is not None,
        "spec_hash": spec.content_hash(),
        "job_id": status.get("id"),
        "state": status.get("state"),
        "cached": bool(status.get("cached")),
        "makespan": None,
        "seq_time": None,
        "speedup": None,
        "error": status.get("error"),
    }
    if payload is not None:
        row["makespan"] = payload.get("makespan")
        row["seq_time"] = payload.get("seq_time")
        row["speedup"] = payload.get("speedup")
        stats = payload.get("fault_stats")
        if stats is not None:
            row["fault_drops"] = stats.get("drops")
            row["fault_crashes"] = stats.get("crashes_consumed")
        report = payload.get("report")
        if report is not None:
            row["utilization"] = _mean_utilization(report)
            row["critical_path_links"] = len(report.get("critical_path") or [])
    return row


@dataclass
class CampaignResult:
    """A completed (or attempted) campaign run: table plus throughput facts."""

    name: str
    rows: list[dict[str, Any]]
    stats: dict[str, Any] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return all(r["state"] == "done" for r in self.rows)

    def failures(self) -> list[dict[str, Any]]:
        return [r for r in self.rows if r["state"] != "done"]

    def to_dict(self) -> dict[str, Any]:
        return {"campaign": self.name, "stats": dict(self.stats), "rows": list(self.rows)}


class CampaignRunner:
    """Execute a campaign at maximum throughput, in-process or via HTTP.

    Args:
        campaign: The declarative sweep to run.
        store: Persistent result store — a :class:`ResultStore`, a
            directory path, or ``None`` (in-memory only).  Ignored when a
            ``client`` is given (the server owns its store).
        client: A :class:`ServeClient` pointed at a running job server;
            the campaign then travels as one ``POST /jobs/batch``.
        rank_budget: In-process scheduler budget (ranks in flight).
        cache_size: In-process LRU size above the store.
        executor: In-process executor override (tests).
        timeout: Wall-clock seconds to wait for the whole sweep.
    """

    def __init__(
        self,
        campaign: CampaignSpec,
        *,
        store: ResultStore | str | Path | None = None,
        client: ServeClient | None = None,
        rank_budget: int = 64,
        cache_size: int = 256,
        executor: Any = None,
        timeout: float = 3600.0,
    ) -> None:
        self.campaign = campaign
        self.client = client
        if isinstance(store, (str, Path)):
            store = ResultStore(store)
        self.store = store
        self.rank_budget = rank_budget
        self.cache_size = cache_size
        self.executor = executor
        self.timeout = timeout

    # -- execution ---------------------------------------------------------
    def run(self) -> CampaignResult:
        specs = self.campaign.expand()
        if not specs:
            raise ValidationError(f"campaign {self.campaign.name!r} expands to no points")
        t0 = time.perf_counter()
        if self.client is not None:
            rows, stats = self._run_remote(specs)
        else:
            rows, stats = self._run_local(specs)
        stats["wall_s"] = round(time.perf_counter() - t0, 4)
        stats["points"] = len(specs)
        return CampaignResult(name=self.campaign.name, rows=rows, stats=stats)

    def _run_local(self, specs: list[JobSpec]) -> tuple[list[dict], dict]:
        submit_idx = distinct_points(specs)
        scheduler = JobScheduler(
            self.executor,
            rank_budget=self.rank_budget,
            cache=ResultCache(self.cache_size, store=self.store),
        )
        try:
            outcomes = scheduler.submit_many([specs[i] for i in submit_idx])
            jobs: dict[str, Any] = {}  # spec hash -> Job | error entry
            for i, outcome in zip(submit_idx, outcomes):
                h = specs[i].content_hash()
                if outcome["ok"]:
                    # A cache hit is complete as returned, and in a batch of
                    # more hits than the job table keeps, already retired.
                    job = outcome["job"]
                    jobs[h] = job if job.cached else scheduler.wait(job.id, timeout=self.timeout)
                else:
                    jobs[h] = outcome["error"]
            rows = []
            for i, spec in enumerate(specs):
                got = jobs[spec.content_hash()]
                if isinstance(got, str):  # admission error
                    status = {"id": None, "state": "rejected", "error": got}
                    payload = None
                else:
                    status = got.describe(with_spec=False)
                    payload = got.result
                rows.append(_row_from_payload(i, spec, status, payload))
            sched_stats = scheduler.stats()
        finally:
            scheduler.shutdown()
        cache_stats = sched_stats.get("cache", {})
        stats = {
            "mode": "local",
            "submitted": len(submit_idx),
            "deduplicated": len(specs) - len(submit_idx),
            "executed": sched_stats.get("executed", 0),
            "cache_hits": sched_stats.get("cache_hits", 0),
            "store_hits": cache_stats.get("store_hits", 0),
            "rank_budget": self.rank_budget,
            "utilization": sched_stats.get("utilization"),
            "backend": specs[0].backend,
        }
        return rows, stats

    def _run_remote(self, specs: list[JobSpec]) -> tuple[list[dict], dict]:
        submit_idx = distinct_points(specs)
        before = self.client.stats()
        entries = self.client.submit_many([specs[i] for i in submit_idx])
        statuses: dict[str, dict[str, Any]] = {}
        waiting: list[tuple[str, str]] = []  # (spec hash, job id)
        by_hash: dict[str, JobSpec] = {}
        for i, entry in zip(submit_idx, entries):
            h = specs[i].content_hash()
            by_hash[h] = specs[i]
            if "id" not in entry:  # rejected: {"index", "error"} only
                statuses[h] = {"id": None, "state": "rejected", "error": entry["error"]}
            elif entry["state"] in ("done", "failed", "cancelled"):
                statuses[h] = entry
            else:
                waiting.append((h, entry["id"]))
                statuses[h] = entry
        if waiting:
            done = self.client.wait_many(
                [job_id for _, job_id in waiting], timeout=self.timeout
            )
            for h, job_id in waiting:
                statuses[h] = done[job_id]
        payloads: dict[str, dict[str, Any] | None] = {}
        for h, status in statuses.items():
            if status.get("state") == "done":
                payloads[h] = self._fetch_result(status["id"], by_hash[h])
            else:
                payloads[h] = None
        rows = [
            _row_from_payload(i, spec, statuses[spec.content_hash()], payloads[spec.content_hash()])
            for i, spec in enumerate(specs)
        ]
        after = self.client.stats()
        stats = {
            "mode": "remote",
            "url": self.client.url,
            "submitted": len(submit_idx),
            "deduplicated": len(specs) - len(submit_idx),
            "executed": after.get("executed", 0) - before.get("executed", 0),
            "cache_hits": after.get("cache_hits", 0) - before.get("cache_hits", 0),
            "store_hits": after.get("cache", {}).get("store_hits", 0)
            - before.get("cache", {}).get("store_hits", 0),
            "utilization": after.get("utilization"),
            "backend": specs[0].backend,
        }
        return rows, stats

    def _fetch_result(self, job_id: str, spec: JobSpec) -> dict[str, Any]:
        try:
            return self.client.result(job_id)["result"]
        except ServeError as exc:
            if exc.status != 410:
                raise
        # Retired since: the batch finished more jobs than the server's table
        # keeps.  The result is a resubmission (a cache / store hit) away.
        return self.client.result(self.client.submit(spec)["id"])["result"]

    # -- status (no execution) ---------------------------------------------
    def status(self) -> dict[str, Any]:
        """How much of the campaign the persistent store already holds."""
        specs = self.campaign.expand()
        cached = 0
        rows = []
        for i, spec in enumerate(specs):
            h = spec.content_hash()
            hit = self.store is not None and h in self.store
            cached += int(hit)
            rows.append(
                {
                    "index": i,
                    "app": spec.app,
                    "preset": spec.preset,
                    "nodes": spec.nodes,
                    "mix": spec.mix,
                    "scale": spec.scale,
                    "seed": spec.params.get("seed"),
                    "faulty": spec.fault_plan is not None,
                    "spec_hash": h,
                    "stored": hit,
                }
            )
        return {
            "campaign": self.campaign.name,
            "points": len(specs),
            "stored": cached,
            "missing": len(specs) - cached,
            "store": None if self.store is None else str(self.store.root),
            "rows": rows,
        }
