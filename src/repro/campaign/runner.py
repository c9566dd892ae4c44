"""Campaign execution: maximum throughput over the job scheduler.

The runner turns an expanded campaign into completed results as fast as
the host allows:

- **One path, two transports.**  The runner talks to the job API
  (:mod:`repro.serve.api`): the whole spec list goes in one batch
  submission, one wait covers the sweep, and each distinct point's result
  is fetched once.  In-process that API is a :class:`LocalClient` over a
  private :class:`JobScheduler` (no port); pointed at a running server it
  is a :class:`~repro.serve.client.ServeClient`, and the batch is one
  ``POST /jobs/batch``.  Both give the same rows, and the counts
  (``executed``, ``cache_hits``, ``store_hits``) come from the campaign's
  own batch entries, so campaigns sharing a server never count each
  other's jobs.
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
from repro.serve.api import JobClient, LocalClient, ServeError
from repro.serve.cache import ResultCache
from repro.serve.scheduler import TERMINAL_STATES, JobScheduler
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


def _point(index: int, spec: JobSpec) -> dict[str, Any]:
    """A point's axes: the first columns of its run-table and status rows."""
    return {
        "index": index,
        "app": spec.app,
        "preset": spec.preset,
        "nodes": spec.nodes,
        "mix": spec.mix,
        "scale": spec.scale,
        "seed": spec.params.get("seed"),
        "faulty": spec.fault_plan is not None,
        "spec_hash": spec.content_hash(),
    }


def _row_from_payload(
    index: int, spec: JobSpec, status: dict[str, Any], payload: dict[str, Any] | None
) -> dict[str, Any]:
    """One run-table row: the point's axes plus its job outcome."""
    result = payload or {}
    row: dict[str, Any] = {
        **_point(index, spec),
        "job_id": status.get("id"),
        "state": status.get("state"),
        "cached": bool(status.get("cached")),
        "makespan": result.get("makespan"),
        "seq_time": result.get("seq_time"),
        "speedup": result.get("speedup"),
        "error": status.get("error"),
    }
    stats = result.get("fault_stats")
    if stats is not None:
        row["fault_drops"] = stats.get("drops")
        row["fault_crashes"] = stats.get("crashes_consumed")
    report = result.get("report")
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
    """Execute a campaign at maximum throughput, in-process or on a server.

    Args:
        campaign: The declarative sweep to run.
        store: Persistent result store — a :class:`ResultStore`, a
            directory path, or ``None`` (in-memory only).  Ignored when a
            ``client`` is given (the server owns its store).
        client: A :class:`~repro.serve.client.ServeClient` pointed at a
            running job server; the campaign then travels as one
            ``POST /jobs/batch``.  ``None`` runs it in-process.
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
        client: JobClient | None = None,
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
            rows, stats = self._run(self.client, specs)
        else:
            scheduler = JobScheduler(
                self.executor,
                rank_budget=self.rank_budget,
                cache=ResultCache(self.cache_size, store=self.store),
            )
            try:
                rows, stats = self._run(LocalClient(scheduler), specs)
            finally:
                scheduler.shutdown()
        stats["mode"] = "local" if self.client is None else "remote"
        stats["wall_s"] = round(time.perf_counter() - t0, 4)
        stats["points"] = len(specs)
        return CampaignResult(name=self.campaign.name, rows=rows, stats=stats)

    def _run(self, client: JobClient, specs: list[JobSpec]) -> tuple[list[dict], dict]:
        """One batch admission, one wait for the sweep, one result per point.

        The counts are the campaign's own batch entries, so campaigns
        sharing a server never count each other's jobs.
        """
        submit_idx = distinct_points(specs)
        entries = client.submit_many([specs[i] for i in submit_idx])
        waiting = [e["id"] for e in entries if "id" in e and e["state"] not in TERMINAL_STATES]
        done = client.wait_many(waiting, timeout=self.timeout)
        outcomes: dict[str, tuple[dict[str, Any], dict[str, Any] | None]] = {}
        executed = 0
        for i, entry in zip(submit_idx, entries):
            if "id" not in entry:  # refused: {"index", "error"} only
                status = {"id": None, "state": "rejected", "error": entry["error"]}
            else:
                status = done.get(entry["id"], entry)
                executed += not status["cached"] and status["state"] != "cancelled"
            payload = None
            if status["state"] == "done":
                payload = self._fetch_result(client, status["id"], specs[i])
            outcomes[specs[i].content_hash()] = status, payload
        rows = [
            _row_from_payload(i, spec, *outcomes[spec.content_hash()])
            for i, spec in enumerate(specs)
        ]
        hits = [entry for entry in entries if entry.get("cached")]
        return rows, {
            "submitted": len(submit_idx),
            "deduplicated": len(specs) - len(submit_idx),
            "executed": executed,
            "cache_hits": len(hits),
            "store_hits": sum(entry["cache_tier"] == "store" for entry in hits),
            "backend": specs[0].backend,
        }

    def _fetch_result(self, client: JobClient, job_id: str, spec: JobSpec) -> dict[str, Any]:
        try:
            return client.result(job_id)["result"]
        except ServeError as exc:
            if exc.status != 410:
                raise
        # Retired since: the batch finished more jobs than the scheduler's
        # table keeps.  The result is a resubmission (a cache / store hit) away.
        return client.result(client.submit(spec)["id"])["result"]

    # -- status (no execution) ---------------------------------------------
    def status(self) -> dict[str, Any]:
        """How much of the campaign the persistent store already holds."""
        specs = self.campaign.expand()
        rows = [_point(i, spec) for i, spec in enumerate(specs)]
        for row in rows:
            row["stored"] = self.store is not None and row["spec_hash"] in self.store
        cached = sum(row["stored"] for row in rows)
        return {
            "campaign": self.campaign.name,
            "points": len(specs),
            "stored": cached,
            "missing": len(specs) - cached,
            "store": None if self.store is None else str(self.store.root),
            "rows": rows,
        }
