"""Multi-tenant simulation job service.

Turns the CLI-per-run model into a long-lived server: many small jobs
share the process-wide warm pools (rank threads, worker processes,
dataset memos) instead of each paying full per-process setup — the
"heavy traffic" direction of the roadmap, in the spirit of persistent
runtimes like CaKernel's scheduler and HDArray's resident host process.

Pieces:

- :class:`~repro.serve.spec.JobSpec` / :func:`~repro.serve.spec.run_spec` /
  :func:`~repro.serve.spec.execute_job` — what a job *is*, its content
  hash, the one function that runs it, and the reference executor.
- :class:`~repro.serve.cache.ResultCache` — content-addressed LRU of
  completed results (identical jobs return without re-execution).
- :class:`~repro.serve.store.ResultStore` — the persistent on-disk tier
  beneath the LRU: atomic per-hash JSON entries that survive restarts and
  are shared by every process pointed at the same directory.
- :class:`~repro.serve.scheduler.JobScheduler` — one in-process job at a
  time, priority queues, a rank budget for worker-process jobs, admission
  control, a bounded job table.
- :class:`~repro.serve.server.JobServer` — the localhost HTTP API.
- :mod:`~repro.serve.api` — what each request answers, over one scheduler;
  its :class:`~repro.serve.api.LocalClient` asks in-process, with no port.
- :class:`~repro.serve.client.ServeClient` — the stdlib client the CLI
  and served campaigns use.

Guarantee inherited from the engine: a job's virtual makespan is
bit-identical whether it runs through the service (at any concurrency, on
either backend) or directly via :func:`repro.sim.engine.spmd_run`.
"""

from repro.util.lazy import lazy_exports

# Lazy (PEP 562): a server never loads the client (urllib), a client
# never loads the server, and ``execute_job`` needs neither.
__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "api": ["LocalClient", "ServeError"],
        "cache": ["ResultCache"],
        "client": ["DEFAULT_URL", "ServeClient"],
        "scheduler": ["AdmissionError", "Job", "JobScheduler", "TERMINAL_STATES"],
        "server": ["JobServer"],
        "spec": ["JobSpec", "execute_job", "run_spec", "served_app_names"],
        "store": ["ResultStore", "default_store_root"],
    },
)
