"""Job specifications: the unit of work the job service schedules.

A :class:`JobSpec` names everything that determines a simulation's outcome
— the application, cluster preset and node count, device mix, config
overrides, app options, and the fault plan — in a JSON-able form that
travels over the HTTP API.  Its :meth:`~JobSpec.content_hash` is the
content address of the run's *result*: two specs that would produce
bit-identical virtual makespans hash equal, so the server's result cache
can return a completed job's payload without re-executing it.

Deliberately **excluded** from the hash: execution backend and priority.
The backend only says *where* the job's one event loop runs — in this
process (``"threads"``, the default) or in one of a warm pool of job
worker processes (``"processes"``, :mod:`repro.serve.jobpool`) — and
priority only reorders the queue; neither can change the result, so
including them would only split the cache.  Fault plans enter the hash through
:meth:`repro.faults.plan.FaultPlan.canonical_key`, so listing the same
rules in a different order does not change a job's identity either.

:func:`execute_job` is the one function that executes a spec: it builds
the cluster, config and fault plan, calls the app's ``run`` in the calling
thread and returns the result payload.  ``repro run``, ``repro profile``,
the scheduler's executor and the in-process campaigns behind the
paper-figure drivers all call it — which is what makes "submitted over the
API" and "run directly" bit-for-bit comparable.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import inspect
import json
import os
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping

from repro.apps.registry import APPS
from repro.util.errors import ValidationError
from repro.util.validate import annotation_kinds, check_document, is_json, to_wire, wire_fields

#: Cluster presets a job may request, by name.
CLUSTER_PRESETS = ("ohio", "laptop", "latency")

#: Where a job may execute: in this process, or in a job worker process.
BACKENDS = ("threads", "processes")

#: Spec fields that never reach the content hash (see module docstring).
NON_SEMANTIC_FIELDS = ("backend", "priority")

#: Keyword arguments of app ``run`` functions that are plumbing, not app
#: options — they are carried by dedicated spec fields instead.
_RESERVED_OPTIONS = frozenset({"fault_plan", "trace"})


def resolve_backend(backend: str | None) -> str:
    """Validate a backend name; ``None`` is the in-process default."""
    if backend is None:
        return "threads"
    if backend not in BACKENDS:
        raise ValidationError(
            f"unknown execution backend {backend!r}; choose from {list(BACKENDS)}"
        )
    return backend


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask, not the host's count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def use_one_heap() -> bool:
    """Have glibc serve every thread's ``malloc`` from the main arena.

    Ranks take turns under a baton and everything else under the GIL, so an
    arena per thread only strands what its thread freed (docs/architecture.md,
    "Resident memory").  Call before the process's first secondary thread: an
    arena born earlier keeps being handed out.  Never raises: False, touching
    nothing, if ``MALLOC_ARENA_MAX`` is exported or libc has no working ``mallopt``.
    """
    if "MALLOC_ARENA_MAX" in os.environ:
        return False
    try:
        import ctypes

        mallopt = ctypes.CDLL(None).mallopt
    except (ImportError, OSError, AttributeError, TypeError):  # TypeError: Windows
        return False
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    return mallopt(-8, 1) == 1  # M_ARENA_MAX; musl has the symbol and returns 0


def build_cluster(preset: str, nodes: int):
    """Instantiate a named cluster preset at ``nodes`` nodes."""
    from repro.cluster import presets

    if preset not in CLUSTER_PRESETS:
        raise ValidationError(
            f"unknown cluster preset {preset!r}; choose from {list(CLUSTER_PRESETS)}"
        )
    return getattr(presets, f"{preset}_cluster")(nodes)


def served_app_names() -> list[str]:
    """Names of the apps the service schedules (imports none of them)."""
    return sorted(APPS)


@functools.cache
def _option_kinds(run_fn: Callable[..., Any]) -> Mapping[str, tuple[str, ...]]:
    """The keyword-only parameters of an app's ``run`` (its option surface),
    each mapped to the JSON kinds its annotation admits."""
    sig = inspect.signature(run_fn, eval_str=True)
    return {
        name: annotation_kinds(p.annotation)
        for name, p in sig.parameters.items()
        if p.kind is inspect.Parameter.KEYWORD_ONLY and name not in _RESERVED_OPTIONS
    }


def _check_values(
    what: str, values: Mapping[str, Any], kinds: Mapping[str, tuple[str, ...]]
) -> None:
    """Require every name of ``values`` in ``kinds`` and its value of the JSON
    kinds listed there; converts nothing."""
    unknown = set(values) - set(kinds)
    if unknown:
        raise ValidationError(f"unknown {what}s {sorted(unknown)}; known: {sorted(kinds)}")
    for name, value in values.items():
        if not is_json(value, *kinds[name]):
            raise ValidationError(
                f"{what} {name!r} must be {' or '.join(kinds[name])}, got {value!r}"
            )


def _tuplify(value: Any) -> Any:
    """Normalize JSON lists back to tuples (config dataclass form)."""
    if isinstance(value, (list, tuple)):
        return tuple(_tuplify(v) for v in value)
    return value


def _plan_key(doc: Mapping[str, Any] | None) -> str | None:
    """A fault-plan document's hash form: the plan's order-independent
    :meth:`~repro.faults.plan.FaultPlan.canonical_key`."""
    if doc is None:
        return None
    from repro.faults.plan import FaultPlan

    return FaultPlan.from_dict(dict(doc)).canonical_key()


@dataclass(frozen=True)
class JobSpec:
    """Everything that determines one simulation job's result.

    Args:
        app: Application name (one of :func:`served_app_names`).
        nodes: Cluster node count.
        mix: Device mix per node (see :data:`repro.core.env.DEVICE_MIXES`);
            a hand-written baseline runs only the one its registry row names.
        preset: Cluster preset name (:data:`CLUSTER_PRESETS`).
        scale: ``"quick"`` (CI-sized config, the default) or ``"full"``
            (the app's paper-sized defaults).
        params: Config-field overrides applied on top of the scale's
            default config (e.g. ``{"seed": 3, "iterations": 2}``).  JSON
            lists are converted to tuples for tuple-valued fields.
        options: App ``run()`` keyword options (e.g. ``overlap``,
            ``reliable``, ``checkpoint_every``, ``time_block``), validated
            against the app's signature at construction.
        fault_plan: Optional :meth:`FaultPlan.to_dict` document; one with
            crashes needs ``options["checkpoint_every"]``.
        backend: ``"processes"`` runs the job in a worker process;
            ``"threads"`` or ``None`` in the executor's own.
        priority: Higher runs first; ties in submission order.
        trace: Capture a per-rank observability trace; the result then
            carries a Chrome-trace document and an analysis report,
            fetchable through the API.
    """

    app: str
    nodes: int = 4
    mix: str = "cpu+2gpu"
    preset: str = "ohio"
    scale: str = "quick"
    params: Mapping[str, Any] = field(default_factory=dict)
    options: Mapping[str, Any] = field(default_factory=dict)
    fault_plan: Mapping[str, Any] | None = field(default=None, metadata={"hash_form": _plan_key})
    backend: str | None = None
    priority: int = 0
    trace: bool = False

    def __post_init__(self) -> None:
        from repro.core.env import DEVICE_MIXES

        if self.app not in APPS:
            raise ValidationError(
                f"unknown app {self.app!r}; served apps: {served_app_names()}"
            )
        if not isinstance(self.nodes, int) or self.nodes < 1:
            raise ValidationError(f"nodes must be an int >= 1, got {self.nodes!r}")
        if self.mix not in DEVICE_MIXES:
            raise ValidationError(
                f"unknown mix {self.mix!r}; choose from {sorted(DEVICE_MIXES)}"
            )
        if self.preset not in CLUSTER_PRESETS:
            raise ValidationError(
                f"unknown preset {self.preset!r}; choose from {list(CLUSTER_PRESETS)}"
            )
        if self.scale not in ("quick", "full"):
            raise ValidationError(f"scale must be 'quick' or 'full', got {self.scale!r}")
        if not isinstance(self.priority, int):
            raise ValidationError(f"priority must be an int, got {self.priority!r}")
        resolve_backend(self.backend)  # raises on unknown names
        # Freeze the mapping fields so the spec is safely shareable.
        object.__setattr__(self, "params", dict(self.params or {}))
        object.__setattr__(self, "options", dict(self.options or {}))
        entry = APPS[self.app]  # imports this app's module, and only this one
        entry.check(self.app, self.nodes, self.mix)
        _check_values(f"{self.app} config param", self.params, wire_fields(entry.config_type))
        allowed = _option_kinds(entry.run)
        _check_values(f"{self.app} option", self.options, allowed)
        if self.fault_plan is not None:
            # Validates field names/ranges; the plan itself is rebuilt at
            # execution time (plans carry runtime state, specs must not).
            self.build_fault_plan()
            if self.fault_plan.get("crashes") and self.options.get("checkpoint_every") is None:
                raise ValidationError(
                    "a fault plan with crashes needs options.checkpoint_every: only a "
                    f"checkpointed loop polls for a crash; {self.app} options: {sorted(allowed)}"
                )

    # -- derived views ---------------------------------------------------
    @functools.cached_property
    def ranks(self) -> int:
        """Rank-budget cost of this job: the rank threads it runs, one per
        node, or one per core for a baseline whose row says so."""
        if not APPS[self.app].rank_per_core:
            return self.nodes
        return self.nodes * build_cluster(self.preset, self.nodes).node.cpu.cores

    def build_config(self) -> Any:
        """The app config this spec runs: scale default + ``params``."""
        entry = APPS[self.app]
        base = entry.quick_config() if self.scale == "quick" else entry.config_type()
        if not self.params:
            return base
        overrides = {k: _tuplify(v) for k, v in self.params.items()}
        return dataclasses.replace(base, **overrides)

    def build_fault_plan(self):
        """A fresh :class:`FaultPlan` for one execution (or ``None``)."""
        if self.fault_plan is None:
            return None
        from repro.faults.plan import FaultPlan

        return FaultPlan.from_dict(dict(self.fault_plan))

    # -- canonical identity ------------------------------------------------
    def canonical(self) -> dict[str, Any]:
        """The hash-relevant content in canonical form: every field but
        :data:`NON_SEMANTIC_FIELDS`, listified or in its ``hash_form``."""
        return {
            f.name: f.metadata.get("hash_form", to_wire)(getattr(self, f.name))
            for f in dataclasses.fields(self)
            if f.name not in NON_SEMANTIC_FIELDS
        }

    def canonical_json(self) -> str:
        return json.dumps(self.canonical(), sort_keys=True, separators=(",", ":"))

    def content_hash(self) -> str:
        """SHA-256 content address of this job's result."""
        return hashlib.sha256(self.canonical_json().encode("utf-8")).hexdigest()

    # -- wire format -------------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        return to_wire(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "JobSpec":
        """The spec a JSON document describes; every malformed document
        raises :class:`ValidationError` (value ranges of app params are the
        app's to check, when the job runs)."""
        check_document("job-spec", cls, data)
        return cls(**data)


# -- execution -------------------------------------------------------------
def _json_number(value: Any) -> bool:
    return isinstance(value, (bool, int, float)) or (
        hasattr(value, "item") and getattr(value, "ndim", 1) == 0
    )


def _scalar(value: Any) -> Any:
    return value.item() if hasattr(value, "item") else value


def _extract_metrics(rank0_value: Any) -> dict[str, Any]:
    """Small JSON-able facts from rank 0's return value (arrays skipped)."""
    metrics: dict[str, Any] = {}
    if not isinstance(rank0_value, dict):
        return metrics
    for key, value in rank0_value.items():
        if _json_number(value) or isinstance(value, str):
            metrics[key] = _scalar(value)
        elif (
            isinstance(value, (list, tuple))
            and len(value) <= 256
            and all(_json_number(v) for v in value)
        ):
            metrics[key] = [_scalar(v) for v in value]
    return metrics


def _result_digest(result: Any) -> str | None:
    """SHA-256 of the app's functional result arrays, when there are any.

    A result is one array, or a per-rank list of dicts whose array values
    are hashed in rank order and key order (each after its key).
    """
    import numpy as np

    if isinstance(result, np.ndarray):
        arrays = [(None, result)]
    elif isinstance(result, list):
        arrays = [
            (key, value)
            for part in result
            if isinstance(part, dict)
            for key, value in sorted(part.items())
            if isinstance(value, np.ndarray)
        ]
    else:
        return None
    if not arrays:
        return None
    h = hashlib.sha256()
    for key, array in arrays:
        if key is not None:
            h.update(key.encode())
        h.update(str(array.dtype).encode())
        h.update(str(array.shape).encode())
        h.update(np.ascontiguousarray(array))  # hashed where it lies, not copied
    return h.hexdigest()


def execute_job(spec: JobSpec) -> dict[str, Any]:
    """Run one job to completion and return its JSON-able result payload.

    The only call of an app's ``run`` outside :mod:`repro.apps`, and the
    reference for the service's bit-identity guarantee: a job's
    ``makespan`` is repr-equal however the spec reached this function
    (floats survive the JSON round trip exactly).  A traced spec's payload
    also carries the Chrome trace and the analysis report, which must pass
    :meth:`~repro.obs.analysis.RunReport.verify` or the job fails.  A
    ``backend="processes"`` spec is handed, as its dict, to a job worker
    process, which returns the payload this function builds there — same
    loop, different process.
    """
    if spec.backend == "processes":
        from repro.serve.jobpool import run_in_worker

        return run_in_worker(spec.to_dict())
    plan = spec.build_fault_plan()
    kwargs: dict[str, Any] = dict(spec.options)
    if plan is not None:
        kwargs["fault_plan"] = plan
    if spec.trace:
        kwargs["trace"] = True
    apprun = APPS[spec.app].run(
        build_cluster(spec.preset, spec.nodes), spec.build_config(), spec.mix, **kwargs
    )

    payload: dict[str, Any] = {
        "app": apprun.app,
        "nodes": apprun.nodes,
        "mix": apprun.mix,
        "preset": spec.preset,
        "scale": spec.scale,
        "makespan": apprun.makespan,
        "seq_time": apprun.seq_time,
        "speedup": apprun.speedup,
        "metrics": _extract_metrics(apprun.spmd.values[0]),
        "result_digest": _result_digest(apprun.result),
        "fault_stats": None if plan is None else plan.stats_snapshot(),
        "spec_hash": spec.content_hash(),
    }
    if spec.trace:
        from repro.obs.analysis import analyze
        from repro.obs.export import export_chrome_trace

        report = analyze(apprun.spmd, app_makespan=apprun.makespan)
        report.verify()
        payload["trace"] = export_chrome_trace(apprun.spmd.traces, apprun.spmd.makespan)
        payload["report"] = report.to_dict()
    return payload
