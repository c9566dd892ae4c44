"""The ``repro profile`` driver: run an app under observation, analyze it.

Runs one of the five paper applications with per-rank
:class:`~repro.obs.recorder.Recorder` instances installed (spans, counters
and full-run timeline histories), then produces the
:class:`~repro.obs.analysis.RunReport` the CLI renders or exports.

The report's ``makespan`` is the *simulated* makespan (the slowest rank's
final virtual clock) — that is what phase attribution, utilization and the
critical path reconcile against.  Apps that extrapolate a few simulated
steps to the paper's full iteration count report that larger number as
``app_makespan`` alongside.
"""

from __future__ import annotations

from typing import Any

from repro.apps.common import AppRun
from repro.apps.registry import APPS as PROFILE_APPS  # the one app table
from repro.cluster.presets import ohio_cluster
from repro.cluster.specs import ClusterSpec
from repro.obs.analysis import RunReport, analyze
from repro.obs.recorder import Recorder
from repro.util.errors import ConfigurationError


def profile_app(
    app: str,
    *,
    cluster: ClusterSpec | None = None,
    nodes: int = 4,
    mix: str = "cpu+2gpu",
    scale: str = "quick",
    **run_kwargs: Any,
) -> tuple[AppRun, RunReport]:
    """Run ``app`` with observability on; return (app result, report)."""
    try:
        entry = PROFILE_APPS[app]
    except KeyError:
        raise ConfigurationError(
            f"unknown app {app!r}; known: {sorted(PROFILE_APPS)}"
        ) from None
    if scale not in ("quick", "full"):
        raise ConfigurationError(f"scale must be 'quick' or 'full', got {scale!r}")
    if cluster is None:
        cluster = ohio_cluster(nodes)
    config = entry.quick_config() if scale == "quick" else None
    apprun = entry.run(
        cluster, config, mix, recorder_factory=Recorder, **run_kwargs
    )
    report = analyze(apprun.spmd, app_makespan=apprun.makespan)
    return apprun, report
