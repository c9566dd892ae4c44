"""repro.obs — the observability subsystem.

Spans, counters and full-run timeline histories (all recorded by an
enabled :class:`~repro.sim.trace.Trace`, one per rank), post-run analysis
(utilization, phase attribution, critical path), and exporters
(Chrome-trace/Perfetto JSON, plain text, machine JSON).  See the
"Observability" section of ``docs/architecture.md``.

Typical use::

    from repro.obs import analyze, render_text_report
    result = spmd_run(prog, cluster, trace=True)
    report = analyze(result)
    report.verify()                      # reconciliation + contiguity
    print(render_text_report(report))
"""

from repro.util.lazy import lazy_exports

# Lazy (PEP 562): analysis, export and the text report (which pulls
# ``repro.metrics``) load on use.
__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "analysis": [
            "PathLink",
            "PhaseBreakdown",
            "RunReport",
            "TimelineStats",
            "aggregate_counters",
            "analyze",
            "attribute_phases",
            "critical_path",
            "match_messages",
            "timeline_stats",
        ],
        "export": ["export_chrome_trace", "validate_chrome_trace", "write_chrome_trace"],
        "profile": ["PROFILE_APPS"],
        "report": ["render_text_report"],
    },
)
