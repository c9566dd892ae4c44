"""Experiment harness: figure/table computation, code size, reporting.

:mod:`repro.metrics.figures` contains one driver per paper artifact
(Fig. 5, Fig. 6, Table II, Fig. 7, Fig. 8 plus the §IV-C text numbers);
each returns structured rows that the benchmark suite prints and that
``examples/generate_experiments_md.py`` renders into EXPERIMENTS.md.
"""

from repro.util.lazy import lazy_exports

# Lazy (PEP 562): ``figures`` imports the campaign engine; the table and
# chart helpers (used by ``repro.obs.report``) must not drag it in.
__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "codesize": ["count_logical_lines", "code_size_table"],
        "reporting": ["format_table"],
        "ascii_chart": ["fig5_chart", "render_chart"],
    },
    submodules=["figures"],
)
