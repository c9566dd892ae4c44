"""The app table under its profiling name.

``repro profile`` is :func:`repro.serve.spec.run_spec` on a traced spec
followed by :func:`repro.obs.analysis.analyze`; what remains here is the
name the benchmark's traced server interposes on.
"""

from __future__ import annotations

from repro.apps.registry import APPS as PROFILE_APPS  # the one app table
