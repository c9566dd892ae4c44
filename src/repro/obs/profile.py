"""The app table under its profiling name.

``repro profile`` is :func:`repro.serve.spec.execute_job` on a traced
spec, whose payload carries the verified analysis report; what remains
here is the name the benchmark's traced server interposes on.
"""

from __future__ import annotations

from repro.apps.registry import APPS as PROFILE_APPS  # the one app table
