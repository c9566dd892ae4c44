"""Campaign sweep engine: the paper's whole evaluation as one artifact.

A campaign is the unit the paper's evaluation actually runs in — not one
simulation but a sweep (apps x presets x node counts x device mixes x
scales x seeds x fault plans).  This package makes that sweep a
first-class object:

- :class:`~repro.campaign.spec.CampaignSpec` — the declarative JSON spec
  that expands **deterministically** into canonical
  :class:`~repro.serve.spec.JobSpec` points,
- :class:`~repro.campaign.runner.CampaignRunner` — throughput-optimized
  execution through the job scheduler (one batched submission,
  widest-first backfill ordering, one generation per shared dataset, duplicate-point
  dedup, persistent :class:`~repro.serve.store.ResultStore` beneath the
  LRU so warm re-runs execute **zero** jobs),
- :mod:`~repro.campaign.report` — run tables and paper-figure shapes
  (speedup bars, scaling curves, fault-overhead tables) for terminals.

CLI: ``repro campaign run|status|report``.
"""

from repro.campaign.report import render_report, run_table
from repro.campaign.runner import CampaignResult, CampaignRunner, RUN_TABLE_COLUMNS
from repro.campaign.spec import AXES, CampaignSpec, resolve_campaign_backend

__all__ = [
    "AXES",
    "CampaignResult",
    "CampaignRunner",
    "CampaignSpec",
    "RUN_TABLE_COLUMNS",
    "render_report",
    "resolve_campaign_backend",
    "run_table",
]
