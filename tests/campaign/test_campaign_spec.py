"""Campaign spec expansion: deterministic, canonical, validated up front."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.campaign import AXES, CampaignSpec, resolve_campaign_backend
from repro.util.errors import ValidationError


def _doc(**over):
    doc = {
        "name": "t",
        "axes": {
            "app": ["heat3d", "kmeans"],
            "preset": ["laptop"],
            "mix": ["cpu"],
            "nodes": [1, 2],
            "seed": [0, 1],
        },
        "backend": None,
    }
    doc.update(over)
    return doc


def test_product_expansion_counts_and_order():
    spec = CampaignSpec.from_dict(_doc())
    points = spec.expand()
    assert len(points) == 2 * 2 * 2
    # AXES order: app is the outermost axis, seed the innermost
    assert [p.app for p in points] == ["heat3d"] * 4 + ["kmeans"] * 4
    assert [p.params["seed"] for p in points] == [0, 1] * 4
    assert [p.nodes for p in points] == [1, 1, 2, 2] * 2


def test_expansion_is_deterministic():
    a = CampaignSpec.from_dict(_doc()).expand()
    b = CampaignSpec.from_dict(json.loads(json.dumps(_doc()))).expand()
    assert [p.content_hash() for p in a] == [p.content_hash() for p in b]


def test_scalar_axis_values_are_single_points():
    spec = CampaignSpec.from_dict(_doc(axes={"app": "heat3d", "preset": "laptop", "mix": "cpu"}))
    points = spec.expand()
    assert len(points) == 1 and points[0].app == "heat3d"


def test_per_app_overrides_layer_over_globals():
    spec = CampaignSpec.from_dict(
        _doc(
            params={"seed": 9},
            app_params={"kmeans": {"iterations": 3}, "heat3d": {"simulated_steps": 2}},
            options={"reliable": True},
            app_options={"heat3d": {"overlap": False}},
        )
    )
    by_app = {}
    for p in spec.expand():
        by_app.setdefault(p.app, p)
    assert by_app["heat3d"].params["simulated_steps"] == 2
    assert "iterations" not in by_app["heat3d"].params
    assert by_app["kmeans"].params["iterations"] == 3
    assert by_app["kmeans"].params["seed"] == 0  # the seed axis wins over globals
    assert by_app["heat3d"].options["overlap"] is False
    assert by_app["heat3d"].options["reliable"] is True
    assert by_app["kmeans"].options == {"reliable": True}


def test_fault_plan_axis_and_explicit_points():
    plan = {"seed": 7}
    extra = {"app": "heat3d", "nodes": 4, "preset": "laptop", "mix": "cpu"}
    spec = CampaignSpec.from_dict(
        _doc(axes={"app": ["heat3d"], "preset": "laptop", "mix": "cpu",
                   "fault_plan": [None, plan]},
             points=[extra])
    )
    points = spec.expand()
    assert len(points) == 3
    assert points[0].fault_plan is None and points[1].fault_plan is not None
    assert points[2].nodes == 4  # the explicit point rides along


def test_seed_axis_writes_params_without_clobbering_none():
    spec = CampaignSpec.from_dict(
        _doc(axes={"app": ["heat3d"], "preset": "laptop", "mix": "cpu"},
             params={"seed": 42})
    )
    # no seed axis -> the global param stays
    assert spec.expand()[0].params["seed"] == 42


def test_validation_errors():
    with pytest.raises(ValidationError, match="unknown campaign axes"):
        CampaignSpec.from_dict(_doc(axes={"app": ["heat3d"], "bogus": [1]}))
    with pytest.raises(ValidationError, match="'app' axis"):
        CampaignSpec.from_dict(_doc(axes={"nodes": [1]}))
    with pytest.raises(ValidationError, match="duplicate"):
        CampaignSpec.from_dict(_doc(axes={"app": ["heat3d", "heat3d"]}))
    with pytest.raises(ValidationError, match="must not be empty"):
        CampaignSpec.from_dict(_doc(axes={"app": ["heat3d"], "nodes": []}))
    with pytest.raises(ValidationError, match="unknown campaign fields"):
        CampaignSpec.from_dict(_doc(zap=1))
    with pytest.raises(ValidationError, match="outside the 'app' axis"):
        CampaignSpec.from_dict(_doc(app_params={"sobel": {}}))
    with pytest.raises(ValidationError, match="requires 'name'"):
        CampaignSpec.from_dict({"axes": {"app": ["heat3d"]}})
    for doc in (None, 5, "fuzz", ["name"]):
        with pytest.raises(ValidationError, match="campaign must be an object"):
            CampaignSpec.from_dict(doc)


def test_invalid_point_names_its_coordinates():
    doc = _doc(axes={"app": ["heat3d"], "preset": "laptop", "mix": "cpu"},
               params={"bogus_param": 1})
    with pytest.raises(ValidationError, match=r"app=heat3d.*mix=cpu.*bogus_param"):
        CampaignSpec.from_dict(doc).expand()


def test_roundtrip_and_load(tmp_path):
    spec = CampaignSpec.from_dict(_doc())
    again = CampaignSpec.from_dict(spec.to_dict())
    assert [p.content_hash() for p in again.expand()] == [
        p.content_hash() for p in spec.expand()
    ]
    path = tmp_path / "c.json"
    path.write_text(json.dumps(spec.to_dict()), encoding="utf-8")
    assert CampaignSpec.load(path).name == spec.name
    with pytest.raises(ValidationError, match="not valid JSON"):
        (tmp_path / "bad.json").write_text("{", encoding="utf-8")
        CampaignSpec.load(tmp_path / "bad.json")
    with pytest.raises(ValidationError, match="cannot read"):
        CampaignSpec.load(tmp_path / "missing.json")


def test_auto_backend_resolution(monkeypatch):
    import repro.campaign.spec as cspec

    monkeypatch.setattr(cspec, "usable_cpus", lambda: 8)
    assert resolve_campaign_backend("auto") == "processes"
    monkeypatch.setattr(cspec, "usable_cpus", lambda: 1)
    assert resolve_campaign_backend("auto") is None
    assert resolve_campaign_backend("threads") == "threads"
    assert resolve_campaign_backend(None) is None


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs CPU affinity")
def test_auto_backend_counts_usable_cpus_not_host_cpus():
    """Regression: ``os.cpu_count()`` ignores affinity, so a process confined
    to one CPU of a multi-CPU host still resolved "auto" to "processes"."""
    probe = (
        "import os\n"
        "os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
        "from repro.campaign import CampaignSpec\n"
        "from repro.serve.spec import usable_cpus\n"
        "spec = CampaignSpec(name='c', axes={'app': ['heat3d']}, backend='auto')\n"
        "print(usable_cpus(), spec.expand()[0].backend)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[2] / "src")}
    done = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["1", "None"]


def test_backend_never_enters_content_hash():
    base = _doc()
    threads = CampaignSpec.from_dict({**base, "backend": "threads"}).expand()
    none = CampaignSpec.from_dict({**base, "backend": None}).expand()
    assert [p.content_hash() for p in threads] == [p.content_hash() for p in none]


def test_axes_constant_matches_defaults():
    # every non-app axis must have a default, or omitting it would KeyError
    from repro.campaign.spec import _AXIS_DEFAULTS

    assert set(AXES) - {"app"} == set(_AXIS_DEFAULTS)
