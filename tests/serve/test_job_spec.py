"""JobSpec validation, canonicalization, and content hashing."""

import hashlib

import numpy as np
import pytest

from repro.faults.plan import FaultPlan, LinkDegradation, MessageFaultRule, RankCrash
from repro.serve.spec import JobSpec, _result_digest, build_cluster, served_app_names
from repro.util.errors import ValidationError


# ------------------------------------------------------------- validation
def test_served_apps_match_cli_apps():
    assert served_app_names() == sorted(
        ["kmeans", "moldyn", "minimd", "sobel", "heat3d", "jacobi2d"]
    )


def test_unknown_app_rejected():
    with pytest.raises(ValidationError, match="unknown app"):
        JobSpec(app="nbody")


def test_unknown_preset_mix_scale_rejected():
    with pytest.raises(ValidationError, match="preset"):
        JobSpec(app="heat3d", preset="mars")
    with pytest.raises(ValidationError, match="mix"):
        JobSpec(app="heat3d", mix="tpu")
    with pytest.raises(ValidationError, match="scale"):
        JobSpec(app="heat3d", scale="huge")


def test_unknown_config_param_rejected():
    with pytest.raises(ValidationError, match="config params"):
        JobSpec(app="heat3d", params={"voxels": 7})


def test_unknown_run_option_rejected():
    with pytest.raises(ValidationError, match="options"):
        JobSpec(app="moldyn", options={"until_tol": 1e-3})


def test_reserved_option_names_rejected():
    with pytest.raises(ValidationError, match="options"):
        JobSpec(app="heat3d", options={"backend": "threads"})


def test_bad_nodes_workers_backend_rejected():
    with pytest.raises(ValidationError, match="nodes"):
        JobSpec(app="heat3d", nodes=0)
    # The worker count is no longer a spec field: the job pool sizes itself.
    with pytest.raises(ValidationError, match="unknown job-spec fields.*workers"):
        JobSpec.from_dict({"app": "heat3d", "workers": 2})
    with pytest.raises(ValidationError, match="backend"):
        JobSpec(app="heat3d", backend="gpu")


def test_bad_fault_plan_rejected():
    with pytest.raises(ValidationError, match="drop_prob"):
        JobSpec(app="heat3d", fault_plan={"rules": [{"drop_prob": 2.0}]})
    with pytest.raises(ValidationError, match="unknown fault-plan keys"):
        JobSpec(app="heat3d", fault_plan={"rulez": []})


def test_build_config_applies_params_and_tuples():
    spec = JobSpec(
        app="heat3d",
        params={"functional_shape": [12, 12, 12], "simulated_steps": 2, "seed": 3},
    )
    config = spec.build_config()
    assert config.functional_shape == (12, 12, 12)
    assert config.simulated_steps == 2 and config.seed == 3


def test_build_cluster_presets():
    assert build_cluster("laptop", 3).num_nodes == 3
    assert build_cluster("ohio", 2).num_nodes == 2
    with pytest.raises(ValidationError, match="preset"):
        build_cluster("moon", 2)


# ------------------------------------------------------------- wire format
def test_round_trip_through_dict():
    spec = JobSpec(
        app="kmeans",
        nodes=3,
        preset="laptop",
        mix="cpu",
        params={"functional_points": 5000, "seed": 2},
        options={"reliable": True},
        priority=7,
        trace=True,
    )
    clone = JobSpec.from_dict(spec.to_dict())
    assert clone == spec
    assert clone.content_hash() == spec.content_hash()


def test_from_dict_rejects_unknown_fields():
    with pytest.raises(ValidationError, match="unknown job-spec fields"):
        JobSpec.from_dict({"app": "heat3d", "speed": "ludicrous"})
    with pytest.raises(ValidationError, match="requires an 'app'"):
        JobSpec.from_dict({"nodes": 2})


# ------------------------------------------------------------- content hash
def test_hash_ignores_non_semantic_fields():
    base = JobSpec(app="heat3d", nodes=2)
    assert base.content_hash() == JobSpec(app="heat3d", nodes=2, priority=9).content_hash()
    assert (
        base.content_hash()
        == JobSpec(app="heat3d", nodes=2, backend="processes").content_hash()
    )


def test_hash_sees_semantic_fields():
    base = JobSpec(app="heat3d", nodes=2)
    assert base.content_hash() != JobSpec(app="heat3d", nodes=3).content_hash()
    assert base.content_hash() != JobSpec(app="sobel", nodes=2).content_hash()
    assert base.content_hash() != JobSpec(app="heat3d", nodes=2, mix="cpu").content_hash()
    assert (
        base.content_hash()
        != JobSpec(app="heat3d", nodes=2, params={"seed": 1}).content_hash()
    )
    assert (
        base.content_hash()
        != JobSpec(app="heat3d", nodes=2, options={"overlap": False}).content_hash()
    )
    assert base.content_hash() != JobSpec(app="heat3d", nodes=2, trace=True).content_hash()


def test_hash_independent_of_param_dict_order():
    a = JobSpec(app="heat3d", params={"seed": 1, "simulated_steps": 2})
    b = JobSpec(app="heat3d", params={"simulated_steps": 2, "seed": 1})
    assert a.content_hash() == b.content_hash()


# ----------------------------------------------- fault-plan canonical key
def _rules():
    return [
        MessageFaultRule(drop_prob=0.1, src=0, dst=1, t_end=2.0),
        MessageFaultRule(dup_prob=0.2, t_start=1.0),
    ]


def test_canonical_key_order_independent():
    a = FaultPlan(seed=3, rules=_rules())
    b = FaultPlan(seed=3, rules=list(reversed(_rules())))
    assert a.canonical_key() == b.canonical_key()

    crashes = [RankCrash(0, 1.0), RankCrash(2, 0.5, restart_cost=2.0)]
    c = FaultPlan(seed=3, crashes=crashes)
    d = FaultPlan(seed=3, crashes=list(reversed(crashes)))
    assert c.canonical_key() == d.canonical_key()

    degs = [LinkDegradation(bandwidth_factor=0.5), LinkDegradation(extra_latency=1e-4)]
    e = FaultPlan(degradations=degs)
    f = FaultPlan(degradations=list(reversed(degs)))
    assert e.canonical_key() == f.canonical_key()


def test_canonical_key_sees_differences():
    base = FaultPlan(seed=3, rules=_rules())
    assert base.canonical_key() != FaultPlan(seed=4, rules=_rules()).canonical_key()
    assert base.canonical_key() != FaultPlan(seed=3).canonical_key()
    tweaked = [_rules()[0], MessageFaultRule(dup_prob=0.25, t_start=1.0)]
    assert base.canonical_key() != FaultPlan(seed=3, rules=tweaked).canonical_key()
    assert (
        FaultPlan(crashes=[RankCrash(0, 1.0)]).canonical_key()
        != FaultPlan(crashes=[RankCrash(0, 1.0, restart_cost=2.0)]).canonical_key()
    )


def test_canonical_key_ignores_runtime_state():
    plan = FaultPlan(seed=1, crashes=[RankCrash(0, 0.5)])
    before = plan.canonical_key()
    plan.consume_crash(plan.crashes[0])
    plan.decide(0, 1, 0, 0.0)
    assert plan.canonical_key() == before


def test_fault_plan_dict_round_trip():
    plan = FaultPlan(
        seed=9,
        rules=_rules(),
        degradations=[LinkDegradation(bandwidth_factor=0.25, src=1, t_end=3.0)],
        crashes=[RankCrash(1, 0.05, restart_cost=0.5)],
    )
    clone = FaultPlan.from_dict(plan.to_dict())
    assert clone.canonical_key() == plan.canonical_key()
    # infinite windows survive the "inf" string encoding
    assert clone.rules[1].t_end == float("inf")


def test_spec_hash_independent_of_fault_rule_order():
    a = JobSpec(app="heat3d", fault_plan=FaultPlan(seed=3, rules=_rules()).to_dict())
    b = JobSpec(
        app="heat3d",
        fault_plan=FaultPlan(seed=3, rules=list(reversed(_rules()))).to_dict(),
    )
    assert a.content_hash() == b.content_hash()
    c = JobSpec(app="heat3d", fault_plan=FaultPlan(seed=4, rules=_rules()).to_dict())
    assert a.content_hash() != c.content_hash()


# ---------------------------------------------------------------- result digest
def _copied_digest(result: np.ndarray) -> str:
    """The formula every stored digest was made with: hash a contiguous copy."""
    h = hashlib.sha256()
    h.update(str(result.dtype).encode())
    h.update(str(result.shape).encode())
    h.update(np.ascontiguousarray(result).tobytes())
    return h.hexdigest()


_BASE = np.arange(24 * 18, dtype=np.float64).reshape(24, 18) / 7.0


@pytest.mark.parametrize(
    "result",
    [
        _BASE,
        np.asfortranarray(_BASE),
        _BASE[3:21:2, ::3],  # neither order: hashed through one contiguous copy
        _BASE.astype(np.float32)[:, 5],
        np.array(2.5),  # 0-d
        np.empty((0, 3), dtype=np.int64),
    ],
    ids=["c_order", "fortran_order", "sliced", "column", "zero_d", "empty"],
)
def test_result_digest_hashes_in_place_what_it_used_to_copy(result):
    assert _result_digest(result) == _copied_digest(result)


def test_result_digest_is_for_arrays_only():
    assert _result_digest(None) is None and _result_digest({"energy": 1.0}) is None
