"""JobSpec validation, canonicalization, and content hashing."""

import hashlib
import json
import re

import numpy as np
import pytest

from repro.faults.plan import FaultPlan, LinkDegradation, MessageFaultRule, RankCrash
from repro.apps.registry import APPS
from repro.serve.spec import (
    JobSpec,
    _result_digest,
    build_cluster,
    execute_job,
    served_app_names,
)
from repro.util.errors import ValidationError
from repro.util.validate import wire_fields


# ------------------------------------------------------------- validation
def test_served_apps_match_cli_apps():
    assert served_app_names() == sorted(
        ["kmeans", "moldyn", "minimd", "sobel", "heat3d", "jacobi2d"]
        + ["kmeans-mpi", "minimd-mpi", "sobel-mpi", "heat3d-mpi", "kmeans-cuda", "sobel-cuda"]
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


@pytest.mark.parametrize(
    "app, option, value, expected",
    [
        ("sobel", "tiling", "no", "a boolean"),  # ran as the default, tiling on
        ("heat3d", "reliable", "yes", "a boolean"),  # ran reliable, hashed apart from true
        ("heat3d", "reliable", 1, "a boolean"),
        ("heat3d", "time_block", 2.0, "an integer"),
        ("heat3d", "time_block", True, "an integer"),
        ("heat3d", "until_tol", "abc", "a number or null"),  # died mid-run
        ("heat3d", "until_tol", False, "a number or null"),
        # Config params get the same check, against the config's annotations.
        ("heat3d", "simulated_steps", "abc", "an integer"),  # TypeError mid-run
        ("heat3d", "simulated_steps", 2.5, "an integer"),
        ("heat3d", "functional_shape", "abc", "a list of integers"),
        ("heat3d", "functional_shape", [24, True, 24], "a list of integers"),
        ("heat3d", "seed", True, "an integer"),  # ran as seed 1
        ("jacobi2d", "tol", "1e-3", "a number"),
    ],
)
def test_an_option_value_of_the_wrong_type_is_refused(app, option, value, expected):
    field = "config param" if option in wire_fields(APPS[app].config_type) else "option"
    message = f"{app} {field} '{option}' must be {expected}, got {value!r}"
    doc = {"params" if field == "config param" else "options": {option: value}}
    with pytest.raises(ValidationError, match=re.escape(message)):
        JobSpec(app=app, **doc)
    with pytest.raises(ValidationError, match=re.escape(message)):
        JobSpec.from_dict({"app": app, **doc})


def test_an_option_value_of_the_right_type_is_admitted_unconverted():
    # The check converts nothing: an int where a float is annotated stays an
    # int, and the hash is the one the spec's stored results are addressed by.
    spec = JobSpec(app="heat3d", nodes=2, options={"until_tol": 1, "time_block": 2, "tiling": False})
    assert spec.options == {"until_tol": 1, "time_block": 2, "tiling": False}
    assert spec.content_hash() == "4be8b9a0549b9e7efbde1b5ca364d7ede605dab207e205a362b4d6262f3f93cb"


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
    for plan in (None, 5, "rules", ["rules"]):
        with pytest.raises(ValidationError, match="fault plan must be a dict"):
            FaultPlan.from_dict(plan)


@pytest.mark.parametrize(
    "argv",
    [
        ["heat3d", "--option", "reliable=true",
         "--fault-plan", '{"seed": 7, "crashes": [{"rank": 1, "at_time": 0.005}]}'],
        ["moldyn", "--fault-plan", '{"crashes": [{"rank": 1, "at_time": 0.0}]}'],
    ],
    ids=["heat3d", "moldyn"],
)
def test_a_crash_plan_without_checkpoints_is_refused(argv):
    """Only a checkpointed loop polls for a crash: without a cadence the
    crash never fired and the run reported ``crashes=0``."""
    from repro.cli import main

    with pytest.raises(SystemExit, match="invalid job spec: .*crashes needs options.checkpoint_every"):
        main(["run", *argv])
    plan = {"crashes": [{"rank": 1, "at_time": 0.0}]}
    JobSpec(app="heat3d", options={"checkpoint_every": 2}, fault_plan=plan)
    JobSpec(app="moldyn", fault_plan={**plan, "crashes": []})


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


@pytest.mark.parametrize("app", sorted(APPS))
def test_an_untraced_payload_is_the_same_every_run(app):
    """A payload is stored under its spec's content hash, so it holds only
    what the spec determines: no host time, no run-to-run noise."""
    entry = APPS[app]
    mix = entry.mixes[0] if entry.mixes else "cpu+2gpu"
    spec = JobSpec(app=app, nodes=min(2, entry.max_nodes or 2), mix=mix)
    assert execute_job(spec) == execute_job(spec)


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
    with pytest.raises(ValidationError, match="requires 'app'"):
        JobSpec.from_dict({"nodes": 2})
    for doc in (None, 5, "heat3d", ["app"]):
        with pytest.raises(ValidationError, match="job-spec must be an object"):
            JobSpec.from_dict(doc)


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


def test_a_crash_entry_cannot_arrive_consumed():
    # `consumed` is runtime state: a document naming it hashed like the live
    # crash, so the result cache could answer one with the other's payload.
    used = {"seed": 1, "crashes": [{"rank": 1, "at_time": 0.0, "consumed": 1}]}
    with pytest.raises(ValidationError, match=r"unknown fault-plan crashes entry fields \['consumed'\]"):
        FaultPlan.from_dict(used)
    with pytest.raises(ValidationError, match=r"fields \['consumed'\]"):
        JobSpec.from_dict({"app": "heat3d", "nodes": 2, "preset": "laptop", "mix": "cpu",
                           "options": {"reliable": True, "checkpoint_every": 1},
                           "fault_plan": used})  # fmt: skip
    crash = RankCrash(1, 0.0)
    plan = FaultPlan(crashes=[crash])
    assert not crash.consumed and plan.crash_pending(1, 0.0) is crash
    plan.consume_crash(crash)
    plan.consume_crash(crash)
    assert crash.consumed and plan.stats.crashes_consumed == 1
    assert plan.crash_pending(1, 0.0) is None


@pytest.mark.parametrize(
    "plan, message",
    [
        ({"crashes": [{"rank": 1.5, "at_time": 0.0}]}, "field 'rank' must be an integer"),
        ({"rules": [{"src": 0.5}]}, "field 'src' must be an integer or null"),
        ({"rules": [{"dst": 0.5}]}, "field 'dst' must be an integer or null"),
        ({"degradations": [{"src": 0.5}]}, "field 'src' must be an integer or null"),
        ({"rules": [{"drop_prob": None}]}, "field 'drop_prob' must be a number, got NoneType"),
        ({"crashes": [{"at_time": 0.0}]}, "crashes entry requires 'rank' and 'at_time'"),
        ({"crashes": [{"rank": 0}]}, "crashes entry requires 'rank' and 'at_time'"),
    ],
)
def test_an_ill_shaped_fault_plan_entry_is_refused_by_name(plan, message):
    # At 1.5 / 0.5 the crash never fired and the rule never matched.
    with pytest.raises(ValidationError, match=message):
        FaultPlan.from_dict(plan)
    with pytest.raises(ValidationError, match=message):
        JobSpec.from_dict({"app": "heat3d", "fault_plan": plan})


#: A fault plan with every kind of entry and both kinds of window end; its
#: twin lists every entry in reverse.
_PIN_PLAN = {
    "seed": 7,
    "rules": [
        {"drop_prob": 0.1, "src": 0, "dst": 1, "t_end": 2.0},
        {"dup_prob": 0.2, "t_start": 1.0, "t_end": "inf"},
        {"delay_prob": 0.3, "max_delay": 1e-4, "dst": 0},
    ],
    "degradations": [{"bandwidth_factor": 0.5, "src": 1, "t_end": 3.0}, {"extra_latency": 1e-4}],
    "crashes": [{"rank": 1, "at_time": 0.05, "restart_cost": 0.5}, {"rank": 0, "at_time": 1}],
}
_CHECKPOINTED = {"reliable": True, "checkpoint_every": 1}
_PINNED_SPECS = {
    "defaults": (JobSpec(app="heat3d"),
                 "a4f8c7c4db9540f19ae811b42d763beeddbdb321a047d69a8984f1b834d6934c"),
    "tuple_params": (JobSpec(app="heat3d", nodes=2, preset="laptop", mix="cpu",
                             params={"functional_shape": (12, 12, 12), "simulated_steps": 2,
                                     "seed": 3}),
                     "8e4b8f5a760b6906074042a55d233ed4c47589ee7a8280353467cca556dc7c1e"),
    "options": (JobSpec(app="kmeans", nodes=3, options={"reliable": True}, params={"seed": 2}),
                "f5f181148f17f5001beafa466452cbb6558c77cf7ae87a60bd14d465dfa2e218"),
    "traced": (JobSpec(app="sobel", nodes=2, trace=True),
               "f35b31f807acd237b7e776cb7bbc68bdcb47979c0d8ce4f867e67abdb1a47d1b"),
    "backend_priority": (JobSpec(app="sobel", nodes=2, trace=True, backend="processes",
                                 priority=9),
                         "f35b31f807acd237b7e776cb7bbc68bdcb47979c0d8ce4f867e67abdb1a47d1b"),
    "fault_plan": (JobSpec(app="heat3d", nodes=2, options=_CHECKPOINTED, fault_plan=_PIN_PLAN),
                   "f009d595bd787cebd2828b8927691fb1ca709949541893d94870c1782bc200cf"),
    "fault_plan_reversed": (
        JobSpec(app="heat3d", nodes=2, options=_CHECKPOINTED,
                fault_plan={k: v[::-1] if isinstance(v, list) else v for k, v in _PIN_PLAN.items()}),
        "f009d595bd787cebd2828b8927691fb1ca709949541893d94870c1782bc200cf",
    ),
    "t_end_inf": (JobSpec(app="moldyn", nodes=2,
                          fault_plan={"seed": 1, "rules": [{"drop_prob": 0.05, "t_end": "inf"}]}),
                  "05c7a8917b830d9ba85b010366ec4551441aa7e8fc01d9fe2200bae3e4aaa93a"),
}  # fmt: skip


@pytest.mark.parametrize("name", list(_PINNED_SPECS))
def test_content_hashes_are_unchanged(name):
    # Every stored result is addressed by one of these: a change to how a spec
    # is described must leave them byte-identical, or it orphans the store.
    spec, pinned = _PINNED_SPECS[name]
    assert spec.content_hash() == pinned
    assert JobSpec.from_dict(json.loads(json.dumps(spec.to_dict()))).content_hash() == pinned


def test_fault_plan_canonical_key_is_unchanged():
    assert FaultPlan.from_dict(_PIN_PLAN).canonical_key() == (
        "FaultPlan(seed=7, rules=[(0.0, 0.0, 0.3, 0.0001, -1, 0, 0.0, inf), "
        "(0.0, 0.2, 0.0, 0.0, -1, -1, 1.0, inf), (0.1, 0.0, 0.0, 0.0, 0, 1, 0.0, 2.0)], "
        "degradations=[(0.5, 0.0, 1, -1, 0.0, 3.0), (1.0, 0.0001, -1, -1, 0.0, inf)], "
        "crashes=[(0, 1, 1.0), (1, 0.05, 0.5)])"
    )


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


@pytest.mark.parametrize("app", sorted(APPS))
def test_every_registry_app_result_has_a_stable_digest(app):
    """Per-rank lists of dicts are digested too, the same on every run."""
    entry = APPS[app]
    spec = JobSpec(
        app=app,
        nodes=min(2, entry.max_nodes or 2),
        mix=entry.mixes[0] if entry.mixes else JobSpec.mix,
    )
    first, second = (execute_job(spec)["result_digest"] for _ in range(2))
    assert first is not None and first == second
