"""Post-run analysis: phase attribution, utilization, critical path.

These encode the subsystem's acceptance bar: attribution reconciles to the
makespan within 1e-9 relative, the critical path is a contiguous chain
ending at the makespan, and instrumentation never perturbs timing
(bit-identical makespans with observability on or off — including under
fault injection with retransmits).
"""

import pytest

from repro.cluster.presets import laptop_cluster, ohio_cluster
from repro.faults.plan import FaultPlan
from repro.obs import aggregate_counters, analyze, match_messages
from repro.obs.profile import PROFILE_APPS
from repro.util.errors import ValidationError
from tests.conftest import profile


def own_run(app):
    """``(nodes, mix)`` a profile of ``app`` runs: 2 nodes and cpu+2gpu, or
    as much of that as the entry's row allows (a baseline has one mix)."""
    entry = PROFILE_APPS[app]
    return min(2, entry.max_nodes or 2), entry.mixes[0] if entry.mixes else "cpu+2gpu"


@pytest.mark.parametrize("app", sorted(PROFILE_APPS))
def test_profile_reconciles_for_every_app(app):
    nodes, mix = own_run(app)
    apprun, report = profile(app, nodes=nodes, mix=mix)
    report.verify()  # raises on any reconciliation failure
    assert report.makespan == apprun.spmd.makespan
    # Every rank's phases tile [0, makespan] exactly.
    for ph in report.phases:
        assert ph.total == pytest.approx(report.makespan, rel=1e-9)
    # The critical path is chronological, contiguous, and ends at the
    # makespan (verify() checks gaps; check the endpoints here too).
    path = report.critical_path
    assert path, "critical path must not be empty"
    assert path[0].start == pytest.approx(0.0, abs=1e-12)
    assert path[-1].end == pytest.approx(report.makespan, rel=1e-9)
    for prev, link in zip(path, path[1:]):
        assert link.start <= prev.end + 1e-9 * report.makespan  # contiguous
    # Utilization is a sane fraction for every timeline.
    for tl in report.timelines:
        assert 0.0 <= tl.utilization <= 1.0 + 1e-9
        assert tl.idle >= -1e-12


def test_unknown_app_and_scale_rejected():
    with pytest.raises(ValidationError):
        profile("nbody")
    with pytest.raises(ValidationError):
        profile("kmeans", scale="huge")


@pytest.mark.parametrize("app", sorted(PROFILE_APPS))
def test_makespan_bit_identical_with_obs_on_and_off(app):
    nodes, mix = own_run(app)
    cluster = ohio_cluster(nodes)
    entry = PROFILE_APPS[app]
    cfg = entry.quick_config()
    plain = entry.run(cluster, cfg, mix)
    observed = entry.run(cluster, cfg, mix, trace=True)
    assert observed.makespan == plain.makespan  # bit-identical, not approx


def test_bit_identical_under_fault_injection_with_retransmits():
    cluster = ohio_cluster(2)
    entry = PROFILE_APPS["heat3d"]
    cfg = entry.quick_config()
    plain = entry.run(
        cluster, cfg, "cpu+2gpu", reliable=True, fault_plan=FaultPlan.lossy(7, drop=0.3)
    )
    observed = entry.run(
        cluster,
        cfg,
        "cpu+2gpu",
        reliable=True,
        fault_plan=FaultPlan.lossy(7, drop=0.3),
        trace=True,
    )
    assert observed.makespan == plain.makespan
    report = analyze(observed.spmd)
    report.verify()
    assert report.counters.get("comm.retransmits", 0) > 0
    assert report.counters.get("comm.acks_sent", 0) > 0
    # Retransmit spans land in the fault category and get attributed.
    assert any(
        tr.filter(category="fault", label_prefix="retransmit")
        for tr in observed.spmd.traces
    )


def test_match_messages_pairs_sends_with_recvs():
    def prog(ctx):
        if ctx.rank == 0:
            for i in range(3):
                ctx.comm.send(b"x" * 256, dest=1, tag=5)
        else:
            for i in range(3):
                ctx.comm.recv(source=0, tag=5)

    from repro.sim.engine import spmd_run

    res = spmd_run(prog, laptop_cluster(num_nodes=2), trace=True)
    edges = match_messages(res.traces)
    recvs = res.traces[1].filter(category="comm", label_prefix="recv")
    assert len(edges) == 3
    sends = res.traces[0].filter(category="comm", label_prefix="send")
    # FIFO pairing: the n-th recv matches the n-th send of the stream.
    for i, rv in enumerate(recvs):
        src_rank, send_ev = edges[id(rv)]
        assert src_rank == 0
        assert send_ev is sends[i]


def test_aggregate_counters_sums_ranks():
    from repro.sim.trace import Trace

    t0, t1 = Trace(0), Trace(1)
    t0.count("msgs", 2)
    t1.count("msgs", 3)
    t1.count("bytes", 100)
    assert aggregate_counters([t0, t1]) == {"msgs": 5.0, "bytes": 100.0}


def test_report_to_dict_is_json_serializable():
    import json

    _, report = profile("sobel", nodes=2)
    blob = json.dumps(report.to_dict())
    assert "critical_path" in blob and "phases" in blob


def test_phase_attribution_accounts_for_waits():
    """A rank stalled on a late sender must show the stall as wait time."""

    def prog(ctx):
        if ctx.rank == 0:
            ctx.clock.advance(1.0)  # rank 1 blocks on this for ~1s
            ctx.comm.send(b"x" * 64, dest=1, tag=1)
        else:
            ctx.comm.recv(source=0, tag=1)

    from repro.sim.engine import spmd_run

    res = spmd_run(prog, laptop_cluster(num_nodes=2), trace=True)
    report = analyze(res)
    report.verify()
    r1 = report.phases[1]
    assert r1.wait == pytest.approx(1.0, rel=0.1)
    # The critical path should cross the message edge back to rank 0.
    ranks_on_path = {link.rank for link in report.critical_path}
    assert ranks_on_path == {0, 1}
    assert any(link.phase == "wire" for link in report.critical_path)
