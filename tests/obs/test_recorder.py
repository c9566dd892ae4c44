"""Timeline history: what an enabled Trace records from the timelines bound to it."""

from repro.cluster.presets import laptop_cluster
from repro.sim.engine import spmd_run
from repro.sim.timeline import Timeline
from repro.sim.trace import IntervalRecord, Trace


def test_trace_captures_timeline_intervals():
    tr = Trace(0)
    tl = Timeline("gpu0.compute")
    tr._attach(tl)
    tl.schedule(0.0, 1.0, "k[0]")
    tl.schedule(2.0, 0.5, "k[1]")
    assert tr.timeline_names == ("gpu0.compute",)
    ivs = tr.intervals
    assert [iv.timeline for iv in ivs] == ["gpu0.compute", "gpu0.compute"]
    assert ivs[0].label == "k[0]"
    assert ivs[1].start == 2.0 and ivs[1].end == 2.5


def test_intervals_survive_timeline_reset():
    # Devices reset their engines every step; the recorded history must not
    # be lost with them.
    tr = Trace(0)
    tl = Timeline("cpu0.core0")
    tr._attach(tl)
    tl.schedule(0.0, 1.0, "a")
    tl.reset(start=5.0)
    tl.schedule(5.0, 1.0, "b")
    assert [iv.label for iv in tr.intervals] == ["a", "b"]
    assert tr.intervals_by_timeline() == {
        "cpu0.core0": [
            IntervalRecord("cpu0.core0", 0.0, 1.0, "a"),
            IntervalRecord("cpu0.core0", 5.0, 6.0, "b"),
        ]
    }


def test_bind_device_attaches_all_engines():
    from repro.device.gpu import GPUDevice

    node = laptop_cluster(num_nodes=1, gpus_per_node=1).node
    dev = GPUDevice(node.gpus[0], 0)
    tr = Trace(0)
    tr.bind_device(dev)
    assert set(tr.timeline_names) == {"gpu0.copy", "gpu0.compute"}


def test_a_disabled_trace_binds_nothing():
    from repro.device.cpu import CPUDevice
    from repro.device.gpu import GPUDevice

    node = laptop_cluster(num_nodes=1, gpus_per_node=1).node
    cpu, gpu = CPUDevice(node.cpu), GPUDevice(node.gpus[0], 0)
    tr = Trace(0, enabled=False)
    tr.bind_device(cpu)
    tr.bind_device(gpu)
    tr.bind_fabric(object())  # never touched
    assert tr.timeline_names == () and tr.intervals == ()
    # The CPU did not build its middle cores, and no engine has a sink.
    assert len(cpu.timelines()) == 2
    assert all(tl._sink is None for tl in cpu.timelines() + gpu.timelines())


def _ping(ctx):
    if ctx.rank == 0:
        ctx.comm.send(b"x" * 1024, dest=1, tag=7)
    else:
        ctx.comm.recv(source=0, tag=7)


def test_spmd_run_with_trace_attaches_nics():
    res = spmd_run(_ping, laptop_cluster(num_nodes=2), trace=True)
    r0, r1 = res.traces
    assert "nic0.egress" in r0.timeline_names
    assert "nic1.ingress" in r1.timeline_names
    assert any(iv.timeline == "nic0.egress" for iv in r0.intervals)
    assert any(iv.timeline == "nic1.ingress" for iv in r1.intervals)
    # The spans themselves recorded too.
    assert [e for e in r0.events if e.category == "comm" and e.label.startswith("send->1")]
    assert r0.counters["comm.bytes_sent"] == 1024.0


def test_an_untraced_run_attaches_no_sink():
    """Untraced scheduling pays nothing: no timeline of any rank has a sink."""
    from repro.core.env import RuntimeEnv

    seen = []

    def prog(ctx):
        env = RuntimeEnv(ctx, "cpu+1gpu")
        lines = [tl for dev in env.devices for tl in dev.timelines()]
        fabric = ctx.comm.fabric
        lines += [fabric.egress_timeline(ctx.rank), fabric.ingress_timeline(ctx.rank)]
        _ping(ctx)
        seen.append([tl._sink for tl in lines])

    res = spmd_run(prog, laptop_cluster(num_nodes=2, gpus_per_node=1))
    assert len(seen) == 2 and all(sink is None for sinks in seen for sink in sinks)
    assert all(tr.timeline_names == () and tr.intervals == () for tr in res.traces)


def test_a_traced_stencil_run_has_timelines_and_resource_events():
    """A plain ``spmd_run(..., trace=True)`` is enough for timeline analysis."""
    from repro.apps.extra import jacobi2d
    from repro.obs import analyze, export_chrome_trace

    cluster = laptop_cluster(num_nodes=2, gpus_per_node=1)
    cfg = jacobi2d.Jacobi2DConfig(shape=(32, 32), max_iters=2)
    res = spmd_run(jacobi2d.rank_program, cluster, args=(cfg, "cpu+1gpu"), trace=True)
    report = analyze(res)
    assert {tl.rank for tl in report.timelines} == {0, 1}
    assert any(tl.busy > 0 for tl in report.timelines)
    events = export_chrome_trace(res.traces, res.makespan)["traceEvents"]
    assert {ev["pid"] for ev in events if ev.get("cat") == "resource"} == {0, 1}
