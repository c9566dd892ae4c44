"""Plain-text report rendering."""

from repro.obs import render_text_report
from repro.obs.report import TOP_LINKS
from tests.conftest import profile


def test_text_report_sections():
    report = profile("heat3d", nodes=2)["report"]
    text = render_text_report(report)
    assert f"{report['makespan']:.9g}" in text
    assert "Phase attribution" in text
    assert "Timeline utilization" in text
    assert "Critical path" in text
    assert "Counters" in text
    assert f"events recorded: {report['n_events']}" in text
    # Utilization renders through the shared ascii bar helper.
    assert "|#" in text
    # One bar per timeline, labelled rank:name.
    assert "r0:nic0.egress" in text
    assert "r0:gpu0.compute" in text


def test_text_report_notes_extrapolated_makespan():
    payload = profile("heat3d", nodes=2)
    text = render_text_report(payload["report"])
    if payload["makespan"] != payload["report"]["makespan"]:
        assert "extrapolated" in text


def test_top_links_truncation():
    report = profile("moldyn", nodes=2)["report"]
    text = render_text_report(report)
    assert len(report["critical_path"]) > TOP_LINKS
    assert f"longest {TOP_LINKS} of {len(report['critical_path'])} links" in text


def _chart(text):
    rows = text.split("Timeline utilization")[1].split("\n\n")[0].splitlines()[1:]
    return [row.split()[0] for row in rows]


def test_a_static_partition_is_drawn_as_its_device():
    """heat3d on a CPU charges its whole split on the first core's line: the
    chart shows one row per CPU, named for the device, and no idle cores."""
    report = profile("heat3d", nodes=2, mix="cpu")["report"]
    assert _chart(render_text_report(report)) == [
        f"r{rank}:{name}"
        for rank in (0, 1)
        for name in (f"nic{rank}.egress", f"nic{rank}.ingress", "cpu0")
    ]
    # the analysis itself keeps every core line
    assert sum(".core" in tl["name"] for tl in report["timelines"]) == 24


def test_a_chunk_scheduled_cpu_keeps_one_row_per_busy_core():
    report = profile("kmeans", nodes=1, mix="cpu")["report"]
    cores = [row for row in _chart(render_text_report(report)) if ".core" in row]
    busy = [tl for tl in report["timelines"] if ".core" in tl["name"] and tl["n_intervals"]]
    assert len(busy) > 1 and cores == [f"r0:{tl['name']}" for tl in busy]
