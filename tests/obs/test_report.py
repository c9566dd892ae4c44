"""Plain-text report rendering."""

from repro.obs import render_text_report
from tests.conftest import profile


def test_text_report_sections():
    _, report = profile("heat3d", nodes=2)
    text = render_text_report(report)
    assert f"{report.makespan:.9g}" in text
    assert "Phase attribution" in text
    assert "Timeline utilization" in text
    assert "Critical path" in text
    assert "Counters" in text
    assert f"events recorded: {report.n_events}" in text
    # Utilization renders through the shared ascii bar helper.
    assert "|#" in text
    # One bar per timeline, labelled rank:name.
    assert "r0:nic0.egress" in text
    assert "r0:gpu0.compute" in text


def test_text_report_notes_extrapolated_makespan():
    apprun, report = profile("heat3d", nodes=2)
    text = render_text_report(report)
    if apprun.makespan != report.makespan:
        assert "extrapolated" in text


def test_top_links_truncation():
    _, report = profile("moldyn", nodes=2)
    text = render_text_report(report, top_links=3)
    if len(report.critical_path) > 3:
        assert f"longest 3 of {len(report.critical_path)} links" in text
