"""Command-line interface."""

import pytest

from repro.cli import _job_spec, build_parser, cmd_info, main


def test_info(capsys):
    assert main(["info"]) == 0
    out = capsys.readouterr().out
    assert "Xeon 5650" in out
    assert "M2070" in out
    assert "64 GPUs" in out or "64" in out


def test_info_contents():
    text = cmd_info(build_parser().parse_args(["info"]))
    assert "32" in text and "384" in text


def test_run_app(capsys):
    assert main(["run", "heat3d", "--nodes", "2", "--mix", "cpu"]) == 0
    out = capsys.readouterr().out
    assert "speedup" in out
    assert "heat3d on 2 node(s), cpu" in out


def test_run_no_overlap(capsys):
    assert main(["run", "heat3d", "--nodes", "1", "--mix", "cpu", "--option", "overlap=false"]) == 0
    assert "speedup" in capsys.readouterr().out


def test_run_refused_option_value_is_a_clean_exit():
    for option, message in (
        ("time_block=0", "heat3d failed: time_block must be >= 1, got 0"),
        # The round size is a positive int; no value asks the runtime to pick one.
        ("time_block=auto", "invalid job spec: heat3d option 'time_block' must be an integer, got 'auto'"),
        # max_iters caps the until_tol loop; a plain run would ignore it.
        ("max_iters=3", "heat3d failed: max_iters caps the until_tol loop; set until_tol too"),
        # No norm reaches a tolerance <= 0 (or NaN): the loop would run to its cap.
        ("until_tol=-1", "heat3d failed: until_tol must be > 0, got -1"),
        ("until_tol=0", "heat3d failed: until_tol must be > 0, got 0"),
        ("until_tol=NaN", "heat3d failed: until_tol must be > 0, got nan"),
    ):
        with pytest.raises(SystemExit, match=message):
            main(["run", "heat3d", "--nodes", "1", "--scale", "quick", "--option", option])


# The job flags are the JobSpec's fields, one each; the rest is the command's own.
JOB_FLAGS = {"app", "nodes", "mix", "preset", "scale", "param", "option", "fault_plan"}
OWN_FLAGS = {
    "run": {"trace_out"},
    "profile": {"trace_out", "format"},
    "submit": {"backend", "batch", "priority", "trace", "url", "no_wait", "timeout"},
}


@pytest.mark.parametrize("command", sorted(OWN_FLAGS))
def test_job_flags_are_the_spec_fields(command):
    args = build_parser().parse_args([command, "heat3d"])
    assert set(vars(args)) - {"command"} == JOB_FLAGS | OWN_FLAGS[command]


@pytest.mark.parametrize(
    "app,nodes,mix",
    [("heat3d", 4, "cpu+2gpu"), ("heat3d-mpi", 4, "cpu"), ("kmeans-mpi", 4, "cpu"),
     ("sobel-cuda", 1, "1gpu"), ("kmeans-cuda", 1, "1gpu")],
)
def test_omitted_nodes_and_mix_are_what_the_app_runs(app, nodes, mix):
    """With no ``--nodes`` / ``--mix``, a job takes 4 nodes and cpu+2gpu, or
    as much of that as the app's registry row allows."""
    for command in sorted(OWN_FLAGS):
        spec = _job_spec(build_parser().parse_args([command, app]))
        assert (spec.nodes, spec.mix) == (nodes, mix), command


def test_a_baseline_runs_with_default_flags(capsys):
    assert main(["run", "sobel-cuda", "--scale", "quick"]) == 0
    assert "sobel-cuda on 1 node(s), 1gpu" in capsys.readouterr().out


def test_figure_fig6(capsys):
    assert main(["figure", "fig6"]) == 0
    assert "mpi_loc" in capsys.readouterr().out


def test_info_devices(capsys):
    assert main(["info", "--devices"]) == 0
    out = capsys.readouterr().out
    assert "roofline" in out
    assert "kernel launch" in out
    assert "Timeline inventory" in out
    assert "gpu0.copy" in out and "nic{rank}.egress" in out


def test_profile_text(capsys):
    assert main(["profile", "kmeans", "--nodes", "2", "--scale", "quick"]) == 0
    out = capsys.readouterr().out
    assert "Phase attribution" in out
    assert "Critical path" in out
    assert "kmeans on 2 node(s)" in out


def test_profile_json(capsys):
    import json

    assert main(["profile", "sobel", "--nodes", "2", "--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["nranks"] == 2
    assert report["phases"] and report["critical_path"]


def test_profile_trace_out(capsys, tmp_path):
    import json

    path = tmp_path / "trace.json"
    assert main(["profile", "heat3d", "--nodes", "2", "--trace-out", str(path)]) == 0
    assert "trace written to" in capsys.readouterr().out
    from repro.obs import validate_chrome_trace

    validate_chrome_trace(json.loads(path.read_text()))


def test_run_trace_out(capsys, tmp_path):
    import json

    path = tmp_path / "run.json"
    assert main(
        ["run", "heat3d", "--nodes", "2", "--mix", "cpu", "--trace-out", str(path)]
    ) == 0
    out = capsys.readouterr().out
    assert "speedup" in out and "trace" in out
    from repro.obs import validate_chrome_trace

    validate_chrome_trace(json.loads(path.read_text()))


def test_parser_rejects_unknown():
    parser = build_parser()
    with pytest.raises(SystemExit):
        parser.parse_args(["run", "nbody"])
    with pytest.raises(SystemExit):
        parser.parse_args(["figure", "fig9"])
    with pytest.raises(SystemExit):
        parser.parse_args([])
