"""`repro submit` / `repro jobs` against a live in-process job server."""

import json

import pytest

import repro.cli
from repro.cli import main
from repro.faults import FaultPlan, RankCrash
from repro.serve import JobServer, JobSpec, execute_job

SUBMIT_ARGS = [
    "submit",
    "heat3d",
    "--nodes",
    "2",
    "--mix",
    "cpu",
    "--preset",
    "laptop",
    "--param",
    "functional_shape=[12,12,12]",
    "--param",
    "simulated_steps=2",
]


@pytest.fixture
def live_server(monkeypatch):
    with JobServer(port=0, rank_budget=8) as server:
        monkeypatch.setenv("REPRO_SERVE_URL", server.url)
        yield server


def test_submit_waits_and_reports(capsys, live_server):
    assert main(SUBMIT_ARGS) == 0
    out = capsys.readouterr().out
    assert "heat3d x2 cpu" in out
    assert "simulated time" in out and "speedup" in out


def test_submit_cache_hit_and_jobs_listing(capsys, live_server):
    assert main(SUBMIT_ARGS) == 0
    capsys.readouterr()
    assert main(SUBMIT_ARGS) == 0  # identical spec: served from cache
    assert "cache hit" in capsys.readouterr().out

    assert main(["jobs"]) == 0
    out = capsys.readouterr().out
    assert live_server.url in out
    assert out.count("done") == 2 and "heat3d x2" in out
    assert "(cached)" in out


def test_submit_faulty_job(capsys, live_server):
    assert (
        main(
            SUBMIT_ARGS
            + [
                "--param",
                "simulated_steps=4",
                "--fault-plan",
                json.dumps(CRASH_PLAN),
                "--option",
                "reliable=true",
                "--option",
                "checkpoint_every=2",
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "faults" in out and "crashes=1" in out


def test_submit_no_wait_then_stats(capsys, live_server):
    assert main(SUBMIT_ARGS + ["--no-wait"]) == 0
    assert "poll with" in capsys.readouterr().out
    assert main(["jobs", "--stats"]) == 0
    stats = json.loads(capsys.readouterr().out)
    assert stats["rank_budget"] == 8
    assert "cache" in stats and "engine" in stats


def test_submit_rejects_bad_spec(live_server):
    with pytest.raises(SystemExit, match="invalid job spec"):
        main(SUBMIT_ARGS + ["--param", "voxels=7"])
    with pytest.raises(SystemExit, match="expects K=V"):
        main(["submit", "heat3d", "--param", "oops"])


def test_submit_unreachable_server(monkeypatch):
    monkeypatch.setenv("REPRO_SERVE_URL", "http://127.0.0.1:9")  # discard port
    with pytest.raises(SystemExit, match="submit failed"):
        main(["submit", "heat3d"])
    with pytest.raises(SystemExit, match="cannot reach"):
        main(["jobs"])


def test_url_flag_overrides_env(capsys, live_server, monkeypatch):
    monkeypatch.setenv("REPRO_SERVE_URL", "http://127.0.0.1:9")
    assert main(["jobs", "--url", live_server.url]) == 0
    assert live_server.url in capsys.readouterr().out


# One spec, three ways: the flags below through ``repro run`` and ``repro
# submit`` (live server), and the JobSpec they stand for through execute_job.
BASE = {"nodes": 2, "preset": "laptop", "mix": "cpu"}
BASE_FLAGS = ["--nodes", "2", "--preset", "laptop", "--mix", "cpu", "--scale", "quick"]
CRASH_PLAN = FaultPlan.lossy(
    7, drop=0.05, dup=0.02, delay=0.05, max_delay=1e-4, crashes=[RankCrash(1, 0.05, 1.0)]
).to_dict()
FLAG_SETS = {
    "plain": (["heat3d"], {"app": "heat3d"}),
    "time-block": (["heat3d", "--option", "time_block=2"], {"app": "heat3d", "options": {"time_block": 2}}),
    "until-tol": (
        ["heat3d", "--option", "until_tol=1e-3", "--option", "max_iters=6"],
        {"app": "heat3d", "options": {"until_tol": 1e-3, "max_iters": 6}},
    ),
    # More iterations than a payload's metrics keep of a list (256).
    "until-tol-long": (
        ["heat3d", "--param", "iterations=300", "--option", "until_tol=1e-9"],
        {"app": "heat3d", "params": {"iterations": 300}, "options": {"until_tol": 1e-9}},
    ),
    "crash-restart": (
        ["heat3d", "--param", "simulated_steps=4", "--fault-plan", json.dumps(CRASH_PLAN),
         "--option", "reliable=true", "--option", "checkpoint_every=2"],
        {"app": "heat3d", "params": {"simulated_steps": 4}, "fault_plan": CRASH_PLAN,
         "options": {"reliable": True, "checkpoint_every": 2}},
    ),
    # A plain run() option needs no fault plan beside it.
    "checkpoint-only": (
        ["kmeans", "--option", "checkpoint_every=1"],
        {"app": "kmeans", "options": {"checkpoint_every": 1}},
    ),
    "no-overlap": (
        ["sobel", "--option", "overlap=false"], {"app": "sobel", "options": {"overlap": False}}
    ),
    "traced": (["heat3d"], {"app": "heat3d", "trace": True}),
}


def _result_block(capsys) -> list[str]:
    """The printed lines under the command's heading, without the trace
    line (a file for ``run``, a URL for ``submit``)."""
    lines = capsys.readouterr().out.splitlines()[1:]
    return [line for line in lines if not line.startswith("  trace ")]


@pytest.mark.parametrize("case", sorted(FLAG_SETS))
def test_run_submit_and_execute_job_agree(case, capsys, live_server, monkeypatch, tmp_path):
    flags, fields = FLAG_SETS[case]
    traced = fields.get("trace", False)
    monkeypatch.setattr(repro.cli, "fmt_seconds", repr)  # print makespans exactly
    assert main(["run", *flags, *BASE_FLAGS]
                + (["--trace-out", str(tmp_path / "t.json")] if traced else [])) == 0
    ran = _result_block(capsys)
    assert main(["submit", *flags, *BASE_FLAGS] + (["--trace"] if traced else [])) == 0
    served = _result_block(capsys)
    direct = execute_job(JobSpec(**BASE, **fields))
    assert ran == served  # byte for byte
    assert ran[0] == f"  simulated time : {direct['makespan']!r}"
    converging = "until_tol" in fields.get("options", {})
    assert any(line.startswith("  convergence    : ") for line in ran) == converging
    if traced:
        assert json.loads((tmp_path / "t.json").read_text()) == direct["trace"]


@pytest.mark.parametrize("command", ["run", "submit", "profile"])
def test_flags_the_spec_cannot_honour_are_errors(command):
    with pytest.raises(SystemExit, match=r"unknown kmeans options \['overlap'\]; known:"):
        main([command, "kmeans", "--option", "overlap=false"])
    with pytest.raises(SystemExit, match=r"unknown moldyn options \['reliable'\]"):
        main([command, "moldyn", "--option", "reliable=true"])
    with pytest.raises(SystemExit, match="invalid job spec: --fault-plan is not JSON"):
        main([command, "heat3d", "--fault-plan", "{'seed': 7}"])
    with pytest.raises(SystemExit, match=r"invalid job spec: unknown fault-plan keys: \['drop'\]"):
        main([command, "heat3d", "--fault-plan", '{"seed": 7, "drop": 0.05}'])
