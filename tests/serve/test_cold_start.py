"""Cold-start budget: a job loads only the code it runs.

A fresh interpreter serves one heat3d job and reports what ended up in
``sys.modules``; a moldyn and a minimd job in the same interpreter then
show that the neighbour-list build loads the repo's own cell list and no
scipy, and that partitioning an irregular mesh does not pull in ``numpy.ma``
(NumPy 2.4's ``np.unique`` imports it on first use).  A second fresh
interpreter starts a ``JobServer`` and serves one heat3d job submitted over a
raw socket: a server reads its own HTTP, so no TLS stack and no mail parser
may be loaded.  Runs in a subprocess because the test process itself has
long since imported everything.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"

#: ``repro.*`` modules a heat3d job may load: the count :data:`PROBE` takes
#: (the package has 93).  The one ceiling on the import footprint; a
#: change that raises it says which module it adds and why.
MODULE_BUDGET = 45

#: Nothing matching these may be loaded by a heat3d job.
FORBIDDEN = (
    "scipy",
    "networkx",
    "repro.metrics.figures",
    "repro.apps.baselines",
    "repro.apps.moldyn",
    "repro.apps.minimd",
    "repro.obs.analysis",
    "repro.obs.report",
    "repro.obs.export",
    "repro.serve.jobpool",  # only a backend="processes" job imports the worker pool
    "repro.comm.reliable",  # only a reliable=True run retransmits
    "repro.core.checkpoint",  # only a checkpoint_every run snapshots
)

PROBE = """
import json, sys
import repro.serve
from repro.serve import JobSpec, execute_job

def loaded():
    return sorted(sys.modules)

heat3d = execute_job(JobSpec(app="heat3d", nodes=2, preset="laptop", mix="cpu"))
after_heat3d = loaded()
moldyn = execute_job(JobSpec(app="moldyn", nodes=2, preset="laptop", mix="cpu"))
minimd = execute_job(JobSpec(app="minimd", nodes=2, preset="laptop", mix="cpu"))
print(json.dumps({
    "after_heat3d": after_heat3d,
    "after_md": loaded(),
    "makespans": [heat3d["makespan"], moldyn["makespan"], minimd["makespan"]],
}))
"""


#: What ``http.server`` used to bring into a server; ``ServeClient``'s
#: ``urllib`` may still load ``http.client`` and ``ssl`` — in client processes.
NOT_IN_A_SERVER = ("ssl", "_ssl", "http.client", "http.server", "email", "html", "mimetypes")

SERVER_PROBE = """
import json, socket, sys
from repro.serve import JobServer

def exchange(server, head, body=b""):
    with socket.create_connection((server.host, server.port), timeout=60) as sock:
        sock.sendall(head + b"Connection: close\\r\\n\\r\\n" + body)
        reply = b"".join(iter(lambda: sock.recv(65536), b""))
    return json.loads(reply.partition(b"\\r\\n\\r\\n")[2])

spec = json.dumps({"app": "heat3d", "nodes": 2, "preset": "laptop", "mix": "cpu"}).encode()
with JobServer(port=0) as server:
    post = b"POST /jobs HTTP/1.1\\r\\nContent-Length: %d\\r\\n" % len(spec)
    job = exchange(server, post, spec)
    done = exchange(server, b"GET /jobs/%s?wait=30 HTTP/1.1\\r\\n" % job["id"].encode())
    stats = exchange(server, b"GET /stats HTTP/1.1\\r\\n")
print(json.dumps({
    "modules": sorted(sys.modules),
    "state": done["state"],
    "makespan": done["makespan"],
    "requests": stats["http"]["requests"],
}))
"""


def _matches(module: str, prefix: str) -> bool:
    return module == prefix or module.startswith(prefix + ".")


def _probe(source: str) -> dict:
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run(
        [sys.executable, "-c", source],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_a_server_loads_no_tls_stack_and_no_mail_parser():
    report = _probe(SERVER_PROBE)
    assert report["state"] == "done" and report["makespan"] > 0
    assert report["requests"] == 3  # submit, one held status request, stats
    leaked = [m for m in report["modules"] if any(_matches(m, p) for p in NOT_IN_A_SERVER)]
    assert not leaked, f"a job server loaded what only a web server needs: {leaked}"
    assert "socketserver" in report["modules"]


def test_heat3d_job_loads_only_what_it_runs():
    report = _probe(PROBE)

    after_heat3d = report["after_heat3d"]
    leaked = [m for m in after_heat3d if any(_matches(m, p) for p in FORBIDDEN)]
    assert not leaked, f"a heat3d job loaded code it never runs: {leaked}"
    ours = [m for m in after_heat3d if _matches(m, "repro")]
    assert len(ours) <= MODULE_BUDGET, (len(ours), ours)

    # The MD apps build their neighbour lists with the repo's own search:
    # nothing in the product imports scipy.
    after_md = report["after_md"]
    assert not [m for m in after_md if _matches(m, "scipy")]
    assert "numpy.ma" not in after_md  # core.partition sorts, it does not np.unique
    assert "repro.data.neighbors" in after_md
    assert "repro.apps.moldyn" in after_md and "repro.apps.minimd" in after_md
    assert all(m > 0 for m in report["makespans"])
