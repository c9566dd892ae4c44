"""Benchmark server child: one ``JobServer`` in a process of its own.

Started by ``harness.ServerChild``; prints the bound URL on stdout, then
serves until its stdin closes (which also happens when the parent dies, so
a crashed harness never leaves a server behind).

With ``--spans FILE`` the server is given a benchmark-side executor that
still runs :func:`repro.serve.execute_job`, so its payload is
``execute_job``'s by construction, but times the app's ``run`` inside it by
wrapping the entries of the public app registry.  That splits a job's run
into spec build, ``apps.run`` and payload assembly + hashing without
touching any layer's code.  Spans stay in memory and are written when the
child is asked to exit.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys
import threading
import time


def make_traced_executor(spans: dict):
    """An ``executor=`` recording ``{spec_hash: {build, apps_run, digest}}`` ms."""
    from repro.obs.profile import PROFILE_APPS
    from repro.serve import execute_job

    local = threading.local()

    def timed(run):
        @functools.wraps(run)  # JobSpec validates options against run's signature
        def timed_run(*args, **kwargs):
            local.run_start = time.perf_counter()
            try:
                return run(*args, **kwargs)
            finally:
                local.run_end = time.perf_counter()

        return timed_run

    for name, entry in list(PROFILE_APPS.items()):
        PROFILE_APPS[name] = dataclasses.replace(entry, run=timed(entry.run))

    def executor(spec):
        start = time.perf_counter()
        payload = execute_job(spec)
        end = time.perf_counter()
        spans[payload["spec_hash"]] = {
            "app": spec.app,
            "nodes": spec.nodes,
            "build_ms": (local.run_start - start) * 1e3,
            "apps_run_ms": (local.run_end - local.run_start) * 1e3,
            "digest_ms": (end - local.run_end) * 1e3,
        }
        return payload

    return executor


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--rank-budget", type=int, required=True)
    parser.add_argument("--cache-size", type=int, required=True)
    parser.add_argument("--store-dir")
    parser.add_argument("--spans")
    args = parser.parse_args()

    from repro.serve import JobServer

    spans: dict = {}
    server = JobServer(
        port=0,
        rank_budget=args.rank_budget,
        cache_size=args.cache_size,
        store_dir=args.store_dir,
        executor=make_traced_executor(spans) if args.spans else None,
    )
    with server:
        print(server.url, flush=True)
        sys.stdin.read()
    if args.spans:
        with open(args.spans, "w", encoding="utf-8") as fh:
            json.dump(spans, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
