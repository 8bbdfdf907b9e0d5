"""Start one serving deployment for the benchmark and hold it until told to stop.

Run as ``python3 perfbench/server.py '<spec json>'`` with ``src`` on
``PYTHONPATH``. The spec is ``{"mode", "combos", "trace_dir"}``; scale,
probability and ``now`` come from ``workloads.py``. The mode names the
topology:

* ``"single"`` — one asyncio gateway worker, as ``serve --async`` runs it:
  the gateway is ``workloads.oracle_gateway`` (keys batch-fitted with
  ``DraftsService.warm_start``, curve store primed), the same gateway the
  benchmark's byte check compares against, behind
  ``AsyncGatewayHTTPServer``;
* ``"routed"`` — ``ShardDeployment`` in fork mode, as ``serve --shards 2``
  runs it: the consistent-hash router in this process, one forked worker
  per shard.

When the deployment answers, one JSON line ``{"url": ...}`` goes to
stdout. The process then waits for stdin to close, drains, and prints
``{"drained": ...}``. With ``trace_dir`` set, timing wrappers are
installed before anything is built (so forked shards inherit them) and
each process writes its span summary into that directory at drain.
"""

from __future__ import annotations

import json
import os
import sys

import workloads as wl

#: Shards of the routed deployment.
SHARDS = 2


def main(spec: dict) -> int:
    tracer = None
    if spec["trace_dir"]:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
        tracing.dump_on_drain(tracer, spec["trace_dir"])

    from repro.experiments.common import scaled_universe

    universe = scaled_universe(wl.SCALE)
    combos = [tuple(c) for c in spec["combos"]]
    if spec["mode"] == "single":
        from repro.serving.aiohttpd import AsyncGatewayHTTPServer
        from repro.serving.httpd import HttpdConfig

        server = AsyncGatewayHTTPServer(
            wl.oracle_gateway(universe, combos, wl.START_NOW),
            HttpdConfig(max_connections=128),
        )
        server.start()
        url = server.url
        stop = server.stop
    else:
        from repro.serving.router import ShardDeployment, plan_shards

        deployment = ShardDeployment(
            universe,
            plan_shards(SHARDS, combos),
            start_now=wl.START_NOW,
            probabilities=(wl.PROBABILITY,),
            mode="fork",
        )
        deployment.start()
        url = deployment.router.url
        stop = deployment.stop
    print(json.dumps({"url": url}), flush=True)
    sys.stdin.read()  # the benchmark closes stdin to ask for the drain
    stats = stop()
    if tracer is not None and spec["mode"] != "single":
        tracer.dump(
            os.path.join(spec["trace_dir"], f"spans-{os.getpid()}.json"), "router"
        )
    print(json.dumps({"drained": bool(stats["drained"])}), flush=True)
    return 0 if stats["drained"] else 1


if __name__ == "__main__":
    sys.exit(main(json.loads(sys.argv[1])))
