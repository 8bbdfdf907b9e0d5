"""Top-level CLI: ``python -m repro <command>``.

Commands:

``experiments <id|all> [--scale bench]``
    Reproduce paper tables/figures (same as ``python -m repro.experiments``).
``export <directory> [--per-class N] [--scale bench]``
    Write a price-history archive of the study universe to disk
    (the reproduction's equivalent of the paper's published dataset).
``survey [--per-class N] [--scale bench]``
    Print the stylised facts and AR(1) adequacy of sampled combinations.
``serve-bench [--scale test] [--requests N] [--keys N] [--threads a,b,c]``
    Benchmark the serving gateway (stale-while-revalidate, coalescing,
    load shedding) against the lazy inline-recompute baseline.
``chaos [--scale test] [--requests N] [--error-rate R] [--spike-rate R]``
    Drive the gateway through a seeded fault schedule (faulty history API,
    latency spikes, a mid-run snapshot/restore with one torn file) and
    verify the serving invariants; exits non-zero on any violation.
``universe-smoke [--keys N] [--epochs N] [--probability P]``
    Tick an N-key universe through the vectorised structure-of-arrays
    path in lockstep with per-key scalar predictors and verify the
    published curves and bid queries are bit-identical at every
    checkpoint; exits non-zero on the first divergence.
``fit-smoke [--keys N] [--epochs N] [--probability P]``
    Batch-fit an N-key universe (ragged history lengths, keys alternating
    between ``P`` and a second published level) in one call through the
    structure-of-arrays phase-1 fitter and verify bound series, change
    points, ladders and bid queries are bit-identical to per-key scalar
    ``DraftsPredictor`` fits; exits non-zero on the first divergence.
``serve [--scale test] [--keys N] [--host H] [--port P] [--shards N]``
    Stand the serving gateway up behind a real listening socket (the
    asyncio front end: ``/predictions``, ``/bid``, ``/cheapest``,
    ``/healthz``, ``/metrics``) and run until interrupted; Ctrl-C drains
    gracefully. ``--shards N`` partitions the keys across N forked
    workers behind the consistent-hash router.
``replay [--url U | --spawn [--shards N]] [--requests N] [--rate R] ...``
    Replay an open-loop (diurnal x Zipf) workload against a serving socket
    and print the tail SLO table. ``--spawn`` brings up an in-process
    server on an ephemeral port (optionally with seeded latency spikes)
    so one command is a full round trip; exits non-zero if the spawned
    server fails to drain cleanly.
``router-smoke [--keys N] [--shards N]``
    Boot a forked sharded deployment and verify partition disjointness,
    routed byte parity with a single gateway, and a clean drain.
"""

from __future__ import annotations

import argparse
import sys

from repro.experiments.common import SCALES, scaled_universe


def _cmd_experiments(args: argparse.Namespace) -> int:
    from repro.experiments.__main__ import main as experiments_main

    argv = [args.experiment, "--scale", args.scale]
    if args.workers:
        argv += ["--workers", str(args.workers)]
    return experiments_main(argv)


def _cmd_export(args: argparse.Namespace) -> int:
    from repro.data import export_universe

    universe = scaled_universe(args.scale)
    combos = (
        universe.combos()
        if args.per_class <= 0
        else universe.subsample(per_class=args.per_class)
    )
    manifest = export_universe(universe, args.directory, combos)
    print(
        f"exported {len(manifest.entries)} combinations "
        f"({sum(e.n_announcements for e in manifest.entries)} announcements) "
        f"to {args.directory}"
    )
    return 0


def _cmd_survey(args: argparse.Namespace) -> int:
    from repro.analysis import diagnose_ar1, stylized_facts
    from repro.util.tables import format_table

    universe = scaled_universe(args.scale)
    combos = universe.subsample(per_class=max(args.per_class, 1))
    rows = []
    for combo in combos:
        trace = universe.trace(combo)
        facts = stylized_facts(trace, combo.ondemand_price)
        diagnosis = diagnose_ar1(trace.prices)
        rows.append(
            [
                combo.key,
                combo.volatility_class,
                f"{facts.discount:.0%}",
                f"{facts.fraction_above_ondemand:.2%}",
                f"{facts.autocorr:.3f}",
                "yes" if diagnosis.quantile_calibrated else "no",
            ]
        )
    print(
        format_table(
            ["Combination", "Class", "Discount", ">OD time", "Autocorr", "AR1 q99 ok"],
            rows,
            title=f"Universe survey (scale={args.scale})",
        )
    )
    return 0


def _cmd_serve_bench(args: argparse.Namespace) -> int:
    from repro.serving.bench import (
        ServingBenchConfig,
        format_serving_report,
        run_serving_benchmark,
    )

    try:
        thread_counts = tuple(int(t) for t in args.threads.split(","))
        if not thread_counts or any(t < 1 for t in thread_counts):
            raise ValueError
    except ValueError:
        print(
            f"serve-bench: --threads must be a comma-separated list of "
            f"positive integers, got {args.threads!r}",
            file=sys.stderr,
        )
        return 2
    config = ServingBenchConfig(
        scale=args.scale,
        n_keys=args.keys,
        n_requests=args.requests,
        thread_counts=thread_counts,
        seed=args.seed,
    )
    results = run_serving_benchmark(config)
    print(format_serving_report(results))
    balanced = all(
        data["accounting"]["balanced"]
        for data in results["latency"].values()
    ) and results["shedding"]["accounting"]["balanced"]
    if not balanced:
        print("metrics accounting identity VIOLATED")
        return 1
    return 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    import json

    from repro.serving.chaos import ChaosConfig, run_chaos

    config = ChaosConfig(
        scale=args.scale,
        n_keys=args.keys,
        n_requests=args.requests,
        error_rate=args.error_rate,
        spike_rate=args.spike_rate,
        seed=args.seed,
        breaker_threshold=args.breaker_threshold,
        breaker_cooldown_seconds=args.breaker_cooldown,
        invalidate_every=args.invalidate_every,
        restart=not args.no_restart,
    )
    report = run_chaos(config)
    print(
        json.dumps(
            {k: report[k] for k in ("statuses", "injected", "invariants")},
            indent=2,
        )
    )
    if not report["ok"]:
        print("chaos: serving invariants VIOLATED", file=sys.stderr)
        return 1
    trips = report["counters"]["gateway.breaker_trips"]
    print(
        f"chaos: ok — {report['requests']} requests, "
        f"{report['injected']['errors']} injected errors, "
        f"{trips} breaker trips, all invariants hold"
    )
    return 0


def _cmd_universe_smoke(args: argparse.Namespace) -> int:
    import math

    import numpy as np

    from repro.core.drafts import DraftsConfig
    from repro.core.online import OnlineDraftsPredictor
    from repro.core.universe import UniverseTicker
    from repro.market.synthetic import VOLATILITY_CLASSES, synthetic_trace

    config = DraftsConfig(probability=args.probability)
    classes = list(VOLATILITY_CLASSES)
    keys = [f"{classes[i % len(classes)]}-{i}" for i in range(args.keys)]
    prices = np.empty((args.keys, args.epochs))
    times = None
    for i in range(args.keys):
        trace = synthetic_trace(
            classes[i % len(classes)], seed=args.seed + i, n_epochs=args.epochs
        )
        prices[i] = np.asarray(trace.prices)
        if times is None:
            times = np.asarray(trace.times, dtype=float)

    ticker = UniverseTicker(config)
    for key in keys:
        ticker.add_key(key, instance_type="m4.large", zone="us-east-1a")
    scalars = {key: OnlineDraftsPredictor(config) for key in keys}

    def floats_equal(a: float, b: float) -> bool:
        return a == b or (math.isnan(a) and math.isnan(b))

    def curves_equal(a, b) -> bool:
        if a is None or b is None:
            return a is b
        return (
            a.bids == b.bids
            and a.computed_at == b.computed_at
            and all(
                floats_equal(x, y) for x, y in zip(a.durations, b.durations)
            )
        )

    durations = (1800.0, 3600.0, 6 * 3600.0, 86400.0, 1e12)
    stride = max(1, args.epochs // 8)
    checked = 0
    for t in range(args.epochs):
        ticker.tick(float(times[t]), prices[:, t])
        for i, key in enumerate(keys):
            scalars[key].observe(float(times[t]), float(prices[i, t]))
        if t % stride != stride - 1 and t != args.epochs - 1:
            continue
        for key in keys:
            if not curves_equal(ticker.curve_for(key), scalars[key].curve()):
                print(
                    f"universe-smoke: curve DIVERGED at epoch {t} key {key}",
                    file=sys.stderr,
                )
                return 1
            for duration in durations:
                if not floats_equal(
                    ticker.bid_for(key, duration),
                    scalars[key].bid_for(duration),
                ):
                    print(
                        f"universe-smoke: bid_for({duration:g}) DIVERGED "
                        f"at epoch {t} key {key}",
                        file=sys.stderr,
                    )
                    return 1
            checked += 1
    print(
        f"universe-smoke: ok — {args.keys} keys x {args.epochs} epochs, "
        f"{checked} curve checkpoints bit-identical to the scalar path"
    )
    return 0


def _cmd_fit_smoke(args: argparse.Namespace) -> int:
    import math

    import numpy as np

    from repro.core.drafts import DraftsConfig, DraftsPredictor
    from repro.core.universe_fit import fit_drafts_universe
    from repro.market.synthetic import VOLATILITY_CLASSES, synthetic_trace

    # Two probability levels in one lockstep pass (alternating keys): the
    # requested one and the other level the service publishes.
    other = 0.95 if args.probability == 0.99 else 0.99
    levels = (
        DraftsConfig(probability=args.probability),
        DraftsConfig(probability=other),
    )
    configs = [levels[i % 2] for i in range(args.keys)]
    classes = list(VOLATILITY_CLASSES)
    # Ragged history lengths on purpose: the batch fitter pads and masks
    # short keys, and every length must still match its scalar fit.
    stride = max(1, args.epochs // 16)
    traces = [
        synthetic_trace(
            classes[i % len(classes)],
            seed=args.seed + i,
            n_epochs=args.epochs - (i % 5) * stride,
        )
        for i in range(args.keys)
    ]

    fit = fit_drafts_universe(traces, configs)
    preds = [fit.predictor(k) for k in range(args.keys)]
    refs = [
        DraftsPredictor(trace, config)
        for trace, config in zip(traces, configs)
    ]

    def floats_equal(a: float, b: float) -> bool:
        return a == b or (math.isnan(a) and math.isnan(b))

    durations = (1800.0, 3600.0, 6 * 3600.0, 86400.0, 1e12)
    checked = 0
    for k, (ref, pred) in enumerate(zip(refs, preds)):
        n = len(traces[k])
        failures = []
        if not np.array_equal(ref._bounds, pred._bounds, equal_nan=True):
            failures.append("bound series")
        if not floats_equal(ref._final_bound, pred._final_bound):
            failures.append("final bound")
        if list(ref.changepoints) != list(pred.changepoints):
            failures.append("change points")
        if not np.array_equal(
            np.asarray(ref._ladder.levels), np.asarray(pred._ladder.levels)
        ):
            failures.append("ladder levels")
        for t_idx in (n // 2, n - 1):
            for duration in durations:
                if not floats_equal(
                    ref.bid_for(duration, t_idx),
                    pred.bid_for(duration, t_idx),
                ):
                    failures.append(f"bid_for({duration:g}, {t_idx})")
        if failures:
            print(
                f"fit-smoke: key {k} ({n} epochs) DIVERGED: "
                + ", ".join(failures),
                file=sys.stderr,
            )
            return 1
        checked += 1
    print(
        f"fit-smoke: ok — {checked} keys "
        f"({min(len(t) for t in traces)}-{max(len(t) for t in traces)} "
        f"epochs, ragged; p = {args.probability:g}/{other:g} alternating), "
        f"batch fit bit-identical to the scalar path"
    )
    return 0


def _replay_universe(args: argparse.Namespace):
    """The (keys, start_now) universe `serve` and `replay` must share.

    Both commands derive the key universe deterministically from
    (scale, keys, probability), so a replayer pointed at a separately
    started server generates URLs the server actually answers.
    """
    from repro.serving.loadgen import predictable_keys

    universe = scaled_universe(args.scale)
    return predictable_keys(universe, args.keys, args.probability)


def _serve_until_interrupted(stop) -> int:
    """Block until Ctrl-C, then drain through ``stop()`` and report."""
    import time

    print("Ctrl-C to drain and stop")
    try:
        while True:
            time.sleep(1.0)
    except KeyboardInterrupt:
        pass
    stats = stop()
    print(f"\nstopped: drained={stats['drained']}")
    return 0 if stats["drained"] else 1


def _serve_one(args: argparse.Namespace) -> int:
    """`serve`: one warm gateway behind one listening socket."""
    from repro.serving.aiohttpd import AsyncGatewayHTTPServer
    from repro.serving.gateway import GatewayConfig, warm_gateway
    from repro.serving.httpd import HttpdConfig

    keys, start_now = _replay_universe(args)
    gateway = warm_gateway(
        scaled_universe(args.scale),
        [key[:2] for key in keys],
        start_now,
        args.probability,
        config=GatewayConfig(
            max_inflight=args.max_inflight, snapshot_dir=args.snapshot_dir
        ),
    )
    server = AsyncGatewayHTTPServer(
        gateway,
        HttpdConfig(
            host=args.host,
            port=args.port,
            max_connections=args.max_connections,
        ),
    )
    server.start()
    print(f"serving {len(keys)} warm key(s) on {server.url}")
    print(f"  warm simulation instant: now={start_now}")
    for key in keys:
        print(
            f"  /predictions/{key[0]}/{key[1]}"
            f"?probability={key[2]}&now={start_now}"
        )
    return _serve_until_interrupted(server.stop)


def _serve_sharded(args: argparse.Namespace) -> int:
    """`serve --shards N`: forked partition-restricted workers behind the
    consistent-hash router."""
    from repro.serving.router import RouterConfig, ShardDeployment, plan_shards

    universe = scaled_universe(args.scale)
    keys, start_now = _replay_universe(args)
    combos = sorted({(key[0], key[1]) for key in keys})
    partition = plan_shards(args.shards, combos)
    deployment = ShardDeployment(
        universe,
        partition,
        start_now=start_now,
        probabilities=(args.probability,),
        mode="fork",
        router_config=RouterConfig(
            host=args.host,
            port=args.port,
            max_connections=args.max_connections,
        ),
        snapshot_root=args.snapshot_dir,
    )
    deployment.start()
    router = deployment.router
    print(
        f"routing {partition.n_combos} combo(s) across {args.shards} "
        f"shard(s) on {router.url}"
    )
    print(f"  warm simulation instant: now={start_now}")
    for sid in partition.shard_ids:
        print(
            f"  {sid}: {deployment.shard_urls[sid]} "
            f"({len(partition.combos_of(sid))} combos)"
        )
    return _serve_until_interrupted(deployment.stop)


def _cmd_serve(args: argparse.Namespace) -> int:
    if args.shards > 0:
        return _serve_sharded(args)
    return _serve_one(args)


def _cmd_replay(args: argparse.Namespace) -> int:
    import json

    from repro.serving.loadgen import DiurnalEnvelope
    from repro.serving.replay import ReplayConfig, Replayer, format_slo_report

    if (args.url is None) == (not args.spawn):
        print(
            "replay: exactly one of --url or --spawn is required",
            file=sys.stderr,
        )
        return 2
    keys, start_now = _replay_universe(args)
    diurnal = (
        DiurnalEnvelope(
            period_seconds=args.diurnal_period, amplitude=args.diurnal_amplitude
        )
        if args.diurnal_amplitude > 0
        else None
    )
    replay_cfg = ReplayConfig(
        n_requests=args.requests,
        rate=args.rate,
        diurnal=diurnal,
        seed=args.seed,
        warmup_requests=args.warmup,
        concurrency=args.concurrency,
        hedge=args.hedge,
        hedge_delay_seconds=args.hedge_delay,
        timeout_seconds=args.timeout,
        start_now=start_now,
    )

    spawned = None  # the spawned server or deployment; both drain on stop()
    spiker = None
    if args.spawn:
        if args.shards > 0 and args.spike_rate > 0:
            print(
                "replay: --spike-rate needs the single-process spawn "
                "(the spike hook lives in one server)",
                file=sys.stderr,
            )
            return 2
        if args.shards > 0:
            # Forked partition-restricted shards behind the router; the
            # replayer drives the router's single front URL.
            from repro.serving.router import ShardDeployment, plan_shards

            universe = scaled_universe(args.scale)
            combos = sorted({(key[0], key[1]) for key in keys})
            spawned = ShardDeployment(
                universe,
                plan_shards(args.shards, combos),
                start_now=start_now,
                probabilities=(args.probability,),
                mode="fork",
            )
            spawned.start()
            url = spawned.router.url
        else:
            from repro.serving.aiohttpd import AsyncGatewayHTTPServer
            from repro.serving.chaos import FaultConfig, ReplaySpiker
            from repro.serving.gateway import warm_gateway
            from repro.serving.httpd import HttpdConfig

            httpd_cfg = HttpdConfig(max_connections=256)
            if args.spike_rate > 0:
                spiker = ReplaySpiker(
                    FaultConfig(
                        spike_rate=args.spike_rate,
                        spike_seconds=args.spike_seconds,
                        seed=args.seed,
                    )
                )
                # An armed hook sends every request to the executor: one
                # thread per replay worker, so a stalled request never
                # queues an unrelated one behind it.
                httpd_cfg = HttpdConfig(
                    max_connections=256,
                    executor_workers=max(1, args.concurrency),
                )
            gateway = warm_gateway(
                scaled_universe(args.scale),
                [key[:2] for key in keys],
                start_now,
                args.probability,
            )
            spawned = AsyncGatewayHTTPServer(gateway, httpd_cfg, spike=spiker)
            spawned.start()
            url = spawned.url
    elif args.shards > 0:
        print("replay: --shards only applies with --spawn", file=sys.stderr)
        return 2
    else:
        url = args.url
    drain = None
    try:
        report = Replayer(url, keys, replay_cfg).run()
    finally:
        if spawned is not None:
            drain = spawned.stop()
    if drain is not None:
        report.setdefault("drain", drain)
    if spiker is not None:
        report["injected_spikes"] = spiker.injected_spikes
    if args.json:
        print(json.dumps(report, indent=2))
    else:
        print(format_slo_report(report))
    failed = report["error_rate"] > 0.5 or (
        drain is not None and not drain["drained"]
    )
    return 1 if failed else 0


def _cmd_router_smoke(args: argparse.Namespace) -> int:
    """Boot a forked sharded deployment and verify the routed contract.

    Three invariants, each fatal on violation:

    * **partition** — every combo owned by exactly one shard, and each
      worker's ``/healthz`` reports exactly its partition's key count;
    * **parity** — routed responses byte-identical to a single-process
      gateway across every status path (200/400/404/503/504 plus the
      scatter-gathered ``/cheapest``), and ``/healthz#x`` answered as
      ``/healthz`` by the router and every shard;
    * **404 stays 404** — a combination the account does not offer
      (an unknown type; a known type in a zone that does not exist),
      and a ``/cheapest`` scan of an unknown region or type, answers
      404 on each of four reads, on both sides;
    * **drain** — router and every worker drain cleanly on stop.
    """
    import http.client
    import json

    from repro.cloud.api import EC2Api
    from repro.service.rest import encode_body
    from repro.serving.gateway import warm_gateway
    from repro.serving.router import ShardDeployment, plan_shards

    universe = scaled_universe(args.scale)
    keys, start_now = _replay_universe(args)
    api = EC2Api(universe)
    # Enroll every zone of each key's (type, region) so the partitioned
    # /cheapest scan covers the same zone set the single gateway scans.
    combos = set()
    for itype, zone, _p in keys:
        region = zone.rstrip("abcdefghijklmnopqrstuvwxyz")
        for z in api.describe_availability_zones(region):
            combos.add((itype, z))
    combos = sorted(combos)
    partition = plan_shards(args.shards, combos)

    single = warm_gateway(universe, combos, start_now, args.probability)

    def http_get(base_url: str, path: str) -> tuple[int, bytes]:
        host, port = base_url.split("//", 1)[1].split(":")
        conn = http.client.HTTPConnection(host, int(port), timeout=30)
        try:
            conn.request("GET", path)
            response = conn.getresponse()
            return response.status, response.read()
        finally:
            conn.close()

    deployment = ShardDeployment(
        universe,
        partition,
        start_now=start_now,
        probabilities=(args.probability,),
        mode="fork",
    )
    deployment.start()
    failures = []
    try:
        # 1. Partition: disjoint by construction (Partition raises on
        # split ownership); verify each worker *enrolled* exactly its cut.
        total = 0
        pids = set()
        for sid in partition.shard_ids:
            status, body = http_get(deployment.shard_urls[sid], "/healthz")
            health = json.loads(body)
            owned = len(partition.combos_of(sid))
            total += health.get("owned_keys", -1)
            pids.add(health.get("pid"))
            if status != 200 or health.get("shard") != sid:
                failures.append(f"{sid}: bad healthz {body!r}")
            if health.get("owned_keys") != owned:
                failures.append(
                    f"{sid}: enrolled {health.get('owned_keys')} keys, "
                    f"partition assigns {owned}"
                )
        if total != len(combos):
            failures.append(
                f"partition not exhaustive: {total} enrolled keys "
                f"across shards vs {len(combos)} combos"
            )
        if len(pids) != len(partition.shard_ids):
            failures.append(f"expected distinct worker pids, got {pids}")

        # 2. Parity: routed bytes vs the in-process gateway on every path.
        itype, zone, prob = keys[0]
        region = zone.rstrip("abcdefghijklmnopqrstuvwxyz")
        cases = [
            f"/predictions/{itype}/{zone}?probability={prob}&now={start_now}",
            f"/bid/{itype}/{zone}"
            f"?probability={prob}&duration=3600.0&now={start_now}",
            f"/cheapest/{itype}/{region}?probability={prob}&now={start_now}",
            f"/predictions/{itype}/{zone}?probability=abc&now={start_now}",
            f"/bid/{itype}/{zone}"
            f"?probability={prob}&duration=1e18&now={start_now}",
            "/no/such/route",
            f"/predictions/{itype}/{zone}"
            f"?probability={prob}&now={start_now}&deadline=0",
            # One route table: fragments and repeated query keys resolve
            # identically on the router and the shards.
            "/no/such#frag",
            f"/bid/{itype}/{zone}?probability=0.5&probability={prob}"
            f"&duration=3600.0&now={start_now}",
        ]
        # A (type, region) pair the universe has no capacity for: both
        # sides must refuse with the same 503, and the routed side takes
        # the empty-fan-out delegation path to get there.
        region_cover: dict[str, set[str]] = {}
        for combo in universe.combos():
            region_cover.setdefault(combo.instance_type, set()).add(
                combo.zone.region
            )
        all_regions = set().union(*region_cover.values())
        gap = next(
            (
                (gap_type, min(all_regions - covered))
                for gap_type, covered in sorted(region_cover.items())
                if covered != all_regions
            ),
            None,
        )
        if gap is not None:
            cases.append(
                f"/cheapest/{gap[0]}/{gap[1]}"
                f"?probability={prob}&now={start_now}"
            )
        # Not offered: a 404 on every read. Repeats must not trip a
        # breaker into a 503 or an On-demand bid on either side.
        not_found = [
            f"/predictions/zz99.none/{zone}?probability={prob}&now={start_now}",
            f"/bid/{itype}/{region}q"
            f"?probability={prob}&duration=3600.0&now={start_now}",
            f"/cheapest/{itype}/zz-none?probability={prob}&now={start_now}",
            f"/cheapest/zz99.none/{region}?probability={prob}&now={start_now}",
        ]
        for path in cases + not_found * 4:
            expected = single.get(path)
            status, body = http_get(deployment.router.url, path)
            want = encode_body(expected.body)
            if status != expected.status or body != want:
                failures.append(
                    f"parity break on {path}: {status} {body!r} "
                    f"vs {expected.status} {want!r}"
                )
            elif path in not_found and status != 404:
                failures.append(f"{path} answered {status}, not 404")
        # Every process answers health itself (the body names it), so a
        # health URL's reference is that process's own plain /healthz.
        for base in (deployment.router.url, *deployment.shard_urls.values()):
            got = http_get(base, "/healthz#x")
            want = http_get(base, "/healthz")
            if got != want:
                failures.append(
                    f"parity break on {base}/healthz#x: {got!r} vs {want!r}"
                )
    finally:
        # 3. Drain.
        stats = deployment.stop()
    if not stats["drained"]:
        failures.append(f"dirty drain: {stats}")
    if failures:
        for failure in failures:
            print(f"router-smoke: FAIL — {failure}", file=sys.stderr)
        return 1
    print(
        f"router-smoke: ok — {len(combos)} combos over "
        f"{args.shards} forked shards, partition exhaustive and "
        f"disjoint, routed bytes identical on "
        f"{len(cases)} paths plus /healthz#x, {len(not_found)} unknown "
        f"names 404 on 4 reads each, clean drain"
    )
    return 0


def main(argv: list[str] | None = None) -> int:
    """Parse the command line and dispatch."""
    parser = argparse.ArgumentParser(prog="python -m repro")
    sub = parser.add_subparsers(dest="command", required=True)

    p_exp = sub.add_parser("experiments", help="reproduce paper artefacts")
    p_exp.add_argument("experiment")
    p_exp.add_argument("--scale", choices=sorted(SCALES), default="bench")
    p_exp.add_argument(
        "--workers",
        type=int,
        default=0,
        help="worker processes for the backtest-shaped experiments "
        "(0 = sequential)",
    )
    p_exp.set_defaults(func=_cmd_experiments)

    p_export = sub.add_parser("export", help="write a price archive")
    p_export.add_argument("directory")
    p_export.add_argument("--per-class", type=int, default=2)
    p_export.add_argument("--scale", choices=sorted(SCALES), default="bench")
    p_export.set_defaults(func=_cmd_export)

    p_survey = sub.add_parser("survey", help="stylised-fact survey")
    p_survey.add_argument("--per-class", type=int, default=2)
    p_survey.add_argument("--scale", choices=sorted(SCALES), default="bench")
    p_survey.set_defaults(func=_cmd_survey)

    p_serve = sub.add_parser(
        "serve-bench", help="benchmark the serving gateway"
    )
    p_serve.add_argument("--scale", choices=sorted(SCALES), default="test")
    p_serve.add_argument("--requests", type=int, default=400)
    p_serve.add_argument("--keys", type=int, default=4)
    p_serve.add_argument("--threads", default="1,4,16")
    p_serve.add_argument("--seed", type=int, default=7)
    p_serve.set_defaults(func=_cmd_serve_bench)

    p_chaos = sub.add_parser(
        "chaos", help="fault-injection run against the serving gateway"
    )
    p_chaos.add_argument("--scale", choices=sorted(SCALES), default="test")
    p_chaos.add_argument("--requests", type=int, default=200)
    p_chaos.add_argument("--keys", type=int, default=3)
    p_chaos.add_argument("--error-rate", type=float, default=0.1)
    p_chaos.add_argument("--spike-rate", type=float, default=0.05)
    p_chaos.add_argument("--seed", type=int, default=7)
    p_chaos.add_argument("--breaker-threshold", type=int, default=2)
    p_chaos.add_argument("--breaker-cooldown", type=float, default=10.0)
    p_chaos.add_argument("--invalidate-every", type=int, default=15)
    p_chaos.add_argument(
        "--no-restart",
        action="store_true",
        help="skip the mid-run snapshot/restore round-trip",
    )
    p_chaos.set_defaults(func=_cmd_chaos)

    p_usm = sub.add_parser(
        "universe-smoke",
        help="verify the vectorised universe tick against scalar predictors",
    )
    p_usm.add_argument("--keys", type=int, default=32)
    p_usm.add_argument("--epochs", type=int, default=160)
    p_usm.add_argument("--probability", type=float, default=0.95)
    p_usm.add_argument("--seed", type=int, default=1000)
    p_usm.set_defaults(func=_cmd_universe_smoke)

    p_fsm = sub.add_parser(
        "fit-smoke",
        help="verify the batched universe-wide phase-1 fit against "
        "scalar predictors",
    )
    p_fsm.add_argument("--keys", type=int, default=32)
    # Long enough that the ragged lengths (75-100 % of --epochs) straddle
    # min_history at q = sqrt(0.99) (919): both levels publish bounds.
    p_fsm.add_argument("--epochs", type=int, default=1200)
    p_fsm.add_argument("--probability", type=float, default=0.95)
    p_fsm.add_argument("--seed", type=int, default=900)
    p_fsm.set_defaults(func=_cmd_fit_smoke)

    p_srv = sub.add_parser(
        "serve", help="serve the gateway on a real listening socket"
    )
    p_srv.add_argument("--scale", choices=sorted(SCALES), default="test")
    p_srv.add_argument("--keys", type=int, default=4)
    p_srv.add_argument("--probability", type=float, default=0.95)
    p_srv.add_argument("--host", default="127.0.0.1")
    p_srv.add_argument("--port", type=int, default=8080)
    p_srv.add_argument("--max-connections", type=int, default=128)
    p_srv.add_argument("--max-inflight", type=int, default=256)
    p_srv.add_argument(
        "--snapshot-dir",
        default=None,
        help="crash-safe checkpoint directory (warm restore on start, "
        "final checkpoint after the drain)",
    )
    p_srv.add_argument(
        "--shards",
        type=int,
        default=0,
        help="partition the key universe across N forked shard workers "
        "behind a consistent-hash router on --port (0 = off); "
        "--snapshot-dir becomes the per-shard snapshot root",
    )
    p_srv.set_defaults(func=_cmd_serve)

    p_rep = sub.add_parser(
        "replay", help="open-loop load replay against a serving socket"
    )
    p_rep.add_argument("--url", default=None, help="base URL of a running server")
    p_rep.add_argument(
        "--spawn",
        action="store_true",
        help="spawn an in-process server on an ephemeral port instead",
    )
    p_rep.add_argument("--scale", choices=sorted(SCALES), default="test")
    p_rep.add_argument("--keys", type=int, default=4)
    p_rep.add_argument("--probability", type=float, default=0.95)
    p_rep.add_argument("--requests", type=int, default=2000)
    p_rep.add_argument("--rate", type=float, default=1000.0)
    p_rep.add_argument("--seed", type=int, default=0)
    p_rep.add_argument("--warmup", type=int, default=50)
    p_rep.add_argument("--concurrency", type=int, default=32)
    p_rep.add_argument("--timeout", type=float, default=5.0)
    p_rep.add_argument("--hedge", action="store_true")
    p_rep.add_argument(
        "--hedge-delay",
        type=float,
        default=None,
        help="fixed hedge delay in seconds (default: adaptive p95-based)",
    )
    p_rep.add_argument("--diurnal-period", type=float, default=30.0)
    p_rep.add_argument(
        "--diurnal-amplitude",
        type=float,
        default=0.3,
        help="0 disables the envelope (homogeneous Poisson arrivals)",
    )
    p_rep.add_argument(
        "--spike-rate",
        type=float,
        default=0.0,
        help="seeded server-side latency-spike rate (--spawn only)",
    )
    p_rep.add_argument("--spike-seconds", type=float, default=0.25)
    p_rep.add_argument(
        "--shards",
        type=int,
        default=0,
        help="spawn N forked partition-restricted shards behind the "
        "consistent-hash router and replay against the router "
        "(requires --spawn; 0 = off)",
    )
    p_rep.add_argument("--json", action="store_true")
    p_rep.set_defaults(func=_cmd_replay)

    p_rsm = sub.add_parser(
        "router-smoke",
        help="boot a forked sharded deployment; verify partition "
        "disjointness, routed byte parity and clean drain",
    )
    p_rsm.add_argument("--scale", choices=sorted(SCALES), default="test")
    p_rsm.add_argument("--keys", type=int, default=4)
    p_rsm.add_argument("--shards", type=int, default=2)
    p_rsm.add_argument("--probability", type=float, default=0.95)
    p_rsm.set_defaults(func=_cmd_router_smoke)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
