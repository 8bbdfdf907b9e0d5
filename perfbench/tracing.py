"""In-memory spans around calls into each layer of the system.

The benchmark never edits the program. It replaces a layer's public
function with a timing wrapper *where its callers look it up*: a method
on its class, or a module-level function in every loaded ``repro``
module that bound it (so ``from x import f`` callers see the wrapper
too). Each span records its name, start, end, parent span and request
id; spans live in per-thread lists in memory and are summarised to a
JSON file when the process drains. A forked child starts with empty
lists, so each process reports only its own work.

Self time is a span's duration minus the time its direct child spans
cover. Request ids: ``parse_head`` opens a new request on its thread,
and the root spans that follow it on that thread (probe, dispatch,
render) belong to the same request; any other root span opens its own.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import os
import sys
import threading
import time

#: (module, attribute path, span name, tag) for every timed boundary.
#: ``tag`` names a function of (args, result) whose value the span keeps.
TARGETS = (
    ("repro.serving.httpcore", "parse_head", "httpcore.parse_head", None),
    ("repro.serving.httpcore", "dispatch", "httpcore.dispatch", None),
    ("repro.serving.httpcore", "render_response", "httpcore.render_response", None),
    ("repro.serving.gateway", "ServingGateway.get", "gateway.get", None),
    ("repro.serving.gateway", "ServingGateway.probe_inline", "gateway.probe_inline", "inline"),
    ("repro.serving.refresher", "BackgroundRefresher.poke", "refresher.poke", "key"),
    ("repro.serving.refresher", "BackgroundRefresher.refresh", "refresher.refresh", "key"),
    ("repro.service.drafts_service", "DraftsService.curve", "service.curve", None),
    ("repro.service.drafts_service", "DraftsService.warm_start", "service.warm_start", None),
    ("repro.service.drafts_service", "DraftsService.cache_info", "service.cache_info", None),
    ("repro.cloud.api", "EC2Api.describe_spot_price_history", "api.fetch", "rows"),
    ("repro.core.universe", "UniverseTicker.tick", "ticker.tick", None),
    ("repro.core.universe", "UniverseTicker.observe", "ticker.observe", None),
    ("repro.core.universe", "UniverseTicker.curves", "ticker.curves", None),
    ("repro.core.universe", "UniverseTicker.curve_for", "ticker.curve_for", None),
    ("repro.core.universe", "UniverseTicker.extend_frozen", "ticker.extend_frozen", None),
    ("repro.core.universe", "UniverseTicker.bid_for", "ticker.bid_for", None),
    ("repro.core.online", "OnlineDraftsPredictor.observe", "online.observe", None),
    ("repro.core.online", "OnlineDraftsPredictor.curve", "online.curve", None),
    ("repro.core.universe_fit", "fit_drafts_universe", "fit.fit_drafts_universe", "n_traces"),
    ("repro.backtest.predcache", "get_predictors_batch", "predcache.get_predictors_batch", None),
    ("repro.baselines.ar1", "AR1Bid.prefit_universe", "ar1.prefit_universe", None),
    ("repro.backtest.engine", "run_backtest", "engine.run_backtest", "strategy"),
    ("repro.market.universe", "Universe.trace", "market.trace", None),
    ("repro.serving.router", "merge_cheapest", "router.merge_cheapest", None),
    ("repro.serving.router", "Partition.route", "router.route", None),
    ("repro.serving.router", "Partition.shards_for", "router.shards_for", "n_result"),
)

#: The span that starts a new HTTP request on its thread.
OPENS_REQUEST = "httpcore.parse_head"

#: Modules whose import must precede patching so every binding is found.
PRELOAD = (
    "repro.serving.aiohttpd",
    "repro.serving.router",
    "repro.backtest.universe_driver",
    "repro.experiments.table1",
    "repro.experiments.parallel",
)


def _tag_inline(args, result):
    return bool(result[0])


def _tag_key(args, result):
    return "|".join(str(part) for part in args[1])


def _tag_rows(args, result):
    return 0 if result is None else len(result)


def _tag_n_traces(args, result):
    return len(args[0])


def _tag_strategy(args, result):
    return args[2].name


def _tag_n_result(args, result):
    return len(result)


_TAGGERS = {
    None: None,
    "inline": _tag_inline,
    "key": _tag_key,
    "rows": _tag_rows,
    "n_traces": _tag_n_traces,
    "strategy": _tag_strategy,
    "n_result": _tag_n_result,
}


class Tracer:
    """Per-process span store: one list per thread, no locks on the hot path.

    A span is ``[name, start_ns, end_ns, parent_index, request_id, tag]``;
    ``parent_index`` points into the same thread's list (-1 for a root).
    """

    def __init__(self) -> None:
        self._lists: list[list[list]] = []
        self._lists_lock = threading.Lock()
        self._local = threading.local()
        self._request_ids = itertools.count(1)
        self._installed = False

    def _after_fork_in_child(self) -> None:
        self._lists = []
        self._lists_lock = threading.Lock()
        self._local = threading.local()

    def _thread_state(self):
        local = self._local
        spans = getattr(local, "spans", None)
        if spans is None:
            spans = local.spans = []
            local.stack = []
            local.current = None
            with self._lists_lock:
                self._lists.append(spans)
        return spans, local.stack

    def wrap(self, name: str, fn, tagger=None):
        clock = time.perf_counter_ns
        tracer = self
        opens_request = name == OPENS_REQUEST

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            spans, stack = tracer._thread_state()
            if stack:
                parent = stack[-1]
                request = spans[parent][4]
            else:
                parent = -1
                local = tracer._local
                request = None if opens_request else local.current
                if request is None:
                    request = next(tracer._request_ids)
                    if opens_request:
                        local.current = request
            record = [name, clock(), 0, parent, request, None]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if tagger is not None:
                record[5] = tagger(args, result)
            return result

        return traced

    def install(self) -> None:
        """Patch every target in :data:`TARGETS` (idempotent per process)."""
        if self._installed:
            return
        self._installed = True
        for module_name in PRELOAD + tuple(t[0] for t in TARGETS):
            importlib.import_module(module_name)
        for module_name, path, name, tag in TARGETS:
            module = importlib.import_module(module_name)
            tagger = _TAGGERS[tag]
            owner_name, _, attr = path.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                raw = inspect.getattr_static(owner, attr)
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self.wrap(name, raw.__func__, tagger))
                else:
                    wrapped = self.wrap(name, raw, tagger)
                setattr(owner, attr, wrapped)
                continue
            original = getattr(module, attr)
            wrapped = self.wrap(name, original, tagger)
            for loaded in list(sys.modules.values()):
                if not getattr(loaded, "__name__", "").startswith("repro"):
                    continue
                for key, value in list(vars(loaded).items()):
                    if value is original:
                        setattr(loaded, key, wrapped)
        os.register_at_fork(after_in_child=self._after_fork_in_child)

    def spans(self) -> list[list[list]]:
        with self._lists_lock:
            return [list(spans) for spans in self._lists]

    def summary(self) -> dict:
        """Per-name totals, durations, self times and tags, plus the
        poke-to-refresh waits of the background refresher."""
        out: dict[str, dict] = {}
        pokes: list[tuple[int, str, str]] = []
        request_ns: dict[int, int] = {}
        for spans in self.spans():
            child_ns = [0] * len(spans)
            for record in spans:
                if record[3] >= 0 and record[2]:
                    child_ns[record[3]] += record[2] - record[1]
            for index, (name, start, end, parent, req, tag) in enumerate(spans):
                if not end:
                    continue  # still open at the dump
                if parent < 0 and (name == OPENS_REQUEST or req in request_ns):
                    request_ns[req] = request_ns.get(req, 0) + end - start
                entry = out.setdefault(
                    name, {"count": 0, "dur_ns": [], "self_ns": [], "tags": []}
                )
                entry["count"] += 1
                entry["dur_ns"].append(end - start)
                entry["self_ns"].append(end - start - child_ns[index])
                if tag is not None:
                    entry["tags"].append(tag)
                if name in ("refresher.poke", "refresher.refresh"):
                    pokes.append((start, name, tag))
        waits: list[int] = []
        first_poke: dict[str, int] = {}
        for start, name, key in sorted(pokes):
            if name == "refresher.poke":
                first_poke.setdefault(key, start)
            elif key in first_poke:
                waits.append(start - first_poke.pop(key))
        return {
            "spans": out,
            "refresh_wait_ns": waits,
            "request_ns": list(request_ns.values()),
        }

    def dump(self, path: str, role: str) -> None:
        body = self.summary()
        body["pid"] = os.getpid()
        body["role"] = role
        tmp = f"{path}.tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(body, handle)
        os.replace(tmp, path)


def dump_on_drain(tracer: Tracer, directory: str) -> None:
    """Dump each gateway worker's spans when its server drains.

    Wraps ``AsyncGatewayHTTPServer.stop``, which every worker process
    (the single worker and each forked shard) calls exactly once at drain.
    """
    from repro.serving.aiohttpd import AsyncGatewayHTTPServer

    original = AsyncGatewayHTTPServer.stop

    @functools.wraps(original)
    def stop_and_dump(self):
        stats = original(self)
        tracer.dump(os.path.join(directory, f"spans-{os.getpid()}.json"), "worker")
        return stats

    AsyncGatewayHTTPServer.stop = stop_and_dump


def load_dumps(directory: str) -> list[dict]:
    """Every per-process span summary written under ``directory``."""
    dumps = []
    for name in sorted(os.listdir(directory)):
        if name.startswith("spans-") and name.endswith(".json"):
            with open(os.path.join(directory, name), encoding="utf-8") as handle:
                dumps.append(json.load(handle))
    return dumps
