"""In-process REST layer for the DrAFTS service.

The production DrAFTS prototype exposes its bid predictions through a REST
API (§3.3); clients GET machine-readable bid–duration graphs per instance
type and AZ. This module reproduces that interface shape — URL routing,
query parameters, JSON-ready responses and HTTP-style status codes —
without a network stack, so the provisioner integration (§4.3) exercises
the same request/response path the real platform did.

Routes:

``GET /predictions/{instance_type}/{zone}?probability=&now=``
    The bid–duration curve (Figure 4's machine-readable form).
``GET /bid/{instance_type}/{zone}?probability=&duration=&now=``
    The minimum bid guaranteeing ``duration`` seconds.
``GET /cheapest/{instance_type}/{region}?probability=&now=``
    The AZ-fitness selection of §4.2.
``GET /health``
    Liveness probe.

:func:`parse_route` is the one route table: this router, the serving
gateway (:mod:`repro.serving.gateway`) and the shard router
(:mod:`repro.serving.router`) all resolve URLs through it, so a URL means
the same route — and fails validation with the same message — on every
tier.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from urllib.parse import parse_qs, urlsplit

from repro.service.drafts_service import DraftsService

__all__ = [
    "Response",
    "RestRouter",
    "Route",
    "encode_body",
    "parse_floats",
    "parse_route",
]


def encode_body(body: dict) -> bytes:
    """The canonical wire encoding of a response body.

    One encoder shared by the socket server and the parity tests, so
    "byte-identical to the in-process handlers" is a well-defined claim:
    UTF-8 JSON, keys in insertion order (the handlers build them
    deterministically), compact separators, trailing newline.
    """
    return (json.dumps(body, separators=(", ", ": ")) + "\n").encode("utf-8")


def parse_floats(query: dict, *names: str) -> list[float]:
    """Extract required float query parameters, naming the offender.

    Raises ``ValueError`` mentioning the parameter for both a missing name
    and a malformed value (a bare ``float('abc')`` error would otherwise
    surface as an unhelpful "could not convert string to float" body).
    """
    values = []
    for name in names:
        if name not in query:
            raise ValueError(f"missing query parameter {name!r}")
        try:
            values.append(float(query[name]))
        except ValueError:
            raise ValueError(
                f"malformed query parameter {name!r}: "
                f"{query[name]!r} is not a number"
            ) from None
    return values


#: The required float parameters of each curve route, in validation order
#: (the first missing or malformed one names the 400).
_ROUTE_FLOATS = {
    "predictions": ("probability", "now"),
    "bid": ("probability", "duration", "now"),
    "cheapest": ("probability", "now"),
}

#: Bound on memoised parses; the memo is cleared when it fills.
_MAX_MEMO = 4096


@dataclass(frozen=True, slots=True)
class Route:
    """One URL resolved against the route table.

    ``kind`` is ``"health"``, ``"metrics"``, ``"predictions"``, ``"bid"``,
    ``"cheapest"``, or ``""`` when no route matches; ``path`` is what a
    404 names. A curve route also carries its type and zone (region for
    ``cheapest``) segments, its query (shared by every caller of the
    URL: read only) and its floats parsed once (``duration`` for ``bid``
    only) — or, instead of the floats, the 400 ``error`` message.
    """

    kind: str
    path: str
    instance_type: str = ""
    location: str = ""
    query: dict | None = None
    probability: float | None = None
    duration: float | None = None
    now: float | None = None
    error: str | None = None


#: url -> Route. A route is a pure function of its URL, so one memo per
#: process serves every consumer.
_routes: dict[str, Route] = {}


def parse_route(url: str) -> Route:
    """Resolve ``url`` (path plus optional query) to its :class:`Route`.

    ``urlsplit`` + ``parse_qs`` semantics: the fragment is dropped, empty
    path segments are ignored, blank query values count as missing, and
    a repeated query name keeps its last value. A URL ``urlsplit``
    rejects matches no route. Memoised per URL (serving traffic repeats a
    bounded key × parameter grid, and the parse costs more than a warm
    store read); a racing double parse merely wastes one parse.
    """
    route = _routes.get(url)
    if route is None:
        route = _resolve(url)
        if len(_routes) >= _MAX_MEMO:
            _routes.clear()  # bound the memo under URL churn
        _routes[url] = route
    return route


def _resolve(url: str) -> Route:
    try:
        parts = urlsplit(url)
    except ValueError:  # e.g. an unbalanced "[" in a netloc-shaped path
        return Route("", url)
    segments = [s for s in parts.path.split("/") if s]
    query = {k: v[-1] for k, v in parse_qs(parts.query).items()}
    if segments in (["health"], ["healthz"]):
        return Route("health", parts.path)
    if segments == ["metrics"]:
        return Route("metrics", parts.path)
    names = _ROUTE_FLOATS.get(segments[0]) if len(segments) == 3 else None
    if names is None:
        return Route("", parts.path)
    kind, instance_type, location = segments
    try:
        values = parse_floats(query, *names)
    except ValueError as exc:
        return Route(
            kind, parts.path, instance_type, location, query, error=str(exc)
        )
    return Route(
        kind,
        parts.path,
        instance_type,
        location,
        query,
        probability=values[0],
        duration=values[1] if kind == "bid" else None,
        now=values[-1],
    )


@dataclass(frozen=True)
class Response:
    """An HTTP-style response: status code plus JSON-ready body."""

    status: int
    body: dict

    @property
    def ok(self) -> bool:
        """Whether the status is 2xx."""
        return 200 <= self.status < 300


class RestRouter:
    """Routes URL strings to :class:`DraftsService` calls."""

    def __init__(self, service: DraftsService) -> None:
        self._service = service
        self._handlers = {
            "predictions": self._predictions,
            "bid": self._bid,
            "cheapest": self._cheapest,
        }

    def get(self, url: str) -> Response:
        """Dispatch one GET request."""
        route = parse_route(url)
        if route.kind == "health":
            return Response(200, {"status": "ok"})
        handler = self._handlers.get(route.kind)
        if handler is None:
            return Response(404, {"error": f"no route for {route.path!r}"})
        if route.error is not None:
            return Response(400, {"error": route.error})
        try:
            return handler(route)
        except KeyError as exc:
            # str(KeyError) wraps the message in repr quotes; unwrap it.
            return Response(404, {"error": exc.args[0] if exc.args else str(exc)})
        except (ValueError, RuntimeError) as exc:
            return Response(400, {"error": str(exc)})

    def _predictions(self, route: Route) -> Response:
        curve = self._service.curve(
            route.instance_type, route.location, route.probability, route.now
        )
        if curve is None:
            return Response(
                503, {"error": "insufficient history for a prediction"}
            )
        return Response(200, curve.to_dict())

    def _bid(self, route: Route) -> Response:
        bid = self._service.bid_for_duration(
            route.instance_type,
            route.location,
            route.probability,
            route.duration,
            route.now,
        )
        if math.isnan(bid):
            return Response(
                404,
                {
                    "error": "no published bid guarantees the requested "
                    "duration; consider the On-demand tier"
                },
            )
        return Response(
            200,
            {
                "instance_type": route.instance_type,
                "zone": route.location,
                "probability": route.probability,
                "duration": route.duration,
                "bid": bid,
            },
        )

    def _cheapest(self, route: Route) -> Response:
        try:
            zone, bid = self._service.cheapest_zone(
                route.instance_type, route.location, route.probability, route.now
            )
        except RuntimeError as exc:
            # Data readiness, not a client error: no AZ has enough history
            # yet — same condition `_predictions` reports as 503.
            return Response(503, {"error": str(exc)})
        return Response(
            200,
            {
                "instance_type": route.instance_type,
                "region": route.location,
                "zone": zone,
                "minimum_bid": bid,
            },
        )
