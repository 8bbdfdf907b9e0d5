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
tier. A curve route may also name ``&deadline=``, the serving gateway's
per-request wall budget; this router has none to enforce, but a malformed
value is the same 400 here.

:func:`respond` is the one handler set: this router and the serving
gateway answer the three curve routes through it and differ only in how
they read a curve.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from urllib.parse import parse_qs, urlsplit

from repro.service.drafts_service import DraftsService

__all__ = [
    "CURVE_ROUTES",
    "Response",
    "RestRouter",
    "Route",
    "Unavailable",
    "encode_body",
    "parse_floats",
    "parse_route",
    "respond",
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

#: The kinds of route :func:`respond` answers.
CURVE_ROUTES = frozenset(_ROUTE_FLOATS)

#: Bound on memoised parses; the memo is cleared when it fills.
_MAX_MEMO = 4096


@dataclass(frozen=True, slots=True)
class Route:
    """One URL resolved against the route table.

    ``kind`` is ``"health"``, ``"metrics"``, ``"predictions"``, ``"bid"``,
    ``"cheapest"``, or ``""`` when no route matches; ``path`` is what a
    404 names. A curve route also carries its type and zone (region for
    ``cheapest``) segments and its floats parsed once (``duration`` for
    ``bid`` only; ``deadline``, the optional per-request wall budget,
    when the URL names one) — or, instead of the floats, the 400
    ``error`` message.
    """

    kind: str
    path: str
    instance_type: str = ""
    location: str = ""
    probability: float | None = None
    duration: float | None = None
    now: float | None = None
    deadline: float | None = None
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
        deadline = (
            parse_floats(query, "deadline")[0] if "deadline" in query else None
        )
    except ValueError as exc:
        return Route(kind, parts.path, instance_type, location, error=str(exc))
    return Route(
        kind,
        parts.path,
        instance_type,
        location,
        probability=values[0],
        duration=values[1] if kind == "bid" else None,
        now=values[-1],
        deadline=deadline,
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


class Unavailable(Exception):
    """A curve read that declines to answer for its key.

    The shared ``/cheapest`` scan skips such a zone, as it skips one the
    account does not offer; on ``/predictions`` and ``/bid`` it reaches
    the caller of :func:`respond`, which owns that answer (the serving
    gateway's open circuit).
    """


def respond(route: Route, service: DraftsService, read) -> Response:
    """The status and body of one curve route (``predictions``, ``bid``
    or ``cheapest``).

    ``read(instance_type, zone, probability, now)`` obtains a curve:
    ``service.curve`` for :class:`RestRouter`, the stale-while-revalidate
    store read for the serving gateway. Every body and error message of
    the three routes is built here, and this is the one place errors map
    to statuses: ``ValueError`` is 400 (a malformed query, or an
    unpublished level, checked before any name), ``KeyError`` is 404 (a
    name the account does not know, or a duration no published bid
    guarantees) and ``RuntimeError`` is 503 (too little history, a failing
    history API, no zone that can quote). :class:`Unavailable` from
    ``read`` skips a ``cheapest`` zone and otherwise reaches the caller.
    """
    try:
        if route.error is not None:
            raise ValueError(route.error)
        service.check_probability(route.probability)
        if route.kind == "cheapest":
            return _cheapest(route, service, read)
        curve = read(
            route.instance_type, route.location, route.probability, route.now
        )
        if curve is None:
            raise RuntimeError("insufficient history for a prediction")
        if route.kind == "predictions":
            return Response(200, curve.to_dict())
        bid = curve.bid_for_duration(route.duration)
        if math.isnan(bid):
            # 404 is reserved for a real curve whose longest guaranteed
            # duration falls short.
            raise KeyError(
                "no published bid guarantees the requested duration; "
                "consider the On-demand tier"
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
    except KeyError as exc:
        # str(KeyError) wraps the message in repr quotes; unwrap it.
        return Response(404, {"error": exc.args[0] if exc.args else str(exc)})
    except ValueError as exc:
        return Response(400, {"error": str(exc)})
    except RuntimeError as exc:
        return Response(503, {"error": str(exc)})


def _cheapest(route: Route, service: DraftsService, read) -> Response:
    """§4.2's AZ-fitness rule: the scanned zone with the lowest minimum bid
    (the first such zone on a tie)."""
    instance_type, region = route.instance_type, route.location
    best_zone, best_bid = "", math.inf
    for zone in service.scan_zones(instance_type, region):
        try:
            curve = read(instance_type, zone, route.probability, route.now)
        except (KeyError, Unavailable):
            continue
        if curve is not None and curve.minimum_bid < best_bid:
            best_zone, best_bid = zone, curve.minimum_bid
    if not best_zone:
        raise RuntimeError(f"no AZ in {region} can quote {instance_type} yet")
    return Response(
        200,
        {
            "instance_type": instance_type,
            "region": region,
            "zone": best_zone,
            "minimum_bid": best_bid,
        },
    )


class RestRouter:
    """Routes URL strings to :class:`DraftsService` reads.

    The lazy endpoint: every curve is read through ``service.curve``,
    which recomputes a stale key inline, and :func:`respond` builds the
    answer, so each body, status and message is the serving gateway's.
    """

    def __init__(self, service: DraftsService) -> None:
        self._service = service

    def get(self, url: str) -> Response:
        """Dispatch one GET request."""
        route = parse_route(url)
        if route.kind == "health":
            return Response(200, {"status": "ok"})
        if route.kind not in CURVE_ROUTES:
            return Response(404, {"error": f"no route for {route.path!r}"})
        return respond(route, self._service, self._service.curve)
