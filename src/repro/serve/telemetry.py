"""The service's live telemetry endpoint: a minimal asyncio HTTP server.

Runs next to a :class:`~repro.serve.service.ClusterService` (a
single-graph :class:`~repro.serve.service.TraversalService` is one with
the one tenant ``default``) on its event loop and exposes the
observability surface to scrapers:

=================  ====================================================
path               payload
=================  ====================================================
``/metrics``       Prometheus text exposition — byte-identical to
                   :func:`~repro.obs.metrics.to_prometheus_text` over
                   the service's registry (pinned by test)
``/healthz``       liveness JSON: status, uptime, queue/request counters
``/tenants``       per-tenant queue depth/quota/weight/deficit, serving
                   counters, percentiles, and replica liveness
``/slo``           tenant id -> that tenant's
                   :meth:`~repro.obs.slo.SLOMonitor.evaluate` document
``/slo/<tenant>``  one tenant's SLO document (404 for unknown tenants)
``/timeline``      the sampler's snapshot ring
                   (``status: disabled`` when no sampler is attached)
``/trace/<id>``    one request's staged
                   :class:`~repro.serve.service.RequestTimeline` (404
                   once aged out)
=================  ====================================================

HTTP support is deliberately tiny — GET only, one response per
connection (``Connection: close``) — which is all ``curl``, Prometheus,
and the CI smoke scraper need.  Bind to port 0 for an ephemeral port
(tests); :attr:`TelemetryServer.port` reports the bound one.
"""

from __future__ import annotations

import asyncio
import json
import time

from repro.obs.metrics import PROMETHEUS_CONTENT_TYPE, to_prometheus_text

__all__ = ["TelemetryServer"]

_MAX_REQUEST_BYTES = 16384


class TelemetryServer:
    """Serves a :class:`ClusterService`'s telemetry over HTTP."""

    def __init__(
        self,
        service,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        sampler=None,
    ) -> None:
        self.service = service
        self.sampler = sampler
        self._host = host
        self._port = int(port)
        self._server: asyncio.AbstractServer | None = None
        self._started_at = time.monotonic()
        self.scrapes = 0

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    @property
    def port(self) -> int:
        """The bound port (resolves 0 → ephemeral after :meth:`start`)."""
        return self._port

    @property
    def url(self) -> str:
        return f"http://{self._host}:{self._port}"

    async def start(self) -> None:
        if self._server is not None:
            raise RuntimeError("telemetry server already started")
        self._server = await asyncio.start_server(
            self._handle, self._host, self._port
        )
        self._port = self._server.sockets[0].getsockname()[1]
        self._started_at = time.monotonic()

    async def stop(self) -> None:
        if self._server is None:
            return
        self._server.close()
        await self._server.wait_closed()
        self._server = None

    async def __aenter__(self) -> "TelemetryServer":
        await self.start()
        return self

    async def __aexit__(self, *exc) -> None:
        await self.stop()

    # ------------------------------------------------------------------
    # request handling
    # ------------------------------------------------------------------

    async def _handle(self, reader, writer) -> None:
        try:
            request = await asyncio.wait_for(
                reader.readuntil(b"\r\n\r\n"), timeout=5.0
            )
        except (
            asyncio.IncompleteReadError,
            asyncio.LimitOverrunError,
            asyncio.TimeoutError,
            ConnectionError,
        ):
            writer.close()
            return
        try:
            status, ctype, body = self._route(request[:_MAX_REQUEST_BYTES])
            self.scrapes += 1
            writer.write(_response(status, ctype, body))
            await writer.drain()
        except ConnectionError:
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except ConnectionError:
                pass

    def _route(self, raw: bytes) -> tuple[int, str, bytes]:
        try:
            request_line = raw.split(b"\r\n", 1)[0].decode("latin-1")
            method, target, _version = request_line.split(" ", 2)
        except ValueError:
            return 400, "text/plain", b"bad request\n"
        if method != "GET":
            return 405, "text/plain", b"method not allowed\n"
        path = target.split("?", 1)[0]
        if path == "/metrics":
            text = to_prometheus_text(self.service.metrics)
            return 200, PROMETHEUS_CONTENT_TYPE, text.encode("utf-8")
        if path == "/healthz":
            return 200, "application/json", _json(self._health())
        if path == "/tenants":
            return 200, "application/json", _json(
                self.service.tenants_snapshot()
            )
        if path == "/slo":
            return 200, "application/json", _json(self.service.slo_status())
        if path.startswith("/slo/"):
            tenant_id = path[len("/slo/"):]
            monitor = self.service.slo_monitors.get(tenant_id)
            if monitor is None:
                return 404, "application/json", _json(
                    {"error": f"unknown tenant {tenant_id!r}"}
                )
            return 200, "application/json", _json(monitor.evaluate())
        if path == "/timeline":
            if self.sampler is None:
                return 200, "application/json", _json({"status": "disabled"})
            return 200, "application/json", _json(self.sampler.to_dict())
        if path.startswith("/trace/"):
            trace_id = path[len("/trace/"):]
            timeline = self.service.request_timeline(trace_id)
            if timeline is None:
                return 404, "application/json", _json(
                    {"error": f"unknown trace id {trace_id!r}"}
                )
            return 200, "application/json", _json(timeline.to_dict())
        return 404, "text/plain", b"not found\n"

    def _health(self) -> dict:
        stats = self.service.stats
        return {
            "status": "ok",
            "uptime_seconds": time.monotonic() - self._started_at,
            "pending": self.service.pending,
            "requests": stats.requests,
            "completed": stats.completed,
            "cache_hits": stats.cache_hits,
            "shed": stats.shed,
            "failed": stats.failed,
            "scrapes": self.scrapes,
        }


_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
}


def _json(doc: dict) -> bytes:
    return (json.dumps(doc, sort_keys=True) + "\n").encode("utf-8")


def _response(status: int, content_type: str, body: bytes) -> bytes:
    head = (
        f"HTTP/1.1 {status} {_REASONS.get(status, 'OK')}\r\n"
        f"Content-Type: {content_type}\r\n"
        f"Content-Length: {len(body)}\r\n"
        "Connection: close\r\n"
        "\r\n"
    )
    return head.encode("latin-1") + body
