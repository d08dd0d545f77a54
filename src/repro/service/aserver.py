"""The asyncio job server: streaming progress, rate limits, graceful drain.

This is the service's only HTTP front-end, the engine ``repro serve`` runs:
a single-threaded :mod:`asyncio` streams server with HTTP/1.1 keep-alive over
the :class:`~repro.service.server.RunService` facade; all heavy work runs on
the scheduler's bounded worker pool.

==================================  ==========================================
``GET  /healthz``                   liveness + job counters + drain flag
``POST /jobs``                      submit a job (rate-limited per tenant via
                                    the ``X-Tenant`` header; 429 +
                                    ``Retry-After`` over budget, 503 while
                                    draining)
``GET  /jobs?limit=&offset=&state=``  paginated, filtered job listing
``GET  /jobs/<id>``                 one job's status
``GET  /jobs/<id>/result``          the outcome (202 while pending)
``GET  /jobs/<id>/events``          **SSE stream** of the job's adaptive
                                    rounds and terminal result
``GET  /runs?limit=&offset=&stage=``  paginated store listing
``GET  /metrics``                   Prometheus text exposition of the
                                    process-global metrics registry
==================================  ==========================================

**The SSE protocol.**  Every event is ``event:`` / ``id:`` / ``data:`` lines
with a canonical-JSON data payload.  ``round`` events carry one
:class:`~repro.qpd.adaptive.RoundRecord` payload (``data["round"]``) and the
live progress counters; their ``id`` is the round index, so a client that
reconnects with ``Last-Event-ID`` (or ``?after=N``) resumes **exactly once,
in order** — the server replays the persisted round log past the last seen
index, then switches to live rounds.  A terminal ``result`` (or ``failed``)
event closes the stream; ``end`` closes a store-only replay with no live
job attached.

**Graceful drain.**  :meth:`AsyncJobServer.drain` flips the service into
draining mode — new submissions get 503 + ``Retry-After`` — then waits for
every in-flight job to finish before the caller stops the server, so a
deploy never loses accepted work.
"""

from __future__ import annotations

import asyncio
import contextvars
import json
import threading
import time
import urllib.parse

from repro.exceptions import ReproError, ServiceBusyError, ServiceError
from repro.service.server import RunService
from repro.telemetry.metrics import REGISTRY
from repro.utils.serialization import canonical_json

__all__ = ["AsyncJobServer", "ServerThread", "serve_async"]

#: Largest accepted request body (a guard against accidental huge uploads).
MAX_BODY_BYTES = 32 * 1024 * 1024

#: Content type of the Prometheus text exposition format.
METRICS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

#: Request accounting scraped at ``GET /metrics``.  Paths are normalised
#: (``/jobs/{id}``) to bound the label cardinality.
_REQUESTS = REGISTRY.counter(
    "repro_http_requests_total",
    "HTTP requests served, by normalised path and status.",
    labelnames=("path", "status"),
)
_REQUEST_LATENCY = REGISTRY.histogram(
    "repro_http_request_seconds",
    "HTTP request latency in seconds, by normalised path and status.",
    labelnames=("path", "status"),
)
_SSE_SUBSCRIBERS = REGISTRY.gauge(
    "repro_sse_subscribers",
    "Currently connected SSE event-stream subscribers.",
)
_QUEUE_DEPTH = REGISTRY.gauge(
    "repro_scheduler_queue_depth",
    "Queued plus running jobs on the scheduler (sampled at scrape).",
)
_DEDUP_RATIO = REGISTRY.gauge(
    "repro_store_blob_dedup_ratio",
    "RunStore references-per-blob dedup ratio (sampled at scrape).",
)

#: Status of the response written by the current task's request handler.
#: Safe because each connection is one task serving requests sequentially.
_RESPONSE_STATUS: contextvars.ContextVar[int] = contextvars.ContextVar(
    "repro_response_status", default=0
)


def _metric_path(path: str) -> str:
    """Normalise a request path to a bounded-cardinality metric label."""
    if path in ("", "/healthz"):
        return "/healthz"
    if path in ("/jobs", "/runs", "/metrics"):
        return path
    if path.startswith("/jobs/"):
        if path.endswith("/events"):
            return "/jobs/{id}/events"
        if path.endswith("/result"):
            return "/jobs/{id}/result"
        return "/jobs/{id}"
    return "other"

#: States in which a job has settled and its SSE stream can terminate.
_TERMINAL_STATES = ("done", "failed")

#: How often (seconds) an idle SSE stream re-checks job state and the store.
_SSE_POLL_SECONDS = 0.2

_REASONS = {
    200: "OK",
    201: "Created",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


class _Request:
    """One parsed HTTP request."""

    __slots__ = ("method", "path", "query", "headers", "body")

    def __init__(self, method: str, target: str, headers: dict, body: bytes):
        self.method = method
        split = urllib.parse.urlsplit(target)
        self.path = split.path.rstrip("/")
        self.query = urllib.parse.parse_qs(split.query)
        self.headers = headers
        self.body = body

    def header(self, name: str, default: str | None = None) -> str | None:
        """Return one header value (case-insensitive), or ``default``."""
        return self.headers.get(name.lower(), default)

    def query_int(self, name: str, default: int | None = None) -> int | None:
        """Parse an integer query parameter, raising ServiceError when malformed."""
        values = self.query.get(name)
        if not values:
            return default
        try:
            return int(values[0])
        except ValueError:
            raise ServiceError(f"query parameter {name}={values[0]!r} is not an integer") from None

    def query_str(self, name: str, default: str | None = None) -> str | None:
        """Return one string query parameter, or ``default``."""
        values = self.query.get(name)
        return values[0] if values else default


def _sse_event(name: str, data, event_id: int | None = None) -> bytes:
    """Encode one Server-Sent Event block."""
    lines = [f"event: {name}"]
    if event_id is not None:
        lines.append(f"id: {event_id}")
    lines.append(f"data: {canonical_json(data)}")
    return ("\n".join(lines) + "\n\n").encode()


class AsyncJobServer:
    """Asyncio streams HTTP server over a :class:`RunService`.

    Parameters
    ----------
    service:
        The service facade (scheduler + optional store + optional limiter).
    host:
        Interface to bind.
    port:
        TCP port; ``0`` picks a free port (read it back from ``address``
        after :meth:`start`).
    """

    def __init__(self, service: RunService, host: str = "127.0.0.1", port: int = 0):
        self.service = service
        self.host = host
        self.port = port
        self.address: tuple[str, int] | None = None
        self._server: asyncio.AbstractServer | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._subscribers: dict[str, set[asyncio.Queue]] = {}
        self._connections: set[asyncio.StreamWriter] = set()

    # -- lifecycle ---------------------------------------------------------------------

    async def start(self) -> "AsyncJobServer":
        """Bind the listening socket and start serving connections."""
        self._loop = asyncio.get_running_loop()
        self.service.scheduler.add_listener(self._on_scheduler_event)
        self._server = await asyncio.start_server(self._handle_connection, self.host, self.port)
        self.address = self._server.sockets[0].getsockname()[:2]
        return self

    async def drain(self, poll: float = 0.05) -> None:
        """Refuse new submissions and wait for every in-flight job to finish."""
        self.service.begin_drain()
        while self.service.scheduler.active_jobs() > 0:
            await asyncio.sleep(poll)

    async def stop(self) -> None:
        """Stop accepting connections and close the open ones."""
        self.service.scheduler.remove_listener(self._on_scheduler_event)
        if self._server is not None:
            self._server.close()
            for writer in list(self._connections):
                writer.close()
            try:
                await asyncio.wait_for(self._server.wait_closed(), timeout=5.0)
            except asyncio.TimeoutError:  # pragma: no cover - stuck connection
                pass

    # -- scheduler-event bridge --------------------------------------------------------

    def _on_scheduler_event(self, job_id: str, event: dict) -> None:
        """Scheduler listener (worker thread): hop onto the event loop."""
        loop = self._loop
        if loop is not None and not loop.is_closed():
            try:
                loop.call_soon_threadsafe(self._dispatch, job_id, event)
            except RuntimeError:  # pragma: no cover - loop tearing down
                pass

    def _dispatch(self, job_id: str, event: dict) -> None:
        """Fan one scheduler event out to the job's SSE subscribers."""
        for queue in self._subscribers.get(job_id, ()):
            queue.put_nowait(event)

    def _subscribe(self, job_id: str) -> asyncio.Queue:
        queue: asyncio.Queue = asyncio.Queue()
        self._subscribers.setdefault(job_id, set()).add(queue)
        _SSE_SUBSCRIBERS.inc()
        return queue

    def _unsubscribe(self, job_id: str, queue: asyncio.Queue) -> None:
        queues = self._subscribers.get(job_id)
        if queues is not None and queue in queues:
            queues.discard(queue)
            _SSE_SUBSCRIBERS.dec()
            if not queues:
                self._subscribers.pop(job_id, None)

    # -- HTTP plumbing ------------------------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """Serve one connection: a keep-alive loop of request/response rounds."""
        self._connections.add(writer)
        try:
            while True:
                request = await self._read_request(reader)
                if request is None:
                    break
                keep_alive = await self._route(request, writer)
                if not keep_alive:
                    break
        except (
            asyncio.IncompleteReadError,
            asyncio.LimitOverrunError,
            ConnectionResetError,
            BrokenPipeError,
        ):
            pass
        finally:
            self._connections.discard(writer)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):  # pragma: no cover
                pass

    async def _read_request(self, reader: asyncio.StreamReader) -> _Request | None:
        """Read and parse one HTTP/1.1 request; ``None`` on clean EOF."""
        try:
            blob = await reader.readuntil(b"\r\n\r\n")
        except asyncio.IncompleteReadError as error:
            if not error.partial:
                return None
            raise
        head, _, _ = blob.partition(b"\r\n\r\n")
        lines = head.decode("latin-1").split("\r\n")
        try:
            method, target, _version = lines[0].split(" ", 2)
        except ValueError:
            raise asyncio.IncompleteReadError(b"", None) from None
        headers: dict[str, str] = {}
        for line in lines[1:]:
            name, sep, value = line.partition(":")
            if sep:
                headers[name.strip().lower()] = value.strip()
        body = b""
        length = int(headers.get("content-length", 0) or 0)
        if length > MAX_BODY_BYTES:
            raise asyncio.IncompleteReadError(b"", None)
        if length > 0:
            body = await reader.readexactly(length)
        return _Request(method.upper(), target, headers, body)

    async def _send_json(
        self,
        writer: asyncio.StreamWriter,
        payload,
        status: int = 200,
        headers: dict | None = None,
        keep_alive: bool = True,
    ) -> None:
        """Write one JSON response."""
        body = canonical_json(payload).encode()
        reason = _REASONS.get(status, "OK")
        lines = [
            f"HTTP/1.1 {status} {reason}",
            "Content-Type: application/json",
            f"Content-Length: {len(body)}",
            f"Connection: {'keep-alive' if keep_alive else 'close'}",
        ]
        for name, value in (headers or {}).items():
            lines.append(f"{name}: {value}")
        writer.write(("\r\n".join(lines) + "\r\n\r\n").encode() + body)
        _RESPONSE_STATUS.set(status)
        await writer.drain()

    async def _send_text(
        self,
        writer: asyncio.StreamWriter,
        body: str,
        status: int = 200,
        content_type: str = "text/plain; charset=utf-8",
        keep_alive: bool = True,
    ) -> None:
        """Write one plain-text response (the ``/metrics`` exposition)."""
        data = body.encode()
        reason = _REASONS.get(status, "OK")
        head = "\r\n".join(
            [
                f"HTTP/1.1 {status} {reason}",
                f"Content-Type: {content_type}",
                f"Content-Length: {len(data)}",
                f"Connection: {'keep-alive' if keep_alive else 'close'}",
            ]
        )
        writer.write((head + "\r\n\r\n").encode() + data)
        _RESPONSE_STATUS.set(status)
        await writer.drain()

    async def _send_error(
        self, writer, message: str, status: int, headers: dict | None = None,
        keep_alive: bool = True,
    ) -> None:
        await self._send_json(
            writer, {"error": message}, status=status, headers=headers, keep_alive=keep_alive
        )

    # -- routing ------------------------------------------------------------------------

    async def _route(self, request: _Request, writer: asyncio.StreamWriter) -> bool:
        """Dispatch one request, stamping latency/count metrics around it."""
        start = time.monotonic()
        token = _RESPONSE_STATUS.set(0)
        try:
            return await self._route_inner(request, writer)
        finally:
            status = _RESPONSE_STATUS.get()
            _RESPONSE_STATUS.reset(token)
            labels = {"path": _metric_path(request.path), "status": str(status or 0)}
            _REQUESTS.inc(**labels)
            _REQUEST_LATENCY.observe(time.monotonic() - start, **labels)

    async def _route_inner(self, request: _Request, writer: asyncio.StreamWriter) -> bool:
        """Dispatch one request; return False to close the connection."""
        keep_alive = request.header("connection", "keep-alive") != "close"
        try:
            if request.method == "GET":
                return await self._route_get(request, writer, keep_alive)
            if request.method == "POST":
                await self._route_post(request, writer, keep_alive)
                return keep_alive
            await self._send_error(
                writer, f"unsupported method {request.method}", 400, keep_alive=keep_alive
            )
            return keep_alive
        except ServiceBusyError as error:
            await self._send_error(
                writer,
                str(error),
                error.status,
                headers={"Retry-After": f"{error.retry_after:.3f}"},
                keep_alive=keep_alive,
            )
            return keep_alive
        except ServiceError as error:
            status = 400 if request.method == "POST" else 404
            await self._send_error(writer, str(error), status, keep_alive=keep_alive)
            return keep_alive
        except ReproError as error:
            await self._send_error(writer, str(error), 500, keep_alive=keep_alive)
            return keep_alive

    async def _route_get(
        self, request: _Request, writer: asyncio.StreamWriter, keep_alive: bool
    ) -> bool:
        path = request.path
        if path in ("", "/healthz"):
            await self._send_json(writer, self.service.health(), keep_alive=keep_alive)
        elif path == "/metrics":
            self._refresh_gauges()
            await self._send_text(
                writer,
                REGISTRY.render(),
                content_type=METRICS_CONTENT_TYPE,
                keep_alive=keep_alive,
            )
        elif path == "/jobs":
            rows = self.service.jobs(
                limit=request.query_int("limit"),
                offset=request.query_int("offset", 0),
                state=request.query_str("state"),
            )
            await self._send_json(writer, rows, keep_alive=keep_alive)
        elif path == "/runs":
            rows = self.service.runs(
                limit=request.query_int("limit"),
                offset=request.query_int("offset", 0),
                stage=request.query_str("stage"),
            )
            await self._send_json(writer, rows, keep_alive=keep_alive)
        elif path.startswith("/jobs/") and path.endswith("/events"):
            job_id = path[len("/jobs/"):-len("/events")]
            await self._stream_events(request, writer, job_id)
            return False  # the stream delimits the response by closing
        elif path.startswith("/jobs/") and path.endswith("/result"):
            job_id = path[len("/jobs/"):-len("/result")]
            status = self.service.status(job_id)
            if status["state"] in ("queued", "running"):
                await self._send_json(writer, status, status=202, keep_alive=keep_alive)
            elif status["state"] == "failed":
                await self._send_error(
                    writer, status.get("error", "job failed"), 500, keep_alive=keep_alive
                )
            else:
                await self._send_json(
                    writer, self.service.result_payload(job_id), keep_alive=keep_alive
                )
        elif path.startswith("/jobs/"):
            job_id = path[len("/jobs/"):]
            await self._send_json(writer, self.service.status(job_id), keep_alive=keep_alive)
        else:
            await self._send_error(writer, f"unknown path {path!r}", 404, keep_alive=keep_alive)
        return keep_alive

    def _refresh_gauges(self) -> None:
        """Sample the point-in-time gauges right before a ``/metrics`` scrape."""
        _QUEUE_DEPTH.set(float(self.service.scheduler.active_jobs()))
        if self.service.store is not None:
            _DEDUP_RATIO.set(float(self.service.store.stats()["dedup_ratio"]))

    async def _route_post(
        self, request: _Request, writer: asyncio.StreamWriter, keep_alive: bool
    ) -> None:
        if request.path != "/jobs":
            await self._send_error(
                writer, f"unknown path {request.path!r}", 404, keep_alive=keep_alive
            )
            return
        if not request.body:
            raise ServiceError("request body is empty")
        try:
            payload = json.loads(request.body)
        except json.JSONDecodeError as error:
            raise ServiceError(f"request body is not valid JSON: {error}") from error
        tenant = request.header("x-tenant")
        row = self.service.submit_payload(payload, tenant=tenant)
        await self._send_json(writer, row, status=201, keep_alive=keep_alive)

    # -- SSE ----------------------------------------------------------------------------

    def _stored_rounds(self, job_id: str) -> list[dict] | None:
        """Return the persisted round payloads of a job, or ``None``."""
        if self.service.store is None:
            return None
        payload = self.service.store.get_stage(job_id, "rounds")
        if payload is None:
            return None
        return list(payload.get("rounds", ()))

    def _job_status(self, job_id: str) -> dict | None:
        """Return scheduler status, or ``None`` when the job is not scheduled."""
        try:
            return self.service.status(job_id)
        except ServiceError:
            return None

    async def _emit_round(
        self, writer, round_payload: dict, progress: dict | None, emitted: int
    ) -> int:
        """Emit one round event if unseen; return the new high-water index."""
        index = int(round_payload["index"])
        if index <= emitted:
            return emitted
        data = {"round": round_payload, "progress": progress}
        writer.write(_sse_event("round", data, event_id=index))
        await writer.drain()
        return index

    async def _stream_events(
        self, request: _Request, writer: asyncio.StreamWriter, job_id: str
    ) -> None:
        """Serve ``GET /jobs/<id>/events``: replay + live-stream round events."""
        after = request.query_int("after", -1)
        last_header = request.header("last-event-id")
        if last_header is not None:
            try:
                after = max(after, int(last_header))
            except ValueError:
                raise ServiceError(
                    f"Last-Event-ID {last_header!r} is not an integer"
                ) from None

        status = self._job_status(job_id)
        stored = self._stored_rounds(job_id)
        if status is None and stored is None:
            await self._send_error(writer, f"unknown job {job_id!r}", 404, keep_alive=False)
            return

        # Subscribe BEFORE the snapshot: any round landing after the store
        # read is delivered through the queue, and duplicates are dropped by
        # the monotone index check — exactly-once, in order.
        queue = self._subscribe(job_id)
        try:
            head = "\r\n".join(
                [
                    "HTTP/1.1 200 OK",
                    "Content-Type: text/event-stream",
                    "Cache-Control: no-cache",
                    "Connection: close",
                ]
            )
            writer.write((head + "\r\n\r\n").encode())
            _RESPONSE_STATUS.set(200)
            await writer.drain()

            emitted = after
            for payload in sorted(stored or (), key=lambda entry: entry["index"]):
                emitted = await self._emit_round(writer, payload, None, emitted)
            if status is not None:
                for event in self.service.scheduler.job_events(job_id):
                    emitted = await self._emit_round(
                        writer, event["round"], event.get("progress"), emitted
                    )

            while not writer.is_closing():
                status = self._job_status(job_id)
                # Drain queued live events without blocking.
                while True:
                    try:
                        event = queue.get_nowait()
                    except asyncio.QueueEmpty:
                        break
                    if event.get("type") == "round":
                        emitted = await self._emit_round(
                            writer, event["round"], event.get("progress"), emitted
                        )
                if status is not None and status["state"] in _TERMINAL_STATES:
                    for payload in sorted(
                        self._stored_rounds(job_id) or (), key=lambda entry: entry["index"]
                    ):
                        emitted = await self._emit_round(writer, payload, None, emitted)
                    if status["state"] == "failed":
                        writer.write(
                            _sse_event("failed", {"error": status.get("error", "job failed")})
                        )
                    else:
                        writer.write(
                            _sse_event("result", self.service.result_payload(job_id))
                        )
                    await writer.drain()
                    return
                if status is None:
                    # Store-only stream: no live job here.  Emit the stored
                    # result when the run already finished, else end the
                    # stream and let the client reconnect after resubmission.
                    result = self.service.store.get_stage(job_id, "result")
                    if result is not None:
                        writer.write(_sse_event("result", {**result, "fingerprint": job_id}))
                    else:
                        writer.write(_sse_event("end", {"job_id": job_id}))
                    await writer.drain()
                    return
                try:
                    event = await asyncio.wait_for(queue.get(), timeout=_SSE_POLL_SECONDS)
                except asyncio.TimeoutError:
                    # Poll tick: pick up rounds persisted by process-mode
                    # workers (no in-process progress hook to publish them).
                    for payload in sorted(
                        self._stored_rounds(job_id) or (), key=lambda entry: entry["index"]
                    ):
                        emitted = await self._emit_round(writer, payload, None, emitted)
                    continue
                if event.get("type") == "round":
                    emitted = await self._emit_round(
                        writer, event["round"], event.get("progress"), emitted
                    )
                # Terminal events make the next status check settle the stream.
        finally:
            self._unsubscribe(job_id, queue)


class ServerThread:
    """Run an :class:`AsyncJobServer` on a background event-loop thread.

    The synchronous harness used by tests, ``tools/service_smoke.py`` and
    the load benchmark: ``start()`` returns the bound URL, ``stop()`` shuts
    the loop down (optionally draining in-flight jobs first).

    Parameters
    ----------
    service:
        The service facade to serve.
    host / port:
        Bind address (port 0 picks a free port).
    """

    def __init__(self, service: RunService, host: str = "127.0.0.1", port: int = 0):
        self.service = service
        self._host = host
        self._port = port
        self._ready = threading.Event()
        self._stop_requested: asyncio.Event | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._error: BaseException | None = None
        self._drain = False
        self.url: str | None = None

    def start(self) -> str:
        """Start the server thread and return the service base URL."""
        self._thread = threading.Thread(
            target=lambda: asyncio.run(self._main()), name="repro-aserver", daemon=True
        )
        self._thread.start()
        if not self._ready.wait(timeout=30):
            raise ServiceError("asyncio server failed to start within 30s")
        if self._error is not None:
            raise ServiceError(f"asyncio server failed to start: {self._error}")
        return self.url

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop_requested = asyncio.Event()
        server = AsyncJobServer(self.service, self._host, self._port)
        try:
            await server.start()
        except BaseException as error:  # noqa: BLE001 - surfaced to start()
            self._error = error
            self._ready.set()
            return
        host, port = server.address
        self.url = f"http://{host}:{port}"
        self._ready.set()
        await self._stop_requested.wait()
        if self._drain:
            await server.drain()
        await server.stop()

    def stop(self, drain: bool = False, timeout: float = 60.0) -> None:
        """Stop the server (optionally draining in-flight jobs first)."""
        self._drain = drain
        loop = self._loop
        if loop is not None and not loop.is_closed():
            try:
                loop.call_soon_threadsafe(self._stop_requested.set)
            except RuntimeError:  # pragma: no cover - loop already closed
                pass
        if self._thread is not None:
            self._thread.join(timeout=timeout)

    def __enter__(self) -> "ServerThread":
        """Start on context entry."""
        self.start()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        """Stop (without drain) on context exit."""
        self.stop()


async def serve_async(
    service: RunService,
    host: str = "127.0.0.1",
    port: int = 8765,
    shutdown: asyncio.Event | None = None,
    ready=None,
) -> None:
    """Serve until ``shutdown`` is set, then drain and stop.

    Parameters
    ----------
    service:
        The service facade.
    host / port:
        Bind address.
    shutdown:
        Event ending the serve loop (signal handlers set it); ``None``
        serves forever.
    ready:
        Optional callback invoked with the bound ``(host, port)`` once the
        socket is listening (the CLI prints its banner from this).
    """
    server = AsyncJobServer(service, host, port)
    await server.start()
    if ready is not None:
        ready(server.address)
    try:
        if shutdown is None:  # pragma: no cover - interactive serve-forever
            await asyncio.Event().wait()
        else:
            await shutdown.wait()
        await server.drain()
    finally:
        await server.stop()
