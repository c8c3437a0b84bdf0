"""The stdlib-asyncio HTTP front end (``repro serve``).

One process, one event loop, no third-party dependencies: the server
is built on :func:`asyncio.start_server` with a hand-rolled HTTP/1.1
request parser (request line, headers, ``Content-Length`` bodies,
keep-alive).  That is deliberate -- the repo's no-new-deps rule means
no aiohttp, and the service's surface (small JSON bodies, long-lived
connections) fits comfortably in ~100 lines of parsing.

Concurrency model: every route handler performs its session mutation
*synchronously* -- no ``await`` between reading a session's state and
writing it back -- so under the single-threaded event loop each HTTP
request is atomic with respect to every other and no locks exist
anywhere in the service.  Admission handlers only append to the
session's queue and wake that session's batching loop (one
:class:`asyncio.Event` + task per session); the loop drains complete
coalescing windows into :class:`~repro.core.allocator.ProactiveAllocator`
calls.  Because batch boundaries are a function of admission ordinal
alone (see :mod:`repro.service.session`), the resulting plans are
bit-identical however clients chunk their requests.

Error mapping is uniform: every failure body is a
:func:`repro.service.schema.error_envelope`, with
:class:`~repro.common.errors.SchemaError` (and any other
``ValueError`` from the shared :mod:`repro.common.validation`
parsers) -> 400, unknown sessions/routes -> 404, wrong method -> 405,
:class:`~repro.common.errors.BackpressureError` -> 429, anything
else -> 500.  A request whose ``Content-Length`` is not a
non-negative integer gets 400 and one over :data:`MAX_BODY_BYTES`
gets 413; a header line over :data:`MAX_LINE_BYTES`, or more than
:data:`MAX_HEADERS` header lines, gets 431.  All three then close the
connection, since the rest of the request cannot be skipped reliably.
A connection that completes no request within :data:`IDLE_TIMEOUT_S`
is closed; if its request line had arrived, it gets a 408 first.

Wall-clock reads in this module (request->plan latency, batch
duration) are observability-only and never influence allocation;
each carries a determinism-rule suppression saying so.
"""

from __future__ import annotations

import asyncio
import json
import re
from collections import deque
from dataclasses import dataclass
from typing import Awaitable, Callable, Mapping

from repro.common.errors import (
    BackpressureError,
    ConfigurationError,
    FaultSpecError,
    ReproError,
    SchemaError,
)
from repro.common.validation import check_positive_int
from repro.core.model import ModelDatabase
from repro.obs.registry import MetricsRegistry
from repro.obs.runtime import Observability, get_observability
import repro.service.schema as schema
from repro.service.session import Session, SessionConfig

#: Largest accepted request body; a guard against accidental (or
#: hostile) unbounded reads, far above any legitimate admission batch.
MAX_BODY_BYTES = 8 * 1024 * 1024
#: Longest accepted request or header line (the stream reader's limit).
MAX_LINE_BYTES = 64 * 1024
#: Most header lines accepted per request.
MAX_HEADERS = 100
#: Seconds a connection may take to send its next complete request,
#: idle or part-way through one, before the server closes it.
IDLE_TIMEOUT_S = 60.0

_REQUEST_LINE = re.compile(rb"^([A-Z]+) (\S+) HTTP/1\.[01]$")
_CONTENT_LENGTH = re.compile(r"[0-9]+\Z")


@dataclass(frozen=True)
class ServiceConfig:
    """Where the service listens and how big it may grow.

    ``port=0`` binds an ephemeral port (tests read it back from
    :attr:`Service.port` after startup).  ``model_dir`` points at a
    saved campaign (``model_database.csv`` + ``auxiliary.csv``, as
    written by ``repro campaign``); when ``None`` the service runs the
    in-process campaign once at startup via :func:`repro.build_model`.
    """

    host: str = "127.0.0.1"
    port: int = 8765
    model_dir: str | None = None
    max_sessions: int = 64

    def __post_init__(self) -> None:
        if not isinstance(self.port, int) or isinstance(self.port, bool) or not (
            0 <= self.port <= 65535
        ):
            raise ConfigurationError(f"port must be in [0, 65535], got {self.port!r}")
        check_positive_int("max_sessions", self.max_sessions)


class _HttpError(Exception):
    """Internal: carries a status + error envelope to the response writer."""

    def __init__(self, status: int, code: str, message: str):
        super().__init__(message)
        self.status = status
        self.body = schema.error_envelope(code, message)


_STATUS_TEXT = {
    200: "OK",
    201: "Created",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    413: "Payload Too Large",
    429: "Too Many Requests",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error",
}


def _response_bytes(status: int, document: dict) -> bytes:
    """One HTTP/1.1 response carrying ``document`` as JSON."""
    payload = schema.encode_document(document).encode("utf-8")
    head = (
        f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, 'Unknown')}\r\n"
        f"Content-Type: application/json\r\n"
        f"Content-Length: {len(payload)}\r\n"
        f"\r\n"
    ).encode("ascii")
    return head + payload


class _RequestTimer:
    """A connection's idle timeout: one timer handle per connection.

    ``arm`` starts the wait for a request by moving the deadline and
    ``disarm`` ends it once a complete request is read.  The handle is
    rescheduled only when it fires before the current deadline, so a
    busy connection pays one clock read per request rather than a heap
    push and a cancellation.  On expiry the transport is closed, which
    ends the handler's pending read; ``started`` (set once the request
    line has arrived) makes the client get a 408 envelope first.
    """

    __slots__ = (
        "_loop",
        "_writer",
        "_registry",
        "_handle",
        "_deadline",
        "_waiting",
        "started",
        "expired",
    )

    def __init__(self, writer: asyncio.StreamWriter, registry: MetricsRegistry):
        self._loop = asyncio.get_running_loop()
        self._writer = writer
        self._registry = registry
        self._handle: asyncio.TimerHandle | None = None
        self._deadline = 0.0
        self._waiting = False
        self.started = False
        self.expired = False

    def arm(self) -> None:
        self.started = False
        self._waiting = True
        self._deadline = self._loop.time() + IDLE_TIMEOUT_S
        if self._handle is None:
            self._handle = self._loop.call_at(self._deadline, self._fire)

    def disarm(self) -> None:
        self._waiting = False

    def cancel(self) -> None:
        if self._handle is not None:
            self._handle.cancel()
            self._handle = None

    def _fire(self) -> None:
        self._handle = None
        if not self._waiting:
            return  # a request is being served; the next arm() reschedules
        if self._loop.time() < self._deadline:
            self._handle = self._loop.call_at(self._deadline, self._fire)
            return
        self._expire()

    def _expire(self) -> None:
        self.expired = True
        if self.started:
            self._registry.counter("service.http.errors", status="408").inc()
            self._writer.write(
                _response_bytes(
                    408,
                    schema.error_envelope(
                        "request_timeout",
                        f"no complete request within {IDLE_TIMEOUT_S:g} s",
                    ),
                )
            )
        self._writer.close()


class Service:
    """The allocation service: sessions, routes and batching loops.

    Construct, then either ``await start()`` inside a running loop
    (tests) or call the blocking :func:`serve` (CLI).  ``database``
    short-circuits model loading for tests that already built one.
    """

    def __init__(
        self,
        config: ServiceConfig | None = None,
        database: ModelDatabase | None = None,
        obs: Observability | None = None,
    ):
        self.config = config if config is not None else ServiceConfig()
        self._database = database
        obs = obs if obs is not None else get_observability()
        # The service always keeps real metrics (queue depth is part of
        # its contract); an ambient NULL_OBS would silently share the
        # global throwaway registry, so build a private one instead.
        self._registry: MetricsRegistry = (
            obs.registry if obs.enabled else MetricsRegistry()
        )
        self._sessions: dict[str, Session] = {}
        self._events: dict[str, asyncio.Event] = {}
        self._loops: dict[str, asyncio.Task] = {}
        self._clients: set[asyncio.Task] = set()
        # Per-session FIFO of admission timestamps (server-side only;
        # sessions themselves are wall-clock free).
        self._admit_times: dict[str, deque] = {}
        self._next_session = 0
        self._server: asyncio.base_events.Server | None = None
        self.port: int | None = None

    # -- lifecycle -----------------------------------------------------

    def _resolve_database(self) -> ModelDatabase:
        if self._database is None:
            if self.config.model_dir is not None:
                import os

                self._database = ModelDatabase.from_files(
                    os.path.join(self.config.model_dir, "model_database.csv"),
                    os.path.join(self.config.model_dir, "auxiliary.csv"),
                )
            else:
                from repro.campaign.platformrunner import run_campaign

                self._database = ModelDatabase.from_campaign(run_campaign())
        return self._database

    async def start(self) -> None:
        """Bind the listening socket (model loads eagerly, not per request)."""
        self._resolve_database()
        self._server = await asyncio.start_server(
            self._accept, self.config.host, self.config.port, limit=MAX_LINE_BYTES
        )
        self.port = self._server.sockets[0].getsockname()[1]

    def _accept(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        # A plain callback, so the service owns each connection's task:
        # asyncio's stream protocol would wrap a coroutine handler in a
        # task whose done-callback logs a traceback when it is cancelled
        # at shutdown with a keep-alive connection still open.
        task = asyncio.get_running_loop().create_task(self._handle_client(reader, writer))
        self._clients.add(task)
        task.add_done_callback(self._clients.discard)

    async def stop(self) -> None:
        """Stop listening and cancel every session's batching loop."""
        for task in self._loops.values():
            task.cancel()
        for task in self._loops.values():
            try:
                await task
            except asyncio.CancelledError:
                pass
        self._loops.clear()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    async def serve_forever(self) -> None:
        await self.start()
        assert self._server is not None
        async with self._server:
            await self._server.serve_forever()

    # -- HTTP plumbing -------------------------------------------------

    async def _handle_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        timer = _RequestTimer(writer, self._registry)
        try:
            while True:
                timer.arm()
                try:
                    request = await self._read_request(reader, timer)
                except _HttpError as error:
                    # Without a usable body length the stream cannot be
                    # resynchronised: answer, then close the connection.
                    if not timer.expired:
                        self._registry.counter(
                            "service.http.errors", status=str(error.status)
                        ).inc()
                        await self._write_response(writer, error.status, error.body)
                    break
                finally:
                    timer.disarm()
                if request is None or timer.expired:
                    break
                method, path, headers, body = request
                status, document = await self._dispatch(method, path, body)
                await self._write_response(writer, status, document)
                if headers.get("connection", "").lower() == "close":
                    break
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            timer.cancel()
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _read_request(self, reader: asyncio.StreamReader, timer: _RequestTimer):
        try:
            line = await reader.readline()
        except (ValueError, asyncio.LimitOverrunError):
            return None
        if not line:
            return None
        timer.started = True
        match = _REQUEST_LINE.match(line.rstrip(b"\r\n"))
        if match is None:
            return None
        method = match.group(1).decode("ascii")
        path = match.group(2).decode("ascii")
        headers: dict[str, str] = {}
        n_lines = 0
        while True:
            try:
                raw = await reader.readline()
            except ValueError:  # the line overran the reader's limit
                raise _HttpError(
                    431,
                    "request_header_fields_too_large",
                    f"a request header line exceeds the {MAX_LINE_BYTES}-byte limit",
                ) from None
            if raw in (b"\r\n", b"\n", b""):
                break
            n_lines += 1
            if n_lines > MAX_HEADERS:
                raise _HttpError(
                    431,
                    "request_header_fields_too_large",
                    f"request has more than {MAX_HEADERS} header lines",
                )
            name, _, value = raw.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        raw_length = headers.get("content-length", "0") or "0"
        if _CONTENT_LENGTH.match(raw_length) is None:
            raise _HttpError(
                400,
                "invalid_request",
                f"Content-Length must be a non-negative integer, got {raw_length!r}",
            )
        length = int(raw_length)
        if length > MAX_BODY_BYTES:
            raise _HttpError(
                413,
                "payload_too_large",
                f"request body of {length} bytes exceeds the "
                f"{MAX_BODY_BYTES}-byte limit",
            )
        body = await reader.readexactly(length) if length else b""
        return method, path, headers, body

    async def _write_response(
        self, writer: asyncio.StreamWriter, status: int, document: dict
    ) -> None:
        writer.write(_response_bytes(status, document))
        await writer.drain()

    # -- routing -------------------------------------------------------

    _ROUTES: "tuple[tuple[re.Pattern, dict[str, str]], ...]" = (
        (re.compile(r"^/v1/healthz$"), {"GET": "_route_healthz"}),
        (re.compile(r"^/v1/metrics$"), {"GET": "_route_metrics"}),
        (
            re.compile(r"^/v1/sessions$"),
            {"POST": "_route_create_session", "GET": "_route_list_sessions"},
        ),
        (
            re.compile(r"^/v1/sessions/(?P<sid>[^/]+)$"),
            {"GET": "_route_session_info", "DELETE": "_route_delete_session"},
        ),
        (
            re.compile(r"^/v1/sessions/(?P<sid>[^/]+)/requests$"),
            {"POST": "_route_admit"},
        ),
        (
            re.compile(r"^/v1/sessions/(?P<sid>[^/]+)/flush$"),
            {"POST": "_route_flush"},
        ),
        (
            re.compile(r"^/v1/sessions/(?P<sid>[^/]+)/plans$"),
            {"GET": "_route_plans"},
        ),
        (
            re.compile(r"^/v1/sessions/(?P<sid>[^/]+)/state$"),
            {"GET": "_route_get_state", "PUT": "_route_put_state"},
        ),
        (
            re.compile(r"^/v1/sessions/(?P<sid>[^/]+)/faults$"),
            {"POST": "_route_faults"},
        ),
    )

    async def _dispatch(self, method: str, path: str, body: bytes):
        self._registry.counter("service.http.requests").inc()
        try:
            for pattern, methods in self._ROUTES:
                match = pattern.match(path)
                if match is None:
                    continue
                name = methods.get(method)
                if name is None:
                    raise _HttpError(
                        405,
                        "method_not_allowed",
                        f"{method} is not supported on {path}; "
                        f"allowed: {', '.join(sorted(methods))}",
                    )
                handler: Callable[..., Awaitable] = getattr(self, name)
                return await handler(match.groupdict(), self._parse_body(body))
            raise _HttpError(404, "not_found", f"no such route: {path}")
        except _HttpError as error:
            self._registry.counter("service.http.errors", status=str(error.status)).inc()
            return error.status, error.body
        except BackpressureError as error:
            self._registry.counter("service.http.errors", status="429").inc()
            return 429, schema.error_envelope("backpressure", str(error))
        except (SchemaError, FaultSpecError) as error:
            self._registry.counter("service.http.errors", status="400").inc()
            return 400, schema.error_envelope("invalid_request", str(error))
        except ValueError as error:
            # The shared common.validation parsers raise bare ValueError
            # with the CLI's exact message; same text, HTTP shape.
            self._registry.counter("service.http.errors", status="400").inc()
            return 400, schema.error_envelope("invalid_request", str(error))
        except ReproError as error:
            self._registry.counter("service.http.errors", status="500").inc()
            return 500, schema.error_envelope("internal_error", str(error))

    def _parse_body(self, body: bytes):
        if not body:
            return None
        try:
            return json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise _HttpError(
                400, "invalid_json", f"request body is not valid JSON: {error}"
            ) from None

    def _session(self, params: Mapping[str, str]) -> Session:
        session = self._sessions.get(params["sid"])
        if session is None:
            raise _HttpError(404, "not_found", f"no such session: {params['sid']}")
        return session

    # -- routes --------------------------------------------------------

    async def _route_healthz(self, params, body):
        # repro: allow layering-import -- healthz reports the package version
        from repro import __version__

        return 200, schema.stamp(
            {
                "status": "ok",
                "version": __version__,
                "sessions": len(self._sessions),
            }
        )

    async def _route_metrics(self, params, body):
        return 200, schema.stamp(self._registry.snapshot())

    async def _route_create_session(self, params, body):
        if len(self._sessions) >= self.config.max_sessions:
            raise _HttpError(
                429,
                "backpressure",
                f"session limit reached ({self.config.max_sessions}); "
                f"delete a session before creating another",
            )
        config = SessionConfig.from_document(body if body is not None else {})
        session_id = f"sess-{self._next_session}"
        self._next_session += 1
        session = Session(
            session_id, config, self._resolve_database(), registry=self._registry
        )
        self._sessions[session_id] = session
        self._events[session_id] = asyncio.Event()
        self._admit_times[session_id] = deque()
        self._loops[session_id] = asyncio.get_running_loop().create_task(
            self._batch_loop(session_id)
        )
        self._registry.counter("service.sessions.created").inc()
        return 201, session.info_document()

    async def _route_list_sessions(self, params, body):
        return 200, schema.stamp(
            {"sessions": [self._sessions[sid].info_document() for sid in sorted(self._sessions)]}
        )

    async def _route_session_info(self, params, body):
        return 200, self._session(params).info_document()

    async def _route_delete_session(self, params, body):
        session = self._session(params)
        task = self._loops.pop(session.session_id)
        task.cancel()
        try:
            await task
        except asyncio.CancelledError:
            pass
        del self._sessions[session.session_id]
        del self._events[session.session_id]
        del self._admit_times[session.session_id]
        self._registry.counter("service.sessions.closed").inc()
        return 200, schema.stamp({"session_id": session.session_id, "deleted": True})

    async def _route_admit(self, params, body):
        session = self._session(params)
        if not isinstance(body, Mapping) or "requests" not in body:
            raise SchemaError(
                "admission body must be an object with a 'requests' array"
            )
        requests = schema.REQUEST_DOCUMENTS.decode(body["requests"], "requests", "admission")
        admitted = session.admit(requests)
        # Observability only: stamps pair with batch completion below.
        now = _perf_counter()
        times = self._admit_times[session.session_id]
        times.extend(now for _ in range(admitted))
        if session.window_ready():
            # Wake the batching loop only when it has a full window to
            # allocate; a partial one waits for more admissions or a flush.
            self._events[session.session_id].set()
        return 200, schema.stamp(
            {
                "session_id": session.session_id,
                "admitted": admitted,
                "queue_depth": session.queue_depth,
                "admitted_total": session.admitted_total,
            }
        )

    async def _route_flush(self, params, body):
        session = self._session(params)
        records = session.flush()
        self._note_latency(session.session_id, records)
        return 200, schema.stamp(
            {"batches": [record.to_document() for record in records]}
        )

    async def _route_plans(self, params, body):
        session = self._session(params)
        return 200, schema.stamp(
            {"batches": [record.to_document() for record in session.batches]}
        )

    async def _route_get_state(self, params, body):
        return 200, self._session(params).state_document()

    async def _route_put_state(self, params, body):
        session = self._session(params)
        session.restore(body)
        self._admit_times[session.session_id].clear()
        self._events[session.session_id].set()
        return 200, session.info_document()

    async def _route_faults(self, params, body):
        session = self._session(params)
        spec = schema.decode_fault_spec(body)
        records = session.apply_faults(spec)
        self._events[session.session_id].set()
        return 200, schema.stamp(
            {
                "session_id": session.session_id,
                "records": [schema.fault_record_document(record) for record in records],
                "queue_depth": session.queue_depth,
            }
        )

    # -- the batching loop ---------------------------------------------

    async def _batch_loop(self, session_id: str) -> None:
        """Drain complete coalescing windows whenever admissions arrive.

        One task per session; woken by an ``Event.set()`` from the
        admission handler once a full window is queued, and from state
        restores and fault injections.  Allocation itself runs inline
        (the allocator is CPU-bound and sessions are mutated
        atomically), with a ``sleep(0)`` between windows so
        concurrently arriving requests keep being read.
        """
        session = self._sessions[session_id]
        event = self._events[session_id]
        while True:
            await event.wait()
            event.clear()
            while session.window_ready():
                records = session.run_ready_batches()
                self._note_latency(session_id, records)
                await asyncio.sleep(0)

    def _note_latency(self, session_id: str, records) -> None:
        """Observe request->plan latency for each freshly allocated VM."""
        if not records:
            return
        now = _perf_counter()
        times = self._admit_times.get(session_id)
        if times is None:
            return
        histogram = self._registry.histogram(
            "service.request_latency_s", unit="s", volatile=True
        )
        for record in records:
            for _ in record.vm_ids:
                if not times:
                    return  # re-queued fault evictions carry no stamp
                histogram.observe(now - times.popleft())


def _perf_counter() -> float:
    """Monotonic wall-clock read, used only for latency metrics."""
    import time

    # repro: allow determinism-wallclock -- latency metrics only, never feeds plans
    return time.perf_counter()


def serve(
    config: ServiceConfig | None = None,
    database: ModelDatabase | None = None,
    obs: Observability | None = None,
    ready: "Callable[[Service], None] | None" = None,
) -> None:
    """Run the service until interrupted (the ``repro serve`` entry point).

    ``ready`` is called once after the socket is bound (the CLI prints
    the listening address there, which matters with ``port=0``).
    """
    service = Service(config, database=database, obs=obs)

    async def _run() -> None:
        await service.start()
        if ready is not None:
            ready(service)
        assert service._server is not None
        async with service._server:
            await service._server.serve_forever()

    try:
        asyncio.run(_run())
    except KeyboardInterrupt:
        pass


class BackgroundService:
    """A live service on a private thread, for tests and benchmarks.

    Runs its own event loop, binds an ephemeral port, and exposes a
    tiny synchronous JSON client::

        with BackgroundService(database=db) as svc:
            status, body = svc.request("POST", "/v1/sessions", {"n_servers": 2})
    """

    def __init__(
        self,
        config: ServiceConfig | None = None,
        database: ModelDatabase | None = None,
        obs: Observability | None = None,
    ):
        if config is None:
            config = ServiceConfig(port=0)
        self.service = Service(config, database=database, obs=obs)
        self._thread = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._started = None
        self._startup_error: BaseException | None = None

    def __enter__(self) -> "BackgroundService":
        import threading

        self._started = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()
        if not self._started.wait(timeout=30):
            raise RuntimeError("service failed to start within 30s")
        if self._startup_error is not None:
            self._thread.join(timeout=30)
            raise RuntimeError("service failed to start") from self._startup_error
        return self

    def _run(self) -> None:
        async def _main() -> None:
            try:
                await self.service.start()
            except BaseException as error:
                self._startup_error = error
                return
            finally:
                self._started.set()
            assert self.service._server is not None
            try:
                async with self.service._server:
                    await self.service._server.serve_forever()
            except asyncio.CancelledError:
                pass
            try:
                await self.service.stop()
            except asyncio.CancelledError:
                pass
            # Drain in-flight client handlers so the loop closes clean.
            pending = [
                task
                for task in asyncio.all_tasks()
                if task is not asyncio.current_task()
            ]
            for task in pending:
                task.cancel()
            await asyncio.gather(*pending, return_exceptions=True)

        self._loop = asyncio.new_event_loop()
        try:
            self._loop.run_until_complete(_main())
        finally:
            self._loop.close()

    def __exit__(self, *exc_info) -> None:
        loop = self._loop
        if loop is not None:
            # Cancelling the first task can finish _main and close the
            # loop before the remaining cancels are scheduled; a closed
            # loop at that point just means shutdown already won.
            try:
                for task in asyncio.all_tasks(loop):
                    loop.call_soon_threadsafe(task.cancel)
            except RuntimeError:
                pass
        if self._thread is not None:
            self._thread.join(timeout=30)

    @property
    def port(self) -> int:
        port = self.service.port
        assert port is not None
        return port

    def request(self, method: str, path: str, body: dict | None = None):
        """One synchronous JSON round-trip; returns (status, document)."""
        import http.client

        connection = http.client.HTTPConnection(
            self.service.config.host, self.port, timeout=30
        )
        try:
            payload = None
            headers = {}
            if body is not None:
                payload = json.dumps(body).encode("utf-8")
                headers["Content-Type"] = "application/json"
            connection.request(method, path, body=payload, headers=headers)
            response = connection.getresponse()
            raw = response.read()
            return response.status, (json.loads(raw) if raw else None)
        finally:
            connection.close()
