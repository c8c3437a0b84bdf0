"""The HTTP front end, driven end-to-end over real sockets.

A :class:`~repro.service.server.BackgroundService` runs the asyncio
server on a private thread with an ephemeral port; every test here is
a genuine HTTP round-trip through the stdlib client.  Covered: the
session lifecycle, coalesced-batch determinism across chunkings (and
against the in-process :class:`~repro.service.session.Session`),
backpressure 429s, validation-message parity with the CLI flags, the
chaos endpoint against a live session, snapshot/restore, and the
idle timeout.
"""

from __future__ import annotations

import asyncio
import json

import pytest

import repro
from repro.common.validation import parse_alpha
from repro.service import BackgroundService, ServiceConfig
from repro.service.server import Service
from repro.service.session import Session, SessionConfig

CLASSES = ("cpu", "mem", "io")


def request_doc(i):
    return {
        "schema_version": "1",
        "vm_id": f"vm{i}",
        "workload_class": CLASSES[i % len(CLASSES)],
        "max_exec_time_s": None,
    }


def request_docs(n, start=0):
    return [request_doc(start + i) for i in range(n)]


@pytest.fixture(scope="module")
def svc(database):
    with BackgroundService(database=database) as service:
        yield service


def make_session(svc, **config):
    status, body = svc.request("POST", "/v1/sessions", config)
    assert status == 201, body
    return body["session_id"]


def internal_errors(svc):
    """How many requests the service has answered with a 500."""
    status, metrics = svc.request("GET", "/v1/metrics")
    assert status == 200
    return metrics["counters"].get('service.http.errors{status="500"}', 0)


def plans_bytes(svc, sid):
    status, body = svc.request("GET", f"/v1/sessions/{sid}/plans")
    assert status == 200
    return json.dumps(body["batches"], indent=2, sort_keys=True)


class TestLifecycle:
    def test_healthz(self, svc):
        status, body = svc.request("GET", "/v1/healthz")
        assert status == 200
        assert body["schema_version"] == "1"
        assert body["status"] == "ok"
        assert body["version"] == repro.__version__

    def test_create_info_list_delete(self, svc):
        sid = make_session(svc, n_servers=2, coalesce=3)
        status, info = svc.request("GET", f"/v1/sessions/{sid}")
        assert status == 200
        assert info["config"]["n_servers"] == 2
        assert info["config"]["coalesce"] == 3
        assert info["queue_depth"] == 0

        status, listing = svc.request("GET", "/v1/sessions")
        assert status == 200
        assert sid in [entry["session_id"] for entry in listing["sessions"]]

        status, deleted = svc.request("DELETE", f"/v1/sessions/{sid}")
        assert status == 200 and deleted["deleted"] is True
        status, body = svc.request("GET", f"/v1/sessions/{sid}")
        assert status == 404
        assert body["error"]["code"] == "not_found"

    def test_unknown_route_404(self, svc):
        status, body = svc.request("GET", "/v2/anything")
        assert status == 404
        assert body["error"]["code"] == "not_found"

    def test_wrong_method_405(self, svc):
        status, body = svc.request("DELETE", "/v1/healthz")
        assert status == 405
        assert body["error"]["code"] == "method_not_allowed"
        assert "GET" in body["error"]["message"]

    def test_invalid_json_body_400(self, svc):
        import http.client

        connection = http.client.HTTPConnection(
            svc.service.config.host, svc.port, timeout=30
        )
        try:
            connection.request(
                "POST", "/v1/sessions", body=b"{not json",
                headers={"Content-Type": "application/json"},
            )
            response = connection.getresponse()
            body = json.loads(response.read())
        finally:
            connection.close()
        assert response.status == 400
        assert body["error"]["code"] == "invalid_json"

    def test_a_body_spanning_several_socket_reads(self, svc):
        import http.client

        from repro.service.server import RECV_BYTES

        body = json.dumps({"n_servers": 2}).encode("ascii") + b" " * (3 * RECV_BYTES)
        connection = http.client.HTTPConnection(
            svc.service.config.host, svc.port, timeout=30
        )
        try:
            connection.request("POST", "/v1/sessions", body=body)
            response = connection.getresponse()
            created = json.loads(response.read())
        finally:
            connection.close()
        assert response.status == 201, created
        assert svc.request("DELETE", f"/v1/sessions/{created['session_id']}")[0] == 200

    def raw_exchange(self, svc, content_length, headers=()):
        """Send one POST with a raw ``Content-Length`` (after any extra
        ``headers`` lines) and read the reply until the server closes
        the connection."""
        import socket

        head = (
            "POST /v1/sessions HTTP/1.1\r\n"
            "Host: localhost\r\n"
            + "".join(f"{line}\r\n" for line in headers)
            + f"Content-Length: {content_length}\r\n"
            "\r\n"
        ).encode("ascii")
        with socket.create_connection(
            (svc.service.config.host, svc.port), timeout=30
        ) as sock:
            try:
                sock.sendall(head + b"{}")
            except (BrokenPipeError, ConnectionResetError):
                pass  # the server answered and closed before reading it all
            chunks = []
            while True:
                try:
                    chunk = sock.recv(65536)
                except ConnectionResetError:
                    break  # closed with unread request bytes; reply came first
                if not chunk:
                    break
                chunks.append(chunk)
        reply = b"".join(chunks)
        status_line, _, rest = reply.partition(b"\r\n")
        body = json.loads(rest.partition(b"\r\n\r\n")[2])
        return status_line.decode("ascii"), body

    def assert_still_healthy(self, svc):
        status, body = svc.request("GET", "/v1/healthz")
        assert status == 200
        assert body["status"] == "ok"

    def test_negative_content_length_400(self, svc):
        status_line, body = self.raw_exchange(svc, "-5")
        assert status_line == "HTTP/1.1 400 Bad Request"
        assert body["error"]["code"] == "invalid_request"
        assert "Content-Length" in body["error"]["message"]
        self.assert_still_healthy(svc)

    def test_non_numeric_content_length_400(self, svc):
        status_line, body = self.raw_exchange(svc, "abc")
        assert status_line == "HTTP/1.1 400 Bad Request"
        assert body["error"]["code"] == "invalid_request"
        self.assert_still_healthy(svc)

    def test_oversize_content_length_413(self, svc):
        from repro.service.server import MAX_BODY_BYTES

        status_line, body = self.raw_exchange(svc, str(MAX_BODY_BYTES + 1))
        assert status_line == "HTTP/1.1 413 Payload Too Large"
        assert body["error"]["code"] == "payload_too_large"
        self.assert_still_healthy(svc)

    def test_oversize_header_line_431(self, svc):
        from repro.service.server import MAX_LINE_BYTES

        status_line, body = self.raw_exchange(
            svc, "2", headers=["X-Pad: " + "a" * MAX_LINE_BYTES]
        )
        assert status_line == "HTTP/1.1 431 Request Header Fields Too Large"
        assert body["error"]["code"] == "request_header_fields_too_large"
        assert str(MAX_LINE_BYTES) in body["error"]["message"]
        self.assert_still_healthy(svc)

    def test_header_count_cap_is_exact(self, svc):
        from repro.service.server import MAX_HEADERS

        # Host and Content-Length are two of the counted lines.
        extra = ["Connection: close"] + [f"X-H{i}: v" for i in range(MAX_HEADERS - 3)]
        status_line, body = self.raw_exchange(svc, "2", headers=extra)
        assert status_line == "HTTP/1.1 201 Created", body
        status_line, body = self.raw_exchange(svc, "2", headers=extra + ["X-Last: v"])
        assert status_line == "HTTP/1.1 431 Request Header Fields Too Large"
        assert body["error"]["code"] == "request_header_fields_too_large"
        assert str(MAX_HEADERS) in body["error"]["message"]
        self.assert_still_healthy(svc)

    def test_twenty_thousand_headers_431(self, svc):
        headers = [f"X-H{i}: v" for i in range(20_000)]
        status_line, body = self.raw_exchange(svc, "2", headers=headers)
        assert status_line == "HTTP/1.1 431 Request Header Fields Too Large"
        assert body["error"]["code"] == "request_header_fields_too_large"
        self.assert_still_healthy(svc)

    def test_metrics_endpoint(self, svc):
        status, body = svc.request("GET", "/v1/metrics")
        assert status == 200
        assert body["schema_version"] == "1"
        assert body["counters"]["service.http.requests"] >= 1
        assert body["counters"]["service.sessions.created"] >= 1


class TestIdleTimeout:
    """A connection that sends no complete request within
    ``IDLE_TIMEOUT_S`` is closed; a half-sent request gets a 408."""

    TIMEOUT_S = 0.5

    @pytest.fixture(autouse=True)
    def short_timeout(self, monkeypatch):
        import repro.service.server as server

        monkeypatch.setattr(server, "IDLE_TIMEOUT_S", self.TIMEOUT_S)

    def connect(self, svc):
        import socket

        return socket.create_connection(
            (svc.service.config.host, svc.port), timeout=10 * self.TIMEOUT_S + 5
        )

    def read_reply(self, sock, pending=b""):
        """One response off ``sock``: (status line, document, leftover
        bytes), or None when the server closed the connection first."""
        data = pending
        while b"\r\n\r\n" not in data:
            chunk = sock.recv(65536)
            if not chunk:
                return None
            data += chunk
        head, _, rest = data.partition(b"\r\n\r\n")
        lines = head.decode("ascii").split("\r\n")
        length = next(
            int(line.partition(":")[2])
            for line in lines
            if line.lower().startswith("content-length:")
        )
        while len(rest) < length:
            chunk = sock.recv(65536)
            assert chunk, "connection closed mid-body"
            rest += chunk
        return lines[0], json.loads(rest[:length]), rest[length:]

    def test_idle_keep_alive_connection_closed(self, svc):
        import time

        with self.connect(svc) as sock:
            sock.sendall(b"GET /v1/healthz HTTP/1.1\r\nHost: localhost\r\n\r\n")
            status_line, body, leftover = self.read_reply(sock)
            assert status_line == "HTTP/1.1 200 OK"
            started = time.monotonic()
            # Idle: the server closes without sending anything more.
            assert leftover == b"" and sock.recv(65536) == b""
            assert time.monotonic() - started >= 0.8 * self.TIMEOUT_S

    def test_stalled_half_request_gets_408(self, svc):
        with self.connect(svc) as sock:
            sock.sendall(b"POST /v1/sessions HTTP/1.1\r\nHost: localhost\r\n")
            status_line, body, leftover = self.read_reply(sock)
            assert status_line == "HTTP/1.1 408 Request Timeout"
            assert body["error"]["code"] == "request_timeout"
            assert leftover == b"" and sock.recv(65536) == b""
        status, metrics = svc.request("GET", "/v1/metrics")
        assert metrics["counters"]['service.http.errors{status="408"}'] >= 1

    def test_busy_client_untouched(self, svc):
        import time

        # Requests a fifth of the timeout apart, on one connection, for
        # well over twice the timeout: every one is answered.
        with self.connect(svc) as sock:
            deadline = time.monotonic() + 2.5 * self.TIMEOUT_S
            answered = 0
            while time.monotonic() < deadline:
                sock.sendall(b"GET /v1/healthz HTTP/1.1\r\nHost: localhost\r\n\r\n")
                reply = self.read_reply(sock)
                assert reply is not None, f"closed after {answered} requests"
                assert reply[0] == "HTTP/1.1 200 OK"
                answered += 1
                time.sleep(self.TIMEOUT_S / 5)
        assert answered >= 10


class TestValidationParity:
    def test_bad_alpha_carries_the_cli_message(self, svc):
        # The service body and the CLI flag route through the same
        # parse_alpha; an HTTP 400 must carry the exact text
        # `repro allocate --alpha 1.5` prints before exiting 2.
        with pytest.raises(ValueError) as excinfo:
            parse_alpha(1.5)
        cli_message = str(excinfo.value)
        status, body = svc.request("POST", "/v1/sessions", {"alpha": 1.5})
        assert status == 400
        assert body["error"]["code"] == "invalid_request"
        assert cli_message in body["error"]["message"]

    @pytest.mark.parametrize(
        "config, message",
        [
            ({"alpha": True}, "'alpha' must be a number, got True"),
            ({"time_budget_s": "5"}, "'time_budget_s' must be a number, got '5'"),
        ],
    )
    def test_non_number_config_field_400(self, svc, config, message):
        # The CLI parsers take argv strings; a JSON body must carry a
        # number, or the session would echo `true` or fail at allocation.
        before = internal_errors(svc)
        status, body = svc.request("POST", "/v1/sessions", config)
        assert status == 400
        assert body["error"] == {
            "code": "invalid_request",
            "message": f"session config document: {message}",
        }
        assert internal_errors(svc) == before

    def test_unknown_config_key_400(self, svc):
        status, body = svc.request("POST", "/v1/sessions", {"servers": 4})
        assert status == 400
        assert "unknown keys" in body["error"]["message"]

    def test_bad_workload_class_400(self, svc):
        sid = make_session(svc)
        bad = request_doc(0)
        bad["workload_class"] = "gpu"
        status, body = svc.request(
            "POST", f"/v1/sessions/{sid}/requests", {"requests": [bad]}
        )
        assert status == 400
        assert "unknown workload_class 'gpu'" in body["error"]["message"]
        svc.request("DELETE", f"/v1/sessions/{sid}")

    def test_unversioned_request_document_400(self, svc):
        sid = make_session(svc)
        bad = request_doc(0)
        del bad["schema_version"]
        status, body = svc.request(
            "POST", f"/v1/sessions/{sid}/requests", {"requests": [bad]}
        )
        assert status == 400
        assert "missing 'schema_version'" in body["error"]["message"]
        svc.request("DELETE", f"/v1/sessions/{sid}")


class TestAdmissionAndFlush:
    def test_admit_then_flush_returns_plans(self, svc):
        sid = make_session(svc, n_servers=4, coalesce=4)
        status, body = svc.request(
            "POST", f"/v1/sessions/{sid}/requests", {"requests": request_docs(6)}
        )
        assert status == 200
        assert body["admitted"] == 6
        assert body["admitted_total"] == 6
        status, flushed = svc.request("POST", f"/v1/sessions/{sid}/flush")
        assert status == 200
        status, plans = svc.request("GET", f"/v1/sessions/{sid}/plans")
        assert status == 200
        batches = plans["batches"]
        assert [len(batch["vm_ids"]) for batch in batches] == [4, 2]
        assert all(batch["plan"] is not None for batch in batches)
        assert all(batch["error"] is None for batch in batches)
        svc.request("DELETE", f"/v1/sessions/{sid}")

    def test_backpressure_429(self, svc):
        sid = make_session(svc, coalesce=4, max_queue=4)
        status, body = svc.request(
            "POST", f"/v1/sessions/{sid}/requests", {"requests": request_docs(5)}
        )
        assert status == 429
        assert body["error"]["code"] == "backpressure"
        assert "admission queue is full" in body["error"]["message"]
        # All-or-nothing: nothing from the rejected call was admitted.
        status, info = svc.request("GET", f"/v1/sessions/{sid}")
        assert info["admitted_total"] == 0
        svc.request("DELETE", f"/v1/sessions/{sid}")

    def test_session_limit_429(self, database):
        with BackgroundService(
            ServiceConfig(port=0, max_sessions=1), database=database
        ) as small:
            assert small.request("POST", "/v1/sessions", {})[0] == 201
            status, body = small.request("POST", "/v1/sessions", {})
            assert status == 429
            assert body["error"]["code"] == "backpressure"
            assert "session limit reached (1)" in body["error"]["message"]


class TestBatchLoopWakeups:
    def test_only_a_full_window_wakes_the_loop(self, database):
        # Partial windows wait for more admissions or a flush; waking
        # the loop for them finds nothing to allocate.
        async def scenario():
            service = Service(database=database)
            _, info = await service._route_create_session({}, {"n_servers": 4, "coalesce": 8})
            sid = info["session_id"]
            session, event = service._sessions[sid], service._events[sid]
            woken, start = [], 0
            for size in (3, 4, 1, 5):
                await service._route_admit({"sid": sid}, {"requests": request_docs(size, start)})
                start += size
                woken.append(event.is_set())
                await asyncio.sleep(0)
            batches = len(session.batches)
            for task in service._loops.values():
                task.cancel()
            await asyncio.gather(*service._loops.values(), return_exceptions=True)
            return woken, batches, session.queue_depth

        assert asyncio.run(scenario()) == ([False, False, True, False], 1, 5)


class TestCoalescedDeterminism:
    TOTAL = 12

    def stream(self, svc, chunks):
        sid = make_session(svc, n_servers=6, coalesce=4)
        start = 0
        for chunk in chunks:
            status, _ = svc.request(
                "POST",
                f"/v1/sessions/{sid}/requests",
                {"requests": request_docs(chunk, start=start)},
            )
            assert status == 200
            start += chunk
        status, _ = svc.request("POST", f"/v1/sessions/{sid}/flush")
        assert status == 200
        rendered = plans_bytes(svc, sid)
        svc.request("DELETE", f"/v1/sessions/{sid}")
        return rendered

    def test_plans_identical_across_chunkings(self, svc):
        assert (
            self.stream(svc, [self.TOTAL])
            == self.stream(svc, [1] * self.TOTAL)
            == self.stream(svc, [5, 1, 3, 3])
        )

    def test_http_plans_match_in_process_session(self, svc, database):
        over_http = self.stream(svc, [3, 3, 3, 3])
        session = Session(
            "ref",
            SessionConfig(n_servers=6, coalesce=4),
            database,
        )
        from repro.core.allocator import VMRequest

        session.admit(
            [
                VMRequest(f"vm{i}", CLASSES[i % len(CLASSES)])
                for i in range(self.TOTAL)
            ]
        )
        session.flush()
        reference = json.dumps(
            [record.to_document() for record in session.batches],
            indent=2,
            sort_keys=True,
        )
        assert over_http == reference


class TestSnapshotRestore:
    def test_state_round_trip_over_http(self, svc):
        sid = make_session(svc, n_servers=2, coalesce=2)
        svc.request(
            "POST", f"/v1/sessions/{sid}/requests", {"requests": request_docs(3)}
        )
        svc.request("POST", f"/v1/sessions/{sid}/flush")
        status, snapshot = svc.request("GET", f"/v1/sessions/{sid}/state")
        assert status == 200
        assert snapshot["schema_version"] == "1"

        other = make_session(svc, n_servers=2, coalesce=2)
        status, info = svc.request("PUT", f"/v1/sessions/{other}/state", snapshot)
        assert status == 200
        assert info["batches_completed"] == 2
        status, restored = svc.request("GET", f"/v1/sessions/{other}/state")
        assert status == 200
        # The snapshot carries the *session's* state, not its identity.
        assert restored["session_id"] == other
        snapshot_sans_id = {k: v for k, v in snapshot.items() if k != "session_id"}
        restored_sans_id = {k: v for k, v in restored.items() if k != "session_id"}
        assert restored_sans_id == snapshot_sans_id
        svc.request("DELETE", f"/v1/sessions/{sid}")
        svc.request("DELETE", f"/v1/sessions/{other}")

    def test_put_state_rejects_future_version(self, svc):
        sid = make_session(svc)
        status, body = svc.request(
            "PUT", f"/v1/sessions/{sid}/state", {"schema_version": "99"}
        )
        assert status == 400
        assert "schema_version '99'" in body["error"]["message"]
        svc.request("DELETE", f"/v1/sessions/{sid}")

    @pytest.mark.parametrize(
        "entry, field, value, message",
        [
            ("servers", "failed", "no", "'servers[0].failed' must be a boolean, got 'no'"),
            ("servers", "failed", 1, "'servers[0].failed' must be a boolean, got 1"),
            ("placements", "max_exec_time_s", True,
             "'placements[0].max_exec_time_s' must be a number, got True"),
            ("placements", "max_exec_time_s", -5,
             "'placements[0].max_exec_time_s' must be positive or null, got -5.0"),
            ("placements", "max_exec_time_s", "abc",
             "'placements[0].max_exec_time_s' must be a number, got 'abc'"),
        ],
    )
    def test_put_state_rejects_untyped_entry_fields(self, svc, entry, field, value, message):
        sid = make_session(svc, n_servers=2, coalesce=2)
        svc.request(
            "POST", f"/v1/sessions/{sid}/requests", {"requests": request_docs(2)}
        )
        svc.request("POST", f"/v1/sessions/{sid}/flush")
        status, snapshot = svc.request("GET", f"/v1/sessions/{sid}/state")
        assert status == 200 and snapshot["placements"]
        snapshot[entry][0][field] = value
        status, body = svc.request("PUT", f"/v1/sessions/{sid}/state", snapshot)
        assert status == 400
        assert body["error"] == {
            "code": "invalid_request",
            "message": f"session_state document: {message}",
        }
        svc.request("DELETE", f"/v1/sessions/{sid}")

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("server_id", "", "server_id must be non-empty"),
            ("allocated", {"ncpu": 0, "nmem": 0, "nio": -1},
             "allocated counts must be >= 0, got (0, 0, -1)"),
        ],
    )
    def test_put_state_rejects_bad_server_entry(self, svc, field, value, message):
        sid = make_session(svc, n_servers=2, coalesce=2)
        status, snapshot = svc.request("GET", f"/v1/sessions/{sid}/state")
        assert status == 200
        snapshot["servers"][1][field] = value
        before = internal_errors(svc)
        status, body = svc.request("PUT", f"/v1/sessions/{sid}/state", snapshot)
        assert status == 400
        assert body["error"] == {"code": "invalid_request", "message": message}
        assert internal_errors(svc) == before
        svc.request("DELETE", f"/v1/sessions/{sid}")


class TestChaosEndpoint:
    def test_crash_through_live_session(self, svc):
        sid = make_session(svc, n_servers=2, coalesce=2)
        svc.request(
            "POST", f"/v1/sessions/{sid}/requests", {"requests": request_docs(4)}
        )
        svc.request("POST", f"/v1/sessions/{sid}/flush")
        status, info = svc.request("GET", f"/v1/sessions/{sid}")
        assert info["placements"] == 4

        status, body = svc.request(
            "POST",
            f"/v1/sessions/{sid}/faults",
            {
                "schema_version": "1",
                "events": [{"kind": "server_crash", "server": 0, "time_s": 5.0}],
            },
        )
        assert status == 200
        records = body["records"]
        assert [record["kind"] for record in records] == ["server_crash"]
        assert records[0]["applied"] is True
        evicted = records[0]["vm_ids"]
        assert body["queue_depth"] == len(evicted)

        # The evicted VMs re-plan onto the surviving server only.
        status, flushed = svc.request("POST", f"/v1/sessions/{sid}/flush")
        assert status == 200
        for batch in flushed["batches"]:
            if batch["plan"] is not None:
                assert all(
                    assignment["server_id"] != "s0"
                    for assignment in batch["plan"]["assignments"]
                )
        status, info = svc.request("GET", f"/v1/sessions/{sid}")
        assert info["failed_servers"] == ["s0"]
        assert info["queue_depth"] == 0
        svc.request("DELETE", f"/v1/sessions/{sid}")

    def test_bad_fault_spec_400(self, svc):
        sid = make_session(svc)
        status, body = svc.request(
            "POST",
            f"/v1/sessions/{sid}/faults",
            {"schema_version": "1", "events": [{"kind": "meteor_strike"}]},
        )
        assert status == 400
        assert body["error"]["code"] == "invalid_request"
        svc.request("DELETE", f"/v1/sessions/{sid}")

    @pytest.mark.parametrize(
        "event, message",
        [
            ({"kind": "worker_failure", "task": 0, "times": 1.9},
             "events[0].times must be an integer, got 1.9"),
            ({"kind": "server_crash", "server": True},
             "events[0].server must be an integer or null, got True"),
            ({"kind": "server_crash", "server": 0, "time_s": "7"},
             "events[0].time_s must be a finite number, got '7'"),
        ],
    )
    def test_untyped_fault_field_400(self, svc, event, message):
        sid = make_session(svc)
        status, body = svc.request(
            "POST", f"/v1/sessions/{sid}/faults", {"schema_version": "1", "events": [event]}
        )
        assert status == 400
        assert body["error"]["message"] == f"events[0]: bad field value: {message}"
        svc.request("DELETE", f"/v1/sessions/{sid}")


class TestWireText:
    """Every response body is the canonical ``json.dumps`` text."""

    @staticmethod
    def exchange(svc, method, path, payload=None, content_length=None):
        """One request on its own connection; returns (status, raw body)."""
        import socket

        payload = b"" if payload is None else payload
        length = len(payload) if content_length is None else content_length
        head = (
            f"{method} {path} HTTP/1.1\r\n"
            "Host: localhost\r\n"
            "Connection: close\r\n"
            f"Content-Length: {length}\r\n"
            "\r\n"
        ).encode("ascii")
        with socket.create_connection(
            (svc.service.config.host, svc.port), timeout=30
        ) as sock:
            sock.sendall(head + payload)
            chunks = []
            while chunk := sock.recv(65536):
                chunks.append(chunk)
        reply = b"".join(chunks)
        status_line, _, rest = reply.partition(b"\r\n")
        return int(status_line.split()[1]), rest.partition(b"\r\n\r\n")[2]

    def test_every_route_and_error_envelope(self, svc):
        from repro.service.server import MAX_BODY_BYTES

        def send(method, path, document=None, **kwargs):
            payload = None if document is None else json.dumps(document).encode()
            status, body = self.exchange(svc, method, path, payload, **kwargs)
            bodies.append((method, path, status, body))
            return status, json.loads(body)

        bodies = []
        status, created = send("POST", "/v1/sessions", {"n_servers": 3, "coalesce": 4})
        assert status == 201
        sid = created["session_id"]
        base = f"/v1/sessions/{sid}"
        assert send("POST", f"{base}/requests", {"requests": request_docs(6)})[0] == 200
        assert send("POST", f"{base}/flush")[0] == 200
        assert send("GET", f"{base}/plans")[0] == 200
        assert send("GET", f"{base}/state")[0] == 200
        assert send("GET", "/v1/metrics")[0] == 200
        assert send("DELETE", base)[0] == 200
        assert send("POST", "/v1/sessions", {"alpha": 2})[0] == 400
        assert send("GET", base)[0] == 404
        assert send("DELETE", "/v1/healthz")[0] == 405
        assert send("POST", "/v1/sessions", content_length=MAX_BODY_BYTES + 1)[0] == 413
        for method, path, status, body in bodies:
            canonical = json.dumps(json.loads(body), indent=2, sort_keys=True).encode()
            assert body == canonical, (method, path, status)


class TestShutdown:
    def test_open_keep_alive_connection_logs_nothing(self, database, caplog):
        """Leaving the ``with`` block while a client holds a keep-alive
        connection open cancels its handler without a logged traceback."""
        import logging
        import socket

        with caplog.at_level(logging.WARNING):
            with BackgroundService(database=database) as service:
                sock = socket.create_connection(
                    (service.service.config.host, service.port), timeout=30
                )
                sock.sendall(b"GET /v1/healthz HTTP/1.1\r\nHost: localhost\r\n\r\n")
                reply = b""
                while b"\r\n\r\n" not in reply:
                    chunk = sock.recv(65536)
                    assert chunk, "connection closed before the reply"
                    reply += chunk
                assert reply.startswith(b"HTTP/1.1 200 OK")
            sock.close()
        assert [record.getMessage() for record in caplog.records] == []
