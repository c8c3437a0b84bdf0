"""The HTTP front end, driven end-to-end over real sockets.

A :class:`~repro.service.server.BackgroundService` runs the asyncio
server on a private thread with an ephemeral port; every test here is
a genuine HTTP round-trip through the stdlib client.  Covered: the
session lifecycle, coalesced-batch determinism across chunkings (and
against the in-process :class:`~repro.service.session.Session`),
backpressure 429s, validation-message parity with the CLI flags, the
chaos endpoint against a live session, and snapshot/restore.
"""

from __future__ import annotations

import json

import pytest

import repro
from repro.common.validation import parse_alpha
from repro.service import BackgroundService, ServiceConfig
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

    def raw_exchange(self, svc, content_length):
        """Send one POST with a raw ``Content-Length`` and read the reply
        until the server closes the connection."""
        import socket

        head = (
            "POST /v1/sessions HTTP/1.1\r\n"
            "Host: localhost\r\n"
            f"Content-Length: {content_length}\r\n"
            "\r\n"
        ).encode("ascii")
        with socket.create_connection(
            (svc.service.config.host, svc.port), timeout=30
        ) as sock:
            sock.sendall(head + b"{}")
            chunks = []
            while True:
                chunk = sock.recv(65536)
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

    def test_metrics_endpoint(self, svc):
        status, body = svc.request("GET", "/v1/metrics")
        assert status == 200
        assert body["schema_version"] == "1"
        assert body["counters"]["service.http.requests"] >= 1
        assert body["counters"]["service.sessions.created"] >= 1


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
