"""Service benchmark: request->plan latency and coalescing throughput.

Drives a live :class:`repro.service.server.BackgroundService` over real
HTTP (loopback) and records:

* **latency** -- wall time from ``POST .../requests`` (one VM,
  ``coalesce=1``) to the plan appearing in the session, including every
  HTTP round trip, one sample per round;
* **throughput** -- admitted VM requests per second for a coalesced
  stream (chunked admissions + one flush), repeated on fresh sessions;
* **identity** -- the same 64-request sequence admitted in chunks of
  1, 8 and 64 must produce byte-identical batch documents, and those
  must equal an in-process :class:`repro.service.session.Session` fed
  the same stream (the HTTP path adds transport, never semantics).

Writes ``BENCH_service.json`` next to this file in the one BENCH format
(``benchfile.py``).  Its gates: median latency at most 50 ms, median
throughput at least 200 req/s, every admitted VM planned, and both
identity verdicts.

Run:
    PYTHONPATH=src python benchmarks/bench_service.py [--quick]
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

from repro.campaign.platformrunner import run_campaign
from repro.core.model import ModelDatabase
from repro.service.schema import SCHEMA_VERSION, decode_vm_request
from repro.service.server import BackgroundService
from repro.service.session import Session, SessionConfig

import benchfile
from benchfile import identity, metric

OUTPUT = Path(__file__).resolve().parent / "BENCH_service.json"

N_SERVERS = 8
CLASSES = ("cpu", "mem", "io")
THROUGHPUT_REPEATS = 3
LATENCY_CEILING_S = 0.050
THROUGHPUT_FLOOR = 200.0


def request_doc(i: int) -> dict:
    """One VM request wire document (the service's own schema)."""
    return {
        "schema_version": SCHEMA_VERSION,
        "vm_id": f"vm{i}",
        "workload_class": CLASSES[i % len(CLASSES)],
        "max_exec_time_s": None,
    }


def new_session(svc: BackgroundService, coalesce: int, n_servers: int = N_SERVERS) -> str:
    status, body = svc.request(
        "POST", "/v1/sessions", {"n_servers": n_servers, "coalesce": coalesce}
    )
    assert status == 201, (status, body)
    return body["session_id"]


def bench_latency(svc: BackgroundService, rounds: int) -> list:
    """One VM per admission, coalesce=1: full HTTP request->plan time."""
    sid = new_session(svc, coalesce=1)
    samples = []
    for i in range(rounds):
        t0 = time.perf_counter()
        status, _ = svc.request(
            "POST", f"/v1/sessions/{sid}/requests", {"requests": [request_doc(i)]}
        )
        assert status == 200
        while True:
            _, info = svc.request("GET", f"/v1/sessions/{sid}")
            if info["batches_completed"] >= i + 1:
                break
        samples.append(time.perf_counter() - t0)
    svc.request("DELETE", f"/v1/sessions/{sid}")
    return samples


def bench_throughput(svc: BackgroundService, total: int, chunk: int, coalesce: int) -> dict:
    """Chunked admissions + one flush; requests/s over the full drain.

    The datacenter is sized so every admitted VM can be placed
    (sessions never release capacity except through fault eviction);
    an unplaceable tail would make the later windows' error path
    flatter the numbers.
    """
    sid = new_session(svc, coalesce=coalesce, n_servers=max(N_SERVERS, total // 8))
    t0 = time.perf_counter()
    for start in range(0, total, chunk):
        stop = min(start + chunk, total)
        body = {"requests": [request_doc(i) for i in range(start, stop)]}
        status, response = svc.request("POST", f"/v1/sessions/{sid}/requests", body)
        assert status == 200, (status, response)
    status, _ = svc.request("POST", f"/v1/sessions/{sid}/flush")
    assert status == 200
    elapsed = time.perf_counter() - t0
    status, plans = svc.request("GET", f"/v1/sessions/{sid}/plans")
    assert status == 200
    batches = plans["batches"]
    planned = sum(len(batch["vm_ids"]) for batch in batches if batch["plan"] is not None)
    svc.request("DELETE", f"/v1/sessions/{sid}")
    return {
        "requests": total,
        "chunk": chunk,
        "coalesce": coalesce,
        "wall_s": elapsed,
        "requests_per_s": total / elapsed,
        "planned_vms": planned,
        "all_planned": planned == total,
    }


def bench_identity(svc: BackgroundService, database: ModelDatabase, total: int) -> dict:
    """Same admitted sequence, three chunkings -> byte-identical batches."""
    coalesce = 8
    documents = {}
    for chunk in (1, 8, total):
        sid = new_session(svc, coalesce=coalesce)
        for start in range(0, total, chunk):
            stop = min(start + chunk, total)
            body = {"requests": [request_doc(i) for i in range(start, stop)]}
            status, _ = svc.request("POST", f"/v1/sessions/{sid}/requests", body)
            assert status == 200
        status, _ = svc.request("POST", f"/v1/sessions/{sid}/flush")
        assert status == 200
        _, plans = svc.request("GET", f"/v1/sessions/{sid}/plans")
        documents[chunk] = json.dumps(plans["batches"], sort_keys=True)
        svc.request("DELETE", f"/v1/sessions/{sid}")
    chunks_identical = len(set(documents.values())) == 1

    # Library-path reference: an in-process session fed the same stream.
    session = Session(
        "sess-0", SessionConfig(n_servers=N_SERVERS, coalesce=coalesce), database
    )
    session.admit([decode_vm_request(request_doc(i)) for i in range(total)])
    session.flush()
    reference = json.dumps(
        [json.loads(json.dumps(record.to_document())) for record in session.batches],
        sort_keys=True,
    )
    library_identical = reference == documents[total]
    return {
        "requests": total,
        "chunkings": sorted(documents),
        "chunks_identical": chunks_identical,
        "library_identical": library_identical,
    }


def run(quick: bool = False) -> dict:
    print("building campaign database...")
    database = ModelDatabase.from_campaign(run_campaign())
    rounds = 10 if quick else 50
    total = 80 if quick else 320
    with BackgroundService(database=database) as svc:
        print("measuring request->plan latency...")
        latency = bench_latency(svc, rounds=rounds)
        print(f"  p50 {statistics.median(latency) * 1e3:.2f}ms")
        print("measuring coalescing throughput...")
        throughputs = []
        for _ in range(THROUGHPUT_REPEATS):
            throughput = bench_throughput(svc, total=total, chunk=32, coalesce=8)
            throughputs.append(throughput)
            print(
                f"  {throughput['requests_per_s']:.0f} req/s "
                f"({throughput['requests']} requests in {throughput['wall_s']:.2f}s, "
                f"all planned: {throughput['all_planned']})"
            )
        print("checking coalescing identity across chunkings...")
        verdicts = bench_identity(svc, database, total=24 if quick else 64)
        print(
            f"  chunks identical: {verdicts['chunks_identical']}, "
            f"library identical: {verdicts['library_identical']}"
        )
    metrics = [
        metric("latency", "s", "lower", latency, gate={"max": LATENCY_CEILING_S}),
        metric("throughput", "req/s", "higher",
               [t["requests_per_s"] for t in throughputs],
               gate={"min": THROUGHPUT_FLOOR}),
        metric("throughput/wall", "s", "lower", [t["wall_s"] for t in throughputs]),
        identity("throughput/all_planned", [t["all_planned"] for t in throughputs]),
        identity("identity/chunks_identical", [verdicts["chunks_identical"]]),
        identity("identity/library_identical", [verdicts["library_identical"]]),
    ]
    config = {
        "quick": quick,
        "latency_rounds": rounds,
        "throughput": {"requests": total, "chunk": 32, "coalesce": 8,
                       "repeats": THROUGHPUT_REPEATS},
        "identity": {"requests": verdicts["requests"],
                     "chunkings": verdicts["chunkings"]},
    }
    return benchfile.write(OUTPUT, "bench_service", config, metrics, quick=quick)


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true", help="smaller sample counts")
    args = parser.parse_args()
    document = run(quick=args.quick)
    ok = all(
        all(m["samples"])
        for m in document["metrics"]
        if m.get("gate") == {"equals": True}
    )
    sys.exit(0 if ok else 1)
