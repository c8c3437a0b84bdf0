"""The repository's end-to-end benchmark (see README.md beside this file).

    python3 perfbench/run.py --workload paper --seed 1 --seconds 20 --trace 0

Runs one workload for about ``--seconds`` seconds as a series of
iterations, each in a fresh program process (``launch.py``), serially
and without a process pool.  Every iteration's outputs are checked.
The last line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end metrics, measured
with tracing off; with ``--trace 1`` they are the per-layer metrics of
traced iterations, plus the tracing overhead against one untraced
iteration of the same run.
"""

from __future__ import annotations

import argparse
import hashlib
import http.client
import json
import os
import random
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import speed  # noqa: E402  (the host-speed yardstick beside this file)

SRC = os.path.join(ROOT, "src")
EXPECTED_PATH = os.path.join(HERE, "expected.json")

#: A seed whose outputs and counts are recorded in expected.json (the
#: other recorded seed, 9001, is held out from tuning).
DEFAULT_SEED = 1

#: Plan ops per service iteration before timing (a fixed warm-up) and
#: while timing.  Each op admits 1-6 VMs and flushes them.
SERVICE_WARMUP_OPS = 200
SERVICE_OPS = 2500
#: Plan ops per session before it is rotated (read, delete, recreate);
#: 16 servers absorb this many batches of up to 6 VMs without filling.
SERVICE_SESSION_OPS = 12
SERVICE_SESSION = {"n_servers": 16, "alpha": 0.5, "coalesce": 8}
SERVICE_MAX_BATCH = 6

#: Batch workloads: CLI arguments of the measured command, at full and
#: at smoke size.  ``{swf}``/``{spill}`` are filled in per run.
BATCH = {
    "paper": (
        ["reproduce", "--vm-budget", "2500", "--jobs", "1", "--quiet"],
        ["reproduce", "--vm-budget", "150", "--jobs", "1", "--quiet"],
    ),
    "campaign-pa": (
        ["simulate", "--swf", "{swf}", "--vm-budget", "20000",
         "--strategy", "PA-0.5", "--qos-factor", "4"],
        ["simulate", "--swf", "{swf}", "--vm-budget", "600",
         "--strategy", "PA-0.5", "--qos-factor", "4"],
    ),
    "campaign-ff": (
        ["simulate", "--swf", "{swf}", "--vm-budget", "40000", "--strategy", "FF-2",
         "--shards", "4", "--jobs", "1",
         "--chronicle-capacity", "16", "--chronicle-spill", "{spill}",
         "--carbon-signal", "synthetic", "--price-signal", "synthetic"],
        ["simulate", "--swf", "{swf}", "--vm-budget", "1200", "--strategy", "FF-2",
         "--shards", "4", "--jobs", "1",
         "--chronicle-capacity", "16", "--chronicle-spill", "{spill}",
         "--carbon-signal", "synthetic", "--price-signal", "synthetic"],
    ),
}
#: Raw SWF jobs written per campaign workload (cleaning drops ~25% and
#: the VM budget truncates the rest).
SWF_JOBS = {"campaign-pa": (11000, 400), "campaign-ff": (22000, 800)}
WORKLOADS = ("paper", "campaign-pa", "campaign-ff", "service")

#: Fewest iterations per run; medians need several samples.
MIN_ITERATIONS = 2
MIN_TRACED_ITERATIONS = 2
CHILD_TIMEOUT_S = 150

END_TO_END_UNITS = {
    "wall_s": "s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p99_ms": "ms",
}
LAYER_TIMES = {
    "workloads.prepare": "workloads.prepare_s",
    "campaign.run": "campaign.run_s",
    "core.model.build": "core.model.build_s",
    "core.allocator": "core.allocator.self_s",
    "strategies.place": "strategies.place.self_s",
    "sim.datacenter": "sim.datacenter.self_s",
    "sim.server.sync": "sim.server.sync_self_s",
    "testbed.contention": "testbed.contention.self_s",
    "sim.chronicle": "sim.chronicle.self_s",
    "ext.carbon": "ext.carbon.self_s",
    "exec.partition": "exec.partition_s",
    "exec.merge": "exec.merge_s",
    "experiments.figures": "experiments.figures_s",
    "service.server": "service.server.self_s",
    "service.session": "service.session.self_s",
    "service.schema.encode": "service.schema.encode_s",
}
LAYER_CALLS = {
    "core.allocator": "core.allocator.calls",
    "strategies.place": "strategies.place.calls",
    "sim.server.sync": "sim.server.syncs",
    "testbed.contention": "testbed.contention.calls",
    "sim.chronicle": "sim.chronicle.records",
    "ext.carbon": "ext.carbon.accrue_calls",
}
COUNTS = (
    "core.allocator.partitions",
    "core.allocator.failures",
    "strategies.place.rejections",
    "exec.tasks",
    "exec.retries",
    "experiments.eval_cells",
)
PER_LAYER_UNITS = {
    **{name: "s" for name in LAYER_TIMES.values()},
    **{name: "count" for name in LAYER_CALLS.values()},
    **{name: "count" for name in COUNTS},
    "core.allocator.feasible_ratio": "ratio",
    "core.allocator.grid_hit_ratio": "ratio",
    "sim.chronicle.spill_bytes": "bytes",
    "service.http.requests": "count",
    "service.http.errors": "count",
    "service.wait_ms": "ms",
    "setup.other_s": "s",
    "other.self_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "trace.speed_factor": "ratio",
}
#: Deterministic counts: identical in every traced iteration of a seed.
DETERMINISTIC = sorted(
    name
    for name, unit in PER_LAYER_UNITS.items()
    if unit in ("count", "bytes")
)


class CheckFailed(Exception):
    """An iteration's outputs are wrong (counts as a failed operation)."""


def digest(document) -> str:
    blob = json.dumps(document, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


# -- inputs -----------------------------------------------------------------


def write_inputs(workload: str, seed: int, smoke: bool, work: str) -> dict:
    """Write the run's inputs from its seed, before anything is timed."""
    sys.path.insert(0, SRC)
    paths: dict = {}
    if workload in SWF_JOBS:
        from repro.common.rng import SeedSequenceFactory
        from repro.workloads.swf import write_swf
        from repro.workloads.synthetic import EGEETraceConfig, generate_egee_like_trace

        n_jobs = SWF_JOBS[workload][1 if smoke else 0]
        records = generate_egee_like_trace(
            EGEETraceConfig(n_jobs=n_jobs),
            rng=SeedSequenceFactory(seed).child("perfbench.swf"),
        )
        paths["swf"] = os.path.join(work, "trace.swf")
        write_swf(records, paths["swf"], comments=[f"perfbench seed {seed}"])
        paths["spill"] = os.path.join(work, "chronicle.jsonl")
    if workload == "service":
        from repro.campaign.platformrunner import run_campaign

        paths["model"] = os.path.join(work, "model")
        run_campaign().save(paths["model"])
    return paths


# -- batch workloads ----------------------------------------------------------


def launch(work: str, argv, traced: bool, stderr_path: str):
    out = os.path.join(work, "result.json")
    if os.path.exists(out):
        os.remove(out)
    command = [sys.executable, os.path.join(HERE, "launch.py"), "--out", out]
    if traced:
        command.append("--trace")
    with open(stderr_path, "wb") as stderr:
        spawned = time.perf_counter()
        process = subprocess.Popen(
            command + ["--"] + list(argv),
            cwd=ROOT,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL,
            stderr=stderr,
        )
    return process, spawned, out


def finish(process, out: str, stderr_path: str) -> dict:
    try:
        code = process.wait(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        process.kill()
        process.wait()
        raise CheckFailed("program process timed out")
    if code != 0 or not os.path.exists(out):
        with open(stderr_path, encoding="utf-8", errors="replace") as handle:
            tail = handle.read()[-2000:]
        raise CheckFailed(f"program process exited {code}: {tail}")
    with open(out, encoding="utf-8") as handle:
        return json.load(handle)


def spill_bytes(paths: dict) -> int:
    spill = paths.get("spill")
    if spill is None:
        return 0
    directory, base = os.path.split(spill)
    total = 0
    for name in os.listdir(directory):
        if name.startswith(base):
            total += os.path.getsize(os.path.join(directory, name))
            os.remove(os.path.join(directory, name))
    return total


def check_batch(workload: str, outputs: dict) -> None:
    if workload == "paper":
        if outputs["fig2_optimal_n"] != 9:
            raise CheckFailed(f"Fig. 2 optimum {outputs['fig2_optimal_n']}, paper: 9")
        if outputs["fig4_matches"] is not True:
            raise CheckFailed("Fig. 4 worked example no longer matches the paper")
        if len(outputs["outcomes"]) != 12:
            raise CheckFailed(f"{len(outputs['outcomes'])} evaluation cells, expected 12")
        return
    for name in ("makespan_s", "energy_j", "n_vms"):
        if not outputs[name] > 0:
            raise CheckFailed(f"{name} = {outputs[name]}")
    if outputs["busy_energy_j"] + outputs["idle_energy_j"] != outputs["energy_j"]:
        raise CheckFailed("busy + idle energy differs from the reported total")
    if not 0 <= outputs["sla_violations"] <= outputs["n_jobs"]:
        raise CheckFailed(f"sla_violations = {outputs['sla_violations']}")
    if workload == "campaign-ff" and not (outputs["carbon_g"] > 0 and outputs["cost"] > 0):
        raise CheckFailed("carbon and cost must accrue against the synthetic signals")


def batch_iteration(workload: str, argv, paths: dict, work: str, traced: bool) -> dict:
    stderr_path = os.path.join(work, "program.err")
    process, spawned, out = launch(work, argv, traced, stderr_path)
    record = finish(process, out, stderr_path)
    outputs = record["outputs"]
    check_batch(workload, outputs)
    factors = {
        phase: speed.factor(record["speed"][phase]) for phase in ("setup", "measured")
    }
    raw_wall = record["t_done"] - record["t_ready"]
    wall = raw_wall * factors["measured"]
    return {
        "setup_s": (record["t_ready"] - spawned) * factors["setup"],
        "wall_s": wall,
        "raw_wall_s": raw_wall,
        "cpu_s": record["cpu_s"] * factors["measured"],
        "peak_rss_mb": record["peak_rss_mb"],
        "op_latencies_s": [wall],
        "ops": 1,
        "failed": 0,
        "digest": digest(outputs),
        "factors": factors,
        "trace": record["trace"],
        "extra_counts": {"sim.chronicle.spill_bytes": spill_bytes(paths)},
        "request_s": None,
    }


# -- the service workload -----------------------------------------------------


class ServiceClient:
    """One keep-alive connection driving plan ops in a closed loop."""

    def __init__(self, port: int, seed: int):
        self._connection = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
        self._rng = random.Random(seed)
        self._sizes: list[int] = []
        self._classes: list[str] = []
        self._session: str | None = None
        self._session_ops = 0
        self._next_vm = 0
        self.stream = hashlib.sha256()
        self.failed = 0
        self.attempted = 0
        self.request_s = 0.0
        self.last_body = b""

    def request(self, method: str, path: str, body=None):
        payload = None if body is None else json.dumps(body).encode("utf-8")
        headers = {} if payload is None else {"Content-Type": "application/json"}
        started = time.perf_counter()
        self._connection.request(method, path, body=payload, headers=headers)
        response = self._connection.getresponse()
        raw = response.read()
        document = json.loads(raw) if raw else None
        self.request_s += time.perf_counter() - started
        self.last_body = raw
        return response.status, document

    def close(self) -> None:
        self._connection.close()

    def _rotate(self) -> None:
        """Retire the current session (read its plans, delete it), open a new one."""
        if self._session is not None:
            self.attempted += 2
            status, _ = self.request("GET", f"/v1/sessions/{self._session}/plans")
            self.failed += status != 200
            status, _ = self.request("DELETE", f"/v1/sessions/{self._session}")
            self.failed += status != 200
        self.attempted += 1
        status, document = self.request("POST", "/v1/sessions", SERVICE_SESSION)
        if status != 201:
            raise CheckFailed(f"session creation failed: {status} {document}")
        self._session = document["session_id"]
        self._session_ops = 0
        self._next_vm = 0

    def batch(self) -> list:
        """The next seeded batch.

        Sizes and classes are dealt from shuffled decks (each size 1-6
        once per six ops, each class twice per six VMs), so every seed
        asks for the same mix of work in a different order.
        """
        if not self._sizes:
            self._sizes = list(range(1, SERVICE_MAX_BATCH + 1))
            self._rng.shuffle(self._sizes)
        requests = []
        for _ in range(self._sizes.pop()):
            if not self._classes:
                self._classes = ["cpu", "mem", "io"] * 2
                self._rng.shuffle(self._classes)
            requests.append(
                {
                    "schema_version": "1",
                    "vm_id": f"vm{self._next_vm}",
                    "workload_class": self._classes.pop(),
                }
            )
            self._next_vm += 1
        return requests

    def plan_op(self, requests=None) -> float:
        """Admit one seeded batch and flush it; returns the op latency."""
        if self._session is None or self._session_ops >= SERVICE_SESSION_OPS:
            self._rotate()
        self._session_ops += 1
        requests = self.batch() if requests is None else requests
        self.attempted += 1
        started = time.perf_counter()
        admit_status, _ = self.request(
            "POST", f"/v1/sessions/{self._session}/requests", {"requests": requests}
        )
        flush_status, flushed = self.request("POST", f"/v1/sessions/{self._session}/flush")
        latency = time.perf_counter() - started
        # The server encodes with sorted keys, so the bytes are canonical.
        self.stream.update(self.last_body)
        batches = flushed.get("batches", []) if flush_status == 200 else []
        ok = (
            admit_status == 200
            and flush_status == 200
            and len(batches) == 1
            and batches[0]["error"] is None
            and batches[0]["vm_ids"] == [request["vm_id"] for request in requests]
            and sum(len(a["vm_ids"]) for a in batches[0]["plan"]["assignments"])
            == len(requests)
        )
        self.failed += not ok
        return latency


def _proc_cpu_s(pid: int) -> float:
    with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def _proc_peak_rss_mb(pid: int) -> float:
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise CheckFailed("no VmHWM for the server process")


def _wait_for_port(process, stderr_path: str) -> int:
    deadline = time.perf_counter() + 60
    while time.perf_counter() < deadline:
        if process.poll() is not None:
            raise CheckFailed(f"server exited {process.returncode} during start-up")
        with open(stderr_path, encoding="utf-8", errors="replace") as handle:
            match = re.search(r"listening on http://[^:]+:(\d+)", handle.read())
        if match:
            return int(match.group(1))
        time.sleep(0.005)
    raise CheckFailed("server did not start listening within 60 s")


def service_iteration(
    paths: dict,
    work: str,
    traced: bool,
    seed: int,
    warmup_ops: int,
    ops: int,
    malformed_ops=frozenset(),
) -> dict:
    """One server process: start, warm up, time ``ops`` plan ops, stop.

    ``malformed_ops`` lists measured op ordinals whose admission body is
    deliberately invalid (the failure-accounting test uses it).
    """
    stderr_path = os.path.join(work, "program.err")
    argv = ["serve", "--model", paths["model"], "--port", "0"]
    # Client and server share one CPU (the server inherits the pin): in
    # a closed loop one of them is always runnable, so the CPU never
    # idles between request and reply, and the host's wake-up latency
    # for an idle virtual CPU, which swings with its load, stays out of
    # every op.
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    process, spawned, out = launch(work, argv, traced, stderr_path)
    client = None
    try:
        port = _wait_for_port(process, stderr_path)
        client = ServiceClient(port, seed)
        for _ in range(warmup_ops):
            client.plan_op()
        ready = time.perf_counter()
        client.request_s = 0.0
        os.kill(process.pid, signal.SIGUSR1)
        cpu0 = _proc_cpu_s(process.pid)
        started = time.perf_counter()
        latencies = []
        for op in range(ops):
            malformed = [{"schema_version": "1", "vm_id": f"bad{op}", "workload_class": "gpu"}]
            latencies.append(client.plan_op(malformed if op in malformed_ops else None))
        wall = time.perf_counter() - started
        cpu = _proc_cpu_s(process.pid) - cpu0
        request_s = client.request_s
        os.kill(process.pid, signal.SIGUSR1)
        peak_rss = _proc_peak_rss_mb(process.pid)
        status, metrics = client.request("GET", "/v1/metrics")
        if status != 200:
            raise CheckFailed(f"GET /v1/metrics returned {status}")
    except (OSError, http.client.HTTPException, ValueError, KeyError) as error:
        raise CheckFailed(f"service client: {error!r}") from error
    finally:
        os.sched_setaffinity(0, cpus)
        if client is not None:
            client.close()
        if process.poll() is None:
            process.send_signal(signal.SIGINT)
        try:
            process.wait(timeout=30)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait()
    record = finish(process, out, stderr_path)
    # The client shares the server's CPU, so the server's samples give
    # the speed of both.
    factors = {
        phase: speed.factor(record["speed"][phase]) for phase in ("setup", "measured")
    }
    scale = factors["measured"]
    counters = metrics.get("counters", {})
    return {
        "setup_s": (ready - spawned) * factors["setup"],
        "wall_s": wall * scale,
        "raw_wall_s": wall,
        "cpu_s": cpu * scale,
        "peak_rss_mb": peak_rss,
        "op_latencies_s": [latency * scale for latency in latencies],
        "ops": client.attempted,
        "failed": client.failed,
        "digest": client.stream.hexdigest()[:16],
        "factors": factors,
        "trace": record["trace"],
        "extra_counts": {
            "service.http.requests": sum(
                value for key, value in counters.items()
                if key.startswith("service.http.requests")
            ),
            "service.http.errors": sum(
                value for key, value in counters.items()
                if key.startswith("service.http.errors")
            ),
        },
        "plan_ops": ops,
        "request_s": request_s * scale,
    }


# -- metrics --------------------------------------------------------------------


def layer_metrics(sample: dict) -> dict:
    """Per-layer metrics of one traced iteration, in reference seconds."""
    spans: dict = {}
    counts: dict = {}
    attributed = {}
    for phase in ("setup", "measured"):
        totals = sample["trace"].get(phase, {"spans": {}, "counts": {}})
        scale = sample["factors"][phase]
        attributed[phase] = 0.0
        for layer, (calls, self_s) in totals["spans"].items():
            previous = spans.get(layer, (0, 0.0))
            spans[layer] = (previous[0] + calls, previous[1] + self_s * scale)
            attributed[phase] += self_s * scale
        for name, value in totals["counts"].items():
            counts[name] = counts.get(name, 0) + value
    metrics = {name: 0.0 for name in PER_LAYER_UNITS}
    for layer, name in LAYER_TIMES.items():
        metrics[name] = spans.get(layer, (0, 0.0))[1]
    for layer, name in LAYER_CALLS.items():
        metrics[name] = spans.get(layer, (0, 0.0))[0]
    for name in COUNTS:
        metrics[name] = counts.get(name, 0)
    partitions = counts.get("core.allocator.partitions", 0)
    lookups = counts.get("core.allocator.grid_lookups", 0)
    metrics["core.allocator.feasible_ratio"] = (
        counts.get("core.allocator.feasible", 0) / partitions if partitions else 0.0
    )
    metrics["core.allocator.grid_hit_ratio"] = (
        counts.get("core.allocator.grid_hits", 0) / lookups if lookups else 0.0
    )
    metrics.update(sample["extra_counts"])
    wall = sample["wall_s"]
    if sample["request_s"] is not None:
        # Service: the client waits for the server's busy time plus the
        # wait (transport, parsing, the client's own HTTP stack).
        wait = sample["request_s"] - attributed["measured"]
        metrics["service.wait_ms"] = 1000.0 * wait / sample["plan_ops"]
        attributed["measured"] = sample["request_s"]
    metrics["other.self_s"] = wall - attributed["measured"]
    metrics["setup.other_s"] = sample["setup_s"] - attributed["setup"]
    metrics["trace.wall_s"] = wall
    metrics["trace.speed_factor"] = sample["factors"]["measured"]
    return metrics


def end_to_end(samples: list) -> dict:
    latencies = [value for sample in samples for value in sample["op_latencies_s"]]
    attempted = sum(sample["ops"] for sample in samples)
    failed = sum(sample["failed"] for sample in samples)
    wall_total = sum(sample["wall_s"] for sample in samples)
    n_ops = sum(len(sample["op_latencies_s"]) for sample in samples)
    values = {
        "wall_s": statistics.median(s["wall_s"] for s in samples),
        "cpu_s": statistics.median(s["cpu_s"] for s in samples),
        "setup_s": statistics.median(s["setup_s"] for s in samples),
        "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in samples),
        "ok_frac": (attempted - failed) / attempted,
        "ops_per_s": n_ops / wall_total,
        "op_p50_ms": 1000.0 * percentile(latencies, 50),
        "op_p99_ms": 1000.0 * percentile(latencies, 99),
    }
    return values


def per_layer(traced: list, untraced: list) -> dict:
    rows = [layer_metrics(sample) for sample in traced]
    values = {}
    for name in PER_LAYER_UNITS:
        column = [row[name] for row in rows]
        if name in DETERMINISTIC and len(set(column)) != 1:
            raise CheckFailed(f"count {name} differs between traced iterations: {column}")
        values[name] = statistics.median(column)
    values["trace.overhead_s"] = values["trace.wall_s"] - statistics.median(
        s["wall_s"] for s in untraced
    )
    return values


# -- the run ----------------------------------------------------------------------


def load_expected() -> dict:
    if not os.path.exists(EXPECTED_PATH):
        return {"digests": {}, "counts": {}}
    with open(EXPECTED_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def seed_key(workload: str, seed: int) -> str:
    # The paper workload takes no seed: reproduce_paper seeds itself.
    return "any" if workload == "paper" else str(seed)


def check_digests(workload: str, seed: int, samples: list, expected: dict) -> str:
    digests = {sample["digest"] for sample in samples}
    if len(digests) != 1:
        raise CheckFailed(f"outputs differ between iterations: {sorted(digests)}")
    (observed,) = digests
    want = expected["digests"].get(workload, {}).get(seed_key(workload, seed))
    if want is not None and want != observed:
        raise CheckFailed(f"outputs digest {observed} != recorded {want}")
    return observed


def record_expected(workload: str, seed: int, observed: str, counts: dict | None) -> None:
    expected = load_expected()
    key = seed_key(workload, seed)
    expected["digests"].setdefault(workload, {})[key] = observed
    if counts is not None:
        expected["counts"].setdefault(workload, {})[key] = counts
    with open(EXPECTED_PATH, "w", encoding="utf-8") as handle:
        json.dump(expected, handle, indent=1, sort_keys=True)
        handle.write("\n")


def iterate(args, iteration) -> tuple[list, list, list]:
    """Run iterations for about ``args.seconds`` seconds.

    Returns (untraced samples, traced samples, failure messages).  A
    trace run first makes one untraced iteration, the base of the
    tracing overhead.  Another iteration starts while it is expected
    to end within the time budget; the minimum keeps medians
    meaningful.
    """
    untraced, traced, failures = [], [], []

    def attempt(traced_run: bool) -> None:
        try:
            (traced if traced_run else untraced).append(iteration(traced_run))
        except CheckFailed as error:
            failures.append(str(error))
            print(f"perfbench: iteration failed: {error}", file=sys.stderr)

    minimum = MIN_TRACED_ITERATIONS if args.trace else MIN_ITERATIONS
    target = traced if args.trace else untraced
    started = time.perf_counter()
    if args.trace:
        attempt(False)
    last = elapsed = 0.0
    while (len(target) < minimum or elapsed + last <= args.seconds) and len(failures) < minimum:
        begun = time.perf_counter()
        attempt(bool(args.trace))
        last = time.perf_counter() - begun
        elapsed = time.perf_counter() - started
    return untraced, traced, failures


def run(args) -> dict:
    work = os.path.join(ROOT, ".perfbench_work", f"run-{os.getpid()}")
    os.makedirs(work)
    try:
        paths = write_inputs(args.workload, args.seed, args.smoke, work)

        def iteration(traced: bool) -> dict:
            if args.workload == "service":
                return service_iteration(
                    paths,
                    work,
                    traced,
                    args.seed,
                    warmup_ops=20 if args.smoke else SERVICE_WARMUP_OPS,
                    ops=60 if args.smoke else SERVICE_OPS,
                )
            sizes = BATCH[args.workload][1 if args.smoke else 0]
            argv = [value.format(**paths) for value in sizes]
            return batch_iteration(args.workload, argv, paths, work, traced)

        untraced, traced, failures = iterate(args, iteration)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    samples = untraced + traced
    attempted = sum(s["ops"] for s in samples) + len(failures)
    failed = sum(s["failed"] for s in samples) + len(failures)
    print(
        f"perfbench: {args.workload} seed {args.seed}: measured wall "
        + ", ".join(
            f"{s['raw_wall_s']:.3f}s at speed {s['factors']['measured']:.3f}"
            + (" (traced)" if s in traced else "")
            for s in samples
        ),
        file=sys.stderr,
    )
    expected = load_expected() if not args.smoke and not args.record else {"digests": {}}
    metrics: dict = {}
    try:
        if not (traced if args.trace else untraced):
            raise CheckFailed("no iteration completed")
        observed = check_digests(args.workload, args.seed, samples, expected)
        if args.trace:
            metrics = per_layer(traced, untraced)
            counts = {name: metrics[name] for name in DETERMINISTIC}
            recorded = expected.get("counts", {}).get(args.workload, {})
            baseline = recorded.get(seed_key(args.workload, args.seed))
            if baseline is not None and baseline != counts:
                changed = sorted(n for n in counts if baseline.get(n) != counts[n])
                print(f"perfbench: counts differ from expected.json: {changed}", file=sys.stderr)
        else:
            metrics = end_to_end(untraced)
            counts = None
        print(f"perfbench: outputs digest {observed}", file=sys.stderr)
        if args.record and not failed:
            record_expected(args.workload, args.seed, observed, counts)
    except CheckFailed as error:
        print(f"perfbench: check failed: {error}", file=sys.stderr)
        failed += 1
        attempted += 1
    if "ok_frac" in metrics:
        metrics["ok_frac"] = (attempted - failed) / attempted
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in units.items()
            if name in metrics
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="repro end-to-end benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true", help="tiny sizes, for the benchmark's own test"
    )
    parser.add_argument(
        "--record",
        action="store_true",
        help="write this seed's output digest (and, traced, its counts) to expected.json",
    )
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no repro package under {SRC}", file=sys.stderr)
        return 2
    result = run(args)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
