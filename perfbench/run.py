"""Repository benchmark: one command, three seeded workloads, end to end and per layer.

Run from the repository root::

    python3 perfbench/run.py --workload catalog_scan --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25

This process is the load generator and the checker.  The system under test
runs in a separate process (``server.py``), started three times per run so
set-up time is a median of three cold starts.  Every answer is compared with
the direct ``SigmaTyper.annotate`` oracle at the same model state, outside
the timed windows.  With ``--trace 0`` the last stdout line carries the
end-to-end metrics of ``BENCHMARK.json``; with ``--trace 1`` the server
installs the layer wrappers of ``layertrace.py`` and the last line carries
the per-layer metrics.  Every run appends its full record to
``perfbench/history.jsonl``.  See ``perfbench/README.md`` for the metric
definitions.
"""

from __future__ import annotations

import argparse
import asyncio
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from dataclasses import replace
from datetime import datetime, timezone
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
HISTORY = HERE / "history.jsonl"
OUT = HERE / "out"

#: Cold starts of the system under test per run; set-up time is their median.
SETUPS = 3
#: Seconds after which a run kills the system under test and fails.
WATCHDOG_S = 170


class HarnessError(RuntimeError):
    """The benchmark itself failed (not an operation of the system under test)."""


# --------------------------------------------------------------------- stats
def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated percentile; a +inf neighbour (a miss) wins."""
    ordered = sorted(values)
    if not ordered:
        return math.nan
    position = (len(ordered) - 1) * q
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    fraction = position - low
    if fraction == 0 or ordered[low] == ordered[high]:
        return ordered[low]
    if math.isinf(ordered[high]):
        return math.inf
    return ordered[low] + (ordered[high] - ordered[low]) * fraction


def median(values: list[float]) -> float:
    return percentile(values, 0.5)


def _finite(value: float) -> float:
    return value if isinstance(value, (int, float)) and math.isfinite(value) else 0.0


# ------------------------------------------------------------- system under test
class Sut:
    """One system-under-test process and its JSON-lines control channel."""

    def __init__(self, args, run_dir: Path, setup_only: bool) -> None:
        command = [
            sys.executable, str(HERE / "server.py"),
            "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
        ]
        if args.trace:
            command += ["--trace-dir", str(run_dir / "trace")]
        if setup_only:
            command.append("--setup-only")
        if args.smoke:
            command.append("--smoke")
        # The pool's segment directory (tempfile) stays inside the checkout.
        env = dict(os.environ, TMPDIR=str(run_dir / "tmp"), PYTHONPATH=str(SRC))
        started = time.perf_counter()
        self.process = subprocess.Popen(
            command, cwd=ROOT, env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            text=True, bufsize=1, start_new_session=True,
        )
        self.setup_only = setup_only
        try:
            self.ready = self._read()
        except BaseException:
            self.kill()
            raise
        #: Process start until the first request can be served.
        self.setup_s = time.perf_counter() - started

    @property
    def pid(self) -> int:
        return self.process.pid

    def _read(self) -> dict:
        while True:
            line = self.process.stdout.readline()
            if not line:
                raise HarnessError(f"system under test exited (code {self.process.wait()})")
            if line.startswith("@@ "):
                return json.loads(line[3:])

    def call(self, cmd: str, **fields) -> dict:
        self.process.stdin.write(json.dumps({"cmd": cmd, **fields}) + "\n")
        self.process.stdin.flush()
        return self._read()

    def close(self) -> None:
        """Shut down cleanly and wait for the whole process group to end."""
        if self.process.poll() is None and not self.setup_only:
            try:
                self.call("shutdown")
            except (HarnessError, OSError, ValueError):
                pass
        try:
            self.process.wait(timeout=30)
        except subprocess.TimeoutExpired:
            pass
        self.kill()

    def kill(self) -> None:
        try:
            os.killpg(self.process.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
        self.process.wait()
        for stream in (self.process.stdin, self.process.stdout):
            try:
                stream.close()
            except OSError:
                pass


def start_sut(args, run_dir: Path) -> tuple[Sut, list[float]]:
    """Cold-start the system under test SETUPS times; keep the last one."""
    setups = []
    for _ in range((1 if args.smoke else SETUPS) - 1):
        probe = Sut(args, run_dir, setup_only=True)
        setups.append(probe.setup_s)
        probe.close()
    sut = Sut(args, run_dir, setup_only=False)
    setups.append(sut.setup_s)
    return sut, setups


class RssPoller(threading.Thread):
    """Peak over samples of the summed VmHWM of the live system-under-test
    process tree (catalog_scan forks a fresh pair of workers per scan, so a
    sum over every pid ever seen would grow with the number of scans)."""

    def __init__(self, root_pid: int, interval: float = 0.25) -> None:
        super().__init__(daemon=True)
        self.root_pid = root_pid
        self.interval = interval
        self.peak_kb = 0
        self._stop_event = threading.Event()

    @staticmethod
    def _children(pid: int) -> list[int]:
        children = []
        try:
            for task in os.listdir(f"/proc/{pid}/task"):
                with open(f"/proc/{pid}/task/{task}/children", encoding="ascii") as handle:
                    children.extend(int(child) for child in handle.read().split())
        except OSError:
            pass
        return children

    def sample(self) -> None:
        total_kb = 0
        pending = [self.root_pid]
        while pending:
            pid = pending.pop()
            try:
                with open(f"/proc/{pid}/status", encoding="ascii") as handle:
                    for line in handle:
                        if line.startswith("VmHWM:"):
                            total_kb += int(line.split()[1])
                            break
            except (OSError, ValueError):
                continue
            pending.extend(self._children(pid))
        self.peak_kb = max(self.peak_kb, total_kb)

    def run(self) -> None:
        while not self._stop_event.is_set():
            self.sample()
            self._stop_event.wait(self.interval)

    def finish(self) -> float:
        """Stop polling; the peak in MB."""
        self.sample()
        self._stop_event.set()
        self.join()
        return self.peak_kb / 1024.0


# ---------------------------------------------------------------------- HTTP
class Connection:
    """One keep-alive HTTP/1.1 client connection to the front end."""

    def __init__(self, port: int) -> None:
        self.port = port
        self.reader = self.writer = None

    async def post(self, body: bytes) -> tuple[int, bytes]:
        """``(status, body)``; status 0 when the connection failed."""
        try:
            if self.writer is None:
                self.reader, self.writer = await asyncio.open_connection("127.0.0.1", self.port)
            self.writer.write(
                b"POST /annotate HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Type: application/json\r\n"
                + f"Content-Length: {len(body)}\r\n\r\n".encode("ascii") + body
            )
            await self.writer.drain()
            status = int((await self.reader.readline()).split()[1])
            length, keep_alive = 0, True
            while True:
                line = await self.reader.readline()
                if line in (b"\r\n", b"\n", b""):
                    break
                name, _, value = line.decode("latin-1").partition(":")
                name = name.strip().lower()
                if name == "content-length":
                    length = int(value)
                elif name == "connection":
                    keep_alive = value.strip().lower() != "close"
            payload = await self.reader.readexactly(length)
        except (OSError, ValueError, IndexError, asyncio.IncompleteReadError):
            await self.close()
            return 0, b""
        if not keep_alive:
            await self.close()
        return status, payload

    async def close(self) -> None:
        if self.writer is not None:
            writer, self.writer = self.writer, None
            writer.close()
            try:
                await writer.wait_closed()
            except OSError:
                pass


async def open_loop(connections: list[Connection], requests, bodies: list[bytes]) -> list[dict]:
    """Send *requests* on their due times over the given connections.

    A request waits for a free connection, so latency counts from its due
    time.  ``late`` is how far past the due time the generator woke when a
    connection was free early (the generator's own lateness).
    """
    loop = asyncio.get_running_loop()
    results: list[dict] = [None] * len(requests)  # type: ignore[list-item]
    cursor = iter(range(len(requests)))
    origin = loop.time() + 0.05

    async def drive(connection: Connection) -> None:
        for index in cursor:
            due = origin + requests[index].due
            late = None
            if loop.time() < due:
                await asyncio.sleep(due - loop.time())
                late = loop.time() - due
            send = loop.time()
            status, body = await connection.post(bodies[index])
            results[index] = {
                "due": due, "send": send, "done": loop.time(), "status": status, "body": body, "late": late,
            }

    await asyncio.gather(*(drive(connection) for connection in connections))
    return results


def request_body(rid: str, tenant: str, columns_json: str) -> bytes:
    return (
        f'{{"table": {{"name": {json.dumps(rid)}, "metadata": {{}}, "columns": {columns_json}}}, '
        f'"customer_id": {json.dumps(tenant)}}}'
    ).encode("utf-8")


def answer_of(result: dict) -> dict | None:
    if result["status"] != 200:
        return None
    try:
        return json.loads(result["body"])
    except ValueError:
        return None


# ------------------------------------------------------------------ workloads
def run_catalog_scan(args, sut: Sut, poller: RssPoller, ctx: dict) -> dict:
    sut.call("warmup")
    scans = [
        sut.call("scan", index=index) for index in range(workloads.scan_count(args.seconds, args.smoke))
    ]
    peak_rss_mb = poller.finish()
    checked = sut.call("oracle_scan")
    ms_per_col = [1000.0 * r["seconds"] / r["properties"]["columns"] for r in scans]
    columns = sum(r["properties"]["columns"] for r in scans)
    seconds = sum(r["seconds"] for r in scans)
    phases = {
        f"scan{index}": {
            "sent": r["tables"], "succeeded": r["tables"] - bad, "failed": bad,
        }
        for index, (r, bad) in enumerate(zip(scans, checked["mismatches"]))
    }
    properties = {
        "tables": sum(r["properties"]["tables"] for r in scans),
        "columns": columns,
        "tall_col_share": sum(r["properties"]["tall_col_share"] * r["properties"]["columns"] for r in scans) / columns,
        "kernel_eligible_share": sum(
            r["properties"]["kernel_eligible_share"] * r["properties"]["columns"] for r in scans
        ) / columns,
    }
    ctx.update(
        columns=columns,
        bytes_shipped=sum(r["bytes_shipped"] for r in scans),
        transport_fallbacks=sum(r["transport_fallbacks"] for r in scans),
    )
    succeeded = sum(p["succeeded"] for p in phases.values())
    attempted = sum(p["sent"] for p in phases.values())
    return {
        "phases": phases,
        "properties": properties,
        "fingerprint": checked["fingerprint"],
        "peak_rss_mb": peak_rss_mb,
        "latencies_ms": {"scan_ms_per_col": ms_per_col},
        "report": {"scan_cols_per_s": columns / seconds},
        "metrics": {
            "success_frac": succeeded / attempted,
            "rate_per_s": 1000.0 / median(ms_per_col),
        },
    }


def _oracle_answers(sut: Sut, pairs: list[tuple[str, str]]) -> dict:
    expected = {}
    for start in range(0, len(pairs), 50):
        chunk = pairs[start:start + 50]
        for pair, answer in zip(chunk, sut.call("oracle", items=chunk)["answers"]):
            expected[pair] = answer
    return expected


def _phase_latencies(results: list[dict], ok: list[bool]) -> tuple[list[float], list[float]]:
    """(answered latency ms, latency ms with failures as +inf) from due time."""
    answered = [1000.0 * (r["done"] - r["due"]) for r in results if r["status"]]
    scored = [1000.0 * (r["done"] - r["due"]) if good else math.inf for r, good in zip(results, ok)]
    return answered, scored


def _meets_limit(results: list[dict], ok: list[bool]) -> bool:
    """p95 (misses as +inf) within the limit and sends not falling ever
    further behind schedule (a growing backlog)."""
    if not results:
        return False
    scored = [1000.0 * (r["done"] - r["due"]) if good else math.inf for r, good in zip(results, ok)]
    delays = [r["send"] - r["due"] for r in results]
    quarter = max(1, len(delays) // 4)
    growing = median(delays[-quarter:]) - median(delays[:quarter]) > 0.05
    return percentile(scored, 0.95) <= workloads.P95_LIMIT_MS and not growing


async def _tenant_traffic(args, sut: Sut, ctx: dict) -> dict:
    traffic = workloads.TenantTraffic(args.seed, args.smoke)
    connections = [Connection(sut.ready["port"]) for _ in range(workloads.CONNECTIONS)]
    columns_json: dict[str, str] = {}
    seen: set[str] = set()
    phases: dict[str, tuple[list, list[dict]]] = {}
    shares: dict[str, float] = {}

    async def run_phase(name: str, requests) -> list[dict]:
        bodies = []
        for request in requests:
            if request.key not in columns_json:
                columns_json[request.key] = json.dumps(workloads.table_payload(traffic.table(request.key)))
            bodies.append(request_body(request.rid, request.tenant, columns_json[request.key]))
        shares[name] = workloads.repeat_share(requests, seen)
        results = await open_loop(connections, requests, bodies)
        phases[name] = (requests, results)
        return results

    def passes(results: list[dict]) -> bool:
        # Decides the search on status codes; the oracle re-scores it afterwards.
        return _meets_limit(results, [r["status"] == 200 for r in results])

    seconds = args.seconds
    await run_phase("warm", traffic.warmup())
    ctx["pool_before"] = sut.call("stats")
    await run_phase("low", traffic.schedule("low", workloads.LOW_RATE, seconds))
    high = await run_phase("high", traffic.schedule("high", workloads.HIGH_RATE, 0.3 * seconds))
    # Closed-loop capacity: every request due at once, so each connection
    # sends its next request as soon as the previous answer arrives.
    saturated = [replace(r, due=0.0) for r in traffic.schedule("cap", 50.0, 0.6 * seconds)]
    await run_phase("cap", saturated)

    # Goodput: highest offered rate, resolved to 5%, meeting the p95 limit.
    trials: list[tuple[float, str]] = [(workloads.HIGH_RATE, "high")]
    low_rate, high_rate = (workloads.HIGH_RATE, None) if passes(high) else (None, workloads.HIGH_RATE)

    async def trial(rate: float) -> bool:
        name = f"g{len(trials)}"
        results = await run_phase(name, traffic.schedule(name, rate, 0.12 * seconds))
        trials.append((rate, name))
        return passes(results)

    while (low_rate is None or high_rate is None) and len(trials) < 8:
        if low_rate is None:
            rate = high_rate / 1.25
            if await trial(rate):
                low_rate = rate
            else:
                high_rate = rate
        else:
            rate = low_rate * 1.25
            if await trial(rate):
                low_rate = rate
            else:
                high_rate = rate
    while low_rate is not None and high_rate is not None and high_rate / low_rate > 1.05 and len(trials) < 10:
        rate = math.sqrt(low_rate * high_rate)
        if await trial(rate):
            low_rate = rate
        else:
            high_rate = rate
    ctx["pool_after"] = sut.call("stats")
    for connection in connections:
        await connection.close()
    return {"phases": phases, "shares": shares, "trials": trials}


def run_tenant_repeat(args, sut: Sut, poller: RssPoller, ctx: dict) -> dict:
    traffic = asyncio.run(_tenant_traffic(args, sut, ctx))
    peak_rss_mb = poller.finish()
    pairs = sorted({(r.key, r.tenant) for requests, _ in traffic["phases"].values() for r in requests})
    expected = _oracle_answers(sut, pairs)
    phases, answers, latencies, late, verdicts = {}, {}, {}, [], {}
    attempted = succeeded = 0
    for name, (requests, results) in traffic["phases"].items():
        ok = []
        for request, result in zip(requests, results):
            answer = answer_of(result)
            ok.append(oracle.matches(answer, expected[(request.key, request.tenant)]))
            if name in ("warm", "low", "high", "cap"):
                answers[request.rid] = answer
            if result["late"] is not None and name != "warm":
                late.append(1000.0 * result["late"])
        phases[name] = {"sent": len(ok), "succeeded": sum(ok), "failed": len(ok) - sum(ok)}
        latencies[name] = _phase_latencies(results, ok)
        verdicts[name] = _meets_limit(results, ok)
        if name != "warm":
            attempted += len(ok)
            succeeded += sum(ok)
    ctx["client"] = {
        r.rid: (res["send"], res["done"], res["status"])
        for name, (requests, results) in traffic["phases"].items() if name != "warm"
        for r, res in zip(requests, results)
    }
    ctx["generator_late_ms"] = percentile(late, 0.99) if late else 0.0
    measured = [name for name in traffic["phases"] if name != "warm"]
    goodput = max((rate for rate, name in traffic["trials"] if verdicts[name]), default=0.0)
    cap_results = traffic["phases"]["cap"][1]
    capacity = len(cap_results) / (max(r["done"] for r in cap_results) - min(r["send"] for r in cap_results))
    return {
        "phases": phases,
        "attempted": attempted,
        "failed": attempted - succeeded,
        "properties": {
            "repeat_share": sum(traffic["shares"][n] * phases[n]["sent"] for n in measured)
            / sum(phases[n]["sent"] for n in measured),
            "repeat_share_by_phase": {n: traffic["shares"][n] for n in measured},
            "goodput_trials": [[rate, verdicts[name]] for rate, name in traffic["trials"]],
            "capacity_rps": capacity,
        },
        "fingerprint": oracle.fingerprint(answers),
        "peak_rss_mb": peak_rss_mb,
        "latencies_ms": {name: [round(v, 3) for v in latencies[name][1]] for name in ("low", "high")},
        "report": {
            "repeat_p50_ms.low": percentile(latencies["low"][1], 0.5),
            "repeat_p95_ms.low": percentile(latencies["low"][1], 0.95),
            "repeat_p50_ms.high": percentile(latencies["high"][1], 0.5),
            "repeat_p95_ms.high": percentile(latencies["high"][1], 0.95),
            "repeat_goodput_rps": goodput,
        },
        "metrics": {
            "success_frac": succeeded / attempted,
            "rate_per_s": capacity,
        },
    }


async def _analyst_loop(args, sut: Sut) -> dict:
    """Each correction is followed by its reads, sent back to back; the
    oracle answers for them are computed after the reads and before the next
    correction, so at the same model state but outside the timed window."""
    sessions = workloads.FeedbackSessions(args.seed, args.seconds, args.smoke)
    plan = sessions.plan()
    connection = Connection(sut.ready["port"])
    loop = asyncio.get_running_loop()
    corrections: dict[str, int] = defaultdict(int)
    expected_cache: dict[tuple, dict] = {}
    reads, feedback_s, answers = [], [], {}
    pending: list[tuple[dict, tuple, dict | None]] = []

    def check_pending() -> None:
        states = list(dict.fromkeys(state for _, state, _ in pending if state not in expected_cache))
        expected = _oracle_answers(sut, [state[:2] for state in states])
        for state in states:
            expected_cache[state] = expected[state[:2]]
        for read, state, answer in pending:
            read["ok"] = oracle.matches(answer, expected_cache[state])
        pending.clear()

    for step in plan:
        if step.kind == "correct":
            check_pending()
            reply = sut.call(
                "feedback", tenant=step.tenant, key=step.key, column=step.column,
                corrected_type=step.corrected_type,
            )
            feedback_s.append(reply["seconds"])
            corrections[step.tenant] += 1
            continue
        columns_json = json.dumps(workloads.table_payload(sessions.table(step.key)))
        body = request_body(step.rid, step.tenant, columns_json)
        send = loop.time()
        status, payload = await connection.post(body)
        done = loop.time()
        answer = answer_of({"status": status, "body": payload})
        answers[step.rid] = answer
        read = {
            "rid": step.rid, "send": send, "done": done, "status": status,
            "adapted": corrections[step.tenant] > 0,
        }
        reads.append(read)
        pending.append((read, (step.key, step.tenant, corrections[step.tenant]), answer))
    check_pending()
    await connection.close()
    return {"plan": plan, "reads": reads, "feedback_s": feedback_s, "answers": answers}


def run_adapt_feedback(args, sut: Sut, poller: RssPoller, ctx: dict) -> dict:
    ctx["pool_before"] = sut.call("stats")
    loop_result = asyncio.run(_analyst_loop(args, sut))
    ctx["pool_after"] = sut.call("stats")
    peak_rss_mb = poller.finish()
    reads = loop_result["reads"]
    feedback_ms = [1000.0 * s for s in loop_result["feedback_s"]]
    adapted = [r for r in reads if r["adapted"]]
    answered = [1000.0 * (r["done"] - r["send"]) for r in adapted if r["status"]]
    scored = [1000.0 * (r["done"] - r["send"]) if r["ok"] else math.inf for r in adapted]
    read_ok = sum(r["ok"] for r in reads)
    phases = {
        "read": {"sent": len(reads), "succeeded": read_ok, "failed": len(reads) - read_ok},
        "correct": {"sent": len(feedback_ms), "succeeded": len(feedback_ms), "failed": 0},
    }
    ctx["client"] = {r["rid"]: (r["send"], r["done"], r["status"]) for r in reads}
    attempted = len(reads) + len(feedback_ms)
    succeeded = read_ok + len(feedback_ms)
    return {
        "phases": phases,
        "attempted": attempted,
        "failed": attempted - succeeded,
        "properties": {
            **workloads.plan_properties(loop_result["plan"]),
            "adapted_reads": len(adapted),
            "adapted_reads_ok": sum(r["ok"] for r in adapted),
        },
        "fingerprint": oracle.fingerprint(loop_result["answers"]),
        "peak_rss_mb": peak_rss_mb,
        "latencies_ms": {"adapted_reads": [round(v, 3) for v in answered], "feedback": feedback_ms},
        "report": {
            "adapt_read_p50_ms": percentile(scored, 0.5),
            "adapt_read_p90_ms": percentile(scored, 0.9),
            "feedback_p50_ms": median(feedback_ms),
        },
        "metrics": {
            "success_frac": succeeded / attempted,
            "rate_per_s": 1000.0 * len(feedback_ms) / sum(feedback_ms),
        },
    }


RUNNERS = {
    "catalog_scan": run_catalog_scan,
    "tenant_repeat": run_tenant_repeat,
    "adapt_feedback": run_adapt_feedback,
}


# ---------------------------------------------------------------- per layer
def _measured(workload: str, phase: str, with_oracle: bool = False) -> bool:
    if with_oracle and phase == "oracle":
        return True
    if workload == "catalog_scan":
        return phase.startswith("scan")
    if workload == "tenant_repeat":
        return phase in ("low", "high", "cap") or (phase.startswith("g") and phase[1:].isdigit())
    return phase in ("read", "fb")


def layer_metrics(workload: str, spans: list, totals: dict, ctx: dict) -> dict[str, float]:
    """Per-layer numbers from the merged spans (see README.md for definitions)."""
    phase_of = workloads.phase_of
    durations: dict[str, dict[str, float]] = defaultdict(dict)
    batches, shards, scans = [], [], []
    for name, ids, start, end, extra in spans:
        if isinstance(ids, str):
            if _measured(workload, phase_of(ids)):
                durations[name][ids] = end - start
            continue
        if not ids or not _measured(workload, phase_of(ids[0])):
            continue
        record = (ids, end - start, extra)
        if name == "pipeline.annotate_many":
            shards.append(record)
        elif workload == "catalog_scan":
            scans.append(record)
        else:
            batches.append(record)

    def summed(name: str, with_oracle: bool = False) -> list:
        bucket = [0.0, 0, 0]
        for phase, names in totals.items():
            if _measured(workload, phase, with_oracle) and name in names:
                bucket = [a + b for a, b in zip(bucket, names[name])]
        return bucket

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    client = ctx.get("client", {})
    pool_ms = durations["pool.annotate"]
    service_ms = durations["service.annotate"]
    batch_of = {rid: seconds for ids, seconds, _ in batches for rid in ids}
    frontend_self = [
        done - send - pool_ms[rid] for rid, (send, done, _) in client.items() if rid in pool_ms
    ]
    pool_self = [pool_ms[rid] - service_ms[rid] for rid in pool_ms if rid in service_ms]
    service_wait = [service_ms[rid] - batch_of[rid] for rid in service_ms if rid in batch_of]
    counted = batches if workload != "catalog_scan" else shards + scans
    before, after = ctx.get("pool_before"), ctx.get("pool_after")
    pool_delta = {key: after[key] - before[key] for key in before} if before and after else {}
    requests = len(client)

    busy_by_scan: dict[str, dict[int, float]] = defaultdict(lambda: defaultdict(float))
    for ids, seconds, extra in shards:
        busy_by_scan[phase_of(ids[0])][extra["pid"]] += seconds
    backend_self = [
        seconds - max(busy_by_scan[phase_of(ids[0])].values(), default=0.0)
        for ids, seconds, _ in scans
    ]
    scan_wall = sum(seconds for _, seconds, _ in scans)

    pipeline = summed("pipeline")
    tables = pipeline[1]
    features = summed("features")
    relabel = summed("dpbd.relabel")
    metrics = {
        "frontend.self_ms": 1000.0 * _finite(median(frontend_self)),
        "frontend.shed": float(sum(status == 429 for _, _, status in client.values())),
        "pool.self_ms": 1000.0 * _finite(median(pool_self)),
        "pool.affinity_hit_rate": ratio(
            pool_delta.get("affinity_hits", 0),
            pool_delta.get("affinity_hits", 0) + pool_delta.get("affinity_misses", 0),
        ),
        "pool.escapes": float(pool_delta.get("escapes", 0)),
        "pool.redispatches": float(pool_delta.get("redispatches", 0)),
        "service.wait_ms": 1000.0 * _finite(median(service_wait)),
        "service.batch_size": ratio(sum(len(ids) for ids, _, _ in batches), len(batches)),
        "profile_store.hit_rate": ratio(
            sum(e["store_hits"] for _, _, e in counted), sum(e["store_lookups"] for _, _, e in counted)
        ),
        "profile_store.lookups": ratio(sum(e["store_lookups"] for _, _, e in counted), requests),
        "backends.self_s": _finite(statistics.fmean(backend_self)) if backend_self else 0.0,
        "backends.worker_busy_frac": ratio(
            sum(seconds for _, seconds, _ in shards), workloads.WORKERS * scan_wall
        ),
        "transport.bytes_per_col": ratio(ctx.get("bytes_shipped", 0), ctx.get("columns", 0)),
        "transport.fallbacks": float(ctx.get("transport_fallbacks", 0)),
        "colblock.kernel_hit_rate": ratio(
            sum(e["kernel_hits"] for _, _, e in counted),
            sum(e["kernel_hits"] + e["kernel_fallbacks"] for _, _, e in counted),
        ),
        "colblock.fallbacks": float(sum(e["kernel_fallbacks"] for _, _, e in counted)),
        "pipeline.ms_per_table": 1000.0 * ratio(pipeline[0], tables),
        "aggregation.ms": 1000.0 * ratio(summed("aggregation")[0], tables),
        "profiler.ms": 1000.0 * ratio(summed("profiler")[0], tables),
        "features.ms": 1000.0 * ratio(features[0], tables),
        "nn.ms": 1000.0 * ratio(max(0.0, summed("nn")[0] - features[0]), tables),
        "adaptation.local_model.ms": 1000.0 * ratio(*summed("adaptation.local_model", True)[:2]),
        "adaptation.apply.ms": 1000.0 * ratio(*summed("adaptation.apply", True)[:2]),
        "dpbd.relabel.ms": 1000.0 * ratio(relabel[0], relabel[1]),
        "dpbd.label_model.ms": 1000.0 * ratio(summed("dpbd.label_model")[0], relabel[1]),
        "labeling_functions.calls": ratio(summed("labeling_functions")[1], relabel[1]),
        "bench.generator_late_ms": _finite(ctx.get("generator_late_ms", 0.0)),
    }
    for step in ("header_matching", "value_lookup", "table_embedding"):
        seconds, calls, columns = summed(step)
        metrics[f"{step}.ms"] = 1000.0 * ratio(seconds, calls)
        metrics[f"{step}.cols"] = ratio(columns, calls)
    return metrics


# -------------------------------------------------------------------- record
def _source_digest() -> str:
    """Digest of the program and of the benchmark code that builds its inputs."""
    digest = hashlib.sha256()
    for path in [*sorted(SRC.rglob("*.py")), *sorted(HERE.glob("*.py"))]:
        digest.update(str(path.relative_to(ROOT)).encode("utf-8"))
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _commit() -> str | None:
    try:
        completed = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return completed.stdout.strip() or None if completed.returncode == 0 else None


def _history() -> list[dict]:
    if not HISTORY.exists():
        return []
    records = []
    for line in HISTORY.read_text(encoding="utf-8").splitlines():
        try:
            records.append(json.loads(line))
        except ValueError:
            continue
    return records


def _untraced_peers(record: dict) -> list[dict]:
    """Untraced runs of the same workload, source and size in the history."""
    return [
        r for r in _history()
        if r.get("workload") == record["workload"] and r.get("src_sha") == record["src_sha"]
        and r.get("trace") == 0 and r.get("smoke") == record["smoke"]
        and r.get("seconds") == record["seconds"]
    ]


def _trace_overhead(record: dict, peers: list[dict]) -> dict | None:
    """Traced run against the median of the untraced runs."""
    baseline = [r["metrics"] for r in peers]
    if not baseline:
        return None
    overhead = {}
    for name, value in record["metrics"].items():
        reference = median([metrics[name] for metrics in baseline])
        if reference:
            overhead[name] = value / reference - 1.0
    return {"untraced_runs": len(baseline), "relative_change": overhead}


def _dump(value):
    """JSON-safe: +inf (a percentile over misses) becomes the string ``"inf"``."""
    if isinstance(value, float) and not math.isfinite(value):
        return str(value)
    if isinstance(value, dict):
        return {key: _dump(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_dump(item) for item in value]
    return value


# ---------------------------------------------------------------------- main
def run_one(args) -> dict:
    run_dir = OUT / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    (run_dir / "tmp").mkdir(parents=True)
    (run_dir / "trace").mkdir()
    sut = None
    try:
        sut, setups = start_sut(args, run_dir)
        poller = RssPoller(sut.pid)
        poller.start()
        ctx: dict = {}
        result = RUNNERS[args.workload](args, sut, poller, ctx)
        sut.close()
        attempted = result.get("attempted", sum(p["sent"] for p in result["phases"].values()))
        failed = result.get("failed", sum(p["failed"] for p in result["phases"].values()))
        shared = {"setup_s": median(setups), "peak_rss_mb": result["peak_rss_mb"]}
        record = {
            "time": datetime.now(timezone.utc).isoformat(timespec="seconds"),
            "commit": _commit(),
            "src_sha": _source_digest(),
            "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": _numpy_version(),
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "smoke": args.smoke,
            "setups_s": setups,
            "attempted": attempted,
            "failed": failed,
            "phases": result["phases"],
            "properties": result["properties"],
            "fingerprint": result["fingerprint"],
            "generator_late_ms": ctx.get("generator_late_ms", 0.0),
            "latencies_ms": result.get("latencies_ms"),
            "metrics": {**shared, **result["metrics"]},
            "report": {**shared, "failed_frac": failed / attempted, **result["report"]},
        }
        record["correct"] = True
        if args.trace:
            spans, totals = layertrace.load(run_dir / "trace")
            record["layers"] = layer_metrics(args.workload, spans, totals, ctx)
            peers = _untraced_peers(record)
            record["trace_overhead"] = _trace_overhead(record, peers)
            # Tracing must not change a single prediction.
            record["correct"] = all(
                r["fingerprint"] == record["fingerprint"] for r in peers if r["seed"] == args.seed
            )
        with open(HISTORY, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(_dump(record)) + "\n")
        return record
    finally:
        if sut is not None:
            sut.kill()
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            OUT.rmdir()
        except OSError:
            pass  # another run's directory is still there


def _numpy_version() -> str:
    import numpy

    return numpy.__version__


REPORT_UNITS = {
    "setup_s": "s", "peak_rss_mb": "MB", "failed_frac": "ratio", "scan_cols_per_s": "col/s",
    "repeat_p50_ms.low": "ms", "repeat_p95_ms.low": "ms", "repeat_p50_ms.high": "ms",
    "repeat_p95_ms.high": "ms", "repeat_goodput_rps": "req/s", "adapt_read_p50_ms": "ms",
    "adapt_read_p90_ms": "ms", "feedback_p50_ms": "ms",
}


def _shown(value) -> str:
    return f"{value:.4f}" if isinstance(value, (int, float)) else str(value)


def print_record(record: dict) -> None:
    print(f"# {record['workload']} seed={record['seed']} trace={record['trace']} "
          f"nproc={record['nproc']} python={record['python']} numpy={record['numpy']}")
    for name, value in record["report"].items():
        print(f"  {name:<22} {_shown(value):>12} {REPORT_UNITS[name]}")
    for name, counts in record["phases"].items():
        print(f"  phase {name:<16} sent={counts['sent']} succeeded={counts['succeeded']} failed={counts['failed']}")
    print(f"  properties {json.dumps(_dump(record['properties']))}")
    if record["trace"]:
        print(f"  trace overhead {json.dumps(_dump(record['trace_overhead']))}")


def result_line(record: dict) -> str:
    """The driver's line: every end-to-end (or, traced, per-layer) metric of BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = {m["name"]: m["unit"] for m in spec["per_layer" if record["trace"] else "end_to_end"]}
    values = record["layers"] if record["trace"] else record["metrics"]
    bad = [name for name in names if not math.isfinite(values[name])]
    if bad:
        raise HarnessError(f"metrics without a finite value: {bad}")
    return json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in names.items()},
    })


def run_all(args) -> int:
    """Each workload in a fresh process; prints every issue metric by name."""
    records = []
    for workload in workloads.WORKLOADS:
        command = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"]
        if args.smoke:
            command.append("--smoke")
        completed = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
        sys.stderr.write(completed.stderr)
        if completed.returncode != 0:
            print(completed.stdout, end="")
            return completed.returncode
        records.append(_history()[-1])
    for record in records:
        print_record(record)
    print("# end-to-end metrics (failed or wrong answers count as +inf in percentiles)")
    for record in records:
        for name, value in record["report"].items():
            print(f"  {record['workload']:<15} {name:<22} {_shown(value):>12} {REPORT_UNITS[name]}")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=(*workloads.WORKLOADS, "all"), required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes for the self-tests")
    args = parser.parse_args()
    if args.workload == "all":
        return run_all(args)

    def expire(signum, frame):
        raise HarnessError(f"run exceeded {WATCHDOG_S} s")

    def terminate(signum, frame):
        # Unwind through run_one's cleanup, which kills the whole SUT process group.
        raise HarnessError(f"terminated by signal {signum}")

    signal.signal(signal.SIGALRM, expire)
    signal.signal(signal.SIGTERM, terminate)
    signal.alarm(WATCHDOG_S)
    record = run_one(args)
    signal.alarm(0)
    print_record(record)
    print(result_line(record))
    return 0


if __name__ == "__main__" and not (SRC / "repro").is_dir():
    sys.stderr.write(f"perfbench: no source tree at {SRC}; run from a full checkout\n")
    sys.exit(2)
sys.path.insert(0, str(SRC))
sys.path.insert(0, str(HERE))

import layertrace  # noqa: E402
import oracle  # noqa: E402
import workloads  # noqa: E402

if __name__ == "__main__":
    sys.exit(main())
