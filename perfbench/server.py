"""The system-under-test process of the repository benchmark.

``run.py`` starts this process; it pretrains the system, starts the stack the
workload needs and prints one ready line.  From then on it executes JSON
commands read one per line from stdin and answers each with one line on
stdout prefixed by ``@@``:

* ``catalog_scan`` -- no long-lived stack: ``annotate_corpus`` with the
  ``multiprocess`` backend forks its workers per call.
* ``tenant_repeat`` / ``adapt_feedback`` -- ``AnnotationFrontend`` over
  ``AnnotationPool(typer, 2)``, both with default configs, tenants registered
  before the stack starts.

Oracle answers (direct ``SigmaTyper.annotate``) and feedback corrections run
here too, because they need this process's model state.  With
``--trace-dir`` the layer wrappers of ``layertrace.py`` are installed before
anything forks.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import get_context
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import layertrace  # noqa: E402
import oracle  # noqa: E402
import workloads  # noqa: E402

#: The typer forked oracle helpers inherit (set before the helper pool forks).
_ORACLE_TYPER = None


def _oracle_shard(tables) -> list[dict]:
    return [_ORACLE_TYPER.annotate(table).to_dict() for table in tables]


def _reply(payload: dict) -> None:
    sys.stdout.write("@@ " + json.dumps(payload) + "\n")
    sys.stdout.flush()


def _transport_counts() -> tuple[int, int]:
    from repro.serving.transport import transport_stats

    shipped = fallbacks = 0
    for bucket in transport_stats().values():
        shipped += int(bucket.get("bytes_shipped", 0))
        fallbacks += int(bucket.get("pickle_fallbacks", 0)) + int(bucket.get("local_fallbacks", 0))
    return shipped, fallbacks


class Harness:
    def __init__(self, args: argparse.Namespace) -> None:
        self.args = args
        self.workload = args.workload
        self.typer = None
        self.frontend = None
        self.pool = None
        self.source = None
        #: catalog_scan: the scanned corpus, and (tables, answers) per measured scan.
        self.corpus = None
        self.scans: list[tuple[list, list[dict]]] = []

    # ---------------------------------------------------------------- set-up
    async def start(self) -> dict:
        from repro import AnnotationFrontend, AnnotationPool

        started = time.perf_counter()
        self.typer = workloads.pretrain(self.args.smoke)
        pretrain_s = time.perf_counter() - started
        if self.workload == "tenant_repeat":
            self.source = workloads.TenantTraffic(self.args.seed, self.args.smoke)
            tenants = workloads.tenant_names(workloads.TENANTS)
        elif self.workload == "adapt_feedback":
            self.source = workloads.FeedbackSessions(self.args.seed, self.args.seconds, self.args.smoke)
            tenants = self.source.tenants
        else:
            tenants = []
        for tenant in tenants:
            self.typer.register_customer(tenant)
        port = None
        if self.workload != "catalog_scan":
            self.pool = AnnotationPool(self.typer, workloads.WORKERS)
            self.frontend = AnnotationFrontend(pool=self.pool)
            await self.frontend.start()
            port = self.frontend.address[1]
        return {
            "ready": True,
            "port": port,
            "pretrain_s": pretrain_s,
            "stack_s": time.perf_counter() - started - pretrain_s,
        }

    async def stop(self) -> None:
        if self.frontend is not None:
            frontend, self.frontend = self.frontend, None
            await frontend.shutdown()

    # -------------------------------------------------------------- commands
    async def handle(self, command: dict) -> dict:
        handler = getattr(self, "cmd_" + command.pop("cmd"))
        return await handler(**command)

    async def cmd_stats(self) -> dict:
        pool = self.pool.summary()["pool"]
        return {key: pool[key] for key in ("affinity_hits", "affinity_misses", "escapes", "redispatches")}

    async def cmd_warmup(self) -> dict:
        tables = workloads.scan_warmup(self.args.seed, self.args.smoke)
        self.typer.annotate_corpus(tables, backend=f"multiprocess:{workloads.WORKERS}")
        return {}

    async def cmd_scan(self, index: int) -> dict:
        if self.corpus is None:
            self.corpus = workloads.scan_corpus(self.args.smoke)
        tables = workloads.scan_copy(self.corpus, index)
        properties = workloads.scan_properties([tables])
        shipped, fallbacks = _transport_counts()
        started = time.perf_counter()
        predictions = self.typer.annotate_corpus(tables, backend=f"multiprocess:{workloads.WORKERS}")
        seconds = time.perf_counter() - started
        shipped_after, fallbacks_after = _transport_counts()
        self.scans.append((tables, [p.to_dict() for p in predictions]))
        return {
            "seconds": seconds,
            "tables": len(tables),
            "properties": properties,
            "bytes_shipped": shipped_after - shipped,
            "transport_fallbacks": fallbacks_after - fallbacks,
        }

    async def cmd_oracle_scan(self) -> dict:
        """Direct annotate of every corpus table, in forked helpers; every
        scan's answer for a table is compared with it."""
        global _ORACLE_TYPER
        _ORACLE_TYPER = self.typer
        layertrace.set_phase("oracle")
        tables = workloads.scan_copy(self.corpus, 0)
        half = (len(tables) + 1) // 2
        shards = [tables[:half], tables[half:]]
        with ProcessPoolExecutor(max_workers=2, mp_context=get_context("fork")) as helpers:
            expected = [answer for shard in helpers.map(_oracle_shard, shards) for answer in shard]
        return {
            "mismatches": [
                sum(not oracle.matches(a, e) for a, e in zip(answers, expected))
                for _, answers in self.scans
            ],
            "fingerprint": oracle.fingerprint(
                {table.name: answer for tables, answers in self.scans for table, answer in zip(tables, answers)}
            ),
        }

    async def cmd_oracle(self, items: list) -> dict:
        """Direct ``SigmaTyper.annotate`` of each ``[key, tenant]`` at the current model state."""

        def compute() -> list[dict]:
            layertrace.set_phase("oracle")
            return [
                self.typer.annotate(
                    workloads.payload_table(workloads.table_payload(self.source.table(key)), "oracle"),
                    tenant,
                ).to_dict()
                for key, tenant in items
            ]

        return {"answers": await asyncio.get_running_loop().run_in_executor(None, compute)}

    async def cmd_feedback(self, tenant: str, key: str, column: str, corrected_type: str) -> dict:
        table = workloads.payload_table(workloads.table_payload(self.source.table(key)), "feedback")

        def apply() -> float:
            layertrace.set_phase("fb")
            started = time.perf_counter()
            self.typer.give_feedback(tenant, table, column, corrected_type)
            return time.perf_counter() - started

        return {"seconds": await asyncio.get_running_loop().run_in_executor(None, apply)}


async def serve(args: argparse.Namespace) -> int:
    harness = Harness(args)
    _reply(await harness.start())
    if args.setup_only:
        await harness.stop()
        return 0
    loop = asyncio.get_running_loop()
    reader = asyncio.StreamReader()
    await loop.connect_read_pipe(lambda: asyncio.StreamReaderProtocol(reader), sys.stdin)
    try:
        while True:
            line = await reader.readline()
            if not line:
                return 1  # the load generator went away without a shutdown
            command = json.loads(line)
            if command["cmd"] == "shutdown":
                layertrace.flush()
                await harness.stop()
                _reply({})
                return 0
            _reply(await harness.handle(command))
    finally:
        await harness.stop()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace-dir", default=None)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    if args.trace_dir:
        layertrace.install(args.trace_dir)
    return asyncio.run(serve(args))


if __name__ == "__main__":
    sys.exit(main())
