"""Seeded workload generators for the repository benchmark.

Every input of a run is a pure function of the workload seed (and of the
run length, which fixes how much work there is).  The load generator and the
system-under-test process both import this module and rebuild the same
inputs from the seed, so no table crosses the control channel; the program
under test only ever receives the generated tables.

The table populations themselves are fixed (``CORPUS_SEED``), and so are
the scanned corpus and the order of the feedback corrections: the seed
draws the warm-up, assigns tables to tenants, draws the arrival schedules
and the never-seen tables, and picks the tables read between corrections.
With per-seed populations the cost of one request moved by 20-60% from
seed to seed, which no bound could absorb.

Three workloads, each stressing different layers:

* ``catalog_scan`` -- bulk ``annotate_corpus`` over tall GitTables-like
  tables (backends, transport, colblock kernels, profiler, featurisation).
* ``tenant_repeat`` -- open-loop HTTP traffic from four unadapted tenants whose
  requests mostly repeat table bytes already sent (frontend, pool routing,
  service batching, profile store).
* ``adapt_feedback`` -- a closed analyst loop that interleaves reads with
  ``give_feedback`` corrections (dpbd, adaptation).
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

from repro import SigmaTyper, SigmaTyperConfig, Table
from repro.adaptation import GlobalModelConfig
from repro.corpus import GitTablesConfig, GitTablesGenerator, build_ood_corpus
from repro.nn import MLPConfig

WORKLOADS = ("catalog_scan", "tenant_repeat", "adapt_feedback")

#: Pool and backend worker count: the CPU count of the reference machine,
#: fixed so a run on another machine does the same work.
WORKERS = 2

# ------------------------------------------------------------------ pretraining
#: The E-series pretraining configuration (benchmarks/conftest.py).
PRETRAIN_TABLES = 90
BACKGROUND_TABLES = 20
MLP_EPOCHS = 30


def pretrain(smoke: bool = False) -> SigmaTyper:
    """The pretrained system every workload serves (fixed seeds)."""
    tables, background, epochs = (
        (20, 5, 3) if smoke else (PRETRAIN_TABLES, BACKGROUND_TABLES, MLP_EPOCHS)
    )
    train = GitTablesGenerator(GitTablesConfig(num_tables=tables, seed=2024)).generate_corpus()
    ood = build_ood_corpus(num_tables=background, seed=2025)
    config = SigmaTyperConfig(
        global_model=GlobalModelConfig(
            mlp=MLPConfig(max_epochs=epochs, hidden_sizes=(128, 64), seed=3), seed=2024
        )
    )
    return SigmaTyper.pretrained(training_corpus=train, background_corpus=ood, config=config)


#: Seed of the fixed table populations every workload draws from.
CORPUS_SEED = 20221


def _sub_seed(seed: int, *parts: object) -> int:
    """A deterministic child seed (``hash`` of str is salted per process)."""
    rng = random.Random(f"{seed}|" + "|".join(map(str, parts)))
    return rng.randrange(1, 2**31)


#: Columns of every short (tenant) table.  A fixed width keeps the cost of
#: one request about equal across seeds; rows still vary from 20 to 120.
SHORT_COLUMNS = 8


def _short_tables(seed: int, count: int) -> list[Table]:
    config = GitTablesConfig(
        num_tables=count, seed=seed, min_rows=20, max_rows=120,
        min_columns=SHORT_COLUMNS, max_columns=SHORT_COLUMNS,
    )
    return list(GitTablesGenerator(config).generate_corpus())


def request_id(phase: str, index: int) -> str:
    """Request ids ride in the table name; the prefix names the phase."""
    return f"{phase}.{index:06d}"


def phase_of(request_id_: str) -> str:
    return request_id_.split(".", 1)[0]


def table_payload(table: Table) -> list[dict]:
    """The JSON column list a client sends: names and values, no labels."""
    return [{"name": column.name, "values": list(column.values)} for column in table.columns]


def payload_table(columns: list[dict], name: str) -> Table:
    """The table the front end decodes from a request (JSON round trip)."""
    decoded = json.loads(json.dumps({"name": name, "metadata": {}, "columns": columns}))
    return Table.from_dict(decoded)


# ------------------------------------------------------------------ catalog_scan
#: Tall-table shape: the issue's 500-5000 rows per table.
SCAN_MIN_ROWS = 500
SCAN_MAX_ROWS = 5000
#: A column counts as tall from this many rows on.
TALL_ROWS = 1000
#: Tables in the scanned corpus.
SCAN_TABLES = 20
#: Seconds of run length per measured scan (one scan takes about 3.3 s on
#: two CPUs).
SECONDS_PER_SCAN = 3.0


def scan_count(seconds: float, smoke: bool = False) -> int:
    """Measured scans per run: one per ``SECONDS_PER_SCAN`` of run length."""
    if smoke:
        return 2
    return max(3, round(seconds / SECONDS_PER_SCAN))


def scan_corpus(smoke: bool = False) -> list[Table]:
    """The scanned corpus: tall tables, the same on every seed.

    The corpus and its order are fixed: the backend shards a corpus into
    contiguous halves, so another corpus or order moves the busier shard's
    share of the work, and with it the scan's wall time (42-56 col/s across
    seeds when shuffled).
    """
    rows = (50, 200) if smoke else (SCAN_MIN_ROWS, SCAN_MAX_ROWS)
    config = GitTablesConfig(
        num_tables=2 if smoke else SCAN_TABLES, seed=_sub_seed(CORPUS_SEED, "scan", 0),
        min_rows=rows[0], max_rows=rows[1],
    )
    return list(GitTablesGenerator(config).generate_corpus())


def scan_copy(corpus: list[Table], scan_index: int) -> list[Table]:
    """Fresh copies of *corpus* for one measured scan, named by request id.

    ``Table.copy`` builds new columns, so no memoized profile or view of an
    earlier scan rides along: every scan is of tables this process has never
    annotated.
    """
    tables = [table.copy() for table in corpus]
    for index, table in enumerate(tables):
        table.name = request_id(f"scan{scan_index}", index)
    return tables


def scan_warmup(seed: int, smoke: bool = False) -> list[Table]:
    """Warm-up tables from a different seed than any measured round."""
    rows = (50, 200) if smoke else (SCAN_MIN_ROWS, SCAN_MAX_ROWS // 2)
    config = GitTablesConfig(
        num_tables=2 if smoke else 4, seed=_sub_seed(seed, "warm"), min_rows=rows[0], max_rows=rows[1]
    )
    tables = list(GitTablesGenerator(config).generate_corpus())
    for index, table in enumerate(tables):
        table.name = request_id("warm", index)
    return tables


def _kernel_eligible(values: list) -> bool:
    """Block kernels take ASCII text and plain scalars; others fall back."""
    texts = []
    for value in values:
        if value is None or isinstance(value, (int, float)):
            continue
        if not isinstance(value, str):
            return False
        texts.append(value)
    return "".join(texts).isascii()


def scan_properties(rounds: list[list[Table]]) -> dict[str, float]:
    """Measured shares of the properties catalog_scan depends on."""
    columns = [column for tables in rounds for table in tables for column in table.columns]
    if not columns:
        return {"columns": 0, "tall_col_share": 0.0, "kernel_eligible_share": 0.0}
    return {
        "tables": sum(len(tables) for tables in rounds),
        "columns": len(columns),
        "tall_col_share": sum(len(c) >= TALL_ROWS for c in columns) / len(columns),
        "kernel_eligible_share": sum(_kernel_eligible(c.values) for c in columns) / len(columns),
    }


# ----------------------------------------------------------------- tenant_repeat
TENANTS = 4
TABLES_PER_TENANT = 6
LOW_RATE = 10.0
HIGH_RATE = 35.0
#: The goodput criterion: p95 at or under this many ms, backlog not growing.
P95_LIMIT_MS = 100.0
#: Share of measured requests that carry a never-seen table.
FRESH_SHARE = 0.01
CONNECTIONS = 2


@dataclass(frozen=True)
class Request:
    """One scheduled HTTP read: due offset (s), tenant, table key, request id."""

    due: float
    tenant: str
    key: str
    rid: str


def tenant_names(count: int) -> list[str]:
    return [f"tenant{index}" for index in range(count)]


def tenant_tables(seed: int, smoke: bool = False) -> dict[str, tuple[str, Table]]:
    """``key -> (tenant, table)`` for the regular set every tenant re-reads."""
    per_tenant = 2 if smoke else TABLES_PER_TENANT
    tenants = tenant_names(TENANTS)
    tables = _short_tables(_sub_seed(CORPUS_SEED, "tenants"), len(tenants) * per_tenant)
    random.Random(_sub_seed(seed, "tenant-mix")).shuffle(tables)
    return {
        f"{tenant}/{index}": (tenant, tables[t * per_tenant + index])
        for t, tenant in enumerate(tenants)
        for index in range(per_tenant)
    }


def fresh_table(seed: int, index: int) -> Table:
    """The *index*-th never-repeated table of a run (one per fresh request)."""
    return _short_tables(_sub_seed(seed, "fresh", index), 1)[0]


class TenantTraffic:
    """Open-loop Poisson schedules over the regular set plus fresh tables.

    Fresh keys are numbered across the whole run, so a key is never reused
    and every fresh request is a cold table for the server.
    """

    def __init__(self, seed: int, smoke: bool = False) -> None:
        self.seed = seed
        self.regular = tenant_tables(seed, smoke)
        self._fresh_count = 0

    def warmup(self) -> list[Request]:
        """Each regular table once, in key order, 50 ms apart."""
        return [
            Request(0.05 * index, tenant, key, request_id("warm", index))
            for index, (key, (tenant, _)) in enumerate(sorted(self.regular.items()))
        ]

    def schedule(self, phase: str, rate: float, seconds: float) -> list[Request]:
        """Poisson arrivals conditioned on their count (``rate * seconds``),
        with exactly ``FRESH_SHARE`` of them carrying a fresh table."""
        rng = random.Random(_sub_seed(self.seed, "arrivals", phase, rate, seconds))
        count = max(1, round(rate * seconds))
        dues = sorted(rng.uniform(0.0, seconds) for _ in range(count))
        fresh = set(rng.sample(range(count), round(FRESH_SHARE * count)))
        keys = sorted(self.regular)
        tenants = tenant_names(TENANTS)
        requests: list[Request] = []
        for index, due in enumerate(dues):
            if index in fresh:
                key = f"fresh/{self._fresh_count}"
                self._fresh_count += 1
                tenant = rng.choice(tenants)
            else:
                key = rng.choice(keys)
                tenant = self.regular[key][0]
            requests.append(Request(due, tenant, key, request_id(phase, index)))
        return requests

    def table(self, key: str) -> Table:
        if key.startswith("fresh/"):
            return fresh_table(self.seed, int(key.split("/", 1)[1]))
        return self.regular[key][1]


def repeat_share(requests: list[Request], seen: set[str]) -> float:
    """Share of *requests* whose table bytes were already sent; updates *seen*."""
    repeats = 0
    for request in requests:
        repeats += request.key in seen
        seen.add(request.key)
    return repeats / len(requests) if requests else 0.0


# ---------------------------------------------------------------- adapt_feedback
FEEDBACK_TENANTS = 2
FEEDBACK_TABLES_PER_TENANT = 4
READS_PER_CORRECTION = 5


@dataclass(frozen=True)
class Step:
    """One analyst action: a read, or a correction of one column's type."""

    kind: str  # "read" | "correct"
    tenant: str
    key: str
    rid: str = ""
    column: str = ""
    corrected_type: str = ""


def feedback_corrections(seconds: float, smoke: bool) -> int:
    """Corrections per run: nine per five seconds of run length."""
    return 2 if smoke else max(2, round(seconds * 1.8))


class FeedbackSessions:
    """Closed-loop analyst sessions for two pre-registered tenants.

    The plan opens with one read of every table (tenants still unadapted),
    then repeats: a correction on one tenant's column, followed by reads that
    start with the corrected table, alternating tenants.  The structure and
    the corrected columns, in their order, are fixed (the cost of one
    ``give_feedback`` depends on the corrections before it: a reordering moved
    the total by 5-7%); the seed picks the other tables read.
    """

    def __init__(self, seed: int, seconds: float, smoke: bool = False) -> None:
        self.seed = seed
        self.tenants = tenant_names(FEEDBACK_TENANTS)
        per_tenant = 2 if smoke else FEEDBACK_TABLES_PER_TENANT
        tables = _short_tables(_sub_seed(CORPUS_SEED, "feedback"), len(self.tenants) * per_tenant)
        self.tables: dict[str, tuple[str, Table]] = {
            f"{tenant}/{index}": (tenant, tables[t * per_tenant + index])
            for t, tenant in enumerate(self.tenants)
            for index in range(per_tenant)
        }
        self.corrections = feedback_corrections(seconds, smoke)

    def plan(self) -> list[Step]:
        rng = random.Random(_sub_seed(self.seed, "plan"))
        steps: list[Step] = []

        def read(tenant: str, key: str) -> None:
            steps.append(Step("read", tenant, key, rid=request_id("read", len(steps))))

        for key, (tenant, _) in sorted(self.tables.items()):
            read(tenant, key)
        per_tenant = -(-self.corrections // len(self.tenants))
        targets = {tenant: self._targets(tenant, per_tenant) for tenant in self.tenants}
        for round_index in range(self.corrections):
            tenant = self.tenants[round_index % len(self.tenants)]
            other = self.tenants[(round_index + 1) % len(self.tenants)]
            key, column = targets[tenant].pop()
            steps.append(
                Step("correct", tenant, key, column=column.name, corrected_type=column.semantic_type)
            )
            read(tenant, key)
            for position in range(1, READS_PER_CORRECTION):
                reader = other if position % 2 else tenant
                read(reader, rng.choice(self._keys(reader)))
        return steps

    def _targets(self, tenant: str, count: int) -> list[tuple]:
        """The first *count* labelled columns of *tenant*'s tables, taken
        round-robin across the tables in column order."""
        labelled = [
            [(key, column) for column in self.table(key).columns if column.semantic_type]
            for key in self._keys(tenant)
        ]
        targets = []
        for depth in range(max(map(len, labelled))):
            targets.extend(columns[depth] for columns in labelled if depth < len(columns))
        return targets[:count]

    def _keys(self, tenant: str) -> list[str]:
        return sorted(key for key, (owner, _) in self.tables.items() if owner == tenant)

    def table(self, key: str) -> Table:
        return self.tables[key][1]


def plan_properties(steps: list[Step]) -> dict[str, float]:
    reads = sum(step.kind == "read" for step in steps)
    corrections = sum(step.kind == "correct" for step in steps)
    return {
        "reads": reads,
        "corrections": corrections,
        "reads_per_correction": reads / corrections if corrections else 0.0,
    }
