"""PR 10 coverage: the worker pool, the typed spec layer, the unified stats.

The acceptance gates pinned here:

* **Spec round-trip** — ``str(ServingSpec.parse(s)) == s`` for every backend
  spec string documented in docs/SERVING.md (scraped from the doc, so the
  table and the parser cannot drift) plus the pool forms.
* **Warm-routing affinity** — ≥90% affinity hit rate on a repeat-heavy
  tenant mix (the deployment shape the paper's store amortization needs).
* **Parity** — pool predictions bit-identical to calling the typer
  directly, including across a worker death.
* **Supervision drill** — SIGKILL a worker mid-flight: the pool detects the
  death, restarts the slot, re-dispatches the in-flight requests, and no
  request is lost (faultnet-style fault injection, process edition).
* **Pre-warm** — a restarted pool loads worker LRUs from the shared
  segment directory before serving.
* **Stats vocabulary** — every ``summary()`` shares the
  :func:`repro.serving.stats.render_stats` sections.
"""

from __future__ import annotations

import asyncio
import os
import re
import signal
from pathlib import Path

import pytest

from repro.core.errors import ConfigurationError, ServingError
from repro.serving import (
    AnnotationFrontend,
    AnnotationPool,
    AnnotationService,
    BackendSpec,
    FrontendSpec,
    PoolSpec,
    ServingSpec,
    StoreSpec,
    TransportSpec,
    resolve_backend,
    resolve_transport,
)
from repro.serving.pool import WarmthIndex
from repro.serving.profile_store import PersistentProfileStore
from repro.serving.stats import render_stats

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Every spec form the serving layer documents.  The scrape test below
#: proves docs/SERVING.md stays inside this grammar; this literal list keeps
#: the round-trip gate meaningful even if the doc's phrasing changes.
DOCUMENTED_SPECS = [
    "serial",
    "multiprocess",
    "multiprocess:8",
    "multiprocess+pickle",
    "multiprocess:8+tcp://worker-a:7071,worker-b:7071",
    "multiprocess:8+tcp",
    "pool:4",
    "pool:4@multiprocess:2",
]

#: Canonical spec-string shapes as they appear in inline code spans in the
#: serving doc.  Matches full tokens only, so prose words that merely start
#: with a backend name ("serialization") never trip the gate.
_CANONICAL_SPEC = re.compile(
    r"^(?:pool:\d+(?:@\S+)?|(?:serial|multiprocess)(?:[:+]\S+)?)$"
)


def _comparable(predictions):
    """Everything except wall-clock timings (bit-exact float comparison)."""
    return [(p.table_name, p.step_trace, p.columns) for p in predictions]


@pytest.fixture()
def tables(eval_corpus):
    return [table.copy() for table in eval_corpus.tables[:6]]


# ------------------------------------------------------------ spec round-trip
class TestServingSpec:
    def test_round_trips_every_documented_spec_string(self):
        for spec_string in DOCUMENTED_SPECS:
            spec = ServingSpec.parse(spec_string)
            assert str(spec) == spec_string

    def test_round_trips_every_spec_string_in_the_serving_doc(self):
        """Scrape docs/SERVING.md so the doc and the parser cannot drift."""
        text = (REPO_ROOT / "docs" / "SERVING.md").read_text(encoding="utf-8")
        found = set()
        for match in re.finditer(r"`\"?([^`\s]+?)\"?`", text):
            candidate = match.group(1)
            if not _CANONICAL_SPEC.match(candidate):
                continue
            try:
                spec = ServingSpec.parse(candidate)
            except ConfigurationError:
                continue  # a grammar placeholder like `multiprocess:N`
            assert str(spec) == candidate, candidate
            found.add(candidate)
        # The scrape actually saw the documented tables, not an empty page.
        assert {"serial", "multiprocess:8+tcp", "pool:4"} <= found

    def test_component_parsers(self):
        backend = BackendSpec.parse("multiprocess:4+tcp://h:7071")
        assert backend.workers == 4
        assert backend.transport == TransportSpec(name="tcp", peers=(("h", 7071),))
        assert str(backend) == "multiprocess:4+tcp://h:7071"
        assert str(PoolSpec.parse("pool:3")) == "pool:3"
        assert str(PoolSpec.parse("pool")) == "pool:2"  # default worker count
        assert StoreSpec.parse("memory:128").max_columns == 128
        store = StoreSpec.parse("disk:/var/lib/repro:64")
        assert store.directory == "/var/lib/repro" and store.max_columns == 64
        assert str(store) == "disk:/var/lib/repro:64"

    def test_invalid_specs_raise_configuration_error(self):
        for bad in (
            "",
            "warp",
            "serial+pickle",
            "multiprocess:x",
            "pool:0",
            "pool:2@",
            "threaded:2",
            "multiprocess+shm",
            "pool:2@multiprocess:2+shm",
        ):
            with pytest.raises(ConfigurationError):
                ServingSpec.parse(bad)
        with pytest.raises(ConfigurationError):
            StoreSpec.parse("tape:/dev/nst0")
        with pytest.raises(ConfigurationError):
            TransportSpec.parse("tcp://missing-port")

    def test_typed_specs_resolve_like_their_strings(self):
        assert ServingSpec.parse("multiprocess:2").resolve_backend().name == "multiprocess"
        assert resolve_backend(BackendSpec.parse("multiprocess:2")).max_workers == 2
        assert resolve_backend(ServingSpec.parse("serial")).name == "serial"
        assert resolve_transport(TransportSpec.parse("pickle")).name == "pickle"
        assert resolve_transport(TransportSpec.parse("tcp://h:7071")).peers == [("h", 7071)]

    def test_frontend_spec_builds_a_validated_config(self):
        config = FrontendSpec(tenant_rate=None, default_deadline=None).to_config()
        assert config.tenant_rate is None
        with pytest.raises(ConfigurationError):
            FrontendSpec(tenant_burst=-1.0).to_config()

    def test_service_accepts_a_typed_backend_spec(self, pretrained_typer):
        service = AnnotationService(pretrained_typer, backend=BackendSpec.parse("serial"))
        assert service.summary()["backend"] == "serial"


# ------------------------------------------------------------------ the pool
class TestAnnotationPool:
    def test_parity_and_affinity_on_repeat_heavy_mix(self, pretrained_typer, tables):
        """Repeat tenants land warm ≥90% of the time, results bit-identical."""
        serial = _comparable([pretrained_typer.annotate(t) for t in tables])
        rounds = 12

        async def drive():
            async with AnnotationPool(pretrained_typer, 3) as pool:
                results = []
                for _ in range(rounds):
                    for table in tables:
                        results.append(await pool.annotate(table.copy()))
                return results, pool.stats

        results, stats = asyncio.run(drive())
        assert _comparable(results) == serial * rounds
        # First sight of each table is a miss; every repeat must stick.
        assert stats.affinity_hit_rate >= 0.9, stats.to_dict()
        assert stats.completed_total == len(tables) * rounds
        assert stats.errors_total == 0

    def test_routing_is_sticky_for_a_repeated_table(self, pretrained_typer, tables):
        async def drive():
            async with AnnotationPool(pretrained_typer, PoolSpec(workers=3)) as pool:
                await pool.annotate(tables[0].copy())
                first = {
                    slot: info["warm_prefixes"]
                    for slot, info in pool.summary()["pool"]["per_worker"].items()
                }
                for _ in range(4):
                    await pool.annotate(tables[0].copy())
                second = {
                    slot: info["warm_prefixes"]
                    for slot, info in pool.summary()["pool"]["per_worker"].items()
                }
                return first, second

        first, second = asyncio.run(drive())
        # All of the table's prefixes stay on the worker that first saw it.
        assert first == second

    def test_sigkill_worker_redispatches_in_flight_requests(self, pretrained_typer, tables):
        """The supervision drill: kill -9 a worker, lose zero requests."""
        serial = _comparable([pretrained_typer.annotate(t) for t in tables])

        async def drive():
            async with AnnotationPool(
                pretrained_typer, PoolSpec(workers=2, heartbeat_interval=0.05)
            ) as pool:
                futures = [
                    asyncio.ensure_future(pool.annotate(t.copy())) for t in tables
                ]
                await asyncio.sleep(0.01)  # requests are now dispatched
                victim = pool._workers[0]
                os.kill(victim.process.pid, signal.SIGKILL)
                results = await asyncio.gather(*futures)
                follow_up = await pool.annotate(tables[0].copy())
                return results, follow_up, pool.stats

        results, follow_up, stats = asyncio.run(drive())
        assert _comparable(results) == serial
        assert _comparable([follow_up]) == serial[:1]
        assert stats.worker_deaths >= 1
        assert stats.restarts >= 1
        assert stats.redispatches >= 1
        assert stats.errors_total == 0

    def test_workers_prewarm_from_shared_segments(self, pretrained_typer, tables, tmp_path):
        """A pool restarted over a warm directory serves from pre-warmed LRUs."""

        async def first_life():
            async with AnnotationPool(pretrained_typer, 2, directory=tmp_path) as pool:
                for table in tables:
                    await pool.annotate(table.copy())

        async def second_life():
            async with AnnotationPool(
                pretrained_typer,
                PoolSpec(workers=2, heartbeat_interval=0.05),
                directory=tmp_path,
            ) as pool:
                await asyncio.sleep(0.3)  # a heartbeat pong carries store stats
                return pool.summary()["pool"]["per_worker"]

        asyncio.run(first_life())
        assert any(tmp_path.glob("segment-*.seg")), "first life persisted nothing"
        per_worker = asyncio.run(second_life())
        prewarmed = [
            info["store"]["prewarmed_entries"]
            for info in per_worker.values()
            if info.get("store") is not None
        ]
        assert prewarmed and all(count > 0 for count in prewarmed), per_worker

    def test_round_robin_routing_is_blind(self, pretrained_typer, tables):
        async def drive():
            spec = PoolSpec(workers=2, routing="round-robin")
            async with AnnotationPool(pretrained_typer, spec) as pool:
                for _ in range(5):
                    await pool.annotate(tables[0].copy())
                return pool.stats

        stats = asyncio.run(drive())
        # Alternating slots: the repeats keep landing on the cold worker;
        # warm routing in the same scenario misses exactly once.
        assert stats.affinity_misses >= 2

    def test_spec_forms_and_rejections(self, pretrained_typer):
        pool = AnnotationPool(pretrained_typer, "pool:3")
        assert pool.pool_spec.workers == 3
        pool = AnnotationPool(pretrained_typer, ServingSpec.parse("pool:2@multiprocess:2"))
        assert str(pool.spec) == "pool:2@multiprocess:2"
        pool = AnnotationPool(pretrained_typer, PoolSpec(workers=1))
        assert pool.pool_spec.workers == 1
        with pytest.raises(ConfigurationError):
            AnnotationPool(pretrained_typer, "multiprocess:4")  # no pool section
        with pytest.raises(ConfigurationError):
            AnnotationPool(pretrained_typer, 0)
        with pytest.raises(ConfigurationError):
            AnnotationPool(pretrained_typer, 2, slo=object())

    def test_rejects_requests_before_start_and_after_shutdown(
        self, pretrained_typer, tables
    ):
        async def drive():
            pool = AnnotationPool(pretrained_typer, 2)
            with pytest.raises(ServingError):
                await pool.annotate(tables[0])
            await pool.start()
            try:
                await pool.annotate(tables[0].copy())
            finally:
                await pool.shutdown()
            with pytest.raises(ServingError):
                await pool.annotate(tables[0])
            return pool.stats

        stats = asyncio.run(drive())
        assert stats.rejected_total == 2
        assert stats.completed_total == 1


# ------------------------------------------------------------- frontend mode
class TestFrontendPoolMode:
    def test_frontend_drives_a_pool(self, pretrained_typer, tables):
        serial = _comparable([pretrained_typer.annotate(tables[0])])

        async def drive():
            pool = AnnotationPool(pretrained_typer, 2)
            frontend = AnnotationFrontend(
                pool=pool, config=FrontendSpec(tenant_rate=None, default_deadline=None)
            )
            async with frontend:
                prediction = await frontend.submit(tables[0].copy())
                report = frontend.summary()
            return prediction, report

        prediction, report = asyncio.run(drive())
        assert _comparable([prediction]) == serial
        assert report["frontend"]["admitted"] == 1
        assert report["pool"]["completed_total"] == 1
        assert report["service"]["pool"] is report["pool"]

    def test_frontend_requires_exactly_one_of_service_or_pool(self, pretrained_typer):
        with pytest.raises(ConfigurationError):
            AnnotationFrontend()
        service = AnnotationService(pretrained_typer)
        pool = AnnotationPool(pretrained_typer, 2)
        with pytest.raises(ConfigurationError):
            AnnotationFrontend(service=service, pool=pool)


# ------------------------------------------------------------ stats contract
class TestUnifiedStats:
    def test_summaries_share_the_render_stats_sections(self, pretrained_typer, tables):
        async def drive():
            service = AnnotationService(pretrained_typer)
            async with service:
                await service.annotate(tables[0].copy())
            return service.summary()

        report = asyncio.run(drive())
        typer_report = pretrained_typer.summary()
        assert "service" in report and "stats" not in report
        assert "columnar_kernels" in report
        assert "columnar_kernels" in typer_report
        assert "timings" in typer_report

    def test_render_stats_composes_caller_sections(self, pretrained_typer):
        report = render_stats(typer=pretrained_typer)
        assert "columnar_kernels" in report and "timings" in report
        assert "service" not in report and "pool" not in report


# ------------------------------------------------------------- warmth index
class TestWarmthIndex:
    def test_dispatch_overlay_feeds_routing(self, tmp_path):
        index = WarmthIndex(tmp_path, prefix_len=4)
        index.note_dispatch(1, ("abcd", "ef01"))
        assert index.warmth(("abcd",)) == {1: 1}
        assert index.warmth(("abcd", "ef01", "9999")) == {1: 2}
        assert index.per_worker_counts() == {1: 2}
        assert index.warm_prefixes == 2

    def test_tail_attributes_registered_journals_only(self, tmp_path):
        store = PersistentProfileStore(tmp_path, flush_interval=0)
        try:
            key = "ab" * 16
            with store.activated():
                store.namespace(key)["profile"] = {"n": 1}
                store.flush()
            unregistered = WarmthIndex(tmp_path, prefix_len=8)
            unregistered.tail()
            assert unregistered.warmth((key[:8],)) == {}  # pid not registered
            registered = WarmthIndex(tmp_path, prefix_len=8)
            registered.register_pid(os.getpid(), 0)
            registered.tail()
            assert registered.warmth((key[:8],)) == {0: 1}
        finally:
            store.close()
