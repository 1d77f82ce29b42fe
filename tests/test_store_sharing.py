"""Fork safety and live cross-process sharing of the persistent store.

Two contracts are pinned here, both extensions of the serving layer's parity
rule:

* **Fork safety** — a child forked at *any* moment (including while the
  write-behind flusher holds the store lock, the classic inherited-RLock
  deadlock) gets a usable store: fresh lock, no dead flusher thread, a
  per-pid segment writer of its own.
* **Live sharing** — a second live store (same directory, another process or
  another instance) serves a sibling's freshly flushed entries through the
  sidecar index journals **without any restart**, bit-identically, at a
  ≥ 90% warm rate; every failure mode (corrupt shared record, a sibling's
  segment compacted away, torn journal tails) degrades to a recomputing
  miss, never to a crash or a wrong prediction.

The multiprocess cases run under ``multiprocess:2``-style forked workers even
on the 1-CPU CI container — parity and fork safety, not speedup, are the
assertions there (the canonical caveat in ``docs/SERVING.md``).
"""

from __future__ import annotations

import asyncio
import multiprocessing
import os
import threading
import time

import pytest

from repro.core.table import Column, get_active_profile_store
from repro.serving import AnnotationService, PersistentProfileStore

_HAS_FORK = "fork" in multiprocessing.get_all_start_methods()
fork_only = pytest.mark.skipif(not _HAS_FORK, reason="requires the fork start method")


def _comparable(predictions):
    """Everything except wall-clock timings (bit-exact float comparison)."""
    return [(p.table_name, p.step_trace, p.columns) for p in predictions]


def _fresh(tables):
    """Copies with cold per-column caches, as a new request would carry."""
    return [table.copy() for table in tables]


def _segments(directory):
    return sorted(directory.glob("segment-*.seg"))


def _journals(directory):
    return sorted(directory.glob("index-*.idx"))


def _dead_pid() -> int:
    """A pid guaranteed dead: fork a child that exits immediately, reap it."""
    ctx = multiprocessing.get_context("fork")
    process = ctx.Process(target=os._exit, args=(0,))
    process.start()
    process.join()
    assert process.pid is not None
    return process.pid


@pytest.fixture(autouse=True)
def _no_leaked_store():
    yield
    assert get_active_profile_store() is None


@pytest.fixture()
def shared_tables(eval_corpus, fig3_table):
    return [table.copy() for table in eval_corpus] + [fig3_table.copy()]


# ---------------------------------------------------------------- live sharing
class TestLiveSharing:
    def test_second_live_store_serves_siblings_flushed_keys(
        self, pretrained_typer, shared_tables, tmp_path
    ):
        """The PR's acceptance bar, in-process form: a store opened *before*
        a sibling flushes (so recovery can have seen nothing) serves ≥ 90% of
        the sibling's flushed keys warm via the sidecar index, bit-identically,
        without any reopen."""
        baseline = _comparable(pretrained_typer.annotate_corpus(_fresh(shared_tables)))

        reader = PersistentProfileStore(tmp_path, flush_interval=0)
        writer = PersistentProfileStore(tmp_path, flush_interval=0)
        with writer.activated():
            first_run = pretrained_typer.annotate_corpus(_fresh(shared_tables))
            writer.flush()
        assert _comparable(first_run) == baseline
        flushed = writer.disk_entries
        assert flushed > 0
        assert reader.recovered_entries == 0  # nothing existed at its open

        with reader.activated():
            second_run = pretrained_typer.annotate_corpus(_fresh(shared_tables))
            summary = pretrained_typer.summary()
        assert _comparable(second_run) == baseline
        assert reader.shared_hits >= 0.9 * flushed, reader.stats()
        assert reader.hit_rate >= 0.9, reader.stats()
        assert reader.disk_hits == 0  # everything warm came from the sibling
        # The cross-process counter is observable through SigmaTyper.summary().
        assert summary["profile_store"]["shared_hits"] == reader.shared_hits
        assert summary["profile_store"]["shared_entries"] == reader.shared_entries
        writer.close()
        reader.close()

    @fork_only
    def test_forked_sibling_process_shares_flushed_entries_live(
        self, pretrained_typer, shared_tables, tmp_path
    ):
        """The PR's acceptance bar, cross-process form: a forked child
        annotates and flushes; the parent — whose store has been open the
        whole time — serves ≥ 90% of the child's flushed keys warm via the
        sidecar index with bit-identical predictions, no restart."""
        ctx = multiprocessing.get_context("fork")
        baseline = _comparable(pretrained_typer.annotate_corpus(_fresh(shared_tables)))
        store = PersistentProfileStore(tmp_path, flush_interval=0)
        queue = ctx.Queue()

        def sibling_main():
            try:
                with store.activated():
                    predictions = pretrained_typer.annotate_corpus(_fresh(shared_tables))
                    store.flush()
                queue.put(
                    (
                        "ok",
                        _comparable(predictions) == baseline,
                        store.disk_entries,
                        store._writer_pid == os.getpid(),  # noqa: SLF001
                    )
                )
            except Exception as exc:  # noqa: BLE001
                queue.put(("error", repr(exc), 0, False))

        process = ctx.Process(target=sibling_main)
        process.start()
        status, sibling_parity, sibling_flushed, writer_pinned = queue.get(timeout=300)
        process.join(timeout=60)
        assert status == "ok", status
        assert process.exitcode == 0
        assert sibling_parity, "the forked sibling's predictions diverged"
        assert sibling_flushed > 0
        assert writer_pinned, "sibling flushed into a segment it does not own"

        with store.activated():
            served = pretrained_typer.annotate_corpus(_fresh(shared_tables))
        assert _comparable(served) == baseline
        assert store.shared_hits >= 0.9 * sibling_flushed, store.stats()
        assert store.hit_rate >= 0.9, store.stats()
        store.close()

    def test_shared_entry_is_visible_via_contains(self, tmp_path):
        reader = PersistentProfileStore(tmp_path, flush_interval=0)
        writer = PersistentProfileStore(tmp_path, flush_interval=0)
        column = Column("city", ["Berlin", "Paris"])
        with writer.activated():
            column.value_counts()
            writer.flush()
        with reader.activated():
            # A probe of any missing key tails the sibling journals.
            Column("unrelated", ["zzz"]).value_counts()
            assert column.content_hash() in reader
            assert Column("city", ["Berlin", "Paris"]).value_counts() == {
                "Berlin": 1,
                "Paris": 1,
            }
        assert reader.shared_hits == 1
        writer.close()
        reader.close()

    def test_sibling_tombstones_propagate_on_tail(self, tmp_path):
        reader = PersistentProfileStore(tmp_path, flush_interval=0)
        writer = PersistentProfileStore(tmp_path, flush_interval=0)
        with writer.activated():
            stale = Column("stale", ["x", "y"])
            stale.value_counts()
            writer.flush()
            stale_hash = stale.content_hash()
            keep = Column("keep", ["k"])
            keep.value_counts()
            writer.flush()
            stale.values.append("z")
            stale.invalidate_cache()  # appends a tombstone to segment + journal
        with reader.activated():
            assert Column("keep", ["k"]).value_counts() == {"k": 1}
        assert reader.shared_hits == 1
        assert stale_hash not in reader  # the tombstone was tailed too
        writer.close()
        reader.close()

    def test_tailed_tombstone_drops_the_key_from_every_local_tier(self, tmp_path):
        """A sibling's tombstone must evict our own on-disk record and LRU
        entry too, so our next compaction cannot resurrect the key."""
        first = PersistentProfileStore(tmp_path, flush_interval=0)
        column = Column("stale", ["x", "y"])
        with first.activated():
            column.value_counts()
            first.flush()
        stale_hash = column.content_hash()
        # A sibling that recovered the record tombstones it.
        second = PersistentProfileStore(tmp_path, flush_interval=0)
        assert second.invalidate(stale_hash) is True
        assert second.tombstones == 1
        # The writer tails the tombstone on its next miss and drops its own
        # in-memory and on-disk copies.
        with first.activated():
            Column("probe", ["zzz"]).value_counts()
        assert stale_hash not in first
        assert first.disk_entries == 0
        first.compact()
        reopened_after = PersistentProfileStore(tmp_path, flush_interval=0)
        assert stale_hash not in reopened_after  # compaction did not resurrect
        first.close()
        second.close()
        reopened_after.close()

    def test_corrupt_shared_record_degrades_to_a_miss(self, tmp_path):
        """Satellite contract: a damaged sibling record is a recomputing miss
        (crc-checked read, counter bumped), never a crash or a wrong value."""
        reader = PersistentProfileStore(tmp_path, flush_interval=0)
        writer = PersistentProfileStore(tmp_path, flush_interval=0)
        with writer.activated():
            Column("city", ["Berlin", "Paris"]).value_counts()
            writer.flush()
        (segment,) = _segments(tmp_path)
        data = bytearray(segment.read_bytes())
        data[-3] ^= 0xFF  # flip a byte inside the record's payload
        segment.write_bytes(bytes(data))

        with reader.activated():
            assert Column("city", ["Berlin", "Paris"]).value_counts() == {
                "Berlin": 1,
                "Paris": 1,
            }
        assert reader.shared_hits == 0
        assert reader.corrupt_records_skipped >= 1
        assert reader.misses >= 1
        writer.close()
        reader.close()

    def test_stale_shared_pointer_relocates_after_sibling_compaction(self, tmp_path):
        """A sibling that compacted (and whose old segment is gone) re-announces
        every record in its journal; a reader holding a stale pointer re-tails
        and serves the record from its new home."""
        reader = PersistentProfileStore(tmp_path, flush_interval=0)
        writer = PersistentProfileStore(tmp_path, flush_interval=0)
        column = Column("keep", ["a", "b"])
        with writer.activated():
            column.non_null_values()
            writer.flush()
            column.value_counts()
            writer.flush()  # superseding record -> dead bytes to compact
        with reader.activated():
            # Tail the journal (via any miss) so the reader learns the
            # record's *pre-compaction* location.
            Column("probe", ["zzz"]).value_counts()
        assert column.content_hash() in reader

        old_segments = set(_segments(tmp_path))
        writer.compact()
        # Deferral keeps the old segments for the live reader; delete them
        # anyway to simulate a sibling that could not defer (another host, an
        # older store version) — the reader must relocate, not crash.
        new_segments = set(_segments(tmp_path)) - old_segments
        assert new_segments
        for path in old_segments:
            path.unlink(missing_ok=True)

        with reader.activated():
            assert Column("keep", ["a", "b"]).value_counts() == {"a": 1, "b": 1}
        assert reader.shared_hits == 1
        assert reader.corrupt_records_skipped >= 1  # the stale read degraded
        writer.close()
        reader.close()

    def test_sharing_can_be_disabled(self, tmp_path):
        writer = PersistentProfileStore(
            tmp_path, flush_interval=0, share_across_processes=False
        )
        with writer.activated():
            Column("solo", ["1"]).value_counts()
            writer.flush()
        assert not _journals(tmp_path)
        reader = PersistentProfileStore(
            tmp_path, flush_interval=0, share_across_processes=False
        )
        assert reader.recovered_entries == 1  # restart-style recovery still works
        assert reader.stats()["share_across_processes"] is False
        writer.close()
        reader.close()


# ------------------------------------------------------- compaction vs siblings
class TestCompactionVsLiveSiblings:
    def test_compaction_defers_retiring_segments_while_a_sibling_is_live(self, tmp_path):
        ours = PersistentProfileStore(tmp_path, flush_interval=0)
        column = Column("ours", ["a", "b"])
        with ours.activated():
            column.non_null_values()
            ours.flush()
            column.value_counts()
            ours.flush()  # superseding record -> dead bytes
        old_segments = set(_segments(tmp_path))
        sibling = PersistentProfileStore(tmp_path, flush_interval=0)  # live sibling

        ours.compact()
        assert ours.stats()["deferred_segments"] >= 1
        for path in old_segments:
            assert path.exists(), "compaction retired a segment a live sibling indexes"
        # The sibling still serves from the deferred segment it recovered.
        with sibling.activated():
            assert Column("ours", ["a", "b"]).value_counts() == {"a": 1, "b": 1}
        assert sibling.disk_hits == 1
        sibling.close()
        ours.close()

    def test_clean_close_releases_liveness(self, tmp_path):
        """A cleanly closed store deletes its journal, so it stops counting
        as a live sibling — compaction must not defer forever for it."""
        ours = PersistentProfileStore(tmp_path, flush_interval=0)
        column = Column("ours", ["a", "b"])
        with ours.activated():
            column.non_null_values()
            ours.flush()
            column.value_counts()
            ours.flush()
        old_segments = set(_segments(tmp_path))
        sibling = PersistentProfileStore(tmp_path, flush_interval=0)
        sibling.close()
        assert sibling._journal_path is None  # noqa: SLF001

        ours.compact()
        assert ours.stats()["deferred_segments"] == 0
        for path in old_segments:
            assert not path.exists(), "closed sibling still deferred compaction"
        ours.close()

    @fork_only
    def test_deferred_segments_retire_once_no_sibling_is_live(self, tmp_path):
        ours = PersistentProfileStore(tmp_path, flush_interval=0)
        column = Column("ours", ["a", "b"])
        with ours.activated():
            column.non_null_values()
            ours.flush()
            column.value_counts()
            ours.flush()
        old_segments = set(_segments(tmp_path))
        sibling = PersistentProfileStore(tmp_path, flush_interval=0)
        sibling_journal = sibling._journal_path  # noqa: SLF001

        ours.compact()
        assert ours.stats()["deferred_segments"] >= 1
        # Simulate the sibling being SIGKILLed (a clean close() deletes its
        # journal; a killed process leaves it behind): re-home the journal
        # under a pid that is no longer running.
        assert sibling_journal is not None
        dead_journal = tmp_path / f"index-{_dead_pid()}-0.idx"
        sibling_journal.rename(dead_journal)

        ours.compact()
        assert ours.stats()["deferred_segments"] == 0
        for path in old_segments:
            assert not path.exists(), "deferred segment survived a sibling-free compaction"
        assert not dead_journal.exists(), "dead sibling journal was not collected"
        with ours.activated():
            assert Column("ours", ["a", "b"]).value_counts() == {"a": 1, "b": 1}
        sibling.close()  # tolerates its journal having been re-homed away
        ours.close()


# ----------------------------------------------------------------- fork safety
@fork_only
class TestForkSafety:
    def test_fork_while_the_store_lock_is_held(self, tmp_path):
        """Deterministic reconstruction of the deadlock: fork while another
        thread (standing in for the flusher) holds the store lock.  The child
        must serve namespaces and flush — never block on the inherited lock."""
        ctx = multiprocessing.get_context("fork")
        store = PersistentProfileStore(tmp_path, flush_interval=0)
        queue = ctx.Queue()

        def child_main():
            try:
                with store.activated():
                    counts = Column("child", ["a", "b"]).value_counts()
                store.flush()
                queue.put(("ok", counts == {"a": 1, "b": 1}))
            except Exception as exc:  # noqa: BLE001 - reported to the parent
                queue.put(("error", repr(exc)))

        entered = threading.Event()
        release = threading.Event()

        def holder():
            with store._lock:  # noqa: SLF001
                entered.set()
                release.wait(timeout=30)

        thread = threading.Thread(target=holder)
        thread.start()
        assert entered.wait(timeout=5)
        try:
            process = ctx.Process(target=child_main)
            process.start()
            process.join(timeout=60)
            if process.is_alive():
                process.terminate()
                pytest.fail("forked child deadlocked on the inherited store lock")
            assert process.exitcode == 0
            status, counts_ok = queue.get(timeout=10)
        finally:
            release.set()
            thread.join(timeout=10)
        assert status == "ok"
        assert counts_ok
        store.close()

    def test_fork_under_sustained_flush_load(self, tmp_path):
        """The regression the satellite demands: fork repeatedly while writer
        threads keep the write-behind flusher busy; every child must come up,
        serve a namespace, and flush to a segment of its *own* pid."""
        ctx = multiprocessing.get_context("fork")
        store = PersistentProfileStore(tmp_path, max_columns=64, flush_interval=0.001)
        stop = threading.Event()
        errors: list[Exception] = []

        def hammer(worker_id: int) -> None:
            i = 0
            try:
                while not stop.is_set():
                    column = Column(f"w{worker_id}-{i % 32}", [str(worker_id), str(i), "x"])
                    column.value_counts()
                    column.text_values()
                    i += 1
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        def child_main(queue, round_id: int) -> None:
            try:
                # A round-unique column: a repeated one would be served warm
                # from an earlier child's journal (live sharing!) and leave
                # this child with nothing to flush.
                counts = Column(f"forked-{round_id}", ["p", "q"]).value_counts()
                store.flush()
                queue.put(
                    (
                        "ok",
                        counts == {"p": 1, "q": 1},
                        store._writer_pid == os.getpid(),  # noqa: SLF001
                    )
                )
            except Exception as exc:  # noqa: BLE001
                queue.put(("error", repr(exc), False))

        with store.activated():
            threads = [threading.Thread(target=hammer, args=(w,)) for w in range(3)]
            for thread in threads:
                thread.start()
            try:
                for round_id in range(3):
                    queue = ctx.Queue()
                    process = ctx.Process(target=child_main, args=(queue, round_id))
                    process.start()
                    process.join(timeout=60)
                    if process.is_alive():
                        process.terminate()
                        pytest.fail("forked child deadlocked under flush load")
                    assert process.exitcode == 0
                    status, counts_ok, writer_pinned = queue.get(timeout=10)
                    assert status == "ok", status
                    assert counts_ok
                    assert writer_pinned, "child flushed into a segment it does not own"
            finally:
                stop.set()
                for thread in threads:
                    thread.join(timeout=10)
        assert not errors
        store.close()

    def test_forked_child_restarts_the_flusher_and_parent_tails_it(self, tmp_path):
        """Satellite contract: the child drops the parent's dead flusher and
        cleanly restarts its own (fresh wakeup event, per-pid segment); the
        parent then serves the child's flushed entry live via the journal."""
        ctx = multiprocessing.get_context("fork")
        store = PersistentProfileStore(tmp_path, flush_interval=0.005)
        with store.activated():
            Column("parent", ["1", "2"]).value_counts()  # starts the parent flusher
        assert store._flusher is not None and store._flusher.is_alive()  # noqa: SLF001
        queue = ctx.Queue()
        child_column = Column("child", ["3", "4"])
        child_hash = child_column.content_hash()

        def child_main():
            try:
                flusher_cleared = store._flusher is None  # noqa: SLF001
                wakeup_clear = not store._flusher_wakeup.is_set()  # noqa: SLF001
                with store.activated():
                    Column("child", ["3", "4"]).value_counts()  # reschedules it
                deadline = time.monotonic() + 15
                flushed = False
                while time.monotonic() < deadline:
                    if child_hash in store._index:  # noqa: SLF001
                        flushed = True
                        break
                    time.sleep(0.01)
                restarted = (
                    store._flusher is not None and store._flusher.is_alive()  # noqa: SLF001
                )
                queue.put(("ok", flusher_cleared, wakeup_clear, restarted, flushed))
            except Exception as exc:  # noqa: BLE001
                queue.put(("error", repr(exc), False, False, False))

        process = ctx.Process(target=child_main)
        process.start()
        process.join(timeout=60)
        if process.is_alive():
            process.terminate()
            pytest.fail("forked child hung while restarting the flusher")
        status, flusher_cleared, wakeup_clear, restarted, flushed = queue.get(timeout=10)
        assert status == "ok"
        assert flusher_cleared, "child inherited the parent's dead flusher thread"
        assert wakeup_clear, "child inherited a stale wakeup flag"
        assert restarted, "the child's flusher did not restart"
        assert flushed, "the child's write-behind flush never landed"
        # The parent's own flusher survived the fork.
        assert store._flusher is not None and store._flusher.is_alive()  # noqa: SLF001
        # Live sharing: the parent serves the child's flushed entry warm.
        with store.activated():
            assert Column("child", ["3", "4"]).value_counts() == {"3": 1, "4": 1}
        assert store.shared_hits >= 1, store.stats()
        store.close()

    def test_fork_child_replaces_both_module_locks(self):
        """Regression (repro-lint RL002): the after-fork-in-child handler must
        replace BOTH module-level locks — the fork-state lock the before
        handler holds across the fork, and the install lock another parent
        thread could be holding inside ``install_fork_handlers()`` at fork
        time.  An inherited held lock wedges the child forever."""
        import weakref

        from repro.serving import profile_store as ps

        saved_registry = ps._FORK_REGISTRY  # noqa: SLF001
        state_before, install_before = ps._FORK_STATE_LOCK, ps._INSTALL_LOCK  # noqa: SLF001
        ps._FORK_REGISTRY = weakref.WeakSet()  # noqa: SLF001 - no live stores in the drill
        try:
            ps._fork_before()  # noqa: SLF001 - parent's handler: holds the state lock
            assert ps._FORK_STATE_LOCK.locked()  # noqa: SLF001
            ps._fork_after_in_child()  # noqa: SLF001
            assert ps._FORK_STATE_LOCK is not state_before  # noqa: SLF001
            assert ps._INSTALL_LOCK is not install_before  # noqa: SLF001
            # Both fresh locks are immediately usable in the "child".
            for lock in (ps._FORK_STATE_LOCK, ps._INSTALL_LOCK):  # noqa: SLF001
                acquired = lock.acquire(timeout=1)
                try:
                    assert acquired, "fresh lock arrived held"
                finally:
                    lock.release()
        finally:
            ps._FORK_REGISTRY = saved_registry  # noqa: SLF001
            if state_before.locked():
                state_before.release()

    def test_multiprocess_two_workers_parity_with_persistent_store(
        self, pretrained_typer, shared_tables, tmp_path
    ):
        """The CI fork-safety smoke: bulk annotation under ``multiprocess:2``
        with an active persistent store is bit-identical to serial — on the
        1-CPU container parity, not speedup, is the assertion (canonical
        caveat in docs/SERVING.md)."""
        baseline = _comparable(pretrained_typer.annotate_corpus(_fresh(shared_tables)))
        store = PersistentProfileStore(tmp_path, flush_interval=0.002)
        with store.activated():
            result = pretrained_typer.annotate_corpus(
                _fresh(shared_tables), backend="multiprocess:2"
            )
        store.close()
        assert _comparable(result) == baseline


# ------------------------------------------------------------- locked counters
class TestLockedStatisticsReads:
    def test_stats_len_contains_never_race_clear_or_compaction(self, tmp_path):
        """Satellite contract: ``len``/``in``/``stats()`` take the store lock,
        so concurrent clears, fills, flushes, and evictions can never corrupt
        a statistics snapshot (or crash a reader mid-resize)."""
        store = PersistentProfileStore(tmp_path, max_columns=32, flush_interval=0)
        errors: list[Exception] = []
        stop = threading.Event()

        def reader() -> None:
            probe = "00" * 16
            try:
                while not stop.is_set():
                    snapshot = store.stats()
                    assert snapshot["entries"] >= 0
                    len(store)
                    probe in store
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        def filler() -> None:
            i = 0
            try:
                while not stop.is_set():
                    Column(f"r{i % 64}", [str(i), "x"]).value_counts()
                    i += 1
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        with store.activated():
            threads = [threading.Thread(target=reader) for _ in range(2)]
            threads.append(threading.Thread(target=filler))
            for thread in threads:
                thread.start()
            for _ in range(25):
                store.flush()
                store.clear()
            stop.set()
            for thread in threads:
                thread.join(timeout=10)
        assert not errors
        store.close()

    def test_stats_report_tracked_segment_files_without_globbing(self, tmp_path):
        store = PersistentProfileStore(tmp_path, flush_interval=0)
        with store.activated():
            Column("a", ["1"]).value_counts()
            store.flush()
        assert store.stats()["segment_files"] == len(_segments(tmp_path)) == 1
        store.close()


# ------------------------------------------------------------ service exposure
class TestServiceExposure:
    def test_service_summary_exposes_store_and_shared_hits(
        self, pretrained_typer, fig3_table, tmp_path
    ):
        store = PersistentProfileStore(tmp_path, flush_interval=0)

        async def drive():
            async with AnnotationService(pretrained_typer, max_batch_delay=0.0) as service:
                await service.annotate(fig3_table.copy())
                return service.summary()

        with store.activated():
            summary = asyncio.run(drive())
        store.close()
        assert summary["profile_store"]["shared_hits"] == store.shared_hits
        assert summary["profile_store"]["share_across_processes"] is True
        assert "store_shared_hits" not in summary["service"]
