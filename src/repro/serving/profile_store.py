"""Bounded, content-hash-keyed stores for derived column state.

PR 1 memoized every derived view of a column (non-null/text/numeric values,
value counts, seeded samples, ``profile_column`` statistics, and — through the
featurizer — the column-local feature vector) on the :class:`Column` object
itself.  That is ideal for batch jobs, but a long-running service wraps many
*short-lived* ``Column`` instances around recurring content: every request
deserialises fresh tables, so the caches die with them.

:class:`ProfileStore` lifts those memo namespaces off the column into a
process-wide LRU keyed by :meth:`Column.content_hash`
(header + cell values), so any two columns with identical content — across
tables, requests, and customers — share one namespace of derived state.
Derived state is a pure function of column content, which is what makes the
sharing safe: a warm entry is byte-for-byte what the cold computation would
have produced, so predictions are unchanged (pinned by
``tests/test_serving.py``).

:class:`PersistentProfileStore` layers an append-only **disk tier** under that
LRU, so warm state additionally survives process restarts and can be shared
by ``multiprocess:N`` workers.  Namespaces are pickled into segment files
keyed by the same content hashes, written behind the request path by a
background flusher, recovered tolerantly on open (torn or corrupt tails of a
segment are skipped, everything before them is served), and compacted when
superseded records accumulate.  The persistence layer never changes
predictions either: a disk-warm entry is the pickle round-trip of the exact
bytes the cold computation produces (pinned by
``tests/test_store_persistence.py`` and the E12 benchmark).

Two properties make the disk tier usable by *concurrently live* processes —
not just across restarts:

* **Fork safety.**  Every store registers process-wide ``os.register_at_fork``
  handlers (see :func:`install_fork_handlers`): the parent's store locks are
  briefly taken around the fork so the child snapshots consistent state, and
  the child re-initialises its lock, drops the parent's (dead) write-behind
  flusher thread and its wakeup event, and abandons the inherited segment
  writer so its first flush opens a segment of its own.  A forked
  ``multiprocess:N`` worker therefore inherits a store it can actually use.
* **Live cross-process sharing.**  Alongside its segments, every writer
  appends a tiny sidecar **index journal** (``index-<pid>-<uid>.idx``) naming
  each record it persists (key, segment file, offset, length, payload crc).
  A store whose LRU *and* own index miss tails its siblings' journals and
  serves the record straight out of the sibling's segment file — so a worker
  can serve another live worker's freshly flushed entries without a restart
  (counted in ``shared_hits``).  Shared reads are crc-checked and degrade to
  a recomputing miss on any damage; compaction defers deleting retired
  segments while a live sibling may still index them.

Install a store globally with :meth:`ProfileStore.activate` (a long-running
service does this once at startup) or temporarily with the
:meth:`ProfileStore.activated` context manager.  Sizing: one entry holds the
derived state of one distinct column (roughly the column's values again, plus
a ~200-float feature vector), so ``max_columns`` of a few thousand costs tens
of megabytes; size it to the working set of distinct columns you expect
between repeats, not to total traffic.  After retraining or refitting any
model component, :meth:`clear` the store — entries are keyed by content only
and would otherwise serve features from the old model (``clear`` on a
persistent store deletes its segment and journal files too).  See
``docs/SERVING.md`` for the operator-facing guide.
"""

from __future__ import annotations

import functools
import os
import pickle
import struct
import threading
import weakref
import zlib
from collections import OrderedDict
from contextlib import contextmanager
from itertools import count
from pathlib import Path
from typing import Iterator, NamedTuple

from repro.core.errors import ConfigurationError
from repro.core.table import get_active_profile_store, set_active_profile_store

__all__ = [
    "ProfileStore",
    "PersistentProfileStore",
    "install_fork_handlers",
    "JournalEntry",
    "journal_pid",
    "read_index_journal",
]


# ------------------------------------------------------------------ fork safety
#: Seconds the before-fork handler waits per store lock.  A lock that cannot
#: be taken in this window (a wedged writer, a pathological flush) does not
#: block the fork; the child then conservatively drops that store's memory
#: tier instead of inheriting a possibly half-mutated one.
_FORK_LOCK_TIMEOUT = 1.0

#: Every live store; at-fork handlers re-initialise each one in the child.
_FORK_REGISTRY: "weakref.WeakSet[ProfileStore]" = weakref.WeakSet()
#: Stores whose lock the before-fork handler managed to take (module state is
#: inherited by the child, which uses it to tell consistent snapshots apart).
_HELD_AT_FORK: list["ProfileStore"] = []
#: Serialises concurrent forks from different threads: held from the before
#: handler to the after-in-parent handler, so two simultaneous forks cannot
#: clobber each other's ``_HELD_AT_FORK`` bookkeeping (which would leave
#: store locks permanently acquired in the parent).
_FORK_STATE_LOCK = threading.Lock()
_INSTALL_LOCK = threading.Lock()
_FORK_HANDLERS_INSTALLED = False


def _holding_store_lock(method):
    """Take ``self._lock`` (re-entrantly) around *method*.

    The persistent store's helpers are reached with the caller already
    holding the RLock, so the extra acquire is free; decorating makes the
    counters-under-lock invariant (RL005) locally provable instead of a
    property of every call chain — and keeps it true if a new caller
    forgets the lock.
    """

    @functools.wraps(method)
    def wrapper(self, *args, **kwargs):
        with self._lock:
            return method(self, *args, **kwargs)

    return wrapper


def _fork_before() -> None:
    # repro-lint: disable=RL002 cross-handler ownership: released by _fork_after_in_parent / re-initialised by _fork_after_in_child
    _FORK_STATE_LOCK.acquire()
    del _HELD_AT_FORK[:]
    for store in list(_FORK_REGISTRY):
        try:
            # repro-lint: disable=RL002 cross-handler ownership: released by _fork_after_in_parent; the child replaces the lock outright
            if store._lock.acquire(timeout=_FORK_LOCK_TIMEOUT):
                _HELD_AT_FORK.append(store)
        except Exception:  # noqa: BLE001 - a fork must never fail on a cache
            pass


def _fork_after_in_parent() -> None:
    try:
        for store in _HELD_AT_FORK:
            try:
                store._lock.release()
            except Exception:  # noqa: BLE001
                pass
        del _HELD_AT_FORK[:]
    finally:
        try:
            _FORK_STATE_LOCK.release()
        except RuntimeError:  # pragma: no cover - handler ran without before
            pass


def _fork_after_in_child() -> None:
    global _FORK_STATE_LOCK, _INSTALL_LOCK
    held = set(map(id, _HELD_AT_FORK))
    del _HELD_AT_FORK[:]
    # The inherited fork-state lock is held (the parent's before handler took
    # it); replace it so the child's own future forks are not wedged.  The
    # install lock gets the same treatment: another parent thread could have
    # been inside install_fork_handlers() at fork time, and a child that
    # later constructs a store would wedge on the inherited held lock.
    _FORK_STATE_LOCK = threading.Lock()
    _INSTALL_LOCK = threading.Lock()
    for store in list(_FORK_REGISTRY):
        try:
            store._after_fork_in_child(consistent=id(store) in held)
        except Exception:  # noqa: BLE001
            pass


def install_fork_handlers() -> None:
    """Register the store at-fork handlers process-wide (idempotent).

    Called automatically by every :class:`ProfileStore` constructor and by
    :class:`~repro.serving.backends.MultiprocessBackend`, so forked workers
    always inherit usable stores: the parent's store locks are taken around
    the fork (bounded wait), and the child gets a fresh lock, no flusher
    thread, a fresh wakeup event, and no inherited file handles.  Without
    this, a child forked while the write-behind flusher holds the store lock
    deadlocks on its first ``namespace()`` call.
    """
    global _FORK_HANDLERS_INSTALLED
    if not hasattr(os, "register_at_fork"):  # pragma: no cover - non-POSIX
        return
    with _INSTALL_LOCK:
        if _FORK_HANDLERS_INSTALLED:
            return
        os.register_at_fork(
            before=_fork_before,
            after_in_parent=_fork_after_in_parent,
            after_in_child=_fork_after_in_child,
        )
        _FORK_HANDLERS_INSTALLED = True


class ProfileStore:
    """A bounded LRU of per-column derived-state namespaces.

    Thread-safe: the async service's executor threads hit one shared store
    concurrently.  Namespace *creation and eviction* are guarded
    by a lock; the namespaces themselves are plain dicts filled by
    :meth:`Column._memo` — concurrent fills of the same key recompute the same
    deterministic value, so last-write-wins is harmless.  The statistics
    readers (:meth:`stats`, ``len``, ``in``) take the same lock, so a snapshot
    can never race a concurrent :meth:`clear` or eviction sweep.

    Fork-safe: constructing any store installs process-wide at-fork handlers
    (:func:`install_fork_handlers`) that hand forked children a usable copy —
    fresh lock, consistent (or conservatively emptied) LRU.

    Subclasses can layer a second tier underneath by overriding the
    ``_load_fallback`` / ``_entry_evicted`` / ``_invalidate_tier`` /
    ``_clear_tier`` hooks (see :class:`PersistentProfileStore`); the hot-path
    behaviour of the plain in-memory store is unchanged.
    """

    def __init__(self, max_columns: int = 4096) -> None:
        if max_columns < 1:
            raise ConfigurationError("max_columns must be at least 1")
        self.max_columns = max_columns
        self._lock = threading.RLock()
        self._namespaces: OrderedDict[str, dict] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        install_fork_handlers()
        _FORK_REGISTRY.add(self)

    # ------------------------------------------------------------------ access
    def namespace(self, content_hash: str) -> dict:
        """The shared derived-state dict for a column content hash.

        Creates (and possibly evicts the least recently used entry) on first
        sight; moves the entry to most-recently-used position on every hit.
        Subclasses with a second tier get a chance to serve the entry from
        there before a fresh namespace is created.
        """
        with self._lock:
            entry = self._namespaces.get(content_hash)
            if entry is not None:
                self.hits += 1
                self._namespaces.move_to_end(content_hash)
                return entry
            entry = self._load_fallback(content_hash)
            if entry is None:
                self.misses += 1
                entry = {}
            self._namespaces[content_hash] = entry
            while len(self._namespaces) > self.max_columns:
                evicted_hash, evicted = self._namespaces.popitem(last=False)
                self._entry_evicted(evicted_hash, evicted)
                self.evictions += 1
            return entry

    def invalidate(self, content_hash: str) -> bool:
        """Drop one entry (used by ``Column.invalidate_cache``); True if present.

        On a tiered store this reaches every tier: the in-memory entry is
        dropped *and* any persisted copy is tombstoned.
        """
        with self._lock:
            in_memory = self._namespaces.pop(content_hash, None) is not None
            in_tier = self._invalidate_tier(content_hash)
            return in_memory or in_tier

    def clear(self) -> None:
        """Drop every entry (in every tier) and reset the statistics."""
        with self._lock:
            self._namespaces.clear()
            self._clear_tier()
            self.hits = 0
            self.misses = 0
            self.evictions = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._namespaces)

    def __contains__(self, content_hash: str) -> bool:
        with self._lock:
            return content_hash in self._namespaces

    # ----------------------------------------------------------- tier hooks
    def _load_fallback(self, content_hash: str) -> dict | None:
        """Serve a namespace from a lower tier on an LRU miss (None = miss)."""
        return None

    def _entry_evicted(self, content_hash: str, namespace: dict) -> None:
        """Called (under the lock) for every entry the LRU evicts."""

    def _invalidate_tier(self, content_hash: str) -> bool:
        """Drop *content_hash* from the lower tier; True if it was present."""
        return False

    def _clear_tier(self) -> None:
        """Drop the lower tier's state entirely."""

    # --------------------------------------------------------------- fork hook
    def _after_fork_in_child(self, consistent: bool = True) -> None:
        """Re-initialise this store inside a freshly forked child.

        The inherited lock may be held by a parent thread that does not exist
        in the child (classically the write-behind flusher), so it is always
        replaced.  When the before-fork handler could *not* take the lock
        (``consistent=False``), the LRU may have been snapshotted mid-mutation
        and is conservatively dropped — cold, never corrupt.
        """
        self._lock = threading.RLock()
        if not consistent:
            self._namespaces = OrderedDict()

    # ------------------------------------------------------------- installation
    def activate(self) -> "ProfileStore":
        """Install this store process-wide (returns self for chaining)."""
        set_active_profile_store(self)
        return self

    def deactivate(self) -> None:
        """Uninstall this store if it is the active one."""
        if get_active_profile_store() is self:
            set_active_profile_store(None)

    @contextmanager
    def activated(self) -> Iterator["ProfileStore"]:
        """Temporarily install this store, restoring the previous one after."""
        previous = set_active_profile_store(self)
        try:
            yield self
        finally:
            set_active_profile_store(previous)

    # ------------------------------------------------------------------- report
    @property
    def lookups(self) -> int:
        """Total namespace lookups observed."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of namespace lookups served from a warm entry."""
        total = self.lookups
        return self.hits / total if total else 0.0

    def stats(self) -> dict[str, object]:
        """Counters for dashboards, benchmarks, and the E11/E12 reports."""
        with self._lock:
            return {
                "entries": len(self._namespaces),
                "max_columns": self.max_columns,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "hit_rate": round(self.hit_rate, 4),
            }

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(entries={len(self._namespaces)}, "
            f"max_columns={self.max_columns}, hit_rate={self.hit_rate:.2f})"
        )


# --------------------------------------------------------------------- on-disk
#: Magic bytes opening every segment file (versioned).
_SEGMENT_MAGIC = b"SPSEG1\n"
#: Record header: flag (u8), 16-byte key digest, payload length (u64 LE),
#: payload crc32 (u32 LE).
_RECORD_HEADER = struct.Struct("<B16sQI")
_RECORD_DATA = 0x01
_RECORD_TOMBSTONE = 0x02

#: Magic bytes opening every sidecar index journal (versioned).
_INDEX_MAGIC = b"SPIDX1\n"
#: Journal record header: flag (u8), 16-byte key digest, payload offset
#: (u64 LE), payload length (u64 LE), payload crc32 (u32 LE), segment-name
#: length (u16 LE), segment-name crc32 (u32 LE); the segment file name
#: (UTF-8) follows.  One journal record is appended per segment record, so a
#: sibling process can index a writer's freshly flushed entries by tailing
#: the journal instead of re-scanning whole segments.
_INDEX_HEADER = struct.Struct("<B16sQQIHI")
#: Upper bound on a plausible segment-file name; anything larger means the
#: journal framing is lost.
_MAX_SEGMENT_NAME = 255

#: Per-process store instance counter: disambiguates the segment and journal
#: files of two stores sharing one directory *and* one pid (tests, embedded
#: setups), so their appends never interleave inside one file.
_STORE_UIDS = count()


# -------------------------------------------------------------- warmth export
class JournalEntry(NamedTuple):
    """One parsed sidecar-journal record (see :func:`read_index_journal`)."""

    #: Column content hash (hex) the record names.
    key: str
    #: Segment file name the payload lives in; ``None`` for tombstones.
    segment_name: str | None
    tombstone: bool


def journal_pid(path: Path | str) -> int | None:
    """The writer pid encoded in a journal file name (``index-<pid>-<uid>.idx``)."""
    try:
        return int(Path(path).name.split("-")[1])
    except (IndexError, ValueError):
        return None


def read_index_journal(path: Path | str, offset: int = 0) -> tuple[list, int]:
    """Parse the records appended to a sidecar journal since *offset*.

    The public face of the PR 4 journal format, for consumers that track
    warmth without being a store themselves — the pool's
    :class:`~repro.serving.pool.WarmthIndex` tails every journal in a shared
    segment directory through this.  Returns ``(entries, new_offset)``:
    every intact :class:`JournalEntry` from *offset* on, and the offset to
    resume from next time.  A torn tail (a record still being appended)
    simply ends the batch — re-read later from ``new_offset``.  Lost framing
    (bad magic, corrupt header, crc mismatch) raises ``ValueError``: an
    append-only stream cannot be resynced, so the caller should retire the
    journal (its segments stay recoverable by any restart).
    """
    path = Path(path)
    with open(path, "rb") as handle:
        handle.seek(offset)
        data = handle.read()
    pos = 0
    if offset == 0:
        if len(data) < len(_INDEX_MAGIC):
            return [], 0  # torn magic: retry once more bytes land
        if not data.startswith(_INDEX_MAGIC):
            raise ValueError(f"bad journal magic in {path.name}")
        pos = len(_INDEX_MAGIC)
    entries: list = []
    header_size = _INDEX_HEADER.size
    while pos + header_size <= len(data):
        flag, key_bytes, _payload_offset, _length, _payload_crc, name_len, name_crc = (
            _INDEX_HEADER.unpack_from(data, pos)
        )
        if flag not in (_RECORD_DATA, _RECORD_TOMBSTONE) or name_len > _MAX_SEGMENT_NAME:
            raise ValueError(f"journal framing lost in {path.name}")
        end = pos + header_size + name_len
        if end > len(data):
            break  # torn tail: the record may still be completing
        name_bytes = data[pos + header_size : end]
        if zlib.crc32(name_bytes) != name_crc:
            raise ValueError(f"journal name crc mismatch in {path.name}")
        key = key_bytes.hex()
        if flag == _RECORD_DATA:
            try:
                segment_name = name_bytes.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise ValueError(f"journal segment name undecodable in {path.name}") from exc
            entries.append(JournalEntry(key, segment_name, False))
        else:
            entries.append(JournalEntry(key, None, True))
        pos = end
    return entries, offset + pos


class PersistentProfileStore(ProfileStore):
    """A :class:`ProfileStore` with an append-only on-disk tier.

    The in-memory LRU stays exactly as before; underneath it, namespaces are
    pickled into **segment files** inside *directory*, keyed by the same
    :meth:`Column.content_hash`.  The design is a tiny log-structured store:

    * **Append-only segments.**  Every persisted namespace is one framed
      record (flag, 16-byte key digest, length, crc32, pickle payload).  A
      record for an already-stored key simply supersedes the older record;
      :meth:`ProfileStore.invalidate` appends a *tombstone*.  Nothing is ever
      rewritten in place, so a crash can only ever damage the tail of the
      active segment.
    * **Write-behind flusher.**  ``namespace()`` never touches the disk on the
      write side; a daemon thread wakes every *flush_interval* seconds and
      appends every namespace whose content changed since it was last
      persisted (:meth:`flush` does the same synchronously, and eviction from
      the LRU flushes the evicted entry so warm state is never lost).  Set
      ``flush_interval=0`` to disable the thread and flush manually.
    * **Corruption-tolerant recovery.**  Opening a directory scans its
      segments in order and indexes every intact record; the first torn or
      corrupt record of a segment (bad magic, short header, short payload,
      crc mismatch) stops that segment's scan — everything before it is
      served, everything after it is ignored and counted in
      ``corrupt_records_skipped``.
    * **Compaction.**  Superseded records and tombstones are dead bytes;
      :meth:`compact` (also triggered automatically after a flush once the
      dead fraction passes *compaction_dead_ratio*) copies the live records
      into a fresh segment and deletes the old files — unless a live sibling
      process may still index them, in which case deletion is deferred until
      no sibling is live (``deferred_segments`` in the stats).
    * **Fork-safe.**  Process-wide at-fork handlers (see
      :func:`install_fork_handlers`) give forked ``multiprocess:N`` workers a
      usable store: fresh lock, no inherited flusher thread or wakeup state,
      and a per-pid segment writer, so children persist independently without
      interleaving writes; recovery merges all segments.  (Deterministic
      derived state makes concurrent writers safe: any two records for one
      key hold equivalent payloads.)
    * **Live cross-process sharing.**  Each writer also appends a sidecar
      index journal (``index-<pid>-<uid>.idx``) naming every record it
      persists.  On a miss in both the LRU and this store's own index, the
      store *tails* its siblings' journals and serves the record directly
      from the sibling's segment (crc-checked; counted in ``shared_hits``) —
      a live worker serves another live worker's freshly flushed entries
      without any restart.  A damaged or compacted-away shared record
      degrades to a recomputing miss (after one re-tail to pick up the
      record's post-compaction home), never to a crash or a wrong result.

    Namespaces are served **lazily**: recovery only builds the key index, and
    a namespace is unpickled the first time a request asks for it (counted in
    ``disk_hits`` for this store's own records and ``shared_hits`` for a
    sibling's — :attr:`hit_rate` includes all warm tiers).

    Parameters
    ----------
    directory:
        Segment-file directory, created if missing.  Reopening the same
        directory after a restart serves the previous process's warm state.
    max_columns:
        In-memory LRU capacity (the disk tier is unbounded until compaction).
    flush_interval:
        Seconds between write-behind flushes; ``0`` disables the background
        thread (explicit :meth:`flush`/:meth:`close` only).
    segment_max_bytes:
        Active segment rolls over to a new file beyond this size.
    compaction_dead_ratio:
        Auto-compact (after a flush) once dead bytes exceed this fraction of
        the total on-disk bytes.
    share_across_processes:
        Maintain and tail the sidecar index journals (default).  Disabling
        restores the restart-only behaviour: no journal writes, no tailing,
        and compaction retires segments immediately.
    """

    def __init__(
        self,
        directory: str | os.PathLike,
        max_columns: int = 4096,
        flush_interval: float = 1.0,
        segment_max_bytes: int = 32 * 1024 * 1024,
        compaction_dead_ratio: float = 0.5,
        share_across_processes: bool = True,
    ) -> None:
        super().__init__(max_columns=max_columns)
        if flush_interval < 0:
            raise ConfigurationError("flush_interval must be non-negative")
        if segment_max_bytes < 1:
            raise ConfigurationError("segment_max_bytes must be positive")
        if not 0.0 < compaction_dead_ratio <= 1.0:
            raise ConfigurationError("compaction_dead_ratio must be in (0, 1]")
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.flush_interval = flush_interval
        self.segment_max_bytes = segment_max_bytes
        self.compaction_dead_ratio = compaction_dead_ratio
        self.share_across_processes = share_across_processes

        # Disk-tier statistics (all monotonic counters except the byte gauges).
        self.disk_hits = 0
        self.shared_hits = 0
        self.flushes = 0
        self.flushed_entries = 0
        self.recovered_entries = 0
        self.prewarmed_entries = 0
        self.corrupt_records_skipped = 0
        self.tombstones = 0
        self.compactions = 0
        self.pickle_errors = 0

        #: content hash -> (segment path, payload offset, payload length) for
        #: records this store recovered at open or wrote itself.
        self._index: dict[str, tuple[Path, int, int]] = {}
        #: content hash -> (segment path, offset, length, payload crc) learned
        #: by tailing sibling journals; consulted only after ``_index`` misses.
        self._shared_index: dict[str, tuple[Path, int, int, int]] = {}
        #: Per-journal tail position: the next byte to read from each sibling
        #: journal.  Seeded at open to the journals' current sizes (everything
        #: before that is covered by the segment scan).
        self._tail_offsets: dict[Path, int] = {}
        #: Journals whose framing was lost (bad magic/header/crc); skipped.
        self._dead_journals: set[Path] = set()
        #: Directory-mtime-keyed cache of the journal listing, so the per-miss
        #: tail costs one ``stat`` of the directory instead of a glob.
        self._journal_dir_mtime: int | None = None
        self._journal_paths_cache: list[Path] = []
        #: Segments this store may retire: files present at open plus files
        #: this process wrote.  A concurrent sibling's newer segments are
        #: never touched by our compaction.
        self._owned_paths: set[Path] = set()
        #: Segments retired by a compaction that ran while a sibling was
        #: live; deleted by a later compaction once no sibling remains.
        self._deferred_retired: set[Path] = set()
        #: Every segment file this store knows about (own, recovered, or
        #: discovered via a sibling journal) — the locked, glob-free source of
        #: the ``segment_files`` statistic.
        self._known_segments: set[Path] = set()
        #: Namespace sizes as last persisted (dirty = live size differs).
        self._persisted_sizes: dict[str, int] = {}
        #: Keys whose namespaces failed to pickle (never retried).
        self._unpicklable: set[str] = set()
        self._live_bytes = 0
        self._total_bytes = 0
        self._next_segment_index = 1
        self._store_uid = next(_STORE_UIDS)
        self._writer = None
        self._writer_path: Path | None = None
        self._writer_size = 0
        self._writer_pid: int | None = None
        self._journal = None
        self._journal_path: Path | None = None
        self._journal_pid: int | None = None
        self._flusher: threading.Thread | None = None
        self._flusher_wakeup = threading.Event()
        self._closed = False
        self._recover()
        if self.share_across_processes:
            # Create the journal eagerly: its presence (with a live pid in the
            # name) is how sibling compactions detect that this store is live
            # and must not retire segments it may still index.
            self._ensure_journal()

    # ----------------------------------------------------------------- recovery
    @_holding_store_lock
    def _recover(self) -> None:
        """Index every intact record in the directory's segment files."""
        # Snapshot sibling journal sizes *before* scanning segments: every
        # record the segment scan can miss is then guaranteed to land after
        # these offsets (writers append to the segment first, the journal
        # second), so the first tail picks it up.
        if self.share_across_processes:
            for path in self.directory.glob("index-*.idx"):
                try:
                    self._tail_offsets[path] = path.stat().st_size
                except OSError:
                    continue
        header_size = _RECORD_HEADER.size
        for path in sorted(self.directory.glob("segment-*.seg")):
            try:
                segment_index = int(path.name.split("-")[1])
                self._next_segment_index = max(self._next_segment_index, segment_index + 1)
            except (IndexError, ValueError):
                pass
            try:
                data = path.read_bytes()
            except OSError:
                self.corrupt_records_skipped += 1
                continue
            self._owned_paths.add(path)
            self._known_segments.add(path)
            if not data.startswith(_SEGMENT_MAGIC):
                self.corrupt_records_skipped += 1
                continue
            self._total_bytes += len(data)
            offset = len(_SEGMENT_MAGIC)
            while offset < len(data):
                if offset + header_size > len(data):
                    self.corrupt_records_skipped += 1
                    break
                flag, key_bytes, length, crc = _RECORD_HEADER.unpack_from(data, offset)
                payload_offset = offset + header_size
                if flag not in (_RECORD_DATA, _RECORD_TOMBSTONE) or (
                    payload_offset + length > len(data)
                ):
                    self.corrupt_records_skipped += 1
                    break
                payload = data[payload_offset : payload_offset + length]
                if zlib.crc32(payload) != crc:
                    self.corrupt_records_skipped += 1
                    break
                key = key_bytes.hex()
                previous = self._index.pop(key, None)
                if previous is not None:
                    self._live_bytes -= header_size + previous[2]
                if flag == _RECORD_DATA:
                    self._index[key] = (path, payload_offset, length)
                    self._live_bytes += header_size + length
                offset = payload_offset + length
        self.recovered_entries = len(self._index)

    # ----------------------------------------------------------------- writing
    @_holding_store_lock
    def _ensure_writer(self):
        """The append handle for this process's active segment (fork-aware)."""
        pid = os.getpid()
        if self._writer is not None and self._writer_pid == pid:
            if self._writer_size < self.segment_max_bytes:
                return self._writer
            self._writer.close()
            self._writer = None
        elif self._writer is not None:
            # Forked child that missed the at-fork handler: the inherited
            # handle shares the parent's file offset — abandon it (without
            # closing the shared fd state) and append to a segment of our own.
            self._writer = None
            self._flusher = None
            self._journal = None
            self._journal_path = None
            self._journal_pid = None
        path = self.directory / f"segment-{self._next_segment_index:08d}-{pid}-{self._store_uid}.seg"
        self._next_segment_index += 1
        # Unbuffered: a record is visible to readers as soon as it is written,
        # which keeps eviction-flushed entries immediately loadable.
        self._writer = open(path, "ab", buffering=0)
        if self._writer.tell() == 0:
            self._writer.write(_SEGMENT_MAGIC)
            self._total_bytes += len(_SEGMENT_MAGIC)
        self._writer_path = path
        self._writer_size = self._writer.tell()
        self._writer_pid = pid
        self._owned_paths.add(path)
        self._known_segments.add(path)
        return self._writer

    def _ensure_journal(self):
        """The append handle for this process's sidecar index journal."""
        pid = os.getpid()
        if self._journal is not None and self._journal_pid == pid:
            return self._journal
        self._journal = None  # forked child: abandon the inherited handle
        path = self.directory / f"index-{pid}-{self._store_uid}.idx"
        self._journal = open(path, "ab", buffering=0)
        if self._journal.tell() == 0:
            self._journal.write(_INDEX_MAGIC)
        self._journal_path = path
        self._journal_pid = pid
        return self._journal

    def _append_journal(
        self, flag: int, content_hash: str, payload_offset: int, length: int, crc: int
    ) -> None:
        """Mirror one segment record into this writer's index journal."""
        name_bytes = (
            self._writer_path.name.encode("utf-8")
            if flag == _RECORD_DATA and self._writer_path is not None
            else b""
        )
        record = (
            _INDEX_HEADER.pack(
                flag,
                bytes.fromhex(content_hash),
                payload_offset,
                length,
                crc,
                len(name_bytes),
                zlib.crc32(name_bytes),
            )
            + name_bytes
        )
        self._ensure_journal().write(record)

    @_holding_store_lock
    def _append_record(self, flag: int, content_hash: str, payload: bytes) -> None:
        writer = self._ensure_writer()
        crc = zlib.crc32(payload)
        header = _RECORD_HEADER.pack(flag, bytes.fromhex(content_hash), len(payload), crc)
        payload_offset = self._writer_size + len(header)
        writer.write(header + payload)
        record_size = len(header) + len(payload)
        self._writer_size += record_size
        self._total_bytes += record_size
        previous = self._index.pop(content_hash, None)
        if previous is not None:
            self._live_bytes -= _RECORD_HEADER.size + previous[2]
        if flag == _RECORD_DATA:
            assert self._writer_path is not None
            self._index[content_hash] = (self._writer_path, payload_offset, len(payload))
            self._live_bytes += record_size
        if self.share_across_processes:
            self._append_journal(flag, content_hash, payload_offset, len(payload), crc)

    @staticmethod
    def _snapshot_namespace(namespace: dict) -> dict | None:
        """A shallow copy that tolerates concurrent fills (None = try later)."""
        for _ in range(4):
            try:
                return dict(namespace)
            except RuntimeError:  # resized mid-copy by a concurrent _memo fill
                continue
        return None

    def flush(self) -> int:
        """Synchronously persist every dirty in-memory namespace.

        A namespace is dirty when its number of memoized entries differs from
        the last persisted record (derived-state entries are only ever added,
        never mutated).  Returns the number of namespaces written.  Called
        periodically by the write-behind flusher and on :meth:`close`.
        """
        with self._lock:
            if self._closed:
                return 0
            flushed = 0
            for content_hash, namespace in list(self._namespaces.items()):
                if self._flush_entry(content_hash, namespace):
                    flushed += 1
            if flushed:
                self.flushes += 1
                self.flushed_entries += flushed
                assert self._writer is not None
                os.fsync(self._writer.fileno())
                if self._journal is not None and self._journal_pid == os.getpid():
                    os.fsync(self._journal.fileno())
            self._maybe_compact()
            return flushed

    @_holding_store_lock
    def _flush_entry(self, content_hash: str, namespace: dict) -> bool:
        """Append one namespace's record if it is dirty; True if written."""
        size = len(namespace)
        if (
            size == 0
            or size == self._persisted_sizes.get(content_hash)
            or content_hash in self._unpicklable
        ):
            return False
        snapshot = self._snapshot_namespace(namespace)
        if snapshot is None:
            return False
        try:
            payload = pickle.dumps(snapshot, protocol=pickle.HIGHEST_PROTOCOL)
        except Exception:  # noqa: BLE001 - a foreign unpicklable cache entry
            self.pickle_errors += 1
            self._unpicklable.add(content_hash)
            return False
        self._append_record(_RECORD_DATA, content_hash, payload)
        self._persisted_sizes[content_hash] = len(snapshot)
        return True

    def _schedule_flusher(self) -> None:
        if self.flush_interval <= 0 or self._closed:
            return
        with self._lock:  # check-then-start must be atomic across threads
            if self._closed:
                return
            flusher = self._flusher
            if flusher is not None and flusher.is_alive():
                return
            self._flusher = threading.Thread(
                target=self._flusher_loop, name="profile-store-flusher", daemon=True
            )
            self._flusher.start()

    def _flusher_loop(self) -> None:
        while not self._closed:
            self._flusher_wakeup.wait(self.flush_interval)
            if self._closed:
                return
            self.flush()

    # --------------------------------------------------------------- fork hook
    def _after_fork_in_child(self, consistent: bool = True) -> None:
        """Hand the forked child a usable store (see the class docstring).

        The parent's flusher thread does not exist in the child, its wakeup
        event may carry a stale set flag, and the inherited segment/journal
        handles share the parent's file descriptions — so the thread slot and
        event are re-created and the handles abandoned (never closed: the
        descriptions are still the parent's).  The child's first flush then
        opens a fresh per-pid segment and journal of its own.
        """
        super()._after_fork_in_child(consistent)
        self._flusher = None
        self._flusher_wakeup = threading.Event()
        self._writer = None
        self._writer_path = None
        self._writer_size = 0
        self._writer_pid = None
        self._journal = None
        self._journal_path = None
        self._journal_pid = None
        if not consistent:
            self._persisted_sizes.clear()

    # ----------------------------------------------------------------- reading
    def namespace(self, content_hash: str) -> dict:
        entry = super().namespace(content_hash)
        self._schedule_flusher()
        return entry

    def _read_and_unpickle(
        self, path: Path, payload_offset: int, length: int, crc: int | None = None
    ) -> dict | None:
        """Load one persisted namespace; None for *any* damage (miss, not crash)."""
        try:
            with open(path, "rb") as handle:
                handle.seek(payload_offset)
                payload = handle.read(length)
            if len(payload) != length:
                raise EOFError(f"short read in {path.name}")
            if crc is not None and zlib.crc32(payload) != crc:
                raise ValueError(f"crc mismatch in {path.name}")
            namespace = pickle.loads(payload)
            if not isinstance(namespace, dict):
                raise TypeError("persisted namespace is not a dict")
        except Exception:  # noqa: BLE001 - a damaged record is a miss, not a crash
            return None
        return namespace

    @_holding_store_lock
    def _load_fallback(self, content_hash: str) -> dict | None:
        if self._closed:
            return None
        location = self._index.get(content_hash)
        if location is not None:
            path, payload_offset, length = location
            namespace = self._read_and_unpickle(path, payload_offset, length)
            if namespace is not None:
                self.disk_hits += 1
                self._persisted_sizes[content_hash] = len(namespace)
                return namespace
            self.corrupt_records_skipped += 1
            self._index.pop(content_hash, None)
            self._live_bytes -= _RECORD_HEADER.size + length
        if not self.share_across_processes:
            return None
        shared = self._shared_index.get(content_hash)
        if shared is None:
            self._tail_shared_index()
            shared = self._shared_index.get(content_hash)
        attempts = 0
        while shared is not None and attempts < 2:
            attempts += 1
            path, payload_offset, length, crc = shared
            namespace = self._read_and_unpickle(path, payload_offset, length, crc)
            if namespace is not None:
                self.shared_hits += 1
                self._persisted_sizes[content_hash] = len(namespace)
                return namespace
            # The sibling's record is damaged or its segment was compacted
            # away: degrade to a miss, drop the stale pointer, and re-tail
            # once — the sibling's journal may already name the record's new
            # (post-compaction) home.
            self.corrupt_records_skipped += 1
            self._shared_index.pop(content_hash, None)
            self._tail_shared_index()
            relocated = self._shared_index.get(content_hash)
            shared = relocated if relocated != shared else None
        return None

    # ------------------------------------------------------------ shared index
    def _sibling_journal_paths(self) -> list[Path]:
        """Every sidecar journal in the directory except this store's own.

        The listing is re-globbed only when the directory's mtime changes
        (journal creation/deletion touches it; appends do not need a
        re-listing), so the per-miss tail costs one ``stat`` of the
        directory rather than a glob.
        """
        try:
            mtime = os.stat(self.directory).st_mtime_ns
        except OSError:
            return []
        if mtime != self._journal_dir_mtime:
            try:
                self._journal_paths_cache = list(self.directory.glob("index-*.idx"))
            except OSError:
                return []
            self._journal_dir_mtime = mtime
        return [path for path in self._journal_paths_cache if path != self._journal_path]

    def _tail_shared_index(self) -> None:
        """Ingest sibling journal records appended since the last tail."""
        if self._closed or not self.share_across_processes:
            return
        for path in sorted(self._sibling_journal_paths()):
            if path not in self._dead_journals:
                self._tail_journal(path)

    @_holding_store_lock
    def _tail_journal(self, path: Path) -> None:
        offset = self._tail_offsets.get(path, 0)
        try:
            size = path.stat().st_size
        except OSError:
            self._tail_offsets.pop(path, None)
            return
        if size < offset:
            # The journal shrank (its directory was cleared and the writer
            # recreated it): rescan from the top.
            offset = 0
        if size <= offset and offset > 0:
            return
        try:
            with open(path, "rb") as handle:
                handle.seek(offset)
                data = handle.read()
        except OSError:
            return
        pos = 0
        if offset == 0:
            if len(data) < len(_INDEX_MAGIC):
                return  # torn magic: retry once more bytes land
            if not data.startswith(_INDEX_MAGIC):
                self._dead_journals.add(path)
                self.corrupt_records_skipped += 1
                return
            pos = len(_INDEX_MAGIC)
        header_size = _INDEX_HEADER.size
        while pos + header_size <= len(data):
            (
                flag,
                key_bytes,
                payload_offset,
                length,
                payload_crc,
                name_len,
                name_crc,
            ) = _INDEX_HEADER.unpack_from(data, pos)
            if flag not in (_RECORD_DATA, _RECORD_TOMBSTONE) or name_len > _MAX_SEGMENT_NAME:
                # Framing lost mid-journal: no way to resync an append-only
                # stream, so retire this journal (its segments remain
                # recoverable by any restart).
                self._dead_journals.add(path)
                self.corrupt_records_skipped += 1
                break
            end = pos + header_size + name_len
            if end > len(data):
                break  # torn tail: the record may still be completing
            name_bytes = data[pos + header_size : end]
            if zlib.crc32(name_bytes) != name_crc:
                self._dead_journals.add(path)
                self.corrupt_records_skipped += 1
                break
            key = key_bytes.hex()
            if flag == _RECORD_DATA:
                try:
                    segment = self.directory / name_bytes.decode("utf-8")
                except UnicodeDecodeError:
                    self._dead_journals.add(path)
                    self.corrupt_records_skipped += 1
                    break
                self._shared_index[key] = (segment, payload_offset, length, payload_crc)
                self._known_segments.add(segment)
            else:
                # A sibling tombstoned the key: drop it from *every* tier we
                # hold — shared pointer, own on-disk record, and the LRU — so
                # neither a lookup nor our next compaction can resurrect it.
                self._shared_index.pop(key, None)
                previous = self._index.pop(key, None)
                if previous is not None:
                    self._live_bytes -= _RECORD_HEADER.size + previous[2]
                self._namespaces.pop(key, None)
                self._persisted_sizes.pop(key, None)
            pos = end
        self._tail_offsets[path] = offset + pos

    @staticmethod
    def _journal_pid_of(path: Path) -> int | None:
        try:
            return int(path.name.split("-")[1])
        except (IndexError, ValueError):
            return None

    def _live_sibling_exists(self) -> bool:
        """Whether any *other* store (this or another process) looks alive.

        A sibling is represented by its journal; its pid is live when the
        process exists (``os.kill(pid, 0)``).  Another store inside this very
        process trivially counts as live.  Conservative by design: a false
        positive only defers segment deletion, never loses data.
        """
        for path in self._sibling_journal_paths():
            pid = self._journal_pid_of(path)
            if pid is None:
                continue
            if pid == os.getpid():
                return True
            try:
                os.kill(pid, 0)
            except ProcessLookupError:
                continue
            except PermissionError:  # pragma: no cover - exists, other user
                return True
            except OSError:  # pragma: no cover - unknown platform failure
                continue
            return True
        return False

    def _collect_dead_journals(self) -> None:
        """Delete sibling journals once no sibling is live (their segments
        stay; a future open recovers them directly)."""
        for path in self._sibling_journal_paths():
            try:
                path.unlink()
            except OSError:
                pass
            self._tail_offsets.pop(path, None)
            self._dead_journals.discard(path)

    # ------------------------------------------------------------------- tiers
    def _entry_evicted(self, content_hash: str, namespace: dict) -> None:
        # Write-behind must not lose warm state: persist the evicted entry
        # (if dirty) before the memory tier forgets it.
        if not self._closed:
            self._flush_entry(content_hash, namespace)
        self._persisted_sizes.pop(content_hash, None)

    @_holding_store_lock
    def _invalidate_tier(self, content_hash: str) -> bool:
        self._persisted_sizes.pop(content_hash, None)
        self._unpicklable.discard(content_hash)
        if self._closed:
            return False
        if (
            self.share_across_processes
            and content_hash not in self._index
            and content_hash not in self._shared_index
        ):
            # The key may be a sibling's record we have not tailed yet;
            # refresh before deciding whether a tombstone is needed.
            self._tail_shared_index()
        in_shared = self._shared_index.pop(content_hash, None) is not None
        if content_hash not in self._index and not in_shared:
            return False
        # The tombstone lands in our segment *and* journal, so live siblings
        # tailing us drop their copy too (and recovery never resurrects it).
        self._append_record(_RECORD_TOMBSTONE, content_hash, b"")
        self.tombstones += 1
        return True

    def _clear_tier(self) -> None:
        self._close_writer()
        self._close_journal()
        for pattern in ("segment-*.seg", "index-*.idx"):
            for path in self.directory.glob(pattern):
                try:
                    path.unlink()
                except OSError:
                    pass
        self._index.clear()
        self._shared_index.clear()
        self._tail_offsets.clear()
        self._dead_journals.clear()
        self._journal_dir_mtime = None
        self._journal_paths_cache = []
        self._persisted_sizes.clear()
        self._unpicklable.clear()
        self._owned_paths.clear()
        self._deferred_retired.clear()
        self._known_segments.clear()
        self._live_bytes = 0
        self._total_bytes = 0
        self.disk_hits = 0
        self.shared_hits = 0
        self.recovered_entries = 0
        if self.share_across_processes and not self._closed:
            self._ensure_journal()  # stay visible to sibling liveness checks

    # --------------------------------------------------------------- compaction
    @property
    def dead_bytes(self) -> int:
        """On-disk bytes held by superseded records and tombstones."""
        return max(0, self._total_bytes - self._live_bytes)

    def _maybe_compact(self) -> None:
        if self._total_bytes and self.dead_bytes > self.compaction_dead_ratio * self._total_bytes:
            self.compact()

    @staticmethod
    def _read_payload(path: Path, payload_offset: int, length: int) -> bytes | None:
        try:
            with open(path, "rb") as handle:
                handle.seek(payload_offset)
                payload = handle.read(length)
        except OSError:
            return None
        return payload if len(payload) == length else None

    def compact(self) -> None:
        """Rewrite the live records into one fresh segment, drop the rest.

        Copies raw payload bytes (no pickle round-trip), fsyncs the new
        segment, then deletes the retired files — a crash mid-compaction
        leaves either the old segments or the complete new one.  The bulk of
        the reading happens *outside* the store lock (a snapshot of the index
        is taken first, and entries that moved meanwhile are re-read under
        the lock), so request-path lookups are not stalled for the whole
        rewrite.

        Only segments this store knows — files indexed at open time or
        written by this process — are ever unlinked.  A segment some *other*
        concurrent process (e.g. a forked worker) created after our open is
        left untouched, so compaction can never destroy a sibling's freshly
        persisted records.  And while any **live sibling** exists (a sidecar
        journal whose pid is alive), even our own retired segments are kept
        on disk — the sibling may have indexed them via recovery or journal
        tailing — and only deleted by a later compaction once no sibling is
        live (``deferred_segments`` counts them meanwhile).  Every surviving
        record is re-announced in our journal, so siblings that tail us
        relocate to the compacted segment; a sibling that still reads a
        stale location degrades gracefully: the lookup counts as corrupt and
        the entry is recomputed — warmth is lost, predictions never change.
        """
        with self._lock:
            if self._closed:
                return
            snapshot = dict(self._index)
        # Phase 1 (unlocked): read the live payloads referenced at snapshot time.
        payloads: dict[str, bytes] = {}
        unreadable = 0
        for content_hash, (path, payload_offset, length) in snapshot.items():
            payload = self._read_payload(path, payload_offset, length)
            if payload is None:
                unreadable += 1
            else:
                payloads[content_hash] = payload
        with self._lock:
            if self._closed:
                return
            self.corrupt_records_skipped += unreadable
            # Phase 2 (locked): catch up with whatever the flusher wrote since
            # the snapshot, and drop entries invalidated meanwhile.
            for content_hash, location in self._index.items():
                if snapshot.get(content_hash) != location:
                    payload = self._read_payload(*location)
                    if payload is None:
                        self.corrupt_records_skipped += 1
                        payloads.pop(content_hash, None)
                    else:
                        payloads[content_hash] = payload
            # Keys invalidated since the snapshot are gone from the index and
            # must not be resurrected by compaction.
            payloads = {
                content_hash: payload
                for content_hash, payload in payloads.items()
                if content_hash in self._index
            }
            retired = (
                {path for path, _, _ in self._index.values()}
                | set(self._owned_paths)
                | set(self._deferred_retired)
            )
            if self._writer_path is not None:
                retired.add(self._writer_path)
            self._close_writer()
            self._index.clear()
            self._live_bytes = 0
            self._total_bytes = 0
            for content_hash, payload in payloads.items():
                self._append_record(_RECORD_DATA, content_hash, payload)
            if self._writer is not None:
                os.fsync(self._writer.fileno())
            current = {self._writer_path} if self._writer_path is not None else set()
            self._owned_paths = set(current)
            to_retire = retired - current
            if self.share_across_processes and self._live_sibling_exists():
                # A live sibling may still index these segments (it recovered
                # them at open, or tailed them from our journal): keep the
                # files; a later compaction retires them once no sibling is
                # live.  Our journal already names every record's new home.
                self._deferred_retired = to_retire
            else:
                for path in to_retire:
                    try:
                        path.unlink()
                    except OSError:
                        pass
                    self._known_segments.discard(path)
                self._deferred_retired = set()
                if self.share_across_processes:
                    self._collect_dead_journals()
            self.compactions += 1

    # ---------------------------------------------------------------- lifecycle
    def _close_writer(self) -> None:
        if self._writer is not None and self._writer_pid == os.getpid():
            try:
                self._writer.close()
            except OSError:
                pass
        self._writer = None
        self._writer_path = None
        self._writer_size = 0
        self._writer_pid = None

    def _close_journal(self) -> None:
        if self._journal is not None and self._journal_pid == os.getpid():
            try:
                self._journal.close()
            except OSError:
                pass
        self._journal = None
        self._journal_path = None
        self._journal_pid = None

    def close(self) -> None:
        """Flush dirty namespaces, stop the flusher, and detach the disk tier.

        After ``close`` the store keeps working as a plain in-memory LRU (so
        a still-activated store never breaks the request path), but nothing
        further is read from or written to the directory.  The store's own
        journal file is deleted: a closed store must not keep counting as a
        live sibling (which would defer every sibling compaction forever).
        Siblings lose at most warmth for records they had not tailed yet —
        the segments stay and any restart recovers them.  A SIGKILLed
        process's journal naturally stays behind; a surviving store's
        compaction garbage-collects it once the pid is gone.  Idempotent.
        """
        with self._lock:
            if self._closed:
                return
            flusher = self._flusher
            self._flusher = None
        # Stop the background thread before the final flush so the two never
        # interleave on the writer.
        self._flusher_wakeup.set()
        if flusher is not None and flusher is not threading.current_thread():
            flusher.join(timeout=5.0)
        with self._lock:
            self.flush()
            if self._writer is not None and self._writer_pid == os.getpid():
                os.fsync(self._writer.fileno())
            self._close_writer()
            journal_path = self._journal_path
            self._close_journal()
            if journal_path is not None:
                try:
                    journal_path.unlink()
                except OSError:
                    pass
            self._closed = True

    def __enter__(self) -> "PersistentProfileStore":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def __contains__(self, content_hash: str) -> bool:
        with self._lock:
            return (
                content_hash in self._namespaces
                or content_hash in self._index
                or content_hash in self._shared_index
            )

    # ---------------------------------------------------------------- pre-warm
    @_holding_store_lock
    def prewarm(self, limit: int | None = None) -> int:
        """Load persisted namespaces into the in-memory LRU ahead of demand.

        Pool workers call this at startup so a restarted process serves its
        first requests warm instead of paying a ``disk_hit`` per column.  At
        most *limit* entries are loaded (default: up to ``max_columns``);
        keys already in memory are skipped and damaged records degrade to a
        skip, never a crash.  Returns the number of entries loaded (also
        accumulated in ``prewarmed_entries``).
        """
        if self._closed:
            return 0
        budget = self.max_columns - len(self._namespaces)
        if limit is not None:
            budget = min(budget, limit)
        loaded = 0
        for key, (path, payload_offset, length) in list(self._index.items()):
            if loaded >= budget:
                break
            if key in self._namespaces:
                continue
            namespace = self._read_and_unpickle(path, payload_offset, length)
            if namespace is None:
                continue
            self._namespaces[key] = namespace
            self._persisted_sizes[key] = len(namespace)
            loaded += 1
        self.prewarmed_entries += loaded
        return loaded

    @_holding_store_lock
    def warm_keys(self) -> set[str]:
        """Every content hash any tier of this store could serve warm."""
        return set(self._namespaces) | set(self._index) | set(self._shared_index)

    # ------------------------------------------------------------------- report
    @property
    def disk_entries(self) -> int:
        """Distinct keys currently indexed on disk."""
        return len(self._index)

    @property
    def shared_entries(self) -> int:
        """Distinct keys currently indexed from sibling journals."""
        return len(self._shared_index)

    @property
    def hit_rate(self) -> float:
        """Warm fraction of lookups, counting memory, disk, *and* shared hits.

        ``hits`` counts memory-tier hits only, ``disk_hits`` lookups served
        from this store's own segments, ``shared_hits`` lookups served from a
        live sibling's segment, and ``misses`` lookups no tier could serve —
        so every lookup appears exactly once.
        """
        total = self.hits + self.disk_hits + self.shared_hits + self.misses
        return (self.hits + self.disk_hits + self.shared_hits) / total if total else 0.0

    @property
    def lookups(self) -> int:
        return self.hits + self.disk_hits + self.shared_hits + self.misses

    def stats(self) -> dict[str, object]:
        with self._lock:
            report = super().stats()
            report.update(
                {
                    "disk_hits": self.disk_hits,
                    "disk_entries": self.disk_entries,
                    "shared_hits": self.shared_hits,
                    "shared_entries": self.shared_entries,
                    "sibling_journals": len(
                        [p for p in self._tail_offsets if p != self._journal_path]
                    ),
                    "share_across_processes": self.share_across_processes,
                    "flushes": self.flushes,
                    "flushed_entries": self.flushed_entries,
                    "recovered_entries": self.recovered_entries,
                    "prewarmed_entries": self.prewarmed_entries,
                    "corrupt_records_skipped": self.corrupt_records_skipped,
                    "tombstones": self.tombstones,
                    "compactions": self.compactions,
                    "deferred_segments": len(self._deferred_retired),
                    "pickle_errors": self.pickle_errors,
                    "segment_files": len(self._known_segments),
                    "disk_bytes": self._total_bytes,
                    "dead_bytes": self.dead_bytes,
                    "directory": str(self.directory),
                }
            )
            return report
