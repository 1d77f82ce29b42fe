"""Layer spans recorded from outside the program, for the traced run.

:func:`install` wraps public callables of each layer in place (class
attributes and module functions) before the system under test forks its pool
or backend workers, so forked workers inherit the wrappers.  Two kinds of
record are kept per process:

* **spans** -- request-level intervals ``(name, ids, start, end, extra)``
  where *ids* are request ids read from ``Table.name`` (no cache key, feature
  or hash reads the table name);
* **totals** -- fine-grained per-phase accumulators ``name -> [seconds,
  calls, units]`` for calls too frequent to keep one record each.

Each process appends its records to ``spans-<pid>.jsonl`` in the trace
directory: worker processes after every request-level call (forked workers
exit without running ``atexit``), the server process when asked.  The load
generator merges the files by request id (:func:`load`).
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import threading
import time
from pathlib import Path

_state: "_Tracer | None" = None


class _Tracer:
    def __init__(self, directory: Path) -> None:
        self.directory = directory
        self.owner_pid = os.getpid()
        #: Work before the first phase tag (pretraining) is never reported.
        self.phase = "setup"
        self.lock = threading.Lock()
        self.spans: list = []
        self.totals: dict = {}

    def span(self, name, ids, start, end, extra=None) -> None:
        with self.lock:
            self.spans.append((name, ids, start, end, extra))

    def add(self, name, seconds, units=0) -> None:
        with self.lock:
            bucket = self.totals.setdefault(self.phase, {}).setdefault(name, [0.0, 0, 0])
            bucket[0] += seconds
            bucket[1] += 1
            bucket[2] += units

    def flush(self) -> None:
        with self.lock:
            spans, self.spans = self.spans, []
            totals, self.totals = self.totals, {}
        if not spans and not totals:
            return
        record = {"pid": os.getpid(), "spans": spans, "totals": totals}
        path = self.directory / f"spans-{os.getpid()}.jsonl"
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(record) + "\n")

    def in_worker(self) -> bool:
        return os.getpid() != self.owner_pid

    def _after_fork(self) -> None:
        # A forked child starts with empty buffers: the parent reports its own.
        self.lock = threading.Lock()
        self.spans = []
        self.totals = {}


def set_phase(phase: str) -> None:
    if _state is not None:
        _state.phase = phase


def flush() -> None:
    if _state is not None:
        _state.flush()


def _names(tables) -> list[str]:
    return [getattr(table, "name", "") for table in tables]


def _phase_from(names: list[str]) -> str | None:
    return names[0].split(".", 1)[0] if names and "." in names[0] else None


# ------------------------------------------------------------------ wrappers
def _accumulate(owner, attribute: str, name: str, units=None) -> None:
    """Add wall time (and *units(args)*) of ``owner.attribute`` to *name*."""
    original = getattr(owner, attribute)

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        started = time.perf_counter()
        try:
            return original(*args, **kwargs)
        finally:
            _state.add(name, time.perf_counter() - started, units(args, kwargs) if units else 0)

    setattr(owner, attribute, wrapper)


def _count(owner, attribute: str, name: str) -> None:
    """Count calls of ``owner.attribute`` (too frequent and short to time)."""
    original = getattr(owner, attribute)

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        _state.add(name, 0.0)
        return original(*args, **kwargs)

    setattr(owner, attribute, wrapper)


def _kernel_counts() -> tuple[int, int]:
    from repro.core import colblock

    stats = colblock.kernel_stats()
    return int(stats["kernel_hits"]), int(stats["kernel_fallbacks"])


def _store_counts() -> tuple[int, int]:
    from repro.core.table import get_active_profile_store

    store = get_active_profile_store()
    if store is None:
        return 0, 0
    lookups = int(store.lookups)
    return lookups - int(store.misses), lookups


def _batch_span(owner, attribute: str, name: str, tables_arg: int) -> None:
    """Span over a call that takes a list of tables; records counter deltas.

    The phase is read from the request ids, so workers forked before the
    phase changed still attribute their work correctly.
    """
    original = getattr(owner, attribute)

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        # Both wrapped callables take the tables positionally; an iterator
        # is materialised so reading the names does not consume it.
        tables = args[tables_arg]
        if not isinstance(tables, (list, tuple)):
            tables = list(tables)
            args = (*args[:tables_arg], tables, *args[tables_arg + 1:])
        names = _names(tables)
        phase = _phase_from(names)
        if phase is not None:
            _state.phase = phase
        kernels_before = _kernel_counts()
        store_before = _store_counts()
        started = time.perf_counter()
        try:
            return original(*args, **kwargs)
        finally:
            ended = time.perf_counter()
            kernels_after = _kernel_counts()
            store_after = _store_counts()
            extra = {
                "pid": os.getpid(),
                "kernel_hits": kernels_after[0] - kernels_before[0],
                "kernel_fallbacks": kernels_after[1] - kernels_before[1],
                "store_hits": store_after[0] - store_before[0],
                "store_lookups": store_after[1] - store_before[1],
            }
            _state.span(name, names, started, ended, extra)
            if _state.in_worker():
                _state.flush()

    setattr(owner, attribute, wrapper)


def _request_span(owner, attribute: str, name: str) -> None:
    """Span over an ``async`` per-request call whose first argument is a table."""
    original = getattr(owner, attribute)
    assert inspect.iscoroutinefunction(original), f"{owner.__name__}.{attribute} is not async"

    @functools.wraps(original)
    async def wrapper(self, table, *args, **kwargs):
        started = time.perf_counter()
        try:
            return await original(self, table, *args, **kwargs)
        finally:
            _state.span(name, table.name, started, time.perf_counter(), {"pid": os.getpid()})
            if _state.in_worker():
                _state.flush()

    setattr(owner, attribute, wrapper)


def _columns_entering(args, kwargs) -> int:
    # predict_columns(self, table, column_indices=None)
    indices = args[2] if len(args) > 2 else kwargs.get("column_indices")
    return len(indices) if indices is not None else args[1].num_columns


def install(directory: str | os.PathLike) -> None:
    """Wrap every traced callable; call before any pool or backend forks."""
    global _state
    if _state is not None:
        return
    _state = _Tracer(Path(directory))
    os.register_at_fork(after_in_child=_state._after_fork)

    from repro.adaptation.customer import CustomerContext
    from repro.adaptation.local_model import LocalModel
    from repro.core.aggregation import Aggregator
    from repro.core.pipeline import TypeDetectionPipeline
    from repro.core.sigmatyper import SigmaTyper
    from repro.dpbd import label_model, lf_inference
    from repro.dpbd.session import DPBDSession
    from repro.embedding_model import features
    from repro.embedding_model.classifier import TableEmbeddingClassifier
    from repro.embedding_model.features import ColumnFeaturizer
    from repro.embedding_model.step import TableEmbeddingStep
    from repro.lookup import labeling_functions
    from repro.lookup.value_matcher import ValueLookupStep
    from repro.matching.header_matcher import HeaderMatcher
    from repro import profiler
    from repro.profiler import expectations, statistics
    from repro.serving.pool import AnnotationPool
    from repro.serving.service import AnnotationService

    # serving layers: one span per request, merged across processes by id
    _request_span(AnnotationPool, "annotate", "pool.annotate")
    _request_span(AnnotationService, "annotate", "service.annotate")
    # one span per batch: the service's annotate_corpus call in a pool
    # worker, the whole scan in catalog_scan, and each backend shard
    _batch_span(SigmaTyper, "annotate_corpus", "typer.annotate_corpus", 1)
    _batch_span(TypeDetectionPipeline, "annotate_many", "pipeline.annotate_many", 1)

    # the cascade and its steps
    _accumulate(TypeDetectionPipeline, "annotate", "pipeline")
    for step in (HeaderMatcher, ValueLookupStep, TableEmbeddingStep):
        _accumulate(step, "predict_columns", step.name, _columns_entering)
    _accumulate(Aggregator, "combine", "aggregation")
    original_profile = statistics.profile_column
    _accumulate(statistics, "profile_column", "profiler")
    for module in (features, lf_inference, expectations, profiler):
        if getattr(module, "profile_column", None) is original_profile:
            module.profile_column = statistics.profile_column
    _accumulate(ColumnFeaturizer, "extract_many", "features")
    _accumulate(TableEmbeddingClassifier, "predict_proba_batch", "nn")

    # adaptation and the DPBD feedback loop
    _accumulate(LocalModel, "predict_scores_table", "adaptation.local_model")
    _accumulate(CustomerContext, "apply", "adaptation.apply")
    _accumulate(DPBDSession, "relabel", "dpbd.relabel")
    _accumulate(SigmaTyper, "give_feedback", "give_feedback")
    for cls in vars(label_model).values():
        if inspect.isclass(cls) and "label_distributions" in vars(cls):
            _accumulate(cls, "label_distributions", "dpbd.label_model")
    for cls in vars(labeling_functions).values():
        if (
            inspect.isclass(cls)
            and issubclass(cls, labeling_functions.LabelingFunction)
            and "apply" in vars(cls)
            and not inspect.isabstract(cls)
        ):
            _count(cls, "apply", "labeling_functions")


# ------------------------------------------------------------------- reading
def load(directory: str | os.PathLike) -> tuple[list, dict]:
    """All spans and the per-phase totals summed over processes."""
    spans: list = []
    totals: dict = {}
    for path in sorted(Path(directory).glob("spans-*.jsonl")):
        with open(path, encoding="utf-8") as handle:
            for line in handle:
                record = json.loads(line)
                spans.extend(record["spans"])
                for phase, names in record["totals"].items():
                    for name, (seconds, calls, units) in names.items():
                        bucket = totals.setdefault(phase, {}).setdefault(name, [0.0, 0, 0])
                        bucket[0] += seconds
                        bucket[1] += calls
                        bucket[2] += units
    return spans, totals
