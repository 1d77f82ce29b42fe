"""Typed serving configuration: frozen spec dataclasses over the spec strings.

The serving layer grew up on **spec strings** — ``"multiprocess:8"``,
``"tcp://worker-a:7071"`` — because they travel well (CLI flags, env vars,
benchmark JSON).  They stay first-class.  What this module adds is the typed
form underneath: a small family of frozen dataclasses that parse from and
print back to exactly those strings, so programmatic callers stop growing
keyword sprawl and string-assembling code, and the two forms can never
drift (``str(ServingSpec.parse(s)) == s`` for every canonical spec string —
pinned by ``tests/test_pool.py``).

Grammar (canonical forms; every documented spec string in
docs/SERVING.md round-trips)::

    serving   := [ "pool:" N "@" ] backend | "pool:" N
    backend   := name [ ":" workers ] [ "+" transport ]
    name      := "serial" | "multiprocess"
    transport := "pickle" | "tcp" [ "://" host ":" port { "," host ":" port } ]

This module is the one parser of that grammar: every ``resolve_*`` entry
point and serving constructor accepts either form, and parses strings through
it — :func:`repro.serving.backends.resolve_backend` takes a
:class:`BackendSpec` (or :class:`ServingSpec`),
:func:`repro.serving.transport.resolve_transport` a :class:`TransportSpec`,
:class:`~repro.serving.frontend.AnnotationFrontend` a :class:`FrontendSpec`,
and :class:`~repro.serving.pool.AnnotationPool` a :class:`PoolSpec` /
:class:`ServingSpec`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from typing import TYPE_CHECKING

from repro.core.errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.serving.backends import ExecutionBackend
    from repro.serving.frontend import FrontendConfig
    from repro.serving.profile_store import ProfileStore
    from repro.serving.transport import Transport

__all__ = [
    "BackendSpec",
    "TransportSpec",
    "StoreSpec",
    "PoolSpec",
    "FrontendSpec",
    "ServingSpec",
]

_BACKEND_NAMES = ("serial", "multiprocess")
_TRANSPORT_NAMES = ("pickle", "tcp")
#: Spec values that no longer exist → what to write instead.
_REMOVED = {
    "threaded": "the 'threaded' backend was removed; use 'serial' or 'multiprocess[:N]'",
    "shm": "the 'shm' transport was removed; use 'multiprocess[:N]' (pickle)",
}


def _parse_peers(text: str, spec: str) -> tuple[tuple[str, int], ...]:
    """``host:port[,host:port...]`` → peer tuples (strict: ports are ints)."""
    peers = []
    for item in text.split(","):
        host, sep, port = item.strip().rpartition(":")
        if not sep or not host:
            raise ConfigurationError(
                f"invalid peer {item!r} in transport spec {spec!r}; expected host:port"
            )
        try:
            peers.append((host, int(port)))
        except ValueError as exc:
            raise ConfigurationError(
                f"invalid peer port {port!r} in transport spec {spec!r}"
            ) from exc
    return tuple(peers)


@dataclass(frozen=True)
class TransportSpec:
    """A shard transport: ``pickle`` | ``tcp[://host:port,...]``."""

    name: str = "pickle"
    #: ``(host, port)`` worker peers; only meaningful for the ``tcp``
    #: transport (empty = peers come from ``$REPRO_NET_PEERS``).
    peers: tuple[tuple[str, int], ...] = ()

    def __post_init__(self) -> None:
        if self.name in _REMOVED:
            raise ConfigurationError(_REMOVED[self.name])
        if self.name not in _TRANSPORT_NAMES:
            raise ConfigurationError(
                f"unknown transport {self.name!r}; expected one of {list(_TRANSPORT_NAMES)}"
            )
        if self.peers and self.name != "tcp":
            raise ConfigurationError(
                f"transport {self.name!r} does not take peers (only 'tcp' does)"
            )

    @classmethod
    def parse(cls, spec: str) -> "TransportSpec":
        if spec.startswith("tcp://"):
            return cls(name="tcp", peers=_parse_peers(spec[len("tcp://") :], spec))
        return cls(name=spec)

    def __str__(self) -> str:
        if self.peers:
            return "tcp://" + ",".join(f"{host}:{port}" for host, port in self.peers)
        return self.name

    def resolve(self) -> "Transport":
        """Build the :class:`~repro.serving.transport.Transport` this names."""
        from repro.serving.transport import resolve_transport

        return resolve_transport(self)


@dataclass(frozen=True)
class BackendSpec:
    """An execution backend: ``name[:workers][+transport]``."""

    name: str = "serial"
    workers: int | None = None
    transport: TransportSpec | None = None

    def __post_init__(self) -> None:
        if self.name in _REMOVED:
            raise ConfigurationError(_REMOVED[self.name])
        if self.name not in _BACKEND_NAMES:
            raise ConfigurationError(
                f"unknown execution backend {self.name!r}; "
                f"expected one of {list(_BACKEND_NAMES)}"
            )
        if self.workers is not None and self.workers < 1:
            raise ConfigurationError("backend workers must be at least 1")
        if self.transport is not None and self.name != "multiprocess":
            raise ConfigurationError(
                f"backend {self.name!r} names a shard transport, but only the "
                "multiprocess backend ships shards across a process boundary"
            )

    @classmethod
    def parse(cls, spec: str) -> "BackendSpec":
        base, _, transport_text = spec.partition("+")
        name, _, workers_text = base.partition(":")
        try:
            workers = int(workers_text) if workers_text else None
        except ValueError as exc:
            raise ConfigurationError(f"invalid worker count in backend spec {spec!r}") from exc
        transport = TransportSpec.parse(transport_text) if transport_text else None
        return cls(name=name, workers=workers, transport=transport)

    def __str__(self) -> str:
        text = self.name
        if self.workers is not None:
            text += f":{self.workers}"
        if self.transport is not None:
            text += f"+{self.transport}"
        return text

    def resolve(self) -> "ExecutionBackend":
        """Build the :class:`~repro.serving.backends.ExecutionBackend`."""
        from repro.serving.backends import resolve_backend

        return resolve_backend(self)


@dataclass(frozen=True)
class StoreSpec:
    """A profile store: in-memory LRU, or a persistent disk tier under it.

    ``directory=None`` builds a plain :class:`~repro.serving.profile_store.
    ProfileStore`; a directory builds a :class:`~repro.serving.profile_store.
    PersistentProfileStore` over it.  String forms: ``memory[:max_columns]``
    and ``disk:<directory>[:max_columns]``.
    """

    directory: str | None = None
    max_columns: int = 4096
    flush_interval: float = 1.0
    segment_max_bytes: int = 32 * 1024 * 1024
    compaction_dead_ratio: float = 0.5
    share_across_processes: bool = True

    @classmethod
    def parse(cls, spec: str) -> "StoreSpec":
        kind, _, rest = spec.partition(":")
        if kind == "memory":
            if not rest:
                return cls()
            try:
                return cls(max_columns=int(rest))
            except ValueError as exc:
                raise ConfigurationError(f"invalid store spec {spec!r}") from exc
        if kind == "disk" and rest:
            directory, _, max_text = rest.rpartition(":")
            if directory and max_text.isdigit():
                return cls(directory=directory, max_columns=int(max_text))
            return cls(directory=rest)
        raise ConfigurationError(
            f"invalid store spec {spec!r}; expected 'memory[:max]' or 'disk:<dir>[:max]'"
        )

    def __str__(self) -> str:
        suffix = f":{self.max_columns}" if self.max_columns != 4096 else ""
        if self.directory is None:
            return f"memory{suffix}"
        return f"disk:{self.directory}{suffix}"

    def build(self) -> "ProfileStore":
        """Build the store this spec names (persistent when on disk)."""
        from repro.serving.profile_store import PersistentProfileStore, ProfileStore

        if self.directory is None:
            return ProfileStore(max_columns=self.max_columns)
        return PersistentProfileStore(
            self.directory,
            max_columns=self.max_columns,
            flush_interval=self.flush_interval,
            segment_max_bytes=self.segment_max_bytes,
            compaction_dead_ratio=self.compaction_dead_ratio,
            share_across_processes=self.share_across_processes,
        )


@dataclass(frozen=True)
class PoolSpec:
    """A worker pool: N annotation processes behind one warm-routing dispatcher.

    String form: ``pool:N`` (everything beyond the worker count is
    kwargs-only — routing knobs do not travel in spec strings).
    """

    workers: int = 2
    #: ``Column.content_hash()`` hex-prefix length the warmth index keys on.
    prefix_len: int = 8
    #: Queue depth above which the warm worker is escaped for the least
    #: loaded one (the load-balance hatch).
    queue_depth_bound: int = 4
    #: Pre-load each worker's LRU from the shared segment directory at start.
    prewarm: bool = True
    #: Seconds between liveness pings (also bounds dead-worker detection).
    heartbeat_interval: float = 0.25
    #: ``"warm"`` (warmth/rendezvous affinity) or ``"round-robin"`` (blind
    #: baseline — what E17 compares against).
    routing: str = "warm"
    #: Restart a dead worker in place (and re-dispatch its in-flight work).
    restart: bool = True

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ConfigurationError("pool workers must be at least 1")
        if self.prefix_len < 1 or self.prefix_len > 32:
            raise ConfigurationError("prefix_len must be in [1, 32]")
        if self.queue_depth_bound < 1:
            raise ConfigurationError("queue_depth_bound must be at least 1")
        if self.heartbeat_interval <= 0:
            raise ConfigurationError("heartbeat_interval must be positive")
        if self.routing not in ("warm", "round-robin"):
            raise ConfigurationError(
                f"unknown routing {self.routing!r}; expected 'warm' or 'round-robin'"
            )

    @classmethod
    def parse(cls, spec: str) -> "PoolSpec":
        name, _, workers_text = spec.partition(":")
        if name != "pool":
            raise ConfigurationError(f"invalid pool spec {spec!r}; expected 'pool[:N]'")
        if not workers_text:
            return cls()
        try:
            return cls(workers=int(workers_text))
        except ValueError as exc:
            raise ConfigurationError(f"invalid worker count in pool spec {spec!r}") from exc

    def __str__(self) -> str:
        return f"pool:{self.workers}"


@dataclass(frozen=True)
class FrontendSpec:
    """Frozen twin of :class:`~repro.serving.frontend.FrontendConfig`.

    Kwargs-only (no string form): the HTTP edge's knobs never travelled in
    spec strings.  :meth:`to_config` builds the mutable, validated config the
    frontend consumes; :class:`~repro.serving.frontend.AnnotationFrontend`
    accepts either form directly.
    """

    host: str = "127.0.0.1"
    port: int = 0
    tenant_rate: float | None = 50.0
    tenant_burst: float = 20.0
    max_pending_per_tenant: int = 64
    max_pending_total: int = 512
    default_deadline: float | None = 2.0
    drain_timeout: float = 10.0
    request_timeout: float = 30.0
    keepalive_timeout: float = 15.0
    max_body_bytes: int = 8 * 1024 * 1024

    def to_config(self) -> "FrontendConfig":
        from repro.serving.frontend import FrontendConfig

        return FrontendConfig(
            **{f.name: getattr(self, f.name) for f in fields(self)}
        ).validate()


@dataclass(frozen=True)
class ServingSpec:
    """The composite: backend + optional pool/store/frontend sections.

    :meth:`parse` accepts every documented backend spec string, plus the
    pool forms (``pool:4``, ``pool:4@multiprocess:2+tcp``),
    and ``str()`` reproduces the input exactly — the round-trip contract the
    PR 10 acceptance gate pins.
    """

    backend: BackendSpec = field(default_factory=BackendSpec)
    pool: PoolSpec | None = None
    store: StoreSpec | None = None
    frontend: FrontendSpec | None = None

    @classmethod
    def parse(cls, spec: str) -> "ServingSpec":
        text = spec.strip()
        if not text:
            raise ConfigurationError("empty serving spec")
        if text.startswith("pool"):
            pool_text, sep, backend_text = text.partition("@")
            pool = PoolSpec.parse(pool_text)
            if sep and not backend_text:
                raise ConfigurationError(f"dangling '@' in serving spec {spec!r}")
            backend = BackendSpec.parse(backend_text) if backend_text else BackendSpec()
            return cls(backend=backend, pool=pool)
        return cls(backend=BackendSpec.parse(text))

    def __str__(self) -> str:
        if self.pool is None:
            return str(self.backend)
        if self.backend == BackendSpec():
            return str(self.pool)
        return f"{self.pool}@{self.backend}"

    def with_store(self, store: StoreSpec) -> "ServingSpec":
        return replace(self, store=store)

    def resolve_backend(self) -> "ExecutionBackend":
        return self.backend.resolve()
