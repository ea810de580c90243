"""The pluggable persistence interface: tables, logs, and batches.

Section 4.2 makes the NJS the single stateful tier between users and
batch systems; this module defines the storage surface that state lives
behind, mirroring the transport split of :mod:`repro.net.transport`:

``"memory"``
    :class:`repro.storage.memory.MemoryBackend` — deterministic,
    zero-dependency dictionaries.  The default everywhere.

``"sqlite"``
    :class:`repro.storage.sqlite.SQLiteBackend` — real durability via
    the stdlib ``sqlite3``, either ``:memory:`` or an on-disk file.

The surface is deliberately tiny: named key/value **tables**
(:class:`Table`), named append-only **logs** (:class:`Log`), and a
transactional :meth:`StorageBackend.batch` grouping writes into one
durable unit.  Every stateful component — the NJS journal and outcome
store, UUDB mappings, resource pages — persists through these three
calls only, so flipping the backend never touches component logic.

Backend choice is one argument end to end: ``build_grid(storage=...)``
accepts a name, a ``"sqlite:/path/site.db"`` spec string, or a
:class:`StorageSpec`; ``None`` defers to the ``REPRO_STORAGE``
environment variable (so a whole test suite flips backends with no
per-test opt-ins) and finally to ``"memory"``.
"""

from __future__ import annotations

import os
import typing
from dataclasses import dataclass, field

from repro.storage.codec import decode_value, encode_value
from repro.storage.errors import StorageCorruptError, StorageError

if typing.TYPE_CHECKING:  # pragma: no cover
    import types

    from repro.observability.metrics import MetricsRegistry

__all__ = [
    "Table",
    "Log",
    "StorageBackend",
    "StorageSpec",
    "available_backends",
    "register_backend",
    "resolve_storage",
]

#: Environment variable consulted when no explicit spec is given.
STORAGE_ENV = "REPRO_STORAGE"


class Table:
    """A named key/value table (string keys, codec values)."""

    def __init__(self, backend: "StorageBackend", name: str) -> None:
        self._backend = backend
        self.name = name

    def get(self, key: str, default: object = None) -> object:
        data = self._backend._table_get(self.name, key)
        if data is None:
            return default
        self._backend._count_read(len(data))
        return decode_value(data)

    def put(self, key: str, value: object) -> None:
        data = encode_value(value)
        self._backend._table_put(self.name, key, data)
        self._backend._count_write(len(data))

    def delete(self, key: str) -> None:
        """Remove ``key`` (missing keys are fine)."""
        self._backend._table_delete(self.name, key)
        self._backend._count_write(0)

    def keys(self) -> list[str]:
        return self._backend._table_keys(self.name)

    def items(self) -> list[tuple[str, object]]:
        return [(key, self.get(key)) for key in self.keys()]

    def __contains__(self, key: str) -> bool:
        return self._backend._table_get(self.name, key) is not None

    def __len__(self) -> int:
        return len(self.keys())


class Log:
    """A named append-only record log (the write-ahead-journal shape)."""

    def __init__(self, backend: "StorageBackend", name: str) -> None:
        self._backend = backend
        self.name = name

    def append(self, value: object) -> int:
        """Durably append one record; returns its sequence number."""
        data = encode_value(value)
        seq = self._backend._log_append(self.name, data)
        self._backend._count_write(len(data))
        return seq

    def records(self) -> list[object]:
        """Every record, in append order."""
        rows = self._backend._log_records(self.name)
        self._backend._count_read(sum(len(row) for row in rows))
        return [decode_value(row) for row in rows]

    def truncate(self) -> None:
        """Drop every record (journal compaction)."""
        self._backend._log_truncate(self.name)
        self._backend._count_write(0)

    def __len__(self) -> int:
        return self._backend._log_len(self.name)


class StorageBackend:
    """Abstract persistence backend: tables + logs + transactional batches.

    Subclasses implement the underscore primitives; the public surface
    (:meth:`table`, :meth:`log`, :meth:`batch`, :meth:`dump`,
    :meth:`load`) plus all instrumentation is shared here.

    Counters (``writes``, ``reads``, ``fsyncs``, ``bytes_written``,
    ``bytes_read``) are plain attributes always maintained, and mirror
    into a :class:`~repro.observability.MetricsRegistry` once
    :meth:`bind_metrics` attaches one (``storage.writes`` et al.).
    """

    #: Registry name of the backend (``"memory"``, ``"sqlite"``).
    kind: str = "abstract"

    def __init__(self) -> None:
        self.writes = 0
        self.reads = 0
        self.fsyncs = 0
        self.bytes_written = 0
        self.bytes_read = 0
        self._metrics: MetricsRegistry | None = None
        self._batch_depth = 0

    # -- public surface ------------------------------------------------------
    def table(self, name: str) -> Table:
        return Table(self, name)

    def log(self, name: str) -> Log:
        return Log(self, name)

    def batch(self) -> typing.ContextManager[None]:
        """Group writes into one durable unit (one fsync, all-or-nothing)."""
        return _Batch(self)

    def bind_metrics(self, registry: "MetricsRegistry") -> None:
        """Mirror the storage counters into a metrics registry."""
        self._metrics = registry

    def close(self) -> None:
        """Release backend resources (no-op by default)."""

    # -- snapshot support ----------------------------------------------------
    def dump(self) -> dict[str, typing.Any]:
        """The entire backend contents as stored (codec bytes per row)."""
        tables = {
            name: dict(self._table_dump(name)) for name in self._table_names()
        }
        logs = {name: self._log_records(name) for name in self._log_names()}
        return {"tables": tables, "logs": logs}

    def load(self, dump: dict[str, typing.Any]) -> None:
        """Replace the backend contents with a :meth:`dump`.

        Rows are carried through as stored; each one is decoded (and a
        corrupt one reported as ``storage.corrupt``) when it is read.
        """
        self._clear()
        with self.batch():
            for name, rows in dump.get("tables", {}).items():
                for key, data in rows.items():
                    self._table_put(name, key, _row(data))
            for name, records in dump.get("logs", {}).items():
                for data in records:
                    self._log_append(name, _row(data))

    # -- instrumentation -----------------------------------------------------
    def _count_write(self, nbytes: int) -> None:
        self.writes += 1
        self.bytes_written += nbytes
        if self._metrics is not None:
            self._metrics.counter("storage.writes").inc()
            self._metrics.counter("storage.bytes").inc(nbytes)
        if self._batch_depth == 0:
            self._count_fsync()

    def _count_read(self, nbytes: int) -> None:
        self.reads += 1
        self.bytes_read += nbytes
        if self._metrics is not None:
            self._metrics.counter("storage.reads").inc()

    def _count_fsync(self) -> None:
        self.fsyncs += 1
        if self._metrics is not None:
            self._metrics.counter("storage.fsyncs").inc()

    # -- primitives (subclass responsibility) --------------------------------
    def _table_get(self, table: str, key: str) -> bytes | None:
        raise NotImplementedError

    def _table_put(self, table: str, key: str, data: bytes) -> None:
        raise NotImplementedError

    def _table_delete(self, table: str, key: str) -> None:
        raise NotImplementedError

    def _table_keys(self, table: str) -> list[str]:
        raise NotImplementedError

    def _table_dump(self, table: str) -> list[tuple[str, bytes]]:
        raise NotImplementedError

    def _table_names(self) -> list[str]:
        raise NotImplementedError

    def _log_append(self, log: str, data: bytes) -> int:
        raise NotImplementedError

    def _log_records(self, log: str) -> list[bytes]:
        raise NotImplementedError

    def _log_truncate(self, log: str) -> None:
        raise NotImplementedError

    def _log_len(self, log: str) -> int:
        raise NotImplementedError

    def _log_names(self) -> list[str]:
        raise NotImplementedError

    def _clear(self) -> None:
        raise NotImplementedError

    # -- transaction hooks ---------------------------------------------------
    def _begin(self) -> None:
        """Start a durable unit (outermost batch only)."""

    def _commit(self) -> None:
        """Commit the durable unit (outermost batch only)."""

    def _rollback(self) -> None:
        """Abandon the durable unit after an error (best effort)."""
        self._commit()


def _row(data: object) -> bytes:
    """A dumped row must be codec bytes; anything else is corruption."""
    if not isinstance(data, bytes):
        raise StorageCorruptError(
            f"dumped storage row is {type(data).__name__}, not bytes"
        )
    return data


class _Batch:
    """Reentrant batch context: one fsync at the outermost commit."""

    def __init__(self, backend: StorageBackend) -> None:
        self._backend = backend

    def __enter__(self) -> None:
        if self._backend._batch_depth == 0:
            self._backend._begin()
        self._backend._batch_depth += 1

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: types.TracebackType | None,
    ) -> None:
        self._backend._batch_depth -= 1
        if self._backend._batch_depth == 0:
            if exc_type is None:
                self._backend._commit()
                self._backend._count_fsync()
            else:
                self._backend._rollback()


@dataclass(frozen=True)
class StorageSpec:
    """A declarative backend choice: registry name plus options.

    Accepted anywhere storage is chosen (``build_grid(storage=...)``,
    ``Usite(storage=...)``) in any of these spellings::

        build_grid(sites)                                  # default "memory"
        build_grid(sites, storage="sqlite")                # by name
        build_grid(sites, storage="sqlite:/tmp/site.db")   # name:path
        build_grid(sites, storage=StorageSpec("sqlite", {"path": "x.db"}))

    ``parse(None)`` consults the ``REPRO_STORAGE`` environment variable
    (same spellings) before falling back to ``"memory"`` — that one hook
    flips an entire test suite onto SQLite with no per-test opt-ins.
    """

    kind: str = "memory"
    options: typing.Mapping[str, object] = field(default_factory=dict)

    @classmethod
    def parse(cls, value: "StorageSpec | str | None") -> "StorageSpec":
        """Coerce ``None`` / a name / a ``name:path`` string into a spec."""
        if value is None:
            value = os.environ.get(STORAGE_ENV) or "memory"
        if isinstance(value, cls):
            return value
        if isinstance(value, str):
            kind, _, path = value.partition(":")
            if path:
                return cls(kind=kind, options={"path": path})
            return cls(kind=kind)
        raise TypeError(
            f"storage must be a StorageSpec, backend name, or None; "
            f"got {value!r}"
        )


#: Backend registry: name -> factory(**options) -> StorageBackend.
_REGISTRY: dict[str, typing.Callable[..., StorageBackend]] = {}


def register_backend(
    kind: str, factory: typing.Callable[..., StorageBackend]
) -> None:
    """Register a storage backend under ``kind`` (last wins)."""
    _REGISTRY[kind] = factory


def available_backends() -> list[str]:
    return sorted(_REGISTRY)


def resolve_storage(spec: "StorageSpec | str | None" = None) -> StorageBackend:
    """Instantiate the backend a spec names.

    Raises :class:`StorageError` for an unknown kind, listing what is
    registered.
    """
    parsed = StorageSpec.parse(spec)
    factory = _REGISTRY.get(parsed.kind)
    if factory is None:
        raise StorageError(
            f"unknown storage backend {parsed.kind!r}; "
            f"registered: {', '.join(available_backends()) or '(none)'}"
        )
    return factory(**dict(parsed.options))


def _memory_factory(**options: object) -> StorageBackend:
    from repro.storage.memory import MemoryBackend

    return MemoryBackend(**typing.cast("dict[str, typing.Any]", options))


def _sqlite_factory(**options: object) -> StorageBackend:
    from repro.storage.sqlite import SQLiteBackend

    return SQLiteBackend(**typing.cast("dict[str, typing.Any]", options))


register_backend("memory", _memory_factory)
register_backend("sqlite", _sqlite_factory)
