"""The default in-process backend: deterministic, zero-dependency.

The dictionaries hold the same codec bytes SQLite stores: the shared
:class:`~repro.storage.backend.Table`/``Log`` surface encodes on write
and decodes on read, so the in-memory backend has *exactly* the
round-trip semantics of SQLite (tuples come back as lists, dict keys as
strings, bytes as bytes) — a test that passes here passes there.  The
tagged binary codec makes that parity cheap: byte strings are copied,
not text-escaped.
"""

from __future__ import annotations

from repro.storage.backend import StorageBackend

__all__ = ["MemoryBackend"]


class MemoryBackend(StorageBackend):
    """Dictionaries behind the :class:`StorageBackend` interface."""

    kind = "memory"

    def __init__(self) -> None:
        super().__init__()
        self._tables: dict[str, dict[str, bytes]] = {}
        self._logs: dict[str, list[bytes]] = {}

    # -- table primitives ----------------------------------------------------
    def _table_get(self, table: str, key: str) -> bytes | None:
        return self._tables.get(table, {}).get(key)

    def _table_put(self, table: str, key: str, data: bytes) -> None:
        self._tables.setdefault(table, {})[key] = data

    def _table_delete(self, table: str, key: str) -> None:
        self._tables.get(table, {}).pop(key, None)

    def _table_keys(self, table: str) -> list[str]:
        return sorted(self._tables.get(table, {}))

    def _table_dump(self, table: str) -> list[tuple[str, bytes]]:
        rows = self._tables.get(table, {})
        return [(key, rows[key]) for key in sorted(rows)]

    def _table_names(self) -> list[str]:
        return sorted(name for name, rows in self._tables.items() if rows)

    # -- log primitives ------------------------------------------------------
    def _log_append(self, log: str, data: bytes) -> int:
        records = self._logs.setdefault(log, [])
        records.append(data)
        return len(records)

    def _log_records(self, log: str) -> list[bytes]:
        return list(self._logs.get(log, ()))

    def _log_truncate(self, log: str) -> None:
        self._logs.pop(log, None)

    def _log_len(self, log: str) -> int:
        return len(self._logs.get(log, ()))

    def _log_names(self) -> list[str]:
        return sorted(name for name, records in self._logs.items() if records)

    def _clear(self) -> None:
        self._tables.clear()
        self._logs.clear()
