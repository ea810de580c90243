"""Storage-layer errors."""

from __future__ import annotations

from repro.errors import ReproError

__all__ = ["StorageError", "StorageCorruptError", "SnapshotError"]


class StorageError(ReproError):
    """A persistence backend refused or failed an operation."""

    code = "storage.backend"


class StorageCorruptError(StorageError):
    """Stored bytes do not decode as a storage value."""

    code = "storage.corrupt"


class SnapshotError(StorageError):
    """A grid snapshot could not be taken or restored."""

    code = "storage.snapshot"
