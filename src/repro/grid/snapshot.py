"""Whole-grid checkpointing: freeze a deployment, thaw it later.

A :class:`GridSnapshot` is everything needed to rebuild a grid that
*continues* the original run rather than starting over:

* the **build recipe** (sites, seed, WAN shape, gateway counts) — the
  deterministic part, re-executed on restore so hosts, certificates, and
  links come back identical;
* the **storage dump** — every durable table and log (NJS journals,
  outcome stores, UUDB mappings, resource pages, job-id cursors);
* the **simkernel cursors** — virtual clock, per-link loss-RNG states,
  and the network message-id counter, so the resumed run draws the exact
  sequences the uninterrupted run would have;
* the **user recipes** and their workstation files, re-registered
  without touching the UUDB (the mappings are already in the dump).

What a snapshot deliberately does *not* carry: in-flight simulation
events and live client sessions.  Jobs caught mid-run are journaled, so
:func:`repro.grid.build.build_grid` with ``restore_from=`` recovers them
the same way a crashed NJS does — replay — while finished jobs come back
as restored listings.  Take snapshots at quiescent points (no pending
events) when byte-identical continuation matters.
"""

from __future__ import annotations

import typing
from dataclasses import dataclass, field

from repro.storage.codec import decode_value, encode_value
from repro.storage.errors import SnapshotError, StorageError

__all__ = ["GridSnapshot", "SNAPSHOT_VERSION"]

#: Bump when the on-disk layout changes incompatibly.
SNAPSHOT_VERSION = 2


@dataclass(slots=True)
class GridSnapshot:
    """A point-in-time image of a whole grid deployment."""

    clock: float
    build: dict
    users: list = field(default_factory=list)
    workstation_files: dict = field(default_factory=dict)
    storage: dict = field(default_factory=dict)
    network: dict = field(default_factory=dict)
    gateway_rr: dict = field(default_factory=dict)
    version: int = SNAPSHOT_VERSION

    # -- serialization -------------------------------------------------------
    def to_bytes(self) -> bytes:
        """Canonical encoding through the storage value codec."""
        return encode_value({
            "version": self.version,
            "clock": self.clock,
            "build": self.build,
            "users": self.users,
            "workstation_files": self.workstation_files,
            "storage": self.storage,
            "network": self.network,
            "gateway_rr": self.gateway_rr,
        })

    @classmethod
    def from_bytes(cls, raw: bytes) -> "GridSnapshot":
        try:
            plain = decode_value(raw)
        except StorageError as exc:
            raise SnapshotError(f"unreadable grid snapshot: {exc}") from exc
        if not isinstance(plain, dict):
            raise SnapshotError(
                f"unreadable grid snapshot: top level is "
                f"{type(plain).__name__}, not a record"
            )
        version = plain.get("version")
        if version != SNAPSHOT_VERSION:
            raise SnapshotError(
                f"snapshot version {version!r} not supported "
                f"(expected {SNAPSHOT_VERSION})"
            )
        return cls(
            clock=float(plain["clock"]),
            build=dict(plain["build"]),
            users=list(plain["users"]),
            workstation_files=dict(plain["workstation_files"]),
            storage=dict(plain["storage"]),
            network=dict(plain["network"]),
            gateway_rr=dict(plain.get("gateway_rr", {})),
            version=int(typing.cast(int, version)),
        )

    def save(self, path: str) -> None:
        with open(path, "wb") as fh:
            fh.write(self.to_bytes())

    @classmethod
    def load(cls, path: str) -> "GridSnapshot":
        with open(path, "rb") as fh:
            return cls.from_bytes(fh.read())

    # -- introspection -------------------------------------------------------
    def site_names(self) -> list[str]:
        return sorted(typing.cast(dict, self.build.get("sites", {})))

    def __repr__(self) -> str:
        return (
            f"<GridSnapshot v{self.version} clock={self.clock:.3f} "
            f"sites={self.site_names()} users={len(self.users)}>"
        )
