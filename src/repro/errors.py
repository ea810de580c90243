"""The unified exception hierarchy of the reproduction.

Historically each layer grew its own error module (``net``, ``server``,
``batch``, ``vfs``, ``resources``, ``security``, ``ajo``, ``protocol``),
which forced facade callers to import from six places to write one
``except`` clause.  Every layer base class now derives from
:class:`ReproError`, so:

* ``except ReproError`` catches anything the middleware itself raises
  (simulated-infrastructure failures, validation, security refusals),
  while genuine programming errors (``TypeError`` et al.) still escape;
* every exception class carries a stable machine-readable :attr:`code`
  (``"net.connection_lost"``, ``"server.consign"``, ...) that survives
  refactors and message-text changes — the contract facade callers and
  the fault-injection tooling key on.

All historical names are re-exported here, so

    from repro.errors import ConnectionLost, ConsignError, BatchError

works regardless of which layer defines them.  The re-export is lazy
(PEP 562) because the layer modules import :class:`ReproError` from
here — eager imports would cycle.
"""

from __future__ import annotations

import typing

__all__ = [
    "ReproError",
    "ERROR_CODES",
    "DuplicateErrorCode",
    "error_code_registry",
    "iter_error_classes",
    # net
    "NetworkError", "HostUnreachable", "ConnectionLost", "ConnectionRefused",
    "ConnectionReset", "FrameError", "FrameDecodeError", "TransportMismatch",
    # server
    "ServerError", "ConsignError", "IncarnationError", "UnknownUnicoreJobError",
    # batch
    "BatchError", "UnknownQueueError", "JobRejectedError", "UnknownJobError",
    "SystemOfflineError",
    # vfs
    "VFSError", "FileNotFoundVFSError", "FileExistsVFSError", "QuotaExceededError",
    # resources
    "ResourceError", "ResourcePageError", "ResourceRequestError",
    # security
    "SecurityError", "CertificateError", "CertificateExpired",
    "CertificateRevoked", "UntrustedIssuer", "SignatureInvalid",
    "TamperedBundleError", "AuthenticationError", "MappingError",
    # ajo
    "AJOError", "ValidationError", "DependencyCycleError", "SerializationError",
    "UnsafePathError",
    # protocol
    "RetryExhausted", "PollBudgetExhausted",
    # facade
    "WaitTimeout",
    # faults / resilience
    "FaultError", "CircuitOpenError", "ServiceUnavailable",
    # federation broker
    "BrokerError", "BrokerQuotaError", "NoCapacityError",
    # storage
    "StorageError", "StorageCorruptError", "SnapshotError",
]


class ReproError(Exception):
    """Base class for every error the simulated middleware raises.

    :attr:`code` is a stable dotted identifier (``layer.condition``)
    meant for programmatic handling; subclasses override it.
    """

    code: str = "repro.error"


class WaitTimeout(ReproError):
    """A bounded wait gave up before the job reached a terminal state.

    Raised by the facade tier (``GridSession.wait`` /
    ``JobMonitorController.wait_for_completion``) when the caller's poll
    budget runs out.  The job is *not* known to have failed — it simply
    was not terminal yet — so this is deliberately not a transport error
    and is never retried on the caller's behalf.
    """

    code = "api.wait_timeout"

    def __init__(self, job_id: str, polls: int) -> None:
        super().__init__(
            f"job {job_id} not terminal after {polls} status polls"
        )
        self.job_id = job_id
        self.polls = polls


#: Which layer module defines each re-exported name.
_HOMES = {
    "NetworkError": "repro.net.errors",
    "HostUnreachable": "repro.net.errors",
    "ConnectionLost": "repro.net.errors",
    "ConnectionRefused": "repro.net.errors",
    "ConnectionReset": "repro.net.errors",
    "FrameError": "repro.net.errors",
    "FrameDecodeError": "repro.net.errors",
    "TransportMismatch": "repro.net.errors",
    "ServerError": "repro.server.errors",
    "ConsignError": "repro.server.errors",
    "IncarnationError": "repro.server.errors",
    "UnknownUnicoreJobError": "repro.server.errors",
    "BatchError": "repro.batch.errors",
    "UnknownQueueError": "repro.batch.errors",
    "JobRejectedError": "repro.batch.errors",
    "UnknownJobError": "repro.batch.errors",
    "SystemOfflineError": "repro.batch.errors",
    "VFSError": "repro.vfs.errors",
    "FileNotFoundVFSError": "repro.vfs.errors",
    "FileExistsVFSError": "repro.vfs.errors",
    "QuotaExceededError": "repro.vfs.errors",
    "ResourceError": "repro.resources.errors",
    "ResourcePageError": "repro.resources.errors",
    "ResourceRequestError": "repro.resources.errors",
    "SecurityError": "repro.security.errors",
    "CertificateError": "repro.security.errors",
    "CertificateExpired": "repro.security.errors",
    "CertificateRevoked": "repro.security.errors",
    "UntrustedIssuer": "repro.security.errors",
    "SignatureInvalid": "repro.security.errors",
    "TamperedBundleError": "repro.security.errors",
    "AuthenticationError": "repro.security.errors",
    "MappingError": "repro.security.errors",
    "AJOError": "repro.ajo.errors",
    "ValidationError": "repro.ajo.errors",
    "DependencyCycleError": "repro.ajo.errors",
    "SerializationError": "repro.ajo.errors",
    "UnsafePathError": "repro.ajo.errors",
    "RetryExhausted": "repro.protocol.retry",
    "PollBudgetExhausted": "repro.protocol.retry",
    "FaultError": "repro.faults.errors",
    "CircuitOpenError": "repro.faults.errors",
    "ServiceUnavailable": "repro.faults.errors",
    "BrokerError": "repro.broker.errors",
    "BrokerQuotaError": "repro.broker.errors",
    "NoCapacityError": "repro.broker.errors",
    "StorageError": "repro.storage.errors",
    "StorageCorruptError": "repro.storage.errors",
    "SnapshotError": "repro.storage.errors",
}


class DuplicateErrorCode(RuntimeError):
    """Two exception classes declared the same stable ``code``.

    Codes are a wire contract (``Reply.error_code``): a collision would
    make the client-side re-raise ambiguous, so the registry refuses to
    build instead of silently picking a winner.
    """


#: Error classes that live outside the ``_HOMES`` layer modules but
#: still participate in the code registry.
_EXTRA_HOMES = ("repro.analysis.diagnostics",)


def iter_error_classes() -> "typing.Iterator[type[ReproError]]":
    """Every :class:`ReproError` subclass the middleware defines.

    Imports each layer error module first so the subclass walk is
    complete, then yields classes defined inside ``repro.*`` (test
    suites subclass :class:`ReproError` too; those stay out of the
    registry).  Deterministic order: module, then qualified name.
    """
    import importlib

    for home in sorted(set(_HOMES.values()) | set(_EXTRA_HOMES)):
        importlib.import_module(home)

    seen: set[type[ReproError]] = set()

    def walk(cls: "type[ReproError]") -> None:
        if cls in seen or not cls.__module__.startswith("repro."):
            return
        seen.add(cls)
        for sub in cls.__subclasses__():
            walk(sub)

    walk(ReproError)
    yield from sorted(seen, key=lambda c: (c.__module__, c.__qualname__))


def error_code_registry() -> "typing.Mapping[str, type[ReproError]]":
    """The canonical ``code -> exception class`` map, built on demand.

    Only classes that *declare* their own ``code`` (rather than inherit
    a parent's) register — a subclass without a declaration shares its
    parent's wire identity, which :mod:`repro.devlint` flags separately.
    Raises :class:`DuplicateErrorCode` if two classes claim one code.
    """
    registry: dict[str, type[ReproError]] = {}
    for cls in iter_error_classes():
        own = cls.__dict__.get("code")
        if not isinstance(own, str):
            continue
        holder = registry.get(own)
        if holder is not None and holder is not cls:
            raise DuplicateErrorCode(
                f"error code {own!r} declared by both "
                f"{holder.__module__}.{holder.__qualname__} and "
                f"{cls.__module__}.{cls.__qualname__}"
            )
        registry[own] = cls
    import types

    return types.MappingProxyType(dict(sorted(registry.items())))


def __getattr__(name: str):
    if name == "ERROR_CODES":
        registry = error_code_registry()
        globals()["ERROR_CODES"] = registry  # build once, then module speed
        return registry
    home = _HOMES.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(home), name)


def __dir__() -> list[str]:
    return sorted(__all__)
