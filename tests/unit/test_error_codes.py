"""The canonical error-code registry (repro.errors.ERROR_CODES).

The registry is the single source of truth the RD2xx devlint rules and
the README error table are checked against, so this suite pins its
contract: completeness over every layer, the declare-your-own-code
registration rule, the duplicate guard, and the lazy re-export shim.
"""

import gc

import pytest

import repro.errors as errors_module
from repro.errors import (
    DuplicateErrorCode,
    ReproError,
    error_code_registry,
    iter_error_classes,
)


def test_registry_spans_every_layer():
    registry = error_code_registry()
    # One spot-check per layer module that contributes codes.
    for code in (
        "repro.error", "api.wait_timeout", "net.error", "server.consign",
        "batch.error", "vfs.quota", "resources.page",
        "security.authentication", "ajo.dependency_cycle",
        "protocol.retry_exhausted", "faults.circuit_open",
        "broker.no_capacity", "storage.snapshot", "storage.corrupt",
    ):
        assert code in registry, code
    assert len(registry) >= 40


def test_every_code_is_dotted_lower_snake():
    for code, cls in error_code_registry().items():
        assert "." in code, f"{cls.__qualname__}: {code!r} is not dotted"
        assert code == code.lower(), f"{cls.__qualname__}: {code!r}"
        assert " " not in code


def test_subclass_without_own_code_shares_parent_identity():
    # FileNotFoundVFSError-style classes that do declare their own code
    # register; a class that only inherits must not shadow its parent.
    registry = error_code_registry()
    for code, cls in registry.items():
        assert cls.__dict__.get("code") == code


def test_iter_error_classes_is_deterministic_and_repro_only():
    first = list(iter_error_classes())
    second = list(iter_error_classes())
    assert first == second
    assert all(cls.__module__.startswith("repro.") for cls in first)
    assert all(issubclass(cls, ReproError) for cls in first)


def test_duplicate_code_refuses_to_build_registry():
    # Two classes claiming one wire code must abort the build loudly —
    # silently picking a winner would make client-side re-raise
    # ambiguous.  The fakes masquerade as repro-internal classes so the
    # module filter admits them, and are garbage-collected afterwards so
    # later registry builds in this process see the clean hierarchy.
    ns = {"code": "zz.collision", "__module__": "repro._test_dup"}
    first = type("FirstCollider", (ReproError,), dict(ns))
    second = type("SecondCollider", (ReproError,), dict(ns))
    try:
        with pytest.raises(DuplicateErrorCode, match="zz.collision"):
            error_code_registry()
    finally:
        del first, second
        gc.collect()
    assert "zz.collision" not in error_code_registry()


def test_error_codes_attribute_is_lazy_and_cached():
    errors_module.__dict__.pop("ERROR_CODES", None)
    registry = errors_module.ERROR_CODES
    assert registry is errors_module.__dict__["ERROR_CODES"]
    assert registry["net.error"] is errors_module.NetworkError
    with pytest.raises(TypeError):
        registry["net.error"] = None  # read-only mapping


def test_lazy_reexport_resolves_layer_names():
    from repro.batch.errors import UnknownQueueError

    assert errors_module.UnknownQueueError is UnknownQueueError
    with pytest.raises(AttributeError, match="NoSuchError"):
        errors_module.NoSuchError
    assert "ConsignError" in dir(errors_module)
