"""Unit tests for the pluggable persistence layer.

Backends (memory + sqlite), the value codec and its corruption errors,
the snapshot format, spec parsing, transactional batches with rollback,
instrumentation counters, the journal-over-storage refactor, and the
deprecated-module compatibility shims.
"""

import json
import random
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.grid.snapshot import GridSnapshot

from repro.observability import MetricsRegistry
from repro.storage import (
    JobJournal,
    MemoryBackend,
    OutcomeRecord,
    OutcomeStore,
    SnapshotError,
    SQLiteBackend,
    StorageCorruptError,
    StorageError,
    StorageSpec,
    available_backends,
    decode_value,
    encode_value,
    resolve_storage,
)

BACKENDS = [MemoryBackend, SQLiteBackend]


# -- codec -------------------------------------------------------------------
def test_codec_round_trips_bytes_tuples_and_nesting():
    value = {
        "raw": b"\x00\xff\xca\xfe",
        "nested": {"list": [1, 2.5, None, True, False, b"x"]},
        "tuple": (1, "two", b"three"),
        "ints": [0, -1, 127, 128, -129, 2**200, -(2**70)],
        "floats": [-0.0, float("inf"), 1e-300],
        "text": "J\u00fclich \u2713",
        "empty": [b"", "", {}, [], ()],
        "buffer": bytearray(b"\x01\x02"),
        "keys": {1: "int", None: "none", 2.5: "float"},
    }
    decoded = decode_value(encode_value(value))
    assert decoded["raw"] == b"\x00\xff\xca\xfe"
    assert decoded["nested"]["list"] == [1, 2.5, None, True, False, b"x"]
    # Tuples canonicalize to lists; dict keys are coerced with str().
    assert decoded["tuple"] == [1, "two", b"three"]
    assert decoded["ints"] == value["ints"]
    assert decoded["floats"] == value["floats"]
    assert str(decoded["floats"][0]) == "-0.0"
    assert decoded["text"] == value["text"]
    assert decoded["empty"] == [b"", "", {}, [], []]
    assert type(decoded["buffer"]) is bytes and decoded["buffer"] == b"\x01\x02"
    assert decoded["keys"] == {"1": "int", "None": "none", "2.5": "float"}


def test_codec_is_canonical():
    a = encode_value({"b": 1, "a": 2})
    b = encode_value({"a": 2, "b": 1})
    assert a == b


def test_codec_rejects_unsupported_types():
    for bad in ({1, 2}, object(), {"nested": [frozenset()]}):
        with pytest.raises(TypeError, match="plain data"):
            encode_value(bad)


@pytest.mark.parametrize(
    "raw",
    [
        b"",  # nothing at all
        b"\x09",  # unknown tag
        b'{"version":1}',  # a JSON-era record
        b"\x05\x00\x00\x00\x05abc",  # str shorter than its length
        b"\x05\x00\x00\x00\x01\xff",  # invalid UTF-8
        b"\x08\x00\x00\x00\x01\x00\x00\x00\x01\xfe\x00",  # bad key
        b"\x04\x00\x00",  # truncated float
        b"\x07\x00\x00\x00\x02\x00",  # list missing an item
        b"\x00\x00",  # trailing bytes
        b"\x07\x00\x00\x00\x01" * 50_000,  # nesting deeper than the stack
    ],
    ids=[
        "empty", "unknown-tag", "json", "short-str", "bad-utf8", "bad-key",
        "short-float", "short-list", "trailing", "too-deep",
    ],
)
def test_decode_raises_typed_corruption_error(raw):
    with pytest.raises(StorageCorruptError) as info:
        decode_value(raw)
    assert info.value.code == "storage.corrupt"
    assert isinstance(info.value, StorageError)


_leaves = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=-(2**300), max_value=2**300)
    | st.floats(allow_nan=False)
    | st.text()
    | st.binary()
)
plain_values = st.recursive(
    _leaves,
    lambda children: (
        st.lists(children, max_size=5)
        | st.lists(children, max_size=5).map(tuple)
        | st.dictionaries(st.text() | st.integers(), children, max_size=5)
    ),
    max_leaves=25,
)


def _json_era(value):
    """What the JSON-era codec returned: lists for tuples, str keys."""
    if isinstance(value, (list, tuple)):
        return [_json_era(item) for item in value]
    if isinstance(value, dict):
        return {str(key): _json_era(item) for key, item in value.items()}
    return value


def _reversed_dicts(value):
    """The same value with every dict built in reverse insertion order."""
    if isinstance(value, (list, tuple)):
        return type(value)(_reversed_dicts(item) for item in value)
    if isinstance(value, dict):
        items = list(value.items())[::-1]
        if len({str(key) for key, _ in items}) < len(items):
            return value  # colliding keys: last insertion wins, keep order
        return {key: _reversed_dicts(item) for key, item in items}
    return value


@given(plain_values)
@settings(max_examples=200, deadline=None)
def test_codec_round_trip_matches_json_era_semantics(value):
    data = encode_value(value)
    decoded = decode_value(data)
    assert decoded == _json_era(value)
    # == conflates True/1/1.0 and 0.0/-0.0; the re-encoding does not.
    assert encode_value(decoded) == data


@given(plain_values)
@settings(max_examples=200, deadline=None)
def test_codec_ignores_dict_insertion_order(value):
    assert encode_value(_reversed_dicts(value)) == encode_value(value)


@given(st.binary(max_size=256))
@settings(max_examples=500, deadline=None)
def test_decode_arbitrary_bytes_raises_only_storage_errors(raw):
    try:
        decode_value(raw)
    except StorageError:
        pass


@given(plain_values, st.data())
@settings(max_examples=200, deadline=None)
def test_decode_truncated_or_mutated_encodings(value, data):
    encoded = encode_value(value)
    cut = data.draw(st.integers(0, len(encoded) - 1))
    with pytest.raises(StorageCorruptError):
        decode_value(encoded[:cut])
    flip = data.draw(st.integers(0, len(encoded) - 1))
    mutated = bytearray(encoded)
    mutated[flip] ^= data.draw(st.integers(1, 255))
    try:
        decode_value(bytes(mutated))
    except StorageError:
        pass


# -- snapshot format ---------------------------------------------------------
@pytest.mark.parametrize(
    "raw",
    [
        # A version-1 snapshot: sorted JSON with base64-tagged bytes.
        json.dumps({
            "version": 1, "clock": 0.0, "build": {}, "users": [],
            "workstation_files": {}, "network": {}, "gateway_rr": {},
            "storage": {"tables": {}, "logs": {"l": [{"\u0000b64": "AA=="}]}},
        }, sort_keys=True, separators=(",", ":")).encode("utf-8"),
        random.Random(0).randbytes(4096),
        random.Random(1).randbytes(7),
        b"",
        encode_value(["not", "a", "record"]),
        encode_value({"version": 1}),
    ],
    ids=["v1-json", "garbage-4k", "garbage-7", "empty", "list", "old-version"],
)
def test_snapshot_rejects_old_formats_and_garbage(raw):
    with pytest.raises(SnapshotError):
        GridSnapshot.from_bytes(raw)


# -- backends ----------------------------------------------------------------
@pytest.mark.parametrize("backend_cls", BACKENDS)
def test_table_crud_and_listing(backend_cls):
    backend = backend_cls()
    table = backend.table("t")
    assert table.get("missing") is None
    assert table.get("missing", 42) == 42
    table.put("b", {"x": 1})
    table.put("a", b"bytes")
    assert table.get("a") == b"bytes"
    assert table.keys() == ["a", "b"]
    assert "a" in table and "zz" not in table
    assert len(table) == 2
    table.delete("a")
    table.delete("never-existed")  # no error
    assert table.keys() == ["b"]
    assert dict(table.items()) == {"b": {"x": 1}}


@pytest.mark.parametrize("backend_cls", BACKENDS)
def test_log_append_order_and_truncate(backend_cls):
    backend = backend_cls()
    log = backend.log("journal")
    seqs = [log.append({"n": i}) for i in range(5)]
    assert seqs == sorted(seqs)
    assert [r["n"] for r in log.records()] == [0, 1, 2, 3, 4]
    assert len(log) == 5
    log.truncate()
    assert len(log) == 0 and log.records() == []


@pytest.mark.parametrize("backend_cls", BACKENDS)
def test_dump_load_round_trip_across_backends(backend_cls):
    src = backend_cls()
    src.table("t1").put("k", {"payload": b"\x01\x02"})
    src.log("l1").append({"kind": "consign", "ajo": b"raw"})
    dump = src.dump()
    # Rows travel as stored codec bytes, not re-encoded values.
    assert dump["tables"]["t1"]["k"] == encode_value({"payload": b"\x01\x02"})
    for dst_cls in BACKENDS:
        dst = dst_cls()
        dst.load(dump)
        assert dst.table("t1").get("k") == {"payload": b"\x01\x02"}
        assert dst.log("l1").records() == [{"kind": "consign", "ajo": b"raw"}]
        assert dst.dump() == dump


@pytest.mark.parametrize("backend_cls", BACKENDS)
def test_load_rejects_rows_that_are_not_codec_bytes(backend_cls):
    backend = backend_cls()
    with pytest.raises(StorageCorruptError):
        backend.load({"tables": {"t": {"k": {"payload": 1}}}})
    backend.load({"logs": {"l": [b"\x09"]}})
    with pytest.raises(StorageCorruptError):
        backend.log("l").records()


@pytest.mark.parametrize("backend_cls", BACKENDS)
def test_batch_groups_writes_into_one_fsync(backend_cls):
    backend = backend_cls()
    table = backend.table("t")
    with backend.batch():
        table.put("a", 1)
        table.put("b", 2)
        with backend.batch():  # reentrant
            table.put("c", 3)
    assert backend.fsyncs == 1
    assert backend.writes == 3
    table.put("d", 4)  # unbatched: its own durable unit
    assert backend.fsyncs == 2


def test_sqlite_batch_rolls_back_on_error():
    backend = SQLiteBackend()
    table = backend.table("t")
    table.put("keep", "before")
    with pytest.raises(RuntimeError):
        with backend.batch():
            table.put("keep", "changed")
            table.put("new", "value")
            raise RuntimeError("boom")
    assert table.get("keep") == "before"
    assert "new" not in table


def test_sqlite_file_survives_reopen(tmp_path):
    path = str(tmp_path / "site.db")
    first = SQLiteBackend(path)
    first.table("t").put("k", b"persisted")
    first.log("l").append({"seq": 1})
    first.close()
    second = SQLiteBackend(path)
    assert second.table("t").get("k") == b"persisted"
    assert second.log("l").records() == [{"seq": 1}]
    # Sequence numbers continue rather than restart.
    assert second.log("l").append({"seq": 2}) > 1


def test_counters_and_metrics_mirroring():
    backend = MemoryBackend()
    registry = MetricsRegistry()
    backend.bind_metrics(registry)
    backend.table("t").put("k", {"v": 1})
    backend.table("t").get("k")
    assert backend.writes == 1 and backend.reads == 1
    assert backend.bytes_written > 0 and backend.bytes_read > 0
    assert registry.counter("storage.writes").value == 1
    assert registry.counter("storage.reads").value == 1
    assert registry.counter("storage.fsyncs").value == backend.fsyncs
    assert registry.counter("storage.bytes").value == backend.bytes_written


# -- spec / registry ---------------------------------------------------------
def test_spec_parsing_spellings(monkeypatch):
    monkeypatch.delenv("REPRO_STORAGE", raising=False)
    assert StorageSpec.parse(None).kind == "memory"
    assert StorageSpec.parse("sqlite").kind == "sqlite"
    spec = StorageSpec.parse("sqlite:/tmp/x.db")
    assert spec.kind == "sqlite" and spec.options == {"path": "/tmp/x.db"}
    assert StorageSpec.parse(spec) is spec
    monkeypatch.setenv("REPRO_STORAGE", "sqlite")
    assert StorageSpec.parse(None).kind == "sqlite"
    with pytest.raises(TypeError):
        StorageSpec.parse(123)


def test_resolve_storage_by_kind():
    assert set(available_backends()) >= {"memory", "sqlite"}
    assert resolve_storage("memory").kind == "memory"
    assert resolve_storage("sqlite").kind == "sqlite"
    with pytest.raises(StorageError):
        resolve_storage("etcd")


# -- journal over storage ----------------------------------------------------
def _journal_with_traffic(backend):
    journal = JobJournal(backend, name="njs.journal")
    journal.record_consign("U1", b"ajo-1", "CN=a", trace_id="t1")
    journal.record_delivery("U1", "task", "VS", "B001")
    journal.record_consign("U2", b"ajo-2", "CN=b")
    journal.record_done("U2")
    return journal


def test_journal_cold_reload_from_backend():
    backend = SQLiteBackend()
    _journal_with_traffic(backend)
    # A brand-new journal over the same backend sees everything.
    reborn = JobJournal(backend, name="njs.journal")
    assert len(reborn) == 2
    entry = reborn.entry("U1")
    assert entry.ajo_bytes == b"ajo-1"
    assert entry.delivered == {"task": ("VS", "B001")}
    assert [e.job_id for e in reborn.incomplete()] == ["U1"]
    assert reborn.entry("U2").done


def test_journal_forget_is_a_tombstone():
    backend = MemoryBackend()
    journal = _journal_with_traffic(backend)
    journal.forget("U2")
    reborn = JobJournal(backend, name="njs.journal")
    assert reborn.entry("U2") is None
    assert len(reborn) == 1


def test_journal_records_written_compat_counter():
    journal = _journal_with_traffic(MemoryBackend())
    assert journal.records_written == 4


# -- outcome store -----------------------------------------------------------
def test_outcome_store_round_trip():
    backend = SQLiteBackend()
    store = OutcomeStore(backend, "FZJ.outcomes")
    record = OutcomeRecord(
        job_id="U1", name="demo", user_dn="CN=a", status="successful",
        submitted_at=12.5, recovered=True, trace_id="t1",
        outcome_bytes=b"outcome", files={"stdout": b"hello\n"},
    )
    store.put(record)
    fetched = OutcomeStore(backend, "FZJ.outcomes").get("U1")
    assert fetched == record
    assert store.job_ids() == ["U1"]
    store.forget("U1")
    assert store.get("U1") is None


# -- compat shims ------------------------------------------------------------
@pytest.mark.parametrize(
    "module,name,home",
    [
        ("repro.server.njs.journal", "JobJournal", "repro.storage.journal"),
        ("repro.core", "JobBuilder", "repro.client"),
        ("repro.net.transport", "Network", "repro.net.sim_transport"),
    ],
)
def test_deprecated_module_shims_warn_once(module, name, home):
    import importlib

    mod = importlib.import_module(module)
    mod._warned.discard(name)
    mod.__dict__.pop(name, None)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        resolved = getattr(mod, name)
    assert resolved.__module__.startswith(home.rsplit(".", 1)[0])
    messages = [str(w.message) for w in caught
                if issubclass(w.category, DeprecationWarning)]
    assert any(home in m for m in messages)
    assert name in dir(mod)
    with pytest.raises(AttributeError):
        mod.not_a_thing
