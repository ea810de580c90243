"""Tests of the benchmark's own helpers.

Run from the repository root::

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import asyncio
import json
import os
import subprocess
import sys
import time
import types

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
for _path in (HERE, os.path.join(ROOT, "src")):
    if _path not in sys.path:
        sys.path.insert(0, _path)

import layers  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


# ------------------------------------------------------------- self time
def test_self_time_subtracts_nested_children():
    clock = FakeClock()
    log = spans.SpanLog(clock)
    outer = log.register("pkg.outer", "storage")
    inner = log.register("pkg.inner", "ajo")
    a = log.enter(outer)            # t=0
    clock.now = 1.0
    b = log.enter(inner)            # t=1
    clock.now = 3.0
    c = log.enter(outer)            # t=3, recursion into the outer name
    clock.now = 3.5
    log.exit(c)
    clock.now = 4.0
    log.exit(b)                     # inner lasted 3.0, of which 0.5 nested
    clock.now = 6.0
    log.exit(a)                     # outer lasted 6.0, of which 3.0 nested
    clock.now = 7.0
    d = log.enter(inner)            # a second root span
    clock.now = 7.25
    log.exit(d)

    stats = log.stats()
    assert stats.calls_of("pkg.outer") == 2
    assert stats.calls_of("pkg.inner") == 2
    # Only outermost spans of a name count towards its total.
    assert stats.total_of("pkg.outer") == pytest.approx(6.0)
    assert stats.total_of("pkg.inner") == pytest.approx(3.25)
    by_layer = stats.layer_self()
    assert by_layer["storage"] == pytest.approx(3.0 + 0.5)
    assert by_layer["ajo"] == pytest.approx(2.5 + 0.25)
    # Self times add up to the time covered by root spans.
    assert sum(by_layer.values()) == pytest.approx(stats.root_time)
    assert stats.root_time == pytest.approx(6.25)


def test_merged_stats_sum_rounds():
    clock = FakeClock()
    log = spans.SpanLog(clock)
    ident = log.register("pkg.f", "vfs")
    parts = []
    for duration in (1.0, 2.0):
        index = log.enter(ident)
        clock.now += duration
        log.exit(index)
        parts.append(log.stats())
        log.clear()
    later = log.register("pkg.g", "vfs")
    index = log.enter(later)
    clock.now += 0.5
    log.exit(index)
    parts.append(log.stats())
    merged = spans.SpanStats.merged(parts)
    assert merged.calls_of("pkg.f") == 2
    assert merged.total_of("pkg.f") == pytest.approx(3.0)
    assert merged.total_of("pkg.g") == pytest.approx(0.5)
    assert merged.spans == 3
    assert merged.layer_self() == {"vfs": pytest.approx(3.5)}


# ------------------------------------------------------------ percentiles
def test_percentile_needs_ten_samples_beyond_it():
    assert spans.percentile(list(range(19)), 50) is None
    assert spans.percentile(list(range(20)), 50) == pytest.approx(9.5)
    assert spans.percentile(list(range(199)), 95) is None
    assert spans.percentile(list(range(200)), 95) == pytest.approx(189.05)
    assert spans.percentile(list(range(99)), 90) is None
    assert spans.percentile([], 50) is None


# ------------------------------------------------------- link classifier
@pytest.mark.parametrize(
    ("src", "dst", "expected"),
    [
        ("ws1.ada", "FZJ.gateway", "client_gateway"),
        ("FZJ.gateway", "ws12.grace", "client_gateway"),
        ("ws2.prod", "FZJ.gw1", "client_gateway"),
        ("FZJ.gateway", "LRZ.gateway", "gateway_gateway"),
        ("FZJ.gw2", "FZJ.gateway", "gateway_gateway"),
        ("FZJ.njs", "FZJ.gateway", "gateway_njs"),
        ("FZJ.gateway", "FZJ.njs", "gateway_njs"),
        ("broker.hub", "FZJ.gateway", "other"),
        ("FZJ.njs", "LRZ.njs", "other"),
    ],
)
def test_link_class(src, dst, expected):
    assert spans.link_class(src, dst) == expected


def test_layer_and_table_classes():
    assert spans.layer_of("repro.storage.codec") == "storage"
    assert spans.layer_of("repro.grid.snapshot") == "grid.snapshot"
    assert spans.layer_of("repro.grid.build") == "grid"
    assert spans.layer_of("repro.net.aio_transport") == "net.wire"
    assert spans.layer_of("repro.protocol.datapath") == "net.stream"
    assert spans.layer_of("repro.server.njs.supervisor") == "server.njs"
    assert spans.layer_of("repro.broker.matcher") == "broker"
    assert spans.table_class("FZJ.journal") == "journal"
    assert spans.table_class("LRZ.resources") == "pages"
    assert spans.table_class("FZJ.meta") == "other"


# ---------------------------------------------------------- installation
def _fake_modules():
    lib = types.ModuleType("pbfake_lib")
    lib.asyncio = asyncio
    exec(
        "def encode(x):\n"
        "    return b'<' + x + b'>'\n"
        "def _private(x):\n"
        "    return x\n"
        "def steps(n):\n"
        "    total = 0\n"
        "    for i in range(n):\n"
        "        total += yield i\n"
        "    return total\n"
        "async def fetch(x):\n"
        "    await asyncio.sleep(0)\n"
        "    return encode(x)\n"
        "class Store:\n"
        "    def put(self, x):\n"
        "        return encode(x)\n"
        "    @staticmethod\n"
        "    def size(x):\n"
        "        return len(x)\n"
        "    @classmethod\n"
        "    def make(cls):\n"
        "        return cls()\n",
        lib.__dict__,
    )
    user = types.ModuleType("pbfake_user")
    user.encode = lib.encode          # ``from pbfake_lib import encode``
    user.renamed = lib.encode         # ``... import encode as renamed``
    user.Store = lib.Store
    sys.modules["pbfake_lib"] = lib
    sys.modules["pbfake_user"] = user
    return lib, user


def test_instrument_wraps_importing_module_bindings_and_restores():
    lib, user = _fake_modules()
    original = lib.encode
    original_put = vars(lib.Store)["put"]
    log = spans.SpanLog()
    sizes = []
    probes = {"pbfake_lib.encode": lambda _log, args, kwargs, result: sizes.append(len(result))}
    try:
        inst = spans.instrument(log, [lib], probes=probes, bind_prefixes=("pbfake_",))
        try:
            assert user.encode is lib.encode is not original
            assert user.renamed is lib.encode
            assert inst.rebound == 2
            assert user.encode(b"a") == b"<a>"
            assert lib._private(1) == 1
            assert user.Store().put(b"bc") == b"<bc>"
            assert user.Store.size(b"xyz") == 3
            assert isinstance(user.Store.make(), lib.Store)
            stats = log.stats()
            assert stats.calls_of("pbfake_lib.encode") == 2
            assert stats.calls_of("pbfake_lib.Store.put") == 1
            assert stats.calls_of("pbfake_lib.Store.size") == 1
            assert stats.calls_of("pbfake_lib.Store.make") == 1
            assert stats.calls_of("pbfake_lib._private") == 0
            assert sizes == [3, 4]
            # The nested encode call is a child of Store.put.
            assert stats.root_time >= stats.total_of("pbfake_lib.Store.put")
        finally:
            inst.remove()
        assert lib.encode is original and user.encode is original and user.renamed is original
        assert vars(lib.Store)["put"] is original_put
    finally:
        del sys.modules["pbfake_lib"], sys.modules["pbfake_user"]


def test_generator_wrapper_records_each_resume_and_keeps_semantics():
    lib, _user = _fake_modules()
    log = spans.SpanLog()
    try:
        inst = spans.instrument(log, [lib], bind_prefixes=("pbfake_",))
        try:
            gen = lib.steps(3)
            assert next(gen) == 0
            assert gen.send(5) == 1
            assert gen.send(7) == 2
            with pytest.raises(StopIteration) as stop:
                gen.send(1)
            assert stop.value.value == 13
            # One span for the call, one per resume.
            assert log.stats().calls_of("pbfake_lib.steps") == 5
            broken = lib.steps(2)
            next(broken)
            with pytest.raises(KeyError):
                broken.throw(KeyError("x"))
        finally:
            inst.remove()
    finally:
        del sys.modules["pbfake_lib"], sys.modules["pbfake_user"]


def test_coroutine_wrapper_runs_as_a_task():
    lib, _user = _fake_modules()
    log = spans.SpanLog()
    try:
        inst = spans.instrument(log, [lib], bind_prefixes=("pbfake_",))
        try:
            async def main():
                task = asyncio.get_running_loop().create_task(lib.fetch(b"q"))
                return await task, await lib.fetch(b"r")

            assert asyncio.run(main()) == (b"<q>", b"<r>")
            stats = log.stats()
            assert stats.calls_of("pbfake_lib.fetch") >= 4  # two steps per call
            assert stats.calls_of("pbfake_lib.encode") == 2
        finally:
            inst.remove()
    finally:
        del sys.modules["pbfake_lib"], sys.modules["pbfake_user"]


def test_traced_replay_self_times_sum_to_wall_and_storage_is_seen(monkeypatch):
    import workloads
    from repro.ajo.actions import reset_action_ids

    from repro.storage import backend, codec

    original = codec.encode_value
    reset_action_ids()
    log = spans.SpanLog()
    inst = spans.instrument(
        log, run._traced_modules(), probes=layers.PROBES, bind_prefixes=("repro", "workloads"),
    )
    try:
        monkeypatch.setattr(workloads, "REPLAY_STREAMS", 1)
        monkeypatch.setattr(workloads, "REPLAY_JOBS_PER_STREAM", 2)
        workload = workloads.Replay(3)
        workload.setup()
        log.clear()
        t0 = time.perf_counter()
        workload.run()
        wall = time.perf_counter() - t0
        stats = log.stats()
        result = workload.result
        probe_bytes = dict(log.bytes)
        workload.close()
    finally:
        inst.remove()
    assert codec.encode_value is original and backend.encode_value is original
    assert result.failures == []
    assert stats.calls_of("repro.storage.codec.encode_value") > 0
    assert probe_bytes["storage.encode"] > 0 and probe_bytes["table.journal"] > 0
    attributed = sum(stats.layer_self().values())
    assert attributed == pytest.approx(stats.root_time)
    assert stats.root_time <= wall
    result.timed_s = wall
    values = layers.per_layer_values(
        [types.SimpleNamespace(**vars(result))], stats, probe_bytes, overhead_ratio=0.0,
    )
    self_total = sum(v for k, v in values.items() if k.startswith("self_ms_per_job."))
    assert self_total * result.jobs / 1000.0 == pytest.approx(wall)
    assert values["storage.encode_calls_per_job"] > 0
    assert values["wire.frames_per_job"] == 0  # the sim transport bypasses the socket layer


# ----------------------------------------------------------- determinism
_FINGERPRINT = (
    "import json, sys; sys.path[:0] = [{here!r}, {src!r}]\n"
    "import workloads\n"
    "workloads.REPLAY_STREAMS, workloads.REPLAY_JOBS_PER_STREAM = 1, 3\n"
    "w = workloads.Replay({seed})\n"
    "w.setup(); w.run(); w.close()\n"
    "print(json.dumps(w.result.fingerprint, sort_keys=True))\n"
)


def _fingerprint(seed: int) -> dict:
    code = _FINGERPRINT.format(here=HERE, src=os.path.join(ROOT, "src"), seed=seed)
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, timeout=300,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


def test_seed_fixes_counts_bytes_and_simulated_times():
    first, again, other = _fingerprint(5), _fingerprint(5), _fingerprint(6)
    assert first == again
    assert first["turnaround"] != other["turnaround"]


def test_seed_reaches_the_generator():
    import workloads

    assert workloads.Replay(1)._plan("u0s0") != workloads.Replay(2)._plan("u0s0")
    assert workloads.Replay(1)._plan("u0s0") == workloads.Replay(1)._plan("u0s0")
    for seed in (9, 10):
        kinds = [job.kind for job in workloads.Replay(seed)._plan("u0s0")]
        assert kinds.count("pipeline") == round(workloads.PIPELINE_SHARE * len(kinds))
        assert kinds.count("script") - kinds.count("cle") in (0, 1)


# ------------------------------------------------------ BENCHMARK.json
def test_benchmark_json_matches_the_code():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert set(spec) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [
        (m.name, m.unit) for m in layers.PER_LAYER
    ]
    names = {w["name"] for w in spec["workloads"]}
    assert names == {"replay", "session", "restart"}
    metrics = set(run.END_TO_END) | {m.name for m in layers.PER_LAYER}
    for metric in layers.PER_LAYER:
        for target, workload in metric.moves:
            assert target in metrics and workload in names, (metric.name, target, workload)
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_exits_without_a_result_when_the_sources_are_missing(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for name in ("run.py", "spans.py", "layers.py", "workloads.py"):
        (bench / name).write_text(open(os.path.join(HERE, name)).read())
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "replay", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode == 2
    assert out.stdout == ""
