"""Per-layer metrics: what each one reads, and what it should move.

Every entry of :data:`PER_LAYER` names a metric of one layer, its unit,
and the end-to-end metrics it is expected to move on which workloads
(``moves``).  A workload that bypasses a layer reports 0 for it.  Time
metrics read from spans come from the traced rounds, so they include
the tracing overhead; counts, bytes and simulated times do not depend
on tracing.
"""

from __future__ import annotations

import typing
from dataclasses import dataclass

from spans import LAYER_PREFIXES, SpanLog, SpanStats, percentile, table_class

__all__ = ["LayerMetric", "PER_LAYER", "LAYERS", "PROBES", "per_layer_values"]


@dataclass(frozen=True)
class LayerMetric:
    name: str
    unit: str
    layer: str
    #: ``(end-to-end metric, workload)`` pairs this metric should move.
    moves: tuple[tuple[str, str], ...] = ()


#: Every layer self time is reported under ``self_ms_per_job.<layer>``;
#: ``other`` collects the small packages (broker, faults, resources, …)
#: and ``unattributed`` is wall time outside any span.
LAYERS: tuple[str, ...] = tuple(dict.fromkeys(LAYER_PREFIXES.values())) + (
    "other", "unattributed",
)

_WALL = ("wall_ms_per_job", "replay")
_QUERY_SESSION = ("query_ms_p50", "session")
_QUERY_RESTART = ("query_ms_p50", "restart")
_WIRE = ("wire_bytes_per_job", "replay")
_RSS = ("peak_rss_mb", "replay")
_SESSION_WALL = ("wall_ms_per_job", "session")
_RESTART_WALL = ("wall_ms_per_job", "restart")
_RESTART_SETUP = ("setup_s", "restart")
_SESSION_SETUP = ("setup_s", "session")

PER_LAYER: tuple[LayerMetric, ...] = (
    LayerMetric("simkernel.events_per_job", "count", "simkernel", (_WALL,)),
    LayerMetric("simkernel.peak_heap", "count", "simkernel", (_WALL,)),
    LayerMetric("storage.encode_s_per_job", "s", "storage", (_WALL, _RESTART_SETUP)),
    LayerMetric("storage.encode_calls_per_job", "count", "storage", (_WALL, _RESTART_SETUP)),
    LayerMetric("storage.encode_bytes_per_job", "bytes", "storage", (_WALL, _RESTART_SETUP)),
    LayerMetric("storage.decode_s", "s", "storage", (_RESTART_WALL, _QUERY_RESTART)),
    LayerMetric("storage.decode_calls", "count", "storage", (_RESTART_WALL, _QUERY_RESTART)),
    LayerMetric("storage.decode_bytes", "bytes", "storage", (_RESTART_WALL, _QUERY_RESTART)),
    LayerMetric("storage.writes_per_job", "count", "storage", (_WALL,)),
    LayerMetric("storage.bytes_per_job", "bytes", "storage", (_WALL,)),
    LayerMetric("storage.fsyncs_per_job", "count", "storage", (_WALL,)),
    LayerMetric("storage.reads_per_job", "count", "storage", (_WALL, _RESTART_WALL)),
    LayerMetric("storage.table_bytes.journal", "bytes", "storage", (_RSS, _RESTART_WALL)),
    LayerMetric("storage.table_bytes.outcomes", "bytes", "storage", (_RSS, _RESTART_WALL)),
    LayerMetric("storage.table_bytes.uudb", "bytes", "storage", (_RSS, _RESTART_WALL)),
    LayerMetric("storage.table_bytes.pages", "bytes", "storage", (_RSS, _RESTART_WALL)),
    LayerMetric("storage.outcome_put_s", "s", "storage", (_WALL,)),
    LayerMetric("snapshot.bytes", "bytes", "grid.snapshot", (_RESTART_WALL,)),
    LayerMetric("snapshot.dump_s", "s", "grid.snapshot", (_RESTART_WALL,)),
    LayerMetric("snapshot.load_s", "s", "grid.snapshot", (_RESTART_WALL,)),
    LayerMetric("snapshot.recovery_s", "s", "grid.snapshot", (_RESTART_WALL,)),
    *(
        LayerMetric(f"net.{kind}_per_job.{cls}", unit, "net", (_WIRE, _WALL))
        for kind, unit in (("bytes", "bytes"), ("msgs", "count"))
        for cls in ("client_gateway", "gateway_gateway", "gateway_njs")
    ),
    LayerMetric("net.messages_lost", "count", "net", (_WIRE,)),
    LayerMetric("wire.frames_per_job", "count", "net.wire", (_QUERY_SESSION, _SESSION_WALL)),
    LayerMetric("wire.socket_bytes_per_job", "bytes", "net.wire", (_QUERY_SESSION, _SESSION_WALL)),
    LayerMetric("wire.encode_s", "s", "net.wire", (_QUERY_SESSION, _SESSION_WALL)),
    LayerMetric("wire.decode_s", "s", "net.wire", (_QUERY_SESSION, _SESSION_WALL)),
    LayerMetric("stream.chunks_per_job", "count", "net.stream", (_WIRE,)),
    LayerMetric("stream.wire_bytes_per_job", "bytes", "net.stream", (_WIRE,)),
    LayerMetric("stream.resumes", "count", "net.stream", (_WIRE,)),
    LayerMetric("protocol.requests_per_job", "count", "protocol", (_SESSION_WALL,)),
    LayerMetric("protocol.retries_per_job", "count", "protocol", (_SESSION_WALL,)),
    LayerMetric("consignment.encode_s", "s", "protocol", (_SESSION_WALL,)),
    LayerMetric("consignment.bytes_per_job", "bytes", "protocol", (_SESSION_WALL,)),
    LayerMetric("security.handshakes", "count", "security", (_SESSION_SETUP, _RESTART_WALL)),
    LayerMetric("security.handshake_s", "s", "security", (_SESSION_SETUP, _RESTART_WALL)),
    LayerMetric("ajo.encode_s", "s", "ajo", (_SESSION_WALL, _QUERY_SESSION)),
    LayerMetric("ajo.decode_s", "s", "ajo", (_SESSION_WALL, _QUERY_SESSION)),
    LayerMetric("ajo.bytes_per_job", "bytes", "ajo", (_SESSION_WALL, _QUERY_SESSION)),
    LayerMetric("analysis.calls_per_job", "count", "analysis", (_SESSION_WALL,)),
    LayerMetric("analysis.s_per_job", "s", "analysis", (_SESSION_WALL,)),
    LayerMetric("gateway.requests_per_job", "count", "server.gateway",
                (_SESSION_WALL, _QUERY_SESSION)),
    LayerMetric("gateway.subscribe_holds_per_job", "count", "server.gateway", (_SESSION_WALL,)),
    LayerMetric("gateway.auth_s_p50", "s", "server.gateway", (_QUERY_SESSION,)),
    LayerMetric("njs.consign_s", "s", "server.njs", (_SESSION_WALL,)),
    LayerMetric("njs.incarnation_cache_hit_ratio", "ratio", "server.njs", (_WALL, _WIRE)),
    LayerMetric("njs.forwarded_groups_per_job", "count", "server.njs", (_WALL, _WIRE)),
    LayerMetric("batch.wait_s_p50", "s", "batch", (("api.turnaround_s_p90", "replay"),)),
    LayerMetric("batch.wait_s_p95", "s", "batch", (("api.turnaround_s_p90", "replay"),)),
    LayerMetric("batch.utilization_mean", "ratio", "batch", (("api.turnaround_s_p90", "replay"),)),
    LayerMetric("vfs.bytes_copied_per_job", "bytes", "vfs", (_RSS,)),
    LayerMetric("telemetry.spans_retained_per_job", "count", "observability",
                (_RSS, ("peak_rss_mb", "session"))),
    LayerMetric("telemetry.hist_samples_per_job", "count", "observability",
                (_RSS, ("peak_rss_mb", "session"))),
    *(
        LayerMetric(f"api.{verb}_ms_p50", "ms", "api", (_QUERY_SESSION, _QUERY_RESTART))
        for verb in ("submit", "status", "outcome", "fetch", "list")
    ),
    LayerMetric("api.turnaround_s_p50", "s", "api", ()),
    LayerMetric("api.turnaround_s_p90", "s", "api", ()),
    *(
        LayerMetric(f"self_ms_per_job.{layer}", "ms", layer, ())
        for layer in LAYERS
    ),
    LayerMetric("trace.overhead_ratio", "ratio", "perfbench", ()),
    LayerMetric("trace.spans_per_job", "count", "perfbench", ()),
)


def _size_of_result(key: str):
    def probe(log: SpanLog, args: tuple, kwargs: dict, result: object) -> None:
        log.add_bytes(key, len(typing.cast(bytes, result)))
        log.last_size[key] = len(typing.cast(bytes, result))
    return probe


def _size_of_arg(key: str):
    def probe(log: SpanLog, args: tuple, kwargs: dict, result: object) -> None:
        log.add_bytes(key, len(typing.cast(bytes, args[0])))
    return probe


def _table_write(log: SpanLog, args: tuple, kwargs: dict, result: object) -> None:
    # Table.put and Log.append encode through encode_value, whose probe
    # has just recorded the encoded size.
    log.add_bytes(f"table.{table_class(args[0].name)}", log.last_size.get("storage.encode", 0))


#: Span name -> probe recording bytes, run after each call.
PROBES = {
    "repro.storage.codec.encode_value": _size_of_result("storage.encode"),
    "repro.storage.codec.decode_value": _size_of_arg("storage.decode"),
    "repro.storage.backend.Table.put": _table_write,
    "repro.storage.backend.Log.append": _table_write,
    "repro.ajo.serialize.encode_ajo": _size_of_result("ajo"),
    "repro.ajo.serialize.encode_outcome": _size_of_result("ajo"),
}

_AJO_ENCODE = ("repro.ajo.serialize.encode_ajo", "repro.ajo.serialize.encode_outcome")
_AJO_DECODE = ("repro.ajo.serialize.decode_ajo", "repro.ajo.serialize.decode_outcome")


def _p(values: typing.Sequence[float], p: float) -> float:
    value = percentile(values, p)
    return 0.0 if value is None else value


def per_layer_values(
    rounds: list, stats: SpanStats, probe_bytes: dict[str, int], overhead_ratio: float,
) -> dict[str, float]:
    """Compute every :data:`PER_LAYER` value from the traced rounds.

    ``rounds`` are the traced rounds' results (identical inputs);
    ``stats`` and ``probe_bytes`` (the :data:`PROBES` byte counts) cover
    the timed phases of all of them.
    """
    n = len(rounds)
    jobs = max(1, sum(r.jobs for r in rounds))

    def counter(name: str) -> float:
        return sum(r.counters.get(name, 0.0) for r in rounds)

    def per_job(value: float) -> float:
        return value / jobs

    def samples(name: str) -> list[float]:
        return list(rounds[0].samples.get(name, ()))

    def phase(name: str) -> float:
        return sum(r.phases.get(name, 0.0) for r in rounds) / n

    out: dict[str, float] = {
        "simkernel.events_per_job": per_job(counter("sim.events")),
        "simkernel.peak_heap": max(r.counters.get("sim.peak_heap", 0.0) for r in rounds),
        "storage.encode_s_per_job": per_job(stats.total_of("repro.storage.codec.encode_value")),
        "storage.encode_calls_per_job": per_job(stats.calls_of("repro.storage.codec.encode_value")),
        "storage.encode_bytes_per_job": per_job(probe_bytes.get("storage.encode", 0)),
        "storage.decode_s": stats.total_of("repro.storage.codec.decode_value") / n,
        "storage.decode_calls": stats.calls_of("repro.storage.codec.decode_value") / n,
        "storage.decode_bytes": probe_bytes.get("storage.decode", 0) / n,
        "storage.writes_per_job": per_job(counter("storage.writes")),
        "storage.bytes_per_job": per_job(counter("storage.bytes_written")),
        "storage.fsyncs_per_job": per_job(counter("storage.fsyncs")),
        "storage.reads_per_job": per_job(counter("storage.reads")),
        "storage.outcome_put_s": stats.total_of("repro.storage.outcomes.OutcomeStore.put") / n,
        "snapshot.bytes": phase("snapshot_bytes"),
        "snapshot.dump_s": phase("snapshot_s"),
        "snapshot.load_s": phase("load_s"),
        "snapshot.recovery_s": phase("recovery_s"),
        "net.messages_lost": counter("net.messages_lost") / n,
        "wire.frames_per_job": per_job(counter("wire.frames")),
        "wire.socket_bytes_per_job": per_job(counter("wire.socket_bytes")),
        "wire.encode_s": stats.total_of("repro.net.wire.encode_message") / n,
        "wire.decode_s": stats.total_of("repro.net.wire.decode_frame") / n,
        "stream.chunks_per_job": per_job(stats.calls_of("repro.net.stream.encode_frame")),
        "stream.wire_bytes_per_job": per_job(counter("stream.wire_bytes")),
        "stream.resumes": counter("stream.resumes") / n,
        "protocol.requests_per_job": per_job(counter("protocol.requests_sent")),
        "protocol.retries_per_job": per_job(counter("protocol.retries")),
        "consignment.encode_s": stats.total_of("repro.protocol.consignment.encode_consignment") / n,
        "consignment.bytes_per_job": per_job(counter("consignment.bytes")),
        "security.handshakes": stats.calls_of("repro.security.ssl.ssl_handshake") / n,
        "security.handshake_s": stats.total_of("repro.security.ssl.ssl_handshake") / n,
        "ajo.encode_s": sum(stats.total_of(name) for name in _AJO_ENCODE) / n,
        "ajo.decode_s": sum(stats.total_of(name) for name in _AJO_DECODE) / n,
        "ajo.bytes_per_job": per_job(probe_bytes.get("ajo", 0)),
        "analysis.calls_per_job": per_job(stats.calls_of("repro.analysis.analyze_ajo")),
        "analysis.s_per_job": per_job(stats.total_of("repro.analysis.analyze_ajo")),
        "gateway.requests_per_job": per_job(counter("gateway.requests")),
        "gateway.subscribe_holds_per_job": per_job(counter("gateway.subscribe_holds")),
        "gateway.auth_s_p50": _p(samples("gateway.auth_seconds"), 50),
        "njs.consign_s": stats.total_of(
            "repro.server.njs.supervisor.NetworkJobSupervisor.consign") / n,
        "njs.forwarded_groups_per_job": per_job(counter("njs.forwarded_groups")),
        "batch.wait_s_p50": _p(samples("batch.wait_seconds"), 50),
        "batch.wait_s_p95": _p(samples("batch.wait_seconds"), 95),
        "vfs.bytes_copied_per_job": per_job(counter("vfs.bytes_copied")),
        "telemetry.spans_retained_per_job": per_job(counter("telemetry.spans_retained")),
        "telemetry.hist_samples_per_job": per_job(counter("telemetry.hist_samples")),
        "api.turnaround_s_p50": _p(rounds[0].turnaround_s, 50),
        "api.turnaround_s_p90": _p(rounds[0].turnaround_s, 90),
        "trace.overhead_ratio": overhead_ratio,
        "trace.spans_per_job": per_job(stats.spans),
    }
    for cls in ("client_gateway", "gateway_gateway", "gateway_njs"):
        out[f"net.bytes_per_job.{cls}"] = per_job(counter(f"net.bytes.{cls}"))
        out[f"net.msgs_per_job.{cls}"] = per_job(counter(f"net.msgs.{cls}"))
    for kind in ("journal", "outcomes", "uudb", "pages"):
        out[f"storage.table_bytes.{kind}"] = probe_bytes.get(f"table.{kind}", 0) / n
    lookups = counter("njs.incarnation_cache.hits") + counter("njs.incarnation_cache.misses")
    out["njs.incarnation_cache_hit_ratio"] = (
        counter("njs.incarnation_cache.hits") / lookups if lookups else 0.0
    )
    utilization = samples("batch.utilization")
    out["batch.utilization_mean"] = sum(utilization) / len(utilization) if utilization else 0.0
    for verb in ("submit", "status", "outcome", "fetch", "list"):
        calls = [ms for r in rounds for ms in r.call_ms[verb]]
        out[f"api.{verb}_ms_p50"] = _p(calls, 50)
    self_by_layer = stats.layer_self()
    known = set(LAYERS)
    timed = sum(r.timed_s for r in rounds)
    for layer in LAYERS:
        out[f"self_ms_per_job.{layer}"] = 0.0
    for layer, seconds in self_by_layer.items():
        key = layer if layer in known else "other"
        out[f"self_ms_per_job.{key}"] += seconds * 1000.0 / jobs
    out["self_ms_per_job.unattributed"] = max(0.0, timed - stats.root_time) * 1000.0 / jobs
    missing = {m.name for m in PER_LAYER} - set(out)
    if missing:
        raise KeyError(f"per-layer metrics without a value: {sorted(missing)}")
    return out
