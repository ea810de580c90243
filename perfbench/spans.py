"""Span recording, layer attribution and statistics for the benchmark.

Nothing here imports ``repro``: the helpers measure the package from
outside.  :func:`instrument` wraps the public functions and class
methods of a set of modules so every call records a span (name, start,
end, parent) in a :class:`SpanLog`.  Because many callers bind a
function by name (``from repro.storage.codec import encode_value``),
the wrapper is installed at the defining module *and* at every module
binding that holds the same function object.

A layer's self time is the duration of its spans minus the time their
child spans cover; the self times of all layers plus the time outside
any span add up to the wall time of the traced phase.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
import types
import typing
from array import array

import numpy as np

__all__ = [
    "SpanLog",
    "SpanStats",
    "Instrumentation",
    "instrument",
    "layer_of",
    "link_class",
    "host_class",
    "percentile",
    "table_class",
]

#: Module prefix -> layer name; the longest matching prefix wins, and a
#: module no prefix matches belongs to its top-level package.
LAYER_PREFIXES: dict[str, str] = {
    "repro.simkernel": "simkernel",
    "repro.storage": "storage",
    "repro.grid.snapshot": "grid.snapshot",
    "repro.grid": "grid",
    "repro.net.wire": "net.wire",
    "repro.net.aio_transport": "net.wire",
    "repro.net.stream": "net.stream",
    "repro.protocol.datapath": "net.stream",
    "repro.net": "net",
    "repro.protocol": "protocol",
    "repro.security": "security",
    "repro.ajo": "ajo",
    "repro.analysis": "analysis",
    "repro.server.gateway": "server.gateway",
    "repro.server.njs": "server.njs",
    "repro.server": "server",
    "repro.batch": "batch",
    "repro.vfs": "vfs",
    "repro.observability": "observability",
    "repro.api": "api",
    "repro.client": "client",
}


def layer_of(module: str) -> str:
    """The layer a module belongs to (``repro.storage.codec`` -> ``storage``)."""
    best = ""
    for prefix in LAYER_PREFIXES:
        if (module == prefix or module.startswith(prefix + ".")) and len(prefix) > len(best):
            best = prefix
    if best:
        return LAYER_PREFIXES[best]
    parts = module.split(".")
    return parts[1] if len(parts) > 1 else parts[0]


def host_class(host: str) -> str:
    """Classify a host by its name suffix: ``njs``, ``gateway`` or ``client``.

    Sites name their hosts ``<site>.njs``, ``<site>.gateway`` and, for
    extra load-balanced gateways, ``<site>.gw<i>``; workstations are
    ``ws<n>.<name>``; any other service host is ``other``.
    """
    suffix = host.rsplit(".", 1)[-1]
    if suffix == "njs":
        return "njs"
    if suffix == "gateway" or (suffix.startswith("gw") and suffix[2:].isdigit()):
        return "gateway"
    if host.startswith("ws") and "." in host:
        return "client"
    return "other"


_LINK_CLASSES = {
    ("client", "gateway"): "client_gateway",
    ("gateway", "gateway"): "gateway_gateway",
    ("gateway", "njs"): "gateway_njs",
}


def link_class(src: str, dst: str) -> str:
    """The class of a link between two hosts, independent of direction."""
    pair = tuple(sorted((host_class(src), host_class(dst))))
    return _LINK_CLASSES.get(typing.cast("tuple[str, str]", pair), "other")


def table_class(table: str) -> str:
    """Storage tables are named ``<site>.<kind>``; resource pages are ``pages``."""
    kind = table.rsplit(".", 1)[-1]
    if kind == "resources":
        return "pages"
    return kind if kind in ("journal", "outcomes", "uudb") else "other"


def percentile(values: typing.Sequence[float], p: float) -> float | None:
    """The ``p``-th percentile, or ``None`` when fewer than ten samples lie beyond it.

    A percentile is only reported when at least ten samples exceed its
    rank, so p50 needs 20 samples and p95 needs 200.
    """
    n = len(values)
    if n == 0 or n * (100.0 - p) / 100.0 < 10:
        return None
    return float(np.percentile(np.asarray(values, dtype=float), p))


class SpanLog:
    """Spans kept in memory as parallel arrays: name, start, end, parent."""

    def __init__(self, clock: typing.Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.names: list[str] = []
        self.layers: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        #: 1 when no span of the same name was open at the span's start.
        self.outermost = array("b")
        self._open: list[int] = []
        self._stack: list[int] = []
        #: Byte counts recorded by probes, by metric key.
        self.bytes: dict[str, int] = {}
        #: Size of the most recent result of each probed function.
        self.last_size: dict[str, int] = {}

    def register(self, name: str, layer: str) -> int:
        """Intern a span name; returns its id."""
        ident = self._ids.get(name)
        if ident is None:
            ident = len(self.names)
            self._ids[name] = ident
            self.names.append(name)
            self.layers.append(layer)
            self._open.append(0)
        return ident

    def enter(self, ident: int) -> int:
        index = len(self.start)
        stack = self._stack
        self.name_id.append(ident)
        self.parent.append(stack[-1] if stack else -1)
        self.outermost.append(self._open[ident] == 0)
        self._open[ident] += 1
        self.end.append(0.0)
        stack.append(index)
        self.start.append(self.clock())
        return index

    def exit(self, index: int) -> None:
        now = self.clock()
        # Spans close innermost-first; should one be left open, closing
        # its parent closes it too.
        stack = self._stack
        while stack:
            top = stack.pop()
            self._open[self.name_id[top]] -= 1
            self.end[top] = now
            if top == index:
                break

    def add_bytes(self, key: str, nbytes: int) -> None:
        self.bytes[key] = self.bytes.get(key, 0) + nbytes

    def clear(self) -> None:
        """Forget recorded spans and byte counts; keep the interned names."""
        for arr in (self.name_id, self.start, self.end, self.parent, self.outermost):
            del arr[:]
        self._stack.clear()
        self._open = [0] * len(self._open)
        self.bytes.clear()
        self.last_size.clear()

    def __len__(self) -> int:
        return len(self.start)

    def stats(self) -> "SpanStats":
        return SpanStats(self)


class SpanStats:
    """Per-name and per-layer aggregates of a :class:`SpanLog`."""

    def __init__(self, log: SpanLog) -> None:
        n = len(log)
        # Copies, so the log's arrays stay resizable afterwards.
        names = np.array(log.name_id, dtype=np.int32)
        start = np.array(log.start, dtype=float)
        end = np.array(log.end, dtype=float)
        parent = np.array(log.parent, dtype=np.int32)
        # A span still open when the log is read ends now.
        end = np.where(end == 0.0, log.clock(), end)
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
        self_time = dur - child
        # Total time of a name counts only its outermost spans, so a
        # recursive function is not counted twice.
        outer = np.array(log.outermost, dtype=bool)
        k = len(log.names)
        self.names = list(log.names)
        self.layer_names = list(log.layers)
        self.calls = np.bincount(names, minlength=k).astype(int)
        self.total = np.bincount(names[outer], weights=dur[outer], minlength=k)
        self.self_time = np.bincount(names, weights=self_time, minlength=k)
        self.root_time = float(dur[~has_parent].sum())
        self.spans = n
        self._index = {name: i for i, name in enumerate(self.names)}

    @classmethod
    def merged(cls, parts: typing.Sequence["SpanStats"]) -> "SpanStats":
        """Sum the statistics of several logs read off the same :class:`SpanLog`."""
        out = cls.__new__(cls)
        longest = max(parts, key=lambda part: len(part.names))
        out.names = list(longest.names)
        out.layer_names = list(longest.layer_names)
        k = len(out.names)

        def total(attr: str) -> np.ndarray:
            acc = np.zeros(k)
            for part in parts:
                values = getattr(part, attr)
                acc[: len(values)] += values
            return acc

        out.calls = total("calls").astype(int)
        out.total = total("total")
        out.self_time = total("self_time")
        out.root_time = sum(part.root_time for part in parts)
        out.spans = sum(part.spans for part in parts)
        out._index = {name: i for i, name in enumerate(out.names)}
        return out

    def calls_of(self, name: str) -> int:
        i = self._index.get(name)
        return int(self.calls[i]) if i is not None else 0

    def total_of(self, name: str) -> float:
        i = self._index.get(name)
        return float(self.total[i]) if i is not None else 0.0

    def layer_self(self) -> dict[str, float]:
        """Self time summed per layer, in seconds."""
        out: dict[str, float] = {}
        for layer, value in zip(self.layer_names, self.self_time, strict=True):
            out[layer] = out.get(layer, 0.0) + float(value)
        return out


Probe = typing.Callable[[SpanLog, tuple, dict, object], None]


def _stepped(gen, log: SpanLog, ident: int):
    """Drive a generator or coroutine, recording one span per resume.

    The time it spends suspended is not charged to it, and whatever
    runs a step (the simkernel, the event loop, an outer step) becomes
    the step's parent.
    """
    enter, exit_ = log.enter, log.exit
    send_value: object = None
    error: BaseException | None = None
    while True:
        index = enter(ident)
        try:
            if error is None:
                item = gen.send(send_value)
            else:
                item = gen.throw(error)
        except StopIteration as stop:
            return stop.value
        finally:
            exit_(index)
        try:
            send_value = yield item
            error = None
        except GeneratorExit:
            gen.close()
            raise
        except BaseException as exc:  # delivered into the wrapped generator
            send_value, error = None, exc


class _Awaitable:
    __slots__ = ("_coro", "_log", "_ident")

    def __init__(self, coro, log: SpanLog, ident: int) -> None:
        self._coro, self._log, self._ident = coro, log, ident

    def __await__(self):
        return _stepped(self._coro, self._log, self._ident)


def _wrap(fn: types.FunctionType, log: SpanLog, ident: int, probe: Probe | None):
    enter, exit_ = log.enter, log.exit
    if inspect.isgeneratorfunction(fn):
        @functools.wraps(fn)
        def gen_wrapper(*args, **kwargs):
            index = enter(ident)
            try:
                gen = fn(*args, **kwargs)
            finally:
                exit_(index)
            return (yield from _stepped(gen, log, ident))

        return gen_wrapper

    if inspect.iscoroutinefunction(fn):
        @functools.wraps(fn)
        async def coro_wrapper(*args, **kwargs):
            return await _Awaitable(fn(*args, **kwargs), log, ident)

        return coro_wrapper

    if probe is None:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = enter(ident)
            try:
                return fn(*args, **kwargs)
            finally:
                exit_(index)
        return wrapper

    @functools.wraps(fn)
    def probed(*args, **kwargs):
        index = enter(ident)
        try:
            result = fn(*args, **kwargs)
        finally:
            exit_(index)
        probe(log, args, kwargs, result)
        return result

    return probed


class Instrumentation:
    """Installed wrappers; :meth:`remove` restores every original binding."""

    def __init__(self) -> None:
        self._patches: list[tuple[object, str, object]] = []
        #: Module bindings replaced beyond the defining module's own.
        self.rebound = 0

    def patch(self, owner: object, attr: str, value: object) -> None:
        original = vars(owner)[attr]
        setattr(owner, attr, value)
        self._patches.append((owner, attr, original))

    def remove(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()


def _public(name: str, value: object) -> bool:
    """Public names, plus private generator and coroutine functions.

    A private generator is a simulation process body (a coroutine, an
    event-loop task); wrapping it charges each step to its own layer
    rather than to the simkernel or event loop that resumed it.
    """
    if not name.startswith("_"):
        return True
    return not name.startswith("__") and (
        inspect.isgeneratorfunction(value) or inspect.iscoroutinefunction(value)
    )


def _defined_here(obj: object, module: types.ModuleType) -> bool:
    return getattr(obj, "__module__", None) == module.__name__


def instrument(
    log: SpanLog,
    modules: typing.Iterable[types.ModuleType],
    probes: dict[str, Probe] | None = None,
    bind_prefixes: typing.Sequence[str] = ("repro",),
) -> Instrumentation:
    """Wrap the public functions and methods of ``modules`` in spans.

    Private generator and coroutine functions count as public here (see
    :func:`_public`); generators and coroutines record one span per
    resume, async generators are left alone.  Spans are named
    ``<module>.<qualname>``.  ``probes`` maps a span name to a callable
    run after each call with the arguments and the result, to record
    byte counts.  After wrapping, every module whose name starts with
    one of ``bind_prefixes`` is scanned and any binding of a wrapped
    function is replaced too.
    """
    probes = probes or {}
    inst = Instrumentation()
    replaced: dict[int, tuple[object, object]] = {}

    def wrap(fn: types.FunctionType, qualname: str, module: types.ModuleType):
        name = f"{module.__name__}.{qualname}"
        ident = log.register(name, layer_of(module.__name__))
        return _wrap(fn, log, ident, probes.get(name))

    for module in list(modules):
        for attr, value in list(vars(module).items()):
            if not _public(attr, value) or not _defined_here(value, module):
                continue
            if isinstance(value, types.FunctionType):
                if inspect.isasyncgenfunction(value):
                    continue
                wrapper = wrap(value, value.__qualname__, module)
                replaced[id(value)] = (value, wrapper)
                inst.patch(module, attr, wrapper)
            elif isinstance(value, type):
                for member, raw in list(vars(value).items()):
                    func = raw.__func__ if isinstance(raw, (staticmethod, classmethod)) else raw
                    if not isinstance(func, types.FunctionType) or not _public(member, func):
                        continue
                    if inspect.isasyncgenfunction(func):
                        continue
                    wrapped = wrap(func, f"{value.__qualname__}.{member}", module)
                    if isinstance(raw, staticmethod):
                        wrapped = staticmethod(wrapped)
                    elif isinstance(raw, classmethod):
                        wrapped = classmethod(wrapped)
                    try:
                        inst.patch(value, member, wrapped)
                    except (AttributeError, TypeError):
                        continue

    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not mod_name.startswith(tuple(bind_prefixes)):
            continue
        for attr, value in list(vars(mod).items()):
            hit = replaced.get(id(value))
            if hit is not None and hit[0] is value:
                inst.patch(mod, attr, hit[1])
                inst.rebound += 1
    return inst
