"""The repository benchmark: one workload, measured end to end or traced.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload replay --seed 1 --seconds 30 --trace 0

Workloads are ``replay``, ``session`` and ``restart`` (see
``perfbench/workloads.py``); their inputs are generated from ``--seed``.

A run starts two worker processes, one after the other, and gives each
half of ``--seconds``.  A worker imports ``repro`` and repeats rounds of
the workload: each round builds a fresh grid (set-up), runs the timed
phase, checks the outputs and tears the grid down.  A worker's first
round is a cold start and only its later rounds are timed; every
round's checks count.  ``wall_ms_per_job`` and ``query_ms_p50`` are
taken per timed round and the run reports the best round (see
:func:`_best_round`); ``query_ms_p99`` is taken over the query samples
of all timed rounds together.  The counts, bytes and simulated times of
the two workers' first rounds must be identical: that is the
determinism check.

With ``--trace 0`` both workers are plain and the last line of standard
output is a JSON object whose ``metrics`` are the end-to-end metrics.
With ``--trace 1`` the second worker wraps every function and method
of ``repro`` in spans, and ``metrics`` holds the per-layer metrics,
including each layer's self time and the tracing overhead (the traced
worker's round time over the plain one's).  The lines before the last
record the run parameters and sample counts and, traced, print the
self-time table.

The program needs the ``repro`` sources under ``src/`` next to this
directory; without them it exits with status 2.
"""

from __future__ import annotations

import argparse
import dataclasses
import importlib
import json
import os
import pickle
import pkgutil
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import types

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKDIR = os.path.join(ROOT, ".perfbench_work")

#: Rounds per worker at the least: the cold one and two timed.
MIN_ROUNDS = 3
MAX_ROUNDS = 40
#: Query samples a worker's timed rounds hold at the least, so that
#: ``query_ms_p99`` has ten beyond it even when only one worker counts
#: (the traced run).
MIN_QUERY_SAMPLES = 1000

#: End-to-end metrics: name -> unit.  Every workload reports all of them.
END_TO_END = {
    "setup_s": "s",
    "wall_ms_per_job": "ms",
    "query_ms_p50": "ms",
    "query_ms_p99": "ms",
    "wire_bytes_per_job": "bytes",
    "peak_rss_mb": "MB",
}

#: Modules the traced worker leaves alone: the code linter and the CLI.
_UNTRACED = ("repro.devlint", "repro.__main__")


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("replay", "session", "restart"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Internal: run one worker process in a scratch directory (see _run_workers).
    parser.add_argument("--worker", choices=("plain", "traced"), help=argparse.SUPPRESS)
    parser.add_argument("--workdir", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _traced_modules() -> list:
    return [
        module for name, module in sorted(sys.modules.items())
        if module is not None and name.startswith("repro.")
        and not name.startswith(_UNTRACED)
    ]


def run_worker(name: str, seed: int, traced: bool, budget_s: float, workdir: str) -> dict:
    """Run rounds of one workload in this (fresh) process for ``budget_s``.

    ``restart`` keeps its SQLite files and snapshot under ``workdir``.
    """
    t0 = time.perf_counter()
    for path in (HERE, SRC):
        if path not in sys.path:
            sys.path.insert(0, path)
    import layers
    import spans
    import workloads
    from repro.ajo.actions import reset_action_ids

    import_s = time.perf_counter() - t0
    log = inst = None
    if traced:
        # Load every module first, so none binds an unwrapped function
        # by importing it later (the aio transport loads on demand).
        import repro

        for info in pkgutil.walk_packages(repro.__path__, "repro."):
            if not info.name.startswith(_UNTRACED):
                importlib.import_module(info.name)
        log = spans.SpanLog()
        inst = spans.instrument(
            log, _traced_modules(), probes=layers.PROBES, bind_prefixes=("repro", "workloads"),
        )
    rounds: list[dict] = []
    start = time.perf_counter()
    try:
        while len(rounds) < MAX_ROUNDS:
            # Action ids come from a process-wide counter; every round
            # starts it afresh so the rounds' inputs are alike.
            reset_action_ids()
            if name == "restart":
                workload = workloads.Restart(seed, os.path.join(workdir, "restart"))
            else:
                workload = workloads.WORKLOADS[name](seed)
            out: dict = {"params": workload.params()}
            try:
                t1 = time.perf_counter()
                workload.setup()
                t2 = time.perf_counter()
                if log is not None:
                    log.clear()
                workload.run()
                t3 = time.perf_counter()
                if log is not None:
                    out["span_stats"] = log.stats()
                    out["probe_bytes"] = dict(log.bytes)
                    log.clear()
                workload.check()
            finally:
                workload.close()
            result = workload.result
            result.setup_s, result.timed_s = t2 - t1, t3 - t2
            out.update(dataclasses.asdict(result))
            rounds.append(out)
            elapsed = time.perf_counter() - start
            samples = sum(len(r["query_ms"]) for r in rounds[1:])
            if (
                len(rounds) >= MIN_ROUNDS and samples >= MIN_QUERY_SAMPLES
                and elapsed * (len(rounds) + 1) / len(rounds) > budget_s
            ):
                break
    finally:
        if inst is not None:
            inst.remove()
    return {
        "import_s": import_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "rounds": [types.SimpleNamespace(**r) for r in rounds],
    }


def _median(values: list[float]) -> float:
    return float(statistics.median(values))


def _best_round(values: list[float]) -> float:
    """The least of per-round timings.

    On a shared host, other load slows the program by up to about 2x for
    seconds at a time, and the share of a run's rounds it hits varies
    from run to run.  Interference only adds time, so the fastest round
    is the closest to the program's own cost; a median or a mean would
    swing with the share of rounds hit.  The 99th percentile is a tail:
    it is taken over every round's samples instead, which gives it at
    least ten samples beyond it.
    """
    return float(min(values))


def _run_workers(args: argparse.Namespace) -> list[dict]:
    """The plain worker, then the second (traced with ``--trace 1``) one.

    Each is a fresh interpreter running this file with ``--worker``; it
    sends its result back pickled on standard output.  The run's scratch
    files go to a directory of its own under :data:`WORKDIR`, so runs made
    at the same time do not share them.
    """
    workers = []
    os.makedirs(WORKDIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORKDIR)
    try:
        for mode in ("plain", "traced" if args.trace else "plain"):
            command = [
                sys.executable, os.path.abspath(__file__), "--workload", args.workload,
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--worker", mode,
                "--workdir", workdir,
            ]
            done = subprocess.run(command, stdout=subprocess.PIPE, check=True)
            workers.append(pickle.loads(done.stdout))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(WORKDIR)  # only once no other run is using it
        except OSError:
            pass
    return workers


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no repro sources under {SRC}", file=sys.stderr)
        return 2
    if args.worker:
        result = run_worker(
            args.workload, args.seed, args.worker == "traced", args.seconds / 2, args.workdir,
        )
        sys.stdout.buffer.write(pickle.dumps(result))
        return 0
    sys.path.insert(0, HERE)
    import layers
    import spans

    workers = _run_workers(args)
    plain_workers = workers[:1] if args.trace else workers
    timed = [r for w in plain_workers for r in w["rounds"][1:]]

    failures: list[str] = []
    attempted = 0
    reference = workers[0]["rounds"][0].fingerprint
    for w, worker in enumerate(workers):
        attempted += 1  # the determinism check
        first = worker["rounds"][0].fingerprint
        if first != reference:
            diff = sorted(
                k for k in set(first) | set(reference) if first.get(k) != reference.get(k)
            )
            failures.append(f"worker {w}: not deterministic at seed {args.seed}: {diff}")
        for i, r in enumerate(worker["rounds"]):
            attempted += r.attempted
            failures.extend(f"worker {w} round {i}: {message}" for message in r.failures)

    p50s = [spans.percentile(r.query_ms, 50) for r in timed]
    p99 = spans.percentile([ms for r in timed for ms in r.query_ms], 99)
    if p99 is None or None in p50s:
        failures.append(f"too few query samples: {[len(r.query_ms) for r in timed]}")
    first = workers[0]["rounds"][0]
    end_to_end = {
        "setup_s": _median([w["import_s"] for w in plain_workers])
        + _median([r.setup_s for w in plain_workers for r in w["rounds"]]),
        "wall_ms_per_job": _best_round([r.timed_s * 1000.0 / r.jobs for r in timed]),
        "query_ms_p50": _best_round([v or 0.0 for v in p50s]),
        "query_ms_p99": p99 or 0.0,
        "wire_bytes_per_job": first.wire_bytes / first.jobs,
        "peak_rss_mb": _median([w["peak_rss_mb"] for w in plain_workers]),
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "traced": bool(args.trace),
        **first.params,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "rounds": [len(w["rounds"]) for w in workers],
        "samples": {
            "query_ms_p50_per_round": [len(r.query_ms) for r in timed],
            "query_ms_p99": sum(len(r.query_ms) for r in timed),
            "wall_ms_per_job": len(timed),
            "setup_s": sum(len(w["rounds"]) for w in plain_workers),
        },
        "end_to_end": end_to_end,
        "failures": failures[:20],
    }

    if args.trace:
        out_metrics = _traced_report(workers, record, layers, spans)
    else:
        out_metrics = {
            name: {"value": float(value), "unit": END_TO_END[name]}
            for name, value in end_to_end.items()
        }

    for message in failures[:20]:
        print(f"FAILED {message}")
    print("record " + json.dumps(record, sort_keys=True, default=str))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": out_metrics,
    }, sort_keys=True))
    return 0


def _traced_report(workers, record, layers, spans) -> dict:
    """Per-layer metrics of the traced worker's timed rounds; prints the self-time table."""
    plain = workers[0]["rounds"][1:]
    traced = workers[1]["rounds"][1:]
    stats = spans.SpanStats.merged([r.span_stats for r in traced])
    probe_bytes: dict[str, int] = {}
    for r in traced:
        for key, value in r.probe_bytes.items():
            probe_bytes[key] = probe_bytes.get(key, 0) + value
    overhead = (
        _median([r.timed_s / r.jobs for r in traced])
        / _median([r.timed_s / r.jobs for r in plain]) - 1.0
    )
    metrics = layers.per_layer_values(traced, stats, probe_bytes, overhead)
    record["moves"] = {m.name: m.moves for m in layers.PER_LAYER if m.moves}
    record["samples"].update({
        "spans": stats.spans,
        "traced_rounds": len(traced),
        "batch.wait_seconds": len(traced[0].samples.get("batch.wait_seconds", ())),
        "gateway.auth_seconds": len(traced[0].samples.get("gateway.auth_seconds", ())),
        "turnaround_s": len(traced[0].turnaround_s),
    })
    total = sum(r.timed_s for r in traced)
    jobs = sum(r.jobs for r in traced)
    print(f"traced wall {total:.3f} s over {len(traced)} round(s), {jobs} jobs, "
          f"{stats.spans} spans; tracing overhead {overhead:+.1%} of the plain wall time")
    print(f"{'layer':<16}{'self s':>10}{'share':>8}")
    ranked = sorted(
        ((name[len("self_ms_per_job."):], value * jobs / 1000.0)
         for name, value in metrics.items() if name.startswith("self_ms_per_job.")),
        key=lambda item: -item[1],
    )
    for layer, seconds in ranked:
        print(f"{layer:<16}{seconds:>10.3f}{seconds / total:>8.1%}")
    print(f"{'sum':<16}{sum(s for _, s in ranked):>10.3f}")
    units = {m.name: m.unit for m in layers.PER_LAYER}
    return {name: {"value": float(metrics[name]), "unit": unit} for name, unit in units.items()}


if __name__ == "__main__":
    sys.exit(main())
