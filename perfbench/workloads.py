"""The benchmark's three workloads, each generated from a seed.

A workload is run in *rounds*.  A round builds a fresh grid
(:meth:`Workload.setup`, the set-up time), runs the timed phase
(:meth:`Workload.run`), checks the outputs, and tears the grid down.
Every round uses the inputs generated from one seed, so the counts,
bytes and simulated times of rounds run in fresh processes must be
identical; the caller compares their :attr:`RoundResult.fingerprint`.
On ``session`` the fingerprint holds counts and bytes only: its two
clients interleave over real sockets, so the simulated times they see
depend on the host's timing.

* ``replay`` — the six-site, two-day production replay: closed-loop user
  streams with exponential think time, open-loop local batch load at
  every site, sim transport, memory storage, subscription waits; then
  every user reads back each of its jobs (status, outcome, fetch_file,
  list_jobs), :data:`READ_BACK_PASSES` times over.
* ``session`` — two clients on the real-TCP ``aio`` transport, closed
  loop without think time, each cycling new_job → submit → wait →
  status → outcome → fetch_file → list_jobs on small single-site jobs.
* ``restart`` — a two-site grid on SQLite, populated in set-up; timed:
  snapshot and save, thaw plus a cold crash/restart of every site, and
  :data:`READ_BACK_PASSES` read-backs of every job.
"""

from __future__ import annotations

import asyncio
import gc
import os
import shutil
import time
import typing
from dataclasses import dataclass, field

from repro.ajo.serialize import encode_outcome
from repro.api import GridSession
from repro.api.aio import AsyncGridSession
from repro.client import JobMonitorController, JobPreparationAgent
from repro.grid import LocalLoadGenerator, WorkloadProfile, build_grid, synth_job
from repro.grid.snapshot import GridSnapshot
from repro.observability import telemetry_for
from repro.resources import ResourceRequest
from repro.simkernel import derive_rng
from spans import link_class

__all__ = ["RoundResult", "WORKLOADS", "Replay", "Session", "Restart"]

QUERY_VERBS = ("status", "outcome", "fetch", "list")
#: Times ``replay`` and ``restart`` read back every job, as users
#: refreshing their results would.  A single pass takes a small part of
#: a round, so one burst of load on the host would set its median; more
#: passes spread the query samples over more of the round.
READ_BACK_PASSES = 6


@dataclass
class RoundResult:
    """What one round measured and checked."""

    jobs: int = 0
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    setup_s: float = 0.0
    timed_s: float = 0.0
    #: Host wall milliseconds per client call, by verb.
    call_ms: dict[str, list[float]] = field(
        default_factory=lambda: {v: [] for v in ("submit", *QUERY_VERBS)}
    )
    #: Host wall milliseconds to read back one job: one call of each
    #: query verb (status, outcome, fetch_file, list_jobs).
    query_ms: list[float] = field(default_factory=list)
    #: Simulated seconds from submit to terminal, as the client saw it.
    turnaround_s: list[float] = field(default_factory=list)
    wire_bytes: int = 0
    #: Wall seconds of named sub-phases (restart: snapshot, recovery).
    phases: dict[str, float] = field(default_factory=dict)
    #: Counter readings of the timed phase, for the per-layer metrics.
    counters: dict[str, float] = field(default_factory=dict)
    #: Simulated-time samples kept by the grid's histograms.
    samples: dict[str, list[float]] = field(default_factory=dict)
    #: Count, byte and simulated-time values that must repeat exactly
    #: for a fixed seed.
    fingerprint: dict[str, object] = field(default_factory=dict)

    def fail(self, message: str) -> None:
        self.failures.append(message)

    def end_job_queries(self) -> None:
        """Close one job's read-back: its query time is its last call of each verb."""
        self.query_ms.append(sum(self.call_ms[verb][-1] for verb in QUERY_VERBS))


def _timed(result: RoundResult, verb: str, call: typing.Callable[[], object]) -> object:
    t0 = time.perf_counter()
    value = call()
    result.call_ms[verb].append((time.perf_counter() - t0) * 1000.0)
    result.attempted += 1
    return value


async def _atimed(result: RoundResult, verb: str, coro: typing.Awaitable) -> object:
    t0 = time.perf_counter()
    value = await coro
    result.call_ms[verb].append((time.perf_counter() - t0) * 1000.0)
    result.attempted += 1
    return value


def grid_counters(grid) -> dict[str, float]:
    """Counters the packages already keep, read off one grid."""
    out: dict[str, float] = {}
    profile = grid.sim.profile()
    out["sim.events"] = profile["events_processed"]
    out["sim.peak_heap"] = profile["peak_heap_size"]
    storage = grid.storage
    for name in ("writes", "reads", "fsyncs", "bytes_written", "bytes_read"):
        out[f"storage.{name}"] = getattr(storage, name)
    telemetry = telemetry_for(grid.sim)
    metrics = telemetry.metrics
    for name in (
        "gateway.requests", "gateway.subscribe_holds", "protocol.requests_sent",
        "protocol.retries", "njs.forwarded_groups", "njs.incarnation_cache.hits",
        "njs.incarnation_cache.misses", "stream.wire_bytes", "stream.resumes",
        "consignment.bytes", "vfs.bytes_copied",
    ):
        out[name] = metrics.counter_value(name)
    out["telemetry.spans_retained"] = sum(
        len(spans) for spans in telemetry.tracer._spans.values()
    )
    out["telemetry.hist_samples"] = sum(h.count for h in metrics._histograms.values())
    net = grid.network
    if hasattr(net, "_links"):
        for link in net._links.values():
            cls = link_class(link.src, link.dst)
            out[f"net.bytes.{cls}"] = out.get(f"net.bytes.{cls}", 0) + link.bytes_sent
            out[f"net.msgs.{cls}"] = out.get(f"net.msgs.{cls}", 0) + link.messages_sent
            out["net.messages_lost"] = out.get("net.messages_lost", 0) + link.messages_lost
    out["wire.frames"] = getattr(net, "socket_frames", 0)
    out["wire.socket_bytes"] = getattr(net, "socket_bytes", 0)
    return out


def grid_samples(grid) -> dict[str, list[float]]:
    """Histogram samples (simulated seconds) and per-Vsite utilization."""
    metrics = telemetry_for(grid.sim).metrics
    out = {
        name: list(metrics.histogram(name)._values)
        for name in ("gateway.auth_seconds", "batch.wait_seconds")
    }
    out["batch.utilization"] = [
        vsite.batch.utilization()
        for usite in grid.usites.values()
        for vsite in usite.vsites.values()
    ]
    return out


def _diff(after: dict[str, float], before: dict[str, float]) -> dict[str, float]:
    keep_max = ("sim.peak_heap",)
    return {
        key: value if key in keep_max else value - before.get(key, 0)
        for key, value in after.items()
    }


class Workload:
    """One round's grid: build it, run the timed phase, tear it down."""

    loop = ""
    transport = "sim"
    storage = "memory"

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.result = RoundResult()

    def params(self) -> dict[str, object]:
        return {"transport": self.transport, "storage": self.storage, "loop": self.loop}

    def setup(self) -> None:
        raise NotImplementedError

    def run(self) -> None:
        raise NotImplementedError

    def check(self) -> None:
        """Checks too costly for the timed phase; run after it, before :meth:`close`."""

    def close(self) -> None:
        """Release sockets and files, and drop every reference to the grid."""
        result = self.result
        self.__dict__.clear()
        self.result = result
        gc.collect()


# ---------------------------------------------------------------- replay
REPLAY_SITES = {
    "FZJ": "FZJ-T3E", "RUS": "RUS-T3E", "RUKA": "RUKA-SP2",
    "ZIB": "ZIB-SP2", "LRZ": "LRZ-VPP", "DWD": "DWD-SX4",
}
REPLAY_HOMES = ("FZJ", "ZIB", "DWD")
REPLAY_HORIZON_S = 2 * 24 * 3600.0
#: Share of each stream's jobs that are cross-site pipelines; the other
#: jobs are single-site, half script jobs and half compile-link-execute.
#: Each stream holds exactly these shares (the seed shuffles their
#: order), so the job mix does not vary from seed to seed.
PIPELINE_SHARE = 0.3
#: User streams per home site, and jobs per stream.
REPLAY_STREAMS = 2
REPLAY_JOBS_PER_STREAM = 18
#: Single-site jobs: lognormal runtimes narrow enough that the requested
#: time limit (3x the runtime) stays within every machine's queue limit.
REPLAY_PROFILES = {
    kind: WorkloadProfile(
        mean_runtime_s=2700.0, sigma_runtime=0.5, max_cpus=32, script_fraction=fraction,
    )
    for kind, fraction in (("script", 1.0), ("cle", 0.0))
}


@dataclass
class _PlannedJob:
    name: str
    kind: str  # "pipeline", "script" or "cle"
    think_s: float


class Replay(Workload):
    """The six-site production replay (E10's shape), generated from the seed."""

    loop = "closed, 3 users x {streams} streams, exponential think time; open-loop local load"

    def params(self) -> dict[str, object]:
        out = super().params()
        out.update(
            loop=self.loop.format(streams=REPLAY_STREAMS),
            jobs=len(REPLAY_HOMES) * REPLAY_STREAMS * REPLAY_JOBS_PER_STREAM,
            horizon_s=REPLAY_HORIZON_S,
            sites=len(REPLAY_SITES),
        )
        return out

    def _plan(self, stream: str) -> list[_PlannedJob]:
        rng = derive_rng(self.seed, f"plan:{stream}")
        n = REPLAY_JOBS_PER_STREAM
        pipelines = round(PIPELINE_SHARE * n)
        kinds = ["pipeline"] * pipelines + ["script", "cle"] * ((n - pipelines) // 2)
        kinds += ["script"] * (n - len(kinds))
        rng.shuffle(kinds)
        return [
            _PlannedJob(f"{stream}j{i}", str(kinds[i]), float(rng.exponential(3000.0)))
            for i in range(n)
        ]

    def setup(self) -> None:
        grid = build_grid(
            {site: [vsite] for site, vsite in REPLAY_SITES.items()},
            seed=self.seed, storage=self.storage,
        )
        self.grid = grid
        logins = {site: "prod" for site in grid.usites}
        self.users = [grid.add_user(f"Prod User {i}", logins=logins) for i in range(3)]
        for site, vsite in REPLAY_SITES.items():
            LocalLoadGenerator(
                grid.sim,
                grid.usites[site].vsites[vsite].batch,
                derive_rng(self.seed, f"local:{site}"),
                arrival_rate_per_s=1 / 1800.0,
                profile=WorkloadProfile(mean_runtime_s=5400.0, max_cpus=32),
                horizon_s=REPLAY_HORIZON_S,
            )
        self.streams_plan: list[tuple[int, str, list[_PlannedJob]]] = []
        self.inputs: dict[str, bytes] = {}
        for u, home in enumerate(REPLAY_HOMES):
            for s in range(REPLAY_STREAMS):
                stream = f"u{u}s{s}"
                plan = self._plan(stream)
                self.streams_plan.append((u, home, plan))
                fs = grid.usites[home].xspace.fs
                rng = derive_rng(self.seed, f"data:{stream}")
                for job in plan:
                    data = rng.bytes(4096)
                    self.inputs[job.name] = data
                    fs.write(f"/data/{job.name}/input.dat", data)
                    fs.write(f"/data/{job.name}/{job.name}.f90", b"program x\nend\n")
        self.raw = {
            (u, home): grid.connect_user(self.users[u], home)
            for u, home in enumerate(REPLAY_HOMES)
        }
        self.readers = {
            u: GridSession(grid, self.users[u], home) for u, home in enumerate(REPLAY_HOMES)
        }
        self._before = grid_counters(grid)

    @staticmethod
    def _build(jpa: JobPreparationAgent, rng, home: str, job: _PlannedJob):
        vsite = REPLAY_SITES[home]
        if job.kind != "pipeline":
            return synth_job(jpa, rng, job.name, vsite=vsite, profile=REPLAY_PROFILES[job.kind])
        other = "LRZ" if home != "LRZ" else "RUKA"
        builder = jpa.new_job(job.name, vsite=vsite)
        imp = builder.import_from_xspace(f"/data/{job.name}/input.dat", "input.dat")
        stage1 = builder.script_task(
            "stage1", script="#!/bin/sh\ns1\n",
            resources=ResourceRequest(cpus=8, time_s=7200),
            simulated_runtime_s=float(rng.uniform(600, 3600)),
        )
        builder.depends(imp, stage1, files=["input.dat"])
        sub = builder.sub_job(f"{job.name}r", vsite=REPLAY_SITES[other], usite=other)
        sub.script_task(
            "stage2", script="#!/bin/sh\ns2\n",
            resources=ResourceRequest(cpus=8, time_s=7200),
            simulated_runtime_s=float(rng.uniform(600, 3600)),
        )
        builder.depends(stage1, sub.ajo, files=["hand.off"])
        return builder

    def _stream(self, u: int, home: str, plan: list[_PlannedJob], done: list):
        grid, result = self.grid, self.result
        rng = derive_rng(self.seed, f"runtime:{plan[0].name}")
        session = self.raw[(u, home)]
        jpa = JobPreparationAgent(session)
        jmc = JobMonitorController(session)
        for job in plan:
            yield grid.sim.timeout(job.think_s)
            result.attempted += 1
            submitted_at = grid.sim.now
            try:
                builder = self._build(jpa, rng, home, job)
                job_id = yield from jpa.submit(builder)
            except Exception as exc:  # a refused submission is a failed operation
                result.fail(f"{job.name}: refused: {exc}")
                continue
            final = yield from jmc.wait_for_completion(job_id, subscribe=True)
            result.turnaround_s.append(grid.sim.now - submitted_at)
            done.append((u, job, job_id, final["status"]))

    def run(self) -> None:
        grid, result = self.grid, self.result
        done: list = []
        for u, home, plan in self.streams_plan:
            grid.sim.process(self._stream(u, home, plan, done), name=f"stream:{plan[0].name}")
        grid.sim.run(until=REPLAY_HORIZON_S + 12 * 3600.0)
        grid.sim.run()
        planned = sum(len(plan) for _, _, plan in self.streams_plan)
        if len(done) != planned - len(result.failures):
            result.fail(f"lost jobs: {planned - len(result.failures) - len(done)}")
        for usite in grid.usites.values():
            for run in usite.njs._runs.values():
                if not run.status().is_terminal:
                    result.fail(f"{run.job_id}: NJS run not terminal")
        self._read_back(done)
        result.jobs = len(done)
        after = grid_counters(grid)
        result.counters = _diff(after, self._before)
        result.wire_bytes = int(sum(
            value for key, value in result.counters.items() if key.startswith("net.bytes.")
        ))
        result.samples = grid_samples(grid)
        result.fingerprint = {
            "jobs": result.jobs,
            "events": after["sim.events"],
            "wire_bytes": result.wire_bytes,
            "storage_bytes": after["storage.bytes_written"],
            "turnaround": [round(t, 6) for t in result.turnaround_s],
            "clock": grid.sim.now,
        }

    def _read_back(self, done: list) -> None:
        result = self.result
        for u, job, job_id, status in done:
            if status != "successful":
                result.fail(f"{job.name}: finished {status}")
        for u, job, job_id, status in done * READ_BACK_PASSES:
            reader = self.readers[u]
            view = _timed(result, "status", lambda r=reader, j=job_id: r.status(j))
            if view.status != status:
                result.fail(f"{job.name}: status {view.status} != {status}")
            _timed(result, "outcome", lambda r=reader, j=job_id: r.outcome(j))
            data = _timed(
                result, "fetch", lambda r=reader, j=job_id: r.fetch_file(j, "input.dat"),
            )
            if data != self.inputs[job.name]:
                result.fail(f"{job.name}: fetched input differs")
            rows = _timed(result, "list", lambda r=reader: r.list_jobs())
            listing = {row.job_id: row.status for row in rows}
            if listing.get(job_id) != status:
                result.fail(f"{job.name}: listing says {listing.get(job_id)}")
            result.end_job_queries()



# ---------------------------------------------------------------- session
SESSION_SITE = "FZJ"
SESSION_VSITE = "FZJ-T3E"
SESSION_INPUT_BYTES = 8 * 1024
SESSION_RUNTIME_S = 60.0
SESSION_CLIENTS = 2
SESSION_JOBS_PER_CLIENT = 100


class Session(Workload):
    """Interactive clients over real TCP: the control-plane path."""

    loop = "closed, {clients} clients, no think time"
    transport = "aio"

    def params(self) -> dict[str, object]:
        out = super().params()
        out.update(
            loop=self.loop.format(clients=SESSION_CLIENTS),
            jobs=SESSION_CLIENTS * SESSION_JOBS_PER_CLIENT,
            job_runtime_s=SESSION_RUNTIME_S,
            input_bytes=SESSION_INPUT_BYTES,
        )
        return out

    def setup(self) -> None:
        self.loop_ = asyncio.new_event_loop()
        self.grid = build_grid(
            {SESSION_SITE: [SESSION_VSITE]},
            seed=self.seed, transport=self.transport, storage=self.storage,
        )
        self.inputs: list[list[bytes]] = []
        self.users = []
        for c in range(SESSION_CLIENTS):
            user = self.grid.add_user(f"Session User {c}", logins={SESSION_SITE: f"user{c}"})
            rng = derive_rng(self.seed, f"session:{c}")
            files = [rng.bytes(SESSION_INPUT_BYTES) for _ in range(SESSION_JOBS_PER_CLIENT)]
            for j, data in enumerate(files):
                user.workstation.fs.write(f"/home/user{c}/in{j}.dat", data)
            self.inputs.append(files)
            self.users.append(user)
        self.sessions = self.loop_.run_until_complete(self._connect())
        self._before = grid_counters(self.grid)

    async def _connect(self) -> list[AsyncGridSession]:
        sessions = []
        for user in self.users:
            sessions.append(await AsyncGridSession.connect(self.grid, user, SESSION_SITE))
        return sessions

    async def _client(self, c: int) -> None:
        result, sim = self.result, self.grid.sim
        session, user = self.sessions[c], self.users[c]
        for j, data in enumerate(self.inputs[c]):
            job = await session.new_job(f"c{c}j{j}", vsite=SESSION_VSITE)
            imp = job.import_from_workstation(f"/home/user{c}/in{j}.dat", "input.dat")
            work = job.script_task(
                "work", f"#!/bin/sh\nwc input.dat  # {c}.{j}\n",
                simulated_runtime_s=SESSION_RUNTIME_S,
            )
            job.depends(imp, work, files=["input.dat"])
            submitted_at = sim.now
            handle = await _atimed(
                result, "submit", session.submit(job, workstation=user.workstation),
            )
            final = await handle.wait()
            result.attempted += 1
            result.turnaround_s.append(sim.now - submitted_at)
            if final.status != "successful":
                result.fail(f"{handle.job_id}: finished {final.status}")
            view = await _atimed(result, "status", session.status(handle))
            if view.status != final.status:
                result.fail(f"{handle.job_id}: status {view.status}")
            await _atimed(result, "outcome", session.outcome(handle))
            fetched = await _atimed(result, "fetch", session.fetch_file(handle, "input.dat"))
            if fetched != data:
                result.fail(f"{handle.job_id}: fetched bytes differ from the import")
            rows = await _atimed(result, "list", session.list_jobs())
            if not any(row.job_id == handle.job_id for row in rows):
                result.fail(f"{handle.job_id}: missing from the listing")
            result.end_job_queries()
            result.jobs += 1

    async def _run(self) -> None:
        await asyncio.gather(*(self._client(c) for c in range(SESSION_CLIENTS)))

    def run(self) -> None:
        self.loop_.run_until_complete(self._run())
        after = grid_counters(self.grid)
        result = self.result
        result.counters = _diff(after, self._before)
        result.wire_bytes = int(result.counters["wire.socket_bytes"])
        result.samples = grid_samples(self.grid)
        result.fingerprint = {
            "jobs": result.jobs,
            "frames": result.counters["wire.frames"],
            "socket_bytes": result.wire_bytes,
        }

    def close(self) -> None:
        loop = getattr(self, "loop_", None)
        if loop is not None:
            try:
                loop.run_until_complete(self.grid.network.aclose())
            finally:
                loop.close()
        super().close()


# ---------------------------------------------------------------- restart
RESTART_SITES = {"FZJ": ["FZJ-T3E"], "LRZ": ["LRZ-VPP"]}
#: Jobs populated in set-up: single-site jobs and FZJ -> LRZ pipelines.
RESTART_SINGLES = 28
RESTART_PIPELINES = 7


class Restart(Workload):
    """Snapshot, thaw and cold-restart a populated SQLite grid; read it back."""

    loop = "closed, 1 client, sequential read-back"
    storage = "sqlite"

    def __init__(self, seed: int, workdir: str) -> None:
        super().__init__(seed)
        self.workdir = workdir

    def params(self) -> dict[str, object]:
        out = super().params()
        out.update(jobs=RESTART_SINGLES + RESTART_PIPELINES, sites=len(RESTART_SITES),
                   singles=RESTART_SINGLES, pipelines=RESTART_PIPELINES)
        return out

    def setup(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)
        os.makedirs(self.workdir)
        grid = build_grid(
            RESTART_SITES, seed=self.seed,
            storage=f"sqlite:{os.path.join(self.workdir, 'grid.db')}",
        )
        self.grid = grid
        user = grid.add_user("Restart User", logins={s: "ops" for s in RESTART_SITES})
        self.user_name = user.name
        session = GridSession(grid, user, "FZJ")
        rng = derive_rng(self.seed, "restart:jobs")
        kinds = [i < RESTART_PIPELINES for i in range(RESTART_SINGLES + RESTART_PIPELINES)]
        rng.shuffle(kinds)
        handles = []
        for i, pipeline in enumerate(kinds):
            name = f"r{i}"
            job = session.new_job(name, vsite="FZJ-T3E")
            if pipeline:
                stage1 = job.script_task(
                    "stage1", "#!/bin/sh\ns1\n",
                    simulated_runtime_s=float(rng.uniform(300, 900)),
                )
                sub = job.sub_job(f"{name}r", vsite="LRZ-VPP", usite="LRZ")
                sub.script_task(
                    "stage2", "#!/bin/sh\ns2\n",
                    simulated_runtime_s=float(rng.uniform(300, 900)),
                )
                job.depends(stage1, sub.ajo, files=["hand.off"])
                path = "hand.off"
            else:
                data = rng.bytes(int(rng.integers(1024, 4096)))
                user.workstation.fs.write(f"/home/ops/{name}.dat", data)
                imp = job.import_from_workstation(f"/home/ops/{name}.dat", "input.dat")
                work = job.script_task(
                    "work", f"#!/bin/sh\nwc input.dat  # {name}\n",
                    simulated_runtime_s=float(rng.uniform(60, 600)),
                )
                job.depends(imp, work, files=["input.dat"])
                path = "input.dat"
            handles.append((session.submit(job, workstation=user.workstation), path))
            session.advance(float(rng.exponential(120.0)))
        self.expected = []
        for handle, path in handles:
            final = session.wait(handle)
            if final.status != "successful":
                self.result.fail(f"{handle.job_id}: finished {final.status} before the snapshot")
            self.expected.append((
                handle.job_id, path, final.status,
                encode_outcome(session.outcome(handle)),
                session.fetch_file(handle, path),
            ))
        self.expected_listing = sorted(
            (row.job_id, row.name, row.status, row.submitted_at)
            for row in session.list_jobs()
        )

    def run(self) -> None:
        result = self.result
        path = os.path.join(self.workdir, "grid.snapshot")
        t0 = time.perf_counter()
        snap = self.grid.snapshot()
        snap.save(path)
        t1 = time.perf_counter()
        result.phases["snapshot_s"] = t1 - t0
        result.phases["snapshot_bytes"] = os.path.getsize(path)
        self.grid.storage.close()
        self.grid = snap = None
        t1 = time.perf_counter()
        restored = build_grid(
            restore_from=GridSnapshot.load(path),
            storage=f"sqlite:{os.path.join(self.workdir, 'thawed.db')}",
        )
        t2 = time.perf_counter()
        for usite in restored.usites.values():
            usite.crash_site()
            usite.restart_site()
        t3 = time.perf_counter()
        result.phases["load_s"] = t2 - t1
        result.phases["recovery_s"] = t3 - t1
        self.grid = restored
        before = grid_counters(restored)
        session = GridSession(restored, self.user_name, "FZJ")
        # Outcomes are compared by their encoding in check(), so the
        # encoding is neither timed nor counted in the ajo layer.
        self.outcomes = []
        for job_id, fpath, status, outcome_bytes, file_bytes in self.expected * READ_BACK_PASSES:
            view = _timed(result, "status", lambda j=job_id: session.status(j))
            if view.status != status:
                result.fail(f"{job_id}: status {view.status} != {status}")
            outcome = _timed(result, "outcome", lambda j=job_id: session.outcome(j))
            self.outcomes.append((job_id, outcome, outcome_bytes))
            data = _timed(result, "fetch", lambda j=job_id, p=fpath: session.fetch_file(j, p))
            if data != file_bytes:
                result.fail(f"{job_id}: file bytes differ after restart")
            rows = _timed(result, "list", session.list_jobs)
            listing = sorted((r.job_id, r.name, r.status, r.submitted_at) for r in rows)
            if listing != self.expected_listing:
                result.fail(f"{job_id}: listing differs after restart")
            result.end_job_queries()
        result.jobs = len(self.expected)
        after = grid_counters(restored)
        result.counters = dict(after)
        result.counters.update({
            key: value for key, value in _diff(after, before).items()
            if key.startswith("net.")
        })
        result.wire_bytes = int(sum(
            value for key, value in result.counters.items() if key.startswith("net.bytes.")
        ))
        result.samples = grid_samples(restored)
        result.fingerprint = {
            "jobs": result.jobs,
            "snapshot_bytes": result.phases["snapshot_bytes"],
            "wire_bytes": result.wire_bytes,
            "storage_reads": after["storage.reads"],
            "clock": restored.sim.now,
        }

    def check(self) -> None:
        for job_id, outcome, outcome_bytes in self.outcomes:
            if encode_outcome(outcome) != outcome_bytes:
                self.result.fail(f"{job_id}: outcome bytes differ after restart")

    def close(self) -> None:
        if getattr(self, "grid", None) is not None:
            self.grid.storage.close()
        workdir = self.workdir
        super().close()
        shutil.rmtree(workdir, ignore_errors=True)


WORKLOADS: dict[str, type[Workload]] = {
    "replay": Replay,
    "session": Session,
    "restart": Restart,
}
