"""The benchmark's four workloads, one repetition each.

Every function here runs inside a fresh ``rep.py`` interpreter and
returns a JSON-ready dict of raw measurements: wall-clock phases,
exact counts that must repeat bit for bit, and an outcome digest.
``run.py`` turns several repetitions into the reported metrics.

Inputs come from the seed alone: it is the world seed, it is part of
every agent id and it sets the banks' opening balances.  Nothing that
decides how much work a run does changes with it — itineraries, start
nodes and ballast stay fixed, and ids keep their length so packages
keep their size — because in a simulation with lock contention even a
few bytes more shift the virtual schedule and change the work by ten
per cent.  The figures of different seeds stay comparable.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import time
from typing import Any

# Shapes (see README.md for why each was chosen).
TOURS_NODES = 8
TOURS_AGENTS = 16
TOURS_STEPS = 24
TOURS_MIX = (0.0, 0.25, 0.5, 0.75)
TOURS_BALLAST = 1_000
TOURS_JOURNAL_EPOCH = 0.5

SWARM_SHARDS = 2
SWARM_NODES = 6
SWARM_AGENTS = 64
SWARM_STEPS = 8
SWARM_BALLAST = 60_000
SWARM_EPOCH = 1.0

ENT_SHARDS = 2
ENT_RING = 6
ENT_AGENTS = 12
ENT_STEPS = 6
ENT_BALLAST = 2_000
ENT_TAKEOVER = 0.01
ENT_SHARD_KILL = (1, 0.08, 2.0)  # shard, at, restart_at

#: Crash point of the journaled runs, as a share of the uninterrupted
#: run's virtual length.
KILL_SHARE = 0.75
FSYNC = "commit"


def digest(outcomes: dict[str, Any]) -> str:
    text = json.dumps(outcomes, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def mean_rollback_latency(timelines) -> float:
    """Mean virtual initiation→completion rollback latency."""
    from types import SimpleNamespace

    from repro.bench.harness import rollback_latencies

    latencies: list[float] = []
    for timeline in timelines:
        view = SimpleNamespace(metrics=SimpleNamespace(timeline=timeline))
        latencies.extend(rollback_latencies(view))
    return sum(latencies) / len(latencies) if latencies else 0.0


def _tag(seed: int) -> str:
    """The seed's part of agent ids, of fixed width."""
    return f"{seed % 100_000:05d}"


def _banked_node(world, name: str, seed: int,
                 directory_price=None) -> None:
    from repro.bench.workloads import BANK, DIRECTORY
    from repro.resources.bank import Bank, OverdraftPolicy
    from repro.resources.directory import InfoDirectory

    node = world.add_node(name)
    bank = Bank(BANK)
    opening = 1_000_000 + seed % 1_000
    bank.seed_account("merchant", opening,
                      overdraft=OverdraftPolicy.ALLOWED)
    bank.seed_account("escrow", opening,
                      overdraft=OverdraftPolicy.ALLOWED)
    node.add_resource(bank)
    if directory_price is not None:
        directory = InfoDirectory(DIRECTORY)
        directory.publish("offers",
                          [{"item": "widget", "price": directory_price}])
        node.add_resource(directory)


def counts_of(counters: dict[str, int]) -> dict[str, int]:
    """The paper's counts plus step totals, from a world's counters."""
    transfer_bytes = sum(v for k, v in counters.items()
                         if k.startswith("bytes.agent.transfers."))
    return {
        "steps": counters.get("steps.committed", 0),
        "rollback_transfers": counters.get(
            "agent.transfers.compensation", 0),
        "transfer_bytes": transfer_bytes,
        "net_messages": sum(v for k, v in counters.items()
                            if k.startswith("net.messages.")),
        "net_bytes": sum(v for k, v in counters.items()
                         if k.startswith("bytes.net.")),
        "net_gave_up": counters.get("net.gave_up", 0),
    }


def _finished(outcomes: dict[str, Any]) -> int:
    return sum(1 for o in outcomes.values() if o["status"] == "finished")


def _fresh(path: str) -> str:
    if os.path.exists(path):
        os.remove(path)
    return path


# ---------------------------------------------------------------------------
# tours: the paper's tours on the unsharded World, in process
# ---------------------------------------------------------------------------

def _tours_world(seed: int, journal=None):
    from repro import RollbackMode, World
    from repro.bench.workloads import TourAgent, make_tour_plan

    kwargs = {}
    if journal is not None:
        kwargs = {"journal": journal, "journal_epoch": TOURS_JOURNAL_EPOCH}
    world = World(seed=seed, **kwargs)
    for i in range(TOURS_NODES):
        _banked_node(world, f"n{i}", seed, directory_price=10 + i)
    nodes = [f"n{i}" for i in range(TOURS_NODES)]
    for a in range(TOURS_AGENTS):
        offset = a % TOURS_NODES
        plan = make_tour_plan(nodes[offset:] + nodes[:offset], TOURS_STEPS,
                              mixed_fraction=TOURS_MIX[a % 4],
                              savepoint_every=6,
                              rollback_depth=TOURS_STEPS - 1,
                              rollback_times=2, sro_ballast=TOURS_BALLAST)
        mode = (RollbackMode.BASIC if (a // 4) % 2 == 0
                else RollbackMode.OPTIMIZED)
        world.launch(TourAgent(f"tour-{_tag(seed)}-{a:02d}", plan),
                     at=plan.steps[0].node,
                     method="run", mode=mode)
    return world


def tours(seed: int, t_start: float, workdir: str, journal: str,
          **_: Any) -> dict[str, Any]:
    """The measured run, then a resume from a copy of ``journal``: the
    journal of a twin of the same world killed at a barrier, written
    once per benchmark run by :func:`reference`."""
    from repro import FileJournal, WorldJournal, resume_world
    from repro.storage import serialization

    world = _tours_world(seed)
    setup_s = time.perf_counter() - t_start
    t0 = time.perf_counter()
    world.run(max_events=50_000_000)
    run_s = time.perf_counter() - t0
    outcomes = world.outcomes()
    counts = counts_of(world.metrics.summary())
    vlatency = mean_rollback_latency([world.metrics.timeline])
    events = world.sim.events_processed
    stats = serialization.stats()

    path = os.path.join(workdir, f"tours-{os.getpid()}.journal")
    shutil.copyfile(journal, path)
    t1 = time.perf_counter()
    wjournal = WorldJournal(FileJournal(path, fsync=FSYNC))
    resumed = resume_world(wjournal)
    resume_s = time.perf_counter() - t1
    replayed = wjournal.commits
    resumed.run(max_events=50_000_000)
    total_barriers = wjournal.commits
    jstats = wjournal.stats()
    wjournal.close()
    os.remove(path)
    resumed_outcomes = resumed.outcomes()
    return {
        "setup_s": [setup_s],
        "run_s": run_s,
        "outcome_s": run_s,
        "resume_s": resume_s,
        "agents": len(outcomes),
        "finished": _finished(outcomes),
        "digest": digest(outcomes),
        "resumed_digest": digest(resumed_outcomes),
        "rollback_vlatency_s": vlatency,
        "replayed_barriers": replayed,
        "total_barriers": total_barriers,
        "exact": {**counts, "events": events,
                  "journal_bytes": jstats["bytes"],
                  "journal_commits": jstats["commits"]},
        # The commits before the kill were made by the reference's
        # interpreter; this one made the rest.
        "program": {"events": events,
                    "journal_commits": jstats["commits"] - replayed,
                    "epochs": 0, "stats": stats},
    }


def _tours_journal(seed: int, end: float, path: str) -> None:
    """Journal a twin of the tours world and kill it at a barrier at
    ``KILL_SHARE`` of the uninterrupted run's virtual length ``end``."""
    from repro import FileJournal, WorldJournal, WorldKilled

    journal = WorldJournal(FileJournal(_fresh(path), fsync=FSYNC))
    twin = _tours_world(seed, journal)
    twin.kill_world(at=KILL_SHARE * end, phase="barrier")
    try:
        twin.run(max_events=50_000_000)
        raise RuntimeError("tours twin was never killed")
    except WorldKilled:
        pass
    finally:
        journal.close()


# ---------------------------------------------------------------------------
# swarm / entangled: the process backend, killed at a barrier and resumed
# ---------------------------------------------------------------------------

def _swarm_world(cls, seed: int, journal=None):
    from repro.bench.workloads import TourAgent, make_tour_plan

    world = cls(n_shards=SWARM_SHARDS, seed=seed, epoch=SWARM_EPOCH,
                journal=journal)
    for i in range(SWARM_NODES):
        _banked_node(world, f"n{i}", seed)
    for a in range(SWARM_AGENTS):
        home = a % SWARM_SHARDS
        part = [f"n{i}" for i in range(SWARM_NODES)
                if i % SWARM_SHARDS == home]
        offset = (a // SWARM_SHARDS) % len(part)
        plan = make_tour_plan(part[offset:] + part[:offset], SWARM_STEPS,
                              mixed_fraction=0.25,
                              rollback_depth=SWARM_STEPS - 1,
                              sro_ballast=SWARM_BALLAST)
        world.launch(TourAgent(f"sw-{_tag(seed)}-{a:02d}", plan),
                     at=plan.steps[0].node,
                     method="run")
    return world


def _entangled_world(cls, seed: int, journal=None):
    from repro import FTParams
    from repro.agent.packages import Protocol
    from repro.bench.workloads import TourAgent, make_tour_plan

    kwargs = {"lockstep": "optimistic"} if cls.__name__.startswith(
        "Proc") else {}
    world = cls(n_shards=ENT_SHARDS, seed=seed, journal=journal,
                ft_params=FTParams(takeover_timeout=ENT_TAKEOVER), **kwargs)
    ring = [f"n{i}" for i in range(ENT_RING)]
    for name in ring:
        _banked_node(world, name, seed)
    for i, name in enumerate(ring):
        # Round-robin placement puts the next two ring nodes on other
        # shards: takeover and diversion targets are cross-shard.
        world.set_alternates(name, ring[(i + 1) % ENT_RING],
                             ring[(i + 2) % ENT_RING])
    shard, at, restart_at = ENT_SHARD_KILL
    world.kill_shard(shard, at=at, restart_at=restart_at)
    for a in range(ENT_AGENTS):
        start = (3 * a) % ENT_RING
        plan = make_tour_plan(
            [ring[(start + j) % ENT_RING] for j in range(ENT_STEPS)],
            ENT_STEPS, mixed_fraction=0.25, rollback_depth=ENT_STEPS - 1,
            sro_ballast=ENT_BALLAST)
        world.launch(TourAgent(f"ft-{_tag(seed)}-{a:02d}", plan),
                     at=plan.steps[0].node,
                     method="run", protocol=Protocol.FAULT_TOLERANT)
    return world


BUILDERS = {"swarm": _swarm_world, "entangled": _entangled_world}


def reference(workload: str, seed: int, journal: str = "",
              **_: Any) -> dict[str, Any]:
    """The uninterrupted in-process twin of a workload.

    For the process-backend workloads the sharded backends are
    bit-identical by the determinism contract, so this run fixes the
    digest the resumed process run must match, the crash point, the
    barrier count, and the virtual rollback latency (worker timelines
    never leave the workers).  For ``tours`` it is the measured run
    itself, which ``pin.py`` uses; given a ``journal`` path, it also
    writes the killed twin's journal there for the repetitions to
    resume.
    """
    from repro import ShardedWorld

    if workload == "tours":
        world = _tours_world(seed)
        world.run(max_events=50_000_000)
        if journal:
            _tours_journal(seed, world.sim.now, journal)
        return {"digest": digest(world.outcomes())}
    world = BUILDERS[workload](ShardedWorld, seed)
    world.run()
    outcomes = world.outcomes()
    return {
        "digest": digest(outcomes),
        "finished": _finished(outcomes),
        "agents": len(outcomes),
        "end": world.now,
        "epochs": world.epochs_run,
        "events": world.events_processed(),
        "rollback_vlatency_s": mean_rollback_latency(
            [shard.metrics.timeline for shard in world.shards]),
        "exact": counts_of(world.counters()),
    }


def _journaled_proc_world(workload: str, seed: int, workdir: str):
    """The process-backend world of a repetition, journaling to a file."""
    from repro import FileJournal, ProcShardedWorld, WorldJournal

    path = _fresh(os.path.join(workdir, f"{workload}-{os.getpid()}.journal"))
    journal = WorldJournal(FileJournal(path, fsync=FSYNC))
    return BUILDERS[workload](ProcShardedWorld, seed, journal), journal, path


def proc_run(workload: str, seed: int, t_start: float, workdir: str,
             kill_at: float, **_: Any) -> dict[str, Any]:
    from repro import FileJournal, WorldJournal, WorldKilled, resume_world
    from repro.storage import serialization

    world, journal, path = _journaled_proc_world(workload, seed, workdir)
    setup_s = time.perf_counter() - t_start
    try:
        world.kill_world(at=kill_at, phase="barrier")
        t0 = time.perf_counter()
        try:
            world.run()
            raise RuntimeError(f"{workload} run was never killed")
        except WorldKilled:
            pass
        killed_s = time.perf_counter() - t0
        killed_stats = world.serialization_stats()
    finally:
        world.close()
        journal.close()
    # The coordinator's own IPC counters then cover the resumed run
    # only, like the fresh workers' counters do.
    serialization.reset_stats()

    t1 = time.perf_counter()
    journal = WorldJournal(FileJournal(path, fsync=FSYNC))
    resumed = resume_world(journal)
    try:
        resume_s = time.perf_counter() - t1
        replayed = journal.commits
        t2 = time.perf_counter()
        resumed.run()
        cont_s = time.perf_counter() - t2
        outcome_s = time.perf_counter() - t0
        outcomes = resumed.outcomes()
        counters = resumed.counters()
        stats = resumed.serialization_stats()
        events = resumed.events_processed()
        epochs = resumed.epochs_run
        jstats = journal.stats()
    finally:
        resumed.close()
        journal.close()
    os.remove(path)
    spec = {key: stats[key] for key in (
        "spec.epochs_speculated", "spec.epochs_rolled_back")}
    killed_spec = {key: killed_stats[key] for key in spec}
    return {
        "setup_s": [setup_s],
        "run_s": killed_s + cont_s,
        "outcome_s": outcome_s,
        "resume_s": resume_s,
        "agents": len(outcomes),
        "finished": _finished(outcomes),
        "digest": digest(outcomes),
        "replayed_barriers": replayed,
        "total_barriers": epochs,
        "exact": {**counts_of(counters), "events": events, "epochs": epochs,
                  "journal_bytes": jstats["bytes"],
                  "journal_commits": jstats["commits"], **spec},
        "program": {"events": events, "journal_commits": jstats["commits"],
                    "epochs": epochs, "stats": stats,
                    "killed_spec": killed_spec},
    }


def setup_only(workload: str, seed: int, t_start: float, workdir: str,
               **_: Any) -> dict[str, Any]:
    """Set a measured world up exactly as a repetition does, then stop.

    Gives ``setup_s`` more samples than the full repetitions alone.
    """
    if workload == "tours":
        _tours_world(seed)
        return {"setup_s": [time.perf_counter() - t_start]}
    world, journal, path = _journaled_proc_world(workload, seed, workdir)
    setup_s = time.perf_counter() - t_start
    world.close()
    journal.close()
    os.remove(path)
    return {"setup_s": [setup_s]}
