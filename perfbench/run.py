"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload tours --seed 1 --seconds 30 --trace 0

Workloads: ``tours``, ``swarm``, ``entangled``, ``service`` (see
README.md).  Each repetition runs in a fresh interpreter (``rep.py``);
repetitions start until ``--seconds`` have passed.  With
``--trace 0`` the end-to-end metrics are reported, with ``--trace 1``
the per-layer metrics of a traced run, interleaved with untraced
repetitions that give the tracing overhead.  Every line but the last
is a human-readable report; the last line is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit
code is 0 whenever that line is printed, whatever ``correct`` says.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from typing import Any, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import hostspeed  # noqa: E402
import service_load  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = ("tours", "swarm", "entangled", "service")
MIN_REPS = 2
#: Extra set-up-only repetitions of the process-backend workloads,
#: whose full repetitions are few, so that the median ``setup_s`` rests
#: on more samples.
SETUP_REPS = 3
#: Workloads whose wall-clock durations are scaled to nominal host
#: seconds (hostspeed.py): their repetitions keep the interpreter busy,
#: so they slow down with the calibration.  ``entangled`` and
#: ``service`` wait mostly on hand-offs between processes and threads;
#: scaled, their figures spread further across ten seeds (in one set,
#: entangled steps/s 0.22 of the median against 0.16 and resume 0.22
#: against 0.09; service launch p50 0.14 against 0.08).
SCALED = ("tours", "swarm")
MIN_TRACED_PAIRS = 2
SERVICE_FIXED_LAUNCHES = 100
#: Hard stop for starting repetitions, well inside the 180 s budget.
DEADLINE_S = 150.0

END_TO_END = {
    "setup_s": "s", "steps_per_s": "1/s", "resume_s": "s",
    "rollback_transfers": "count", "transfer_bytes": "bytes",
    "rollback_vlatency_s": "sim_s", "journal_bytes_per_step": "bytes",
    "launch_p50_ms": "ms", "launch_tail_ms": "ms", "capacity_rps": "1/s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "sim.events": "count", "sim.self_s": "s", "sim.us_per_event": "us",
    "exactly_once.steps": "count", "exactly_once.self_s": "s",
    "tx.commits": "count", "tx.aborts": "count", "tx.abort_ratio": "ratio",
    "core.rollbacks": "count", "core.compensations": "count",
    "core.self_s": "s",
    "agent.packs": "count", "agent.unpacks": "count",
    "agent.unpack_per_pack": "ratio", "agent.pack_s": "s",
    "agent.unpack_s": "s", "agent.package_mb": "MB",
    "log.entries_hydrated": "count", "log.hydrated_share": "ratio",
    "storage.captures": "count", "storage.restores": "count",
    "storage.capture_s": "s", "storage.restore_s": "s",
    "storage.blob_reuse_ratio": "ratio",
    "net.messages": "count", "net.bytes": "bytes", "net.gave_up": "count",
    "node.bridge.routes": "count", "node.bridge.route_s": "s",
    "node.ipc.barriers": "count", "node.ipc.encode_s": "s",
    "node.ipc.decode_s": "s", "node.ipc.wait_s": "s",
    "node.ipc.framed_bytes_per_barrier": "bytes",
    "node.ipc.control_bytes_per_barrier": "bytes",
    "node.ipc.copied_bytes": "bytes", "node.ipc.ring_spills": "count",
    "node.spec.validations": "count", "node.spec.validate_s": "s",
    "node.spec.epochs_speculated": "count",
    "node.spec.epochs_rolled_back": "count",
    "node.spec.survival_ratio": "ratio", "node.merge.records": "count",
    "journal.commits": "count", "journal.commit_s": "s",
    "journal.syncs": "count", "journal.sync_s": "s",
    "journal.bytes": "bytes", "journal.recover_s": "s",
    "journal.replay_s": "s", "journal.replayed_barriers": "count",
    "service.post_ms_p50": "ms", "service.admit_ms_p50": "ms",
    "service.exec_ms_p50": "ms", "service.step_epochs": "count",
    "service.step_epoch_s": "s", "service.rejected": "count",
    "service.events_dropped": "count", "service.gen_lag_ms_max": "ms",
    "trace.overhead_frac": "ratio",
}

#: The layers each workload keeps busy, with the trace counter that
#: proves it.  A traced run fails its correctness check if one reads 0.
BUSY = {
    "tours": ["sim.run", "exactly_once.execute", "tx.commit",
              "core.start_rollback", "agent.pack", "agent.unpack",
              "log.entry_at", "storage.capture", "net.transfer_time",
              "journal.commit", "journal.recover"],
    "swarm": ["sim.run_epoch", "exactly_once.execute", "tx.commit",
              "core.start_rollback", "agent.pack", "agent.unpack",
              "log.entry_at", "storage.capture", "node.ipc.cycle",
              "node.bridge.route", "node.merge.record",
              "journal.commit", "journal.recover"],
    "entangled": ["sim.run_epoch", "exactly_once.execute", "tx.commit",
                  "core.start_rollback", "agent.pack", "storage.capture",
                  "net.transmit", "node.ipc.cycle", "node.bridge.route",
                  "node.spec.validate", "node.merge.record",
                  "journal.commit", "journal.recover"],
    "service": ["sim.run_epoch", "exactly_once.execute", "tx.commit",
                "core.start_rollback", "agent.pack", "storage.capture",
                "node.bridge.route", "journal.sync.memory",
                "service.step_epoch.sharded", "service.dispatch",
                "service.launch"],
}


# ---------------------------------------------------------------------------
# Environment
# ---------------------------------------------------------------------------

def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _filesystem(path: str) -> str:
    best, fstype = "", "unknown"
    try:
        with open("/proc/mounts") as fh:
            for line in fh:
                fields = line.split()
                if len(fields) >= 3 and path.startswith(fields[1]) \
                        and len(fields[1]) > len(best):
                    best, fstype = fields[1], fields[2]
    except OSError:
        pass
    return fstype


def environment(workdir: str) -> dict[str, Any]:
    return {
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "mp_start_method": "spawn",
        "journal_fsync": workloads.FSYNC,
        "journal_fs": _filesystem(os.path.realpath(workdir)),
        "platform": platform.platform(),
    }


# ---------------------------------------------------------------------------
# Repetitions
# ---------------------------------------------------------------------------

class RepFailed(Exception):
    pass


def run_rep(workload: str, seed: int, workdir: str, deadline: float,
            phase: str = "measure", traced: bool = False,
            **extra: Any) -> dict[str, Any]:
    """One ``rep.py`` interpreter; returns its parsed result line."""
    env = dict(os.environ)
    env["TMPDIR"] = workdir
    env["PERFBENCH_TRACE"] = "1" if traced else "0"
    trace_dir = None
    if traced:
        trace_dir = os.path.join(workdir, f"trace-{time.monotonic_ns()}")
        os.makedirs(trace_dir)
        env["PERFBENCH_TRACE_DIR"] = trace_dir
    cmd = [sys.executable, os.path.join(HERE, "rep.py"),
           "--workload", workload, "--phase", phase, "--seed", str(seed),
           "--workdir", workdir]
    for key, value in extra.items():
        cmd += [f"--{key.replace('_', '-')}", str(value)]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, env=env,
                            cwd=ROOT, start_new_session=True)
    try:
        out, err = proc.communicate(
            timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RepFailed(f"{workload} {phase} repetition timed out")
    finally:
        if trace_dir is not None:
            shutil.rmtree(trace_dir, ignore_errors=True)
    lines = [ln for ln in out.splitlines() if ln.startswith("PERFBENCH_REP ")]
    if proc.returncode != 0 or not lines:
        raise RepFailed(f"{workload} {phase} repetition exited "
                        f"{proc.returncode}:\n{err[-4000:]}")
    return json.loads(lines[-1].split(" ", 1)[1])


# ---------------------------------------------------------------------------
# End-to-end metrics
# ---------------------------------------------------------------------------

def _median(values: list[float]) -> float:
    return float(statistics.median(values))


def _scale(workload: str, rep: dict[str, Any]) -> float:
    """Turns a repetition's wall seconds into nominal host seconds on
    the workloads in ``SCALED``; 1 on the others."""
    if workload not in SCALED:
        return 1.0
    return hostspeed.scale(rep["calibration_s"])


def _exact(reps: list[dict[str, Any]], key: str) -> float:
    return float(reps[0]["exact"][key])


def launch_latencies(workload: str, reps: list[dict[str, Any]]
                     ) -> list[float]:
    """Launch-to-outcome samples in ms (nominal on ``SCALED``).  A batch
    run launches every agent before it starts, and their outcomes are
    visible when it returns."""
    if workload == "service":
        return [v for rep in reps for v in rep["fixed"]["latencies_ms"]]
    return [rep["outcome_s"] * 1000.0 * _scale(workload, rep)
            for rep in reps for _ in range(rep["agents"])]


def launch_tail(workload: str, reps: list[dict[str, Any]]) -> float:
    """Median over repetitions of each repetition's tail, so that one
    repetition caught in a slow spell of the machine does not set it."""
    return _median([service_load.tail(launch_latencies(workload, [rep]))[0]
                    for rep in reps])


def end_to_end(workload: str, reps: list[dict[str, Any]],
               reference: dict[str, Any],
               setups: list[float]) -> dict[str, float]:
    """On ``SCALED`` workloads wall-clock durations are in nominal host
    seconds (hostspeed.py)."""
    rss = _median([rep["peak_rss_mb"] for rep in reps])
    latencies = launch_latencies(workload, reps)
    if workload == "service":
        return _service_end_to_end(reps, rss, latencies)
    setup = [s * _scale(workload, rep) for rep in reps
             for s in rep["setup_s"]] \
        + setups
    vlatency = (reps[0]["rollback_vlatency_s"] if workload == "tours"
                else reference["rollback_vlatency_s"])
    return {
        "setup_s": _median(setup),
        "steps_per_s": _median([rep["exact"]["steps"]
                                / (rep["run_s"] * _scale(workload, rep))
                                for rep in reps]),
        "resume_s": _median([rep["resume_s"] * _scale(workload, rep)
                             for rep in reps]),
        "rollback_transfers": _exact(reps, "rollback_transfers"),
        "transfer_bytes": _exact(reps, "transfer_bytes"),
        "rollback_vlatency_s": vlatency,
        "journal_bytes_per_step": (_exact(reps, "journal_bytes")
                                   / _exact(reps, "steps")),
        "launch_p50_ms": _median(latencies),
        "launch_tail_ms": launch_tail(workload, reps),
        "capacity_rps": _median([rep["agents"]
                                 / (rep["run_s"] * _scale(workload, rep))
                                 for rep in reps]),
        "peak_rss_mb": rss,
    }


def _capacity(rep: dict[str, Any]) -> float:
    passed = [rung for rung in rep["rungs"] if rung["passed"]]
    return passed[-1]["achieved_rps"] if passed else 0.0


def _service_end_to_end(reps, rss, latencies) -> dict[str, float]:
    counts = [workloads.counts_of(rep["counters"]) for rep in reps]
    return {
        "setup_s": _median([s for rep in reps for s in rep["setup_s"]]),
        "steps_per_s": _median([rep["fixed"]["steps"] / rep["fixed"]["span_s"]
                                for rep in reps]),
        "resume_s": _median([rep["resume_s"] for rep in reps]),
        "rollback_transfers": _median([c["rollback_transfers"]
                                       for c in counts]),
        "transfer_bytes": _median([c["transfer_bytes"] for c in counts]),
        "rollback_vlatency_s": _median([rep["rollback_vlatency_s"]
                                        for rep in reps]),
        "journal_bytes_per_step": _median([
            rep["journal"]["bytes"] / rep["counters"]["steps.committed"]
            for rep in reps]),
        "launch_p50_ms": _median(latencies),
        "launch_tail_ms": launch_tail("service", reps),
        "capacity_rps": _median([_capacity(rep) for rep in reps]),
        "peak_rss_mb": rss,
    }


# ---------------------------------------------------------------------------
# Per-layer metrics (traced repetitions)
# ---------------------------------------------------------------------------

def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer_of(workload: str, rep: dict[str, Any]) -> dict[str, float]:
    """The per-layer metrics of one traced repetition."""
    trace = rep["trace"]
    calls, incl, extra = trace["calls"], trace["incl"], trace["extra"]
    self_s = trace["self"]
    if workload == "service":
        stats = rep["stats"]
        counts = workloads.counts_of(rep["counters"])
        journal_bytes = rep["journal"]["bytes"]
    else:
        stats = rep["program"]["stats"]
        counts = rep["exact"]
        journal_bytes = rep["exact"]["journal_bytes"]
    events = extra.get("sim.events", 0)
    commits, aborts = calls["tx.commit"], calls["tx.abort"]
    reused = stats.get("entry_blob_reused", 0)
    serialized = stats.get("entry_blob_serialized", 0)
    barriers = calls["node.ipc.cycle"]
    speculated = stats.get("spec.epochs_speculated", 0)
    rolled_back = stats.get("spec.epochs_rolled_back", 0)
    out = {
        "sim.events": events,
        "sim.self_s": self_s["sim"],
        "sim.us_per_event": _ratio(self_s["sim"] * 1e6, events),
        "exactly_once.steps": calls["exactly_once.execute"],
        "exactly_once.self_s": self_s["exactly_once"],
        "tx.commits": commits,
        "tx.aborts": aborts,
        "tx.abort_ratio": _ratio(aborts, commits + aborts),
        "core.rollbacks": calls["core.start_rollback"],
        "core.compensations": calls["core.execute_compensation"],
        "core.self_s": self_s["core"],
        "agent.packs": calls["agent.pack"],
        "agent.unpacks": calls["agent.unpack"],
        "agent.unpack_per_pack": _ratio(calls["agent.unpack"],
                                        calls["agent.pack"]),
        "agent.pack_s": incl["agent.pack"],
        "agent.unpack_s": incl["agent.unpack"],
        "agent.package_mb": extra.get("agent.package_bytes", 0) / 1e6,
        "log.entries_hydrated": stats.get("entry_hydrated",
                                          calls["log.entry_at"]),
        "log.hydrated_share": _ratio(stats.get("entry_hydrated", 0),
                                     stats.get("entry_hydration_deferred",
                                               0)),
        "storage.captures": calls["storage.capture"],
        "storage.restores": calls["storage.restore"],
        "storage.capture_s": incl["storage.capture"],
        "storage.restore_s": incl["storage.restore"],
        "storage.blob_reuse_ratio": _ratio(reused, reused + serialized),
        "net.messages": counts["net_messages"],
        "net.bytes": counts["net_bytes"],
        "net.gave_up": counts["net_gave_up"],
        "node.bridge.routes": calls["node.bridge.route"],
        "node.bridge.route_s": incl["node.bridge.route"],
        "node.ipc.barriers": barriers,
        "node.ipc.encode_s": (incl["node.ipc.encode_epoch"]
                              + incl["node.ipc.encode_reply"]
                              + incl["node.ipc.dumps"]),
        "node.ipc.decode_s": (incl["node.ipc.decode_reply"]
                              + incl["node.ipc.resolve_epoch"]),
        "node.ipc.wait_s": (incl["node.ipc.recv"]
                            - incl["node.ipc.decode_reply"]),
        "node.ipc.framed_bytes_per_barrier": _ratio(
            stats.get("ipc_bytes_framed", 0), barriers),
        "node.ipc.control_bytes_per_barrier": _ratio(
            stats.get("ipc_bytes_control", 0), barriers),
        "node.ipc.copied_bytes": stats.get("ipc_bytes_copied", 0),
        "node.ipc.ring_spills": stats.get("ring_spills", 0),
        "node.spec.validations": calls["node.spec.validate"],
        "node.spec.validate_s": incl["node.spec.validate"],
        "node.spec.epochs_speculated": speculated,
        "node.spec.epochs_rolled_back": rolled_back,
        "node.spec.survival_ratio": (1.0 - _ratio(rolled_back, speculated)
                                     if speculated else 0.0),
        "node.merge.records": calls["node.merge.record"],
        "journal.commits": calls["journal.commit"],
        "journal.commit_s": incl["journal.commit"],
        "journal.syncs": (calls["journal.sync.file"]
                          + calls["journal.sync.memory"]),
        "journal.sync_s": (incl["journal.sync.file"]
                           + incl["journal.sync.memory"]),
        "journal.bytes": journal_bytes,
        "journal.recover_s": incl["journal.recover"],
        "journal.replay_s": (incl["journal.resume"]
                             - incl["journal.recover"]),
        "journal.replayed_barriers": extra.get(
            "journal.replayed_barriers", 0),
        "service.post_ms_p50": 0.0, "service.admit_ms_p50": 0.0,
        "service.exec_ms_p50": 0.0,
        "service.step_epochs": (calls["service.step_epoch.world"]
                                + calls["service.step_epoch.sharded"]
                                + calls["service.step_epoch.proc"]),
        "service.step_epoch_s": (incl["service.step_epoch.world"]
                                 + incl["service.step_epoch.sharded"]
                                 + incl["service.step_epoch.proc"]),
        "service.rejected": 0, "service.events_dropped": 0,
        "service.gen_lag_ms_max": 0.0,
    }
    if workload == "service":
        fixed = rep["fixed"]
        out.update({
            "service.post_ms_p50": service_load.median(fixed["post_ms"]),
            "service.admit_ms_p50": service_load.median(fixed["admit_ms"]),
            "service.exec_ms_p50": service_load.median(fixed["exec_ms"]),
            "service.rejected": fixed["rejected"],
            "service.events_dropped": rep["events_dropped"],
            "service.gen_lag_ms_max": fixed["lag_ms_max"],
        })
    return out


def _traced_cost(workload: str, rep: dict[str, Any]) -> float:
    """What tracing slows down: run time, or launch latency (service)."""
    if workload == "service":
        return service_load.median(rep["fixed"]["latencies_ms"])
    return rep["run_s"] * _scale(workload, rep)


def per_layer(workload: str, traced: list[dict[str, Any]],
              plain: list[dict[str, Any]]) -> dict[str, float]:
    each = [per_layer_of(workload, rep) for rep in traced]
    out = {name: _median([m[name] for m in each]) for name in each[0]}
    out["trace.overhead_frac"] = (
        _median([_traced_cost(workload, r) for r in traced])
        / _median([_traced_cost(workload, r) for r in plain]) - 1.0)
    return out


# ---------------------------------------------------------------------------
# Correctness
# ---------------------------------------------------------------------------

def _pinned(workload: str, seed: int) -> Optional[str]:
    try:
        with open(os.path.join(HERE, "pinned.json")) as fh:
            return json.load(fh).get(workload, {}).get(str(seed))
    except OSError:
        return None


def service_digest(expected: dict[str, Any]) -> str:
    return workloads.digest({str(k): v for k, v in expected.items()})


def check(workload: str, seed: int, reps: list[dict[str, Any]],
          reference: dict[str, Any]) -> list[str]:
    """Every problem found with the outputs (empty when correct)."""
    problems = []
    if workload == "service":
        return _check_service(seed, reps, reference)
    for rep in reps:
        if rep["finished"] != rep["agents"]:
            problems.append(f"only {rep['finished']} of {rep['agents']} "
                            f"agents finished")
    digests = {rep["digest"] for rep in reps}
    if len(digests) != 1:
        problems.append(f"outcome digests differ between repetitions: "
                        f"{sorted(digests)}")
    digest = reps[0]["digest"]
    if workload == "tours":
        for rep in reps:
            if rep["resumed_digest"] != rep["digest"]:
                problems.append("resumed tours twin diverged from the "
                                "uninterrupted run")
    if digest != reference["digest"]:
        problems.append(f"{workload} outcome {digest} != uninterrupted "
                        f"in-process run {reference['digest']}")
    pinned = _pinned(workload, seed)
    if pinned is not None and digest != pinned:
        problems.append(f"outcome digest {digest} != pinned {pinned} "
                        f"for seed {seed}")
    exacts = [json.dumps(rep["exact"], sort_keys=True) for rep in reps]
    if len(set(exacts)) != 1:
        problems.append(f"exact counts differ between repetitions: "
                        f"{sorted(set(exacts))}")
    if workload != "tours":
        for key in ("steps", "rollback_transfers", "transfer_bytes"):
            if reps[0]["exact"][key] != reference["exact"][key]:
                problems.append(f"{key} {reps[0]['exact'][key]} != "
                                f"in-process {reference['exact'][key]}")
        if reps[0]["exact"]["events"] != reference["events"]:
            problems.append("event count differs from the in-process run")
    for rep in reps:
        if rep["replayed_barriers"] * 2 <= rep["total_barriers"]:
            problems.append(f"resume replayed only {rep['replayed_barriers']}"
                            f" of {rep['total_barriers']} barriers")
    if workload == "entangled":
        for rep in reps:
            if rep["exact"]["spec.epochs_rolled_back"] < 1 or \
                    rep["program"]["killed_spec"][
                        "spec.epochs_rolled_back"] < 1:
                problems.append("no speculative epoch was rolled back")
    return problems


def _check_service(seed: int, reps: list[dict[str, Any]],
                   reference: dict[str, Any]) -> list[str]:
    problems = []
    expected = reference["expected"]
    pinned = _pinned("service", seed)
    if pinned is not None and service_digest(expected) != pinned:
        problems.append(f"scripted service outcomes "
                        f"{service_digest(expected)} != pinned {pinned}")
    for rep in reps:
        for agent, outcome in rep["outcomes"].items():
            index = int(agent.rsplit("-", 1)[1])
            variant = (seed + index) % len(service_load.VARIANTS)
            if outcome != expected[str(variant)]:
                problems.append(f"served {agent} {outcome} != scripted "
                                f"{expected[str(variant)]}")
        probe = dict(rep["probe_outcome"] or {})
        probe.pop("agent", None)
        if probe != expected[str(seed % len(service_load.VARIANTS))]:
            problems.append("the restarted gateway served a wrong outcome")
    return problems


def check_trace(workload: str, traced: list[dict[str, Any]]) -> list[str]:
    """Every busy layer's wrapper fired; traced counts match the program's."""
    problems = []
    for rep in traced:
        calls = rep["trace"]["calls"]
        for key in BUSY[workload]:
            if not calls.get(key):
                problems.append(f"trace wrapper {key} never fired on "
                                f"{workload}")
        if workload == "service":
            continue
        program = rep["program"]
        if calls["journal.commit"] != program["journal_commits"]:
            problems.append(f"traced journal commits {calls['journal.commit']}"
                            f" != the journal's {program['journal_commits']}")
        # The kernels also ran the killed run that was resumed, so the
        # traced events cover the final count and then some.
        events = rep["trace"]["extra"].get("sim.events", 0)
        if events < program["events"]:
            problems.append(f"traced kernel events {events} < "
                            f"events_processed() {program['events']}")
        if workload != "tours":
            stats = program["stats"]
            killed = program["killed_spec"]
            speculated = (stats["spec.epochs_speculated"]
                          + killed["spec.epochs_speculated"])
            if calls["node.spec.cycle"] < speculated:
                problems.append("traced optimistic cycles < spec."
                                "epochs_speculated")
            if calls["node.ipc.cycle"] < program["epochs"]:
                problems.append(f"traced barrier cycles "
                                f"{calls['node.ipc.cycle']} < epochs_run "
                                f"{program['epochs']}")
    return problems


# ---------------------------------------------------------------------------
# Main
# ---------------------------------------------------------------------------

def repeat(rep, minimum: int, until: float, deadline: float) -> list:
    """Call ``rep`` at least ``minimum`` times, then again while one
    more call, as long as the longest so far, ends before ``until``;
    past ``deadline`` start none once one has run."""
    out: list = []
    longest = 0.0
    while len(out) < minimum or time.monotonic() + longest < until:
        if time.monotonic() > deadline and out:
            break
        start = time.monotonic()
        out.append(rep())
        longest = max(longest, time.monotonic() - start)
    return out


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = parser.parse_args(argv)
    if not os.path.exists(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"perfbench: no program to measure under {ROOT}/src/repro",
              file=sys.stderr)
        return 2
    t0 = time.monotonic()
    deadline = t0 + DEADLINE_S
    workdir = os.path.join(ROOT, ".perfbench_work",
                           f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        return _run(args, workdir, deadline, t0)
    except RepFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass


def _run(args, workdir: str, deadline: float, t0: float) -> int:
    workload, seed = args.workload, args.seed
    env = environment(workdir)
    print(f"environment: {json.dumps(env, sort_keys=True)}")
    extra: dict[str, Any] = {}
    if workload == "tours":
        extra["journal"] = os.path.join(workdir, "tours-killed.journal")
    reference = run_rep(workload, seed, workdir, deadline,
                        phase="reference", **extra)
    if workload in ("swarm", "entangled"):
        extra["kill_at"] = workloads.KILL_SHARE * reference["end"]
    if workload == "service":
        extra["fixed_launches"] = SERVICE_FIXED_LAUNCHES

    until = t0 + args.seconds
    plain: list[dict[str, Any]] = []
    traced: list[dict[str, Any]] = []
    setups: list[float] = []
    if args.trace:
        def pair() -> None:
            plain.append(run_rep(workload, seed, workdir, deadline,
                                 **extra))
            traced.append(run_rep(workload, seed, workdir, deadline,
                                  traced=True, **extra))
        repeat(pair, MIN_TRACED_PAIRS, until, deadline)
    else:
        if workload in ("swarm", "entangled"):
            for _ in range(SETUP_REPS):
                rep = run_rep(workload, seed, workdir, deadline,
                              phase="setup")
                setups.extend(s * _scale(workload, rep)
                              for s in rep["setup_s"])
        plain = repeat(lambda: run_rep(workload, seed, workdir, deadline,
                                       **extra), MIN_REPS, until, deadline)

    reps = plain + traced
    problems = check(workload, seed, reps, reference)
    if traced:
        problems += check_trace(workload, traced)
    if workload == "service":
        attempted = sum(rep["fixed"]["attempted"] for rep in reps)
        failed = sum(rep["fixed"]["failed"] for rep in reps)
    else:
        attempted = sum(rep["agents"] for rep in reps)
        failed = sum(rep["agents"] - rep["finished"] for rep in reps)

    if args.trace:
        values, units = per_layer(workload, traced, plain), PER_LAYER
    else:
        values, units = (end_to_end(workload, plain, reference, setups),
                         END_TO_END)
    print(f"workload: {workload}  seed: {seed}  repetitions: "
          f"{len(plain)} untraced + {len(traced)} traced  wall: "
          f"{time.monotonic() - t0:.1f} s")
    tails = [service_load.tail(launch_latencies(workload, [rep]))
             for rep in plain]
    print("launch tail per repetition: " + ", ".join(
        f"p{pct:g} of {count} = {value:.2f} ms"
        for value, pct, count in tails))
    if workload == "service":
        for i, rep in enumerate(reps):
            ladder = ", ".join(
                f"{r['rate']:g}/s {'pass' if r['passed'] else 'fail'} "
                f"(p{r['tail_pct']:g} {r['tail_ms']:.1f} ms, lag "
                f"{r['lag_ms_max']:.1f} ms)" for r in rep["rungs"])
            print(f"ladder rep {i}: {ladder}")
    calibration = [c for rep in reps for c in rep["calibration_s"]]
    host = (f"host calibration: median {_fmt(_median(calibration))} s of "
            f"{len(calibration)}, nominal {hostspeed.NOMINAL_S:g} s")
    if workload in SCALED:
        host += "; unscaled medians: " + ", ".join(
            f"{key} {_fmt(_median([rep[key] for rep in plain]))} s"
            for key in ("run_s", "resume_s"))
    print(host)
    print(f"failed_frac: {failed / attempted:.4f} ({failed} of {attempted})")
    for name, value in values.items():
        print(f"{name}: {_fmt(value)} {units[name]}")
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(value), "unit": units[name]}
                    for name, value in values.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
