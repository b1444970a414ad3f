"""The ``service`` workload: an open-loop launch generator for the gateway.

One benchmark process drives one ``python -m repro serve`` gateway
(started through ``gateway_boot.py``, which installs the tracing
wrappers inside the gateway for traced runs).  The generator has one
POST lane — launches are sent one after another, each on its own
connection, at their scheduled due times — and one SSE reader that
timestamps every ``launch`` and ``agent`` event.  It is open loop: a
launch is due at a fixed time whatever happened before it, latency is
measured from that due time, and the lane records how late it ran.  A
refused launch (HTTP 429) is a miss.
"""

from __future__ import annotations

import http.client
import json
import math
import os
import signal
import subprocess
import sys
import threading
import time
from typing import Any, Optional

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))

WORLD = {"backend": "sharded", "nodes": 8, "n_shards": 2}
#: Launch variants, cycled; every agent's outcome depends only on its
#: variant (the scripted reference checks each one).
VARIANTS = [
    {"steps": 6, "mode": "basic", "mixed_fraction": 0.25},
    {"steps": 6, "mode": "optimized", "mixed_fraction": 0.5},
    {"steps": 6, "mode": "basic", "ace_fraction": 0.25},
    {"steps": 6, "mode": "optimized", "mixed_fraction": 0.25,
     "rollback_times": 2},
]
#: The measured rate: about half of what the single POST lane sustains
#: (about 45 launches/s on a 2-core Xeon).  It is also the first rung of
#: the capacity ladder; the second rung is well above that knee, so it
#: passes only if a change makes the gateway much faster.
FIXED_RATE = 20.0
LADDER = (FIXED_RATE, 80.0)
WARMUP = 10
#: Pass rule of a ladder rung: its tail stays under LADDER_TAIL_MS, the
#: lane never runs more than LADDER_LAG_MS late, nothing is refused or
#: lost.  An overloaded rung stops as soon as the lag bound is broken.
LADDER_TAIL_MS = 100.0
LADDER_LAG_MS = 100.0
PERCENTILES = (50.0, 90.0, 95.0, 97.5, 99.0, 99.5, 99.9)
GATEWAY_ARGS = ["--port", "0", "--max-inflight", "512",
                "--max-pending", "512", "--metrics-every", "64"]


def variant_of(seed: int, index: int) -> dict[str, Any]:
    return VARIANTS[(seed + index) % len(VARIANTS)]


def tail(samples: list[float]) -> tuple[float, float, int]:
    """(value, percentile, count): the highest listed percentile with
    at least ten samples beyond it (nearest-rank)."""
    ordered = sorted(samples)
    n = len(ordered)
    best = (ordered[(n - 1) // 2], 50.0, n)
    for pct in PERCENTILES:
        if n * (100.0 - pct) >= 1000.0:
            rank = max(1, math.ceil(n * pct / 100.0))
            best = (ordered[rank - 1], pct, n)
    return best


def median(samples: list[float]) -> float:
    ordered = sorted(samples)
    return ordered[len(ordered) // 2] if ordered else 0.0


class Gateway:
    """One gateway subprocess plus blocking HTTP helpers."""

    def __init__(self, env: dict[str, str]):
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "gateway_boot.py"),
             *GATEWAY_ARGS],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
            env=env)
        line = self.proc.stdout.readline()
        if "listening on http://" not in line:
            self.proc.kill()
            self.proc.communicate()
            raise RuntimeError(f"gateway did not start: {line!r}")
        hostport = line.strip().rsplit("/", 1)[-1]
        self.host, port = hostport.rsplit(":", 1)
        self.port = int(port)

    def call(self, method: str, path: str, body: Optional[dict],
             want: int) -> Any:
        """A request that must answer ``want``; returns the JSON body."""
        status, reply = self.request(method, path, body)
        if status != want:
            raise RuntimeError(f"{method} {path} answered {status}, "
                               f"not {want}: {reply}")
        return reply

    def request(self, method: str, path: str,
                body: Optional[dict] = None) -> tuple[int, Any]:
        conn = http.client.HTTPConnection(self.host, self.port, timeout=60)
        try:
            data = json.dumps(body).encode() if body is not None else None
            headers = {"Content-Type": "application/json"} if data else {}
            conn.request(method, path, body=data, headers=headers)
            resp = conn.getresponse()
            return resp.status, json.loads(resp.read().decode() or "{}")
        finally:
            conn.close()

    def stop(self) -> str:
        """SIGTERM, wait for the drain, return everything it printed."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            out, _ = self.proc.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            out, _ = self.proc.communicate()
        return out or ""


class Stream:
    """The SSE reader: timestamps ``launch`` and ``agent`` events."""

    def __init__(self, gateway: Gateway, world: str):
        self.launched: dict[str, float] = {}
        self.done: dict[str, float] = {}
        self.outcomes: dict[str, dict] = {}
        self.timeline: list[tuple[float, str, dict]] = []
        self.cond = threading.Condition()
        self.conn = http.client.HTTPConnection(gateway.host, gateway.port,
                                               timeout=300)
        self.conn.request("GET", f"/worlds/{world}/events")
        self.resp = self.conn.getresponse()
        self.thread = threading.Thread(target=self._read, daemon=True)
        self.thread.start()

    def _read(self) -> None:
        event = None
        while True:
            raw = self.resp.fp.readline()
            if not raw:
                return
            line = raw.decode().strip()
            if line.startswith("event:"):
                event = line.split(":", 1)[1].strip()
                if event == "end":
                    return
            elif line.startswith("data:"):
                now = time.perf_counter()
                data = json.loads(line.split(":", 1)[1])
                with self.cond:
                    if event == "launch":
                        self.launched[data["agent"]] = now
                    elif event == "agent":
                        self.done[data["agent"]] = now
                        self.outcomes[data["agent"]] = data
                        self.cond.notify_all()
                    elif event == "timeline":
                        self.timeline.extend((entry["at"], entry["kind"],
                                              entry)
                                             for entry in data["entries"])

    def wait_for(self, agents: list[str], timeout: float) -> bool:
        deadline = time.monotonic() + timeout
        with self.cond:
            while not all(a in self.done for a in agents):
                left = deadline - time.monotonic()
                if left <= 0:
                    return False
                self.cond.wait(left)
        return True

    def close(self) -> None:
        self.conn.close()


def _schedule(gateway: Gateway, world: str, seed: int, first: int,
              count: int, rate: float, tag: str,
              max_lag_ms: Optional[float] = None) -> list[dict[str, Any]]:
    """Send ``count`` launches at ``rate``/s from the one POST lane.

    With ``max_lag_ms`` the lane gives up once it runs that late.
    """
    sent = []
    t0 = time.perf_counter() + 0.05
    for k in range(count):
        due = t0 + k / rate
        pause = due - time.perf_counter()
        if pause > 0:
            time.sleep(pause)
        agent = f"{tag}-{first + k}"
        body = dict(variant_of(seed, first + k), agent_id=agent)
        t_send = time.perf_counter()
        status, _ = gateway.request("POST", f"/worlds/{world}/launch", body)
        t_resp = time.perf_counter()
        sent.append({"agent": agent, "due": due, "sent": t_send,
                     "resp": t_resp, "status": status})
        if max_lag_ms is not None and (t_send - due) * 1000 > max_lag_ms:
            break
    return sent


def _rung(rate: float, stats: dict[str, Any]) -> dict[str, Any]:
    value, pct, _n = (tail(stats["latencies_ms"])
                      if stats["latencies_ms"] else (float("inf"), 0.0, 0))
    passed = (stats["failed"] == 0 and stats["lag_ms_max"] <= LADDER_LAG_MS
              and value <= LADDER_TAIL_MS)
    return {"rate": rate, "passed": passed, "tail_ms": value,
            "tail_pct": pct, "lag_ms_max": stats["lag_ms_max"],
            "achieved_rps": (stats["completed"] / stats["span_s"]
                             if stats["span_s"] else 0.0)}


def _phase_stats(sent: list[dict], stream: Stream) -> dict[str, Any]:
    with stream.cond:
        return _phase_stats_locked(sent, stream)


def _phase_stats_locked(sent: list[dict], stream: Stream) -> dict[str, Any]:
    ok = [s for s in sent if s["status"] == 202]
    latencies = [(stream.done[s["agent"]] - s["due"]) * 1000
                 for s in ok if s["agent"] in stream.done]
    admit = [(stream.launched[s["agent"]] - s["due"]) * 1000
             for s in ok if s["agent"] in stream.launched]
    execute = [(stream.done[s["agent"]] - stream.launched[s["agent"]])
               * 1000 for s in ok
               if s["agent"] in stream.done and s["agent"] in stream.launched]
    ends = [stream.done[s["agent"]] for s in ok if s["agent"] in stream.done]
    span = (max(ends) - sent[0]["due"]) if ends else 0.0
    steps = sum(stream.outcomes[s["agent"]]["steps_committed"]
                for s in ok if s["agent"] in stream.outcomes)
    return {
        "attempted": len(sent),
        "rejected": sum(1 for s in sent if s["status"] == 429),
        "failed": len(sent) - len(latencies),
        "latencies_ms": latencies,
        "admit_ms": admit,
        "exec_ms": execute,
        "post_ms": [(s["resp"] - s["sent"]) * 1000 for s in sent],
        "lag_ms_max": max((s["sent"] - s["due"]) * 1000 for s in sent),
        "span_s": span,
        "steps": steps,
        "completed": len(ends),
    }


def service(seed: int, workdir: str, fixed_launches: int,
            trace: bool = False, **_: Any) -> dict[str, Any]:
    env = dict(os.environ)
    env["PERFBENCH_TRACE"] = "1" if trace else "0"
    env["TMPDIR"] = workdir
    t_boot = time.perf_counter()
    gateway = Gateway(env)
    second: Optional[Gateway] = None
    try:
        world = gateway.call("POST", "/worlds", dict(WORLD, seed=seed),
                             201)["world"]
        setup = [time.perf_counter() - t_boot]
        stream = Stream(gateway, world)
        time.sleep(0.05)  # let the subscription attach

        warm = _schedule(gateway, world, seed, 0, WARMUP, FIXED_RATE, "w")
        fixed = _schedule(gateway, world, seed, WARMUP, fixed_launches,
                          FIXED_RATE, "f")
        stream.wait_for([s["agent"] for s in warm + fixed
                         if s["status"] == 202], 60)
        fixed_stats = _phase_stats(fixed, stream)
        snap = gateway.call("GET", f"/worlds/{world}", None, 200)
        with stream.cond:
            vlatency = workloads.mean_rollback_latency([stream.timeline])

        rungs = [_rung(FIXED_RATE, fixed_stats)]
        base = WARMUP + fixed_launches
        for rate in LADDER[1:]:
            if not rungs[-1]["passed"]:
                break
            sent = _schedule(gateway, world, seed, base, int(rate * 2),
                             rate, f"r{int(rate)}", LADDER_LAG_MS)
            base += len(sent)
            stream.wait_for([s["agent"] for s in sent
                             if s["status"] == 202], 5)
            rungs.append(_rung(rate, _phase_stats(sent, stream)))
        drained = gateway.call("DELETE", f"/worlds/{world}", None, 200)
        stream.close()

        # Restart probe: drain this gateway, boot a new one, serve one
        # launch — how long the service is away across a restart.
        t_restart = time.perf_counter()
        out = gateway.stop()
        t_boot2 = time.perf_counter()
        second = Gateway(env)
        world2 = second.call("POST", "/worlds", dict(WORLD, seed=seed),
                             201)["world"]
        setup.append(time.perf_counter() - t_boot2)
        stream2 = Stream(second, world2)
        probe = _schedule(second, world2, seed, 0, 1, 1.0, "p")
        stream2.wait_for([probe[0]["agent"]], 30)
        resume_s = time.perf_counter() - t_restart
        probe_outcome = stream2.outcomes.get(probe[0]["agent"])
        stream2.close()
        second.stop()
    finally:
        for gw in (gateway, second):
            if gw is not None and gw.proc.poll() is None:
                gw.proc.kill()
                gw.proc.communicate()

    gateway_trace = None
    for line in out.splitlines():
        if line.startswith("PERFBENCH_TRACE "):
            gateway_trace = json.loads(line.split(" ", 1)[1])
    counters = snap["counters"]
    outcomes = {agent: {k: v for k, v in data.items() if k != "agent"}
                for agent, data in stream.outcomes.items()}
    return {
        "setup_s": setup,
        "resume_s": resume_s,
        "fixed": fixed_stats,
        "rungs": rungs,
        "counters": counters,
        "journal": snap.get("journal"),
        "stats": snap.get("serialization_stats", {}),
        "events_dropped": drained.get("events_dropped", 0),
        "rollback_vlatency_s": vlatency,
        "outcomes": outcomes,
        "probe_outcome": probe_outcome,
        "gateway_trace": gateway_trace,
    }


def scripted_outcomes(seed: int) -> dict[int, dict[str, Any]]:
    """Each variant's outcome, from the same specs run scripted."""
    from repro.service import LaunchSpec, WorldSpec, build_world, \
        resolve_launch

    wspec = WorldSpec.from_json(dict(WORLD, seed=seed))
    expected = {}
    for index in range(len(VARIANTS)):
        world, _journal = build_world(wspec)
        lspec = LaunchSpec.from_json(dict(VARIANTS[index]))
        resolved = resolve_launch(lspec, wspec, "scripted")
        world.launch(resolved.agent, at=resolved.at,
                     method=resolved.method, **resolved.kwargs)
        world.run()
        outcome = world.outcomes()["scripted"]
        expected[index] = json.loads(json.dumps(outcome, default=repr))
    return expected
