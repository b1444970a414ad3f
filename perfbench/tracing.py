"""Per-layer tracing by wrapping the public functions of ``repro`` modules.

Nothing under ``src/`` knows about this module.  :func:`install` imports
every ``repro`` submodule, then replaces each target in :data:`TARGETS`
with a timing wrapper *at every binding*: the defining module or class,
and every other ``repro`` module that imported the function by name
(``capture``/``restore`` are bound in half a dozen modules, for
example).  A wrapper records, per target, the number of calls and their
inclusive wall time; per layer it records self time — inclusive time
minus the time of wrapped calls made underneath it — using one span
stack per thread.

Each process keeps its own totals.  :func:`snapshot` returns them as a
JSON-ready dict and :func:`merge` adds several together (a coordinator
and its shard workers, or a benchmark process and a gateway).
"""

from __future__ import annotations

import importlib
import pkgutil
import sys
import threading
import time
from typing import Any, Callable

#: (layer, key, "module:qualname") — the layer is the ``repro``
#: subpackage the function lives in; the key names the counter.  Each
#: target feeds a reported metric, proves a layer busy, or takes its
#: layer's time out of its caller's self time (``try_commit``,
#: ``snapshot``).
TARGETS: list[tuple[str, str, str]] = [
    ("sim", "sim.run", "repro.sim.kernel:Simulator.run"),
    ("sim", "sim.run_epoch", "repro.sim.kernel:Simulator.run_epoch"),
    ("exactly_once", "exactly_once.execute",
     "repro.exactly_once.protocol:StepProtocol.execute"),
    ("tx", "tx.commit", "repro.tx.manager:Transaction.commit"),
    ("tx", "tx.abort", "repro.tx.manager:Transaction.abort"),
    ("tx", "tx.try_commit", "repro.tx.coordinator:CommitCoordinator.try_commit"),
    ("core", "core.start_rollback",
     "repro.core.rollback:RollbackDriverBase.start_rollback"),
    ("core", "core.execute_compensation",
     "repro.core.rollback:RollbackDriverBase.execute_compensation"),
    ("agent", "agent.pack", "repro.agent.packages:AgentPackage.pack"),
    ("agent", "agent.unpack", "repro.agent.packages:AgentPackage.unpack"),
    ("log", "log.entry_at", "repro.log.rollback_log:RollbackLog._entry_at"),
    ("storage", "storage.capture", "repro.storage.serialization:capture"),
    ("storage", "storage.restore", "repro.storage.serialization:restore"),
    ("storage", "storage.snapshot", "repro.storage.serialization:snapshot"),
    ("net", "net.transmit", "repro.net.network:SimTransport.transmit"),
    ("net", "net.transfer_time",
     "repro.net.network:SimTransport.transfer_time"),
    ("node", "node.bridge.route", "repro.node.sharded:CrossShardBridge.route"),
    ("node", "node.ipc.cycle", "repro.node.procshard:ProcShardedWorld._cycle"),
    ("node", "node.ipc.encode_epoch", "repro.node.shmring:encode_epoch"),
    ("node", "node.ipc.encode_reply", "repro.node.shmring:encode_reply"),
    ("node", "node.ipc.dumps", "repro.node.procshard:_dumps"),
    ("node", "node.ipc.decode_reply", "repro.node.shmring:decode_reply"),
    ("node", "node.ipc.resolve_epoch", "repro.node.shmring:resolve_epoch"),
    ("node", "node.ipc.recv", "repro.node.procshard:_WorkerHandle.recv"),
    ("node", "node.spec.validate", "repro.node.procshard:views_satisfy"),
    ("node", "node.spec.cycle",
     "repro.node.procshard:ProcShardedWorld._cycle_optimistic"),
    ("node", "node.merge.record",
     "repro.node.procshard:ProcShardedWorld._merge_record_blob"),
    ("journal", "journal.commit", "repro.journal.journal:WorldJournal.commit_epoch"),
    ("journal", "journal.sync.file", "repro.journal.backends:FileJournal.sync"),
    ("journal", "journal.sync.memory",
     "repro.journal.backends:JournalBackend.sync"),
    ("journal", "journal.recover", "repro.journal.journal:WorldJournal.recover"),
    ("journal", "journal.resume", "repro.journal.resume:resume_world"),
    ("service", "service.step_epoch.world", "repro.node.runtime:World.step_epoch"),
    ("service", "service.step_epoch.sharded",
     "repro.node.sharded:ShardedWorld.step_epoch"),
    ("service", "service.step_epoch.proc",
     "repro.node.procshard:ProcShardedWorld.step_epoch"),
    ("service", "service.dispatch", "repro.service.gateway:Gateway._dispatch"),
    ("service", "service.launch", "repro.service.host:WorldHost.launch"),
]

_calls: dict[str, int] = {}
_incl: dict[str, float] = {}
_self: dict[str, float] = {}
_extra: dict[str, float] = {}
_local = threading.local()
_lock = threading.Lock()
_installed = False


def _stack() -> list:
    stack = getattr(_local, "stack", None)
    if stack is None:
        stack = _local.stack = []
    return stack


def _observe(key: str, result: Any) -> None:
    """Extra counts read off a wrapped call's return value."""
    if key == "agent.pack":
        _extra["agent.package_bytes"] = (
            _extra.get("agent.package_bytes", 0) + result.size_bytes)
    elif key == "journal.recover":
        barriers = sum(1 for kind, _ in result.entries if kind == "epoch")
        _extra["journal.replayed_barriers"] = (
            _extra.get("journal.replayed_barriers", 0) + barriers)


def _make_wrapper(layer: str, key: str, fn: Callable) -> Callable:
    perf = time.perf_counter
    observed = key in ("agent.pack", "journal.recover")
    kernel = key.startswith("sim.")

    def wrapper(*args, **kwargs):
        stack = _stack()
        stack.append(0.0)
        if kernel:
            events = args[0].events_processed
        start = perf()
        try:
            result = fn(*args, **kwargs)
        finally:
            elapsed = perf() - start
            children = stack.pop()
            with _lock:
                _calls[key] += 1
                _incl[key] += elapsed
                _self[layer] += elapsed - children
            if stack:
                stack[-1] += elapsed
            if kernel:
                with _lock:
                    _extra["sim.events"] = (_extra.get("sim.events", 0)
                                            + args[0].events_processed
                                            - events)
        if observed:
            with _lock:
                _observe(key, result)
        return result

    wrapper.__wrapped__ = fn
    wrapper.__name__ = getattr(fn, "__name__", key)
    wrapper.__qualname__ = getattr(fn, "__qualname__", key)
    return wrapper


def _import_all() -> None:
    import repro

    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.name.endswith("__main__"):
            continue
        importlib.import_module(info.name)


def _resolve(spec: str) -> tuple[Any, str, Any]:
    """``module:Class.attr`` → (owner, attribute name, raw attribute)."""
    module_name, _, qualname = spec.partition(":")
    owner: Any = importlib.import_module(module_name)
    parts = qualname.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    name = parts[-1]
    if isinstance(owner, type):
        raw = owner.__dict__.get(name)
    else:
        raw = getattr(owner, name, None)
    if raw is None:
        raise LookupError(f"trace target {spec} no longer exists")
    return owner, name, raw


def install() -> None:
    """Wrap every target at every binding (idempotent per process)."""
    global _installed
    if _installed:
        return
    _import_all()
    modules = [m for name, m in sys.modules.items()
               if m is not None and (name == "repro"
                                     or name.startswith("repro."))]
    for layer, key, spec in TARGETS:
        _calls[key] = 0
        _incl[key] = 0.0
        _self.setdefault(layer, 0.0)
        owner, name, raw = _resolve(spec)
        if isinstance(raw, classmethod):
            setattr(owner, name,
                    classmethod(_make_wrapper(layer, key, raw.__func__)))
            continue
        wrapper = _make_wrapper(layer, key, raw)
        setattr(owner, name, wrapper)
        if not isinstance(owner, type):
            # Module-level function: rebind every by-name import too.
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is raw:
                        setattr(module, attr, wrapper)
    _installed = True


def snapshot() -> dict[str, Any]:
    with _lock:
        return {"calls": dict(_calls), "incl": dict(_incl),
                "self": dict(_self), "extra": dict(_extra)}


def merge(parts: list[dict[str, Any]]) -> dict[str, Any]:
    """Sum several :func:`snapshot` results (one per process)."""
    out: dict[str, dict[str, float]] = {
        "calls": {}, "incl": {}, "self": {}, "extra": {}}
    for part in parts:
        for section in out:
            for key, value in part.get(section, {}).items():
                out[section][key] = out[section].get(key, 0) + value
    return out
