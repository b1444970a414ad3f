"""Self-test of the benchmark.

Checks that ``BENCHMARK.json`` keeps the benchmark contract, that
``run.py`` emits exactly the metrics it names — with their units, on
every workload, with and without tracing — and that the command fails
without printing a result where there is no program to measure::

    python3 perfbench/selftest.py              # everything (a few minutes)
    python3 perfbench/selftest.py --static     # contract and tables only
    python3 -m pytest perfbench/selftest.py    # the same, as tests
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def load() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def test_contract() -> None:
    assert os.path.getsize(os.path.join(ROOT, "BENCHMARK.json")) <= 64 * 1024
    bench = load()
    assert set(bench) == {"command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"}
    assert 1 <= len(bench["paths"]) <= 16
    for path in bench["paths"]:
        assert PATH.match(path) and not path.startswith("/") \
            and ".." not in path.split("/"), path
        assert os.path.isdir(os.path.join(ROOT, path)), path
    command = bench["command"]
    assert 1 <= len(command) <= 32
    assert all(isinstance(a, str) and len(a) <= 200 for a in command)
    assert isinstance(bench["run_seconds"], int) \
        and 1 <= bench["run_seconds"] <= 60
    names = []
    assert 2 <= len(bench["workloads"]) <= 8
    for w in bench["workloads"]:
        assert set(w) == {"name", "why"}
        assert len(w["why"]) <= 200 and "\n" not in w["why"]
        names.append(w["name"])
    assert 1 <= len(bench["end_to_end"]) <= 16
    for m in bench["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert m["better"] in ("lower", "higher")
        assert 0 < m["bound"] <= 0.25
        names.append(m["name"])
    assert 1 <= len(bench["per_layer"]) <= 128
    for m in bench["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
        assert m["better"] in ("lower", "higher")
        names.append(m["name"])
    for name in names:
        assert NAME.match(name), name
    assert len(names) == len(set(names)), "a name is used twice"
    for m in bench["end_to_end"] + bench["per_layer"]:
        assert UNIT.match(m["unit"]), m
    setup = [m for m in bench["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" \
        and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in bench["end_to_end"])
    # A full pass (4 + 22 runs per workload) must fit in 3420 s, with
    # room for runs that end a little after their run_seconds.
    runs = 4 + 22 * len(bench["workloads"])
    assert runs * bench["run_seconds"] * 1.15 <= 3420


def test_tables_match_benchmark_json() -> None:
    bench = load()
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} \
        == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} \
        == run.PER_LAYER


def _run(workload: str, trace: int, cwd: str = ROOT
         ) -> subprocess.CompletedProcess:
    cmd = [*load()["command"], "--workload", workload, "--seed", "3",
           "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=180)


def check_emitted(workload: str, trace: int) -> None:
    bench = load()
    section = bench["per_layer" if trace else "end_to_end"]
    wanted = {m["name"]: m["unit"] for m in section}
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == RESULT_KEYS
    assert result["correct"] is True, proc.stdout[-3000:]
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int)
    metrics = result["metrics"]
    assert set(metrics) == set(wanted), set(metrics) ^ set(wanted)
    for name, entry in metrics.items():
        assert set(entry) == {"value", "unit"}
        assert entry["unit"] == wanted[name], name
        assert isinstance(entry["value"], (int, float)) \
            and math.isfinite(entry["value"]), name
        if not trace:
            assert entry["value"] > 0, f"{name} is 0 on {workload}"
    for name, unit in wanted.items():
        assert f"\n{name}: " in "\n" + proc.stdout, f"{name} not printed"


def test_metrics_emitted() -> None:
    for workload in run.WORKLOADS:
        for trace in (0, 1):
            check_emitted(workload, trace)


def test_fails_without_program() -> None:
    bench = load()
    bare = os.path.join(ROOT, ".perfbench_work", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        for path in bench["paths"]:
            shutil.copytree(os.path.join(ROOT, path),
                            os.path.join(bare, path),
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = _run(run.WORKLOADS[0], 0, cwd=bare)
        assert proc.returncode != 0
        assert '"correct"' not in proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--static", action="store_true",
                        help="only the contract and table checks")
    parser.add_argument("--workload", action="append",
                        choices=run.WORKLOADS)
    args = parser.parse_args()
    test_contract()
    test_tables_match_benchmark_json()
    print("contract and metric tables: ok")
    if args.static:
        return 0
    test_fails_without_program()
    print("without src/repro: fails, prints no result: ok")
    for workload in args.workload or run.WORKLOADS:
        for trace in (0, 1):
            check_emitted(workload, trace)
            print(f"{workload} --trace {trace}: every metric emitted: ok",
                  flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
