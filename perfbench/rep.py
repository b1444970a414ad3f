"""One repetition of one workload, in a fresh interpreter.

``run.py`` starts this script once per repetition so that no
process-global state (id counters, serialization counters, caches)
carries over from one repetition to the next.  The last line printed is
``PERFBENCH_REP {json}`` with the raw measurements.

The process backend spawns its shard workers, and a spawned worker
re-imports this script as ``__mp_main__``: everything at module level
must therefore stay cheap and side-effect free, except the tracing
hook below, which is exactly what a traced worker needs.  The host
speed calibration runs in the repetition's own process only.
"""

import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

if __name__ == "__main__":
    # The host's speed just before the repetition (see hostspeed.py).
    import hostspeed

    CALIBRATION = [hostspeed.calibrate()]
T_START = time.perf_counter()

if os.environ.get("PERFBENCH_TRACE") == "1":
    import tracing

    tracing.install()
    if __name__ == "__mp_main__":
        # A shard worker: write its totals out when its command loop
        # ends (the coordinator's shutdown), for the parent to merge.
        import json

        from repro.node import procshard

        _serve = procshard._WorkerServer.serve

        def _serve_and_dump(self):
            try:
                return _serve(self)
            finally:
                path = os.path.join(os.environ["PERFBENCH_TRACE_DIR"],
                                    f"worker-{os.getpid()}.json")
                with open(path, "w") as fh:
                    json.dump(tracing.snapshot(), fh)

        procshard._WorkerServer.serve = _serve_and_dump


def main() -> int:
    import argparse
    import json
    import resource

    import workloads

    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--phase", default="measure",
                        choices=["measure", "reference", "setup"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--kill-at", type=float, default=0.0)
    parser.add_argument("--fixed-launches", type=int, default=0)
    parser.add_argument("--journal", default="")
    args = parser.parse_args()
    traced = os.environ.get("PERFBENCH_TRACE") == "1"

    if args.phase == "setup":
        result = workloads.setup_only(args.workload, args.seed, T_START,
                                      args.workdir)
    elif args.phase == "reference":
        if args.workload == "service":
            import service_load

            result = {"expected": service_load.scripted_outcomes(args.seed)}
        else:
            result = workloads.reference(args.workload, args.seed,
                                         journal=args.journal)
    else:
        kwargs = {"seed": args.seed, "t_start": T_START,
                  "workdir": args.workdir, "kill_at": args.kill_at,
                  "fixed_launches": args.fixed_launches,
                  "journal": args.journal, "trace": traced}
        if args.workload == "tours":
            result = workloads.tours(**kwargs)
        elif args.workload == "service":
            import service_load

            result = service_load.service(**kwargs)
        else:
            result = workloads.proc_run(args.workload, **kwargs)
        if traced:
            parts = [tracing.snapshot()]
            trace_dir = os.environ["PERFBENCH_TRACE_DIR"]
            workers = sorted(f for f in os.listdir(trace_dir)
                             if f.startswith("worker-"))
            for name in workers:
                with open(os.path.join(trace_dir, name)) as fh:
                    parts.append(json.load(fh))
            if result.get("gateway_trace"):
                parts.append(result["gateway_trace"])
            result["trace"] = tracing.merge(parts)
            result["trace_processes"] = len(parts)
        own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        result["peak_rss_mb"] = max(own, children) / 1024.0
    result["calibration_s"] = CALIBRATION + [hostspeed.calibrate()]
    print("PERFBENCH_REP " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
