"""One workload in one fresh process (started by ``bench.cli``, not by hand).

The runner sets the BLAS thread count, ``PYTHONPATH`` and ``TMPDIR`` in this
process's environment before it starts; this module pins serving workloads
to one CPU, sets the workload up, measures it and prints one JSON object as
its last line of output.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
import time
from pathlib import Path

from bench import spec

OUT = Path(__file__).resolve().parent / "out"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="bench.worker")
    parser.add_argument("--workload", required=True, choices=list(spec.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.time() in the runner just before this process started")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    if args.workload in spec.SERVE_WORKLOADS:
        # Before any thread exists.  The serving threads share the GIL
        # anyway; pinned, sub-millisecond wake-ups stop landing on the other
        # core at random, which made latency bimodal across processes.
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

    from bench import machine

    fingerprint = machine.fingerprint()
    scratch = os.environ["TMPDIR"]
    if args.workload in spec.SELECT_WORKLOADS:
        from bench.workloads.select import SelectWorkload as Workload
    else:
        from bench.workloads.serve import ServeWorkload as Workload
    workload = Workload(args.workload, args.seed, scratch, smoke=args.smoke)
    try:
        workload.setup()
        setup_s = time.time() - args.spawned_at
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        # Freeze the set-up heap: a full GC pass then scans only what the run
        # allocates, not every module and model (see README, noise rule 7).
        gc.collect()
        gc.freeze()
        tracer = None
        if args.trace:
            from bench.tracing import Tracer

            tracer = Tracer()
        report = workload.run(args.seconds, tracer)
    finally:
        workload.close()
    report["metrics"]["peak_rss_mb"] = (machine.peak_rss_mb(), 1)
    report["setup_s"] = setup_s
    report["fingerprint"] = fingerprint
    if tracer is not None:
        OUT.mkdir(exist_ok=True)
        path = OUT / f"trace-{args.workload}.jsonl"
        tracer.write(path, report.pop("request_lines", ()))
        report["diagnostics"]["trace_file"] = str(path.relative_to(Path.cwd()))
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
