"""One fresh interpreter running one workload once; started by run.py.

    python3 perfbench/worker.py MODE WORKLOAD SEED [SPANS_PATH]

MODE is `setup` (set up, report ready, exit), `run` (untraced, timed) or
`trace` (every layer wrapped).  The worker prints `READY` once its inputs
are built, then one JSON line with its results.  A fresh interpreter per run
means grhopf's caches start cold, as they do for every `grhopf` command.

Right after READY and after every op the worker times `calibrate`, a fixed
piece of pure-Python work, so that run.py can tell how fast the machine ran
around each op.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))


def calibrate() -> tuple[float, float]:
    """Wall and CPU milliseconds of a fixed piece of pure-Python work."""
    t, c = time.perf_counter(), time.process_time()
    counts: dict = {}
    for i in range(3000):
        key = (i % 97, i % 13)
        counts[key] = counts.get(key, 0) + i
    sorted(counts.items())
    frozenset(counts)
    return (time.perf_counter() - t) * 1000.0, (time.process_time() - c) * 1000.0


def main(argv: list[str]) -> int:
    mode, workload, seed = argv[0], argv[1], int(argv[2])
    tracer = None
    if mode == "trace":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()  # before any input is built
    import workloads

    inputs = workloads.Inputs(workload, seed)
    runner = workloads.Runner(inputs)
    print("READY", flush=True)
    cals = [calibrate()]
    if mode == "setup":
        print(json.dumps({"cal_ms": cals}), flush=True)
        return 0

    latencies, cpus = [], []
    for op in inputs.ops:
        if tracer is not None:
            tracer.begin_op(op[0])
        t, c = time.perf_counter(), time.process_time()
        runner.run_op(op)
        cpus.append((time.process_time() - c) * 1000.0)
        latencies.append((time.perf_counter() - t) * 1000.0)
        if tracer is not None:
            tracer.end_op()
        cals.append(calibrate())

    result = {
        "latencies_ms": latencies,
        "cpu_ms": cpus,
        "cal_ms": cals,  # after set-up, then after each op
        "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "attempted": len(inputs.ops),
        "failed": len(runner.bad),
        "bad": runner.bad[:5],
        "output_sha256": runner.digest(),
    }
    if tracer is not None:
        result["counts"] = tracer.counts()
        result["times"] = tracer.times()
        if len(argv) > 3:
            result["spans"] = tracer.write_spans(argv[3])
    else:
        result["work"], result["problems"] = workloads.work_counts(runner)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
