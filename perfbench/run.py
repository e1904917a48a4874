"""Layered benchmark for grhopf.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Every run of a workload starts fresh
interpreters (perfbench/worker.py), so grhopf's caches start cold.

--trace 0 prints the end-to-end metrics: repetitions of the workload's
fixed work, each followed by SETUP_PROBES set-ups alone, as long as at least
half a repetition's time of --seconds is left (at least one).  Every
repetition runs the same ops in the same order from cold caches.

Times are given at a reference machine speed.  On a shared 2-vCPU cloud VM
the speed of a core drifts by up to 2x within seconds as other tenants come
and go, and raw times of the same work spread by 40%.  The worker therefore
times a fixed calibration loop right after set-up and after every op; each
time is scaled by CAL_REF_MS / (the calibration time around it), which reads
as the time on a machine where the loop takes CAL_REF_MS.  `wall_s` and
`cpu_s` are the sums over the ops of each op's median scaled time over the
repetitions (wall clock and process CPU time); `op_p50_ms` and `op_p90_ms`
are percentiles of the scaled wall times of every op in every repetition.
`setup_s` is the median over all scaled set-up times and `peak_rss_mib` the
maximum.
--trace 1 prints the per-layer metrics: one untraced reference repetition,
then two traced repetitions side by side whose counts must match exactly.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; the line before it holds the
work counts, output digest and sample counts.  The exit code is 0 only when
every output is correct and every work count matches the inputs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

# the calibration loop's wall time, in ms, at the reference speed: about its
# fastest on a 2-vCPU cloud VM with Python 3.11
CAL_REF_MS = 1.0
SETUP_PROBES = 2  # extra set-ups after each repetition
CHILD_TIMEOUT_S = 170
SPANS_DIR = HERE / "spans"


class WorkerError(RuntimeError):
    pass


def start_worker(mode: str, workload: str, seed: int, spans=None):
    cmd = [sys.executable, str(HERE / "worker.py"), mode, workload, str(seed)]
    if spans is not None:
        cmd.append(str(spans))
    started = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    return proc, started


def reap(proc) -> None:
    """Kill the worker if it still runs, and wait until it has ended."""
    if proc.poll() is None:
        proc.kill()
    proc.wait()
    proc.stdout.close()


def finish_worker(proc, started) -> tuple[float, dict | None]:
    """(seconds from spawn to READY, the worker's JSON result or None)."""
    watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        line = proc.stdout.readline()
        ready = time.perf_counter() - started
        if line.strip() != "READY":
            raise WorkerError(f"worker did not get ready: {line.strip()!r}")
        rest = proc.stdout.read()
    finally:
        watchdog.cancel()
        reap(proc)
    if proc.returncode != 0:
        raise WorkerError(f"worker exited with code {proc.returncode}")
    lines = rest.strip().splitlines()
    return ready, (json.loads(lines[-1]) if lines else None)


def run_worker(mode, workload, seed):
    return finish_worker(*start_worker(mode, workload, seed))


def scaled(rep: dict, clock: int) -> list[float]:
    """Per-op times in ms of one repetition at the reference speed; clock 0
    is wall time, 1 process CPU time.  The machine's speed during an op is
    the mean of the calibrations right before and after it."""
    times = rep["latencies_ms"] if clock == 0 else rep["cpu_ms"]
    cals = [c[clock] for c in rep["cal_ms"]]
    return [t * 2 * CAL_REF_MS / (before + after)
            for t, before, after in zip(times, cals, cals[1:])]


def scaled_setup(ready: float, rep: dict) -> float:
    return ready * CAL_REF_MS / rep["cal_ms"][0][0]


def quantile(values, q: int) -> float:
    """The q-th percentile (q in 10..90 by tens), interpolated."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[q // 10 - 1]


def metric(value, unit):
    return {"value": value, "unit": unit}


def check_reps(reps: list[dict]) -> list[str]:
    """Every repetition of one seed must give the same outputs and counts."""
    problems = []
    for rep in reps:
        problems += rep.get("problems", [])
        problems += rep["bad"]
    if len({rep["output_sha256"] for rep in reps}) > 1:
        problems.append("output_sha256 differs between repetitions of one seed")
    if len({json.dumps(rep.get("work"), sort_keys=True) for rep in reps}) > 1:
        problems.append("work counts differ between repetitions of one seed")
    return problems


def untraced(workload: str, seed: int, seconds: float):
    deadline = time.perf_counter() + seconds
    setups: list[float] = []
    reps: list[dict] = []
    spent: list[float] = []
    while True:
        t = time.perf_counter()
        ready, rep = run_worker("run", workload, seed)
        setups.append(scaled_setup(ready, rep))
        setups += [scaled_setup(*run_worker("setup", workload, seed)) for _ in range(SETUP_PROBES)]
        reps.append(rep)
        spent.append(time.perf_counter() - t)
        if time.perf_counter() + statistics.median(spent) / 2 > deadline:
            break
    problems = check_reps(reps)
    walls = [scaled(rep, 0) for rep in reps]
    latencies = [ms for rep in walls for ms in rep]
    cpus = [scaled(rep, 1) for rep in reps]
    metrics = {
        "wall_s": metric(sum(map(statistics.median, zip(*walls))) / 1000.0, "s"),
        "cpu_s": metric(sum(map(statistics.median, zip(*cpus))) / 1000.0, "s"),
        "op_p50_ms": metric(statistics.median(latencies), "ms"),
        "op_p90_ms": metric(quantile(latencies, 90), "ms"),
        "setup_s": metric(statistics.median(setups), "s"),
        "peak_rss_mib": metric(max(rep["peak_rss_kib"] for rep in reps) / 1024.0, "MiB"),
    }
    attempted = sum(rep["attempted"] for rep in reps)
    failed = sum(rep["failed"] for rep in reps)
    info = {
        "workload": workload,
        "seed": seed,
        "repetitions": len(reps),
        "setup_samples": len(setups),
        "op_samples": len(latencies),
        "failed_frac": failed / attempted,
        "cal_ms_median": statistics.median(c[0] for rep in reps for c in rep["cal_ms"]),
        "output_sha256": reps[0]["output_sha256"],
        "work": reps[0]["work"],
        "problems": problems[:10],
    }
    return metrics, attempted, failed, problems, info


def traced(workload: str, seed: int):
    # the untraced reference is the base of the overhead ratio
    _, ref = run_worker("run", workload, seed)
    SPANS_DIR.mkdir(exist_ok=True)
    pending = [
        start_worker("trace", workload, seed, SPANS_DIR / f"{workload}-{seed}-{i}.jsonl.gz")
        for i in (1, 2)
    ]
    try:
        runs = [finish_worker(*p)[1] for p in pending]
    finally:
        for proc, _ in pending:
            reap(proc)
    problems = check_reps([ref]) + [b for r in runs for b in r["bad"]]
    if any(r["output_sha256"] != ref["output_sha256"] for r in runs):
        problems.append("traced output_sha256 differs from the untraced one")
    if runs[0]["counts"] != runs[1]["counts"]:
        diff = sorted(k for k in runs[0]["counts"] if runs[0]["counts"][k] != runs[1]["counts"][k])
        problems.append(f"traced counts differ between two runs of one seed: {diff}")
    first = runs[0]
    metrics = {name: metric(v, _unit(name)) for name, v in first["counts"].items()}
    metrics.update({name: metric(v, "s") for name, v in first["times"].items()})
    metrics["trace.overhead_ratio"] = metric(sum(scaled(first, 1)) / sum(scaled(ref, 1)), "ratio")
    attempted = first["attempted"] + ref["attempted"]
    failed = first["failed"] + ref["failed"]
    info = {
        "workload": workload,
        "seed": seed,
        "spans": first["spans"],
        "output_sha256": ref["output_sha256"],
        "work": ref["work"],
        "problems": problems[:10],
    }
    return metrics, attempted, failed, problems, info


def _unit(name: str) -> str:
    return "ratio" if name.endswith("_ratio") else "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "grhopf" / "__init__.py").is_file():
        print(f"grhopf sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        if args.trace:
            metrics, attempted, failed, problems, info = traced(args.workload, args.seed)
        else:
            metrics, attempted, failed, problems, info = untraced(
                args.workload, args.seed, args.seconds)
    except WorkerError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    correct = not problems and failed == 0
    print(json.dumps(info, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
