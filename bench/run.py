"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload paper-grid --seed 1 --seconds 20 --trace 0

Run from the repository root; the package is imported from ``src/``.  The
workload's tasks run one at a time, back to back (a closed loop with one
client), until ``--seconds`` have passed and the first pass is complete.
Every task's outputs are checked.

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` wraps the
package's module boundaries (see ``tracing.py``) and reports per-layer
metrics instead.  Every time and rate is scaled to a core of nominal speed
with the workload's speed probe, timed between tasks (see ``speed.py``).

Before the last line, a ``{"record": ...}`` line carries everything else:
machine, versions, the workload's reason, quality metrics, ``fail_frac``,
the failures and the unscaled times.  The last line of standard output is the
result: ``{"correct", "attempted", "failed", "metrics"}``.

BLAS runs single-threaded, so one run keeps one core busy.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import bisect  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import warnings  # noqa: E402

BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import speed  # noqa: E402  (after the thread settings: it imports NumPy)

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")

SETUP_REPLICAS = 2  # extra set-ups in fresh processes; setup_s is the median of all
SETUP_PROBES = 7  # probe repeats that scale one set-up time
PROBE_EVERY_S = 0.2  # time the speed probe after a task once this much has passed
TAIL_BEYOND = 10  # task_s_tail leaves at least this many tasks above it

END_TO_END_UNITS = {
    "setup_s": "s",
    "tasks_per_s": "1/s",
    "task_s_p50": "s",
    "task_s_tail": "s",
    "peak_rss_mb": "MB",
}


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("paper-grid", "exact-checks", "sampled-balance"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="small inputs, for the benchmark's own tests")
    parser.add_argument("--setup-only", action="store_true", help="set up, print setup_s and exit")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    return args


def import_package():
    """Import the workloads (and with them balancelab) from this checkout."""
    if not os.path.isfile(os.path.join(SRC, "balancelab", "__init__.py")):
        raise SystemExit(f"error: no package source at {SRC}/balancelab; run from a full checkout")
    sys.path.insert(0, SRC)
    import workloads  # noqa: E402

    return workloads


def set_up(args: argparse.Namespace):
    """Imports, inputs and warm-up.  Returns the workload, the raw set-up
    time and the same time scaled by probes taken right after it."""
    workloads = import_package()
    workload = workloads.WORKLOADS[args.workload](args.seed, quick=args.quick)
    workload.warmup()
    raw = time.perf_counter() - T_START
    return workload, raw, raw * speed.NOMINAL_S / speed.median_probe_s(SETUP_PROBES)


def run_tasks(workload, seconds: float, tracer=None) -> dict:
    """The timed phase: tasks back to back until the deadline, and at least
    one full pass.  The speed probe runs between tasks, outside their times."""
    probes = [(time.perf_counter(), speed.time_probe())]  # (when, probe seconds)
    walls: list[float] = []
    starts: list[float] = []
    failures: list[str] = []
    quality: dict[str, list[float]] = {}
    attempted = 0
    complete_passes = 0
    cpu0, t0 = time.process_time(), time.perf_counter()
    deadline = t0 + seconds
    p = 0
    while not (complete_passes and time.perf_counter() >= deadline):
        if tracer is not None:
            tracer.current_pass = p
        for task in workload.tasks(p):
            if complete_passes and time.perf_counter() >= deadline:
                break
            attempted += 1
            problems: list[str] = []
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always", RuntimeWarning)
                start = time.perf_counter()
                try:
                    out = task.run()
                except Exception as exc:  # an unexpected error is a failed task
                    out, problems = None, [f"{type(exc).__name__}: {exc}"]
                wall = time.perf_counter() - start
            if out is not None:
                problems = task.check(out)
            problems += [f"RuntimeWarning: {w.message}" for w in caught if issubclass(w.category, RuntimeWarning)]
            if problems:
                failures.append(f"pass {p} {task.key}: {'; '.join(problems)}")
            else:
                walls.append(wall)
                starts.append(start)
                if p == 0 and task.quality is not None:
                    for key, value in task.quality(out).items():
                        quality.setdefault(key, []).append(float(value))
            del out
            if time.perf_counter() - probes[-1][0] >= PROBE_EVERY_S:
                probes.append((time.perf_counter(), speed.time_probe()))
        else:
            complete_passes += 1
        p += 1
    elapsed = time.perf_counter() - t0
    probes.append((time.perf_counter(), speed.time_probe()))
    return {
        "walls": walls,
        "scales": local_scales(starts, probes),
        "failures": failures,
        "attempted": attempted,
        "complete_passes": complete_passes,
        "cpu_frac": (time.process_time() - cpu0) / elapsed,
        "elapsed_s": elapsed,
        "probe_s": statistics.median(v for _, v in probes),
        "probes": len(probes),
        "quality": {k: statistics.fmean(v) for k, v in quality.items()},
    }


def local_scales(starts: list[float], probes: list[tuple[float, float]]) -> list[float]:
    """NOMINAL_S over the mean of the probes taken just before and just
    after each task, so a task is scaled by the speed of its moment."""
    when = [t for t, _ in probes]
    out = []
    for start in starts:
        i = bisect.bisect_right(when, start)  # probes[i - 1] precedes the task
        out.append(speed.NOMINAL_S / (0.5 * (probes[i - 1][1] + probes[i][1])))
    return out


def timing_metrics(walls: list[float], scales: list[float] | None = None) -> dict:
    """tasks_per_s over the summed task wall time, the median, and the
    highest percentile with TAIL_BEYOND tasks above it; each time is first
    multiplied by its scale."""
    ordered = sorted(w * s for w, s in zip(walls, scales)) if scales else sorted(walls)
    n = len(ordered)
    if n > TAIL_BEYOND:
        tail, tail_pct = ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n
    else:
        tail, tail_pct = (ordered[-1], 100.0) if ordered else (0.0, 0.0)
    return {
        "tasks_per_s": n / sum(ordered) if n else 0.0,
        "task_s_p50": statistics.median(ordered) if ordered else 0.0,
        "task_s_tail": tail,
        "tail_percentile": tail_pct,
        "tasks_timed": n,
    }


def replica_setup_s(args: argparse.Namespace) -> list[dict]:
    """Set the workload up again in fresh processes, one after another."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload, "--seed", str(args.seed), "--setup-only"]
    if args.quick:
        cmd.append("--quick")
    samples = []
    for _ in range(SETUP_REPLICAS):
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        samples.append(json.loads(done.stdout.strip().splitlines()[-1]))
    return samples


def machine_info(args: argparse.Namespace) -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(BLAS_THREADS),
        "seed": args.seed,
        "seconds": args.seconds,
        "quick": args.quick,
    }


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    workload, raw_setup_s, setup_s = set_up(args)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "raw_setup_s": raw_setup_s}))
        return 0

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    try:
        phase = run_tasks(workload, args.seconds, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    timing = timing_metrics(phase["walls"], phase["scales"])
    raw = timing_metrics(phase["walls"])
    failed = len(phase["failures"])
    attempted = phase["attempted"]

    record = {
        "workload": workload.name,
        "why": workload.why,
        "trace": args.trace,
        "machine": machine_info(args),
        "complete_passes": phase["complete_passes"],
        "elapsed_s": phase["elapsed_s"],
        "fail_frac": failed / attempted,
        "failures": phase["failures"][:5],
        "proc_cpu_frac": phase["cpu_frac"],
        "tail_percentile": timing["tail_percentile"],
        "tasks_timed": timing["tasks_timed"],
        "probe_s": phase["probe_s"],
        "probes": phase["probes"],
        "nominal_probe_s": speed.NOMINAL_S,
        "raw": {k: raw[k] for k in ("tasks_per_s", "task_s_p50", "task_s_tail")},
    }
    if tracer is None:
        replicas = replica_setup_s(args)
        setups = [setup_s] + [r["setup_s"] for r in replicas]
        record["raw"]["setup_s"] = statistics.median([raw_setup_s] + [r["raw_setup_s"] for r in replicas])
        values = {
            "setup_s": statistics.median(setups),
            "tasks_per_s": timing["tasks_per_s"],
            "task_s_p50": timing["task_s_p50"],
            "task_s_tail": timing["task_s_tail"],
            "peak_rss_mb": peak_rss_mb,
        }
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END_UNITS.items()}
        record["setup_samples_s"] = setups
        record["quality"] = {k: {"value": v, "unit": "ratio"} for k, v in phase["quality"].items()}
    else:
        values = tracer.layer_metrics(phase["complete_passes"], phase["cpu_frac"], speed.NOMINAL_S / phase["probe_s"])
        values["trace.tasks_per_s"] = timing["tasks_per_s"]  # scaled like the untraced run's
        metrics = {k: {"value": values[k], "unit": u} for k, u in tracing.LAYER_METRICS.items()}
        out_dir = os.path.join(BENCH_DIR, "out")
        os.makedirs(out_dir, exist_ok=True)
        spans_path = os.path.join(out_dir, f"spans-{workload.name}-seed{args.seed}.json")
        tracer.dump(spans_path)
        record["spans_file"] = os.path.relpath(spans_path, ROOT)
        layers = {k.split(".")[0] for k in values}
        record["layers_not_exercised"] = sorted(
            layer for layer in layers if not any(v for k, v in values.items() if k.startswith(layer + "."))
        )

    print(json.dumps({"record": record}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
