"""smoea benchmark driver.

    python3 perfbench/run.py --workload desk-prune --seed 1 --seconds 35 --trace 0

Runs one seeded workload in one process (a closed loop with one caller):
sets up its inputs several times, repeats the job until --seconds have
passed (at least MIN_JOBS times), checks the outputs against slow oracles
outside the timed region, and prints a human-readable report followed by
one JSON line: {"correct", "attempted", "failed", "metrics"}.

--trace 0 reports the end-to-end metrics (medians over set-ups and jobs).
--trace 1 runs set-up and job untraced, then with every public function
of the measured smoea modules wrapped, then untraced again, and reports the
per-layer metrics.

The package is imported from src/ next to this directory; without it the
driver exits with code 2 and prints no result.
"""

from __future__ import annotations

import os
import sys

# Pin BLAS to one thread before numpy loads: at the default two threads,
# runs of one workload spread far wider.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS
sys.dont_write_bytecode = True

import argparse
import json
import platform
import resource
import statistics
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

DEFAULT_SEED = 1
HELD_OUT_SEED = 7
# set-up is repeated at least SETUP_MIN_REPS times and for at least
# SETUP_MIN_S seconds, so that millisecond set-ups still give a steady median
SETUP_MIN_REPS = 5
SETUP_MIN_S = 1.0
# the first job in a process runs slowest (by 5-15 % on a 2-vCPU KVM guest);
# with three jobs the median falls on a later one
MIN_JOBS = 3

# (name, unit, better) of the end-to-end metrics in the JSON line; every
# workload reports all of them.
END_TO_END = [
    ("setup_s", "s", "lower"),
    ("wall_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
]
# units of the workload-specific metrics printed in the report only;
# anything not listed is in seconds
UNITS = {
    "evals_per_s": "1/s",
    "train_samples_per_s": "1/s",
    "final_accuracy": "ratio",
    "random_accuracy": "ratio",
    "remained_flops_pct": "%",
    "front_hv": "ratio",
    "failed_ratio": "ratio",
}


def import_package():
    """Import smoea from this checkout's src/, never from anywhere else."""
    if not (SRC / "smoea" / "__init__.py").is_file():
        print(f"perfbench: no smoea package under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    import smoea

    if Path(smoea.__file__).resolve().parent != SRC / "smoea":
        print(f"perfbench: smoea imported from {smoea.__file__}, not {SRC}", file=sys.stderr)
        raise SystemExit(2)


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        vendor = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        vendor = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": vendor,
        "blas_threads": int(BLAS_THREADS),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed_setup(workload, seed, workdir):
    workdir.mkdir(exist_ok=True)
    t0 = time.perf_counter()
    state = workload.setup(seed, workdir)
    return state, time.perf_counter() - t0


def timed_run(workload, state):
    t0 = time.perf_counter()
    out = workload.run(state)
    return out, time.perf_counter() - t0


def measure(workload, seeds, seconds, workdir, checks):
    """End-to-end run over the workload's input seeds: repeated set-ups,
    then jobs cycling over the seeds until `seconds` have passed and every
    seed ran once. Returns (metrics, workload metrics, digests, job times)."""
    setup_times = []
    states = {}
    while len(setup_times) < SETUP_MIN_REPS or sum(setup_times) < SETUP_MIN_S:
        for s in seeds:
            states.pop(s, None)  # free the previous inputs before building the next
            states[s], t = timed_setup(workload, s, workdir / str(s))
            setup_times.append(t)
    min_jobs = max(MIN_JOBS, len(seeds))
    walls, parts, digests, firsts = [], {}, {}, {}
    rss = None
    start = time.perf_counter()
    while len(walls) < min_jobs or (
        time.perf_counter() - start + statistics.median(walls) <= seconds
    ):
        s = seeds[len(walls) % len(seeds)]
        out, wall = timed_run(workload, states[s])
        walls.append(wall)
        for k, v in out.metrics.items():
            parts.setdefault(k, []).append(v)
        digests.setdefault(s, []).append(out.digest())
        firsts.setdefault(s, out)
        del out
        if len(walls) == min_jobs:
            # read at a fixed job count: the heap keeps growing a little
            # with every job, and how many jobs fit varies from run to run
            rss = peak_rss_mb()
    metrics = {
        "setup_s": statistics.median(setup_times),
        "wall_s": statistics.median(walls),
        "peak_rss_mb": rss,
    }
    for s, seen in digests.items():
        if len(seen) > 1:
            checks.expect(
                len(set(seen)) == 1,
                f"{len(seen)} jobs of seed {s} gave {len(set(seen))} output digests",
            )
    extra = {k: statistics.median(v) for k, v in parts.items()}
    quality = [workload.check(states[s], firsts[s], checks) for s in seeds]
    for k in quality[0]:
        extra[k] = statistics.fmean(q[k] for q in quality)
    return metrics, extra, {s: d[0] for s, d in digests.items()}, walls


def measure_traced(workload, seed, workdir, checks):
    """Per-layer run: set-up + job untraced, traced, then untraced again;
    the tracing overhead is the traced time minus the mean untraced time."""
    from tracing import Tracer

    def untraced():
        state, setup_s = timed_setup(workload, seed, workdir / str(seed))
        out, wall = timed_run(workload, state)
        return state, out, setup_s + wall

    state, first, before_s = untraced()
    state = None
    tracer = Tracer()
    tracer.install()
    try:
        t0 = time.perf_counter()
        state = workload.setup(seed, workdir / str(seed))
        traced_out = workload.run(state)
        traced_s = time.perf_counter() - t0
    finally:
        restored = tracer.uninstall()
    checks.expect(
        all(vars(owner)[attr] is original for owner, attr, original in restored),
        "tracer left a patched function behind",
    )
    state = None
    state, again, after_s = untraced()
    for out, what in ((traced_out, "traced"), (again, "repeated untraced")):
        checks.expect(
            out.digest() == first.digest(), f"{what} job outputs differ from the first job"
        )
    metrics = tracer.layer_metrics(overhead_s=traced_s - (before_s + after_s) / 2)
    extra = {"untraced_before_s": before_s, "traced_s": traced_s, "untraced_after_s": after_s}
    extra.update(workload.check(state, first, checks))
    return metrics, extra, {seed: first.digest()}, [before_s, traced_s, after_s]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument(
        "--seed",
        type=int,
        default=DEFAULT_SEED,
        help=f"input seed (default {DEFAULT_SEED}); a claimed gain must also "
        f"hold on the held-out seed {HELD_OUT_SEED}",
    )
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    if args.seconds <= 0:
        ap.error("--seconds must be > 0")

    import_package()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from tracing import PER_LAYER
    from workloads import WORKLOADS, Checks, input_seeds

    if args.workload not in WORKLOADS:
        ap.error(f"--workload must be one of {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    seeds = input_seeds(args.seed, workload.input_seeds)
    checks = Checks()
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        if args.trace:
            metrics, extra, digests, job_walls = measure_traced(
                workload, seeds[0], Path(tmp), checks
            )
            declared = PER_LAYER
        else:
            metrics, extra, digests, job_walls = measure(
                workload, seeds, args.seconds, Path(tmp), checks
            )
            declared = END_TO_END
    extra["failed_ratio"] = len(checks.failures) / checks.attempted

    print(f"perfbench workload={workload.name} seed={args.seed} trace={args.trace} "
          f"seconds={args.seconds:g} jobs={len(job_walls)}")
    print("timed (s): " + " ".join(f"{w:.3f}" for w in job_walls))
    print("why: " + workload.why)
    print("env: " + json.dumps(environment(), sort_keys=True))
    settings = {"seed": args.seed, "input_seeds": seeds, **workload.settings}
    print("settings: " + json.dumps(settings, sort_keys=True))
    for s, digest in digests.items():
        print(f"digest: input_seed={s} {digest}")
    for failure in checks.failures:
        print("FAILED check: " + failure)
    print(f"checks: {checks.attempted - len(checks.failures)}/{checks.attempted} passed")
    for name, unit, better in declared:
        print(f"  {name:36s} {metrics[name]:>14.6g} {unit:8s} ({better} is better)")
    for name, value in sorted(extra.items()):
        print(f"  {name:36s} {value:>14.6g} {UNITS.get(name, 's'):8s} (workload metric)")
    print(
        json.dumps(
            {
                "correct": not checks.failures,
                "attempted": checks.attempted,
                "failed": len(checks.failures),
                "metrics": {
                    name: {"value": metrics[name], "unit": unit}
                    for name, unit, _ in declared
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
