"""Benchmark of cvleak: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/``.  Every measurement runs in a fresh interpreter with one BLAS
thread (``perfbench/worker.py``).  ``--trace 0`` prints the end-to-end
metrics:

* ``setup_s``: interpreter start to the first possible timed call
  (``import cvleak`` and building the first inputs), median of
  ``SETUP_PROBES`` fresh processes;
* ``ops_per_s``: sweep rows, or solves, per second of calls;
* ``call_p50_ms`` and ``call_tail_ms``: median and tail latency of one
  call into the entry point, the tail at the workload's fixed percentile;
* ``peak_rss_mb``: peak resident memory of the measuring process.

The call times are scaled to the machine's reference speed: multiplied by
``calibrate.REFERENCE_S`` over the time of a fixed kernel measured beside
them (``perfbench/calibrate.py``).  The record keeps their wall-clock
values; ``setup_s`` is wall-clock time.

``--trace 1`` runs the first operations of the stream three times,
untraced, traced and untraced again, each in its own process, and prints
the per-layer metrics and the tracing overhead.  The line before the last
holds the run's record (machine, versions, sample counts, check
outcomes); the last line is the result object.  See
``perfbench/NOTES.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("collective-sweep", "individual-sweep", "distance-solve")
SETUP_PROBES = 7
# Operations of the traced pass: about ten seconds untraced each.
TRACE_OPS = {"collective-sweep": 128, "individual-sweep": 4096,
             "distance-solve": 16}
CHILD_TIMEOUT_S = 160
# Calls a run must leave beyond the tail percentile; fewer are reported.
MIN_BEYOND_TAIL = 10
THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                    "NUMEXPR_NUM_THREADS")
END_TO_END_UNITS = {"setup_s": "s", "ops_per_s": "1/s", "call_p50_ms": "ms",
                    "call_tail_ms": "ms", "peak_rss_mb": "MB"}


class BenchError(RuntimeError):
    """The benchmark could not run; no result is printed."""


def _child_env() -> dict:
    env = dict(os.environ)
    paths = [SRC, ROOT] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH")
                           else [])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    for name in THREAD_VARIABLES:
        env[name] = "1"
    return env


def _worker(role: str, args, **extra) -> dict:
    argv = [sys.executable, "-m", "perfbench.worker", "--role", role,
            "--workload", args.workload, "--seed", str(args.seed)]
    for key, value in extra.items():
        argv += [f"--{key}", str(value)]
    try:
        proc = subprocess.run(argv, cwd=ROOT, env=_child_env(),
                              capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{role} process ran over {CHILD_TIMEOUT_S} s") \
            from exc
    if proc.returncode != 0:
        raise BenchError(f"{role} process exited with {proc.returncode}:\n"
                         f"{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _setup_seconds(args) -> list[float]:
    samples = []
    for _ in range(SETUP_PROBES):
        start = time.monotonic()
        samples.append(_worker("setup", args)["ready"] - start)
    return samples


def _layer_unit(name: str) -> str:
    if name.endswith("self_s"):
        return "s/op"
    if name.endswith("_frac"):
        return "frac"
    if name.endswith("errors"):
        return "count"
    if name == "setup.import_s":
        return "s"
    return "count/op"


def _machine() -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu_model": model}


def _git_sha() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _measure(args, record: dict) -> dict:
    setup = _setup_seconds(args)
    run = _worker("measure", args, seconds=args.seconds)
    if run["beyond_tail"] < MIN_BEYOND_TAIL:
        print(f"perfbench: only {run['beyond_tail']} calls beyond "
              f"p{run['tail_percentile']}; call_tail_ms is short of samples",
              file=sys.stderr)
    record.update({
        "setup_samples_s": setup,
        "wall": run["wall"],
        "probe_median_s": run["probe_median_s"],
        "import_s": run["import_s"],
        "samples": {"setup_probes": len(setup), "calls": run["calls"],
                    "units": run["units"], "probes": run["probes"],
                    "tail_percentile": run["tail_percentile"],
                    "calls_beyond_tail": run["beyond_tail"],
                    "tail_samples_short":
                        run["beyond_tail"] < MIN_BEYOND_TAIL},
        "busy_s": run["busy_s"],
        "versions": run["versions"],
        "checks": run["checks"],
        "reference_seed": run["reference_seed"],
    })
    values = {"setup_s": statistics.median(setup)}
    values.update({k: run[k] for k in END_TO_END_UNITS if k != "setup_s"})
    metrics = {k: {"value": values[k], "unit": u}
               for k, u in END_TO_END_UNITS.items()}
    return {"correct": run["correct"], "attempted": run["checks"]["attempted"],
            "failed": run["checks"]["failed"], "metrics": metrics}


def _trace(args, record: dict) -> dict:
    # Untraced passes before and after the traced one, so that a steady
    # drift of the machine's speed cancels out of the overhead.
    ops = TRACE_OPS[args.workload]
    passes = [_worker("pass", args, ops=ops, trace=trace)
              for trace in (0, 1, 0)]
    traced = passes[1]
    untraced_s = [passes[0]["scaled_busy_s"], passes[2]["scaled_busy_s"]]
    layers = dict(traced["layers"])
    layers["setup.import_s"] = statistics.median(
        p["import_s"] for p in passes)
    layers["trace.overhead_frac"] = (
        traced["scaled_busy_s"] / statistics.mean(untraced_s) - 1.0)
    record.update({
        "samples": {"ops": ops, "units": traced["units"]},
        "untraced_s": untraced_s, "traced_s": traced["scaled_busy_s"],
        "census": traced["census"],
        "versions": traced["versions"],
        "checks": [p["checks"] for p in passes],
        "reference_seed": traced["reference_seed"],
    })
    metrics = {k: {"value": v, "unit": _layer_unit(k)}
               for k, v in sorted(layers.items())}
    return {"correct": all(p["correct"] for p in passes),
            "attempted": sum(p["checks"]["attempted"] for p in passes),
            "failed": sum(p["checks"]["failed"] for p in passes),
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not os.path.isfile(os.path.join(SRC, "cvleak", "__init__.py")):
        print(f"perfbench: no cvleak sources under {SRC}", file=sys.stderr)
        return 2
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "machine": _machine(), "git_sha": _git_sha()}
    try:
        result = (_trace if args.trace else _measure)(args, record)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
