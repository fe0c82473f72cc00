"""One benchmark process: a fresh interpreter running one role.

Roles:

* ``setup``: import the program and build the first group of inputs, then
  report the monotonic clock, so that the parent can time interpreter
  start to first possible call;
* ``measure``: set up, then call the entry point on successive operations
  until the calls have taken ``--seconds`` seconds, checking every output
  after its timed call; every call's time is also reported scaled to the
  reference speed (``calibrate.py``);
* ``pass``: call the entry point on exactly the first ``--ops``
  operations, with the tracer installed when ``--trace 1``.

The last line of standard output is one JSON object.  Run through
``perfbench/run.py``, which starts every role with one BLAS thread.
"""

from __future__ import annotations

import argparse
import itertools
import json
import resource
import statistics
import sys
import time


def _parse(argv):
    parser = argparse.ArgumentParser(prog="perfbench.worker")
    parser.add_argument("--role", choices=("setup", "measure", "pass"),
                        required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--ops", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


# Points the timed inputs leave out because the program fails on them
# today.  The traced collective-sweep run evaluates them and counts the
# errors, so a fix shows up as a falling count.
CENSUS = (
    # Bloch-Messiah solver: SolverError at k >= 3, v_s <= 0.01, v_m = 1e5 ...
    ("multimode", dict(v_s=0.001, v_m=1e5, k=3.0, leakage_variances=(0.001,)),
     dict(eta=0.5, epsilon=0.01), "RR"),
    ("multimode", dict(v_s=0.002, v_m=1e5, k=3.5, leakage_variances=(0.002,)),
     dict(eta=0.5, epsilon=0.01), "RR"),
    # ... at k near 0 with v_s < 0.03 and v_m >= 2e4 ...
    ("multimode", dict(v_s=0.0153, v_m=96841.0, k=0.006,
                       leakage_variances=(0.0153,)),
     dict(eta=0.5, epsilon=0.01), "RR"),
    # ... and at about one point in a thousand with v_s < 1e-2.
    ("multimode", dict(v_s=0.0011793931973142309, v_m=3.0191230491944205,
                       k=0.996113232907049,
                       leakage_variances=(0.0011793931973142309,)),
     dict(eta=0.8970783776550622, epsilon=0.013631952317947296), "RR"),
    # Premodulation EB limit offset: ScenarioError from v_m = 1e5 on.
    ("premod", dict(v_s=0.5, v_m=1e5, eta_e=0.7),
     dict(eta=0.5, epsilon=0.01), "RR"),
    # Premodulation DR Holevo bound: PhysicalityError at v_s < 0.1.
    ("premod", dict(v_s=0.005268349971047464, v_m=21.28721496597192,
                    eta_e=0.5313206207169936),
     dict(eta=0.9120108393559098, epsilon=0.015027509378388489), "DR"),
)


def _census(cli) -> dict:
    from cvleak.scenarios import (
        ChannelModel, MultimodeLeakageScenario, PremodLeakageScenario,
        ProtocolChoice)
    kinds = {"multimode": MultimodeLeakageScenario,
             "premod": PremodLeakageScenario}
    raised = []
    for kind, scenario, channel, direction in CENSUS:
        try:
            cli.key_rate(kinds[kind](**scenario), ChannelModel(**channel),
                         ProtocolChoice(direction, "collective", 0.95))
        except Exception as exc:  # counted, not fatal: that is the census
            raised.append(type(exc).__name__)
    return {"points": len(CENSUS), "raised": raised}


def call(cli, optimize, op):
    if op.kind == "sweep":
        rows = cli.run_sweep(op.scenario, op.channel, op.protocol, op.spec,
                             workers=1)
        return rows, cli.format_rows_csv(rows)
    return optimize.secure_distance(op.scenario, op.protocol, op.channel)


# Busy seconds between two kernel probes: a probe costs about 3 % of that.
PROBE_EVERY_S = 0.25


def scale(latencies, intervals, probes, reference_s) -> list[float]:
    """Each call's time at the reference speed.

    Call ``n`` ran between ``probes[intervals[n]]`` and the probe after it;
    its wall time is scaled by ``reference_s`` over the mean of the two.
    """
    return [x * 2.0 * reference_s / (probes[i] + probes[i + 1])
            for x, i in zip(latencies, intervals)]


def _tail(latencies: list[float], percentile: float) -> float:
    """Nearest-rank percentile of the latencies."""
    ordered = sorted(latencies)
    rank = max(1, -(-len(ordered) * percentile // 100))
    return ordered[int(rank) - 1]


def main(argv=None) -> int:
    args = _parse(argv)
    start = time.perf_counter()
    import cvleak
    import cvleak.cli
    import_s = time.perf_counter() - start
    from perfbench import workloads

    stream = workloads.stream(args.workload, args.seed)
    first = [next(stream) for _ in range(workloads.group_size(args.workload))]
    ready = time.monotonic()
    if args.role == "setup":
        print(json.dumps({"ready": ready, "import_s": import_s}))
        return 0

    import numpy
    import scipy
    from cvleak import cli, optimize
    from perfbench import calibrate, checks

    reference = checks.load_reference(args.workload, args.seed)
    tracer = None
    if args.trace:
        from perfbench.tracer import Tracer
        tracer = Tracer()
        tracer.install()

    def entry(index):
        if reference is None or index >= len(reference):
            return None
        return reference[index]

    tally = checks.Tally()
    unchecked = []  # a traced pass checks its outputs once tracing is off
    latencies: list[float] = []
    # Kernel probes between calls; a call is scaled by the mean of the
    # probes before and after it (calibrate.py).
    calibrate.warm()
    probes = [calibrate.probe()]
    intervals: list[int] = []
    since_probe = 0.0
    units = 0
    busy = 0.0
    ops = itertools.chain(first, stream)
    for index, op in enumerate(ops):
        if args.role == "measure" and busy >= args.seconds:
            break
        if args.role == "pass" and index >= args.ops:
            break
        output = error = None
        t0 = time.perf_counter()
        try:
            output = call(cli, optimize, op)
        except Exception as exc:  # recorded and counted as failed
            error = exc
        elapsed = time.perf_counter() - t0
        busy += elapsed
        latencies.append(elapsed)
        intervals.append(len(probes) - 1)
        since_probe += elapsed
        if since_probe >= PROBE_EVERY_S:
            probes.append(calibrate.probe())
            since_probe = 0.0
        units += op.units
        if tracer is None:
            tally.add(index, op, output, error, entry(index))
        else:
            unchecked.append((index, op, output, error))

    if intervals and intervals[-1] == len(probes) - 1:
        probes.append(calibrate.probe())
    scaled = scale(latencies, intervals, probes, calibrate.REFERENCE_S)

    result = {
        "import_s": import_s,
        "busy_s": busy,
        "scaled_busy_s": sum(scaled),
        "probes": len(probes),
        "probe_median_s": statistics.median(probes),
        "calls": len(latencies),
        "units": units,
        "versions": {"python": sys.version.split()[0],
                     "numpy": numpy.__version__, "scipy": scipy.__version__,
                     "cvleak": cvleak.__version__},
        "reference_seed": reference is not None,
    }
    if args.role == "measure":
        percentile = workloads.TAIL_PERCENTILE[args.workload]
        tail = _tail(scaled, percentile)
        result.update({
            "ops_per_s": units / sum(scaled),
            "call_p50_ms": 1e3 * statistics.median(scaled),
            "call_tail_ms": 1e3 * tail,
            "tail_percentile": percentile,
            "beyond_tail": sum(1 for x in scaled if x > tail),
            "wall": {"ops_per_s": units / busy,
                     "call_p50_ms": 1e3 * statistics.median(latencies),
                     "call_tail_ms": 1e3 * _tail(latencies, percentile)},
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        })
    if tracer is not None:
        # The workload's own errors, read before the census adds its own.
        layers = tracer.layer_metrics(units)
        layers["purification.solve.errors"] = (
            tracer.errors["purification.solve"])
        census = (_census(cli) if args.workload == "collective-sweep"
                  else {"points": 0, "raised": []})
        tracer.uninstall()
        layers["census.errors"] = len(census["raised"])
        result.update({"layers": layers, "census": census})
        for index, op, output, error in unchecked:
            tally.add(index, op, output, error, entry(index))
    result.update({"checks": tally.record(), "correct": tally.correct})
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
