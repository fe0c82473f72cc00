"""Write the committed reference values of the benchmark.

    PYTHONPATH=src:. python3 -m perfbench.make_references [WORKLOAD ...]

For every workload named (default: all) and every seed in
``checks.REFERENCE_SEEDS``, runs the first ``checks.REFERENCE_OPS``
operations of the seed's stream and stores their outputs, or the type of
the exception an operation raised, beside a fingerprint of the inputs.
Regenerate only when the workload generator changes; a program change
must pass against the committed values.
"""

from __future__ import annotations

import json
import os
import sys

from cvleak import cli, optimize

from perfbench import checks, worker, workloads


def _stored(value):
    """Floats kept to 12 significant digits, far inside the tolerances."""
    if isinstance(value, float):
        return float(f"{value:.12g}")
    if isinstance(value, list):
        return [_stored(v) for v in value]
    if isinstance(value, dict):
        return {k: _stored(v) for k, v in value.items()}
    return value


def reference_entries(ops) -> list[dict]:
    entries = []
    for op in ops:
        try:
            output = worker.call(cli, optimize, op)
        except Exception as exc:  # stored: a later fix counts as recovered
            entries.append({"error": type(exc).__name__})
            continue
        entries.append(_stored(checks.summarize(op, output)))
    return entries


def main(argv=None) -> int:
    names = (argv if argv is not None else sys.argv[1:]) or list(
        workloads.WORKLOADS)
    os.makedirs(checks.REFERENCE_DIR, exist_ok=True)
    for workload in names:
        for seed in checks.REFERENCE_SEEDS:
            ops = workloads.generate(workload, seed,
                                     checks.REFERENCE_OPS[workload])
            entries = reference_entries(ops)
            data = {"workload": workload, "seed": seed,
                    "fingerprint": workloads.fingerprint(ops),
                    "ops": entries}
            with open(checks.reference_path(workload, seed), "w") as handle:
                json.dump(data, handle, separators=(",", ":"))
                handle.write("\n")
            errors = sum(1 for e in entries if "error" in e)
            print(f"{workload} seed {seed}: {len(entries)} ops, "
                  f"{errors} raised", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
