"""Outputs against the benchmark's committed references.

``perfbench/references`` holds the outputs of every workload for seeds
1-10, and the benchmark counts an output that leaves them (1e-6 bit on
rates, 0.02 km on distances) as incorrect.  These tests rerun a prefix of
each workload in-process through the benchmark's own entry point and
comparison, so that a change which moves outputs fails here first.  The
prefixes keep the run to a few seconds: all reference operations of the
sweeps, and the first operations of the secure-distance solves.
"""

import pytest

from cvleak import cli, optimize
from perfbench import checks, worker, workloads

CASES = ([("individual-sweep", seed, 128) for seed in range(1, 11)]
         + [("collective-sweep", seed, 192) for seed in range(1, 11)]
         + [("distance-solve", 1, 2)])


@pytest.mark.parametrize("workload, seed, n_ops", CASES)
def test_outputs_match_references(workload, seed, n_ops):
    reference = checks.load_reference(workload, seed)
    ops = workloads.generate(workload, seed, n_ops)
    for index, (op, entry) in enumerate(zip(ops, reference)):
        problem = checks.compare(op, worker.call(cli, optimize, op), entry)
        assert problem is None, f"op {index}: {problem}"
