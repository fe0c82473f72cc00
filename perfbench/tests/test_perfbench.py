"""Tests of the benchmark itself.

    PYTHONPATH=src:. python -m pytest perfbench/tests -q
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

import cvleak.cli
import cvleak.keyrate
from cvleak.purification import SolverError

from perfbench import checks, worker, workloads


# A seed without references, other than the held-out one.
UNREFERENCED_SEED = 12


def _ops(workload, seed):
    """Two groups: every slot in every stratum, twice."""
    return workloads.generate(workload, seed,
                              2 * workloads.group_size(workload))


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_streams_repeat_for_a_seed_and_differ_across_seeds(workload):
    first = [op.describe() for op in _ops(workload, 1)]
    again = [op.describe() for op in _ops(workload, 1)]
    other = [op.describe() for op in _ops(workload, 2)]
    assert first == again
    assert all(a != b for a, b in zip(first, other))


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_every_input_passes_the_constructors(workload):
    for seed in (1, UNREFERENCED_SEED):
        for op in _ops(workload, seed):
            if op.kind == "solve":
                continue
            # replace() reruns the scenario and channel validation.
            for value in op.spec.grid():
                checks.row_inputs(op, float(value))


def _individual_sweep():
    op = workloads.generate("individual-sweep", 1, 1)[0]
    rows = cvleak.cli.run_sweep(op.scenario, op.channel, op.protocol,
                                op.spec)
    return op, (rows, cvleak.cli.format_rows_csv(rows))


def test_checker_flags_a_perturbed_rate():
    op, output = _individual_sweep()
    entry = checks.summarize(op, output)
    assert checks.compare(op, output, entry) is None
    assert checks.sweep_invariants(op, output) is None

    rows, text = output
    bad_rows = [dict(row) for row in rows]
    bad_rows[3]["rate"] += 1e-5
    bad = (bad_rows, text)
    assert "rate" in checks.compare(op, bad, entry)
    assert "beta*i_ab - chi" in checks.sweep_invariants(op, bad)

    tally = checks.Tally()
    tally.add(0, op, bad, None, entry)
    tally.add(1, op, output, None, entry)
    assert tally.failed == op.units
    assert tally.attempted == 2 * op.units
    assert not tally.correct


def test_raised_solver_error_counts_every_row_as_failed(monkeypatch, capsys):
    def unsolvable(*args, **kwargs):
        raise SolverError("forced failure", 1.0)

    monkeypatch.setattr(cvleak.keyrate, "solve_bloch_messiah", unsolvable)
    worker.main(["--role", "pass", "--workload", "collective-sweep",
                 "--seed", str(UNREFERENCED_SEED), "--ops", "2"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    ops = workloads.generate("collective-sweep", UNREFERENCED_SEED, 2)
    units = sum(op.units for op in ops)
    assert result["checks"]["raised_ops"] == 2
    assert result["checks"]["attempted"] == units
    assert result["checks"]["failed"] == units
    assert not result["correct"]


def test_call_times_scale_by_the_probes_around_them():
    probes = [2e-3, 2e-3, 1e-3]
    scaled = worker.scale([1.0, 3.0], [0, 1], probes, 1e-3)
    assert scaled == pytest.approx([0.5, 2.0])


def test_measure_reports_scaled_and_wall_times(capsys):
    worker.main(["--role", "measure", "--workload", "individual-sweep",
                 "--seed", str(UNREFERENCED_SEED), "--seconds", "0.3"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] and result["calls"] > 0
    assert result["probes"] >= 2
    assert result["ops_per_s"] > 0 and result["wall"]["ops_per_s"] > 0
    assert result["beyond_tail"] >= 0


def test_expected_error_is_not_wrong_and_recovery_is_not_failed():
    op, output = _individual_sweep()
    tally = checks.Tally()
    tally.add(0, op, None, SolverError("again", 1.0), {"error": "SolverError"})
    tally.add(1, op, output, None, {"error": "SolverError"})
    assert tally.correct
    assert tally.failed == op.units
    assert tally.recovered == 1


def test_run_exits_nonzero_without_the_program(tmp_path):
    here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    shutil.copytree(here, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "distance-solve",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
