"""Per-layer spans and counts, recorded from outside the program.

The tracer rebinds the names through which one layer calls the next (the
functions that ``cli``, ``optimize``, ``keyrate`` and ``purification``
imported) to timing wrappers, and wraps ``GaussianState.__post_init__``,
which every state construction runs.  Nothing under ``src/`` changes.

A span's self time is its duration minus the time covered by the spans it
caused.  Spans are aggregated per name as they close (call count, self
seconds, exceptions) instead of being kept one by one: a traced
individual-sweep pass opens about 80 000 state-construction spans.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict

from cvleak import cli, keyrate, optimize, purification
from cvleak.gaussian import GaussianState

# (owner, attribute, span name).  Several attributes may share a span name;
# their counts and self times add up.
SPANS = (
    (cli, "run_sweep", "cli.run_sweep"),
    (cli, "format_rows_csv", "cli.format_csv"),
    (cli, "key_rate", "keyrate.key_rate"),
    (optimize, "secure_distance", "optimize.secure_distance"),
    (optimize, "optimize_vm", "optimize.optimize_vm"),
    (optimize, "golden_section_max", "optimize.golden_section"),
    (optimize, "bisect_zero", "optimize.bisect"),
    (optimize, "key_rate", "keyrate.key_rate"),
    (keyrate, "holevo_bound", "keyrate.holevo"),
    (keyrate, "solve_bloch_messiah", "purification.solve"),
    (keyrate, "build_eb_multimode", "purification.eb_build"),
    (keyrate, "build_eb_premod", "purification.eb_build"),
    (purification, "least_squares", "purification.polish"),
    (keyrate, "build_pm_multimode", "scenarios.build"),
    (keyrate, "build_pm_premod", "scenarios.build"),
    (purification, "apply_noisy_channel", "scenarios.build"),
    (keyrate, "von_neumann_entropy", "gaussian.entropy"),
    (keyrate, "homodyne_condition", "gaussian.condition"),
    (keyrate, "joint_homodyne_condition", "gaussian.condition"),
    (keyrate, "joint_heterodyne_condition", "gaussian.condition"),
    (keyrate, "partial_trace", "gaussian.partial_trace"),
    (GaussianState, "__post_init__", "gaussian.state"),
)


class Tracer:
    """Installs the span wrappers and accumulates what they record."""

    def __init__(self):
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.errors: Counter = Counter()
        self.objective_evals = 0
        self.rate_inputs: set = set()
        self.rate_repeats = 0
        self._open: list[list[float]] = []
        self._saved: list = []

    def _span(self, name: str, fn):
        open_spans = self._open
        clock = time.perf_counter

        def traced(*args, **kwargs):
            child = [0.0]
            open_spans.append(child)
            start = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                self.errors[name] += 1
                raise
            finally:
                elapsed = clock() - start
                open_spans.pop()
                self.calls[name] += 1
                self.self_s[name] += elapsed - child[0]
                if open_spans:
                    open_spans[-1][0] += elapsed
        return traced

    def _note_rate(self, fn, from_optimizer: bool):
        def noted(scenario, channel, protocol):
            key = (scenario, channel, protocol)
            if key in self.rate_inputs:
                self.rate_repeats += 1
            else:
                self.rate_inputs.add(key)
            if from_optimizer:
                self.objective_evals += 1
            return fn(scenario, channel, protocol)
        return noted

    def install(self) -> None:
        for owner, attr, name in SPANS:
            original = owner.__dict__[attr]
            wrapped = self._span(name, original)
            if name == "keyrate.key_rate":
                wrapped = self._note_rate(wrapped, owner is optimize)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def layer_metrics(self, units: int) -> dict:
        """Per-layer metrics, counts and self seconds per unit of work."""
        per = 1.0 / max(units, 1)
        calls, self_s = self.calls, self.self_s
        rate_calls = calls["keyrate.key_rate"]
        optimize_self = sum(v for k, v in self_s.items()
                            if k.startswith("optimize."))
        out = {
            "purification.solve.calls": calls["purification.solve"] * per,
            "purification.solve.self_s": self_s["purification.solve"] * per,
            "purification.polish.calls": calls["purification.polish"] * per,
            "purification.polish.self_s":
                self_s["purification.polish"] * per,
            "purification.eb_build.calls":
                calls["purification.eb_build"] * per,
            "purification.eb_build.self_s":
                self_s["purification.eb_build"] * per,
            "keyrate.calls": rate_calls * per,
            "keyrate.self_s": self_s["keyrate.key_rate"] * per,
            "keyrate.holevo.calls": calls["keyrate.holevo"] * per,
            "keyrate.holevo.self_s": self_s["keyrate.holevo"] * per,
            "keyrate.repeat_frac": self.rate_repeats / max(rate_calls, 1),
            "scenarios.build.calls": calls["scenarios.build"] * per,
            "scenarios.build.self_s": self_s["scenarios.build"] * per,
            "optimize.objective_evals": self.objective_evals * per,
            "optimize.vm_searches": calls["optimize.optimize_vm"] * per,
            "optimize.self_s": optimize_self * per,
            "cli.run_sweep.self_s": self_s["cli.run_sweep"] * per,
            "cli.format_csv.self_s": self_s["cli.format_csv"] * per,
        }
        for part in ("state", "entropy", "condition", "partial_trace"):
            out[f"gaussian.{part}.calls"] = calls[f"gaussian.{part}"] * per
            out[f"gaussian.{part}.self_s"] = self_s[f"gaussian.{part}"] * per
        return out
