"""Seeded workload generators for the cvleak benchmark.

A workload is an endless, ordered stream of operations built only from
``--seed``.  Each operation is one call into the highest public entry
point a user makes:

* ``sweep``: ``cvleak.cli.run_sweep`` (workers=1) followed by
  ``cvleak.cli.format_rows_csv``; its units are the sweep rows;
* ``solve``: ``cvleak.optimize.secure_distance`` with the modulation
  variance optimized at every bisection probe; its unit is the solve.

Operations come in blocks.  Every block holds one operation per slot of
the workload, and a slot fixes the scenario type, reconciliation
direction, sweep axis and scale.  The continuous parameters of a slot are
Latin-hypercube draws over groups of ``GROUP`` blocks: within a group each
parameter takes one value from each of ``GROUP`` equal strata of its range.
The expensive corners (strong modulation, strong squeezing) therefore make
up the same share of every run whatever the seed, which keeps the
per-seed spread of the timings small, while every operation of a run is a
distinct input, so a cache in the program cannot reuse results from an
earlier operation of the same run.
"""

from __future__ import annotations

import hashlib
import itertools
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from cvleak.cli import SweepSpec
from cvleak.scenarios import (
    ChannelModel,
    MultimodeLeakageScenario,
    PremodLeakageScenario,
    ProtocolChoice,
)

GROUP = 8

COLLECTIVE_RR = ProtocolChoice("RR", "collective", 0.95)
COLLECTIVE_DR = ProtocolChoice("DR", "collective", 0.95)
INDIVIDUAL_RR = ProtocolChoice("RR", "individual", 1.0)
INDIVIDUAL_DR = ProtocolChoice("DR", "individual", 1.0)


@dataclass(frozen=True)
class Op:
    """One call into the program: a sweep or a secure-distance solve."""

    kind: str
    scenario: object
    channel: ChannelModel
    protocol: ProtocolChoice
    spec: SweepSpec | None = None

    @property
    def units(self) -> int:
        return self.spec.steps if self.kind == "sweep" else 1

    def describe(self) -> str:
        return repr((self.kind, self.scenario, self.channel, self.protocol,
                     self.spec))


def _lin(u: float, lo: float, hi: float) -> float:
    return lo + (hi - lo) * u


def _log(u: float, lo: float, hi: float) -> float:
    return float(lo * (hi / lo) ** u)


def _multimode(draw, v_s_range=(1e-3, 1.0), v_m_range=(1.0, 30.0),
               k_range=(0.0, 4.0), n_modes=1) -> MultimodeLeakageScenario:
    v_s = _log(draw("v_s"), *v_s_range)
    return MultimodeLeakageScenario(
        v_s=v_s, v_m=_log(draw("v_m"), *v_m_range),
        k=_lin(draw("k"), *k_range), leakage_variances=(v_s,) * n_modes)


def _premod(draw, v_s_range=(1e-3, 1.0), v_m_range=(1.0, 30.0),
            eta_e_range=(0.3, 1.0)) -> PremodLeakageScenario:
    return PremodLeakageScenario(
        v_s=_log(draw("v_s"), *v_s_range),
        v_m=_log(draw("v_m"), *v_m_range),
        eta_e=_lin(draw("eta_e"), *eta_e_range))


def _channel(draw, eta_range=(0.2, 0.9), eps_range=None) -> ChannelModel:
    eps = 0.0 if eps_range is None else _lin(draw("eps"), *eps_range)
    return ChannelModel(eta=_lin(draw("eta"), *eta_range), epsilon=eps)


def _spec(axis, start, stop, steps, scale="linear") -> SweepSpec:
    return SweepSpec(axis=axis, start=start, stop=stop, steps=steps,
                     scale=scale)


# --- collective-sweep -------------------------------------------------------
# Collective attacks, epsilon > 0, beta = 0.95.  Purification, Holevo
# entropies and the EB model dominate; the v_m slot reaches the
# eight-seed multistart regime (v_m >= 1e4), the small-v_s slots the
# least-squares polish.  Base v_m stays at or below 30, where the analytic
# branch almost always holds, so that the expensive regimes come from the
# axes and their share is fixed by the slots.  The operations of a run
# must not fail, so the domain leaves out where the program fails today
# (the traced run probes these corners, see worker.CENSUS):
# * multimode v_s < 1e-2: SolverError at about one point in a thousand;
# * multimode k >= 3 with v_m near 1e5: SolverError;
# * multimode k < 0.02 with v_s < 0.03 and v_m >= 2e4: SolverError (the
#   residual ends at 1.4e-8 to 5.5e-8, over the 1e-8 target);
# * premod v_m >= 1e5: the EB limit offset leaves its window;
# * premod DR with v_s < 0.1: PhysicalityError in the Holevo bound.
# Strong squeezing down to v_s = 1e-3 comes from the premod RR slots.
EPS_COLLECTIVE = (0.005, 0.05)
SWEEP_STEPS_COLLECTIVE = 6


def _coll_mm_k(draw):
    return Op("sweep", _multimode(draw, (1e-2, 1.0), k_range=(0.0, 0.0)),
              _channel(draw, eps_range=EPS_COLLECTIVE), COLLECTIVE_RR,
              _spec("k", 0.0, _lin(draw("stop"), 3.0, 4.0),
                    SWEEP_STEPS_COLLECTIVE))


def _coll_mm_vs(draw):
    return Op("sweep", _multimode(draw, (1e-2, 1.0), k_range=(0.0, 2.0)),
              _channel(draw, (0.6, 1.0), EPS_COLLECTIVE), COLLECTIVE_DR,
              _spec("v_s", 1.0, _log(draw("stop"), 1e-2, 2e-2),
                    SWEEP_STEPS_COLLECTIVE, "log"))


# Three points, so that only the last one, at v_m >= 3e4, reaches the
# multistart regime: with six, the fifth point (4e3 to 1e4) reached it for
# some draws of k and v_s and not for others, and the tail of a run
# depended on how many of its v_m sweeps had one costly point or two.
def _coll_mm_vm(draw):
    return Op("sweep", _multimode(draw, (1e-2, 1.0), k_range=(0.1, 2.5)),
              _channel(draw, eps_range=EPS_COLLECTIVE), COLLECTIVE_RR,
              _spec("v_m", _log(draw("start"), 1.0, 3.0),
                    _log(draw("stop"), 3e4, 1e5), 3, "log"))


def _coll_mm_eta(draw):
    return Op("sweep", _multimode(draw, (1e-2, 1.0)),
              _channel(draw, eps_range=EPS_COLLECTIVE), COLLECTIVE_RR,
              _spec("eta", _lin(draw("start"), 0.1, 0.3),
                    _lin(draw("stop"), 0.8, 1.0), SWEEP_STEPS_COLLECTIVE))


def _coll_mm_distance(draw):
    return Op("sweep", _multimode(draw, (1e-2, 1.0), k_range=(0.0, 2.0)),
              _channel(draw, eps_range=EPS_COLLECTIVE), COLLECTIVE_RR,
              _spec("distance_km", 0.0, _lin(draw("stop"), 20.0, 60.0),
                    SWEEP_STEPS_COLLECTIVE))


def _coll_premod_eta_e(draw):
    return Op("sweep", _premod(draw),
              _channel(draw, eps_range=EPS_COLLECTIVE), COLLECTIVE_RR,
              _spec("eta_e", _lin(draw("start"), 0.3, 0.5), 1.0,
                    SWEEP_STEPS_COLLECTIVE))


def _coll_premod_vm(draw):
    return Op("sweep", _premod(draw, (0.1, 1.0), eta_e_range=(0.5, 1.0)),
              _channel(draw, (0.6, 1.0), EPS_COLLECTIVE), COLLECTIVE_DR,
              _spec("v_m", 1.0, _log(draw("stop"), 1e3, 1e4),
                    SWEEP_STEPS_COLLECTIVE, "log"))


def _coll_premod_vs(draw):
    return Op("sweep", _premod(draw),
              _channel(draw, eps_range=EPS_COLLECTIVE), COLLECTIVE_RR,
              _spec("v_s", 1.0, _log(draw("stop"), 1e-3, 3e-3),
                    SWEEP_STEPS_COLLECTIVE, "log"))


# --- individual-sweep -------------------------------------------------------
# Individual attacks on the pure-loss channel with beta = 1: prepare-and-
# measure builders and conditional variances only, never purification.
# v_m reaches 1e6, the strong-modulation track of acceptance criterion 1.
SWEEP_STEPS_INDIVIDUAL = 8


def _ind_mm_vm(draw):
    return Op("sweep", _multimode(draw), _channel(draw), INDIVIDUAL_RR,
              _spec("v_m", 1.0, _log(draw("stop"), 1e5, 1e6),
                    SWEEP_STEPS_INDIVIDUAL, "log"))


def _ind_mm_k(draw):
    return Op("sweep", _multimode(draw, v_m_range=(1.0, 1e6), n_modes=3),
              _channel(draw, (0.6, 1.0)), INDIVIDUAL_DR,
              _spec("k", 0.0, _lin(draw("stop"), 2.0, 4.0),
                    SWEEP_STEPS_INDIVIDUAL))


def _ind_mm_vs(draw):
    return Op("sweep", _multimode(draw, v_m_range=(1.0, 1e6)),
              _channel(draw), INDIVIDUAL_RR,
              _spec("v_s", 1.0, _log(draw("stop"), 1e-3, 1e-2),
                    SWEEP_STEPS_INDIVIDUAL, "log"))


def _ind_mm_eta(draw):
    return Op("sweep", _multimode(draw, v_m_range=(1.0, 1e6)),
              _channel(draw), INDIVIDUAL_RR,
              _spec("eta", _lin(draw("start"), 0.05, 0.2),
                    _lin(draw("stop"), 0.8, 1.0), SWEEP_STEPS_INDIVIDUAL))


def _ind_premod_eta_e(draw):
    return Op("sweep", _premod(draw, v_m_range=(1.0, 1e6)), _channel(draw),
              INDIVIDUAL_RR,
              _spec("eta_e", _lin(draw("start"), 0.2, 0.5), 1.0,
                    SWEEP_STEPS_INDIVIDUAL))


def _ind_premod_vm(draw):
    return Op("sweep", _premod(draw), _channel(draw, (0.6, 1.0)),
              INDIVIDUAL_DR,
              _spec("v_m", 1.0, _log(draw("stop"), 1e5, 1e6),
                    SWEEP_STEPS_INDIVIDUAL, "log"))


def _ind_premod_distance(draw):
    return Op("sweep", _premod(draw, v_m_range=(1.0, 1e6)), _channel(draw),
              INDIVIDUAL_RR,
              _spec("distance_km", 0.0, _lin(draw("stop"), 50.0, 200.0),
                    SWEEP_STEPS_INDIVIDUAL))


def _ind_mm_distance(draw):
    return Op("sweep", _multimode(draw, v_m_range=(1.0, 1e6)),
              _channel(draw), INDIVIDUAL_RR,
              _spec("distance_km", 0.0, _lin(draw("stop"), 50.0, 200.0),
                    SWEEP_STEPS_INDIVIDUAL))


# --- distance-solve ---------------------------------------------------------
# One secure_distance call per operation, collective attacks with
# beta = 0.95 so that the golden-section search over v_m in [1e-3, 1e3]
# has an interior optimum at every bisection probe.  The template's v_m
# is a placeholder: the solve optimizes it.  Multimode squeezing stops at
# v_s = 0.05: below it the probes near v_m = 1e3 fall into the polish and
# multistart regimes and one solve takes minutes instead of about 0.5 s.
# For the same reason k starts at 0.05: at k = 2e-4 the probes near
# v_m = 300 take the polish path and one solve took 15 s.  Premod DR keeps
# v_s >= 0.1 for the reason given for collective-sweep.
EPS_DISTANCE = (0.005, 0.03)


def _solve(scenario, draw, protocol=COLLECTIVE_RR) -> Op:
    channel = ChannelModel(eta=1.0, epsilon=_lin(draw("eps"), *EPS_DISTANCE))
    return Op("solve", scenario, channel, protocol)


def _dist_mm_coherent(draw):
    return _solve(_multimode(draw, (0.3, 1.0), (1.0, 1.0), (0.05, 1.5)),
                  draw)


def _dist_mm_squeezed(draw):
    return _solve(_multimode(draw, (0.05, 0.3), (1.0, 1.0), (0.05, 1.0)),
                  draw)


def _dist_premod(draw):
    return _solve(_premod(draw, v_m_range=(1.0, 1.0), eta_e_range=(0.5, 1.0)),
                  draw)


def _dist_premod_dr(draw):
    return _solve(_premod(draw, (0.1, 1.0), (1.0, 1.0), (0.5, 1.0)),
                  draw, COLLECTIVE_DR)


# Percentile reported as call_tail_ms.  Fixed per workload, so that a
# faster program, which makes more calls, is compared at the same
# percentile.  Each leaves at least ten calls beyond it in a 25-second run
# at today's speed; a run that leaves fewer says so.
# * collective-sweep, p94: 170 to 300 sweeps; the one in eight that
#   reaches the multistart regime holds the top 12.5 %, and p94 is near
#   the middle of those;
# * individual-sweep, p95: 7000 to 18000 sweeps; above p95 the value is
#   set by the machine's speed changes inside a probe interval, not by the
#   inputs (five 12-second runs: spread 0.07 at p95, 0.15 at p99);
# * distance-solve, p55: 20 to 40 solves; from 23 solves on, p55 leaves
#   ten beyond it.  Only runs in the machine's slowest phases make fewer.
TAIL_PERCENTILE = {
    "collective-sweep": 94,
    "individual-sweep": 95,
    "distance-solve": 55,
}

WORKLOADS = {
    "collective-sweep": (_coll_mm_k, _coll_mm_vs, _coll_mm_vm, _coll_mm_eta,
                         _coll_mm_distance, _coll_premod_eta_e,
                         _coll_premod_vm, _coll_premod_vs),
    "individual-sweep": (_ind_mm_vm, _ind_mm_k, _ind_mm_vs, _ind_mm_eta,
                         _ind_premod_eta_e, _ind_premod_vm,
                         _ind_premod_distance, _ind_mm_distance),
    "distance-solve": (_dist_mm_coherent, _dist_mm_squeezed, _dist_premod,
                       _dist_premod_dr),
}


class _GroupDraws:
    """Latin-hypercube uniforms for one group of blocks.

    Each (slot, parameter) key gets a permutation of the GROUP strata plus
    a uniform jitter inside each stratum, created on first use so that the
    order of draws depends only on the slot definitions.
    """

    def __init__(self, rng: np.random.Generator):
        self._rng = rng
        self._series: dict = {}

    def uniform(self, key, block: int) -> float:
        if key not in self._series:
            self._series[key] = ((self._rng.permutation(GROUP)
                                  + self._rng.random(GROUP)) / GROUP)
        return float(self._series[key][block])


def stream(workload: str, seed: int) -> Iterator[Op]:
    """The workload's endless operation stream for ``seed``."""
    slots = WORKLOADS[workload]
    rng = np.random.default_rng(
        [seed, int.from_bytes(workload.encode(), "little") % 2**32])
    while True:
        group = _GroupDraws(rng)
        for block in range(GROUP):
            for index, slot in enumerate(slots):
                yield slot(lambda name, i=index, b=block:
                           group.uniform((i, name), b))


def generate(workload: str, seed: int, n_ops: int) -> list[Op]:
    """First ``n_ops`` operations of the workload's stream for ``seed``."""
    return list(itertools.islice(stream(workload, seed), n_ops))


def group_size(workload: str) -> int:
    """Operations per group: the inputs built before the first call."""
    return GROUP * len(WORKLOADS[workload])


def fingerprint(ops: list[Op]) -> str:
    """Digest of the operations' inputs, stored beside reference values."""
    digest = hashlib.sha256()
    for op in ops:
        digest.update(op.describe().encode())
    return digest.hexdigest()
