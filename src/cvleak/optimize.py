"""Parameter optimization and security-boundary root finding.

Golden-section search for the unimodal one-dimensional maximizations
(modulation variance, signal squeezing with nested modulation) and a
doubling bracket followed by bisection for zero crossings (secure distance,
maximal tolerable leakage ratio).  Every probed value enters the scenario
and channel through :func:`~cvleak.scenarios.with_parameter`.  Brackets and
tolerances are the module constants below.  All searches are deterministic
for identical inputs.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

from .keyrate import key_rate, key_rate_individual
from .scenarios import (
    ATTACK_INDIVIDUAL,
    ChannelModel,
    MultimodeLeakageScenario,
    ProtocolChoice,
    ScenarioError,
    with_parameter,
)

VM_BRACKET = (1e-3, 1e3)
VM_TOL = 1e-4
VS_MIN = 1e-3
VS_TOL = 1e-4
DISTANCE_TOL_KM = 0.01
DISTANCE_CAP_KM = 500.0
K_CAP = 100.0
K_TOL = 1e-4
STRONG_MODULATION_VM = 1e6

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class OptimizationResult:
    """Outcome of a one-dimensional search.

    x is the argmax (or root), value the objective there.  converged means
    the bracket was narrowed below tolerance; for root searches it also
    requires a bracketing sign change, so an unbounded boundary (for
    example a rate that stays positive to the probe cap) is reported with
    converged False and x at the cap or infinity.
    """

    x: float
    value: float
    iterations: int
    bracket: tuple[float, float]
    converged: bool


def golden_section_max(f, lo: float, hi: float,
                       tol: float) -> OptimizationResult:
    """Golden-section maximization on [lo, hi] to absolute tolerance tol.

    Assumes a unimodal objective; a monotone objective converges to the
    corresponding bracket edge.
    """
    if not hi > lo:
        raise ValueError("empty bracket")
    a, b = lo, hi
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    iterations = 0
    while b - a > tol:
        iterations += 1
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = f(d)
    x = 0.5 * (a + b)
    return OptimizationResult(x=x, value=f(x), iterations=iterations,
                              bracket=(lo, hi), converged=True)


def bisect_zero(f, lo: float, hi: float, tol: float,
                f_lo: float | None = None,
                f_hi: float | None = None) -> OptimizationResult:
    """Bisection root of f on [lo, hi]; requires f(lo) > 0 > f(hi)."""
    f_lo = f(lo) if f_lo is None else f_lo
    f_hi = f(hi) if f_hi is None else f_hi
    if f_lo <= 0.0 or f_hi >= 0.0:
        raise ValueError(
            f"bisection bracket does not straddle zero: "
            f"f({lo}) = {f_lo}, f({hi}) = {f_hi}")
    iterations = 0
    a, b = lo, hi
    while b - a > tol:
        iterations += 1
        mid = 0.5 * (a + b)
        if f(mid) > 0.0:
            a = mid
        else:
            b = mid
    x = 0.5 * (a + b)
    return OptimizationResult(x=x, value=f(x), iterations=iterations,
                              bracket=(lo, hi), converged=True)


def optimize_vm(scenario, channel: ChannelModel, protocol: ProtocolChoice,
                bracket: tuple[float, float] = VM_BRACKET
                ) -> OptimizationResult:
    """Maximize the key rate over the modulation variance.

    Golden-section search on ``bracket`` to VM_TOL.  With perfect
    post-processing the collective rate grows monotonically in v_m and the
    search lands at the upper bracket edge; any beta < 1 produces an
    interior optimum.  An everywhere-negative objective still converges and
    reports the (negative) best value.
    """
    def objective(v_m):
        sc, ch = with_parameter(scenario, channel, "v_m", v_m)
        return key_rate(sc, ch, protocol).rate

    return golden_section_max(objective, bracket[0], bracket[1], VM_TOL)


def optimize_squeezing(scenario, channel: ChannelModel,
                       protocol: ProtocolChoice,
                       strong_modulation: bool = False) -> OptimizationResult:
    """Maximize the key rate over signal squeezing v_s in [VS_MIN, 1].

    Golden-section search to VS_TOL.  The inner modulation variance is
    re-optimized at every candidate v_s (joint optimization), except on the
    strong-modulation track where the individual reverse-reconciliation
    rate is evaluated at a fixed huge modulation instead; on a purely lossy
    channel that track peaks at v = sqrt(k^2 / (1 + k^2)).

    Leakage variances that all equal the template's v_s follow every
    candidate (see :func:`~cvleak.scenarios.with_parameter`), matching a
    source that radiates identical states in every mode.
    """
    def objective(v_s):
        sc, ch = with_parameter(scenario, channel, "v_s", v_s)
        if strong_modulation:
            sc, ch = with_parameter(sc, ch, "v_m", STRONG_MODULATION_VM)
            return key_rate_individual(sc, ch, protocol.direction).rate
        return optimize_vm(sc, ch, protocol).value

    return golden_section_max(objective, VS_MIN, 1.0, VS_TOL)


def _expand_and_bisect(f, f_zero: float, first: float, cap: float,
                       tol: float) -> OptimizationResult:
    """Zero crossing of f in (0, cap], given f(0) = f_zero > 0.

    Doubles the probe from first (clipped to cap) until f is no longer
    positive, then bisects the last bracket to tol, reusing the values
    already known at both of its ends.  If f is still positive at cap the
    result is unconverged, with x at the last probe.
    """
    lo, f_lo, hi = 0.0, f_zero, first
    f_hi = f(hi)
    iterations = 0
    while f_hi > 0.0 and hi < cap:
        lo, f_lo, hi = hi, f_hi, min(2.0 * hi, cap)
        f_hi = f(hi)
        iterations += 1
    if f_hi > 0.0:
        return OptimizationResult(x=hi, value=f_hi, iterations=iterations,
                                  bracket=(lo, hi), converged=False)
    result = bisect_zero(f, lo, hi, tol, f_lo=f_lo, f_hi=f_hi)
    return dataclasses.replace(result, iterations=result.iterations
                               + iterations)


def secure_distance(scenario, protocol: ProtocolChoice,
                    channel_template: ChannelModel,
                    optimize_v_s: bool = False,
                    d_max: float = DISTANCE_CAP_KM) -> OptimizationResult:
    """Longest fiber length with a positive (optimized) key rate.

    At every probed distance the modulation variance is optimized (and the
    squeezing too, with optimize_v_s).  The channel transmittance follows
    from the template's attenuation; its excess noise is held fixed.  The
    distance is bracketed by doubling from 2 km and bisected to
    DISTANCE_TOL_KM.  Returns 0 km when the protocol is already insecure at
    contact, and the probe cap with converged False when the rate is still
    positive at d_max (the true distance is then only lower bounded).
    """
    def rate_at(d_km):
        sc, ch = with_parameter(scenario, channel_template, "distance_km",
                                d_km)
        if optimize_v_s:
            return optimize_squeezing(sc, ch, protocol).value
        return optimize_vm(sc, ch, protocol).value

    r0 = rate_at(0.0)
    if r0 <= 0.0:
        return OptimizationResult(x=0.0, value=r0, iterations=0,
                                  bracket=(0.0, 0.0), converged=True)
    return _expand_and_bisect(rate_at, r0, 2.0, d_max, DISTANCE_TOL_KM)


def max_tolerable_k(scenario, channel: ChannelModel,
                    protocol: ProtocolChoice,
                    strong_modulation: bool = False) -> OptimizationResult:
    """Zero crossing of the key rate in the leakage ratio k.

    Collective rates are evaluated with the modulation variance optimized,
    individual rates at the scenario's v_m, and the strong-modulation track
    at a fixed huge v_m.  The ratio is bracketed by doubling from 0.5 up to
    K_CAP and bisected to K_TOL.  Requires a positive rate at k = 0.  On
    the strong-modulation pure-loss track the crossing matches the closed
    form sqrt(v (eta - 2 + v - eta v) / ((eta - 1)(v - 1)^2)).  When the
    rate stays positive all the way to K_CAP the leakage tolerance is
    effectively unbounded, reported as x = inf with converged False.
    """
    if not isinstance(scenario, MultimodeLeakageScenario):
        raise ScenarioError("leakage-ratio search needs a multimode "
                            "scenario")

    def rate_at(k):
        sc, ch = with_parameter(scenario, channel, "k", k)
        if strong_modulation:
            sc, ch = with_parameter(sc, ch, "v_m", STRONG_MODULATION_VM)
            return key_rate_individual(sc, ch, protocol.direction).rate
        if protocol.attack != ATTACK_INDIVIDUAL:
            return optimize_vm(sc, ch, protocol).value
        return key_rate(sc, ch, protocol).rate

    r0 = rate_at(0.0)
    if r0 <= 0.0:
        raise ScenarioError(
            f"rate at k = 0 is {r0}; no positive region to bound")
    result = _expand_and_bisect(rate_at, r0, 0.5, K_CAP, K_TOL)
    if not result.converged:
        return dataclasses.replace(result, x=math.inf)
    return result
