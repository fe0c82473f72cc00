"""Self-validation suite: closed forms against numeric models.

Every check returns its worst residual together with the tolerance it must
meet, so the command-line report can print one line per check.  The suite
doubles as a regression harness: the checks pin the analytic limits, the
purification fidelity, and the structural invariants of the state algebra.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .gaussian import (
    GaussianState,
    apply_beamsplitter,
    apply_squeezer,
    attach_epr,
    attach_vacuum,
    homodyne_condition,
    partial_trace,
    symplectic_eigenvalues,
    von_neumann_entropy,
)
from .keyrate import (
    dr_shortdistance_rate,
    key_rate_collective,
    key_rate_individual,
    multimode_asymptotics,
    mutual_info_ab,
    premod_asymptotics,
    premod_perfect_channel_rates,
)
from .optimize import max_tolerable_k, optimize_squeezing
from .purification import (
    build_eb_multimode,
    build_eb_premod,
    solve_bloch_messiah,
)
from .scenarios import (
    ENV_MODE,
    ChannelModel,
    MultimodeLeakageScenario,
    PremodLeakageScenario,
    ProtocolChoice,
    build_pm_multimode,
    build_pm_premod,
)


@dataclass(frozen=True)
class CheckResult:
    name: str
    residual: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.residual <= self.tolerance


def _random_state(rng: np.random.Generator, n_modes: int) -> GaussianState:
    """Random valid state: vacua and EPR pairs mixed by random optics."""
    st = GaussianState.empty()
    i = 0
    while st.n_modes < n_modes:
        if st.n_modes + 2 <= n_modes and rng.random() < 0.7:
            st = attach_epr(st, f"m{i}", f"m{i + 1}",
                            1.0 + 3.0 * rng.random())
            i += 2
        else:
            st = attach_vacuum(st, f"m{i}")
            i += 1
    labels = list(st.mode_labels)
    for _ in range(4):
        a, b = rng.choice(len(labels), size=2, replace=False)
        st = apply_beamsplitter(st, labels[a], labels[b], rng.random())
        st = apply_squeezer(st, labels[int(rng.integers(len(labels)))],
                            rng.uniform(-0.8, 0.8))
    return st


def check_strong_modulation_rr() -> CheckResult:
    """Numeric individual RR rate at huge modulation vs its closed form."""
    worst = 0.0
    for v, eta, k in itertools.product(
            (0.2, 0.5, 0.8, 1.0), (0.1, 0.5, 0.9), (0.0, 0.5, 1.0, 2.0)):
        sc = MultimodeLeakageScenario(v_s=v, v_m=1e6, k=k,
                                      leakage_variances=(v,))
        rate = key_rate_individual(sc, ChannelModel(eta=eta), "RR").rate
        limit = multimode_asymptotics(v, eta, k)["rr_inf"]
        worst = max(worst, abs(rate - limit))
    return CheckResult("strong-modulation RR rate vs closed form",
                       worst, 1e-4)


def check_k_max_boundary() -> CheckResult:
    """Numeric zero crossing in k vs the closed-form tolerable ratio."""
    worst = 0.0
    proto = ProtocolChoice("RR", "individual", 1.0)
    for v, eta in ((0.3, 0.3), (0.5, 0.5), (0.7, 0.2)):
        sc = MultimodeLeakageScenario(v_s=v, v_m=1.0, k=0.0,
                                      leakage_variances=(v,))
        found = max_tolerable_k(sc, ChannelModel(eta=eta), proto,
                                strong_modulation=True).x
        want = multimode_asymptotics(v, eta, 0.0)["k_max"]
        worst = max(worst, abs(found - want))
    return CheckResult("tolerable leakage ratio vs closed form", worst, 1e-3)


def check_optimal_squeezing() -> CheckResult:
    """Numeric argmax over v of the strong-modulation rate vs closed form."""
    worst = 0.0
    proto = ProtocolChoice("RR", "individual", 1.0)
    for eta, k in ((0.4, 1.0), (0.7, 0.5), (0.2, 2.0)):
        sc = MultimodeLeakageScenario(v_s=0.5, v_m=1.0, k=k,
                                      leakage_variances=(0.5,))
        found = optimize_squeezing(sc, ChannelModel(eta=eta), proto,
                                   strong_modulation=True).x
        want = multimode_asymptotics(0.5, eta, k)["v_opt"]
        worst = max(worst, abs(found - want))
    return CheckResult("optimal squeezing vs closed form", worst, 1e-3)


def check_false_rate_gap() -> CheckResult:
    """Identity for the cost of neglecting the leakage mode."""
    worst = 0.0
    for v, eta, k in itertools.product((0.2, 0.6, 0.9), (0.2, 0.8),
                                       (0.3, 1.0, 2.5)):
        asy = multimode_asymptotics(v, eta, k)
        gap = asy["false_rr_inf"] - asy["rr_inf"]
        want = -0.5 * math.log2(
            (1.0 - eta) / (1.0 - eta + k * k * eta / (v * (k * k + 1.0))))
        worst = max(worst, abs(gap - want))
    return CheckResult("false-rate gap identity", worst, 1e-10)


def check_dr_security_break() -> CheckResult:
    """Perfect channel, equal modulation on the leakage: zero DR rate."""
    worst = abs(dr_shortdistance_rate(0.5, 1.0, 1.0, 7.0))
    sc = MultimodeLeakageScenario(v_s=0.5, v_m=7.0, k=1.0,
                                  leakage_variances=(0.5,))
    rep = key_rate_individual(sc, ChannelModel(eta=1.0), "DR")
    worst = max(worst, abs(rep.rate))
    return CheckResult("DR security break at eta = 1, k = 1", worst, 1e-9)


def check_coherent_robustness() -> CheckResult:
    """Coherent protocol on pure loss: positive RR rate for any leakage.

    Residual is the amount by which any tested point violates positivity,
    or exceeds a 10 percent relative deviation from the long-distance
    approximation eta / (ln 4 (1 + k^2)).
    """
    eta = 0.01
    worst = 0.0
    for k in (0.0, 1.0, 5.0, 20.0, 50.0):
        sc = MultimodeLeakageScenario(v_s=1.0, v_m=1e6, k=k,
                                      leakage_variances=(1.0,))
        rate = key_rate_individual(sc, ChannelModel(eta=eta), "RR").rate
        worst = max(worst, -rate)
        approx = eta / (math.log(4.0) * (1.0 + k * k))
        rel_err = abs(rate - approx) / approx
        worst = max(worst, rel_err - 0.10)
    return CheckResult("coherent-protocol leakage robustness",
                       max(worst, 0.0), 1e-12)


def check_premod_immunity() -> CheckResult:
    """Coherent protocol ignores the premodulation channel entirely."""
    worst = 0.0
    ch = ChannelModel(eta=0.4)
    proto = ProtocolChoice("RR", "collective", 0.97)
    base_ind = None
    base_col = None
    for eta_e in (0.3, 0.7, 1.0):
        sc = PremodLeakageScenario(v_s=1.0, v_m=5.0, eta_e=eta_e)
        r_ind = key_rate_individual(sc, ch, "RR").rate
        r_col = key_rate_collective(sc, ch, proto).rate
        if base_ind is None:
            base_ind, base_col = r_ind, r_col
        worst = max(worst, abs(r_ind - base_ind), abs(r_col - base_col))
    return CheckResult("coherent premodulation immunity", worst, 1e-10)


def check_premod_dr_perfect_channel() -> CheckResult:
    """Numeric premod DR rate at eta = 1 vs its closed form."""
    worst = 0.0
    for v_s, eta_e, v_m in ((0.3, 0.6, 4.0), (0.8, 0.2, 9.0)):
        sc = PremodLeakageScenario(v_s=v_s, v_m=v_m, eta_e=eta_e)
        rate = key_rate_individual(sc, ChannelModel(eta=1.0), "DR").rate
        want = premod_asymptotics(v_s, 1.0, eta_e, v_m)["dr_perfect_channel"]
        worst = max(worst, abs(rate - want))
    return CheckResult("premod DR perfect-channel closed form", worst, 1e-9)


def check_premod_rr_strong_modulation() -> CheckResult:
    """Numeric premod RR rate at huge modulation vs its closed form."""
    worst = 0.0
    for v_s, eta_e, eta in ((0.3, 0.6, 0.5), (0.7, 0.9, 0.2)):
        sc = PremodLeakageScenario(v_s=v_s, v_m=1e6, eta_e=eta_e)
        rate = key_rate_individual(sc, ChannelModel(eta=eta), "RR").rate
        want = premod_asymptotics(v_s, eta, eta_e, 1e6)["rr_strong_mod"]
        worst = max(worst, abs(rate - want))
    return CheckResult("premod RR strong-modulation closed form", worst, 1e-4)


def check_premod_correlation_advantage() -> CheckResult:
    """Exposed model pair reproduces the correlation-advantage formula."""
    worst = 0.0
    for v_s, eta_e, v_m in ((0.4, 0.6, 5.0), (0.2, 0.9, 1.5)):
        rate_corr, rate_noise = premod_perfect_channel_rates(v_s, v_m, eta_e)
        lit = 0.5 * math.log2(
            (1.0 + v_m + eta_e * (v_s - 1.0))
            / (v_m + v_s / (eta_e + v_s - eta_e * v_s)))
        worst = max(worst, abs((rate_noise - rate_corr) - lit))
    return CheckResult("premod correlation-advantage identity", worst, 1e-12)


def bloch_messiah_sample_grid():
    return [
        (0.0, 0.5, 4.0, 0.5), (0.5, 0.5, 4.0, 0.5), (1.0, 0.5, 4.0, 0.5),
        (1.5, 0.1, 17.0, 0.1), (0.7, 0.3, 50.0, 1.0), (2.0, 0.9, 0.4, 0.9),
        (1.0, 1.0, 5.0, 1.0), (0.3, 0.2, 2.0, 0.7),
    ]


def check_bloch_messiah_residuals() -> CheckResult:
    worst = 0.0
    for k, v_s, v_m, v_l in bloch_messiah_sample_grid():
        worst = max(worst, solve_bloch_messiah(k, v_s, v_m, v_l).residual)
    return CheckResult("purification solution residuals", worst, 1e-8)


def check_eb_pm_multimode() -> CheckResult:
    """EB and P&M descriptions agree on the (B, L, E) sector, pure loss."""
    worst = 0.0
    for k, v_s, v_m, v_l in bloch_messiah_sample_grid():
        for eta in (0.3, 0.8):
            ch = ChannelModel(eta=eta)
            sol = solve_bloch_messiah(k, v_s, v_m, v_l)
            model = build_eb_multimode(sol, v_s, v_m, k, ch)
            eb = partial_trace(model.state, ["B", "L", ENV_MODE])
            sc = MultimodeLeakageScenario(v_s=v_s, v_m=v_m, k=k,
                                          leakage_variances=(v_l,))
            pm = build_pm_multimode(sc, ch)
            worst = max(worst, float(np.max(np.abs(eb.cm - pm.cm))))
    return CheckResult("EB vs P&M moments (multimode)", worst, 1e-8)


def _premod_eb_moments(v_s, v_m, eta_e, eta, delta, nu):
    model = build_eb_premod(v_s, v_m, eta_e, ChannelModel(eta=eta),
                            t1=1.0 - delta, v_s0=nu)
    red = partial_trace(model.state, ["B", "ES", ENV_MODE])
    return red.cm


def check_eb_pm_premod() -> CheckResult:
    """Premod EB model converges to the P&M moments as t1 -> 1, v_s0 -> 0.

    The finite-offset model differs from the exact protocol at first order
    in (1 - t1) and v_s0; Richardson extrapolation (halving both) removes
    that order and must land on the P&M matrix.
    """
    worst = 0.0
    for v_s, v_m, eta_e, eta in ((0.5, 4.0, 0.7, 0.6), (0.2, 9.0, 0.4, 0.3)):
        delta, nu = 1e-6, 1e-6
        coarse = _premod_eb_moments(v_s, v_m, eta_e, eta, delta, nu)
        fine = _premod_eb_moments(v_s, v_m, eta_e, eta, delta / 2, nu / 2)
        extrapolated = 2.0 * fine - coarse
        sc = PremodLeakageScenario(v_s=v_s, v_m=v_m, eta_e=eta_e)
        pm = build_pm_premod(sc, ChannelModel(eta=eta))
        worst = max(worst, float(np.max(np.abs(extrapolated - pm.cm))))
    return CheckResult("EB vs P&M moments (premod, extrapolated)",
                       worst, 1e-8)


def check_rr_pm_vs_eb() -> CheckResult:
    """Collective RR chi_BE on the P&M state agrees with the EB model.

    Rates compute chi_BE on the prepare-and-measure state, which is the
    offset-free limit of the premodulation EB model; the agreement bounds
    the effect of the EB limit offsets on RR as well.
    """
    from .keyrate import build_purified_model, holevo_bound
    proto = ProtocolChoice("RR", "collective", 0.95)
    premod_ch = ChannelModel(eta=0.25, epsilon=0.02)
    multi_ch = ChannelModel(eta=0.45, epsilon=0.03)
    points = [(PremodLeakageScenario(v_s=v_s, v_m=v_m, eta_e=eta_e),
               premod_ch)
              for v_s, v_m, eta_e in ((0.5, 4.0, 0.6), (0.1, 7.0, 0.9))]
    points += [(MultimodeLeakageScenario(v_s=v_s, v_m=v_m, k=k,
                                         leakage_variances=(v_l,)), multi_ch)
               for k, v_s, v_m, v_l in ((0.7, 0.5, 4.0, 0.5),
                                        (1.3, 0.8, 9.0, 1.0))]
    worst = 0.0
    for sc, ch in points:
        chi = key_rate_collective(sc, ch, proto).eve_information
        eb = holevo_bound(build_purified_model(sc, ch), "RR")
        worst = max(worst, abs(chi - eb))
    return CheckResult("collective RR chi_BE: P&M state vs EB model",
                       worst, 1e-6)


def check_pre_channel_purity() -> CheckResult:
    """All purified models are globally pure before the channel.

    The premodulation model is checked at the moderate end of its limit
    window, where unit symplectic eigenvalues are still representable to
    1e-8; at the default offsets the EPR variance v_m / (1 - t1) makes
    floating point itself perturb purity at the eps V^2 level, so there the
    defect is only required to stay within that representation bound.
    """
    from .gaussian import physicality_tolerance
    worst = 0.0
    for k, v_s, v_m, v_l in bloch_messiah_sample_grid():
        sol = solve_bloch_messiah(k, v_s, v_m, v_l)
        model = build_eb_multimode(sol, v_s, v_m, k,
                                   ChannelModel(eta=0.5))
        worst = max(worst, model.purity_defect())
    model = build_eb_premod(0.5, 4.0, 0.7, ChannelModel(eta=0.5),
                            t1=1.0 - 1e-3, v_s0=1e-3)
    worst = max(worst, model.purity_defect())
    default = build_eb_premod(0.5, 4.0, 0.7, ChannelModel(eta=0.5))
    rep_bound = physicality_tolerance(default.pre_channel.cm)
    if default.purity_defect() > rep_bound:
        worst = max(worst, default.purity_defect())
    return CheckResult("pre-channel global purity", worst, 1e-8)


def check_holevo_duality() -> CheckResult:
    """Eavesdropper-side and trusted-side Holevo evaluations agree.

    Global purity makes S(E) equal to the trusted-mode entropy; comparing
    the two independent evaluations validates the purification and the
    entropy machinery at once.  Run at moderate matrix scales where both
    sides are numerically trustworthy.
    """
    from .keyrate import holevo_bound
    worst = 0.0
    ch = ChannelModel(eta=0.45, epsilon=0.03)
    for k, v_s, v_m, v_l in ((0.7, 0.5, 4.0, 0.5), (1.3, 0.8, 9.0, 1.0)):
        sol = solve_bloch_messiah(k, v_s, v_m, v_l)
        model = build_eb_multimode(sol, v_s, v_m, k, ch)
        for direction in ("RR", "DR"):
            worst = max(worst, abs(holevo_bound(model, direction, "eve")
                                   - holevo_bound(model, direction,
                                                  "trusted")))
    model = build_eb_premod(0.5, 4.0, 0.7, ch, t1=1.0 - 1e-3, v_s0=1e-3)
    for direction in ("RR", "DR"):
        worst = max(worst, abs(holevo_bound(model, direction, "eve")
                               - holevo_bound(model, direction, "trusted")))
    return CheckResult("Holevo duality (eavesdropper vs trusted side)",
                       worst, 1e-8)


def check_cross_purification_consistency() -> CheckResult:
    """Both purification schemes agree on the plain baseline protocol.

    A premodulation scenario with eta_e = 1 and a multimode scenario with
    k = 0 describe the same protocol through unrelated circuits; their
    collective rates must coincide up to the premodulation limit offsets.
    """
    from .keyrate import key_rate_collective
    worst = 0.0
    ch = ChannelModel(eta=0.4, epsilon=0.02)
    for direction in ("RR", "DR"):
        proto = ProtocolChoice(direction, "collective", 0.95)
        for v_s in (0.5, 1.0):
            pre = PremodLeakageScenario(v_s=v_s, v_m=4.0, eta_e=1.0)
            multi = MultimodeLeakageScenario(v_s=v_s, v_m=4.0, k=0.0,
                                             leakage_variances=(1.0,))
            worst = max(worst,
                        abs(key_rate_collective(pre, ch, proto).rate
                            - key_rate_collective(multi, ch, proto).rate))
    return CheckResult("cross-purification baseline consistency",
                       worst, 2e-4)


def check_symplectic_invariance(samples: int = 60) -> CheckResult:
    """Beam splitters and squeezers preserve the symplectic spectrum."""
    rng = np.random.default_rng(20240817)
    worst = 0.0
    for _ in range(samples):
        st = _random_state(rng, 3)
        before = symplectic_eigenvalues(st)
        labels = st.mode_labels
        st2 = apply_beamsplitter(st, labels[0], labels[2], rng.random())
        st2 = apply_squeezer(st2, labels[1], rng.uniform(-1.0, 1.0))
        after = symplectic_eigenvalues(st2)
        worst = max(worst, float(np.max(np.abs(before - after))))
    return CheckResult("symplectic invariance of passive/active optics",
                       worst, 1e-9)


def check_conditional_purity(samples: int = 40) -> CheckResult:
    """Homodyning one mode of a pure state leaves a pure remainder."""
    rng = np.random.default_rng(911)
    worst = 0.0
    for _ in range(samples):
        st = _random_state(rng, 4)
        cond = homodyne_condition(st, st.mode_labels[0], "x")
        nus = symplectic_eigenvalues(cond)
        worst = max(worst, float(np.max(np.abs(nus - 1.0))))
    return CheckResult("conditional purity after homodyne", worst, 1e-8)


def check_pure_entropy(samples: int = 40) -> CheckResult:
    rng = np.random.default_rng(77)
    worst = 0.0
    for _ in range(samples):
        st = _random_state(rng, 3)
        worst = max(worst, abs(von_neumann_entropy(st)))
    return CheckResult("zero entropy of pure constructions", worst, 1e-8)


def check_premod_iab_reduction() -> CheckResult:
    """Premod mutual information reduces to the plain form at eta_e = 1."""
    worst = 0.0
    for v_s, v_m, eta in ((0.5, 4.0, 0.3), (1.0, 2.0, 0.8)):
        pre = PremodLeakageScenario(v_s=v_s, v_m=v_m, eta_e=1.0)
        multi = MultimodeLeakageScenario(v_s=v_s, v_m=v_m, k=0.0,
                                         leakage_variances=(1.0,))
        ch = ChannelModel(eta=eta)
        worst = max(worst, abs(mutual_info_ab(pre, ch)
                               - mutual_info_ab(multi, ch)))
    return CheckResult("premod mutual information reduction", worst, 1e-12)


ALL_CHECKS = (
    check_strong_modulation_rr,
    check_k_max_boundary,
    check_optimal_squeezing,
    check_false_rate_gap,
    check_dr_security_break,
    check_coherent_robustness,
    check_premod_immunity,
    check_premod_dr_perfect_channel,
    check_premod_rr_strong_modulation,
    check_premod_correlation_advantage,
    check_bloch_messiah_residuals,
    check_eb_pm_multimode,
    check_eb_pm_premod,
    check_rr_pm_vs_eb,
    check_pre_channel_purity,
    check_holevo_duality,
    check_cross_purification_consistency,
    check_symplectic_invariance,
    check_conditional_purity,
    check_pure_entropy,
    check_premod_iab_reduction,
)


def run_all_checks() -> list[CheckResult]:
    return [check() for check in ALL_CHECKS]


def reference_snapshot_state() -> GaussianState:
    """Fixed reference matrix used for golden-file comparisons."""
    sc = MultimodeLeakageScenario(v_s=0.5, v_m=4.0, k=0.7,
                                  leakage_variances=(0.5,))
    return build_pm_multimode(sc, ChannelModel(eta=0.6))
