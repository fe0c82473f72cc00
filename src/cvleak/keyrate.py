"""Key rates: mutual informations, Holevo bounds, and closed-form limits.

Individual attacks are evaluated in the prepare-and-measure picture with
conditional variances (the eavesdropper homodynes her modes in the key
quadrature); collective attacks use the purified entanglement-based models
and Holevo bounds on the eavesdropper's reduced states.  The
strong-modulation, short-distance and premodulation closed forms are
provided both for direct use and as independent cross-checks of the
numeric machinery.

Lower bound on the secret key rate per channel use, in bits:

    individual:  R = I_AB - I_E        (I_E = I_BE for RR, I_AE for DR)
    collective:  R = beta I_AB - chi   (chi = chi_BE for RR, chi_AE for DR)

Negative rates are reported as computed; rendering them as "insecure" is
left to callers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .gaussian import (
    GaussianState,
    PhysicalityError,
    homodyne_condition,
    joint_heterodyne_condition,
    joint_homodyne_condition,
    partial_trace,
    physicality_tolerance,
    von_neumann_entropy,
)
from .purification import (
    PURITY_TOL,
    PurifiedModel,
    build_eb_multimode,
    build_eb_premod,
    solve_bloch_messiah,
)
from .scenarios import (
    ATTACK_COLLECTIVE,
    ATTACK_INDIVIDUAL,
    DIRECTION_DR,
    DIRECTION_RR,
    ChannelModel,
    MultimodeLeakageScenario,
    PremodLeakageScenario,
    ProtocolChoice,
    ScenarioError,
    build_pm_multimode,
    build_pm_premod,
    channel_output_variance,
    effective_leakage,
)


@dataclass(frozen=True)
class KeyRateReport:
    """Key-rate result with its ingredients.

    eve_information is the eavesdropper's mutual information for individual
    attacks and the Holevo bound for collective ones; rate equals
    i_ab - eve_information or beta * i_ab - eve_information accordingly.
    conditional_variances collects the named intermediates that produced
    the result.
    """

    i_ab: float
    eve_information: float
    rate: float
    direction: str
    attack: str
    beta: float = 1.0
    conditional_variances: dict = field(default_factory=dict)

    @property
    def secure(self) -> bool:
        return self.rate > 0.0

    def to_record(self) -> dict:
        rec = {
            "rate": self.rate,
            "i_ab": self.i_ab,
            "chi": self.eve_information,
            "direction": self.direction,
            "attack": self.attack,
            "beta": self.beta,
            "secure": self.secure,
        }
        rec.update(self.conditional_variances)
        return rec


def _log2_ratio(num: float, den: float) -> float:
    if num <= 0.0 or den <= 0.0:
        raise PhysicalityError(
            f"conditional variance ratio {num}/{den} is not positive")
    return 0.5 * math.log2(num / den)


def _premod_input_variances(scenario: PremodLeakageScenario):
    """Signal variance entering the channel, with and without the data."""
    u_x = (scenario.eta_e * (scenario.v_s - 1.0)
           + (1.0 - scenario.eta_e) * (scenario.v_es - 1.0))
    return u_x + 1.0 + scenario.v_m, u_x + 1.0


def mutual_info_ab(scenario, channel: ChannelModel) -> float:
    """Mutual information between the trusted parties, in bits.

    Evaluated in the key quadrature as (1/2) log2(V_B / V_B|A).  Multimode
    leakage does not enter: the extra modes change nothing between the
    trusted parties.  For the premodulation scenario the side channel
    attenuates the signal before modulation, which lowers V_B|A as well as
    V_B.
    """
    if scenario.v_m == 0.0:
        return 0.0
    if isinstance(scenario, MultimodeLeakageScenario):
        v_in, v_in_cond = scenario.v_s + scenario.v_m, scenario.v_s
    elif isinstance(scenario, PremodLeakageScenario):
        v_in, v_in_cond = _premod_input_variances(scenario)
    else:
        raise ScenarioError(f"unknown scenario type {type(scenario)!r}")
    v_b = channel_output_variance(v_in, channel)
    v_b_cond = channel_output_variance(v_in_cond, channel)
    return _log2_ratio(v_b, v_b_cond)


def _condition_on_modes(state: GaussianState, modes, quadrature="x"):
    out = state
    for mode in modes:
        out = homodyne_condition(out, mode, quadrature)
    return out


def _gaussian_conditional(v: float, cross: np.ndarray,
                          block: np.ndarray) -> float:
    """Variance of a scalar conditioned on jointly Gaussian variables."""
    return float(v - cross @ np.linalg.solve(block, cross))


def _x_block(state: GaussianState, modes) -> np.ndarray:
    idx = [2 * state.index(m) for m in modes]
    return state.cm[np.ix_(idx, idx)]


def key_rate_individual(scenario, channel: ChannelModel,
                        direction: str = DIRECTION_RR) -> KeyRateReport:
    """Key rate under individual attacks on a purely lossy channel.

    The eavesdropper homodynes every mode she holds in the key quadrature.
    Reverse reconciliation conditions Bob's variance on those measurements;
    direct reconciliation conditions Alice's modulation data, whose
    correlations to the eavesdropper modes follow from the linear optics of
    the corresponding scenario.
    """
    direction = str(direction).upper()
    if direction not in (DIRECTION_RR, DIRECTION_DR):
        raise ScenarioError(f"direction must be RR or DR, got {direction!r}")
    if channel.epsilon != 0.0:
        raise ScenarioError(
            "individual-attack analysis covers the pure-loss channel; "
            "epsilon must be 0")
    eta, v_m = channel.eta, scenario.v_m
    if isinstance(scenario, MultimodeLeakageScenario):
        state = build_pm_multimode(scenario, channel)
        eve_modes = ["L", "E"]
        if scenario.n_modes >= 1:
            _, k_eff = effective_leakage(scenario)
        else:
            k_eff = 0.0
        data_cross = np.array([k_eff * v_m, -math.sqrt(1.0 - eta) * v_m])
    elif isinstance(scenario, PremodLeakageScenario):
        state = build_pm_premod(scenario, channel)
        eve_modes = ["ES", "E"]
        data_cross = np.array([0.0, -math.sqrt(1.0 - eta) * v_m])
    else:
        raise ScenarioError(f"unknown scenario type {type(scenario)!r}")

    i_ab = mutual_info_ab(scenario, channel)
    v_b = state.variance("B", "x")
    variances = {"v_b": v_b}
    if v_m == 0.0:
        return KeyRateReport(i_ab=0.0, eve_information=0.0, rate=0.0,
                             direction=direction, attack=ATTACK_INDIVIDUAL,
                             conditional_variances=variances)
    if direction == DIRECTION_RR:
        v_b_cond = _condition_on_modes(state, eve_modes).variance("B", "x")
        eve_info = _log2_ratio(v_b, v_b_cond)
        variances["v_b_cond_e"] = v_b_cond
    else:
        block = _x_block(state, eve_modes)
        v_a_cond = _gaussian_conditional(v_m, data_cross, block)
        eve_info = _log2_ratio(v_m, v_a_cond)
        variances["v_a"] = v_m
        variances["v_a_cond_e"] = v_a_cond
    rate = i_ab - eve_info
    return KeyRateReport(i_ab=i_ab, eve_information=eve_info, rate=rate,
                         direction=direction, attack=ATTACK_INDIVIDUAL,
                         conditional_variances=variances)


def _condition_reference(state: GaussianState, modes, measurement: str):
    if measurement == "heterodyne":
        return joint_heterodyne_condition(state, modes)
    return joint_homodyne_condition(state, modes, "x")


def holevo_bound(model: PurifiedModel, direction: str = DIRECTION_RR,
                 side: str = "eve") -> float:
    """Holevo bound on the eavesdropper information, in bits.

    chi = S(E) - S(E | reference measurement), with the reference being
    Bob's x homodyne for reverse reconciliation and the sender's data
    measurement for direct reconciliation.  Because the channel environment
    is retained, the global state is pure and both sides of the duality
    S(E) = S(trusted) are available:

    * side="eve" evaluates the entropies on the eavesdropper's reduced
      states directly.  Her matrices stay of order unity even when the
      sender's kept modes carry the huge variances of the premodulation
      limit, so this is the numerically reliable route and the default.
    * side="trusted" evaluates the dual trusted-side entropies instead;
      it is exact in exact arithmetic and serves as a purity cross-check
      for moderately scaled models.
    """
    direction = str(direction).upper()
    if direction not in (DIRECTION_RR, DIRECTION_DR):
        raise ScenarioError(f"direction must be RR or DR, got {direction!r}")
    defect = model.purity_defect()
    if defect > max(PURITY_TOL, physicality_tolerance(model.pre_channel.cm)):
        raise PhysicalityError(
            f"purified model is not pure (defect {defect:.3e})")
    # Near-unit symplectic eigenvalues of reductions of this model can sit
    # below 1 by the square root of the construction's rounding scale;
    # clamping them to 1 costs nothing (g is flat there) while the default
    # entropy gate would reject them as unphysical.
    scale = max(1.0, float(np.max(np.abs(model.pre_channel.cm))))
    nu_tol = max(1e-6, 50.0 * math.sqrt(np.finfo(float).eps * scale))

    def entropy(state):
        return von_neumann_entropy(state, nu_tolerance=nu_tol)

    if direction == DIRECTION_RR:
        ref_modes, ref_meas = (model.bob_mode,), "homodyne_x"
    else:
        ref_modes = model.alice_data_modes
        ref_meas = model.alice_measurement
    if side == "trusted":
        trusted = partial_trace(model.state, list(model.trusted_modes))
        s_all = entropy(trusted)
        keep = [m for m in model.trusted_modes if m not in ref_modes]
        cond = _condition_reference(trusted, ref_modes, ref_meas)
        cond = partial_trace(cond, keep)
        s_cond = entropy(cond)
    elif side == "eve":
        eve = list(model.eve_modes)
        s_all = entropy(partial_trace(model.state, eve))
        joint = partial_trace(model.state, eve + list(ref_modes))
        cond = _condition_reference(joint, ref_modes, ref_meas)
        s_cond = entropy(partial_trace(cond, eve))
    else:
        raise ScenarioError(f"side must be 'eve' or 'trusted', got {side!r}")
    chi = s_all - s_cond
    if chi < 0.0:
        if chi < -1e-6:
            raise PhysicalityError(f"negative Holevo bound {chi}")
        chi = 0.0
    return chi


def build_purified_model(scenario, channel: ChannelModel) -> PurifiedModel:
    """Entanglement-based model for either scenario, channel attached."""
    if isinstance(scenario, MultimodeLeakageScenario):
        if scenario.n_modes == 0:
            v_l_eff, k_eff = 1.0, 0.0
        elif scenario.n_modes == 1:
            v_l_eff, k_eff = scenario.leakage_variances[0], scenario.k
        else:
            first = scenario.leakage_variances[0]
            if any(abs(v - first) > 1e-12 for v in scenario.leakage_variances):
                raise ScenarioError(
                    "collective attacks with several distinct leakage "
                    "variances have no closed reduction; use identical "
                    "variances or a single mode")
            v_l_eff, k_eff = effective_leakage(scenario)
        solution = solve_bloch_messiah(k_eff, scenario.v_s, scenario.v_m,
                                       v_l_eff)
        return build_eb_multimode(solution, scenario.v_s, scenario.v_m,
                                  k_eff, channel)
    if isinstance(scenario, PremodLeakageScenario):
        # The limit offset 1 - t1 is a numerical knob.  Strong modulation
        # tolerates a proportionally larger offset (the model error stays
        # O(1 - t1)) and needs one, since the modulating EPR variance
        # v_m / (1 - t1) would otherwise exceed what float64 entropy
        # computations can support.  The offset must stay below 0.01
        # (build_eb_premod's window), so v_m must stay below 1e5; an EPR
        # variance >= 1 needs v_m >= 1e-6, the smallest offset.  The bounds
        # are stated on v_m, the parameter the caller set.
        if not 1e-6 <= scenario.v_m < 1e5:
            raise ScenarioError(
                f"premodulation collective rates need 1e-6 <= v_m < 1e5, "
                f"got {scenario.v_m}")
        t1 = 1.0 - max(1e-6, scenario.v_m / 1e7)
        return build_eb_premod(scenario.v_s, scenario.v_m, scenario.eta_e,
                               channel, t1=t1, v_es=scenario.v_es)
    raise ScenarioError(f"unknown scenario type {type(scenario)!r}")


def key_rate_collective(scenario, channel: ChannelModel,
                        protocol: ProtocolChoice) -> KeyRateReport:
    """Key rate under collective attacks: beta I_AB - chi."""
    direction = protocol.direction
    if scenario.v_m == 0.0:
        return KeyRateReport(i_ab=0.0, eve_information=0.0, rate=0.0,
                             direction=direction, attack=ATTACK_COLLECTIVE,
                             beta=protocol.beta)
    i_ab = mutual_info_ab(scenario, channel)
    model = build_purified_model(scenario, channel)
    chi = holevo_bound(model, direction)
    rate = protocol.beta * i_ab - chi
    if isinstance(scenario, MultimodeLeakageScenario):
        v_in_cond = scenario.v_s
    else:
        _, v_in_cond = _premod_input_variances(scenario)
    variances = {
        "v_b": model.state.variance(model.bob_mode, "x"),
        "v_b_cond_a": channel_output_variance(v_in_cond, channel),
    }
    return KeyRateReport(i_ab=i_ab, eve_information=chi, rate=rate,
                         direction=direction, attack=ATTACK_COLLECTIVE,
                         beta=protocol.beta, conditional_variances=variances)


def key_rate(scenario, channel: ChannelModel,
             protocol: ProtocolChoice) -> KeyRateReport:
    """Dispatch on the attack class of the protocol choice."""
    if protocol.attack == ATTACK_INDIVIDUAL:
        if protocol.beta != 1.0:
            raise ScenarioError(
                "individual-attack rates assume fully efficient "
                "post-processing (beta = 1)")
        return key_rate_individual(scenario, channel, protocol.direction)
    return key_rate_collective(scenario, channel, protocol)


def multimode_asymptotics(v: float, eta: float, k: float) -> dict:
    """Closed-form strong-modulation limits for symmetric multimode leakage.

    All formulas assume identical signal and leakage variances v and a
    purely lossy channel, in the limit of infinite modulation:

    * rr_inf: reverse-reconciliation individual rate;
    * false_rr_inf: the rate trusted parties would infer if they ignored
      the leakage mode altogether;
    * k_max: largest leakage ratio with positive rr_inf (infinite for the
      coherent protocol, which tolerates any k on a lossless channel);
    * v_opt: squeezing that maximizes rr_inf;
    * improvement_range: interval of v that beats the coherent protocol.
    """
    if not 0.0 < v <= 1.0:
        raise ScenarioError(f"v must lie in (0, 1], got {v}")
    if not 0.0 < eta < 1.0:
        raise ScenarioError(f"eta must lie in (0, 1), got {eta}")
    if k < 0.0:
        raise ScenarioError(f"k must be >= 0, got {k}")
    rr_inf = -0.5 * math.log2(
        (1.0 - eta + eta * k * k / (v * (1.0 + k * k)))
        * (1.0 + eta * (v - 1.0)))
    false_rr_inf = -0.5 * math.log2((1.0 - eta) * (1.0 + eta * (v - 1.0)))
    if v == 1.0:
        k_max = math.inf
    else:
        k_max = math.sqrt(v * (eta - 2.0 + v - eta * v)
                          / ((eta - 1.0) * (v - 1.0) ** 2))
    v_opt = math.sqrt(k * k / (1.0 + k * k))
    return {
        "rr_inf": rr_inf,
        "false_rr_inf": false_rr_inf,
        "k_max": k_max,
        "v_opt": v_opt,
        "improvement_range": (k * k / (1.0 + k * k), 1.0),
    }


def dr_shortdistance_rate(v: float, eta: float, k: float,
                          v_m: float) -> float:
    """Direct-reconciliation individual rate near ideal transmission.

    First-order expansion around eta = 1 for identical signal and leakage
    variances v; exact at eta = 1, where security is lost for k = 1
    regardless of the modulation.
    """
    if not 0.0 < v <= 1.0:
        raise ScenarioError(f"v must lie in (0, 1], got {v}")
    if not 0.0 < eta <= 1.0:
        raise ScenarioError(f"eta must lie in (0, 1], got {eta}")
    if k < 0.0 or v_m < 0.0:
        raise ScenarioError("k and v_m must be >= 0")
    lead = ((eta - 1.0) * v_m / (v * math.log(2.0))
            * (2.0 * k * k * v_m + v) ** 2 / (k * k * v_m + v))
    return 0.5 * (lead + math.log2((v_m + v) / (k * k * v_m + v)))


def premod_perfect_channel_rates(v_s: float, v_m: float,
                                 eta_e: float) -> tuple[float, float]:
    """Individual RR rates at eta = 1: premodulation model vs noise model.

    Both describe the same output degradation of a vacuum-coupled source;
    the first hands the coupled arm to the eavesdropper, the second treats
    it as trusted preparation noise with no external correlations.  Their
    difference isolates the value of the side-channel correlations.
    """
    u = eta_e * (v_s - 1.0)
    v_es = eta_e + (1.0 - eta_e) * v_s
    rate_correlated = 0.5 * math.log2((v_m + v_s / v_es) / (u + 1.0))
    rate_noise_only = 0.5 * math.log2((u + v_m + 1.0) / (u + 1.0))
    return rate_correlated, rate_noise_only


def premod_asymptotics(v_s: float, eta: float, eta_e: float,
                       v_m: float) -> dict:
    """Closed-form limits for the premodulation side channel.

    * dr_perfect_channel: direct-reconciliation individual rate at eta = 1;
    * rr_strong_mod: reverse-reconciliation individual rate as the
      modulation grows without bound;
    * sq_over_coh: advantage of the squeezed-state protocol over the
      coherent one in the same limit;
    * correlation_advantage: rate cost of the eavesdropper's side-channel
      correlations relative to treating the same degradation as trusted
      preparation noise (evaluated at perfect transmission, where it is
      largest; it vanishes for strong modulation).
    """
    if not 0.0 < v_s <= 1.0:
        raise ScenarioError(f"v_s must lie in (0, 1], got {v_s}")
    if not 0.0 < eta <= 1.0:
        raise ScenarioError(f"eta must lie in (0, 1], got {eta}")
    if not 0.0 < eta_e <= 1.0:
        raise ScenarioError(f"eta_e must lie in (0, 1], got {eta_e}")
    if v_m < 0.0:
        raise ScenarioError(f"v_m must be >= 0, got {v_m}")
    u = eta_e * (v_s - 1.0)
    dr_perfect = 0.5 * math.log2(1.0 + v_m / (1.0 + u))
    if eta < 1.0:
        rr_strong = -0.5 * math.log2((1.0 - eta) * (1.0 + u * eta))
    else:
        rr_strong = math.inf
    sq_over_coh = -0.5 * math.log2(1.0 + u * eta)
    rate_corr, rate_noise = premod_perfect_channel_rates(v_s, v_m, eta_e)
    return {
        "dr_perfect_channel": dr_perfect,
        "rr_strong_mod": rr_strong,
        "sq_over_coh": sq_over_coh,
        "correlation_advantage": rate_noise - rate_corr,
    }
