"""Key rates: mutual informations, Holevo bounds, and closed-form limits.

Individual attacks are evaluated in the prepare-and-measure (P&M) picture
with conditional variances (the eavesdropper homodynes her modes in the key
quadrature).  Collective attacks use Holevo bounds on the eavesdropper's
reduced states: for reverse reconciliation on the P&M covariance matrix
with the channel purified, which the P&M and entanglement-based pictures
share; for direct reconciliation on the purified entanglement-based (EB)
models.  The strong-modulation, short-distance and premodulation closed
forms are provided both for direct use and as independent cross-checks of
the numeric machinery.

:func:`key_rates` evaluates a sequence of points at once.  Every rate runs
on covariance stacks through the array cores of :mod:`cvleak.gaussian`,
so none builds a labelled state.  Individual and collective
reverse-reconciliation rates take one matrix per point from the scenario
record's own builder (``closed_cm`` or ``pm_cm``, Bob's mode first):
individual rates on one stack for both scenario kinds, collective RR
rates on one stack per mode layout.  Collective direct-reconciliation
rates take the pre-channel EB matrix of each point from the cores of
:mod:`cvleak.purification`, attach the purified channel, and stack the
points of one EB layout.  A stack gives each point the numbers it gets
alone.  :func:`key_rate`, :func:`key_rate_individual` and
:func:`key_rate_collective` are the stack of one; :func:`holevo_bound`
evaluates the same bound on one labelled model.

Lower bound on the secret key rate per channel use, in bits:

    individual:  R = I_AB - I_E        (I_E = I_BE for RR, I_AE for DR)
    collective:  R = beta I_AB - chi   (chi = chi_BE for RR, chi_AE for DR)

Negative rates are reported as computed; rendering them as "insecure" is
left to callers.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .gaussian import (
    GaussianState,
    PhysicalityError,
    _symplectic_eigenvalues,
    covariance_entropy,
    homodyne_condition,  # unused here; perfbench/tracer.py wraps this name
    joint_heterodyne_condition,
    joint_homodyne_condition,
    mode_rows,
    partial_trace,
    physical_covariance,
    physicality_tolerance,
    schur_condition,
    submatrix,
    von_neumann_entropy,
)
from .purification import (
    MULTIMODE_LAYOUT,
    PURITY_TOL,
    PurifiedModel,
    _purified_model,
    build_eb_multimode,  # unused here; perfbench/tracer.py wraps this name
    build_eb_premod,  # unused here; perfbench/tracer.py wraps this name
    eb_multimode_cm,
    eb_premod_cm,
    premod_layout,
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
    build_pm_multimode,  # unused here; perfbench/tracer.py wraps this name
    build_pm_premod,  # unused here; perfbench/tracer.py wraps this name
    _environment,
    _noisy_channel,
    channel_output_variance,
    effective_leakage,
    pm_modes,
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
    ratio = num / den
    if math.isinf(ratio) or ratio < sys.float_info.min:
        # The quotient overflowed or underflowed; the logarithms do not.
        return 0.5 * (math.log2(num) - math.log2(den))
    return 0.5 * math.log2(ratio)


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
    v_in, v_in_cond = scenario.input_variances()
    v_b = channel_output_variance(v_in, channel)
    v_b_cond = channel_output_variance(v_in_cond, channel)
    return _log2_ratio(v_b, v_b_cond)


def _gaussian_conditional(v: np.ndarray, cross: np.ndarray,
                          block: np.ndarray) -> np.ndarray:
    """Variance of a scalar conditioned on jointly Gaussian variables.

    One scalar variance, cross-covariance row and conditioning block per
    point: v - cross block^-1 cross^T, stacked.  A block that is singular
    in float64 is reported as an unphysical model.
    """
    try:
        solved = np.linalg.solve(block, cross[:, :, None])
    except np.linalg.LinAlgError as exc:
        raise PhysicalityError(
            f"eavesdropper's conditioning block is singular: {exc}") from exc
    return v - (cross[:, None, :] @ solved)[:, 0, 0]


def _groups(keys) -> list[list[int]]:
    """Indices of equal keys, groups in order of first appearance."""
    groups: dict = {}
    for index, key in enumerate(keys):
        groups.setdefault(key, []).append(index)
    return list(groups.values())


def _individual_rates(points, direction: str) -> list[KeyRateReport]:
    """Individual-attack reports of many points: one closed-form stack
    (rows B, L or ES, E) for the points of both scenario kinds, one
    physicality check per matrix."""
    direction = str(direction).upper()
    if direction not in (DIRECTION_RR, DIRECTION_DR):
        raise ScenarioError(f"direction must be RR or DR, got {direction!r}")
    if any(channel.epsilon != 0.0 for _, channel in points):
        raise ScenarioError(
            "individual-attack analysis covers the pure-loss channel; "
            "epsilon must be 0")
    cms = physical_covariance(np.array([sc.closed_cm(ch)
                                        for sc, ch in points]))
    v_b = cms[:, 0, 0]
    eve_rows = [2, 4]  # x of the leakage mode and of E
    block = submatrix(cms, eve_rows, eve_rows)
    if direction == DIRECTION_RR:
        cond = _gaussian_conditional(v_b, cms[:, 0, eve_rows], block)
    else:
        # Alice's data moves the leakage mode by the closed form's data
        # ratio and E by -sqrt(1 - eta) times itself.
        cross = np.array([(sc.closed_data_ratio() * sc.v_m,
                           -math.sqrt(1.0 - ch.eta) * sc.v_m)
                          for sc, ch in points])
        v_m = np.array([sc.v_m for sc, _ in points], dtype=float)
        cond = _gaussian_conditional(v_m, cross, block)
    return [_individual_report(sc, ch, direction, v, c)
            for (sc, ch), v, c in zip(points, v_b.tolist(), cond.tolist())]


def _individual_report(scenario, channel: ChannelModel, direction: str,
                       v_b: float, cond: float) -> KeyRateReport:
    """Report of one individual-attack point from Bob's x variance and the
    reference variance conditioned on the eavesdropper's x homodynes."""
    i_ab = mutual_info_ab(scenario, channel)
    variances = {"v_b": v_b}
    if scenario.v_m == 0.0:
        return KeyRateReport(i_ab=0.0, eve_information=0.0, rate=0.0,
                             direction=direction, attack=ATTACK_INDIVIDUAL,
                             conditional_variances=variances)
    if direction == DIRECTION_RR:
        eve_info = _log2_ratio(v_b, cond)
        variances["v_b_cond_e"] = cond
    else:
        eve_info = _log2_ratio(scenario.v_m, cond)
        variances["v_a"] = scenario.v_m
        variances["v_a_cond_e"] = cond
    return KeyRateReport(i_ab=i_ab, eve_information=eve_info,
                         rate=i_ab - eve_info, direction=direction,
                         attack=ATTACK_INDIVIDUAL,
                         conditional_variances=variances)


def key_rate_individual(scenario, channel: ChannelModel,
                        direction: str = DIRECTION_RR) -> KeyRateReport:
    """Key rate under individual attacks on a purely lossy channel.

    The eavesdropper homodynes every mode she holds in the key quadrature,
    and I_E = (1/2) log2(V_ref / V_ref|E) with the conditional variance
    taken on the x block of her modes in the closed-form
    prepare-and-measure state.  The reference is Bob's x quadrature for
    reverse reconciliation, with its correlations read from that state, and
    Alice's modulation data for direct reconciliation, whose correlations
    to the eavesdropper modes follow from the linear optics of the
    corresponding scenario.  The stack of one of :func:`key_rates`.
    """
    return _individual_rates([(scenario, channel)], direction)[0]


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
    nu_tol = _purity_clamps(model.pre_channel.cm)
    if direction == DIRECTION_RR:
        ref_modes, ref_meas = (model.bob_mode,), "homodyne_x"
    else:
        ref_modes = model.alice_modes
        ref_meas = model.alice_measurement
    if side == "eve":
        state, heterodyne = model.state, ref_meas == "heterodyne"
        ref_rows = state.rows(ref_modes, None if heterodyne else "x")
        return _eve_chi(state.cm, state.rows(model.eve_modes), ref_rows,
                        heterodyne, nu_tol)
    if side != "trusted":
        raise ScenarioError(f"side must be 'eve' or 'trusted', got {side!r}")
    trusted = partial_trace(model.state, list(model.trusted_modes))
    s_all = von_neumann_entropy(trusted, nu_tolerance=nu_tol)
    keep = [m for m in model.trusted_modes if m not in ref_modes]
    cond = _condition_reference(trusted, ref_modes, ref_meas)
    s_cond = von_neumann_entropy(partial_trace(cond, keep),
                                 nu_tolerance=nu_tol)
    return _nonnegative_chi(s_all - s_cond)


_EPS = float(np.finfo(float).eps)


def _nu_tolerance(cm: np.ndarray):
    """Entropy clamp for reductions of a state built with entries up to cm's.

    Near-unit symplectic eigenvalues of such reductions can sit below 1 by
    the square root of the construction's rounding scale; clamping them to
    1 costs nothing (g is flat there) while the default entropy gate would
    reject them as unphysical.  One float for one matrix, a list of them
    for a stack.
    """
    scale = np.maximum(1.0, np.abs(cm).max(axis=(-2, -1))).tolist()
    if cm.ndim == 2:
        return max(1e-6, 50.0 * math.sqrt(_EPS * scale))
    return [max(1e-6, 50.0 * math.sqrt(_EPS * s)) for s in scale]


def _purity_clamps(pre: np.ndarray):
    """Entropy clamps (:func:`_nu_tolerance`) of purified models whose
    pre-channel matrices ``pre`` (one, or a stack) are checked pure: every
    symplectic eigenvalue within max(PURITY_TOL, physicality tolerance)
    of 1, else PhysicalityError for the first impure matrix."""
    defects = np.abs(_symplectic_eigenvalues(pre) - 1.0).max(axis=-1)
    for defect, tol in zip(np.ravel(defects).tolist(),
                           np.ravel(physicality_tolerance(pre)).tolist()):
        if defect > max(PURITY_TOL, tol):
            raise PhysicalityError(
                f"purified model is not pure (defect {defect:.3e})")
    return _nu_tolerance(pre)


def _nonnegative_chi(chi: float) -> float:
    """Clamp rounding below zero; a clearly negative bound is unphysical."""
    if chi < 0.0:
        if chi < -1e-6:
            raise PhysicalityError(f"negative Holevo bound {chi}")
        chi = 0.0
    return chi


def _eve_chi(cm: np.ndarray, eve_rows, ref_rows, heterodyne: bool,
             nu_tol):
    """S(E) - S(E | reference measurement) on the eavesdropper's rows.

    ``eve_rows`` index the eavesdropper's quadratures in ``cm`` and
    ``ref_rows`` the measured reference quadratures (both quadratures of
    each reference mode for a heterodyne measurement, which adds the
    vacuum to their covariance); either may be a list of rows or a slice.
    A float for one matrix; a list of floats for a stack, whose
    ``nu_tol`` is then a list with one clamp per matrix.  The entropies of
    every matrix, unconditioned and conditioned, come from one stacked
    spectrum.
    """
    eve = submatrix(cm, eve_rows, eve_rows)
    cond = schur_condition(cm, eve_rows, ref_rows, regularize=heterodyne)
    size = eve.shape[-1]
    clamps = nu_tol if cm.ndim > 2 else [nu_tol]
    n = len(clamps)
    entropies = covariance_entropy(
        np.concatenate([eve.reshape(n, size, size),
                        cond.reshape(n, size, size)]), clamps + clamps)
    chis = [_nonnegative_chi(s_all - s_cond)
            for s_all, s_cond in zip(entropies[:n], entropies[n:])]
    return chis if cm.ndim > 2 else chis[0]


def _eb_pre_channel(scenario):
    """Pre-channel entanglement-based matrix of one point, and its layout.

    Runs the EB models' domain checks.  Multimode leakage reduces to one
    effective leakage mode, whose purification comes from
    :func:`~cvleak.purification.solve_bloch_messiah`.
    """
    if isinstance(scenario, MultimodeLeakageScenario):
        if scenario.n_modes == 0:
            v_l_eff, k_eff = 1.0, 0.0
        elif scenario.n_modes == 1:
            v_l_eff, k_eff = scenario.leakage_variances[0], scenario.k
        else:
            first = scenario.leakage_variances[0]
            if any(abs(v - first) > 1e-12 for v in scenario.leakage_variances):
                raise ScenarioError(
                    "collective DR rates with several distinct leakage "
                    "variances have no closed reduction; use identical "
                    "variances or a single mode")
            v_l_eff, k_eff = effective_leakage(scenario)
        solution = solve_bloch_messiah(k_eff, scenario.v_s, scenario.v_m,
                                       v_l_eff)
        return (eb_multimode_cm(solution, scenario.v_s, scenario.v_m, k_eff),
                MULTIMODE_LAYOUT)
    if isinstance(scenario, PremodLeakageScenario):
        # The limit offset 1 - t1 is a numerical knob.  Strong modulation
        # tolerates a proportionally larger offset (the model error stays
        # O(1 - t1)) and needs one, since the modulating EPR variance
        # v_m / (1 - t1) would otherwise exceed what float64 entropy
        # computations can support.  The offset must stay below 0.01
        # (eb_premod_cm's window), so v_m must stay below 1e5; an EPR
        # variance >= 1 needs v_m >= 1e-6, the smallest offset.  The bounds
        # are stated on v_m, the parameter the caller set.
        if not 1e-6 <= scenario.v_m < 1e5:
            raise ScenarioError(
                f"premodulation collective DR rates need 1e-6 <= v_m < 1e5, "
                f"got {scenario.v_m}")
        t1 = 1.0 - max(1e-6, scenario.v_m / 1e7)
        return (eb_premod_cm(scenario.v_s, scenario.v_m, scenario.eta_e,
                             t1=t1, v_es=scenario.v_es),
                premod_layout(scenario.v_es))
    raise ScenarioError(f"unknown scenario type {type(scenario)!r}")


def build_purified_model(scenario, channel: ChannelModel) -> PurifiedModel:
    """Entanglement-based model for either scenario, channel attached.

    The labelled form of the matrix collective DR rates are computed on
    (:func:`_eb_pre_channel`); collective RR rates need none
    (:func:`key_rate_collective`), so its domain limits bind DR only.
    """
    pre, layout = _eb_pre_channel(scenario)
    return _purified_model(pre, layout, scenario.v_s, channel)


def _dr_chis(points) -> tuple[list[float], list[float]]:
    """chi_AE and Bob's x variance of collective DR points.

    Each point's pre-channel EB matrix (:func:`_eb_pre_channel`) crosses
    the purified channel on B.  The points of one layout (EB modes,
    channel environment, heterodyne or homodyne readout) share one stack
    for the purity check (:func:`_purity_clamps`) and chi, as
    :func:`holevo_bound` evaluates them on one model.
    """
    pres, posts, keys = [], [], []
    for sc, ch in points:
        pre, layout = _eb_pre_channel(sc)
        pres.append(pre)
        posts.append(_noisy_channel(pre, layout.modes.index("B"), ch))
        keys.append((layout, _environment(ch), sc.v_s == 1.0))
    chi, v_b = [0.0] * len(points), [0.0] * len(points)
    for group in _groups(keys):
        layout, env, heterodyne = keys[group[0]]
        modes = layout.modes + env
        nu_tol = _purity_clamps(np.array([pres[j] for j in group]))
        post = np.array([posts[j] for j in group])
        chis = _eve_chi(post, mode_rows(modes, layout.eve_modes + env),
                        mode_rows(modes, layout.alice_modes,
                                  None if heterodyne else "x"),
                        heterodyne, nu_tol)
        bob = 2 * modes.index("B")
        for j, c, v in zip(group, chis, post[:, bob, bob].tolist()):
            chi[j], v_b[j] = c, v
    return chi, v_b


def _collective_rates(points, protocol: ProtocolChoice
                      ) -> list[KeyRateReport]:
    """Collective-attack reports of many points, one stack per layout.

    chi_AE (DR) comes from the entanglement-based model of each point
    (:func:`_dr_chis`).  chi_BE (RR) = S(E) - S(E | x_B) comes from the
    prepare-and-measure covariance matrices, one stack per mode layout
    (:func:`~cvleak.scenarios.pm_modes`), where the eavesdropper holds
    every mode but B: the P&M and entanglement-based pictures share this
    (B, E) state, so no purification is needed, nor the premodulation
    model's limit offsets.  B occupies rows 0-1 of each matrix, so with
    gamma_E its rows 2:, sigma their column 0 and V the x variance of B,
    chi_BE = S(gamma_E) - S(gamma_E - sigma sigma^T / V) on plain arrays.
    """
    direction, beta = protocol.direction, protocol.beta
    live = [i for i, (sc, _) in enumerate(points) if sc.v_m != 0.0]
    i_ab = [mutual_info_ab(*points[i]) for i in live]
    if direction == DIRECTION_RR:
        chi, v_b = [0.0] * len(live), [0.0] * len(live)
        for group in _groups(pm_modes(*points[i]) for i in live):
            group_points = [points[live[j]] for j in group]
            cms = np.array([sc.pm_cm(ch) for sc, ch in group_points])
            chis = _eve_chi(cms, slice(2, None), slice(0, 1), False,
                            _nu_tolerance(cms))
            for j, c, v in zip(group, chis, cms[:, 0, 0].tolist()):
                chi[j], v_b[j] = c, v
    else:
        chi, v_b = _dr_chis([points[i] for i in live])
    reports = [KeyRateReport(i_ab=0.0, eve_information=0.0, rate=0.0,
                             direction=direction, attack=ATTACK_COLLECTIVE,
                             beta=beta) if sc.v_m == 0.0 else None
               for sc, _ in points]
    for i, i_ab_i, chi_i, v_b_i in zip(live, i_ab, chi, v_b):
        sc, ch = points[i]
        _, v_in_cond = sc.input_variances()
        variances = {
            "v_b": v_b_i,
            "v_b_cond_a": channel_output_variance(v_in_cond, ch),
        }
        reports[i] = KeyRateReport(
            i_ab=i_ab_i, eve_information=chi_i, rate=beta * i_ab_i - chi_i,
            direction=direction, attack=ATTACK_COLLECTIVE, beta=beta,
            conditional_variances=variances)
    return reports


def key_rate_collective(scenario, channel: ChannelModel,
                        protocol: ProtocolChoice) -> KeyRateReport:
    """Key rate under collective attacks: beta I_AB - chi.

    chi_AE (DR) comes from the entanglement-based model, chi_BE (RR) from
    the prepare-and-measure covariance matrix.  The stack of one of
    :func:`key_rates`.
    """
    return _collective_rates([(scenario, channel)], protocol)[0]


def _key_rates(points, protocol: ProtocolChoice) -> list[KeyRateReport]:
    if protocol.attack == ATTACK_INDIVIDUAL:
        if protocol.beta != 1.0:
            raise ScenarioError(
                "individual-attack rates assume fully efficient "
                "post-processing (beta = 1)")
        return _individual_rates(points, protocol.direction)
    return _collective_rates(points, protocol)


def key_rates(points, protocol: ProtocolChoice) -> list[KeyRateReport]:
    """Key rates of a sequence of (scenario, channel) points.

    One report per point, equal to what :func:`key_rate` reports for that
    point alone.  The rates are computed on covariance stacks, one per
    mode layout for collective rates.  When the stack
    raises one of the library's errors (all ValueError or RuntimeError),
    the points are evaluated one at a time, so the error is that of the
    first failing point in sequence order.
    """
    points = list(points)
    try:
        return _key_rates(points, protocol)
    except (ValueError, RuntimeError):
        if len(points) > 1:
            for point in points:
                _key_rates([point], protocol)
        raise


def key_rate(scenario, channel: ChannelModel,
             protocol: ProtocolChoice) -> KeyRateReport:
    """Key rate of one point for the attack class of the protocol choice:
    the stack of one of :func:`key_rates`."""
    return _key_rates([(scenario, channel)], protocol)[0]


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
