"""Protocol scenarios: leakage models, channel model, covariance builders.

Two source-side threat models are covered:

* multimode modulation leakage: the source emits N extra modes that receive
  a correlated copy of the Gaussian modulation (ratio k) and are fully
  available to the eavesdropper;
* premodulation leakage: the signal couples to a vacuum mode on a beam
  splitter of transmittance eta_e before the modulator, and the reflected
  arm is available to the eavesdropper.

Each scenario record is the one place that knows its kind: its config
name (``kind``), the signal variances entering the channel
(``input_variances``), the eavesdropper's source modes (``side_modes``),
and its prepare-and-measure covariance matrices in shot-noise units, built
from the point alone with scalar arithmetic and the modes at fixed
positions.  ``closed_cm(channel)`` is the closed-form pure-loss state of
the individual attacks (modes B, L or ES, E), with ``closed_data_ratio``
the ratio of Alice's data on its leakage row; ``pm_cm(channel)`` is the
step-by-step state with the purified channel, on which collective
reverse-reconciliation rates are computed, modes as :func:`pm_modes`
names them.  The rate layer stacks these matrices over many points.  The
labelled builders (``build_pm_*``) wrap one matrix in a
:class:`~cvleak.gaussian.GaussianState`.  Conventions documented here once:

* all source modes emit minimum-uncertainty states: a mode of signal-quadrature
  variance V has x variance V and p variance 1/V (V = 1 is the vacuum /
  coherent case);
* modulation displaces x of the signal by a Gaussian of variance v_m and p
  independently by a Gaussian of the same variance; the leakage copy is
  +k * displacement in x and -k * displacement in p;
* the channel environment is a thermal state of variance 1 + epsilon: a
  mode of variance V leaves a channel (eta, epsilon) with variance
  eta * V + (1 - eta) * (1 + epsilon).  This is the one place the noise
  convention lives; see :func:`channel_output_variance`.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .gaussian import (
    GaussianState,
    append_block,
    beamsplitter,
    epr_block,
)

DEFAULT_ATTENUATION_DB_PER_KM = 0.2

# Labels of the purified channel environment (see apply_noisy_channel).
ENV_MODE = "E_env"
ENV_TWIN_MODE = "E_env_twin"


class ScenarioError(ValueError):
    """Raised for parameter values outside the declared domains."""


def _require_finite(**values: float) -> None:
    """Reject NaN and infinity, which slip past every ordered comparison."""
    for name, value in values.items():
        if not math.isfinite(value):
            raise ScenarioError(f"{name} must be finite, got {value}")


DIRECTION_DR = "DR"
DIRECTION_RR = "RR"
ATTACK_INDIVIDUAL = "individual"
ATTACK_COLLECTIVE = "collective"


@dataclass(frozen=True)
class ChannelModel:
    """Untrusted channel with transmittance eta and excess noise epsilon."""

    eta: float
    epsilon: float = 0.0
    attenuation_db_per_km: float = DEFAULT_ATTENUATION_DB_PER_KM

    def __post_init__(self):
        _require_finite(eta=self.eta, epsilon=self.epsilon,
                        attenuation_db_per_km=self.attenuation_db_per_km)
        if not 0.0 < self.eta <= 1.0:
            raise ScenarioError(f"eta must lie in (0, 1], got {self.eta}")
        if self.epsilon < 0.0:
            raise ScenarioError(
                f"epsilon must be >= 0, got {self.epsilon}")
        if self.attenuation_db_per_km <= 0.0:
            raise ScenarioError("attenuation must be positive")


@dataclass(frozen=True)
class MultimodeLeakageScenario:
    """Source with N modulated leakage modes at modulation ratio k.

    v_s is the signal quadrature variance (1 = coherent, < 1 = squeezed),
    v_m the modulation variance, k the ratio of leakage-mode to signal-mode
    modulation, and leakage_variances the intrinsic quadrature variances of
    the leakage modes.
    """

    kind: ClassVar[str] = "multimode"  # the [scenario] type in configurations

    v_s: float
    v_m: float
    k: float = 0.0
    leakage_variances: tuple[float, ...] = (1.0,)

    def __post_init__(self):
        _require_finite(v_s=self.v_s, v_m=self.v_m, k=self.k)
        if not 0.0 < self.v_s <= 1.0:
            raise ScenarioError(f"v_s must lie in (0, 1], got {self.v_s}")
        if self.v_m < 0.0:
            raise ScenarioError(f"v_m must be >= 0, got {self.v_m}")
        if self.k < 0.0:
            raise ScenarioError(f"k must be >= 0, got {self.k}")
        vl = tuple(float(v) for v in self.leakage_variances)
        for v in vl:
            _require_finite(leakage_variances=v)
        if any(v <= 0.0 for v in vl):
            raise ScenarioError("leakage variances must be positive")
        object.__setattr__(self, "leakage_variances", vl)

    @property
    def n_modes(self) -> int:
        return len(self.leakage_variances)

    def input_variances(self) -> tuple[float, float]:
        """Signal x variance into the channel, with and without the data."""
        return self.v_s + self.v_m, self.v_s

    def side_modes(self) -> tuple[str, ...]:
        """The eavesdropper's source modes in :meth:`pm_cm`: L1 ... LN."""
        return tuple(f"L{i + 1}" for i in range(self.n_modes))

    def closed_cm(self, channel: ChannelModel) -> np.ndarray:
        """Closed-form prepare-and-measure matrix over modes B, L, E.

        B is Bob's received mode, L the effective leakage mode held by the
        eavesdropper, E the environment mode of the purely lossy channel.
        The leakage modes are first reduced to the effective single mode.
        Only the pure-loss analytic track of the individual attacks is
        covered here; :meth:`pm_cm` builds the state with excess noise and
        every leakage mode.
        """
        if channel.epsilon != 0.0:
            raise ScenarioError(
                "build_pm_multimode covers the pure-loss track; epsilon "
                "must be 0")
        if self.n_modes >= 1:
            v_l, k = effective_leakage(self)
        else:
            v_l, k = 1.0, 0.0
        v_s, v_m, eta = self.v_s, self.v_m, channel.eta
        root_e = math.sqrt(eta * (1.0 - eta))
        cm = np.zeros((6, 6))
        # One quadrature sector per offset; sign flips the modulation copy
        # in p.
        for off, (vs, vl, sign) in enumerate(
                [(v_s, v_l, 1.0), (1.0 / v_s, 1.0 / v_l, -1.0)]):
            b, l, e = off, 2 + off, 4 + off
            cm[b, b] = eta * (vs + v_m - 1.0) + 1.0
            cm[l, l] = vl + k * k * v_m
            cm[e, e] = (1.0 - eta) * (vs + v_m) + eta
            cm[b, l] = cm[l, b] = sign * math.sqrt(eta) * k * v_m
            cm[b, e] = cm[e, b] = -root_e * (vs + v_m - 1.0)
            cm[l, e] = cm[e, l] = -sign * k * math.sqrt(1.0 - eta) * v_m
        return cm

    def closed_data_ratio(self) -> float:
        """Ratio of Alice's data on the L row of :meth:`closed_cm`."""
        return effective_leakage(self)[1] if self.n_modes >= 1 else 0.0

    def pm_cm(self, channel: ChannelModel) -> np.ndarray:
        """Matrix of :func:`build_pm_multimode_constructive`."""
        k = self.k
        cm = _sources((self.v_s,) + self.leakage_variances)
        wx = np.zeros(len(cm))
        wp = np.zeros(len(cm))
        wx[0::2] = (1.0,) + (k,) * self.n_modes
        wp[1::2] = (1.0,) + (-k,) * self.n_modes
        cm = _modulate(cm, wx, wp, self.v_m)
        return _noisy_channel(cm, 0, channel)


@dataclass(frozen=True)
class PremodLeakageScenario:
    """Lossy coupling (eta_e) between source and modulator.

    The side-channel input mode has variance v_es (1 = vacuum); its output
    arm belongs to the eavesdropper.
    """

    kind: ClassVar[str] = "premod"  # the [scenario] type in configurations

    v_s: float
    v_m: float
    eta_e: float = 1.0
    v_es: float = 1.0

    def __post_init__(self):
        _require_finite(v_s=self.v_s, v_m=self.v_m, eta_e=self.eta_e,
                        v_es=self.v_es)
        if not 0.0 < self.v_s <= 1.0:
            raise ScenarioError(f"v_s must lie in (0, 1], got {self.v_s}")
        if self.v_m < 0.0:
            raise ScenarioError(f"v_m must be >= 0, got {self.v_m}")
        if not 0.0 < self.eta_e <= 1.0:
            raise ScenarioError(
                f"eta_e must lie in (0, 1], got {self.eta_e}")
        if self.v_es < 1.0:
            raise ScenarioError(f"v_es must be >= 1, got {self.v_es}")

    def input_variances(self) -> tuple[float, float]:
        """Signal x variance into the channel, with and without the data."""
        u_x = (self.eta_e * (self.v_s - 1.0)
               + (1.0 - self.eta_e) * (self.v_es - 1.0))
        return u_x + 1.0 + self.v_m, u_x + 1.0

    def side_modes(self) -> tuple[str, ...]:
        """The eavesdropper's source modes in :meth:`pm_cm`."""
        return ("ES",) if self.v_es == 1.0 else ("ES", "ES_twin")

    def closed_cm(self, channel: ChannelModel) -> np.ndarray:
        """Closed-form prepare-and-measure matrix over modes B, ES, E.

        B is Bob's received mode, ES the output of the premodulation
        channel (eavesdropper's), E the environment mode of the purely
        lossy channel.  A noisy side-channel input (v_es > 1) is a thermal
        state, so its variance enters both quadrature sectors unchanged.
        """
        if channel.epsilon != 0.0:
            raise ScenarioError(
                "build_pm_premod covers the pure-loss track; epsilon must "
                "be 0")
        v_m, eta_e, eta = self.v_m, self.eta_e, channel.eta
        root_c = math.sqrt(eta * eta_e * (1.0 - eta_e))
        root_e = math.sqrt(eta * (1.0 - eta))
        root_s = math.sqrt((1.0 - eta) * (1.0 - eta_e) * eta_e)
        cm = np.zeros((6, 6))
        for off, (vs, ves) in enumerate(
                [(self.v_s, self.v_es), (1.0 / self.v_s, self.v_es)]):
            u = eta_e * (vs - 1.0) + (1.0 - eta_e) * (ves - 1.0)
            b, es, e = off, 2 + off, 4 + off
            cm[b, b] = eta * (u + v_m) + 1.0
            cm[es, es] = eta_e * ves + (1.0 - eta_e) * vs
            cm[e, e] = eta + (1.0 - eta) * (v_m + u + 1.0)
            cm[b, es] = cm[es, b] = (ves - vs) * root_c
            cm[b, e] = cm[e, b] = -(u + v_m) * root_e
            cm[es, e] = cm[e, es] = (vs - ves) * root_s
        return cm

    def closed_data_ratio(self) -> float:
        """Ratio of Alice's data on the ES row of :meth:`closed_cm`: the
        side channel is tapped before the modulation."""
        return 0.0

    def pm_cm(self, channel: ChannelModel) -> np.ndarray:
        """Matrix of :func:`build_pm_premod_constructive`."""
        if self.v_es == 1.0:
            cm = _sources((self.v_s, 1.0))
        else:
            cm = append_block(_sources((self.v_s,)), epr_block(self.v_es))
        if not self.v_s == self.v_es == 1.0:
            cm = beamsplitter(cm, 0, 1, self.eta_e)
        wx = np.zeros(len(cm))
        wp = np.zeros(len(cm))
        wx[0] = wp[1] = 1.0
        cm = _modulate(cm, wx, wp, self.v_m)
        return _noisy_channel(cm, 0, channel)


@dataclass(frozen=True)
class ProtocolChoice:
    """Reconciliation direction, attack class and post-processing efficiency."""

    direction: str = DIRECTION_RR
    attack: str = ATTACK_COLLECTIVE
    beta: float = 1.0

    def __post_init__(self):
        direction = str(self.direction).upper()
        if direction not in (DIRECTION_DR, DIRECTION_RR):
            raise ScenarioError(f"direction must be DR or RR, "
                                f"got {self.direction!r}")
        attack = str(self.attack).lower()
        if attack not in (ATTACK_INDIVIDUAL, ATTACK_COLLECTIVE):
            raise ScenarioError(
                f"attack must be individual or collective, "
                f"got {self.attack!r}")
        if not 0.0 < self.beta <= 1.0:
            raise ScenarioError(f"beta must lie in (0, 1], got {self.beta}")
        object.__setattr__(self, "direction", direction)
        object.__setattr__(self, "attack", attack)


def effective_leakage(scenario: MultimodeLeakageScenario) -> tuple[float, float]:
    """Reduce N leakage modes to an equivalent single mode.

    Because every leakage mode carries the same correlated displacement, the
    symmetric mode combination concentrates all of it: the effective mode
    has variance N / sum(1/V_Ln) (the harmonic mean) and modulation ratio
    k_eff = k sqrt(N).  For identical variances this leaves V_L unchanged.
    """
    n = scenario.n_modes
    if n < 1:
        raise ScenarioError("no leakage modes to reduce")
    v_l_eff = n / sum(1.0 / v for v in scenario.leakage_variances)
    k_eff = scenario.k * math.sqrt(n)
    return v_l_eff, k_eff


def distance_to_transmittance(
        distance_km: float,
        attenuation_db_per_km: float = DEFAULT_ATTENUATION_DB_PER_KM) -> float:
    """Transmittance of a fiber of the given length: 10^(-att * d / 10)."""
    _require_finite(distance_km=distance_km)
    if distance_km < 0.0:
        raise ScenarioError(f"distance must be >= 0, got {distance_km}")
    eta = 10.0 ** (-attenuation_db_per_km * distance_km / 10.0)
    if eta == 0.0:
        raise ScenarioError(
            f"distance {distance_km} km at {attenuation_db_per_km} dB/km "
            f"gives a transmittance below the smallest float")
    return eta


def with_parameter(scenario, channel: ChannelModel, name: str,
                   value: float) -> tuple[object, ChannelModel]:
    """Return (scenario, channel) with one named parameter set to value.

    distance_km sets eta through the channel attenuation; eta and epsilon
    are channel fields; any other name is a scenario field.  Setting v_s on
    a multimode scenario whose leakage variances all equal v_s keeps them
    tied to it (a source radiating identical states in every mode).
    """
    if name == "distance_km":
        eta = distance_to_transmittance(value, channel.attenuation_db_per_km)
        return scenario, dataclasses.replace(channel, eta=eta)
    if name in ("eta", "epsilon"):
        return scenario, dataclasses.replace(channel, **{name: value})
    changes = {name: value}
    if (name == "v_s" and isinstance(scenario, MultimodeLeakageScenario)
            and all(v == scenario.v_s for v in scenario.leakage_variances)):
        changes["leakage_variances"] = (value,) * scenario.n_modes
    return dataclasses.replace(scenario, **changes), channel


def channel_output_variance(v_in: float, channel: ChannelModel) -> float:
    """Quadrature variance after the untrusted channel.

    Single point of truth for the excess-noise convention: the channel
    couples the mode to a thermal environment of variance 1 + epsilon on a
    beam splitter of transmittance eta, so

        V_out = eta * V_in + (1 - eta) * (1 + epsilon).

    Equivalently, the channel-input-referred excess noise is
    (1 - eta) * epsilon / eta.
    """
    return channel.eta * v_in + (1.0 - channel.eta) * (1.0 + channel.epsilon)


def _modulate(cm: np.ndarray, wx: np.ndarray, wp: np.ndarray,
              v_m: float) -> np.ndarray:
    """Apply one shared Gaussian displacement to several rows.

    The x rows move by wx times a shared Gaussian of variance v_m and the p
    rows independently by wp times another; adding classical correlated
    noise is a rank-two update of the covariance matrix.
    """
    if v_m < 0.0:
        raise ScenarioError(f"modulation variance must be >= 0, got {v_m}")
    return cm + v_m * (np.outer(wx, wx) + np.outer(wp, wp))


def _environment(channel: ChannelModel) -> tuple[str, ...]:
    """Labels of the purified channel environment (see apply_noisy_channel)."""
    if channel.eta == 1.0:
        return ()
    if channel.epsilon == 0.0:
        return (ENV_MODE,)
    return (ENV_MODE, ENV_TWIN_MODE)


def _noisy_channel(cm: np.ndarray, i: int,
                   channel: ChannelModel) -> np.ndarray:
    """Array core of :func:`apply_noisy_channel` on mode i.

    The environment modes are appended after the existing ones.
    """
    if channel.eta == 1.0:
        return cm
    if channel.epsilon == 0.0:
        env = np.eye(2)
    else:
        env = epr_block(1.0 + channel.epsilon)
    return beamsplitter(append_block(cm, env), i, len(cm) // 2, channel.eta)


def apply_noisy_channel(state: GaussianState, mode: str,
                        channel: ChannelModel
                        ) -> tuple[GaussianState, tuple[str, ...]]:
    """Send one mode through the untrusted channel (eta, epsilon), purified.

    Returns the new state and the labels of the added environment modes,
    which belong to the eavesdropper: the vacuum ENV_MODE for pure loss,
    else an EPR pair (ENV_MODE, ENV_TWIN_MODE) of variance 1 + epsilon, so
    a pure input stays pure.  At eta = 1 the state is returned unchanged.
    Tracing the environment out maps V -> eta V + (1 - eta)(1 + epsilon)
    (:func:`channel_output_variance`) and scales correlations by sqrt(eta).
    """
    i = state.index(mode)
    env = _environment(channel)
    if not env:
        return state, ()
    return GaussianState(state.mode_labels + env,
                         _noisy_channel(state.cm, i, channel),
                         check_physicality=False), env


def _sources(variances: tuple[float, ...]) -> np.ndarray:
    """Product of minimum-uncertainty modes, x variance v and p variance 1/v."""
    return np.diag([w for v in variances for w in (v, 1.0 / v)])




def build_pm_multimode(scenario: MultimodeLeakageScenario,
                       channel: ChannelModel) -> GaussianState:
    """Closed-form prepare-and-measure state over modes B, L, E.

    The checked state of :meth:`MultimodeLeakageScenario.closed_cm`; for
    one leakage mode it is the state of
    :func:`build_pm_multimode_constructive`, modes in the same order.
    """
    return GaussianState(("B", "L", "E"), scenario.closed_cm(channel))


def pm_modes(scenario, channel: ChannelModel) -> tuple[str, ...]:
    """Mode labels of the step-by-step prepare-and-measure matrix.

    B, then the scenario's side modes L1 ... LN or ES[, ES_twin when
    v_es > 1], then the channel environment E_env[, E_env_twin] (none at
    eta = 1).  Points with equal labels have matrices of one layout.
    """
    return ("B",) + scenario.side_modes() + _environment(channel)


def build_pm_multimode_constructive(scenario: MultimodeLeakageScenario,
                                    channel: ChannelModel) -> GaussianState:
    """Prepare-and-measure state of the multimode-leakage protocol.

    Bob's mode B and every leakage mode L1 ... LN start as independent
    minimum-uncertainty sources, receive the shared modulation (ratio k on
    each leakage mode, sign-flipped in p), and B crosses the purified channel
    (:func:`apply_noisy_channel`).  Every mode but B belongs to the
    eavesdropper, so no reduction of the leakage modes is needed.  For one
    leakage mode on a pure-loss channel this is the state of
    :func:`build_pm_multimode`, modes in the same order.  The matrix comes
    from :meth:`MultimodeLeakageScenario.pm_cm`.
    """
    return GaussianState(pm_modes(scenario, channel),
                         scenario.pm_cm(channel), check_physicality=False)


def build_pm_premod(scenario: PremodLeakageScenario,
                    channel: ChannelModel) -> GaussianState:
    """Closed-form prepare-and-measure state over modes B, ES, E.

    The checked state of :meth:`PremodLeakageScenario.closed_cm`; it is
    the (B, ES, E_env) marginal of :func:`build_pm_premod_constructive`.
    """
    return GaussianState(("B", "ES", "E"), scenario.closed_cm(channel))


def build_pm_premod_constructive(scenario: PremodLeakageScenario,
                                 channel: ChannelModel) -> GaussianState:
    """Prepare-and-measure state of the premodulation-leakage protocol.

    The signal source B meets the side-channel input ES on a beam splitter
    of transmittance eta_e, is modulated, and crosses the purified channel
    (:func:`apply_noisy_channel`).  A thermal side-channel input
    (v_es > 1) is one arm of an EPR pair whose twin ES_twin the
    eavesdropper holds too, so every mode but B is hers.  Two vacuum
    inputs leave the beam splitter unchanged; it is skipped then, which
    keeps coherent-state output exactly independent of eta_e.  On a
    pure-loss channel the (B, ES, E_env) marginal is the state of
    :func:`build_pm_premod`.  The matrix comes from
    :meth:`PremodLeakageScenario.pm_cm`.
    """
    return GaussianState(pm_modes(scenario, channel),
                         scenario.pm_cm(channel), check_physicality=False)
