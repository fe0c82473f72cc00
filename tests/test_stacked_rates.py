"""Sweeps evaluate their grid as one stack of covariance matrices.

``cli.run_sweep`` resolves every grid value to its point and then asks
``keyrate.key_rates`` for all rates at once.  These tests pin what that
must not change: every row equals ``key_rate`` at its point, compared with
``==``; sweeps build no labelled state; individual sweeps check each
closed-form matrix exactly once; collective DR stacks give each point the
numbers of its labelled entanglement-based model; and a failure is the one
the point-by-point loop raises first.
"""

import dataclasses
import itertools

import numpy as np
import pytest

from cvleak import cli, keyrate
from cvleak.cli import SweepSpec, format_rows_csv, run_sweep
from cvleak.gaussian import GaussianState, PhysicalityError, physical_covariance
from cvleak.keyrate import (
    build_purified_model,
    holevo_bound,
    key_rate,
    key_rates,
)
from cvleak.optimize import optimize_vm
from cvleak.scenarios import (
    ChannelModel,
    MultimodeLeakageScenario,
    PremodLeakageScenario,
    ProtocolChoice,
    ScenarioError,
    with_parameter,
)

MULTIMODE = MultimodeLeakageScenario(v_s=0.5, v_m=4.0, k=0.6,
                                     leakage_variances=(0.5,))
PREMOD = PremodLeakageScenario(v_s=0.4, v_m=6.0, eta_e=0.7, v_es=1.5)

# Each axis starts where the matrix layout differs from the rest of the
# grid where it can: distance 0 (eta = 1, no channel environment),
# epsilon 0 (no environment twin), v_es 1 (no side-channel twin), and
# eta_e reaches 1.
AXES = {
    "v_s": (0.3, 1.0, "linear"),
    "v_m": (0.5, 50.0, "log"),
    "k": (0.0, 2.0, "linear"),
    "eta_e": (0.5, 1.0, "linear"),
    "v_es": (1.0, 3.0, "linear"),
    "eta": (0.3, 1.0, "linear"),
    "epsilon": (0.0, 0.05, "linear"),
    "distance_km": (0.0, 40.0, "linear"),
}
PROTOCOLS = [ProtocolChoice("RR", "individual", 1.0),
             ProtocolChoice("DR", "individual", 1.0),
             ProtocolChoice("RR", "collective", 0.95),
             ProtocolChoice("DR", "collective", 0.95)]


def _cases():
    for scenario, protocol, axis in itertools.product(
            (MULTIMODE, PREMOD), PROTOCOLS, AXES):
        if not hasattr(scenario, axis) and axis in ("k", "eta_e", "v_es"):
            continue
        if axis == "epsilon" and protocol.attack == "individual":
            continue
        yield scenario, protocol, axis


def _channel(protocol):
    epsilon = 0.0 if protocol.attack == "individual" else 0.01
    return ChannelModel(eta=0.4, epsilon=epsilon)


def _point_by_point(scenario, channel, protocol, spec):
    """The rows of a sweep from one key_rate call per grid value."""
    rows = []
    for value in spec.grid():
        sc, ch = with_parameter(scenario, channel, spec.axis, value)
        row = {spec.axis: value}
        if spec.optimize_v_m:
            v_m = optimize_vm(sc, ch, protocol).x
            sc, ch = with_parameter(sc, ch, "v_m", v_m)
        report = key_rate(sc, ch, protocol)
        row.update({"rate": report.rate, "i_ab": report.i_ab,
                    "eve_information": report.eve_information,
                    "secure": report.secure})
        if spec.optimize_v_m:
            row["optimized_v_m"] = v_m
        rows.append(row)
    return rows


def _case_id(value):
    if isinstance(value, ProtocolChoice):
        return f"{value.direction}-{value.attack}"
    if dataclasses.is_dataclass(value):
        return type(value).__name__
    return str(value)


@pytest.mark.parametrize("scenario, protocol, axis", list(_cases()),
                         ids=_case_id)
def test_stack_equals_point_by_point(scenario, protocol, axis):
    start, stop, scale = AXES[axis]
    spec = SweepSpec(axis=axis, start=start, stop=stop, steps=5, scale=scale)
    channel = _channel(protocol)
    rows = run_sweep(scenario, channel, protocol, spec)
    want = _point_by_point(scenario, channel, protocol, spec)
    assert rows == want
    assert format_rows_csv(rows) == format_rows_csv(want)
    for row in rows:
        assert type(row["rate"]) is float and type(row["secure"]) is bool


@pytest.mark.parametrize("scenario, protocol", [
    (MULTIMODE, ProtocolChoice("RR", "collective", 0.95)),
    (PREMOD, ProtocolChoice("RR", "individual", 1.0))])
def test_optimized_sweep_equals_point_by_point(scenario, protocol):
    spec = SweepSpec(axis="distance_km", start=0.0, stop=30.0, steps=3,
                     optimize_v_m=True)
    channel = _channel(protocol)
    rows = run_sweep(scenario, channel, protocol, spec)
    assert rows == _point_by_point(scenario, channel, protocol, spec)


class TestStackGuarantees:
    @pytest.mark.parametrize("scenario, protocol, axis", list(_cases()),
                             ids=_case_id)
    def test_no_labelled_state(self, monkeypatch, scenario, protocol, axis):
        built = []
        original = GaussianState.__post_init__

        def counted(self, *args, **kwargs):
            built.append(self.mode_labels)
            original(self, *args, **kwargs)

        monkeypatch.setattr(GaussianState, "__post_init__", counted)
        start, stop, scale = AXES[axis]
        spec = SweepSpec(axis=axis, start=start, stop=stop, steps=4,
                         scale=scale)
        run_sweep(scenario, _channel(protocol), protocol, spec)
        assert built == []

    @pytest.mark.parametrize("scenario, direction", itertools.product(
        (MULTIMODE, PREMOD), ("RR", "DR")), ids=_case_id)
    def test_one_physicality_check_per_point(self, monkeypatch, scenario,
                                             direction):
        checked = []
        original = keyrate.physical_covariance

        def counted(cm, *args, **kwargs):
            checked.append(len(cm) if cm.ndim > 2 else 1)
            return original(cm, *args, **kwargs)

        monkeypatch.setattr(keyrate, "physical_covariance", counted)
        spec = SweepSpec(axis="distance_km", start=0.0, stop=50.0, steps=7)
        protocol = ProtocolChoice(direction, "individual", 1.0)
        run_sweep(scenario, _channel(protocol), protocol, spec)
        assert sum(checked) == 7

    def test_one_unphysical_matrix_raises(self):
        good = np.diag([2.0, 0.5, 1.0, 1.0])
        stack = np.array([good, good, np.diag([0.5, 0.5, 1.0, 1.0]), good])
        with pytest.raises(PhysicalityError, match="0.5"):
            physical_covariance(stack)
        assert np.array_equal(physical_covariance(stack[[0, 1, 3]]),
                              stack[[0, 1, 3]])
        asymmetric = stack[[0, 1]].copy()
        asymmetric[1, 0, 2] = 0.1
        with pytest.raises(PhysicalityError, match="not symmetric"):
            physical_covariance(asymmetric)


class TestMixedKinds:
    """A stack that interleaves both scenario kinds, with mode layouts that
    differ from point to point (eta = 1 has no channel environment, v_es > 1
    adds a side-channel twin, N leakage modes add N rows), gives every
    point exactly what key_rate gives it alone."""

    SCENARIOS = [MULTIMODE, dataclasses.replace(PREMOD, v_es=1.0),
                 dataclasses.replace(MULTIMODE, leakage_variances=(0.5, 0.8)),
                 PREMOD,
                 dataclasses.replace(MULTIMODE, leakage_variances=()),
                 dataclasses.replace(PREMOD, v_s=1.0, v_es=1.0),
                 dataclasses.replace(MULTIMODE, v_m=0.0)]

    @pytest.mark.parametrize("protocol", PROTOCOLS[:3], ids=_case_id)
    def test_interleaved_kinds_equal_point_by_point(self, monkeypatch,
                                                    protocol):
        epsilon = 0.0 if protocol.attack == "individual" else 0.01
        points = [(sc, ChannelModel(eta=eta, epsilon=epsilon))
                  for eta in (1.0, 0.4) for sc in self.SCENARIOS]
        want = [key_rate(sc, ch, protocol) for sc, ch in points]
        checked = []
        original = keyrate.physical_covariance

        def counted(cm, *args, **kwargs):
            checked.append(len(cm))
            return original(cm, *args, **kwargs)

        monkeypatch.setattr(keyrate, "physical_covariance", counted)
        assert key_rates(points, protocol) == want
        if protocol.attack == "individual":
            # Both kinds share one closed-form stack.
            assert checked == [len(points)]


class TestDrLayouts:
    """Collective DR points of mixed entanglement-based layouts in one
    call (leakage-mode count, heterodyne readout at v_s = 1, side-channel
    twin at v_es > 1, channel environment) give each point the chi and
    v_b of its labelled model, bit for bit, from one stack per layout."""

    SCENARIOS = [dataclasses.replace(MULTIMODE, leakage_variances=()),
                 MULTIMODE,
                 dataclasses.replace(MULTIMODE, leakage_variances=(0.5,) * 3),
                 dataclasses.replace(MULTIMODE, v_s=1.0,
                                     leakage_variances=(1.0,)),
                 dataclasses.replace(PREMOD, v_es=1.0),
                 dataclasses.replace(PREMOD, v_es=3.0),
                 dataclasses.replace(PREMOD, v_s=1.0)]
    CHANNELS = [ChannelModel(eta=1.0), ChannelModel(eta=0.4),
                ChannelModel(eta=0.4, epsilon=0.01)]

    def test_stack_equals_labelled_model(self, monkeypatch):
        points = [(sc, ch) for ch in self.CHANNELS for sc in self.SCENARIOS]
        stacks = []
        original = keyrate._purity_clamps

        def counted(pre):
            stacks.append(len(pre))
            return original(pre)

        monkeypatch.setattr(keyrate, "_purity_clamps", counted)
        reports = key_rates(points, PROTOCOLS[3])
        # Five EB layouts (the three multimode scenarios without a
        # heterodyne readout share one) times three channel environments.
        assert sorted(stacks) == [1] * 12 + [3] * 3
        for (sc, ch), report in zip(points, reports):
            model = build_purified_model(sc, ch)
            assert report.eve_information == holevo_bound(model, "DR")
            assert (report.conditional_variances["v_b"]
                    == model.state.variance("B", "x"))


class TestFailureOrder:
    """A stack that fails raises the error of the first failing point."""

    DR = ProtocolChoice("DR", "collective", 0.95)
    # Premodulation DR: PhysicalityError at this strongly squeezed point
    # (perfbench.worker.CENSUS), ScenarioError beyond the EB model's v_m
    # window.
    CHANNEL = ChannelModel(eta=0.9120108393559098,
                           epsilon=0.015027509378388489)
    UNPHYSICAL = PremodLeakageScenario(v_s=0.005268349971047464,
                                       v_m=21.28721496597192,
                                       eta_e=0.5313206207169936)
    OUT_OF_WINDOW = PremodLeakageScenario(v_s=0.5, v_m=2e5, eta_e=0.53)

    @pytest.mark.parametrize("first, error", [
        (UNPHYSICAL, PhysicalityError), (OUT_OF_WINDOW, ScenarioError)])
    def test_first_failing_point_wins(self, first, error):
        second = (self.OUT_OF_WINDOW if first is self.UNPHYSICAL
                  else self.UNPHYSICAL)
        good = dataclasses.replace(PREMOD, v_es=1.0)
        with pytest.raises(error):
            key_rates([(good, self.CHANNEL), (first, self.CHANNEL),
                       (second, self.CHANNEL)], self.DR)

    def test_unphysical_point_before_an_invalid_grid_value(self):
        # The first grid value fails; v_s = 2 is outside the domain.
        spec = SweepSpec(axis="v_s", start=self.UNPHYSICAL.v_s, stop=2.0,
                         steps=3)
        with pytest.raises(PhysicalityError):
            run_sweep(self.UNPHYSICAL, self.CHANNEL, self.DR, spec)
        with pytest.raises(PhysicalityError):
            cli.key_rate(self.UNPHYSICAL, self.CHANNEL, self.DR)
