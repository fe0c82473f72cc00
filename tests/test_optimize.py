"""Tests for the optimizers and security-boundary searches."""

import math

import numpy as np
import pytest

from cvleak import optimize
from cvleak.keyrate import key_rate, key_rate_collective, multimode_asymptotics
from cvleak.optimize import (
    VM_BRACKET,
    VM_TOL,
    bisect_zero,
    brent_max,
    golden_section_max,
    max_tolerable_k,
    optimize_squeezing,
    optimize_vm,
    secure_distance,
)
from cvleak.scenarios import (
    ChannelModel,
    MultimodeLeakageScenario,
    PremodLeakageScenario,
    ProtocolChoice,
    ScenarioError,
    with_parameter,
)


def multimode(v_s=0.5, v_m=4.0, k=0.0, v_l=None, n=1):
    v_l = v_s if v_l is None else v_l
    return MultimodeLeakageScenario(v_s=v_s, v_m=v_m, k=k,
                                    leakage_variances=(v_l,) * n)


class TestSearchPrimitives:
    def test_golden_finds_quadratic_maximum(self):
        result = golden_section_max(lambda x: -(x - 2.3) ** 2, 0.0, 10.0,
                                    1e-6)
        assert result.x == pytest.approx(2.3, abs=1e-5)
        assert result.converged

    def test_golden_monotone_lands_on_edge(self):
        result = golden_section_max(lambda x: x, 0.0, 5.0, 1e-6)
        assert result.x == pytest.approx(5.0, abs=1e-5)

    def test_bisect_root(self):
        result = bisect_zero(lambda x: 1.0 - x * x, 0.0, 3.0, 1e-8)
        assert result.x == pytest.approx(1.0, abs=1e-7)
        assert result.bracket == (0.0, 3.0)

    def test_bisect_needs_sign_change(self):
        with pytest.raises(ValueError):
            bisect_zero(lambda x: 1.0 + x, 0.0, 3.0, 1e-8)

    def test_brent_finds_quadratic_maximum(self):
        calls = []

        def f(x):
            calls.append(x)
            return -(x - 2.3) ** 2
        result = brent_max(f, 0.0, 10.0, 1e-6)
        # Three golden-section probes, then a parabola through them is
        # exact; two steps of tol / 2 close the bracket around its vertex.
        assert len(calls) == result.iterations + 1 == 6
        assert result.x == pytest.approx(2.3, abs=1e-6)
        assert result.value == f(result.x)
        assert result.converged and result.bracket == (0.0, 10.0)

    def test_brent_monotone_lands_within_tol_of_edge(self):
        for f, edge in ((lambda x: x, 5.0), (lambda x: -x, 0.0)):
            result = brent_max(f, 0.0, 5.0, 1e-6)
            assert abs(result.x - edge) <= 1e-6
            assert 0.0 < result.x < 5.0

    def test_brent_negative_everywhere(self):
        result = brent_max(lambda x: -3.0 - math.cos(x), 0.0, 6.0, 1e-5)
        assert result.x == pytest.approx(math.pi, abs=1e-5)
        assert result.value == pytest.approx(-2.0, abs=1e-9)

    def test_brent_empty_bracket(self):
        with pytest.raises(ValueError):
            brent_max(lambda x: x, 1.0, 1.0, 1e-6)


class TestOptimizeVm:
    def test_perfect_postprocessing_pushes_to_edge(self):
        proto = ProtocolChoice("RR", "collective", 1.0)
        result = optimize_vm(multimode(k=0.3), ChannelModel(eta=0.4),
                             proto, bracket=(1e-3, 50.0))
        assert result.x == pytest.approx(50.0, abs=1e-3)
        assert result.converged

    def test_interior_optimum_for_beta_below_one(self):
        proto = ProtocolChoice("RR", "collective", 0.95)
        result = optimize_vm(multimode(k=0.0), ChannelModel(eta=0.1,
                                                            epsilon=0.01),
                             proto)
        assert 1.0 < result.x < 100.0
        assert result.converged

    def test_local_maximum_certificate(self):
        proto = ProtocolChoice("RR", "collective", 0.95)
        ch = ChannelModel(eta=0.1, epsilon=0.01)
        sc = multimode(k=0.3)
        result = optimize_vm(sc, ch, proto)

        def rate_at(v_m):
            import dataclasses
            return key_rate_collective(dataclasses.replace(sc, v_m=v_m),
                                       ch, proto).rate
        for shift in (-10.0 * 1e-4, 10.0 * 1e-4):
            assert result.value >= rate_at(result.x + shift) - 1e-9

    def test_all_negative_objective_still_converges(self):
        proto = ProtocolChoice("RR", "collective", 0.9)
        # strong leakage at high loss: no positive rate anywhere
        result = optimize_vm(multimode(v_s=0.1, k=3.0),
                             ChannelModel(eta=0.05, epsilon=0.05), proto)
        assert result.converged
        assert result.value < 0.0


def _vm_objective(scenario, channel, protocol):
    def objective(v_m):
        sc, ch = with_parameter(scenario, channel, "v_m", v_m)
        return key_rate(sc, ch, protocol).rate
    return objective


def _counted_optimize_vm(monkeypatch, scenario, channel, protocol):
    """optimize_vm and the number of rates its objective evaluated."""
    calls = []

    def counted(*args):
        calls.append(args)
        return key_rate(*args)
    with monkeypatch.context() as patch:
        patch.setattr(optimize, "key_rate", counted)
        result = optimize_vm(scenario, channel, protocol)
    return result, len(calls)


def _search_points(betas):
    """Fixed (scenario, channel) points: both scenarios, a range of
    squeezing, leakage and loss, excess noise 0 and > 0 where the protocol
    allows it."""
    rng = np.random.default_rng(2023)
    points = []
    for i in range(8):
        v_s = float(rng.uniform(0.1, 1.0))
        if i % 2:
            sc = multimode(v_s=v_s, k=float(rng.uniform(0.0, 1.2)))
        else:
            sc = PremodLeakageScenario(v_s=v_s, v_m=1.0,
                                       eta_e=float(rng.uniform(0.5, 1.0)))
        eta = float(rng.uniform(0.1, 0.9))
        for beta in betas:
            epsilons = (0.0,) if beta == 1.0 else (
                0.0, float(rng.uniform(0.005, 0.03)))
            for eps in epsilons:
                points.append((sc, ChannelModel(eta=eta, epsilon=eps),
                               beta))
    return points


class TestVmSearchRoutes:
    """Brent's method on ln v_m, except collective DR (golden section)."""

    @pytest.mark.parametrize("bracket", [(0.0, 10.0), (-1.0, 10.0),
                                         (10.0, 10.0), (10.0, 1.0),
                                         (1.0, math.inf)])
    def test_bad_bracket_rejected(self, bracket):
        proto = ProtocolChoice("RR", "collective", 0.95)
        with pytest.raises(ValueError, match="bracket"):
            optimize_vm(multimode(), ChannelModel(eta=0.5), proto,
                        bracket=bracket)

    @pytest.mark.parametrize("scenario", [
        multimode(v_s=0.6, k=0.4),
        PremodLeakageScenario(v_s=0.6, v_m=4.0, eta_e=0.8)])
    def test_collective_dr_is_golden_section(self, scenario):
        proto = ProtocolChoice("DR", "collective", 0.95)
        ch = ChannelModel(eta=0.8, epsilon=0.01)
        golden = golden_section_max(_vm_objective(scenario, ch, proto),
                                    *VM_BRACKET, VM_TOL)
        assert optimize_vm(scenario, ch, proto) == golden

    def test_interior_optima_in_few_rates(self, monkeypatch):
        # Collective RR with beta < 1: the rate peaks inside the bracket,
        # where golden section takes 37 rates per search.
        counts = []
        for sc, ch, beta in _search_points((0.9, 0.95)):
            proto = ProtocolChoice("RR", "collective", beta)
            result, n = _counted_optimize_vm(monkeypatch, sc, ch, proto)
            golden = golden_section_max(_vm_objective(sc, ch, proto),
                                        *VM_BRACKET, VM_TOL)
            assert VM_BRACKET[0] < golden.x < VM_BRACKET[1] - 1.0
            assert result.value >= golden.value - 1e-7
            assert abs(result.x - golden.x) <= 1e-2 * golden.x
            counts.append(n)
        assert len(counts) == 32
        assert np.mean(counts) <= 18.0

    def test_edge_optima_match_golden_section(self, monkeypatch):
        # Individual attacks and beta = 1 rates are monotone in v_m, so the
        # optimum is a bracket edge.  Parabolas do not help there: the
        # search closes on the edge by golden-section steps on ln v_m.
        protocols = (ProtocolChoice("RR", "individual", 1.0),
                     ProtocolChoice("DR", "individual", 1.0),
                     ProtocolChoice("RR", "collective", 1.0))
        for sc, ch, _ in _search_points((1.0,)):
            for proto in protocols:
                result, n = _counted_optimize_vm(monkeypatch, sc, ch, proto)
                golden = golden_section_max(_vm_objective(sc, ch, proto),
                                            *VM_BRACKET, VM_TOL)
                edge = min(VM_BRACKET, key=lambda e: abs(e - golden.x))
                assert abs(result.x - edge) <= VM_TOL
                assert result.value >= golden.value - 1e-7
                assert n <= 44


class TestOptimizeSqueezing:
    def test_strong_modulation_track_matches_closed_form(self):
        proto = ProtocolChoice("RR", "individual", 1.0)
        for eta, k in ((0.5, 1.0), (0.3, 0.6)):
            result = optimize_squeezing(multimode(k=k),
                                        ChannelModel(eta=eta), proto,
                                        strong_modulation=True)
            want = multimode_asymptotics(0.5, eta, k)["v_opt"]
            assert abs(result.x - want) < 1e-3

    def test_large_ratio_pushes_to_coherent(self):
        proto = ProtocolChoice("RR", "individual", 1.0)
        result = optimize_squeezing(multimode(k=40.0),
                                    ChannelModel(eta=0.5), proto,
                                    strong_modulation=True)
        assert result.x > 0.99

    def test_optimized_beats_fixed_points(self):
        proto = ProtocolChoice("RR", "collective", 0.95)
        ch = ChannelModel(eta=0.2, epsilon=0.01)
        sc = multimode(v_s=0.5, k=0.5)
        best = optimize_squeezing(sc, ch, proto)
        import dataclasses
        for v in (0.5, 1.0):
            probe = dataclasses.replace(
                sc, v_s=v, leakage_variances=(v,))
            fixed = optimize_vm(probe, ch, proto).value
            assert best.value >= fixed - 1e-9

    def test_nested_optimum_dominates_validation_grid(self):
        proto = ProtocolChoice("RR", "collective", 0.95)
        ch = ChannelModel(eta=0.25, epsilon=0.02)
        sc = multimode(k=0.6)
        best = optimize_squeezing(sc, ch, proto)
        grid_best = -math.inf
        for v_s in np.linspace(1e-3, 1.0, 20):
            for v_m in np.geomspace(1e-3, 1e3, 20):
                probe = MultimodeLeakageScenario(
                    v_s=v_s, v_m=v_m, k=0.6, leakage_variances=(v_s,))
                grid_best = max(grid_best,
                                key_rate_collective(probe, ch, proto).rate)
        assert best.value >= grid_best - 1e-6

    def test_leakage_tied_by_default(self):
        proto = ProtocolChoice("RR", "individual", 1.0)
        tied = optimize_squeezing(multimode(v_s=0.5, k=0.8),
                                  ChannelModel(eta=0.5), proto,
                                  strong_modulation=True)
        fixed = optimize_squeezing(multimode(v_s=0.5, k=0.8, v_l=1.0),
                                   ChannelModel(eta=0.5), proto,
                                   strong_modulation=True)
        assert tied.x != pytest.approx(fixed.x, abs=1e-4)


class TestSecureDistance:
    def test_leakage_shortens_distance(self):
        proto = ProtocolChoice("RR", "collective", 0.97)
        ch = ChannelModel(eta=0.5, epsilon=0.01)
        distances = [secure_distance(multimode(v_s=0.5, k=k), proto,
                                     ch).x for k in (0.0, 1.0, 1.5)]
        assert distances[0] > distances[1] > distances[2]
        assert all(d > 1.0 for d in distances)

    def test_premod_coupling_shortens_distance(self):
        proto = ProtocolChoice("RR", "collective", 0.97)
        ch = ChannelModel(eta=0.5, epsilon=0.05)
        d_open = secure_distance(
            PremodLeakageScenario(v_s=0.5, v_m=4.0, eta_e=0.5), proto,
            ch).x
        d_closed = secure_distance(
            PremodLeakageScenario(v_s=0.5, v_m=4.0, eta_e=1.0), proto,
            ch).x
        assert d_open < d_closed

    def test_insecure_at_contact(self):
        # Direct reconciliation with above-unity leakage modulation is
        # already broken on a perfect channel.
        proto = ProtocolChoice("DR", "collective", 0.95)
        result = secure_distance(multimode(v_s=0.5, k=1.5), proto,
                                 ChannelModel(eta=0.5, epsilon=0.05))
        assert result.x == 0.0
        assert result.converged
        assert result.value <= 0.0

    def test_cap_reported_as_lower_bound(self):
        proto = ProtocolChoice("RR", "individual", 1.0)
        # coherent protocol on a pure-loss channel never loses security
        result = secure_distance(multimode(v_s=1.0, v_m=50.0, k=0.0,
                                           v_l=1.0),
                                 proto, ChannelModel(eta=0.5), d_max=80.0)
        assert not result.converged
        assert result.x == pytest.approx(80.0)
        assert result.value > 0.0

    def test_cap_below_first_probe(self):
        proto = ProtocolChoice("RR", "collective", 0.95)
        result = secure_distance(multimode(v_s=0.5, v_m=1.0, k=0.2), proto,
                                 ChannelModel(eta=1.0, epsilon=0.01),
                                 d_max=1.0)
        assert result.x == 1.0
        assert not result.converged
        assert result.value > 0.0

    @pytest.mark.parametrize("d_max", [0.0, -5.0, math.nan, math.inf])
    def test_bad_cap_rejected_by_name(self, d_max):
        proto = ProtocolChoice("RR", "collective", 0.95)
        with pytest.raises(ScenarioError, match="d_max"):
            secure_distance(multimode(), proto, ChannelModel(eta=1.0),
                            d_max=d_max)

    def test_bisection_tolerance(self):
        proto = ProtocolChoice("RR", "collective", 0.97)
        result = secure_distance(multimode(v_s=0.5, k=0.5), proto,
                                 ChannelModel(eta=0.5, epsilon=0.01))
        assert result.converged
        assert result.bracket[1] - result.bracket[0] >= 0.01


class TestMaxTolerableK:
    def test_closed_form_value(self):
        proto = ProtocolChoice("RR", "individual", 1.0)
        result = max_tolerable_k(multimode(v_s=0.5), ChannelModel(eta=0.5),
                                 proto, strong_modulation=True)
        assert result.x == pytest.approx(math.sqrt(5.0), abs=1e-3)
        assert result.converged

    def test_coherent_unbounded(self):
        proto = ProtocolChoice("RR", "individual", 1.0)
        result = max_tolerable_k(multimode(v_s=1.0, v_l=1.0),
                                 ChannelModel(eta=0.5), proto,
                                 strong_modulation=True)
        assert result.x == math.inf
        assert not result.converged

    def test_noisy_channel_crossing_window(self):
        proto = ProtocolChoice("RR", "collective", 0.95)
        result = max_tolerable_k(multimode(v_s=0.5),
                                 ChannelModel(eta=0.1, epsilon=0.01),
                                 proto)
        assert 0.5 <= result.x <= 1.0

    def test_insecure_at_zero_rejected(self):
        proto = ProtocolChoice("RR", "collective", 0.9)
        with pytest.raises(ScenarioError):
            max_tolerable_k(multimode(v_s=0.1),
                            ChannelModel(eta=0.05, epsilon=0.1), proto)

    def test_premod_scenario_rejected(self):
        proto = ProtocolChoice("RR", "collective", 0.95)
        with pytest.raises(ScenarioError):
            max_tolerable_k(PremodLeakageScenario(v_s=0.5, v_m=4.0),
                            ChannelModel(eta=0.5), proto)


class TestDeterminism:
    def test_identical_inputs_identical_outputs(self):
        proto = ProtocolChoice("RR", "collective", 0.95)
        ch = ChannelModel(eta=0.2, epsilon=0.01)
        a = optimize_vm(multimode(k=0.4), ch, proto)
        b = optimize_vm(multimode(k=0.4), ch, proto)
        assert a == b
