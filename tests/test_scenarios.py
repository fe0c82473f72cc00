"""Tests for the scenario types, builders and the channel model."""

import math

import numpy as np
import pytest

from cvleak.gaussian import partial_trace, symplectic_eigenvalues
from cvleak.scenarios import (
    ENV_MODE,
    ChannelModel,
    MultimodeLeakageScenario,
    PremodLeakageScenario,
    ProtocolChoice,
    ScenarioError,
    apply_noisy_channel,
    build_pm_multimode,
    build_pm_multimode_constructive,
    build_pm_premod,
    build_pm_premod_constructive,
    channel_output_variance,
    distance_to_transmittance,
    effective_leakage,
    with_parameter,
)


class TestDomainValidation:
    def test_channel_domains(self):
        with pytest.raises(ScenarioError):
            ChannelModel(eta=0.0)
        with pytest.raises(ScenarioError):
            ChannelModel(eta=1.2)
        with pytest.raises(ScenarioError):
            ChannelModel(eta=0.5, epsilon=-0.1)

    def test_multimode_domains(self):
        with pytest.raises(ScenarioError):
            MultimodeLeakageScenario(v_s=1.5, v_m=1.0)
        with pytest.raises(ScenarioError):
            MultimodeLeakageScenario(v_s=0.5, v_m=-1.0)
        with pytest.raises(ScenarioError):
            MultimodeLeakageScenario(v_s=0.5, v_m=1.0, k=-0.2)
        with pytest.raises(ScenarioError):
            MultimodeLeakageScenario(v_s=0.5, v_m=1.0,
                                     leakage_variances=(0.0,))

    def test_premod_domains(self):
        with pytest.raises(ScenarioError):
            PremodLeakageScenario(v_s=0.5, v_m=1.0, eta_e=0.0)
        with pytest.raises(ScenarioError):
            PremodLeakageScenario(v_s=0.5, v_m=1.0, v_es=0.5)

    def test_protocol_domains(self):
        with pytest.raises(ScenarioError):
            ProtocolChoice(direction="sideways")
        with pytest.raises(ScenarioError):
            ProtocolChoice(beta=0.0)
        proto = ProtocolChoice(direction="rr", attack="COLLECTIVE",
                               beta=0.9)
        assert proto.direction == "RR"
        assert proto.attack == "collective"

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("cls, field", [
        (MultimodeLeakageScenario, "v_s"),
        (MultimodeLeakageScenario, "v_m"),
        (MultimodeLeakageScenario, "k"),
        (MultimodeLeakageScenario, "leakage_variances"),
        (PremodLeakageScenario, "v_s"),
        (PremodLeakageScenario, "v_m"),
        (PremodLeakageScenario, "eta_e"),
        (PremodLeakageScenario, "v_es"),
        (ChannelModel, "eta"),
        (ChannelModel, "epsilon"),
        (ChannelModel, "attenuation_db_per_km"),
    ])
    def test_non_finite_rejected_by_name(self, cls, field, value):
        kwargs = (dict(eta=0.5) if cls is ChannelModel
                  else dict(v_s=0.5, v_m=1.0))
        kwargs[field] = ((0.5, value) if field == "leakage_variances"
                         else value)
        with pytest.raises(ScenarioError, match=field):
            cls(**kwargs)


class TestWithParameter:
    def test_distance_sets_eta_through_attenuation(self):
        sc = MultimodeLeakageScenario(v_s=0.5, v_m=1.0)
        ch = ChannelModel(eta=0.9, epsilon=0.01, attenuation_db_per_km=0.25)
        sc2, ch2 = with_parameter(sc, ch, "distance_km", 20.0)
        assert sc2 is sc
        assert ch2 == ChannelModel(eta=distance_to_transmittance(20.0, 0.25),
                                   epsilon=0.01, attenuation_db_per_km=0.25)

    def test_channel_fields(self):
        sc = PremodLeakageScenario(v_s=0.5, v_m=1.0)
        ch = ChannelModel(eta=0.9)
        assert with_parameter(sc, ch, "eta", 0.3)[1].eta == 0.3
        assert with_parameter(sc, ch, "epsilon", 0.02)[1].epsilon == 0.02

    def test_tied_leakage_follows_v_s(self):
        ch = ChannelModel(eta=0.9)
        tied = MultimodeLeakageScenario(v_s=0.5, v_m=1.0,
                                        leakage_variances=(0.5, 0.5))
        untied = MultimodeLeakageScenario(v_s=0.5, v_m=1.0,
                                          leakage_variances=(0.5, 1.0))
        assert with_parameter(tied, ch, "v_s", 0.2)[0].leakage_variances \
            == (0.2, 0.2)
        assert with_parameter(untied, ch, "v_s", 0.2)[0].leakage_variances \
            == (0.5, 1.0)
        # Only v_s carries the leakage variances along.
        assert with_parameter(tied, ch, "v_m", 3.0)[0] == \
            MultimodeLeakageScenario(v_s=0.5, v_m=3.0,
                                     leakage_variances=(0.5, 0.5))


class TestEffectiveLeakage:
    def test_single_mode_identity(self):
        sc = MultimodeLeakageScenario(v_s=0.5, v_m=1.0, k=0.4,
                                      leakage_variances=(0.7,))
        assert effective_leakage(sc) == pytest.approx((0.7, 0.4))

    def test_four_identical_modes(self):
        sc = MultimodeLeakageScenario(v_s=0.5, v_m=1.0, k=0.3,
                                      leakage_variances=(0.5,) * 4)
        assert effective_leakage(sc) == pytest.approx((0.5, 0.6))

    def test_harmonic_mean(self):
        sc = MultimodeLeakageScenario(v_s=0.5, v_m=1.0, k=0.3,
                                      leakage_variances=(1.0, 1.0 / 3.0))
        v_eff, _ = effective_leakage(sc)
        assert v_eff == pytest.approx(0.5)

    def test_no_modes_rejected(self):
        sc = MultimodeLeakageScenario(v_s=0.5, v_m=1.0,
                                      leakage_variances=())
        with pytest.raises(ScenarioError):
            effective_leakage(sc)


class TestDistance:
    def test_zero_distance(self):
        assert distance_to_transmittance(0.0) == 1.0

    def test_fifty_km(self):
        assert distance_to_transmittance(50.0) == pytest.approx(0.1)

    def test_fifteen_km(self):
        # 10^(-0.3), frozen from direct evaluation
        assert distance_to_transmittance(15.0) == pytest.approx(
            0.5011872336272722)

    def test_negative_rejected(self):
        with pytest.raises(ScenarioError):
            distance_to_transmittance(-1.0)


class TestMultimodeBuilder:
    def test_matches_constructive_oracle(self):
        rng = np.random.default_rng(123)
        for _ in range(20):
            sc = MultimodeLeakageScenario(
                v_s=rng.uniform(0.1, 1.0),
                v_m=rng.uniform(0.1, 20.0),
                k=rng.uniform(0.0, 2.0),
                leakage_variances=(rng.uniform(0.1, 2.0),))
            ch = ChannelModel(eta=rng.uniform(0.05, 1.0))
            direct = build_pm_multimode(sc, ch)
            step = build_pm_multimode_constructive(sc, ch)
            assert np.max(np.abs(direct.cm - step.cm)) < 1e-10

    def test_no_leakage_no_loss(self):
        sc = MultimodeLeakageScenario(v_s=0.5, v_m=4.0, k=0.0,
                                      leakage_variances=(0.5,))
        st = build_pm_multimode(sc, ChannelModel(eta=1.0))
        assert np.allclose(st.block("B", "L"), 0.0)
        assert np.allclose(st.block("B", "E"), 0.0)
        assert np.allclose(st.block("E", "E"), np.eye(2))

    def test_leakage_correlation_scaling(self):
        sc = MultimodeLeakageScenario(v_s=0.5, v_m=4.0, k=0.7,
                                      leakage_variances=(0.5,))
        pre = build_pm_multimode(sc, ChannelModel(eta=1.0))
        post = build_pm_multimode(sc, ChannelModel(eta=0.36))
        assert pre.block("B", "L")[0, 0] == pytest.approx(0.7 * 4.0)
        assert post.block("B", "L")[0, 0] == pytest.approx(
            0.7 * 4.0 * math.sqrt(0.36))

    def test_bob_variances(self):
        sc = MultimodeLeakageScenario(v_s=0.5, v_m=4.0, k=0.7,
                                      leakage_variances=(0.5,))
        st = build_pm_multimode(sc, ChannelModel(eta=0.6))
        assert st.variance("B", "x") == pytest.approx(0.6 * 3.5 + 1.0)
        assert st.variance("B", "p") == pytest.approx(0.6 * 5.0 + 1.0)

    def test_reduces_n_modes_internally(self):
        sc4 = MultimodeLeakageScenario(v_s=0.5, v_m=4.0, k=0.3,
                                       leakage_variances=(0.5,) * 4)
        sc1 = MultimodeLeakageScenario(v_s=0.5, v_m=4.0, k=0.6,
                                       leakage_variances=(0.5,))
        ch = ChannelModel(eta=0.4)
        assert np.max(np.abs(build_pm_multimode(sc4, ch).cm
                             - build_pm_multimode(sc1, ch).cm)) < 1e-12

    def test_output_is_physical(self):
        sc = MultimodeLeakageScenario(v_s=0.2, v_m=30.0, k=1.5,
                                      leakage_variances=(1.3,))
        st = build_pm_multimode(sc, ChannelModel(eta=0.3))
        assert np.min(symplectic_eigenvalues(st)) >= 1.0 - 1e-9

    def test_noisy_channel_rejected(self):
        sc = MultimodeLeakageScenario(v_s=0.5, v_m=4.0)
        with pytest.raises(ScenarioError):
            build_pm_multimode(sc, ChannelModel(eta=0.5, epsilon=0.01))


class TestPremodBuilder:
    def test_matches_constructive_oracle(self):
        rng = np.random.default_rng(321)
        for _ in range(20):
            sc = PremodLeakageScenario(
                v_s=rng.uniform(0.1, 1.0),
                v_m=rng.uniform(0.1, 20.0),
                eta_e=rng.uniform(0.05, 1.0),
                v_es=1.0 if rng.random() < 0.5 else rng.uniform(1.0, 2.0))
            ch = ChannelModel(eta=rng.uniform(0.05, 1.0))
            direct = build_pm_premod(sc, ch)
            # The constructive state also holds the eavesdropper's twin of
            # a thermal side-channel input (ES_twin).
            step = partial_trace(build_pm_premod_constructive(sc, ch),
                                 ["B", "ES", ENV_MODE])
            assert np.max(np.abs(direct.cm - step.cm)) < 1e-10

    def test_coherent_vacuum_correlations_vanish(self):
        sc = PremodLeakageScenario(v_s=1.0, v_m=4.0, eta_e=0.5)
        st = build_pm_premod(sc, ChannelModel(eta=0.4))
        assert np.allclose(st.block("B", "ES"), 0.0, atol=1e-15)
        assert np.allclose(st.block("ES", "E"), 0.0, atol=1e-15)

    def test_full_coupling_is_baseline(self):
        pre = PremodLeakageScenario(v_s=0.5, v_m=4.0, eta_e=1.0)
        multi = MultimodeLeakageScenario(v_s=0.5, v_m=4.0, k=0.0,
                                         leakage_variances=(1.0,))
        ch = ChannelModel(eta=0.4)
        a = build_pm_premod(pre, ch)
        b = build_pm_multimode(multi, ch)
        assert np.allclose(a.block("B", "B"), b.block("B", "B"))
        assert np.allclose(a.block("B", "ES"), 0.0, atol=1e-15)

    def test_bob_variance_formula(self):
        sc = PremodLeakageScenario(v_s=0.5, v_m=4.0, eta_e=0.7)
        st = build_pm_premod(sc, ChannelModel(eta=0.6))
        assert st.variance("B", "x") == pytest.approx(
            0.6 * (0.7 * (0.5 - 1.0) + 4.0) + 1.0)

    def test_side_channel_correlation_monotonicity(self):
        # C_B,ES -> 0 as v_s -> 1 and as eta_e -> 1, monotone in between.
        ch = ChannelModel(eta=0.5)
        values = []
        for v_s in (0.3, 0.6, 0.9, 1.0):
            sc = PremodLeakageScenario(v_s=v_s, v_m=4.0, eta_e=0.7)
            values.append(abs(build_pm_premod(sc, ch).block("B", "ES")[0, 0]))
        assert values[-1] == pytest.approx(0.0, abs=1e-15)
        assert all(a > b for a, b in zip(values, values[1:]))
        at_full = build_pm_premod(
            PremodLeakageScenario(v_s=0.5, v_m=4.0, eta_e=1.0), ch)
        assert abs(at_full.block("B", "ES")[0, 0]) == pytest.approx(0.0)


class TestNoisyChannel:
    def test_variance_map_formula(self):
        # Tracing the purified environment out leaves the mode with
        # V -> eta V + (1 - eta)(1 + epsilon) in both quadratures.
        rng = np.random.default_rng(7)
        from cvleak.gaussian import GaussianState, attach_vacuum, \
            apply_squeezer, partial_trace
        for _ in range(20):
            v = rng.uniform(0.2, 5.0)
            eta = rng.uniform(0.05, 1.0)
            eps = rng.uniform(0.0, 0.3)
            st = attach_vacuum(GaussianState.empty(), "m")
            st = apply_squeezer(st, "m", -0.5 * math.log(v))
            ch = ChannelModel(eta=eta, epsilon=eps)
            out, env = apply_noisy_channel(st, "m", ch)
            assert env == (("E_env",) if eps == 0.0
                           else ("E_env", "E_env_twin"))
            marginal = partial_trace(out, ["m"])
            for quad, v_in in (("x", v), ("p", 1.0 / v)):
                want = channel_output_variance(v_in, ch)
                assert abs(marginal.variance("m", quad) - want) < 1e-12
            assert channel_output_variance(v, ch) == pytest.approx(
                eta * v + (1 - eta) * (1 + eps))

    def test_pure_loss_purified_is_beamsplitter_with_vacuum(self):
        from cvleak.gaussian import GaussianState, attach_vacuum
        st = attach_vacuum(GaussianState.empty(), "m")
        out, env = apply_noisy_channel(st, "m", ChannelModel(eta=0.3))
        assert env == ("E_env",)
        assert np.allclose(out.cm, np.eye(4))

    def test_identity_channel(self):
        from cvleak.gaussian import GaussianState, attach_vacuum
        st = attach_vacuum(GaussianState.empty(), "m")
        out, env = apply_noisy_channel(st, "m", ChannelModel(eta=1.0))
        assert env == ()
        assert np.allclose(out.cm, st.cm)

    def test_purified_matches_unpurified_marginal(self):
        # On (a, m) the purified channel leaves what the unpurified map
        # gives: a kept, the variance of m mapped, the a-m correlations
        # scaled by sqrt(eta).
        from cvleak.gaussian import GaussianState, attach_epr, partial_trace
        st = attach_epr(GaussianState.empty(), "a", "m", 3.0)
        ch = ChannelModel(eta=0.4, epsilon=0.1)
        out, env = apply_noisy_channel(st, "m", ch)
        assert env == ("E_env", "E_env_twin")
        red = partial_trace(out, ["a", "m"])
        assert np.max(np.abs(red.block("a", "a") - st.block("a", "a"))) \
            < 1e-12
        assert np.max(np.abs(red.block("a", "m")
                             - math.sqrt(0.4) * st.block("a", "m"))) < 1e-12
        want = channel_output_variance(3.0, ch) * np.eye(2)
        assert np.max(np.abs(red.block("m", "m") - want)) < 1e-12

    def test_purified_global_purity(self):
        from cvleak.gaussian import GaussianState, attach_epr
        st = attach_epr(GaussianState.empty(), "a", "m", 3.0)
        out, _ = apply_noisy_channel(st, "m",
                                     ChannelModel(eta=0.4, epsilon=0.1))
        nus = symplectic_eigenvalues(out)
        assert np.max(np.abs(nus - 1.0)) < 1e-9
