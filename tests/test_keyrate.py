"""Tests for mutual information, individual/collective rates and limits."""

import itertools
import math

import numpy as np
import pytest

from cvleak.keyrate import (
    dr_shortdistance_rate,
    holevo_bound,
    key_rate,
    key_rate_collective,
    key_rate_individual,
    multimode_asymptotics,
    mutual_info_ab,
    premod_asymptotics,
    premod_perfect_channel_rates,
    build_purified_model,
)
from cvleak.scenarios import (
    ChannelModel,
    MultimodeLeakageScenario,
    PremodLeakageScenario,
    ProtocolChoice,
    ScenarioError,
)
from perfbench.worker import CENSUS


def multimode(v_s=0.5, v_m=4.0, k=0.0, v_l=None, n=1):
    v_l = v_s if v_l is None else v_l
    return MultimodeLeakageScenario(v_s=v_s, v_m=v_m, k=k,
                                    leakage_variances=(v_l,) * n)


class TestMutualInformation:
    def test_coherent_unit_bit(self):
        # eta = 1, V_S = 1, V_M = 3: (1/2) log2(1 + V_M) = 1 bit
        sc = multimode(v_s=1.0, v_m=3.0, v_l=1.0)
        assert mutual_info_ab(sc, ChannelModel(eta=1.0)) == pytest.approx(1.0)

    def test_leakage_ratio_irrelevant(self):
        ch = ChannelModel(eta=0.4)
        a = mutual_info_ab(multimode(k=0.0), ch)
        b = mutual_info_ab(multimode(k=2.0), ch)
        assert a == b

    def test_premod_reduces_at_full_coupling(self):
        ch = ChannelModel(eta=0.4)
        pre = PremodLeakageScenario(v_s=0.5, v_m=4.0, eta_e=1.0)
        assert mutual_info_ab(pre, ch) == pytest.approx(
            mutual_info_ab(multimode(), ch), abs=1e-15)

    def test_premod_coupling_lowers_information(self):
        ch = ChannelModel(eta=0.4)
        strong = PremodLeakageScenario(v_s=0.2, v_m=4.0, eta_e=1.0)
        weak = PremodLeakageScenario(v_s=0.2, v_m=4.0, eta_e=0.5)
        assert mutual_info_ab(weak, ch) < mutual_info_ab(strong, ch)

    def test_zero_modulation(self):
        assert mutual_info_ab(multimode(v_m=0.0), ChannelModel(eta=0.4)) == 0


class TestIndividualRates:
    def test_strong_modulation_rr_limit(self):
        grid = itertools.product((0.1, 0.4, 0.7, 1.0), (0.2, 0.6),
                                 (0.0, 0.5, 1.0, 2.0))
        for v, eta, k in grid:
            sc = multimode(v_s=v, v_m=1e6, k=k, v_l=v)
            rate = key_rate_individual(sc, ChannelModel(eta=eta), "RR").rate
            want = multimode_asymptotics(v, eta, k)["rr_inf"]
            assert abs(rate - want) < 1e-4

    def test_dr_break_at_equal_modulation(self):
        sc = multimode(v_s=0.5, v_m=7.0, k=1.0)
        rep = key_rate_individual(sc, ChannelModel(eta=1.0), "DR")
        assert abs(rep.rate) < 1e-9

    def test_dr_positive_without_leakage(self):
        sc = multimode(v_s=0.5, v_m=7.0, k=0.0)
        rep = key_rate_individual(sc, ChannelModel(eta=1.0), "DR")
        assert rep.rate == pytest.approx(0.5 * math.log2(7.5 / 0.5))

    def test_premod_immunity_of_coherent_protocol(self):
        ch = ChannelModel(eta=0.4)
        rates = []
        for eta_e in (0.3, 0.7, 1.0):
            sc = PremodLeakageScenario(v_s=1.0, v_m=5.0, eta_e=eta_e)
            for direction in ("RR", "DR"):
                rates.append((direction,
                              key_rate_individual(sc, ch, direction).rate))
        for direction in ("RR", "DR"):
            vals = [r for d, r in rates if d == direction]
            assert max(vals) - min(vals) < 1e-12

    def test_premod_squeezed_rate_decreases_with_coupling(self):
        ch = ChannelModel(eta=0.4)
        r_weak = key_rate_individual(
            PremodLeakageScenario(v_s=0.3, v_m=5.0, eta_e=0.5), ch, "RR")
        r_none = key_rate_individual(
            PremodLeakageScenario(v_s=0.3, v_m=5.0, eta_e=1.0), ch, "RR")
        assert r_weak.rate < r_none.rate

    def test_report_invariant(self):
        sc = multimode(v_s=0.4, v_m=6.0, k=0.8)
        rep = key_rate_individual(sc, ChannelModel(eta=0.3), "RR")
        assert rep.rate == pytest.approx(rep.i_ab - rep.eve_information,
                                         abs=1e-12)
        assert "v_b_cond_e" in rep.conditional_variances

    def test_noisy_channel_rejected(self):
        with pytest.raises(ScenarioError):
            key_rate_individual(multimode(), ChannelModel(eta=0.5,
                                                          epsilon=0.01))

    def test_heterogeneous_leakage_reduction(self):
        # Individual attacks reduce any leakage set through the harmonic
        # mean and k sqrt(N).
        sc_many = MultimodeLeakageScenario(
            v_s=0.5, v_m=4.0, k=0.3, leakage_variances=(1.0, 1.0 / 3.0))
        v_eff = 2.0 / (1.0 + 3.0)
        sc_one = MultimodeLeakageScenario(
            v_s=0.5, v_m=4.0, k=0.3 * math.sqrt(2.0),
            leakage_variances=(v_eff,))
        ch = ChannelModel(eta=0.6)
        r_many = key_rate_individual(sc_many, ch, "RR").rate
        r_one = key_rate_individual(sc_one, ch, "RR").rate
        assert r_many == pytest.approx(r_one, abs=1e-12)

    @pytest.mark.xfail(strict=True, reason=(
        "cancellation in v_m - c^T B^-1 c loses 2.55e-6 bit at strong "
        "modulation; the fix waits for a benchmark-only change that "
        "regenerates the individual-sweep references, five of whose rows "
        "hold the erroneous value"))
    def test_dr_eve_information_free_of_cancellation(self):
        # At strong modulation and squeezing the data-conditional variance
        # is a tiny difference of numbers of order v_m.  The cancellation-
        # free form below agrees with a 50-digit evaluation of the same
        # conditional variance.
        v, v_m = 0.0012068684166685775, 595083.4143573343
        k, eta, n = 3.7851621458202134, 0.9594347591287348, 3
        sc = multimode(v_s=v, v_m=v_m, k=k, v_l=v, n=n)
        got = key_rate_individual(sc, ChannelModel(eta=eta),
                                  "DR").eve_information
        want = 0.5 * math.log2(1.0 + v_m * (
            n * k * k / v + (1.0 - eta) / ((1.0 - eta) * v + eta)))
        assert abs(got - want) <= 1e-7


class TestHolevoBound:
    def test_zero_for_trivial_channel(self):
        sc = multimode(v_s=0.5, v_m=3.0, k=0.0, v_l=1.0)
        model = build_purified_model(sc, ChannelModel(eta=1.0))
        assert holevo_bound(model, "RR") == pytest.approx(0.0, abs=1e-8)

    def test_nonnegative(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            sc = multimode(v_s=rng.uniform(0.2, 1.0),
                           v_m=rng.uniform(0.5, 20.0),
                           k=rng.uniform(0.0, 1.5))
            ch = ChannelModel(eta=rng.uniform(0.05, 0.95),
                              epsilon=rng.uniform(0.0, 0.1))
            model = build_purified_model(sc, ch)
            assert holevo_bound(model, "RR") >= 0.0
            assert holevo_bound(model, "DR") >= 0.0

    def test_bounds_individual_information(self):
        # chi_BE >= I_BE on matched pure-loss configurations.
        for v, eta, k in itertools.product((0.5, 1.0), (0.3, 0.7),
                                           (0.0, 0.8)):
            sc = multimode(v_s=v, v_m=5.0, k=k, v_l=v)
            ch = ChannelModel(eta=eta)
            model = build_purified_model(sc, ch)
            chi = holevo_bound(model, "RR")
            ind = key_rate_individual(sc, ch, "RR")
            assert chi >= ind.eve_information - 1e-9

    def test_sides_agree(self):
        sc = multimode(v_s=0.5, v_m=4.0, k=0.7)
        model = build_purified_model(sc, ChannelModel(eta=0.4,
                                                      epsilon=0.02))
        for direction in ("RR", "DR"):
            assert holevo_bound(model, direction, "eve") == pytest.approx(
                holevo_bound(model, direction, "trusted"), abs=1e-8)

    def test_impure_model_rejected(self):
        import dataclasses
        from cvleak.gaussian import GaussianState, PhysicalityError
        sc = multimode(v_s=0.5, v_m=4.0, k=0.7)
        model = build_purified_model(sc, ChannelModel(eta=0.4))
        thermal = GaussianState(("x",), 3.0 * np.eye(2))
        broken = dataclasses.replace(model, pre_channel=thermal)
        with pytest.raises(PhysicalityError):
            holevo_bound(broken, "RR")


class TestCollectiveRates:
    def test_trivial_channel_rate_is_mutual_information(self):
        sc = multimode(v_s=0.5, v_m=3.0, k=0.0, v_l=1.0)
        proto = ProtocolChoice("RR", "collective", 1.0)
        rep = key_rate_collective(sc, ChannelModel(eta=1.0), proto)
        assert rep.rate == pytest.approx(rep.i_ab, abs=1e-8)

    def test_optimized_rate_sign_change_in_k(self):
        # beta = 0.95, eta = 0.1, epsilon = 0.01, V_L = V_S = 0.5 with
        # near-optimal modulation: positive at k = 0, negative at k = 1.
        from cvleak.optimize import optimize_vm
        ch = ChannelModel(eta=0.1, epsilon=0.01)
        proto = ProtocolChoice("RR", "collective", 0.95)
        r0 = optimize_vm(multimode(k=0.0), ch, proto).value
        r1 = optimize_vm(multimode(k=1.0), ch, proto).value
        assert r0 > 0.0
        assert r1 < 0.0

    def test_monotone_in_modulation_at_unit_beta(self):
        sc = multimode(v_s=0.5, k=0.5)
        ch = ChannelModel(eta=0.3, epsilon=0.01)
        proto = ProtocolChoice("RR", "collective", 1.0)
        rates = [key_rate_collective(
            MultimodeLeakageScenario(v_s=0.5, v_m=v_m, k=0.5,
                                     leakage_variances=(0.5,)),
            ch, proto).rate for v_m in (0.5, 2.0, 8.0, 32.0, 128.0)]
        assert all(b >= a - 1e-12 for a, b in zip(rates, rates[1:]))

    def test_report_invariant(self):
        sc = multimode(v_s=0.5, v_m=4.0, k=0.5)
        proto = ProtocolChoice("RR", "collective", 0.9)
        rep = key_rate_collective(sc, ChannelModel(eta=0.3), proto)
        assert rep.rate == pytest.approx(
            proto.beta * rep.i_ab - rep.eve_information, abs=1e-12)

    def test_identical_leakage_collective_reduction(self):
        # N identical leakage modes reduce to (V_L, k sqrt(N)) under
        # collective attacks as well.
        proto = ProtocolChoice("RR", "collective", 0.95)
        ch = ChannelModel(eta=0.3, epsilon=0.01)
        r4 = key_rate_collective(multimode(k=0.3, n=4), ch, proto).rate
        r1 = key_rate_collective(
            multimode(k=0.3 * 2.0, n=1), ch, proto).rate
        assert r4 == pytest.approx(r1, abs=1e-10)

    def test_heterogeneous_collective_rejected(self):
        sc = MultimodeLeakageScenario(v_s=0.5, v_m=4.0, k=0.5,
                                      leakage_variances=(0.4, 0.9))
        proto = ProtocolChoice("RR", "collective", 0.95)
        with pytest.raises(ScenarioError):
            key_rate_collective(sc, ChannelModel(eta=0.3), proto)

    def test_premod_collective_immunity(self):
        ch = ChannelModel(eta=0.25, epsilon=0.03)
        proto = ProtocolChoice("RR", "collective", 0.97)
        rates = [key_rate_collective(
            PremodLeakageScenario(v_s=1.0, v_m=5.0, eta_e=eta_e),
            ch, proto).rate for eta_e in (0.3, 0.7, 1.0)]
        assert max(rates) - min(rates) < 1e-10

    def test_dispatch_and_beta_guard(self):
        sc = multimode(v_s=0.5, v_m=4.0)
        proto = ProtocolChoice("RR", "individual", 1.0)
        rep = key_rate(sc, ChannelModel(eta=0.5), proto)
        assert rep.attack == "individual"
        with pytest.raises(ScenarioError):
            key_rate(sc, ChannelModel(eta=0.5),
                     ProtocolChoice("RR", "individual", 0.9))


def pm_chi_be(scenario, channel):
    """chi_BE from the prepare-and-measure ensemble, without purifying.

    The (B, L) source block is built directly from its moments, the
    channel is attached in purified form, and the eavesdropper holds L and
    the channel environment.
    """
    from cvleak.gaussian import (GaussianState, homodyne_condition,
                                 partial_trace, von_neumann_entropy)
    from cvleak.scenarios import apply_noisy_channel
    v_s, v_m, k = scenario.v_s, scenario.v_m, scenario.k
    v_l = scenario.leakage_variances[0]
    cm = np.diag([v_s + v_m, 1.0 / v_s + v_m,
                  v_l + k * k * v_m, 1.0 / v_l + k * k * v_m])
    cm[0, 2] = cm[2, 0] = k * v_m
    cm[1, 3] = cm[3, 1] = -k * v_m
    state, env = apply_noisy_channel(GaussianState(("B", "L"), cm), "B",
                                     channel, purify=True, eve_prefix="E")
    eve = ["L", *env]
    cond = homodyne_condition(state, "B", "x")
    return (von_neumann_entropy(partial_trace(state, eve))
            - von_neumann_entropy(partial_trace(cond, eve)))


class TestCensusCorners:
    """Multimode points of the benchmark's failure census: k >= 3 at
    v_m = 1e5, k near 0 at small v_s and large v_m, and v_s near 1e-3."""

    @pytest.mark.parametrize("scenario, channel", [
        (scenario, channel) for kind, scenario, channel, _ in CENSUS
        if kind == "multimode"])
    def test_collective_rr_rate_is_finite(self, scenario, channel):
        sc = MultimodeLeakageScenario(**scenario)
        ch = ChannelModel(**channel)
        rep = key_rate_collective(sc, ch,
                                  ProtocolChoice("RR", "collective", 0.95))
        assert math.isfinite(rep.rate)
        assert rep.eve_information == pytest.approx(pm_chi_be(sc, ch),
                                                    abs=1e-7)


class TestMultimodeAsymptotics:
    def test_optimal_squeezing_values(self):
        assert multimode_asymptotics(0.5, 0.5, 1.0)["v_opt"] == \
            pytest.approx(math.sqrt(0.5))
        assert multimode_asymptotics(0.5, 0.5, 100.0)["v_opt"] == \
            pytest.approx(1.0, abs=1e-4)

    def test_k_max_value(self):
        # sqrt(0.5 (0.5 - 2 + 0.5 - 0.25) / ((-0.5)(0.25))) = sqrt(5)
        got = multimode_asymptotics(0.5, 0.5, 0.0)["k_max"]
        assert got == pytest.approx(math.sqrt(5.0))

    def test_k_max_unbounded_for_coherent(self):
        assert multimode_asymptotics(1.0, 0.5, 0.0)["k_max"] == math.inf

    def test_long_distance_coherent_approximation(self):
        eta = 1e-3
        for k in (0.0, 1.0, 3.0):
            rr = multimode_asymptotics(1.0, eta, k)["rr_inf"]
            approx = eta / (math.log(4.0) * (1.0 + k * k))
            assert rr == pytest.approx(approx, rel=1e-3)

    def test_boundary_squeezing_matches_coherent(self):
        for k, eta in ((0.8, 0.4), (2.0, 0.7)):
            v_bound = k * k / (1.0 + k * k)
            at_bound = multimode_asymptotics(v_bound, eta, k)["rr_inf"]
            coherent = multimode_asymptotics(1.0, eta, k)["rr_inf"]
            assert at_bound == pytest.approx(coherent, abs=1e-12)
            assert at_bound == pytest.approx(
                -0.5 * math.log2(1.0 - eta + eta * k * k / (1.0 + k * k)))

    def test_improvement_range(self):
        rng_lo, rng_hi = multimode_asymptotics(0.5, 0.5, 1.0)[
            "improvement_range"]
        assert (rng_lo, rng_hi) == (0.5, 1.0)

    def test_false_rate_gap_identity(self):
        for v, eta, k in itertools.product((0.2, 0.6, 0.9), (0.2, 0.8),
                                           (0.3, 1.0, 2.5)):
            asy = multimode_asymptotics(v, eta, k)
            gap = asy["false_rr_inf"] - asy["rr_inf"]
            want = -0.5 * math.log2(
                (1.0 - eta)
                / (1.0 - eta + k * k * eta / (v * (k * k + 1.0))))
            assert gap == pytest.approx(want, abs=1e-10)


class TestDrShortDistance:
    def test_zero_at_unit_ratio(self):
        assert dr_shortdistance_rate(0.5, 1.0, 1.0, 9.0) == 0.0

    def test_no_leakage_value(self):
        assert dr_shortdistance_rate(0.5, 1.0, 0.0, 4.0) == pytest.approx(
            0.5 * math.log2(4.5 / 0.5))

    def test_decreases_with_loss(self):
        rates = [dr_shortdistance_rate(0.5, eta, 0.5, 4.0)
                 for eta in (1.0, 0.99, 0.97)]
        assert rates[0] > rates[1] > rates[2]


class TestPremodAsymptotics:
    def test_coherent_has_no_advantage(self):
        assert premod_asymptotics(1.0, 0.5, 0.6, 4.0)["sq_over_coh"] == 0.0

    def test_dr_perfect_channel_no_coupling(self):
        got = premod_asymptotics(0.5, 1.0, 1.0, 4.0)["dr_perfect_channel"]
        assert got == pytest.approx(0.5 * math.log2(1.0 + 4.0 / 0.5))

    def test_correlation_advantage_vanishes_for_strong_modulation(self):
        small = premod_asymptotics(0.5, 1.0, 0.6, 1e6)[
            "correlation_advantage"]
        assert abs(small) < 1e-5

    def test_correlation_advantage_formula(self):
        v_s, eta_e, v_m = 0.4, 0.6, 5.0
        rate_corr, rate_noise = premod_perfect_channel_rates(v_s, v_m, eta_e)
        lit = 0.5 * math.log2(
            (1.0 + v_m + eta_e * (v_s - 1.0))
            / (v_m + v_s / (eta_e + v_s - eta_e * v_s)))
        assert rate_noise - rate_corr == pytest.approx(lit, abs=1e-12)
        assert rate_noise >= rate_corr

    def test_squeezed_beats_coherent(self):
        # rr_strong_mod(v_s < 1) >= rr_strong_mod(v_s = 1) for any
        # coupling and loss.
        for v_s, eta, eta_e in itertools.product((0.1, 0.5, 0.9),
                                                 (0.2, 0.7), (0.3, 0.9)):
            sq = premod_asymptotics(v_s, eta, eta_e, 1.0)["rr_strong_mod"]
            coh = premod_asymptotics(1.0, eta, eta_e, 1.0)["rr_strong_mod"]
            assert sq >= coh - 1e-12


class TestCrossPurificationConsistency:
    """The same baseline protocol through two unrelated purifications.

    A premodulation scenario with full coupling and a multimode scenario
    without leakage both describe the plain protocol, but their
    entanglement-based models are built by entirely different circuits;
    agreeing rates validate both pipelines at once.  Agreement is limited
    by the premodulation limit offsets (~1e-6).
    """

    @pytest.mark.parametrize("direction,eta",
                             [("RR", 0.3), ("DR", 0.85)])
    @pytest.mark.parametrize("v_s", [0.5, 1.0])
    def test_baseline_agreement(self, direction, eta, v_s):
        ch = ChannelModel(eta=eta, epsilon=0.02)
        proto = ProtocolChoice(direction, "collective", 0.95)
        pre = PremodLeakageScenario(v_s=v_s, v_m=4.0, eta_e=1.0)
        multi = MultimodeLeakageScenario(v_s=v_s, v_m=4.0, k=0.0,
                                         leakage_variances=(1.0,))
        r_pre = key_rate_collective(pre, ch, proto).rate
        r_multi = key_rate_collective(multi, ch, proto).rate
        assert r_pre == pytest.approx(r_multi, abs=2e-4)

    def test_empty_leakage_equals_uncorrelated_mode(self):
        ch = ChannelModel(eta=0.3, epsilon=0.02)
        proto = ProtocolChoice("RR", "collective", 0.95)
        empty = MultimodeLeakageScenario(v_s=0.5, v_m=4.0, k=0.7,
                                         leakage_variances=())
        k0 = MultimodeLeakageScenario(v_s=0.5, v_m=4.0, k=0.0,
                                      leakage_variances=(1.0,))
        assert key_rate_collective(empty, ch, proto).rate == \
            key_rate_collective(k0, ch, proto).rate


class TestReportSerialization:
    def test_record_fields(self):
        rep = key_rate_individual(multimode(v_s=0.5, v_m=4.0, k=0.3),
                                  ChannelModel(eta=0.5), "RR")
        record = rep.to_record()
        for field in ("rate", "i_ab", "chi", "secure", "direction",
                      "attack", "beta"):
            assert field in record
        assert record["secure"] == (record["rate"] > 0)
