"""Tests for the entanglement-based purification constructions."""

import dataclasses
import itertools
import math

import numpy as np
import pytest

from cvleak.gaussian import (
    apply_beamsplitter,
    apply_squeezer,
    partial_trace,
    symplectic_eigenvalues,
)
from cvleak.purification import (
    SolverError,
    _moment_targets,
    build_eb_multimode,
    build_eb_premod,
    solve_bloch_messiah,
    two_source_circuit,
)
from cvleak.scenarios import (
    ChannelModel,
    MultimodeLeakageScenario,
    ScenarioError,
    build_pm_multimode,
)

GRID = [
    (0.0, 0.5, 4.0, 0.5),
    (0.5, 0.5, 4.0, 0.5),
    (1.0, 0.5, 4.0, 0.5),
    (1.5, 0.1, 17.0, 0.1),
    (0.7, 0.3, 50.0, 1.0),
    (2.0, 0.9, 0.4, 0.9),
    (1.0, 1.0, 5.0, 1.0),   # coherent signal and leakage
    (0.3, 0.2, 2.0, 0.7),
    (1.2, 0.6, 0.02, 0.6),  # weak modulation
]


def circuit_output_moments(sol):
    st = two_source_circuit(sol)
    return (st.variance("B", "x"), st.variance("B", "p"),
            st.variance("L", "x"), st.variance("L", "p"),
            st.block("B", "L")[0, 0], st.block("B", "L")[1, 1])


def same_solution(a, b):
    return (a.v1 == b.v1 and a.v2 == b.v2 and a.residual == b.residual
            and np.array_equal(a.x_map, b.x_map)
            and np.array_equal(a.p_map, b.p_map))


def scan_points():
    """Corners and random draws over v_s in [1e-3, 1], v_m in [1e-2, 3e5]
    and k in {0} and [1e-4, 5] (log-uniform), v_l = v_s."""
    rng = np.random.default_rng(20260401)
    points = list(itertools.product((0.0, 1e-4, 5.0), (1e-3, 1.0),
                                    (1e-2, 3e5)))
    for _ in range(400):
        k = 0.0 if rng.random() < 0.1 else 10.0 ** rng.uniform(-4.0,
                                                               math.log10(5))
        points.append((k, 10.0 ** rng.uniform(-3.0, 0.0),
                       10.0 ** rng.uniform(-2.0, math.log10(3e5))))
    return points


class TestSolver:
    @pytest.mark.parametrize("k,v_s,v_m,v_l", GRID)
    def test_residuals(self, k, v_s, v_m, v_l):
        sol = solve_bloch_messiah(k, v_s, v_m, v_l)
        assert sol.residual <= 1e-8
        targets = _moment_targets(k, v_s, v_m, v_l)
        got = circuit_output_moments(sol)
        assert max(abs(a - b) for a, b in zip(targets, got)) <= 1e-8

    @pytest.mark.parametrize("k,v_s,v_m,v_l", GRID)
    def test_domains(self, k, v_s, v_m, v_l):
        # Source variances are physical and descending; the two maps are
        # each other's inverse transpose, so the map is symplectic.
        sol = solve_bloch_messiah(k, v_s, v_m, v_l)
        assert sol.v1 >= sol.v2 >= 1.0
        assert sol.x_map.shape == sol.p_map.shape == (2, 2)
        assert np.max(np.abs(sol.x_map.T @ sol.p_map - np.eye(2))) <= 1e-12

    def test_scan_residual_and_symplectic_map(self):
        worst_res = worst_map = 0.0
        for k, v_s, v_m in scan_points():
            sol = solve_bloch_messiah(k, v_s, v_m)
            worst_res = max(worst_res, sol.residual)
            worst_map = max(worst_map, float(np.max(np.abs(
                sol.x_map.T @ sol.p_map - np.eye(2)))))
        assert worst_res <= 1e-8
        assert worst_map <= 1e-12

    def test_default_leakage_variance_is_signal(self):
        a = solve_bloch_messiah(0.8, 0.5, 4.0)
        b = solve_bloch_messiah(0.8, 0.5, 4.0, 0.5)
        assert same_solution(a, b)

    def test_deterministic(self):
        a = solve_bloch_messiah(0.9, 0.4, 6.0)
        b = solve_bloch_messiah(0.9, 0.4, 6.0)
        assert same_solution(a, b)

    def test_no_leakage_targets(self):
        # k = 0: the leakage output must be the bare source state,
        # uncorrelated with the signal.
        sol = solve_bloch_messiah(0.0, 0.5, 4.0)
        st = two_source_circuit(sol)
        assert st.variance("L", "x") == pytest.approx(0.5, abs=1e-9)
        assert st.variance("L", "p") == pytest.approx(2.0, abs=1e-9)
        assert np.max(np.abs(st.block("B", "L"))) < 1e-9

    def test_source_variances_match_target_spectrum(self):
        # A and D never interact, so {v1, v2} must equal the symplectic
        # spectrum of the target signal/leakage block.
        k, v_s, v_m, v_l = 0.8, 0.5, 6.0, 0.5
        sol = solve_bloch_messiah(k, v_s, v_m, v_l)
        xb, pb, xl, pl, cx, cp = _moment_targets(k, v_s, v_m, v_l)
        x = np.array([[xb, cx], [cx, xl]])
        p = np.array([[pb, cp], [cp, pl]])
        nus = sorted(np.sqrt(np.linalg.eigvals(x @ p).real))
        assert sorted([sol.v1, sol.v2]) == pytest.approx(nus, abs=1e-8)

    def test_domain_violations_rejected(self):
        with pytest.raises(ScenarioError):
            solve_bloch_messiah(-0.1, 0.5, 4.0)
        with pytest.raises(ScenarioError):
            solve_bloch_messiah(0.5, 1.5, 4.0)
        with pytest.raises(ScenarioError):
            solve_bloch_messiah(0.5, 0.5, 0.0)
        with pytest.raises(ScenarioError):
            solve_bloch_messiah(math.nan, 0.5, 4.0)
        with pytest.raises(ScenarioError):
            solve_bloch_messiah(0.5, 0.5, math.inf)

    def test_nonconvergence_reported_honestly(self, monkeypatch):
        # The residual is measured on the built state, so a builder that
        # misses the target must raise with that residual rather than
        # return junk.
        import cvleak.purification as pur
        build = pur.two_source_circuit
        monkeypatch.setattr(pur, "two_source_circuit",
                            lambda sol: apply_squeezer(build(sol), "B", 1e-3))
        with pytest.raises(SolverError) as err:
            solve_bloch_messiah(0.5, 0.5, 4.0)
        assert err.value.best_residual > 1e-8


class TestMultimodeModel:
    def test_pre_channel_purity(self):
        for k, v_s, v_m, v_l in GRID:
            sol = solve_bloch_messiah(k, v_s, v_m, v_l)
            model = build_eb_multimode(sol, v_s, v_m, k,
                                       ChannelModel(eta=0.5))
            assert model.purity_defect() < 1e-8

    def test_bob_ensemble_independent_of_leakage_ratio(self):
        # The states and correlations visible to the trusted parties do
        # not depend on the modulation applied to the leakage mode.
        ch = ChannelModel(eta=0.7)
        blocks = []
        for k in (0.0, 0.5, 1.5):
            sol = solve_bloch_messiah(k, 0.5, 4.0, 0.5)
            model = build_eb_multimode(sol, 0.5, 4.0, k, ch)
            blocks.append(model.state.block("B", "B"))
        assert np.max(np.abs(blocks[0] - blocks[1])) < 1e-8
        assert np.max(np.abs(blocks[0] - blocks[2])) < 1e-8

    def test_matches_pm_builder_on_pure_loss(self):
        rng = np.random.default_rng(424242)
        randomized = [
            (rng.uniform(0.0, 2.5), rng.uniform(0.05, 1.0),
             10.0 ** rng.uniform(-1.0, 2.0), rng.uniform(0.05, 2.0))
            for _ in range(12)
        ]
        for k, v_s, v_m, v_l in GRID[:6] + randomized:
            ch = ChannelModel(eta=float(rng.uniform(0.05, 1.0)))
            sol = solve_bloch_messiah(k, v_s, v_m, v_l)
            model = build_eb_multimode(sol, v_s, v_m, k, ch)
            eb = partial_trace(model.state, ["B", "L", "E_env"])
            sc = MultimodeLeakageScenario(v_s=v_s, v_m=v_m, k=k,
                                          leakage_variances=(v_l,))
            pm = build_pm_multimode(sc, ch)
            assert np.max(np.abs(eb.cm - pm.cm)) < 1e-8

    def test_post_channel_purity_with_environment(self):
        sol = solve_bloch_messiah(0.7, 0.5, 4.0, 0.5)
        model = build_eb_multimode(sol, 0.5, 4.0, 0.7,
                                   ChannelModel(eta=0.45, epsilon=0.05))
        nus = symplectic_eigenvalues(model.state)
        assert np.max(np.abs(nus - 1.0)) < 1e-8

    def test_measurement_plan(self):
        sol = solve_bloch_messiah(0.5, 0.5, 4.0, 0.5)
        model = build_eb_multimode(sol, 0.5, 4.0, 0.5, ChannelModel(eta=0.5))
        assert model.alice_measurement == "homodyne_x"
        sol = solve_bloch_messiah(0.5, 1.0, 4.0, 1.0)
        model = build_eb_multimode(sol, 1.0, 4.0, 0.5, ChannelModel(eta=0.5))
        assert model.alice_measurement == "heterodyne"

    @pytest.mark.parametrize("v_s", [0.5, 1.0])
    def test_dr_holevo_invariant_under_sender_rotation(self, v_s):
        # Purifications of the same ensemble differ by an orthogonal map on
        # (A, D), applied identically to x and p; the sender's joint
        # measurement of A and D (x homodyne, or heterodyne at v_s = 1)
        # sees the same data, so the DR Holevo bound must not move.
        from cvleak.gaussian import GaussianState
        from cvleak.keyrate import holevo_bound

        def rotate(st):
            st = apply_beamsplitter(st, "A", "D", 0.3)
            flip = np.ones(2 * st.n_modes)
            flip[2 * st.index("D"):2 * st.index("D") + 2] = -1.0
            return GaussianState(st.mode_labels, flip[:, None] * st.cm * flip,
                                 check_physicality=False)

        k, v_m = 0.8, 6.0
        sol = solve_bloch_messiah(k, v_s, v_m)
        model = build_eb_multimode(sol, v_s, v_m, k,
                                   ChannelModel(eta=0.4, epsilon=0.03))
        turned = dataclasses.replace(model, state=rotate(model.state),
                                     pre_channel=rotate(model.pre_channel))
        assert np.max(np.abs(turned.state.cm - model.state.cm)) > 0.1
        assert holevo_bound(turned, "DR") == pytest.approx(
            holevo_bound(model, "DR"), abs=1e-9)

    def test_stale_solution_rejected(self):
        sol = solve_bloch_messiah(0.5, 0.5, 4.0, 0.5)
        bad = dataclasses.replace(sol, residual=1.0)
        with pytest.raises(ScenarioError):
            build_eb_multimode(bad, 0.5, 4.0, 0.5, ChannelModel(eta=0.5))
        with pytest.raises(ScenarioError):
            # parameters that do not match the solution's targets
            build_eb_multimode(sol, 0.9, 4.0, 0.5, ChannelModel(eta=0.5))


class TestPremodModel:
    def test_conditional_variance_limits(self):
        # In the t1 -> 1, v_s0 -> 0 limit the sender's x readout prepares
        # the signal exactly: V_B|A(x) -> v_s and V_B|A(p) -> 1/v_s + v_m.
        v_s, v_m = 0.5, 3.0
        model = build_eb_premod(v_s, v_m, 1.0, ChannelModel(eta=1.0))
        from cvleak.gaussian import homodyne_condition
        cond_x = homodyne_condition(model.state, "A", "x")
        assert abs(cond_x.variance("B", "x") - v_s) <= 1e-4
        cond_p = homodyne_condition(model.state, "A", "p")
        assert abs(cond_p.variance("B", "p") - (1.0 / v_s + v_m)) <= 1e-4

    def test_bob_variance(self):
        v_s, v_m, eta_e = 0.4, 5.0, 0.6
        model = build_eb_premod(v_s, v_m, eta_e, ChannelModel(eta=1.0))
        want = (v_s * eta_e + (1.0 - eta_e)) + v_m  # t1 -> 1 limit
        assert abs(model.state.variance("B", "x") - want) <= 1e-4

    def test_alice_data_correlation(self):
        v_s, v_m = 0.5, 3.0
        model = build_eb_premod(v_s, v_m, 1.0, ChannelModel(eta=0.49))
        c = model.state.block("A", "B")[0, 0]
        assert abs(abs(c) - math.sqrt(0.49) * v_m) <= 1e-4

    def test_purity_at_window_edge(self):
        model = build_eb_premod(0.5, 4.0, 0.7, ChannelModel(eta=0.5),
                                t1=1.0 - 1e-3, v_s0=1e-3)
        assert model.purity_defect() < 1e-8

    def test_limit_offsets_stability(self):
        # Halving both offsets barely moves the model; first-order errors.
        from cvleak.keyrate import holevo_bound
        ch = ChannelModel(eta=0.3, epsilon=0.02)
        chis = []
        for scale in (1.0, 0.5):
            model = build_eb_premod(0.5, 4.0, 0.6, ch,
                                    t1=1.0 - 1e-6 * scale,
                                    v_s0=1e-6 * scale)
            chis.append(holevo_bound(model, "RR"))
        assert abs(chis[0] - chis[1]) < 1e-5

    def test_window_rejections(self):
        ch = ChannelModel(eta=0.5)
        with pytest.raises(ScenarioError):
            build_eb_premod(0.5, 4.0, 0.7, ch, t1=0.9)
        with pytest.raises(ScenarioError):
            build_eb_premod(0.5, 4.0, 0.7, ch, v_s0=0.01)
        with pytest.raises(ScenarioError):
            build_eb_premod(0.5, 1e-8, 0.7, ch)  # v_m below window

    def test_thermal_side_channel_is_purified(self):
        model = build_eb_premod(0.5, 4.0, 0.7, ChannelModel(eta=0.5),
                                t1=1.0 - 1e-3, v_s0=1e-3, v_es=1.6)
        assert "ES_twin" in model.eve_modes
        assert model.purity_defect() < 1e-7
