"""Unit tests for the Gaussian covariance algebra."""

import math
import warnings

import numpy as np
import pytest

from cvleak.gaussian import (
    PHYSICALITY_TOL_CAP,
    GaussianState,
    ModeError,
    PhysicalityError,
    apply_beamsplitter,
    apply_squeezer,
    attach_epr,
    attach_vacuum,
    beamsplitter_matrix,
    covariance_entropy,
    entropy_g,
    format_matrix_snapshot,
    heterodyne_condition,
    homodyne_condition,
    parse_matrix_snapshot,
    partial_trace,
    physical_covariance,
    physicality_tolerance,
    symplectic_eigenvalues,
    symplectic_form,
    von_neumann_entropy,
)

SQRT3 = 1.7320508075688772  # sqrt(2^2 - 1), frozen from direct evaluation


def random_pure_state(rng, n_modes):
    st = GaussianState.empty()
    i = 0
    while st.n_modes < n_modes:
        if st.n_modes + 2 <= n_modes and rng.random() < 0.7:
            st = attach_epr(st, f"m{i}", f"m{i+1}", 1.0 + 3.0 * rng.random())
            i += 2
        else:
            st = attach_vacuum(st, f"m{i}")
            i += 1
    labels = st.mode_labels
    for _ in range(4):
        a, b = rng.choice(n_modes, size=2, replace=False)
        st = apply_beamsplitter(st, labels[a], labels[b], rng.random())
        st = apply_squeezer(st, labels[int(rng.integers(n_modes))],
                            rng.uniform(-0.8, 0.8))
    return st


class TestSymplecticForm:
    def test_square_is_minus_identity(self):
        for n in (1, 2, 5):
            omega = symplectic_form(n)
            assert np.allclose(omega @ omega, -np.eye(2 * n))

    def test_antisymmetric(self):
        omega = symplectic_form(3)
        assert np.allclose(omega, -omega.T)


class TestStateConstruction:
    def test_vacuum_is_identity(self):
        st = attach_vacuum(GaussianState.empty(), "a")
        assert np.allclose(st.cm, np.eye(2))
        assert symplectic_eigenvalues(st) == pytest.approx([1.0])

    def test_two_vacua(self):
        st = attach_vacuum(GaussianState.empty(), "a")
        st = attach_vacuum(st, "b")
        assert np.allclose(st.cm, np.eye(4))
        assert von_neumann_entropy(st) == pytest.approx(0.0, abs=1e-12)

    def test_duplicate_label_rejected(self):
        st = attach_vacuum(GaussianState.empty(), "a")
        with pytest.raises(ModeError):
            attach_vacuum(st, "a")

    def test_asymmetric_matrix_rejected(self):
        cm = np.array([[1.0, 0.5], [0.2, 1.0]])
        with pytest.raises(PhysicalityError):
            GaussianState(("a",), cm)

    def test_unphysical_matrix_rejected(self):
        with pytest.raises(PhysicalityError,
                           match=r"eigenvalue 0\.5\d* < 1"):
            GaussianState(("a",), 0.5 * np.eye(2))

    def test_huge_entries_do_not_disable_the_check(self):
        # 4 eps V^2 overflows for V = 1e200; the tolerance stays capped,
        # so a symplectic eigenvalue of 1e-50 is still rejected.
        cm = np.diag([1e200, 1e-300])
        assert physicality_tolerance(cm) == PHYSICALITY_TOL_CAP
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(PhysicalityError, match=r"eigenvalue 1e-50 <"):
                physical_covariance(cm)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ModeError):
            GaussianState(("a", "b"), np.eye(2))

    def test_cm_is_read_only(self):
        st = attach_vacuum(GaussianState.empty(), "a")
        with pytest.raises(ValueError):
            st.cm[0, 0] = 7.0


class TestEpr:
    def test_v1_is_two_vacua(self):
        st = attach_epr(GaussianState.empty(), "a", "b", 1.0)
        assert np.allclose(st.cm, np.eye(4))

    def test_v2_off_diagonals(self):
        st = attach_epr(GaussianState.empty(), "a", "b", 2.0)
        assert st.cm[0, 2] == pytest.approx(SQRT3)
        assert st.cm[1, 3] == pytest.approx(-SQRT3)

    @pytest.mark.parametrize("v", [1.0, 1.5, 4.0, 20.0])
    def test_epr_is_pure(self, v):
        st = attach_epr(GaussianState.empty(), "a", "b", v)
        nus = symplectic_eigenvalues(st)
        assert np.allclose(nus, 1.0, atol=1e-9)
        assert von_neumann_entropy(st) == pytest.approx(0.0, abs=1e-8)

    def test_marginal_is_thermal(self):
        st = attach_epr(GaussianState.empty(), "a", "b", 3.0)
        red = partial_trace(st, ["a"])
        assert np.allclose(red.cm, 3.0 * np.eye(2))

    def test_sub_unit_variance_rejected(self):
        with pytest.raises(ValueError):
            attach_epr(GaussianState.empty(), "a", "b", 0.9)


class TestBeamsplitter:
    def setup_method(self):
        st = attach_vacuum(GaussianState.empty(), "a")
        st = apply_squeezer(st, "a", -0.5 * math.log(0.5))  # x variance 0.5
        self.state = attach_vacuum(st, "b")

    def test_identity_at_t1(self):
        out = apply_beamsplitter(self.state, "a", "b", 1.0)
        assert np.allclose(out.cm, self.state.cm)

    def test_full_reflection_swaps(self):
        out = apply_beamsplitter(self.state, "a", "b", 0.0)
        assert out.variance("a", "x") == pytest.approx(1.0)
        assert out.variance("b", "x") == pytest.approx(0.5)
        assert out.variance("b", "p") == pytest.approx(2.0)

    def test_squeezed_vacuum_mixing(self):
        # eta_E V_S + (1 - eta_E), frozen from the symbolic S cm S^T
        out = apply_beamsplitter(self.state, "a", "b", 0.7)
        assert out.variance("a", "x") == pytest.approx(0.7 * 0.5 + 0.3)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            apply_beamsplitter(self.state, "a", "b", 1.2)

    def test_missing_mode_rejected(self):
        with pytest.raises(ModeError):
            apply_beamsplitter(self.state, "a", "zz", 0.5)


class TestSqueezer:
    def test_identity_at_zero(self):
        st = attach_epr(GaussianState.empty(), "a", "b", 2.0)
        out = apply_squeezer(st, "a", 0.0)
        assert np.allclose(out.cm, st.cm)

    def test_vacuum_squeezing(self):
        st = attach_vacuum(GaussianState.empty(), "a")
        out = apply_squeezer(st, "a", 0.4)
        assert out.variance("a", "x") == pytest.approx(math.exp(-0.8))
        assert out.variance("a", "p") == pytest.approx(math.exp(0.8))

    def test_inverse_pair(self):
        rng = np.random.default_rng(3)
        st = random_pure_state(rng, 3)
        out = apply_squeezer(apply_squeezer(st, st.mode_labels[1], 0.7),
                             st.mode_labels[1], -0.7)
        assert np.max(np.abs(out.cm - st.cm)) < 1e-12

    def test_non_finite_rejected(self):
        st = attach_vacuum(GaussianState.empty(), "a")
        with pytest.raises(ValueError):
            apply_squeezer(st, "a", math.inf)


class TestHomodyneCondition:
    def test_epr_conditional_squeezing(self):
        for v in (1.5, 2.0, 5.0):
            st = attach_epr(GaussianState.empty(), "a", "b", v)
            out = homodyne_condition(st, "a", "x")
            assert out.variance("b", "x") == pytest.approx(1.0 / v)
            assert out.variance("b", "p") == pytest.approx(v)

    def test_uncorrelated_modes_untouched(self):
        st = attach_vacuum(GaussianState.empty(), "a")
        st = apply_squeezer(st, "a", 0.3)
        st = attach_epr(st, "b", "c", 2.0)
        out = homodyne_condition(st, "b", "p")
        assert np.allclose(out.block("a", "a"),
                           st.block("a", "a"))

    def test_conditioning_never_increases_variance(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            st = random_pure_state(rng, 3)
            target = st.mode_labels[2]
            before = st.variance(target, "x")
            after = homodyne_condition(st, st.mode_labels[0],
                                       "x").variance(target, "x")
            assert after <= before + 1e-12

    def test_pure_remainder(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            st = random_pure_state(rng, 4)
            out = homodyne_condition(st, st.mode_labels[0], "x")
            assert np.max(np.abs(symplectic_eigenvalues(out) - 1.0)) < 1e-8

    def test_negative_variance_rejected(self):
        # The constructor's physicality check is skipped, as the library's
        # own operations do; conditioning must still refuse the state.
        st = GaussianState(("a", "b"), np.diag([-1.0, 5.0, 2.0, 3.0]),
                           check_physicality=False)
        with pytest.raises(PhysicalityError):
            homodyne_condition(st, "a", "x")

    def test_zero_variance_rejected(self):
        st = GaussianState(("a", "b"), np.diag([0.0, 5.0, 2.0, 3.0]),
                           check_physicality=False)
        with pytest.raises(PhysicalityError):
            homodyne_condition(st, "a", "x")
        # The other quadrature is positive and conditions normally.
        out = homodyne_condition(st, "a", "p")
        assert np.allclose(out.cm, np.diag([2.0, 3.0]))


class TestJointConditioning:
    def test_matches_sequential_homodyne(self):
        from cvleak.gaussian import joint_homodyne_condition
        rng = np.random.default_rng(31)
        for _ in range(15):
            st = random_pure_state(rng, 4)
            modes = list(st.mode_labels[:2])
            joint = joint_homodyne_condition(st, modes, "x")
            seq = homodyne_condition(homodyne_condition(st, modes[0], "x"),
                                     modes[1], "x")
            seq = partial_trace(seq, joint.mode_labels)
            assert np.max(np.abs(joint.cm - seq.cm)) < 1e-10

    def test_matches_sequential_heterodyne(self):
        from cvleak.gaussian import joint_heterodyne_condition
        rng = np.random.default_rng(32)
        for _ in range(15):
            st = random_pure_state(rng, 4)
            modes = list(st.mode_labels[1:3])
            joint = joint_heterodyne_condition(st, modes)
            seq = heterodyne_condition(heterodyne_condition(st, modes[0]),
                                       modes[1])
            seq = partial_trace(seq, joint.mode_labels)
            assert np.max(np.abs(joint.cm - seq.cm)) < 1e-10

    def test_duplicate_modes_rejected(self):
        from cvleak.gaussian import joint_homodyne_condition
        st = attach_epr(GaussianState.empty(), "a", "b", 2.0)
        with pytest.raises(ModeError):
            joint_homodyne_condition(st, ["a", "a"], "x")


class TestHeterodyneCondition:
    def test_epr_gives_coherent_states(self):
        for v in (1.0, 2.0, 7.0):
            st = attach_epr(GaussianState.empty(), "a", "b", v)
            out = heterodyne_condition(st, "a")
            want = v - (v * v - 1.0) / (v + 1.0)  # = 1 for every v
            assert out.variance("b", "x") == pytest.approx(want)
            assert out.variance("b", "x") == pytest.approx(1.0)
            assert out.variance("b", "p") == pytest.approx(1.0)

    def test_uncorrelated_modes_untouched(self):
        st = attach_vacuum(GaussianState.empty(), "a")
        st = attach_epr(st, "b", "c", 3.0)
        out = heterodyne_condition(st, "a")
        assert np.allclose(out.cm, partial_trace(st, ["b", "c"]).cm)


class TestPartialTrace:
    def test_keep_all_is_identity(self):
        rng = np.random.default_rng(5)
        st = random_pure_state(rng, 3)
        out = partial_trace(st, list(st.mode_labels))
        assert np.allclose(out.cm, st.cm)

    def test_product_state_factorizes(self):
        st = attach_vacuum(GaussianState.empty(), "a")
        st = apply_squeezer(st, "a", 0.5)
        st = attach_epr(st, "b", "c", 2.0)
        red = partial_trace(st, ["a"])
        assert np.allclose(red.cm, st.block("a", "a"))

    def test_reorders_modes(self):
        st = attach_epr(GaussianState.empty(), "a", "b", 2.0)
        out = partial_trace(st, ["b", "a"])
        assert out.mode_labels == ("b", "a")
        assert out.cm[0, 2] == pytest.approx(SQRT3)

    def test_unknown_mode_rejected(self):
        st = attach_vacuum(GaussianState.empty(), "a")
        with pytest.raises(ModeError):
            partial_trace(st, ["zz"])


class TestSpectrumAndEntropy:
    def test_vacuum_spectrum(self):
        st = attach_vacuum(GaussianState.empty(), "a")
        assert symplectic_eigenvalues(st) == pytest.approx([1.0])

    def test_thermal_spectrum(self):
        st = GaussianState(("t",), np.diag([3.0, 3.0]))
        assert symplectic_eigenvalues(st) == pytest.approx([3.0])

    def test_spectrum_sorted_descending(self):
        st = GaussianState(("a", "b"), np.diag([2.0, 2.0, 5.0, 5.0]))
        assert list(symplectic_eigenvalues(st)) == pytest.approx([5.0, 2.0])

    def test_entropy_g_values(self):
        assert entropy_g(1.0) == 0.0
        assert entropy_g(3.0) == pytest.approx(2.0)  # 2 log2(2) - 1 log2(1)

    def test_entropy_g_clamps_roundoff(self):
        assert entropy_g(1.0 - 1e-7) == 0.0

    def test_entropy_g_rejects_unphysical(self):
        with pytest.raises(PhysicalityError):
            entropy_g(0.9)

    def test_thermal_entropy(self):
        st = GaussianState(("t",), np.diag([3.0, 3.0]))
        assert von_neumann_entropy(st) == pytest.approx(2.0)

    def test_symplectic_ops_preserve_spectrum(self):
        rng = np.random.default_rng(42)
        for _ in range(30):
            st = random_pure_state(rng, 3)
            st = GaussianState(st.mode_labels,
                               st.cm + 0.5 * np.eye(2 * st.n_modes))
            before = symplectic_eigenvalues(st)
            out = apply_beamsplitter(st, st.mode_labels[0],
                                     st.mode_labels[1], rng.random())
            out = apply_squeezer(out, st.mode_labels[2],
                                 rng.uniform(-1.0, 1.0))
            assert np.max(np.abs(symplectic_eigenvalues(out)
                                 - before)) < 1e-9


class TestArrayCores:
    """The label-free kernels beneath the labelled operations."""

    def test_beamsplitter_matrix_is_symplectic(self):
        rng = np.random.default_rng(5)
        for n in (2, 3, 5):
            omega = symplectic_form(n)
            for _ in range(10):
                ia, ib = rng.choice(n, size=2, replace=False)
                s = beamsplitter_matrix(n, int(ia), int(ib), rng.random())
                assert np.max(np.abs(s @ omega @ s.T - omega)) < 1e-14

    def test_entropy_matches_direct_spectrum(self):
        # Mixed states: reductions of random pure states, up to 5 modes.
        # The direct route takes nu from the nonsymmetric eigenvalues of
        # Omega gamma, which come in pairs +/- i nu.
        rng = np.random.default_rng(17)
        for _ in range(200):
            n = int(rng.integers(1, 6))
            st = random_pure_state(rng, n + int(rng.integers(1, 4)))
            cm = partial_trace(st, st.mode_labels[:n]).cm
            eigs = np.linalg.eigvals(symplectic_form(n) @ cm)
            nus = np.sort(np.abs(eigs))[::2]
            direct = sum(entropy_g(float(nu)) for nu in nus)
            assert abs(covariance_entropy(cm) - direct) <= 1e-10

    def test_cached_symplectic_forms_are_read_only(self):
        for n in (1, 2, 5):
            omega = symplectic_form(n)
            assert omega is symplectic_form(n)
            assert not omega.flags.writeable
            with pytest.raises(ValueError):
                omega[0, 1] = 2.0


class TestSnapshotSerialization:
    def test_round_trip(self):
        rng = np.random.default_rng(8)
        st = random_pure_state(rng, 3)
        text = format_matrix_snapshot(st.cm)
        back = parse_matrix_snapshot(text)
        assert np.max(np.abs(back - st.cm)) < 1e-12

    def test_rows_match_matrix_rows(self):
        st = attach_epr(GaussianState.empty(), "a", "b", 2.0)
        lines = format_matrix_snapshot(st.cm).strip().splitlines()
        assert len(lines) == 4
        first = [float(tok) for tok in lines[0].split()]
        assert first == pytest.approx(list(st.cm[0]))

    def test_ragged_snapshot_rejected(self):
        with pytest.raises(ValueError):
            parse_matrix_snapshot("1 2\n3\n")
