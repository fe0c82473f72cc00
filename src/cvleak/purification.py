"""Entanglement-based purifications of the two leakage scenarios.

Collective direct-reconciliation rates are computed on the protocol
rewritten as trusted measurements on a globally pure state; reverse
reconciliation needs no purification (its Holevo bound is evaluated on the
prepare-and-measure state), so these models serve it only as an
independent cross-check.  Two constructions are provided:

* multimode leakage: the Williamson purification of the target signal and
  leakage block (B, L), in closed form (:func:`solve_bloch_messiah`).  EPR
  pairs (A, B) and (L, D) carry the block's symplectic eigenvalues; x_map
  on the x quadratures of (B, L) and p_map on their p quadratures turn
  their thermal marginal into the prepare-and-measure ensemble.  A and D
  stay with the sender, B goes to the channel, L belongs to the
  eavesdropper.  Purifications of one ensemble differ only by a swap of
  the pairs and an orthogonal map on (A, D), the same on x and p, which
  the sender's joint measurement of A and D does not see.

* premodulation leakage: a general purification scheme.  An EPR pair of
  variance v_m / (1 - t1) is coupled into the signal on a strongly
  unbalanced beam splitter t1 -> 1 (realizing the Gaussian modulation), and
  its twin is coupled to a strongly squeezed ancilla on an identical beam
  splitter to give the sender her data readout.  The side channel is a
  beam splitter eta_e to a vacuum (or purified thermal) mode.

Both builders attach the untrusted channel in purified form, so the global
state stays pure and eavesdropper entropies equal trusted-side entropies.

Each model's pre-channel matrix comes from one label-free array core, with
the modes at the fixed positions of its :class:`EBLayout`:
:func:`two_source_cm` (with :func:`eb_multimode_cm`, which adds the
moment guard) over A, B, L, D, and :func:`eb_premod_cm` over B, A, C, D,
ES[, ES_twin].  The collective DR rates of :mod:`cvleak.keyrate` stack
these matrices and build no labelled state; :func:`two_source_circuit`
and the ``build_eb_*`` builders wrap the same matrix in one
:class:`~cvleak.gaussian.GaussianState` and attach the channel
(:func:`~cvleak.scenarios.apply_noisy_channel`).
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .gaussian import (
    GaussianState,
    PhysicalityError,
    append_block,
    beamsplitter,
    epr_block,
    physical_covariance,
    squeezer,
    symplectic_eigenvalues,
)
from .scenarios import ChannelModel, ScenarioError, apply_noisy_channel

RESIDUAL_TOL = 1e-8
PURITY_TOL = 1e-8

# perfbench/tracer.py times calls made through this name (span
# "purification.polish").  The closed form makes none, so the span reads
# zero; the name goes when the tracer drops that span.
least_squares = None


class SolverError(RuntimeError):
    """Raised when the built purification misses the target moments."""

    def __init__(self, message: str, best_residual: float):
        super().__init__(f"{message} (residual {best_residual:.3e})")
        self.best_residual = best_residual


@dataclass(frozen=True)
class BlochMessiahSolution:
    """Williamson purification of a target (B, L) block.

    v1, v2 are the EPR source variances (>= 1), the block's symplectic
    eigenvalues in descending order.  x_map and p_map are the 2x2 maps
    applied to the x and to the p quadratures of (B, L), with
    x_map^T p_map = I.  residual is the largest absolute defect of the
    target moments relative to the largest of them (at least 1),
    evaluated on the explicitly constructed matrix.
    """

    v1: float
    v2: float
    x_map: np.ndarray
    p_map: np.ndarray
    residual: float


@dataclass(frozen=True)
class PurifiedModel:
    """Pure-state model with a trusted/eavesdropper mode partition.

    state is the post-channel state with the channel environment retained;
    pre_channel the state before the untrusted channel (globally pure).
    bob_mode is homodyned in x for reverse reconciliation; for direct
    reconciliation the sender measures every kept mode (alice_modes) with
    alice_measurement, a heterodyne for the coherent protocol and an x
    homodyne for the squeezed one.
    Conditioning the eavesdropper on all kept modes realizes the full
    preparation data and makes the two purification schemes agree on
    their common baseline.
    """

    state: GaussianState
    pre_channel: GaussianState
    bob_mode: str
    alice_modes: tuple[str, ...]
    alice_measurement: str
    eve_modes: tuple[str, ...]

    @property
    def trusted_modes(self) -> tuple[str, ...]:
        return self.alice_modes + (self.bob_mode,)

    def purity_defect(self) -> float:
        nus = symplectic_eigenvalues(self.pre_channel)
        return float(np.max(np.abs(nus - 1.0)))


def _moment_targets(k: float, v_s: float, v_m: float,
                    v_l: float) -> tuple[float, ...]:
    """Output moments the circuit must reproduce.

    Order: V_B(x), V_B(p), V_L(x), V_L(p), C_BL(x), C_BL(p).  The signal
    mode carries (v_s, 1/v_s) plus modulation v_m in both quadratures; the
    leakage mode carries (v_l, 1/v_l) plus the correlated copy k^2 v_m,
    correlated +k v_m in x and -k v_m in p.
    """
    return (v_s + v_m, 1.0 / v_s + v_m,
            v_l + k * k * v_m, 1.0 / v_l + k * k * v_m,
            k * v_m, -k * v_m)


@dataclass(frozen=True)
class EBLayout:
    """Mode roles of a pre-channel entanglement-based matrix.

    modes labels its modes in matrix order; B is the receiver's mode,
    alice_modes are the sender's kept modes and eve_modes the
    eavesdropper's source modes.
    """

    modes: tuple[str, ...]
    alice_modes: tuple[str, ...]
    eve_modes: tuple[str, ...]


MULTIMODE_LAYOUT = EBLayout(("A", "B", "L", "D"), ("A", "D"), ("L",))


def premod_layout(v_es: float) -> EBLayout:
    """Layout of :func:`eb_premod_cm`: a thermal side-channel input
    (v_es > 1) adds its purifying twin ES_twin, also the eavesdropper's."""
    side = ("ES",) if v_es == 1.0 else ("ES", "ES_twin")
    return EBLayout(("B", "A", "C", "D") + side, ("A", "C", "D"), side)


def two_source_cm(solution: BlochMessiahSolution) -> np.ndarray:
    """Array core of :func:`two_source_circuit`: modes A, B, L, D.

    EPR(A, B, v1) and EPR(L, D, v2), then x_map on the x quadratures of
    (B, L) and p_map on their p quadratures.  x_map^T p_map = I makes the
    map symplectic, so the state stays pure.  The map's rounding asymmetry
    is checked and averaged out as for a state (:func:`physical_covariance`).
    """
    s = np.eye(8)
    s[2:6:2, 2:6:2] = solution.x_map
    s[3:6:2, 3:6:2] = solution.p_map
    cm = append_block(epr_block(solution.v1), epr_block(solution.v2))
    return physical_covariance(s @ cm @ s.T, check_physicality=False)


def two_source_circuit(solution: BlochMessiahSolution) -> GaussianState:
    """The four-mode state (A, B, L, D) of a purification solution."""
    return GaussianState(MULTIMODE_LAYOUT.modes, two_source_cm(solution),
                         check_physicality=False)


def solve_bloch_messiah(k: float, v_s: float, v_m: float,
                        v_l: float | None = None) -> BlochMessiahSolution:
    """Purification of the multimode-leakage (B, L) ensemble, in closed form.

    v_l defaults to v_s (identical signal and leakage states).  With the
    target blocks X = Lx Lx^T and P = Lp Lp^T (Cholesky) and the SVD
    Lx^T Lp = U diag(nu) V^T, the maps x_map = Lx U nu^-1/2 and
    p_map = Lp V nu^-1/2 satisfy X = x_map nu x_map^T, P = p_map nu p_map^T
    and x_map^T p_map = I (Williamson's theorem).  The square-root form
    matters: at k = 5, v_s = 1e-3, v_m = 3e5 the eigenvalues of X P give
    the small symplectic eigenvalue to 7e-4, the singular values to 2e-8.

    The moments of the built matrix (:func:`two_source_cm`) are checked
    against the target, with the defect divided by max(1, largest
    |target moment|): the built moments carry a few ulp of rounding, which
    an absolute tolerance would reject above moments of about 1e7.
    :class:`SolverError` with that residual is raised above RESIDUAL_TOL.
    A target that rounding to float64 leaves not positive definite raises
    :class:`~cvleak.gaussian.PhysicalityError`.
    """
    if not 0.0 <= k < math.inf:
        raise ScenarioError(f"k must be finite and >= 0, got {k}")
    if not 0.0 < v_s <= 1.0:
        raise ScenarioError(f"v_s must lie in (0, 1], got {v_s}")
    if not 0.0 < v_m < math.inf:
        raise ScenarioError(f"v_m must be finite and > 0, got {v_m}")
    if v_l is None:
        v_l = v_s
    if not 0.0 < v_l < math.inf:
        raise ScenarioError(f"v_l must be finite and > 0, got {v_l}")
    xb, pb, xl, pl, cx, cp = _moment_targets(k, v_s, v_m, v_l)
    x_block = np.array([[xb, cx], [cx, xl]])
    p_block = np.array([[pb, cp], [cp, pl]])
    try:
        l_x = np.linalg.cholesky(x_block)
        l_p = np.linalg.cholesky(p_block)
    except np.linalg.LinAlgError:
        # A physical target is positive definite; rounding the moments to
        # float64 can lose that (v_s = 1e-14 next to v_m = 1e6).
        raise PhysicalityError(
            f"the target (B, L) block is not positive definite in float64 "
            f"(k = {k}, v_s = {v_s}, v_m = {v_m}, v_l = {v_l})") from None
    u, nu, vt = np.linalg.svd(l_x.T @ l_p)
    scale = 1.0 / np.sqrt(nu)
    x_map = l_x @ u * scale
    p_map = l_p @ vt.T * scale
    x_map.flags.writeable = p_map.flags.writeable = False
    # A symplectic eigenvalue of a physical target is >= 1; rounding can
    # leave an exact 1 (k = 0 leakage) a few ulps below.
    solution = BlochMessiahSolution(
        v1=max(float(nu[0]), 1.0), v2=max(float(nu[1]), 1.0),
        x_map=x_map, p_map=p_map, residual=math.nan)
    cm = two_source_cm(solution)
    # Rows 2, 4 are the x quadratures of (B, L), rows 3, 5 their p.
    res = max(float(np.max(np.abs(cm[2:6:2, 2:6:2] - x_block))),
              float(np.max(np.abs(cm[3:6:2, 3:6:2] - p_block))))
    res /= max(1.0, xb, pb, xl, pl, cx)  # cx = k v_m = -cp >= 0
    if not res <= RESIDUAL_TOL:
        raise SolverError("purification did not reproduce the target "
                          "moments", res)
    return dataclasses.replace(solution, residual=res)


def _purified_model(pre_cm: np.ndarray, layout: EBLayout, v_s: float,
                    channel: ChannelModel) -> PurifiedModel:
    """The labelled model around a pre-channel matrix, channel attached.

    The sender's data readout is a heterodyne for the coherent protocol
    (v_s = 1) and an x homodyne for the squeezed one.
    """
    pre = GaussianState(layout.modes, pre_cm, check_physicality=False)
    post, env = apply_noisy_channel(pre, "B", channel)
    return PurifiedModel(
        state=post,
        pre_channel=pre,
        bob_mode="B",
        alice_modes=layout.alice_modes,
        alice_measurement="heterodyne" if v_s == 1.0 else "homodyne_x",
        eve_modes=layout.eve_modes + env,
    )


def eb_multimode_cm(solution: BlochMessiahSolution, v_s: float, v_m: float,
                    k: float) -> np.ndarray:
    """Pre-channel matrix of :func:`build_eb_multimode` (MULTIMODE_LAYOUT).

    The solution's matrix (:func:`two_source_cm`) once its residual and
    the signal moments it carries are checked.
    """
    if solution.residual > RESIDUAL_TOL:
        raise ScenarioError(
            f"solution residual {solution.residual:.3e} exceeds "
            f"{RESIDUAL_TOL}")
    pre = two_source_cm(solution)
    # Cheap guard: the signal ensemble must match the requested protocol,
    # relative to the largest of these moments as in the solver's residual.
    # Rows 2, 3 are the quadratures of B, row 4 the x quadrature of L.
    scale = max(1.0, 1.0 / v_s + v_m, k * v_m)
    for got, want, name in (
            (float(pre[2, 2]), v_s + v_m, "V_B(x)"),
            (float(pre[3, 3]), 1.0 / v_s + v_m, "V_B(p)"),
            (pre[2, 4], k * v_m, "C_BL(x)")):
        if abs(got - want) > 1e-6 * scale:
            raise ScenarioError(
                f"solution does not reproduce {name}: {got} vs {want}")
    return pre


def build_eb_multimode(solution: BlochMessiahSolution, v_s: float,
                       v_m: float, k: float,
                       channel: ChannelModel) -> PurifiedModel:
    """Entanglement-based model of the multimode-leakage protocol.

    Modes A and D stay with the sender, B crosses the purified untrusted
    channel to the receiver, L and the channel environment belong to the
    eavesdropper.  The matrix comes from :func:`eb_multimode_cm`.
    """
    return _purified_model(eb_multimode_cm(solution, v_s, v_m, k),
                           MULTIMODE_LAYOUT, v_s, channel)


def eb_premod_cm(v_s: float, v_m: float, eta_e: float,
                 t1: float = 1.0 - 1e-6, v_s0: float = 1e-6,
                 v_es: float = 1.0) -> np.ndarray:
    """Pre-channel matrix of :func:`build_eb_premod` (:func:`premod_layout`).

    The squeezed signal B, the readout ancilla A of x variance v_s0, the
    modulating EPR pair (C, D) and the side-channel input ES (with its
    twin when thermal) are mixed as: B with ES at eta_e, B with D and
    A with C at t1.
    """
    if not 0.99 < t1 < 1.0:
        raise ScenarioError(f"t1 must lie in (0.99, 1), got {t1}")
    if not 0.0 < v_s0 <= 1e-3:
        raise ScenarioError(f"v_s0 must lie in (0, 1e-3], got {v_s0}")
    if not 0.0 < v_s <= 1.0:
        raise ScenarioError(f"v_s must lie in (0, 1], got {v_s}")
    if not 0.0 < eta_e <= 1.0:
        raise ScenarioError(f"eta_e must lie in (0, 1], got {eta_e}")
    if v_es < 1.0:
        raise ScenarioError(f"v_es must be >= 1, got {v_es}")
    v_epr = v_m / (1.0 - t1)
    # 1 - t1 carries the rounding of t1: at t1 = 1 - 1e-6 it is 1e-6 plus
    # 2.9e-17, so v_m = 1e-6 gives v_epr = 1 - 2.9e-11.
    if v_epr < 1.0 - 1e-9:
        raise ScenarioError(
            f"v_m = {v_m} is below the stability window for t1 = {t1} "
            f"(need v_m >= {1.0 - t1})")
    v_epr = max(v_epr, 1.0)
    cm = squeezer(np.eye(2), 0, -0.5 * math.log(v_s))
    cm = squeezer(append_block(cm, np.eye(2)), 1, -0.5 * math.log(v_s0))
    cm = append_block(cm, epr_block(v_epr))
    cm = append_block(cm, np.eye(2) if v_es == 1.0 else epr_block(v_es))
    cm = beamsplitter(cm, 0, 4, eta_e)
    cm = beamsplitter(cm, 0, 3, t1)
    return beamsplitter(cm, 1, 2, t1)


def build_eb_premod(v_s: float, v_m: float, eta_e: float,
                    channel: ChannelModel, t1: float = 1.0 - 1e-6,
                    v_s0: float = 1e-6, v_es: float = 1.0) -> PurifiedModel:
    """Entanglement-based model of the premodulation-leakage protocol.

    t1 is the transmittance of the two strongly unbalanced beam splitters
    and v_s0 the x variance of the readout ancilla; the exact protocol is
    recovered in the limit t1 -> 1, v_s0 -> 0, realized here at finite
    offsets inside the declared stability window.  The modulating EPR pair
    has variance v_m / (1 - t1).  The matrix comes from
    :func:`eb_premod_cm`.
    """
    return _purified_model(
        eb_premod_cm(v_s, v_m, eta_e, t1=t1, v_s0=v_s0, v_es=v_es),
        premod_layout(v_es), v_s, channel)
