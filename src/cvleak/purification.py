"""Entanglement-based purifications of the two leakage scenarios.

Collective-attack analysis needs the protocol rewritten as trusted
measurements on a globally pure state.  Two constructions are provided:

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
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .gaussian import (
    GaussianState,
    apply_beamsplitter,
    apply_squeezer,
    attach_epr,
    attach_vacuum,
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
    target moments, evaluated on the explicitly constructed state.
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
    reconciliation the sender measures every kept mode
    (alice_data_modes) with alice_measurement, a heterodyne for the
    coherent protocol and an x homodyne for the squeezed one.
    Conditioning the eavesdropper on all kept modes realizes the full
    preparation data and makes the two purification schemes agree on
    their common baseline.
    """

    state: GaussianState
    pre_channel: GaussianState
    bob_mode: str
    alice_modes: tuple[str, ...]
    alice_data_modes: tuple[str, ...]
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


def two_source_circuit(solution: BlochMessiahSolution) -> GaussianState:
    """Build the four-mode state (A, B, L, D) of a purification solution.

    EPR(A, B, v1) and EPR(L, D, v2), then x_map on the x quadratures of
    (B, L) and p_map on their p quadratures.  x_map^T p_map = I makes the
    map symplectic, so the state stays pure.
    """
    st = attach_epr(GaussianState.empty(), "A", "B", solution.v1)
    st = attach_epr(st, "L", "D", solution.v2)
    s = np.eye(8)
    s[2:6:2, 2:6:2] = solution.x_map
    s[3:6:2, 3:6:2] = solution.p_map
    return GaussianState(st.mode_labels, s @ st.cm @ s.T,
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

    The moments of the built state are checked against the target;
    :class:`SolverError` with that residual is raised above RESIDUAL_TOL.
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
    l_x = np.linalg.cholesky(x_block)
    l_p = np.linalg.cholesky(p_block)
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
    cm = two_source_circuit(solution).cm
    # Rows 2, 4 are the x quadratures of (B, L), rows 3, 5 their p.
    res = max(float(np.max(np.abs(cm[2:6:2, 2:6:2] - x_block))),
              float(np.max(np.abs(cm[3:6:2, 3:6:2] - p_block))))
    if not res <= RESIDUAL_TOL:
        raise SolverError("purification did not reproduce the target "
                          "moments", res)
    return dataclasses.replace(solution, residual=res)


def build_eb_multimode(solution: BlochMessiahSolution, v_s: float,
                       v_m: float, k: float,
                       channel: ChannelModel) -> PurifiedModel:
    """Entanglement-based model of the multimode-leakage protocol.

    Modes A and D stay with the sender, B crosses the purified untrusted
    channel to the receiver, L and the channel environment belong to the
    eavesdropper.  The sender's data readout is a heterodyne for the
    coherent protocol (v_s = 1) and an x homodyne for the squeezed one.
    """
    if solution.residual > RESIDUAL_TOL:
        raise ScenarioError(
            f"solution residual {solution.residual:.3e} exceeds "
            f"{RESIDUAL_TOL}")
    pre = two_source_circuit(solution)
    # Cheap guard: the signal ensemble must match the requested protocol.
    for got, want, name in (
            (pre.variance("B", "x"), v_s + v_m, "V_B(x)"),
            (pre.variance("B", "p"), 1.0 / v_s + v_m, "V_B(p)"),
            (pre.block("B", "L")[0, 0], k * v_m, "C_BL(x)")):
        if abs(got - want) > 1e-6:
            raise ScenarioError(
                f"solution does not reproduce {name}: {got} vs {want}")
    post, env = apply_noisy_channel(pre, "B", channel, purify=True,
                                    eve_prefix="E")
    meas = "heterodyne" if v_s == 1.0 else "homodyne_x"
    return PurifiedModel(
        state=post,
        pre_channel=pre,
        bob_mode="B",
        alice_modes=("A", "D"),
        alice_data_modes=("A", "D"),
        alice_measurement=meas,
        eve_modes=("L",) + env,
    )


def build_eb_premod(v_s: float, v_m: float, eta_e: float,
                    channel: ChannelModel, t1: float = 1.0 - 1e-6,
                    v_s0: float = 1e-6, v_es: float = 1.0) -> PurifiedModel:
    """Entanglement-based model of the premodulation-leakage protocol.

    t1 is the transmittance of the two strongly unbalanced beam splitters
    and v_s0 the x variance of the readout ancilla; the exact protocol is
    recovered in the limit t1 -> 1, v_s0 -> 0, realized here at finite
    offsets inside the declared stability window.  The modulating EPR pair
    has variance v_m / (1 - t1).
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
    st = GaussianState.empty()
    st = attach_vacuum(st, "B")
    st = apply_squeezer(st, "B", -0.5 * math.log(v_s))
    st = attach_vacuum(st, "A")
    st = apply_squeezer(st, "A", -0.5 * math.log(v_s0))
    st = attach_epr(st, "C", "D", v_epr)
    eve_extra: tuple[str, ...] = ()
    if v_es == 1.0:
        st = attach_vacuum(st, "ES")
    else:
        st = attach_epr(st, "ES", "ES_twin", v_es)
        eve_extra = ("ES_twin",)
    st = apply_beamsplitter(st, "B", "ES", eta_e)
    st = apply_beamsplitter(st, "B", "D", t1)
    st = apply_beamsplitter(st, "A", "C", t1)
    post, env = apply_noisy_channel(st, "B", channel, purify=True,
                                    eve_prefix="E")
    meas = "heterodyne" if v_s == 1.0 else "homodyne_x"
    return PurifiedModel(
        state=post,
        pre_channel=st,
        bob_mode="B",
        alice_modes=("A", "C", "D"),
        alice_data_modes=("A", "C", "D"),
        alice_measurement=meas,
        eve_modes=("ES",) + eve_extra + env,
    )
