"""Gaussian-state covariance algebra in shot-noise units.

All states are zero-mean Gaussian states of N optical modes, described by a
2N x 2N covariance matrix over the quadrature vector (x1, p1, ..., xN, pN).
The shot-noise unit (SNU) convention is used throughout: the vacuum state has
quadrature variance 1, so physical covariance matrices have all symplectic
eigenvalues >= 1.

Modes are addressed by opaque string labels rather than indices, so protocol
code can say "condition on mode E" without tracking positions.  Every
operation returns a new state; nothing is mutated in place, which makes the
functions safe to call concurrently.

Beneath the labelled API each operation has one label-free array core that
acts on plain covariance matrices with modes at fixed positions:
:func:`append_block` (with :func:`epr_block`), :func:`squeezer`,
:func:`beamsplitter` (and :func:`symplectic_map`), :func:`schur_condition`
(with :func:`submatrix`), :func:`covariance_entropy` and the physicality
check :func:`physical_covariance`; :func:`mode_rows` finds a mode's rows.
The cores from :func:`squeezer` on act on the last two axes, so they
accept one ``(2N, 2N)`` matrix or a stack ``(n, 2N, 2N)`` of them (a beam
splitter mixes every matrix of a stack alike), and a stack gives every
matrix the numbers one call per matrix gives: the batched Cholesky,
Hermitian eigenvalue and linear solves and the stacked matrix products
compute each matrix as the unbatched ones do.
The labelled functions translate labels to rows, call their core on one
matrix and wrap the result in one :class:`GaussianState`; code that
already knows the mode order (the key rates of a sweep) calls the cores on
stacks directly and builds no state at all.
"""

from __future__ import annotations

import functools
import math
from dataclasses import InitVar, dataclass

import numpy as np

# Tolerance policy: physicality checks at 1e-9, equality assertions in tests
# at 1e-8, serialization round-trips at 1e-12.
SYMMETRY_RTOL = 1e-12
PHYSICALITY_ATOL = 1e-9
PHYSICALITY_TOL_CAP = 0.5
ENTROPY_NU_CLAMP = 1e-6


class ModeError(ValueError):
    """Raised for unknown, duplicate or otherwise invalid mode labels."""


class PhysicalityError(ValueError):
    """Raised when a covariance matrix violates the uncertainty principle."""


def _largest_entry(cm: np.ndarray) -> np.ndarray:
    """max(1, largest |entry|) of each matrix of a stack, or of one matrix."""
    if not cm.shape[-1]:
        return np.ones(cm.shape[:-2])
    return np.maximum(1.0, np.abs(cm).max(axis=(-2, -1)))


def physicality_tolerance(cm: np.ndarray):
    """How far below 1 a computed symplectic eigenvalue may credibly sit.

    Rounding the entries of a pure two-mode squeezed pair of variance V to
    floating point already perturbs its unit symplectic eigenvalues by
    about eps V^2 (the nu^2 = V^2 - (V^2 - 1) cancellation), so states with
    huge variances cannot be certified tighter than that.  For matrices of
    order unity this reduces to the 1e-9 physicality floor.  The tolerance
    never exceeds PHYSICALITY_TOL_CAP, so that an eigenvalue far below 1
    is rejected at any scale; entries are clipped at 1e150 first, whose
    square would otherwise overflow.  One float for one matrix, an array
    of them for a stack.
    """
    scale = np.minimum(_largest_entry(cm), 1e150)
    tol = np.minimum(np.maximum(PHYSICALITY_ATOL,
                                4.0 * np.finfo(float).eps * scale * scale),
                     PHYSICALITY_TOL_CAP)
    return tol if cm.ndim > 2 else float(tol)


def physical_covariance(cm: np.ndarray,
                        check_physicality: bool = True) -> np.ndarray:
    """Array core of the :class:`GaussianState` check, per matrix.

    Each matrix must be symmetric to SYMMETRY_RTOL of its largest entry;
    it is then symmetrized (the rounding asymmetry averaged out), and with
    ``check_physicality`` its smallest symplectic eigenvalue must reach
    1 - :func:`physicality_tolerance`.  Returns the symmetrized matrix or
    stack; a failing matrix raises PhysicalityError (for the eigenvalue
    check, naming the smallest eigenvalue of the first such matrix).
    """
    if not cm.shape[-1]:
        return cm
    asymmetry = np.abs(cm - cm.swapaxes(-1, -2)).max(axis=(-2, -1))
    if (asymmetry > SYMMETRY_RTOL * _largest_entry(cm)).any():
        raise PhysicalityError("covariance matrix is not symmetric")
    cm = 0.5 * (cm + cm.swapaxes(-1, -2))
    if check_physicality:
        nu_min = np.min(_symplectic_eigenvalues(cm), axis=-1)
        below = nu_min < 1.0 - physicality_tolerance(cm)
        if below.any():
            first = nu_min.reshape(-1)[below.reshape(-1)][0]
            raise PhysicalityError(
                f"uncertainty principle violated: min symplectic "
                f"eigenvalue {float(first)!r} < 1")
    return cm


@functools.cache
def symplectic_form(n_modes: int) -> np.ndarray:
    """Return the 2N x 2N symplectic form for (x1, p1, ..., xN, pN) ordering.

    Block diagonal with 2x2 blocks [[0, 1], [-1, 0]]; satisfies omega @ omega
    = -identity.  Built once per size and shared, so the array is read-only.
    """
    omega = np.zeros((2 * n_modes, 2 * n_modes))
    for i in range(n_modes):
        omega[2 * i, 2 * i + 1] = 1.0
        omega[2 * i + 1, 2 * i] = -1.0
    omega.flags.writeable = False
    return omega


@dataclass(frozen=True)
class GaussianState:
    """Zero-mean Gaussian state over labelled modes.

    Attributes
    ----------
    mode_labels : tuple of str
        Unique identifiers, one per mode, in covariance-matrix order.
    cm : ndarray
        Symmetric 2N x 2N covariance matrix in SNU, quadrature ordering
        (x1, p1, ..., xN, pN).

    Direct construction verifies the uncertainty principle
    (:func:`physical_covariance`).  The operations in this module skip
    that eigenvalue check on their outputs (check_physicality=False):
    symplectic maps, mode attachment and Gaussian conditioning preserve
    physicality exactly, and rechecking after every step dominated the
    runtime.  The preservation itself is covered by the randomized
    property tests.
    """

    mode_labels: tuple[str, ...]
    cm: np.ndarray
    check_physicality: InitVar[bool] = True

    def __post_init__(self, check_physicality: bool = True):
        labels = tuple(str(l) for l in self.mode_labels)
        n = len(labels)
        if len(set(labels)) != n:
            raise ModeError(f"duplicate mode labels in {labels}")
        cm = np.array(self.cm, dtype=float)
        if cm.shape != (2 * n, 2 * n):
            raise ModeError(
                f"covariance matrix shape {cm.shape} does not match "
                f"{n} modes")
        cm = physical_covariance(cm, check_physicality)
        cm.flags.writeable = False
        object.__setattr__(self, "mode_labels", labels)
        object.__setattr__(self, "cm", cm)

    @classmethod
    def empty(cls) -> "GaussianState":
        return cls(mode_labels=(), cm=np.zeros((0, 0)))

    @property
    def n_modes(self) -> int:
        return len(self.mode_labels)

    def index(self, label: str) -> int:
        return _mode_index(self.mode_labels, label)

    def has_mode(self, label: str) -> bool:
        return label in self.mode_labels

    def block(self, label_row: str, label_col: str) -> np.ndarray:
        """2x2 covariance block between two modes (equal labels: variance)."""
        i, j = 2 * self.index(label_row), 2 * self.index(label_col)
        return self.cm[i:i + 2, j:j + 2].copy()

    def variance(self, label: str, quadrature: str) -> float:
        i = 2 * self.index(label) + _quad_offset(quadrature)
        return float(self.cm[i, i])

    def rows(self, labels, quadrature: "str | None" = None) -> list[int]:
        """Covariance rows of the listed modes (:func:`mode_rows`)."""
        return mode_rows(self.mode_labels, labels, quadrature)


def _mode_index(mode_labels: tuple[str, ...], label: str) -> int:
    try:
        return mode_labels.index(label)
    except ValueError:
        raise ModeError(f"unknown mode {label!r}; "
                        f"present: {mode_labels}") from None


def mode_rows(mode_labels: tuple[str, ...], labels,
              quadrature: "str | None" = None) -> list[int]:
    """Rows of the listed modes in a matrix over ``mode_labels``.

    In the listed order; both quadratures of each mode, or only
    ``quadrature`` ('x'/'p').
    """
    offsets = (0, 1) if quadrature is None else (_quad_offset(quadrature),)
    return [2 * _mode_index(mode_labels, l) + q
            for l in labels for q in offsets]


def _quad_offset(quadrature: str) -> int:
    if quadrature == "x":
        return 0
    if quadrature == "p":
        return 1
    raise ValueError(f"quadrature must be 'x' or 'p', got {quadrature!r}")


def append_block(cm: np.ndarray, block: np.ndarray) -> np.ndarray:
    """Array core: cm with the modes of ``block`` appended, uncorrelated."""
    n, m = len(cm), len(block)
    out = np.zeros((n + m, n + m))
    out[:n, :n] = cm
    out[n:, n:] = block
    return out


def epr_block(variance: float) -> np.ndarray:
    """Array core: covariance of a two-mode squeezed vacuum of variance V.

    Both modes get diagonal variance V; the x quadratures are correlated
    by +sqrt(V^2 - 1) and the p quadratures by -sqrt(V^2 - 1), so the pair is
    pure for every V >= 1.
    """
    if variance < 1.0:
        raise ValueError(f"EPR variance must be >= 1, got {variance}")
    c = math.sqrt(variance * variance - 1.0)
    return np.array([
        [variance, 0.0, c, 0.0],
        [0.0, variance, 0.0, -c],
        [c, 0.0, variance, 0.0],
        [0.0, -c, 0.0, variance],
    ])


def _require_new(state: GaussianState, labels) -> None:
    for label in labels:
        if state.has_mode(label):
            raise ModeError(f"mode {label!r} already present")


def attach_vacuum(state: GaussianState, label: str) -> GaussianState:
    """Append one vacuum mode (unit variances, no correlations)."""
    _require_new(state, (label,))
    return GaussianState(state.mode_labels + (label,),
                         append_block(state.cm, np.eye(2)),
                         check_physicality=False)


def attach_epr(state: GaussianState, label_a: str, label_b: str,
               variance: float) -> GaussianState:
    """Append a two-mode squeezed vacuum (EPR) pair of variance V >= 1.

    The pair's covariance is :func:`epr_block`.
    """
    block = epr_block(variance)
    _require_new(state, (label_a, label_b))
    if label_a == label_b:
        raise ModeError("EPR labels must differ")
    return GaussianState(state.mode_labels + (label_a, label_b),
                         append_block(state.cm, block),
                         check_physicality=False)


def symplectic_map(cm: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Array core: S @ cm @ S.T, with the rounding asymmetry averaged out.

    ``cm`` may be a stack, every matrix mapped by the same S.
    """
    m = s @ cm @ s.T
    return 0.5 * (m + m.swapaxes(-1, -2))


def beamsplitter_matrix(n_modes: int, ia: int, ib: int,
                        transmittance: float) -> np.ndarray:
    """Symplectic matrix of a beam splitter between modes ia and ib.

    Input-output relation on the quadrature vectors (v_a, v_b):

        v_a ->  sqrt(T) v_a + sqrt(1-T) v_b
        v_b -> -sqrt(1-T) v_a + sqrt(T) v_b

    applied identically to x and p; all other modes are untouched.
    """
    if not 0.0 <= transmittance <= 1.0:
        raise ValueError(f"transmittance must lie in [0, 1], "
                         f"got {transmittance}")
    t = math.sqrt(transmittance)
    rf = math.sqrt(1.0 - transmittance)
    s = np.eye(2 * n_modes)
    for q in range(2):
        a, b = 2 * ia + q, 2 * ib + q
        s[a, a] = t
        s[a, b] = rf
        s[b, a] = -rf
        s[b, b] = t
    return s


def beamsplitter(cm: np.ndarray, ia: int, ib: int,
                 transmittance: float) -> np.ndarray:
    """Array core: mix modes ia and ib on a beam splitter of transmittance T.

    ``cm`` may be a stack, every matrix mixed by the same T.
    """
    s = beamsplitter_matrix(cm.shape[-1] // 2, ia, ib, transmittance)
    return symplectic_map(cm, s)


def apply_beamsplitter(state: GaussianState, mode_a: str, mode_b: str,
                       transmittance: float) -> GaussianState:
    """Mix two modes on a beam splitter of transmittance T in [0, 1].

    The covariance matrix maps to S @ cm @ S.T with S from
    :func:`beamsplitter_matrix`; all other modes are untouched.
    """
    ia, ib = state.index(mode_a), state.index(mode_b)
    if ia == ib:
        raise ModeError("beam splitter needs two distinct modes")
    return GaussianState(state.mode_labels,
                         beamsplitter(state.cm, ia, ib, transmittance),
                         check_physicality=False)


def squeezer(cm: np.ndarray, i: int, r: float) -> np.ndarray:
    """Array core: squeeze mode i, x variance by e^{-2r} and p by e^{+2r}."""
    if not math.isfinite(r):
        raise ValueError(f"squeezing parameter must be finite, got {r}")
    s = np.eye(cm.shape[-1])
    s[2 * i, 2 * i] = math.exp(-r)
    s[2 * i + 1, 2 * i + 1] = math.exp(r)
    return symplectic_map(cm, s)


def apply_squeezer(state: GaussianState, mode: str, r: float) -> GaussianState:
    """Single-mode squeezer (:func:`squeezer`)."""
    return GaussianState(state.mode_labels,
                         squeezer(state.cm, state.index(mode), r),
                         check_physicality=False)


def submatrix(cm: np.ndarray, rows, cols) -> np.ndarray:
    """Array core: the ``rows`` x ``cols`` block of a matrix or stack.

    ``rows`` and ``cols`` are lists of rows or slices.
    """
    return cm[..., rows, :][..., :, cols]


def schur_condition(cm: np.ndarray, keep, measured,
                    regularize: bool) -> np.ndarray:
    """Array core: covariance of rows ``keep`` given the ``measured`` rows.

    ``keep`` and ``measured`` are lists of rows or slices.  One Schur
    complement, gamma_keep - sigma M^-1 sigma^T, with M the measured rows'
    covariance (plus the identity for heterodyne, ``regularize``).  Joint
    conditioning never forms the large intermediates that conditioning one
    mode at a time would.  A homodyne variance that is not positive belongs
    to no physical state and raises PhysicalityError.
    """
    gamma_rest = submatrix(cm, keep, keep)
    sigma = submatrix(cm, keep, measured)
    block = submatrix(cm, measured, measured)
    if regularize:
        block = block + np.eye(block.shape[-1])
    else:
        variances = block.diagonal(0, -2, -1)
        if not (variances > 0.0).all():
            raise PhysicalityError(
                f"measured quadrature variances {variances} are not "
                f"all positive")
    update = sigma @ np.linalg.solve(block, sigma.swapaxes(-1, -2))
    return gamma_rest - 0.5 * (update + update.swapaxes(-1, -2))


def _joint_condition(state: GaussianState, modes, measured_rows,
                     regularize: bool) -> GaussianState:
    """Condition on the measured quadrature rows (:func:`schur_condition`)."""
    for mode in modes:
        state.index(mode)
    if len(set(modes)) != len(modes):
        raise ModeError("duplicate modes in joint conditioning")
    keep_rows = [i for i in range(2 * state.n_modes)
                 if (state.mode_labels[i // 2] not in modes)]
    cond = schur_condition(state.cm, keep_rows, measured_rows, regularize)
    labels = tuple(l for l in state.mode_labels if l not in modes)
    return GaussianState(labels, cond, check_physicality=False)


def joint_homodyne_condition(state: GaussianState, modes,
                             quadrature: str) -> GaussianState:
    """Condition on one quadrature of each listed mode, jointly."""
    modes = list(modes)
    rows = state.rows(modes, quadrature)
    return _joint_condition(state, modes, rows, regularize=False)


def joint_heterodyne_condition(state: GaussianState, modes) -> GaussianState:
    """Condition on heterodyne outcomes of all listed modes, jointly."""
    modes = list(modes)
    return _joint_condition(state, modes, state.rows(modes), regularize=True)


def homodyne_condition(state: GaussianState, mode: str,
                       quadrature: str) -> GaussianState:
    """State of the other modes after a homodyne detection of one mode."""
    return joint_homodyne_condition(state, [mode], quadrature)


def heterodyne_condition(state: GaussianState, mode: str) -> GaussianState:
    """State of the other modes after a heterodyne detection of one mode."""
    return joint_heterodyne_condition(state, [mode])


def partial_trace(state: GaussianState,
                  keep: "list[str] | tuple[str, ...]") -> GaussianState:
    """Reduced state over the requested modes, in the requested order.

    A request for every mode in the state's own order returns the state.
    """
    if tuple(keep) == state.mode_labels:
        return state
    keep = list(keep)
    if len(set(keep)) != len(keep):
        raise ModeError("duplicate labels in partial_trace request")
    rows = state.rows(keep)
    return GaussianState(tuple(keep), submatrix(state.cm, rows, rows),
                         check_physicality=False)


def _symplectic_eigenvalues(cm: np.ndarray) -> np.ndarray:
    """Symplectic spectrum of a covariance matrix (N values, descending).

    The eigenvalues of i Omega cm come in pairs +/- nu_i; their absolute
    values are deduplicated by sorting and taking every second entry.
    For positive-definite cm the spectrum is computed through a Cholesky
    factor: i L^T Omega L is Hermitian, so a backward-stable symmetric
    eigensolver applies (states mixing strongly squeezed and strongly
    anti-squeezed modes are badly conditioned for the plain nonsymmetric
    route).  Semidefinite inputs fall back to the direct eigenvalues.  A
    stack gives one spectrum per matrix; when one of its matrices is not
    positive definite, each matrix takes its own route.
    """
    n = cm.shape[-1] // 2
    if n == 0:
        return np.zeros(cm.shape[:-2] + (0,))
    omega = symplectic_form(n)
    try:
        l_factor = np.linalg.cholesky(cm)
    except np.linalg.LinAlgError:
        if cm.ndim > 2:
            return np.array([_symplectic_eigenvalues(m) for m in cm])
        eigs = np.linalg.eigvals(omega @ cm)
        nus = np.sort(np.abs(eigs))
        return nus[::2][::-1].copy()
    herm = 1j * (l_factor.swapaxes(-1, -2) @ omega @ l_factor)
    return np.linalg.eigvalsh(herm)[..., n:][..., ::-1]


def symplectic_eigenvalues(state: GaussianState) -> np.ndarray:
    return _symplectic_eigenvalues(state.cm)


def entropy_g(nu: float, nu_tolerance: float = ENTROPY_NU_CLAMP) -> float:
    """Entropy contribution g(nu) of one symplectic eigenvalue, in bits.

    g(nu) = ((nu+1)/2) log2((nu+1)/2) - ((nu-1)/2) log2((nu-1)/2), with
    g(1) = 0.  Values slightly below 1 (down to 1 - nu_tolerance, default
    1e-6) are treated as roundoff and clamped to 1; anything lower is
    rejected as unphysical.  Callers whose states passed through much
    larger intermediate variances may pass a wider tolerance, since
    near-unit eigenvalue pairs split by the square root of the matrix
    perturbation.
    """
    if nu < 1.0 - nu_tolerance:
        raise PhysicalityError(
            f"symplectic eigenvalue {nu} below 1; state is unphysical")
    if nu <= 1.0:
        return 0.0
    a = (nu + 1.0) / 2.0
    b = (nu - 1.0) / 2.0
    return a * math.log2(a) - b * math.log2(b)


def covariance_entropy(cm: np.ndarray, nu_tolerance=ENTROPY_NU_CLAMP):
    """Array core: von Neumann entropy of a covariance matrix, in bits.

    A float for one matrix.  A stack gives a list with one entropy per
    matrix, and ``nu_tolerance`` may then be a list with one clamp per
    matrix.  Each entropy is the sum of :func:`entropy_g` over its
    spectrum, in order.
    """
    nus = _symplectic_eigenvalues(cm).tolist()
    if cm.ndim == 2:
        return float(sum(entropy_g(nu, nu_tolerance) for nu in nus))
    if not isinstance(nu_tolerance, list):
        nu_tolerance = [nu_tolerance] * len(nus)
    return [float(sum(entropy_g(nu, clamp) for nu in spectrum))
            for spectrum, clamp in zip(nus, nu_tolerance)]


def von_neumann_entropy(state: GaussianState,
                        nu_tolerance: float = ENTROPY_NU_CLAMP) -> float:
    """Von Neumann entropy of the state in bits (0 for pure states)."""
    return covariance_entropy(state.cm, nu_tolerance)


def format_matrix_snapshot(cm: np.ndarray) -> str:
    """Serialize a matrix as plain-text rows of decimal numbers.

    Row i of the output is row i of the matrix in (x1, p1, ..., xN, pN)
    ordering, entries separated by single spaces, formatted with enough
    digits (repr precision) to round-trip within 1e-12.
    """
    cm = np.asarray(cm, dtype=float)
    lines = [" ".join(f"{v:.17g}" for v in row) for row in cm]
    return "\n".join(lines) + "\n"


def parse_matrix_snapshot(text: str) -> np.ndarray:
    rows = [
        [float(tok) for tok in line.split()]
        for line in text.strip().splitlines() if line.strip()
    ]
    if not rows:
        return np.zeros((0, 0))
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise ValueError("ragged matrix snapshot")
    return np.array(rows, dtype=float)
