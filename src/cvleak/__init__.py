"""Security analysis of continuous-variable QKD with source-side leakage.

Covariance-matrix models of coherent- and squeezed-state protocols whose
preparation stage leaks: either through correlated modulation of extra
source modes, or through a lossy coupling before the modulator.  The
package computes secret key rates under individual and collective attacks,
validates them against the closed-form limits, and optimizes protocol
parameters.
"""

from .gaussian import (
    GaussianState,
    ModeError,
    PhysicalityError,
    apply_beamsplitter,
    apply_squeezer,
    attach_epr,
    attach_vacuum,
    entropy_g,
    heterodyne_condition,
    homodyne_condition,
    partial_trace,
    symplectic_eigenvalues,
    symplectic_form,
    von_neumann_entropy,
)
from .keyrate import (
    KeyRateReport,
    dr_shortdistance_rate,
    holevo_bound,
    key_rate,
    key_rate_collective,
    key_rate_individual,
    key_rates,
    multimode_asymptotics,
    mutual_info_ab,
    premod_asymptotics,
    premod_perfect_channel_rates,
)
from .optimize import (
    OptimizationResult,
    max_tolerable_k,
    optimize_squeezing,
    optimize_vm,
    secure_distance,
)
from .purification import (
    BlochMessiahSolution,
    PurifiedModel,
    SolverError,
    build_eb_multimode,
    build_eb_premod,
    solve_bloch_messiah,
)
from .scenarios import (
    ChannelModel,
    MultimodeLeakageScenario,
    PremodLeakageScenario,
    ProtocolChoice,
    ScenarioError,
    apply_noisy_channel,
    build_pm_multimode,
    build_pm_premod,
    channel_output_variance,
    distance_to_transmittance,
    effective_leakage,
)

__version__ = "0.1.0"

__all__ = [
    "GaussianState", "ModeError", "PhysicalityError",
    "apply_beamsplitter", "apply_squeezer", "attach_epr", "attach_vacuum",
    "entropy_g", "heterodyne_condition", "homodyne_condition",
    "partial_trace", "symplectic_eigenvalues", "symplectic_form",
    "von_neumann_entropy",
    "KeyRateReport", "dr_shortdistance_rate", "holevo_bound", "key_rate",
    "key_rate_collective", "key_rate_individual", "key_rates",
    "multimode_asymptotics",
    "mutual_info_ab", "premod_asymptotics", "premod_perfect_channel_rates",
    "OptimizationResult", "max_tolerable_k", "optimize_squeezing",
    "optimize_vm", "secure_distance",
    "BlochMessiahSolution", "PurifiedModel", "SolverError",
    "build_eb_multimode", "build_eb_premod", "solve_bloch_messiah",
    "ChannelModel", "MultimodeLeakageScenario", "PremodLeakageScenario",
    "ProtocolChoice", "ScenarioError", "apply_noisy_channel",
    "build_pm_multimode", "build_pm_premod", "channel_output_variance",
    "distance_to_transmittance", "effective_leakage",
]
