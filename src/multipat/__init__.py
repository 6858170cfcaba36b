"""Antenna pattern reconstruction from multipath probe voltages.

Represent far fields as truncated vector-spherical-harmonic series,
simulate probe voltages in a random multipath chamber, calibrate the
chamber channel from reference antennas, and reconstruct an unknown
antenna's pattern, radiation resistance, and directivity from its probe
voltages alone.
"""

from .chamber import ChamberModel, ChannelMatrix, analytic_channel, probe_voltages, sample_chamber, select_chamber
from .dipole import DipoleSpec, MatchedLineFeed, dipole_field, reference_dipole_set, terminal_current
from .farfield import (
    ETA0,
    ConvergenceWarning,
    RadiationSummary,
    SphereGrid,
    VshCoefficients,
    decompose,
    default_grid,
    directivity,
    enforce_symmetry,
    field_radiation_summary,
    radiated_power,
    radiation_resistance,
    radiation_summary,
    rms_field_error,
    synthesize,
    synthesize_on_grid,
)
from .planner import (
    ModeBudget,
    OptimizationResult,
    capacity_objective,
    epsilon_entropy,
    fibonacci_orientations,
    lambda_jensen,
    lambda_simple,
    mode_count,
    optimize_reference_orientations,
    plan_modes,
)
from .recon import (
    CalibrationSet,
    IllConditionedError,
    ReconstructionResult,
    apply_normalization,
    calibrate,
    channel_from_calibration,
    inverse_channel_from_calibration,
    reconstruct_inverse,
    reconstruct_lse,
    reconstruct_weights_direct,
)
from .vsh import ModeEntry, ModeSet, TangentVector, build_mode_set, r_cross_x, vsh_x

__version__ = "0.1.0"
