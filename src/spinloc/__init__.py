"""Nuclear-spin localization from switchable-field precession spectroscopy.

The pipeline: calibrate the vector field from ODMR lines, extract hyperfine
couplings from precession and slow-oscillation frequencies, fit the azimuth
(and optionally the contact term) against coil-on line shifts, and propagate
measurement noise by Monte Carlo into confidence intervals on the nuclear
position.
"""

from __future__ import annotations

__version__ = "0.1.0"

from .errors import (SpinlocError, FrameError, DomainError,
                     InconsistentInputError, IdentifiabilityError,
                     ConvergenceError, ParseError)
from .core import (PhysicalConstants, DEFAULT_CONSTANTS, GAMMA_N_BAND,
                   Frame, FrameRegistry, default_registry, DEFAULT_REGISTRY,
                   LAB_FRAME_NAME, SENSOR_FRAME_NAME, COIL_FIELD, BIAS_FIELD,
                   Vector3, rotate, rotation_between, frame_from_axis,
                   load_config, save_config)
from .dipole import (SphericalPosition, HyperfineModel, dipolar_strength,
                     dipole_tensor, secular_couplings, invert_dipole,
                     invert_many, DftRow, ResidualEntry, ResidualBin,
                     ResidualMap, dft_residual_map, MIN_RADIUS)
from .dynamics import (LOW_FIELD, GENERAL_FIELD, EnhancementTensor,
                       enhancement, enhancement_factor, precession_frequency,
                       xi_kernel, OdmrLinePair, hamiltonian, transition_frequencies,
                       odmr_lines)
from .extract import (EXACT, APPROXIMATE, CouplingInputs, CouplingEstimate,
                      nominal_tau, extract_couplings, rabi_frequency)
from .localize import (MeasurementRecord, Minimum, AzimuthFit, xi, sum_sq_xi,
                       CostCurve, cost_curve, fit_azimuth, fit_azimuths,
                       LocalizedPosition,
                       assemble_position, SPIN_DENSITY_CENTER_OFFSET,
                       A_ISO_FIX_RADIUS)
from .montecarlo import (McConfig, PointEstimate, SolverStats, EstimateResult,
                         propagate, propagate_many, Histogram, histogram,
                         circular_mean)
from .fileio import (NucleusMeasurements, TruthSpec, TruthNucleus, FieldConfig,
                     NoiseSpec, load_measurements, save_measurements,
                     load_truth, load_odmr, save_odmr, load_dft_table)

# Field calibration and trace analysis are imported on first use (PEP 562),
# so that localizing never loads them.
_LAZY = {**dict.fromkeys(("OdmrEntry", "OdmrDataset", "FieldSolution", "solve_field",
                          "AlignmentReport", "alignment_report"), "calibrate"),
         **dict.fromkeys(("TimeTrace", "FrequencyEstimate", "synth_trace",
                          "estimate_frequencies"), "signal")}


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module
    value = getattr(import_module(f".{_LAZY[name]}", __name__), name)
    globals()[name] = value
    return value
