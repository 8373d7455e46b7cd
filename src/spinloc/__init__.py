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
                   Vector3, rotation_between, frame_from_axis, load_config)
from .dipole import (SphericalPosition, HyperfineModel, dipolar_strength,
                     dipole_tensor, secular_couplings, invert_dipole,
                     invert_many, MIN_RADIUS)
from .dynamics import (LOW_FIELD, GENERAL_FIELD, enhancement_factor,
                       precession_frequency, xi_kernel)
from .extract import (EXACT, APPROXIMATE, CouplingInputs, CouplingEstimate,
                      nominal_tau, extract_couplings, rabi_frequency)
from .localize import (MeasurementRecord, Minimum, AzimuthFit, xi,
                       CostCurve, cost_curve, fit_azimuth, fit_azimuths,
                       SPIN_DENSITY_CENTER_OFFSET, A_ISO_FIX_RADIUS)
from .montecarlo import (McConfig, PointEstimate, SolverStats, EstimateResult,
                         propagate, propagate_many, Histogram, histogram,
                         circular_mean)
from .fileio import NucleusMeasurements, load_measurements, save_measurements

# The modules of the other commands are imported on first use (PEP 562), so
# that localizing never loads them.
_LAZY = {**dict.fromkeys(("OdmrLinePair", "hamiltonian", "transition_frequencies",
                          "odmr_lines", "OdmrEntry", "OdmrDataset", "FieldSolution",
                          "solve_field", "AlignmentReport", "alignment_report",
                          "load_odmr", "save_odmr"), "calibrate"),
         **dict.fromkeys(("TimeTrace", "FrequencyEstimate", "synth_trace",
                          "estimate_frequencies"), "signal"),
         **dict.fromkeys(("TruthSpec", "TruthNucleus", "FieldConfig", "NoiseSpec",
                          "load_truth"), "simulate"),
         **dict.fromkeys(("DftRow", "ResidualEntry", "ResidualBin", "ResidualMap",
                          "dft_residual_map", "load_dft_table"), "dft")}


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module
    value = getattr(import_module(f".{_LAZY[name]}", __name__), name)
    globals()[name] = value
    return value
