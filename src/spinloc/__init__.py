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
                   LAB_FRAME_NAME, SENSOR_FRAME_NAME, Vector3, rotate,
                   rotation_between, frame_from_axis, load_config, save_config)
from .dipole import (SphericalPosition, HyperfineModel, dipolar_strength,
                     dipole_tensor, secular_couplings, invert_dipole,
                     invert_many, DftRow, ResidualEntry, ResidualBin,
                     ResidualMap, dft_residual_map, MIN_RADIUS)
from .dynamics import (LOW_FIELD, GENERAL_FIELD, EnhancementTensor,
                       enhancement, enhancement_factor, precession_frequency,
                       xi_kernel, OdmrLinePair, hamiltonian, transition_frequencies,
                       odmr_lines)
from .signal import TimeTrace, FrequencyEstimate, synth_trace, estimate_frequencies
from .extract import (EXACT, APPROXIMATE, CouplingInputs, CouplingEstimate,
                      nominal_tau, extract_couplings, rabi_frequency)
from .localize import (MeasurementRecord, Minimum, AzimuthFit, xi, sum_sq_xi,
                       CostCurve, cost_curve, fit_azimuth, LocalizedPosition,
                       assemble_position, SPIN_DENSITY_CENTER_OFFSET,
                       A_ISO_FIX_RADIUS)
from .montecarlo import (McConfig, PointEstimate, SolverStats, EstimateResult,
                         propagate, Histogram, histogram, circular_mean)
from .calibrate import (COIL_FIELD, BIAS_FIELD, OdmrEntry, OdmrDataset,
                        FieldSolution, solve_field, AlignmentReport,
                        alignment_report)
from .fileio import (NucleusMeasurements, TruthSpec, TruthNucleus, FieldConfig,
                     NoiseSpec, load_measurements, save_measurements,
                     load_truth, load_odmr, save_odmr, load_dft_table,
                     load_trace, save_trace)
