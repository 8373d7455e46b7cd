"""Azimuth and contact-term estimation from switchable-field measurements.

One coil configuration breaks the azimuthal symmetry of the precession
frequencies; the signed difference between the measured and predicted
coil-on frequency splittings (xi) is squared and summed over configurations
and minimized over phi, or jointly over (phi, a_iso). Frequency differences
rather than absolute frequencies cancel slow drifts of the static field.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import minimize, minimize_scalar

from .core import DEFAULT_CONSTANTS, PhysicalConstants, Vector3
from .dipole import SphericalPosition, dipole_tensor, invert_dipole, invert_many
from .dynamics import (GENERAL_FIELD, enhancement_factor, precession_frequency,
                       xi_kernel)
from .errors import FrameError, IdentifiabilityError
from .extract import CouplingEstimate

_TWO_PI = 2.0 * math.pi

# Reporting convention: shift along +z from the electron site to the center
# of gravity of the electronic spin density.
SPIN_DENSITY_CENTER_OFFSET = 2.29e-10  # m

# Beyond this radius the contact term is effectively zero and fitting it
# only adds variance; pipeline code fixes a_iso = 0 there by default.
A_ISO_FIX_RADIUS = 1.0e-9  # m

DEFAULT_A_ISO_RANGE = (-1.0e5, 1.0e5)  # Hz
DEFAULT_A_ISO_STEP = 2.5e3             # Hz
DEFAULT_PHI_STEP_DEG = 0.5

# Minima whose cost is within DEGENERACY_FACTOR of the global one (plus an
# absolute epsilon so an exactly-zero global cost still admits its mirror)
# count as degenerate.
DEGENERACY_FACTOR = 2.0
DEGENERACY_EPSILON = 0.1  # Hz, squared before use

# local polish of each grid minimum: the bounded line search (fixed a_iso)
# stops at _XATOL_DEG; Nelder-Mead in (deg, kHz) (free a_iso) at all three
_XATOL_DEG = 1e-9
_FATOL = 1e-18  # Hz^2
_MAXITER = 4000


def _as_sigma3(value, name: str) -> np.ndarray:
    s = np.asarray(value, dtype=float)
    if s.ndim == 0:
        s = np.full(3, float(s))
    if s.shape != (3,):
        raise ValueError(f"{name} must be a scalar or 3-vector")
    if not np.all(s > 0.0):
        raise ValueError(f"{name} components must be positive")
    s = s.copy()
    s.setflags(write=False)
    return s


@dataclass(frozen=True)
class MeasurementRecord:
    """One coil configuration's observations for one nucleus.

    f0/f_m1 are the coil-off precession frequencies, fp0/fp_m1 the coil-on
    ones; B0 and dB are the calibrated static and switchable field vectors in
    the sensor frame with per-component 1-sigma uncertainties. All Hz / T.
    """

    label: str
    f0: float
    sigma_f0: float
    f_m1: float
    sigma_f_m1: float
    fp0: float
    sigma_fp0: float
    fp_m1: float
    sigma_fp_m1: float
    B0: Vector3
    sigma_B0: np.ndarray
    dB: Vector3
    sigma_dB: np.ndarray

    def __post_init__(self):
        # f_m1 may sit below f0 when a_par < 0; only positivity is required
        if not (self.f0 > 0.0 and self.f_m1 > 0.0):
            raise ValueError(
                f"{self.label}: need positive f0 and f_m1, got "
                f"({self.f0!r}, {self.f_m1!r})")
        for name in ("sigma_f0", "sigma_f_m1", "sigma_fp0", "sigma_fp_m1"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{self.label}: {name} must be positive")
        if self.B0.frame != self.dB.frame:
            raise FrameError(
                f"{self.label}: B0 frame {self.B0.frame!r} differs from dB frame "
                f"{self.dB.frame!r}; both must be sensor-frame vectors")
        object.__setattr__(self, "sigma_B0", _as_sigma3(self.sigma_B0, "sigma_B0"))
        object.__setattr__(self, "sigma_dB", _as_sigma3(self.sigma_dB, "sigma_dB"))

    @property
    def measured_difference(self) -> float:
        """fp_m1 - fp0 in Hz, the coil-on splitting entering the cost."""
        return self.fp_m1 - self.fp0


@dataclass(frozen=True)
class Minimum:
    """A refined local minimum of the summed squared cost."""

    phi: float       # rad
    a_iso: float     # Hz
    residual: float  # Hz, sqrt of the summed squared cost


@dataclass(frozen=True)
class AzimuthFit:
    phi: float                  # rad, in [0, 2pi)
    a_iso: float                # Hz (the fixed value when fix_a_iso was given)
    residual: float             # Hz, sqrt(sum xi^2) at the optimum
    per_record_xi: tuple        # Hz, signed, one per record
    degenerate_minima: tuple    # rad, phis of all near-degenerate minima
    minima: tuple = field(default_factory=tuple)  # full Minimum detail
    a_iso_fixed: bool = False

    def __post_init__(self):
        if not (0.0 <= self.phi < _TWO_PI):
            raise ValueError(f"phi must lie in [0, 2pi), got {self.phi!r}")
        if self.residual < 0.0:
            raise ValueError("residual must be non-negative")


def xi(record: MeasurementRecord, coupling: CouplingEstimate, phi: float,
       a_iso: float = 0.0, variant: str = GENERAL_FIELD,
       constants: PhysicalConstants = DEFAULT_CONSTANTS) -> float:
    """Signed cost contribution of one record at trial (phi, a_iso), in Hz.

    Positive when the measured coil-on splitting exceeds the predicted one.
    """
    pos = invert_dipole(coupling.a_par, coupling.a_perp, a_iso, constants)
    hf = dipole_tensor(pos.with_phi(phi), a_iso, constants)
    th0 = precession_frequency(record.B0, record.dB, hf, 0, variant, constants)
    th_m1 = precession_frequency(record.B0, record.dB, hf, -1, variant, constants)
    return record.measured_difference - (th_m1 - th0)


def _xi_parts(records, coupling, phi, a_iso, variant, constants):
    """Each record's xi over broadcast (phi, a_iso) grids, from the dynamics
    kernel; a_iso values whose couplings do not invert yield NaN."""
    phi_a, iso_a = np.broadcast_arrays(np.asarray(phi, dtype=float),
                                       np.asarray(a_iso, dtype=float))
    r, theta = invert_many(coupling.a_par, coupling.a_perp, iso_a, constants)
    kernel = xi_kernel([(rec.measured_difference, rec.B0.components,
                         rec.dB.components) for rec in records],
                       variant, constants)
    return kernel(r, theta, phi_a, iso_a)


def sum_sq_xi(records, coupling, phi, a_iso, variant: str = GENERAL_FIELD,
              constants: PhysicalConstants = DEFAULT_CONSTANTS):
    """Summed squared cost over records, broadcast over (phi, a_iso)."""
    parts = _xi_parts(records, coupling, phi, a_iso, variant, constants)
    return sum(p * p for p in parts)


@dataclass(frozen=True)
class CostCurve:
    phi: np.ndarray            # rad
    per_record: np.ndarray     # |xi| in Hz, shape (n_records, len(phi))
    total: np.ndarray          # sum of squared xi, Hz^2


def cost_curve(records, coupling, a_iso: float = 0.0,
               phi_step_deg: float = DEFAULT_PHI_STEP_DEG,
               variant: str = GENERAL_FIELD,
               constants: PhysicalConstants = DEFAULT_CONSTANTS) -> CostCurve:
    """Dense |xi|(phi) sweep for plotting, at fixed a_iso."""
    phi = np.deg2rad(np.arange(0.0, 360.0, phi_step_deg))
    parts = _xi_parts(records, coupling, phi, a_iso, variant, constants)
    per_record = np.abs(np.stack(parts))
    return CostCurve(phi=phi, per_record=per_record,
                     total=np.sum(np.stack(parts) ** 2, axis=0))


def _grid_local_minima(profile: np.ndarray) -> list[int]:
    """Indices of circular local minima (left edge on plateaus)."""
    left = np.roll(profile, 1)
    right = np.roll(profile, -1)
    return [int(i) for i in np.nonzero((profile < left) & (profile <= right))[0]]


def _check_identifiable(records, min_transverse: float):
    t = [float(np.hypot(r.dB.components[0], r.dB.components[1])) for r in records]
    if max(t) < min_transverse:
        raise IdentifiabilityError(
            f"all records have transverse dB below {min_transverse:g} T "
            f"(max {max(t):g} T); the cost is flat in phi")


def _check_off_crossing(records, variant, constants):
    """DomainError for a static field at the electronic level crossing, where
    the model, and with it every grid point, is undefined."""
    for rec in records:
        for m_S in (0, -1):
            enhancement_factor(m_S, float(rec.B0.components[2]), variant, constants)


def fit_azimuth(records, coupling: CouplingEstimate, fix_a_iso: float | None = None,
                *, phi_step_deg: float = DEFAULT_PHI_STEP_DEG,
                a_iso_range: tuple = DEFAULT_A_ISO_RANGE,
                a_iso_step: float = DEFAULT_A_ISO_STEP,
                degeneracy_factor: float = DEGENERACY_FACTOR,
                min_transverse_db: float = 1e-6,
                variant: str = GENERAL_FIELD,
                constants: PhysicalConstants = DEFAULT_CONSTANTS) -> AzimuthFit:
    """Global fit of phi (and a_iso unless fixed) to the record set.

    Dense grid scan first: the landscape generically has two symmetric
    near-degenerate minima per configuration, so a local solver alone is not
    trustworthy. Every grid-level local minimum of the phi profile (after
    minimizing over the a_iso axis in the joint case) is polished locally;
    minima within ``degeneracy_factor`` of the global cost are reported.
    Ties on cost (within 1e-9 relative) resolve to the smallest phi so the
    result does not depend on evaluation order.
    """
    records = list(records)
    if not records:
        raise ValueError("need at least one measurement record")
    _check_identifiable(records, min_transverse_db)
    _check_off_crossing(records, variant, constants)

    phi_grid = np.deg2rad(np.arange(0.0, 360.0, phi_step_deg))
    candidates = []
    if fix_a_iso is not None:
        cost_1d = sum_sq_xi(records, coupling, phi_grid, float(fix_a_iso),
                            variant, constants)
        cost_1d = np.where(np.isfinite(cost_1d), cost_1d, np.inf)
        step = math.radians(phi_step_deg)

        def f1(p):
            return float(sum_sq_xi(records, coupling, p % _TWO_PI,
                                   float(fix_a_iso), variant, constants))

        for i in _grid_local_minima(cost_1d):
            phi0 = float(phi_grid[i])
            res = minimize_scalar(f1, bounds=(phi0 - step, phi0 + step),
                                  method="bounded",
                                  options={"xatol": math.radians(_XATOL_DEG)})
            candidates.append((float(res.fun), float(res.x) % _TWO_PI,
                               float(fix_a_iso)))
    else:
        lo, hi = a_iso_range
        iso_grid = np.arange(lo, hi + 0.5 * a_iso_step, a_iso_step)
        surf = sum_sq_xi(records, coupling, phi_grid[:, None], iso_grid[None, :],
                         variant, constants)
        surf = np.where(np.isfinite(surf), surf, np.inf)
        profile = surf.min(axis=1)

        # degrees/kHz variables keep the two curvatures comparable
        def f2(x):
            return float(sum_sq_xi(records, coupling,
                                   math.radians(x[0]) % _TWO_PI,
                                   x[1] * 1e3, variant, constants))

        for i in _grid_local_minima(profile):
            j = int(np.argmin(surf[i]))
            x0 = np.array([math.degrees(phi_grid[i]), iso_grid[j] / 1e3])
            simplex = np.array([x0, x0 + [0.5 * phi_step_deg, 0.0],
                                x0 + [0.0, 0.5 * a_iso_step / 1e3]])
            res = minimize(f2, x0, method="Nelder-Mead",
                           options={"initial_simplex": simplex,
                                    "xatol": _XATOL_DEG, "fatol": _FATOL,
                                    "maxiter": _MAXITER})
            candidates.append((float(res.fun),
                               math.radians(res.x[0]) % _TWO_PI,
                               float(res.x[1]) * 1e3))

    # merge refinements that converged to the same point, keeping the best
    merged: list[tuple] = []
    for cost, phi, iso in sorted(candidates):
        dup = False
        for mc, mp, mi in merged:
            dphi = abs((phi - mp + math.pi) % _TWO_PI - math.pi)
            if dphi < 1e-3 and abs(iso - mi) < max(1.0, 1e-6 * abs(mi)):
                dup = True
                break
        if not dup:
            merged.append((cost, phi, iso))

    best_cost = merged[0][0]
    near = [m for m in merged if m[0] <= best_cost * (1.0 + 1e-9) + 1e-18]
    best_cost, best_phi, best_iso = min(near, key=lambda m: m[1])

    eps2 = DEGENERACY_EPSILON ** 2
    keep = [m for m in merged if m[0] <= degeneracy_factor * best_cost + eps2]
    keep.sort(key=lambda m: m[1])
    minima = tuple(Minimum(phi=m[1], a_iso=m[2], residual=math.sqrt(m[0]))
                   for m in keep)

    per_xi = tuple(float(v) for v in _xi_parts(
        records, coupling, best_phi, best_iso, variant, constants))
    return AzimuthFit(phi=best_phi, a_iso=best_iso,
                      residual=math.sqrt(best_cost),
                      per_record_xi=per_xi,
                      degenerate_minima=tuple(m.phi for m in minima),
                      minima=minima,
                      a_iso_fixed=fix_a_iso is not None)


@dataclass(frozen=True)
class LocalizedPosition:
    """Full 3D location assembled from couplings plus the azimuth fit."""

    position: SphericalPosition
    cartesian: np.ndarray         # m, origin at the electron site
    cartesian_offset: np.ndarray  # m, z shifted by z_offset (reporting only)
    z_offset: float

    def __post_init__(self):
        for name in ("cartesian", "cartesian_offset"):
            v = np.asarray(getattr(self, name), dtype=float).copy()
            v.setflags(write=False)
            object.__setattr__(self, name, v)


def assemble_position(coupling: CouplingEstimate, fit: AzimuthFit,
                      z_offset: float = SPIN_DENSITY_CENTER_OFFSET,
                      constants: PhysicalConstants = DEFAULT_CONSTANTS
                      ) -> LocalizedPosition:
    """(r, theta) from the inversion at the fitted a_iso, phi from the fit."""
    pos = invert_dipole(coupling.a_par, coupling.a_perp, fit.a_iso,
                        constants).with_phi(fit.phi)
    cart = pos.cartesian()
    return LocalizedPosition(position=pos, cartesian=cart,
                             cartesian_offset=cart + np.array([0.0, 0.0, z_offset]),
                             z_offset=z_offset)
