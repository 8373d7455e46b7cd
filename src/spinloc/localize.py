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
from typing import NamedTuple

import numpy as np

from .core import DEFAULT_CONSTANTS, SENSOR_FRAME_NAME, PhysicalConstants, Vector3
from .dipole import SphericalPosition, dipole_tensor, invert_dipole, invert_many
from .dynamics import (GENERAL_FIELD, enhancement_factor, precession_frequency,
                       xi_kernel)
from .errors import FrameError, IdentifiabilityError, InconsistentInputError
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

# Below this transverse coil field in every record the cost is flat in phi.
MIN_TRANSVERSE_DB = 1e-6  # T

# Minima whose cost is within DEGENERACY_FACTOR of the global one (plus an
# absolute epsilon so an exactly-zero global cost still admits its mirror)
# count as degenerate.
DEGENERACY_FACTOR = 2.0
DEGENERACY_EPSILON = 0.1  # Hz, squared before use

# Levenberg-Marquardt on the per-record xi (More, LNM 630, 1978). Jacobian
# steps: central in phi, because a forward difference biases phi by up to
# 1e-7 rad where the residuals are large; forward in a_iso, where each probe
# costs an inversion. The damping starts at _LM_LAMBDA0 and follows the gain
# ratio: halved (down to _LM_LAMBDA_MIN) after a step that did what the model
# predicted, raised after a poor one. A lane stops when a step moves phi and
# a_iso by under _LM_XTOL_*, when an accepted step lowers the cost by under
# _LM_FTOL relative (a few rounding units: the cost has stopped falling), or
# after _LM_MAX_ITER iterations.
_LM_STEP_PHI = 1e-6    # rad
_LM_STEP_ISO = 0.1     # Hz
_LM_LAMBDA0 = 1e-3
_LM_LAMBDA_MIN = 1e-6
_LM_FTOL = 1e-15
_LM_XTOL_PHI = 1e-9    # rad
_LM_XTOL_ISO = 1e-4    # Hz
_LM_MAX_ITER = 50


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


def _xi_parts(records, coupling, phi, a_iso, constants):
    """Each record's xi over broadcast (phi, a_iso) grids, from the dynamics
    kernel; a_iso values whose couplings do not invert yield NaN."""
    phi_a, iso_a = np.broadcast_arrays(np.asarray(phi, dtype=float),
                                       np.asarray(a_iso, dtype=float))
    r, theta = invert_many(coupling.a_par, coupling.a_perp, iso_a, constants)
    kernel = xi_kernel([(rec.measured_difference, rec.B0.components,
                         rec.dB.components) for rec in records],
                       GENERAL_FIELD, constants)
    return kernel(r, theta, phi_a, iso_a)


def sum_sq_xi(records, coupling, phi, a_iso,
              constants: PhysicalConstants = DEFAULT_CONSTANTS):
    """Summed squared cost over records, broadcast over (phi, a_iso)."""
    parts = _xi_parts(records, coupling, phi, a_iso, constants)
    return sum(p * p for p in parts)


@dataclass(frozen=True)
class CostCurve:
    phi: np.ndarray            # rad
    per_record: np.ndarray     # |xi| in Hz, shape (n_records, len(phi))
    total: np.ndarray          # sum of squared xi, Hz^2


def cost_curve(records, coupling, a_iso: float = 0.0,
               phi_step_deg: float = DEFAULT_PHI_STEP_DEG,
               constants: PhysicalConstants = DEFAULT_CONSTANTS) -> CostCurve:
    """Dense |xi|(phi) sweep for plotting, at fixed a_iso."""
    phi = np.deg2rad(np.arange(0.0, 360.0, phi_step_deg))
    parts = _xi_parts(records, coupling, phi, a_iso, constants)
    per_record = np.abs(np.stack(parts))
    return CostCurve(phi=phi, per_record=per_record,
                     total=np.sum(np.stack(parts) ** 2, axis=0))


class _LaneFit(NamedTuple):
    phi: np.ndarray         # rad
    a_iso: np.ndarray       # Hz
    cost: np.ndarray        # Hz^2, summed squared xi
    iterations: np.ndarray  # Jacobian evaluations
    converged: np.ndarray   # False where the iteration cap stopped the lane
    at_bound: np.ndarray    # True where phi or a free a_iso ends on the box


def _dot(u, v):
    """Per-lane sum over records of u * v, for (n_records, lanes) arrays."""
    return sum(x * y for x, y in zip(u, v))


def _levenberg_marquardt(lanes, phi, a_iso, phi_box, iso_box,
                         free_iso: bool) -> _LaneFit:
    """Box-bounded Levenberg-Marquardt fit of (phi, a_iso) on every lane.

    ``lanes(idx)`` returns, for the lane indices idx, the site function
    a_iso -> (r, theta) and the xi function of ``dynamics.xi_kernel``.
    a_iso stays at its start unless ``free_iso``. Steps solve the damped
    normal equations of a finite-difference Jacobian (backward in a_iso where
    the forward probe does not invert) and are clipped to the (lo, hi)
    boxes; a coordinate on its bound whose descent points out stays there.
    Each lane keeps its own damping and stops on its own test, and stopped
    lanes leave the batch, whose kernel is rebuilt on the lanes left. The
    arithmetic is per lane, so no lane's result depends on its batch. Lanes
    with no finite cost at the start come back unchanged.
    """
    phi = np.array(phi, dtype=float)
    iso = np.array(a_iso, dtype=float)
    m = phi.size
    box = [np.broadcast_to(b, (m,)) for b in (*phi_box, *iso_box)]
    fit = _LaneFit(phi.copy(), iso.copy(), np.full(m, np.nan),
                   np.zeros(m, dtype=int), np.ones(m, dtype=bool),
                   np.zeros(m, dtype=bool))
    edges = box

    idx = np.arange(m)
    site, xi = lanes(idx)
    r, theta = site(iso)
    res = np.stack(xi(r, theta, phi, iso))
    cost = _dot(res, res)
    lam = np.full(m, _LM_LAMBDA0)
    done = ~np.isfinite(cost)
    for it in range(_LM_MAX_ITER + 1):
        if done.any():
            fin, keep = idx[done], ~done
            fit.phi[fin], fit.a_iso[fin], fit.cost[fin] = (
                phi[done], iso[done], cost[done])
            idx = idx[keep]
            phi, iso, r, theta, res, cost, lam = (
                v[..., keep] for v in (phi, iso, r, theta, res, cost, lam))
            box = [b[keep] for b in box]
            if not idx.size:
                break
            site, xi = lanes(idx)
        if it == _LM_MAX_ITER:  # capped lanes keep their best point
            fit.phi[idx], fit.a_iso[idx], fit.cost[idx] = phi, iso, cost
            fit.converged[idx] = False
            break
        fit.iterations[idx] += 1

        j_phi = (np.stack(xi(r, theta, phi + _LM_STEP_PHI, iso))
                 - np.stack(xi(r, theta, phi - _LM_STEP_PHI, iso))
                 ) / (2.0 * _LM_STEP_PHI)
        j_iso = np.zeros_like(res)
        if free_iso:
            up = iso + _LM_STEP_ISO
            res_up = np.stack(xi(*site(up), phi, up))
            j_iso = (res_up - res) / _LM_STEP_ISO
            back = ~np.isfinite(res_up).all(axis=0)
            if back.any():
                down = iso - _LM_STEP_ISO
                res_down = np.stack(xi(*site(down), phi, down))
                j_iso = np.where(back, (res - res_down) / _LM_STEP_ISO, j_iso)
        a, b, g, h = (_dot(j_phi, j_phi), _dot(j_phi, j_iso), _dot(j_phi, res),
                      _dot(j_iso, res))
        c = _dot(j_iso, j_iso) if free_iso else 1.0
        d1 = a * (1.0 + lam)
        d1 = np.where(d1 > 0.0, d1, np.inf)
        d2 = c * (1.0 + lam)
        d2 = np.where(d2 > 0.0, d2, np.inf)
        det = d1 * d2 - b * b
        det = np.where(det > 0.0, det, np.inf)
        pin_phi = np.where(g > 0.0, phi <= box[0], phi >= box[1])
        pin_iso = np.where(h > 0.0, iso <= box[2], iso >= box[3])
        step_phi = np.where(pin_phi, 0.0, np.where(
            pin_iso, -g / d1, (b * h - d2 * g) / det))
        step_iso = np.where(pin_iso, 0.0, np.where(
            pin_phi, -h / d2, (b * g - d1 * h) / det))
        phi_t = np.clip(phi + step_phi, box[0], box[1])
        iso_t = np.clip(iso + step_iso, box[2], box[3])
        r_t, theta_t = site(iso_t) if free_iso else (r, theta)
        res_t = np.stack(xi(r_t, theta_t, phi_t, iso_t))
        cost_t = _dot(res_t, res_t)

        step_phi, step_iso = phi_t - phi, iso_t - iso
        accept = cost_t < cost
        done = (((np.abs(step_phi) <= _LM_XTOL_PHI)
                 & (np.abs(step_iso) <= _LM_XTOL_ISO))
                | (accept & (cost - cost_t <= _LM_FTOL * cost)))
        # damping from the gain ratio of actual to predicted decrease; a poor
        # step shortens the next one to the minimum of the parabola through
        # the cost and slope at the start and the cost at the trial point
        slope = 2.0 * (g * step_phi + h * step_iso)
        pred = -slope - (a * step_phi ** 2 + 2.0 * b * step_phi * step_iso
                         + c * step_iso ** 2)
        ratio = np.divide(cost - cost_t, pred, out=np.zeros_like(pred),
                          where=pred > 0.0)
        curv = cost_t - cost - slope
        shrink = np.full_like(pred, 0.1)
        np.divide(-0.5 * slope, curv, out=shrink, where=curv > 0.0)
        lam = np.where(ratio > 0.75, np.maximum(0.5 * lam, _LM_LAMBDA_MIN),
                       np.where(ratio >= 0.25, lam,
                                (1.0 + lam) / np.clip(shrink, 0.1, 0.5) - 1.0))

        phi, iso, r, theta, cost = (
            np.where(accept, new, old) for new, old in
            ((phi_t, phi), (iso_t, iso), (r_t, r), (theta_t, theta),
             (cost_t, cost)))
        res = np.where(accept, res_t, res)

    on_edge = (fit.phi == edges[0]) | (fit.phi == edges[1])
    if free_iso:
        on_edge |= (fit.a_iso == edges[2]) | (fit.a_iso == edges[3])
    fit.at_bound[:] = on_edge & np.isfinite(fit.cost)
    return fit


def _grid_local_minima(profile: np.ndarray) -> list[int]:
    """Indices of circular local minima (left edge on plateaus)."""
    left = np.roll(profile, 1)
    right = np.roll(profile, -1)
    return [int(i) for i in np.nonzero((profile < left) & (profile <= right))[0]]


def _check_identifiable(records):
    t = [float(np.hypot(r.dB.components[0], r.dB.components[1])) for r in records]
    if max(t) < MIN_TRANSVERSE_DB:
        raise IdentifiabilityError(
            f"all records have transverse dB below {MIN_TRANSVERSE_DB:g} T "
            f"(max {max(t):g} T); the cost is flat in phi")


def _check_off_crossing(records, constants):
    """DomainError for a static field at the electronic level crossing, where
    the model, and with it every grid point, is undefined."""
    for rec in records:
        for m_S in (0, -1):
            enhancement_factor(m_S, float(rec.B0.components[2]), GENERAL_FIELD,
                               constants)


def fit_azimuth(records, coupling: CouplingEstimate, fix_a_iso: float | None = None,
                *, phi_step_deg: float = DEFAULT_PHI_STEP_DEG,
                a_iso_step: float = DEFAULT_A_ISO_STEP,
                constants: PhysicalConstants = DEFAULT_CONSTANTS) -> AzimuthFit:
    """Global fit of phi (and a_iso unless fixed) to the record set.

    Dense grid scan first: the landscape generically has two symmetric
    near-degenerate minima per configuration, so a local solver alone is not
    trustworthy. Every grid-level local minimum of the phi profile (after
    minimizing over the a_iso axis in the joint case) is polished locally;
    minima within DEGENERACY_FACTOR of the global cost are reported.
    Ties on cost (within 1e-9 relative) resolve to the smallest phi so the
    result does not depend on evaluation order. Records must give their
    fields in the sensor frame; any other frame raises FrameError.
    """
    records = list(records)
    if not records:
        raise ValueError("need at least one measurement record")
    for rec in records:
        if rec.B0.frame != SENSOR_FRAME_NAME:
            raise FrameError(f"{rec.label}: fields are given in frame "
                             f"{rec.B0.frame!r}; the fit needs "
                             f"{SENSOR_FRAME_NAME!r} components")
    _check_identifiable(records)
    _check_off_crossing(records, constants)

    # every grid minimum is one lane of one polish. With a_iso fixed, phi
    # stays within a grid step of its grid minimum. In the joint fit the
    # coarse a_iso grid can misplace a diagonal valley's phi by more than a
    # step, so there phi (periodic) is left free and a_iso held to its range.
    phi_grid = np.deg2rad(np.arange(0.0, 360.0, phi_step_deg))
    if fix_a_iso is not None:
        profile = sum_sq_xi(records, coupling, phi_grid, float(fix_a_iso),
                            constants)
        profile = np.where(np.isfinite(profile), profile, np.inf)
        phi0 = phi_grid[_grid_local_minima(profile)]
        iso0 = np.full(phi0.size, float(fix_a_iso))
        step = math.radians(phi_step_deg)
        phi_box, iso_box = (phi0 - step, phi0 + step), (iso0, iso0)
    else:
        lo, hi = DEFAULT_A_ISO_RANGE
        iso_grid = np.arange(lo, hi + 0.5 * a_iso_step, a_iso_step)
        surf = sum_sq_xi(records, coupling, phi_grid[:, None], iso_grid[None, :],
                         constants)
        surf = np.where(np.isfinite(surf), surf, np.inf)
        profile = surf.min(axis=1)
        i = _grid_local_minima(profile)
        phi0 = phi_grid[i]
        iso0 = iso_grid[np.argmin(surf[i], axis=1)]
        phi_box, iso_box = (-np.inf, np.inf), (lo, hi)
    if not np.isfinite(profile).any():
        raise InconsistentInputError(
            f"couplings (a_par, a_perp) = ({coupling.a_par:g}, "
            f"{coupling.a_perp:g}) Hz invert to a point dipole at no contact "
            "term of the fit")

    kernel = xi_kernel([(rec.measured_difference, rec.B0.components,
                         rec.dB.components) for rec in records],
                       GENERAL_FIELD, constants)

    def site(iso):
        return invert_many(coupling.a_par, coupling.a_perp, iso, constants)

    lm = _levenberg_marquardt(lambda idx: (site, kernel), phi0, iso0, phi_box,
                              iso_box, free_iso=fix_a_iso is None)
    candidates = [(float(c), float(p) % _TWO_PI, float(a))
                  for c, p, a in zip(lm.cost, lm.phi, lm.a_iso)]

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
    keep = [m for m in merged if m[0] <= DEGENERACY_FACTOR * best_cost + eps2]
    keep.sort(key=lambda m: m[1])
    minima = tuple(Minimum(phi=m[1], a_iso=m[2], residual=math.sqrt(m[0]))
                   for m in keep)

    per_xi = tuple(float(v) for v in _xi_parts(
        records, coupling, best_phi, best_iso, constants))
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
                      constants: PhysicalConstants = DEFAULT_CONSTANTS
                      ) -> LocalizedPosition:
    """(r, theta) from the inversion at the fitted a_iso, phi from the fit;
    the offset position is shifted by SPIN_DENSITY_CENTER_OFFSET."""
    pos = invert_dipole(coupling.a_par, coupling.a_perp, fit.a_iso,
                        constants).with_phi(fit.phi)
    cart = pos.cartesian()
    z_offset = np.array([0.0, 0.0, SPIN_DENSITY_CENTER_OFFSET])
    return LocalizedPosition(position=pos, cartesian=cart,
                             cartesian_offset=cart + z_offset,
                             z_offset=SPIN_DENSITY_CENTER_OFFSET)
