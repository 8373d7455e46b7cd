"""Azimuth and contact-term estimation from switchable-field measurements.

One coil configuration breaks the azimuthal symmetry of the precession
frequencies; the signed difference between the measured and predicted
coil-on frequency splittings (xi) is squared and summed over configurations
and minimized over phi, or jointly over (phi, a_iso). Frequency differences
rather than absolute frequencies cancel slow drifts of the static field.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .core import DEFAULT_CONSTANTS, SENSOR_FRAME_NAME, PhysicalConstants, Vector3
from .dipole import dipole_tensor, invert_dipole
from .dynamics import (GENERAL_FIELD, XiKernel, enhancement_factor,
                       precession_frequency, xi_kernel)
from .errors import (FrameError, IdentifiabilityError, InconsistentInputError,
                     SpinlocError)
from .extract import CouplingEstimate

_TWO_PI = 2.0 * math.pi

# Reporting convention: shift along +z from the electron site to the center
# of gravity of the electronic spin density.
SPIN_DENSITY_CENTER_OFFSET = 2.29e-10  # m

# Beyond this radius the contact term is effectively zero and fitting it
# only adds variance; pipeline code fixes a_iso = 0 there by default.
A_ISO_FIX_RADIUS = 1.0e-9  # m

DEFAULT_A_ISO_RANGE = (-1.0e5, 1.0e5)  # Hz
# The joint (phi, a_iso) grid only seeds the polish, which frees a_iso over
# the whole range, so its a_iso axis need only separate the valleys: put a
# column near the floor of every phi row. Half a step from the floor costs
# c (step / 2)^2 more, where c = sum (dxi/da_iso)^2 is the cost's curvature
# along a_iso. At the polished minima of random geometries over the
# criterion-5 ranges (r 6-15 A, theta 5-85 deg), with the example's line
# noise (1.25e5 Hz^2 per record's xi), that excess reaches one noise
# variance no nearer than 5.4 kHz from the floor, so a 10 kHz step keeps
# every row's best column within what the data resolve. On 300 such
# geometries, noisy and noise-free, a 10 kHz grid found the same polished
# minima as a 0.5 kHz one. With noise a coarser grid can seed a lane that
# stops at _LM_MAX_ITER short of a minimum, which _finish then reports only
# if it is the best.
DEFAULT_A_ISO_STEP = 10e3              # Hz
DEFAULT_PHI_STEP_DEG = 0.5

# Below this transverse coil field in every record the cost is flat in phi.
MIN_TRANSVERSE_DB = 1e-6  # T

# Minima whose cost is within DEGENERACY_FACTOR of the global one (plus an
# absolute epsilon so an exactly-zero global cost still admits its mirror)
# count as degenerate.
DEGENERACY_FACTOR = 2.0
DEGENERACY_EPSILON = 0.1  # Hz, squared before use

# Levenberg-Marquardt on the per-record xi (More, LNM 630, 1978), on the
# exact Jacobian of the xi kernel. Where J^T J + S is positive definite the
# model adds S, each lane's secant estimate of the residual curvature that
# Gauss-Newton lacks (NL2SOL: Dennis, Gay and Welsch, ACM TOMS 7 (1981) 348),
# without which steps shrink only linearly at large residuals. The damping
# starts at _LM_LAMBDA0 and follows the gain ratio of that model: halved
# (down to _LM_LAMBDA_MIN) after a step that did what the model predicted,
# raised after a poor one. Where the cost is concave along the step (y^T s
# <= 0 for the gradient change y), S learns nothing and the Gauss-Newton
# steps would only crawl forward, so each lane scales its step by a
# multiplier mu (More and Sorensen, SIAM J. Sci. Stat. Comput. 4 (1983)
# 553): mu starts at 1, doubles after every accepted step with y^T s <= 0
# and returns to 1 after any other step, and a step taken with mu > 1
# leaves the damping as it was.
#
# Every step solves one 2x2 system, (a, b; b, c) step = -(g, h), over the
# coordinates not held on a bound, in ``_newton``: the damped step, the
# full step of the sample early stop below, and the Monte Carlo's linear
# starts. Where a pivot the solve needs is not positive the step is
# infinite, and the lane stays where it is; its next kernel call then finds
# a zero step, and the lane stops.
#
# A lane stops when a step moves phi and a_iso by under _LM_XTOL_*, when an
# accepted step lowers the cost by under _LM_FTOL relative (a few rounding
# units: the cost has stopped falling), or after _LM_MAX_ITER iterations.
# Point fits stop only so, at rounding level, and each such stop pays for a
# kernel call that confirms what the step already showed.
#
# Monte Carlo samples (``sample`` pools) may also stop when their step is
# formed, before that call, at the precision their reports can show: the
# tolerances follow from the accuracy the answer needs (Dennis and
# Schnabel, Numerical Methods for Unconstrained Optimization and Nonlinear
# Equations, 1983, sec. 7.2). A sample reaches a report only through the
# order statistics that end its intervals, whose Monte Carlo standard error
# exceeds 4e-4 rad in phi and 200 Hz in a_iso on the benchmark nuclei, and
# every sample stays within 1e-6 rad and 0.01 Hz of its solve at point-fit
# tolerances. One shape is exempt: with two records and a_iso free the cost
# can be flat to rounding over 0.04 Hz of a_iso, and solves at any
# tolerance may end that far apart. A sample lane stops early when the
# model's full (undamped) step, its estimate of the distance left, moves
# phi by at most _LM_SAMPLE_XTOL_PHI and a_iso by at most
# _LM_SAMPLE_XTOL_ISO, a tenth of those bounds, and the decrease
# g^T H^-1 g it predicts is at most _LM_RFCTOL of the cost: NL2SOL's
# relative function convergence test (Dennis, Gay and Welsch 1981) at its
# default tolerance, max(1e-10, eps^(2/3)). The model is trusted only while
# it has predicted well: no step multiplier (mu = 1), and damping no higher
# than at the start, which any poor step raises above 1. In flat a_iso
# valleys a secant term fitted to a short step can misjudge the distance
# left by more than the bound.
_LM_LAMBDA0 = 1e-3
_LM_LAMBDA_MIN = 1e-6
_LM_FTOL = 1e-15
_LM_XTOL_PHI = 1e-9    # rad
_LM_XTOL_ISO = 1e-4    # Hz
_LM_MAX_ITER = 50
_LM_SAMPLE_XTOL_PHI = 1e-7  # rad
_LM_SAMPLE_XTOL_ISO = 1e-3  # Hz
_LM_RFCTOL = 1e-10


def _over(num, den):
    """num / den where den > 0, else inf."""
    return np.divide(num, den, out=np.full(np.broadcast(num, den).shape, np.inf),
                     where=den > 0.0)


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

    fp0/fp_m1 are the coil-on precession frequencies; B0 and dB are the
    calibrated static and switchable field vectors in the sensor frame with
    per-component 1-sigma uncertainties. All Hz / T. The nucleus's coil-off
    lines, which give its couplings, are its ``CouplingInputs``.
    """

    label: str
    fp0: float
    sigma_fp0: float
    fp_m1: float
    sigma_fp_m1: float
    B0: Vector3
    sigma_B0: np.ndarray
    dB: Vector3
    sigma_dB: np.ndarray

    def __post_init__(self):
        for name in ("sigma_fp0", "sigma_fp_m1"):
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
    degenerate_minima: tuple    # rad, phis of all near-degenerate minima
    minima: tuple = field(default_factory=tuple)  # full Minimum detail

    def __post_init__(self):
        if not (0.0 <= self.phi < _TWO_PI):
            raise ValueError(f"phi must lie in [0, 2pi), got {self.phi!r}")
        if self.residual < 0.0:
            raise ValueError("residual must be non-negative")


def xi(record: MeasurementRecord, coupling: CouplingEstimate, phi: float,
       a_iso: float = 0.0, constants: PhysicalConstants = DEFAULT_CONSTANTS) -> float:
    """Signed cost contribution of one record at trial (phi, a_iso), in Hz.

    Positive when the measured coil-on splitting exceeds the predicted one.
    """
    pos = invert_dipole(coupling.a_par, coupling.a_perp, a_iso, constants)
    hf = dipole_tensor(pos.with_phi(phi), a_iso, constants)
    th0, th_m1 = (precession_frequency(record.B0, record.dB, hf, m_S, GENERAL_FIELD,
                                       constants) for m_S in (0, -1))
    return record.measured_difference - (th_m1 - th0)


def _dot(u, v):
    """Per-lane sum over the rows of u * v, for (rows, lanes) arrays such as
    one row per record; the rows are added in order."""
    return (u * v).sum(axis=0)


def _kernel(records, coupling, constants):
    """The dynamics xi kernel of the records at the coupling; a_iso values
    whose couplings do not invert yield NaN."""
    return xi_kernel([(rec.measured_difference, rec.B0.components,
                       rec.dB.components) for rec in records],
                     coupling.a_par, coupling.a_perp, constants)


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
    parts = _kernel(records, coupling, constants)(phi, a_iso, derivatives=False)
    return CostCurve(phi=phi, per_record=np.abs(parts),
                     total=_dot(parts, parts))


class _LaneFit(NamedTuple):
    a_par: np.ndarray       # Hz, the lane's couplings (rows 0 and 1 of
    a_perp: np.ndarray      # Hz, its kernel's constants)
    phi: np.ndarray         # rad
    a_iso: np.ndarray       # Hz
    cost: np.ndarray        # Hz^2, summed squared xi
    iterations: np.ndarray  # solver iterations, one kernel call each
    converged: np.ndarray   # False where the iteration cap stopped the lane
    at_bound: np.ndarray    # True where phi or a free a_iso ends on the box


def _secant_update(sec, s, y, y_sharp, ys, update):
    """The lanes' secant terms sec = (S_phiphi, S_phiiso, S_isoiso) after the
    step s, with ys = y^T s, by the update of Dennis, Gay and Welsch, S first
    sized by tau = min(1, |s^T y#| / |s^T S s|); lanes not in ``update``
    keep S."""
    sec_s = sec[[0, 1]] * s[0] + sec[[1, 2]] * s[1]
    ys = np.where(update, ys, 1.0)
    s_y_sharp, s_sec_s = np.abs(_dot(y_sharp, s)), np.abs(_dot(sec_s, s))
    tau = np.divide(s_y_sharp, s_sec_s, out=np.ones_like(ys),
                    where=s_sec_s > s_y_sharp)
    w = (y_sharp - tau * sec_s) / ys
    k = _dot(w, s) / ys
    return np.where(update, [
        tau * v + w[i] * y[j] + y[i] * w[j] - k * y[i] * y[j]
        for v, (i, j) in zip(sec, ((0, 0), (0, 1), (1, 1)))], sec)


# lanes per kernel call of the lane pool, and per inversion block of the
# Monte Carlo estimate: bounds their per-lane arrays. A grid scan, 720 x 21
# lanes without derivatives at the default steps, is one call.
_LANE_BLOCK = 4096


def _join_lanes(batches):
    """Batches of solver lanes, (kernel, phi, a_iso, phi_box, iso_box), side
    by side in order: every batch's kernel constants widened to its lane
    count (views, for the pool to join in one concatenation), the first
    kernel's b_max, then one array each of phi, a_iso, phi lo, phi hi,
    a_iso lo and a_iso hi, whose batch values may be shared scalars."""
    sizes = [np.size(b[1]) for b in batches]

    def cat(values):
        return np.concatenate([np.broadcast_to(v, (m,)) for v, m in zip(values, sizes)])

    kernels, phi, iso, phi_box, iso_box = zip(*batches)
    return ([np.broadcast_to(k.consts.reshape(len(k.consts), -1), (len(k.consts), m))
             for k, m in zip(kernels, sizes)], kernels[0].b_max, cat(phi), cat(iso),
            *map(cat, zip(*phi_box)), *map(cat, zip(*iso_box)))


def _normal(jac, res):
    """The normal equations of every lane, J^T J = (a, b; b, c) and
    J^T r = (g, h), as (a, b, c, g, h), from the Jacobian columns
    (dxi/dphi, dxi/da_iso) and the residuals r, one row per record."""
    return (_dot(jac[0], jac[0]), _dot(jac[0], jac[1]), _dot(jac[1], jac[1]),
            _dot(jac[0], res), _dot(jac[1], res))


def _newton(a, b, c, g, h, pin_phi, pin_iso):
    """The step (phi, a_iso) that solves (a, b; b, c) step = -(g, h) over
    the coordinates not pinned, lane-wise: a pinned coordinate's step is 0,
    and the step is inf where a pivot it needs is not positive."""
    det = np.where(a > 0.0, a * c - b * b, 0.0)
    return (np.where(pin_phi, 0.0, np.where(
                pin_iso, _over(-g, a), _over(b * h - c * g, det))),
            np.where(pin_iso, 0.0, np.where(
                pin_phi, _over(-h, c), _over(b * g - a * h, det))))


def _lm_step(lanes, sample: bool):
    """The next step of every lane of a ``_levenberg_marquardt`` batch, as
    (trial phi, trial a_iso, g, h, a_s, b_s, c_s), with (g, h) the gradient
    / 2 and (a_s, b_s; b_s, c_s) the model's Hessian / 2; a lane whose
    damped step is not finite stays where it is. The model adds the secant
    term where the sum is positive definite or, on a lane that holds a_iso
    (an a_iso box of zero width), where its phi pivot is positive. Also the
    lanes of a ``sample`` pool that stop when their step is formed (False
    for other pools): where the model has predicted well so far, its full
    step over the coordinates not held on a bound moves phi by at most
    _LM_SAMPLE_XTOL_PHI and a_iso by at most _LM_SAMPLE_XTOL_ISO, and
    predicts a decrease of at most _LM_RFCTOL of the cost."""
    phi, iso, cost, lam, mult, sec, *box, res = lanes[:11]
    a, b, c, g, h = _normal(lanes[11:13], res)
    a_s, b_s, c_s = a + sec[0], b + sec[1], c + sec[2]
    held = box[2] == box[3]
    s11, s12, s22 = np.where((a_s > 0.0) & (held | (a_s * c_s > b_s * b_s)), sec, 0.0)
    a_s, b_s, c_s = a + s11, b + s12, c + s22  # the model's Hessian / 2
    pin_phi = np.where(g > 0.0, phi <= box[0], phi >= box[1])
    pin_iso = np.where(h > 0.0, iso <= box[2], iso >= box[3])
    step_phi, step_iso = _newton(a * (1.0 + lam) + s11, b_s, c * (1.0 + lam) + s22,
                                 g, h, pin_phi, pin_iso)
    move = np.isfinite(step_phi) & np.isfinite(step_iso)
    step = [np.clip(np.where(move, phi + mult * step_phi, phi), box[0], box[1]),
            np.clip(np.where(move, iso + mult * step_iso, iso), box[2], box[3]),
            g, h, a_s, b_s, c_s]
    if not sample:
        return step, False
    full_phi, full_iso = _newton(a_s, b_s, c_s, g, h, pin_phi, pin_iso)
    short = ((np.abs(full_phi) <= _LM_SAMPLE_XTOL_PHI)
             & (np.abs(full_iso) <= _LM_SAMPLE_XTOL_ISO))
    # where the step is short, the decrease g^T H^-1 g it predicts is
    # -g . step
    full_phi, full_iso = (np.where(short, v, 0.0) for v in (full_phi, full_iso))
    return step, (short & (mult == 1.0) & (lam <= _LM_LAMBDA0)
                  & (-(g * full_phi + h * full_iso) <= _LM_RFCTOL * cost))


def _compact(arrays, keep):
    """Cuts each lane array of the list ``arrays`` to the lanes ``keep``, in
    place: each old array is freed as its copy is made."""
    for k in range(len(arrays)):
        arrays[k] = arrays[k].take(keep, axis=-1)


def _levenberg_marquardt(pieces, *, sample: bool = False) -> _LaneFit:
    """Box-bounded Levenberg-Marquardt fit of (phi, a_iso) on every lane of
    a pool.

    ``pieces`` lists (count, lanes) pairs; ``lanes(lo, hi)`` gives lanes
    lo..hi-1 of its piece as (kernel, phi, a_iso, phi_box, iso_box): their
    ``dynamics.xi_kernel``, starts and (lo, hi) boxes. Lanes are numbered in
    piece order. The pool starts with _LANE_BLOCK lanes and, whenever fewer
    than _LANE_BLOCK // 4 still run, tops up to _LANE_BLOCK with the next
    lanes, splitting a piece where the room ends, so that iterations are not
    spent on a few slow lanes at a time; new lanes join the batch, their
    kernel constants widened to one column per lane, and start in the
    running lanes' next kernel call.

    Steps solve the damped normal equations of the kernel's exact Jacobian,
    plus the lane's secant term (``_lm_step``), and are clipped to the
    boxes; a coordinate on its bound whose descent points out stays there,
    so a lane whose a_iso box has zero width holds a_iso fixed. Every
    iteration makes one kernel call, at the trial point, whose derivatives
    are kept when the step is accepted. Each lane keeps its own damping,
    step multiplier and iteration count, and stops on its own tests or
    after _LM_MAX_ITER of its own iterations; in a ``sample`` pool a lane
    whose model says it has converged to report precision stops when its
    step is formed, before paying for a kernel call. Stopped lanes leave
    the batch, their kernel constants with their other lane arrays.
    The arithmetic is per lane, so no lane's result depends on its batch
    or on when it joined. Lanes with no finite cost at the start come back
    unchanged. Each lane's record carries its couplings, taken from its
    kernel constants when it stops.
    """
    queue = deque((0, count, piece) for count, piece in pieces if count)
    n = sum(count for _, count, _ in queue)
    fit = _LaneFit(*np.empty((5, n)), np.zeros(n, dtype=int),
                   np.ones(n, dtype=bool), np.zeros(n, dtype=bool))

    def admit(room):
        batches = []
        while room and queue:
            lo, count, piece = queue.popleft()
            hi = min(count, lo + room)
            if hi < count:
                queue.appendleft((hi, count, piece))
            batches.append(piece(lo, hi))
            room -= hi - lo
        return _join_lanes(batches)

    admitted = 0
    idx = np.arange(0)  # the running lanes
    # per running lane: phi, a_iso, cost, damping, step multiplier mu, the
    # secant term S (S_phiphi, S_phiiso, S_isoiso), the box (phi lo, phi hi,
    # a_iso lo, a_iso hi), then xi and its Jacobian, and its kernel
    # constants (see ``dynamics.xi_kernel``);
    # and its next step: the trial phi and a_iso, the gradient / 2 (g, h) and
    # the model's Hessian / 2 (a_s, b_s, c_s)
    lanes = step = ()

    while True:
        na = idx.size
        if na:
            phi, iso, cost, lam, mult, sec, *box, res = lanes[:11]
            *jac, consts = lanes[11:]
            phi_t, iso_t, g, h, a_s, b_s, c_s = step
            fit.iterations[idx] += 1
        else:
            phi_t, iso_t = np.empty(0), np.empty(0)
        batch = (admit(_LANE_BLOCK - na)
                 if na < _LANE_BLOCK // 4 and queue else None)
        m = 0 if batch is None else batch[2].size
        if not (m or na):
            return fit
        if m:
            # the new lanes' kernel constants join the running lanes' in one
            # concatenation, and are held once, in it, through the call
            widened, b_max, phi_n, iso_n, *box_n = batch
            consts = np.concatenate(([consts] if na else []) + widened, axis=-1)
            batch = widened = lanes = None
            phi_t, iso_t = np.concatenate([phi_t, phi_n]), np.concatenate([iso_t, iso_n])
        # one kernel call: the running lanes' trial points, then the new
        # lanes' start points
        res_t, *jac_t = XiKernel(consts, b_max)(phi_t, iso_t)
        cost_t = _dot(res_t, res_t)

        done = np.zeros(0, dtype=bool)
        if na:
            step_phi, step_iso = phi_t[:na] - phi, iso_t[:na] - iso
            res_r, cost_r = res_t[:, :na], cost_t[:na]
            jac_r = [j[:, :na] for j in jac_t]
            accept = cost_r < cost
            done = (((np.abs(step_phi) <= _LM_XTOL_PHI)
                     & (np.abs(step_iso) <= _LM_XTOL_ISO))
                    | (accept & (cost - cost_r <= _LM_FTOL * cost)))
            # damping from the gain ratio of actual to predicted decrease; a
            # poor step shortens the next one to the minimum of the parabola
            # through the cost and slope at the start and the cost at the
            # trial point
            slope = 2.0 * (g * step_phi + h * step_iso)
            pred = -slope - (a_s * step_phi ** 2 + 2.0 * b_s * step_phi * step_iso
                             + c_s * step_iso ** 2)
            ratio = np.divide(cost - cost_r, pred, out=np.zeros_like(pred),
                              where=pred > 0.0)
            curv = cost_r - cost - slope
            shrink = np.full_like(pred, 0.1)
            np.divide(-0.5 * slope, curv, out=shrink, where=curv > 0.0)
            lam = np.where(mult > 1.0, lam, np.where(
                ratio > 0.75, np.maximum(0.5 * lam, _LM_LAMBDA_MIN),
                np.where(ratio >= 0.25, lam,
                         (1.0 + lam) / np.clip(shrink, 0.1, 0.5) - 1.0)))

            # the secant update from y = J_t^T r_t - J^T r and
            # y# = (J_t - J)^T r_t
            y, y_sharp = np.zeros((2, 2, na))
            for i, (j_t, j, grad) in enumerate(zip(jac_r, jac, (g, h))):
                grad_t = _dot(j_t, res_r)
                y[i], y_sharp[i] = grad_t - grad, grad_t - _dot(j, res_r)
            s = (step_phi, step_iso)
            ys = _dot(y, s)
            sec = _secant_update(sec, s, y, y_sharp, ys, accept & (ys > 0.0))
            mult = np.where(accept & (ys <= 0.0), 2.0 * mult, 1.0)

            phi, iso, cost, res, *jac = (
                np.where(accept, new, old) for new, old in
                zip((phi_t[:na], iso_t[:na], cost_r, res_r, *jac_r),
                    (phi, iso, cost, res, *jac)))
            lanes = (phi, iso, cost, lam, mult, sec, *box, res, *jac)
        if m:
            cost_n = cost_t[na:]
            new = (phi_n, iso_n, cost_n, np.full(m, _LM_LAMBDA0), np.ones(m),
                   np.zeros((3, m)), *box_n, res_t[:, na:],
                   *(j[:, na:] for j in jac_t))
            lanes = (tuple(np.concatenate([u, v], axis=-1)
                           for u, v in zip(lanes, new)) if na else new)
            idx = np.concatenate([idx, np.arange(admitted, admitted + m)])
            done = np.concatenate([done, ~np.isfinite(cost_n)])
            admitted += m
        lanes = [*lanes, consts]

        # each running lane's next step, then the lanes that stopped, ran
        # out of iterations at their best point or, as samples, need no
        # further kernel call leave the batch
        step, early = _lm_step(lanes, sample)
        done = done | early
        stop = done | (fit.iterations[idx] >= _LM_MAX_ITER)
        if stop.any():
            fin = idx[stop]
            phi_f, iso_f, cost_f = (v[stop] for v in lanes[:3])
            box = [v[stop] for v in lanes[6:10]]
            fit.phi[fin], fit.a_iso[fin], fit.cost[fin] = phi_f, iso_f, cost_f
            fit.a_par[fin], fit.a_perp[fin] = consts[:2, stop]
            fit.converged[fin] = done[stop]
            on_edge = ((phi_f == box[0]) | (phi_f == box[1])
                       | ((box[2] < box[3]) & ((iso_f == box[2]) | (iso_f == box[3]))))
            fit.at_bound[fin] = on_edge & np.isfinite(cost_f)
            # integer takes: on a lane axis of a few thousand, a boolean
            # mask copies several times slower
            keep = np.flatnonzero(~stop)
            idx = idx[keep]
            _compact(step, keep)
            _compact(lanes, keep)


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


class _Scan(NamedTuple):
    """One nucleus's grid scan: the xi kernel of its records and the solver
    lanes its polish starts from, one per grid minimum."""

    kernel: XiKernel
    phi: np.ndarray      # rad
    a_iso: np.ndarray    # Hz
    phi_box: tuple       # (lo, hi), per lane
    iso_box: tuple       # (lo, hi), per lane

    def lanes(self, lo, hi):
        """Lanes lo..hi-1 of the polish, as ``_levenberg_marquardt`` takes
        them; a fixed a_iso is held by its box of zero width."""
        return (self.kernel, self.phi[lo:hi], self.a_iso[lo:hi],
                tuple(v[lo:hi] for v in self.phi_box),
                tuple(v[lo:hi] for v in self.iso_box))


def _scan(records, coupling, fix_a_iso, phi_step_deg, a_iso_step,
          constants) -> _Scan:
    """The checks of ``fit_azimuth`` and its grid scan."""
    if not records:
        raise ValueError("need at least one measurement record")
    for rec in records:
        if rec.B0.frame != SENSOR_FRAME_NAME:
            raise FrameError(f"{rec.label}: fields are given in frame "
                             f"{rec.B0.frame!r}; the fit needs "
                             f"{SENSOR_FRAME_NAME!r} components")
    _check_identifiable(records)
    _check_off_crossing(records, constants)

    # the (phi, a_iso) grid, with one a_iso column when a_iso is fixed; its
    # phi profile is the least cost over the a_iso columns of each row
    kernel = _kernel(records, coupling, constants)
    phi_grid = np.deg2rad(np.arange(0.0, 360.0, phi_step_deg))
    lo, hi = DEFAULT_A_ISO_RANGE
    iso_grid = (np.arange(lo, hi + 0.5 * a_iso_step, a_iso_step)
                if fix_a_iso is None else np.array([float(fix_a_iso)]))
    parts = kernel(phi_grid[:, None], iso_grid[None, :], derivatives=False)
    surf = _dot(parts, parts)
    surf = np.where(np.isfinite(surf), surf, np.inf)
    profile = surf.min(axis=1)
    # one lane of the polish at every local minimum along a_iso of each
    # profile-minimum row: the row's least column alone can sit in a
    # valley whose polished floor is not the best one
    k = _grid_local_minima(profile)
    rows = surf[k]
    edge = np.full((len(k), 1), np.inf)
    i, j = np.nonzero((rows < np.hstack([edge, rows[:, :-1]]))
                      & (rows <= np.hstack([rows[:, 1:], edge])))
    phi0, iso0 = phi_grid[k][i], iso_grid[j]
    # With a_iso fixed, phi stays within a grid step of its grid minimum. In
    # the joint fit the coarse a_iso grid can misplace a diagonal valley's
    # phi by more than a step, so there phi (periodic) is left free and
    # a_iso held to its range.
    if fix_a_iso is None:
        phi_box = (np.full(phi0.size, -np.inf), np.full(phi0.size, np.inf))
        iso_box = (np.full(phi0.size, lo), np.full(phi0.size, hi))
    else:
        step = math.radians(phi_step_deg)
        phi_box, iso_box = (phi0 - step, phi0 + step), (iso0, iso0)
    if not np.isfinite(profile).any():
        raise InconsistentInputError(
            f"couplings (a_par, a_perp) = ({coupling.a_par:g}, "
            f"{coupling.a_perp:g}) Hz invert to a point dipole at no contact "
            "term of the fit")
    return _Scan(kernel, phi0, iso0, phi_box, iso_box)


def _finish(lm: _LaneFit) -> AzimuthFit:
    """The fit from the polished lanes of a scan: merged minima, the best
    one and its near-degenerate rivals. A lane that the iteration cap
    stopped is no minimum, unless it is the best."""
    # a tiny negative phi would wrap to 2pi itself
    candidates = [(float(c), float(p) % _TWO_PI, float(a), bool(ok))
                  for c, p, a, ok in zip(lm.cost, lm.phi, lm.a_iso, lm.converged)]
    candidates = [(c, 0.0 if p == _TWO_PI else p, a, ok) for c, p, a, ok in candidates]

    # merge refinements that converged to the same point, keeping the best
    merged: list[tuple] = []
    for cost, phi, iso, ok in sorted(candidates):
        dup = False
        for mc, mp, mi, _ in merged:
            dphi = abs((phi - mp + math.pi) % _TWO_PI - math.pi)
            if dphi < 1e-3 and abs(iso - mi) < max(1.0, 1e-6 * abs(mi)):
                dup = True
                break
        if not dup:
            merged.append((cost, phi, iso, ok))

    best_cost = merged[0][0]
    near = [m for m in merged if m[0] <= best_cost * (1.0 + 1e-9) + 1e-18]
    best = min(near, key=lambda m: m[1])
    best_cost, best_phi, best_iso, _ = best

    eps2 = DEGENERACY_EPSILON ** 2
    keep = [m for m in merged if (m[3] or m is best)
            and m[0] <= DEGENERACY_FACTOR * best_cost + eps2]
    keep.sort(key=lambda m: m[1])
    minima = tuple(Minimum(phi=m[1], a_iso=m[2], residual=math.sqrt(m[0]))
                   for m in keep)

    return AzimuthFit(phi=best_phi, a_iso=best_iso,
                      residual=math.sqrt(best_cost),
                      degenerate_minima=tuple(m.phi for m in minima),
                      minima=minima)


def _isolate(fn, *args):
    """fn(*args), or the SpinlocError or ValueError it raised: one
    nucleus's failure must not stop the others."""
    try:
        return fn(*args)
    except (SpinlocError, ValueError) as exc:
        return exc


def _solve(jobs, sample: bool) -> list:
    """The solver's lanes of every (record count, lane count, lanes) job,
    whose (lane count, lanes) is one ``_levenberg_marquardt`` piece: the
    jobs of one record count share one pool, fixed and free a_iso alike,
    the pools taken in order of first appearance, with the early stop of
    Monte Carlo samples if ``sample`` (point fits have none). Returns each
    job's _LaneFit, in order, as views into its pool's arrays."""
    jobs = list(jobs)
    pools: dict = {}
    for k, (n_records, _, _) in enumerate(jobs):
        pools.setdefault(n_records, []).append(k)
    out = [None] * len(jobs)
    for members in pools.values():
        lm = _levenberg_marquardt([jobs[k][1:] for k in members], sample=sample)
        end = 0
        for k in members:
            start, end = end, end + jobs[k][1]
            out[k] = _LaneFit(*(v[start:end] for v in lm))
    return out


def fit_azimuths(problems, *, phi_step_deg: float = DEFAULT_PHI_STEP_DEG,
                 a_iso_step: float = DEFAULT_A_ISO_STEP,
                 constants: PhysicalConstants = DEFAULT_CONSTANTS) -> list:
    """``fit_azimuth`` of every (records, coupling, fix_a_iso) problem.

    Returns one entry per problem, in order: its AzimuthFit, or the
    SpinlocError or ValueError its fit raised. Each problem is checked and
    grid-scanned on its own; then the grid minima of all problems with one
    record count, fixed and free a_iso alike, are polished together in one
    lane pool (``_solve``), whose lanes do not depend on each other.
    """
    problems = [(list(records), coupling, fix) for records, coupling, fix in problems]
    out = [_isolate(_scan, *p, phi_step_deg, a_iso_step, constants)
           for p in problems]
    live = [k for k, s in enumerate(out) if not isinstance(s, Exception)]
    lms = _solve(((len(problems[k][0]), out[k].phi.size, out[k].lanes)
                  for k in live), False)
    for k, lm in zip(live, lms):
        out[k] = _isolate(_finish, lm)
    return out


def fit_azimuth(records, coupling: CouplingEstimate, fix_a_iso: float | None = None,
                *, phi_step_deg: float = DEFAULT_PHI_STEP_DEG,
                a_iso_step: float = DEFAULT_A_ISO_STEP,
                constants: PhysicalConstants = DEFAULT_CONSTANTS) -> AzimuthFit:
    """Global fit of phi (and a_iso unless fixed) to the record set.

    Dense grid scan first: the landscape generically has two symmetric
    near-degenerate minima per configuration, so a local solver alone is not
    trustworthy. Every grid-level local minimum of the phi profile (after
    minimizing over the a_iso axis in the joint case) is polished locally,
    from each local minimum along a_iso of its row;
    minima within DEGENERACY_FACTOR of the global cost are reported.
    Ties on cost (within 1e-9 relative) resolve to the smallest phi so the
    result does not depend on evaluation order. Records must give their
    fields in the sensor frame; any other frame raises FrameError. The
    one-problem case of ``fit_azimuths``.
    """
    (fit,) = fit_azimuths([(records, coupling, fix_a_iso)],
                          phi_step_deg=phi_step_deg, a_iso_step=a_iso_step,
                          constants=constants)
    if isinstance(fit, Exception):
        raise fit
    return fit
