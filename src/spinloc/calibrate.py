"""Vector-field calibration from ODMR line sets of several NV orientations.

Each orientation contributes two electron resonance lines; jointly fitting
all of them pins down the lab-frame field vector. The line positions are
strictly even under B -> -B (complex conjugation plus a pi rotation maps the
Hamiltonian of B onto that of -B for every orientation), so the solve
reports a canonical sign representative and both branch costs.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .core import (DEFAULT_CONSTANTS, DEFAULT_REGISTRY, Frame, FrameRegistry,
                   LAB_FRAME_NAME, PhysicalConstants, Vector3)
from .dynamics import OdmrLinePair, transition_frequencies
from .errors import ConvergenceError, IdentifiabilityError

COIL_FIELD = "coil-field"
BIAS_FIELD = "bias-field"

_CONDITION_LIMIT = 1e8


@dataclass(frozen=True)
class OdmrEntry:
    """One orientation's measured line pair and its per-line uncertainty."""

    frame: str
    lines: OdmrLinePair
    sigma: float  # Hz

    def __post_init__(self):
        if self.sigma <= 0.0:
            raise ValueError(f"sigma must be positive, got {self.sigma!r}")


@dataclass(frozen=True)
class OdmrDataset:
    entries: tuple
    context: str = COIL_FIELD

    def __post_init__(self):
        if self.context not in (COIL_FIELD, BIAS_FIELD):
            raise ValueError(f"context must be {COIL_FIELD!r} or {BIAS_FIELD!r}")
        object.__setattr__(self, "entries", tuple(self.entries))
        if not self.entries:
            raise ValueError("dataset has no entries")

    def frames(self) -> list[str]:
        return [e.frame for e in self.entries]


@dataclass(frozen=True)
class FieldSolution:
    """Lab-frame field with per-component uncertainty and fit diagnostics.

    ``branch_costs`` holds the weighted squared residual sums at +B and -B;
    they agree to numerical precision because the two are spectroscopically
    indistinguishable, and B is reported with its largest-magnitude lab
    component positive as the tie-break.
    """

    B: Vector3
    sigma: np.ndarray          # T, per lab component
    residuals: np.ndarray      # Hz, measured - model, two per entry
    rms_residual: float        # Hz
    branch_costs: tuple
    condition: float           # of the weighted Jacobian at the solution

    def __post_init__(self):
        for name in ("sigma", "residuals"):
            v = np.asarray(getattr(self, name), dtype=float).copy()
            v.setflags(write=False)
            object.__setattr__(self, name, v)


def _resolve_frames(dataset: OdmrDataset, registry: FrameRegistry) -> list[Frame]:
    return [registry.get(e.frame) for e in dataset.entries]


def _weighted_residuals(B_lab: np.ndarray, dataset: OdmrDataset, frames,
                        constants: PhysicalConstants) -> np.ndarray:
    out = np.empty(2 * len(frames))
    for k, (entry, fr) in enumerate(zip(dataset.entries, frames)):
        t_lo, t_hi = transition_frequencies(fr.rotation_to_lab.T @ B_lab, constants)
        out[2 * k] = (t_lo - entry.lines.f_minus) / entry.sigma
        out[2 * k + 1] = (t_hi - entry.lines.f_plus) / entry.sigma
    return out


def _linear_seeds(dataset: OdmrDataset, frames, constants: PhysicalConstants
                  ) -> list[np.ndarray]:
    """Seed candidates from the aligned-field reading of each line pair.

    The splitting gives only |axis . B| per orientation; the lost signs are
    enumerated (first orientation pinned positive, the global sign being
    degenerate anyway) and each pattern solved in least squares.
    """
    axes = np.array([fr.rotation_to_lab[:, 2] for fr in frames])
    mags = np.array([(e.lines.f_plus - e.lines.f_minus) / (2.0 * constants.gamma_e)
                     for e in dataset.entries])
    n = len(frames)
    seeds = []
    for bits in range(1 << (n - 1)):
        signs = np.array([1.0] + [1.0 if (bits >> k) & 1 == 0 else -1.0
                                  for k in range(n - 1)])
        sol, *_ = np.linalg.lstsq(axes, signs * mags, rcond=None)
        seeds.append(sol)
    return seeds


def _canonical_sign(B: np.ndarray) -> np.ndarray:
    k = int(np.argmax(np.abs(B)))
    return -B if B[k] < 0.0 else B


def solve_field(dataset: OdmrDataset, initial_guess: Vector3 | None = None,
                registry: FrameRegistry = DEFAULT_REGISTRY,
                constants: PhysicalConstants = DEFAULT_CONSTANTS) -> FieldSolution:
    """Nonlinear least-squares fit of the lab-frame field to all lines.

    Needs at least two crystallographically distinct orientations. With
    exactly two, the line set fixes only |B| and the two axial projections:
    the component out of the axes' plane keeps an unobservable sign
    (reflection through that plane), so the returned field may be the mirror
    of the true one; a warning flags this. Three or more distinct
    orientations leave only the global B -> -B degeneracy, resolved by the
    canonical-sign convention. Seeding enumerates the sign patterns of the
    per-orientation axial projections, which is what makes the global basin
    reachable for strongly tilted fields.
    """
    from scipy.optimize import least_squares  # deferred: slow to import

    frames = _resolve_frames(dataset, registry)
    distinct = sorted(set(dataset.frames()))
    if len(distinct) < 2:
        raise IdentifiabilityError(
            f"need lines from at least 2 distinct orientations, got {distinct}")
    if len(distinct) == 2:
        warnings.warn("only two orientations: field is determined but with "
                      "inflated uncertainty", stacklevel=2)

    def fun(B):
        return _weighted_residuals(B, dataset, frames, constants)

    seeds = _linear_seeds(dataset, frames, constants)
    if initial_guess is not None:
        if initial_guess.frame != LAB_FRAME_NAME:
            raise ValueError("initial_guess must be a lab-frame vector")
        seeds.insert(0, np.asarray(initial_guess.components, dtype=float))

    best = None
    for seed in seeds:
        try:
            res = least_squares(fun, seed, method="lm", xtol=1e-15, ftol=1e-15)
        except Exception:
            continue
        cost = 2.0 * res.cost
        if best is None or cost < best[0]:
            best = (cost, res)
    if best is None:
        raise ConvergenceError("field fit did not converge from any seed")

    # polish at the canonical sign representative of the +-B pair
    B_canon = _canonical_sign(best[1].x)
    res = least_squares(fun, B_canon, method="lm", xtol=1e-15, ftol=1e-15)
    B_fit = _canonical_sign(res.x)
    if not np.array_equal(B_fit, res.x):
        res = least_squares(fun, B_fit, method="lm", xtol=1e-15, ftol=1e-15)
    cost_plus = float(np.sum(fun(res.x) ** 2))
    cost_minus = float(np.sum(fun(-res.x) ** 2))

    J = res.jac
    sv = np.linalg.svd(J, compute_uv=False)
    condition = float(sv[0] / sv[-1]) if sv[-1] > 0.0 else np.inf
    if condition > _CONDITION_LIMIT:
        raise IdentifiabilityError(
            f"orientation geometry leaves the field ill-determined "
            f"(condition number {condition:.3g}); use orientations with "
            "distinct axes")
    cov = np.linalg.inv(J.T @ J)
    sigma = np.sqrt(np.diag(cov))

    raw = np.empty(2 * len(frames))
    for k, (entry, fr) in enumerate(zip(dataset.entries, frames)):
        t_lo, t_hi = transition_frequencies(fr.rotation_to_lab.T @ res.x, constants)
        raw[2 * k] = entry.lines.f_minus - t_lo
        raw[2 * k + 1] = entry.lines.f_plus - t_hi
    return FieldSolution(B=Vector3(res.x, LAB_FRAME_NAME), sigma=sigma,
                         residuals=raw,
                         rms_residual=float(np.sqrt(np.mean(raw ** 2))),
                         branch_costs=(cost_plus, cost_minus),
                         condition=condition)


@dataclass(frozen=True)
class AlignmentReport:
    transverse: float  # T, in the target frame
    tilt_deg: float
    passed: bool
    threshold: float   # T


def alignment_report(solution: FieldSolution, target_frame: Frame | str,
                     registry: FrameRegistry = DEFAULT_REGISTRY,
                     threshold: float = 50e-6) -> AlignmentReport:
    """How well the solved field aligns with one orientation's axis."""
    fr = target_frame if isinstance(target_frame, Frame) else registry.get(target_frame)
    b = fr.rotation_to_lab.T @ solution.B.components
    transverse = float(np.hypot(b[0], b[1]))
    tilt = float(np.degrees(np.arctan2(transverse, b[2])))
    return AlignmentReport(transverse=transverse, tilt_deg=tilt,
                           passed=transverse < threshold, threshold=threshold)
