"""Vector-field calibration from ODMR line sets of several NV orientations.

Each orientation contributes two electron resonance lines, the transitions
out of the mostly-|0> level of the spin-1 ground-state Hamiltonian; jointly
fitting all of them pins down the lab-frame field vector. The line positions
are strictly even under B -> -B (complex conjugation plus a pi rotation maps
the Hamiltonian of B onto that of -B for every orientation), so the solve
reports a canonical sign representative and both branch costs. ODMR line
files are read and written here, with the schema of ``fileio``.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .core import (BIAS_FIELD, COIL_FIELD, DEFAULT_CONSTANTS, DEFAULT_REGISTRY,
                   Frame, FrameRegistry, LAB_FRAME_NAME, PhysicalConstants,
                   Vector3)
from .errors import ConvergenceError, FrameError, IdentifiabilityError, ParseError
from .fileio import (_ODMR, _ODMR_COLUMNS, FORMAT_VERSION, _check, _check_frame,
                     _field_unit, _finite, _fmt_rows, _in_columns, _read_sections,
                     atomic_write_text)

_CONDITION_LIMIT = 1e8

# Spin-1 operators in the |+1>, |0>, |-1> basis.
_SQ2 = 1.0 / math.sqrt(2.0)
SPIN1_X = _SQ2 * np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=complex)
SPIN1_Y = _SQ2 * np.array([[0, -1j, 0], [1j, 0, -1j], [0, 1j, 0]], dtype=complex)
SPIN1_Z = np.diag([1.0, 0.0, -1.0]).astype(complex)
_SZ2 = SPIN1_Z @ SPIN1_Z


@dataclass(frozen=True)
class OdmrLinePair:
    """The two electron spin resonance frequencies of one NV orientation, Hz."""

    f_minus: float
    f_plus: float

    def __post_init__(self):
        if not (0.0 < self.f_minus <= self.f_plus):
            raise ValueError(
                f"lines must be positive and ordered, got ({self.f_minus!r}, {self.f_plus!r})")


def hamiltonian(B_frame: np.ndarray,
                constants: PhysicalConstants = DEFAULT_CONSTANTS) -> np.ndarray:
    """Ground-state Hamiltonian D*Sz^2 + gamma_e*B.S in Hz, B in the NV frame."""
    ge = constants.gamma_e
    H = constants.D * _SZ2 + ge * (B_frame[0] * SPIN1_X + B_frame[1] * SPIN1_Y
                                   + B_frame[2] * SPIN1_Z)
    return H


def transition_frequencies(B_frame: np.ndarray,
                           constants: PhysicalConstants = DEFAULT_CONSTANTS
                           ) -> tuple[float, float]:
    """The two transitions out of the mostly-|0> eigenstate, ascending, Hz.

    B_frame in the NV frame. No positivity validation; fitting loops may
    probe unphysical fields transiently.
    """
    H = hamiltonian(B_frame, constants)
    # the Zeeman term is traceless, so the trace pins down the diagonal sum
    assert abs(np.trace(H).real - 2.0 * constants.D) <= 1e-6 * 2.0 * constants.D
    evals, evecs = np.linalg.eigh(H)
    k0 = int(np.argmax(np.abs(evecs[1, :]) ** 2))
    e0 = evals[k0]
    t = sorted(float(evals[k] - e0) for k in range(3) if k != k0)
    return t[0], t[1]


def odmr_lines(B: Vector3, frame: Frame,
               constants: PhysicalConstants = DEFAULT_CONSTANTS) -> OdmrLinePair:
    """Transition frequencies of one NV orientation in a lab-frame field.

    Rotates B into the orientation's frame, diagonalizes the 3x3 spin-1
    Hamiltonian, and returns the two transitions out of the mostly-|0>
    eigenstate, sorted ascending.
    """
    if B.frame != LAB_FRAME_NAME:
        raise FrameError(f"odmr_lines expects a lab-frame field, got frame {B.frame!r}")
    B_nv = frame.rotation_to_lab.T @ B.components
    f_minus, f_plus = transition_frequencies(B_nv, constants)
    return OdmrLinePair(f_minus=f_minus, f_plus=f_plus)


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


def _line_residuals(B_lab: np.ndarray, dataset: OdmrDataset, frames,
                    constants: PhysicalConstants) -> np.ndarray:
    """Measured minus model of each line, two per entry (Hz)."""
    out = np.empty(2 * len(frames))
    for k, (entry, fr) in enumerate(zip(dataset.entries, frames)):
        t_lo, t_hi = transition_frequencies(fr.rotation_to_lab.T @ B_lab, constants)
        out[2 * k] = entry.lines.f_minus - t_lo
        out[2 * k + 1] = entry.lines.f_plus - t_hi
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

    sigmas = np.repeat([e.sigma for e in dataset.entries], 2)

    def fun(B):
        return -_line_residuals(B, dataset, frames, constants) / sigmas

    seeds = _linear_seeds(dataset, frames, constants)
    if initial_guess is not None:
        if initial_guess.frame != LAB_FRAME_NAME:
            raise ValueError("initial_guess must be a lab-frame vector")
        seeds.insert(0, np.asarray(initial_guess.components, dtype=float))

    best = None
    for seed in seeds:
        try:
            res = least_squares(fun, seed, method="lm", xtol=1e-15, ftol=1e-15)
        except (ValueError, np.linalg.LinAlgError):
            continue  # residuals not finite at this seed
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

    raw = _line_residuals(res.x, dataset, frames, constants)
    return FieldSolution(B=Vector3(res.x, LAB_FRAME_NAME), sigma=sigma,
                         residuals=raw,
                         rms_residual=float(np.sqrt(np.mean(raw ** 2))),
                         branch_costs=(cost_plus, cost_minus),
                         condition=condition)


@dataclass(frozen=True)
class AlignmentReport:
    transverse: float  # T, in the target frame
    tilt: float        # rad, of the field from the target frame's axis
    passed: bool
    threshold: float   # T


def alignment_report(solution: FieldSolution, target_frame: Frame | str,
                     registry: FrameRegistry = DEFAULT_REGISTRY,
                     threshold: float = 50e-6) -> AlignmentReport:
    """How well the solved field aligns with one orientation's axis."""
    fr = target_frame if isinstance(target_frame, Frame) else registry.get(target_frame)
    b = fr.rotation_to_lab.T @ solution.B.components
    transverse = float(np.hypot(b[0], b[1]))
    return AlignmentReport(transverse=transverse, tilt=float(np.arctan2(transverse, b[2])),
                           passed=transverse < threshold, threshold=threshold)


# ---------------------------------------------------------------------------
# ODMR line files

def load_odmr(path, registry: FrameRegistry = DEFAULT_REGISTRY) -> OdmrDataset:
    """One data row per resonance: nv_id frame_name f_GHz sigma_MHz.

    Rows are grouped by nv_id; each id needs exactly two rows sharing a
    frame of ``registry``. The pair's sigma is the mean of the two row
    sigmas.
    """
    rows = []
    for sec, v in _read_sections(path, "odmr", _ODMR):
        if sec.name:
            rows.extend(sec.rows)
        else:
            context = v["context"]
            _check(path, sec, "context", context in (COIL_FIELD, BIAS_FIELD),
                   f"must be {COIL_FIELD!r} or {BIAS_FIELD!r}")
    if not rows:
        raise ParseError(path, 1, "no resonance rows found")

    grouped: dict[str, list] = {}
    for line_no, raw in rows:
        parts = raw.split()
        if len(parts) != 4:
            raise ParseError(path, line_no,
                             "expected: nv_id frame_name f_GHz sigma_MHz")
        _check_frame(path, line_no, parts[1], registry)
        f, sigma = (v * _field_unit(c)[1] for v, c in zip(
            _finite(path, line_no, parts[2:], "bad numbers in row"), _ODMR_COLUMNS))
        grouped.setdefault(parts[0], []).append((line_no, parts[1], f, sigma))

    entries = []
    for nv_id, items in grouped.items():
        if len(items) != 2:
            raise ParseError(path, items[0][0],
                             f"nv {nv_id!r} has {len(items)} lines, expected 2")
        (line, frame, fa, sa), (line_b, frame_b, fb, sb) = items
        if frame_b != frame:
            raise ParseError(path, line_b, f"nv {nv_id!r} rows disagree on frame")
        try:
            entries.append(OdmrEntry(frame=frame, lines=OdmrLinePair(*sorted((fa, fb))),
                                     sigma=0.5 * (sa + sb)))
        except ValueError as exc:
            raise ParseError(path, line, str(exc)) from None
    return OdmrDataset(entries=tuple(entries), context=context)


def save_odmr(path, dataset: OdmrDataset, nv_ids=None):
    ids = nv_ids or [f"NV{k + 1}" for k in range(len(dataset.entries))]
    lines = ["kind = odmr", f"version = {FORMAT_VERSION}",
             f"context = {dataset.context}", "", "[lines]"]
    for nv_id, e in zip(ids, dataset.entries):
        rows = np.array([[e.lines.f_minus, e.sigma], [e.lines.f_plus, e.sigma]])
        lines += [f"{nv_id} {e.frame} {row}"
                  for row in _fmt_rows(_in_columns(_ODMR_COLUMNS, rows)).splitlines()]
    atomic_write_text(path, "\n".join(lines) + "\n")
