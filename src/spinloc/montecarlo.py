"""Monte Carlo propagation of measurement uncertainties to (phi, a_iso, r, theta).

Every sample redraws all uncertain inputs from independent normals, re-runs
the extraction + azimuth fit + inversion pipeline, and contributes one
scatter point. Sampling is keyed per sample index with a counter-based
generator and the numerics below are strictly elementwise per sample, so the
result is bit-identical no matter how the samples are partitioned into
chunks and blocks.

The per-sample fit is the point fit's box-bounded Levenberg-Marquardt solver
(``localize._levenberg_marquardt``), warm-started at the unperturbed optimum
on the same lane-wise xi kernel (``dynamics.xi_kernel``), with every
sample's perturbed fields as its own lanes, in blocks of _LANE_BLOCK
samples. Basin hops to mirror minima are deliberately not sampled, since
degenerate minima are reported separately by the fit itself: the box keeps
each sample near the point fit, and samples that end on its edge are
counted in ``SolverStats.at_bound``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import DEFAULT_CONSTANTS, PhysicalConstants
from .dipole import invert_dipole, invert_many
from .dynamics import GENERAL_FIELD, xi_kernel
from .errors import ConvergenceError, InconsistentInputError
from .extract import _extract_arrays
from .localize import AzimuthFit, _levenberg_marquardt, fit_azimuth

_TWO_PI = 2.0 * math.pi

PARAMETERS = ("phi", "a_iso", "r", "theta")
_COLUMN = {name: k for k, name in enumerate(PARAMETERS)}

# more samples failing the coupling extraction than this fraction abort the
# propagation, before any other failure is counted
MAX_EXTRACTION_FAILURE_FRACTION = 0.01
# more failed samples than this fraction abort the propagation
MAX_FAILURE_FRACTION = 0.05
# levels of the reported confidence intervals
CONFIDENCE_LEVELS = (0.6827, 0.95)


class PointEstimate(NamedTuple):
    phi: float    # rad
    a_iso: float  # Hz
    r: float      # m
    theta: float  # rad


class SolverStats(NamedTuple):
    """Per-sample solver outcome over the samples that did not fail."""

    max_iterations: int  # most Levenberg-Marquardt iterations of any sample
    unconverged: int     # samples stopped by the iteration cap at their best point
    at_bound: int        # samples that end on the edge of the search box


@dataclass(frozen=True)
class McConfig:
    n_samples: int = 40_000
    seed: int = 0
    parallel_chunks: int = 1  # chunks run in turn and never change the result

    def __post_init__(self):
        if self.n_samples < 100:
            raise ValueError(f"n_samples must be at least 100, got {self.n_samples!r}")
        if not 0 <= self.seed < 1 << 64:
            raise ValueError(f"seed must lie in [0, 2**64), got {self.seed!r}")
        if self.parallel_chunks < 1:
            raise ValueError("parallel_chunks must be positive")


@dataclass(frozen=True)
class EstimateResult:
    """Point estimates, confidence intervals and the scatter behind them.

    ``point`` is the fit on unperturbed inputs (primary), ``fit`` the
    azimuth fit behind it, ``solver`` the samples' solver outcome and
    ``coupling_sigma`` the sample standard deviations (a_par, a_perp) in Hz
    of the couplings extracted from the drawn frequency triplets (all None
    when built by hand). ``ci`` maps parameter name -> confidence level
    (CONFIDENCE_LEVELS) -> (low, high). For phi the interval brackets the
    circular spread around the circular mean and its endpoints may fall
    outside [0, 2pi) so that low < high always holds.
    """

    point: PointEstimate
    ci: dict
    scatter: np.ndarray  # (n_ok, 4) columns phi, a_iso, r, theta
    n_samples: int
    n_failed: int
    fit: AzimuthFit | None = None
    solver: SolverStats | None = None
    coupling_sigma: tuple[float, float] | None = None

    def __post_init__(self):
        s = np.asarray(self.scatter, dtype=float)
        if s.ndim != 2 or s.shape[1] != 4:
            raise ValueError("scatter must have shape (n, 4)")
        if s.shape[0] != self.n_samples - self.n_failed:
            raise ValueError("scatter length must equal n_samples - n_failed")
        s = s.copy()
        s.setflags(write=False)
        object.__setattr__(self, "scatter", s)


def circular_mean(phi: np.ndarray) -> float:
    return float(np.arctan2(np.mean(np.sin(phi)), np.mean(np.cos(phi)))) % _TWO_PI


def _recenter(phi: np.ndarray, center: float) -> np.ndarray:
    """Signed deviations from center, in (-pi, pi]."""
    return (np.asarray(phi) - center + math.pi) % _TWO_PI - math.pi


def _quantile_ci(values: np.ndarray, level: float) -> tuple[float, float]:
    lo = (1.0 - level) / 2.0
    return (float(np.quantile(values, lo)), float(np.quantile(values, 1.0 - lo)))


# Sample search box around the point fit: phi +-_PHI_BOX (+-_PHI_BOX_FREE
# when a_iso is free) and a_iso +-_ISO_BOX. Samples whose minimum lies
# outside stay on its edge, counted as at_bound, rather than hop to a
# farther basin.
_PHI_BOX = math.pi / 6.0
_PHI_BOX_FREE = math.pi / 6.0 + 0.4  # rad
_ISO_BOX = 140e3                     # Hz
# samples solved together; bounds the size of the per-lane arrays
_LANE_BLOCK = 8192


def _draws(idx: np.ndarray, seed: int, n_draws: int) -> np.ndarray:
    """(len(idx), n_draws) normals, row j those of Philox(key=[seed, idx[j]]),
    from one generator re-keyed per sample."""
    bg = np.random.Philox(key=[seed, 0])
    rng = np.random.Generator(bg)
    zeros = np.zeros(4, dtype=np.uint64)
    out = np.empty((len(idx), n_draws))
    for j, i in enumerate(idx):
        bg.state = {"bit_generator": "Philox", "buffer": zeros, "buffer_pos": 4,
                    "state": {"counter": zeros, "key": np.array([seed, i], np.uint64)},
                    "has_uint32": 0, "uinteger": 0}
        out[j] = rng.standard_normal(n_draws)
    return out


def _chunk_estimates(idx: np.ndarray, seed: int, coupling, records,
                     fix_a_iso, point, constants) -> np.ndarray:
    """(len(idx), 9) rows for one block of samples: the scatter columns phi,
    a_iso, r, theta, the sample's couplings a_par and a_perp, then the
    solver's iterations, unconverged and at_bound.

    Each sample is one lane of the xi kernel, with its own perturbed fields
    and splittings. Failed lanes (couplings that do not extract or invert,
    or a resonant enhancement denominator) get NaN scatter columns; lanes
    whose frequency triplet does not extract also get NaN couplings.
    """
    inputs = coupling.inputs
    draws = _draws(idx, seed, 3 + 8 * len(records))
    a_par, a_perp, extracted = _extract_arrays(
        inputs.f0 + inputs.sigma_f0 * draws[:, 0],
        inputs.f_m1 + inputs.sigma_f_m1 * draws[:, 1],
        inputs.f_rabi + inputs.sigma_f_rabi * draws[:, 2],
        inputs.tau, coupling.method)

    recs_data = []
    k = 3
    for rec in records:
        fp0 = rec.fp0 + rec.sigma_fp0 * draws[:, k]
        fp_m1 = rec.fp_m1 + rec.sigma_fp_m1 * draws[:, k + 1]
        B0 = rec.B0.components[:, None] + rec.sigma_B0[:, None] * draws[:, k + 2:k + 5].T
        dB = rec.dB.components[:, None] + rec.sigma_dB[:, None] * draws[:, k + 5:k + 8].T
        recs_data.append((fp_m1 - fp0, B0, dB))
        k += 8
    del draws

    def lanes(sel):
        """Site and xi functions of the lanes sel, with fields sliced to them."""
        a_par_s, a_perp_s = a_par[sel], a_perp[sel]

        def site(iso):
            return invert_many(a_par_s, a_perp_s, iso, constants)

        kernel = xi_kernel([(meas[sel], B0[:, sel], dB[:, sel])
                            for meas, B0, dB in recs_data], GENERAL_FIELD,
                           constants)
        return site, kernel

    m = len(idx)
    free = fix_a_iso is None
    iso0 = np.full(m, point.a_iso if free else float(fix_a_iso))
    phi_box = _PHI_BOX_FREE if free else _PHI_BOX
    fit = _levenberg_marquardt(
        lanes, np.full(m, point.phi), iso0,
        (point.phi - phi_box, point.phi + phi_box),
        (point.a_iso - _ISO_BOX, point.a_iso + _ISO_BOX), free_iso=free)

    r, theta = invert_many(a_par, a_perp, fit.a_iso, constants)
    ok = extracted & np.isfinite(fit.cost) & np.isfinite(r)
    rows = np.column_stack([fit.phi % _TWO_PI, fit.a_iso, r, theta, a_par,
                            a_perp, fit.iterations, ~fit.converged, fit.at_bound])
    rows[~ok, :4] = np.nan
    rows[~extracted, 4:6] = np.nan
    return rows


def propagate(records, coupling, mc: McConfig, fix_a_iso: float | None = None,
              constants: PhysicalConstants = DEFAULT_CONSTANTS) -> EstimateResult:
    """Full uncertainty propagation for one nucleus.

    The coupling must carry its raw inputs: every sample re-extracts the
    couplings from a drawn frequency triplet with the coupling's method.
    Per-sample draw order is fixed and documented: first f0, f_m1, f_rabi,
    then per record fp0, fp_m1, B0x, B0y, B0z, dBx, dBy, dBz. Each sample
    uses its own generator keyed by (seed, sample index), so any partition
    into chunks and lane blocks produces the same scatter. More than
    MAX_EXTRACTION_FAILURE_FRACTION of the samples failing the extraction
    raises InconsistentInputError; samples that fail extraction, inversion
    or the fit are dropped and counted, and more than MAX_FAILURE_FRACTION
    of them aborts. The point fit on the unperturbed inputs warm-starts
    every sample and is returned as ``result.fit``, so callers need not fit
    again.
    """
    records = list(records)
    if not records:
        raise ValueError("need at least one measurement record")
    if coupling.inputs is None:
        raise ValueError("coupling must carry its raw inputs to propagate")
    point_fit = fit_azimuth(records, coupling, fix_a_iso, constants=constants)
    point_pos = invert_dipole(coupling.a_par, coupling.a_perp, point_fit.a_iso,
                              constants)
    point = PointEstimate(point_fit.phi, point_fit.a_iso, point_pos.r,
                          point_pos.theta)

    n = mc.n_samples
    # every block writes its own rows in place: no per-block copies are held
    # and joined at the end
    rows = np.empty((n, 9))
    for idx in np.array_split(np.arange(n), mc.parallel_chunks):
        for k in range(0, len(idx), _LANE_BLOCK):
            block = idx[k:k + _LANE_BLOCK]
            rows[block] = _chunk_estimates(
                block, mc.seed, coupling, records, fix_a_iso, point, constants)

    a_par, a_perp = rows[:, 4:6].T
    extracted = ~np.isnan(a_par)
    n_unextracted = int(n - extracted.sum())
    if n_unextracted > MAX_EXTRACTION_FAILURE_FRACTION * n:
        raise InconsistentInputError(
            f"{n_unextracted}/{n} samples failed the exact transformation; "
            "input uncertainties are too large for these frequencies")
    good = ~np.isnan(rows[:, 0])
    n_failed = int(n - good.sum())
    if n_failed > MAX_FAILURE_FRACTION * n:
        raise ConvergenceError(
            f"{n_failed}/{n} Monte Carlo samples failed the pipeline; "
            "uncertainties are too large for a meaningful propagation")
    if n_failed == n:
        raise ConvergenceError("all Monte Carlo samples failed")
    scatter = rows[good, :4]

    phi_col = scatter[:, 0]
    mu = circular_mean(phi_col)
    dev = _recenter(phi_col, mu)
    ci: dict = {name: {} for name in PARAMETERS}
    for lv in CONFIDENCE_LEVELS:
        lo, hi = _quantile_ci(dev, lv)
        ci["phi"][lv] = (mu + lo, mu + hi)
        for name in ("a_iso", "r", "theta"):
            ci[name][lv] = _quantile_ci(scatter[:, _COLUMN[name]], lv)

    iterations, unconverged, at_bound = rows[good, 6:].T
    solver = SolverStats(max_iterations=int(iterations.max()),
                         unconverged=int(unconverged.sum()),
                         at_bound=int(at_bound.sum()))
    coupling_sigma = (float(np.std(a_par[extracted], ddof=1)),
                      float(np.std(a_perp[extracted], ddof=1)))
    return EstimateResult(point=point, ci=ci, scatter=scatter,
                          n_samples=n, n_failed=n_failed, fit=point_fit,
                          solver=solver, coupling_sigma=coupling_sigma)


@dataclass(frozen=True)
class Histogram:
    edges: np.ndarray   # bins + 1 edges, in the parameter's native units
    counts: np.ndarray
    circular: bool      # True when edges live in recentered phi coordinates

    def __post_init__(self):
        e = np.asarray(self.edges, dtype=float).copy()
        c = np.asarray(self.counts).copy()
        if len(e) != len(c) + 1:
            raise ValueError("need len(edges) = len(counts) + 1")
        e.setflags(write=False)
        c.setflags(write=False)
        object.__setattr__(self, "edges", e)
        object.__setattr__(self, "counts", c)


def histogram(scatter: np.ndarray, parameter: str, bins: int) -> Histogram:
    """Marginal histogram of one scatter column; counts sum to len(scatter).

    phi is binned circularly: values are recentered on their circular mean
    before binning so a mode wrapping 0/2pi stays contiguous. The returned
    edges are then in recentered coordinates (mean + deviation), which may
    extend slightly outside [0, 2pi).
    """
    if bins < 2:
        raise ValueError(f"need at least 2 bins, got {bins!r}")
    s = np.asarray(scatter, dtype=float)
    if s.ndim != 2 or s.shape[1] != 4 or s.shape[0] == 0:
        raise ValueError("scatter must be a non-empty (n, 4) array")
    if parameter not in _COLUMN:
        raise ValueError(f"parameter must be one of {PARAMETERS}, got {parameter!r}")
    col = s[:, _COLUMN[parameter]]
    if parameter == "phi":
        mu = circular_mean(col)
        dev = _recenter(col, mu)
        counts, edges = np.histogram(dev, bins=bins, range=(-math.pi, math.pi))
        return Histogram(edges=mu + edges, counts=counts, circular=True)
    counts, edges = np.histogram(col, bins=bins)
    return Histogram(edges=edges, counts=counts, circular=False)
