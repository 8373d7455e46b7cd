"""Monte Carlo propagation of measurement uncertainties to (phi, a_iso, r, theta).

Every sample redraws all uncertain inputs from independent normals, re-runs
the extraction + azimuth fit + inversion pipeline, and contributes one
scatter point. Sampling is keyed per page of _PAGE consecutive sample
indices with a counter-based generator: sample i takes row i % _PAGE of its
page's draws, whatever admission draws the page. With the numerics below
strictly elementwise per sample, the result is bit-identical no matter how
the samples are partitioned into chunks and admissions.

The per-sample fit is the point fit's box-bounded Levenberg-Marquardt solver
(``localize._levenberg_marquardt``, whose NL2SOL secant curvature term lets
samples at large residuals converge), warm-started at the unperturbed optimum
on the same lane-wise xi kernel (``dynamics.xi_kernel``), with every
sample's perturbed fields as its own lane, and stopped at the precision the
reports can show (``localize._sample_stops``). The samples of all nuclei of
a ``propagate_many`` call that share a kernel shape (record count, and
whether a_iso is free) are solved in one lane pool (``localize._solve``),
which admits them in order as earlier lanes stop. Basin hops to mirror
minima are deliberately not sampled, since degenerate minima are reported
separately by the fit itself: the box keeps each sample near the point
fit, and samples that end on its edge are counted in
``SolverStats.at_bound``.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass
from typing import NamedTuple

import numpy as np

from .core import DEFAULT_CONSTANTS, PhysicalConstants
from .dipole import invert_dipole, invert_many
from .dynamics import xi_kernel
from .errors import ConvergenceError, InconsistentInputError
from .extract import CouplingEstimate, _extract_arrays
from .localize import _LANE_BLOCK, AzimuthFit, _isolate, _LaneFit, _solve, fit_azimuths

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
    parallel_chunks: int = 1  # chunks admitted in turn; never change the result

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
    outside [0, 2pi) so that low < high always holds. The result keeps its
    own read-only copy of ``scatter``; ``_estimate`` alone passes ``_adopt``
    to hand over a read-only array that nothing else holds, without a copy.
    """

    point: PointEstimate
    ci: dict
    scatter: np.ndarray  # (n_ok, 4) columns phi, a_iso, r, theta
    n_samples: int
    n_failed: int
    fit: AzimuthFit | None = None
    solver: SolverStats | None = None
    coupling_sigma: tuple[float, float] | None = None
    _adopt: InitVar[bool] = False

    def __post_init__(self, _adopt):
        s = np.asarray(self.scatter, dtype=float)
        if s.ndim != 2 or s.shape[1] != 4:
            raise ValueError("scatter must have shape (n, 4)")
        if s.shape[0] != self.n_samples - self.n_failed:
            raise ValueError("scatter length must equal n_samples - n_failed")
        if not _adopt:
            s = s.copy()
            s.setflags(write=False)
        object.__setattr__(self, "scatter", s)


def circular_mean(phi: np.ndarray) -> float:
    return float(np.arctan2(np.mean(np.sin(phi)), np.mean(np.cos(phi)))) % _TWO_PI


def _recenter(phi: np.ndarray, center: float) -> np.ndarray:
    """Signed deviations from center, in (-pi, pi]."""
    return (np.asarray(phi) - center + math.pi) % _TWO_PI - math.pi


# Sample search box around the point fit: phi +-_PHI_BOX (+-_PHI_BOX_FREE
# when a_iso is free) and a_iso +-_ISO_BOX. Samples whose minimum lies
# outside stay on its edge, counted as at_bound, rather than hop to a
# farther basin.
_PHI_BOX = math.pi / 6.0
_PHI_BOX_FREE = math.pi / 6.0 + 0.4  # rad
_ISO_BOX = 140e3                     # Hz
# samples drawn from one keyed generator
_PAGE = 256


def _draws(idx: np.ndarray, seed: int, n_draws: int) -> np.ndarray:
    """(len(idx), n_draws) normals for the increasing sample indices idx:
    sample i's are row i % _PAGE of standard_normal((_PAGE, n_draws)) on
    Philox keyed [seed, i // _PAGE]. Every page from idx[0]'s to idx[-1]'s
    is drawn whole into one buffer, by one generator re-keyed per page from
    a state of Python ints, which its setter converts faster than numpy
    scalars; consecutive indices, as in every lane block, get a slice of
    that buffer rather than a copy."""
    bg = np.random.Philox(key=0)  # re-keyed below; a key >= 2**63 warns here
    rng = np.random.Generator(bg)
    zeros = [0, 0, 0, 0]
    key = [seed, 0]
    state = {"bit_generator": "Philox", "buffer": zeros, "buffer_pos": 4,
             "state": {"counter": zeros, "key": key}, "has_uint32": 0, "uinteger": 0}
    first, last = int(idx[0]) // _PAGE, int(idx[-1]) // _PAGE
    buf = np.empty(((last + 1 - first) * _PAGE, n_draws))
    for page in range(first, last + 1):
        key[1] = page
        bg.state = state
        start = (page - first) * _PAGE
        rng.standard_normal(out=buf[start:start + _PAGE])
    rows = idx - first * _PAGE
    if rows[-1] - rows[0] + 1 == len(rows):
        return buf[rows[0]:rows[-1] + 1]
    return buf[rows]


@dataclass(eq=False)
class _Nucleus:
    """One problem of ``propagate_many`` on its way through the passes; the
    first error it meets ends it."""

    records: list
    coupling: CouplingEstimate
    fix_a_iso: float | None
    error: Exception | None = None
    fit: AzimuthFit | None = None
    point: PointEstimate | None = None
    # per sample: the couplings extracted from its drawn lines, whether they
    # extracted, and the solver's outcome
    a_par: np.ndarray | None = None
    a_perp: np.ndarray | None = None
    extracted: np.ndarray | None = None
    lanes: _LaneFit | None = None


def _check_inputs(nuc: _Nucleus):
    if nuc.coupling.inputs is None:
        raise ValueError("coupling must carry its raw inputs to propagate")


def _set_point(nuc: _Nucleus, fit: AzimuthFit, constants):
    pos = invert_dipole(nuc.coupling.a_par, nuc.coupling.a_perp, fit.a_iso,
                        constants)
    nuc.fit = fit
    nuc.point = PointEstimate(fit.phi, fit.a_iso, pos.r, pos.theta)


def _sample_lanes(nuc: _Nucleus, lo: int, hi: int, seed: int, constants):
    """The solver lanes of samples lo..hi-1 of a nucleus, in the form
    ``localize._levenberg_marquardt`` takes them: each sample's perturbed
    fields and splittings in a kernel lane, started at the point fit in its
    search box. The couplings each sample extracts from its drawn lines go
    to the nucleus's per-sample arrays. Samples are admitted in order, so
    once samples 0..hi-1 hold more extraction failures than the gate of
    ``_estimate`` allows, the nucleus fails whatever its lanes give: they
    start at NaN and leave the pool at their first kernel evaluation."""
    records, inputs = nuc.records, nuc.coupling.inputs
    draws = _draws(np.arange(lo, hi), seed, 3 + 8 * len(records))
    a_par, a_perp, extracted = _extract_arrays(
        inputs.f0 + inputs.sigma_f0 * draws[:, 0],
        inputs.f_m1 + inputs.sigma_f_m1 * draws[:, 1],
        inputs.f_rabi + inputs.sigma_f_rabi * draws[:, 2],
        inputs.tau, nuc.coupling.method)
    nuc.a_par[lo:hi], nuc.a_perp[lo:hi], nuc.extracted[lo:hi] = (
        a_par, a_perp, extracted)
    hopeless = (hi - np.count_nonzero(nuc.extracted[:hi])
                > MAX_EXTRACTION_FAILURE_FRACTION * nuc.extracted.size)

    # per record: the splitting fp_m1 - fp0, then B0 and dB, all perturbed
    kernel = xi_kernel((
        (rec.fp_m1 + rec.sigma_fp_m1 * draws[:, k + 1]
         - (rec.fp0 + rec.sigma_fp0 * draws[:, k]),
         rec.B0.components[:, None] + rec.sigma_B0[:, None] * draws[:, k + 2:k + 5].T,
         rec.dB.components[:, None] + rec.sigma_dB[:, None] * draws[:, k + 5:k + 8].T)
        for k, rec in zip(range(3, 3 + 8 * len(records), 8), records)),
        a_par, a_perp, constants)

    point, free = nuc.point, nuc.fix_a_iso is None
    phi_box = _PHI_BOX_FREE if free else _PHI_BOX
    return (kernel, np.full(hi - lo, math.nan if hopeless else point.phi),
            np.full(hi - lo, point.a_iso if free else float(nuc.fix_a_iso)),
            (point.phi - phi_box, point.phi + phi_box),
            (point.a_iso - _ISO_BOX, point.a_iso + _ISO_BOX))


def _quantiles(values: np.ndarray, probs) -> np.ndarray:
    """``np.quantile(values, probs)`` of a finite 1-d array, bit for bit,
    with numpy's default linear rule written out: the virtual index (n - 1) p
    between order statistics a and b, and numpy's two-sided interpolation.
    One partition of ``values`` in place, at numpy's own split points (the
    ends too, so that tied zeros of either sign land as numpy's do), finds
    every order statistic; numpy's quantile path, whose first call imports
    numpy.ma, is never entered."""
    virtual = (values.size - 1) * np.asarray(probs, dtype=float)
    lo = np.floor(virtual)
    t = virtual - lo
    lo = lo.astype(np.intp)
    hi = np.minimum(lo + 1, values.size - 1)
    values.partition(sorted({0, -1, *lo.tolist(), *hi.tolist()}))
    a, b = values[lo], values[hi]
    diff = b - a
    return np.where(t >= 0.5, b - diff * (1.0 - t), a + diff * t)


def _estimate(nuc: _Nucleus, n: int, constants) -> EstimateResult:
    """The gates, intervals and solver counts of a nucleus's solved samples.
    Releases the nucleus's per-sample arrays once the scatter is built."""
    n_unextracted = int(n - nuc.extracted.sum())
    if n_unextracted > MAX_EXTRACTION_FAILURE_FRACTION * n:
        raise InconsistentInputError(
            f"{n_unextracted}/{n} samples failed the exact transformation; "
            "input uncertainties are too large for these frequencies")
    lanes, extracted = nuc.lanes, nuc.extracted
    # inverted a lane block at a time: the temporaries of one inversion of
    # every sample would set the peak memory of a run
    r, theta = np.empty(n), np.empty(n)
    for k in range(0, n, _LANE_BLOCK):
        block = slice(k, k + _LANE_BLOCK)
        r[block], theta[block] = invert_many(nuc.a_par[block], nuc.a_perp[block],
                                             lanes.a_iso[block], constants)
    # failed samples: couplings that do not extract or invert, or a resonant
    # enhancement denominator
    good = extracted & np.isfinite(lanes.cost) & np.isfinite(r)
    n_failed = int(n - good.sum())
    if n_failed > MAX_FAILURE_FRACTION * n:
        raise ConvergenceError(
            f"{n_failed}/{n} Monte Carlo samples failed the pipeline; "
            "uncertainties are too large for a meaningful propagation")
    if n_failed == n:
        raise ConvergenceError("all Monte Carlo samples failed")
    solver = SolverStats(max_iterations=int(lanes.iterations[good].max()),
                         unconverged=int((~lanes.converged[good]).sum()),
                         at_bound=int(lanes.at_bound[good].sum()))
    coupling_sigma = (float(np.std(nuc.a_par[extracted], ddof=1)),
                      float(np.std(nuc.a_perp[extracted], ddof=1)))
    scatter = np.empty((n - n_failed, 4))
    for col, values in enumerate((lanes.phi, lanes.a_iso, r, theta)):
        scatter[:, col] = values[good] % _TWO_PI if col == 0 else values[good]
    scatter.setflags(write=False)  # the result keeps it without a copy
    nuc.lanes = nuc.a_par = nuc.a_perp = nuc.extracted = None
    del lanes, extracted, r, theta, good

    # the lower and upper tail of every level, per column; phi's are those of
    # its deviations from the circular mean
    tails = [p for lv in CONFIDENCE_LEVELS
             for p in ((1.0 - lv) / 2.0, 1.0 - (1.0 - lv) / 2.0)]
    mu = circular_mean(scatter[:, 0])
    ci: dict = {}
    for name, col in _COLUMN.items():
        values = (_recenter(scatter[:, 0], mu) if name == "phi"
                  else scatter[:, col].copy())
        q = _quantiles(values, tails).tolist()
        if name == "phi":
            q = [mu + v for v in q]
        ci[name] = {lv: (q[2 * k], q[2 * k + 1])
                    for k, lv in enumerate(CONFIDENCE_LEVELS)}
    return EstimateResult(point=nuc.point, ci=ci, scatter=scatter,
                          n_samples=n, n_failed=n_failed, fit=nuc.fit,
                          solver=solver, coupling_sigma=coupling_sigma,
                          _adopt=True)


def propagate_many(problems, mc: McConfig,
                   constants: PhysicalConstants = DEFAULT_CONSTANTS) -> list:
    """``propagate`` of every (records, coupling, fix_a_iso) problem.

    Returns one entry per problem, in order: its EstimateResult, or the
    SpinlocError or ValueError that ended it. The passes run over all
    problems at once: the point fits (``localize.fit_azimuths``), then the
    samples, each nucleus's in its mc.parallel_chunks chunks one after
    another (``localize._solve``: one lane pool per kernel shape, record
    count and whether a_iso is free), then each problem's gates and
    intervals. Every result equals that of the problem alone.
    """
    nuclei = [_Nucleus(list(records), coupling, fix_a_iso)
              for records, coupling, fix_a_iso in problems]
    for nuc in nuclei:
        nuc.error = _isolate(_check_inputs, nuc)
    live = [nuc for nuc in nuclei if nuc.error is None]
    fits = fit_azimuths([(nuc.records, nuc.coupling, nuc.fix_a_iso) for nuc in live],
                        constants=constants)
    for nuc, fit in zip(live, fits):
        nuc.error = fit if isinstance(fit, Exception) else _isolate(
            _set_point, nuc, fit, constants)
    live = [nuc for nuc in live if nuc.error is None]
    n = mc.n_samples
    chunks = [(int(c[0]), int(c[-1]) + 1)
              for c in np.array_split(np.arange(n), mc.parallel_chunks) if c.size]

    def piece(nuc, start, stop):
        return stop - start, lambda lo, hi: _sample_lanes(
            nuc, start + lo, start + hi, mc.seed, constants)

    for nuc in live:
        nuc.a_par, nuc.a_perp = np.empty(n), np.empty(n)
        nuc.extracted = np.empty(n, dtype=bool)
    # each nucleus holds the only reference to its lanes, so that
    # ``_estimate`` releases them
    for nuc, lanes in zip(live, _solve(
            (((len(nuc.records), nuc.fix_a_iso is None),
              [piece(nuc, *chunk) for chunk in chunks]) for nuc in live), True)):
        nuc.lanes = lanes
    return [nuc.error or _isolate(_estimate, nuc, n, constants)
            for nuc in nuclei]


def propagate(records, coupling, mc: McConfig, fix_a_iso: float | None = None,
              constants: PhysicalConstants = DEFAULT_CONSTANTS) -> EstimateResult:
    """Full uncertainty propagation for one nucleus.

    The coupling must carry its raw inputs: every sample re-extracts the
    couplings from a drawn frequency triplet with the coupling's method.
    Per-sample draw order is fixed and documented: first f0, f_m1, f_rabi,
    then per record fp0, fp_m1, B0x, B0y, B0z, dBx, dBy, dBz. Sample i
    takes row i % _PAGE of the (_PAGE, draws) normals of a generator keyed
    by (seed, i // _PAGE), so any partition into chunks and lane pool
    admissions produces the same scatter. More than
    MAX_EXTRACTION_FAILURE_FRACTION of the samples failing the extraction
    raises InconsistentInputError; samples that fail extraction, inversion
    or the fit are dropped and counted, and more than MAX_FAILURE_FRACTION
    of them aborts. The point fit on the unperturbed inputs warm-starts
    every sample and is returned as ``result.fit``, so callers need not fit
    again. The one-problem case of ``propagate_many``.
    """
    (result,) = propagate_many([(records, coupling, fix_a_iso)], mc, constants)
    if isinstance(result, Exception):
        raise result
    return result


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
