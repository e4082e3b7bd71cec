"""Position-grid reference evolution for coupled meter experiments.

Everything the closed-form pointer algebra produces (probabilities, means,
correlators) is recomputed here the slow honest way: each pointer lives on
a uniform position grid, and the walk keeps the wavefunction's discrete
Fourier transform along every meter axis, where a coupling exp(-i g p) is
one phase per wavenumber and a stage still acts on the arm axis alone.
Every moment is a mean over a density (discrete Parseval): the momentum
density, the density transformed back to position along every axis but
one, or the position density.  Agreement between
the two routes within tight tolerances is the main correctness check of
the analytic path.  Only the pointer half is independent: the grid
evolution applies the same stage matrices (``network.stage_unitary``) as
the closed-form route, so a wrong stage matrix would pass both.  Two
reports match by experiment (equal layouts and meters) and port.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .meter import (QUADRATURE_PAIRS, ZERO_PROBABILITY_TOL, Experiment, ZeroProbability,
                    pointer_corr, pointer_mean, postselect, run_coupled, zeta_corr,
                    zeta_from_correlators)
from .meter import arm_probability as analytic_arm_probability
from .network import stage_unitary

__all__ = [
    "ComparisonRow",
    "ComparisonTable",
    "GridSpec",
    "GridState",
    "GridTooLarge",
    "GridTooSmall",
    "MAX_GRID_ENTRIES",
    "Report",
    "compare",
    "default_grid",
    "experiment_reports",
    "grid_arm_probability",
    "grid_moments",
    "grid_run",
]

NORM_TOL = 1e-10
SPACING_PER_SIGMA = 0.5  # default grid: a pointer sampled at h = sigma / 2 errs in norm by ~1e-34
MAX_GRID_ENTRIES = 1 << 24
"""Largest grid, ``arms * points**meters`` complex entries (256 MiB), checked before allocation."""
_STAGE_COLUMNS = 1 << 13
"""Grid columns per in-place stage product: 128 KiB of each arm row, which stays in cache."""


class GridTooSmall(ValueError):
    """The grid cannot hold the pointer packets to the required accuracy."""


class GridTooLarge(ValueError):
    """The grid would hold more than ``MAX_GRID_ENTRIES`` entries."""


@dataclass(frozen=True)
class GridSpec:
    """Uniform position grid [-half_width, half_width] with an odd point count."""

    half_width: float
    points: int

    def __post_init__(self):
        if not (0 < self.half_width and math.isfinite(2.0 * self.half_width)):
            raise ValueError("half_width must be positive, with 2 * half_width finite")
        if self.points < 3 or self.points % 2 == 0:
            raise ValueError("points must be an odd number >= 3")

    @property
    def spacing(self) -> float:
        return 2.0 * self.half_width / (self.points - 1)

    @property
    def axis(self) -> np.ndarray:
        return np.linspace(-self.half_width, self.half_width, self.points)


def default_grid(experiment: Experiment) -> GridSpec:
    """L = 10 max(sigma) + 2 max(g), on the fewest odd points spaced at most h = SPACING_PER_SIGMA
    min(sigma): a Gaussian sampled at h keeps its norm to about 2 exp(-2 pi^2 sigma^2 / h^2)."""
    sigmas = [m.sigma for m in experiment.meters] or [1.0]
    half_width = 10.0 * max(sigmas) + 2.0 * max([m.strength for m in experiment.meters] or [0.0])
    return GridSpec(half_width, 1 + 2 * math.ceil(half_width / SPACING_PER_SIGMA / min(sigmas)))


@dataclass(frozen=True, eq=False)
class GridState:
    """Discretised joint state: axis 0 is the arm, one grid axis per meter."""

    slice_index: int
    experiment: Experiment
    spec: GridSpec
    array: np.ndarray

    def norm(self) -> float:
        h = self.spec.spacing
        m = len(self.experiment.meters)
        return math.sqrt(float(np.vdot(self.array, self.array).real) * h ** m)


def _initial_pointer(sigma: float, spec: GridSpec) -> np.ndarray:
    x = spec.axis
    phi = (2.0 * math.pi * sigma * sigma) ** -0.25 * np.exp(
        -(x * x) / (4.0 * sigma * sigma)
    )
    norm = float(np.sum(phi * phi)) * spec.spacing
    if abs(norm - 1.0) > NORM_TOL:
        raise GridTooSmall(
            f"initial pointer (sigma={sigma}) has discrete norm {norm!r} on this grid"
        )
    return phi.astype(complex)


def _wavenumbers(spec: GridSpec) -> np.ndarray:
    """The momentum of each DFT bin, in ``np.fft.fftfreq`` order."""
    return 2.0 * math.pi * np.fft.fftfreq(spec.points, d=spec.spacing)


def _check_spec(experiment: Experiment, spec: GridSpec):
    size = max(map(len, experiment.layout.slices)) * spec.points ** len(experiment.meters)
    if size > MAX_GRID_ENTRIES:
        raise GridTooLarge(f"{len(experiment.meters)} meters on {spec.points} points need a grid "
                           f"of {size} entries (limit {MAX_GRID_ENTRIES})")
    for m in experiment.meters:
        need = 6.0 * m.sigma + 2.0 * m.strength
        if spec.half_width < need:
            raise GridTooSmall(
                f"half_width {spec.half_width} < {need} required for meter "
                f"{m.meter_id} (6 sigma + 2 g)"
            )
        # the exponent at the grid's ends, as _initial_pointer computes it
        if not math.isfinite(spec.half_width * spec.half_width / (4.0 * m.sigma * m.sigma)):
            raise GridTooSmall(
                f"half_width {spec.half_width} is too wide for meter {m.meter_id} "
                f"(sigma={m.sigma}): (half_width / 2 sigma)^2 leaves the float range"
            )


def _evolve(experiment: Experiment, spec: GridSpec, to_slice: int):
    """State at ``to_slice``, Fourier-transformed along every meter axis, and
    the arm marginals, keyed (slice, arm), of every slice to it."""
    layout = experiment.layout
    meters = experiment.meters
    _check_spec(experiment, spec)
    spectra = [np.fft.fft(_initial_pointer(m.sigma, spec)) for m in meters]
    # one buffer for the largest slice; each stage acts on the arm axis alone,
    # so it runs in place over chunks of grid columns small enough to stay in cache
    buf = np.zeros((max(map(len, layout.slices)),) + (spec.points,) * len(meters), dtype=complex)
    columns = buf.reshape(len(buf), -1)
    state = buf[:len(layout.slices[0])]
    state[layout.arm_index(0, layout.source)] = functools.reduce(np.multiply.outer, spectra, 1.0)
    k = _wavenumbers(spec)
    marginals: dict[tuple[int, str], float] = {}
    weights = (spec.spacing / spec.points) ** len(meters)
    for s in range(to_slice + 1):
        if s:
            u = stage_unitary(layout, s - 1)
            for lo in range(0, columns.shape[1], _STAGE_COLUMNS):
                hi = lo + _STAGE_COLUMNS
                columns[:u.shape[0], lo:hi] = u @ columns[:u.shape[1], lo:hi]
            state = buf[:u.shape[0]]
        # exp(-i g p) shifts f(x) to f(x - g): a phase per wavenumber along the meter's axis
        for j, meter in enumerate(meters):
            if meter.slice_index != s or meter.strength == 0.0:
                continue
            shape = [1] * len(meters)
            shape[j] = spec.points
            state[layout.arm_index(s, meter.arm)] *= np.exp(-1j * k * meter.strength).reshape(shape)
        for i, arm in enumerate(layout.slices[s]):
            marginals[(s, arm)] = float(np.vdot(state[i], state[i]).real) * weights
    return state, marginals


def grid_run(experiment: Experiment, spec: GridSpec | None = None,
             to_slice: int | None = None) -> GridState:
    """Evolve the experiment on the grid up to a slice (default: final).

    Parameters
    ----------
    experiment : Experiment
    spec : GridSpec, optional
        Defaults to ``default_grid(experiment)``.
    to_slice : int, optional
        Stop after couplings at this slice have acted.

    Raises
    ------
    GridTooSmall
        If the grid cannot represent the initial packet to 1e-10, is
        narrower than 6 sigma + 2 g for some meter, or so wide that
        (half_width / 2 sigma)^2 leaves the float range.
    GridTooLarge
        If the grid would hold more than ``MAX_GRID_ENTRIES`` entries.
    ValueError
        If ``to_slice`` is not a slice of the layout.
    """
    spec = spec or default_grid(experiment)
    layout = experiment.layout
    if to_slice is None:
        to_slice = layout.final_slice
    layout.arms_at(to_slice)
    spectrum = _evolve(experiment, spec, to_slice)[0]
    return GridState(to_slice, experiment, spec,
                     np.fft.ifftn(spectrum, axes=range(1, spectrum.ndim)))


def grid_arm_probability(experiment: Experiment, arm: str, slice_index: int,
                         spec: GridSpec | None = None) -> float:
    """Grid-route counterpart of :func:`tsvfsim.meter.arm_probability`."""
    experiment.layout.arm_index(slice_index, arm)
    return _evolve(experiment, spec or default_grid(experiment), slice_index)[1][(slice_index, arm)]


def grid_moments(state: GridState, port: str) -> dict[str, float]:
    """Post-selected pointer statistics evaluated by grid quadrature.

    Returns a flat name -> value map: the port probability, per-meter
    ``x``/``p`` means and second moments, and for every meter pair the
    four cross correlators plus the real and imaginary parts of the
    complex readout correlator.
    """
    exp = state.experiment
    layout = exp.layout
    if state.slice_index != layout.final_slice:
        raise ValueError("moments need the final-slice state")
    chi = state.array[layout.arm_index(layout.final_slice, layout.port_arm(port))]
    return _moments(exp, state.spec, np.fft.fftn(chi), port)


def _moments(experiment: Experiment, spec: GridSpec, spectrum: np.ndarray,
             port: str) -> dict[str, float]:
    """:func:`grid_moments` from the port's row Fourier-transformed along every meter axis."""
    meters = experiment.meters
    m = len(meters)
    h, n = spec.spacing, spec.points
    prob = float(np.vdot(spectrum, spectrum).real) * (h / n) ** m
    values: dict[str, float] = {"probability": prob}
    if m == 0:
        return values
    if prob < ZERO_PROBABILITY_TOL:
        raise ZeroProbability(f"port {port!r} fires with probability {prob:.3e}")

    # Every moment is a mean over a density whose momentum axes hold the
    # spectral momentum k; discrete Parseval adds a factor 1/n per such axis.
    x, k = spec.axis, _wavenumbers(spec)

    def mean(density, momentum_axes, *factors):
        for axis, vector in sorted(factors, reverse=True):
            density = np.moveaxis(density, axis, -1) @ vector
        return float(np.sum(density)) * h ** m / n ** momentum_axes / prob

    def density(arr):
        rho = np.abs(arr)
        return np.multiply(rho, rho, out=rho)

    ids = [meter.meter_id for meter in meters]

    def same_quadrature(rho, q, vector, momentum_axes):
        for i, mi in enumerate(ids):
            values[f"m{mi}.{q}_mean"] = mean(rho, momentum_axes, (i, vector))
            values[f"m{mi}.{q}2"] = mean(rho, momentum_axes, (i, vector * vector))
            for j, mj in enumerate(ids[i + 1:], i + 1):
                values[f"corr.{q}{mi}_{q}{mj}"] = mean(rho, momentum_axes, (i, vector), (j, vector))

    same_quadrature(density(spectrum), "p", k, m)
    for i, mi in enumerate(ids):
        # momentum along axis i, position along every other
        row = np.fft.ifftn(spectrum, axes=[a for a in range(m) if a != i])
        if i == 0:  # and back along axis 0 too: position along every axis
            same_quadrature(density(np.fft.ifft(row, axis=0)), "x", x, 0)
        rho = density(row)
        del row
        for j, mj in enumerate(ids):
            if j != i:
                name = f"corr.p{mi}_x{mj}" if i < j else f"corr.x{mj}_p{mi}"
                values[name] = mean(rho, 1, (i, k), (j, x))
        del rho
    for i, mi in enumerate(ids):
        for j, mj in enumerate(ids[i + 1:], i + 1):
            corr = (values[f"corr.{qa}{mi}_{qb}{mj}"] for qa, qb in QUADRATURE_PAIRS)
            z = zeta_from_correlators(*corr, meters[i].sigma, meters[j].sigma)
            values[f"zeta.{mi}_{mj}.re"], values[f"zeta.{mi}_{mj}.im"] = z.real, z.imag
    return values


# ----------------------------------------------------------------------
# Analytic-vs-grid comparison


@dataclass(frozen=True)
class Report:
    """Named scalar quantities of one experiment and port, from one route."""

    experiment: Experiment
    port: str
    values: dict[str, float]


@dataclass(frozen=True)
class ComparisonRow:
    name: str
    analytic: float
    grid: float
    abs_dev: float
    tol: float
    passed: bool


@dataclass(frozen=True)
class ComparisonTable:
    rows: tuple[ComparisonRow, ...]

    @property
    def all_pass(self) -> bool:
        return all(r.passed for r in self.rows)


def _probabilities(layout, marginals: dict[tuple[int, str], float]) -> dict[str, float]:
    """Port and (arm, slice) probabilities from every slice's arm marginals:
    a port fires with its arm's final-slice marginal."""
    values = {f"P({name})": marginals[(layout.final_slice, layout.port_arm(name))]
              for name in layout.ports}
    values.update({f"P[{arm}@{k}]": p for (k, arm), p in marginals.items()})
    return values


def experiment_reports(experiment: Experiment, port: str,
                       spec: GridSpec | None = None) -> tuple[Report, Report]:
    """Matched analytic and grid reports for one experiment and port.

    Quantities: probability of every detector port, the probability of
    every (arm, slice) projective detection, and all post-selected pointer
    moments for the chosen port.
    """
    spec = spec or default_grid(experiment)
    layout = experiment.layout

    analytic = _probabilities(layout, {(k, arm): analytic_arm_probability(experiment, arm, k)
                                       for k in range(layout.n_slices)
                                       for arm in layout.slices[k]})
    mixture = postselect(run_coupled(experiment), port)
    for meter in experiment.meters:
        mid = meter.meter_id
        analytic[f"m{mid}.x_mean"] = pointer_mean(mixture, mid, "x")
        analytic[f"m{mid}.p_mean"] = pointer_mean(mixture, mid, "p")
        analytic[f"m{mid}.x2"] = pointer_corr(mixture, (mid, "x"), (mid, "x"))
        analytic[f"m{mid}.p2"] = pointer_corr(mixture, (mid, "p"), (mid, "p"))
    for a in range(len(experiment.meters)):
        for b in range(a + 1, len(experiment.meters)):
            mi = experiment.meters[a].meter_id
            mj = experiment.meters[b].meter_id
            for qa, qb in QUADRATURE_PAIRS:
                analytic[f"corr.{qa}{mi}_{qb}{mj}"] = pointer_corr(mixture, (mi, qa), (mj, qb))
            z = zeta_corr(mixture, mi, mj)
            analytic[f"zeta.{mi}_{mj}.re"] = z.real
            analytic[f"zeta.{mi}_{mj}.im"] = z.imag

    spectrum, marginals = _evolve(experiment, spec, layout.final_slice)
    grid = _probabilities(layout, marginals)
    row = spectrum[layout.arm_index(layout.final_slice, layout.port_arm(port))]
    grid.update(_moments(experiment, spec, row, port))
    grid.pop("probability", None)

    return Report(experiment, port, analytic), Report(experiment, port, grid)


def compare(analytic: Report, grid: Report, tol: float = 1e-7) -> ComparisonTable:
    """Line up two reports name by name.

    A quantity passes when the two routes differ by at most ``tol``, one
    absolute tolerance for every quantity.  The two reports must describe
    equal experiments (component names aside) postselected on the same port.
    """
    if (analytic.experiment, analytic.port) != (grid.experiment, grid.port):
        raise ValueError("reports describe different experiments")
    names = sorted(set(analytic.values) & set(grid.values))
    if not names:
        raise ValueError("reports share no quantities")
    rows = []
    for name in names:
        a, g = float(analytic.values[name]), float(grid.values[name])
        dev = abs(a - g)
        rows.append(ComparisonRow(name, a, g, dev, tol, bool(dev <= tol)))
    return ComparisonTable(tuple(rows))
