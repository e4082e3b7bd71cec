"""Reproducible Monte Carlo readout of post-selected pointer quadratures.

Readings are drawn from the exact joint density of the chosen quadratures
(one per meter, ``x`` or ``p``), interference cross-terms included, by
rejection sampling under a Gaussian-mixture envelope over pairs of the T
mixture terms that keeps the signs of terms sharing a momentum phase; a
chunk of n candidates costs one (n x 2m)(2m x T) product that sums each
term's squared position distances and one real ``exp`` over them, one
``cos`` and one ``sin`` per candidate and p meter, written into one complex
factor multiplied into the terms that fire it, and one (n x T)(T x k)
product for the envelope's k columns, each over one tile of
``max(1024, 2**17 // max(T, m, k))`` rows of the chunk at a time.
Each batch is one array of readings, and reading block ``b`` writes its
own rows of it from a Philox counter-based generator keyed by ``(seed,
b)``, so any partitioning of the same total sample count over workers
reproduces the same readings bit for bit.

Moment estimates carry jackknife standard errors over 50 blocks, and the
four quadrature pairs of a two-meter run (``meter.QUADRATURE_PAIRS``, one
plan each from :func:`readout_plans`) assemble into the complex sequential
weak-value estimate with propagated errors.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .meter import (MIN_COUPLING_PRODUCT, QUADRATURE_PAIRS, MeterAttachment, PointerMixture,
                    zeta_from_correlators)

__all__ = [
    "BLOCK_SIZE",
    "CANDIDATE_BUDGET",
    "CostModel",
    "JACKKNIFE_BLOCKS",
    "MAX_READINGS",
    "MIN_SAMPLES",
    "MomentEstimate",
    "ReadoutPlan",
    "SampleBatch",
    "SampleEstimates",
    "SamplingBudgetExceeded",
    "calibrate_cost_model",
    "estimate_from_samples",
    "readout_plans",
    "required_samples",
    "sample_readings",
]

BLOCK_SIZE = 4096
JACKKNIFE_BLOCKS = 50
MIN_SAMPLES = 100
CANDIDATE_BUDGET = 1 << 22
"""Most rejection candidates one block of ``BLOCK_SIZE`` readings may draw,
enough for an acceptance down to about 1e-3."""
_TILE_ENTRIES = 1 << 17  # a tile's widest (rows, T) temporary, unless 1024 rows hold more
MAX_READINGS = 1 << 26
"""Most values one plan may ask for, ``n * len(quadratures)`` (512 MiB of float64)."""


class SamplingBudgetExceeded(RuntimeError):
    """A block would need more than ``CANDIDATE_BUDGET`` rejection candidates."""


@dataclass(frozen=True)
class ReadoutPlan:
    """What to measure: one quadrature per meter, how many times, which seed."""

    quadratures: tuple[str, ...]
    n: int
    seed: int

    def __post_init__(self):
        if any(q not in ("x", "p") for q in self.quadratures):
            raise ValueError("quadratures must be 'x' or 'p'")
        if self.n < 1:
            raise ValueError("need at least one reading")
        if self.n * len(self.quadratures) > MAX_READINGS:
            raise ValueError(f"{self.n} readings of {len(self.quadratures)} quadratures "
                             f"need {self.n * len(self.quadratures)} values (limit {MAX_READINGS})")
        if not 0 <= self.seed < 2 ** 64:
            raise ValueError("seed must fit in 64 bits")


def readout_plans(n: int, seed: int) -> list[ReadoutPlan]:
    """One plan per ``QUADRATURE_PAIRS`` entry, in order; plan k is seeded ``(seed+k) % 2**64``."""
    ReadoutPlan(QUADRATURE_PAIRS[0], n, seed)  # the given seed, checked before it wraps
    return [ReadoutPlan(pair, n, (seed + k) % 2 ** 64) for k, pair in enumerate(QUADRATURE_PAIRS)]


@dataclass(frozen=True, eq=False)
class SampleBatch:
    """Readings (n rows, one column per meter) plus provenance.

    ``readings`` is the first n rows of one array; each block fills its own
    rows in place.  ``acceptance_rate`` is block rows filled per candidate
    drawn, fixed by the mixture, not by the seed: a block draws one chunk of
    ``int(1.05 * BLOCK_SIZE / rate)`` candidates at the envelope's acceptance
    ``rate`` and almost never a second, so the preset's all-x readout reads
    4096 / 10714 = 0.3823035280940825 at seeds 1, 2, 77 and 12345, n <= 200 000."""

    plan: ReadoutPlan
    meters: tuple[MeterAttachment, ...]
    readings: np.ndarray
    acceptance_rate: float


class _Density:
    """The postselected density's terms and envelope, shared by every block.

    Terms whose p shifts agree share their phase: f = |sum_G phase_G B_G|^2
    over such groups G, B_G = sum_{s in G} A_s x_s for the x packets x_s > 0.
    Turned by one phase, A_s splits into four non-negative parts a_gs (+-Re,
    +-Im), and f <= env = sum_G E_G + M^2 - sum_G M_G^2, with sums over s in G
    E_G = sum_g (sum a_gs x_s)^2 >= |B_G|^2 and M_G = sum |A_s| x_s, M = sum_G
    M_G: a mixture over term pairs of N((s_j + s'_j) / 2, sigma_j^2) K(s_j,
    s'_j) per x meter and N(0, 1 / (4 sigma_j^2)) per p meter, weighted by
    sum_g a_gs a_gs' within a group and by |A_s| |A_s'| across groups."""

    def __init__(self, mixture: PointerMixture, quadratures: tuple[str, ...]):
        shifts, self.amps = mixture.entries()
        t, m = shifts.shape
        if t * t > CANDIDATE_BUDGET:
            raise SamplingBudgetExceeded(
                f"{t} mixture terms need {t * t} envelope pairs (limit {CANDIDATE_BUDGET})")
        sigmas = np.array([mt.sigma for mt in mixture.meters], dtype=float)
        is_x = np.array([q == "x" for q in quadratures], dtype=bool)
        self.x_cols, self.p_cols = np.flatnonzero(is_x), np.flatnonzero(~is_x)
        sx = shifts[:, is_x]
        self.half = np.where(is_x, 0.5 * shifts, 0.0)
        self.dev_row = np.where(is_x, sigmas, 0.5 / sigmas)
        # x meter j's two packet centres, 0 and g_j, and the one each term sits on
        self.centers = np.stack([np.zeros(sx.shape[1]), sx.max(axis=0)])
        self.widths = 2.0 * sigmas[is_x]
        self.pick = -np.stack([sx == 0.0, sx != 0.0], axis=1).reshape(t, -1).T.astype(float)
        # a term's momentum phase is the product of exp(-i g_j v_j) over the p meters it fires
        self.phases = [(j, -shifts[:, j].max(), np.flatnonzero(shifts[:, j]))
                       for j in self.p_cols if shifts[:, j].any()]
        group = np.unique(shifts[:, ~is_x], axis=0, return_inverse=True)[1].ravel()
        cross = group[:, None] != group[None, :]
        pair, work = np.zeros((t, t)), np.empty((t, t))
        for c in (sx / (math.sqrt(8.0) * sigmas[is_x])).T:
            pair -= np.square(np.subtract.outer(c, c, out=work), out=work)
        np.exp(pair, out=pair)
        # the turn with the least envelope mass; ties go to the first, not to rounding
        turns = np.exp(0.5j * np.pi * np.arange(16) / 16)
        parts = np.abs((self.amps[:, None] * turns).view(float))
        cost = parts * (np.multiply(pair, ~cross, out=work) @ parts)
        cost = cost.reshape(t, 16, 2).sum(axis=(0, 2))
        self.turn = turns[np.flatnonzero(cost <= cost.min() * (1 + 1e-9))[0]]
        turned = self.turn * self.amps
        split = np.stack([turned.real, turned.imag, abs(turned.real), abs(turned.imag)], axis=1)
        abs_amps = np.abs(self.amps)
        np.matmul(split, 0.5 * split.T, out=work)
        if cross.any():
            np.copyto(work, np.outer(abs_amps, abs_amps), where=cross)
        work *= pair
        self.cdf = np.cumsum(work.ravel(), out=work.ravel())
        # mean acceptance = (target mass) / (envelope mass)
        self.rate = mixture.postselection_probability / float(self.cdf[-1])
        self.cdf /= self.cdf[-1]

        # env = sum_c sign_c (x @ col_c)^2; a one-term group adds nothing
        if group.max() == 0:
            cols, signs = list(split.T), [0.5] * 4
        else:
            cols, signs = [abs_amps], [1.0]
            for g in np.flatnonzero(np.bincount(group) > 1):
                inside = group == g
                cols += [np.where(inside, c, 0.0) for c in (*split.T, abs_amps)]
                signs += [0.5] * 4 + [-1.0]
        self.env_cols, self.env_signs = np.stack(cols, axis=1), np.array(signs)
        # one generator for every block, reset to a new Philox's state with the
        # block's key: a reset costs less than building a generator
        self.rng = np.random.Generator(np.random.Philox(key=0))
        self.fresh_state = self.rng.bit_generator.state

    def sample_block(self, seed: int, block_index: int, out: np.ndarray) -> int:
        """Fill the rows of ``out`` with readings from the block's own Philox
        stream; return the number of candidates drawn."""
        # a list would turn seeds >= 2**63 into float64 and merge their streams
        self.fresh_state["state"]["key"] = np.array([seed, block_index], np.uint64)
        rng = self.rng
        rng.bit_generator.state = self.fresh_state
        t, m = self.half.shape
        count = len(out)
        filled = 0
        candidates = 0
        width = max(t, m, self.env_cols.shape[1])
        # a chunk draws at most 2^21 / width candidates; the draws fix the
        # readings, the tiles they are weighed in only bound the temporaries
        most = max(1, (1 << 21) // width)
        tile = max(1024, _TILE_ENTRIES // width)
        while filled < count:
            draw = min(most, max(256, int(1.05 * (count - filled) / self.rate)))
            r = rng.random(draw)
            v = rng.standard_normal((draw, m))
            u = rng.random(draw)
            candidates += draw
            for lo in range(0, draw, tile):
                pair = self.pair_index(r[lo:lo + tile])
                s = pair // t
                vt = v[lo:lo + tile]
                vt *= self.dev_row
                vt += np.take(self.half, s, axis=0)
                vt += np.take(self.half, pair - s * t, axis=0)
                f, env = self.weights(vt)
                keep = np.compress(u[lo:lo + tile] * env < f, vt, axis=0)
                take = min(count - filled, keep.shape[0])
                out[filled:filled + take] = keep[:take]
                filled += take
                if filled == count:
                    break
            if filled < count and candidates >= CANDIDATE_BUDGET:
                raise SamplingBudgetExceeded(
                    f"block {block_index} used {candidates} candidates for {filled} "
                    f"of {count} readings (predicted acceptance {self.rate:.3e})")
        return candidates

    def pair_index(self, r: np.ndarray) -> np.ndarray:
        """``searchsorted(cdf, r, side="right")``, the envelope pair each uniform
        ``r`` picks.  Up to 36 entries, counting the entries at or below each
        draw beats numpy's binary search."""
        if len(self.cdf) > 36:
            return np.searchsorted(self.cdf, r, side="right")
        pair = np.zeros(len(r), np.intp)
        for c in self.cdf[:-1]:  # the last entry is 1, above every draw
            pair += r >= c
        return pair

    def weights(self, v: np.ndarray):
        """Density ``|sum_t A_t w_t|^2`` and its envelope at readings ``v`` of
        shape (n, m), both up to one positive factor per row.

        ``w_t`` is the product over meters of the position packet ``exp(-(v -
        s_tj)^2 / (4 sigma_j^2))`` (x readout) or the momentum packet
        ``exp(-sigma_j^2 v^2 - i v s_tj)`` (p readout), without the factors
        common to every term.  Each shift s_tj is 0 or ``g_j``, so an x
        meter has two squared distances, ``(v / 2 sigma)^2`` and ``((v - g) /
        2 sigma)^2``, and a term's exponent is minus the sum of the ones it
        sits on: one (n x 2m)(2m x T) product with a choice matrix of 0 and
        -1 and one real ``exp``.  The sum has no cancellation, so narrow or
        strong meters keep their digits.  A term's momentum phase is the
        product of ``exp(-i g_j v_j)`` over the p meters it fires: one ``cos``
        and one ``sin`` of ``-g_j v_j`` per candidate and p meter of nonzero
        strength, written into the real and imaginary parts of one complex
        factor and multiplied into the rows of the terms that fire it.  The
        envelope's k columns cost one (n x T)(T x k) product.  Each call
        weighs one tile of a chunk, so n <= max(1024, 2**17 // max(T, m, k)).
        """
        if not self.x_cols.size:  # every exponent is 0
            mag = np.ones((len(v), self.pick.shape[1]))
        else:
            vx = v[:, None, self.x_cols]
            # stored centre-, meter-, then row-major, so each pass runs along the
            # rows; the reshape below hands the product a row-major copy
            squares = np.empty((2, len(self.x_cols), len(vx))).transpose(2, 0, 1)
            np.subtract(vx, self.centers, out=squares)
            squares /= self.widths
            np.square(squares, out=squares)
            mag = squares.reshape(len(squares), -1) @ self.pick
            np.exp(mag, out=mag)
        cols = mag @ self.env_cols
        cols *= cols
        env = cols @ self.env_signs
        if not self.p_cols.size:
            return cols[:, 0] + cols[:, 1], env
        w = mag.T.astype(complex, order="C")
        factor = np.empty(len(v), complex)
        for j, minus_g, rows in self.phases:
            angle = v[:, j] * minus_g
            np.cos(angle, out=factor.real)
            np.sin(angle, out=factor.imag)
            for row in rows:
                w[row] *= factor
        return np.abs(self.amps @ w) ** 2, env


def sample_readings(mixture: PointerMixture, plan: ReadoutPlan) -> SampleBatch:
    """Draw quadrature readings from the post-selected pointer density.

    Parameters
    ----------
    mixture : PointerMixture
        Post-selected pointer state (see :func:`tsvfsim.meter.postselect`).
    plan : ReadoutPlan
        One quadrature per meter (in meter order), the number of readings
        and the 64-bit seed.

    Returns
    -------
    SampleBatch
        Readings of shape ``(plan.n, number of meters)``, their plan and meters,
        and ``acceptance_rate``: block rows filled per candidate drawn.
        Raises :class:`SamplingBudgetExceeded` when the envelope has more
        than ``CANDIDATE_BUDGET`` term pairs, or a block would need more
        candidates, predicted before any draw or counted while drawing.

    Notes
    -----
    Reading rows ``[b * 4096, (b+1) * 4096)`` depend only on ``(seed, b)``,
    so the batch content is invariant under any block partitioning.
    """
    m = len(mixture.meters)
    if len(plan.quadratures) != m:
        raise ValueError(f"plan lists {len(plan.quadratures)} quadratures for {m} meters")
    density = _Density(mixture, plan.quadratures)
    if BLOCK_SIZE / density.rate > CANDIDATE_BUDGET:
        raise SamplingBudgetExceeded(
            f"predicted acceptance {density.rate:.3e} needs more than "
            f"{CANDIDATE_BUDGET} candidates per block of {BLOCK_SIZE} readings")
    # every block, a partial final one too, draws a full block's rows, so a
    # short batch reproduces the prefix of a longer one
    out = np.empty((math.ceil(plan.n / BLOCK_SIZE) * BLOCK_SIZE, m))
    candidates = sum(density.sample_block(plan.seed, block, out[lo:lo + BLOCK_SIZE])
                     for block, lo in enumerate(range(0, plan.n, BLOCK_SIZE)))
    return SampleBatch(plan, mixture.meters, out[:plan.n], acceptance_rate=len(out) / candidates)


# ----------------------------------------------------------------------
# Estimation


@dataclass(frozen=True)
class MomentEstimate:
    """A sampled mean; ``stderr`` is inf when fewer than two readings back it."""

    value: float
    stderr: float


def _jackknife_mean(samples: np.ndarray) -> MomentEstimate:
    """Mean with a delete-one-block jackknife standard error."""
    n = samples.shape[0]
    mean = float(samples.mean())
    if n < 2:
        return MomentEstimate(mean, math.inf)
    blocks = min(JACKKNIFE_BLOCKS, n)
    edges = np.linspace(0, n, blocks + 1).astype(int)
    total = samples.sum()
    loo = np.array([
        (total - samples[lo:hi].sum()) / (n - (hi - lo))
        for lo, hi in zip(edges[:-1], edges[1:])
    ])
    se = math.sqrt((blocks - 1) / blocks * float(((loo - loo.mean()) ** 2).sum()))
    return MomentEstimate(mean, se)


@dataclass(frozen=True)
class SampleEstimates:
    """Plug-in moments, each quadrature combination's acceptance rate and,
    when all four combinations are present, the assembled complex
    sequential estimate with propagated errors."""

    singles: dict[tuple[int, str], MomentEstimate]
    pair_moments: dict[tuple[str, str], MomentEstimate]
    acceptance_rates: dict[tuple[str, ...], float]
    zeta: complex | None = None
    zeta_stderr: tuple[float, float] | None = None
    sequential: complex | None = None
    sequential_stderr: tuple[float, float] | None = None


def estimate_from_samples(batches: Iterable[SampleBatch]) -> SampleEstimates:
    """Turn sampled readings into moment and weak-value estimates.

    ``batches`` may be any iterable, a generator included, and is consumed
    once: each batch's moments are taken as it arrives and the batch is let
    go before the next one is asked for, so a generator of
    :func:`sample_readings` calls holds one batch's readings at a time.
    Singles come from per-column means; two-meter batches contribute the
    product moment of their quadrature pair.  When the four pairs of
    ``meter.QUADRATURE_PAIRS`` of one two-meter configuration are present, the
    complex readout correlator and the sequential weak-value estimate are
    assembled, with standard errors propagated in quadrature (batches are
    independent).
    """
    singles: dict[tuple[int, str], MomentEstimate] = {}
    pairs: dict[tuple[str, str], MomentEstimate] = {}
    rates: dict[tuple[str, ...], float] = {}
    meters = None
    for batch in batches:
        if meters is None:
            meters = batch.meters
        elif batch.meters != meters:
            raise ValueError("batches come from different meter configurations")
        rates.setdefault(batch.plan.quadratures, batch.acceptance_rate)
        for col, (meter, quad) in enumerate(zip(batch.meters, batch.plan.quadratures)):
            key = (meter.meter_id, quad)
            if key not in singles:
                singles[key] = _jackknife_mean(batch.readings[:, col])
        if len(batch.meters) == 2:
            combo = (batch.plan.quadratures[0], batch.plan.quadratures[1])
            if combo not in pairs:
                pairs[combo] = _jackknife_mean(
                    batch.readings[:, 0] * batch.readings[:, 1]
                )
        del batch  # else the loop variable holds it while the next one is drawn
    if meters is None:
        raise ValueError("no batches given")
    if len(meters) != 2 or any(c not in pairs for c in QUADRATURE_PAIRS):
        return SampleEstimates(singles, pairs, rates)

    s0, s1 = meters[0].sigma ** 2, meters[1].sigma ** 2
    xx, pp, xp, px = (pairs[c] for c in QUADRATURE_PAIRS)
    zeta = zeta_from_correlators(xx.value, pp.value, xp.value, px.value,
                                 meters[0].sigma, meters[1].sigma)
    zeta_se = (
        math.hypot(xx.stderr, 4.0 * s0 * s1 * pp.stderr),
        math.hypot(2.0 * s1 * xp.stderr, 2.0 * s0 * px.stderr),
    )
    g = meters[0].strength * meters[1].strength
    if g < MIN_COUPLING_PRODUCT:
        return SampleEstimates(singles, pairs, rates, zeta, zeta_se)
    return SampleEstimates(
        singles, pairs, rates, zeta, zeta_se,
        sequential=zeta / g,
        sequential_stderr=(zeta_se[0] / g, zeta_se[1] / g),
    )


# ----------------------------------------------------------------------
# Sample-cost model


@dataclass(frozen=True)
class CostModel:
    """Fitted prefactor of n = C sigma^4 / (g1^2 g2^2 rel_err^2)."""

    constant: float


def required_samples(
    g1: float, g2: float, sigma: float, target_rel_err: float,
    model: CostModel,
) -> int:
    """Samples per quadrature combination needed for a relative error.

    Uses the scaling ``n = C sigma^4 / (g1^2 g2^2 target^2)`` with the
    calibrated prefactor; the result never falls below ``MIN_SAMPLES``
    (two readings per jackknife block), which is also the answer for
    arbitrarily loose targets.
    """
    if g1 <= 0 or g2 <= 0 or sigma <= 0 or target_rel_err <= 0:
        raise ValueError("strengths, width and target must be positive")
    try:
        divisor = g1 ** 2 * g2 ** 2 * target_rel_err ** 2
    except OverflowError:  # the law asks for less than one sample
        divisor = math.inf
    try:
        n = model.constant * sigma ** 4 / divisor if divisor else math.inf
    except OverflowError:  # sigma ** 4 past the float range
        n = math.inf
    if math.isnan(n) and model.constant > 0:  # both sides overflowed: compare logarithms
        log_n = (math.log(model.constant) + 4.0 * math.log(sigma)
                 - 2.0 * (math.log(g1) + math.log(g2) + math.log(target_rel_err)))
        if math.isfinite(log_n):  # an infinite input keeps its error
            try:
                n = math.exp(log_n)
            except OverflowError:
                n = math.inf
    if not math.isfinite(n):
        raise ValueError("cost model diverges for these parameters")
    return max(MIN_SAMPLES, math.ceil(n))


def calibrate_cost_model(
    mixture: PointerMixture, exact: complex, n: int = 40_000, seed: int = 2_026_08,
) -> CostModel:
    """Fit the cost prefactor from one sampled run of a two-meter mixture.

    Runs the four quadrature combinations at ``n`` readings each, measures
    the propagated relative standard error of the sequential estimate
    against ``|exact|``, and solves the scaling law for its constant.
    """
    if len(mixture.meters) != 2:
        raise ValueError("cost calibration needs a two-meter mixture")
    g1, g2 = (m.strength for m in mixture.meters)
    if g1 * g2 < MIN_COUPLING_PRODUCT:
        raise ValueError(f"cost calibration needs g1 * g2 >= {MIN_COUPLING_PRODUCT:g}")
    sigma = mixture.meters[0].sigma
    est = estimate_from_samples(sample_readings(mixture, plan) for plan in readout_plans(n, seed))
    rel = math.hypot(*est.sequential_stderr) / abs(exact)
    constant = rel ** 2 * n * (g1 * g2) ** 2 / sigma ** 4
    return CostModel(constant)
