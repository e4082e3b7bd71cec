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
``max(1024, 2**17 // max(T, m, k))`` rows of the chunk at a time, all
in one workspace per density that every chunk and tile reuses.  Read
all-p, the envelope is one number and candidates need no pair lookup.
Reading block ``b`` (4096 readings) is drawn from a Philox counter-based
generator keyed by ``(seed, b)``, so any partitioning of the same total
sample count over workers reproduces the same readings bit for bit.
Each block is folded into its plan's jackknife sums as it is drawn;
:func:`sample_readings` also copies it into the batch's ``readings``, and
:func:`sample_moments` holds no array that grows with the number of readings.

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
    "sample_moments",
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


@dataclass(frozen=True)
class MomentEstimate:
    """A sampled mean; ``stderr`` is inf when fewer than two readings back it."""

    value: float
    stderr: float


@dataclass(frozen=True, eq=False)
class SampleBatch:
    """One plan's sampled readout: ``columns`` holds each meter's mean and,
    for two meters, the mean of their product last, each with its jackknife
    standard error; ``readings`` (n rows, one column per meter) is kept by
    :func:`sample_readings` alone, else None.  ``acceptance_rate`` is block
    rows filled per candidate drawn, fixed by the mixture, not by the seed: a
    block draws one chunk of ``int(1.05 * BLOCK_SIZE / rate)`` candidates at
    the envelope's acceptance ``rate`` and almost never a second, so the
    preset's all-x readout reads 4096 / 10714 = 0.3823035280940825 at seeds
    1, 2, 77 and 12345, n <= 200 000."""

    plan: ReadoutPlan
    meters: tuple[MeterAttachment, ...]
    columns: tuple[MomentEstimate, ...]
    acceptance_rate: float
    readings: np.ndarray | None = None


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
        self.dev_rows = np.empty(0)  # dev_row repeated for a tile's rows, grown on demand
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
        if not self.x_cols.size:
            # every magnitude is 1, so the envelope is one number
            unit = np.square(np.ones((1, t)) @ self.env_cols)
            self.env_const = float((unit @ self.env_signs)[0])
        # one generator for every block, reset to a new Philox's state with the
        # block's key: a reset costs less than building a generator
        self.rng = np.random.Generator(np.random.Philox(key=0))
        self.fresh_state = self.rng.bit_generator.state
        self.work: dict[str, np.ndarray] = {}

    def scratch(self, name: str, shape: tuple[int, ...], dtype=float) -> np.ndarray:
        """A C-ordered ``shape`` view of the reused buffer ``name``, which
        grows only when a request outgrows it; the next request for ``name``
        overwrites it."""
        size = math.prod(shape)
        buf = self.work.get(name)
        if buf is None or buf.size < size:
            buf = self.work[name] = np.empty(size, dtype)
        return buf[:size].reshape(shape)

    def sample_block(self, seed: int, block_index: int, out: np.ndarray) -> int:
        """Fill the rows of ``out`` with readings from the block's own Philox
        stream; return the number of candidates drawn.  Every temporary is a
        ``scratch`` buffer, so the chunks and tiles of every block reuse the
        memory of the first chunk drawn."""
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
            # one buffer for the chunk's three draws: as the workspace's largest
            # allocation it keeps glibc's dynamic trim threshold above the whole
            # workspace, which the next density then reuses without page faults
            draws = self.scratch("draws", (draw * (m + 2),))
            r = rng.random(out=draws[:draw])
            v = rng.standard_normal(out=draws[draw:-draw].reshape(draw, m))
            u = rng.random(out=draws[-draw:])
            candidates += draw
            for lo in range(0, draw, tile):
                vt = v[lo:lo + tile]
                n = len(vt)
                # scale every column in one flat pass: an (n, m) by (m,)
                # broadcast runs an inner loop of length m per row, several times slower
                if self.dev_rows.size < vt.size:
                    self.dev_rows = np.tile(self.dev_row, n)
                np.multiply(vt.reshape(-1), self.dev_rows[:vt.size], out=vt.reshape(-1))
                if self.x_cols.size:  # read all-p, every shift is 0: no pair to look up
                    pair = self.pair_index(r[lo:lo + tile])
                    s = np.floor_divide(pair, t, out=self.scratch("s", (n,), np.intp))
                    np.remainder(pair, t, out=pair)
                    # mode="clip" writes straight into out; the default buffers
                    shift = self.scratch("shift", (n, m))
                    vt += np.take(self.half, s, axis=0, out=shift, mode="clip")
                    vt += np.take(self.half, pair, axis=0, out=shift, mode="clip")
                # u * env overwrites the envelope it is computed from
                below = self.scratch("env", (n,))
                f, env = self.weights(vt, out=(self.scratch("f", (n,)), below))
                np.multiply(u[lo:lo + tile], env, out=below)
                keep = np.compress(np.less(below, f, out=self.scratch("mask", (n,), bool)),
                                   vt, axis=0)
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
        pair = self.scratch("pair", (len(r),), np.intp)
        pair.fill(0)
        above = self.scratch("mask", (len(r),), bool)
        for c in self.cdf[:-1]:  # the last entry is 1, above every draw
            pair += np.greater_equal(r, c, out=above)
        return pair

    def weights(self, v: np.ndarray, out: tuple[np.ndarray, np.ndarray] | None = None):
        """Density ``|sum_t A_t w_t|^2`` and its envelope at readings ``v`` of
        shape (n, m), both up to one positive factor per row; written into
        ``out``, a pair of (n,) arrays, when given.  Read all-p, the envelope
        is one number, ``env_const``, and is returned as such.

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
        weighs one tile of a chunk, so n <= max(1024, 2**17 // max(T, m, k)),
        and its temporaries are ``scratch`` buffers.
        """
        n, t = len(v), len(self.amps)
        f, env = out if out is not None else (np.empty(n), np.empty(n))
        if not self.x_cols.size:
            w = self.scratch("w", (t, n), complex)
            w.fill(1.0)
            env = self.env_const
        else:
            mx = len(self.x_cols)
            # stored centre-, meter-, then row-major (the x columns of v too),
            # so each pass runs along the rows and the product reads them as
            # one column-major (n, 2m) matrix
            vx = np.take(v.T, self.x_cols, axis=0, out=self.scratch("vx", (mx, n)), mode="clip")
            squares = self.scratch("squares", (2, mx, n))
            np.subtract(vx.T[:, None, :], self.centers, out=squares.transpose(2, 0, 1))
            squares /= self.widths[:, None]
            np.square(squares, out=squares)
            mag = np.matmul(squares.reshape(2 * mx, n).T, self.pick,
                            out=self.scratch("mag", (n, t)))
            np.exp(mag, out=mag)
            cols = np.matmul(mag, self.env_cols,
                             out=self.scratch("cols", (n, self.env_cols.shape[1])))
            cols *= cols
            np.matmul(cols, self.env_signs, out=env)
            if not self.p_cols.size:
                return np.add(cols[:, 0], cols[:, 1], out=f), env
            w = self.scratch("w", (t, n), complex)
            np.copyto(w, mag.T)
        factor = self.scratch("factor", (n,), complex)
        angle = self.scratch("angle", (n,))
        for j, minus_g, rows in self.phases:
            np.multiply(v[:, j], minus_g, out=angle)
            np.cos(angle, out=factor.real)
            np.sin(angle, out=factor.imag)
            for row in rows:
                w[row] *= factor
        np.abs(np.matmul(self.amps, w, out=factor), out=f)
        return np.square(f, out=f), env


class _JackknifeSums:
    """Column sums over the delete-one-block jackknife's blocks, folded in as
    the rows arrive: ``min(JACKKNIFE_BLOCKS, n)`` contiguous blocks with edges
    ``np.linspace(0, n, blocks + 1)``, plus, for two columns, the sums of
    their product, in a last column.  Memory does not grow with n."""

    def __init__(self, n: int, columns: int):
        self.n = n
        self.pair = columns == 2
        self.edges = np.linspace(0, n, min(JACKKNIFE_BLOCKS, n) + 1).astype(int)
        self.sums = np.zeros((len(self.edges) - 1, columns + self.pair))
        self.rows = 0

    def add(self, rows: np.ndarray):
        """Fold in the next ``len(rows)`` rows."""
        lo, hi = self.rows, self.rows + len(rows)
        first = int(np.searchsorted(self.edges, lo, side="right")) - 1
        cuts = self.edges[first + 1:]
        starts = np.concatenate(([0], cuts[cuts < hi] - lo))
        sums = self.sums[first:first + len(starts)]
        sums[:, :rows.shape[1]] += np.add.reduceat(rows, starts, axis=0)
        if self.pair:
            sums[:, -1] += np.add.reduceat(rows[:, 0] * rows[:, 1], starts)
        self.rows = hi

    def estimates(self) -> list[MomentEstimate]:
        """Each column's mean with its delete-one-block jackknife standard error."""
        n, blocks = self.n, len(self.sums)
        total = self.sums.sum(axis=0)
        means = total / n
        if n < 2:
            return [MomentEstimate(float(mean), math.inf) for mean in means]
        loo = (total - self.sums) / (n - np.diff(self.edges))[:, None]
        se = np.sqrt((blocks - 1) / blocks * np.square(loo - loo.mean(axis=0)).sum(axis=0))
        return [MomentEstimate(float(mean), float(err)) for mean, err in zip(means, se)]


def _sample(mixture: PointerMixture, plan: ReadoutPlan, keep_readings: bool) -> SampleBatch:
    """The plan's batch, one block at a time: every block, a partial final
    one too, draws a full block's rows into one (``BLOCK_SIZE``, m) array
    that the next block overwrites, so a short batch reproduces the prefix of
    a longer one.  Each block is folded into jackknife sums, and copied into
    ``readings`` when ``keep_readings``.  The checks run before any array
    is allocated."""
    m = len(mixture.meters)
    if len(plan.quadratures) != m:
        raise ValueError(f"plan lists {len(plan.quadratures)} quadratures for {m} meters")
    density = _Density(mixture, plan.quadratures)
    if BLOCK_SIZE / density.rate > CANDIDATE_BUDGET:
        raise SamplingBudgetExceeded(
            f"predicted acceptance {density.rate:.3e} needs more than "
            f"{CANDIDATE_BUDGET} candidates per block of {BLOCK_SIZE} readings")
    sums = _JackknifeSums(plan.n, m)
    readings = np.empty((plan.n, m)) if keep_readings else None
    block_rows = np.empty((BLOCK_SIZE, m))
    candidates = 0
    for block, lo in enumerate(range(0, plan.n, BLOCK_SIZE)):
        candidates += density.sample_block(plan.seed, block, block_rows)
        rows = block_rows[:plan.n - lo]
        sums.add(rows)
        if keep_readings:
            readings[lo:lo + len(rows)] = rows
    rate = math.ceil(plan.n / BLOCK_SIZE) * BLOCK_SIZE / candidates  # every block is filled
    return SampleBatch(plan, mixture.meters, tuple(sums.estimates()), rate, readings)


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
        ``readings`` of shape ``(plan.n, number of meters)``, their jackknife
        ``columns``, their plan and meters, and ``acceptance_rate``: block
        rows filled per candidate drawn.
        Raises :class:`SamplingBudgetExceeded` when the envelope has more
        than ``CANDIDATE_BUDGET`` term pairs, or a block would need more
        candidates, predicted before any draw or counted while drawing.

    Notes
    -----
    Reading rows ``[b * 4096, (b+1) * 4096)`` depend only on ``(seed, b)``,
    so the batch content is invariant under any block partitioning.
    :func:`sample_moments` draws the same readings and keeps only ``columns``.
    """
    return _sample(mixture, plan, keep_readings=True)


def sample_moments(mixture: PointerMixture, plan: ReadoutPlan) -> SampleBatch:
    """The batch :func:`sample_readings` would return, without ``readings``:
    no array grows with ``plan.n``.  Raises as :func:`sample_readings` does."""
    return _sample(mixture, plan, keep_readings=False)


# ----------------------------------------------------------------------
# Estimation


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
    """Turn sampled readout into moment and weak-value estimates.

    ``batches`` may be any iterable of batches, a generator included, and is
    consumed once: each batch's ``columns`` are read as it arrives and the
    batch is let go before the next one is asked for, so a generator of
    :func:`sample_moments` calls holds no readings at all.  Singles come from
    per-column means; two-meter batches contribute the product moment of
    their quadrature pair.  When the four pairs of ``meter.QUADRATURE_PAIRS``
    of one two-meter configuration are present, the complex readout
    correlator and the sequential weak-value estimate are assembled, with
    standard errors propagated in quadrature (batches are independent).
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
        quads, columns = batch.plan.quadratures, batch.columns
        rates.setdefault(quads, batch.acceptance_rate)
        del batch  # else the loop variable holds its readings while the next one is drawn
        for meter, quad, moment in zip(meters, quads, columns):
            singles.setdefault((meter.meter_id, quad), moment)
        if len(meters) == 2:
            pairs.setdefault((quads[0], quads[1]), columns[2])
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
    est = estimate_from_samples(sample_moments(mixture, plan) for plan in readout_plans(n, seed))
    rel = math.hypot(*est.sequential_stderr) / abs(exact)
    constant = rel ** 2 * n * (g1 * g2) ** 2 / sigma ** 4
    return CostModel(constant)
