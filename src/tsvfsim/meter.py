"""Gaussian pointer meters coupled impulsively to arm occupation.

Each meter is a one-dimensional Gaussian pointer of width ``sigma``
(position variance ``sigma**2``, momentum variance ``1/(4 sigma**2)``)
attached to one arm at one slice.  The coupling displaces the pointer
position by the strength ``g`` exactly when the particle occupies the arm,
so after the full evolution the joint state is a finite sum of terms
``amplitude * |arm> * product_j |pointer_j shifted by s_j>`` with every
``s_j`` either 0 or ``g_j``.  All pointer statistics then reduce to closed
Gaussian matrix elements between displaced copies of the initial packet.

The complex readout combination ``x + 2 i sigma^2 p`` annihilates the
undisplaced packet and multiplies a displaced one by its shift, which is
what makes single and two-meter weak-value estimators out of jointly
measurable quadrature correlators.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .network import NetworkLayout, stage_unitary

__all__ = [
    "Experiment",
    "GaussianPointer",
    "JointState",
    "MeterAttachment",
    "PointerMixture",
    "ZERO_PROBABILITY_TOL",
    "ZeroProbability",
    "arm_probability",
    "attach_meter",
    "estimate_sequential_weak_value",
    "estimate_weak_value",
    "gaussian_overlap",
    "gaussian_p2_element",
    "gaussian_p_element",
    "gaussian_x2_element",
    "gaussian_x_element",
    "new_experiment",
    "pointer_corr",
    "pointer_mean",
    "postselect",
    "run_coupled",
    "zeta_corr",
    "zeta_corr_direct",
]

ZERO_PROBABILITY_TOL = 1e-300
"""Bound on the postselection probability, a squared norm summed over
pointer terms: :func:`postselect` raises :class:`ZeroProbability` below it.
Unlike ``tsvf.POSTSELECTION_TOL`` (1e-12 on an amplitude, 1e-24 on a
probability) it only guards the division by zero."""


class ZeroProbability(ValueError):
    """Postselection probability is numerically zero."""


# ----------------------------------------------------------------------
# Closed-form matrix elements between displaced Gaussians
# phi_c(x) = (2 pi sigma^2)^(-1/4) exp(-(x - c)^2 / (4 sigma^2))


def gaussian_overlap(a: float, b: float, sigma: float) -> float:
    """<phi_a|phi_b> = exp(-(a-b)^2 / (8 sigma^2))."""
    return math.exp(-((a - b) ** 2) / (8.0 * sigma * sigma))


def gaussian_x_element(a: float, b: float, sigma: float) -> float:
    """<phi_a|x|phi_b> = ((a+b)/2) <phi_a|phi_b>."""
    return 0.5 * (a + b) * gaussian_overlap(a, b, sigma)


def gaussian_p_element(a: float, b: float, sigma: float) -> complex:
    """<phi_a|p|phi_b> = i (a-b) / (4 sigma^2) * <phi_a|phi_b>."""
    return 1j * (a - b) / (4.0 * sigma * sigma) * gaussian_overlap(a, b, sigma)


def gaussian_x2_element(a: float, b: float, sigma: float) -> float:
    """<phi_a|x^2|phi_b> = (((a+b)/2)^2 + sigma^2) <phi_a|phi_b>."""
    m = 0.5 * (a + b)
    return (m * m + sigma * sigma) * gaussian_overlap(a, b, sigma)


def gaussian_p2_element(a: float, b: float, sigma: float) -> float:
    """<phi_a|p^2|phi_b> = (1/(4 sigma^2) - (a-b)^2/(16 sigma^4)) <phi_a|phi_b>."""
    s2 = sigma * sigma
    d = a - b
    return (1.0 / (4.0 * s2) - d * d / (16.0 * s2 * s2)) * gaussian_overlap(a, b, sigma)


# ----------------------------------------------------------------------
# Experiments and the coupled evolution


@dataclass(frozen=True)
class GaussianPointer:
    """Initial pointer packet: zero-centred Gaussian of width sigma."""

    sigma: float

    def __post_init__(self):
        if not self.sigma > 0.0:
            raise ValueError("pointer width sigma must be positive")


@dataclass(frozen=True)
class MeterAttachment:
    """One meter: which arm, which slice, coupling strength, pointer width."""

    meter_id: int
    arm: str
    slice_index: int
    strength: float
    pointer: GaussianPointer

    @property
    def sigma(self) -> float:
        return self.pointer.sigma


@dataclass(frozen=True)
class Experiment:
    """A layout plus an ordered set of meter attachments."""

    layout: NetworkLayout
    meters: tuple[MeterAttachment, ...] = ()

    def meter(self, meter_id: int) -> MeterAttachment:
        for m in self.meters:
            if m.meter_id == meter_id:
                return m
        raise ValueError(f"no meter with id {meter_id}")


def new_experiment(layout: NetworkLayout) -> Experiment:
    return Experiment(layout, ())


def attach_meter(
    experiment: Experiment, arm: str, slice_index: int, strength: float, sigma: float
) -> Experiment:
    """Return a new experiment with one more meter on (arm, slice).

    The coupling strength may be zero (the meter then records nothing);
    negative strengths and non-positive widths are rejected, as are arms
    that do not exist on the given slice.
    """
    layout = experiment.layout
    if not 0 <= slice_index < layout.n_slices:
        raise ValueError(f"invalid slice index {slice_index}")
    if arm not in layout.slices[slice_index]:
        raise ValueError(f"arm {arm!r} is not on slice {slice_index}")
    if strength < 0.0:
        raise ValueError("coupling strength must be >= 0")
    meter = MeterAttachment(
        len(experiment.meters), arm, slice_index, float(strength),
        GaussianPointer(float(sigma)),
    )
    return Experiment(layout, experiment.meters + (meter,))


@dataclass(frozen=True, eq=False)
class JointState:
    """Finite-sum representation of particle plus pointers.

    ``terms`` maps ``(arm, shifts)`` to a complex amplitude, where
    ``shifts`` holds one entry per meter, each either 0.0 or that meter's
    strength.  The pointer factors are displaced copies of the initial
    Gaussians, so norms and moments reduce to the closed-form elements.
    """

    slice_index: int
    experiment: Experiment
    terms: dict[tuple[str, tuple[float, ...]], complex]

    @property
    def meters(self) -> tuple[MeterAttachment, ...]:
        return self.experiment.meters

    def norm(self) -> float:
        total = 0.0
        by_arm: dict[str, list[tuple[tuple[float, ...], complex]]] = {}
        for (arm, shifts), amp in self.terms.items():
            by_arm.setdefault(arm, []).append((shifts, amp))
        for entries in by_arm.values():
            total += _pair_sum(entries, self.meters).real
        return math.sqrt(max(total, 0.0))


def _pair_sum(
    entries: list[tuple[tuple[float, ...], complex]],
    meters: tuple[MeterAttachment, ...],
) -> complex:
    """sum_{s, s'} A_s conj(A_s') prod_j <phi_s'_j|phi_s_j>."""
    total = 0.0 + 0.0j
    for shifts, amp in entries:
        for shifts2, amp2 in entries:
            k = 1.0
            for j, meter in enumerate(meters):
                k *= gaussian_overlap(shifts2[j], shifts[j], meter.sigma)
            total += amp * np.conj(amp2) * k
    return total


def _evolve_terms(
    experiment: Experiment, to_slice: int
) -> dict[tuple[str, tuple[float, ...]], complex]:
    layout = experiment.layout
    meters = experiment.meters
    m = len(meters)
    terms: dict[tuple[str, tuple[float, ...]], complex] = {
        (layout.source, (0.0,) * m): 1.0 + 0.0j
    }

    def couple(at_slice: int):
        nonlocal terms
        for j, meter in enumerate(meters):
            if meter.slice_index != at_slice or meter.strength == 0.0:
                continue
            updated: dict[tuple[str, tuple[float, ...]], complex] = {}
            for (arm, shifts), amp in terms.items():
                if arm == meter.arm:
                    shifts = shifts[:j] + (meter.strength,) + shifts[j + 1:]
                updated[(arm, shifts)] = updated.get((arm, shifts), 0.0) + amp
            terms = updated

    couple(0)
    for k in range(to_slice):
        u = stage_unitary(layout, k)
        ins, outs = layout.slices[k], layout.slices[k + 1]
        moved: dict[tuple[str, tuple[float, ...]], complex] = {}
        for (arm, shifts), amp in terms.items():
            col = ins.index(arm)
            for row, out_arm in enumerate(outs):
                c = u[row, col]
                if c == 0.0:
                    continue
                key = (out_arm, shifts)
                moved[key] = moved.get(key, 0.0) + c * amp
        terms = {key: amp for key, amp in moved.items() if amp != 0.0}
        couple(k + 1)
    return terms


def run_coupled(experiment: Experiment) -> JointState:
    """Evolve source + pointers through all stages and couplings.

    Couplings fire when the particle arrives at a meter's slice (before
    the next stage acts); each multiplies the meter's shift register from
    0 to its strength on the terms occupying the metered arm.  The
    returned state lives on the final slice, term count bounded by
    (arms) * 2^(number of meters), with unit norm.
    """
    layout = experiment.layout
    return JointState(
        layout.final_slice, experiment, _evolve_terms(experiment, layout.final_slice)
    )


@dataclass(frozen=True, eq=False)
class PointerMixture:
    """Pointer-only state conditioned on one detector port.

    Postselecting a port leaves the (pure, unnormalised) pointer state
    ``sum_s A_s prod_j |phi_{s_j}>``.  ``amplitudes`` maps shift vectors to
    ``A_s``; ``terms`` exposes the equivalent density-matrix form mapping
    ``(ket shifts, bra shifts)`` to ``A_s conj(A_s')``.
    """

    meters: tuple[MeterAttachment, ...]
    amplitudes: dict[tuple[float, ...], complex]
    postselection_probability: float

    @property
    def terms(self) -> dict[tuple[tuple[float, ...], tuple[float, ...]], complex]:
        return {
            (s, s2): amp * np.conj(amp2)
            for s, amp in self.amplitudes.items()
            for s2, amp2 in self.amplitudes.items()
        }

    def meter(self, meter_id: int) -> MeterAttachment:
        for m in self.meters:
            if m.meter_id == meter_id:
                return m
        raise ValueError(f"no meter with id {meter_id}")


def postselect(joint: JointState, port: str) -> PointerMixture:
    """Condition the joint state on a detector port firing.

    Raises
    ------
    ZeroProbability
        If the postselection probability falls below 1e-300.
    """
    layout = joint.experiment.layout
    arm = layout.port_arm(port)
    amps = {
        shifts: amp for (a, shifts), amp in joint.terms.items() if a == arm
    }
    entries = list(amps.items())
    prob = _pair_sum(entries, joint.meters).real
    if prob < ZERO_PROBABILITY_TOL:
        raise ZeroProbability(
            f"port {port!r} fires with probability {prob:.3e}"
        )
    return PointerMixture(joint.meters, amps, prob)


# ----------------------------------------------------------------------
# Moments of the post-selected pointer state

_ELEMENTS = {
    "1": lambda a, b, sigma: gaussian_overlap(a, b, sigma),
    "x": lambda a, b, sigma: gaussian_x_element(a, b, sigma),
    "p": lambda a, b, sigma: gaussian_p_element(a, b, sigma),
    "xx": lambda a, b, sigma: gaussian_x2_element(a, b, sigma),
    "pp": lambda a, b, sigma: gaussian_p2_element(a, b, sigma),
}


def _meter_index(mixture: PointerMixture, meter_id: int) -> int:
    for j, m in enumerate(mixture.meters):
        if m.meter_id == meter_id:
            return j
    raise ValueError(f"no meter with id {meter_id}")


def _expectation(mixture: PointerMixture, ops: dict[int, str]) -> complex:
    """<prod_j O_j> over the mixture, O_j given per meter list index."""
    total = 0.0 + 0.0j
    items = list(mixture.amplitudes.items())
    for s, amp in items:
        for s2, amp2 in items:
            factor = 1.0 + 0.0j
            for j, meter in enumerate(mixture.meters):
                op = ops.get(j, "1")
                # bra shift first: element is <phi_{s2_j}| O |phi_{s_j}>
                factor *= _ELEMENTS[op](s2[j], s[j], meter.sigma)
            total += amp * np.conj(amp2) * factor
    return total / mixture.postselection_probability


def pointer_mean(mixture: PointerMixture, meter_id: int, quadrature: str) -> float:
    """<x> or <p> of one pointer, conditioned on the postselection."""
    if quadrature not in ("x", "p"):
        raise ValueError("quadrature must be 'x' or 'p'")
    j = _meter_index(mixture, meter_id)
    value = _expectation(mixture, {j: quadrature})
    if abs(value.imag) > 1e-10:
        raise RuntimeError(f"pointer mean came out complex ({value:.3e})")
    return value.real


def pointer_corr(
    mixture: PointerMixture,
    first: tuple[int, str],
    second: tuple[int, str],
) -> float:
    """Second moment <O_i O_j> of two pointer quadratures.

    Distinct meters combine freely (their operators commute); the same
    meter may only be paired with itself in the same quadrature, since
    ``x`` and ``p`` of one pointer are not jointly measurable.
    """
    (i, qi), (j, qj) = first, second
    if qi not in ("x", "p") or qj not in ("x", "p"):
        raise ValueError("quadrature must be 'x' or 'p'")
    ji = _meter_index(mixture, i)
    jj = _meter_index(mixture, j)
    if ji == jj:
        if qi != qj:
            raise ValueError(
                "mixed x/p moments of a single meter are not jointly measurable"
            )
        value = _expectation(mixture, {ji: qi + qi})
    else:
        value = _expectation(mixture, {ji: qi, jj: qj})
    if abs(value.imag) > 1e-10:
        raise RuntimeError(f"correlator came out complex ({value:.3e})")
    return value.real


def zeta_corr(mixture: PointerMixture, i: int, j: int) -> complex:
    """Two-meter complex readout correlator.

    With ``zeta = x + 2 i sigma^2 p`` per meter, returns ``<zeta_i
    zeta_j>`` assembled from the four jointly measurable real correlators
    ``<x_i x_j>``, ``<p_i p_j>``, ``<x_i p_j>`` and ``<p_i x_j>``.
    """
    if i == j:
        raise ValueError("the readout correlator needs two distinct meters")
    si = mixture.meter(i).sigma
    sj = mixture.meter(j).sigma
    xx = pointer_corr(mixture, (i, "x"), (j, "x"))
    pp = pointer_corr(mixture, (i, "p"), (j, "p"))
    xp = pointer_corr(mixture, (i, "x"), (j, "p"))
    px = pointer_corr(mixture, (i, "p"), (j, "x"))
    si2, sj2 = si * si, sj * sj
    return complex(
        xx - 4.0 * si2 * sj2 * pp,
        2.0 * sj2 * xp + 2.0 * si2 * px,
    )


def zeta_corr_direct(mixture: PointerMixture, i: int, j: int) -> complex:
    """Same correlator evaluated through the annihilation property.

    ``zeta`` maps a pointer displaced by s to s times itself, so the
    correlator is a shift-weighted overlap sum.  Kept separate from
    :func:`zeta_corr` as an independent route for cross-checks.
    """
    if i == j:
        raise ValueError("the readout correlator needs two distinct meters")
    ji = _meter_index(mixture, i)
    jj = _meter_index(mixture, j)
    total = 0.0 + 0.0j
    items = list(mixture.amplitudes.items())
    for s, amp in items:
        weight = s[ji] * s[jj]
        if weight == 0.0:
            continue
        for s2, amp2 in items:
            k = 1.0
            for idx, meter in enumerate(mixture.meters):
                k *= gaussian_overlap(s2[idx], s[idx], meter.sigma)
            total += amp * np.conj(amp2) * weight * k
    return total / mixture.postselection_probability


def estimate_weak_value(mixture: PointerMixture, meter_id: int) -> complex:
    """Single-meter weak-value estimate ``(<x> + 2 i sigma^2 <p>) / g``.

    Converges to the arm projector's weak value as the coupling strength
    goes to zero, with an error of second order in the strength.
    """
    meter = mixture.meter(meter_id)
    if meter.strength == 0.0:
        raise ValueError("cannot estimate a weak value from a zero-strength meter")
    x = pointer_mean(mixture, meter_id, "x")
    p = pointer_mean(mixture, meter_id, "p")
    return complex(x, 2.0 * meter.sigma ** 2 * p) / meter.strength


def estimate_sequential_weak_value(
    mixture: PointerMixture, i: int, j: int
) -> complex:
    """Two-meter sequential weak-value estimate ``<zeta_i zeta_j>/(g_i g_j)``.

    Converges to the sequential weak value of the two metered projectors
    (ordered by their slices) with an error of second order in the
    coupling strengths.
    """
    gi = mixture.meter(i).strength
    gj = mixture.meter(j).strength
    if gi == 0.0 or gj == 0.0:
        raise ValueError("cannot estimate a weak value from a zero-strength meter")
    return zeta_corr(mixture, i, j) / (gi * gj)


def arm_probability(experiment: Experiment, arm: str, slice_index: int) -> float:
    """Probability that a projective arm detection at a slice would fire.

    The coupled state (all meters at slices up to and including the target
    acting) is projected onto the arm; couplings at the target slice
    commute with the projection and cannot change the result.
    """
    layout = experiment.layout
    if not 0 <= slice_index < layout.n_slices:
        raise ValueError(f"invalid slice index {slice_index}")
    if arm not in layout.slices[slice_index]:
        raise ValueError(f"arm {arm!r} is not on slice {slice_index}")
    terms = _evolve_terms(experiment, slice_index)
    entries = [
        (shifts, amp) for (a, shifts), amp in terms.items() if a == arm
    ]
    return _pair_sum(entries, experiment.meters).real
