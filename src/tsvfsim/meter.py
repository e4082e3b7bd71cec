"""Gaussian pointer meters coupled impulsively to arm occupation.

Each meter is a one-dimensional Gaussian pointer of width ``sigma``
(position variance ``sigma**2``, momentum variance ``1/(4 sigma**2)``)
attached to one arm at one slice.  The coupling displaces the pointer
position by the strength ``g`` exactly when the particle occupies the arm,
so after the full evolution the joint state is a finite sum of terms
``amplitude * |arm> * product_j |pointer_j shifted by s_j>`` with every
``s_j`` either 0 or ``g_j``.  It is held as a dense complex register of
shape ``(arms, 2, ..., 2)``, one axis per meter, index 1 meaning that meter
has fired: O(arms * 2^m) memory for m meters, capped by
``MAX_REGISTER_ENTRIES``.  Every pointer moment is one contraction
``A^H (O_0 x ... x O_{m-1}) A / P`` of a postselected register row with
the 2x2 closed-form Gaussian elements between shifts 0 and ``g_j``,
O(m * 2^m) per moment.

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
    "JointState",
    "MAX_REGISTER_ENTRIES",
    "MAX_SIGMA",
    "MAX_STRENGTH",
    "MIN_COUPLING_PRODUCT",
    "MIN_SIGMA",
    "MeterAttachment",
    "PointerMixture",
    "QUADRATURE_PAIRS",
    "RegisterTooLarge",
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
    "zeta_from_correlators",
]

ZERO_PROBABILITY_TOL = 1e-300
"""Bound on the postselection probability, a squared norm summed over
pointer terms: :func:`postselect` raises :class:`ZeroProbability` below it.
Unlike ``tsvf.POSTSELECTION_TOL`` (1e-12 on an amplitude, 1e-24 on a
probability) it only guards the division by zero."""


class ZeroProbability(ValueError):
    """Postselection probability is numerically zero."""


MAX_REGISTER_ENTRIES = 1 << 22
"""Largest joint register, ``arms * 2**meters`` complex entries (64 MiB);
a bigger one raises :class:`RegisterTooLarge` before it is allocated."""


class RegisterTooLarge(ValueError):
    """The joint register would hold more than ``MAX_REGISTER_ENTRIES``."""


MIN_SIGMA, MAX_SIGMA = 1e-50, 1e50
MAX_STRENGTH = 1e50
"""Bounds on a pointer width and a coupling strength: inside them sigma**4,
(g/sigma)**2 and every matrix element stay within the float range."""

MIN_COUPLING_PRODUCT = float(np.finfo(float).smallest_normal)
"""Least coupling product g_i g_j an estimate divides by; a smaller one is subnormal or 0."""


QUADRATURE_PAIRS = (("x", "x"), ("p", "p"), ("x", "p"), ("p", "x"))
"""Quadrature pairs (first meter, second meter) of a two-meter readout, in order."""


def zeta_from_correlators(xx: float, pp: float, xp: float, px: float,
                          sigma_i: float, sigma_j: float) -> complex:
    """``<zeta_i zeta_j>`` from the ``QUADRATURE_PAIRS`` correlators (meter i first) and widths."""
    si2, sj2 = sigma_i * sigma_i, sigma_j * sigma_j
    return complex(xx - 4.0 * si2 * sj2 * pp, 2.0 * sj2 * xp + 2.0 * si2 * px)


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
class MeterAttachment:
    """One meter: its arm and slice, a strength (0 to MAX_STRENGTH) and the
    width sigma (MIN_SIGMA to MAX_SIGMA) of its zero-centred Gaussian pointer."""

    meter_id: int
    arm: str
    slice_index: int
    strength: float
    sigma: float

    def __post_init__(self):
        if not MIN_SIGMA <= self.sigma <= MAX_SIGMA:
            raise ValueError(f"pointer width sigma must be finite, in [{MIN_SIGMA:g}, "
                             f"{MAX_SIGMA:g}]")
        if not 0.0 <= self.strength <= MAX_STRENGTH:
            raise ValueError(f"coupling strength must be finite and >= 0, at most {MAX_STRENGTH:g}")


@dataclass(frozen=True)
class Experiment:
    """A layout plus an ordered set of meter attachments."""

    layout: NetworkLayout
    meters: tuple[MeterAttachment, ...] = ()


def new_experiment(layout: NetworkLayout) -> Experiment:
    return Experiment(layout, ())


def attach_meter(
    experiment: Experiment, arm: str, slice_index: int, strength: float, sigma: float
) -> Experiment:
    """Return a new experiment with one more meter on (arm, slice).

    The coupling strength may be zero (the meter then records nothing).  A
    strength outside [0, MAX_STRENGTH], a width outside [MIN_SIGMA,
    MAX_SIGMA] and an arm that is not on the given slice are rejected.
    """
    experiment.layout.arm_index(slice_index, arm)
    meter = MeterAttachment(len(experiment.meters), arm, slice_index, float(strength),
                            float(sigma))
    return Experiment(experiment.layout, experiment.meters + (meter,))


def _meter_index(meters: tuple[MeterAttachment, ...], meter_id: int) -> int:
    for j, m in enumerate(meters):
        if m.meter_id == meter_id:
            return j
    raise ValueError(f"no meter with id {meter_id}")


def _nonzero(register: np.ndarray, meters: tuple[MeterAttachment, ...]):
    """Leading index, pointer shifts (one column per meter, 0.0 or the
    strength) and amplitude of every nonzero register entry, in C order."""
    m = len(meters)
    flat = register.ravel()
    pos = np.flatnonzero(flat)
    fired = pos[:, None] >> np.arange(m - 1, -1, -1) & 1
    return pos >> m, fired * np.array([mt.strength for mt in meters]), flat[pos]


def _element_matrix(element, meter: MeterAttachment) -> np.ndarray:
    """``<phi_a|O|phi_b>`` for bra shift a and ket shift b in (0, g)."""
    g = (0.0, meter.strength)
    return np.array([[element(a, b, meter.sigma) for b in g] for a in g], dtype=complex)


def _moment(register: np.ndarray, ops: list[np.ndarray]) -> complex:
    """``A^H (1 x O_0 x ... x O_{m-1}) A`` over the trailing meter axes of A."""
    v = register
    for j, op in enumerate(ops):
        v = np.matmul(op, v.reshape(-1, 2, 2 ** (len(ops) - j - 1)))
    return complex(np.vdot(register, v))


def _overlaps(meters: tuple[MeterAttachment, ...]) -> list[np.ndarray]:
    return [_element_matrix(gaussian_overlap, meter) for meter in meters]


@dataclass(frozen=True, eq=False)
class JointState:
    """Dense register of particle plus pointers.

    ``register`` has shape ``(arms, 2, ..., 2)``: axis 0 is the arm on
    the layout's final slice, then one axis per meter, where index 1 means
    that meter has fired (its pointer is displaced by the strength) and
    index 0 that it has not.  ``terms`` lists the nonzero entries as
    ``(arm, shifts) -> amplitude`` with each shift 0.0 or the meter's
    strength.
    """

    experiment: Experiment
    register: np.ndarray

    @property
    def terms(self) -> dict[tuple[str, tuple[float, ...]], complex]:
        layout = self.experiment.layout
        arms = layout.slices[layout.final_slice]
        rows, shifts, amps = _nonzero(self.register, self.experiment.meters)
        return {(arms[i], tuple(s)): a
                for i, s, a in zip(rows.tolist(), shifts.tolist(), amps.tolist())}

    def norm(self) -> float:
        return math.sqrt(max(_moment(self.register, _overlaps(self.experiment.meters)).real, 0.0))


def _evolve(experiment: Experiment, to_slice: int) -> np.ndarray:
    """Register after the stages and couplings up to ``to_slice``.  Stages
    accumulate ``u[row, col] * register[col]`` over the nonzero ``u[row,
    col]`` in column order, so amplitudes that cancel on paper are 0.0."""
    layout = experiment.layout
    meters = experiment.meters
    m = len(meters)
    size = max(len(arms) for arms in layout.slices) * 2 ** m
    if size > MAX_REGISTER_ENTRIES:
        raise RegisterTooLarge(f"{m} meters need a register of {size} entries "
                               f"(limit {MAX_REGISTER_ENTRIES})")
    reg = np.zeros((len(layout.slices[0]),) + (2,) * m, dtype=complex)
    reg[(layout.arm_index(0, layout.source),) + (0,) * m] = 1.0
    for k in range(to_slice + 1):
        if k:
            u = stage_unitary(layout, k - 1)
            out = np.zeros((u.shape[0],) + reg.shape[1:], dtype=complex)
            for col, row in zip(*np.nonzero(u.T)):
                out[row] += u[row, col] * reg[col]
            reg = out
        for j, meter in enumerate(meters):
            if meter.slice_index != k or meter.strength == 0.0:
                continue
            axis = np.moveaxis(reg[layout.arm_index(k, meter.arm)], j, 0)
            axis[1] = axis[0]
            axis[0] = 0.0
    return reg


def run_coupled(experiment: Experiment) -> JointState:
    """Evolve source + pointers through all stages and couplings.

    Couplings fire when the particle arrives at a meter's slice (before
    the next stage acts); each moves the amplitude on the metered arm from
    index 0 to index 1 of the meter's axis.  The returned state lives on
    the final slice, holds ``arms * 2**meters`` entries (more than
    ``MAX_REGISTER_ENTRIES`` raise :class:`RegisterTooLarge`), and has unit
    norm.
    """
    return JointState(experiment, _evolve(experiment, experiment.layout.final_slice))


@dataclass(frozen=True, eq=False)
class PointerMixture:
    """Pointer-only state conditioned on one detector port.

    Postselecting a port leaves the (pure, unnormalised) pointer state
    ``sum_s A_s prod_j |phi_{s_j}>``, held as the register row of the
    port's arm, shape ``(2,) * meters``.  ``amplitudes`` maps the shift
    vector of every nonzero entry to ``A_s``.
    """

    meters: tuple[MeterAttachment, ...]
    register: np.ndarray
    postselection_probability: float

    def entries(self) -> tuple[np.ndarray, np.ndarray]:
        """Shift rows ``(T, meters)`` and amplitudes ``(T,)`` of the nonzero
        terms, in the register's C order."""
        _, shifts, amps = _nonzero(self.register, self.meters)
        return shifts, amps

    @property
    def amplitudes(self) -> dict[tuple[float, ...], complex]:
        shifts, amps = self.entries()
        return dict(zip(map(tuple, shifts.tolist()), amps.tolist()))

    def meter(self, meter_id: int) -> MeterAttachment:
        return self.meters[_meter_index(self.meters, meter_id)]


def postselect(joint: JointState, port: str) -> PointerMixture:
    """Condition the joint state on a detector port firing.

    Raises
    ------
    ZeroProbability
        If the postselection probability falls below 1e-300.
    """
    layout, meters = joint.experiment.layout, joint.experiment.meters
    row = joint.register[layout.arm_index(layout.final_slice, layout.port_arm(port))]
    prob = _moment(row, _overlaps(meters)).real
    if prob < ZERO_PROBABILITY_TOL:
        raise ZeroProbability(
            f"port {port!r} fires with probability {prob:.3e}"
        )
    return PointerMixture(meters, row, prob)


# ----------------------------------------------------------------------
# Moments of the post-selected pointer state

_ELEMENTS = {
    "1": gaussian_overlap,
    "x": gaussian_x_element,
    "p": gaussian_p_element,
    "xx": gaussian_x2_element,
    "pp": gaussian_p2_element,
}


def _expectation(mixture: PointerMixture, ops: dict[int, str], what: str) -> float:
    """Real <prod_j O_j> over the mixture, O_j given per meter list index."""
    mats = [
        _element_matrix(_ELEMENTS[ops.get(j, "1")], meter)
        for j, meter in enumerate(mixture.meters)
    ]
    register, prob = mixture.register, mixture.postselection_probability
    value = _moment(register, mats) / prob
    if abs(value.imag) > 1e-10:
        # rounding leaves an imaginary part in proportion to the largest
        # value the contraction can reach, so a wide pointer is held to that
        reach = math.prod(float(np.abs(mat).max()) for mat in mats)
        if abs(value.imag) > 1e-10 * reach * np.vdot(register, register).real / prob:
            raise RuntimeError(f"{what} came out complex ({value:.3e})")
    return value.real


def pointer_mean(mixture: PointerMixture, meter_id: int, quadrature: str) -> float:
    """<x> or <p> of one pointer, conditioned on the postselection."""
    if quadrature not in ("x", "p"):
        raise ValueError("quadrature must be 'x' or 'p'")
    j = _meter_index(mixture.meters, meter_id)
    return _expectation(mixture, {j: quadrature}, "pointer mean")


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
    ji = _meter_index(mixture.meters, i)
    jj = _meter_index(mixture.meters, j)
    if ji == jj:
        if qi != qj:
            raise ValueError(
                "mixed x/p moments of a single meter are not jointly measurable"
            )
        return _expectation(mixture, {ji: qi + qi}, "correlator")
    return _expectation(mixture, {ji: qi, jj: qj}, "correlator")


def zeta_corr(mixture: PointerMixture, i: int, j: int) -> complex:
    """Two-meter complex readout correlator.

    With ``zeta = x + 2 i sigma^2 p`` per meter, returns ``<zeta_i zeta_j>``
    assembled from the four jointly measurable correlators of ``QUADRATURE_PAIRS``.
    """
    if i == j:
        raise ValueError("the readout correlator needs two distinct meters")
    xx, pp, xp, px = (pointer_corr(mixture, (i, qa), (j, qb)) for qa, qb in QUADRATURE_PAIRS)
    return zeta_from_correlators(xx, pp, xp, px, mixture.meter(i).sigma, mixture.meter(j).sigma)


def zeta_corr_direct(mixture: PointerMixture, i: int, j: int) -> complex:
    """Same correlator evaluated through the annihilation property.

    ``zeta`` maps a pointer displaced by s to s times itself, so on the
    two meters' axes it acts as ``diag(0, g)`` on the ket side, next to
    the overlap matrix that every axis carries.  Kept separate from
    :func:`zeta_corr` as an independent route for cross-checks.
    """
    if i == j:
        raise ValueError("the readout correlator needs two distinct meters")
    ops = _overlaps(mixture.meters)
    for k in (_meter_index(mixture.meters, i), _meter_index(mixture.meters, j)):
        ops[k] = ops[k] * [0.0, mixture.meters[k].strength]
    return _moment(mixture.register, ops) / mixture.postselection_probability


def estimate_weak_value(mixture: PointerMixture, meter_id: int) -> complex:
    """Single-meter weak-value estimate ``(<x> + 2 i sigma^2 <p>) / g``.

    Converges to the arm projector's weak value as the coupling strength
    goes to zero, with an error of second order in the strength.
    """
    meter = mixture.meter(meter_id)
    if meter.strength < MIN_COUPLING_PRODUCT:
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
    g = mixture.meter(i).strength * mixture.meter(j).strength
    if g < MIN_COUPLING_PRODUCT:
        raise ValueError("cannot estimate a weak value from a zero-strength meter")
    return zeta_corr(mixture, i, j) / g


def arm_probability(experiment: Experiment, arm: str, slice_index: int) -> float:
    """Probability that a projective arm detection at a slice would fire.

    The coupled state (all meters at slices up to and including the target
    acting) is projected onto the arm; couplings at the target slice
    commute with the projection and cannot change the result.
    """
    row = experiment.layout.arm_index(slice_index, arm)
    reg = _evolve(experiment, slice_index)
    return _moment(reg[row], _overlaps(experiment.meters)).real
