"""Two-state amplitudes and weak values of arm projectors.

A run of the interferometer is described by two vectors at once: the
forward state launched from the source and the backward state anchored on
the detector port that fired.  Their contraction is slice-independent and
equals the postselection amplitude; the (possibly sequential) weak value
of arm projectors is the corresponding projected contraction divided by
that amplitude.

:class:`TwoStateSweep` holds both vectors at every slice for one (layout,
port) pair, from one forward and one backward pass, O(slices * arms²), and
checks the slice-independence once.  A weak value then costs O(1); a chain
of n projectors on consecutive slices is a product of n + 1 scalars,
``bra[a_n] * U[a_n, a_n-1] * ... * ket[a_1]``, read from the stage matrices;
across a gap of slices the projected state is carried on by one stage-matrix
product per stage.  The same step splits a forward amplitude into the parts
that crossed and missed an earlier arm, the two terms of a meter's disturbance.
Stage matrices and arm positions are built once per layout object (see
:func:`~tsvfsim.network.stage_unitary`).  The module-level functions build a
sweep per call; callers reading many values build one and reuse it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .network import NetworkLayout, PathState, stage_unitary
from .network import propagate  # noqa: F401  (traced here by perfbench/spans.py)

__all__ = [
    "ArmProjector",
    "DegeneratePostselection",
    "POSTSELECTION_TOL",
    "ProjectorChain",
    "TwoStateSweep",
    "WeakValueResult",
    "backward_state",
    "forward_state",
    "postselection_amplitude",
    "sequential_weak_value",
    "weak_value",
]

POSTSELECTION_TOL = 1e-12
"""Bound on ``|<port|U|source>|``, an amplitude: weak values are undefined at
or below it.  On the postselection probability this is 1e-24."""


class DegeneratePostselection(ValueError):
    """The chosen port is (numerically) orthogonal to the launched state."""


@dataclass(frozen=True)
class ArmProjector:
    """Projector onto one arm at one slice."""

    arm: str
    slice_index: int


@dataclass(frozen=True)
class ProjectorChain:
    """Time-ordered product of arm projectors.

    Consecutive repeats of the same projector collapse on construction
    (projectors are idempotent); after that the slices must be strictly
    increasing, so two different arms cannot share a slice.
    """

    projectors: tuple[ArmProjector, ...]

    def __post_init__(self):
        if not self.projectors:
            raise ValueError("empty projector chain")
        reduced: list[ArmProjector] = []
        for proj in self.projectors:
            if not reduced or proj != reduced[-1]:
                reduced.append(proj)
        object.__setattr__(self, "projectors", tuple(reduced))
        slices = [p.slice_index for p in self.projectors]
        if any(b <= a for a, b in zip(slices, slices[1:])):
            raise ValueError(
                "projector chain slices must be strictly increasing "
                f"(got {slices}); same-slice distinct arms are orthogonal"
            )

    @classmethod
    def of(cls, *steps: tuple[str, int]) -> "ProjectorChain":
        return cls(tuple([ArmProjector(arm, s) for arm, s in steps]))


@dataclass(frozen=True)
class WeakValueResult:
    """A weak value together with the pieces it was built from."""

    value: complex
    numerator: complex
    postselection_amplitude: complex


def _forward_kets(layout: NetworkLayout) -> list[np.ndarray]:
    ket = np.zeros(len(layout.slices[0]), dtype=complex)
    ket[layout.arm_index(0, layout.source)] = 1.0
    kets = [ket]
    for k in range(layout.final_slice):
        kets.append(stage_unitary(layout, k) @ kets[-1])
    return kets


def _backward_bras(layout: NetworkLayout, port: str) -> list[np.ndarray]:
    bra = np.zeros(len(layout.slices[-1]), dtype=complex)
    bra[layout.arm_index(layout.final_slice, layout.port_arm(port))] = 1.0
    bras = [bra]
    for k in range(layout.final_slice - 1, -1, -1):
        bras.append(stage_unitary(layout, k).T @ bras[-1])
    return bras[::-1]


def forward_state(layout: NetworkLayout, slice_index: int) -> PathState:
    """Source amplitude 1 propagated forward to ``slice_index``."""
    return PathState(slice_index, layout.arms_at(slice_index),
                     _forward_kets(layout)[slice_index])


def backward_state(layout: NetworkLayout, port: str, slice_index: int) -> PathState:
    """Postselection bra for ``port`` pulled back to ``slice_index``.

    The amplitudes are bra coefficients, i.e. ``<f| U(final, t) |arm>``;
    pulling back one stage multiplies by the stage matrix from the left
    (plain transpose, no conjugation).
    """
    return PathState(slice_index, layout.arms_at(slice_index),
                     _backward_bras(layout, port)[slice_index])


@dataclass(frozen=True, eq=False)
class TwoStateSweep:
    """Forward kets and backward bras at every slice for one (layout, port).

    ``kets[k]`` and ``bras[k]`` are the amplitudes of :func:`forward_state`
    and :func:`backward_state` at slice ``k``;
    ``amplitude`` is their contraction, ``<port| U |source>``.
    """

    layout: NetworkLayout
    port: str
    kets: tuple[np.ndarray, ...]
    bras: tuple[np.ndarray, ...]
    amplitude: complex

    @classmethod
    def build(cls, layout: NetworkLayout, port: str) -> "TwoStateSweep":
        """One forward and one backward pass; asserts slice-independence."""
        kets = _forward_kets(layout)
        bras = _backward_bras(layout, port)
        values = [complex(bra @ ket) for ket, bra in zip(kets, bras)]
        spread = max(abs(v - values[0]) for v in values)
        if spread > 1e-12:
            raise RuntimeError(f"two-state contraction drifts across slices ({spread:.3e})")
        return cls(layout, port, tuple(kets), tuple(bras), values[0])

    def _checked_amplitude(self) -> complex:
        if abs(self.amplitude) <= POSTSELECTION_TOL:
            raise DegeneratePostselection(
                f"port {self.port!r} has postselection amplitude "
                f"{abs(self.amplitude):.3e}; weak values are undefined"
            )
        return self.amplitude

    def weak_value(self, projector: ArmProjector) -> WeakValueResult:
        """See :func:`weak_value`."""
        amp = self._checked_amplitude()
        k = projector.slice_index
        idx = self.layout.arm_index(k, projector.arm)
        numerator = self.bras[k].item(idx) * self.kets[k].item(idx)
        return WeakValueResult(numerator / amp, numerator, amp)

    def weak_values(self, k: int) -> list[complex]:
        """Weak values of the projectors onto each arm of slice ``k``, in its order, in
        Python complex scalars as in :meth:`weak_value` (numpy's array product rounds otherwise)."""
        amp = self._checked_amplitude()
        self.layout.arms_at(k)  # the slice-range check
        return [bra * ket / amp for bra, ket in zip(self.bras[k].tolist(), self.kets[k].tolist())]

    def sequential_weak_value(self, chain: ProjectorChain) -> WeakValueResult:
        """See :func:`sequential_weak_value`."""
        amp = self._checked_amplitude()
        (k, a), *rest = [(p.slice_index, self.layout.arm_index(p.slice_index, p.arm))
                         for p in chain.projectors]
        value = self.kets[k][a]
        for l, b in rest:  # right to left, the order in which the ket propagates
            value = self._step(value, k, a, l, b)
            k, a = l, b
        numerator = complex(self.bras[k][a] * value)
        return WeakValueResult(numerator / amp, numerator, amp)

    def split_amplitudes(self, arm: str, k: int, probe_arm: str, l: int) -> tuple[complex, complex]:
        """Forward amplitude on ``probe_arm`` at slice ``l`` as ``(missed, crossed)``: the
        parts that missed and crossed ``arm`` at slice ``k`` (none has crossed if ``l < k``)."""
        b = self.layout.arm_index(l, probe_arm)
        a = self.layout.arm_index(k, arm)
        crossed = complex(self._step(self.kets[k][a], k, a, l, b)) if l >= k else 0j
        return complex(self.kets[l][b]) - crossed, crossed

    def _step(self, value: complex, k: int, a: int, l: int, b: int) -> complex:
        """Amplitude at arm index ``b`` of slice ``l >= k`` of ``value`` at ``a`` of slice ``k``."""
        if l == k + 1:
            return stage_unitary(self.layout, k)[b, a] * value
        vec = np.zeros(len(self.kets[k]), dtype=complex)  # carry it on stage by stage
        vec[a] = value
        for j in range(k, l):
            vec = stage_unitary(self.layout, j) @ vec
        return vec[b]


def postselection_amplitude(layout: NetworkLayout, port: str) -> complex:
    """Amplitude ``<port| U |source>``; asserts slice-independence."""
    return TwoStateSweep.build(layout, port).amplitude


def weak_value(layout: NetworkLayout, port: str, projector: ArmProjector) -> WeakValueResult:
    """Weak value of an arm projector between source and postselected port.

    Parameters
    ----------
    layout : NetworkLayout
    port : str
        Detector port fixing the backward state.
    projector : ArmProjector
        Arm and slice of the projector.

    Returns
    -------
    WeakValueResult
        ``value = <phi|P|psi> / <phi|psi>`` with the numerator and the
        postselection amplitude attached.

    Raises
    ------
    DegeneratePostselection
        If ``|<phi|psi>| <= POSTSELECTION_TOL``.
    """
    return TwoStateSweep.build(layout, port).weak_value(projector)


def sequential_weak_value(
    layout: NetworkLayout, port: str, chain: ProjectorChain
) -> WeakValueResult:
    """Weak value of a time-ordered projector product.

    The forward state is projected at the first chain slice, propagated to
    the next, projected again, and so on; the result is contracted with
    the backward state at the last chain slice and divided by the
    postselection amplitude.  A single-projector chain reduces to
    :func:`weak_value`.
    """
    return TwoStateSweep.build(layout, port).sequential_weak_value(chain)
