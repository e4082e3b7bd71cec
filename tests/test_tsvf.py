"""Forward/backward states, weak values, sequential chains on the preset.

The reference here is a four-line matrix chase over the preset's stage
matrices written out by hand, independent of the network module's block
assembly.
"""

import math

import numpy as np
import pytest

from tsvfsim import network, tsvf
from tsvfsim.network import PathState, nested_mzi_preset, parse_network
from tsvfsim.tsvf import (
    ArmProjector,
    DegeneratePostselection,
    ProjectorChain,
    TwoStateSweep,
    backward_state,
    forward_state,
    postselection_amplitude,
    sequential_weak_value,
    weak_value,
)

R = math.sqrt(0.5)

HAND = [
    np.array([[R], [1j * R]]),
    np.array([[1, 0], [0, R], [0, 1j * R]]),
    np.array([[1, 0, 0], [0, R, 1j * R], [0, 1j * R, R]]),
    np.array([[R, 1j * R, 0], [1j * R, R, 0], [0, 0, 1]]),
]

T1, T2 = 2, 3


def hand_forward(k: int) -> np.ndarray:
    v = np.array([1.0 + 0j])
    for u in HAND[:k]:
        v = u @ v
    return v


def hand_backward(port_index: int, k: int) -> np.ndarray:
    c = np.zeros(3, dtype=complex)
    c[port_index] = 1.0
    for u in reversed(HAND[k:]):
        c = u.T @ c
    return c


def hand_sequential(port_index: int, steps) -> complex:
    k0 = steps[0][1]
    v = hand_forward(k0)
    pos = k0
    for arm_index, k in steps:
        while pos < k:
            v = HAND[pos] @ v
            pos += 1
        keep = np.zeros_like(v)
        keep[arm_index] = v[arm_index]
        v = keep
    amp = hand_backward(port_index, pos) @ v
    return amp / (hand_backward(port_index, 0) @ hand_forward(0))


@pytest.fixture
def preset():
    return nested_mzi_preset()


def test_forward_state_matches_hand_chase(preset):
    for k in range(preset.n_slices):
        state = forward_state(preset, k)
        np.testing.assert_allclose(
            np.array(state.amplitudes), hand_forward(k), atol=1e-15
        )


def test_backward_state_matches_hand_chase(preset):
    # D2 is index 1 on the final slice
    for k in range(preset.n_slices):
        state = backward_state(preset, "D2", k)
        np.testing.assert_allclose(
            np.array(state.amplitudes), hand_backward(1, k), atol=1e-15
        )


def test_backward_uses_transpose_not_conjugate(preset):
    # the N component at t1 is i/sqrt(2); a conjugated evolution would
    # flip its sign
    state = backward_state(preset, "D2", T1)
    assert abs(state.amplitude("N") - 1j * R) < 1e-15


def test_frozen_forward_amplitudes(preset):
    t1 = forward_state(preset, T1)
    assert abs(t1.amplitude("N") - R) < 1e-15
    assert abs(t1.amplitude("B") - 0.5j) < 1e-15
    assert abs(t1.amplitude("C") + 0.5) < 1e-15
    t2 = forward_state(preset, T2)
    assert t2.amplitude("E") == 0.0
    assert abs(t2.amplitude("F") + R) < 1e-15


def test_frozen_backward_components(preset):
    t1 = backward_state(preset, "D2", T1)
    assert abs(t1.amplitude("B") - 0.5) < 1e-15
    assert abs(t1.amplitude("C") - 0.5j) < 1e-15
    t2 = backward_state(preset, "D2", T2)
    assert abs(t2.amplitude("E") - R) < 1e-15
    assert t2.amplitude("F") == 0.0


def test_postselection_amplitude_and_port_probabilities(preset):
    amp = postselection_amplitude(preset, "D2")
    assert abs(amp - 0.5j) < 1e-15
    probs = {p: abs(postselection_amplitude(preset, p)) ** 2 for p in preset.ports}
    assert abs(probs["D1"] - 0.25) < 1e-14
    assert abs(probs["D2"] - 0.25) < 1e-14
    assert abs(probs["D3"] - 0.5) < 1e-14


def test_contraction_is_slice_invariant(preset):
    # postselection_amplitude itself asserts the spread internally; check
    # the invariance explicitly as well
    values = []
    for k in range(preset.n_slices):
        f = forward_state(preset, k)
        b = backward_state(preset, "D2", k)
        values.append(sum(
            b.amplitude(a) * f.amplitude(a) for a in preset.slices[k]
        ))
    assert max(abs(v - values[0]) for v in values) < 1e-14


def test_sweep_refuses_a_contraction_that_drifts(monkeypatch, preset):
    # the forward pass takes the first final_slice stage matrices; the
    # backward pass gets each one times a phase, so bra . ket turns slice by slice
    calls = []

    def drifting(layout, k):
        calls.append(k)
        u = network.stage_unitary(layout, k)
        return u if len(calls) <= layout.final_slice else np.exp(0.1j) * u

    monkeypatch.setattr(tsvf, "stage_unitary", drifting)
    with pytest.raises(RuntimeError, match="two-state contraction drifts across slices"):
        TwoStateSweep.build(preset, "D2")


def test_weak_values_frozen(preset):
    def wv(arm, k):
        return weak_value(preset, "D2", ArmProjector(arm, k)).value

    assert abs(wv("B", T1) - 0.5) < 1e-12
    assert abs(wv("C", T1) + 0.5) < 1e-12
    assert abs(wv("N", T1) - 1.0) < 1e-12
    assert wv("D", 1) == 0.0
    assert wv("E", T2) == 0.0
    assert abs(wv("N", T2) - 1.0) < 1e-12
    assert abs(wv("F", T2)) < 1e-12


def test_weak_value_result_fields(preset):
    res = weak_value(preset, "D2", ArmProjector("B", T1))
    assert abs(res.postselection_amplitude - 0.5j) < 1e-15
    assert abs(res.numerator - res.value * res.postselection_amplitude) < 1e-15


def test_weak_values_sum_to_one_on_every_slice(preset):
    for port in preset.ports:
        sweep = TwoStateSweep.build(preset, port)
        for k in range(preset.n_slices):
            values = [weak_value(preset, port, ArmProjector(a, k)).value
                      for a in preset.slices[k]]
            assert abs(sum(values) - 1.0) < 1e-12, (port, k)
            assert sweep.weak_values(k) == values  # the same arithmetic, bit for bit


def test_weak_value_matches_hand_ratio(preset):
    arm_order = {("N", 0), ("B", 1), ("C", 2)}
    f = hand_forward(T1)
    b = hand_backward(1, T1)
    amp = hand_backward(1, 0) @ hand_forward(0)
    for arm, i in arm_order:
        expected = b[i] * f[i] / amp
        got = weak_value(preset, "D2", ArmProjector(arm, T1)).value
        assert abs(got - expected) < 1e-14


def test_sequential_frozen_values(preset):
    def seq(*steps):
        return sequential_weak_value(preset, "D2", ProjectorChain.of(*steps)).value

    assert abs(seq(("B", T1), ("E", T2)) - 0.5) < 1e-12
    assert abs(seq(("C", T1), ("E", T2)) + 0.5) < 1e-12
    assert abs(seq(("N", T1), ("E", T2))) < 1e-12


def test_sequential_matches_hand_chase(preset):
    arm_index = {("N", T1): 0, ("B", T1): 1, ("C", T1): 2,
                 ("N", T2): 0, ("E", T2): 1, ("F", T2): 2,
                 ("D", 1): 1}
    cases = [
        [("B", T1), ("E", T2)],
        [("C", T1), ("F", T2)],
        [("D", 1), ("B", T1), ("E", T2)],
        [("D", 1), ("C", T1), ("F", T2)],
    ]
    for steps in cases:
        got = sequential_weak_value(
            preset, "D2", ProjectorChain.of(*steps)
        ).value
        expected = hand_sequential(1, [(arm_index[s], s[1]) for s in steps])
        assert abs(got - expected) < 1e-14, steps


def test_sequential_marginal_sum_rules(preset):
    def seq(*steps):
        return sequential_weak_value(preset, "D2", ProjectorChain.of(*steps)).value

    def wv(arm, k):
        return weak_value(preset, "D2", ArmProjector(arm, k)).value

    # summing the first slot over a complete slice leaves the second
    over_first = sum(seq((a, T1), ("E", T2)) for a in preset.slices[T1])
    assert abs(over_first - wv("E", T2)) < 1e-12
    # and vice versa
    over_second = sum(seq(("B", T1), (a, T2)) for a in preset.slices[T2])
    assert abs(over_second - wv("B", T1)) < 1e-12


def test_single_step_chain_equals_weak_value(preset):
    single = sequential_weak_value(
        preset, "D2", ProjectorChain.of(("C", T1))
    ).value
    assert abs(single - weak_value(preset, "D2", ArmProjector("C", T1)).value) < 1e-14


def test_repeated_projector_collapses(preset):
    chain = ProjectorChain.of(("B", T1), ("B", T1))
    assert len(chain.projectors) == 1
    value = sequential_weak_value(preset, "D2", chain).value
    assert abs(value - 0.5) < 1e-12


def test_split_amplitudes_on_the_preset(preset):
    sweep = TwoStateSweep.build(preset, "D2")
    # E is dark without the meter: what crossed B cancels what missed it
    missed, crossed = sweep.split_amplitudes("B", T1, "E", T2)
    assert missed == -crossed and abs(crossed) ** 2 == pytest.approx(0.125, abs=1e-15)
    # at the meter's own slice its arm is all crossed, the others all missed
    assert sweep.split_amplitudes("B", T1, "B", T1) == (0j, sweep.kets[T1][1])
    assert sweep.split_amplitudes("B", T1, "C", T1) == (sweep.kets[T1][2], 0j)
    # before the meter nothing has crossed it
    assert sweep.split_amplitudes("E", T2, "B", T1) == (sweep.kets[T1][1], 0j)
    with pytest.raises(ValueError):
        sweep.split_amplitudes("Z", T1, "E", T2)


def test_chain_rejects_non_increasing_slices():
    with pytest.raises(ValueError, match="orthogonal"):
        ProjectorChain.of(("B", 2), ("C", 2))
    with pytest.raises(ValueError):
        ProjectorChain.of(("E", 3), ("B", 2))


def test_chain_requires_at_least_one_projector():
    with pytest.raises(ValueError):
        ProjectorChain(())


def test_projector_validation(preset):
    with pytest.raises(ValueError):
        weak_value(preset, "D2", ArmProjector("Z", T1))
    with pytest.raises(ValueError):
        weak_value(preset, "D2", ArmProjector("B", 99))
    with pytest.raises(ValueError, match="port"):
        weak_value(preset, "D9", ArmProjector("B", T1))
    for k in (-1, preset.n_slices):  # a negative slice does not wrap
        with pytest.raises(ValueError, match="invalid slice index"):
            TwoStateSweep.build(preset, "D2").weak_values(k)


DARK_PORT_MZI = """
arm s
arm A
arm B
arm bright
arm dark
slice 0: s
slice 1: A, B
slice 2: dark, bright
source s
bs split stage=0 in=s out=A,B
bs merge stage=1 in=A,B out=dark,bright
detector PB=bright
detector PD=dark
"""


def test_degenerate_postselection_raises():
    layout = parse_network(DARK_PORT_MZI)
    with pytest.raises(DegeneratePostselection):
        weak_value(layout, "PD", ArmProjector("A", 1))
    with pytest.raises(DegeneratePostselection):
        sequential_weak_value(layout, "PD", ProjectorChain.of(("A", 1)))
    with pytest.raises(DegeneratePostselection):
        TwoStateSweep.build(layout, "PD").weak_values(1)
    # the bright port is fine
    assert abs(weak_value(layout, "PB", ArmProjector("A", 1)).value - 0.5) < 1e-12


def test_source_projector_weak_value_is_one(preset):
    value = weak_value(preset, "D2", ArmProjector("in", 0)).value
    assert abs(value - 1.0) < 1e-14


def test_costate_component_lookup(preset):
    state = backward_state(preset, "D2", T1)
    assert isinstance(state, PathState)
    with pytest.raises(ValueError):
        state.amplitude("nope")


def test_forward_state_is_path_state(preset):
    assert isinstance(forward_state(preset, T1), PathState)
