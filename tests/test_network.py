"""Network layout construction, validation, text format round-trips."""

import json
import math
from pathlib import Path

import numpy as np
import pytest
from layouts import random_layout

from tsvfsim.meter import (
    Experiment,
    MeterAttachment,
    arm_probability,
    attach_meter,
    new_experiment,
)
from tsvfsim.network import (
    BALANCED_ANGLE,
    ComponentSpec,
    NetworkLayout,
    NetworkParseError,
    PathState,
    Stage,
    beamsplitter,
    mirror,
    nested_mzi_preset,
    parse_network,
    phase_plate,
    propagate,
    serialize_network,
    stage_unitary,
    validate_network,
)
from tsvfsim.oracle import grid_run
from tsvfsim.tsvf import (
    ArmProjector,
    ProjectorChain,
    backward_state,
    forward_state,
    sequential_weak_value,
    weak_value,
)

R = math.sqrt(0.5)

# Stage matrices of the preset, assembled by hand from the wiring diagram.
HAND_UNITARIES = [
    np.array([[R], [1j * R]]),
    np.array([[1, 0], [0, R], [0, 1j * R]]),
    np.array([[1, 0, 0], [0, R, 1j * R], [0, 1j * R, R]]),
    np.array([[R, 1j * R, 0], [1j * R, R, 0], [0, 0, 1]]),
]


@pytest.fixture
def preset():
    return nested_mzi_preset()


def test_preset_is_valid(preset):
    assert validate_network(preset) == []


def test_preset_slice_structure(preset):
    assert preset.slices == (
        ("in",),
        ("N", "D"),
        ("N", "B", "C"),
        ("N", "E", "F"),
        ("D1", "D2", "D3"),
    )
    assert preset.source == "in"
    assert preset.ports == ("D1", "D2", "D3")
    assert preset.port_arm("D3") == "D3"


def test_preset_stage_matrices_match_hand_assembly(preset):
    for k, expected in enumerate(HAND_UNITARIES):
        got = stage_unitary(preset, k)
        assert got.shape == expected.shape
        np.testing.assert_allclose(got, expected, atol=1e-15)


def test_stage_matrix_is_built_once_per_layout_and_read_only(preset):
    first = stage_unitary(preset, 2)
    assert stage_unitary(preset, 2) is first
    assert not first.flags.writeable
    with pytest.raises(ValueError):
        first[0, 0] = 0.0
    assert stage_unitary(nested_mzi_preset(), 2) is not first


def test_stage_unitary_rejects_bad_index(preset):
    with pytest.raises(ValueError, match="invalid stage index"):
        stage_unitary(preset, 4)
    with pytest.raises(ValueError, match="invalid stage index"):
        stage_unitary(preset, -1)


def test_forward_propagation_frozen_amplitudes(preset):
    state = PathState(0, preset.slices[0], (1.0 + 0j,))
    mid = propagate(state, preset, 2)
    assert abs(mid.amplitude("N") - R) < 1e-15
    assert abs(mid.amplitude("B") - 0.5j) < 1e-15
    assert abs(mid.amplitude("C") + 0.5) < 1e-15
    out = propagate(mid, preset, 4)
    probs = {arm: abs(out.amplitude(arm)) ** 2 for arm in preset.slices[4]}
    assert abs(probs["D1"] - 0.25) < 1e-14
    assert abs(probs["D2"] - 0.25) < 1e-14
    assert abs(probs["D3"] - 0.5) < 1e-14
    assert abs(sum(probs.values()) - 1.0) < 1e-14
    assert np.linalg.norm(mid.amplitudes) == pytest.approx(1.0, abs=1e-15)


def test_dark_port_cancels_exactly(preset):
    # balanced-angle coefficients are forced bitwise equal, so the inner
    # interferometer's dark output holds amplitude 0.0, not ~1e-16
    state = PathState(0, preset.slices[0], (1.0 + 0j,))
    assert propagate(state, preset, 3).amplitude("E") == 0.0


def test_propagate_rejects_mismatched_state(preset):
    state = PathState(1, ("N", "X"), (1.0, 0.0))
    with pytest.raises(ValueError):
        propagate(state, preset, 2)


def test_propagate_is_forward_only(preset):
    state = PathState(2, preset.slices[2], (1.0, 0.0, 0.0))
    with pytest.raises(ValueError):
        propagate(state, preset, 1)


# arm@slice references that are not on the preset: a slice past the last
# one, a negative slice (which must not wrap to the end), an arm on no slice.
BAD_REFERENCES = {"slice_past_end": ("N", 5), "negative_slice": ("N", -1),
                  "unknown_arm": ("Z", 2)}


def _metered(layout, arm, k):
    # built without attach_meter, so only the grid evolution checks the arm
    return Experiment(layout, (MeterAttachment(0, arm, k, 0.1, 1.0),))


# Each entry point called with the reference (arm, k); the last three take a
# slice only and get the two slice cases.
REFERENCE_LOOKUPS = {
    "attach_meter": lambda L, arm, k: attach_meter(new_experiment(L), arm, k, 0.1, 1.0),
    "arm_probability": lambda L, arm, k: arm_probability(new_experiment(L), arm, k),
    "weak_value": lambda L, arm, k: weak_value(L, "D2", ArmProjector(arm, k)),
    "sequential_weak_value": lambda L, arm, k: sequential_weak_value(
        L, "D2", ProjectorChain.of((arm, k))),
    "propagate": lambda L, arm, k: propagate(PathState(k, (arm,), (1.0 + 0j,)), L, 4),
    "grid_run": lambda L, arm, k: grid_run(_metered(L, arm, k), to_slice=k),
    "forward_state": lambda L, arm, k: forward_state(L, k),
    "backward_state": lambda L, arm, k: backward_state(L, "D2", k),
    "propagate_to": lambda L, arm, k: propagate(PathState(0, ("in",), (1.0 + 0j,)), L, k),
}
SLICE_ONLY = ("forward_state", "backward_state", "propagate_to")


@pytest.mark.parametrize("lookup,reference", [
    pytest.param(lookup, ref, id=f"{name}-{case}")
    for name, lookup in REFERENCE_LOOKUPS.items()
    for case, ref in BAD_REFERENCES.items()
    if not (name in SLICE_ONLY and case == "unknown_arm")
])
def test_bad_reference_raises_value_error(lookup, reference, preset):
    arm, k = reference
    with pytest.raises(ValueError, match=r"invalid slice index|is not on slice|do not match"):
        lookup(preset, arm, k)


def test_unknown_arm_on_a_state_names_arm_and_slice(preset):
    with pytest.raises(ValueError, match=r"^arm 'Z' is not on slice 2$"):
        forward_state(preset, 2).amplitude("Z")
    with pytest.raises(ValueError, match=r"^arm 'Z' is not on slice 2$"):
        backward_state(preset, "D2", 2).amplitude("Z")


def test_beamsplitter_block_convention():
    theta, phi = 0.3, 1.1
    block = beamsplitter("b", ("a", "b"), ("c", "d"), theta, phi).block()
    c, s = math.cos(theta), math.sin(theta)
    expected = np.exp(1j * phi) * np.array([[c, 1j * s], [1j * s, c]])
    np.testing.assert_allclose(block, expected, atol=1e-15)


def test_single_input_beamsplitter_is_isometry_column():
    block = beamsplitter("b", ("a",), ("c", "d")).block()
    assert block.shape == (2, 1)
    np.testing.assert_allclose(block[:, 0], [R, 1j * R], atol=1e-15)


def test_balanced_angle_coefficients_bitwise_equal():
    block = beamsplitter("b", ("a", "b"), ("c", "d"), BALANCED_ANGLE).block()
    assert block[0, 0].real == block[0, 1].imag == math.sqrt(0.5)


def test_mirror_and_phase_blocks():
    np.testing.assert_array_equal(mirror("m", "a", "b").block(), [[1.0 + 0j]])
    block = phase_plate("a", math.pi / 3).block()
    assert abs(block[0, 0] - np.exp(1j * math.pi / 3)) < 1e-15


def test_component_spec_validation():
    with pytest.raises(ValueError, match="unknown component kind"):
        ComponentSpec("prism", ("a",), ("b",))
    with pytest.raises(ValueError, match="beamsplitter needs"):
        ComponentSpec("beamsplitter", ("a", "b", "c"), ("d", "e"))
    with pytest.raises(ValueError, match="exactly 1 input"):
        ComponentSpec("mirror", ("a", "b"), ("c",))
    with pytest.raises(ValueError, match="input == output"):
        ComponentSpec("phase", ("a",), ("b",))
    # a non-finite angle or phase would build a layout that weak_value and
    # postselect turn into nan, or that validate_network fails on
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="theta and phase must be finite"):
            ComponentSpec("beamsplitter", ("a",), ("b", "c"), theta=bad)
        with pytest.raises(ValueError, match="theta and phase must be finite"):
            ComponentSpec("beamsplitter", ("a", "b"), ("c", "d"), phase=bad)
        with pytest.raises(ValueError, match="theta and phase must be finite"):
            phase_plate("a", bad)


def _tiny_layout(stages):
    return NetworkLayout(
        slices=(("a", "b"), ("c", "d")),
        stages=stages,
        source="a",
        detector_ports=(("P1", "c"), ("P2", "d")),
    )


@pytest.mark.parametrize("slices,ports,message", [
    ((), (), "layout has no slices"),
    ((("a",), ()), (), "slice 1 is empty"),
    ((("a", "b-c"),), (), "slice 0: invalid arm name 'b-c' (letters, digits and _ only)"),
    ((("a", "a"),), (), "arm a listed twice on slice 0"),
    ((("a",),), (("P", "a"), ("P", "a")), "detector port P declared twice"),
    # port names the text format cannot carry
    *(((("a",),), ((port, "a"),),
       f"detector port name {port!r} is not one word without '#' or '='")
      for port in ("my port", "P#1", "a=b", "")),
], ids=["no_slices", "empty_slice", "invalid_arm", "arm_twice", "port_twice",
        "port_with_space", "port_with_hash", "port_with_equals", "empty_port"])
def test_validate_reports_slice_and_port_rules(slices, ports, message):
    stages = tuple(Stage(k, ()) for k in range(len(slices) - 1))
    layout = NetworkLayout(slices=slices, stages=stages, source="a", detector_ports=ports)
    assert message in validate_network(layout)


def test_validate_reports_double_consumption():
    stage = Stage(0, (
        beamsplitter("x", ("a", "b"), ("c", "d")),
        mirror("m", "a", "c"),
    ))
    report = validate_network(_tiny_layout((stage,)))
    assert "arm a double-consumed at stage 0" in report
    assert "arm c produced twice at stage 0" in report


def test_validate_reports_unconsumed_arm():
    stage = Stage(0, (mirror("m", "a", "c"), mirror("n", "b", "d")))
    ok = validate_network(_tiny_layout((stage,)))
    assert ok == []
    stage = Stage(0, (mirror("m", "a", "c"),))
    report = validate_network(_tiny_layout((stage,)))
    assert "arm b at slice 0 is neither consumed nor passed through" in report
    assert "arm d at slice 1 is never produced by stage 0" in report


def test_validate_reports_norm_violation_from_tampered_matrix(monkeypatch):
    monkeypatch.setattr(ComponentSpec, "block",
                        lambda self: np.array([[0.9, 0.1j], [0.1j, 0.9]]))
    bad = beamsplitter("x", ("a", "b"), ("c", "d"))
    report = validate_network(_tiny_layout((Stage(0, (bad,)),)))
    assert len(report) == 1
    assert report[0].startswith("stage 0 is not norm-preserving")


def test_preset_refuses_a_phase_tampered_splitter(monkeypatch):
    # a phase on one output keeps every stage unitary, so validation passes,
    # but the inner interferometer no longer cancels toward E
    block = ComponentSpec.block

    def tampered(self):
        out = block(self)
        if self.kind == "beamsplitter":
            out[0] *= np.exp(0.3j)
        return out

    monkeypatch.setattr(ComponentSpec, "block", tampered)
    with pytest.raises(RuntimeError, match="nested preset mis-tuned"):
        nested_mzi_preset()


def test_validate_checks_each_stage_at_its_position():
    # stage_unitary reads the stage at position k as slice k -> k + 1;
    # a Stage.index that disagrees is a violation, not a crash
    lone = NetworkLayout(
        slices=(("a",), ("b",)),
        stages=(Stage(3, (mirror("m", "a", "b"),)),),
        source="a",
        detector_ports=(("P", "b"),),
    )
    assert validate_network(lone) == ["stage 3 out of range (0..0)"]
    swapped = NetworkLayout(
        slices=(("a",), ("b",), ("c",)),
        stages=(Stage(1, (mirror("n", "b", "c"),)), Stage(0, (mirror("m", "a", "b"),))),
        source="a",
        detector_ports=(("P", "c"),),
    )
    report = validate_network(swapped)
    assert report[:2] == ["stage 1 listed at position 0", "stage 0 listed at position 1"]
    assert "stage 0: input arm 'b' is not on slice 0" in report


def test_validate_reports_bad_ports():
    layout = NetworkLayout(
        slices=(("a",), ("b", "c")),
        stages=(Stage(0, (beamsplitter("x", ("a",), ("b", "c")),)),),
        source="a",
        detector_ports=(("P", "b"), ("Q", "nope"), ("R", "b")),
    )
    report = validate_network(layout)
    assert "detector port Q targets 'nope', not a final-slice arm" in report
    assert "arm b is targeted by more than one detector port" in report


SINGLE_MZI = """
# one balanced interferometer, output CC is dark
arm src
arm A
arm B
arm CC
arm DD
slice 0: src
slice 1: A, B
slice 2: CC, DD

source src
bs split stage=0 in=src out=A,B
bs merge stage=1 in=A,B out=CC,DD
detector bright=DD
detector dark=CC
"""


def test_parse_single_mzi_probabilities():
    layout = parse_network(SINGLE_MZI)
    assert validate_network(layout) == []
    state = propagate(PathState(0, ("src",), (1.0 + 0j,)), layout, 2)
    assert state.amplitude("CC") == 0.0
    assert abs(abs(state.amplitude("DD")) ** 2 - 1.0) < 1e-14


def test_round_trip_preset(preset):
    text = serialize_network(preset)
    again = parse_network(text)
    assert again.slices == preset.slices
    assert again.source == preset.source
    assert again.detector_ports == preset.detector_ports
    for k in range(preset.n_slices - 1):
        np.testing.assert_allclose(
            stage_unitary(again, k), stage_unitary(preset, k), atol=0
        )


def test_round_trip_preserves_theta_and_phase_exactly():
    text = """
arm a
arm b
arm c
slice 0: a
slice 1: b, c
source a
bs s stage=0 in=a out=b,c theta=0.12345678901234567 phase=2.5
detector P1=b
detector P2=c
"""
    layout = parse_network(text)
    comp = layout.stages[0].components[0]
    assert comp.theta == 0.12345678901234567
    assert comp.phase == 2.5
    again = parse_network(serialize_network(layout))
    assert again.stages[0].components[0].theta == comp.theta


@pytest.mark.parametrize("seed", range(12))
def test_random_layout_round_trips(seed):
    layout = random_layout(seed)
    assert validate_network(layout) == []
    again = parse_network(serialize_network(layout))
    assert again.slices == layout.slices
    assert again.detector_ports == layout.detector_ports
    for k in range(layout.n_slices - 1):
        np.testing.assert_allclose(
            stage_unitary(again, k), stage_unitary(layout, k), atol=0
        )


@pytest.mark.parametrize("text,line,fragment", [
    ("arm\n", 1, "usage: arm <name>"),
    ("arm a\nslice zero: a\n", 2, "usage: slice <k>:"),
    ("arm a\nslice 0: a\nsource q\n", 3, "unknown arm reference 'q'"),
    ("arm a\narm a\n", 2, "declared twice"),
    ("arm a\nslice 0: a\nslice 1: a\nsource a\nbs s stage=0 out=a theta=1\n",
     5, "missing parameter 'in'"),
    ("arm a\nslice 0: a\nsource a\nwormhole x\n", 4, "unknown directive"),
    ("arm a-b\n", 1, "column 5: invalid arm name 'a-b' (letters, digits and _ only)"),
    ("arm a\nslice 0: a\nslice 0: a\n", 3, "slice 0 declared twice"),
    ("arm a\nslice 0: a\nsource\n", 3, "usage: source <arm>"),
    ("arm a\nslice 0: a\nsource a\nsource a\n", 4, "source declared twice"),
    ("arm a\nslice 0: a\nsource a\ndetector P = a\n", 4, "usage: detector <port>=<arm>"),
    ("arm a\nslice 0: a\nsource a\ndetector Pa\n", 4, "column 10: usage: detector <port>=<arm>"),
    ("arm a\nslice 0: a\nsource a\ndetector =a\n", 4, "empty detector port name"),
    ("arm a\nslice 0: a\nsource a\ndetector Q=\n", 4, "column 12: empty arm name"),
    ("arm a\narm b\n", 2, "no slice declarations"),
    ("arm a\nslice 0: a\nslice 2: a\n", 3, "missing declaration for slice 1"),
    # rules validate_network owns, reported at their directive
    ("arm a\nslice 0: a\nsource a\nslice 1:\n", 4, "column 9: empty arm in list"),
    ("arm a\nslice 0: a\nslice 1: a, a\nsource a\ndetector P=a\n",
     3, "column 1: arm a listed twice on slice 1"),
    ("arm a\nslice 0: a\nsource a\ndetector P=a\ndetector P=a\n",
     5, "column 1: detector port P declared twice"),
])
def test_parse_errors_carry_position(text, line, fragment):
    with pytest.raises(NetworkParseError) as err:
        parse_network(text)
    assert err.value.line == line
    assert fragment in str(err.value)
    assert f"line {line}," in str(err.value)


PHASE_PLATE = ("arm a\nslice 0: a\nslice 1: a\nsource a\n"
               "phase stage=0 arm=a value=0.5\ndetector P=a\n")


@pytest.mark.parametrize("text,old,new", [
    (SINGLE_MZI, "out=CC,DD\n", "out=CC,DD theta=inf\n"),
    (SINGLE_MZI, "out=CC,DD\n", "out=CC,DD theta=nan\n"),
    (PHASE_PLATE, "value=0.5", "value=inf"),
], ids=["theta_inf", "theta_nan", "phase_value_inf"])
def test_non_finite_numbers_fail_at_their_value(text, old, new):
    parse_network(text)
    bad = text.replace(old, new)
    with pytest.raises(NetworkParseError) as err:
        parse_network(bad)
    value = new.strip().rsplit("=", 1)[1]
    assert f"non-finite number {value!r}" in str(err.value)
    line = bad.splitlines()[err.value.line - 1]
    assert line[err.value.column - 1:] == value


# One stage directive on line 7 of a small valid network; each case is one
# error path of the four stage directives, with its exact column and message.
STAGE_LINE = ("arm a\narm b\narm c\nslice 0: a\nslice 1: b, c\nsource a\n{}\n"
              "detector P1=b\ndetector P2=c\n")
BS_USAGE = "usage: bs <name> stage=... in=... out=... theta=... phase=..."
MIRROR_USAGE = "usage: mirror <name> stage=... in=... out=..."
INVALID_AB = "invalid arm name 'a,b' (letters, digits and _ only)"


@pytest.mark.parametrize("directive,column,message", [
    ("bs", 1, BS_USAGE),
    ("bs stage=0 in=a out=b,c", 1, BS_USAGE),
    ("mirror", 1, MIRROR_USAGE),
    ("mirror in=a stage=0 out=b", 1, MIRROR_USAGE),
    ("bs s stage=0 in=a out=b,c junk", 27, "expected key=value, found 'junk'"),
    ("phase stage=0 arm=a 0.5", 21, "expected key=value, found '0.5'"),
    ("pass stage=0 a", 14, "expected key=value, found 'a'"),
    ("mirror m stage=0 in=a in=a out=b", 23, "duplicate parameter 'in'"),
    ("bs s stage=0 in=a out=b,c theta=1 theta=2", 35, "duplicate parameter 'theta'"),
    ("pass stage=0 arm=a arm=a", 20, "duplicate parameter 'arm'"),
    ("bs s stage=0 in= out=b,c", 14, "empty value for 'in'"),
    ("phase stage=0 arm=a value=", 21, "empty value for 'value'"),
    ("mirror m stage= in=a out=b", 10, "empty value for 'stage'"),
    ("bs s stage=0 out=b,c", 21, "missing parameter 'in'"),
    ("bs s in=a out=b,c", 18, "missing parameter 'stage'"),
    ("mirror m stage=0 in=a", 22, "missing parameter 'out'"),
    ("phase stage=0 arm=a", 20, "missing parameter 'value'"),
    ("pass arm=a", 11, "missing parameter 'stage'"),
    ("bs s stage=0 in=a out=b,c gain=2", 27, "unknown parameter 'gain'"),
    ("mirror m stage=0 in=a out=b theta=1", 29, "unknown parameter 'theta'"),
    ("pass stage=0 arm=a value=1", 20, "unknown parameter 'value'"),
    ("phase stage=0 arm=a value=1 name=x", 29, "unknown parameter 'name'"),
    ("bs s stage=zero in=a out=b,c", 12, "invalid integer 'zero'"),
    ("mirror m stage=0.5 in=a out=b", 16, "invalid integer '0.5'"),
    ("phase stage=x arm=a value=1", 13, "invalid integer 'x'"),
    ("pass stage=1e0 arm=a", 12, "invalid integer '1e0'"),
    ("bs s stage=0 in=a out=b,c theta=wide", 33, "invalid number 'wide'"),
    ("bs s stage=0 in=a out=b,c phase=1,2", 33, "invalid number '1,2'"),
    ("phase stage=0 arm=a value=pi", 27, "invalid number 'pi'"),
    ("bs s stage=0 in=a out=b,c phase=-inf", 33, "non-finite number '-inf'"),
    ("phase stage=0 arm=a value=nan", 27, "non-finite number 'nan'"),
    ("bs s stage=0 in=a, out=b,c", 19, "empty arm in list"),
    ("bs s stage=0 in=a out=b,,c", 25, "empty arm in list"),
    ("bs s stage=0 in=,a out=b,c", 17, "empty arm in list"),
    ("bs s stage=0 in=q out=b,c", 17, "unknown arm reference 'q'"),
    ("bs s stage=0 in=a out=b,q", 25, "unknown arm reference 'q'"),
    ("mirror m stage=0 in=a out=q", 27, "unknown arm reference 'q'"),
    ("phase stage=0 arm=q value=1", 19, "unknown arm reference 'q'"),
    ("pass stage=0 arm=q", 18, "unknown arm reference 'q'"),
    ("mirror m stage=0 in=a,b out=c", 21, INVALID_AB),
    ("bs s stage=0 in=a,b,c out=b,c", 17, "beamsplitter needs 1 or 2 input arms"),
    ("bs s stage=0 in=a out=b", 23, "beamsplitter needs exactly 2 output arms"),
    # which of two faults on one line is reported
    ("bs s stage=0 in=a,b,c out=q", 27, "unknown arm reference 'q'"),
    ("bs s stage=0 in=a out=b theta=x", 31, "invalid number 'x'"),
    ("bs s stage=x in=q out=b junk=1", 25, "unknown parameter 'junk'"),
    ("bs s stage=0 in=a,q, out=b,c", 21, "empty arm in list"),
])
def test_stage_directive_errors(directive, column, message):
    with pytest.raises(NetworkParseError) as err:
        parse_network(STAGE_LINE.format(directive))
    assert (err.value.line, err.value.column) == (7, column)
    assert str(err.value) == f"line 7, column {column}: {message}"


# Stage 0 splits s onto A, B and passes N; stage 1 recombines A, B onto
# C, D and passes N again.  Each case below breaks one structural rule.
WIRED = """arm s
arm N
arm A
arm B
arm C
arm D
arm Z
slice 0: s, N
slice 1: A, B, N
slice 2: C, D, N
source s
bs split stage=0 in=s out=A,B
pass stage=0 arm=N
bs merge stage=1 in=A,B out=C,D
pass stage=1 arm=N
detector P1=C
detector P2=D
detector P3=N
"""


@pytest.mark.parametrize("old,new,line,fragment", [
    ("pass stage=1 arm=N\n", "pass stage=1 arm=N\nmirror m stage=1 in=A out=N\n",
     16, "arm A double-consumed at stage 1"),
    ("pass stage=1 arm=N\n", "mirror m stage=1 in=N out=C\n",
     15, "arm C produced twice at stage 1"),
    ("pass stage=1 arm=N\n", "mirror m stage=1 in=s out=N\n",
     15, "input arm 's' is not on slice 1"),
    ("pass stage=1 arm=N\n", "mirror m stage=1 in=N out=s\n",
     15, "output arm 's' is not on slice 2"),
    ("pass stage=1 arm=N\n", "pass stage=1 arm=N\npass stage=1 arm=s\n",
     16, "pass-through arm 's' is not on slice 1"),
    ("pass stage=1 arm=N\n", "",
     9, "arm N at slice 1 is neither consumed nor passed through"),
    ("slice 2: C, D, N", "slice 2: C, D, N, Z",
     10, "arm Z at slice 2 is never produced by stage 1"),
    ("source s", "source A", 11, "source arm 'A' is not on slice 0"),
    ("detector P3=N", "detector P3=A", 18, "targets 'A', not a final-slice arm"),
    ("pass stage=1 arm=N", "pass stage=2 arm=N", 15, "stage 2 out of range (0..1)"),
    ("pass stage=1 arm=N", "pass stage=-1 arm=N", 15, "stage -1 out of range (0..1)"),
    ("detector P3=N", "detector P3=C",
     18, "arm C is targeted by more than one detector port"),
], ids=["double_consumption", "double_production", "input_off_slice",
        "output_off_slice", "pass_off_slice", "unconsumed", "unproduced",
        "source_off_slice", "detector_off_slice", "stage_past_end",
        "negative_stage", "two_ports_one_arm"])
def test_structural_errors_point_at_their_directive(old, new, line, fragment):
    assert validate_network(parse_network(WIRED)) == []
    assert old in WIRED
    with pytest.raises(NetworkParseError) as err:
        parse_network(WIRED.replace(old, new))
    assert (err.value.line, err.value.column) == (line, 1)
    assert fragment in str(err.value)


def test_parse_error_column_points_at_token():
    with pytest.raises(NetworkParseError) as err:
        parse_network("arm a\nslice 0: a\nsource Q\n")
    assert err.value.line == 3
    assert err.value.column == 8  # the Q token


def test_parse_reports_double_consumption_with_position():
    text = """
arm a
arm b
arm c
slice 0: a
slice 1: b, c
source a
bs s stage=0 in=a out=b,c
mirror m stage=0 in=a out=b
detector P1=b
detector P2=c
"""
    with pytest.raises(NetworkParseError) as err:
        parse_network(text)
    assert "double-consumed" in str(err.value)


def test_parse_requires_source_and_detectors():
    with pytest.raises(NetworkParseError, match="source"):
        parse_network("arm a\nslice 0: a\ndetector P=a\n")
    with pytest.raises(NetworkParseError, match="detector"):
        parse_network("arm a\nslice 0: a\nsource a\n")


def test_unknown_arm_in_component():
    text = "arm a\narm b\nslice 0: a\nslice 1: b\nsource a\nmirror m stage=0 in=Q out=b\n"
    with pytest.raises(NetworkParseError, match="unknown arm reference 'Q'"):
        parse_network(text)


def test_component_equality_ignores_name():
    a = beamsplitter("left", ("a",), ("b", "c"), 0.5)
    b = beamsplitter("right", ("a",), ("b", "c"), 0.5)
    assert a == b
    assert a != beamsplitter("left", ("a",), ("b", "c"), 0.6)


# 600 seeded edits of three network texts (the preset's, a random layout's
# and a hand-spaced one with comments and tabs): token swaps within and
# across lines, inserted, deleted and replaced tokens and values, character
# edits, and deleted, duplicated, moved and junk lines.  Each case holds its
# edits as [first line, end line, replacement lines] hunks and the outcome
# recorded by fixtures/make_parse_corpus.py: "ok", or the exact error text.
PARSE_CORPUS = Path(__file__).parent / "fixtures" / "parse_corpus.json"


def test_parse_outcomes_match_the_recorded_corpus():
    corpus = json.loads(PARSE_CORPUS.read_text())
    assert len(corpus["cases"]) >= 400
    mismatches = []
    for n, (base, hunks, want) in enumerate(corpus["cases"]):
        lines = corpus["bases"][base].split("\n")
        for first, end, new in reversed(hunks):
            lines[first:end] = new
        try:
            parse_network("\n".join(lines))
            got = "ok"
        except NetworkParseError as exc:
            got = str(exc)
            assert got.startswith(f"line {exc.line}, column {exc.column}: ")
        if got != want:
            mismatches.append((n, want, got))
    assert not mismatches, mismatches[:5]


@pytest.mark.parametrize("seed", range(8))
def test_wide_random_layouts_round_trip_bitwise(seed):
    layout = random_layout(seed, max_arms=14, max_stages=16)
    again = parse_network(serialize_network(layout))
    assert again == layout
    for k in range(len(layout.stages)):
        assert np.array_equal(stage_unitary(again, k), stage_unitary(layout, k))


@pytest.mark.parametrize("name", ["my bs", "a#b", "x=y", "tab\tname"])
def test_names_the_parser_cannot_read_are_serialized_as_generated_ones(name):
    layout = NetworkLayout(
        slices=(("s",), ("u", "l"), ("a", "b")),
        stages=(Stage(0, (beamsplitter(name, ("s",), ("u", "l"), 0.3, 0.1),)),
                Stage(1, (mirror(name, "u", "a"), mirror("ok_name", "l", "b")))),
        source="s",
        detector_ports=(("PA", "a"), ("PB", "b")),
    )
    text = serialize_network(layout)
    again = parse_network(text)
    assert again == layout
    assert [c.name for s in again.stages for c in s.components] == ["BS0_0", "M1_0", "ok_name"]


@pytest.mark.parametrize("seed", range(6))
def test_arm_index_agrees_with_the_slice_tuples(seed):
    layout = random_layout(seed, max_arms=14, max_stages=16)
    for k, arms in enumerate(layout.slices):
        for arm in arms:
            assert layout.arm_index(k, arm) == arms.index(arm)
    last = layout.final_slice
    for k, message in [(-1, f"invalid slice index -1 (0..{last})"),
                       (last + 1, f"invalid slice index {last + 1} (0..{last})"),
                       (0, "arm 'Z' is not on slice 0")]:
        with pytest.raises(ValueError) as err:
            layout.arm_index(k, "Z")
        assert str(err.value) == message
    # on a slice that lists an arm twice (an invalid layout), the first wins
    twice = NetworkLayout((("a", "b", "a"),), (), "a", ())
    assert twice.arm_index(0, "a") == 0
