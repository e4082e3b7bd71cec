"""Discrete-path interferometer networks.

A network is a sequence of time slices, each holding a set of labelled arms
that carry complex amplitudes.  Between consecutive slices a stage acts: a
collection of beamsplitters, mirrors and phase plates, plus arms that pass
through untouched.  Each stage assembles into a norm-preserving matrix, so a
single-photon amplitude vector can be pushed forward (or pulled backward)
slice by slice.

Conventions
-----------
* A beamsplitter with mixing angle theta applies
  ``[[cos(theta), i sin(theta)], [i sin(theta), cos(theta)]]`` (times an
  optional global phase): transmission is real, reflection picks up ``i``.
  ``theta = pi/4`` gives the balanced 50-50 splitter.
* Mirrors act as the identity; they only rename an arm.
* A beamsplitter may declare a single input arm, in which case its second
  port carries vacuum and the stage matrix becomes a tall isometry.

Networks also round-trip through a plain text format; see
:func:`parse_network` for the grammar.
"""

from __future__ import annotations

import math
import re
import string
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

__all__ = [
    "BALANCED_ANGLE",
    "ComponentSpec",
    "NetworkLayout",
    "NetworkParseError",
    "PathState",
    "Stage",
    "UNITARITY_TOL",
    "beamsplitter",
    "mirror",
    "nested_mzi_preset",
    "parse_network",
    "phase_plate",
    "propagate",
    "serialize_network",
    "stage_unitary",
    "validate_network",
]

UNITARITY_TOL = 1e-12
BALANCED_ANGLE = math.pi / 4

_ARM_CHARS = string.ascii_letters + string.digits + "_"


class NetworkParseError(ValueError):
    """Raised when network text cannot be parsed; carries 1-based line/column."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


def _readable_word(name: str) -> bool:
    """Whether the text format can carry ``name`` where it reads one word:
    nonempty, no whitespace, no ``#`` and no ``=``."""
    return name.split() == [name] and "#" not in name and "=" not in name


def _check_arm_name(name: str) -> str | None:
    if not name:
        return "empty arm name"
    if name.strip(_ARM_CHARS):  # something other than letters, digits and _
        return f"invalid arm name {name!r} (letters, digits and _ only)"
    return None


@dataclass(frozen=True)
class ComponentSpec:
    """One optical element inside a stage.

    kind is "beamsplitter", "mirror" or "phase".  ``theta`` is the mixing
    angle (beamsplitters only); ``phase`` is a global phase for
    beamsplitters and the applied phase for phase plates.  ``name`` is a
    label for the text format and is ignored by structural equality.
    """

    kind: str
    inputs: tuple[str, ...]
    outputs: tuple[str, ...]
    theta: float = 0.0
    phase: float = 0.0
    name: str = field(default="", compare=False)

    def __post_init__(self):
        if self.kind not in ("beamsplitter", "mirror", "phase"):
            raise ValueError(f"unknown component kind {self.kind!r}")
        n_in, n_out = len(self.inputs), len(self.outputs)
        if self.kind == "beamsplitter":
            if n_in not in (1, 2) or n_out != 2:
                raise ValueError("beamsplitter needs 1-2 inputs and exactly 2 outputs")
        else:
            if n_in != 1 or n_out != 1:
                raise ValueError(f"{self.kind} needs exactly 1 input and 1 output")
        if self.kind == "phase" and self.inputs != self.outputs:
            raise ValueError("phase plate must act on a single arm (input == output)")
        if not (math.isfinite(self.theta) and math.isfinite(self.phase)):
            raise ValueError("theta and phase must be finite")

    def block(self) -> np.ndarray:
        """Complex block of shape (len(outputs), len(inputs))."""
        if self.kind == "beamsplitter":
            if self.theta == BALANCED_ANGLE:
                # cos(pi/4) and sin(pi/4) round to values 1 ulp apart; a
                # balanced splitter needs them bitwise equal so that dark
                # ports cancel to exactly zero.
                c = s = math.sqrt(0.5)
            else:
                c, s = math.cos(self.theta), math.sin(self.theta)
            full = np.exp(1j * self.phase) * np.array([[c, 1j * s], [1j * s, c]])
            return full[:, : len(self.inputs)]
        if self.kind == "mirror":
            return np.array([[1.0 + 0j]])
        return np.array([[np.exp(1j * self.phase)]])


@dataclass(frozen=True)
class Stage:
    """The elements acting between slice ``index`` and ``index + 1``."""

    index: int
    components: tuple[ComponentSpec, ...]
    pass_through: tuple[str, ...] = ()


@dataclass(frozen=True)
class NetworkLayout:
    """Slices, stages, the source arm and the named detector ports.

    ``slices`` is an ordered tuple of arm tuples; ``detector_ports`` maps
    port names to arms of the final slice (stored as ordered pairs).

    Each layout object keeps, for its own lifetime, a map from arm to position
    for each slice and, read-only, each stage matrix :func:`stage_unitary` has
    assembled; equal layouts built separately share neither.
    """

    slices: tuple[tuple[str, ...], ...]
    stages: tuple[Stage, ...]
    source: str
    detector_ports: tuple[tuple[str, str], ...]

    @property
    def n_slices(self) -> int:
        return len(self.slices)

    @property
    def final_slice(self) -> int:
        return len(self.slices) - 1

    def arms_at(self, slice_index: int) -> tuple[str, ...]:
        """The arms of one slice; ``ValueError`` outside ``0..final_slice``
        (a negative index does not wrap)."""
        if not 0 <= slice_index < len(self.slices):
            raise ValueError(f"invalid slice index {slice_index} (0..{self.final_slice})")
        return self.slices[slice_index]

    def arm_index(self, slice_index: int, arm: str) -> int:
        """Position of ``arm`` on a slice; ``ValueError`` if the slice is out
        of range or the arm is not on it."""
        self.arms_at(slice_index)
        return _arm_position(self._arm_positions[slice_index], arm, slice_index)

    def port_arm(self, port: str) -> str:
        for name, arm in self.detector_ports:
            if name == port:
                return arm
        raise ValueError(f"unknown detector port {port!r}")

    @property
    def ports(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.detector_ports)

    @cached_property
    def _stage_matrices(self) -> list[np.ndarray | None]:
        return [None] * len(self.stages)

    @cached_property
    def _arm_positions(self) -> list[dict[str, int]]:
        return [_positions(arms) for arms in self.slices]


def _positions(arms: tuple[str, ...]) -> dict[str, int]:
    """Each arm's position on a slice (the first, as ``tuple.index``, if it is listed twice)."""
    return {arm: i for i, arm in reversed(list(enumerate(arms)))}


def _arm_position(positions: dict[str, int], arm: str, slice_index: int) -> int:
    if arm not in positions:
        raise ValueError(f"arm {arm!r} is not on slice {slice_index}")
    return positions[arm]


@dataclass(frozen=True, eq=False)
class PathState:
    """Amplitude vector over the arms of one slice: a forward ket, or the
    coefficients of a backward bra (:func:`tsvfsim.tsvf.backward_state`)."""

    slice_index: int
    arms: tuple[str, ...]
    amplitudes: np.ndarray

    def amplitude(self, arm: str) -> complex:
        return complex(self.amplitudes[_arm_position(_positions(self.arms), arm, self.slice_index)])


def beamsplitter(name, inputs, outputs, theta=BALANCED_ANGLE, phase=0.0) -> ComponentSpec:
    return ComponentSpec("beamsplitter", tuple(inputs), tuple(outputs),
                         theta=theta, phase=phase, name=name)


def mirror(name, input_arm, output_arm) -> ComponentSpec:
    return ComponentSpec("mirror", (input_arm,), (output_arm,), name=name)


def phase_plate(arm, value) -> ComponentSpec:
    return ComponentSpec("phase", (arm,), (arm,), phase=value)


def validate_network(layout: NetworkLayout) -> list[str]:
    """Check every structural invariant; return a list of violation messages.

    An empty list means the layout is valid.  Checks cover arm naming,
    port naming (one word the text format can carry), stage numbering (the
    stage at position k must have index k), slice coverage (each input arm
    consumed exactly once, each output arm produced exactly once),
    source/port wiring, and numeric norm-preservation ``max|U†U - I| <
    1e-12`` of every stage matrix.
    """
    return [message for message, _ in _violations(layout)]


def _violations(layout: NetworkLayout) -> list[tuple[str, tuple | None]]:
    """The checks of :func:`validate_network`, each message paired with its
    site: ``("source",)``, ``("port", i)``, ``("slice", k)``, ``("stage",
    k)``, ``("element", k, i)`` for element i of the stage at position k
    (its components, then its pass-through arms), or None."""
    report: list[tuple[str, tuple | None]] = []

    def add(message: str, site: tuple | None = None):
        report.append((message, site))

    if not layout.slices:
        return [("layout has no slices", None)]
    n_stages = len(layout.slices) - 1
    for k, arms in enumerate(layout.slices):
        if not arms:
            add(f"slice {k} is empty", ("slice", k))
        for arm in arms:
            msg = _check_arm_name(arm)
            if msg:
                add(f"slice {k}: {msg}", ("slice", k))
        for a, c in Counter(arms).items():
            if c > 1:
                add(f"arm {a} listed twice on slice {k}", ("slice", k))

    if layout.source not in layout.slices[0]:
        add(f"source arm {layout.source!r} is not on slice 0", ("source",))

    names: Counter[str] = Counter()
    targets: Counter[str] = Counter()
    for i, (name, arm) in enumerate(layout.detector_ports):
        names[name] += 1
        targets[arm] += 1
        if not _readable_word(name):
            add(f"detector port name {name!r} is not one word without '#' or '='", ("port", i))
        if names[name] == 2:
            add(f"detector port {name} declared twice", ("port", i))
        if arm not in layout.slices[-1]:
            add(f"detector port {name} targets {arm!r}, not a final-slice arm", ("port", i))
        if targets[arm] == 2:
            add(f"arm {arm} is targeted by more than one detector port", ("port", i))

    # stage_unitary reads the stage at position k as the map from slice k
    # to slice k + 1, so every check below goes by position.
    for k, stage in enumerate(layout.stages):
        if not 0 <= stage.index < n_stages:
            add(f"stage {stage.index} out of range (0..{n_stages - 1})", ("stage", k))
        elif stage.index != k:
            add(f"stage {stage.index} listed at position {k}", ("stage", k))
    if len(layout.stages) != n_stages:
        add(f"{len(layout.slices)} slices need {n_stages} stages, found {len(layout.stages)}")

    for k, stage in enumerate(layout.stages[:n_stages]):
        ins, outs = layout.slices[k], layout.slices[k + 1]
        consumed: dict[str, int] = {}
        produced: dict[str, int] = {}
        elements = [(c.inputs, c.outputs, "input", "output") for c in stage.components]
        elements += [((a,), (a,), "pass-through", "pass-through") for a in stage.pass_through]
        for i, (inputs, outputs, in_role, out_role) in enumerate(elements):
            site = ("element", k, i)
            for arm in inputs:
                if arm not in ins:
                    add(f"stage {k}: {in_role} arm {arm!r} is not on slice {k}", site)
                consumed[arm] = consumed.get(arm, 0) + 1
                if consumed[arm] == 2:
                    add(f"arm {arm} double-consumed at stage {k}", site)
            for arm in outputs:
                if arm not in outs:
                    add(f"stage {k}: {out_role} arm {arm!r} is not on slice {k + 1}", site)
                produced[arm] = produced.get(arm, 0) + 1
                if produced[arm] == 2:
                    add(f"arm {arm} produced twice at stage {k}", site)
        for arm in ins:
            if arm not in consumed:
                add(f"arm {arm} at slice {k} is neither consumed nor passed through",
                    ("slice", k))
        for arm in outs:
            if arm not in produced:
                add(f"arm {arm} at slice {k + 1} is never produced by stage {k}",
                    ("slice", k + 1))

    if not report:
        for k in range(len(layout.stages)):
            u = stage_unitary(layout, k)
            gram = u.conj().T @ u
            dev = float(np.max(np.abs(gram - np.eye(u.shape[1]))))
            if dev >= UNITARITY_TOL:
                add(f"stage {k} is not norm-preserving (max|U†U - I| = {dev:.3e})",
                    ("stage", k))
    return report


def stage_unitary(layout: NetworkLayout, stage_index: int) -> np.ndarray:
    """The stage matrix mapping slice k amplitudes to slice k+1.

    Rows follow ``layout.slices[k + 1]``, columns ``layout.slices[k]``.  The
    matrix is square when both slices hold the same number of arms and a
    tall isometry when a beamsplitter feeds from a single (vacuum-padded)
    input.  It is assembled once per layout object and returned read-only
    on every later call.
    """
    if not 0 <= stage_index < len(layout.stages):
        raise ValueError(f"invalid stage index {stage_index}")
    cached = layout._stage_matrices[stage_index]
    if cached is not None:
        return cached
    stage = layout.stages[stage_index]
    ins, outs = layout._arm_positions[stage_index:stage_index + 2]
    u = np.zeros((len(layout.slices[stage_index + 1]), len(layout.slices[stage_index])), complex)
    for comp in stage.components:
        block = comp.block()
        for r, out_arm in enumerate(comp.outputs):
            for c, in_arm in enumerate(comp.inputs):
                u[outs[out_arm], ins[in_arm]] = block[r, c]
    for arm in stage.pass_through:
        u[outs[arm], ins[arm]] = 1.0
    u.setflags(write=False)
    layout._stage_matrices[stage_index] = u
    return u


def propagate(state: PathState, layout: NetworkLayout, to_slice: int) -> PathState:
    """Evolve an amplitude vector from its slice to ``to_slice`` (forward only).

    Parameters
    ----------
    state : PathState
        Amplitudes on ``state.slice_index``; the arm order must match the
        layout's slice.
    layout : NetworkLayout
    to_slice : int
        Target slice, ``>= state.slice_index``.

    Returns
    -------
    PathState on ``to_slice``.
    """
    if state.arms != layout.arms_at(state.slice_index):
        raise ValueError(
            f"state arms {state.arms} do not match slice {state.slice_index}"
        )
    arms = layout.arms_at(to_slice)
    if to_slice < state.slice_index:
        raise ValueError("propagate only runs forward; use a backward state instead")
    vec = np.asarray(state.amplitudes, dtype=complex)
    for k in range(state.slice_index, to_slice):
        vec = stage_unitary(layout, k) @ vec
    return PathState(to_slice, arms, vec)


def nested_mzi_preset() -> NetworkLayout:
    """Balanced nested Mach-Zehnder interferometer with a dark inner port.

    Five slices: {in} -> {N, D} -> {N, B, C} -> {N, E, F} -> {D1, D2, D3}.
    The outer arm N runs straight to the final recombiner; D feeds the
    inner interferometer (arms B, C) whose recombined output E carries
    exactly zero amplitude while F (modulus 1 from D) exits to port D3.
    All beamsplitters are balanced.  Slices 2 and 3 are the two coupling
    times.
    """
    q = BALANCED_ANGLE
    layout = NetworkLayout(
        slices=(
            ("in",),
            ("N", "D"),
            ("N", "B", "C"),
            ("N", "E", "F"),
            ("D1", "D2", "D3"),
        ),
        stages=(
            Stage(0, (beamsplitter("BS1", ("in",), ("N", "D"), q),)),
            Stage(1, (beamsplitter("BS2", ("D",), ("B", "C"), q),), ("N",)),
            Stage(2, (beamsplitter("BS3", ("B", "C"), ("E", "F"), q),), ("N",)),
            Stage(
                3,
                (
                    beamsplitter("BS4", ("N", "E"), ("D1", "D2"), q),
                    mirror("MF", "F", "D3"),
                ),
            ),
        ),
        source="in",
        detector_ports=(("D1", "D1"), ("D2", "D2"), ("D3", "D3")),
    )
    # The inner interferometer must be tuned dark toward E: amplitude(D -> E)
    # exactly 0 and |amplitude(D -> F)| = 1.  Guard the construction.
    probe = PathState(1, layout.slices[1], np.array([0.0, 1.0], dtype=complex))
    at_t2 = propagate(probe, layout, 3)
    if abs(at_t2.amplitude("E")) > 1e-15 or abs(abs(at_t2.amplitude("F")) - 1.0) > 1e-15:
        raise RuntimeError("nested preset mis-tuned: inner output E is not dark")
    return layout


# --------------------------------------------------------------------------
# Text format
#
#   arm <name>
#   slice <k>: <arm>, <arm>, ...
#   source <arm>
#   bs <name> stage=<k> in=<a>[,<b>] out=<c>,<d> [theta=<rad>] [phase=<rad>]
#       (theta defaults to the balanced angle pi/4, phase to 0)
#   mirror <name> stage=<k> in=<a> out=<b>
#   phase stage=<k> arm=<a> value=<rad>
#   pass stage=<k> arm=<a>
#   detector <port>=<arm>
#
# '#' starts a comment. Arms must be declared before use. parse_network reads
# each line once and dispatches on its first word; a stage directive (bs to
# pass) takes the keys _STAGE_KEYS lists for it, in any order. The structural
# rules (a slice lists each arm once, stage k consumes each arm of slice k
# once and produces each arm of slice k + 1 once, the source is on slice 0,
# each port is declared once, on its own final-slice arm) are
# validate_network's; a violation is reported at the line of the directive
# it concerns.

_SLICE_RE = re.compile(r"^\s*(slice)\s+(\d+)\s*:\s*(.*)$")
_KEY_CHARS = string.ascii_letters + "_"
# the keys of each stage directive, in the order their values are read
_STAGE_KEYS = {
    "bs": ("stage", "in", "out", "theta", "phase"),
    "mirror": ("stage", "in", "out"),
    "phase": ("stage", "arm", "value"),
    "pass": ("stage", "arm"),
}
_DEFAULTS = {"theta": BALANCED_ANGLE, "phase": 0.0}  # the optional keys, all of bs


class _Refused(ValueError):
    """A line the grammar refuses: (message, word index, offset of the fault in that word)."""


def _column(line: str, word: int) -> int:
    """1-based column of the word-th whitespace-separated word of a line."""
    end = 0
    for text in line.split()[: word + 1]:
        start = line.index(text, end)
        end = start + len(text)
    return start + 1


def _number(text: str, word: int, offset: int) -> float:
    try:
        value = float(text)
    except ValueError:
        raise _Refused(f"invalid number {text!r}", word, offset) from None
    if not math.isfinite(value):
        raise _Refused(f"non-finite number {text!r}", word, offset)
    return value


def _integer(text: str, word: int, offset: int) -> int:
    try:
        return int(text)
    except ValueError:
        raise _Refused(f"invalid integer {text!r}", word, offset) from None


def _arm(text: str, word: int, offset: int, declared: set[str]) -> str:
    if text not in declared:  # a declared name is a valid one
        raise _Refused(_check_arm_name(text) or f"unknown arm reference {text!r}", word, offset)
    return text


def _arms(text: str, word: int, offset: int, declared: set[str]) -> tuple[str, ...]:
    """Comma-separated arms; an empty piece fails before any is looked up."""
    names = tuple([piece.strip() for piece in text.split(",")])
    if declared.issuperset(names):
        return names
    starts = []  # where each name starts
    for piece in text.split(","):
        starts.append(offset + len(piece) - len(piece.lstrip()))
        offset += len(piece) + 1
    if "" in names:
        raise _Refused("empty arm in list", word, starts[names.index("")])
    return tuple([_arm(name, word, start, declared) for name, start in zip(names, starts)])


def _stage_element(words: list[str], declared: set[str]) -> tuple[int, ComponentSpec | str]:
    """One stage directive line as (stage, component or pass-through arm)."""
    directive = words[0]
    keys = _STAGE_KEYS[directive]
    named = directive in ("bs", "mirror")
    if named and (len(words) < 2 or "=" in words[1]):
        raise _Refused(f"usage: {directive} <name> " + " ".join(f"{k}=..." for k in keys), 0, 0)
    given: dict[str, tuple[str, int, int]] = {}  # key -> (value, its word, its offset)
    for i in range(1 + named, len(words)):
        key, eq, value = words[i].partition("=")
        if not value or key not in keys or key in given:  # else the checks below pass
            if not eq or not key or key.strip(_KEY_CHARS):
                raise _Refused(f"expected key=value, found {words[i]!r}", i, 0)
            if key in given:
                raise _Refused(f"duplicate parameter {key!r}", i, 0)
            if not value:
                raise _Refused(f"empty value for {key!r}", i, 0)
        given[key] = (value, i, len(key) + 1)
    for key in keys:
        if key not in given and key not in _DEFAULTS:  # reported at the end of the line
            raise _Refused(f"missing parameter {key!r}", len(words) - 1, len(words[-1]))
    for key, (_, i, _) in given.items():
        if key not in keys:
            raise _Refused(f"unknown parameter {key!r}", i, 0)

    stage = _integer(*given["stage"])
    if directive == "bs":
        inputs, outputs = _arms(*given["in"], declared), _arms(*given["out"], declared)
        theta, phase = [_number(*given[key]) if key in given else _DEFAULTS[key]
                        for key in ("theta", "phase")]
        if len(inputs) not in (1, 2):
            raise _Refused("beamsplitter needs 1 or 2 input arms", *given["in"][1:])
        if len(outputs) != 2:
            raise _Refused("beamsplitter needs exactly 2 output arms", *given["out"][1:])
        return stage, beamsplitter(words[1], inputs, outputs, theta, phase)
    if directive == "mirror":
        return stage, mirror(words[1], _arm(*given["in"], declared), _arm(*given["out"], declared))
    arm = _arm(*given["arm"], declared)
    if directive == "phase":
        return stage, phase_plate(arm, _number(*given["value"]))
    return stage, arm


def parse_network(text: str) -> NetworkLayout:
    """Parse the plain text network format into a validated layout.

    Parameters
    ----------
    text : str
        Network description; see the module docstring for the grammar.

    Returns
    -------
    NetworkLayout
        A layout satisfying every structural invariant.

    Raises
    ------
    NetworkParseError
        On any syntax or consistency problem, reporting the 1-based line
        and column (e.g. an undeclared arm is named together with the line
        that references it).  Structural problems are the first violation
        :func:`validate_network` finds in the parsed layout, reported at the
        line of the offending directive (a component or ``pass`` line, a
        ``slice``, ``source`` or ``detector`` line) and column 1.
    """
    declared: set[str] = set()
    slices: dict[int, tuple[tuple[str, ...], int]] = {}
    source: tuple[str, int] | None = None
    detectors: list[tuple[str, str, int]] = []
    # stage -> (components, pass-through arms), each with its line
    stage_lines: dict[int, tuple[list, list]] = {}
    rows = text.splitlines()
    for lineno, raw in enumerate(rows, start=1):
        line = raw.split("#", 1)[0].rstrip()
        words = line.split()
        if not words:
            continue
        directive = words[0]
        try:
            if directive in _STAGE_KEYS:
                stage, element = _stage_element(words, declared)
                comps, through = stage_lines.setdefault(stage, ([], []))
                (through if directive == "pass" else comps).append((element, lineno))

            elif directive == "arm":
                if len(words) != 2:
                    raise _Refused("usage: arm <name>", 0, 0)
                err = _check_arm_name(words[1])
                if err:
                    raise _Refused(err, 1, 0)
                if words[1] in declared:
                    raise _Refused(f"arm {words[1]!r} declared twice", 1, 0)
                declared.add(words[1])

            elif directive == "slice":
                m = _SLICE_RE.match(line)
                if not m:
                    raise _Refused("usage: slice <k>: <arm>, <arm>, ...", 0, 0)
                k = int(m.group(2))
                if k in slices:
                    raise _Refused(f"slice {k} declared twice", 0, 0)
                # the list's offset is counted from the start of the directive word
                slices[k] = (_arms(m.group(3), 0, m.start(3) - m.start(1), declared), lineno)

            elif directive == "source":
                if len(words) != 2:
                    raise _Refused("usage: source <arm>", 0, 0)
                if source is not None:
                    raise _Refused("source declared twice", 0, 0)
                source = (_arm(words[1], 1, 0, declared), lineno)

            elif directive == "detector":
                if len(words) != 2:
                    raise _Refused("usage: detector <port>=<arm>", 0, 0)
                port, eq, arm = words[1].partition("=")
                if not eq:
                    raise _Refused("usage: detector <port>=<arm>", 1, 0)
                if not port:
                    raise _Refused("empty detector port name", 1, 0)
                detectors.append((port, _arm(arm, 1, len(port) + 1, declared), lineno))

            else:
                raise _Refused(f"unknown directive {directive!r}", 0, 0)
        except _Refused as exc:
            message, word, offset = exc.args
            raise NetworkParseError(message, lineno, _column(line, word) + offset) from None

    end = (max(len(rows), 1), 1)
    if not slices:
        raise NetworkParseError("no slice declarations", *end)
    n_slices = max(slices) + 1
    for k in range(n_slices):
        if k not in slices:
            raise NetworkParseError(f"missing declaration for slice {k}", *end)
    if source is None:
        raise NetworkParseError("missing source declaration", *end)
    if not detectors:
        raise NetworkParseError("missing detector declaration", *end)

    # the directive line of every site _violations can name
    lines = {("source",): source[1]}
    lines.update((("slice", k), line) for k, (_, line) in slices.items())
    lines.update((("port", i), line) for i, (_, _, line) in enumerate(detectors))
    # Stages out of range are kept (sorted by their number) so that
    # _violations reports them at their own line.
    stages = []
    for pos, k in enumerate(sorted(stage_lines.keys() | range(n_slices - 1))):
        comps, through = stage_lines.get(k, ((), ()))
        stages.append(Stage(k, tuple(c for c, _ in comps), tuple(a for a, _ in through)))
        for i, (_, line) in enumerate([*comps, *through]):
            lines[("element", pos, i)] = line
            lines.setdefault(("stage", pos), line)

    layout = NetworkLayout(
        slices=tuple(slices[k][0] for k in range(n_slices)),
        stages=tuple(stages),
        source=source[0],
        detector_ports=tuple((port, arm) for port, arm, _ in detectors),
    )
    problems = _violations(layout)
    if problems:
        message, site = problems[0]
        raise NetworkParseError(message, lines.get(site, 1), 1)
    return layout


def serialize_network(layout: NetworkLayout) -> str:
    """Render a layout to text such that ``parse_network`` reproduces it.

    Slices, components, parameters and port wiring round-trip exactly
    (floats are written in shortest round-trip decimal form); pass-through
    arms get explicit ``pass`` lines.
    """
    # every arm once, in order of first appearance
    lines = [f"arm {a}" for a in dict.fromkeys(a for arms in layout.slices for a in arms)]
    for k, arms in enumerate(layout.slices):
        lines.append(f"slice {k}: " + ", ".join(arms))
    lines.append(f"source {layout.source}")
    for stage in layout.stages:
        for i, comp in enumerate(stage.components):
            wiring = f"stage={stage.index} in={','.join(comp.inputs)} out={','.join(comp.outputs)}"
            name = comp.name
            if not _readable_word(name):
                name = f"{'BS' if comp.kind == 'beamsplitter' else 'M'}{stage.index}_{i}"
            if comp.kind == "beamsplitter":
                lines.append(f"bs {name} {wiring} theta={comp.theta!r} phase={comp.phase!r}")
            elif comp.kind == "mirror":
                lines.append(f"mirror {name} {wiring}")
            else:
                lines.append(f"phase stage={stage.index} arm={comp.inputs[0]} "
                             f"value={comp.phase!r}")
        for arm in stage.pass_through:
            lines.append(f"pass stage={stage.index} arm={arm}")
    for port, arm in layout.detector_ports:
        lines.append(f"detector {port}={arm}")
    return "\n".join(lines) + "\n"
