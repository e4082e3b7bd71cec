"""The three benchmark workloads: seeded inputs, operation lists, output checks.

Each workload is built from a seed alone and calls only public ``tsvfsim``
functions.  One *pass* is the workload's fixed list of operations; the
runner in ``run.py`` times each operation and counts it as failed when it
raises, exits non-zero, overruns its time limit or fails the check here.

Module attributes are looked up at call time (``cli.main``,
``meter.run_coupled``, ...) so that a traced run sees the wrappers that
``spans.py`` installs there.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

from tsvfsim import cli, meter, network, sampling, tsvf

# Stream tags keep the seeded draws of different purposes independent.
_WIDE_STREAM = 1
_DENSE_DESIGN_STREAM = 7
_DENSE_JITTER_STREAM = 8

WIDE_ARMS, WIDE_SLICES = 14, 17
DENSE_ARMS, DENSE_SLICES, DENSE_METERS = 6, 9, 10
METER_G, METER_SIGMA = 0.3, 1.0

# The dense layout is one fixed design perturbed by the seed.  Random
# 6-arm layouts swing the chosen port's mixture from 15 to 44 terms (the
# moment algebra costs T^2) and the sampler's predicted acceptance from
# under 0.01 to about 0.5 (its cost goes as 1/acceptance), so a fresh
# random layout per seed would change the work of a pass several times
# over.  Design 371 gives 28 mixture terms, 108 joint terms and a predicted
# acceptance of 0.039, below the sampler's 0.05 rate floor; a +-0.005 rad
# jitter of every angle and phase changes the numbers but none of these
# counts.
DENSE_DESIGN_KEY = 371
DENSE_JITTER = 0.005

PRESET_PORT = "D2"
PRESET_METERS = ("B@2:g=0.3,sigma=1", "E@3:g=0.3,sigma=1")
PRESET_CHAINS = ("B@2,E@3", "C@2,E@3", "N@2,E@3")
PRESET_MONTECARLO_N = 200_000
PRESET_WEAK_VALUES = {("B", 2): 0.5, ("C", 2): -0.5, ("N", 2): 1.0, ("E", 3): 0.0}

DENSE_READINGS = 8192
WEAK_VALUE_TOL = 1e-12
REFERENCE_TOL = 1e-10


class CheckFailed(Exception):
    """An operation returned, but its output is wrong."""


def no_check(result):
    pass


@dataclass
class Operation:
    """One timed call.

    ``run`` is timed; ``check`` raises :class:`CheckFailed` on a wrong
    output; ``fingerprint`` gives bytes that must repeat exactly on every
    pass of the same run.
    """

    name: str
    run: Callable[[], Any]
    check: Callable[[Any], None] = no_check
    fingerprint: Callable[[Any], bytes] | None = None


@dataclass
class CliResult:
    code: int
    output: bytes


# ----------------------------------------------------------------------
# Generators


def layered_layout(rng, n_arms: int, n_slices: int, jitter_rng=None,
                   jitter: float = 0.0) -> network.NetworkLayout:
    """Layered network with the same ``n_arms`` arms on every slice.

    Each stage pairs the arms in a random order into beamsplitters with
    angles in [0.2, pi/2 - 0.2] and random phases; the source arm is drawn
    last.  Every arm is a detector port named ``P<arm>``.  With a jitter
    stream, every angle and phase is moved by up to ``jitter`` radians.
    """
    if n_arms % 2:
        raise ValueError("layered layouts pair their arms, so n_arms must be even")
    arms = tuple(f"a{i}" for i in range(n_arms))
    stages = []
    for k in range(n_slices - 1):
        order = rng.permutation(n_arms)
        comps = []
        for i in range(0, n_arms, 2):
            pair = (arms[order[i]], arms[order[i + 1]])
            theta = float(rng.uniform(0.2, math.pi / 2 - 0.2))
            phase = float(rng.uniform(0.0, 2 * math.pi))
            if jitter_rng is not None:
                theta += float(jitter_rng.uniform(-jitter, jitter))
                phase += float(jitter_rng.uniform(-jitter, jitter))
            comps.append(network.beamsplitter(f"BS{k}_{i // 2}", pair, pair, theta, phase))
        stages.append(network.Stage(k, tuple(comps)))
    source = arms[int(rng.integers(n_arms))]
    return network.NetworkLayout(
        slices=(arms,) * n_slices,
        stages=tuple(stages),
        source=source,
        detector_ports=tuple((f"P{a}", a) for a in arms),
    )


def _philox(*key: int):
    return np.random.Generator(np.random.Philox(key=list(key)))


def wide_layout(seed: int) -> network.NetworkLayout:
    """14 arms x 17 slices, every draw from the seed."""
    return layered_layout(_philox(seed, _WIDE_STREAM), WIDE_ARMS, WIDE_SLICES)


def brightest_port(layout: network.NetworkLayout) -> str:
    """The port with the largest |postselection amplitude|; ties by name."""
    final = tsvf.forward_state(layout, layout.final_slice)
    return min(layout.ports,
               key=lambda p: (-abs(final.amplitude(layout.port_arm(p))), p))


def dense_experiment(seed: int) -> meter.Experiment:
    """6 arms x 9 slices with 10 meters (g = 0.3, sigma = 1).

    Every intermediate slice gets a meter on its most occupied arm under
    forward propagation (ties by name); three slices drawn from the design
    stream get a second meter on their next most occupied arm.
    """
    design = _philox(DENSE_DESIGN_KEY, _DENSE_DESIGN_STREAM)
    layout = layered_layout(design, DENSE_ARMS, DENSE_SLICES,
                            _philox(seed, _DENSE_JITTER_STREAM), DENSE_JITTER)
    n_extra = DENSE_METERS - (DENSE_SLICES - 2)
    doubled = {int(k) for k in design.choice(np.arange(1, DENSE_SLICES - 1),
                                             size=n_extra, replace=False)}
    exp = meter.new_experiment(layout)
    for k in range(1, DENSE_SLICES - 1):
        occupation = np.abs(tsvf.forward_state(layout, k).amplitudes) ** 2
        arms = layout.slices[k]
        ranked = sorted(range(len(arms)), key=lambda i: (-occupation[i], arms[i]))
        for i in ranked[: 2 if k in doubled else 1]:
            exp = meter.attach_meter(exp, arms[i], k, METER_G, METER_SIGMA)
    return exp


def richest_port(mixtures: dict[str, meter.PointerMixture]) -> str:
    """The port with the most mixture terms; ties by name."""
    return min(mixtures, key=lambda p: (-len(mixtures[p].amplitudes), p))


# ----------------------------------------------------------------------
# CLI operations


def run_cli(argv: list[str], out: Path) -> CliResult:
    """``tsvfsim.cli.main(argv)`` in-process, output read back from ``out``."""
    out.unlink(missing_ok=True)
    try:
        code = cli.main(argv + ["--out", str(out)])
    except SystemExit as exc:  # argparse usage errors
        code = exc.code if isinstance(exc.code, int) else 2
    return CliResult(code, out.read_bytes() if out.exists() else b"")


def _value_rows(output: bytes) -> list[dict[str, str]]:
    return [row for row in csv.DictReader(io.StringIO(output.decode()))
            if row["kind"] == "value"]


def cli_operation(name: str, argv: list[str], workdir: Path,
                  check: Callable[[bytes], None] = no_check) -> Operation:
    out = workdir / f"{name}.out"

    def check_result(result: CliResult):
        if result.code != 0:
            raise CheckFailed(f"exit status {result.code}")
        check(result.output)

    return Operation(name, lambda: run_cli(argv, out), check_result,
                     fingerprint=lambda result: result.output)


def _expect_close(label: str, got: complex, want: complex, tol: float):
    if not abs(got - want) <= tol:
        raise CheckFailed(f"{label}: got {got!r}, want {want!r} (tol {tol:g})")


# ----------------------------------------------------------------------
# Workloads


class Workload:
    """Inputs built from a seed, plus the operations of one pass."""

    name = ""

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir

    def operations(self) -> list[Operation]:
        raise NotImplementedError

    def summary(self, times: dict[str, float]) -> dict[str, tuple[float, str]]:
        """Operation-level metrics from the median time of each operation."""
        raise NotImplementedError


class WideTable(Workload):
    """A 14 x 17 layout through the ``weak-values`` and ``sequential`` CLI."""

    name = "wide-table"

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        layout = wide_layout(seed)
        problems = network.validate_network(layout)
        if problems:
            raise CheckFailed(f"generated layout is invalid: {problems[0]}")
        path = workdir / "wide.net"
        path.write_text(network.serialize_network(layout))
        if network.parse_network(path.read_text()) != layout:
            raise CheckFailed("layout does not survive the text format")
        self.layout = layout
        self.port = brightest_port(layout)
        self.forward, self.backward = _dense_sweeps(layout, self.port)
        chains = [f"{a}@1,{b}@2" for a in layout.slices[1] for b in layout.slices[2]]
        common = ["--network", str(path), "--postselect", self.port]
        self.argv = {
            "weak-values": ["weak-values"] + common,
            "sequential": ["sequential"] + common
            + [arg for chain in chains for arg in ("--chain", chain)],
        }

    def operations(self):
        return [
            cli_operation("weak-values", self.argv["weak-values"], self.workdir,
                          self.check_weak_values),
            cli_operation("sequential", self.argv["sequential"], self.workdir,
                          self.check_sequential),
        ]

    def check_weak_values(self, output: bytes):
        rows = _value_rows(output)
        if len(rows) != WIDE_ARMS * WIDE_SLICES:
            raise CheckFailed(f"{len(rows)} weak values, want {WIDE_ARMS * WIDE_SLICES}")
        amp = self.backward[0] @ self.forward[0]
        for row in rows:
            k = int(row["slice"])
            i = self.layout.arm_index(k, row["arm"])
            want = self.backward[k][i] * self.forward[k][i] / amp
            _expect_close(f"weak value {row['arm']}@{k}",
                          complex(float(row["re"]), float(row["im"])), want,
                          REFERENCE_TOL)

    def check_sequential(self, output: bytes):
        rows = _value_rows(output)
        if len(rows) != WIDE_ARMS * WIDE_ARMS:
            raise CheckFailed(f"{len(rows)} chains, want {WIDE_ARMS * WIDE_ARMS}")
        u1 = network.stage_unitary(self.layout, 1)
        amp = self.backward[0] @ self.forward[0]
        for row in rows:
            (a, _), (b, _) = (step.split("@") for step in row["chain"].split(">"))
            ia = self.layout.arm_index(1, a)
            ib = self.layout.arm_index(2, b)
            want = self.backward[2][ib] * u1[ib, ia] * self.forward[1][ia] / amp
            _expect_close(f"chain {row['chain']}",
                          complex(float(row["re"]), float(row["im"])), want,
                          REFERENCE_TOL)

    def summary(self, times):
        return {
            "weak_values_s": (times["weak-values"], "s"),
            "sequential_s": (times["sequential"], "s"),
        }


def _dense_sweeps(layout, port):
    """Forward kets and backward bras at every slice from one product of
    the stage matrices, as an independent reference for the CLI tables."""
    mats = [network.stage_unitary(layout, k) for k in range(len(layout.stages))]
    ket = np.zeros(len(layout.slices[0]), dtype=complex)
    ket[layout.arm_index(0, layout.source)] = 1.0
    forward = [ket]
    for u in mats:
        forward.append(u @ forward[-1])
    bra = np.zeros(len(layout.slices[-1]), dtype=complex)
    bra[layout.arm_index(layout.final_slice, layout.port_arm(port))] = 1.0
    backward = [bra]
    for u in reversed(mats):
        backward.append(backward[-1] @ u)
    return forward, backward[::-1]


class PresetPaper(Workload):
    """The README examples on the nested interferometer, port D2."""

    name = "preset-paper"

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        common = ["--network", "nested-mzi", "--postselect", PRESET_PORT]
        meters = [arg for spec in PRESET_METERS for arg in ("--meter", spec)]
        chains = [arg for spec in PRESET_CHAINS for arg in ("--chain", spec)]
        self.argv = {
            "weak-values": ["weak-values"] + common,
            "sequential": ["sequential"] + common + chains,
            "disturbance": ["disturbance"] + common,
            "meter-sweep": ["meter-sweep"] + common + meters,
            "montecarlo": ["montecarlo"] + common + meters
            + ["--n", str(PRESET_MONTECARLO_N), "--seed", str(seed)],
            "oracle": ["oracle"] + common + meters,
        }

    def operations(self):
        checks = {"weak-values": self.check_weak_values}
        return [cli_operation(name, argv, self.workdir, checks.get(name, no_check))
                for name, argv in self.argv.items()]

    @staticmethod
    def check_weak_values(output: bytes):
        table = {(row["arm"], int(row["slice"])): complex(float(row["re"]), float(row["im"]))
                 for row in _value_rows(output)}
        for (arm, k), want in PRESET_WEAK_VALUES.items():
            if (arm, k) not in table:
                raise CheckFailed(f"no weak value for {arm}@{k}")
            _expect_close(f"weak value {arm}@{k}", table[(arm, k)], want, WEAK_VALUE_TOL)

    def summary(self, times):
        return {
            "weak_values_s": (times["weak-values"], "s"),
            "sequential_s": (times["sequential"], "s"),
            "readings_per_s": (4 * PRESET_MONTECARLO_N / times["montecarlo"], "1/s"),
            "oracle_s": (times["oracle"], "s"),
        }


class DenseMeters(Workload):
    """Ten meters on a 6 x 9 layout through the meter and sampling layers."""

    name = "dense-meters"

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        self.experiment = dense_experiment(seed)

    def operations(self):
        exp = self.experiment
        layout = exp.layout
        ids = [m.meter_id for m in exp.meters]
        ctx: dict[str, Any] = {"mixtures": {}}

        def run_coupled():
            ctx["joint"] = meter.run_coupled(exp)
            return ctx["joint"]

        def check_joint(joint):
            if not joint.terms:
                raise CheckFailed("coupled state has no terms")

        def postselect(port):
            def run():
                ctx["mixtures"][port] = meter.postselect(ctx["joint"], port)
                return ctx["mixtures"][port]
            return run

        def check_ports(_):
            total = sum(m.postselection_probability for m in ctx["mixtures"].values())
            _expect_close("sum of port probabilities", total, 1.0, REFERENCE_TOL)

        def moment_table():
            port = richest_port(ctx["mixtures"])
            mix = ctx["mixtures"][port]
            table: dict[Any, Any] = {"port": port}
            for j in ids:
                table[j, "x"] = meter.pointer_mean(mix, j, "x")
                table[j, "p"] = meter.pointer_mean(mix, j, "p")
                table[j, "xx"] = meter.pointer_corr(mix, (j, "x"), (j, "x"))
                table[j, "pp"] = meter.pointer_corr(mix, (j, "p"), (j, "p"))
            for a, i in enumerate(ids):
                for j in ids[a + 1:]:
                    for qi in "xp":
                        for qj in "xp":
                            table[i, j, qi + qj] = meter.pointer_corr(mix, (i, qi), (j, qj))
                    table[i, j, "zeta"] = meter.zeta_corr(mix, i, j)
                    table[i, j, "zeta_direct"] = meter.zeta_corr_direct(mix, i, j)
            ctx["table"] = table
            return table

        def check_table(table):
            for a, i in enumerate(ids):
                for j in ids[a + 1:]:
                    _expect_close(f"zeta_corr({i},{j}) against zeta_corr_direct",
                                  table[i, j, "zeta"], table[i, j, "zeta_direct"],
                                  REFERENCE_TOL)

        def arm_probabilities():
            return [[meter.arm_probability(exp, arm, k) for arm in layout.slices[k]]
                    for k in range(layout.n_slices)]

        def check_arm_probabilities(rows):
            for k, row in enumerate(rows):
                _expect_close(f"sum of arm probabilities at slice {k}", sum(row), 1.0,
                              REFERENCE_TOL)

        def sample():
            mix = ctx["mixtures"][ctx["table"]["port"]]
            plan = sampling.ReadoutPlan(("x",) * len(ids), DENSE_READINGS, self.seed)
            ctx["batch"] = sampling.sample_readings(mix, plan)
            return ctx["batch"]

        def check_batch(batch):
            if batch.readings.shape != (DENSE_READINGS, len(ids)):
                raise CheckFailed(f"readings have shape {batch.readings.shape}")
            if not np.all(np.isfinite(batch.readings)):
                raise CheckFailed("non-finite readings")

        def estimate():
            return sampling.estimate_from_samples([ctx["batch"]])

        def check_estimate(est):
            for j in ids:
                moment = est.singles[(j, "x")]
                z = (moment.value - ctx["table"][j, "x"]) / moment.stderr
                if not abs(z) < cli.Z_LIMIT:
                    raise CheckFailed(f"meter {j} x mean is off by z = {z:.2f}")

        last = layout.ports[-1]
        return (
            [Operation("run_coupled", run_coupled, check_joint)]
            + [Operation(f"postselect:{port}", postselect(port),
                         check_ports if port == last else no_check)
               for port in layout.ports]
            + [
                Operation("moment_table", moment_table, check_table,
                          fingerprint=lambda table: repr(sorted(table.items(), key=repr)).encode()),
                Operation("arm_probabilities", arm_probabilities, check_arm_probabilities,
                          fingerprint=lambda rows: repr(rows).encode()),
                Operation("sample_readings", sample, check_batch,
                          fingerprint=lambda batch: batch.readings.tobytes()),
                Operation("estimate_from_samples", estimate, check_estimate),
            ]
        )

    def summary(self, times):
        return {
            "moment_table_s": (times["moment_table"], "s"),
            "readings_per_s": (DENSE_READINGS / times["sample_readings"], "1/s"),
        }


WORKLOADS: dict[str, type[Workload]] = {
    w.name: w for w in (WideTable, PresetPaper, DenseMeters)
}
