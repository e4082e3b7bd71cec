"""Command-line front end.

Six subcommands, each emitting one flat table as CSV (default) or JSON::

    tsvfsim weak-values  [--network ...] [--postselect D2]
    tsvfsim sequential   --chain B@2,E@3 [--chain C@2,E@3 ...]
    tsvfsim disturbance  [--sweep 0.05:0.5:0.05] [--probe E@3]
    tsvfsim meter-sweep  [--sweep 0.4x0.5x6] [--meter C@2 --meter E@3]
    tsvfsim montecarlo   [--n 1000000] [--seed N]
    tsvfsim oracle       [--meter B@2 --meter E@3]   (grid: oracle.default_grid)

Every table starts with a ``kind`` column (``value`` rows report numbers,
``check`` rows report verifications) and ends with a ``pass`` column.  The
process exits 0 only if every non-empty ``pass`` field is true, 1 if some
check failed, and 2 on usage or input errors or when memory runs out.
Output for a fixed seed is byte-identical across runs.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import re
import sys
from contextlib import contextmanager, suppress
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .meter import (
    MIN_COUPLING_PRODUCT,
    QUADRATURE_PAIRS,
    RegisterTooLarge,
    ZeroProbability,
    arm_probability,
    attach_meter,
    estimate_sequential_weak_value,
    estimate_weak_value,
    gaussian_overlap,
    new_experiment,
    pointer_corr,
    pointer_mean,
    postselect,
    run_coupled,
    zeta_corr,
)
from .network import nested_mzi_preset, parse_network
from .oracle import GridTooLarge, GridTooSmall, compare, default_grid, experiment_reports
from .sampling import SamplingBudgetExceeded, estimate_from_samples, readout_plans, sample_readings
from .tsvf import (
    ArmProjector,
    DegeneratePostselection,
    ProjectorChain,
    TwoStateSweep,
    sequential_weak_value,
    weak_value,
)

DEFAULT_SEED = 20260822
SUM_TOL = 1e-10
DISTURBANCE_TOL = 1e-10
SLOPE_TARGET = 2.0
SLOPE_TOL = 0.5
Z_LIMIT = 4.0
MAX_SWEEP_POINTS = 10_000

_METER_RE = re.compile(r"^(?P<arm>\w+)@(?P<slice>\d+)(?::(?P<params>\S+))?$")
_STEP_RE = re.compile(r"^(?P<arm>\w+)@(?P<slice>\d+)$")


class CliError(Exception):
    """Input or scenario problem; reported on stderr with exit status 2."""


@contextmanager
def _input(label: str | None = None):
    """Re-raise a ``ValueError`` from the block as a ``CliError`` prefixed by ``label``."""
    try:
        yield
    except ValueError as exc:
        raise CliError(f"{label}: {exc}" if label else str(exc)) from exc


@dataclass(frozen=True)
class MeterSpec:
    arm: str
    slice_index: int
    strength: float
    sigma: float

    def label(self) -> str:
        return f"{self.arm}@{self.slice_index}"


def parse_meter_spec(text: str) -> MeterSpec:
    """``arm@slice[:g=V,sigma=V]``; g defaults to 0.3, sigma to 1.0."""
    match = _METER_RE.match(text.strip())
    if not match:
        raise CliError(f"bad meter spec {text!r} (want arm@slice[:g=V,sigma=V])")
    params = {}
    if match["params"]:
        for item in match["params"].split(","):
            key, eq, value = item.partition("=")
            if not eq:
                raise CliError(f"bad meter parameter {item!r} in {text!r}")
            try:
                number = float(value)
            except ValueError:
                raise CliError(f"bad number {value!r} in meter spec {text!r}") from None
            if key not in ("g", "sigma"):
                raise CliError(f"unknown meter parameter {key!r} in {text!r}")
            if key in params:
                raise CliError(f"duplicate meter parameter {key!r} in {text!r}")
            params[key] = number
    return MeterSpec(match["arm"], int(match["slice"]), params.get("g", 0.3),
                     params.get("sigma", 1.0))


def parse_chain_spec(text: str) -> tuple[tuple[str, int], ...]:
    """``B@2,E@3`` -> (("B", 2), ("E", 3))."""
    steps = []
    for item in text.split(","):
        match = _STEP_RE.match(item.strip())
        if not match:
            raise CliError(f"bad chain step {item!r} in {text!r} (want arm@slice)")
        steps.append((match["arm"], int(match["slice"])))
    return tuple(steps)


def parse_sweep_spec(text: str) -> tuple[float, ...]:
    """Coupling sweep: ``a,b,c`` list, ``start:stop:step`` inclusive range,
    or ``startxfactorxcount`` geometric ladder; at most MAX_SWEEP_POINTS values."""
    text = text.strip()
    try:
        if "x" in text:
            start_s, factor_s, count_s = text.split("x")
            start, factor, count = float(start_s), float(factor_s), int(count_s)
            if count < 1 or start <= 0 or factor <= 0:
                raise ValueError
            points = (_ladder_point(start, factor, k) for k in range(count))
        elif ":" in text:
            start_s, stop_s, step_s = text.split(":")
            start, stop, step = float(start_s), float(stop_s), float(step_s)
            if step <= 0 or stop < start:
                raise ValueError
            count = int(math.floor((stop - start) / step + 1e-9)) + 1
            points = (start + k * step for k in range(count))
        else:
            points = text.split(",")
            count = len(points)
        if count > MAX_SWEEP_POINTS:
            raise CliError(f"sweep spec {text!r} has {count} points (at most {MAX_SWEEP_POINTS})")
        if "x" in text and math.isfinite(start) and math.isfinite(factor):
            if not 0 < _ladder_point(start, factor, count - 1) < math.inf:
                raise CliError(f"sweep spec {text!r} leaves the float range at its last point")
        values = tuple(float(v) for v in points)
    except (ValueError, TypeError, OverflowError):
        raise CliError(
            f"bad sweep spec {text!r} (want a,b,c or start:stop:step or startxfactorxcount)"
        ) from None
    if not values or not all(0 < v < math.inf for v in values):
        raise CliError("sweep values must be positive and finite")
    return values


def _ladder_point(start: float, factor: float, k: int) -> float:
    """``start * factor ** k``, split at ``k // 2`` where the power alone leaves the float range."""
    with suppress(OverflowError):
        if k < 2 or factor ** k > 0:
            return start * factor ** k
    return _ladder_point(_ladder_point(start, factor, k // 2), factor, k - k // 2)


# ----------------------------------------------------------------------
# Scenario assembly


def load_layout(spec: str):
    if spec == "nested-mzi":
        return nested_mzi_preset()
    path = Path(spec)
    if not path.exists():
        raise CliError(f"network {spec!r} is neither a preset name nor a file")
    try:
        with _input(spec):
            return parse_network(path.read_text())
    except OSError as exc:
        raise CliError(f"cannot read network {spec!r}: {exc}") from exc


def build_experiment(layout, meter_specs: list[MeterSpec]):
    exp = new_experiment(layout)
    for m in meter_specs:
        with _input(f"meter {m.label()}"):
            exp = attach_meter(exp, m.arm, m.slice_index, m.strength, m.sigma)
    return exp


def pick_port(layout, requested: str | None) -> str:
    if requested is not None:
        if requested not in layout.ports:
            raise CliError(
                f"unknown port {requested!r} (this network has: {', '.join(layout.ports)})"
            )
        return requested
    if "D2" in layout.ports:
        return "D2"
    raise CliError(
        f"choose a detector port with --postselect (one of: {', '.join(layout.ports)})"
    )


# ----------------------------------------------------------------------
# Subcommands: each returns (columns, rows of the cells it fills, meta)


def cmd_weak_values(layout, port):
    columns = ("kind", "arm", "slice", "re", "im", "pass")
    sweep = TwoStateSweep.build(layout, port)
    rows = []
    for k, arms in enumerate(layout.slices):
        total = 0.0 + 0.0j
        for arm, value in zip(arms, sweep.weak_values(k)):
            total += value
            rows.append({"kind": "value", "arm": arm, "slice": k,
                         "re": value.real, "im": value.imag})
        rows.append({"kind": "check", "arm": "sum", "slice": k,
                     "re": total.real, "im": total.imag,
                     "pass": abs(total - 1.0) < SUM_TOL})
    return columns, rows, {"port": port}


def cmd_sequential(layout, port, chain_specs: list[tuple[tuple[str, int], ...]]):
    columns = ("kind", "chain", "re", "im", "pass")
    sweep = TwoStateSweep.build(layout, port)
    declared: dict[tuple[tuple[str, int], ...], complex] = {}
    rows = []
    for steps in chain_specs:
        if steps in declared:
            continue
        try:
            for arm, k in steps:
                layout.arm_index(k, arm)
            chain = ProjectorChain.of(*steps)
        except ValueError as exc:
            raise CliError(f"chain {_chain_label(steps)}: {exc}") from exc
        declared[steps] = sweep.sequential_weak_value(chain).value
    for steps, value in declared.items():
        rows.append({"kind": "value", "chain": _chain_label(steps),
                     "re": value.real, "im": value.imag})
    # Marginal checks: wherever the declared chains differ only in the arm
    # at one slot, all on the same slice, and jointly cover every arm of
    # that slice, their sum must equal the chain with that slot removed.
    groups: dict[tuple, list[tuple[tuple[str, int], ...]]] = {}
    for steps in declared:
        for i, (_, slice_index) in enumerate(steps):
            groups.setdefault((steps[:i], slice_index, steps[i + 1:]), []).append(steps)
    for (head, slice_index, tail), group in groups.items():
        if {s[len(head)][0] for s in group} != set(layout.slices[slice_index]):
            continue
        total = sum(declared[s] for s in group)
        reference = (sweep.sequential_weak_value(ProjectorChain.of(*head, *tail)).value
                     if head + tail else 1.0 + 0.0j)
        rows.append({"kind": "check", "chain": _chain_label(head + (("*", slice_index),) + tail),
                     "re": total.real, "im": total.imag,
                     "pass": abs(total - reference) < SUM_TOL})
    return columns, rows, {"port": port}


def _chain_label(steps) -> str:
    return ">".join(f"{arm}@{k}" for arm, k in steps)


def cmd_disturbance(layout, port, meter: MeterSpec, probe: tuple[str, int],
                    sweep: tuple[float, ...]):
    columns = ("kind", "g", "p_probe", "p_port", "closed_form", "deviation", "pass")
    probe_arm, probe_slice = probe
    with _input(f"probe {probe_arm}@{probe_slice}"):
        layout.arm_index(probe_slice, probe_arm)
    base = build_experiment(layout, [replace(meter, strength=0.0)])
    p_unperturbed = arm_probability(base, probe_arm, probe_slice)
    # P(g) = |m|^2 + |c|^2 + 2 O(g) Re(conj(m) c); c crossed the meter, m missed it
    missed, crossed = TwoStateSweep.build(layout, port).split_amplitudes(
        meter.arm, meter.slice_index, probe_arm, probe_slice)
    rows = []
    for g in sweep:
        exp = build_experiment(layout, [replace(meter, strength=g)])
        p_probe = arm_probability(exp, probe_arm, probe_slice)
        p_port = arm_probability(exp, layout.port_arm(port), layout.final_slice)
        closed = (abs(missed) ** 2 + abs(crossed) ** 2 + 2.0
                  * gaussian_overlap(0.0, g, meter.sigma) * (missed.conjugate() * crossed).real)
        rows.append({"kind": "value", "g": g, "p_probe": p_probe, "p_port": p_port,
                     "closed_form": closed, "deviation": abs(p_probe - closed),
                     "pass": abs(p_probe - closed) < DISTURBANCE_TOL})
    # a single coupling scales every downstream coherence by the same
    # pointer overlap, so the shift away from the g=0 value must grow
    # with the coupling no matter which arm is probed
    deviations = [abs(r["p_probe"] - p_unperturbed) for r in sorted(rows, key=lambda r: r["g"])]
    grows = all(b - a > -1e-12 for a, b in zip(deviations, deviations[1:]))
    rows.append({"kind": "check", "g": "monotone", "pass": grows})
    return columns, rows, {"port": port, "meter": meter.label(),
                           "probe": f"{probe_arm}@{probe_slice}",
                           "sigma": meter.sigma}


def cmd_meter_sweep(layout, port, meters: list[MeterSpec], sweep: tuple[float, ...]):
    distinct = len(set(sweep))  # the slope fit needs 4 different couplings
    if distinct < 4:
        repeats = "" if distinct == len(sweep) else f" ({distinct} distinct)"
        raise CliError(f"meter-sweep needs at least 4 sweep points, got {len(sweep)}{repeats}")
    if min(sweep) < MIN_COUPLING_PRODUCT:  # the estimator's rule
        raise CliError(f"weak-value estimates need couplings of at least {MIN_COUPLING_PRODUCT:g}")
    build_experiment(layout, meters)  # every meter's reference, strength and width
    columns = ("kind", "g", "single_re", "single_im", "single_err",
               "seq_re", "seq_im", "seq_err", "pass")
    steps = tuple((m.arm, m.slice_index) for m in meters[:2])
    estimators = [("single", weak_value(layout, port, ArmProjector(*steps[0])).value,
                   lambda mixture: estimate_weak_value(mixture, 0))]
    if len(steps) == 2:
        with _input(f"meters {steps} do not form a chain"):
            seq_exact = sequential_weak_value(layout, port, ProjectorChain.of(*steps)).value
        if min(sweep) * min(sweep) < MIN_COUPLING_PRODUCT:  # every meter takes each g
            raise CliError("sequential estimate needs both couplings nonzero")
        estimators.append(("seq", seq_exact,
                           lambda mixture: estimate_sequential_weak_value(mixture, 0, 1)))
    rows = []
    for g in sweep:
        specs = [replace(m, strength=g) for m in meters]
        mixture = postselect(run_coupled(build_experiment(layout, specs)), port)
        row = {"kind": "value", "g": g}
        for name, exact, estimate in estimators:
            value = estimate(mixture)
            row[f"{name}_re"], row[f"{name}_im"] = value.real, value.imag
            row[f"{name}_err"] = abs(value - exact)
        rows.append(row)
    slopes = [_slope_row(name, sweep, [row[f"{name}_err"] for row in rows])
              for name, _, _ in estimators]
    meta = {"port": port, "meters": [m.label() for m in meters],
            **{f"{name}_exact": [exact.real, exact.imag] for name, exact, _ in estimators}}
    return columns, rows + slopes, meta


def _slope_row(name: str, sweep, errs) -> dict:
    row = {"kind": "check", "g": f"slope_{name}"}
    # An estimator that is exact at every g has nothing to fit.
    if min(errs) > 1e-13:
        slope = float(np.polyfit(np.log(sweep), np.log(errs), 1)[0])
        row[f"{name}_err"] = slope
        row["pass"] = abs(slope - SLOPE_TARGET) <= SLOPE_TOL
    return row


def cmd_montecarlo(layout, port, meters: list[MeterSpec], n: int, seed: int):
    with _input():
        plans = readout_plans(n, seed)
    if len(meters) != 2:
        raise CliError("montecarlo needs exactly two --meter specs")
    g = meters[0].strength * meters[1].strength
    if abs(g) < MIN_COUPLING_PRODUCT:  # the estimator's rule
        raise CliError("sequential estimate needs both couplings nonzero")
    columns = ("kind", "quantity", "estimate", "stderr", "exact", "z", "pass")
    mixture = postselect(run_coupled(build_experiment(layout, meters)), port)
    est = estimate_from_samples(sample_readings(mixture, plan) for plan in plans)
    rows = []

    def check(quantity, estimate, stderr, exact):
        # an error that is not finite (one reading per batch) tests nothing
        z = (estimate - exact) / stderr if 0 < stderr < math.inf else math.inf
        rows.append({"kind": "value", "quantity": quantity,
                     "estimate": estimate, "stderr": stderr, "exact": exact,
                     "z": z, "pass": abs(z) < Z_LIMIT})

    for (meter_id, quad), moment in sorted(est.singles.items()):
        check(f"m{meter_id}.{quad}_mean", moment.value, moment.stderr,
              pointer_mean(mixture, meter_id, quad))
    ids = [m.meter_id for m in mixture.meters]
    for qa, qb in QUADRATURE_PAIRS:
        moment = est.pair_moments[(qa, qb)]
        check(f"corr.{qa}{ids[0]}_{qb}{ids[1]}", moment.value, moment.stderr,
              pointer_corr(mixture, (ids[0], qa), (ids[1], qb)))
    zeta_exact = zeta_corr(mixture, ids[0], ids[1])
    check("zeta.re", est.zeta.real, est.zeta_stderr[0], zeta_exact.real)
    check("zeta.im", est.zeta.imag, est.zeta_stderr[1], zeta_exact.imag)
    seq_exact = zeta_exact / g  # meter.estimate_sequential_weak_value's operands and order
    check("seq.re", est.sequential.real, est.sequential_stderr[0], seq_exact.real)
    check("seq.im", est.sequential.imag, est.sequential_stderr[1], seq_exact.imag)
    meta = {
        "port": port,
        "n": n,
        "seed": seed,
        "postselection_probability": mixture.postselection_probability,
        "acceptance_rates": {"".join(q): rate for q, rate in est.acceptance_rates.items()},
    }
    return columns, rows, meta


def cmd_oracle(layout, port, meters: list[MeterSpec]):
    columns = ("kind", "name", "analytic", "grid", "abs_dev", "tol", "pass")
    exp = build_experiment(layout, meters)
    spec = default_grid(exp)
    analytic, grid = experiment_reports(exp, port, spec)
    table = compare(analytic, grid)
    rows = [
        {"kind": "value", "name": r.name, "analytic": r.analytic, "grid": r.grid,
         "abs_dev": r.abs_dev, "tol": r.tol, "pass": r.passed}
        for r in table.rows
    ]
    meta = {"port": port, "half_width": spec.half_width, "points": spec.points,
            "meters": [m.label() for m in meters]}
    return columns, rows, meta


# ----------------------------------------------------------------------
# Output


def _plain(value):
    """Strip numpy scalar wrappers so JSON renders builtins only; JSON has no
    number for a non-finite float, so it becomes its CSV text ('inf', '-inf', 'nan')."""
    if isinstance(value, float):
        return float(value) if math.isfinite(value) else repr(float(value))
    return bool(value) if isinstance(value, np.bool_) else value


def _cell(value) -> str:
    """One CSV field: a float (numpy's too) as its repr, a bool as true/false, None empty."""
    if isinstance(value, float):
        return repr(float(value))
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    return "" if value is None else str(value)


def render_csv(columns, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([_cell(row.get(c)) for c in columns])
    return buf.getvalue()


def render_json(command, columns, rows, meta, all_pass) -> str:
    payload = {
        "command": command,
        "meta": meta,
        "columns": list(columns),
        "rows": rows,
        "all_pass": all_pass,
    }
    return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"


# ----------------------------------------------------------------------
# Argument handling


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--network", metavar="SPEC", default="nested-mzi",
                        help="'nested-mzi' (default) or path to a network file")
    common.add_argument("--postselect", metavar="PORT",
                        help="detector port to condition on (preset default: D2)")
    common.add_argument("--format", choices=("csv", "json"), default="csv", dest="fmt")
    common.add_argument("--out", metavar="PATH", help="write output here instead of stdout")

    parser = argparse.ArgumentParser(
        prog="tsvfsim",
        description="Two-boundary interferometer analysis from the command line.",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def metered(name, summary):  # a subcommand that attaches pointer meters
        p = sub.add_parser(name, parents=[common], help=summary, allow_abbrev=False)
        p.add_argument("--meter", metavar="ARM@SLICE[:g=V,sigma=V]", action="append",
                       dest="meters", help="attach a pointer meter; repeatable")
        return p

    sub.add_parser("weak-values", parents=[common], allow_abbrev=False,
                   help="weak value of every arm projector at every slice")
    p = sub.add_parser("sequential", parents=[common], allow_abbrev=False,
                       help="sequential weak values of projector chains")
    p.add_argument("--chain", metavar="A@K,B@L,...", action="append",
                   dest="chains", help="projector chain; repeatable")
    p = metered("disturbance", "probe-arm probability vs coupling strength")
    p.add_argument("--sweep", metavar="SPEC", default="0.05:0.5:0.05", help="coupling sweep")
    p.add_argument("--probe", metavar="ARM@SLICE", default="E@3",
                   help="arm whose probability to track")
    p = metered("meter-sweep", "estimator error vs coupling strength")
    p.add_argument("--sweep", metavar="SPEC", default="0.4x0.5x6",
                   help="coupling sweep (>= 4 points)")
    p = metered("montecarlo", "sampled readout vs closed-form moments")
    p.add_argument("--n", type=int, default=1_000_000,
                   help="readings per quadrature combination")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED, help="RNG seed")
    metered("oracle", "closed-form route vs grid route")
    return parser


def run(args) -> tuple[tuple, list, dict]:
    layout = load_layout(args.network)
    port = pick_port(layout, args.postselect)
    if args.command == "weak-values":
        return cmd_weak_values(layout, port)
    if args.command == "sequential":
        chains = [parse_chain_spec(t) for t in args.chains or ["B@2,E@3"]]
        return cmd_sequential(layout, port, chains)
    # argparse appends --meter and --chain to a non-empty default, so a
    # subcommand run without them takes its default list here
    default_meters = {"disturbance": ["B@2:g=0"], "meter-sweep": ["C@2:g=0", "E@3:g=0"],
                      "montecarlo": ["B@2", "E@3"], "oracle": ["B@2", "E@3"]}
    meters = [parse_meter_spec(t) for t in args.meters or default_meters[args.command]]
    if args.command == "disturbance":
        sweep = parse_sweep_spec(args.sweep)
        if len(meters) > 1:
            raise CliError("disturbance tracks a single meter")
        meter = meters[0]
        try:
            (probe,) = parse_chain_spec(args.probe)
        except (CliError, ValueError):
            raise CliError(f"bad probe {args.probe!r} (want arm@slice)") from None
        return cmd_disturbance(layout, port, meter, probe, sweep)
    if args.command == "meter-sweep":
        return cmd_meter_sweep(layout, port, meters, parse_sweep_spec(args.sweep))
    if args.command == "montecarlo":
        return cmd_montecarlo(layout, port, meters, args.n, args.seed)
    return cmd_oracle(layout, port, meters)  # argparse allows no other command


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        columns, rows, meta = run(args)
    except (CliError, DegeneratePostselection, ZeroProbability, RegisterTooLarge,
            SamplingBudgetExceeded, GridTooSmall, GridTooLarge, MemoryError) as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2
    all_pass = all(row["pass"] for row in rows if row.get("pass") is not None)
    if args.fmt == "csv":
        text = render_csv(columns, rows)
    else:
        # every row gets every column; a cell its command left unfilled is None
        rows = [{c: _plain(row.get(c)) for c in columns} for row in rows]
        text = render_json(args.command, columns, rows, meta, all_pass)
    if args.out:
        try:
            Path(args.out).write_text(text)
        except OSError as exc:
            print(f"error: cannot write output {args.out!r}: {exc}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)
    return 0 if all_pass else 1


if __name__ == "__main__":
    raise SystemExit(main())
