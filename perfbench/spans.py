"""In-memory span recorder for the traced benchmark run.

The recorder wraps public ``tsvfsim`` functions at the module attributes
their callers look up (``tsvf.stage_unitary``, ``cli.weak_value``,
``oracle.pointer_corr``, ...).  Each call becomes a span ``(name, start,
end, parent)``; a span's self time is its duration minus the durations of
its children, which never overlap because the benchmark has one caller.
Untraced runs install nothing.
"""

from __future__ import annotations

import functools
import json
import math
from collections import defaultdict
from pathlib import Path
from time import perf_counter

from tsvfsim import cli, meter, network, oracle, sampling, tsvf


def _joint_terms(rec, args, kwargs, joint):
    rec.maximum("meter.joint_terms", len(joint.terms))


def _mixture_terms(rec, args, kwargs, mixture):
    rec.maximum("meter.mixture_terms", len(mixture.amplitudes))


def _sampled(rec, args, kwargs, batch):
    n = batch.plan.n
    drawn = sampling.BLOCK_SIZE * math.ceil(n / sampling.BLOCK_SIZE)
    rec.add("sampling.readings", n)
    rec.add("sampling.drawn", drawn)
    rec.add("sampling.candidates", round(drawn / batch.acceptance_rate))


def _grid_bytes(rec, args, kwargs, reports):
    experiment = args[0]
    spec = args[2] if len(args) > 2 else kwargs.get("spec")
    spec = spec or oracle.default_grid(experiment)
    arms = max(len(arms) for arms in experiment.layout.slices)
    rec.add("oracle.grid_bytes", arms * spec.points ** len(experiment.meters) * 16)


# (module, attribute, span name, result hook).  Every attribute through
# which some caller reaches a layer's public function is listed, so no
# call escapes its span.
PATCHES = [
    (network, "stage_unitary", "network.stage_unitary", None),
    (network, "propagate", "network.propagate", None),
    (network, "parse_network", "network.parse_network", None),
    (tsvf, "stage_unitary", "network.stage_unitary", None),
    (tsvf, "propagate", "network.propagate", None),
    (tsvf, "forward_state", "tsvf.forward_state", None),
    (tsvf, "backward_state", "tsvf.backward_state", None),
    (tsvf, "postselection_amplitude", "tsvf.postselection_amplitude", None),
    (tsvf, "weak_value", "tsvf.weak_value", None),
    (tsvf, "sequential_weak_value", "tsvf.sequential_weak_value", None),
    (meter, "stage_unitary", "network.stage_unitary", None),
    (meter, "run_coupled", "meter.run_coupled", _joint_terms),
    (meter, "postselect", "meter.postselect", _mixture_terms),
    (meter, "pointer_mean", "meter.pointer_mean", None),
    (meter, "pointer_corr", "meter.pointer_corr", None),
    (meter, "zeta_corr", "meter.zeta_corr", None),
    (meter, "zeta_corr_direct", "meter.zeta_corr_direct", None),
    (meter, "arm_probability", "meter.arm_probability", None),
    (sampling, "sample_readings", "sampling.sample_readings", _sampled),
    (sampling, "estimate_from_samples", "sampling.estimate_from_samples", None),
    (oracle, "stage_unitary", "network.stage_unitary", None),
    (oracle, "run_coupled", "meter.run_coupled", _joint_terms),
    (oracle, "postselect", "meter.postselect", _mixture_terms),
    (oracle, "pointer_mean", "meter.pointer_mean", None),
    (oracle, "pointer_corr", "meter.pointer_corr", None),
    (oracle, "zeta_corr", "meter.zeta_corr", None),
    (oracle, "analytic_arm_probability", "meter.arm_probability", None),
    (oracle, "experiment_reports", "oracle.experiment_reports", _grid_bytes),
    (oracle, "compare", "oracle.compare", None),
    (cli, "main", "cli.main", None),
    (cli, "parse_network", "network.parse_network", None),
    (cli, "weak_value", "tsvf.weak_value", None),
    (cli, "sequential_weak_value", "tsvf.sequential_weak_value", None),
    (cli, "run_coupled", "meter.run_coupled", _joint_terms),
    (cli, "postselect", "meter.postselect", _mixture_terms),
    (cli, "pointer_mean", "meter.pointer_mean", None),
    (cli, "pointer_corr", "meter.pointer_corr", None),
    (cli, "zeta_corr", "meter.zeta_corr", None),
    (cli, "arm_probability", "meter.arm_probability", None),
    (cli, "sample_readings", "sampling.sample_readings", _sampled),
    (cli, "estimate_from_samples", "sampling.estimate_from_samples", None),
    (cli, "experiment_reports", "oracle.experiment_reports", _grid_bytes),
    (cli, "compare", "oracle.compare", None),
]

# The originals, captured when this module is first imported.
ORIGINALS = {(module.__name__, attr): getattr(module, attr)
             for module, attr, _, _ in PATCHES}


def assert_pristine():
    """Raise if any patched attribute is not the original object."""
    for module, attr, _, _ in PATCHES:
        if getattr(module, attr) is not ORIGINALS[(module.__name__, attr)]:
            raise AssertionError(f"{module.__name__}.{attr} is still wrapped")


class Recorder:
    """Spans and counters of one traced pass."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int] | None] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []

    def add(self, name: str, value: float):
        self.counters[name] += value

    def maximum(self, name: str, value: float):
        self.counters[name] = max(self.counters[name], value)

    def wrap(self, name: str, fn, hook=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[sid] = (name, start, end, parent)
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        return wrapper

    def install(self):
        for module, attr, name, hook in PATCHES:
            setattr(module, attr, self.wrap(name, ORIGINALS[(module.__name__, attr)], hook))

    def uninstall(self):
        for module, attr, _, _ in PATCHES:
            setattr(module, attr, ORIGINALS[(module.__name__, attr)])

    def self_times(self) -> list[float]:
        """Self time of every span, in span order."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [end - start - child[i] for i, (_, start, end, _) in enumerate(self.spans)]

    def calls_under(self, name: str, *ancestors: str) -> int:
        """Spans called ``name`` that have an ancestor of every given name."""
        above: list[frozenset] = []
        count = 0
        for span_name, _, _, parent in self.spans:
            seen = above[parent] if parent >= 0 else frozenset()
            if span_name == name and all(a in seen for a in ancestors):
                count += 1
            above.append(seen | {span_name} if span_name in ancestors else seen)
        return count

    def write(self, path: Path, pass_index: int):
        """Append the spans as JSON lines ``[pass, id, parent, name, start, end]``."""
        with open(path, "a") as fh:
            for sid, span in enumerate(self.spans):
                if span is None:  # cut short by an operation time limit
                    continue
                name, start, end, parent = span
                fh.write(json.dumps([pass_index, sid, parent, name, start, end]) + "\n")


# Per-layer metrics: name -> (unit, how it is read from a recorder).
_MOMENTS = ("meter.pointer_mean", "meter.pointer_corr", "meter.zeta_corr",
            "meter.zeta_corr_direct")


def _calls(*names):
    return lambda stats, rec: float(sum(stats[n][0] for n in names))


def _self(*names):
    return lambda stats, rec: sum(stats[n][1] for n in names)


def _counter(name):
    return lambda stats, rec: float(rec.counters[name])


def _per_reading(stats, rec):
    drawn = rec.counters["sampling.drawn"]
    return rec.counters["sampling.candidates"] / drawn if drawn else 0.0


LAYER_METRICS = {
    "network.stage_unitary.calls": ("count", _calls("network.stage_unitary")),
    "network.stage_unitary.self_s": ("s", _self("network.stage_unitary")),
    "network.stage_unitary.calls_per_weak_values_table": (
        "count", lambda stats, rec: float(rec.calls_under(
            "network.stage_unitary", "op:weak-values", "tsvf.weak_value"))),
    "network.propagate.calls": ("count", _calls("network.propagate")),
    "network.propagate.self_s": ("s", _self("network.propagate")),
    "network.parse_network.self_s": ("s", _self("network.parse_network")),
    **{
        f"tsvf.{fn}.{kind}": (unit, read(f"tsvf.{fn}"))
        for fn in ("weak_value", "sequential_weak_value", "forward_state",
                   "backward_state", "postselection_amplitude")
        for kind, unit, read in (("calls", "count", _calls), ("self_s", "s", _self))
    },
    "meter.run_coupled.self_s": ("s", _self("meter.run_coupled")),
    "meter.joint_terms": ("count", _counter("meter.joint_terms")),
    "meter.postselect.self_s": ("s", _self("meter.postselect")),
    "meter.mixture_terms": ("count", _counter("meter.mixture_terms")),
    "meter.moments.calls": ("count", _calls(*_MOMENTS)),
    "meter.moments.self_s": ("s", _self(*_MOMENTS)),
    "meter.arm_probability.calls": ("count", _calls("meter.arm_probability")),
    "meter.arm_probability.self_s": ("s", _self("meter.arm_probability")),
    "sampling.readings": ("count", _counter("sampling.readings")),
    "sampling.candidates": ("count", _counter("sampling.candidates")),
    "sampling.candidates_per_reading": ("ratio", _per_reading),
    "sampling.sample_readings.self_s": ("s", _self("sampling.sample_readings")),
    "sampling.estimate_from_samples.self_s": ("s", _self("sampling.estimate_from_samples")),
    "oracle.experiment_reports.self_s": ("s", _self("oracle.experiment_reports")),
    "oracle.compare.self_s": ("s", _self("oracle.compare")),
    "oracle.grid_bytes": ("B", _counter("oracle.grid_bytes")),
    "cli.main.self_s": ("s", _self("cli.main")),
}


def layer_metrics(rec: Recorder) -> dict[str, float]:
    """Every per-layer metric of one traced pass (``trace.overhead_s`` aside)."""
    stats: dict[str, list[float]] = defaultdict(lambda: [0, 0.0])
    for (name, _, _, _), own in zip(rec.spans, rec.self_times()):
        stats[name][0] += 1
        stats[name][1] += own
    return {metric: read(stats, rec) for metric, (_, read) in LAYER_METRICS.items()}
