"""tsvfsim benchmark: seeded workloads, checked outputs, end-to-end and per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload wide-table --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40

One process acts as a closed-loop client with one caller: each operation
starts when the previous one returns.  Passes of the workload's operation
list repeat until ``--seconds`` is used up, at least three times, and
every pass's output must match the first pass's byte for byte.

The host is a share of a machine whose speed drifts by a third or more
over seconds to minutes.  So the result line gives times at a fixed
reference speed of the host (``hostspeed.py``): ``pass_s`` is the median
over passes of the pass time so rescaled, and ``setup_s`` the median of
set-up samples taken before the first pass and after every pass.  The raw
median pass time is printed above the result line as ``wall_s``.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
traced and untraced passes after an untraced warm-up, prints the per-layer
metrics and writes the spans to ``.perfbench/spans-<workload>-seed<N>.jsonl``.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--workload all``
runs every workload, both ways, in fresh processes.
"""

from __future__ import annotations

import os

# One BLAS thread: the host has two CPUs and the client is a single caller.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import hostspeed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

OPERATION_LIMIT_S = 60.0
RUN_LIMIT_S = 150.0
MIN_PASSES = 3
SETUP_REPEATS = 3  # set-ups before the first pass; one more follows every pass
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); "
    "import tsvfsim.cli, tsvfsim.oracle, tsvfsim.sampling; "
    "print(time.perf_counter() - t)"
)

WORKLOAD_NAMES = ("wide-table", "preset-paper", "dense-meters")
END_TO_END = {"setup_s": "s", "pass_s": "s", "peak_rss_mb": "MiB"}


class OperationTimeout(Exception):
    """An operation ran past its time limit."""


def _on_alarm(signum, frame):
    raise OperationTimeout


@dataclass
class PassRecord:
    """Timings and failures of one pass over the operation list."""

    times: dict[str, float] = field(default_factory=dict)
    failures: list[tuple[str, str]] = field(default_factory=list)
    attempted: int = 0
    outputs: list[bytes] = field(default_factory=list)
    stalled: bool = False
    probes: dict[str, tuple[int, int]] = field(default_factory=dict)

    @property
    def wall(self) -> float:
        return sum(self.times.values())


def run_pass(ops, fingerprints: dict[str, bytes], deadline: float,
             recorder=None, probe=None) -> PassRecord:
    """Run each operation once, in order, timing only the call itself.

    With a :class:`hostspeed.SpeedProbe`, the probe's own time is taken out
    of each operation's, and the span of probes taken during it is kept.

    A failed operation ends the pass; the operations after it count as
    attempted and failed, since they depend on its result.
    """
    record = PassRecord(attempted=len(ops))
    signal.signal(signal.SIGALRM, _on_alarm)
    for i, op in enumerate(ops):
        limit = min(OPERATION_LIMIT_S, deadline - time.perf_counter())
        if limit <= 0:
            record.failures += [(o.name, "not started: run time limit reached")
                                for o in ops[i:]]
            record.stalled = True
            break
        call = op.run if recorder is None else recorder.wrap(f"op:{op.name}", op.run)
        failure = None
        try:
            signal.setitimer(signal.ITIMER_REAL, limit)
            try:
                mark = probe.mark() if probe is not None else 0
                start = time.perf_counter()
                result = call()
                elapsed = time.perf_counter() - start
                if probe is not None:
                    record.probes[op.name] = mark, probe.mark()
                    elapsed -= probe.own_time(mark, probe.mark())
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
        except OperationTimeout:
            failure = f"overran its {limit:.0f} s limit"
            record.stalled = True
        except Exception as exc:  # a raising operation is a counted failure
            failure = f"raised {type(exc).__name__}: {exc}"
        if failure is None:
            try:
                op.check(result)
                if op.fingerprint is not None:
                    fp = op.fingerprint(result)
                    if fingerprints.setdefault(op.name, fp) != fp:
                        failure = "output differs from the first pass"
                    record.outputs.append(fp)
            except Exception as exc:  # a wrong output is a counted failure
                failure = f"check failed: {type(exc).__name__}: {exc}"
        if failure is not None:
            record.failures.append((op.name, failure))
            record.failures += [(o.name, "not run after an earlier failure")
                                for o in ops[i + 1:]]
            break
        record.times[op.name] = elapsed
    return record


def run_passes(workload, seconds: float, deadline: float, min_passes: int,
               run_one) -> list[PassRecord]:
    """Closed loop: repeat passes while another typical pass fits in ``seconds``.

    ``run_one(index, ops)`` runs pass number ``index`` and returns its record.
    """
    records: list[PassRecord] = []
    start = time.perf_counter()
    while time.perf_counter() < deadline:
        if len(records) >= min_passes:
            typical = statistics.median(r.wall for r in records)
            if time.perf_counter() - start + typical > seconds:
                break
        records.append(run_one(len(records), workload.operations()))
        if records[-1].stalled:
            break
    return records


def clean_records(records: list[PassRecord]) -> list[PassRecord]:
    """The passes without failures (all passes if none is clean)."""
    return [r for r in records if not r.failures] or records


def clean_walls(records: list[PassRecord]) -> list[float]:
    return [r.wall for r in clean_records(records)]


def reference_times(record: PassRecord, probe) -> dict[str, float]:
    """The pass's operation times at the reference speed of the host."""
    return {name: hostspeed.at_reference(t, probe.mean(*record.probes[name]))
            for name, t in record.times.items()}


def per_operation(passes: list[dict[str, float]], reduce) -> dict[str, float]:
    names = {name for times in passes for name in times}
    return {name: reduce([times[name] for times in passes if name in times])
            for name in names}


def import_seconds() -> float:
    """Import time of the package in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env,
                          capture_output=True, text=True, timeout=60, check=True)
    return float(done.stdout)


class SetupTimer:
    """Set-up samples: a fresh-interpreter import plus an input build, at
    the reference speed of the host measured just before and after.

    A few are taken before the first pass and one after every pass, so
    that their median spans the whole run rather than a few seconds of it.
    """

    def __init__(self, cls, seed: int, workdir: Path):
        self.cls, self.seed, self.workdir = cls, seed, workdir
        self.samples: list[float] = []

    def sample(self):
        before = hostspeed.burst()
        imported = import_seconds()
        start = time.perf_counter()
        workload = self.cls(self.seed, self.workdir)
        took = imported + time.perf_counter() - start
        speed = (before + hostspeed.burst()) / 2
        self.samples.append(hostspeed.at_reference(took, speed))
        return workload

    def median(self) -> float:
        return statistics.median(self.samples)


def report_failures(records: list[PassRecord]):
    for n, record in enumerate(records):
        for name, reason in record.failures:
            print(f"pass {n}: {name}: {reason}", file=sys.stderr)


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run_workload(name: str, seed: int, seconds: int, trace: bool) -> dict:
    import spans
    import workloads

    deadline = time.perf_counter() + RUN_LIMIT_S
    workdir = OUT / f"work-{name}-seed{seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        cls = workloads.WORKLOADS[name]
        if trace:
            return traced_result(cls(seed, workdir), seconds, deadline)
        setup = SetupTimer(cls, seed, workdir)
        for _ in range(SETUP_REPEATS):
            workload = setup.sample()
        fingerprints: dict[str, bytes] = {}

        with hostspeed.SpeedProbe() as probe:

            def run_one(index, ops):
                record = run_pass(ops, fingerprints, deadline, probe=probe)
                setup.sample()
                return record

            records = run_passes(workload, seconds, deadline, MIN_PASSES, run_one)
        spans.assert_pristine()
        return untraced_result(workload, records, setup, probe)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def untraced_result(workload, records: list[PassRecord], setup: SetupTimer,
                    probe: hostspeed.SpeedProbe) -> dict:
    clean = clean_records(records)
    at_ref = [reference_times(r, probe) for r in clean]
    attempted = sum(r.attempted for r in records)
    failed = sum(len(r.failures) for r in records)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    digest = hashlib.sha256(b"".join(records[0].outputs)).hexdigest()
    lines = [
        ("setup_s", setup.median(), "s",
         f"median of {len(setup.samples)} import probes + builds, at reference speed"),
        ("pass_s", statistics.median(sum(t.values()) for t in at_ref), "s",
         f"median of {len(clean)} passes, at reference speed"),
        ("peak_rss_mb", peak_mb, "MiB", "this process"),
        ("wall_s", statistics.median(r.wall for r in clean), "s",
         f"median of {len(clean)} passes, as measured"),
        ("fail_ratio", failed / attempted, "failed/attempted",
         f"{failed} of {attempted} operations"),
    ]
    medians = per_operation(at_ref, statistics.median)
    if not failed:
        for key, (value, unit) in workload.summary(medians).items():
            lines.append((key, value, unit, "median of the passes, at reference speed"))
    slowdown = statistics.median(probe.samples) / hostspeed.REFERENCE_PROBE_S
    print(f"{workload.name}  seed {workload.seed}  {len(records)} passes, untraced")
    for key, value, unit, note in lines:
        print(f"  {key:<16} {value:>14.6g} {unit:<16} {note}")
    print("  pass times (s)   " + " ".join(f"{r.wall:.4f}" for r in records))
    print(f"  host speed       median probe at {slowdown:.3f} x the reference time, "
          f"{len(probe.samples)} probes")
    print(f"  output sha256    {digest}")
    report_failures(records)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: metric(value, unit) for key, value, unit, _ in lines
                    if key in END_TO_END},
    }


def traced_result(workload, seconds: float, deadline: float) -> dict:
    """Per-layer metrics from traced passes.

    After one untraced warm-up pass, traced and untraced passes alternate,
    so that both see the same drift of the host's speed.
    """
    import spans

    span_file = OUT / f"spans-{workload.name}-seed{workload.seed}.jsonl"
    span_file.unlink(missing_ok=True)
    fingerprints: dict[str, bytes] = {}
    per_pass: list[dict[str, float]] = []

    def run_one(index, ops):
        if index % 2 == 0:
            record = run_pass(ops, fingerprints, deadline)
            spans.assert_pristine()
            return record
        rec = spans.Recorder()
        rec.install()
        try:
            record = run_pass(ops, fingerprints, deadline, rec)
        finally:
            rec.uninstall()
        spans.assert_pristine()
        rec.write(span_file, index)
        if not record.failures:
            per_pass.append(spans.layer_metrics(rec))
        return record

    records = run_passes(workload, seconds, deadline, MIN_PASSES, run_one)
    untraced = records[2::2] or records[:1]
    traced_records = records[1::2]
    attempted = sum(r.attempted for r in records)
    failed = sum(len(r.failures) for r in records)
    metrics = {}
    repeat = True
    for key, (unit, _) in spans.LAYER_METRICS.items():
        values = [m[key] for m in per_pass] or [0.0]
        if unit == "s":
            metrics[key] = metric(statistics.median(values), unit)
        else:
            repeat = repeat and len(set(values)) == 1
            metrics[key] = metric(values[0], unit)
    overhead = (statistics.median(clean_walls(traced_records) or [0.0])
                - statistics.median(clean_walls(untraced)))
    metrics["trace.overhead_s"] = metric(overhead, "s")
    print(f"{workload.name}  seed {workload.seed}  warm-up + {len(records[2::2])} untraced + "
          f"{len(traced_records)} traced passes; spans in {span_file.relative_to(ROOT)}")
    for key, m in metrics.items():
        print(f"  {key:<44} {m['value']:>14.6g} {m['unit']}")
    if not repeat:
        print("counts differ between traced passes", file=sys.stderr)
    report_failures(records)
    return {"correct": failed == 0 and repeat and bool(per_pass),
            "attempted": attempted, "failed": failed, "metrics": metrics}


def run_all(seed: int, seconds: int) -> dict:
    """Every workload, untraced then traced, each in a fresh process."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        for trace in ("0", "1"):
            done = subprocess.run(
                [sys.executable, __file__, "--workload", name, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", trace],
                capture_output=True, text=True, timeout=RUN_LIMIT_S + 60)
            sys.stderr.write(done.stderr)
            lines = done.stdout.splitlines()
            print("\n".join(lines[:-1]))
            if done.returncode != 0 or not lines:
                raise RuntimeError(f"{name} --trace {trace} exited {done.returncode}")
            result = json.loads(lines[-1])
            combined["correct"] = combined["correct"] and result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            for key, m in result["metrics"].items():
                combined["metrics"][f"{name}/{key}"] = m
    return combined


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # One CPU, so that the speed probe, the import probe and the work share it.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (SRC / "tsvfsim" / "__init__.py").is_file():
        print(f"error: no tsvfsim sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        result = run_all(args.seed, args.seconds)
    else:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
