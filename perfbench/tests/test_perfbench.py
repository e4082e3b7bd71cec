"""Tests of the benchmark itself: generators, failure counting, spans.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
"""

import json
import math
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import run
import spans
import workloads
from tsvfsim import cli, meter, network

ROOT = Path(__file__).resolve().parents[2]


def test_wide_layout_is_seeded_and_has_the_stated_shape():
    layout = workloads.wide_layout(11)
    assert network.serialize_network(layout) == network.serialize_network(
        workloads.wide_layout(11))
    assert layout != workloads.wide_layout(12)
    assert layout.n_slices == 17
    assert all(arms == layout.slices[0] and len(arms) == 14 for arms in layout.slices)
    assert network.validate_network(layout) == []
    assert workloads.brightest_port(layout) in layout.ports


def test_dense_experiment_is_seeded_with_fixed_counts():
    shapes = set()
    for seed in (0, 1, 2):
        exp = workloads.dense_experiment(seed)
        again = workloads.dense_experiment(seed)
        assert network.serialize_network(exp.layout) == network.serialize_network(again.layout)
        assert exp.meters == again.meters
        layout = exp.layout
        assert layout.n_slices == 9
        assert all(len(arms) == 6 for arms in layout.slices)
        assert len(exp.meters) == 10
        assert {m.slice_index for m in exp.meters} == set(range(1, 8))
        assert all((m.strength, m.sigma) == (0.3, 1.0) for m in exp.meters)
        joint = meter.run_coupled(exp)
        mixtures = {p: meter.postselect(joint, p) for p in layout.ports}
        port = workloads.richest_port(mixtures)
        shapes.add((len(joint.terms), len(mixtures[port].amplitudes),
                    tuple((m.arm, m.slice_index) for m in exp.meters)))
    assert workloads.dense_experiment(0).layout != workloads.dense_experiment(1).layout
    assert len(shapes) == 1
    assert [s[:2] for s in shapes] == [(108, 28)]


def test_same_seed_gives_byte_identical_cli_output(tmp_path):
    outputs = []
    for copy in ("a", "b"):
        workdir = tmp_path / copy
        workdir.mkdir()
        record = run.run_pass(workloads.PresetPaper(4, workdir).operations(), {},
                              time.perf_counter() + 120)
        assert not record.failures
        outputs.append(record.outputs)
    assert len(outputs[0]) == 6 and outputs[0] == outputs[1]


def test_port_rules_break_ties_by_name():
    class Mix:
        def __init__(self, n):
            self.amplitudes = dict.fromkeys(range(n))

    assert workloads.richest_port({"Pb": Mix(3), "Pa": Mix(3), "Pc": Mix(2)}) == "Pa"
    assert workloads.brightest_port(network.nested_mzi_preset()) == "D3"


def _op(name, fn, check=lambda result: None, fingerprint=None):
    return workloads.Operation(name, fn, check, fingerprint)


def _fail():
    raise ValueError("injected")


def _wrong(result):
    raise workloads.CheckFailed("injected")


def test_failed_operations_are_counted():
    far = time.perf_counter() + 60
    ops = [_op("ok", lambda: 1), _op("raises", _fail), _op("after", lambda: 1)]
    record = run.run_pass(ops, {}, far)
    assert record.attempted == 3
    assert [name for name, _ in record.failures] == ["raises", "after"]
    assert list(record.times) == ["ok"]

    record = run.run_pass([_op("wrong", lambda: 1, _wrong)], {}, far)
    assert [name for name, _ in record.failures] == ["wrong"]


def test_nonzero_cli_exit_is_a_failure(tmp_path):
    op = workloads.cli_operation(
        "weak-values", ["weak-values", "--postselect", "NOPE"], tmp_path)
    record = run.run_pass([op], {}, time.perf_counter() + 60)
    assert record.failures == [("weak-values", "check failed: CheckFailed: exit status 2")]


def test_operation_over_its_limit_is_a_failure(monkeypatch):
    monkeypatch.setattr(run, "OPERATION_LIMIT_S", 0.2)
    record = run.run_pass([_op("slow", lambda: time.sleep(5))], {}, time.perf_counter() + 60)
    assert record.stalled
    assert record.failures[0][0] == "slow" and "overran" in record.failures[0][1]


def test_output_that_changes_between_passes_is_a_failure():
    counter = iter(range(10))
    ops = [_op("drifts", lambda: next(counter), fingerprint=lambda r: bytes([r]))]
    fingerprints = {}
    assert not run.run_pass(ops, fingerprints, time.perf_counter() + 60).failures
    second = run.run_pass(ops, fingerprints, time.perf_counter() + 60)
    assert second.failures == [("drifts", "output differs from the first pass")]


def _traced_pass(ops):
    rec = spans.Recorder()
    rec.install()
    try:
        assert cli.weak_value is not spans.ORIGINALS[("tsvfsim.cli", "weak_value")]
        start = time.perf_counter()
        record = run.run_pass(ops, {}, time.perf_counter() + 60, rec)
        wall = time.perf_counter() - start
    finally:
        rec.uninstall()
    spans.assert_pristine()
    assert not record.failures
    return rec, wall


def test_self_times_never_exceed_the_traced_wall(tmp_path):
    preset = workloads.PresetPaper(1, tmp_path)
    ops = [op for op in preset.operations() if op.name != "montecarlo"]
    rec, wall = _traced_pass(ops)
    own = rec.self_times()
    assert min(own) > -1e-9
    assert sum(own) <= wall
    roots = [span for span in rec.spans if span[3] == -1]
    assert [name for name, *_ in roots] == [f"op:{op.name}" for op in ops]
    metrics = spans.layer_metrics(rec)
    assert metrics["oracle.grid_bytes"] == 3 * 1025 ** 2 * 16
    assert metrics["meter.mixture_terms"] == 3


def test_weak_values_table_builds_stage_matrices_by_shape_alone(tmp_path):
    # Each of the arms x slices weak values re-propagates to every slice:
    # S (S - 1) stage builds for the amplitude check plus S - 1 for the
    # value itself.  14 x 17 gives 68 544.
    layout = workloads.layered_layout(np.random.Generator(np.random.Philox(key=5)), 4, 5)
    path = tmp_path / "small.net"
    path.write_text(network.serialize_network(layout))
    port = workloads.brightest_port(layout)
    op = workloads.cli_operation(
        "weak-values", ["weak-values", "--network", str(path), "--postselect", port], tmp_path)
    rec, _ = _traced_pass([op])
    slices = layout.n_slices
    expected = 4 * slices * (slices * (slices - 1) + slices - 1)
    assert spans.layer_metrics(rec)["network.stage_unitary.calls_per_weak_values_table"] \
        == expected
    assert 14 * 17 * (17 * 16 + 16) == 68_544


def test_untraced_passes_install_nothing(tmp_path):
    dense = workloads.DenseMeters(0, tmp_path)
    ops = [op for op in dense.operations() if op.name != "moment_table"][:7]
    record = run.run_pass(ops, {}, time.perf_counter() + 60)
    assert not record.failures
    spans.assert_pristine()


def test_speed_probe_rescales_to_the_reference_and_restores_sigprof(tmp_path):
    import hostspeed

    before = signal.getsignal(signal.SIGPROF)
    ops = [_op("spin", lambda: sum(i * i for i in range(300_000)))]
    with hostspeed.SpeedProbe() as probe:
        record = run.run_pass(ops, {}, time.perf_counter() + 60, probe=probe)
    assert signal.getsignal(signal.SIGPROF) is before
    start, end = record.probes["spin"]
    assert end > start and len(probe.samples) == len(probe.costs) == end
    assert all(cost >= sample for cost, sample in zip(probe.costs, probe.samples))
    speed = probe.mean(start, end)
    assert run.reference_times(record, probe)["spin"] == pytest.approx(
        record.times["spin"] * hostspeed.REFERENCE_PROBE_S / speed)
    assert hostspeed.at_reference(2.0, 2 * hostspeed.REFERENCE_PROBE_S) == 1.0


def test_speed_probe_widens_short_windows():
    import hostspeed

    probe = hostspeed.SpeedProbe()
    probe.samples = [1.0] * 100 + [3.0] * 100
    assert probe.mean(99, 101) == 2.0  # 50 probes centred on the boundary
    assert probe.mean(0, 0) == 1.0
    assert probe.mean(200, 200) == 3.0
    assert probe.mean(0, 200) == 2.0


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    layers = {name: unit for name, (unit, _) in spans.LAYER_METRICS.items()}
    layers["trace.overhead_s"] = "s"
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert set(run.WORKLOAD_NAMES) == set(workloads.WORKLOADS)


def test_end_to_end_run_prints_one_result_line(tmp_path):
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "preset-paper", "--seed", "2",
         "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] == 18
    assert set(result["metrics"]) == set(run.END_TO_END)
    assert all(m["value"] > 0 and math.isfinite(m["value"])
               for m in result["metrics"].values())


def test_run_without_sources_fails_without_a_result(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "wide-table", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert done.returncode != 0
    assert done.stdout == ""
