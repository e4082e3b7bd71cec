"""End-to-end runs of every subcommand through cli.main."""

import csv
import io
import json
import math
import os
import re
import resource
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from layouts import random_layout
from test_properties import dense_chain_value

from tsvfsim import cli, meter, tsvf
from tsvfsim.cli import (
    main,
    build_parser,
    cmd_sequential,
    cmd_weak_values,
    parse_chain_spec,
    parse_meter_spec,
    parse_sweep_spec,
    CliError,
)
from tsvfsim.network import (
    ComponentSpec,
    NetworkLayout,
    Stage,
    beamsplitter,
    nested_mzi_preset,
    serialize_network,
)


def run_cli(*argv, capsys=None):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def rows_of(text):
    return list(csv.DictReader(io.StringIO(text)))


# ---- spec parsers ----


def test_parse_meter_spec():
    m = parse_meter_spec("B@2:g=0.4,sigma=1.5")
    assert (m.arm, m.slice_index, m.strength, m.sigma) == ("B", 2, 0.4, 1.5)
    defaults = parse_meter_spec("E@3")
    assert defaults.strength == 0.3 and defaults.sigma == 1.0
    with pytest.raises(CliError):
        parse_meter_spec("B:g=1")
    with pytest.raises(CliError):
        parse_meter_spec("B@2:gain=1")


def test_parse_chain_spec():
    assert parse_chain_spec("B@2,E@3") == (("B", 2), ("E", 3))
    with pytest.raises(CliError):
        parse_chain_spec("B@two")


def test_parse_sweep_spec():
    assert parse_sweep_spec("0.1,0.2") == (0.1, 0.2)
    assert parse_sweep_spec("0.1:0.3:0.1") == pytest.approx((0.1, 0.2, 0.3))
    assert parse_sweep_spec("0.4x0.5x3") == pytest.approx((0.4, 0.2, 0.1))
    with pytest.raises(CliError):
        parse_sweep_spec("0.1,-0.2")
    with pytest.raises(CliError):
        parse_sweep_spec("nope")
    for spec in ("nan", "inf", "0.1:inf:0.1", "0.1xinfx5",
                 "0.4x0.5x100000000", "0.1:1e10:1e-10", "0.4x0.5x10000", "0.4x2x2000"):
        with pytest.raises(CliError):
            parse_sweep_spec(spec)


# ---- subcommands ----


def test_weak_values_table(capsys):
    code, out, _ = run_cli("weak-values", capsys=capsys)
    assert code == 0
    rows = rows_of(out)
    assert list(rows[0]) == ["kind", "arm", "slice", "re", "im", "pass"]
    by_key = {(r["arm"], r["slice"]): r for r in rows if r["kind"] == "value"}
    assert float(by_key[("B", "2")]["re"]) == pytest.approx(0.5, abs=1e-12)
    assert float(by_key[("C", "2")]["re"]) == pytest.approx(-0.5, abs=1e-12)
    assert float(by_key[("E", "3")]["re"]) == 0.0
    checks = [r for r in rows if r["kind"] == "check"]
    assert len(checks) == 5  # one sum rule per slice
    assert all(r["pass"] == "true" for r in checks)


def test_sequential_with_marginal_check(capsys):
    code, out, _ = run_cli(
        "sequential",
        "--chain", "B@2,E@3", "--chain", "C@2,E@3", "--chain", "N@2,E@3",
        capsys=capsys,
    )
    assert code == 0
    rows = rows_of(out)
    values = {r["chain"]: complex(float(r["re"]), float(r["im"]))
              for r in rows if r["kind"] == "value"}
    assert values["B@2>E@3"] == pytest.approx(0.5, abs=1e-12)
    assert values["C@2>E@3"] == pytest.approx(-0.5, abs=1e-12)
    checks = [r for r in rows if r["kind"] == "check"]
    assert any(r["chain"] == "*@2>E@3" and r["pass"] == "true" for r in checks)


def test_sequential_marginal_groups_chains_by_slice(capsys):
    # N@2>N@3 has the same suffix as the slice-1 chains but must not join
    # their group: the slice-1 arms N and D sum to the N@3 weak value, 1.
    code, out, _ = run_cli(
        "sequential",
        "--chain", "N@1,N@3", "--chain", "N@2,N@3", "--chain", "D@1,N@3",
        capsys=capsys,
    )
    assert code == 0
    checks = {r["chain"]: r for r in rows_of(out) if r["kind"] == "check"}
    assert set(checks) == {"*@1>N@3"}
    assert float(checks["*@1>N@3"]["re"]) == pytest.approx(1.0, abs=1e-12)
    assert checks["*@1>N@3"]["pass"] == "true"


@pytest.mark.parametrize("argv", [
    ("sequential", "--chain", "Z@2,E@3"),
    ("sequential", "--chain", "B@9"),
    ("meter-sweep", "--meter", "Z@2"),
    ("disturbance", "--probe", "Z@3"),
    ("disturbance", "--probe", "E@9"),
])
def test_unknown_arm_or_slice_reference_exits_2(argv, capsys):
    code, _, err = run_cli(*argv, capsys=capsys)
    assert code == 2
    assert err.startswith("error: ")


def test_sequential_chain_given_twice_yields_one_row(capsys):
    code, out, _ = run_cli("sequential", "--chain", "B@2,E@3", "--chain", "B@2,E@3",
                           capsys=capsys)
    assert code == 0
    assert [r["chain"] for r in rows_of(out)] == ["B@2>E@3"]


def test_sequential_no_marginal_without_coverage(capsys):
    code, out, _ = run_cli("sequential", "--chain", "B@2,E@3", capsys=capsys)
    assert code == 0
    rows = rows_of(out)
    assert all(r["kind"] == "value" for r in rows)


def test_disturbance_closed_form_and_monotonicity(capsys):
    code, out, _ = run_cli("disturbance", "--sweep", "0.1,0.2,0.4", capsys=capsys)
    assert code == 0
    rows = rows_of(out)
    values = [r for r in rows if r["kind"] == "value"]
    assert all(r["pass"] == "true" for r in values)
    assert float(values[0]["deviation"]) < 1e-10
    mono = [r for r in rows if r["g"] == "monotone"]
    assert mono and mono[0]["pass"] == "true"


def test_disturbance_off_preset_fills_the_closed_form(capsys):
    code, out, _ = run_cli(
        "disturbance", "--probe", "F@3", "--sweep", "0.1,0.2", capsys=capsys
    )
    assert code == 0
    values = [r for r in rows_of(out) if r["kind"] == "value"]
    assert len(values) == 2
    for r in values:
        assert float(r["closed_form"]) == pytest.approx(float(r["p_probe"]), abs=1e-10)
        assert float(r["deviation"]) < 1e-10 and r["pass"] == "true"


def test_disturbance_law_holds_on_random_layouts():
    # every meter position, probes before, at, just after and at the end of
    # the meter's run, at a weak and a strong coupling
    rows = 0
    for seed in range(20):
        layout = random_layout(seed, 4, 4)
        last = layout.final_slice
        for k, arms in enumerate(layout.slices):
            for arm in arms:
                for l in sorted({k - 1, k, k + 1, last} & set(range(last + 1))):
                    for probe_arm in layout.slices[l]:
                        for g, sigma in ((0.3, 1.0), (2.0, 0.7)):
                            _, table, _ = cli.cmd_disturbance(
                                layout, layout.ports[0], cli.MeterSpec(arm, k, 0.0, sigma),
                                (probe_arm, l), (g,))
                            assert all(r["pass"] for r in table), (seed, arm, k, probe_arm, l, g)
                            rows += 1
    assert rows > 4000


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_serialized_preset_gives_the_preset_disturbance_bytes(fmt, tmp_path, capsys):
    net = tmp_path / "preset.net"
    net.write_text(serialize_network(nested_mzi_preset()))
    by_name = run_cli("disturbance", "--format", fmt, capsys=capsys)
    from_file = run_cli("disturbance", "--network", str(net), "--format", fmt, capsys=capsys)
    assert by_name[0] == 0
    assert from_file == by_name


def test_disturbance_monotone_check_follows_the_coupling_not_the_sweep_order(capsys):
    for spec in ("0.4,0.2,0.1", "0.2,0.1,0.2"):
        code, out, _ = run_cli("disturbance", "--sweep", spec, capsys=capsys)
        assert code == 0
        assert rows_of(out)[-1] == {"kind": "check", "g": "monotone", "p_probe": "",
                                    "p_port": "", "closed_form": "", "deviation": "",
                                    "pass": "true"}


def test_meter_sweep_slopes(capsys):
    code, out, _ = run_cli("meter-sweep", capsys=capsys)
    assert code == 0
    rows = rows_of(out)
    slopes = {r["g"]: r for r in rows if r["kind"] == "check"}
    assert set(slopes) == {"slope_single", "slope_seq"}
    assert float(slopes["slope_single"]["single_err"]) == pytest.approx(2.0, abs=0.5)
    assert float(slopes["slope_seq"]["seq_err"]) == pytest.approx(2.0, abs=0.5)
    assert all(r["pass"] == "true" for r in slopes.values())


def test_meter_sweep_skips_slope_of_exact_estimator(capsys):
    # meter on B estimates 1/2 exactly at every coupling
    code, out, _ = run_cli(
        "meter-sweep", "--meter", "B@2", "--sweep", "0.4x0.5x4", capsys=capsys
    )
    assert code == 0
    rows = rows_of(out)
    slope = next(r for r in rows if r["g"] == "slope_single")
    assert slope["single_err"] == "" and slope["pass"] == ""


def test_meter_sweep_needs_four_points(capsys):
    code, _, err = run_cli("meter-sweep", "--sweep", "0.1,0.2,0.3", capsys=capsys)
    assert code == 2
    assert "4 sweep points" in err


def test_montecarlo_small_run(capsys):
    code, out, _ = run_cli(
        "montecarlo", "--n", "20000", "--seed", "41", capsys=capsys
    )
    assert code == 0
    rows = rows_of(out)
    quantities = {r["quantity"] for r in rows}
    assert {"m0.x_mean", "corr.x0_x1", "zeta.re", "seq.re"} <= quantities
    assert all(abs(float(r["z"])) < 4 for r in rows)


def test_montecarlo_single_reading_fails_every_row(capsys):
    # one reading per batch leaves every standard error infinite: no row is tested
    code, out, err = run_cli("montecarlo", "--n", "1", capsys=capsys)
    assert code == 1 and err == ""
    rows = rows_of(out)
    assert len(rows) == 12
    assert all((r["stderr"], r["z"], r["pass"]) == ("inf", "inf", "false") for r in rows)


def test_json_writes_non_finite_cells_as_their_csv_text(capsys):
    # bare Infinity and NaN are not JSON: a strict parser refuses them
    def refuse(token):
        raise ValueError(f"non-JSON constant {token}")

    code, out, err = run_cli("montecarlo", "--n", "1", "--format", "json", capsys=capsys)
    assert code == 1 and err == ""
    rows = json.loads(out, parse_constant=refuse)["rows"]
    assert len(rows) == 12
    assert all((r["stderr"], r["z"], r["pass"]) == ("inf", "inf", False) for r in rows)


NUMPY_ROWS = [
    {"kind": "value", "name": "a,b", "x": np.float64(0.1), "y": 3, "pass": np.bool_(True)},
    {"kind": "value", "name": "inf", "x": np.float64(np.inf), "y": -math.inf, "pass": True},
    {"kind": "check", "name": "nan", "x": math.nan, "y": None},
    {"kind": "value", "name": "zero", "x": np.float64(-0.0), "y": 1e-300, "pass": None},
]


@pytest.mark.parametrize("failing", [False, True])
def test_csv_cells_of_numpy_scalars_are_pinned(failing, monkeypatch, capsys):
    rows = [dict(row) for row in NUMPY_ROWS]
    rows[0]["pass"] = np.bool_(not failing)
    monkeypatch.setattr(cli, "run", lambda args: (("kind", "name", "x", "y", "pass"), rows, {}))
    code, out, err = run_cli("weak-values", capsys=capsys)
    assert (code, err) == (int(failing), "")
    assert out == (
        "kind,name,x,y,pass\n"
        f'value,"a,b",0.1,3,{str(not failing).lower()}\n'
        "value,inf,inf,-inf,true\n"
        "check,nan,nan,,\n"
        "value,zero,-0.0,1e-300,\n"
    )

    code, out, err = run_cli("weak-values", "--format", "json", capsys=capsys)
    assert (code, err) == (int(failing), "")
    assert json.loads(out)["all_pass"] is not failing


def test_montecarlo_same_seed_identical_bytes(capsys):
    args = ("montecarlo", "--n", "5000", "--seed", "13")
    _, out1, _ = run_cli(*args, capsys=capsys)
    _, out2, _ = run_cli(*args, capsys=capsys)
    assert out1 == out2


@pytest.mark.parametrize("meters", [("B@2:g=0", "E@3"), ("B@2:g=1e-200", "E@3:g=1e-200"),
                                    ("B@2:g=1e-160", "E@3:g=1e-160")],
                         ids=["zero", "product_underflows", "product_subnormal"])
def test_montecarlo_zero_coupling_exits_2_before_sampling(meters, monkeypatch, capsys):
    def no_sampling(*args):
        raise AssertionError("a reading was drawn")

    monkeypatch.setattr(cli, "sample_readings", no_sampling)
    code, out, err = run_cli("montecarlo", "--meter", meters[0], "--meter", meters[1],
                             capsys=capsys)
    assert code == 2
    assert out == ""
    assert err == "error: sequential estimate needs both couplings nonzero\n"


def test_meter_sweep_subnormal_coupling_exits_2_before_any_experiment(monkeypatch, capsys):
    def no_experiment(*args):
        raise AssertionError("an experiment was built")

    monkeypatch.setattr(cli, "build_experiment", no_experiment)
    code, out, err = run_cli("meter-sweep", "--meter", "B@2", "--sweep",
                             "1e-320,1e-319,1e-318,1e-317", capsys=capsys)
    assert code == 2
    assert out == ""
    assert err == "error: weak-value estimates need couplings of at least 2.22507e-308\n"


def test_montecarlo_runs_at_the_coupling_bound(capsys):
    # 1.5e-154 squared is 2.25e-308, just above the smallest normal float
    code, out, err = run_cli("montecarlo", "--meter", "B@2:g=1.5e-154", "--meter",
                             "E@3:g=1.5e-154", "--n", "1000", capsys=capsys)
    assert code == 0 and err == ""
    assert "seq.re" in out


def test_montecarlo_needs_two_meters(capsys):
    code, _, err = run_cli(
        "montecarlo", "--meter", "B@2:g=0.3", "--n", "1000", capsys=capsys
    )
    assert code == 2
    assert "two" in err


def test_oracle_subcommand(capsys):
    code, out, _ = run_cli("oracle", capsys=capsys)
    assert code == 0
    rows = rows_of(out)
    assert list(rows[0]) == ["kind", "name", "analytic", "grid", "abs_dev",
                             "tol", "pass"]
    assert all(r["pass"] == "true" for r in rows)
    assert any(r["name"].startswith("zeta") for r in rows)


def test_oracle_reports_three_meters(capsys):
    code, out, _ = run_cli("oracle", "--meter", "B@2", "--meter", "C@2", "--meter", "E@3",
                           capsys=capsys)
    assert code == 0
    rows = rows_of(out)
    assert len(rows) == 45 and {r["kind"] for r in rows} == {"value"}
    assert all(r["pass"] == "true" for r in rows)


def test_oracle_reports_four_meters(capsys):
    # the default grid follows the pointer width, so four preset meters fit
    code, out, _ = run_cli("oracle", "--meter", "B@2", "--meter", "C@2", "--meter", "E@3",
                           "--meter", "N@2", "--format", "json", capsys=capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["meta"]["points"] == 45 and payload["all_pass"] is True
    assert len(payload["rows"]) == 15 + 4 * 4 + 6 * 6
    assert all(r["pass"] is True for r in payload["rows"])


def test_oracle_fails_a_shift_the_grid_cannot_resolve(capsys):
    # a pointer of width 1e50 is sampled every 5e49: the 0.3 shift is below
    # its resolution, so the grid reads no shift and the checks must fail
    code, out, err = run_cli("oracle", "--meter", "B@2:sigma=1e50", capsys=capsys)
    assert code == 1 and err == ""
    failed = {r["name"] for r in rows_of(out) if r["pass"] == "false"}
    assert "m0.x_mean" in failed


def test_json_format(capsys):
    code, out, _ = run_cli(
        "weak-values", "--format", "json", capsys=capsys
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["command"] == "weak-values"
    assert payload["all_pass"] is True
    assert payload["columns"][0] == "kind"
    assert payload["meta"]["port"] == "D2"
    value_rows = [r for r in payload["rows"] if r["kind"] == "value"]
    assert all(r["pass"] is None for r in value_rows)


@pytest.mark.parametrize("argv", [
    ("weak-values",),
    ("sequential", "--chain", "B@2,E@3", "--chain", "C@2,E@3", "--chain", "N@2,E@3"),
    ("disturbance", "--sweep", "0.1,0.2"),
    ("disturbance", "--probe", "F@3", "--sweep", "0.1,0.2"),
    ("meter-sweep", "--sweep", "0.4x0.5x4"),
    ("meter-sweep", "--meter", "B@2", "--sweep", "0.4x0.5x4"),
    ("montecarlo", "--n", "2000"),
    ("oracle",),
], ids=["weak-values", "sequential", "disturbance", "disturbance-off-preset",
        "meter-sweep", "meter-sweep-one-meter", "montecarlo", "oracle"])
def test_json_rows_carry_every_column(argv, capsys):
    code, out, _ = run_cli(*argv, "--format", "json", capsys=capsys)
    assert code == 0
    payload = json.loads(out)
    kinds = {row["kind"] for row in payload["rows"]}
    assert kinds == ({"value"} if argv[0] in ("montecarlo", "oracle") else {"value", "check"})
    for row in payload["rows"]:
        assert sorted(row) == sorted(payload["columns"])


def test_out_file(tmp_path, capsys):
    target = tmp_path / "wv.csv"
    code, out, _ = run_cli("weak-values", "--out", str(target), capsys=capsys)
    assert code == 0
    assert out == ""
    assert target.read_text().startswith("kind,arm,slice")


def test_out_to_an_unwritable_path_exits_2(tmp_path, capsys):
    target = tmp_path / "missing" / "wv.csv"
    code, out, err = run_cli("weak-values", "--out", str(target), capsys=capsys)
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: cannot write output {str(target)!r}: ")
    assert "No such file or directory" in err


def _layered(n_arms, n_slices, seed):
    """Random layered layout plus each stage's matrix, built independently
    of ``stage_unitary`` from the same angles and phases."""
    rng = np.random.Generator(np.random.Philox(key=seed))
    arms = tuple(f"a{i}" for i in range(n_arms))
    stages, dense = [], []
    for k in range(n_slices - 1):
        order = rng.permutation(n_arms)
        u = np.zeros((n_arms, n_arms), dtype=complex)
        comps = []
        for i in range(0, n_arms, 2):
            a, b = int(order[i]), int(order[i + 1])
            theta = float(rng.uniform(0.2, 1.3))
            phase = float(rng.uniform(0.0, 2 * np.pi))
            pair = (arms[a], arms[b])
            comps.append(beamsplitter(f"BS{k}_{i // 2}", pair, pair, theta, phase))
            g = np.exp(1j * phase)
            u[a, a] = u[b, b] = g * np.cos(theta)
            u[a, b] = u[b, a] = 1j * g * np.sin(theta)
        stages.append(Stage(k, tuple(comps)))
        dense.append(u)
    layout = NetworkLayout(
        slices=(arms,) * n_slices,
        stages=tuple(stages),
        source=arms[0],
        detector_ports=tuple((f"P{a}", a) for a in arms),
    )
    return layout, dense


def test_tables_build_each_stage_matrix_once(monkeypatch):
    n_arms, n_slices, seed = 28, 31, 11
    built = []
    block = ComponentSpec.block

    def counting_block(self):
        built.append(id(self))
        return block(self)

    monkeypatch.setattr(ComponentSpec, "block", counting_block)
    layout, dense = _layered(n_arms, n_slices, seed)
    kets = [np.eye(n_arms, dtype=complex)[0]]
    for u in dense:
        kets.append(u @ kets[-1])
    port_index = int(np.argmax(np.abs(kets[-1])))
    port = f"Pa{port_index}"
    bras = [np.eye(n_arms, dtype=complex)[port_index]]
    for u in reversed(dense):
        bras.append(bras[-1] @ u)
    bras.reverse()
    amp = bras[0] @ kets[0]
    per_table = (n_slices - 1) * n_arms // 2

    _, rows, _ = cmd_weak_values(layout, port)
    assert len(built) == len(set(built)) == per_table
    for row in rows:
        if row["kind"] == "check":
            assert row["pass"]
            continue
        k = row["slice"]
        i = layout.arm_index(k, row["arm"])
        got = complex(row["re"], row["im"])
        assert abs(got - bras[k][i] * kets[k][i] / amp) < 1e-12

    built.clear()
    layout, _ = _layered(n_arms, n_slices, seed)
    chains = [((a, 1), (b, 2)) for a in layout.slices[1] for b in layout.slices[2]]
    _, rows, _ = cmd_sequential(layout, port, chains)
    assert len(built) == len(set(built)) == per_table
    checks = [row for row in rows if row["kind"] == "check"]
    assert len(checks) == 2 * n_arms and all(row["pass"] for row in checks)
    values = [row for row in rows if row["kind"] == "value"]
    assert len(values) == n_arms ** 2
    for row, ((a, _), (b, _)) in zip(values, chains):
        ia, ib = layout.arm_index(1, a), layout.arm_index(2, b)
        want = bras[2][ib] * dense[1][ib, ia] * kets[1][ia] / amp
        assert abs(complex(row["re"], row["im"]) - want) < 1e-12


def test_sequential_chains_at_scale_match_a_dense_chase(monkeypatch):
    layout, dense = _layered(28, 31, 11)
    ket = np.eye(28, dtype=complex)[0]
    for u in dense:
        ket = u @ ket
    port = f"Pa{int(np.argmax(np.abs(ket)))}"
    arms = layout.slices[0]
    # arms[1] leaves stage 6 in a pair that does not hold `apart`
    apart = next(arm for i, arm in enumerate(arms) if dense[6][i, 1] == 0)
    chains = ([((a, 3), (b, 4)) for a in arms[:4] for b in arms[:4]]
              + [((a, 7), (b, 9)) for a in arms[:3] for b in arms[:3]]
              + [((a, 10), (b, 15)) for a in arms[:3] for b in arms[:3]]
              + [((a, 2), (b, 4), (c, 9)) for a in arms[:2] for b in arms[:2] for c in arms[:2]]
              + [((arms[1], 6), (apart, 7))])
    _, rows, _ = cmd_sequential(layout, port, chains)
    values = [row for row in rows if row["kind"] == "value"]
    assert len(values) == len(chains)
    for row, steps in zip(values, chains):
        want = dense_chain_value(layout, port, steps)
        assert abs(complex(row["re"], row["im"]) - want) < 1e-12, steps
    assert complex(values[-1]["re"], values[-1]["im"]) == 0

    calls = []
    stage_unitary = tsvf.stage_unitary

    def counting(layout, k):
        calls.append(k)
        return stage_unitary(layout, k)

    monkeypatch.setattr(tsvf, "stage_unitary", counting)
    per_sweep = 2 * len(layout.stages)
    for k, l in ((4, 5), (4, 9)):  # one stage matrix read per stage a step spans
        chains = [((a, k), (b, l)) for a in arms[:2] for b in arms[:25]]
        for _ in range(2):  # nothing carries over from one sweep to the next
            calls.clear()
            cmd_sequential(layout, port, chains)
            assert len(calls) == per_sweep + len(chains) * (l - k)


DARK_MZI = """
arm s
arm A
arm B
arm dark
arm bright
slice 0: s
slice 1: A, B
slice 2: dark, bright
source s
bs split stage=0 in=s out=A,B
bs merge stage=1 in=A,B out=dark,bright
detector PD=dark
detector PB=bright
"""


def test_custom_network_file(tmp_path, capsys):
    net = tmp_path / "mzi.net"
    net.write_text(DARK_MZI)
    code, out, _ = run_cli(
        "weak-values", "--network", str(net), "--postselect", "PB", capsys=capsys
    )
    assert code == 0
    rows = rows_of(out)
    by_key = {(r["arm"], r["slice"]): r for r in rows if r["kind"] == "value"}
    assert float(by_key[("A", "1")]["re"]) == pytest.approx(0.5, abs=1e-12)


def test_degenerate_port_exits_nonzero(tmp_path, capsys):
    net = tmp_path / "mzi.net"
    net.write_text(DARK_MZI)
    code, _, err = run_cli(
        "weak-values", "--network", str(net), "--postselect", "PD", capsys=capsys
    )
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize("value", ["inf", "nan"])
def test_non_finite_angle_exits_2(value, tmp_path, capsys):
    net = tmp_path / "mzi.net"
    net.write_text(DARK_MZI.replace("out=dark,bright", f"out=dark,bright theta={value}"))
    code, out, err = run_cli(
        "weak-values", "--network", str(net), "--postselect", "PB", capsys=capsys
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "non-finite number" in err


def test_montecarlo_with_hopeless_acceptance_exits_2(tmp_path, capsys):
    net = tmp_path / "mzi.net"
    net.write_text(DARK_MZI)
    code, out, err = run_cli(
        "montecarlo", "--network", str(net), "--postselect", "PD",
        "--meter", "A@1:g=2e-4", "--meter", "dark@2:g=0.3", "--n", "1000",
        capsys=capsys,
    )
    assert code == 2
    assert out == ""
    assert "predicted acceptance" in err


def test_disturbance_reads_dark_port_as_zero(tmp_path, capsys):
    net = tmp_path / "mzi.net"
    net.write_text(DARK_MZI)
    code, out, _ = run_cli(
        "disturbance", "--network", str(net), "--postselect", "PD",
        "--meter", "bright@2", "--probe", "A@1", "--sweep", "0.1,0.2", capsys=capsys,
    )
    assert code == 0
    values = [r for r in rows_of(out) if r["kind"] == "value"]
    assert [r["p_port"] for r in values] == ["0.0", "0.0"]
    assert all(float(r["p_probe"]) == pytest.approx(0.5, abs=1e-12) for r in values)


def test_register_too_large_exits_2(monkeypatch, capsys):
    monkeypatch.setattr(meter, "MAX_REGISTER_ENTRIES", 8)
    code, out, err = run_cli("montecarlo", "--n", "1000", capsys=capsys)
    assert code == 2
    assert out == ""
    assert "register" in err


@pytest.mark.parametrize("argv,fragment", [
    (["montecarlo", "--meter", "B@2:g=inf", "--meter", "E@3"], "coupling strength"),
    (["montecarlo", "--meter", "B@2:g=nan", "--meter", "E@3"], "coupling strength"),
    (["montecarlo", "--seed", "-1"], "seed"),
    (["montecarlo", "--n", "0"], "need at least one reading"),
    (["disturbance", "--sweep", "nan"], "sweep"),
    (["oracle", "--meter", "B@2:g=x"], "bad number 'x' in meter spec 'B@2:g=x'"),
    (["disturbance", "--sweep", "0.4x0.5x0"], "bad sweep spec '0.4x0.5x0'"),
    (["disturbance", "--sweep", "0.1:0.3:0"], "bad sweep spec '0.1:0.3:0'"),
    (["montecarlo", "--meter", "B@2:g=1e200", "--meter", "E@3", "--n", "100"],
     "meter B@2: coupling strength must be finite and >= 0, at most 1e+50"),
    (["disturbance", "--sweep", "1e300x10x9"], "coupling strength"),
    (["meter-sweep", "--meter", "C@2:g=0,sigma=1e200", "--meter", "E@3:g=0"],
     "meter C@2: pointer width sigma must be finite, in [1e-50, 1e+50]"),
    (["disturbance", "--meter", "B@2:g=0,sigma=1e-200"], "pointer width sigma"),
    (["montecarlo", "--meter", "B@2:sigma=1e-200", "--meter", "E@3", "--n", "100"],
     "pointer width sigma"),
    (["oracle", "--meter", "B@2:sigma=1e-200"], "pointer width sigma"),
    (["montecarlo", "--n", "100000000000"],
     "100000000000 readings of 2 quadratures need 200000000000 values (limit 67108864)"),
], ids=["g_inf", "g_nan", "negative_seed", "no_readings", "nan_sweep",
        "g_not_a_number", "empty_ladder", "zero_step", "g_past_bound", "sweep_past_bound",
        "sigma_past_bound", "sigma_below_bound", "montecarlo_sigma_below_bound",
        "oracle_sigma_below_bound", "readings_past_bound"])
def test_out_of_range_number_exits_2(argv, fragment, capsys):
    code, out, err = run_cli(*argv, capsys=capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and fragment in err


def test_seed_wraps_past_the_top_of_64_bits(capsys):
    code, out, err = run_cli("montecarlo", "--n", "100", "--seed", str(2**64 - 1),
                             capsys=capsys)
    assert code == 0 and err == ""
    assert {r["kind"] for r in rows_of(out)} == {"value"}


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_seed_outside_64_bits_exits_2(seed, capsys):
    code, out, err = run_cli("montecarlo", "--n", "100", "--seed", str(seed), capsys=capsys)
    assert code == 2
    assert out == ""
    assert err == "error: seed must fit in 64 bits\n"


@pytest.mark.parametrize("spec", ["0.4x0.5x100000000", "0.1:1e10:1e-10"])
def test_oversized_sweep_exits_2_at_once(spec, capsys):
    start = time.perf_counter()
    code, out, err = run_cli("disturbance", "--sweep", spec, capsys=capsys)
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert out == ""
    assert err.startswith("error: sweep spec") and "points" in err


@pytest.mark.parametrize("argv", [("disturbance", "--sweep", "0.4x0.5x10000"),
                                  ("meter-sweep", "--sweep", "0.4x2x2000")])
def test_ladder_leaving_the_float_range_exits_2(argv, capsys):
    code, out, err = run_cli(*argv, capsys=capsys)
    assert code == 2
    assert out == ""
    assert err == f"error: sweep spec {argv[2]!r} leaves the float range at its last point\n"


@pytest.mark.parametrize("spec", ["0.4x0.5x6", "0.05x1.5x20", "1e-300x10x300", "3x0.7x1000"])
def test_ladder_in_the_power_range_keeps_its_points(spec):
    start, factor, count = (float(v) for v in spec.split("x"))
    assert parse_sweep_spec(spec) == tuple(start * factor ** k for k in range(int(count)))


@pytest.mark.parametrize("spec,last", [("1e-300x1e10x35", 1e40), ("1e300x0.1x500", 1e-199)])
def test_ladder_past_the_power_range_keeps_its_points(spec, last):
    points = parse_sweep_spec(spec)
    assert len(points) == int(spec.split("x")[2])
    assert points[-1] == pytest.approx(last, rel=1e-12)


def test_ladder_past_the_power_range_runs(capsys):
    code, out, err = run_cli("disturbance", "--sweep", "1e-300x1e10x35", capsys=capsys)
    assert code == 0 and err == ""
    rows = rows_of(out)
    assert len(rows) == 36 and all(r["pass"] == "true" for r in rows)


def test_grid_too_large_exits_2_at_once(capsys):
    # the grid spans the wide pointer at the narrow one's spacing
    start = time.perf_counter()
    code, out, err = run_cli("oracle", "--meter", "B@2:sigma=100", "--meter", "E@3",
                             capsys=capsys)
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert out == ""
    assert err == ("error: 2 meters on 4005 points need a grid of 48120075 entries "
                   "(limit 16777216)\n")


@pytest.mark.parametrize("argv,message", [
    (["oracle", "--meter", "B@2:g"], "bad meter parameter 'g' in 'B@2:g'"),
    (["disturbance", "--meter", "B@2:g=0.3,g=0.4", "--sweep", "0.1"],
     "duplicate meter parameter 'g' in 'B@2:g=0.3,g=0.4'"),
    (["weak-values", "--network", "nope"], "network 'nope' is neither a preset name nor a file"),
    (["sequential", "--chain", "E@3,B@2"],
     "chain E@3>B@2: projector chain slices must be strictly increasing (got [3, 2]); "
     "same-slice distinct arms are orthogonal"),
    (["meter-sweep", "--meter", "E@3", "--meter", "B@2"],
     "meters (('E', 3), ('B', 2)) do not form a chain: projector chain slices must be "
     "strictly increasing (got [3, 2]); same-slice distinct arms are orthogonal"),
    (["meter-sweep", "--meter", "B@2:sigma=0", "--meter", "Z@9"],
     "meter B@2: pointer width sigma must be finite, in [1e-50, 1e+50]"),
    (["disturbance", "--meter", "B@2", "--meter", "E@3"], "disturbance tracks a single meter"),
    (["disturbance", "--probe", "B@2,E@3"], "bad probe 'B@2,E@3' (want arm@slice)"),
    (["disturbance", "--probe", "nope"], "bad probe 'nope' (want arm@slice)"),
    (["weak-values", "--network", "{tmp}"],
     "cannot read network '{tmp}': [Errno 21] Is a directory: '{tmp}'"),
    (["weak-values", "--postselect", "Q"], "unknown port 'Q' (this network has: D1, D2, D3)"),
    (["meter-sweep", "--sweep", "1e-300,1e-299,1e-298,1e-297"],
     "sequential estimate needs both couplings nonzero"),
    (["meter-sweep", "--sweep", "1e-160,1e-159,1e-158,1e-157"],
     "sequential estimate needs both couplings nonzero"),
    # a slope fitted to repeated couplings means nothing
    (["meter-sweep", "--sweep", "0.4x1x6"],
     "meter-sweep needs at least 4 sweep points, got 6 (1 distinct)"),
    (["meter-sweep", "--sweep", "0.1,0.1,0.1,0.1"],
     "meter-sweep needs at least 4 sweep points, got 4 (1 distinct)"),
    (["meter-sweep", "--sweep", "0.1,0.2,0.1,0.2,0.3"],
     "meter-sweep needs at least 4 sweep points, got 5 (3 distinct)"),
], ids=["meter_param_without_value", "meter_param_repeated", "unknown_network",
        "chain_out_of_order", "meters_out_of_order", "first_bad_meter_first",
        "two_disturbance_meters", "probe_chain", "probe_without_slice",
        "network_directory", "unknown_port", "sweep_product_underflows", "sweep_product_subnormal",
        "sweep_ladder_of_one_value", "sweep_one_value_repeated", "sweep_values_repeated"])
def test_bad_input_exits_2_with_its_message(argv, message, tmp_path, capsys):
    code, out, err = run_cli(*[a.format(tmp=tmp_path) for a in argv], capsys=capsys)
    assert code == 2
    assert out == ""
    assert err == f"error: {message.format(tmp=tmp_path)}\n"


def test_undecodable_network_file_exits_2(tmp_path, capsys):
    net = tmp_path / "binary.net"
    net.write_bytes(b"arm a\n\xff\xfe\n")
    code, out, err = run_cli("weak-values", "--network", str(net), capsys=capsys)
    assert code == 2
    assert out == ""
    assert err == (f"error: {net}: 'utf-8' codec can't decode byte 0xff in position 6: "
                   "invalid start byte\n")


def test_custom_network_requires_port_choice(tmp_path, capsys):
    net = tmp_path / "mzi.net"
    net.write_text(DARK_MZI)
    code, _, err = run_cli("weak-values", "--network", str(net), capsys=capsys)
    assert code == 2
    assert "--postselect" in err


def test_parse_error_reported_with_position(tmp_path, capsys):
    net = tmp_path / "broken.net"
    net.write_text("arm a\nslice 0: a\nsource Q\n")
    code, _, err = run_cli("weak-values", "--network", str(net), capsys=capsys)
    assert code == 2
    assert "line 3" in err


# every default spelled out as its flag; montecarlo's --n is left to the test
SPELLED_OUT = {
    "weak-values": [],
    "sequential": ["--chain", "B@2,E@3"],
    "disturbance": ["--meter", "B@2:g=0", "--sweep", "0.05:0.5:0.05", "--probe", "E@3"],
    "meter-sweep": ["--meter", "C@2:g=0", "--meter", "E@3:g=0", "--sweep", "0.4x0.5x6"],
    "montecarlo": ["--meter", "B@2", "--meter", "E@3"],
    "oracle": ["--meter", "B@2", "--meter", "E@3"],
}


@pytest.mark.parametrize("command", SPELLED_OUT)
def test_defaults_print_what_their_flags_print(command, capsys):
    n = ["--n", "2000"] if command == "montecarlo" else []
    seed = ["--seed", "20260822"] if command == "montecarlo" else []
    implicit = run_cli(command, *n, capsys=capsys)
    explicit = run_cli(command, "--network", "nested-mzi", "--postselect", "D2",
                       "--format", "csv", *seed, *SPELLED_OUT[command], *n,
                       capsys=capsys)
    assert implicit == explicit
    assert implicit[0] == 0 and implicit[1]


def test_montecarlo_reads_a_million_by_default():
    assert build_parser().parse_args(["montecarlo"]).n == 1_000_000


# the flags each subcommand reads besides --network, --postselect, --format and --out
OWN_FLAGS = {
    "weak-values": set(),
    "sequential": {"--chain"},
    "disturbance": {"--meter", "--sweep", "--probe"},
    "meter-sweep": {"--meter", "--sweep"},
    "montecarlo": {"--meter", "--n", "--seed"},
    "oracle": {"--meter"},
}
# a value each flag would take
FLAG_VALUES = {"--chain": "B@2,E@3", "--meter": "B@2", "--sweep": "0.1", "--probe": "E@3",
               "--seed": "1", "--n": "100"}


@pytest.mark.parametrize("command", OWN_FLAGS)
def test_help_lists_only_the_subcommand_s_own_flags(command, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    listed = set(re.findall(r"--[a-z]+", capsys.readouterr().out))
    assert listed == OWN_FLAGS[command] | {"--network", "--postselect", "--format", "--out",
                                           "--help"}


@pytest.mark.parametrize("command,flag", [
    (command, flag) for command, own in OWN_FLAGS.items()
    for flag in FLAG_VALUES if flag not in own
])
def test_a_flag_the_subcommand_does_not_read_exits_2(command, flag, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, flag, FLAG_VALUES[flag]])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert f"error: unrecognized arguments: {flag} {FLAG_VALUES[flag]}\n" in err


def test_an_abbreviated_flag_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["weak-values", "--post", "D2"])
    assert exc.value.code == 2
    assert "error: unrecognized arguments: --post D2\n" in capsys.readouterr().err


def test_config_file_flag_is_refused(tmp_path, capsys):
    cfg = tmp_path / "run.ini"
    cfg.write_text("[scenario]\nformat = json\n")
    with pytest.raises(SystemExit) as exc:
        main(["weak-values", "--config", str(cfg)])
    assert exc.value.code == 2
    assert "unrecognized arguments: --config" in capsys.readouterr().err


PHASED_MZI = """
arm s
arm u
arm l
arm a
arm b
slice 0: s
slice 1: u, l
slice 2: u, l
slice 3: a, b
source s
bs B1 stage=0 in=s out=u,l
phase stage=1 arm=u value=0.7
pass stage=1 arm=l
bs B2 stage=2 in=u,l out=a,b
detector PA=a
detector PB=b
"""


@pytest.mark.parametrize("argv", [
    ["oracle", "--meter", "l@1:g=3000,sigma=10000"],
    ["meter-sweep", "--meter", "l@1:sigma=10000", "--meter", "u@2:sigma=10000",
     "--sweep", "100x2x6"],
], ids=["oracle", "meter-sweep"])
def test_wide_pointers_run_to_the_end(argv, tmp_path, capsys):
    # a second moment near 1e8 carries an imaginary rounding residue of a few 1e-9
    net = tmp_path / "mzi.net"
    net.write_text(PHASED_MZI)
    code, out, err = run_cli(*argv, "--network", str(net), "--postselect", "PA",
                             capsys=capsys)
    assert (code, err) == (0, "")
    assert {r["pass"] for r in rows_of(out)} <= {"true", ""}


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "tsvfsim.cli", "weak-values"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("kind,arm,slice")


def test_running_out_of_memory_exits_2_without_a_traceback():
    # 2**25 readings of two meters ask for a 512 MiB batch, past a 450 MiB
    # address space; the process itself takes about 110 MiB of it
    limit = 450 * 2 ** 20

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "tsvfsim.cli", "montecarlo", "--n", str(2 ** 25)],
        capture_output=True, text=True, env=env, preexec_fn=cap, timeout=30,
    )
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1, proc.stderr
    assert "Traceback" not in proc.stderr
