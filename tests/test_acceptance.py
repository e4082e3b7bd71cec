"""Release gate: the eight headline checks, each with a runtime budget.

Every test prints one PASS/FAIL line into the terminal summary (see
conftest.py). Tolerances and runtime budgets are part of the contract;
do not loosen them to make a failing build green.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest
from conftest import ACCEPTANCE_LINES
from layouts import random_layout

from tsvfsim.meter import (
    arm_probability,
    attach_meter,
    estimate_sequential_weak_value,
    estimate_weak_value,
    new_experiment,
    pointer_corr,
    pointer_mean,
    postselect as meter_postselect,
    run_coupled,
    zeta_corr,
)
from tsvfsim.network import nested_mzi_preset, stage_unitary
from tsvfsim.oracle import compare, experiment_reports
from tsvfsim.sampling import ReadoutPlan, estimate_from_samples, sample_readings
from tsvfsim.tsvf import (
    ArmProjector,
    ProjectorChain,
    forward_state,
    postselection_amplitude,
    sequential_weak_value,
    weak_value,
)

PORT = "D2"
T1, T2 = 2, 3
QUAD_COMBOS = (("x", "x"), ("p", "p"), ("x", "p"), ("p", "x"))
MC_SEED = 20260822
COST_SEED = 907


@contextmanager
def criterion(num, label, budget):
    start = time.perf_counter()
    failed = False
    try:
        yield
    except BaseException:
        failed = True
        raise
    finally:
        elapsed = time.perf_counter() - start
        ok = not failed and elapsed < budget
        ACCEPTANCE_LINES.append(
            f"criterion {num} [{'PASS' if ok else 'FAIL'}] {label} "
            f"({elapsed:.2f} s, budget {budget:.0f} s)"
        )
    if elapsed >= budget:
        pytest.fail(f"criterion {num} took {elapsed:.2f} s, budget {budget} s")


def wv(layout, arm, slice_index):
    return weak_value(layout, PORT, ArmProjector(arm, slice_index)).value


def seq(layout, *steps):
    return sequential_weak_value(layout, PORT, ProjectorChain.of(*steps)).value


def test_criterion_1_weak_values():
    with criterion(1, "preset weak values", budget=1.0):
        layout = nested_mzi_preset()
        assert abs(wv(layout, "D", 1)) < 1e-12
        assert abs(wv(layout, "E", T2)) < 1e-12
        assert wv(layout, "B", T1) == pytest.approx(0.5, abs=1e-12)
        assert wv(layout, "C", T1) == pytest.approx(-0.5, abs=1e-12)
        for k in (1, 2, 3):
            assert wv(layout, "N", k) == pytest.approx(1.0, abs=1e-12)


def test_criterion_2_sequential_weak_values():
    with criterion(2, "sequential weak values and marginals", budget=1.0):
        layout = nested_mzi_preset()
        assert seq(layout, ("B", T1), ("E", T2)) == pytest.approx(0.5, abs=1e-12)
        assert seq(layout, ("C", T1), ("E", T2)) == pytest.approx(-0.5, abs=1e-12)
        assert abs(seq(layout, ("N", T1), ("E", T2))) < 1e-12
        for late in layout.slices[T2]:
            total = sum(seq(layout, (a, T1), (late, T2))
                        for a in layout.slices[T1])
            assert total == pytest.approx(wv(layout, late, T2), abs=1e-12)
        for early in layout.slices[T1]:
            total = sum(seq(layout, (early, T1), (b, T2))
                        for b in layout.slices[T2])
            assert total == pytest.approx(wv(layout, early, T1), abs=1e-12)


def test_criterion_3_disturbance_law():
    with criterion(3, "dark-port disturbance closed form", budget=1.0):
        layout = nested_mzi_preset()
        for sigma in (0.5, 1.0, 2.0):
            for g in (0.0, 0.05, 0.1, 0.2, 0.4):
                exp = attach_meter(new_experiment(layout), "B", T1, g, sigma)
                p = arm_probability(exp, "E", T2)
                closed = 0.25 * (1.0 - math.exp(-g * g / (8.0 * sigma ** 2)))
                assert p == pytest.approx(closed, abs=1e-10)
                if g == 0.0:
                    assert p == 0.0


def fit_slope(gs, errors):
    return float(np.polyfit(np.log(gs), np.log(errors), 1)[0])


def test_criterion_4_estimator_convergence():
    with criterion(4, "readout estimator quadratic convergence", budget=5.0):
        layout = nested_mzi_preset()
        gs = (0.2, 0.1, 0.05, 0.025)
        single_err = []
        seq_err = []
        for g in gs:
            on_b = meter_postselect(run_coupled(
                attach_meter(new_experiment(layout), "B", T1, g, 1.0)), PORT)
            assert abs(pointer_mean(on_b, 0, "x") - g / 2.0) <= 1e-12

            on_c = meter_postselect(run_coupled(
                attach_meter(new_experiment(layout), "C", T1, g, 1.0)), PORT)
            single_err.append(abs(estimate_weak_value(on_c, 0)
                                  - wv(layout, "C", T1)))

            pair = attach_meter(new_experiment(layout), "B", T1, g, 1.0)
            pair = attach_meter(pair, "E", T2, g, 1.0)
            both = meter_postselect(run_coupled(pair), PORT)
            seq_err.append(abs(estimate_sequential_weak_value(both, 0, 1)
                               - seq(layout, ("B", T1), ("E", T2))))
        assert fit_slope(gs, single_err) == pytest.approx(2.0, abs=0.3)
        assert fit_slope(gs, seq_err) == pytest.approx(2.0, abs=0.3)


def test_criterion_5_grid_oracle_equivalence():
    with criterion(5, "grid oracle agrees on criteria 1-4 quantities",
                   budget=60.0):
        layout = nested_mzi_preset()

        def check(exp):
            analytic, grid = experiment_reports(exp, PORT)
            table = compare(analytic, grid)  # 1e-7 absolute per quantity
            assert table.all_pass, [r for r in table.rows if not r.passed]

        check(new_experiment(layout))
        for sigma in (0.5, 1.0, 2.0):
            for g in (0.0, 0.05, 0.1, 0.2, 0.4):
                check(attach_meter(new_experiment(layout), "B", T1, g, sigma))
        for g in (0.2, 0.1, 0.05, 0.025):
            check(attach_meter(new_experiment(layout), "B", T1, g, 1.0))
            check(attach_meter(new_experiment(layout), "C", T1, g, 1.0))
            pair = attach_meter(new_experiment(layout), "B", T1, g, 1.0)
            check(attach_meter(pair, "E", T2, g, 1.0))


def test_criterion_6_random_layout_sum_rules():
    with criterion(6, "sum rules on 100 random layouts", budget=10.0):
        count = 0
        seed = 0
        while count < 100:
            layout = random_layout(seed)
            seed += 1
            if layout.n_slices < 4:
                continue  # need two intermediate slices for a chain
            count += 1
            for k in range(layout.n_slices - 1):
                u = stage_unitary(layout, k)
                gap = np.max(np.abs(u.conj().T @ u - np.eye(u.shape[1])))
                assert gap <= 1e-12
            for k in range(layout.n_slices):
                amps = forward_state(layout, k).amplitudes
                assert abs(np.sum(np.abs(amps) ** 2) - 1.0) <= 1e-12
            port = max(layout.ports,
                       key=lambda p: abs(postselection_amplitude(layout, p)))
            for k in range(1, layout.n_slices - 1):
                total = sum(
                    weak_value(layout, port, ArmProjector(a, k)).value
                    for a in layout.slices[k])
                assert abs(total - 1.0) <= 1e-10
            early, late = layout.slices[1], layout.slices[2]

            def chain(*steps):
                return sequential_weak_value(
                    layout, port, ProjectorChain.of(*steps)).value

            for b in late:
                total = sum(chain((a, 1), (b, 2)) for a in early)
                assert abs(total - chain((b, 2))) <= 1e-10
            for a in early:
                total = sum(chain((a, 1), (b, 2)) for b in late)
                assert abs(total - chain((a, 1))) <= 1e-10


def canonical_mixture(g=0.3):
    layout = nested_mzi_preset()
    exp = attach_meter(new_experiment(layout), "B", T1, g, 1.0)
    exp = attach_meter(exp, "E", T2, g, 1.0)
    return meter_postselect(run_coupled(exp), PORT)


def sample_combos(mixture, n, seed):
    return [sample_readings(mixture, ReadoutPlan(quads, n, seed + k))
            for k, quads in enumerate(QUAD_COMBOS)]


def test_criterion_7_monte_carlo_consistency():
    with criterion(7, "seeded sampling within 4 standard errors", budget=120.0):
        mixture = canonical_mixture()
        batches = sample_combos(mixture, 1_000_000, MC_SEED)
        est = estimate_from_samples(batches)

        for (meter_id, quad), moment in est.singles.items():
            z = (moment.value - pointer_mean(mixture, meter_id, quad))
            assert abs(z / moment.stderr) < 4.0
        for (qa, qb), moment in est.pair_moments.items():
            z = moment.value - pointer_corr(mixture, (0, qa), (1, qb))
            assert abs(z / moment.stderr) < 4.0
        exact_zeta = zeta_corr(mixture, 0, 1)
        assert abs(est.zeta.real - exact_zeta.real) < 4.0 * est.zeta_stderr[0]
        assert abs(est.zeta.imag - exact_zeta.imag) < 4.0 * est.zeta_stderr[1]
        exact_seq = estimate_sequential_weak_value(mixture, 0, 1)
        assert abs(est.sequential.real - exact_seq.real) \
            < 4.0 * est.sequential_stderr[0]
        assert abs(est.sequential.imag - exact_seq.imag) \
            < 4.0 * est.sequential_stderr[1]

        again = sample_combos(mixture, 1_000_000, MC_SEED)
        for first, second in zip(batches, again):
            assert np.array_equal(first.readings, second.readings)
        rerun = estimate_from_samples(again)
        assert rerun.sequential == est.sequential
        assert rerun.zeta == est.zeta


def test_criterion_8_sampling_cost_law():
    with criterion(8, "sample cost scales as the inverse fourth power",
                   budget=300.0):
        target = 0.05
        n = 400_000
        gs = (0.5, 0.4, 0.3, 0.2, 0.15)
        needed = []
        for g in gs:
            est = estimate_from_samples(
                sample_combos(canonical_mixture(g), n, COST_SEED))
            rel = math.hypot(*est.sequential_stderr) / abs(est.sequential)
            needed.append(n * (rel / target) ** 2)
        assert fit_slope(gs, needed) == pytest.approx(-4.0, abs=0.5)
