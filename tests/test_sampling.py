"""Monte Carlo readout: reproducibility, distribution, error bars, cost law."""

import json
import math
import time

import numpy as np
import pytest
from scipy import stats

from tsvfsim.meter import (
    attach_meter,
    estimate_sequential_weak_value,
    new_experiment,
    pointer_corr,
    pointer_mean,
    postselect,
    run_coupled,
)
from tsvfsim import sampling
from tsvfsim.network import nested_mzi_preset, parse_network
from tsvfsim.sampling import (
    BLOCK_SIZE,
    CANDIDATE_BUDGET,
    MIN_SAMPLES,
    CostModel,
    ReadoutPlan,
    SamplingBudgetExceeded,
    calibrate_cost_model,
    estimate_from_samples,
    export_batch_csv,
    required_samples,
    sample_readings,
)

T1, T2 = 2, 3


def two_meter_mixture(g=0.3, sigma=1.0):
    layout = nested_mzi_preset()
    exp = attach_meter(new_experiment(layout), "B", T1, g, sigma)
    exp = attach_meter(exp, "E", T2, g, sigma)
    return postselect(run_coupled(exp), "D2")


def one_meter_mixture(g, sigma=1.0, arm="B"):
    layout = nested_mzi_preset()
    exp = attach_meter(new_experiment(layout), arm, T1, g, sigma)
    return postselect(run_coupled(exp), "D2")


@pytest.fixture(scope="module")
def mixture():
    return two_meter_mixture()


def test_plan_validation():
    with pytest.raises(ValueError):
        ReadoutPlan(("x", "q"), 100, 0)
    with pytest.raises(ValueError):
        ReadoutPlan(("x",), 0, 0)
    with pytest.raises(ValueError):
        ReadoutPlan(("x",), 100, -1)
    with pytest.raises(ValueError):
        ReadoutPlan(("x",), 100, 2**64)


def test_plan_must_cover_every_meter(mixture):
    with pytest.raises(ValueError, match="quadratures"):
        sample_readings(mixture, ReadoutPlan(("x",), 100, 0))


def test_same_seed_reproduces_bit_for_bit(mixture):
    a = sample_readings(mixture, ReadoutPlan(("x", "p"), 3000, 99))
    b = sample_readings(mixture, ReadoutPlan(("x", "p"), 3000, 99))
    assert np.array_equal(a.readings, b.readings)
    assert a.acceptance_rate == b.acceptance_rate


def test_different_seeds_differ(mixture):
    a = sample_readings(mixture, ReadoutPlan(("x", "x"), 1000, 1))
    b = sample_readings(mixture, ReadoutPlan(("x", "x"), 1000, 2))
    assert not np.array_equal(a.readings, b.readings)


def test_partitioning_does_not_change_readings(mixture):
    # rows [4096b, 4096(b+1)) depend on (seed, b) only, so a longer batch
    # starts with the shorter one
    short = sample_readings(mixture, ReadoutPlan(("x", "x"), BLOCK_SIZE + 7, 5))
    long = sample_readings(mixture, ReadoutPlan(("x", "x"), 3 * BLOCK_SIZE, 5))
    assert np.array_equal(long.readings[: BLOCK_SIZE + 7], short.readings)


def test_batch_bookkeeping(mixture):
    batch = sample_readings(mixture, ReadoutPlan(("x", "p"), 500, 3))
    assert batch.readings.shape == (500, 2)
    assert batch.postselection_probability == mixture.postselection_probability
    assert 0 < batch.acceptance_rate <= 1


def test_zero_coupling_readings_are_exactly_gaussian():
    sigma = 0.9
    mix = one_meter_mixture(0.0, sigma)
    x = sample_readings(mix, ReadoutPlan(("x",), 20000, 11)).readings[:, 0]
    p = sample_readings(mix, ReadoutPlan(("p",), 20000, 12)).readings[:, 0]
    assert stats.kstest(x, "norm", args=(0.0, sigma)).pvalue > 1e-3
    assert stats.kstest(p, "norm", args=(0.0, 0.5 / sigma)).pvalue > 1e-3


def test_interference_density_moments(mixture):
    # all four combinations, moderate n, fixed seeds; z-scores within 4
    n = 60_000
    combos = [("x", "x"), ("p", "p"), ("x", "p"), ("p", "x")]
    batches = [
        sample_readings(mixture, ReadoutPlan(c, n, 100 + k))
        for k, c in enumerate(combos)
    ]
    est = estimate_from_samples(batches)
    assert not est.degenerate
    for (mid, quad), moment in est.singles.items():
        z = (moment.value - pointer_mean(mixture, mid, quad)) / moment.stderr
        assert abs(z) < 4, (mid, quad, z)
    for (qa, qb), moment in est.pair_moments.items():
        exact = pointer_corr(mixture, (0, qa), (1, qb))
        z = (moment.value - exact) / moment.stderr
        assert abs(z) < 4, (qa, qb, z)
    seq_exact = estimate_sequential_weak_value(mixture, 0, 1)
    assert abs(est.sequential.real - seq_exact.real) < 4 * est.sequential_stderr[0]
    assert abs(est.sequential.imag - seq_exact.imag) < 4 * est.sequential_stderr[1]


def test_single_reading_is_degenerate(mixture):
    batch = sample_readings(mixture, ReadoutPlan(("x", "x"), 1, 0))
    est = estimate_from_samples([batch])
    assert est.degenerate
    assert math.isinf(est.singles[(0, "x")].stderr)


def test_batches_must_share_meter_configuration():
    a = sample_readings(two_meter_mixture(0.3), ReadoutPlan(("x", "x"), 200, 0))
    b = sample_readings(two_meter_mixture(0.4), ReadoutPlan(("p", "p"), 200, 0))
    with pytest.raises(ValueError, match="different meter"):
        estimate_from_samples([a, b])


def test_estimates_without_full_combination_set(mixture):
    batch = sample_readings(mixture, ReadoutPlan(("x", "x"), 300, 8))
    est = estimate_from_samples([batch])
    assert est.zeta is None
    assert est.sequential is None
    assert ("x", "x") in est.pair_moments


def test_sequential_estimate_needs_nonzero_couplings():
    mix = two_meter_mixture(0.0)
    combos = [("x", "x"), ("p", "p"), ("x", "p"), ("p", "x")]
    batches = [
        sample_readings(mix, ReadoutPlan(c, 300, k)) for k, c in enumerate(combos)
    ]
    est = estimate_from_samples(batches)
    assert est.zeta is not None
    assert est.sequential is None


def test_required_samples_scaling_law():
    model = CostModel(constant=10.0)
    base = required_samples(0.2, 0.2, 1.0, 0.05, model)
    # halving both strengths costs 16x
    assert required_samples(0.1, 0.1, 1.0, 0.05, model) == pytest.approx(
        16 * base, rel=1e-6
    )
    # halving the error target costs 4x
    assert required_samples(0.2, 0.2, 1.0, 0.025, model) == pytest.approx(
        4 * base, rel=1e-6
    )
    # doubling sigma costs 16x
    assert required_samples(0.2, 0.2, 2.0, 0.05, model) == pytest.approx(
        16 * base, rel=1e-6
    )


def test_required_samples_clamps_and_validates():
    model = CostModel(constant=1.0)
    assert required_samples(10.0, 10.0, 1.0, 0.9, model) == MIN_SAMPLES
    with pytest.raises(ValueError):
        required_samples(0.0, 0.1, 1.0, 0.1, model)
    with pytest.raises(ValueError):
        required_samples(0.1, 0.1, 1.0, 0.0, model)


def test_calibrated_model_predicts_observed_error(mixture):
    model = calibrate_cost_model(mixture, 0.5 + 0j, n=20_000, seed=21)
    assert model.constant > 0
    # the law built from the fit must reproduce the fitted point itself
    n = required_samples(0.3, 0.3, 1.0, 0.05, model)
    rel_at_n = math.sqrt(model.constant * 1.0 / (0.3 * 0.3) ** 2 / n)
    assert rel_at_n <= 0.05 * 1.001


def test_export_batch_csv(tmp_path, mixture):
    batch = sample_readings(mixture, ReadoutPlan(("x", "p"), 50, 17))
    path = tmp_path / "readings.csv"
    out = export_batch_csv(batch, path)
    assert out == path
    lines = path.read_text().splitlines()
    assert lines[0] == "meter_id,quadrature,reading"
    assert len(lines) == 1 + 50 * 2  # one row per meter per reading
    first = lines[1].split(",")
    assert first[0] == "0" and first[1] == "x"
    float(first[2])  # parses

    meta = json.loads((tmp_path / "readings.csv.meta.json").read_text())
    assert meta["seed"] == 17
    assert meta["n"] == 50
    assert meta["quadratures"] == ["x", "p"]
    assert meta["pass_rate"] == pytest.approx(mixture.postselection_probability)
    assert len(meta["meters"]) == 2
    assert meta["meters"][0]["arm"] == "B"


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


def test_hopeless_acceptance_raises_before_drawing():
    # a feeble meter barely opens the dark port: P ~ 2.5e-9, and so is the
    # predicted acceptance of the rejection sampler
    exp = attach_meter(new_experiment(parse_network(DARK_MZI)), "A", 1, 2e-4, 1.0)
    mix = postselect(run_coupled(exp), "PD")
    assert len(mix.amplitudes) == 2
    assert mix.postselection_probability == pytest.approx(2.5e-9, rel=1e-3)
    start = time.perf_counter()
    with pytest.raises(SamplingBudgetExceeded, match="predicted acceptance 2.5"):
        sample_readings(mix, ReadoutPlan(("x",), 10, 1))
    assert time.perf_counter() - start < 1.0


def test_block_past_its_budget_raises(monkeypatch, mixture):
    # the check inside the draw loop: a block that has used its budget and
    # is still short of readings stops instead of drawing on
    monkeypatch.setattr(sampling, "CANDIDATE_BUDGET", 1 << 17)
    density = sampling._Density(mixture, ("x", "x"))
    with pytest.raises(SamplingBudgetExceeded, match="predicted acceptance"):
        density.sample_block(3, 0, 10 ** 6)


def test_budget_leaves_room_for_the_preset(mixture):
    batch = sample_readings(mixture, ReadoutPlan(("p", "x"), BLOCK_SIZE, 8))
    assert BLOCK_SIZE / batch.acceptance_rate < CANDIDATE_BUDGET / 100
