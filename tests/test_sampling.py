"""Monte Carlo readout: reproducibility, distribution, error bars, cost law."""

import dataclasses
import math
import os
import subprocess
import sys
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from layouts import random_layout
from scipy import stats
from scipy.special import ndtr

import tsvfsim
from tsvfsim.meter import (
    QUADRATURE_PAIRS,
    ZeroProbability,
    attach_meter,
    estimate_sequential_weak_value,
    new_experiment,
    pointer_corr,
    pointer_mean,
    postselect,
    run_coupled,
    zeta_corr,
    zeta_from_correlators,
)
from tsvfsim import cli, sampling
from tsvfsim.network import nested_mzi_preset, parse_network
from tsvfsim.tsvf import forward_state, postselection_amplitude
from tsvfsim.sampling import (
    BLOCK_SIZE,
    CANDIDATE_BUDGET,
    MAX_READINGS,
    MIN_SAMPLES,
    CostModel,
    JACKKNIFE_BLOCKS,
    ReadoutPlan,
    SamplingBudgetExceeded,
    calibrate_cost_model,
    estimate_from_samples,
    readout_plans,
    required_samples,
    sample_moments,
    sample_readings,
)

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import workloads  # noqa: E402  (the benchmark's seeded layouts)

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


def test_plan_bounds_its_readings():
    # criterion 7's run and the CLI default: 10**6 readings of two quadratures
    assert {p.n for p in readout_plans(1_000_000, 0)} == {1_000_000}
    assert ReadoutPlan(("x", "x"), MAX_READINGS // 2, 0).n == MAX_READINGS // 2
    with pytest.raises(ValueError) as err:
        ReadoutPlan(("x", "x"), MAX_READINGS // 2 + 1, 0)
    assert str(err.value).endswith(f"need {MAX_READINGS + 2} values (limit {MAX_READINGS})")


def test_estimates_need_batches():
    with pytest.raises(ValueError, match="no batches given"):
        estimate_from_samples([])
    with pytest.raises(ValueError, match="no batches given"):
        estimate_from_samples(iter([]))


def test_calibration_needs_two_meters():
    with pytest.raises(ValueError, match="cost calibration needs a two-meter mixture"):
        calibrate_cost_model(one_meter_mixture(0.3), 0.5)


def test_readout_plans_follow_the_pairs_and_wrap_the_seed():
    plans = readout_plans(100, 2**64 - 1)
    assert [p.quadratures for p in plans] == list(QUADRATURE_PAIRS)
    assert [p.seed for p in plans] == [2**64 - 1, 0, 1, 2]
    assert {p.n for p in plans} == {100}
    for seed in (-1, 2**64):
        with pytest.raises(ValueError, match="seed must fit in 64 bits"):
            readout_plans(100, seed)


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


def test_seeds_past_2_63_draw_their_own_streams(mixture):
    def readings(seed):
        return sample_readings(mixture, ReadoutPlan(("x", "x"), 200, seed)).readings

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert not np.array_equal(readings(2**63), readings(2**63 + 1))
        assert not np.array_equal(readings(2**64 - 1), readings(0))


def test_calibration_seed_wraps_past_the_top_of_64_bits(mixture):
    model = calibrate_cost_model(mixture, 0.5 + 0j, n=1000, seed=2**64 - 1)
    assert model.constant > 0
    for seed in (-1, 2**64):
        with pytest.raises(ValueError, match="seed must fit in 64 bits"):
            calibrate_cost_model(mixture, 0.5 + 0j, n=1000, seed=seed)


def test_partitioning_does_not_change_readings(mixture):
    # rows [4096b, 4096(b+1)) depend on (seed, b) only, so a longer batch
    # starts with the shorter one
    short = sample_readings(mixture, ReadoutPlan(("x", "x"), BLOCK_SIZE + 7, 5))
    long = sample_readings(mixture, ReadoutPlan(("x", "x"), 3 * BLOCK_SIZE, 5))
    assert np.array_equal(long.readings[: BLOCK_SIZE + 7], short.readings)


def test_batch_bookkeeping(mixture):
    batch = sample_readings(mixture, ReadoutPlan(("x", "p"), 500, 3))
    assert batch.readings.shape == (500, 2)
    assert 0 < batch.acceptance_rate <= 1


def test_zero_coupling_readings_are_exactly_gaussian():
    sigma = 0.9
    mix = one_meter_mixture(0.0, sigma)
    x = sample_readings(mix, ReadoutPlan(("x",), 20000, 11)).readings[:, 0]
    p = sample_readings(mix, ReadoutPlan(("p",), 20000, 12)).readings[:, 0]
    assert stats.kstest(x, "norm", args=(0.0, sigma)).pvalue > 1e-3
    assert stats.kstest(p, "norm", args=(0.0, 0.5 / sigma)).pvalue > 1e-3


def x_marginal_cdf(mixture, j):
    """Exact cdf of meter j's x reading, whatever the other meters read:
    F(v) = sum_{c,d} Re(A_c conj(A_d) prod_i O_i(c, d)) Phi((v - (s_cj + s_dj) / 2) / sigma_j) / P
    over term pairs, where O_i(c, d) = exp(-(s_ci - s_di)^2 / (8 sigma_i^2)) is the overlap
    of meter i's two packets, j included.  Pairs with one centre are summed first."""
    shifts, amps = mixture.entries()
    sigmas = np.array([m.sigma for m in mixture.meters])
    gaps = (shifts[:, None, :] - shifts[None, :, :]) / sigmas
    weights = (np.outer(amps, amps.conj()) * np.exp(-np.square(gaps).sum(axis=2) / 8)).real
    centres, which = np.unique(0.5 * np.add.outer(shifts[:, j], shifts[:, j]),
                               return_inverse=True)
    mass = np.bincount(which.ravel(), weights.ravel()) / mixture.postselection_probability
    return lambda v: ndtr((np.asarray(v)[:, None] - centres) / sigmas[j]) @ mass


def test_x_readings_follow_their_exact_marginal_density(mixture):
    # the preset's x columns at the montecarlo seed, and every meter of the
    # dense mixture; readings of the same terms without their interference
    # cross terms fail by hundreds of orders of magnitude
    cases = [(mixture, plan) for plan in readout_plans(200_000, 1) if "x" in plan.quadratures]
    dense = dense_mixture()
    cases.append((dense, ReadoutPlan(("x",) * len(dense.meters), 8192, 1)))
    for mix, plan in cases:
        readings = sample_readings(mix, plan).readings
        for j in np.flatnonzero(np.array(plan.quadratures) == "x"):
            pvalue = stats.kstest(readings[:, j], x_marginal_cdf(mix, j)).pvalue
            assert pvalue > 1e-3, (plan.quadratures, j, pvalue)


def test_interference_density_moments(mixture):
    # all four combinations, moderate n, fixed seeds; z-scores within 4
    n = 60_000
    combos = [("x", "x"), ("p", "p"), ("x", "p"), ("p", "x")]
    batches = [
        sample_readings(mixture, ReadoutPlan(c, n, 100 + k))
        for k, c in enumerate(combos)
    ]
    est = estimate_from_samples(batches)
    assert all(math.isfinite(e.stderr) for e in [*est.singles.values(), *est.pair_moments.values()])
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
    assert math.isinf(est.singles[(0, "x")].stderr)


def test_batches_must_share_meter_configuration():
    a = sample_readings(two_meter_mixture(0.3), ReadoutPlan(("x", "x"), 200, 0))
    b = sample_readings(two_meter_mixture(0.4), ReadoutPlan(("p", "p"), 200, 0))
    with pytest.raises(ValueError, match="different meter"):
        estimate_from_samples([a, b])
    with pytest.raises(ValueError, match="different meter"):
        estimate_from_samples(batch for batch in (a, b))


def assert_same_estimates(got, want):
    # repr writes each float in round-trip form, so equal text is equal bits
    for field in dataclasses.fields(want):
        assert repr(getattr(got, field.name)) == repr(getattr(want, field.name)), field.name


def test_streamed_batches_estimate_bit_for_bit_as_a_list(mixture):
    plans = readout_plans(5000, 17)
    listed = estimate_from_samples([sample_readings(mixture, plan) for plan in plans])
    streamed = estimate_from_samples(iter([sample_readings(mixture, plan) for plan in plans]))
    drawn = estimate_from_samples(sample_readings(mixture, plan) for plan in plans)
    folded = estimate_from_samples(sample_moments(mixture, plan) for plan in plans)
    assert listed.sequential is not None
    assert_same_estimates(streamed, listed)
    assert_same_estimates(drawn, listed)
    assert_same_estimates(folded, listed)


def test_one_streamed_dense_batch_estimates_as_a_list():
    mix = dense_mixture()
    batch = sample_readings(mix, ReadoutPlan(tuple("xpxpxpxpxp"), 4096, 3))
    listed = estimate_from_samples([batch])
    assert len(listed.singles) == 10 and not listed.pair_moments
    assert_same_estimates(estimate_from_samples(iter([batch])), listed)


def test_montecarlo_holds_one_batch_at_a_time(tmp_path):
    # one plan's readings (2 x 8 B per reading) and its pair product (8 B);
    # four batches held together would take 64 B per reading
    out = str(tmp_path / "mc.csv")
    cli.main(["montecarlo", "--n", "100", "--out", out])  # first-call caches

    def peak(n):
        tracemalloc.start()
        try:
            assert cli.main(["montecarlo", "--n", str(n), "--out", out]) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    slope = (peak(200_000) - peak(50_000)) / 150_000
    assert slope <= 24, slope


def test_montecarlo_memory_is_flat_in_n(tmp_path):
    # each plan is folded block by block into jackknife sums: no array grows
    # with n, where a whole batch and its product column grew 15.7 B per reading
    out = str(tmp_path / "mc.csv")
    cli.main(["montecarlo", "--n", "100", "--out", out])  # first-call caches

    def peak(n):
        tracemalloc.start()
        try:
            assert cli.main(["montecarlo", "--n", str(n), "--out", out]) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    slope = (peak(200_000) - peak(50_000)) / 150_000
    assert slope <= 1, slope


def jackknife_mean(samples):
    """Mean with a delete-one-block jackknife standard error, each sum taken
    over the whole column or block at once."""
    n = samples.shape[0]
    mean = float(samples.mean())
    if n < 2:
        return mean, math.inf
    blocks = min(JACKKNIFE_BLOCKS, n)
    edges = np.linspace(0, n, blocks + 1).astype(int)
    total = samples.sum()
    loo = np.array([(total - samples[lo:hi].sum()) / (n - (hi - lo))
                    for lo, hi in zip(edges[:-1], edges[1:])])
    return mean, math.sqrt((blocks - 1) / blocks * float(((loo - loo.mean()) ** 2).sum()))


@pytest.mark.parametrize("n", [1, 2, 49, 100, BLOCK_SIZE, 3 * BLOCK_SIZE + 7, 200_000])
def test_folded_moments_match_the_jackknife_of_the_readings(mixture, n):
    for plan in readout_plans(n, 31):
        batch = sample_readings(mixture, plan)
        folded = sample_moments(mixture, plan)
        # one fold: the streamed moments are the batch's, bit for bit
        assert repr(batch.columns) == repr(folded.columns)
        assert folded.acceptance_rate == batch.acceptance_rate
        readings = batch.readings
        columns = [readings[:, 0], readings[:, 1], readings[:, 0] * readings[:, 1]]
        assert len(folded.columns) == len(columns)
        for moment, column in zip(folded.columns, columns):
            value, stderr = jackknife_mean(column)
            assert moment.value == pytest.approx(value, rel=1e-12, abs=0)
            assert moment.stderr == pytest.approx(stderr, rel=1e-12, abs=0)


def test_one_meter_moments_have_no_pair_column():
    mix = one_meter_mixture(0.3)
    batch = sample_readings(mix, ReadoutPlan(("p",), 1000, 4))
    (moment,) = batch.columns
    value, stderr = jackknife_mean(batch.readings[:, 0])
    assert (moment.value, moment.stderr) == pytest.approx((value, stderr), rel=1e-12, abs=0)


@pytest.mark.parametrize("sigmas", [(1.0, 1.0), (0.5, 2.0)], ids=["preset", "unequal_widths"])
def test_standard_errors_are_calibrated(sigmas):
    # mean z^2 over 200 fixed seeds of the four plans at 4096 readings: the
    # chi^2_200 band at 1e-3 per side is [0.72, 1.34]; an error off by a
    # factor sqrt(2), or the zeta error with the two widths swapped, leaves it
    exp = attach_meter(new_experiment(nested_mzi_preset()), "B", T1, 0.3, sigmas[0])
    mix = postselect(run_coupled(attach_meter(exp, "E", T2, 0.3, sigmas[1])), "D2")
    zeta = zeta_corr(mix, 0, 1)
    z2: dict[str, list[float]] = {}
    for seed in range(40_000, 40_800, 4):  # plan k draws seed + k: no stream is shared
        est = estimate_from_samples(sample_readings(mix, plan)
                                    for plan in readout_plans(BLOCK_SIZE, seed))
        for (meter_id, quad), moment in est.singles.items():
            z = (moment.value - pointer_mean(mix, meter_id, quad)) / moment.stderr
            z2.setdefault(f"m{meter_id}.{quad}", []).append(z * z)
        z2.setdefault("zeta.re", []).append(
            ((est.zeta.real - zeta.real) / est.zeta_stderr[0]) ** 2)
        z2.setdefault("zeta.im", []).append(
            ((est.zeta.imag - zeta.imag) / est.zeta_stderr[1]) ** 2)
    assert len(z2) == 6 and {len(v) for v in z2.values()} == {200}
    means = {name: sum(values) / len(values) for name, values in z2.items()}
    assert all(0.72 <= mean <= 1.34 for mean in means.values()), means


def test_estimates_without_full_combination_set(mixture):
    batch = sample_readings(mixture, ReadoutPlan(("x", "x"), 300, 8))
    est = estimate_from_samples([batch])
    assert est.zeta is None
    assert est.sequential is None
    assert ("x", "x") in est.pair_moments


def test_estimates_keep_each_combination_s_first_acceptance_rate(mixture):
    xx, px = (sample_readings(mixture, ReadoutPlan(q, 300, 8)) for q in (("x", "x"), ("p", "x")))
    est = estimate_from_samples(iter([xx, px, dataclasses.replace(xx, acceptance_rate=0.5)]))
    assert est.acceptance_rates == {("x", "x"): xx.acceptance_rate, ("p", "x"): px.acceptance_rate}


def test_sequential_estimate_needs_nonzero_couplings():
    mix = two_meter_mixture(0.0)
    combos = [("x", "x"), ("p", "p"), ("x", "p"), ("p", "x")]
    batches = [
        sample_readings(mix, ReadoutPlan(c, 300, k)) for k, c in enumerate(combos)
    ]
    est = estimate_from_samples(batches)
    assert est.zeta is not None
    assert est.sequential is None


def random_two_meter_mixture():
    layout = random_layout(3)
    exp = attach_meter(new_experiment(layout), layout.slices[1][0], 1, 0.4, 0.7)
    exp = attach_meter(exp, layout.slices[2][1], 2, 0.25, 1.3)
    port = max(layout.ports, key=lambda p: abs(postselection_amplitude(layout, p)))
    return postselect(run_coupled(exp), port)


@pytest.mark.parametrize("make", [two_meter_mixture, random_two_meter_mixture],
                         ids=["preset", "random_unequal_sigma"])
def test_one_zeta_formula_for_exact_and_sampled_correlators(make):
    mix = make()
    si, sj = (m.sigma for m in mix.meters)
    exact = [pointer_corr(mix, (0, qa), (1, qb)) for qa, qb in QUADRATURE_PAIRS]
    assert zeta_from_correlators(*exact, si, sj) == zeta_corr(mix, 0, 1)
    est = estimate_from_samples([sample_readings(mix, plan) for plan in readout_plans(400, 5)])
    sampled = [est.pair_moments[c].value for c in QUADRATURE_PAIRS]
    assert zeta_from_correlators(*sampled, si, sj) == est.zeta


def test_subnormal_coupling_product_gives_no_sequential_estimate():
    mix = two_meter_mixture(1e-160)
    est = estimate_from_samples([sample_readings(mix, plan) for plan in readout_plans(300, 3)])
    assert est.zeta is not None
    assert est.sequential is None and est.sequential_stderr is None


@pytest.mark.parametrize("g", [0.0, 1e-160])
def test_calibration_needs_a_normal_coupling_product(g):
    with pytest.raises(ValueError, match="cost calibration needs g1 \\* g2 >= 2.22507e-308"):
        calibrate_cost_model(two_meter_mixture(g), 0.5 + 0j, n=1000)


@pytest.mark.parametrize("g,sigma,constant",
                         [(1e-200, 1.0, 1.0), (1e-100, 1.0, 1.0), (1e-5, 1.0, 1e300),
                          (0.2, 1e100, 1.0), (1e200, 1e100, 1.0)],
                         ids=["product_underflows", "divisor_underflows", "overflows",
                              "width_overflows", "width_and_divisor_overflow"])
def test_required_samples_reports_divergence(g, sigma, constant):
    with pytest.raises(ValueError, match="cost model diverges for these parameters"):
        required_samples(g, g, sigma, 0.1, CostModel(constant))


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
    # a divisor past the float range asks for less than one sample
    assert required_samples(1e200, 0.2, 1.0, 0.1, model) == MIN_SAMPLES
    assert required_samples(0.2, 0.2, 1.0, 1e200, model) == MIN_SAMPLES
    # both sides overflow, inf / inf; the law asks for about 1e-289 samples
    assert required_samples(1e150, 1e150, 1e77, 0.1, CostModel(10.0)) == MIN_SAMPLES
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
    # a feeble meter barely opens the dark port: P ~ 2.5e-9, and the two
    # terms' opposite signs let the envelope hold only twice that
    exp = attach_meter(new_experiment(parse_network(DARK_MZI)), "A", 1, 2e-4, 1.0)
    mix = postselect(run_coupled(exp), "PD")
    assert len(mix.amplitudes) == 2
    assert mix.postselection_probability == pytest.approx(2.5e-9, rel=1e-3)
    start = time.perf_counter()
    with pytest.raises(SamplingBudgetExceeded, match="predicted acceptance 5.0"):
        sample_readings(mix, ReadoutPlan(("x",), 10, 1))
    assert time.perf_counter() - start < 1.0


def test_block_past_its_budget_raises(monkeypatch, mixture):
    # the check inside the draw loop: a block that has used its budget and
    # is still short of readings stops instead of drawing on
    monkeypatch.setattr(sampling, "CANDIDATE_BUDGET", 1 << 17)
    density = sampling._Density(mixture, ("x", "x"))
    with pytest.raises(SamplingBudgetExceeded, match="predicted acceptance"):
        density.sample_block(3, 0, np.empty((10 ** 6, 2)))


def test_budget_leaves_room_for_the_preset(mixture):
    batch = sample_readings(mixture, ReadoutPlan(("p", "x"), BLOCK_SIZE, 8))
    assert BLOCK_SIZE / batch.acceptance_rate < CANDIDATE_BUDGET / 100


QUADRATURE_PAIRS = [("x", "x"), ("p", "p"), ("x", "p"), ("p", "x")]


def test_preset_draws_few_candidates_per_reading(mixture):
    # the envelope accepts 0.40, 0.25, 0.29 and 0.33 of its candidates, and
    # each chunk draws 1.05 times what it expects to need
    per_reading = [1 / sample_readings(mixture, ReadoutPlan(q, 200_000, 51 + k)).acceptance_rate
                   for k, q in enumerate(QUADRATURE_PAIRS)]
    assert sum(per_reading) / 4 <= 3.6


def dense_mixture():
    """The dense-meters benchmark's mixture at seed 1: 10 meters, 28 terms."""
    joint = run_coupled(workloads.dense_experiment(1))
    mixtures = {}
    for port in joint.experiment.layout.ports:
        try:
            mixtures[port] = postselect(joint, port)
        except ZeroProbability:
            pass
    return mixtures[workloads.richest_port(mixtures)]


def test_dense_mixture_draws_few_candidates_per_reading():
    mix = dense_mixture()
    assert len(mix.amplitudes) == 28
    batch = sample_readings(mix, ReadoutPlan(("x",) * len(mix.meters), 8192, 1))
    assert 1 / batch.acceptance_rate <= 12.5


def ladder_mixture(m):
    """4-arm layered layout with one meter (g = 0.3, sigma = 1) per
    intermediate slice on its most occupied arm, postselected on the port
    with the most mixture terms."""
    rng = np.random.Generator(np.random.Philox(key=[5, 1]))
    layout = workloads.layered_layout(rng, 4, m + 2)
    exp = new_experiment(layout)
    for k in range(1, layout.n_slices - 1):
        occupation = np.abs(forward_state(layout, k).amplitudes) ** 2
        arms = layout.slices[k]
        exp = attach_meter(exp, arms[int(np.argmax(occupation))], k, 0.3, 1.0)
    joint = run_coupled(exp)
    mixtures = {port: postselect(joint, port) for port in layout.ports}
    return mixtures[workloads.richest_port(mixtures)]


def test_pair_table_past_the_budget_raises_before_it_is_built():
    mix = ladder_mixture(16)
    assert len(mix.amplitudes) == 3494
    start = time.perf_counter()
    with pytest.raises(SamplingBudgetExceeded, match="3494 mixture terms"):
        sample_readings(mix, ReadoutPlan(("x",) * 16, 10, 1))
    assert time.perf_counter() - start < 1.0


def test_pair_table_holds_no_array_per_meter():
    mix = ladder_mixture(14)
    assert len(mix.amplitudes) == 1910
    tracemalloc.start()
    try:
        density = sampling._Density(mix, ("x",) * 14)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert density.cdf.size == 1910 ** 2
    # the pair table and one work array of T^2 floats, where a (T^2, m)
    # array of pair means alone would take m = 14 of them
    assert peak < 3 * 8 * 1910 ** 2


def test_a_dense_mixed_readout_weighs_its_candidates_in_tiles():
    mix = dense_mixture()
    plan = ReadoutPlan(tuple("xp" * 5), 8192, 1)
    tracemalloc.start()
    try:
        sample_readings(mix, plan)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a chunk of up to 2^21 / 28 candidates weighed at once peaked at 59.4 MiB
    assert peak < 16 * 2 ** 20


@pytest.mark.parametrize("case", ["dense-x", "dense-mixed", "preset-xp"])
def test_readings_do_not_depend_on_the_tile_size(monkeypatch, mixture, case):
    if case == "preset-xp":
        mix, quads = mixture, ("x", "p")
    else:
        mix = dense_mixture()
        quads = ("x",) * 10 if case == "dense-x" else tuple("xp" * 5)
    plan = ReadoutPlan(quads, 8192, 4)
    batches = []
    # 2^21 entries make every chunk one tile, 0 gives the 1024-row floor
    for entries in (1 << 21, sampling._TILE_ENTRIES, 0):
        monkeypatch.setattr(sampling, "_TILE_ENTRIES", entries)
        batches.append(sample_readings(mix, plan))
    for batch in batches[1:]:
        assert batch.readings.tobytes() == batches[0].readings.tobytes()
        assert batch.acceptance_rate == batches[0].acceptance_rate


# ----------------------------------------------------------------------
# The factored density kernel against the closed-form packets


def reference_weights(mixture, quadratures, v, turn):
    """Density |sum_t A_t w_t|^2 at the rows of ``v``, with w_t the product
    over meters of the position packet (2 pi sigma^2)^(-1/4) exp(-(v - s)^2 /
    (4 sigma^2)) for x readout and the momentum packet (2 sigma^2 / pi)^(1/4)
    exp(-sigma^2 v^2 - i v s) for p readout, term by term; and the envelope
    the sampler draws from, pair by pair, with its pair weights.

    A pair (s, s') weighs sum_g a_gs a_gs' (the four non-negative parts of
    ``turn * A``) when its p shifts agree and |A_s| |A_s'| otherwise, times
    the overlap exp(-(s_j - s'_j)^2 / (8 sigma_j^2)) of every x meter; its
    component is the product of N((s_j + s'_j) / 2, sigma_j^2) (x readout)
    and N(0, 1 / (4 sigma_j^2)) (p readout)."""
    shifts, amps = mixture.entries()
    psi = np.zeros(len(v), dtype=complex)
    for shift, amp in zip(shifts, amps):
        w = np.ones(len(v), dtype=complex)
        for j, (m, quad, s) in enumerate(zip(mixture.meters, quadratures, shift)):
            sig2 = m.sigma ** 2
            if quad == "x":
                w *= (2 * math.pi * sig2) ** -0.25 * np.exp(-(v[:, j] - s) ** 2 / (4 * sig2))
            else:
                w *= (2 * sig2 / math.pi) ** 0.25 * np.exp(-sig2 * v[:, j] ** 2 - 1j * v[:, j] * s)
        psi += amp * w
    turned = turn * amps
    parts = np.maximum(0.0, [turned.real, -turned.real, turned.imag, -turned.imag]).T
    is_p = np.array([q == "p" for q in quadratures])
    pair_weights = np.zeros((len(amps), len(amps)))
    env = np.zeros(len(v))
    for a in range(len(amps)):
        for b in range(len(amps)):
            if np.array_equal(shifts[a, is_p], shifts[b, is_p]):
                weight = parts[a] @ parts[b]
            else:
                weight = abs(amps[a]) * abs(amps[b])
            component = np.ones(len(v))
            for j, (m, quad) in enumerate(zip(mixture.meters, quadratures)):
                if quad == "x":
                    weight *= math.exp(-(shifts[a, j] - shifts[b, j]) ** 2 / (8 * m.sigma ** 2))
                    mean, sd = (shifts[a, j] + shifts[b, j]) / 2, m.sigma
                else:
                    mean, sd = 0.0, 0.5 / m.sigma
                component *= stats.norm.pdf(v[:, j], mean, sd)
            pair_weights[a, b] = weight
            env += weight * component
    return np.abs(psi) ** 2, env, pair_weights


def random_mixture(seed):
    """1-6 meters on a random layout, postselected on its likeliest port;
    meter 0 has zero strength from three meters on, and from four meters on
    meters 1 and 2 share arm and slice."""
    layout = random_layout(seed)
    rng = np.random.default_rng(seed)
    n_meters = 1 + seed % 6
    exp = new_experiment(layout)
    for j in range(n_meters):
        if j == 2 and n_meters >= 4:
            arm, k = exp.meters[1].arm, exp.meters[1].slice_index
        else:
            k = int(rng.integers(0, layout.n_slices))
            arm = layout.slices[k][int(rng.integers(len(layout.slices[k])))]
        g = 0.0 if j == 0 and n_meters >= 3 else float(rng.uniform(0.1, 0.9))
        exp = attach_meter(exp, arm, k, g, float(rng.uniform(0.5, 1.5)))
    joint = run_coupled(exp)
    mixtures = []
    for port in exp.layout.ports:
        try:
            mixtures.append(postselect(joint, port))
        except ZeroProbability:
            pass
    return max(mixtures, key=lambda mix: mix.postselection_probability)


def strong_mixture(g=60.0, sigma=1.0):
    # by default g / sigma = 60 on both meters: an exponent expanded into
    # v s / (2 sigma^2) and the other terms would reach 1800 at the (60, 60)
    # term, past what exp can hold
    exp = attach_meter(new_experiment(nested_mzi_preset()), "B", T1, g, sigma)
    return postselect(run_coupled(attach_meter(exp, "E", T2, g, sigma)), "D2")


KERNEL_CASES = [(f"random-{seed}", seed) for seed in range(12)] + [("strong", None)]


@pytest.mark.parametrize("readout", ["x", "p", "mixed"])
@pytest.mark.parametrize("name, seed", KERNEL_CASES, ids=[c[0] for c in KERNEL_CASES])
def test_kernel_matches_closed_form_packets(name, seed, readout):
    mix = strong_mixture() if seed is None else random_mixture(seed)
    m = len(mix.meters)
    quads = {"x": ("x",) * m, "p": ("p",) * m,
             "mixed": tuple("xp"[(j + (seed or 0)) % 2] for j in range(m))}[readout]
    # candidates around the terms' own shifts, as the envelope draws them
    rng = np.random.default_rng(1000 + (seed or 0))
    is_x = np.array([q == "x" for q in quads])
    shifts = np.array(list(mix.amplitudes))[rng.integers(len(mix.amplitudes), size=2000)]
    width = np.array([1.5 * mt.sigma if q == "x" else 1 / mt.sigma
                      for mt, q in zip(mix.meters, quads)])
    v = np.where(is_x, shifts, 0.0) + width * rng.standard_normal((2000, m))
    density = sampling._Density(mix, quads)
    f, env = density.weights(v)
    f_ref, env_ref, pair_weights = reference_weights(mix, quads, v, density.turn)
    assert np.all(env_ref > 0)
    # u env < f accepts with probability f / env; compare it on the
    # envelope's scale, where cancellation in f leaves its rounding
    assert np.max(np.abs(f / env - f_ref / env_ref)) < 1e-12
    assert np.all(f <= env * (1 + 1e-12))
    # the kernel's envelope is the pair mixture the sampler draws from, up
    # to one constant and the momentum packets' moduli it leaves out
    moduli = np.ones(len(v))
    for j in np.flatnonzero(~is_x):
        moduli *= np.exp(-2 * mix.meters[j].sigma ** 2 * v[:, j] ** 2)
    ratio = env * moduli / env_ref
    assert np.max(np.abs(ratio / ratio[0] - 1)) < 1e-12
    cdf = np.cumsum(pair_weights.ravel())
    assert np.max(np.abs(density.cdf - cdf / cdf[-1])) < 1e-12
    assert density.rate == pytest.approx(mix.postselection_probability / cdf[-1], rel=1e-12)


def plain_weights(mixture, quadratures, density, v):
    """The kernel's density and envelope, term by term with fresh arrays:
    w_t = prod over x meters of exp(-((v_j - s_tj) / (2 sigma_j))^2) and over
    p meters of exp(-i v_j s_tj), f = |sum_t A_t w_t|^2 and env = sum_c
    sign_c (sum_t |w_t| col_c[t])^2 over the density's envelope columns."""
    shifts, amps = mixture.entries()
    mags = np.empty((len(v), len(amps)))
    psi = np.zeros(len(v), dtype=complex)
    for t, (shift, amp) in enumerate(zip(shifts, amps)):
        w = np.ones(len(v), dtype=complex)
        for j, (mt, quad, s) in enumerate(zip(mixture.meters, quadratures, shift)):
            if quad == "x":
                w *= np.exp(-(((v[:, j] - s) / (2 * mt.sigma)) ** 2))
            else:
                w *= np.exp(-1j * v[:, j] * s)
        mags[:, t] = np.abs(w)
        psi += amp * w
    env = sum(sign * (mags @ col) ** 2 for col, sign in zip(density.env_cols.T, density.env_signs))
    return np.abs(psi) ** 2, env


@pytest.mark.parametrize("readout", ["x", "p", "mixed"])
@pytest.mark.parametrize("name", ["preset", "dense"])
def test_kernel_workspace_matches_plain_weights(name, readout):
    mix = two_meter_mixture() if name == "preset" else dense_mixture()
    m = len(mix.meters)
    quads = {"x": ("x",) * m, "p": ("p",) * m, "mixed": tuple("xp" * m)[:m]}[readout]
    density = sampling._Density(mix, quads)
    rng = np.random.default_rng(7)
    shifts = np.array(list(mix.amplitudes))[rng.integers(len(mix.amplitudes), size=3000)]
    v = np.where(np.array(quads) == "x", shifts, 0.0) + rng.standard_normal((3000, m))
    # a long call, then a short one in the same reused buffers
    for rows in (v, v[:1000]):
        f, env = density.weights(rows)
        f_ref, env_ref = plain_weights(mix, quads, density, rows)
        assert np.max(np.abs(env / env_ref - 1)) < 1e-13
        # f may cancel to near 0: compare it on the envelope's scale
        assert np.max(np.abs(f - f_ref) / env_ref) < 1e-13
        workspace = (np.empty(len(rows)), np.empty(len(rows)))
        got = density.weights(rows, out=workspace)
        assert got[0] is workspace[0] and np.array_equal(got[0], f)
        assert np.array_equal(got[1], env)


def test_kernel_cases_cover_the_edge_cases():
    mixtures = [random_mixture(seed) for seed in range(12)]
    assert {len(mix.meters) for mix in mixtures} == {1, 2, 3, 4, 5, 6}
    assert any(mt.strength == 0.0 for mix in mixtures for mt in mix.meters)
    assert any(
        len(mix.meters) >= 4
        and (mix.meters[1].arm, mix.meters[1].slice_index)
        == (mix.meters[2].arm, mix.meters[2].slice_index)
        for mix in mixtures
    )
    assert any(len(mix.amplitudes) >= 4 for mix in mixtures)
    # read all-p, some term fires three or more p meters: its group's phase
    # is a product of three or more factors
    assert any((mix.entries()[0] != 0.0).sum(axis=1).max() >= 3 for mix in mixtures)


@pytest.mark.parametrize("readout", ["p", "mixed"])
@pytest.mark.parametrize("name", ["preset", "random-5"])
def test_kernel_takes_one_cos_and_sin_per_p_meter(monkeypatch, name, readout):
    mix = two_meter_mixture() if name == "preset" else random_mixture(5)
    m = len(mix.meters)
    quads = ("p",) * m if readout == "p" else tuple("xp"[(j + 1) % 2] for j in range(m))
    density = sampling._Density(mix, quads)
    v = np.random.default_rng(5).standard_normal((2000, m))
    want = density.weights(v)
    elements = {"complex exp": [], "cos": [], "sin": []}

    def counting(label, ufunc, complex_only=False):
        def counted(x, *args, **kwargs):
            if not complex_only or np.iscomplexobj(x):
                elements[label].append(np.size(x))
            return ufunc(x, *args, **kwargs)
        return counted

    monkeypatch.setattr(np, "exp", counting("complex exp", np.exp, complex_only=True))
    monkeypatch.setattr(np, "cos", counting("cos", np.cos))
    monkeypatch.setattr(np, "sin", counting("sin", np.sin))
    got = density.weights(v)
    assert elements["complex exp"] == []
    for label in ("cos", "sin"):
        assert 0 < sum(elements[label]) <= quads.count("p") * len(v), label
    assert all(np.array_equal(a, b) for a, b in zip(got, want))


def test_strong_meters_sample_the_right_means():
    # the second case has g / sigma = 3e11: its squared distances g^2 / (4
    # sigma^2) reach 2e22, so an exponent written as a difference of such
    # numbers keeps no digit
    for mix in (strong_mixture(), strong_mixture(0.3, 1e-12)):
        batch = sample_readings(mix, ReadoutPlan(("x", "x"), 20_000, 3))
        est = estimate_from_samples([batch])
        for (mid, quad), moment in est.singles.items():
            z = (moment.value - pointer_mean(mix, mid, quad)) / moment.stderr
            assert abs(z) < 4, (mix.meters[0].sigma, mid, quad, z)


# The kernel's products go through BLAS; seeded readings must not depend on
# how many threads BLAS splits them over.
THREAD_SCRIPT = """
import hashlib
import numpy as np
from layouts import random_layout
from tsvfsim import meter, sampling
from tsvfsim.network import nested_mzi_preset

layout = random_layout(21, max_arms=6, max_stages=8)
rng = np.random.default_rng(21)
exp = meter.new_experiment(layout)
for _ in range(10):
    k = int(rng.integers(1, layout.n_slices - 1))
    exp = meter.attach_meter(exp, layout.slices[k][int(rng.integers(len(layout.slices[k])))],
                             k, 0.3, 1.0)
dense = meter.postselect(meter.run_coupled(exp), "P_a0")
preset = meter.new_experiment(nested_mzi_preset())
preset = meter.attach_meter(meter.attach_meter(preset, "B", 2, 0.3, 1.0), "E", 3, 0.3, 1.0)
preset = meter.postselect(meter.run_coupled(preset), "D2")
for mix, quads, n in ((dense, "xpxpxpxpxp", 4096), (preset, "xp", 20000)):
    batch = sampling.sample_readings(mix, sampling.ReadoutPlan(tuple(quads), n, 5))
    print(len(mix.amplitudes), hashlib.sha256(batch.readings.tobytes()).hexdigest())
"""


def test_readings_do_not_depend_on_blas_threads():
    src = str(Path(tsvfsim.__file__).resolve().parents[1])
    here = str(Path(__file__).resolve().parent)  # the script's random_layout
    path = os.pathsep.join(filter(None, [src, here, os.environ.get("PYTHONPATH")]))
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads)
        proc = subprocess.run([sys.executable, "-c", THREAD_SCRIPT], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    dense_terms = int(outputs[0].split()[0])
    assert dense_terms >= 16
    assert outputs[0] == outputs[1]
