"""Gaussian pointer algebra and coupled-meter closed forms.

Matrix elements get an independent check by numerical quadrature; the
preset closed forms (disturbance law, port probabilities under coupling,
exact pointer means) were derived by hand and are frozen here.
"""

import math
import sys

import numpy as np
import pytest
from scipy.integrate import quad

from layouts import random_layout
from tsvfsim import meter
from tsvfsim.meter import (
    MAX_SIGMA,
    MAX_STRENGTH,
    MIN_COUPLING_PRODUCT,
    MIN_SIGMA,
    Experiment,
    MeterAttachment,
    ZeroProbability,
    arm_probability,
    attach_meter,
    estimate_sequential_weak_value,
    estimate_weak_value,
    gaussian_overlap,
    gaussian_p2_element,
    gaussian_p_element,
    gaussian_x2_element,
    gaussian_x_element,
    new_experiment,
    pointer_corr,
    pointer_mean,
    postselect,
    run_coupled,
    zeta_corr,
    zeta_corr_direct,
)
from tsvfsim.network import nested_mzi_preset, parse_network

T1, T2 = 2, 3


def packet(c, sigma):
    def phi(x):
        return (2 * math.pi * sigma**2) ** -0.25 * math.exp(
            -((x - c) ** 2) / (4 * sigma**2)
        )
    return phi


@pytest.mark.parametrize("a,b,sigma", [
    (0.0, 0.0, 1.0),
    (0.0, 0.7, 1.0),
    (-0.4, 0.9, 0.5),
    (1.2, -0.3, 2.0),
])
def test_elements_against_quadrature(a, b, sigma):
    pa, pb = packet(a, sigma), packet(b, sigma)
    lim = 12 * sigma + abs(a) + abs(b)

    overlap = quad(lambda x: pa(x) * pb(x), -lim, lim)[0]
    assert abs(gaussian_overlap(a, b, sigma) - overlap) < 1e-12

    x_mom = quad(lambda x: pa(x) * x * pb(x), -lim, lim)[0]
    assert abs(gaussian_x_element(a, b, sigma) - x_mom) < 1e-12

    x2_mom = quad(lambda x: pa(x) * x * x * pb(x), -lim, lim)[0]
    assert abs(gaussian_x2_element(a, b, sigma) - x2_mom) < 1e-12

    # p = -i d/dx; phi_b'(x) = -(x - b)/(2 sigma^2) phi_b(x)
    dpb = lambda x: -(x - b) / (2 * sigma**2) * pb(x)
    p_mom = -1j * quad(lambda x: pa(x) * dpb(x), -lim, lim)[0]
    assert abs(gaussian_p_element(a, b, sigma) - p_mom) < 1e-12

    d2pb = lambda x: ((x - b) ** 2 / (4 * sigma**4) - 1 / (2 * sigma**2)) * pb(x)
    p2_mom = -quad(lambda x: pa(x) * d2pb(x), -lim, lim)[0]
    assert abs(gaussian_p2_element(a, b, sigma) - p2_mom) < 1e-12


def test_element_symmetries():
    a, b, sigma = 0.3, -0.8, 0.7
    assert gaussian_overlap(a, b, sigma) == gaussian_overlap(b, a, sigma)
    assert gaussian_x_element(a, b, sigma) == gaussian_x_element(b, a, sigma)
    # p element is purely imaginary: Hermitian under swap+conjugate and
    # antisymmetric under a bare swap
    pab = gaussian_p_element(a, b, sigma)
    pba = gaussian_p_element(b, a, sigma)
    assert pab.real == 0.0
    assert pab == pba.conjugate()
    assert pab == -pba


def test_overlap_frozen_value():
    g, sigma = 0.6, 1.3
    assert abs(
        gaussian_overlap(0.0, g, sigma) - math.exp(-g * g / (8 * sigma**2))
    ) < 1e-15
    assert gaussian_overlap(0.4, 0.4, 2.0) == 1.0


def test_pointer_requires_positive_width():
    with pytest.raises(ValueError):
        MeterAttachment(0, "B", T1, 0.1, 0.0)
    with pytest.raises(ValueError):
        MeterAttachment(0, "B", T1, 0.1, -1.0)


@pytest.fixture
def preset():
    return nested_mzi_preset()


def test_attach_meter_validation(preset):
    exp = new_experiment(preset)
    with pytest.raises(ValueError):
        attach_meter(exp, "E", T1, 0.1, 1.0)  # E is not on slice 2
    with pytest.raises(ValueError):
        attach_meter(exp, "B", T1, -0.1, 1.0)
    with pytest.raises(ValueError):
        attach_meter(exp, "B", T1, 0.1, 0.0)


@pytest.mark.parametrize("strength,sigma", [
    (math.inf, 1.0), (math.nan, 1.0), (0.1, math.inf), (0.1, math.nan),
])
def test_attach_meter_rejects_non_finite_numbers(preset, strength, sigma):
    with pytest.raises(ValueError, match="finite"):
        attach_meter(new_experiment(preset), "B", T1, strength, sigma)
    if not math.isfinite(sigma):
        with pytest.raises(ValueError, match="finite"):
            MeterAttachment(0, "B", T1, 0.1, sigma)


@pytest.mark.parametrize("strength", [-0.1, math.inf, math.nan, 1e51])
def test_meter_attachment_rejects_bad_strength(strength):
    with pytest.raises(ValueError, match="coupling strength must be finite and >= 0"):
        MeterAttachment(0, "B", T1, strength, 1.0)


def test_bounds_admit_their_edges_and_reject_past_them():
    for sigma in (MIN_SIGMA, MAX_SIGMA):
        assert MeterAttachment(0, "B", T1, 0.1, sigma).sigma == sigma
    for sigma in (MIN_SIGMA / 10, MAX_SIGMA * 10):
        with pytest.raises(ValueError, match="pointer width sigma must be finite"):
            MeterAttachment(0, "B", T1, 0.1, sigma)
    edge = MeterAttachment(0, "B", T1, MAX_STRENGTH, 1.0)
    assert edge.strength == MAX_STRENGTH


@pytest.mark.parametrize("g,sigma", [
    (MAX_STRENGTH, MIN_SIGMA), (MAX_STRENGTH, MAX_SIGMA), (0.3, MIN_SIGMA), (0.3, MAX_SIGMA),
])
def test_moments_stay_finite_at_the_bounds(preset, g, sigma):
    exp = attach_meter(attach_meter(new_experiment(preset), "B", T1, g, sigma), "E", T2, g, sigma)
    mix = postselect(run_coupled(exp), "D2")
    values = [pointer_mean(mix, 0, "x"), pointer_corr(mix, (0, "p"), (0, "p")),
              estimate_sequential_weak_value(mix, 0, 1), arm_probability(exp, "E", T2)]
    assert all(math.isfinite(abs(v)) for v in values)
    assert zeta_corr(mix, 0, 1) == pytest.approx(zeta_corr_direct(mix, 0, 1), rel=1e-12)


@pytest.mark.parametrize("call,message", [
    (lambda mix: pointer_corr(mix, (0, "y"), (1, "x")), "quadrature must be 'x' or 'p'"),
    (lambda mix: zeta_corr(mix, 0, 0), "the readout correlator needs two distinct meters"),
    (lambda mix: zeta_corr_direct(mix, 1, 1), "the readout correlator needs two distinct meters"),
    (lambda mix: estimate_sequential_weak_value(mix, 0, 1),
     "cannot estimate a weak value from a zero-strength meter"),
], ids=["bad_quadrature", "zeta_one_meter", "zeta_direct_one_meter", "zero_strength"])
def test_two_meter_moments_reject_bad_input(preset, call, message):
    exp = attach_meter(attach_meter(new_experiment(preset), "B", T1, 0.3, 1.0), "E", T2, 0.0, 1.0)
    with pytest.raises(ValueError) as err:
        call(postselect(run_coupled(exp), "D2"))
    assert str(err.value) == message


@pytest.mark.parametrize("g", [1e-200, 1e-160, 1.5e-154])
def test_sequential_estimate_needs_a_normal_coupling_product(preset, g):
    assert MIN_COUPLING_PRODUCT == sys.float_info.min
    exp = attach_meter(attach_meter(new_experiment(preset), "B", T1, g, 1.0), "E", T2, g, 1.0)
    mix = postselect(run_coupled(exp), "D2")
    if g * g >= MIN_COUPLING_PRODUCT:  # 2.25e-308 still has its digits
        assert math.isfinite(abs(estimate_sequential_weak_value(mix, 0, 1)))
        return
    with pytest.raises(ValueError) as err:
        estimate_sequential_weak_value(mix, 0, 1)
    assert str(err.value) == "cannot estimate a weak value from a zero-strength meter"


@pytest.mark.parametrize("g", [1e-319, 1e-300])
def test_single_estimate_needs_a_normal_coupling(preset, g):
    mix = postselect(run_coupled(attach_meter(new_experiment(preset), "B", T1, g, 1.0)), "D2")
    if g >= MIN_COUPLING_PRODUCT:
        assert estimate_weak_value(mix, 0) == pytest.approx(0.5, abs=1e-12)
        return
    with pytest.raises(ValueError) as err:
        estimate_weak_value(mix, 0)
    assert str(err.value) == "cannot estimate a weak value from a zero-strength meter"


def test_attach_meter_assigns_sequential_ids(preset):
    exp = attach_meter(new_experiment(preset), "B", T1, 0.1, 1.0)
    exp = attach_meter(exp, "E", T2, 0.2, 1.0)
    assert [m.meter_id for m in exp.meters] == [0, 1]
    assert isinstance(exp, Experiment)
    assert exp.meters[1].arm == "E"


def test_joint_state_norm_is_one_under_coupling(preset):
    exp = attach_meter(new_experiment(preset), "B", T1, 0.7, 0.8)
    exp = attach_meter(exp, "E", T2, 0.4, 1.5)
    joint = run_coupled(exp)
    assert abs(joint.norm() - 1.0) < 1e-12


def test_final_terms_single_meter_on_b(preset):
    g = 0.5
    exp = attach_meter(new_experiment(preset), "B", T1, g, 1.0)
    joint = run_coupled(exp)
    # D2 holds i/4 phi(x - g) + i/4 phi(x)
    assert abs(joint.terms[("D2", (g,))] - 0.25j) < 1e-14
    assert abs(joint.terms[("D2", (0.0,))] - 0.25j) < 1e-14


def test_port_probabilities_with_meter_on_b(preset):
    for g, sigma in [(0.0, 1.0), (0.3, 1.0), (1.1, 0.6), (2.5, 2.0)]:
        exp = attach_meter(new_experiment(preset), "B", T1, g, sigma)
        joint = run_coupled(exp)
        k = math.exp(-g * g / (8 * sigma**2))
        probs = {
            port: postselect(joint, port).postselection_probability
            for port in preset.ports
        }
        assert abs(probs["D2"] - (1 + k) / 8) < 1e-12
        assert abs(probs["D1"] - (5 - 3 * k) / 8) < 1e-12
        assert abs(probs["D3"] - (1 + k) / 4) < 1e-12
        assert abs(sum(probs.values()) - 1.0) < 1e-12


def test_disturbance_closed_form(preset):
    for g in (0.0, 0.05, 0.1, 0.2, 0.4):
        for sigma in (0.5, 1.0, 2.0):
            exp = attach_meter(new_experiment(preset), "B", T1, g, sigma)
            k = math.exp(-g * g / (8 * sigma**2))
            p = arm_probability(exp, "E", T2)
            assert abs(p - 0.25 * (1 - k)) < 1e-12, (g, sigma)
    exp = attach_meter(new_experiment(preset), "B", T1, 0.0, 1.0)
    assert arm_probability(exp, "E", T2) == 0.0


def test_arm_probability_unchanged_by_same_slice_coupling(preset):
    # displacement acts only on the meter axis, so the arm marginal at the
    # coupling slice itself is coupling-independent
    exp = attach_meter(new_experiment(preset), "B", T1, 1.3, 0.9)
    assert abs(arm_probability(exp, "B", T1) - 0.25) < 1e-12
    assert abs(arm_probability(exp, "N", T1) - 0.5) < 1e-12


def test_pointer_mean_on_b_is_half_g_exactly(preset):
    for g in (0.05, 0.3, 1.0, 2.0):
        exp = attach_meter(new_experiment(preset), "B", T1, g, 1.0)
        mix = postselect(run_coupled(exp), "D2")
        assert abs(pointer_mean(mix, 0, "x") - g / 2) < 1e-13
        assert abs(pointer_mean(mix, 0, "p")) < 1e-13
        assert abs(estimate_weak_value(mix, 0) - 0.5) < 1e-12


def test_pointer_mean_on_c_closed_form(preset):
    for g, sigma in [(0.1, 1.0), (0.4, 0.7)]:
        exp = attach_meter(new_experiment(preset), "C", T1, g, sigma)
        mix = postselect(run_coupled(exp), "D2")
        k = math.exp(-g * g / (8 * sigma**2))
        assert abs(pointer_mean(mix, 0, "x") - g * (1 - 3 * k) / (10 - 6 * k)) < 1e-13


def test_vacuum_pointer_moments_at_zero_coupling(preset):
    sigma = 0.8
    exp = attach_meter(new_experiment(preset), "B", T1, 0.0, sigma)
    mix = postselect(run_coupled(exp), "D2")
    assert pointer_mean(mix, 0, "x") == 0.0
    assert abs(pointer_corr(mix, (0, "x"), (0, "x")) - sigma**2) < 1e-13
    assert abs(pointer_corr(mix, (0, "p"), (0, "p")) - 1 / (4 * sigma**2)) < 1e-13


def test_two_meter_closed_forms(preset):
    g1, s1 = 0.5, 1.2
    g2, s2 = 0.3, 0.7
    exp = attach_meter(new_experiment(preset), "B", T1, g1, s1)
    exp = attach_meter(exp, "E", T2, g2, s2)
    mix = postselect(run_coupled(exp), "D2")
    k1 = math.exp(-g1 * g1 / (8 * s1**2))
    k2 = math.exp(-g2 * g2 / (8 * s2**2))
    p = 3 / 8 + k1 * k2 / 4 - k2 / 4 - k1 / 8
    assert abs(mix.postselection_probability - p) < 1e-13
    xx = pointer_corr(mix, (0, "x"), (1, "x"))
    assert abs(xx - (g1 * g2 / 16) * (1 + k1 * k2 - k1) / p) < 1e-13
    zeta = zeta_corr(mix, 0, 1)
    assert abs(zeta - (g1 * g2 / 4) * (k1 * k2 / 2 - k1 / 4 + 1 / 4) / p) < 1e-13
    est = estimate_sequential_weak_value(mix, 0, 1)
    assert abs(est - zeta / (g1 * g2)) < 1e-14


def test_sequential_estimate_converges_to_half(preset):
    previous = None
    for g in (0.4, 0.2, 0.1, 0.05):
        exp = attach_meter(new_experiment(preset), "B", T1, g, 1.0)
        exp = attach_meter(exp, "E", T2, g, 1.0)
        mix = postselect(run_coupled(exp), "D2")
        err = abs(estimate_sequential_weak_value(mix, 0, 1) - 0.5)
        if previous is not None:
            assert err < previous / 3  # quadratic shrink: factor ~4 per halving
        previous = err


def test_zeta_assembly_equals_direct_evaluation(preset):
    cases = [
        [("B", T1, 0.5, 1.0), ("E", T2, 0.5, 1.0)],
        [("B", T1, 1.1, 0.6), ("E", T2, 0.2, 1.7)],
        [("C", T1, 0.4, 0.9), ("E", T2, 0.8, 0.9)],
        [("N", T1, 0.3, 1.0), ("F", T2, 0.3, 1.0)],
    ]
    for spec in cases:
        exp = new_experiment(preset)
        for arm, k, g, sigma in spec:
            exp = attach_meter(exp, arm, k, g, sigma)
        mix = postselect(run_coupled(exp), "D2")
        assembled = zeta_corr(mix, 0, 1)
        direct = zeta_corr_direct(mix, 0, 1)
        assert abs(assembled - direct) < 1e-12, spec


def test_estimates_on_trivial_arms(preset):
    exp = attach_meter(new_experiment(preset), "N", T1, 0.4, 1.0)
    mix = postselect(run_coupled(exp), "D2")
    assert abs(estimate_weak_value(mix, 0) - 1.0) < 1e-12
    exp = attach_meter(new_experiment(preset), "D", 1, 0.4, 1.0)
    mix = postselect(run_coupled(exp), "D2")
    assert abs(estimate_weak_value(mix, 0)) < 1e-12


def test_meter_attachment_order_does_not_change_physics(preset):
    a = attach_meter(new_experiment(preset), "B", T1, 0.6, 1.1)
    a = attach_meter(a, "E", T2, 0.3, 0.8)
    b = attach_meter(new_experiment(preset), "E", T2, 0.3, 0.8)
    b = attach_meter(b, "B", T1, 0.6, 1.1)
    mix_a = postselect(run_coupled(a), "D2")
    mix_b = postselect(run_coupled(b), "D2")
    assert abs(
        mix_a.postselection_probability - mix_b.postselection_probability
    ) < 1e-14
    # meter ids swap with attachment order; match stats by arm
    assert abs(pointer_mean(mix_a, 0, "x") - pointer_mean(mix_b, 1, "x")) < 1e-13
    assert abs(pointer_mean(mix_a, 1, "x") - pointer_mean(mix_b, 0, "x")) < 1e-13
    assert abs(zeta_corr(mix_a, 0, 1) - zeta_corr(mix_b, 1, 0)) < 1e-13


def test_same_slice_meters_commute(preset):
    a = attach_meter(new_experiment(preset), "B", T1, 0.5, 1.0)
    a = attach_meter(a, "C", T1, 0.7, 1.3)
    b = attach_meter(new_experiment(preset), "C", T1, 0.7, 1.3)
    b = attach_meter(b, "B", T1, 0.5, 1.0)
    pa = postselect(run_coupled(a), "D2")
    pb = postselect(run_coupled(b), "D2")
    assert abs(pa.postselection_probability - pb.postselection_probability) < 1e-14
    assert abs(pointer_mean(pa, 0, "x") - pointer_mean(pb, 1, "x")) < 1e-13


def test_mixed_quadratures_of_one_meter_rejected(preset):
    exp = attach_meter(new_experiment(preset), "B", T1, 0.4, 1.0)
    mix = postselect(run_coupled(exp), "D2")
    with pytest.raises(ValueError, match="jointly measurable"):
        pointer_corr(mix, (0, "x"), (0, "p"))


def test_complex_moment_raises(monkeypatch, preset):
    # an anti-Hermitian x^2 element makes <x^2> imaginary
    exp = attach_meter(new_experiment(preset), "B", T1, 0.4, 1.0)
    mix = postselect(run_coupled(exp), "D2")
    monkeypatch.setitem(meter._ELEMENTS, "xx", lambda a, b, s: 1j * gaussian_x2_element(a, b, s))
    with pytest.raises(RuntimeError, match="correlator came out complex"):
        pointer_corr(mix, (0, "x"), (0, "x"))


@pytest.mark.parametrize("sigma", [1e3, 1e6, 1e9])
def test_wide_pointer_moments_stay_real(sigma, monkeypatch):
    # a moment of size sigma**2 rounds to an imaginary part far above 1e-10
    for seed in range(8):
        layout = random_layout(seed)
        first, last = layout.slices[1][0], layout.slices[-2][-1]
        exp = attach_meter(new_experiment(layout), first, 1, 0.3 * sigma, sigma)
        exp = attach_meter(exp, last, layout.n_slices - 2, 0.3 * sigma, 3 * sigma)
        joint = run_coupled(exp)
        mean_x = 0.0
        for port in layout.ports:
            try:
                mix = postselect(joint, port)
            except ZeroProbability:
                continue  # a dark port adds nothing to the sum below
            for q in "xp":
                pointer_corr(mix, (0, q), (0, q))
                pointer_corr(mix, (0, q), (1, "x"))
                pointer_corr(mix, (0, q), (1, "p"))
            mean_x += mix.postselection_probability * pointer_mean(mix, 0, "x")
        # the ports together read the unconditioned pointer: shifted where the arm was lit
        assert mean_x == pytest.approx(0.3 * sigma * arm_probability(exp, first, 1), rel=1e-9)
    # the bound scales with the moment; it does not switch off
    monkeypatch.setitem(meter._ELEMENTS, "xx", lambda a, b, s: 1j * gaussian_x2_element(a, b, s))
    with pytest.raises(RuntimeError, match="correlator came out complex"):
        pointer_corr(mix, (0, "x"), (0, "x"))


def test_estimate_requires_nonzero_coupling(preset):
    exp = attach_meter(new_experiment(preset), "B", T1, 0.0, 1.0)
    mix = postselect(run_coupled(exp), "D2")
    with pytest.raises(ValueError):
        estimate_weak_value(mix, 0)


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


def test_postselect_on_dark_port_raises():
    layout = parse_network(DARK_MZI)
    joint = run_coupled(new_experiment(layout))
    with pytest.raises(ZeroProbability):
        postselect(joint, "PD")


def test_coupling_opens_the_dark_port():
    layout = parse_network(DARK_MZI)
    g, sigma = 0.8, 1.0
    exp = attach_meter(new_experiment(layout), "A", 1, g, sigma)
    joint = run_coupled(exp)
    mix = postselect(joint, "PD")
    k = math.exp(-g * g / (8 * sigma**2))
    assert abs(mix.postselection_probability - (1 - k) / 2) < 1e-13


def test_unknown_meter_id_rejected(preset):
    exp = attach_meter(new_experiment(preset), "B", T1, 0.4, 1.0)
    mix = postselect(run_coupled(exp), "D2")
    with pytest.raises(ValueError):
        pointer_mean(mix, 5, "x")
    with pytest.raises(ValueError):
        pointer_mean(mix, 0, "y")
