"""Property-based checks of algebraic identities and structural invariants."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from layouts import random_layout

from tsvfsim.meter import (
    MeterAttachment,
    ZeroProbability,
    attach_meter,
    gaussian_overlap,
    gaussian_p2_element,
    gaussian_p_element,
    gaussian_x2_element,
    gaussian_x_element,
    new_experiment,
    run_coupled,
)
from tsvfsim.meter import postselect as meter_postselect
from tsvfsim.network import (
    nested_mzi_preset,
    parse_network,
    serialize_network,
    stage_unitary,
)
from tsvfsim.tsvf import (
    DegeneratePostselection,
    ProjectorChain,
    forward_state,
    postselection_amplitude,
    sequential_weak_value,
)


def port_probabilities(experiment):
    joint = run_coupled(experiment)
    out = {}
    for port in experiment.layout.ports:
        try:
            out[port] = meter_postselect(joint, port).postselection_probability
        except ZeroProbability:
            out[port] = 0.0
    return out

centers = st.floats(min_value=-3.0, max_value=3.0,
                    allow_nan=False, allow_infinity=False)
widths = st.floats(min_value=0.3, max_value=3.0,
                   allow_nan=False, allow_infinity=False)
couplings = st.floats(min_value=0.0, max_value=1.5,
                      allow_nan=False, allow_infinity=False)


@given(a=centers, b=centers, sigma=widths)
def test_x_plus_scaled_p_lowers_to_center(a, b, sigma):
    # x + 2i sigma^2 p acting between displaced copies of the same
    # Gaussian multiplies the overlap by the ket's center
    lhs = (gaussian_x_element(a, b, sigma)
           + 2j * sigma ** 2 * gaussian_p_element(a, b, sigma))
    rhs = b * gaussian_overlap(a, b, sigma)
    assert lhs == pytest.approx(rhs, abs=1e-12)


@given(a=centers, b=centers, sigma=widths)
def test_quadratic_combination_reduces_to_centers(a, b, sigma):
    overlap = gaussian_overlap(a, b, sigma)
    lhs = (gaussian_x2_element(a, b, sigma)
           + 4.0 * sigma ** 4 * gaussian_p2_element(a, b, sigma)
           - 2.0 * sigma ** 2 * overlap)
    assert lhs == pytest.approx(a * b * overlap, abs=1e-12)


@given(a=centers, b=centers, sigma=widths)
def test_element_conjugation_symmetry(a, b, sigma):
    assert gaussian_x_element(a, b, sigma) == pytest.approx(
        np.conj(gaussian_x_element(b, a, sigma)), abs=1e-14)
    assert gaussian_p_element(a, b, sigma) == pytest.approx(
        np.conj(gaussian_p_element(b, a, sigma)), abs=1e-14)


@given(seed=st.integers(min_value=0, max_value=2 ** 32 - 1))
@settings(max_examples=40, deadline=None)
def test_random_layout_round_trips(seed):
    layout = random_layout(seed)
    again = parse_network(serialize_network(layout))
    assert again.slices == layout.slices
    assert again.ports == layout.ports
    for k in range(len(layout.slices) - 1):
        assert np.array_equal(stage_unitary(again, k),
                              stage_unitary(layout, k))


@given(seed=st.integers(min_value=0, max_value=2 ** 32 - 1))
@settings(max_examples=30, deadline=None)
def test_random_layout_conserves_norm(seed):
    layout = random_layout(seed)
    for k in range(len(layout.slices)):
        amps = forward_state(layout, k).amplitudes
        assert np.sum(np.abs(amps) ** 2) == pytest.approx(1.0, abs=1e-12)


def bare_port_probabilities(layout):
    out = {}
    for port in layout.ports:
        try:
            out[port] = abs(postselection_amplitude(layout, port)) ** 2
        except DegeneratePostselection:
            out[port] = 0.0
    return out


@given(seed=st.integers(min_value=0, max_value=2 ** 32 - 1),
       sigma=widths, g=couplings)
@settings(max_examples=25, deadline=None)
def test_zero_coupling_never_disturbs(seed, sigma, g):
    layout = random_layout(seed)
    arm = layout.slices[1][0]
    bare = bare_port_probabilities(layout)
    base = new_experiment(layout)
    idle = port_probabilities(attach_meter(base, arm, 1, 0.0, sigma))
    for port, p in bare.items():
        assert idle[port] == pytest.approx(p, abs=1e-12)

    coupled = port_probabilities(attach_meter(base, arm, 1, g, sigma))
    assert sum(coupled.values()) == pytest.approx(1.0, abs=1e-12)


@given(g1=couplings, g2=couplings, s1=widths, s2=widths)
@settings(max_examples=25, deadline=None)
def test_attachment_order_is_irrelevant(g1, g2, s1, s2):
    base = new_experiment(nested_mzi_preset())
    one = attach_meter(attach_meter(base, "B", 2, g1, s1), "E", 3, g2, s2)
    two = attach_meter(attach_meter(base, "E", 3, g2, s2), "B", 2, g1, s1)
    p_one = port_probabilities(one)
    p_two = port_probabilities(two)
    for port in p_one:
        assert p_one[port] == pytest.approx(p_two[port], abs=1e-12)


@given(seed=st.integers(min_value=0, max_value=2 ** 32 - 1))
@settings(max_examples=20, deadline=None)
def test_sequential_completeness_on_random_layouts(seed):
    layout = random_layout(seed)
    if len(layout.slices) < 4:
        return
    port = max(layout.ports,
               key=lambda p: abs(postselection_amplitude(layout, p)))
    early, late = layout.slices[1], layout.slices[2]

    def seq(*steps):
        return sequential_weak_value(layout, port,
                                     ProjectorChain.of(*steps)).value

    total = sum(seq((a, 1), (b, 2)) for a in early for b in late)
    assert total == pytest.approx(1.0, abs=1e-10)
    for b in late:
        marginal = sum(seq((a, 1), (b, 2)) for a in early)
        assert marginal == pytest.approx(seq((b, 2)), abs=1e-10)


def dense_chain_value(layout, port, steps) -> complex:
    """The chain's weak value from whole propagator matrices and diagonal
    projectors: <port| W(k_n, end) P_n W(k_n-1, k_n) ... P_1 W(0, k_1) |source>
    divided by <port| W(0, end) |source>."""
    def propagator(start, stop):
        n = len(layout.slices[start])
        w = np.eye(n, dtype=complex)
        for k in range(start, stop):
            w = stage_unitary(layout, k) @ w
        return w

    def unit(arms, arm):
        return np.eye(len(arms), dtype=complex)[arms.index(arm)]

    ket = unit(layout.slices[0], layout.source)
    bra = unit(layout.slices[-1], layout.port_arm(port))
    chain = propagator(0, steps[0][1])
    for i, (arm, k) in enumerate(steps):
        projector = np.diag(unit(layout.slices[k], arm))
        following = steps[i + 1][1] if i + 1 < len(steps) else len(layout.slices) - 1
        chain = propagator(k, following) @ projector @ chain
    return (bra @ chain @ ket) / (bra @ propagator(0, len(layout.slices) - 1) @ ket)


@pytest.mark.parametrize("seed", range(16))
def test_sequential_weak_values_match_a_dense_chase(seed):
    # chains with slice gaps (k -> k + 2 or more) and three-step chains,
    # on layouts of 4 to 7 slices
    layout = random_layout(seed, max_arms=6, max_stages=6)
    port = max(layout.ports, key=lambda p: abs(postselection_amplitude(layout, p)))
    rng = np.random.Generator(np.random.Philox(key=seed + 1000))
    last = len(layout.slices) - 1
    chains = []
    for gap in range(2, last + 1):
        for k in range(0, last - gap + 1):
            for _ in range(2):
                a, b = rng.choice(layout.slices[k]), rng.choice(layout.slices[k + gap])
                chains.append(((str(a), k), (str(b), k + gap)))
    for _ in range(8):
        ks = sorted(int(k) for k in rng.choice(last + 1, size=3, replace=False))
        chains.append(tuple((str(rng.choice(layout.slices[k])), k) for k in ks))
    assert any(len(c) == 3 for c in chains) and any(c[1][1] - c[0][1] >= 2 for c in chains)
    for steps in chains:
        got = sequential_weak_value(layout, port, ProjectorChain.of(*steps)).value
        assert abs(got - dense_chain_value(layout, port, steps)) < 1e-12, steps


@given(sigma=widths)
def test_pointer_vacuum_moments(sigma):
    pointer = MeterAttachment(0, "B", 2, 0.1, sigma)
    assert gaussian_x2_element(0.0, 0.0, sigma) == pytest.approx(
        sigma ** 2, abs=1e-12)
    assert gaussian_p2_element(0.0, 0.0, sigma) == pytest.approx(
        1.0 / (4.0 * sigma ** 2), rel=1e-12)
    assert pointer.sigma == sigma


@given(g=st.floats(min_value=0.01, max_value=2.0, allow_nan=False),
       sigma=widths)
def test_overlap_matches_displacement_formula(g, sigma):
    assert gaussian_overlap(0.0, g, sigma) == pytest.approx(
        math.exp(-g * g / (8.0 * sigma ** 2)), rel=1e-12)
