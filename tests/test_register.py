"""The dense meter register against an independent term-by-term reference.

The reference below evolves the joint state as a dict of
``(arm, shifts) -> amplitude`` terms and evaluates every moment as a
brute-force double sum over term pairs of the closed-form Gaussian
elements, so it shares no code with the register contraction.
"""

import tracemalloc

import numpy as np
import pytest
from layouts import random_layout

from tsvfsim.meter import (
    MAX_REGISTER_ENTRIES,
    RegisterTooLarge,
    arm_probability,
    attach_meter,
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
)
from tsvfsim.network import nested_mzi_preset, stage_unitary

ELEMENTS = {
    "x": gaussian_x_element,
    "p": gaussian_p_element,
    "xx": gaussian_x2_element,
    "pp": gaussian_p2_element,
}


def reference_terms(experiment, to_slice):
    layout, meters = experiment.layout, experiment.meters
    terms = {(layout.source, (0.0,) * len(meters)): 1.0 + 0.0j}

    def couple(k):
        nonlocal terms
        for j, m in enumerate(meters):
            if m.slice_index == k and m.strength != 0.0:
                terms = {
                    (arm, s[:j] + (m.strength,) + s[j + 1:] if arm == m.arm else s): a
                    for (arm, s), a in terms.items()
                }

    couple(0)
    for k in range(to_slice):
        u = stage_unitary(layout, k)
        ins, outs = layout.slices[k], layout.slices[k + 1]
        moved = {}
        for (arm, s), a in terms.items():
            for row, out in enumerate(outs):
                c = u[row, ins.index(arm)]
                if c != 0.0:
                    moved[(out, s)] = moved.get((out, s), 0.0) + c * a
        terms = {key: a for key, a in moved.items() if a != 0.0}
        couple(k + 1)
    return terms


def pair_sum(amps, meters, ops=None):
    """sum_{s, s'} A_s conj(A_s') prod_j <phi_{s'_j}| O_j |phi_{s_j}>."""
    ops = ops or {}
    total = 0.0 + 0.0j
    for s, a in amps.items():
        for s2, a2 in amps.items():
            k = 1.0 + 0.0j
            for j, m in enumerate(meters):
                k *= ops.get(j, gaussian_overlap)(s2[j], s[j], m.sigma)
            total += a * np.conj(a2) * k
    return total


def random_experiment(seed):
    """1-6 meters on a random layout; meter 0 has zero strength from three
    meters on, and from four meters on meters 1 and 2 share arm and slice."""
    layout = random_layout(seed)
    rng = np.random.default_rng(seed)
    n_meters = 1 + seed % 6
    exp = new_experiment(layout)
    for j in range(n_meters):
        if j == 2 and n_meters >= 4:
            m = exp.meters[1]
            arm, k = m.arm, m.slice_index
        else:
            k = int(rng.integers(0, layout.n_slices))
            arm = layout.slices[k][int(rng.integers(len(layout.slices[k])))]
        g = 0.0 if j == 0 and n_meters >= 3 else float(rng.uniform(0.1, 0.9))
        exp = attach_meter(exp, arm, k, g, float(rng.uniform(0.5, 1.5)))
    return exp


@pytest.mark.parametrize("seed", range(24))
def test_register_moments_match_pair_sums(seed):
    exp = random_experiment(seed)
    meters = exp.meters
    joint = run_coupled(exp)
    ref = reference_terms(exp, exp.layout.final_slice)
    assert set(joint.terms) == set(ref)
    for key, amp in ref.items():
        assert abs(joint.terms[key] - amp) < 1e-14
    assert abs(joint.norm() - 1.0) < 1e-12
    checked = 0
    for port in exp.layout.ports:
        arm = exp.layout.port_arm(port)
        amps = {s: a for (a_, s), a in ref.items() if a_ == arm}
        prob = pair_sum(amps, meters).real
        if prob < 1e-6:
            continue
        mix = postselect(joint, port)
        assert abs(mix.postselection_probability - prob) < 1e-12
        assert mix.amplitudes.keys() == amps.keys()
        for j, m in enumerate(meters):
            for q in ("x", "p"):
                want = pair_sum(amps, meters, {j: ELEMENTS[q]}) / prob
                assert abs(pointer_mean(mix, m.meter_id, q) - want.real) < 1e-12
                want = pair_sum(amps, meters, {j: ELEMENTS[q + q]}) / prob
                got = pointer_corr(mix, (m.meter_id, q), (m.meter_id, q))
                assert abs(got - want.real) < 1e-12
            for i, other in enumerate(meters[:j]):
                for qi in ("x", "p"):
                    for qj in ("x", "p"):
                        ops = {i: ELEMENTS[qi], j: ELEMENTS[qj]}
                        want = pair_sum(amps, meters, ops) / prob
                        got = pointer_corr(mix, (other.meter_id, qi), (m.meter_id, qj))
                        assert abs(got - want.real) < 1e-12
                # zeta = x + 2 i sigma^2 p on each meter, expanded term by term
                zeta = {
                    idx: (lambda a, b, s: gaussian_x_element(a, b, s)
                          + 2j * s * s * gaussian_p_element(a, b, s))
                    for idx in (i, j)
                }
                want = pair_sum(amps, meters, zeta) / prob
                assert abs(zeta_corr(mix, other.meter_id, m.meter_id) - want) < 1e-12
        checked += 1
    assert checked > 0


def test_random_experiments_cover_the_edge_cases():
    exps = [random_experiment(seed) for seed in range(24)]
    assert {len(e.meters) for e in exps} == {1, 2, 3, 4, 5, 6}
    assert any(m.strength == 0.0 for e in exps for m in e.meters)
    assert any(
        len(e.meters) >= 4
        and (e.meters[1].arm, e.meters[1].slice_index)
        == (e.meters[2].arm, e.meters[2].slice_index)
        for e in exps
    )


@pytest.mark.parametrize("seed", range(6))
def test_arm_probability_matches_reference(seed):
    exp = random_experiment(seed)
    layout = exp.layout
    for k in range(layout.n_slices):
        ref = reference_terms(exp, k)
        for arm in layout.slices[k]:
            amps = {s: a for (a_, s), a in ref.items() if a_ == arm}
            want = pair_sum(amps, exp.meters).real
            assert abs(arm_probability(exp, arm, k) - want) < 1e-12


def test_outer_arm_meter_cancels_exactly():
    g = 0.3
    exp = attach_meter(new_experiment(nested_mzi_preset()), "N", 1, g, 1.0)
    assert set(run_coupled(exp).terms) == {
        ("D1", (g,)), ("D2", (g,)), ("D3", (0.0,)),
    }


def test_register_size_guard_raises_before_allocating():
    layout = nested_mzi_preset()
    exp = new_experiment(layout)
    for j in range(40):
        exp = attach_meter(exp, "N", 1 + j % 2, 0.3, 1.0)
    assert len(layout.slices[0]) * 2 ** 40 > MAX_REGISTER_ENTRIES
    tracemalloc.start()
    try:
        with pytest.raises(RegisterTooLarge, match="40 meters"):
            run_coupled(exp)
        with pytest.raises(RegisterTooLarge):
            arm_probability(exp, "N", 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert issubclass(RegisterTooLarge, ValueError)

