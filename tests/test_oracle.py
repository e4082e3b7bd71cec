"""Grid route vs closed-form route.

The grid evolution knows nothing about the pointer algebra: it just
multiplies wavefunction arrays through the same stage matrices and shifts
them on coupling. Agreement within 1e-7 absolute (usually far better) on
every probability and moment is the library's strongest self-check.
"""

import itertools
import math
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from layouts import random_layout

from tsvfsim import oracle
from tsvfsim.meter import ZeroProbability, arm_probability, attach_meter, new_experiment
from tsvfsim.oracle import (
    ComparisonTable,
    GridSpec,
    GridTooLarge,
    GridTooSmall,
    compare,
    default_grid,
    experiment_reports,
    grid_arm_probability,
    grid_moments,
    grid_run,
)
from tsvfsim.network import nested_mzi_preset, parse_network
from tsvfsim.tsvf import postselection_amplitude

T1, T2 = 2, 3


@pytest.fixture
def preset():
    return nested_mzi_preset()


def test_grid_spec_validation():
    with pytest.raises(ValueError):
        GridSpec(-1.0, 17)
    with pytest.raises(ValueError):
        GridSpec(10.0, points=1024)  # even
    with pytest.raises(ValueError):
        GridSpec(10.0, points=1)
    spec = GridSpec(8.0, 17)
    assert spec.spacing == 1.0
    assert spec.axis[0] == -8.0 and spec.axis[-1] == 8.0


@pytest.mark.parametrize("half_width", [math.inf, math.nan, 1e308])
def test_grid_spec_rejects_non_finite_half_width(half_width):
    with pytest.raises(ValueError, match="finite"):
        GridSpec(half_width, 17)


def test_default_grid_rule(preset):
    for meters, points in [((), 41), ((("B", T1, 0.3, 1.0), ("E", T2, 0.3, 1.0)), 45),
                           ((("B", T1, 0.4, 1.5), ("E", T2, 0.2, 0.5)), 129),
                           ((("B", T1, 5.0, 0.1), ("E", T2, 2.0, 1.0)), 801),
                           ((("B", T1, 0.3, 1e50),), 41)]:
        exp = new_experiment(preset)
        for arm, k, g, sigma in meters:
            exp = attach_meter(exp, arm, k, g, sigma)
        sigmas = [sigma for *_, sigma in meters] or [1.0]
        spec = default_grid(exp)
        assert spec.half_width == 10 * max(sigmas) + 2 * max([g for *_, g, _ in meters] or [0.0])
        # the fewest odd points whose spacing is at most SPACING_PER_SIGMA * min(sigma)
        step = oracle.SPACING_PER_SIGMA * min(sigmas)
        assert spec.points == points, meters
        assert spec.points % 2 == 1 and spec.spacing <= step, meters
        assert 2 * spec.half_width / (spec.points - 3) > step, meters


def test_default_grid_agrees_with_the_closed_form(preset):
    # g / sigma from 0.003 to 50 on B@2 and E@3: the grid follows the
    # narrowest pointer, and every quantity agrees with the closed form to rounding
    cases = [((1.0, 0.3), (1.0, 0.3)), ((0.5, 2.0), (1.0, 0.3)), ((1.0, 5.0), (1.0, 5.0))]
    cases += itertools.product(itertools.product((0.1, 0.3, 1.0, 3.0), (0.01, 0.3, 2.0, 5.0)),
                               itertools.product((0.5, 1.0), (0.3, 2.0)))
    for (sigma_b, g_b), (sigma_e, g_e) in cases:
        exp = attach_meter(new_experiment(preset), "B", T1, g_b, sigma_b)
        exp = attach_meter(exp, "E", T2, g_e, sigma_e)
        table = compare(*experiment_reports(exp, "D2"), 1e-12)
        assert table.all_pass, (sigma_b, g_b, sigma_e, g_e,
                                [r for r in table.rows if not r.passed])


def test_no_meter_grid_reduces_to_amplitudes(preset):
    exp = new_experiment(preset)
    analytic, grid = experiment_reports(exp, "D2")
    for port in preset.ports:
        exact = abs(postselection_amplitude(preset, port)) ** 2
        assert abs(grid.values[f"P({port})"] - exact) < 1e-12
    table = compare(analytic, grid, 1e-10)
    assert table.all_pass


def test_one_meter_report_agrees(preset):
    exp = attach_meter(new_experiment(preset), "B", T1, 0.3, 1.0)
    analytic, grid = experiment_reports(exp, "D2")
    assert set(analytic.values) == set(grid.values)
    table = compare(analytic, grid, 1e-8)
    assert table.all_pass, [r for r in table.rows if not r.passed]


def test_two_meter_report_agrees(preset):
    exp = attach_meter(new_experiment(preset), "B", T1, 0.3, 1.0)
    exp = attach_meter(exp, "E", T2, 0.5, 0.8)
    analytic, grid = experiment_reports(exp, "D2")
    table = compare(analytic, grid, 1e-7)
    assert table.all_pass, [r for r in table.rows if not r.passed]
    # zeta rows exist and match tightly
    assert "zeta.0_1.re" in analytic.values
    worst = max(table.rows, key=lambda r: r.abs_dev)
    assert worst.abs_dev < 1e-9


def test_integer_spacing_coupling_uses_exact_shift(preset):
    spec = GridSpec(10.24, 1025)  # spacing 0.02
    g = 0.3  # exactly 15 grid steps
    exp = attach_meter(new_experiment(preset), "B", T1, g, 1.0)
    assert abs(g / spec.spacing - round(g / spec.spacing)) < 1e-12
    assert abs(
        grid_arm_probability(exp, "E", T2, spec) - arm_probability(exp, "E", T2)
    ) < 1e-12


def test_pointwise_marginal_density(preset):
    # on arm E at t2 the joint wavefunction is (i/(2 sqrt 2))(phi_g - phi_0)
    g, sigma = 0.7, 1.0
    exp = attach_meter(new_experiment(preset), "B", T1, g, sigma)
    spec = default_grid(exp)
    state = grid_run(exp, spec, to_slice=T2)
    x = spec.axis
    idx = preset.arm_index(T2, "E")
    density = np.abs(state.array[idx]) ** 2

    def phi(c):
        return (2 * math.pi * sigma**2) ** -0.25 * np.exp(
            -((x - c) ** 2) / (4 * sigma**2)
        )

    expected = np.abs(1j / (2 * math.sqrt(2)) * (phi(g) - phi(0))) ** 2
    np.testing.assert_allclose(density, expected, atol=1e-12)


def test_grid_arm_probabilities_across_slices(preset):
    exp = attach_meter(new_experiment(preset), "C", T1, 0.45, 1.1)
    for k in range(preset.n_slices):
        for arm in preset.slices[k]:
            assert abs(
                grid_arm_probability(exp, arm, k) - arm_probability(exp, arm, k)
            ) < 1e-10, (arm, k)


def test_grid_arm_probability_is_the_walks_marginal(preset):
    exp = attach_meter(new_experiment(preset), "B", T1, 0.3, 1.0)
    exp = attach_meter(exp, "E", T2, 0.3, 1.0)
    spec = GridSpec(default_grid(exp).half_width, 257)
    _, grid = experiment_reports(exp, "D2", spec)
    for k in range(preset.n_slices):
        for arm in preset.slices[k]:
            assert grid_arm_probability(exp, arm, k, spec) == grid.values[f"P[{arm}@{k}]"]


def test_unknown_arm_raises_before_the_grid_is_built(preset):
    exp = attach_meter(new_experiment(preset), "B", T1, 0.3, 1.0)
    exp = attach_meter(exp, "E", T2, 0.3, 1.0)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="'Z'"):
            grid_arm_probability(exp, "Z", T1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_grid_norm_is_one(preset):
    exp = attach_meter(new_experiment(preset), "B", T1, 0.4, 1.0)
    state = grid_run(exp)
    assert abs(state.norm() - 1.0) < 1e-10


def test_too_small_grid_raises(preset):
    exp = attach_meter(new_experiment(preset), "B", T1, 0.3, 1.0)
    with pytest.raises(GridTooSmall):
        grid_run(exp, GridSpec(2.0, 257))


@pytest.mark.parametrize("sigma,half_width", [(1.0, 1e200), (1e-50, 1e110)],
                         ids=["square", "over-4-sigma-squared"])
def test_too_wide_grid_raises_before_any_overflow(preset, sigma, half_width):
    # the initial pointer's exponent -(x * x) / (4 sigma^2) would overflow at the
    # grid's ends: first in the square, then in the division
    exp = attach_meter(new_experiment(preset), "B", T1, 0.3, sigma)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(GridTooSmall, match="leaves the float range"):
            grid_run(exp, GridSpec(half_width, 257))


def test_underresolved_pointer_raises(preset):
    # 9 points across [-40, 40] cannot hold a unit-width packet
    exp = attach_meter(new_experiment(preset), "B", T1, 0.3, 1.0)
    with pytest.raises(GridTooSmall, match="norm"):
        grid_run(exp, GridSpec(40.0, 9))


def test_grid_bound_admits_its_size_and_rejects_the_next(monkeypatch, preset):
    monkeypatch.setattr(oracle, "MAX_GRID_ENTRIES", 3 * 257 ** 2)
    exp = attach_meter(attach_meter(new_experiment(preset), "B", T1, 0.3, 1.0),
                       "E", T2, 0.3, 1.0)
    analytic, grid = experiment_reports(exp, "D2", GridSpec(12.0, 257))
    assert compare(analytic, grid).all_pass
    with pytest.raises(GridTooLarge, match=r"2 meters on 259 points .* \(limit 198147\)"):
        experiment_reports(exp, "D2", GridSpec(12.0, 259))


def test_grid_run_slice_validation(preset):
    exp = new_experiment(preset)
    with pytest.raises(ValueError):
        grid_run(exp, to_slice=99)


def test_grid_moments_needs_final_slice(preset):
    exp = attach_meter(new_experiment(preset), "B", T1, 0.3, 1.0)
    state = grid_run(exp, to_slice=T2)
    with pytest.raises(ValueError):
        grid_moments(state, "D2")


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


def test_dark_port_reads_zero_on_the_analytic_route():
    # the meter on the bright arm leaves the dark port exactly dark
    layout = parse_network(DARK_MZI)
    exp = attach_meter(new_experiment(layout), "bright", 2, 0.3, 1.0)
    analytic, grid = experiment_reports(exp, "PB")
    assert analytic.values["P(PD)"] == analytic.values["P[dark@2]"] == 0.0
    assert grid.values["P(PD)"] == grid.values["P[dark@2]"] < 1e-30
    assert analytic.values["P(PB)"] == pytest.approx(1.0, abs=1e-12)
    assert compare(analytic, grid, 1e-10).all_pass


@pytest.mark.parametrize("network,meters,port", [
    ("preset", (), "D2"),
    ("preset", (("B", T1),), "D2"),
    ("preset", (("B", T1), ("E", T2)), "D2"),
    ("preset", (("B", T1), ("C", T1), ("E", T2)), "D2"),
    ("preset", (("B", T1), ("C", T1), ("E", T2), ("N", T1)), "D2"),
    ("dark", (("bright", 2),), "PB"),
], ids=["preset-0", "preset-1", "preset-2", "preset-3", "preset-4", "dark-port"])
def test_both_routes_name_the_same_quantities(network, meters, port):
    # compare() lines the reports up by the names they share, so a quantity
    # one route stopped producing would drop out of the check unseen
    exp = new_experiment(nested_mzi_preset() if network == "preset" else parse_network(DARK_MZI))
    for arm, k in meters:
        exp = attach_meter(exp, arm, k, 0.3, 1.0)
    analytic, grid = experiment_reports(exp, port)
    assert set(analytic.values) == set(grid.values)


def test_grid_moments_on_a_dark_port_raise():
    # no path leads from the source to port PD, so its arm holds exact zeros
    layout = parse_network("arm s\narm u\narm lit\narm dark\nslice 0: s, u\n"
                           "slice 1: lit, dark\nsource s\nmirror m stage=0 in=s out=lit\n"
                           "mirror n stage=0 in=u out=dark\ndetector PL=lit\ndetector PD=dark\n")
    exp = attach_meter(new_experiment(layout), "lit", 1, 0.3, 1.0)
    with pytest.raises(ZeroProbability, match="port 'PD' fires with probability 0.000e"):
        grid_moments(grid_run(exp), "PD")


def test_compare_rejects_reports_without_common_names(preset):
    analytic, grid = experiment_reports(new_experiment(preset), "D2")
    renamed = replace(grid, values={f"grid.{k}": v for k, v in grid.values.items()})
    with pytest.raises(ValueError, match="reports share no quantities"):
        compare(analytic, renamed)


def test_compare_rejects_mismatched_experiments(preset):
    exp_a = attach_meter(new_experiment(preset), "B", T1, 0.3, 1.0)
    exp_b = attach_meter(new_experiment(preset), "B", T1, 0.4, 1.0)
    a_report, _ = experiment_reports(exp_a, "D2")
    _, b_grid = experiment_reports(exp_b, "D2")
    with pytest.raises(ValueError, match="different experiments"):
        compare(a_report, b_grid)
    d1_report, _ = experiment_reports(exp_a, "D1")
    _, d2_grid = experiment_reports(exp_a, "D2")
    with pytest.raises(ValueError, match="different experiments"):
        compare(d1_report, d2_grid)


def test_reports_match_by_experiment_whatever_the_component_names(preset):
    # ComponentSpec equality leaves names out, so a renamed splitter gives an equal layout
    first = preset.stages[0]
    bs1 = replace(first.components[0], name="split")
    renamed = replace(preset, stages=(replace(first, components=(bs1,)),) + preset.stages[1:])
    assert renamed == preset and first.components[0].name == "BS1"
    analytic, _ = experiment_reports(attach_meter(new_experiment(preset), "B", T1, 0.3, 1.0), "D2")
    _, grid = experiment_reports(attach_meter(new_experiment(renamed), "B", T1, 0.3, 1.0), "D2")
    assert compare(analytic, grid).all_pass


def test_compare_tolerance(preset):
    exp = new_experiment(preset)
    analytic, grid = experiment_reports(exp, "D2")
    table = compare(analytic, grid, 1e-15)
    assert isinstance(table, ComparisonTable)
    assert all(r.tol == 1e-15 and r.passed == (r.abs_dev <= 1e-15) for r in table.rows)
    assert all(r.tol == 1e-7 for r in compare(analytic, grid).rows)  # the default


def test_grid_agrees_on_random_layout():
    layout = random_layout(3)
    arm = layout.slices[1][0]
    exp = attach_meter(new_experiment(layout), arm, 1, 0.4, 1.0)
    port = max(
        layout.ports, key=lambda p: abs(postselection_amplitude(layout, p))
    )
    analytic, grid = experiment_reports(exp, port)
    table = compare(analytic, grid, 1e-7)
    assert table.all_pass, [r for r in table.rows if not r.passed]


def spectral_moments(state, port):
    """Pointer moments from x and p = -i d/dx (the spectral derivative)
    applied to the port's wavefunction, and inner products on the grid."""
    layout = state.experiment.layout
    chi = state.array[layout.arm_index(layout.final_slice, layout.port_arm(port))]
    weight = state.spec.spacing ** chi.ndim
    k = 2 * math.pi * np.fft.fftfreq(state.spec.points, d=state.spec.spacing)

    def along(vector, j):
        return vector.reshape([-1 if a == j else 1 for a in range(chi.ndim)])

    def x_(arr, j):
        return arr * along(state.spec.axis, j)

    def p_(arr, j):
        return np.fft.ifft(np.fft.fft(arr, axis=j) * along(k, j), axis=j)

    prob = np.vdot(chi, chi).real * weight

    def inner(a, b):
        return np.vdot(a, b).real * weight / prob

    ids = [m.meter_id for m in state.experiment.meters]
    out = {}
    for j, mid in enumerate(ids):
        out[f"m{mid}.x_mean"] = inner(chi, x_(chi, j))
        out[f"m{mid}.p_mean"] = inner(chi, p_(chi, j))
        out[f"m{mid}.x2"] = inner(x_(chi, j), x_(chi, j))
        out[f"m{mid}.p2"] = inner(p_(chi, j), p_(chi, j))
    for i, mi in enumerate(ids):
        for j in range(i + 1, len(ids)):
            mj = ids[j]
            out[f"corr.x{mi}_x{mj}"] = inner(chi, x_(x_(chi, i), j))
            out[f"corr.p{mi}_p{mj}"] = inner(p_(chi, i), p_(chi, j))
            out[f"corr.x{mi}_p{mj}"] = inner(chi, p_(x_(chi, i), j))
            out[f"corr.p{mi}_x{mj}"] = inner(x_(chi, j), p_(chi, i))
    return out


@pytest.mark.parametrize("meters,spec", [
    ((("B", T1, 0.3, 1.0), ("E", T2, 0.3, 1.0)), None),
    ((("B", T1, 0.3, 1.0), ("C", T1, 0.45, 0.8), ("E", T2, 0.5, 1.2)), GridSpec(12.5, 129)),
], ids=["preset", "three_meters"])
def test_density_moments_match_spectral_derivatives(meters, spec, preset):
    exp = new_experiment(preset)
    for arm, k, g, sigma in meters:
        exp = attach_meter(exp, arm, k, g, sigma)
    state = grid_run(exp, spec)
    values = grid_moments(state, "D2")
    reference = spectral_moments(state, "D2")
    assert len(reference) == 4 * len(meters) + 2 * len(meters) * (len(meters) - 1)
    for name, value in reference.items():
        assert abs(values[name] - value) < 1e-12, name


def test_preset_reports_take_three_grid_ffts(monkeypatch, preset):
    # couplings are phases on the momentum-space walk; only the moments
    # transform the port's row: back to position along every axis but one,
    # once per meter, and once more along axis 0 for the position density
    exp = attach_meter(attach_meter(new_experiment(preset), "B", T1, 0.3, 1.0), "E", T2, 0.3, 1.0)
    calls = []
    for name in ("fft", "ifft", "fftn", "ifftn"):
        def counted(arr, *args, _fn=getattr(np.fft, name), **kwargs):
            if np.ndim(arr) >= 2:
                calls.append(_fn.__name__)
            return _fn(arr, *args, **kwargs)
        monkeypatch.setattr(np.fft, name, counted)
    analytic, grid = experiment_reports(exp, "D2")
    assert len(calls) == 3, calls
    assert compare(analytic, grid, 1e-7).all_pass


def test_reports_read_the_same_moments_as_grid_moments(preset):
    exp = new_experiment(preset)
    for arm, k, g, sigma in (("B", T1, 0.3, 1.0), ("C", T1, 0.45, 0.8), ("E", T2, 0.5, 1.2)):
        exp = attach_meter(exp, arm, k, g, sigma)
    spec = GridSpec(12.5, 129)
    _, grid = experiment_reports(exp, "D2", spec)
    values = grid_moments(grid_run(exp, spec), "D2")
    assert values.pop("probability") == pytest.approx(grid.values["P(D2)"], abs=1e-12)
    assert len(values) == 4 * 3 + 6 * 3
    for name, value in values.items():
        assert abs(grid.values[name] - value) < 1e-12, name
