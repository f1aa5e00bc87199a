import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from birlab import maps, observables
from birlab.errors import InvalidParam
from birlab.observables import (
    NORM_CHART,
    NORM_GRID_RADIUS,
    NORM_GRID_SIDE,
    Observable,
    estimate_norm,
    observable_catalog,
)
from birlab.projective import canonicalize_rows, chart_disc, from_chart_rows, sample_fs_rows


def test_constant_observable():
    obs = observable_catalog("constant", {"value": 2.5})
    Z = sample_fs_rows(100, 1)
    assert np.all(obs.fn(Z) == 2.5)
    assert obs.norm_estimate == 2.5
    assert obs.smoothness == "C2"


def test_catalog_reads_the_builders_defaults(monkeypatch):
    # the holder-crease alpha sets the proven rate, so it must follow the builder's default
    monkeypatch.setattr(observables._make_holder_crease, "__defaults__", (0.25, 0, 0.4))
    monkeypatch.setattr(observables._make_constant, "__defaults__", (-3.0,))
    assert observable_catalog("holder-crease").smoothness == "Holder(0.25)"
    assert observable_catalog("holder-crease").alpha == 0.25
    const = observable_catalog("constant")
    assert const.norm_estimate == 3.0
    assert np.all(const.fn(sample_fs_rows(10, 1)) == -3.0)


def test_affine_bump_support_and_range():
    obs = observable_catalog("affine-bump", {"chart": 2, "cx": 0.0, "cy": 0.0, "radius": 1.0})
    # value 1 at the center, 0 outside the radius, in (0,1) strictly inside
    center = canonicalize_rows(np.array([[0.0, 0.0, 1.0]], dtype=complex))
    assert abs(obs.fn(center)[0] - 1.0) < 1e-14
    outside = canonicalize_rows(np.array([[2.0, 0.0, 1.0]], dtype=complex))
    assert obs.fn(outside)[0] == 0.0
    mid = canonicalize_rows(np.array([[0.5, 0.0, 1.0]], dtype=complex))
    assert 0.0 < obs.fn(mid)[0] < 1.0
    Z = sample_fs_rows(5000, 2)
    vals = obs.fn(Z)
    assert np.all((vals >= 0.0) & (vals <= 1.0))


def test_affine_bump_chart_independence_of_scale():
    # evaluating on any representative gives the same value (homogeneous)
    obs = observable_catalog("affine-bump", {"chart": 2, "radius": 2.0})
    Z = sample_fs_rows(100, 3)
    assert np.allclose(obs.fn(Z), obs.fn(Z * np.exp(0.7j)), atol=1e-12)


def test_affine_bump_rejects_bad_radius():
    with pytest.raises(InvalidParam):
        observable_catalog("affine-bump", {"radius": 0.0})


def test_fs_coordinate_bounded_and_sums_to_one():
    Z = sample_fs_rows(1000, 4)
    total = sum(observable_catalog("fs-coordinate", {"index": j}).fn(Z) for j in range(3))
    assert np.allclose(total, 1.0, atol=1e-12)


def test_fs_coordinate_rejects_bad_index():
    with pytest.raises(InvalidParam):
        observable_catalog("fs-coordinate", {"index": 5})


def test_holder_crease_tag_and_quotient():
    obs = observable_catalog("holder-crease", {"alpha": 0.5, "index": 0, "level": 0.4})
    assert obs.smoothness == "Holder(0.5)" and obs.alpha == 0.5
    # finite-difference alpha-quotient stays bounded over dyadic scales
    assert np.isfinite(obs.norm_estimate)
    assert obs.norm_estimate < 50.0


def test_holder_crease_rejects_bad_alpha():
    with pytest.raises(InvalidParam):
        observable_catalog("holder-crease", {"alpha": 1.5})


def test_unknown_observable():
    with pytest.raises(InvalidParam):
        observable_catalog("no-such-thing")


@pytest.mark.parametrize(
    "name, params",
    [
        ("affine-bump", {"raduis": 3.0}),
        ("fs-coordinate", {"index": 1, "chart": 2}),
        ("holder-crease", {"aplha": 0.5}),
        ("constant", {"val": 2.0}),
    ],
)
def test_unknown_observable_parameter(name, params):
    with pytest.raises(InvalidParam, match=r"\['(raduis|chart|aplha|val)'\]"):
        observable_catalog(name, params)


@pytest.mark.parametrize(
    "name, params",
    [
        ("affine-bump", {"cx": [0.1, 0.2]}),
        ("affine-bump", {"radius": "2"}),
        ("affine-bump", {"chart": 1.0}),
        ("affine-bump", {"chart": 3}),
        ("fs-coordinate", {"index": True}),
        ("holder-crease", {"alpha": 0.5j}),
        ("holder-crease", {"index": -1}),
        ("constant", {"value": None}),
        ("holder-crease", {"level": float("nan")}),
        ("constant", {"value": float("inf")}),
        ("affine-bump", {"radius": float("inf")}),
        ("affine-bump", {"cy": complex(0.0, float("-inf"))}),
        ("holder-crease", {"alpha": np.float64("nan")}),
        ("affine-bump", {"radius": 10**400}),
        ("affine-bump", {"cy": -(10**400)}),
    ],
)
def test_wrong_typed_or_out_of_range_parameter(name, params):
    (key,) = params
    with pytest.raises(InvalidParam, match=key):
        observable_catalog(name, params)


def test_affine_bump_norm_fixture():
    # recorded grid-scan value for the default C^2 bump
    obs = observable_catalog("affine-bump", {"chart": 2, "radius": 2.0})
    assert obs.norm_estimate == pytest.approx(7.285473693572439, abs=1e-9)


def test_norm_estimate_at_least_sup():
    for name, params in (
        ("affine-bump", {"radius": 2.0}),
        ("fs-coordinate", {"index": 1}),
        ("holder-crease", {"alpha": 0.5}),
    ):
        obs = observable_catalog(name, params)
        Z = sample_fs_rows(20000, 5)
        assert obs.norm_estimate >= np.max(np.abs(obs.fn(Z))) - 1e-9


def test_smoothness_is_the_label_of_alpha():
    labels = {2.0: "C2", 1.0: "Holder(1.0)", 0.25: "Holder(0.25)"}
    for alpha, label in labels.items():
        assert Observable(name="x", alpha=alpha, norm_estimate=1.0, fn=None).smoothness == label
    # the label is read from alpha, never set
    with pytest.raises(TypeError):
        Observable(name="x", alpha=2.0, smoothness="C2", norm_estimate=1.0, fn=None)


@pytest.mark.parametrize("name", sorted(observables._BUILDERS))
def test_each_builder_states_its_alpha_and_any_exact_norm(name):
    fn, alpha, norm = observables._BUILDERS[name]()
    assert callable(fn)
    assert type(alpha) is float and 0 < alpha <= 2
    assert norm is None or type(norm) is float


# the recorded norm and label of each builder at its defaults and at the parameters the configs and perfbench use
RECORDED = [
    ("constant", {}, "C2", "0x1.0000000000000p+0"),
    ("affine-bump", {}, "C2", "0x1.d245337470c3dp+2"),
    ("affine-bump", {"chart": 0, "radius": 2.0}, "C2", "0x1.a7d8e2bd2469ep+5"),
    ("fs-coordinate", {}, "C2", "0x1.afa03948394e0p+1"),
    ("holder-crease", {}, "Holder(0.5)", "0x1.560245aa57f54p+0"),
    ("holder-crease", {"alpha": 0.25}, "Holder(0.25)", "0x1.98373a991b9d6p+0"),
    ("holder-crease", {"alpha": 1}, "Holder(1.0)", "0x1.0b670edc509a4p+0"),
]


@pytest.mark.parametrize("name, params, smoothness, norm", RECORDED)
def test_norms_and_labels_are_the_recorded_ones(name, params, smoothness, norm):
    obs = observable_catalog(name, params)
    assert (obs.smoothness, obs.norm_estimate.hex()) == (smoothness, norm)


def test_a_bump_the_norm_grid_misses_is_rejected_by_name():
    # no grid point lies in the support, so the grid norm would read 0
    with pytest.raises(InvalidParam, match="affine-bump.*0 at every point of the norm grid"):
        observable_catalog("affine-bump", {"radius": 0.05, "chart": 1, "cx": 1.5, "cy": 0.5j})


def _norm_grid():
    return chart_disc([0x0B5, NORM_CHART], NORM_GRID_SIDE * NORM_GRID_SIDE, NORM_GRID_RADIUS)


def _estimate_norm_full_grid(fn, alpha):
    """Reference: every difference evaluated on the whole grid at once."""
    aff = _norm_grid()
    base = fn(from_chart_rows(aff, NORM_CHART))
    sup = float(np.max(np.abs(base)))
    directions = [
        np.array([1.0, 0.0]),
        np.array([1j, 0.0]),
        np.array([0.0, 1.0]),
        np.array([0.0, 1j]),
    ]
    if alpha <= 1:
        quotient = 0.0
        for scale in range(4, 11):
            h = 2.0**-scale
            for e in directions:
                shifted = fn(from_chart_rows(aff + h * e, NORM_CHART))
                quotient = max(quotient, float(np.max(np.abs(shifted - base))) / h**alpha)
        return sup + quotient
    h1 = 1e-3
    grad = 0.0
    for e in directions:
        plus = fn(from_chart_rows(aff + h1 * e, NORM_CHART))
        minus = fn(from_chart_rows(aff - h1 * e, NORM_CHART))
        grad = max(grad, float(np.max(np.abs(plus - minus))) / (2 * h1))
    h2 = 1e-2
    hess = 0.0
    for e in directions:
        plus = fn(from_chart_rows(aff + h2 * e, NORM_CHART))
        minus = fn(from_chart_rows(aff - h2 * e, NORM_CHART))
        hess = max(hess, float(np.max(np.abs(plus - 2 * base + minus))) / h2**2)
    return sup + grad + hess


_coordinate = st.complex_numbers(max_magnitude=2.5, allow_nan=False, allow_infinity=False)
_estimated = st.one_of(
    st.builds(
        lambda cx, cy, radius, chart: ("affine-bump", {"cx": cx, "cy": cy, "radius": radius, "chart": chart}),
        _coordinate, _coordinate, st.floats(0.05, 4.0), st.integers(0, 2),
    ),
    st.builds(lambda index: ("fs-coordinate", {"index": index}), st.integers(0, 2)),
    st.builds(
        lambda alpha, index, level: ("holder-crease", {"alpha": alpha, "index": index, "level": level}),
        st.floats(0.05, 1.0), st.integers(0, 2), st.floats(0.0, 1.0),
    ),
)


@settings(max_examples=12, deadline=None)
@given(_estimated)
def test_sliced_norm_grid_equals_the_full_grid(observable):
    name, params = observable
    fn, alpha, _ = observables._BUILDERS[name](**params)
    want = _estimate_norm_full_grid(fn, alpha)
    try:
        assert estimate_norm(fn, alpha) == want
    except InvalidParam:
        assert np.max(np.abs(fn(from_chart_rows(_norm_grid(), NORM_CHART)))) == 0.0


@pytest.mark.parametrize("name", sorted(observables._BUILDERS))
def test_norm_estimates_do_not_depend_on_the_cpu_count(monkeypatch, name):
    estimates = []
    for cpus in (1, 2):
        monkeypatch.setattr(maps, "_CPUS", cpus)
        estimates.append(observable_catalog(name).norm_estimate.hex())
    assert estimates[0] == estimates[1]


def test_one_norm_estimate_keeps_one_slice_of_the_grid():
    fn, alpha, _ = observables._make_affine_bump()
    tracemalloc.start()
    try:
        estimate_norm(fn, alpha)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the whole-grid reference above peaks at 18.5 MB
    assert peak < 9e6
