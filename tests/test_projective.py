import cmath

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from birlab.errors import AllZero, ChartSingular, DimensionMismatch, InvalidParam
from birlab.projective import (
    PHASE_FLOOR,
    ProjPoint,
    canonicalize_rows,
    fix_phase_rows,
    fs_distance,
    fs_distance_rows,
    from_chart_rows,
    normalize,
    sample_fs,
    sample_fs_rows,
    to_chart,
    tangent_frames,
)


def test_normalize_already_canonical():
    p = normalize([1, 0, 0])
    assert np.allclose(p.coords, [1, 0, 0])


def test_normalize_removes_phase_and_scale():
    p = normalize([2j, 0, 0])
    assert np.allclose(p.coords, [1, 0, 0], atol=1e-12)


@pytest.mark.parametrize(
    "raw, expected",
    [
        # |z|^2 is subnormal, or underflows or overflows, unless the tuple is scaled first
        ([1e-160, 0, 1e-160], [2**-0.5, 0, 2**-0.5]),
        ([1e-200, 0, 0], [1, 0, 0]),
        ([1e200, 0, 0], [1, 0, 0]),
        ([0, -3e-250j, 4e-250], [0, 0.6, 0.8j]),
        ([1e300, 1e300, 0], [2**-0.5, 2**-0.5, 0]),
        # nonzero, so not AllZero, however small
        ([1e-301, 0, 0], [1, 0, 0]),
        ([0, 5e-324j, 0], [0, 1, 0]),
    ],
)
def test_normalize_at_the_ends_of_the_float_range(raw, expected):
    assert np.allclose(normalize(raw).coords, expected, rtol=0, atol=1e-15)


@pytest.mark.parametrize("raw", [[np.inf, 0, 0], [np.nan, 1, 0], [1, complex(0, np.inf), 0]])
def test_normalize_rejects_non_finite_coordinates(raw):
    with pytest.raises(InvalidParam):
        normalize(raw)


def test_normalize_unit_vector():
    p = normalize([1, 1, 0])
    r = 1 / np.sqrt(2)
    assert np.allclose(p.coords, [r, r, 0], atol=1e-12)


def test_normalize_rejects_zero():
    with pytest.raises(AllZero):
        normalize([0, 0, 0])


@pytest.mark.parametrize("raw", [[1], [[1, 0], [0, 1]], 1.0])
def test_normalize_rejects_a_tuple_of_the_wrong_shape(raw):
    with pytest.raises(InvalidParam, match="flat tuple"):
        normalize(raw)


@pytest.mark.parametrize("raw", [[[1, 2], [3]], [1, [2], 0], [1, "x", 0], [1, {}, 0]])
def test_normalize_rejects_a_ragged_or_non_numeric_tuple(raw):
    with pytest.raises(InvalidParam, match="must be numbers"):
        normalize(raw)


def test_canonical_rows_at_the_ends_of_the_float_range():
    # norms that overflow, or whose squares underflow, are scaled first
    assert np.allclose(from_chart_rows(np.array([[1e200, 0]]), 2), [[1, 0, 1e-200]], rtol=0, atol=1e-15)
    assert np.allclose(canonicalize_rows([[1e-160, 0, 1e-160]]), [[2**-0.5, 0, 2**-0.5]], rtol=0, atol=1e-15)
    rng = np.random.default_rng(4)
    raws = rng.normal(size=(4000, 3)) + 1j * rng.normal(size=(4000, 3))
    raws *= 10.0 ** rng.uniform(-300, 300, (4000, 1))
    Z = canonicalize_rows(raws)
    assert np.max(np.abs(np.linalg.norm(Z, axis=1) - 1.0)) < 1e-15
    # rows of moderate norm keep the unscaled arithmetic bit for bit
    with np.errstate(over="ignore"):
        norms = np.linalg.norm(raws, axis=1, keepdims=True)
    moderate = ((norms > 1e-150) & (norms < 1e150))[:, 0]
    assert 0 < moderate.sum() < len(Z)
    assert np.array_equal(Z[moderate], fix_phase_rows(raws[moderate] / norms[moderate]))


def test_normalize_invariants_random():
    rng = np.random.default_rng(11)
    raws = rng.normal(size=(10000, 3)) + 1j * rng.normal(size=(10000, 3))
    Z = canonicalize_rows(raws)
    # unit norm
    assert np.max(np.abs(np.linalg.norm(Z, axis=1) - 1.0)) < 1e-12
    # leading significant coordinate has zero phase
    lead = np.argmax(np.abs(Z) > 1e-9, axis=1)
    lv = np.take_along_axis(Z, lead[:, None], axis=1)[:, 0]
    assert np.max(np.abs(np.angle(lv))) < 1e-12
    # idempotence
    Z2 = canonicalize_rows(Z)
    assert np.max(np.abs(Z2 - Z)) < 1e-12


def test_fs_distance_identity():
    p = normalize([1, 2, 3j])
    assert fs_distance(p, p) == 0.0


def test_fs_distance_orthogonal():
    p = normalize([1, 0, 0])
    q = normalize([0, 1, 0])
    assert abs(fs_distance(p, q) - 1.0) < 1e-15


def test_fs_distance_hand_value():
    p = normalize([1, 0, 0])
    q = normalize([1, 1, 0])
    assert abs(fs_distance(p, q) - 1 / np.sqrt(2)) < 1e-12


def test_fs_distance_scale_invariant():
    p = normalize([1, 2, 3])
    q = normalize([2j, 4j, 6j])
    assert fs_distance(p, q) < 1e-12


def test_fs_metric_properties_random_triples():
    rng = np.random.default_rng(5)
    raws = rng.normal(size=(3, 10000, 3)) + 1j * rng.normal(size=(3, 10000, 3))
    A, B, C = (canonicalize_rows(r) for r in raws)
    dab = fs_distance_rows(A, B)
    dba = fs_distance_rows(B, A)
    dac = fs_distance_rows(A, C)
    dcb = fs_distance_rows(C, B)
    assert np.all(dab >= 0)
    assert np.all(dab <= 1 + 1e-12)
    assert np.max(np.abs(dab - dba)) < 1e-12
    # triangle inequality
    assert np.all(dab <= dac + dcb + 1e-10)
    # identity of indiscernibles
    assert np.max(fs_distance_rows(A, A)) < 1e-10


def test_sample_fs_empty_and_determinism():
    assert sample_fs(0, 1) == []
    empty = sample_fs_rows(0, 1)
    assert empty.shape == (0, 3) and empty.dtype == complex
    a = sample_fs_rows(100, 42)
    b = sample_fs_rows(100, 42)
    assert np.array_equal(a, b)
    c = sample_fs_rows(100, 43)
    assert not np.array_equal(a, c)


def test_sample_fs_returns_proj_points():
    pts = sample_fs(5, 9)
    assert len(pts) == 5
    assert all(isinstance(p, ProjPoint) for p in pts)


def test_sample_fs_moment():
    # coordinate moduli squares are exchangeable and sum to 1, so each
    # second moment is 1/3; check every coordinate within 3 standard errors
    Z = sample_fs_rows(10**6, 123)
    m2 = np.abs(Z) ** 2
    for j in range(3):
        mean = m2[:, j].mean()
        se = m2[:, j].std(ddof=1) / np.sqrt(len(Z))
        assert abs(mean - 1 / 3) < 3 * se
        assert abs(mean - 1 / 3) < 0.002


def test_to_chart_basic():
    p = normalize([1, 2, 3])
    c = to_chart(p, 0)
    assert len(c) == 2
    assert np.allclose(c, [2, 3], atol=1e-12)


def test_to_chart_singular():
    p = normalize([0, 1, 0])
    with pytest.raises(ChartSingular):
        to_chart(p, 0)


def test_to_chart_unit_row():
    p = normalize([1, 1, 0])
    c = to_chart(p, 1)
    assert np.allclose(c, [1, 0], atol=1e-12)


def test_tangent_frames_orthonormal():
    Z = sample_fs_rows(2000, 3)
    B = tangent_frames(Z)
    # columns unit and mutually orthogonal, both orthogonal to the base point
    G = np.einsum("nik,nil->nkl", np.conj(B), B)
    eye = np.broadcast_to(np.eye(2), G.shape)
    assert np.max(np.abs(G - eye)) < 1e-10
    inner = np.einsum("ni,nik->nk", np.conj(Z), B)
    assert np.max(np.abs(inner)) < 1e-10


def test_tangent_frames_require_the_plane():
    with pytest.raises(DimensionMismatch):
        tangent_frames(np.eye(4, dtype=complex))
    with pytest.raises(DimensionMismatch):
        tangent_frames(sample_fs_rows(1, 3)[0])


def test_from_chart_rows_inverts_to_chart():
    Z = sample_fs_rows(50, 8)
    for chart in range(3):
        values = np.array([to_chart(ProjPoint(z), chart) for z in Z])
        back = from_chart_rows(values, chart)
        assert np.max(fs_distance_rows(back, Z)) < 1e-12
        assert np.allclose(np.linalg.norm(back, axis=-1), 1.0)


def _fix_phase_argmax(Z):
    """Reference: search every row for its first coordinate above PHASE_FLOOR."""
    lead = np.argmax(np.abs(Z) > PHASE_FLOOR, axis=-1)
    lv = np.take_along_axis(Z, lead[..., None], axis=-1)
    return Z * np.conj(lv / np.abs(lv))


# coordinates at the phase floor, at zero, and anywhere else
_at_the_floor = st.builds(
    lambda r, t: r * cmath.exp(1j * t),
    st.sampled_from([0.0, PHASE_FLOOR * (1 - 1e-12), PHASE_FLOOR, PHASE_FLOOR * (1 + 1e-12)]),
    st.one_of(st.just(0.0), st.floats(-4.0, 4.0)),
)
_coordinate = st.one_of(_at_the_floor, st.complex_numbers(max_magnitude=10.0, allow_infinity=False, allow_nan=False))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.lists(_coordinate, min_size=3, max_size=3), min_size=1, max_size=40))
def test_fix_phase_rows_equals_the_argmax_search(rows):
    Z = np.array(rows, dtype=complex)
    with np.errstate(invalid="ignore"):
        assert np.array_equal(fix_phase_rows(Z).view(np.uint64), _fix_phase_argmax(Z).view(np.uint64))
        for z in Z:
            assert np.array_equal(fix_phase_rows(z).view(np.uint64), _fix_phase_argmax(z).view(np.uint64))


@pytest.mark.parametrize("k", [1, 2, 3])
def test_from_chart_rows_equals_inserting_the_pivot(k):
    rng = np.random.default_rng(k)
    values = rng.normal(size=(500, k)) + 1j * rng.normal(size=(500, k))
    values[::5] *= 1e200
    values[1::5] *= 1e-200
    for chart in range(k + 1):
        want = canonicalize_rows(np.insert(values, chart, 1.0, axis=-1))
        assert np.array_equal(from_chart_rows(values, chart).view(np.uint64), want.view(np.uint64))


def test_proj_point_coordinates_are_read_only():
    from birlab.maps import eval_point, iterate, make_cremona_composed, make_henon, random_unitary

    henon = make_henon(0.3, [-1.2, 0.0, 1.0])
    p = normalize([0.3, -0.1, 1.0])
    pair = make_cremona_composed(random_unitary(7))
    points = (
        [p, eval_point(henon.fwd, p)]
        + iterate(henon, p, 3)
        + sample_fs(4, 9)
    )
    for row in [q.coords for q in points] + [*pair.ind_fwd, *pair.ind_bwd]:
        with pytest.raises(ValueError):
            row[0] = 0.0
    # a row given to ProjPoint is frozen as a view; its array stays writable
    Z = sample_fs_rows(3, 1)
    q = ProjPoint(Z[0])
    Z[0, 0] = 1.0
    assert q.coords[0] == 1.0
