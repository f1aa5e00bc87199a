import numpy as np
import pytest

from birlab.errors import AllZero, ChartSingular
from birlab.projective import (
    ProjPoint,
    canonicalize_rows,
    fs_distance,
    fs_distance_rows,
    from_chart_rows,
    min_set_distance,
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


def test_normalize_unit_vector():
    p = normalize([1, 1, 0])
    r = 1 / np.sqrt(2)
    assert np.allclose(p.coords, [r, r, 0], atol=1e-12)


def test_normalize_rejects_zero():
    with pytest.raises(AllZero):
        normalize([0, 0, 0])
    with pytest.raises(AllZero):
        normalize([1e-301, 0, 0])


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


def test_min_set_distance():
    ps = [normalize([1, 0, 0]), normalize([0, 1, 0])]
    qs = [normalize([0, 0, 1]), normalize([1, 1, 0])]
    got = min_set_distance(ps, qs)
    assert abs(got - 1 / np.sqrt(2)) < 1e-12


def test_sample_fs_empty_and_determinism():
    assert sample_fs(0, 1) == []
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
    assert c.chart_index == 0
    assert np.allclose(c.values, [2, 3], atol=1e-12)


def test_to_chart_singular():
    p = normalize([0, 1, 0])
    with pytest.raises(ChartSingular):
        to_chart(p, 0)


def test_to_chart_unit_row():
    p = normalize([1, 1, 0])
    c = to_chart(p, 1)
    assert np.allclose(c.values, [1, 0], atol=1e-12)


def test_tangent_frames_orthonormal():
    Z = sample_fs_rows(2000, 3)
    B = tangent_frames(Z)
    # columns unit and mutually orthogonal, both orthogonal to the base point
    G = np.einsum("nik,nil->nkl", np.conj(B), B)
    eye = np.broadcast_to(np.eye(2), G.shape)
    assert np.max(np.abs(G - eye)) < 1e-10
    inner = np.einsum("ni,nik->nk", np.conj(Z), B)
    assert np.max(np.abs(inner)) < 1e-10


def test_from_chart_rows_inverts_to_chart():
    Z = sample_fs_rows(50, 8)
    for chart in range(3):
        values = np.array([to_chart(ProjPoint(z), chart).values for z in Z])
        back = from_chart_rows(values, chart)
        assert np.max(fs_distance_rows(back, Z)) < 1e-12
        assert np.allclose(np.linalg.norm(back, axis=-1), 1.0)


def test_proj_point_coordinates_are_read_only():
    from birlab.genericity import indeterminacy_orbit
    from birlab.maps import eval_point, iterate, make_cremona_composed, make_henon, random_unitary

    henon = make_henon(0.3, [-1.2, 0.0, 1.0])
    p = normalize([0.3, -0.1, 1.0])
    orbit = indeterminacy_orbit(make_cremona_composed(random_unitary(7)), 3)
    points = (
        [p, eval_point(henon.fwd, p)]
        + iterate(henon, p, 3)
        + sample_fs(4, 9)
        + [q for step in orbit.steps for q in step]
    )
    for q in points:
        with pytest.raises(ValueError):
            q.coords[0] = 0.0
    # a row given to ProjPoint is frozen as a view; its array stays writable
    Z = sample_fs_rows(3, 1)
    q = ProjPoint(Z[0])
    Z[0, 0] = 1.0
    assert q.coords[0] == 1.0
