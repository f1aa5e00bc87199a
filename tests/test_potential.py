import math

import numpy as np
import pytest

from birlab.errors import InvalidParam, NonConvergence, ShiftCalibrationError
from birlab.maps import RationalMapRep, make_henon
from birlab.potential import (
    QuasiPotentialSeries,
    calibration_points,
    chi_A_rows,
    green_plus_henon,
    smoothstep,
    u1,
    u1_rows,
    v_n,
    v_n_rows,
    w_n_rows,
)
from birlab.projective import normalize, sample_fs_rows


@pytest.fixture(scope="module")
def henon():
    return make_henon(0.3, [-1.2, 0.0, 1.0])


@pytest.fixture(scope="module")
def series(henon):
    return QuasiPotentialSeries.calibrate(henon, 6)


def test_smoothstep_plateaus_and_midpoint():
    assert smoothstep(-5.0) == 0.0
    assert smoothstep(-2.0) == 0.0
    assert smoothstep(-1.0) == 1.0
    assert smoothstep(3.0) == 1.0
    # quintic smoothstep is symmetric about the midpoint of the ramp
    assert abs(smoothstep(-1.5) - 0.5) < 1e-15
    x = np.linspace(-3, 0, 1001)
    y = smoothstep(x)
    assert np.all(y >= 0) and np.all(y <= 1)
    assert np.all(np.diff(y) >= -1e-15)


def test_u1_unitary_isometry_is_zero():
    # degree-1 isometries have ||F(z)|| = ||z||, so the increment vanishes;
    # checked through the generic row evaluator on a rotation-composed pair
    from birlab.maps import linear_map, random_unitary

    U = random_unitary(13)
    rep = linear_map(U)
    Z = sample_fs_rows(200, 1)
    vals = np.log(np.linalg.norm(rep.eval_rows(Z), axis=-1))
    assert np.max(np.abs(vals)) < 1e-12


def test_u1_henon_sentinel_at_indeterminacy(henon):
    assert u1(henon, normalize([1, 0, 0])) == -np.inf


def test_u1_henon_origin_hand_value(henon):
    # components at (0,0,1) are (0, c, 1); (1/2) log sqrt(c^2 + 1)
    expect = 0.5 * math.log(math.sqrt(1.2**2 + 1.0))
    assert abs(u1(henon, normalize([0, 0, 1])) - expect) < 1e-12
    assert abs(expect - 0.2230) < 5e-4


def test_v0_is_minus_shift(series):
    p = normalize([0.3, -0.1, 1.0])
    assert v_n(series, p, depth=0) == -series.shift


def test_v_n_telescoping(series, henon):
    Z = sample_fs_rows(10**4, 21)
    for n in range(series.n):
        lhs = v_n_rows(series, Z, n + 1) - v_n_rows(series, Z, n)
        # d^-n u1 along the n-step orbit
        cur = Z
        for _ in range(n):
            F = henon.fwd.eval_rows(cur)
            cur = F / np.linalg.norm(F, axis=-1, keepdims=True)
        rhs = henon.d ** (-n) * u1_rows(henon, cur)
        finite = np.isfinite(lhs) & np.isfinite(rhs)
        assert finite.mean() > 0.99
        assert np.max(np.abs(lhs[finite] - rhs[finite])) < 1e-12


def test_quasi_potential_evaluates_f_once_per_step(henon, monkeypatch):
    rows = []
    eval_rows = RationalMapRep.eval_rows

    def counted(self, Z):
        rows.append(len(Z))
        return eval_rows(self, Z)

    series = QuasiPotentialSeries(pair=henon, n=5, shift=0.0)
    Z = sample_fs_rows(10, 2)
    expect = [v_n_rows(series, Z, depth) for depth in range(6)]
    monkeypatch.setattr(RationalMapRep, "eval_rows", counted)
    for depth in range(6):
        rows.clear()
        assert np.array_equal(v_n_rows(series, Z, depth), expect[depth])
        assert rows == [10] * depth


def test_v_n_log_singularity_bounded_along_ray(series, henon):
    # v_n near I(f) behaves like log distance: the ratio stays bounded
    ind = normalize([1, 0, 0])
    ratios = []
    for t in (1e-2, 1e-3, 1e-4, 1e-5):
        p = normalize([1.0, t, t])
        from birlab.projective import fs_distance

        ratios.append(v_n(series, p) / math.log(fs_distance(p, ind)))
    assert max(ratios) < 10.0
    assert min(ratios) > 0.0


def test_shift_makes_v_below_minus_e_on_grid(series):
    for chart in range(3):
        vals = v_n_rows(series, calibration_points(chart))
        finite = vals[np.isfinite(vals)]
        assert np.all(finite <= -math.e + 1e-12)


def test_w_n_values_and_sentinel(series):
    Z = calibration_points(2)[:500]
    v = v_n_rows(series, Z)
    w = w_n_rows(series, Z)
    finite = np.isfinite(v)
    assert np.allclose(w[finite], -np.log(-v[finite]), atol=1e-14)
    assert np.all(w[finite] <= -1.0 + 1e-12)
    assert np.all(w[~finite] == -np.inf)


def test_w_n_shift_calibration_guard(henon):
    bad = QuasiPotentialSeries(pair=henon, n=2, shift=0.0)
    with pytest.raises(ShiftCalibrationError):
        w_n_rows(bad, calibration_points(2))


def test_chi_A_plateaus_and_range(series):
    Z = np.concatenate([calibration_points(c) for c in range(3)])[:10**4]
    A = 2.0
    chi = chi_A_rows(series, Z, A)
    w = w_n_rows(series, Z)
    assert np.all((chi >= 0.0) & (chi <= 1.0))
    low = np.isfinite(w) & (w <= -2 * A)
    high = np.isfinite(w) & (w >= -A)
    assert np.all(chi[low] == 0.0)
    assert np.all(chi[high] == 1.0)
    # sentinel rows sit inside the zero plateau
    assert np.all(chi[~np.isfinite(w)] == 0.0)


def test_chi_A_monotone_in_A(series):
    Z = np.concatenate([calibration_points(c) for c in range(3)])[:10**4]
    grid = [0.5, 1.0, 2.0, 4.0, 8.0]
    prev = None
    for A in grid:
        chi = chi_A_rows(series, Z, A)
        if prev is not None:
            assert np.min(chi - prev) > -1e-12
        prev = chi


def test_chi_A_rejects_bad_scale(series):
    with pytest.raises(InvalidParam):
        chi_A_rows(series, calibration_points(0)[:4], 0.0)


def test_green_zero_at_fixed_point(henon):
    # attracting affine fixed point: y = x with x^2 - 1.3 x - 1.2 = 0;
    # the other root is repelling and rounding would kick the orbit off it
    x = (1.3 - math.sqrt(1.3**2 + 4 * 1.2)) / 2
    assert green_plus_henon(henon, (x, x)) == 0.0


def test_green_functional_equation(henon):
    rng = np.random.default_rng(77)
    pts = 4.0 * (rng.uniform(size=(2000, 2)) - 0.5) + 1j * 4.0 * (
        rng.uniform(size=(2000, 2)) - 0.5
    )
    a, coeffs = 0.3, [-1.2, 0.0, 1.0]
    checked = 0
    for x, y in pts:
        g = green_plus_henon(henon, (x, y))
        if g <= 0:
            continue
        fx, fy = y, (coeffs[0] + coeffs[2] * y * y) - a * x
        gf = green_plus_henon(henon, (fx, fy))
        assert abs(gf - 2.0 * g) <= 1e-6
        checked += 1
        if checked >= 1000:
            break
    assert checked >= 1000


def test_green_large_escape_value(henon):
    g = green_plus_henon(henon, (0.0, 1e6))
    assert abs(g - math.log(1e6)) < 1.0


def test_green_nonnegative_random(henon):
    rng = np.random.default_rng(3)
    for x, y in rng.normal(size=(200, 2)):
        assert green_plus_henon(henon, (x, y)) >= 0.0


def test_green_nonconvergence(henon):
    with pytest.raises(NonConvergence):
        green_plus_henon(henon, (1e200, 1e150), max_iter=1, R_escape=10)
