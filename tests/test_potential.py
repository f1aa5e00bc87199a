import cmath
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    from birlab.maps import random_unitary
    from test_maps import linear_map

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


def test_the_series_owns_its_depth_check(henon, series):
    with pytest.raises(InvalidParam):
        QuasiPotentialSeries.calibrate(henon, -1)
    with pytest.raises(InvalidParam):
        replace(series, n=-1)


def test_v0_is_minus_shift(series):
    p = normalize([0.3, -0.1, 1.0])
    assert v_n(replace(series, n=0), p) == -series.shift


def test_v_n_telescoping(series, henon):
    Z = sample_fs_rows(10**4, 21)
    for n in range(series.n):
        lhs = v_n_rows(replace(series, n=n + 1), Z) - v_n_rows(replace(series, n=n), Z)
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
    expect = [v_n_rows(replace(series, n=depth), Z) for depth in range(6)]
    monkeypatch.setattr(RationalMapRep, "eval_rows", counted)
    for depth in range(6):
        rows.clear()
        assert np.array_equal(v_n_rows(replace(series, n=depth), Z), expect[depth])
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
        green_plus_henon(henon, (1e200, 1e150), max_iter=1)


NON_FINITE_ESCAPE = "non-finite escape point"


def _green_reference(pair, p_affine, max_iter=200):
    """The escape loop of ``green_plus_henon`` as it ran on complex values only
    (one nested Horner call and one ``max`` per step), kept as the bit-level oracle.
    Where the orbit escapes to a non-finite point it returns NON_FINITE_ESCAPE,
    not the inf or NaN its tail would give."""
    if pair.meta.get("family") != "henon":
        raise InvalidParam("escape-rate Green function requires a Henon pair")
    if max_iter < 1:
        raise InvalidParam("need max_iter >= 1")
    R_escape = 100.0
    a = pair.meta["a"]
    coeffs = pair.meta["p_coeffs"]
    d = pair.d
    lc = coeffs[-1]
    R0 = (sum(abs(c) for c in coeffs[:-1]) + abs(a) + 2.0) / abs(lc)
    R = max(R_escape, R0)

    def p_of(y):
        acc = 0.0 + 0.0j
        for c in reversed(coeffs):
            acc = acc * y + c
        return acc

    x, y = complex(p_affine[0]), complex(p_affine[1])
    for n in range(max_iter + 1):
        ay, ax = abs(y), abs(x)
        if ay >= R and ay >= ax:
            break
        if max(ax, ay) > 1e120:
            raise NonConvergence("orbit grew without meeting the escape criterion")
        x, y = y, p_of(y) - a * x
    else:
        if max(abs(x), abs(y)) <= R_escape:
            return 0.0
        raise NonConvergence("orbit neither escaped nor stayed bounded; raise max_iter")
    if not (cmath.isfinite(x) and cmath.isfinite(y)):
        return NON_FINITE_ESCAPE

    G = math.log(abs(y)) / d**n
    t, w = x / y, 1.0 / y
    scale = 1.0 / d ** (n + 1)
    for _ in range(200):
        rho = 0.0 + 0.0j
        for i, c in enumerate(coeffs):
            rho += c * w ** (d - i)
        rho -= a * t * w ** (d - 1)
        corr = math.log(abs(rho))
        G += scale * corr
        if abs(w) < 1e-300 or scale * abs(corr) < 1e-16:
            break
        t, w = w ** (d - 1) / rho, w**d / rho
        scale /= d
    return max(G, 0.0)


GREEN_MAPS = {
    "classic": lambda: make_henon(0.3, [-1.2, 0.0, 1.0]),
    "cubic": lambda: make_henon(0.4, [0.1, -1.0, 0.0, 1.0]),
    "slow": lambda: make_henon(0.05, [0.0, 0.0, 1.0]),
    "complex_a": lambda: make_henon(0.3 + 0.1j, [-1.2, 0.0, 1.0]),
}
GREEN_MAX_ITER = [200, 1, 400]
SPECIAL_POINTS = [
    (math.nan, 0.0), (0.0, math.nan), (math.inf, 0.0), (0.0, math.inf), (-math.inf, 1.0),
    (0.0, -math.inf), (math.inf, math.inf), (math.nan, math.inf), (math.inf, math.nan),
    (1e200, 1e150), (1e130, 0.0), (1e120, 0.0), (0.0, 1e120), (-1e120, 1e-3),
    (complex(0.0, math.nan), 1.0), (1.0, complex(math.inf, 0.0)), (0.0, complex(0.0, -0.0)),
]


def _pointwise_grid(seed=7, side=128, half=2.0):
    """The jittered grid of the ``pointwise`` benchmark workload."""
    rng = np.random.default_rng([0x9E7, seed])
    ticks = np.linspace(-half, half, side)
    h = ticks[1] - ticks[0]
    xs, ys = (t.ravel() for t in np.meshgrid(ticks, ticks, indexing="ij"))
    jitter = rng.uniform(-h / 2, h / 2, size=(2, xs.size))
    return np.clip(np.stack([xs, ys]) + jitter, -half, half).T.tolist()


def _f_image(pair, x, y):
    a, coeffs = pair.meta["a"], pair.meta["p_coeffs"]
    return y, sum(c * y**i for i, c in enumerate(coeffs)) - a * x


def _green_outcome(fn, pair, pt, max_iter):
    try:
        return fn(pair, pt, max_iter)
    except Exception as exc:  # the oracle compares the exception type
        return type(exc)


def _assert_green_bits(pair, points, max_iter=200):
    """green_plus_henon equals the reference bit for bit (sign of zero and
    NaN included) or raises the same exception type, and raises
    NonConvergence where the reference escapes to a non-finite point;
    returns the values."""
    out = []
    for pt in points:
        got = _green_outcome(green_plus_henon, pair, pt, max_iter)
        ref = _green_outcome(_green_reference, pair, pt, max_iter)
        if ref is NON_FINITE_ESCAPE:
            same = got is NonConvergence
        elif isinstance(ref, float) and isinstance(got, float):
            same = (math.isnan(ref) and math.isnan(got)) or (
                ref == got and math.copysign(1.0, ref) == math.copysign(1.0, got)
            )
        else:
            same = got is ref
        assert same, (pt, max_iter, got, ref)
        out.append(got)
    return out


def test_green_bits_on_the_pointwise_grid_and_its_images(henon):
    grid = _pointwise_grid()
    vals = _assert_green_bits(henon, grid)
    escaping = [p for p, g in zip(grid, vals) if g > 0.0]
    assert 1000 < len(escaping) < len(grid) - 1000
    _assert_green_bits(henon, [_f_image(henon, x, y) for x, y in escaping])


def test_green_bits_on_complex_points(henon):
    rng = np.random.default_rng(77)
    pts = 4.0 * (rng.uniform(size=(2000, 2)) - 0.5) + 1j * 4.0 * (rng.uniform(size=(2000, 2)) - 0.5)
    _assert_green_bits(henon, pts.tolist())


@pytest.mark.parametrize("name", sorted(GREEN_MAPS))
@pytest.mark.parametrize("max_iter", GREEN_MAX_ITER)
def test_green_bits_across_maps_and_settings(name, max_iter):
    pair = GREEN_MAPS[name]()
    grid = _pointwise_grid()[::16]
    rng = np.random.default_rng(5)
    cplx = (4.0 * (rng.uniform(size=(250, 2)) - 0.5) + 4j * (rng.uniform(size=(250, 2)) - 0.5)).tolist()
    # a 1e-300 imaginary part must take the complex path and still agree
    tiny = [(x + 1e-300j, y) for x, y in grid[::4]] + [(x, y + 1e-300j) for x, y in grid[1::4]]
    pts = grid + [_f_image(pair, x, y) for x, y in grid[::2]] + cplx + tiny + SPECIAL_POINTS
    _assert_green_bits(pair, pts, max_iter)


def test_green_bits_where_a_real_orbit_overflows():
    # p = y^4 overflows before its last Horner step, so the orbit escapes to
    # a non-finite point; that raises NonConvergence, not a NaN G+
    quartic = make_henon(0.5, [0.0, 0.0, 0.0, 0.0, 1.0])
    pts = [(1e110, 1e105), (-1e110, 3e104), (1e110, 1e60), (2.0, 1e80)] + SPECIAL_POINTS
    vals = _assert_green_bits(quartic, pts)
    assert vals[0] is NonConvergence


def test_green_escape_loop_number_field(henon, monkeypatch):
    import birlab.potential as potential

    seen = []
    escape = potential._escape

    def recording(x, y, *args):
        seen.append((type(x), type(y)))
        return escape(x, y, *args)

    monkeypatch.setattr(potential, "_escape", recording)
    cases = [
        (henon, (0.5, -0.25), (float, float)),
        (henon, (0.5 + 0j, np.float64(-0.25)), (float, float)),
        (henon, (0.5 + 1e-300j, -0.25), (complex, complex)),
        (henon, (0.5, -0.25 + 1e-300j), (complex, complex)),
        (GREEN_MAPS["complex_a"](), (0.5, -0.25), (complex, complex)),
        (make_henon(0.3, [-1.2, 1e-300j, 1.0]), (0.5, -0.25), (complex, complex)),
    ]
    for pair, pt, kinds in cases:
        seen.clear()
        green_plus_henon(pair, pt)
        assert seen == [kinds], pt


@st.composite
def _henon_and_points(draw):
    """A Henon map of degree 2-3 and up to 8 points with coordinates of
    modulus <= 4, each over the reals or over C."""

    def numbers(real, bound):
        if real:
            return st.floats(-bound, bound)
        return st.complex_numbers(max_magnitude=bound, allow_nan=False, allow_infinity=False)

    real_map = draw(st.booleans())
    d = draw(st.integers(2, 3))
    unit = st.sampled_from([1.0, -1.0] if real_map else [1.0, -1.0, 1j, -1j, (1 + 1j) / math.sqrt(2)])
    lower = draw(st.lists(numbers(real_map, 2.0), min_size=d, max_size=d))
    lead = draw(st.floats(0.5, 2.0)) * draw(unit)
    a = draw(st.floats(0.05, 2.0)) * draw(unit)
    pair = make_henon(a, lower + [lead])
    real_points = draw(st.booleans())
    pts = draw(st.lists(st.tuples(numbers(real_points, 4.0), numbers(real_points, 4.0)), min_size=1, max_size=8))
    return pair, pts


@settings(max_examples=80, deadline=None)
@given(case=_henon_and_points())
def test_green_functional_equation_random_maps(case):
    pair, pts = case
    for x, y in pts:
        try:
            g = green_plus_henon(pair, (x, y))
            gf = green_plus_henon(pair, _f_image(pair, x, y))
        except NonConvergence:
            continue
        assert g >= 0.0 and gf >= 0.0
        if g > 0.0:
            assert abs(gf - pair.d * g) <= 1e-6, (x, y, g, gf)
