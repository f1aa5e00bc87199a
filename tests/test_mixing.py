import math

import numpy as np
import pytest

from birlab.errors import DegenerateCloud, InsufficientSignal, InvalidParam
from birlab.maps import eval_point, make_cremona_composed, make_henon, random_unitary
from birlab.measure import WeightedCloud, approx_T_plus_wedge_omega, approx_mu
from birlab.mixing import (
    CnSequence,
    OrbitTable,
    c_sequence,
    correlation,
    correlation_series,
    correlation_two_sided,
    decay_fit,
    split_lags,
    theoretical_rate,
    two_sided_grid,
)
from birlab.observables import Observable, observable_catalog
from birlab.projective import sample_fs_rows


@pytest.fixture(scope="module")
def henon():
    return make_henon(0.3, [-1.2, 0.0, 1.0])


@pytest.fixture(scope="module")
def mu_small(henon):
    return approx_mu(henon, 1, 5000, 13)


@pytest.fixture(scope="module")
def nu_small(henon):
    return approx_T_plus_wedge_omega(henon, 2, 5000, 13)


def _combine(a, phi1, b, phi2):
    return Observable(
        name="combo",
        params={},
        smoothness="C2",
        norm_estimate=abs(a) * phi1.norm_estimate + abs(b) * phi2.norm_estimate,
        fn=lambda Z: a * phi1.fn(Z) + b * phi2.fn(Z),
    )


def test_c_sequence_constant_exact(henon, nu_small):
    const = observable_catalog("constant", {"value": 1.0})
    cs = c_sequence(henon, const, 6, nu_small)
    assert cs.c[0] == 1.0
    assert np.all(cs.c[1:] == 0.0)
    assert np.all(cs.partial_sums == 1.0)


def test_c_sequence_partial_sum_identity(henon, nu_small):
    # partial sums must equal the direct estimator of E[phi o f^n]
    bump = observable_catalog("affine-bump", {"radius": 2.0})
    cs = c_sequence(henon, bump, 5, nu_small)
    assert np.max(np.abs(np.cumsum(cs.c) - cs.partial_sums)) < 1e-12


def test_c_sequence_rejects_degenerate_cloud(henon):
    w = np.zeros(1000)
    w[0] = 0.999
    w[1:] = 0.001 / 999
    cloud = WeightedCloud(
        points=np.tile([1.0, 0.5, 1.0], (1000, 1)).astype(complex),
        weights=w, depth_m=0, seed=0, clip_quantile=1.0,
        dropped_count=0, raw_mean=1.0, raw_stderr=0.0,
    )
    bump = observable_catalog("affine-bump", {"radius": 2.0})
    with pytest.raises(DegenerateCloud):
        c_sequence(henon, bump, 3, cloud)


def test_correlation_constant_is_zero(henon, mu_small):
    const = observable_catalog("constant", {"value": 3.0})
    coord = observable_catalog("fs-coordinate", {"index": 0})
    value, _ = correlation(henon, const, coord, 4, mu_small)
    assert value == 0.0
    value, _ = correlation(henon, coord, const, 4, mu_small)
    assert value == 0.0


def test_correlation_lag_zero_is_variance(henon, mu_small):
    coord = observable_catalog("fs-coordinate", {"index": 0})
    value, stderr = correlation(henon, coord, coord, 0, mu_small)
    assert value >= 0.0
    assert stderr >= 0.0
    vals = coord.fn(mu_small.points)
    w = mu_small.weights
    direct = np.sum(w * vals * vals) - np.sum(w * vals) ** 2
    assert abs(value - direct) < 1e-14


def test_correlation_bilinearity(henon, mu_small):
    phi1 = observable_catalog("fs-coordinate", {"index": 0})
    phi2 = observable_catalog("affine-bump", {"radius": 2.0})
    psi = observable_catalog("fs-coordinate", {"index": 1})
    a, b = 1.7, -0.6
    combo = _combine(a, phi1, b, phi2)
    v_combo, _ = correlation(henon, combo, psi, 3, mu_small)
    v1, _ = correlation(henon, phi1, psi, 3, mu_small)
    v2, _ = correlation(henon, phi2, psi, 3, mu_small)
    assert abs(v_combo - (a * v1 + b * v2)) < 1e-12


def test_correlation_constant_shift_invariance(henon, mu_small):
    phi = observable_catalog("fs-coordinate", {"index": 0})
    psi = observable_catalog("fs-coordinate", {"index": 1})
    const = observable_catalog("constant", {"value": 5.0})
    shifted = _combine(1.0, phi, 1.0, const)
    v, _ = correlation(henon, phi, psi, 2, mu_small)
    v_shift, _ = correlation(henon, shifted, psi, 2, mu_small)
    assert abs(v - v_shift) < 1e-12


def test_correlation_rejects_negative_lag(henon, mu_small):
    phi = observable_catalog("fs-coordinate", {"index": 0})
    with pytest.raises(InvalidParam):
        correlation(henon, phi, phi, -1, mu_small)


def test_correlation_series_matches_pointwise(henon, mu_small):
    phi = observable_catalog("fs-coordinate", {"index": 0})
    psi = observable_catalog("affine-bump", {"radius": 2.0})
    ser = correlation_series(henon, phi, psi, 4, mu_small)
    assert [e[0] for e in ser.entries] == [0, 1, 2, 3, 4]
    for lag, value, stderr, dropped in ser.entries:
        v, s = correlation(henon, phi, psi, lag, mu_small)
        assert value == v and stderr == s
        assert 0.0 <= dropped < 0.05


def test_two_sided_zero_lags_is_covariance(henon, mu_small):
    phi = observable_catalog("fs-coordinate", {"index": 0})
    psi = observable_catalog("fs-coordinate", {"index": 1})
    v2, _ = correlation_two_sided(henon, phi, psi, 0, 0, mu_small)
    v1, _ = correlation(henon, phi, psi, 0, mu_small)
    assert abs(v2 - v1) < 1e-14


def test_two_sided_consistency_with_one_sided(henon, mu_small):
    phi = observable_catalog("fs-coordinate", {"index": 0})
    psi = observable_catalog("affine-bump", {"radius": 2.0})
    for n in (1, 3):
        v2, s2 = correlation_two_sided(henon, phi, psi, n, 0, mu_small)
        v1, s1 = correlation(henon, phi, psi, n, mu_small)
        assert abs(v2 - v1) <= 2 * max(s1, s2, 1e-12)


def test_two_sided_grid_shape(henon, mu_small):
    phi = observable_catalog("fs-coordinate", {"index": 0})
    psi = observable_catalog("fs-coordinate", {"index": 1})
    grid = two_sided_grid(henon, phi, psi, 2, 3, mu_small)
    assert len(grid) == 3 and all(len(row) == 4 for row in grid)
    v, s = correlation_two_sided(henon, phi, psi, 1, 2, mu_small)
    assert grid[1][2] == (v, s)


def _cloud_with(special, count=400, seed=3):
    """A hand-built cloud: FS draws plus the rows ``special`` up front."""
    points = np.concatenate([np.asarray(special, dtype=complex), sample_fs_rows(count, seed)])
    w = np.random.default_rng(seed).uniform(0.5, 1.5, size=len(points))
    return WeightedCloud(
        points=points, weights=w / w.sum(), depth_m=0, seed=seed, clip_quantile=1.0,
        dropped_count=0, raw_mean=1.0, raw_stderr=0.0,
    )


def test_two_sided_grid_equals_every_cell(henon):
    # [1:0:0] dies under f and [0:1:0] under f^-1, so both masks drop rows
    cloud = _cloud_with([[1, 0, 0], [0, 1, 0]])
    phi = observable_catalog("fs-coordinate", {"index": 0})
    psi = observable_catalog("affine-bump", {"radius": 2.0})
    _, alive_f = OrbitTable(henon, cloud, "fwd").state(1)
    _, alive_b = OrbitTable(henon, cloud, "bwd").state(1)
    assert not alive_f[0] and alive_f[1] and alive_b[0] and not alive_b[1]
    grid = two_sided_grid(henon, phi, psi, 3, 4, cloud)
    assert len(grid) == 4 and all(len(row) == 5 for row in grid)
    for n in range(4):
        for m in range(5):
            assert grid[n][m] == correlation_two_sided(henon, phi, psi, n, m, cloud)


def test_orbit_table_keeps_states_and_freezes_dead_rows():
    pair = make_cremona_composed(random_unitary(7))
    # rows on I(f) die at the first step, their preimages at the second
    on_ind = [q.coords for q in pair.ind_fwd]
    preimages = [eval_point(pair.bwd, q).coords for q in pair.ind_fwd]
    cloud = _cloud_with(on_ind + preimages, count=50)
    table = OrbitTable(pair, cloud, "fwd")
    Z, alive = table.state(4)
    assert len(table.Z) == 5 and len(table.alive) == 5
    assert table.Z[0] is cloud.points
    assert Z is table.Z[4] and alive is table.alive[4]
    assert not alive[:6].any() and alive[6:].all()
    died = {0: 1, 1: 1, 2: 1, 3: 2, 4: 2, 5: 2}
    for row, step in died.items():
        assert table.alive[step - 1][row] and not table.alive[step][row]
        for n in range(step, 5):
            assert np.array_equal(table.Z[n][row], table.Z[step - 1][row])
    # asking again computes nothing new
    table.state(2)
    assert len(table.Z) == 5


def test_theoretical_rate_values(henon):
    regular = theoretical_rate(henon, 2.0, True)
    generic = theoretical_rate(henon, 2.0, False)
    assert abs(regular - 0.5 * math.log(2)) < 1e-14
    assert abs(generic - 0.25 * math.log(2)) < 1e-14
    # linear interpolation in the smoothness exponent
    assert abs(theoretical_rate(henon, 1.0, True) - regular / 2) < 1e-14
    with pytest.raises(InvalidParam):
        theoretical_rate(henon, 0.0, True)
    with pytest.raises(InvalidParam):
        theoretical_rate(henon, 2.5, True)


def test_split_lags_examples(henon):
    assert split_lags(henon, 10) == (5, 5)
    assert split_lags(henon, 11) == (5, 6)
    assert split_lags(henon, 0) == (0, 0)


def test_split_lags_algebraic_identity(henon):
    # both halves sit within a factor d^(r/2) of the combined rate d^(-sN/2k)
    d, delta, k, s = henon.d, henon.delta, henon.k, henon.s
    for N in range(101):
        n, m = split_lags(henon, N)
        assert n + m == N
        r = N - k * (N // k)
        target = d ** (-s * N / (2.0 * k))
        bound = d ** (r / 2.0) + 1e-12
        for half in (delta ** (-n / 2.0), d ** (-m / 2.0)):
            ratio = half / target
            assert 1.0 / bound <= ratio <= bound


def test_decay_fit_recovers_planted_rate():
    rate = 0.5 * math.log(2)
    entries = [(N, 2.0 ** (-N / 2), 1e-6, 0.0) for N in range(12)]
    from birlab.mixing import CorrelationSeries

    fit = decay_fit(CorrelationSeries(entries=entries, seed=0, depth_m=0, count=0))
    assert abs(fit.rate - rate) < 1e-12
    assert abs(fit.r_squared - 1.0) < 1e-12
    assert fit.ci_low <= fit.rate <= fit.ci_high


def test_decay_fit_constant_series():
    entries = [(N, 0.25, 1e-6, 0.0) for N in range(8)]
    from birlab.mixing import CorrelationSeries

    fit = decay_fit(CorrelationSeries(entries=entries, seed=0, depth_m=0, count=0))
    assert abs(fit.rate) < 1e-12


def test_decay_fit_noise_floor_rejection():
    from birlab.mixing import CorrelationSeries

    entries = [(N, 1e-9, 1.0, 0.0) for N in range(8)]
    with pytest.raises(InsufficientSignal):
        decay_fit(CorrelationSeries(entries=entries, seed=0, depth_m=0, count=0))
    short = [(0, 1.0, 1e-6, 0.0), (1, 0.5, 1e-6, 0.0)]
    with pytest.raises(InsufficientSignal):
        decay_fit(CorrelationSeries(entries=short, seed=0, depth_m=0, count=0))


def test_decay_fit_on_cn_sequence_skips_c0():
    # planted delta^-n magnitudes on the c_n tail; c_0 is excluded by design
    const = observable_catalog("constant", {"value": 1.0})
    c = np.array([5.0] + [2.0 ** (-n) for n in range(1, 9)])
    cs = CnSequence(
        c=c, partial_sums=np.cumsum(c), stderr=np.full(len(c), 1e-9),
        dropped_fraction=np.zeros(len(c)), depth_m=0, obs=const,
    )
    fit = decay_fit(cs)
    assert abs(fit.rate - math.log(2)) < 1e-12


def test_rates_for_generic_family():
    pair = make_cremona_composed(random_unitary(7))
    assert abs(theoretical_rate(pair, 2.0, False) - 0.25 * math.log(2)) < 1e-14
