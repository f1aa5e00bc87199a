import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from birlab.errors import DegenerateCloud, InsufficientSignal, InvalidParam
from birlab.maps import CHAIN_CHUNK, eval_point, make_cremona_composed, make_henon, random_unitary
from birlab.measure import WeightedCloud, approx_T_plus_wedge_omega, approx_mu
from birlab.mixing import (
    M_LIMIT,
    N_FIT_BOOT,
    NOISE_FLOOR_SIGMAS,
    CnSequence,
    CorrelationSeries,
    DecayFit,
    OrbitTable,
    c_sequence,
    correlation_series,
    decay_fit,
    split_lags,
    theoretical_rate,
    two_sided_grid,
    _boot_rng,
    _weighted_cov_boot,
    _weighted_mean_boot,
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
    value = correlation_series(henon, const, coord, 4, mu_small).entries[4][1]
    assert value == 0.0
    value = correlation_series(henon, coord, const, 4, mu_small).entries[4][1]
    assert value == 0.0


def test_correlation_lag_zero_is_variance(henon, mu_small):
    coord = observable_catalog("fs-coordinate", {"index": 0})
    _, value, stderr, _ = correlation_series(henon, coord, coord, 0, mu_small).entries[0]
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
    v_combo, v1, v2 = (
        correlation_series(henon, phi, psi, 3, mu_small).entries[3][1] for phi in (combo, phi1, phi2)
    )
    assert abs(v_combo - (a * v1 + b * v2)) < 1e-12


def test_correlation_constant_shift_invariance(henon, mu_small):
    phi = observable_catalog("fs-coordinate", {"index": 0})
    psi = observable_catalog("fs-coordinate", {"index": 1})
    const = observable_catalog("constant", {"value": 5.0})
    shifted = _combine(1.0, phi, 1.0, const)
    v = correlation_series(henon, phi, psi, 2, mu_small).entries[2][1]
    v_shift = correlation_series(henon, shifted, psi, 2, mu_small).entries[2][1]
    assert abs(v - v_shift) < 1e-12


def test_correlation_rejects_negative_lag(henon, mu_small):
    phi = observable_catalog("fs-coordinate", {"index": 0})
    with pytest.raises(InvalidParam):
        correlation_series(henon, phi, phi, -1, mu_small)


def test_c_sequence_rejects_negative_lag(henon, nu_small):
    phi = observable_catalog("fs-coordinate", {"index": 0})
    with pytest.raises(InvalidParam, match="lags must be >= 0"):
        c_sequence(henon, phi, -1, nu_small)


def test_correlation_series_matches_pointwise(henon, mu_small):
    phi = observable_catalog("fs-coordinate", {"index": 0})
    psi = observable_catalog("affine-bump", {"radius": 2.0})
    ser = correlation_series(henon, phi, psi, 4, mu_small)
    assert [e[0] for e in ser.entries] == [0, 1, 2, 3, 4]
    for lag, value, stderr, dropped in ser.entries:
        # entry N does not depend on the longest lag asked for
        _, v, s, _ = correlation_series(henon, phi, psi, lag, mu_small).entries[lag]
        assert value == v and stderr == s
        assert 0.0 <= dropped < 0.05


def test_two_sided_zero_lags_is_covariance(henon, mu_small):
    phi = observable_catalog("fs-coordinate", {"index": 0})
    psi = observable_catalog("fs-coordinate", {"index": 1})
    v2, _ = two_sided_grid(henon, phi, psi, 0, 0, mu_small)[0][0]
    v1 = correlation_series(henon, phi, psi, 0, mu_small).entries[0][1]
    assert abs(v2 - v1) < 1e-14


def test_two_sided_consistency_with_one_sided(henon, mu_small):
    phi = observable_catalog("fs-coordinate", {"index": 0})
    psi = observable_catalog("affine-bump", {"radius": 2.0})
    for n in (1, 3):
        v2, s2 = two_sided_grid(henon, phi, psi, n, 0, mu_small)[n][0]
        _, v1, s1, _ = correlation_series(henon, phi, psi, n, mu_small).entries[n]
        assert abs(v2 - v1) <= 2 * max(s1, s2, 1e-12)


def test_two_sided_grid_shape(henon, mu_small):
    phi = observable_catalog("fs-coordinate", {"index": 0})
    psi = observable_catalog("fs-coordinate", {"index": 1})
    grid = two_sided_grid(henon, phi, psi, 2, 3, mu_small)
    assert len(grid) == 3 and all(len(row) == 4 for row in grid)
    assert grid[1][2] == two_sided_grid(henon, phi, psi, 1, 2, mu_small)[1][2]


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
    _, alive_f = OrbitTable(henon, cloud.points, "fwd").state(1)
    _, alive_b = OrbitTable(henon, cloud.points, "bwd").state(1)
    assert not alive_f[0] and alive_f[1] and alive_b[0] and not alive_b[1]
    grid = two_sided_grid(henon, phi, psi, 3, 4, cloud)
    assert len(grid) == 4 and all(len(row) == 5 for row in grid)
    for n in range(4):
        for m in range(5):
            assert grid[n][m] == two_sided_grid(henon, phi, psi, n, m, cloud)[n][m]


def test_two_sided_backward_lags_stop_where_the_resample_tags_collide(henon, mu_small):
    # cell (n, M_LIMIT) would reuse the resample of cell (n + 1, 0)
    phi = observable_catalog("fs-coordinate", {"index": 0})
    assert M_LIMIT == 64
    with pytest.raises(InvalidParam, match="below 64"):
        two_sided_grid(henon, phi, phi, 0, 64, mu_small)
    with pytest.raises(InvalidParam, match="below 64"):
        two_sided_grid(henon, phi, phi, 1, 64, mu_small)
    assert len(two_sided_grid(henon, phi, phi, 0, 63, mu_small)[0]) == 64


def test_orbit_table_keeps_states_and_freezes_dead_rows():
    pair = make_cremona_composed(random_unitary(7))
    # rows on I(f) die at the first step, their preimages at the second
    on_ind = [q.coords for q in pair.ind_fwd]
    preimages = [eval_point(pair.bwd, q).coords for q in pair.ind_fwd]
    cloud = _cloud_with(on_ind + preimages, count=50)
    table = OrbitTable(pair, cloud.points, "fwd")
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


def _cloud_across_slices(pair):
    """FS draws over two full slices and a partial one, with points that die
    under f and under f^-1 on both sides of the first slice boundary and in
    the last row."""
    points = sample_fs_rows(2 * CHAIN_CHUNK + 37, 5)
    dies_fwd, dies_bwd = pair.ind_fwd[0].coords, pair.ind_bwd[0].coords
    points[CHAIN_CHUNK - 1], points[CHAIN_CHUNK], points[-1] = dies_fwd, dies_bwd, dies_fwd
    w = np.random.default_rng(5).uniform(0.5, 1.5, size=len(points))
    return WeightedCloud(
        points=points, weights=w / w.sum(), depth_m=0, seed=5, clip_quantile=1.0,
        dropped_count=0, raw_mean=1.0, raw_stderr=0.0,
    )


def _whole_cloud_estimates(pair, phi, psi, cloud, lags):
    """correlation_series, two_sided_grid and c_sequence (of phi) as one
    whole-cloud OrbitTable per direction and the estimators' bootstrap calls
    and tags."""
    fwd, bwd = OrbitTable(pair, cloud.points, "fwd"), OrbitTable(pair, cloud.points, "bwd")
    w, seed = cloud.weights, cloud.seed
    a = [(phi.fn(Z), alive) for Z, alive in map(fwd.state, range(lags + 1))]
    b = [(psi.fn(Z), alive) for Z, alive in map(bwd.state, range(lags + 1))]
    series = [
        (N, *_weighted_cov_boot(w, a_N, b[0][0], alive, _boot_rng(seed, 200 + N)), float(1.0 - alive.mean()))
        for N, (a_N, alive) in enumerate(a)
    ]
    grid = [
        [_weighted_cov_boot(w, a_n, b_m, alive_f & alive_b, _boot_rng(seed, 300 + 64 * n + m))
         for m, (b_m, alive_b) in enumerate(b)]
        for n, (a_n, alive_f) in enumerate(a)
    ]
    means = np.array([_weighted_mean_boot(w, a_n, alive, _boot_rng(seed, 100 + n)) for n, (a_n, alive) in enumerate(a)])
    dropped = np.array([1.0 - alive.mean() for _, alive in a])
    return series, grid, (means[:, 0], means[:, 1], dropped)


def _sliced_estimates(pair, phi, psi, cloud, lags):
    series = correlation_series(pair, phi, psi, lags, cloud).entries
    grid = two_sided_grid(pair, phi, psi, lags, lags, cloud)
    seq = c_sequence(pair, phi, lags, cloud)
    assert np.array_equal(seq.c, np.diff(seq.partial_sums, prepend=0.0))
    return series, grid, (seq.partial_sums, seq.stderr, seq.dropped_fraction)


def _assert_slices_are_invisible(pair, phi, psi):
    cloud = _cloud_across_slices(pair)
    # the planted rows die at the first step: two under f, one under f^-1
    _, alive_f = OrbitTable(pair, cloud.points, "fwd").state(1)
    _, alive_b = OrbitTable(pair, cloud.points, "bwd").state(1)
    assert np.flatnonzero(~alive_f).tolist() == [CHAIN_CHUNK - 1, cloud.count - 1]
    assert np.flatnonzero(~alive_b).tolist() == [CHAIN_CHUNK]
    got = _sliced_estimates(pair, phi, psi, cloud, 3)
    want = _whole_cloud_estimates(pair, phi, psi, cloud, 3)
    assert got[0] == want[0]
    assert got[1] == want[1]
    for g, w in zip(got[2], want[2]):
        assert np.array_equal(g, w)


def test_slice_boundaries_are_invisible_to_the_estimators(henon):
    phi = observable_catalog("fs-coordinate", {"index": 0})
    psi = observable_catalog("affine-bump", {"radius": 2.0})
    _assert_slices_are_invisible(henon, phi, psi)


def test_slice_boundaries_move_a_cremona_pair_only_in_rounding():
    # a general complex product, evaluated in one operand order, leaves no rounding to move
    phi = observable_catalog("fs-coordinate", {"index": 0})
    for psi in (observable_catalog("fs-coordinate", {"index": 1}), observable_catalog("affine-bump", {"radius": 2.0})):
        _assert_slices_are_invisible(make_cremona_composed(random_unitary(7)), phi, psi)


def test_correlation_series_keeps_values_and_masks_not_states(henon):
    # each kept orbit state is 48 B per row per lag; a value and a mask byte are 9 B
    rows, lags = 4 * CHAIN_CHUNK, 11
    cloud = _cloud_with(np.empty((0, 3)), count=rows)
    phi = observable_catalog("fs-coordinate", {"index": 0})
    tracemalloc.start()
    try:
        correlation_series(henon, phi, phi, lags - 1, cloud)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 32 * rows * lags


def test_theoretical_rate_values(henon):
    regular = theoretical_rate(henon, 2.0)
    generic = theoretical_rate(replace(henon, regular=False), 2.0)
    assert abs(regular - 0.5 * math.log(2)) < 1e-14
    assert abs(generic - 0.25 * math.log(2)) < 1e-14
    # linear interpolation in the smoothness exponent
    assert abs(theoretical_rate(henon, 1.0) - regular / 2) < 1e-14
    with pytest.raises(InvalidParam):
        theoretical_rate(henon, 0.0)
    with pytest.raises(InvalidParam):
        theoretical_rate(henon, 2.5)


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

    fit = decay_fit(CorrelationSeries(entries=entries))
    assert abs(fit.rate - rate) < 1e-12
    assert abs(fit.r_squared - 1.0) < 1e-12
    assert fit.ci_low <= fit.rate <= fit.ci_high


def test_decay_fit_constant_series():
    entries = [(N, 0.25, 1e-6, 0.0) for N in range(8)]
    from birlab.mixing import CorrelationSeries

    fit = decay_fit(CorrelationSeries(entries=entries))
    assert abs(fit.rate) < 1e-12


def test_decay_fit_noise_floor_rejection():
    from birlab.mixing import CorrelationSeries

    entries = [(N, 1e-9, 1.0, 0.0) for N in range(8)]
    with pytest.raises(InsufficientSignal):
        decay_fit(CorrelationSeries(entries=entries))
    short = [(0, 1.0, 1e-6, 0.0), (1, 0.5, 1e-6, 0.0)]
    with pytest.raises(InsufficientSignal):
        decay_fit(CorrelationSeries(entries=short))


def test_decay_fit_on_cn_sequence_skips_c0():
    # planted delta^-n magnitudes on the c_n tail; c_0 is excluded by design
    c = np.array([5.0] + [2.0 ** (-n) for n in range(1, 9)])
    cs = CnSequence(
        c=c, partial_sums=np.cumsum(c), stderr=np.full(len(c), 1e-9),
        dropped_fraction=np.zeros(len(c)),
    )
    fit = decay_fit(cs)
    assert abs(fit.rate - math.log(2)) < 1e-12


def test_decay_fit_rejects_plain_sequences():
    entries = [(N, 2.0 ** (-N / 2), 1e-6, 0.0) for N in range(12)]
    with pytest.raises(InvalidParam, match="list"):
        decay_fit(entries)


def _decay_fit_loop(series, seed=0):
    """The fit as one Python iteration per bootstrap replicate: the
    reference that the batched ``decay_fit`` must match bit for bit."""
    if isinstance(series, CorrelationSeries):
        triples = [(lag, value, stderr) for lag, value, stderr, _ in series.entries]
    else:
        triples = [(n, series.c[n], series.stderr[n]) for n in range(1, len(series.c))]
    usable = []
    for lag, value, stderr in triples:
        if value != 0 and abs(value) >= NOISE_FLOOR_SIGMAS * stderr:
            usable.append((lag, value, stderr))
        elif usable:
            break
    if len(usable) < 3:
        raise InsufficientSignal("fewer than 3 entries above the noise floor")
    lags = np.array([u[0] for u in usable], dtype=float)
    y = np.log(np.abs([u[1] for u in usable]))
    stderrs = np.array([u[2] for u in usable], dtype=float)
    values = np.abs([u[1] for u in usable])
    if np.all(stderrs == 0):
        weights = np.ones_like(y)
    else:
        weights = 1.0 / np.maximum(stderrs / values, 1e-12) ** 2

    def wls(x, yy, w):
        W = w.sum()
        xm = np.sum(w * x) / W
        ym = np.sum(w * yy) / W
        sxx = np.sum(w * (x - xm) ** 2)
        if sxx == 0:
            return ym, 0.0
        slope = np.sum(w * (x - xm) * (yy - ym)) / sxx
        return ym - slope * xm, slope

    intercept, slope = wls(lags, y, weights)
    resid = y - (intercept + slope * lags)
    ss_res = float(np.sum(weights * resid**2))
    ym = np.sum(weights * y) / weights.sum()
    ss_tot = float(np.sum(weights * (y - ym) ** 2))
    r2 = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    rng = np.random.default_rng([0xF17, seed])
    rates = []
    for _ in range(N_FIT_BOOT):
        idx = rng.integers(0, len(lags), size=len(lags))
        if len(np.unique(lags[idx])) < 2:
            continue
        rates.append(-wls(lags[idx], y[idx], weights[idx])[1])
    ci_low, ci_high = np.percentile(rates, [2.5, 97.5]) if rates else (-slope, -slope)
    return DecayFit(
        rate=float(-slope), intercept=float(intercept), r_squared=float(r2),
        ci_low=float(ci_low), ci_high=float(ci_high), fit_window=(int(lags[0]), int(lags[-1])),
    )


# one entry: its kind, log-magnitude, sign and stderr / |value|; a zero
# entry or one under the noise floor (ratio above 1/3) ends the fit window
_ENTRY = st.tuples(
    st.sampled_from(["usable"] * 6 + ["zero", "floor"]),
    st.floats(-30.0, 5.0),
    st.booleans(),
    st.one_of(st.just(0.0), st.floats(0.0, 0.3)),
)


@settings(max_examples=80, deadline=None)
@given(
    entries=st.lists(_ENTRY, min_size=1, max_size=14),
    slope=st.floats(-2.0, 2.0),
    zero_stderrs=st.booleans(),
    as_cn=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_batched_decay_fit_matches_the_replicate_loop(entries, slope, zero_stderrs, as_cn, seed):
    values, stderrs = [], []
    for n, (kind, logmag, negative, ratio) in enumerate(entries):
        value = 0.0 if kind == "zero" else (-1.0 if negative else 1.0) * math.exp(logmag - slope * n)
        values.append(value)
        ratio += 0.34 if kind == "floor" else 0.0
        stderrs.append(0.0 if zero_stderrs else ratio * (abs(value) or 1.0))
    if as_cn:
        c = np.array(values)
        series = CnSequence(c=c, partial_sums=np.cumsum(c), stderr=np.array(stderrs),
                            dropped_fraction=np.zeros(len(c)))
    else:
        series = CorrelationSeries(entries=[(n, v, e, 0.0) for n, (v, e) in enumerate(zip(values, stderrs))])
    try:
        want = repr(_decay_fit_loop(series, seed))
    except InsufficientSignal:
        with pytest.raises(InsufficientSignal):
            decay_fit(series, seed)
        return
    assert repr(decay_fit(series, seed)) == want


def test_rates_for_generic_family():
    pair = make_cremona_composed(random_unitary(7))
    assert abs(theoretical_rate(pair, 2.0) - 0.25 * math.log(2)) < 1e-14
