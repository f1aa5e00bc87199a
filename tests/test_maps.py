import itertools
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from birlab import maps
from birlab.errors import (
    DimensionMismatch,
    IndeterminacyProximity,
    InvalidParam,
)
from birlab.maps import (
    CHAIN_CHUNK,
    HomogeneousPolynomial,
    differential_rows,
    eval_point,
    for_each,
    for_each_slice,
    fs_pullback_form,
    iterate,
    make_cremona_composed,
    RationalMapRep,
    make_henon,
    pullback_chain,
    pullback_density,
    random_unitary,
    row_slices,
    step_rows,
    wedge_density_rows,
)
from birlab.projective import (
    ProjPoint,
    canonicalize_rows,
    fix_phase_rows,
    fs_distance,
    fs_distance_rows,
    normalize,
    sample_fs,
    sample_fs_rows,
    tangent_frames,
)


def linear_map(A) -> RationalMapRep:
    """The map z -> A z of P^k."""
    A = np.asarray(A, dtype=complex)
    n = len(A)
    unit = [tuple(int(v == j) for v in range(n)) for j in range(n)]
    return RationalMapRep(
        components=tuple(
            HomogeneousPolynomial.from_dict(1, {unit[j]: A[i, j] for j in range(n) if A[i, j] != 0})
            for i in range(n)
        )
    )


def identity_map() -> RationalMapRep:
    return linear_map(np.eye(3))


def wedge_density(A: np.ndarray, B: np.ndarray) -> float:
    """Wedge density of two 2x2 (1,1)-forms written in one frame at one point."""
    if np.shape(A) != (2, 2) or np.shape(B) != (2, 2):
        raise DimensionMismatch("wedge density defined for k = 2 only")
    return float(wedge_density_rows(A, B))


def roundtrip_residuals(pair, count: int, seed: int) -> np.ndarray:
    """FS distances ||bwd(fwd(z)) - z|| on random points at least 1e-3 away from I(f)."""
    Z = sample_fs_rows(count, seed)
    Z = Z[fs_distance_rows(Z[:, None], pair.ind_fwd).min(axis=1) >= 1e-3]
    W, _, alive1 = step_rows(pair.fwd, Z)
    B, _, alive2 = step_rows(pair.bwd, W)
    res = fs_distance_rows(canonicalize_rows(B), canonicalize_rows(Z))
    return res[alive1 & alive2]


@pytest.fixture(scope="module")
def henon():
    return make_henon(0.3, [-1.2, 0.0, 1.0])


@pytest.fixture(scope="module")
def cremona_j():
    return make_cremona_composed(np.eye(3))


def test_homogeneous_polynomial_validates_degree():
    with pytest.raises(InvalidParam):
        HomogeneousPolynomial.from_dict(2, {(1, 0, 0): 1.0})
    with pytest.raises(InvalidParam):
        HomogeneousPolynomial.from_dict(2, {(2, 0, 0): 0.0})


@pytest.mark.parametrize("exps", [(3, -1, 0), (1.5, 0.5, 0)])
def test_homogeneous_polynomial_rejects_exponents_that_are_not_natural(exps):
    # each sums to the degree, so only the exponent check can reject it
    with pytest.raises(InvalidParam):
        HomogeneousPolynomial.from_dict(2, {exps: 1})


@pytest.mark.parametrize("nexps", [2, 4])
def test_rational_map_rejects_multi_indices_of_another_length(nexps):
    comp = HomogeneousPolynomial.from_dict(2, {(2,) + (0,) * (nexps - 1): 1.0})
    with pytest.raises(InvalidParam):
        RationalMapRep(components=(comp,) * 3)


def test_rational_map_rejects_no_components_and_mixed_degrees():
    with pytest.raises(InvalidParam):
        RationalMapRep(components=())
    with pytest.raises(InvalidParam):
        RationalMapRep(components=tuple(HomogeneousPolynomial.from_dict(d, {(d, 0, 0): 1.0}) for d in (1, 2, 2)))


def test_homogeneous_polynomial_eval_and_partial():
    # q = X^2 + 2 Y Z
    q = HomogeneousPolynomial.from_dict(2, {(2, 0, 0): 1.0, (0, 1, 1): 2.0})
    Z = np.array([[1.0, 2.0, 3.0], [1j, 0.0, 1.0]])
    assert np.allclose(q(Z), [13.0, -1.0])
    qx = q.partial(0)
    assert np.allclose(qx(Z), [2.0, 2j])


def test_eval_henon_indeterminacy(henon):
    with pytest.raises(IndeterminacyProximity):
        eval_point(henon.fwd, normalize([1, 0, 0]))


def test_eval_henon_infinity_fixed(henon):
    p = normalize([0, 1, 0])
    q = eval_point(henon.fwd, p)
    assert fs_distance(p, q) < 1e-12


def test_eval_identity_map():
    ident = identity_map()
    for raw in ([1, 2, 3], [1j, 0.5, -2], [0, 0, 1]):
        p = normalize(raw)
        assert fs_distance(p, eval_point(ident, p)) < 1e-12


def test_iterate_zero_steps(henon):
    p = normalize([1, 2, 3])
    orbit = iterate(henon, p, 0)
    assert len(orbit) == 1 and orbit[0] is p


def test_iterate_fixed_point(henon):
    p = normalize([0, 1, 0])
    orbit = iterate(henon, p, 5)
    assert len(orbit) == 6
    assert all(fs_distance(p, q) < 1e-12 for q in orbit)


def test_iterate_escape_converges_to_infinity(henon):
    p = normalize([50.0, 60.0, 1.0])
    orbit = iterate(henon, p, 20)
    inf_pt = normalize([0, 1, 0])
    assert fs_distance(orbit[-1], inf_pt) < 1e-8


def test_iterate_reports_failing_step(henon):
    # second forward step of a preimage of [1:0:0] lands on indeterminacy;
    # [1:0:0] itself fails at step 0
    with pytest.raises(IndeterminacyProximity) as exc:
        iterate(henon, normalize([1, 0, 0]), 3)
    assert exc.value.step == 0


def test_pullback_identity_is_identity_matrix():
    ident = identity_map()
    for raw in ([1, 2, 3], [0.1, 1j, 1]):
        form = fs_pullback_form(ident, normalize(raw))
        assert np.allclose(form, np.eye(2), atol=1e-10)


def test_pullback_unitary_is_identity_matrix():
    U = random_unitary(19)
    rep = linear_map(U)
    Z = sample_fs_rows(50, 2)
    for row in Z:
        form = fs_pullback_form(rep, normalize(row))
        assert np.allclose(form, np.eye(2), atol=1e-9)


def test_pullback_trace_cohomological_mass(henon):
    # FS average of tr(f^* omega)/k equals the algebraic degree
    Z = sample_fs_rows(10**5, 17)
    H, alive = pullback_chain(henon, Z, 1)
    dens = np.real(np.trace(H, axis1=1, axis2=2))[alive] / 2.0
    mean = dens.mean()
    se = dens.std(ddof=1) / np.sqrt(len(dens))
    assert abs(mean - henon.d) < 3 * se
    assert abs(mean - henon.d) < 0.04 * henon.d


def test_pullback_psd_hermitian_random(henon):
    Z = sample_fs_rows(10**4, 23)
    H, alive = pullback_chain(henon, Z, 1)
    H = H[alive]
    assert np.max(np.abs(H - np.conj(np.transpose(H, (0, 2, 1))))) < 1e-10
    eigs = np.linalg.eigvalsh(H)
    assert eigs.min() >= -1e-10


def test_pullback_density_identity_and_growth(henon):
    assert abs(pullback_density(identity_map(), normalize([1, 2, 3])) - 1.0) < 1e-10
    # density blows up along a ray into the forward indeterminacy point
    # (approach within the collapsed line Z = 0, where the blow-up lives)
    vals = []
    for t in (1e-1, 1e-2, 1e-3, 1e-4):
        p = normalize([1.0, t, 0.0])
        vals.append(pullback_density(henon.fwd, p))
    assert all(b > 5 * a for a, b in zip(vals, vals[1:]))


def test_wedge_density_basic_values():
    ident = np.eye(2, dtype=complex)
    assert abs(wedge_density(ident, ident) - 1.0) < 1e-14
    B = np.array([[0.7, 0.1 + 0.2j], [0.1 - 0.2j, 1.9]])
    assert abs(wedge_density(ident, B) - np.real(np.trace(B)) / 2) < 1e-14
    A = np.diag([2.0, 0.0]).astype(complex)
    C = np.diag([0.0, 2.0]).astype(complex)
    assert abs(wedge_density(A, C) - 2.0) < 1e-14


def test_wedge_density_positive_on_psd_pairs():
    rng = np.random.default_rng(31)
    G = rng.normal(size=(10**5, 2, 2, 2)) + 1j * rng.normal(size=(10**5, 2, 2, 2))
    A = np.einsum("nca,ncb->nab", np.conj(G[:, 0]), G[:, 0])
    B = np.einsum("nca,ncb->nab", np.conj(G[:, 1]), G[:, 1])
    vals = wedge_density_rows(A, B)
    assert np.all(vals >= -1e-12)
    # agreement with the expanded analytic formula
    direct = 0.5 * np.real(
        A[:, 0, 0] * B[:, 1, 1]
        + A[:, 1, 1] * B[:, 0, 0]
        - A[:, 0, 1] * B[:, 1, 0]
        - A[:, 1, 0] * B[:, 0, 1]
    )
    assert np.max(np.abs(vals - direct)) < 1e-10


def test_wedge_density_dimension_guard():
    big = np.eye(3, dtype=complex)
    with pytest.raises(DimensionMismatch):
        wedge_density(big, big)


def test_make_henon_structure(henon):
    assert henon.d == 2 and henon.delta == 2
    assert henon.regular is True
    assert len(henon.ind_fwd) == 1
    assert fs_distance(ProjPoint(henon.ind_fwd[0]), normalize([1, 0, 0])) < 1e-12
    assert len(henon.ind_bwd) == 1
    assert fs_distance(ProjPoint(henon.ind_bwd[0]), normalize([0, 1, 0])) < 1e-12


def test_make_henon_roundtrip(henon):
    res = roundtrip_residuals(henon, 1000, 7)
    assert res.max() < 1e-8


def test_make_henon_rejects_bad_params():
    with pytest.raises(InvalidParam):
        make_henon(0.0, [-1.2, 0.0, 1.0])
    with pytest.raises(InvalidParam):
        make_henon(0.3, [1.0, 1.0])


@pytest.mark.parametrize(
    "a, p_coeffs",
    [
        (np.nan, [-1.2, 0.0, 1.0]),
        (complex(0.3, np.inf), [-1.2, 0.0, 1.0]),
        (0.3, [-1.2, 0.0, np.inf]),
        (0.3, [np.nan, 0.0, 1.0]),
    ],
)
def test_make_henon_rejects_non_finite_params(a, p_coeffs):
    with pytest.raises(InvalidParam):
        make_henon(a, p_coeffs)


def test_make_henon_rejects_extra_arguments():
    with pytest.raises(TypeError):
        make_henon(0.3, [-1.2, 0.0, 1.0], 5)
    with pytest.raises(TypeError):
        make_henon(0.3, [-1.2, 0.0, 1.0], degree=2)


def test_make_cremona_structure(cremona_j):
    assert cremona_j.d == 2 and cremona_j.delta == 2
    assert cremona_j.regular is False
    coords = [normalize(e) for e in np.eye(3)]
    for pt in coords:
        assert min(fs_distance(pt, ProjPoint(q)) for q in cremona_j.ind_fwd) < 1e-12
        assert min(fs_distance(pt, ProjPoint(q)) for q in cremona_j.ind_bwd) < 1e-12
    # J is the standard involution: [1:2:3] -> [6:3:2]
    img = eval_point(cremona_j.fwd, normalize([1, 2, 3]))
    assert fs_distance(img, normalize([6, 3, 2])) < 1e-12


def test_make_cremona_unitary_roundtrip():
    pair = make_cremona_composed(random_unitary(7))
    res = roundtrip_residuals(pair, 1000, 7)
    assert res.max() < 1e-8


def test_make_cremona_rejects_singular():
    A = np.ones((3, 3), dtype=complex)
    with pytest.raises(InvalidParam):
        make_cremona_composed(A)


@pytest.mark.parametrize("A", [1e6 * np.diag([1.0, 1.0, 1e-13]), np.diag([1.0, np.nan, 1.0])])
def test_make_cremona_rejects_ill_conditioned_or_non_finite(A):
    # the first has det 1e5, which an absolute det test accepts, but cond 1e13
    with pytest.raises(InvalidParam):
        make_cremona_composed(A)


@pytest.mark.parametrize("A", [np.eye(3), random_unitary(7)])
@pytest.mark.parametrize("scale", [1e-5, 1e5])
def test_make_cremona_accepts_any_scale_of_a_regular_matrix(A, scale):
    # cA is the same projective map as A, so the singularity test is scale-free,
    # and the checked step keeps every row alive at any scale
    pair, scaled = make_cremona_composed(A), make_cremona_composed(scale * A)
    Z = sample_fs_rows(200, 3)
    for direction in ("fwd", "bwd"):
        W, _, alive = step_rows(pair.map_for(direction), Z)
        W_scaled, _, alive_scaled = step_rows(scaled.map_for(direction), Z)
        assert alive.all() and alive_scaled.all()
        assert np.all(fs_distance_rows(W, W_scaled) <= 1e-12)
    assert np.all(fs_distance_rows(pair.ind_fwd, scaled.ind_fwd) <= 1e-12)


def test_make_cremona_ignores_a_power_of_two_scale():
    A = random_unitary(7)
    pair, scaled = make_cremona_composed(A), make_cremona_composed(2.0**-40 * A)
    assert scaled == pair
    Z = sample_fs_rows(2000, 3)
    for direction in ("fwd", "bwd"):
        got, ref = (step_rows(p.map_for(direction), Z) for p in (scaled, pair))
        for out, expect in zip(got, ref, strict=True):
            np.testing.assert_array_equal(out, expect)
    np.testing.assert_array_equal(scaled.ind_fwd, pair.ind_fwd)
    np.testing.assert_array_equal(scaled.ind_bwd, pair.ind_bwd)


def test_random_unitary_is_unitary():
    U = random_unitary(7)
    assert np.allclose(U @ np.conj(U).T, np.eye(3), atol=1e-12)
    assert np.array_equal(U, random_unitary(7))


def _term_jacobian(map_rep, Z):
    """Homogeneous Jacobian from the formal partials, one term table each."""
    n = map_rep.nvars
    return np.stack(
        [np.stack([comp.partial(j)(Z) for j in range(n)], axis=-1) for comp in map_rep.components],
        axis=-2,
    )


def _frame_product_H(map_rep, Z, m):
    """Oracle: D^dag D for the product of B_out^dag J B_in / ||F|| over m
    steps, with fresh orthonormal frames at every point of the orbit."""
    D_total = np.tile(np.eye(2, dtype=complex), (len(Z), 1, 1))
    for _ in range(m):
        F = map_rep.eval_rows(Z)
        nrm = np.linalg.norm(F, axis=-1)
        W = F / nrm[:, None]
        J = _term_jacobian(map_rep, Z)
        D = np.einsum("nia,nij,njb->nab", np.conj(tangent_frames(W)), J, tangent_frames(Z))
        D_total = D / nrm[:, None, None] @ D_total
        Z = W
    return np.einsum("nca,ncb->nab", np.conj(D_total), D_total)


CHAIN_PAIRS = {
    "classic_henon": lambda: make_henon(0.3, [-1.2, 0.0, 1.0]),
    "cubic_henon": lambda: make_henon(0.4, [0.1, -1.0, 0.0, 1.0]),
    "cremona": lambda: make_cremona_composed(random_unitary(7)),
}


@pytest.mark.parametrize("name", sorted(CHAIN_PAIRS))
@pytest.mark.parametrize("direction", ["fwd", "bwd"])
def test_pullback_chain_matches_per_step_frames(name, direction):
    pair = CHAIN_PAIRS[name]()
    Z = sample_fs_rows(500, 41)
    for m in range(1, 6):
        H, alive = pullback_chain(pair, Z, m, direction)
        assert alive.all()
        H_ref = _frame_product_H(pair.map_for(direction), Z, m)
        scale = np.abs(H_ref).max(axis=(1, 2))
        err = np.abs(H - H_ref).max(axis=(1, 2))
        # escaping cubic orbits contract past the double range by m = 5;
        # there both sides must have underflowed
        normal = scale > 1e-250
        assert np.all(err[normal] <= 1e-10 * scale[normal])
        assert np.all(np.abs(H[~normal]) <= 1e-240)


@pytest.mark.parametrize("name", ["classic_henon", "cremona"])
def test_pullback_chain_freezes_rows_on_indeterminacy(name):
    pair = CHAIN_PAIRS[name]()
    on_ind = pair.ind_fwd
    Z0 = np.concatenate([on_ind, sample_fs_rows(20, 5)])
    H, alive = pullback_chain(pair, Z0, 4)
    dead = np.arange(len(on_ind))
    assert not alive[dead].any() and alive[len(on_ind):].all()
    # dead at the first step: the start frame is returned untouched
    assert np.allclose(H[dead], np.eye(2), atol=1e-12)


def test_pullback_chain_freezes_rows_dying_later():
    # z = f^{-1}(q) for q on I(f) is alive for one step and dead after it
    pair = CHAIN_PAIRS["cremona"]()
    Z0 = np.array([eval_point(pair.bwd, ProjPoint(q)).coords for q in pair.ind_fwd])
    H1, alive1 = pullback_chain(pair, Z0, 1)
    H4, alive4 = pullback_chain(pair, Z0, 4)
    assert alive1.all() and not alive4.any()
    assert np.array_equal(H4, H1)


def _whole_batch_chain(pair, Z0, m, direction):
    """Reference: the chain run on all rows at once, with no slicing."""
    map_rep = pair.map_for(direction)
    Z, X = Z0, tangent_frames(Z0)
    alive = np.ones(len(Z0), dtype=bool)
    for _ in range(m):
        Z, X, ok = differential_rows(map_rep, Z, X)
        alive &= ok
    return np.einsum("nca,ncb->nab", np.conj(X), X), alive


# full slices and a partial last one; indeterminacy points planted on
# both sides of the first slice boundary and in the last slice
BOUNDARY_ROWS = 2 * CHAIN_CHUNK + 37
PLANTED = np.array([CHAIN_CHUNK - 1, CHAIN_CHUNK, 2 * CHAIN_CHUNK + 20])


def _rows_with_planted_indeterminacy(pair, direction):
    Z0 = sample_fs_rows(BOUNDARY_ROWS, 3)
    ind = pair.ind_fwd if direction == "fwd" else pair.ind_bwd
    Z0[PLANTED] = ind[0]
    return Z0


def _assert_planted_rows_dead_and_frozen(m, H, alive):
    if m == 0:
        assert alive.all()
        return
    assert not alive[PLANTED].any()
    assert np.allclose(H[PLANTED], np.eye(2), atol=1e-12)


FOUR_PAIRS = {**CHAIN_PAIRS, "slow_henon": lambda: make_henon(0.05, [0.0, 0.0, 1.0])}


@pytest.mark.parametrize("name", sorted(FOUR_PAIRS))
@pytest.mark.parametrize("direction", ["fwd", "bwd"])
@pytest.mark.parametrize("m", [0, 1, 6])
def test_chain_slices_agree_with_the_whole_batch(name, direction, m):
    pair = FOUR_PAIRS[name]()
    Z0 = _rows_with_planted_indeterminacy(pair, direction)
    got = pullback_chain(pair, Z0, m, direction)
    for out, ref in zip(got, _whole_batch_chain(pair, Z0, m, direction), strict=True):
        np.testing.assert_array_equal(out, ref)
    _assert_planted_rows_dead_and_frozen(m, *got)


@pytest.mark.parametrize("name", sorted(FOUR_PAIRS))
@pytest.mark.parametrize("direction", ["fwd", "bwd"])
@settings(max_examples=10, deadline=None)
@given(cuts=st.lists(st.integers(1, CHAIN_CHUNK + 36), min_size=1, max_size=5, unique=True))
def test_eval_rows_rounds_a_row_alike_in_any_split_of_the_batch(name, direction, cuts):
    map_rep = FOUR_PAIRS[name]().map_for(direction)
    # from 16384 rows on, numpy evaluates a product in its power's temporary
    Z = sample_fs_rows(CHAIN_CHUNK + 37, 13)
    bounds = [0, *sorted(cuts), len(Z)]
    parts = [map_rep.eval_rows(Z[lo:hi]) for lo, hi in zip(bounds, bounds[1:])]
    np.testing.assert_array_equal(np.concatenate(parts), map_rep.eval_rows(Z))


SPLIT_ROWS = 2003


@pytest.mark.parametrize("name", sorted(FOUR_PAIRS))
@pytest.mark.parametrize("direction", ["fwd", "bwd"])
@pytest.mark.parametrize("m", [1, 6])
@settings(max_examples=8, deadline=None)
@given(cuts=st.lists(st.integers(1, SPLIT_ROWS - 1), min_size=1, max_size=6, unique=True))
@example(cuts=[1])
@example(cuts=[SPLIT_ROWS // 2, SPLIT_ROWS // 2 + 1, SPLIT_ROWS - 1])
def test_chain_rounds_a_row_alike_in_any_split_of_the_batch(name, direction, m, cuts):
    pair = FOUR_PAIRS[name]()
    Z0 = sample_fs_rows(SPLIT_ROWS, 19)
    # two rows on the indeterminacy set of the chain's map, so that alive is split too
    Z0[[5, SPLIT_ROWS // 2]] = (pair.ind_fwd if direction == "fwd" else pair.ind_bwd)[0]
    bounds = [0, *sorted(cuts), len(Z0)]
    parts = [pullback_chain(pair, Z0[lo:hi], m, direction) for lo, hi in zip(bounds, bounds[1:])]
    for got, ref in zip(map(np.concatenate, zip(*parts)), pullback_chain(pair, Z0, m, direction), strict=True):
        np.testing.assert_array_equal(got, ref)


def test_chain_memory_is_its_outputs_and_one_slice():
    pair = make_henon(0.05, [0.0, 0.0, 1.0])
    Z0 = sample_fs_rows(16 * CHAIN_CHUNK, 11)
    tracemalloc.start()
    try:
        H, alive = pullback_chain(pair, Z0, 6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # 1 KiB per row in flight: one slice on each CPU
    in_flight = min(maps._CPUS, len(row_slices(len(Z0))))
    assert peak - (H.nbytes + alive.nbytes) <= 1024 * CHAIN_CHUNK * in_flight


@pytest.mark.parametrize("cpus", [1, 2])
def test_slice_results_come_back_in_slice_order(monkeypatch, cpus):
    monkeypatch.setattr(maps, "_CPUS", cpus)
    caller = threading.current_thread()
    threads = set()

    def fn(rows):
        threads.add(threading.current_thread())
        if rows.start == 0:
            time.sleep(0.05)  # the helper finishes later slices first
        return rows.start

    count = 5 * CHAIN_CHUNK + 1
    assert for_each_slice(fn, count) == [rows.start for rows in row_slices(count)]
    if cpus == 1:
        # one CPU walks every slice on the caller, with no thread started
        assert threads == {caller}


def test_a_nested_call_inside_a_helper_returns(monkeypatch):
    # the one helper is busy with the outer slice, so the inner call's queued task
    # never starts: the inner caller drains its slices alone and cancels that task
    monkeypatch.setattr(maps, "_CPUS", 2)
    count = 3 * CHAIN_CHUNK
    caller, results = [], []
    helper_ran = threading.Event()

    def outer(rows):
        on_caller = threading.current_thread() is caller[0]
        if on_caller:
            helper_ran.wait(10)  # hand the helper a slice
        total = sum(for_each_slice(lambda inner: inner.stop - inner.start, count))
        if not on_caller:
            helper_ran.set()
        return total

    def run():
        caller.append(threading.current_thread())
        results.append(for_each_slice(outer, count))

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    thread.join(20)
    assert not thread.is_alive()
    assert helper_ran.is_set()
    assert results == [[count] * 3]


@pytest.mark.parametrize("cpus", [1, 2])
def test_tasks_that_are_not_slices_come_back_in_task_order(monkeypatch, cpus):
    monkeypatch.setattr(maps, "_CPUS", cpus)
    tasks = [(n, m) for n in range(4) for m in range(3)]

    def fn(task):
        if task == (0, 0):
            time.sleep(0.05)  # the helper finishes later tasks first
        return task[0] * 10 + task[1]

    assert for_each(fn, tasks) == [n * 10 + m for n, m in tasks]
    # any iterable of tasks, taken once
    assert for_each(str, (n for n in range(5))) == ["0", "1", "2", "3", "4"]
    assert for_each(fn, []) == []


def test_every_task_runs_once_under_frequent_thread_switches(monkeypatch):
    # more threads than cores, switching as often as the interpreter allows: a task
    # handed to two threads, or to none, would break the counts
    monkeypatch.setattr(maps, "_CPUS", 4)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            counts = [0] * 500

            def fn(task):
                counts[task] += 1
                return task

            assert for_each(fn, range(500)) == list(range(500))
            assert counts == [1] * 500
    finally:
        sys.setswitchinterval(interval)


def test_a_nested_task_list_inside_a_helper_returns(monkeypatch):
    # as for slices: the inner caller runs its tasks alone and cancels its queued helper
    monkeypatch.setattr(maps, "_CPUS", 2)
    caller, results = [], []
    helper_ran = threading.Event()

    def outer(task):
        on_caller = threading.current_thread() is caller[0]
        if on_caller:
            helper_ran.wait(10)  # hand the helper a task
        inner = for_each(lambda t: t * task, ["a", "b"])
        if not on_caller:
            helper_ran.set()
        return inner

    def run():
        caller.append(threading.current_thread())
        results.append(for_each(outer, [1, 2, 3]))

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    thread.join(20)
    assert not thread.is_alive()
    assert helper_ran.is_set()
    assert results == [[["a", "b"], ["aa", "bb"], ["aaa", "bbb"]]]


@pytest.mark.parametrize("raiser", ["caller", "helper"])
def test_an_error_in_one_slice_reaches_the_caller_with_its_type(monkeypatch, raiser):
    monkeypatch.setattr(maps, "_CPUS", 2)
    caller = threading.current_thread()
    helper_started = threading.Event()
    running = []

    def fn(rows):
        running.append(rows)
        try:
            on_caller = threading.current_thread() is caller
            if on_caller:
                helper_started.wait(10)
            else:
                helper_started.set()
            if on_caller == (raiser == "caller"):
                raise InvalidParam(f"slice at row {rows.start}")
            time.sleep(0.01)
        finally:
            running.remove(rows)

    with pytest.raises(InvalidParam, match="slice at row"):
        for_each_slice(fn, 4 * CHAIN_CHUNK)
    # no slice is still running once the error is out
    assert helper_started.is_set() and running == []


@pytest.mark.parametrize("name", sorted(FOUR_PAIRS))
@pytest.mark.parametrize("direction", ["fwd", "bwd"])
def test_chain_outputs_do_not_depend_on_the_cpu_count(monkeypatch, name, direction):
    pair = FOUR_PAIRS[name]()
    Z0 = _rows_with_planted_indeterminacy(pair, direction)
    runs = []
    for cpus in (1, 2):
        monkeypatch.setattr(maps, "_CPUS", cpus)
        runs.append(pullback_chain(pair, Z0, 6, direction))
    for one, two in zip(*runs, strict=True):
        np.testing.assert_array_equal(one, two)
    _assert_planted_rows_dead_and_frozen(6, *runs[1])


@pytest.mark.parametrize("name", ["classic_henon", "cremona"])
@pytest.mark.parametrize("direction", ["fwd", "bwd"])
def test_scalar_pullback_is_one_row_of_the_chain(name, direction):
    pair = CHAIN_PAIRS[name]()
    map_rep = pair.map_for(direction)
    points = sample_fs(500, 43)
    # each point's row inside the whole batch, not a one-row chain
    H, _ = pullback_chain(pair, np.array([p.coords for p in points]), 1, direction)
    for p, H_p in zip(points, H, strict=True):
        assert np.array_equal(fs_pullback_form(map_rep, p), H_p)
        assert pullback_density(map_rep, p) == np.real(np.trace(H_p)) / 2


@pytest.mark.parametrize("name", sorted(FOUR_PAIRS))
@pytest.mark.parametrize("direction", ["fwd", "bwd"])
def test_scalar_orbit_is_one_row_of_the_batch_steps(name, direction):
    # on the cubic map a 1-D row rounds Y·Z² and X·Z² unlike a row of a batch,
    # so eval_point steps a one-row batch
    pair = FOUR_PAIRS[name]()
    map_rep = pair.map_for(direction)
    points = sample_fs(300, 6)
    W1 = fix_phase_rows(step_rows(map_rep, np.array([p.coords for p in points]))[0])
    W2 = fix_phase_rows(step_rows(map_rep, W1)[0])
    for p, w1, w2 in zip(points, W1, W2, strict=True):
        assert np.array_equal(eval_point(map_rep, p).coords, w1)
        _, q1, q2 = iterate(pair, p, 2, direction)
        assert np.array_equal(q1.coords, w1) and np.array_equal(q2.coords, w2)


@pytest.mark.parametrize("name", sorted(CHAIN_PAIRS))
def test_step_rows_live_dead_and_layout(name):
    pair = CHAIN_PAIRS[name]()
    on_ind = pair.ind_fwd
    Z = sample_fs_rows(50, 3)
    W, _, alive = step_rows(pair.fwd, Z)
    assert alive.all()
    F = pair.fwd.eval_rows(Z)
    assert np.array_equal(W, F / np.linalg.norm(F, axis=-1, keepdims=True))
    # rows on I(f) are flagged dead and keep their (unit) input
    mixed = np.concatenate([Z[:20], on_ind, Z[20:]])
    W_mixed, _, alive_mixed = step_rows(pair.fwd, mixed)
    dead = np.arange(20, 20 + len(on_ind))
    assert not alive_mixed[dead].any()
    assert np.array_equal(W_mixed[dead], on_ind)
    # a dead row does not move the images of the live ones
    assert np.array_equal(np.delete(W_mixed, dead, axis=0), W)
    assert np.array_equal(np.delete(alive_mixed, dead), alive)
    # nor does the memory layout of the input
    for rows in (Z, mixed):
        W_row, _, alive_row = step_rows(pair.fwd, np.ascontiguousarray(rows))
        W_col, _, alive_col = step_rows(pair.fwd, np.asfortranarray(rows))
        assert np.array_equal(W_row, W_col) and np.array_equal(alive_row, alive_col)


COEFFS = st.complex_numbers(
    min_magnitude=0.1, max_magnitude=10.0, allow_nan=False, allow_infinity=False
)


def _random_maps(degree):
    exponents = [e for e in itertools.product(range(degree + 1), repeat=3) if sum(e) == degree]
    table = st.dictionaries(st.sampled_from(exponents), COEFFS, min_size=1)
    tables = st.lists(table, min_size=3, max_size=3)
    return tables.map(
        lambda ts: RationalMapRep(components=tuple(HomogeneousPolynomial.from_dict(degree, t) for t in ts))
    )


@settings(max_examples=60, deadline=None)
@given(
    map_rep=st.integers(2, 4).flatmap(_random_maps),
    seed=st.integers(0, 2**16),
)
def test_compiled_jacobian_matches_partials_and_euler(map_rep, seed):
    Z = sample_fs_rows(16, seed)
    J = map_rep.jacobian_rows(Z)
    scale = max(abs(c) for comp in map_rep.components for _, c in comp.terms) * map_rep.degree**2
    assert J.shape == (16, 3, 3)
    # one term loop evaluates the Jacobian and each formal partial alike
    np.testing.assert_array_equal(J, _term_jacobian(map_rep, Z))
    # Euler's identity for homogeneous F of degree d: J z = d F(z)
    Jz = np.einsum("nij,nj->ni", J, Z)
    assert np.max(np.abs(Jz - map_rep.degree * map_rep.eval_rows(Z))) <= 1e-12 * scale
    # a one-row batch gives its row's matrix, bit for bit
    np.testing.assert_array_equal(map_rep.jacobian_rows(Z[3:4]), J[3:4])


ROW_KERNEL_PAIRS = {
    **FOUR_PAIRS,
    "complex_henon": lambda: make_henon(0.3 + 0.2j, [0.1j, 0.5 - 0.25j, 1.0 + 0.5j]),
}


@pytest.mark.parametrize("name", sorted(ROW_KERNEL_PAIRS))
@pytest.mark.parametrize("direction", ["fwd", "bwd"])
def test_row_kernels_are_the_one_term_loop(name, direction):
    map_rep = ROW_KERNEL_PAIRS[name]().map_for(direction)
    points = sample_fs(300, 6)
    Z = np.array([p.coords for p in points])
    # F and J are the one term loop applied to each component and each formal partial
    stacked = np.stack([comp(Z) for comp in map_rep.components], axis=-1)
    np.testing.assert_array_equal(map_rep.eval_rows(Z), stacked)
    np.testing.assert_array_equal(map_rep.jacobian_rows(Z), _term_jacobian(map_rep, Z))
    # and so are they on a 1-D row
    for p in points:
        np.testing.assert_array_equal(map_rep.eval_rows(p.coords), [comp(p.coords) for comp in map_rep.components])
        np.testing.assert_array_equal(map_rep.jacobian_rows(p.coords), _term_jacobian(map_rep, p.coords))


def _random_pairs():
    henon = st.builds(
        make_henon,
        COEFFS,
        st.lists(COEFFS, min_size=3, max_size=4),
    )
    cremona = st.integers(0, 2**16).map(lambda seed: make_cremona_composed(random_unitary(seed)))
    return st.one_of(henon, cremona)


@settings(max_examples=60, deadline=None)
@given(
    pair=_random_pairs(),
    direction=st.sampled_from(["fwd", "bwd"]),
    seed=st.integers(0, 2**16),
    theta=st.floats(0.0, 2 * np.pi),
)
def test_checked_step_is_projectively_invariant(pair, direction, seed, theta):
    map_rep = pair.map_for(direction)
    ind = pair.ind_fwd if direction == "fwd" else pair.ind_bwd
    Z = np.concatenate([sample_fs_rows(32, seed), ind])
    lam = np.exp(1j * theta)
    W, nrm, alive = step_rows(map_rep, Z)
    W_lam, nrm_lam, alive_lam = step_rows(map_rep, lam * Z)
    # the rows on the indeterminacy set, and only they, are dead
    assert alive[:32].all() and not alive[32:].any()
    assert np.array_equal(alive_lam, alive)
    # lam z and z are one point of P^2, and so are their images
    assert np.all(fs_distance_rows(W[alive], W_lam[alive]) <= 1e-12)
    assert np.allclose(nrm_lam[alive], nrm[alive], rtol=1e-12, atol=0)
    assert np.allclose(np.linalg.norm(W[alive], axis=-1), 1.0, rtol=0, atol=1e-12)
    # dead rows come back bit for bit
    assert np.array_equal(W[~alive], Z[~alive])
    assert np.array_equal(W_lam[~alive], (lam * Z)[~alive])


def _psd_pair(seed, scale_a, scale_b):
    rng = np.random.default_rng(seed)
    G = rng.normal(size=(2, 64, 2, 2)) + 1j * rng.normal(size=(2, 64, 2, 2))
    A, B = (np.einsum("nca,ncb->nab", np.conj(g), g) for g in G)
    return scale_a * A, scale_b * B


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    scale_a=st.floats(1e-100, 1e100),
    scale_b=st.floats(1e-100, 1e100),
)
def test_wedge_density_does_not_depend_on_the_frame(seed, scale_a, scale_b):
    A, B = _psd_pair(seed, scale_a, scale_b)
    U = random_unitary(seed + 1, 2)
    Ut = np.conj(U).T
    ref = wedge_density_rows(A, B)
    rotated = wedge_density_rows(Ut @ A @ U, Ut @ B @ U)
    # 0 <= density <= tr A tr B / 2 on PSD pairs, so tr A tr B is its scale
    scale = np.real(np.trace(A, axis1=1, axis2=2) * np.trace(B, axis1=1, axis2=2))
    assert np.all(np.abs(rotated - ref) <= 1e-12 * scale)


@settings(max_examples=60, deadline=None)
@given(
    pair=_random_pairs(),
    direction=st.sampled_from(["fwd", "bwd"]),
    seed=st.integers(0, 2**16),
)
def test_pushed_frame_gram_matrix_follows_the_frame(pair, direction, seed):
    # pushing X U in place of X gives X'U: the Gram matrix becomes U^dag H U
    map_rep = pair.map_for(direction)
    Z = sample_fs_rows(32, seed)
    U = random_unitary(seed, 2)
    X = tangent_frames(Z)
    _, X1, alive = differential_rows(map_rep, Z, X)
    _, X1_U, alive_U = differential_rows(map_rep, Z, X @ U)
    assert alive.all() and alive_U.all()
    H = np.einsum("nca,ncb->nab", np.conj(X1), X1)
    H_U = np.einsum("nca,ncb->nab", np.conj(X1_U), X1_U)
    scale = np.real(np.trace(H, axis1=1, axis2=2))[:, None, None]
    assert np.all(np.abs(H_U - np.conj(U).T @ H @ U) <= 1e-12 * scale)
    wedge = wedge_density_rows(H, H)
    assert np.all(np.abs(wedge_density_rows(H_U, H_U) - wedge) <= 1e-12 * scale[:, 0, 0] ** 2)


def _roundtrip(fwd, bwd, Z):
    """FS residuals of bwd(fwd(z)) against z, on the rows both checked steps keep alive."""
    W, _, alive_f = step_rows(fwd, Z)
    B, _, alive_b = step_rows(bwd, W)
    alive = alive_f & alive_b
    assert alive.mean() >= 0.5
    return fs_distance_rows(B[alive], Z[alive])


def _scalars(lo, hi):
    """Real numbers of either sign and complex numbers, with lo <= |x| <= hi."""
    return (
        st.floats(lo, hi)
        | st.floats(-hi, -lo)
        | st.complex_numbers(min_magnitude=lo, max_magnitude=hi, allow_nan=False, allow_infinity=False)
    )


@settings(max_examples=60, deadline=None)
@given(
    a=_scalars(0.05, 2.0),
    lower=st.lists(_scalars(0.0, 2.0), min_size=2, max_size=3),
    lead=_scalars(0.1, 2.0),
    seed=st.integers(0, 2**16),
)
def test_henon_backward_map_inverts_forward_map(a, lower, lead, seed):
    pair = make_henon(a, lower + [lead])
    Z = sample_fs_rows(1000, seed)
    # 1e-2 off the line z = 0, which holds I(f) and which f contracts onto I(f^-1)
    Z = Z[np.abs(Z[:, 2]) >= 1e-2]
    assert _roundtrip(pair.fwd, pair.bwd, Z).max() <= 1e-9
    # a backward map built with another a is not the inverse, and the check says so
    assert _roundtrip(pair.fwd, make_henon(2 * a, lower + [lead]).bwd, Z).max() > 1e-6


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**16))
def test_cremona_backward_map_inverts_forward_map(seed):
    A = random_unitary(seed)
    pair = make_cremona_composed(A)
    Z = sample_fs_rows(1000, seed)
    # 1e-2 off the lines (Az)_i = 0 that f = J o A contracts; I(f) is where two meet
    Z = Z[(np.abs(Z @ A.T) >= 1e-2).all(axis=1)]
    assert _roundtrip(pair.fwd, pair.bwd, Z).max() <= 1e-9
