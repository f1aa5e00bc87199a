import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from birlab.errors import (
    DimensionMismatch,
    IndeterminacyProximity,
    InvalidParam,
)
from birlab.maps import (
    FsForm,
    HomogeneousPolynomial,
    differential_rows,
    eval_point,
    eval_rows_checked,
    fs_pullback_form,
    identity_map,
    iterate,
    linear_map,
    make_cremona_composed,
    RationalMapRep,
    make_henon,
    pullback_chain,
    pullback_density,
    random_unitary,
    roundtrip_residuals,
    step_rows,
    wedge_density,
    wedge_density_rows,
)
from birlab.projective import (
    fs_distance,
    fs_distance_rows,
    normalize,
    sample_fs_rows,
    tangent_frames,
)


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
        assert np.allclose(form.matrix, np.eye(2), atol=1e-10)


def test_pullback_unitary_is_identity_matrix():
    U = random_unitary(19)
    rep = linear_map(U)
    Z = sample_fs_rows(50, 2)
    for row in Z:
        form = fs_pullback_form(rep, normalize(row))
        assert np.allclose(form.matrix, np.eye(2), atol=1e-9)


def test_pullback_trace_cohomological_mass(henon):
    # FS average of tr(f^* omega)/k equals the algebraic degree
    Z = sample_fs_rows(10**5, 17)
    H, alive, _ = pullback_chain(henon, Z, 1)
    dens = np.real(np.trace(H, axis1=1, axis2=2))[alive] / 2.0
    mean = dens.mean()
    se = dens.std(ddof=1) / np.sqrt(len(dens))
    assert abs(mean - henon.d) < 3 * se
    assert abs(mean - henon.d) < 0.04 * henon.d


def test_pullback_psd_hermitian_random(henon):
    Z = sample_fs_rows(10**4, 23)
    H, alive, _ = pullback_chain(henon, Z, 1)
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
    p = normalize([1, 0, 0])
    ident = FsForm(matrix=np.eye(2, dtype=complex), base_point=p)
    assert abs(wedge_density(ident, ident) - 1.0) < 1e-14
    B = FsForm(matrix=np.array([[0.7, 0.1 + 0.2j], [0.1 - 0.2j, 1.9]]), base_point=p)
    assert abs(wedge_density(ident, B) - np.real(np.trace(B.matrix)) / 2) < 1e-14
    A = FsForm(matrix=np.diag([2.0, 0.0]).astype(complex), base_point=p)
    C = FsForm(matrix=np.diag([0.0, 2.0]).astype(complex), base_point=p)
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
    p = normalize([1, 0, 0, 0])
    big = FsForm(matrix=np.eye(3, dtype=complex), base_point=p)
    with pytest.raises(DimensionMismatch):
        wedge_density(big, big)


def test_make_henon_structure(henon):
    assert henon.d == 2 and henon.delta == 2
    assert henon.k == 2 and henon.s == 1
    assert henon.regular is True
    assert henon.d**henon.s == henon.delta ** (henon.k - henon.s)
    assert len(henon.ind_fwd) == 1
    assert fs_distance(henon.ind_fwd[0], normalize([1, 0, 0])) < 1e-12
    assert len(henon.ind_bwd) == 1
    assert fs_distance(henon.ind_bwd[0], normalize([0, 1, 0])) < 1e-12


def test_make_henon_roundtrip(henon):
    res = roundtrip_residuals(henon, 1000, 7)
    assert res.max() < 1e-8


def test_make_henon_rejects_bad_params():
    with pytest.raises(InvalidParam):
        make_henon(0.0, [-1.2, 0.0, 1.0])
    with pytest.raises(InvalidParam):
        make_henon(0.3, [1.0, 1.0])


def test_make_henon_rejects_extra_arguments():
    with pytest.raises(TypeError):
        make_henon(0.3, [-1.2, 0.0, 1.0], 5)
    with pytest.raises(TypeError):
        make_henon(0.3, [-1.2, 0.0, 1.0], degree=2)


def test_degree_sequence(henon):
    # d_q = d^q for q <= s, then delta^(k-q)
    assert henon.degree_sequence() == [1, 2, 1]


def test_make_cremona_structure(cremona_j):
    assert cremona_j.d == 2 and cremona_j.delta == 2
    assert cremona_j.regular is False
    coords = [normalize(e) for e in np.eye(3)]
    for pt in coords:
        assert min(fs_distance(pt, q) for q in cremona_j.ind_fwd) < 1e-12
        assert min(fs_distance(pt, q) for q in cremona_j.ind_bwd) < 1e-12
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
        H, alive, _ = pullback_chain(pair, Z, m, direction)
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
    on_ind = np.array([q.coords for q in pair.ind_fwd])
    Z0 = np.concatenate([on_ind, sample_fs_rows(20, 5)])
    H, alive, Z_final = pullback_chain(pair, Z0, 4)
    dead = np.arange(len(on_ind))
    assert not alive[dead].any() and alive[len(on_ind):].all()
    # dead at the first step: the start frame is returned untouched
    assert np.allclose(H[dead], np.eye(2), atol=1e-12)
    assert np.array_equal(Z_final[dead], Z0[dead])


def test_pullback_chain_freezes_rows_dying_later():
    # z = f^{-1}(q) for q on I(f) is alive for one step and dead after it
    pair = CHAIN_PAIRS["cremona"]()
    Z0 = np.array([eval_point(pair.bwd, q).coords for q in pair.ind_fwd])
    H1, alive1, Z1 = pullback_chain(pair, Z0, 1)
    H4, alive4, Z4 = pullback_chain(pair, Z0, 4)
    assert alive1.all() and not alive4.any()
    assert np.array_equal(H4, H1)
    assert np.array_equal(Z4, Z1)


@pytest.mark.parametrize("name", sorted(CHAIN_PAIRS))
def test_eval_rows_checked_live_dead_and_layout(name):
    pair = CHAIN_PAIRS[name]()
    on_ind = np.array([q.coords for q in pair.ind_fwd])
    Z = sample_fs_rows(50, 3)
    W, alive = eval_rows_checked(pair.fwd, Z)
    assert alive.all()
    F = pair.fwd.eval_rows(Z)
    assert np.array_equal(W, F / np.linalg.norm(F, axis=-1, keepdims=True))
    # rows on I(f) are flagged dead and keep their (unit) input
    mixed = np.concatenate([Z[:20], on_ind, Z[20:]])
    W_mixed, alive_mixed = eval_rows_checked(pair.fwd, mixed)
    dead = np.arange(20, 20 + len(on_ind))
    assert not alive_mixed[dead].any()
    assert np.array_equal(W_mixed[dead], on_ind)
    # a dead row does not move the images of the live ones
    assert np.array_equal(np.delete(W_mixed, dead, axis=0), W)
    assert np.array_equal(np.delete(alive_mixed, dead), alive)
    # nor does the memory layout of the input
    for rows in (Z, mixed):
        W_row, alive_row = eval_rows_checked(pair.fwd, np.ascontiguousarray(rows))
        W_col, alive_col = eval_rows_checked(pair.fwd, np.asfortranarray(rows))
        assert np.array_equal(W_row, W_col) and np.array_equal(alive_row, alive_col)


COEFFS = st.complex_numbers(
    min_magnitude=0.1, max_magnitude=10.0, allow_nan=False, allow_infinity=False
)


def _random_maps(degree):
    exponents = [e for e in itertools.product(range(degree + 1), repeat=3) if sum(e) == degree]
    table = st.dictionaries(st.sampled_from(exponents), COEFFS, min_size=1)
    tables = st.lists(table, min_size=3, max_size=3)
    return tables.map(
        lambda ts: RationalMapRep(
            components=tuple(HomogeneousPolynomial.from_dict(degree, t) for t in ts), degree=degree
        )
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
    assert np.max(np.abs(J - _term_jacobian(map_rep, Z))) <= 1e-12 * scale
    # Euler's identity for homogeneous F of degree d: J z = d F(z)
    Jz = np.einsum("nij,nj->ni", J, Z)
    assert np.max(np.abs(Jz - map_rep.degree * map_rep.eval_rows(Z))) <= 1e-12 * scale
    # a single point gives the same matrix as its row
    assert np.allclose(map_rep.jacobian_rows(Z[3]), J[3], rtol=0, atol=1e-14 * scale)


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
    Z = np.concatenate([sample_fs_rows(32, seed), [q.coords for q in ind]])
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
    assert np.array_equal(eval_rows_checked(map_rep, Z)[0], W)


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
