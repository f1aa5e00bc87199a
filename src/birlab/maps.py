"""Homogeneous polynomial maps, FS differentials, and map families.

Iteration is always pointwise (the map applied n times); compositions are
never expanded symbolically, so degrees stay at d per step.

Every orbit, here and in ``potential`` and ``genericity``, advances by one
checked step, ``step_rows``: one evaluation of F, one norm, dead rows
(``||F|| < EPS_IND``, numerically on I(f)) returned unchanged.

Differentials of the induced map on P^2 come from the homogeneous
Jacobian J(z), compiled once per map into a coefficient matrix over the
degree-(d-1) monomials.  A pullback chain takes one Hermitian-orthonormal
frame X of the tangent space z^perp at the start point and pushes it
along the orbit, ``X <- P_w J(z) X / ||F(z)||`` with ``w = F/||F||`` and
``P_w = I - w w^dag`` the projection onto w^perp.  After m steps
``H = X^dag X`` is the pullback of the FS form, written in the start
frame.  This is the product of the per-step differentials between
orthonormal frames, since ``B B^dag = P_w`` for any such frame B of
w^perp, but no frame is built after the first.

The projection stays at every step.  Euler's identity ``J z = d F(z)``
means the radial part of X would cancel at the end in exact arithmetic,
but left in, it grows like d^m and swamps densities that reach 1e-187 on
deep chains.  The projection is taken as the double cross product
``conj(w) x (Y x w) = |w|^2 Y - w (w^dag Y)``, which never forms
``1 - |w_i|^2`` by cancellation: where the map contracts hard, J X is
nearly radial, and the expanded ``Y - w (w^dag Y)`` would leave only
rounding in X.  All form densities are ratios against omega^k and
therefore independent of the overall metric normalization.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, IndeterminacyProximity, InvalidParam
from .projective import ProjPoint, canonicalize_rows, cross_rows, fix_phase_rows, normalize, tangent_frames

EPS_IND = 1e-10
# Rows per slice of ``pullback_chain`` and of the mixing estimators' orbits;
# a power of two, so the Jacobian matmul blocks each slice's rows as it does the whole batch's.
CHAIN_CHUNK = 16384


@dataclass(frozen=True)
class HomogeneousPolynomial:
    """Homogeneous polynomial as a table multi-index -> coefficient."""

    degree: int
    terms: tuple  # ((exponents, coefficient), ...)

    @classmethod
    def from_dict(cls, degree: int, coeffs: dict) -> "HomogeneousPolynomial":
        terms = []
        for exps, c in sorted(coeffs.items()):
            if sum(exps) != degree:
                raise InvalidParam(f"multi-index {exps} does not sum to degree {degree}")
            if c != 0:
                terms.append((tuple(exps), complex(c)))
        if not terms:
            raise InvalidParam("polynomial has no nonzero coefficient")
        return cls(degree=degree, terms=tuple(terms))

    def __call__(self, Z: np.ndarray) -> np.ndarray:
        Z = np.asarray(Z)
        out = np.zeros(Z.shape[:-1], dtype=complex)
        for exps, c in self.terms:
            t = np.full(Z.shape[:-1], c, dtype=complex)
            for j, e in enumerate(exps):
                if e == 1:
                    t = t * Z[..., j]
                elif e > 1:
                    # the power's temporary on the left keeps one operand order at
                    # any batch size; numpy's complex product is not commutative
                    t = Z[..., j] ** e * t
            out += t
        return out

    def partial(self, var: int) -> "HomogeneousPolynomial":
        """Formal partial derivative (may be the zero polynomial)."""
        terms = []
        for exps, c in self.terms:
            if exps[var] > 0:
                new = list(exps)
                new[var] -= 1
                terms.append((tuple(new), c * exps[var]))
        return HomogeneousPolynomial(degree=max(self.degree - 1, 0), terms=tuple(terms))


def _monomial_exponents(nvars: int, degree: int) -> tuple:
    """Exponent tuples of the degree-``degree`` monomials in ``nvars`` variables.

    Listed in ``itertools.combinations_with_replacement`` order, which is
    the order in which ``_monomials`` builds them.
    """
    return tuple(
        tuple(combo.count(v) for v in range(nvars))
        for combo in itertools.combinations_with_replacement(range(nvars), degree)
    )


def _monomials(Z: np.ndarray, degree: int) -> np.ndarray:
    """Degree-``degree`` monomials of the rows ``Z``, shape ``(count, ...)``."""
    if degree == 0:
        return np.ones((1,) + Z.shape[:-1], dtype=complex)
    # each monomial extended only by variables >= its last one: every
    # monomial appears once, in combinations_with_replacement order
    cols = [(Z[..., v], v) for v in range(Z.shape[-1])]
    for _ in range(degree - 1):
        cols = [(col * Z[..., v], v) for col, last in cols for v in range(last, Z.shape[-1])]
    return np.stack([col for col, _ in cols])


def _component_major(A: np.ndarray) -> np.ndarray:
    """``A`` with its first axis innermost in memory; no copy if it already is.

    Each ``A[:, i, ...]`` is then contiguous, the layout on which numpy's
    batched products of small matrices run several times faster.
    """
    return np.moveaxis(np.ascontiguousarray(np.moveaxis(A, 0, -1)), -1, 0)


@dataclass(frozen=True)
class RationalMapRep:
    """A rational map of P^k as k+1 homogeneous components of equal degree.

    ``_jacobian`` holds the formal partials as a coefficient matrix: row r
    belongs to the r-th degree-(d-1) monomial, column ``i*(k+1) + j`` to
    dF_i/dz_j.
    """

    components: tuple
    degree: int
    _jacobian: np.ndarray = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        for comp in self.components:
            if comp.degree != self.degree:
                raise InvalidParam("component degrees differ")
        n = self.nvars
        row = {exps: r for r, exps in enumerate(_monomial_exponents(n, self._jacobian_degree))}
        coeffs = np.zeros((len(row), n * n), dtype=complex)
        for i, comp in enumerate(self.components):
            for j in range(n):
                for exps, c in comp.partial(j).terms:
                    coeffs[row[exps], i * n + j] += c
        coeffs.setflags(write=False)
        object.__setattr__(self, "_jacobian", coeffs)

    @property
    def _jacobian_degree(self) -> int:
        return max(self.degree - 1, 0)

    @property
    def nvars(self) -> int:
        return len(self.components)

    def eval_rows(self, Z: np.ndarray) -> np.ndarray:
        """Components at each row, shape ``(..., k+1)``, component-major."""
        return np.moveaxis(np.stack([comp(Z) for comp in self.components]), 0, -1)

    def jacobian_rows(self, Z: np.ndarray) -> np.ndarray:
        """Homogeneous Jacobian, shape ``(..., k+1, k+1)``, component-major."""
        Z = np.asarray(Z)
        n = self.nvars
        M = _monomials(Z, self._jacobian_degree)
        J = (self._jacobian.T @ M.reshape(len(M), -1)).reshape((n, n) + Z.shape[:-1])
        return np.moveaxis(J, (0, 1), (-2, -1))


def identity_map() -> RationalMapRep:
    return linear_map(np.eye(3))


def linear_map(A: np.ndarray) -> RationalMapRep:
    A = np.asarray(A, dtype=complex)
    n = A.shape[0]
    comps = []
    for i in range(n):
        coeffs = {}
        for j in range(n):
            if A[i, j] != 0:
                exps = tuple(1 if v == j else 0 for v in range(n))
                coeffs[exps] = A[i, j]
        comps.append(HomogeneousPolynomial.from_dict(1, coeffs))
    return RationalMapRep(components=tuple(comps), degree=1)


@dataclass(frozen=True)
class BirationalPair:
    """Forward/backward map pair with indeterminacy data."""

    fwd: RationalMapRep
    bwd: RationalMapRep
    k: int
    s: int
    ind_fwd: tuple
    ind_bwd: tuple
    regular: bool
    meta: dict = field(default_factory=dict, compare=False)

    def __post_init__(self):
        if self.d < 2:
            raise InvalidParam("algebraic degree must be >= 2")
        if self.d**self.s != self.delta ** (self.k - self.s):
            raise InvalidParam("degree relation d^s = delta^(k-s) violated")

    @property
    def d(self) -> int:
        return self.fwd.degree

    @property
    def delta(self) -> int:
        return self.bwd.degree

    def map_for(self, direction: str) -> RationalMapRep:
        if direction == "fwd":
            return self.fwd
        if direction == "bwd":
            return self.bwd
        raise InvalidParam(f"unknown direction {direction!r}")

    def degree_sequence(self) -> list:
        """d_q for q = 0..k: d^q for q <= s, delta^(k-q) for q >= s."""
        return [self.d**q if q <= self.s else self.delta ** (self.k - q) for q in range(self.k + 1)]


def row_slices(count: int) -> list:
    """The fixed slices of ``CHAIN_CHUNK`` rows in which a batch of ``count``
    independent rows is walked, whose intermediates then stay in cache."""
    return [slice(start, min(start + CHAIN_CHUNK, count)) for start in range(0, count, CHAIN_CHUNK)]


def step_rows(map_rep: RationalMapRep, Z: np.ndarray):
    """The checked map step on unit rows; returns ``(W, ||F||, alive)``.

    Live rows (``||F(z)|| >= EPS_IND``) map to ``W = F(z)/||F(z)||`` in the
    component-major layout of ``eval_rows``.  Dead rows come back equal to
    their input, so that downstream array code stays finite and a dead row
    evaluates to the same dead value again.
    """
    F = map_rep.eval_rows(Z)
    nrm = np.linalg.norm(F, axis=-1)
    alive = nrm >= EPS_IND
    W = F / np.where(alive, nrm, 1.0)[..., None]
    if not alive.all():
        W = np.where(alive[..., None], W, Z)
    return W, nrm, alive


def eval_point(map_rep: RationalMapRep, p: ProjPoint) -> ProjPoint:
    """Image of p, or IndeterminacyProximity if numerically on I(f)."""
    W, _, alive = step_rows(map_rep, p.coords)
    if not alive:
        raise IndeterminacyProximity(f"point {p} is numerically indeterminate", step=0)
    return ProjPoint(fix_phase_rows(W))


def iterate(pair: BirationalPair, p: ProjPoint, n: int, direction: str = "fwd") -> list:
    """Orbit [p, f(p), ..., f^n(p)]; raises with the failing step index."""
    if n < 0:
        raise InvalidParam("orbit length must be >= 0")
    map_rep = pair.map_for(direction)
    orbit = [p]
    for step in range(n):
        try:
            p = eval_point(map_rep, p)
        except IndeterminacyProximity as exc:
            raise IndeterminacyProximity(
                f"orbit hit indeterminacy proximity at step {step}", step=step
            ) from exc
        orbit.append(p)
    return orbit


def differential_rows(map_rep: RationalMapRep, Z: np.ndarray, X: np.ndarray):
    """One step of tangent vectors pushed along unit rows by the FS differential.

    ``X`` has shape ``(N, 3, r)``: r tangent vectors at each row of ``Z``
    (k = 2), as vectors of z^perp.  Returns ``(W, X_next, alive)``: the
    unit images ``W = F(z)/||F(z)||`` and ``X_next = P_w J(z) X / ||F(z)||``,
    the images of the vectors in w^perp, with ``P_w = I - w w^dag``.
    Applied to an orthonormal frame B of z^perp this is ``B_out D`` for
    the differential D = B_out^dag J B / ||F|| between orthonormal frames,
    whatever the frame B_out of w^perp.  Rows dead under ``step_rows`` keep
    their ``Z`` and ``X``.  ``W`` and ``X_next`` come back component-major,
    so a chain of steps copies its input once.
    """
    Z, X = _component_major(Z), _component_major(X)
    W, nrm, alive = step_rows(map_rep, Z)
    Y = np.einsum("nij,nja->nia", map_rep.jacobian_rows(Z), X)
    Y /= np.where(alive, nrm, 1.0)[:, None, None]
    # P_w Y, stably (see the module docstring)
    w = W[:, :, None]
    X_next = cross_rows(np.conj(w), cross_rows(Y, w))
    if not alive.all():
        X_next = np.where(alive[:, None, None], X_next, X)
    return W, X_next, alive


def pullback_chain(pair: BirationalPair, Z0: np.ndarray, m: int, direction: str = "fwd"):
    """FS pullback form of f^m along orbits, by pushing one tangent frame.

    Starts from the frame ``X = tangent_frames(Z0)`` and applies
    ``differential_rows`` m times, projecting onto the tangent space at
    every step (see the module docstring for why).  Returns
    ``(H, alive)`` with ``H = X^dag X`` of shape ``(N, 2, 2)``,
    the pullback of omega written in the start frame; it equals
    ``D^dag D`` for the product D of the per-step differentials between
    orthonormal frames.  Rows whose orbit hits indeterminacy proximity
    are frozen at that step and flagged dead.

    Every row is independent, so the chain runs on the slices of
    ``row_slices``, whose intermediates stay in cache, and writes
    each slice into the outputs: memory is the outputs (65 B/row) plus
    one slice's working set.
    """
    if pair.k != 2:
        raise DimensionMismatch("pullback chains implemented for k = 2 only")
    map_rep = pair.map_for(direction)
    Z0 = np.asarray(Z0, dtype=complex)
    H = np.empty((len(Z0), 2, 2), dtype=complex)
    alive = np.ones(len(Z0), dtype=bool)
    for rows in row_slices(len(Z0)):
        Z = Z0[rows]
        X = tangent_frames(Z)
        for _ in range(m):
            Z, X, ok = differential_rows(map_rep, Z, X)
            alive[rows] &= ok
        H[rows] = _gram(X)
    return H, alive


def _gram(X: np.ndarray) -> np.ndarray:
    """``X^dag X`` for each row's frame ``X``, shape ``(N, r, r)``."""
    return np.einsum("nca,ncb->nab", np.conj(X), X)


def fs_pullback_form(map_rep: RationalMapRep, p: ProjPoint) -> np.ndarray:
    """f^* omega at p as a PSD Hermitian 2x2 matrix in the frame ``tangent_frames``
    gives p: a one-row ``pullback_chain`` at m = 1.  Inside a larger batch the row can
    differ in its last bits, as ``jacobian_rows`` (OpenBLAS) rounds by batch length."""
    Z = p.coords[None, :]
    _, X, alive = differential_rows(map_rep, Z, tangent_frames(Z))
    if not alive[0]:
        raise IndeterminacyProximity(f"point {p} is numerically indeterminate", step=0)
    return _gram(X)[0]


def pullback_density(map_rep: RationalMapRep, p: ProjPoint) -> float:
    """Density of f^* omega wedge omega^{k-1} against omega^k: tr/k, rounded as ``fs_pullback_form``."""
    return float(np.real(np.trace(fs_pullback_form(map_rep, p))) / p.k)


def wedge_density_rows(Ha: np.ndarray, Hb: np.ndarray) -> np.ndarray:
    """Pointwise density of alpha wedge beta / omega^2 for 2x2 forms."""
    val = (
        Ha[..., 0, 0] * Hb[..., 1, 1]
        + Ha[..., 1, 1] * Hb[..., 0, 0]
        - Ha[..., 0, 1] * Hb[..., 1, 0]
        - Ha[..., 1, 0] * Hb[..., 0, 1]
    ) / 2.0
    return np.real(val)


def wedge_density(A: np.ndarray, B: np.ndarray) -> float:
    """Wedge density of two 2x2 (1,1)-forms written in one frame at one point."""
    if np.shape(A) != (2, 2) or np.shape(B) != (2, 2):
        raise DimensionMismatch("wedge density defined for k = 2 only")
    return float(wedge_density_rows(A, B))


def make_henon(a: complex, p_coeffs) -> BirationalPair:
    """Henon pair (x, y) -> (y, p(y) - a x) with deg p >= 2.

    ``p_coeffs`` lists the coefficients of p from constant to leading.
    """
    a = complex(a)
    if a == 0:
        raise InvalidParam("Henon parameter a must be nonzero")
    p_coeffs = [complex(c) for c in p_coeffs]
    deg = len(p_coeffs) - 1
    if deg < 2 or p_coeffs[-1] == 0:
        raise InvalidParam("p must have exact degree >= 2")

    def homog_p(var: int) -> dict:
        # p(coords[var]/Z) * Z^deg as a table in (X, Y, Z)
        table = {}
        for i, c in enumerate(p_coeffs):
            if c == 0:
                continue
            exps = [0, 0, deg - i]
            exps[var] = i
            table[tuple(exps)] = table.get(tuple(exps), 0) + c
        return table

    # forward: [Y Z^{deg-1} : P(Y,Z) - a X Z^{deg-1} : Z^deg]
    f0 = HomogeneousPolynomial.from_dict(deg, {(0, 1, deg - 1): 1.0})
    f1_table = homog_p(1)
    f1_table[(1, 0, deg - 1)] = f1_table.get((1, 0, deg - 1), 0) - a
    f1 = HomogeneousPolynomial.from_dict(deg, f1_table)
    f2 = HomogeneousPolynomial.from_dict(deg, {(0, 0, deg): 1.0})
    fwd = RationalMapRep(components=(f0, f1, f2), degree=deg)

    # backward ((p(x) - y)/a, x), denominators cleared:
    # [P(X,Z) - Y Z^{deg-1} : a X Z^{deg-1} : a Z^deg]
    g0_table = homog_p(0)
    g0_table[(0, 1, deg - 1)] = g0_table.get((0, 1, deg - 1), 0) - 1.0
    g0 = HomogeneousPolynomial.from_dict(deg, g0_table)
    g1 = HomogeneousPolynomial.from_dict(deg, {(1, 0, deg - 1): a})
    g2 = HomogeneousPolynomial.from_dict(deg, {(0, 0, deg): a})
    bwd = RationalMapRep(components=(g0, g1, g2), degree=deg)

    return BirationalPair(
        fwd=fwd,
        bwd=bwd,
        k=2,
        s=1,
        ind_fwd=(normalize([1, 0, 0]),),
        ind_bwd=(normalize([0, 1, 0]),),
        regular=True,
        meta={"family": "henon", "a": a, "p_coeffs": tuple(p_coeffs)},
    )


def make_cremona_composed(A: np.ndarray) -> BirationalPair:
    """Pair f = J o A with J[x:y:z] = [yz:xz:xy] and A in GL(3, C)."""
    A = np.asarray(A, dtype=complex)
    if A.shape != (3, 3):
        raise InvalidParam("A must be a 3x3 matrix")
    if abs(np.linalg.det(A)) < 1e-12:
        raise InvalidParam("A is numerically singular")
    A_inv = np.linalg.inv(A)

    # fwd components: quadratic forms (Ax)_i (Ax)_j expanded monomially
    def product_form(r1: np.ndarray, r2: np.ndarray) -> HomogeneousPolynomial:
        table = {}
        for i in range(3):
            for j in range(3):
                c = r1[i] * r2[j]
                if c == 0:
                    continue
                exps = [0, 0, 0]
                exps[i] += 1
                exps[j] += 1
                key = tuple(exps)
                table[key] = table.get(key, 0) + c
        return HomogeneousPolynomial.from_dict(2, table)

    fwd = RationalMapRep(
        components=(
            product_form(A[1], A[2]),
            product_form(A[0], A[2]),
            product_form(A[0], A[1]),
        ),
        degree=2,
    )

    # bwd components: A_inv applied to (yz, xz, xy)
    j_monomials = [(0, 1, 1), (1, 0, 1), (1, 1, 0)]
    bwd_comps = []
    for i in range(3):
        table = {}
        for jm, c in zip(j_monomials, A_inv[i]):
            if c != 0:
                table[jm] = table.get(jm, 0) + c
        bwd_comps.append(HomogeneousPolynomial.from_dict(2, table))
    bwd = RationalMapRep(components=tuple(bwd_comps), degree=2)

    coord_points = tuple(normalize(e) for e in np.eye(3))
    ind_fwd = tuple(normalize(A_inv @ e) for e in np.eye(3))
    return BirationalPair(
        fwd=fwd,
        bwd=bwd,
        k=2,
        s=1,
        ind_fwd=ind_fwd,
        ind_bwd=coord_points,
        regular=False,
        meta={"family": "cremona_composed"},
    )


def random_unitary(seed: int, n: int = 3) -> np.ndarray:
    """Haar-distributed unitary via QR of a complex Gaussian matrix."""
    rng = np.random.default_rng(seed)
    G = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    Q, R = np.linalg.qr(G)
    return Q * (np.diag(R) / np.abs(np.diag(R)))


def roundtrip_residuals(pair: BirationalPair, count: int, seed: int) -> np.ndarray:
    """FS distances ||bwd(fwd(z)) - z|| on random points at least 1e-3 away from I(f)."""
    from .projective import fs_distance_rows, sample_fs_rows

    Z = sample_fs_rows(count, seed, pair.k)
    keep = np.ones(len(Z), dtype=bool)
    for q in pair.ind_fwd:
        keep &= fs_distance_rows(Z, np.broadcast_to(q.coords, Z.shape)) >= 1e-3
    Z = Z[keep]
    W, _, alive1 = step_rows(pair.fwd, Z)
    B, _, alive2 = step_rows(pair.bwd, W)
    B = canonicalize_rows(B)
    Zc = canonicalize_rows(Z)
    res = fs_distance_rows(B, Zc)
    return res[alive1 & alive2]
