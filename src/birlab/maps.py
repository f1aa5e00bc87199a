"""Homogeneous polynomial maps, FS differentials, and map families.

Every pair is a birational map f of P^2, so k = 2 and s = 1: the degree
relation d^s = delta^(k-s) between the degrees d of f and delta of f^-1
reads d = delta.  A ``BirationalPair`` holds only what varies between
pairs: the two maps, their indeterminacy sets as read-only ``(S, 3)``
canonical rows, whether the pair is regular, and free-form metadata.

Iteration is always pointwise (the map applied n times); compositions are
never expanded symbolically, so degrees stay at d per step.

Every orbit, here and in ``potential`` and ``genericity``, advances by one
checked step, ``step_rows``: one evaluation of F, one norm, dead rows
(``||F|| < EPS_IND``, numerically on I(f)) returned unchanged.

Every polynomial, a component of F or an entry dF_i/dz_j of the
homogeneous Jacobian J(z), is evaluated by one term loop, ``_add_terms``,
elementwise over the rows, so a row rounds the same in any batch.
A pullback chain takes one Hermitian-orthonormal frame X of the tangent
space z^perp at the start point and pushes it along the orbit,
``X <- P_w J(z) X / ||F(z)||`` with ``w = F/||F||`` and ``P_w = I - w w^dag``
the projection onto w^perp.  After m steps ``H = X^dag X`` is the pullback
of the FS form, written in the start frame.  This is the product of the
per-step differentials between orthonormal frames, since ``B B^dag = P_w``
for any such frame B of w^perp, but no frame is built after the first.

The projection stays at every step.  Euler's identity ``J z = d F(z)``
means the radial part of X would cancel at the end in exact arithmetic,
but left in, it grows like d^m and swamps densities that reach 1e-187 on
deep chains.  The projection is taken as the double cross product
``conj(w) x (Y x w) = |w|^2 Y - w (w^dag Y)``, which never forms
``1 - |w_i|^2`` by cancellation: where the map contracts hard, J X is
nearly radial, and the expanded ``Y - w (w^dag Y)`` would leave only
rounding in X.  All form densities are ratios against omega^2 and
therefore independent of the overall metric normalization.

Every loop over independent tasks runs through ``for_each``: the tasks are
taken in turn by the calling thread and one helper thread per further
CPU, with no setting.  A batch of independent rows (the pullback chain
here, the mixing estimators' orbits and the norm grid of ``observables``)
is walked by ``for_each_slice`` in the fixed ``CHAIN_CHUNK``-row slices of
``row_slices``; the mixing estimators' bootstrap cells are tasks too.  Each
task writes only its own outputs, so outputs are bit-identical for any CPU
count, and memory is the outputs plus one task's working set per CPU.
"""

from __future__ import annotations

import os
from concurrent import futures
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import IndeterminacyProximity, InvalidParam, count, number
from .projective import ProjPoint, canonicalize_rows, cross_rows, fix_phase_rows, tangent_frames

EPS_IND = 1e-10
# Rows per slice of ``pullback_chain``, of the mixing estimators' orbits and of the norm grid
CHAIN_CHUNK = 8192
# CPUs this process may run on: ``for_each`` runs tasks on this many threads
_CPUS = len(os.sched_getaffinity(0))
# helper-thread pools of ``for_each`` by size, each built on first use
_POOLS = {}


@dataclass(frozen=True)
class HomogeneousPolynomial:
    """Homogeneous polynomial as a table multi-index -> coefficient."""

    degree: int
    terms: tuple  # ((exponents, coefficient), ...)

    @classmethod
    def from_dict(cls, degree: int, coeffs: dict) -> "HomogeneousPolynomial":
        terms = []
        for exps, c in sorted(coeffs.items()):
            exps = tuple(count(e, f"an exponent of multi-index {exps}") for e in exps)
            if sum(exps) != degree:
                raise InvalidParam(f"multi-index {exps} does not sum to degree {degree}")
            c = number(c, f"the coefficient of {exps}", complex)
            if c != 0:
                terms.append((exps, c))
        if not terms:
            raise InvalidParam("polynomial has no nonzero coefficient")
        return cls(degree=degree, terms=tuple(terms))

    def __call__(self, Z: np.ndarray) -> np.ndarray:
        return _add_terms(self, np.asarray(Z), np.zeros(np.shape(Z)[:-1], dtype=complex))

    def partial(self, var: int) -> "HomogeneousPolynomial":
        """Formal partial derivative (may be the zero polynomial)."""
        terms = []
        for exps, c in self.terms:
            if exps[var] > 0:
                new = list(exps)
                new[var] -= 1
                terms.append((tuple(new), c * exps[var]))
        return HomogeneousPolynomial(degree=max(self.degree - 1, 0), terms=tuple(terms))


def _add_terms(poly: HomogeneousPolynomial, Z: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Add ``poly`` at the rows of ``Z`` into ``out``, one term ``c * z^e`` at a time
    in term order; returns ``out``.  Every polynomial is evaluated here."""
    for exps, c in poly.terms:
        t = np.asarray(c)
        for j, e in enumerate(exps):
            if e == 1:
                t = t * Z[..., j]
            elif e > 1:
                # the power's temporary on the left keeps one operand order at
                # any batch size; numpy's complex product is not commutative
                t = Z[..., j] ** e * t
        out += t
    return out


def _component_major(A: np.ndarray) -> np.ndarray:
    """``A`` with its first axis innermost in memory; no copy if it already is.

    Each ``A[:, i, ...]`` is then contiguous, the layout on which numpy's
    batched products of small matrices run several times faster.
    """
    return np.moveaxis(np.ascontiguousarray(np.moveaxis(A, 0, -1)), -1, 0)


@dataclass(frozen=True)
class RationalMapRep:
    """A rational map of P^k as k+1 homogeneous components of equal degree."""

    components: tuple

    def __post_init__(self):
        if not self.components:
            raise InvalidParam("a map needs at least one component")
        for comp in self.components:
            if comp.degree != self.degree:
                raise InvalidParam("component degrees differ")
            if any(len(exps) != self.nvars for exps, _ in comp.terms):
                raise InvalidParam(f"a multi-index of a component does not have {self.nvars} entries")

    @property
    def nvars(self) -> int:
        return len(self.components)

    @property
    def degree(self) -> int:
        """The components' common degree, checked equal when the map is built."""
        return self.components[0].degree

    @cached_property
    def _partials(self) -> tuple:
        """``_partials[i][j]`` is the formal partial dF_i/dz_j."""
        return tuple(tuple(comp.partial(j) for j in range(self.nvars)) for comp in self.components)

    def eval_rows(self, Z: np.ndarray) -> np.ndarray:
        """Components at each row, shape ``(..., k+1)``, component-major."""
        Z = np.asarray(Z)
        F = np.zeros((self.nvars,) + Z.shape[:-1], dtype=complex)
        for i, comp in enumerate(self.components):
            # F[i, ...] is a view even for one row, where F[i] would be a copy
            _add_terms(comp, Z, F[i, ...])
        return np.moveaxis(F, 0, -1)

    def jacobian_rows(self, Z: np.ndarray) -> np.ndarray:
        """Homogeneous Jacobian, shape ``(..., k+1, k+1)``, component-major.

        Entry (i, j) is dF_i/dz_j, evaluated by ``_add_terms`` as F is.
        """
        Z = np.asarray(Z)
        J = np.zeros((self.nvars, self.nvars) + Z.shape[:-1], dtype=complex)
        for i, row in enumerate(self._partials):
            for j, partial in enumerate(row):
                _add_terms(partial, Z, J[i, j, ...])
        return np.moveaxis(J, (0, 1), (-2, -1))


@dataclass(frozen=True)
class BirationalPair:
    """Forward/backward map pair of P^2; ``ind_fwd`` and ``ind_bwd`` are the
    indeterminacy sets I(f) and I(f^-1) as read-only ``(S, 3)`` canonical rows."""

    fwd: RationalMapRep
    bwd: RationalMapRep
    ind_fwd: np.ndarray = field(compare=False)
    ind_bwd: np.ndarray = field(compare=False)
    regular: bool
    meta: dict = field(default_factory=dict, compare=False)

    def __post_init__(self):
        if self.d < 2:
            raise InvalidParam("algebraic degree must be >= 2")
        if self.d != self.delta:
            raise InvalidParam(f"degree relation d = delta violated: d = {self.d}, delta = {self.delta}")
        self.ind_fwd.setflags(write=False)
        self.ind_bwd.setflags(write=False)

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


def row_slices(count: int) -> list:
    """The fixed slices of ``CHAIN_CHUNK`` rows in which a batch of ``count``
    independent rows is walked, whose intermediates then stay in cache."""
    return [slice(start, min(start + CHAIN_CHUNK, count)) for start in range(0, count, CHAIN_CHUNK)]


def for_each(fn, tasks) -> list:
    """``[fn(task) for task in tasks]``, with the tasks taken in turn by the
    calling thread and one helper thread per further CPU.

    ``fn`` must touch only its own part of any shared output, so every
    result is the same for any CPU count; with one CPU, or one task, this
    is the plain loop.  The caller drains the tasks too, then cancels each
    helper that has not started: a call from inside ``fn`` therefore never
    waits on a helper queued behind its own.  An exception raised in any
    task re-raises here, and no helper is still running ``fn`` when this
    returns or raises.
    """
    tasks = list(tasks)
    helpers = min(_CPUS, len(tasks)) - 1
    if helpers <= 0:
        return [fn(task) for task in tasks]
    if helpers not in _POOLS:
        _POOLS[helpers] = futures.ThreadPoolExecutor(helpers, thread_name_prefix="birlab-tasks")
    results = [None] * len(tasks)
    # next() on a built-in iterator is one call under the interpreter lock,
    # so each task is handed to exactly one thread
    todo = iter(enumerate(tasks))

    def drain():
        try:
            for i, task in todo:
                results[i] = fn(task)
        except BaseException:
            for _ in todo:  # hand out no further task
                pass
            raise

    drains = [_POOLS[helpers].submit(drain) for _ in range(helpers)]
    try:
        drain()
    finally:
        started = [d for d in drains if not d.cancel()]
        futures.wait(started)
    for d in started:
        d.result()
    return results


def for_each_slice(fn, count: int) -> list:
    """``[fn(rows) for rows in row_slices(count)]``, through ``for_each``."""
    return for_each(fn, row_slices(count))


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
    """Image of p, or IndeterminacyProximity if numerically on I(f): a one-row
    call of ``step_rows``, so the image has the bits of p's row in any batch."""
    W, _, alive = step_rows(map_rep, p.coords[None, :])
    if not alive[0]:
        raise IndeterminacyProximity(f"point {p} is numerically indeterminate", step=0)
    return ProjPoint(fix_phase_rows(W)[0])


def iterate(pair: BirationalPair, p: ProjPoint, n: int, direction: str = "fwd") -> list:
    """Orbit [p, f(p), ..., f^n(p)]; raises with the failing step index."""
    map_rep = pair.map_for(direction)
    orbit = [p]
    for step in range(count(n, "orbit length")):
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
    ``row_slices``, whose intermediates stay in cache, one per CPU at a
    time (``for_each_slice``), and writes each slice into the outputs:
    memory is the outputs (65 B/row) plus one slice's working set per CPU.
    """
    map_rep = pair.map_for(direction)
    Z0 = np.asarray(Z0, dtype=complex)
    H = np.empty((len(Z0), 2, 2), dtype=complex)
    alive = np.ones(len(Z0), dtype=bool)

    def chain(rows):
        Z = Z0[rows]
        X = tangent_frames(Z)
        for _ in range(m):
            Z, X, ok = differential_rows(map_rep, Z, X)
            alive[rows] &= ok
        H[rows] = _gram(X)

    for_each_slice(chain, len(Z0))
    return H, alive


def _gram(X: np.ndarray) -> np.ndarray:
    """``X^dag X`` for each row's frame ``X``, shape ``(N, r, r)``."""
    return np.einsum("nca,ncb->nab", np.conj(X), X)


def fs_pullback_form(map_rep: RationalMapRep, p: ProjPoint) -> np.ndarray:
    """f^* omega at p as a PSD Hermitian 2x2 matrix in the frame ``tangent_frames``
    gives p: p's row of ``pullback_chain`` at m = 1, bit for bit, in any batch."""
    Z = p.coords[None, :]
    _, X, alive = differential_rows(map_rep, Z, tangent_frames(Z))
    if not alive[0]:
        raise IndeterminacyProximity(f"point {p} is numerically indeterminate", step=0)
    return _gram(X)[0]


def pullback_density(map_rep: RationalMapRep, p: ProjPoint) -> float:
    """Density of f^* omega wedge omega against omega^2: tr/2 of ``fs_pullback_form``."""
    return float(np.real(np.trace(fs_pullback_form(map_rep, p))) / 2)


def wedge_density_rows(Ha: np.ndarray, Hb: np.ndarray) -> np.ndarray:
    """Pointwise density of alpha wedge beta / omega^2 for 2x2 forms."""
    val = (
        Ha[..., 0, 0] * Hb[..., 1, 1]
        + Ha[..., 1, 1] * Hb[..., 0, 0]
        - Ha[..., 0, 1] * Hb[..., 1, 0]
        - Ha[..., 1, 0] * Hb[..., 0, 1]
    ) / 2.0
    return np.real(val)


def make_henon(a: complex, p_coeffs) -> BirationalPair:
    """Henon pair (x, y) -> (y, p(y) - a x) with deg p >= 2.

    ``p_coeffs`` lists the coefficients of p from constant to leading.
    """
    a = number(a, "Henon parameter a", complex)
    if a == 0:
        raise InvalidParam("Henon parameter a must be nonzero")
    p_coeffs = [number(c, "a coefficient of p", complex) for c in p_coeffs]
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
    fwd = RationalMapRep(components=(f0, f1, f2))

    # backward ((p(x) - y)/a, x), denominators cleared:
    # [P(X,Z) - Y Z^{deg-1} : a X Z^{deg-1} : a Z^deg]
    g0_table = homog_p(0)
    g0_table[(0, 1, deg - 1)] = g0_table.get((0, 1, deg - 1), 0) - 1.0
    g0 = HomogeneousPolynomial.from_dict(deg, g0_table)
    g1 = HomogeneousPolynomial.from_dict(deg, {(1, 0, deg - 1): a})
    g2 = HomogeneousPolynomial.from_dict(deg, {(0, 0, deg): a})
    bwd = RationalMapRep(components=(g0, g1, g2))

    return BirationalPair(
        fwd=fwd,
        bwd=bwd,
        ind_fwd=canonicalize_rows([[1, 0, 0]]),
        ind_bwd=canonicalize_rows([[0, 1, 0]]),
        regular=True,
        meta={"family": "henon", "a": a, "p_coeffs": tuple(p_coeffs)},
    )


def make_cremona_composed(A: np.ndarray) -> BirationalPair:
    """Pair f = J o A with J[x:y:z] = [yz:xz:xy] and A in GL(3, C)."""
    A = np.asarray(A, dtype=object)
    if A.shape != (3, 3):
        raise InvalidParam("A must be a 3x3 matrix")
    A = np.array([number(v, "an entry of A", complex) for v in A.flat]).reshape(3, 3)
    # scale-free, as cA is the same map as A for any c != 0; the Frobenius
    # condition number needs only an inverse, and is not finite for a singular A
    if not np.linalg.cond(A, "fro") <= 1e12:
        raise InvalidParam("A is numerically singular")
    # cA is the same map, so A is scaled by the power of two, exact on every entry,
    # that brings its largest modulus into (0.5, 1]: EPS_IND bounds ||F|| absolutely
    frac, exp = np.frexp(np.abs(A).max())
    A = np.ldexp(np.ascontiguousarray(A).view(float), int(frac == 0.5) - exp).view(complex)
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

    fwd = RationalMapRep(components=(product_form(A[1], A[2]), product_form(A[0], A[2]), product_form(A[0], A[1])))

    # bwd components: A_inv applied to (yz, xz, xy)
    j_monomials = [(0, 1, 1), (1, 0, 1), (1, 1, 0)]
    bwd_comps = []
    for i in range(3):
        table = {}
        for jm, c in zip(j_monomials, A_inv[i]):
            if c != 0:
                table[jm] = table.get(jm, 0) + c
        bwd_comps.append(HomogeneousPolynomial.from_dict(2, table))
    bwd = RationalMapRep(components=tuple(bwd_comps))

    return BirationalPair(
        fwd=fwd,
        bwd=bwd,
        # I(f) = A^-1 I(J), the columns of A^-1; copied to C order, as A_inv.T is a Fortran view
        ind_fwd=canonicalize_rows(np.ascontiguousarray(A_inv.T)),
        ind_bwd=canonicalize_rows(np.eye(3)),
        regular=False,
        meta={"family": "cremona_composed"},
    )


def random_unitary(seed: int, n: int = 3) -> np.ndarray:
    """Haar-distributed unitary via QR of a complex Gaussian matrix."""
    rng = np.random.default_rng(count(seed, "seed"))
    G = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    Q, R = np.linalg.qr(G)
    return Q * (np.diag(R) / np.abs(np.diag(R)))
