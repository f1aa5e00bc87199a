"""Complex projective space primitives.

Points of P^k are stored as canonicalized unit-norm homogeneous coordinate
vectors: Euclidean norm 1, and the first coordinate of modulus > 1e-9 is
rotated to be real and positive.  This makes tolerant equality a plain
distance comparison, with no projective-quotient bookkeeping.

Array-valued helpers (suffix ``_rows``) operate on ``(N, k+1)`` complex
arrays and are the workhorses for the Monte Carlo modules.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import errors
from .errors import AllZero, ChartSingular, DimensionMismatch, InvalidParam

PHASE_FLOOR = 1e-9
CHART_THRESHOLD = 1e-6


def canonicalize_rows(Z: np.ndarray) -> np.ndarray:
    """Unit-normalize each row and fix its global phase.

    A row whose norm is not finite or lies outside (1e-150, 1e150) is first
    scaled exactly by the power of two that brings its largest real or
    imaginary part into [0.5, 1), so that its norm neither underflows nor
    overflows; other rows are divided by their norm as they are.
    Rows must be nonzero; the caller is responsible for filtering.
    """
    Z = np.asarray(Z, dtype=complex)
    with np.errstate(over="ignore"):
        norms = np.linalg.norm(Z, axis=-1, keepdims=True)
    far = ~((norms > 1e-150) & (norms < 1e150))[..., 0]
    if far.any():
        parts = Z[far].view(float)
        Z = Z.copy()
        Z[far] = np.ldexp(parts, -np.frexp(np.abs(parts).max(axis=-1))[1][:, None]).view(complex)
        norms[far] = np.linalg.norm(Z[far], axis=-1, keepdims=True)
    return fix_phase_rows(Z / norms)


def fix_phase_rows(Z: np.ndarray) -> np.ndarray:
    """Make the first coordinate of modulus > PHASE_FLOOR real positive.

    The lead is coordinate 0 unless its modulus is at most PHASE_FLOOR;
    only those rows are searched for their first coordinate above it.
    """
    lv = Z[..., :1].copy()
    low = np.abs(lv[..., 0]) <= PHASE_FLOOR
    if low.any():
        rest = Z[low]
        lead = np.argmax(np.abs(rest) > PHASE_FLOOR, axis=-1)
        lv[low] = np.take_along_axis(rest, lead[:, None], axis=-1)
    return Z * np.conj(lv / np.abs(lv))


@dataclass(frozen=True, eq=False)
class ProjPoint:
    """A point of P^k as a canonical unit representative; ``coords`` is read-only."""

    coords: np.ndarray

    def __post_init__(self):
        self.coords.setflags(write=False)

    @property
    def k(self) -> int:
        return len(self.coords) - 1

    def __repr__(self):
        inner = " : ".join(f"{z:.6g}" for z in self.coords)
        return f"[{inner}]"


def normalize(raw) -> ProjPoint:
    """Canonical unit representative of a finite, nonzero homogeneous tuple,
    at any scale of the float range: a one-row call of ``canonicalize_rows``."""
    arr = np.asarray(raw, dtype=object)  # a ragged tuple is flat, of lists
    if arr.ndim != 1 or len(arr) < 2:
        raise InvalidParam(f"need a flat tuple of at least two homogeneous coordinates, not shape {arr.shape}")
    arr = np.array([errors.number(z, "homogeneous coordinates must be numbers, and each", complex) for z in arr])
    if not arr.any():
        raise AllZero("all homogeneous coordinates are zero")
    return ProjPoint(canonicalize_rows(arr[None, :])[0])


def fs_distance(p: ProjPoint, q: ProjPoint) -> float:
    """Chordal Fubini-Study distance sqrt(1 - |<p,q>|^2), in [0, 1].

    Evaluated as the norm of q's component orthogonal to p, which is the
    same quantity without cancellation near zero.
    """
    return float(fs_distance_rows(p.coords[None, :], q.coords[None, :])[0])


def fs_distance_rows(P: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """Row-wise chordal distance between two stacks of unit rows."""
    inner = np.sum(Q * np.conj(P), axis=-1)
    perp = Q - inner[..., None] * P
    return np.clip(np.linalg.norm(perp, axis=-1), 0.0, 1.0)


def sample_fs_rows(count: int, seed: int) -> np.ndarray:
    """``(count, 3)`` canonical rows of P^2 i.i.d. per the FS volume.

    Uniform on the unit sphere of C^3 modulo phase; deterministic for a
    fixed seed, which must be >= 0.
    """
    rng = np.random.default_rng(errors.count(seed, "seed"))
    shape = (errors.count(count, "count"), 3)
    return canonicalize_rows(rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


def sample_fs(count: int, seed: int) -> list:
    """FS-volume samples as ProjPoint objects."""
    rows = sample_fs_rows(count, seed)
    return [ProjPoint(row) for row in rows]


def to_chart(p: ProjPoint, chart: int) -> tuple:
    """Affine coordinates coords[j]/coords[chart], j != chart, in order."""
    coords = p.coords
    if not 0 <= chart <= p.k:
        raise ChartSingular(f"chart index {chart} out of range")
    pivot = coords[chart]
    if abs(pivot) < CHART_THRESHOLD:
        raise ChartSingular(f"|coords[{chart}]| = {abs(pivot):.3e} below chart threshold")
    return tuple(complex(coords[j] / pivot) for j in range(len(coords)) if j != chart)


def chart_disc(seed, count: int, radius: float) -> np.ndarray:
    """``(count, 2)`` affine values of a chart of P^2, each uniform on ``|v| <= radius``, seeded."""
    rng = np.random.default_rng(seed)
    return radius * np.sqrt(rng.uniform(size=(count, 2))) * np.exp(
        2j * np.pi * rng.uniform(size=(count, 2))
    )


def from_chart_rows(values: np.ndarray, chart: int) -> np.ndarray:
    """Canonical rows of the affine ``(N, k)`` ``values`` in ``chart``; inverts ``to_chart``."""
    values = np.asarray(values, dtype=complex)
    rows = np.empty(values.shape[:-1] + (values.shape[-1] + 1,), dtype=complex)
    rows[..., :chart] = values[..., :chart]
    rows[..., chart] = 1.0
    rows[..., chart + 1 :] = values[..., chart:]
    return canonicalize_rows(rows)


def cross_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Bilinear cross product along axis 1 of ``(N, 3, ...)`` arrays, returned component-major."""
    shape = np.broadcast_shapes(a.shape, b.shape)
    out = np.moveaxis(np.empty(shape[1:] + shape[:1], dtype=complex), -1, 0)
    for i in range(3):
        np.subtract(a[:, i - 2] * b[:, i - 1], a[:, i - 1] * b[:, i - 2], out=out[:, i])
    return out


def tangent_frames(Z: np.ndarray) -> np.ndarray:
    """Deterministic orthonormal frames of the orthogonal complements.

    For unit rows ``Z`` of shape ``(N, 3)``, returns ``(N, 3, 2)`` whose
    columns span ``z^perp`` (Hermitian-orthonormal).  Only implemented for
    k = 2, which is all the form machinery needs.
    """
    Z = np.asarray(Z)
    if Z.ndim != 2 or Z.shape[1] != 3:
        raise DimensionMismatch("tangent frames implemented for k = 2 only")
    rows = np.arange(len(Z))
    idx = np.argmin(np.abs(Z), axis=1)
    b1 = -np.conj(Z[rows, idx])[:, None] * Z  # e_k - conj(z_k) z for the least |z_k|
    b1[rows, idx] += 1.0
    b1 = b1 / np.linalg.norm(b1, axis=1, keepdims=True)
    # conj of the bilinear cross product is Hermitian-orthogonal to both
    # Z and b1, and unit by the Binet-Cauchy identity.
    b2 = np.conj(cross_rows(Z, b1))
    return np.stack([b1, b2], axis=2)
