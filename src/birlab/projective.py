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

from .errors import AllZero, ChartSingular

PHASE_FLOOR = 1e-9
CHART_THRESHOLD = 1e-6


def canonicalize_rows(Z: np.ndarray) -> np.ndarray:
    """Unit-normalize each row and fix its global phase.

    Rows must be nonzero; the caller is responsible for filtering.
    """
    Z = np.asarray(Z, dtype=complex)
    norms = np.linalg.norm(Z, axis=-1, keepdims=True)
    return fix_phase_rows(Z / norms)


def fix_phase_rows(Z: np.ndarray) -> np.ndarray:
    """Make the first coordinate of modulus > PHASE_FLOOR real positive."""
    lead = np.argmax(np.abs(Z) > PHASE_FLOOR, axis=-1)
    lv = np.take_along_axis(Z, lead[..., None], axis=-1)
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


@dataclass(frozen=True)
class ChartCoords:
    """Affine coordinates of a point in the chart ``coords[chart] != 0``."""

    chart_index: int
    values: tuple


def normalize(raw) -> ProjPoint:
    """Canonical unit representative of a raw homogeneous tuple."""
    arr = np.asarray(raw, dtype=complex)
    if arr.ndim != 1 or len(arr) < 2:
        raise AllZero("need at least two homogeneous coordinates")
    if np.max(np.abs(arr)) <= 1e-300:
        raise AllZero("all homogeneous coordinates are numerically zero")
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


def min_set_distance(ps, qs) -> float:
    """Minimum pairwise chordal distance between two finite point sets."""
    return min(fs_distance(p, q) for p in ps for q in qs)


def sample_fs_rows(count: int, seed: int, k: int = 2) -> np.ndarray:
    """``(count, k+1)`` canonical rows i.i.d. per the FS volume.

    Uniform on the unit sphere of C^{k+1} modulo phase; deterministic for
    a fixed seed.
    """
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal((count, k + 1)) + 1j * rng.standard_normal((count, k + 1))
    if count == 0:
        return raw
    return canonicalize_rows(raw)


def sample_fs(count: int, seed: int, k: int = 2) -> list:
    """FS-volume samples as ProjPoint objects."""
    rows = sample_fs_rows(count, seed, k)
    return [ProjPoint(row) for row in rows]


def to_chart(p: ProjPoint, chart: int) -> ChartCoords:
    """Affine coordinates coords[j]/coords[chart], j != chart, in order."""
    coords = p.coords
    if not 0 <= chart <= p.k:
        raise ChartSingular(f"chart index {chart} out of range")
    pivot = coords[chart]
    if abs(pivot) < CHART_THRESHOLD:
        raise ChartSingular(f"|coords[{chart}]| = {abs(pivot):.3e} below chart threshold")
    values = tuple(complex(coords[j] / pivot) for j in range(len(coords)) if j != chart)
    return ChartCoords(chart_index=chart, values=values)


def chart_disc(seed, count: int, radius: float, k: int = 2) -> np.ndarray:
    """``(count, k)`` affine values, each uniform on ``|v| <= radius``, seeded."""
    rng = np.random.default_rng(seed)
    return radius * np.sqrt(rng.uniform(size=(count, k))) * np.exp(
        2j * np.pi * rng.uniform(size=(count, k))
    )


def from_chart_rows(values: np.ndarray, chart: int) -> np.ndarray:
    """Canonical rows of the affine ``(N, k)`` ``values`` in ``chart``; inverts ``to_chart``."""
    return canonicalize_rows(np.insert(np.asarray(values, dtype=complex), chart, 1.0, axis=-1))


def tangent_frames(Z: np.ndarray) -> np.ndarray:
    """Deterministic orthonormal frames of the orthogonal complements.

    For unit rows ``Z`` of shape ``(N, 3)``, returns ``(N, 3, 2)`` whose
    columns span ``z^perp`` (Hermitian-orthonormal).  Only implemented for
    k = 2, which is all the form machinery needs.
    """
    Z = np.asarray(Z)
    N, m = Z.shape
    if m != 3:
        raise ValueError("tangent frames implemented for k = 2 only")
    idx = np.argmin(np.abs(Z), axis=1)
    a = np.zeros_like(Z)
    a[np.arange(N), idx] = 1.0
    inner = np.sum(a * np.conj(Z), axis=1)
    b1 = a - inner[:, None] * Z
    b1 = b1 / np.linalg.norm(b1, axis=1, keepdims=True)
    # conj of the bilinear cross product is Hermitian-orthogonal to both
    # Z and b1, and unit by the Binet-Cauchy identity.
    b2 = np.conj(np.cross(Z, b1))
    return np.stack([b1, b2], axis=2)
