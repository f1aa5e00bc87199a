"""Catalog of scalar test functions on P^2.

Each observable is a bounded function of the canonical unit homogeneous
representative, with the alpha of its C^alpha regularity, which its builder
states, and a norm, exact where the builder knows it and grid-estimated
otherwise.  Norms scale reported constants only and never enter fitted
rates; alpha sets the exponent of the proven rate.  The norm grid is walked
in the 8192-row slices of ``maps.for_each_slice``, one per CPU at a time,
and every estimate is the same to the bit for any CPU count.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, get_type_hints

import numpy as np

from .errors import InvalidParam, count, number
from .maps import for_each_slice
from .projective import chart_disc, from_chart_rows

NORM_GRID_SIDE = 256
NORM_GRID_RADIUS = 2.0
NORM_CHART = 2


@dataclass(frozen=True)
class Observable:
    """A named test function; ``fn`` maps unit rows ``(..., 3)`` to values ``(...)``."""

    name: str
    alpha: float  # C^alpha regularity, 0 < alpha <= 2
    norm_estimate: float
    fn: Callable = field(compare=False)

    @property
    def smoothness(self) -> str:
        """The label the data files print: "C2" or "Holder(alpha)"."""
        return "C2" if self.alpha == 2.0 else f"Holder({self.alpha})"


def _bump_profile(r2: np.ndarray) -> np.ndarray:
    out = np.zeros_like(r2)
    inside = r2 < 1.0
    with np.errstate(divide="ignore", over="ignore"):
        out[inside] = np.exp(1.0 - 1.0 / (1.0 - r2[inside]))
    return out


def _make_affine_bump(cx: complex = 0j, cy: complex = 0j, radius: float = 2.0, chart: int = 2):
    if radius <= 0:
        raise InvalidParam("bump radius must be positive")
    if not 0 <= chart <= 2:
        raise InvalidParam("chart index must lie in [0, 2]")
    others = [j for j in range(3) if j != chart]
    center = np.zeros(2, dtype=complex)
    center[:] = (cx, cy)

    def fn(Z):
        piv = Z[..., chart]
        num = np.abs(Z[..., others[0]] - center[0] * piv) ** 2
        num = num + np.abs(Z[..., others[1]] - center[1] * piv) ** 2
        den = radius**2 * np.abs(piv) ** 2
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            r2 = np.where(den > 0, num / np.where(den > 0, den, 1.0), np.inf)
        return _bump_profile(r2)

    return fn, 2.0, None


def _make_fs_coordinate(index: int = 0):
    if not 0 <= index <= 2:
        raise InvalidParam("coordinate index must lie in [0, 2]")

    def fn(Z):
        return np.abs(Z[..., index]) ** 2

    return fn, 2.0, None


def _make_holder_crease(alpha: float = 0.5, index: int = 0, level: float = 0.4):
    if not 0 < alpha <= 1:
        raise InvalidParam("Holder exponent must lie in (0, 1]")
    if not 0 <= index <= 2:
        raise InvalidParam("coordinate index must lie in [0, 2]")

    def fn(Z):
        return np.abs(np.abs(Z[..., index]) ** 2 - level) ** alpha

    return fn, alpha, None


def _make_constant(value: float = 1.0):
    def fn(Z):
        return np.full(Z.shape[:-1], value)

    return fn, 2.0, abs(value)


def estimate_norm(fn, alpha: float) -> float:
    """Grid estimate of the C^alpha norm by finite differences, on a seeded
    disc of chart NORM_CHART: the Holder norm for alpha <= 1, the C^2 norm
    otherwise.

    The grid is walked in the slices of ``for_each_slice``, one per CPU at
    a time; each difference keeps its maximum per slice, and the maximum of
    those is exactly its maximum over the whole grid, for any CPU count.
    An observable that is 0 at every grid point raises ``InvalidParam``:
    its norm would read 0.
    """
    aff = chart_disc([0x0B5, NORM_CHART], NORM_GRID_SIDE * NORM_GRID_SIDE, NORM_GRID_RADIUS)
    directions = [
        np.array([1.0, 0.0]),
        np.array([1j, 0.0]),
        np.array([0.0, 1.0]),
        np.array([0.0, 1j]),
    ]
    holder = alpha <= 1
    holder_steps = [2.0**-scale for scale in range(4, 11)]
    h1, h2 = 1e-3, 1e-2

    def at(grid):
        return fn(from_chart_rows(grid, NORM_CHART))

    def slice_peaks(grid):
        """Per-slice maxima: the sup, then each difference in the order combined below."""
        base = at(grid)
        yield np.max(np.abs(base))
        if holder:
            for h in holder_steps:
                for e in directions:
                    yield np.max(np.abs(at(grid + h * e) - base))
            return
        for e in directions:
            yield np.max(np.abs(at(grid + h1 * e) - at(grid - h1 * e)))
        for e in directions:
            yield np.max(np.abs(at(grid + h2 * e) - 2 * base + at(grid - h2 * e)))

    peaks = np.max(for_each_slice(lambda rows: list(slice_peaks(aff[rows])), len(aff)), axis=0)
    sup, *diffs = (float(peak) for peak in peaks)
    if sup == 0.0:
        raise InvalidParam("it is 0 at every point of the norm grid, so its norm would read 0")
    # each maximum of a group starts at 0.0, and a NaN difference is skipped
    if holder:
        steps = [h for h in holder_steps for _ in directions]
        return sup + max([0.0] + [diff / h**alpha for h, diff in zip(steps, diffs)])
    grad = max([0.0] + [diff / (2 * h1) for diff in diffs[: len(directions)]])
    hess = max([0.0] + [diff / h2**2 for diff in diffs[len(directions) :]])
    return sup + grad + hess


# each builder returns its function, its alpha, and its norm where it knows it exactly
_BUILDERS = {
    "constant": _make_constant,
    "affine-bump": _make_affine_bump,
    "fs-coordinate": _make_fs_coordinate,
    "holder-crease": _make_holder_crease,
}


def observable_catalog(name: str, params: dict = None) -> Observable:
    """Built-in observables: constant, affine-bump, fs-coordinate, holder-crease.

    ``params`` may name only the keyword parameters of the observable's
    builder, each with a value that ``errors.count`` (an ``int`` parameter) or
    ``errors.number`` (a ``float`` or ``complex`` one) accepts.
    """
    params = params or {}
    if name not in _BUILDERS:
        raise InvalidParam(f"unknown observable {name!r}")
    builder = _BUILDERS[name]
    kinds = get_type_hints(builder)
    unknown = sorted(set(params) - set(kinds))
    if unknown:
        raise InvalidParam(f"unknown {name} parameters {unknown}; known: {sorted(kinds)}")
    values = {}
    for key, value in params.items():
        label = f"{name} parameter {key}"
        values[key] = count(value, label) if kinds[key] is int else number(value, label, kinds[key])
    fn, alpha, norm = builder(**values)
    try:
        norm = estimate_norm(fn, alpha) if norm is None else norm
    except InvalidParam as exc:
        raise InvalidParam(f"observable {name} {params}: {exc}") from exc
    return Observable(name=name, alpha=alpha, norm_estimate=norm, fn=fn)
