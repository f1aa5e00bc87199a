"""Catalog of scalar test functions on P^2.

Each observable is a bounded function of the canonical unit homogeneous
representative, carries a smoothness tag, and a grid-estimated norm.  Norm
estimates scale reported constants only; they never enter fitted rates;
the smoothness tag sets the exponent alpha of the proven rate.  The norm
grid is walked in the 8192-row slices of ``maps.for_each_slice``, one per
CPU at a time, and every estimate is the same to the bit for any CPU count.
"""

from __future__ import annotations

import inspect
import numbers
from dataclasses import dataclass, field
from typing import Callable, get_type_hints

import numpy as np

from .errors import InvalidParam
from .maps import for_each_slice
from .projective import chart_disc, from_chart_rows

NORM_GRID_SIDE = 256
NORM_GRID_RADIUS = 2.0
NORM_CHART = 2


@dataclass(frozen=True)
class Observable:
    """A named test function; ``fn`` maps unit rows ``(..., 3)`` to values ``(...)``."""

    name: str
    smoothness: str  # "C1", "C2", or "Holder(alpha)"
    norm_estimate: float
    fn: Callable = field(compare=False)


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

    return fn


def _make_fs_coordinate(index: int = 0):
    if not 0 <= index <= 2:
        raise InvalidParam("coordinate index must lie in [0, 2]")

    def fn(Z):
        return np.abs(Z[..., index]) ** 2

    return fn


def _make_holder_crease(alpha: float = 0.5, index: int = 0, level: float = 0.4):
    if not 0 < alpha <= 1:
        raise InvalidParam("Holder exponent must lie in (0, 1]")
    if not 0 <= index <= 2:
        raise InvalidParam("coordinate index must lie in [0, 2]")

    def fn(Z):
        return np.abs(np.abs(Z[..., index]) ** 2 - level) ** alpha

    return fn


def _make_constant(value: float = 1.0):
    def fn(Z):
        return np.full(Z.shape[:-1], value)

    return fn


def smoothness_alpha(smoothness: str) -> float:
    """Regularity exponent of a smoothness tag: C1 -> 1, C2 -> 2, Holder(a) -> a."""
    if smoothness.startswith("Holder(") and smoothness.endswith(")"):
        return float(smoothness[len("Holder(") : -1])
    if smoothness in ("C1", "C2"):
        return float(smoothness[1])
    raise InvalidParam(f"unknown smoothness tag {smoothness!r}")


def estimate_norm(fn, smoothness: str) -> float:
    """Grid estimate of the C^1/C^2/Holder norm by finite differences,
    on a seeded disc of chart NORM_CHART.

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
    holder = smoothness.startswith("Holder")
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
        if smoothness == "C2":
            for e in directions:
                yield np.max(np.abs(at(grid + h2 * e) - 2 * base + at(grid - h2 * e)))

    peaks = np.max(for_each_slice(lambda rows: list(slice_peaks(aff[rows])), len(aff)), axis=0)
    sup, *diffs = (float(peak) for peak in peaks)
    if sup == 0.0:
        raise InvalidParam("it is 0 at every point of the norm grid, so its norm would read 0")
    # each maximum of a group starts at 0.0, and a NaN difference is skipped
    if holder:
        alpha = smoothness_alpha(smoothness)
        steps = [h for h in holder_steps for _ in directions]
        return sup + max([0.0] + [diff / h**alpha for h, diff in zip(steps, diffs)])
    grad = max([0.0] + [diff / (2 * h1) for diff in diffs[: len(directions)]])
    hess = max([0.0] + [diff / h2**2 for diff in diffs[len(directions) :]])
    return sup + grad + hess


# the values each parameter type that a builder annotates accepts
_ACCEPTS = {int: numbers.Integral, float: numbers.Real, complex: numbers.Complex}

# each builder with its smoothness tag and, where it is known exactly, its
# norm; the tag is formatted with, and the norm called on, the builder's arguments
_BUILDERS = {
    "constant": (_make_constant, "C2", lambda value: abs(value)),
    "affine-bump": (_make_affine_bump, "C2", None),
    "fs-coordinate": (_make_fs_coordinate, "C2", None),
    "holder-crease": (_make_holder_crease, "Holder({alpha})", None),
}


def observable_catalog(name: str, params: dict = None) -> Observable:
    """Built-in observables: constant, affine-bump, fs-coordinate, holder-crease.

    ``params`` may name only the keyword parameters of the observable's
    builder, each with a number of the type that parameter is annotated with.
    """
    params = params or {}
    if name not in _BUILDERS:
        raise InvalidParam(f"unknown observable {name!r}")
    builder, tag, exact_norm = _BUILDERS[name]
    kinds = get_type_hints(builder)
    unknown = sorted(set(params) - set(kinds))
    if unknown:
        raise InvalidParam(f"unknown {name} parameters {unknown}; known: {sorted(kinds)}")
    values = {}
    for key, value in params.items():
        if isinstance(value, bool) or not isinstance(value, _ACCEPTS[kinds[key]]):
            raise InvalidParam(f"{name} parameter {key} must be a {kinds[key].__name__}, not {value!r}")
        values[key] = kinds[key](value)
    fn = builder(**values)
    args = inspect.signature(builder).bind(**values)
    args.apply_defaults()
    smoothness = tag.format(**args.arguments)
    try:
        norm = exact_norm(**args.arguments) if exact_norm else estimate_norm(fn, smoothness)
    except InvalidParam as exc:
        raise InvalidParam(f"observable {name} {params}: {exc}") from exc
    return Observable(name=name, smoothness=smoothness, norm_estimate=norm, fn=fn)
