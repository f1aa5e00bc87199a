"""Numerical diagnostics for the Bedford-Diller summability condition.

The diagnostic reports partial sums of d^{-n} log dist(I(f), f^n(I(f^-1)))
(and the mirror series with delta^{-n} weights) together with an explicit
tail bound.  A vanishing distance is a legitimate experimental finding and
is reported through the ``degenerate`` flag, never raised.

Each orbit advances its source points as one row batch through the checked
map step (``maps.step_rows``).  A point on the map's indeterminacy set is
flagged, and the step returns it unchanged; it stays bit-equal from then on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import InvalidParam
from .maps import EPS_IND, BirationalPair, step_rows
from .projective import ProjPoint, fix_phase_rows, min_set_distance

EPS_DEGENERATE = EPS_IND


@dataclass(frozen=True)
class IndeterminacyOrbit:
    """Orbits of one indeterminacy set under the opposite map.

    ``steps[j]`` holds the images of each source point after j steps;
    flagged points are frozen at their last good value and their failing
    step recorded in ``flagged_at``.
    """

    steps: list
    flagged_at: list


@dataclass(frozen=True)
class GenericityReport:
    terms_fwd: list  # (n, distance, term)
    terms_bwd: list
    partial_sum_fwd: float
    partial_sum_bwd: float
    degenerate: bool
    degenerate_index: Optional[int]
    tail_bound_fwd: float
    tail_bound_bwd: float


def indeterminacy_orbit(pair: BirationalPair, n: int, direction: str = "fwd") -> IndeterminacyOrbit:
    """Orbit table f^j(I(f^-1)) (fwd) or f^-j(I(f)) (bwd), j = 0..n."""
    if n < 0:
        raise InvalidParam("orbit length must be >= 0")
    map_rep = pair.map_for(direction)
    sources = list(pair.ind_bwd if direction == "fwd" else pair.ind_fwd)
    targets = pair.ind_fwd if direction == "fwd" else pair.ind_bwd
    # a source on the opposite indeterminacy set is degenerate at step 0
    flagged_at = [0 if min_set_distance([p], targets) < EPS_DEGENERATE else None for p in sources]
    steps = [sources]
    Z = np.array([p.coords for p in sources])
    for j in range(n):
        W, _, alive = step_rows(map_rep, Z)
        flagged_at = [j if f is None and not ok else f for f, ok in zip(flagged_at, alive)]
        # a dead row keeps its bits: fixing its phase again moves it by rounding
        Z = np.where(alive[:, None], fix_phase_rows(W), Z)
        steps.append([ProjPoint(row) for row in Z])
    return IndeterminacyOrbit(steps=steps, flagged_at=flagged_at)


def _series(pair: BirationalPair, N: int, direction: str):
    orbit = indeterminacy_orbit(pair, N, direction)
    targets = pair.ind_fwd if direction == "fwd" else pair.ind_bwd
    base = pair.d if direction == "fwd" else pair.delta
    terms = []
    degenerate_index = None
    for n in range(N + 1):
        dist = min_set_distance(orbit.steps[n], targets)
        # a flagged orbit point collided with its own map's indeterminacy
        # set; the recorded distance already reflects the collapse
        if dist < EPS_DEGENERATE and degenerate_index is None:
            degenerate_index = n
        term = base ** (-n) * math.log(dist) if dist > 0 else float("-inf")
        terms.append((n, dist, term))
    partial = sum(t for _, _, t in terms)
    finite = [d for _, d, _ in terms if d >= EPS_DEGENERATE]
    if degenerate_index is None and finite:
        d_min = min(finite)
        tail = abs(math.log(d_min)) * base ** (-N) / (1.0 - 1.0 / base)
    else:
        tail = float("inf")
    return terms, partial, degenerate_index, tail


def bd_partial_sums(pair: BirationalPair, N: int) -> GenericityReport:
    """Partial sums of both genericity series through depth N."""
    if N < 0:
        raise InvalidParam("N must be >= 0")
    terms_fwd, sum_fwd, deg_fwd, tail_fwd = _series(pair, N, "fwd")
    terms_bwd, sum_bwd, deg_bwd, tail_bwd = _series(pair, N, "bwd")
    candidates = [i for i in (deg_fwd, deg_bwd) if i is not None]
    degenerate_index = min(candidates) if candidates else None
    return GenericityReport(
        terms_fwd=terms_fwd,
        terms_bwd=terms_bwd,
        partial_sum_fwd=sum_fwd,
        partial_sum_bwd=sum_bwd,
        degenerate=degenerate_index is not None,
        degenerate_index=degenerate_index,
        tail_bound_fwd=tail_fwd,
        tail_bound_bwd=tail_bwd,
    )
