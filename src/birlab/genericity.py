"""Numerical diagnostics for the Bedford-Diller summability condition.

The diagnostic reports partial sums of d^{-n} log dist(I(f), f^n(I(f^-1)))
(and the mirror series with delta^{-n} weights) together with an explicit
tail bound.  A vanishing distance is a legitimate experimental finding and
is reported through the ``degenerate`` flag, never raised.

Each orbit advances its source points, the pair's indeterminacy rows, as
one row batch through the checked map step (``maps.step_rows``) and keeps
every step in one ``(n + 1, S, 3)`` array.  A point on the map's
indeterminacy set is flagged, and the step returns it unchanged; it stays
bit-equal from then on.  Every distance to the target set comes from one
broadcast ``fs_distance_rows`` call over all steps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import count
from .maps import BirationalPair, step_rows
from .projective import fix_phase_rows, fs_distance_rows

EPS_DEGENERATE = 1e-10  # an FS distance: an orbit point this close to the target set is on it


@dataclass(frozen=True)
class IndeterminacyOrbit:
    """Orbits of one indeterminacy set under the opposite map.

    ``steps`` has shape ``(n + 1, S, 3)``: ``steps[j]`` holds the canonical
    rows of the S source points after j steps.  Flagged points are frozen at
    their last good value and their failing step recorded in ``flagged_at``.
    """

    steps: np.ndarray
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
    n = count(n, "orbit length")
    map_rep = pair.map_for(direction)
    Z = pair.ind_bwd if direction == "fwd" else pair.ind_fwd
    targets = pair.ind_fwd if direction == "fwd" else pair.ind_bwd
    # a source on the opposite indeterminacy set is degenerate at step 0
    flagged_at = [0 if dist < EPS_DEGENERATE else None for dist in fs_distance_rows(Z[:, None], targets).min(axis=-1)]
    steps = [Z]
    for j in range(n):
        W, _, alive = step_rows(map_rep, Z)
        flagged_at = [j if f is None and not ok else f for f, ok in zip(flagged_at, alive)]
        # a dead row keeps its bits: fixing its phase again moves it by rounding
        Z = np.where(alive[:, None], fix_phase_rows(W), Z)
        steps.append(Z)
    return IndeterminacyOrbit(steps=np.stack(steps), flagged_at=flagged_at)


def _series(pair: BirationalPair, N: int, direction: str):
    orbit = indeterminacy_orbit(pair, N, direction)
    targets = pair.ind_fwd if direction == "fwd" else pair.ind_bwd
    base = pair.d if direction == "fwd" else pair.delta
    dists = fs_distance_rows(orbit.steps[:, :, None], targets).min(axis=(1, 2)).tolist()
    terms = []
    degenerate_index = None
    for n, dist in enumerate(dists):
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
    N = count(N, "N")
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
