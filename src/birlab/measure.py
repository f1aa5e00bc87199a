"""Weighted-particle approximations of the dynamical volumes.

T+ wedge omega and the equilibrium measure T+ wedge T- are approximated by
self-normalized importance sampling of pointwise form densities at finite
pullback depth m.  Raw weights have unit mean in cohomology, which is the
main health check; they are heavy-tailed near I(f^m), so they are clipped
at the CLIP_QUANTILE quantile (then renormalized) and near-indeterminacy
samples are dropped and counted rather than imputed.  A cloud left with
no positive weight under the clip raises ``DegenerateCloud``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateCloud, count
from .maps import BirationalPair, pullback_chain, step_rows, wedge_density_rows
from .projective import sample_fs_rows

DROP_WARN_FRACTION = 0.01
CLIP_QUANTILE = 0.999


@dataclass(frozen=True)
class WeightedCloud:
    """Importance-sampled particle approximation of a positive measure.

    ``points`` holds canonical unit rows, shape (N, 3); ``weights`` are
    nonnegative and sum to 1.  ``clip_quantile`` records the quantile the
    weights were clipped at: CLIP_QUANTILE for the sampled clouds, 1.0 for
    an unclipped one.  ``raw_mean``/``raw_stderr`` summarize the
    unnormalized pre-clip weights of the surviving samples (cohomological
    mass check: mean 1).
    """

    points: np.ndarray
    weights: np.ndarray
    depth_m: int
    seed: int
    clip_quantile: float
    dropped_count: int
    raw_mean: float
    raw_stderr: float

    @property
    def count(self) -> int:
        return len(self.weights)

    @property
    def dropped_fraction(self) -> float:
        total = self.count + self.dropped_count
        return self.dropped_count / total if total else 0.0


def _finalize(Z, raw, alive, m, count, seed) -> WeightedCloud:
    Z, raw = Z[alive], np.maximum(raw[alive], 0.0)
    cap = np.quantile(raw, CLIP_QUANTILE) if raw.any() else 0.0
    if cap <= 0:
        raise DegenerateCloud(
            f"no positive weight under the clip: {np.count_nonzero(raw)} of the "
            f"{len(raw)} surviving samples ({count} drawn) have a positive weight"
        )
    w = np.minimum(raw, cap)
    return WeightedCloud(
        points=Z,
        weights=w / w.sum(),
        depth_m=m,
        seed=seed,
        clip_quantile=CLIP_QUANTILE,
        dropped_count=int(count - alive.sum()),
        raw_mean=float(raw.mean()),
        raw_stderr=float(raw.std(ddof=1) / np.sqrt(len(raw))) if len(raw) > 1 else 0.0,
    )


def _validate(m, rows):
    return count(m, "pullback depth m"), count(rows, "sample count", 1)


def approx_T_plus_wedge_omega(pair: BirationalPair, m: int, count: int, seed: int) -> WeightedCloud:
    """Particle cloud for T+ wedge omega via T+ ~ d^{-m} (f^m)^* omega."""
    m, count = _validate(m, count)
    Z = sample_fs_rows(count, seed)
    H, alive = pullback_chain(pair, Z, m, "fwd")
    raw = pair.d ** (-m) * np.real(np.trace(H, axis1=1, axis2=2)) / 2
    return _finalize(Z, raw, alive, m, count, seed)


def approx_mu(pair: BirationalPair, m: int, count: int, seed: int) -> WeightedCloud:
    """Particle cloud for mu = T+ wedge T- at finite depth."""
    m, count = _validate(m, count)
    Z = sample_fs_rows(count, seed)
    H_plus, alive_f = pullback_chain(pair, Z, m, "fwd")
    H_minus, alive_b = pullback_chain(pair, Z, m, "bwd")
    alive = alive_f & alive_b
    # scaled in place: a scaled copy of each form would add 64 B per row to the peak
    H_plus *= pair.d ** (-m)
    H_minus *= pair.delta ** (-m)
    raw = wedge_density_rows(H_plus, H_minus)
    return _finalize(Z, raw, alive, m, count, seed)


def effective_sample_size(cloud: WeightedCloud) -> float:
    """1 / sum(w^2) for normalized weights; in [1, count]."""
    return float(1.0 / np.sum(cloud.weights**2))


def invariance_defect(cloud: WeightedCloud, pair: BirationalPair, obs) -> float:
    """|mean of phi o f - mean of phi| under the cloud.

    Samples whose image hits indeterminacy proximity are dropped from the
    pushed term and its weights renormalized.
    """
    W, _, alive = step_rows(pair.fwd, cloud.points)
    w = cloud.weights
    pushed_w = w[alive]
    total = pushed_w.sum()
    if total <= 0:
        raise DegenerateCloud("every sample hit indeterminacy proximity")
    pushed = float(np.sum(pushed_w * obs.fn(W[alive])) / total)
    plain = float(np.sum(w * obs.fn(cloud.points)))
    return abs(pushed - plain)
