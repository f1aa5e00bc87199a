"""Correlation estimators, the c_n decomposition, theoretical rates, and
exponential decay fitting.

All estimators run on weighted particle clouds.  Samples whose orbit hits
indeterminacy proximity are dropped from that lag's estimator only, with
weights renormalized and the dropped fraction reported per lag.  Standard
errors come from a seeded block bootstrap over the weighted samples (200
resamples of 1000 contiguous blocks), which prices in both the weight
spread and the observable variance at i.i.d.-sample cost.

The correlation estimators read one kernel, ``_cov_grid``, the two-sided
correlation on a grid of lags: ``correlation_series`` is its column m = 0
and ``two_sided_grid`` the whole grid.

Each estimator keeps only what it reads: the observable's value and the
alive mask at each lag, not the orbit states.  One walk, ``_orbit_values``,
steps the cloud's rows in the fixed slices of ``maps.row_slices`` and
evaluates the observable on each state once, so an estimator's memory is
about 9 B per row per lag (a float and a mask byte) plus one slice's
states.  The bootstrap reads whole lags, so the slices change no value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateCloud, InsufficientSignal, InvalidParam
from .maps import BirationalPair, row_slices, step_rows
from .measure import WeightedCloud, effective_sample_size

N_BOOT = 200
N_BLOCKS = 1000
N_FIT_BOOT = 1000
MIN_ESS = 100.0
NOISE_FLOOR_SIGMAS = 3.0
# the two-sided cell (n, m) resamples under tag 300 + M_LIMIT n + m, which is
# distinct from every other cell's only while m < M_LIMIT
M_LIMIT = 64


@dataclass(frozen=True)
class CnSequence:
    """c_0..c_{n_max} with partial sums s_n = sum_{i<=n} c_i."""

    c: np.ndarray
    partial_sums: np.ndarray
    stderr: np.ndarray
    dropped_fraction: np.ndarray


@dataclass(frozen=True)
class CorrelationSeries:
    """Correlation values by lag with bootstrap standard errors."""

    entries: list  # (lag, value, stderr, dropped_fraction)


@dataclass(frozen=True)
class DecayFit:
    rate: float
    intercept: float
    r_squared: float
    ci_low: float
    ci_high: float
    fit_window: tuple


class OrbitTable:
    """Incremental orbits of the rows ``Z0`` under f or f^-1.

    ``state(n)`` returns the n-th iterate and the alive mask at that lag;
    dead rows are frozen at their last value.  ``Z`` is the list of states
    computed so far, ``Z[0]`` is ``Z0`` itself; later states may be
    component-major (see ``step_rows``).
    """

    def __init__(self, pair: BirationalPair, Z0: np.ndarray, direction: str = "fwd"):
        self.map_rep = pair.map_for(direction)
        self.Z = [Z0]
        self.alive = [np.ones(len(Z0), dtype=bool)]

    def advance_to(self, n: int):
        while len(self.Z) <= n:
            W, _, ok = step_rows(self.map_rep, self.Z[-1])
            alive = self.alive[-1] & ok
            # dead rows come back unchanged, so rows that died earlier stay frozen
            self.Z.append(W)
            self.alive.append(alive)

    def state(self, n: int):
        self.advance_to(n)
        return self.Z[n], self.alive[n]


def _orbit_values(pair: BirationalPair, cloud: WeightedCloud, direction: str, fn, n_max: int):
    """``fn`` of every state f^n(z) (f^-n(z) backward) of the cloud's points
    and the alive mask of that state, for n = 0..n_max.

    Returns ``(values, alive)``, both of shape ``(n_max + 1, count)``.  The
    rows are walked in the slices of ``row_slices``: one ``OrbitTable`` per
    slice, dropped once its lags are written.
    """
    values = np.empty((n_max + 1, cloud.count))
    alive = np.empty((n_max + 1, cloud.count), dtype=bool)
    for rows in row_slices(cloud.count):
        table = OrbitTable(pair, cloud.points[rows], direction)
        for n in range(n_max + 1):
            Z, alive[n, rows] = table.state(n)
            values[n, rows] = fn(Z)
    return values, alive


def _check_lags(n: int, m: int = 0):
    if n < 0 or m < 0:
        raise InvalidParam("lags must be >= 0")
    if m >= M_LIMIT:
        raise InvalidParam(
            f"backward lag {m} must be below {M_LIMIT}: cell (n, m) resamples under tag "
            f"300 + {M_LIMIT} n + m, shared with cell (n + 1, m - {M_LIMIT})"
        )


def _block_edges(n: int) -> np.ndarray:
    k = min(N_BLOCKS, n)
    return np.linspace(0, n, k + 1).astype(int)[:-1]


def _boot_rng(seed: int, tag: int) -> np.random.Generator:
    return np.random.default_rng([0xB007, seed & 0xFFFFFFFF, tag])


def _block_boot(wa, cols, stat, rng):
    """Value and block-bootstrap stderr of ``stat(Sw, *S)``.

    ``wa`` holds the weights with dropped rows set to 0 and ``cols`` the
    weighted columns.  The value takes Sw and S as sums over every row; each
    of the N_BOOT replicates takes them over a draw of contiguous blocks.
    """
    total = wa.sum()
    if total <= 0:
        raise DegenerateCloud("all samples dropped at this lag")
    value = float(stat(total, *(np.sum(c) for c in cols)))
    edges = _block_edges(len(wa))
    choice = rng.integers(0, len(edges), size=(N_BOOT, len(edges)))
    Tw = np.maximum(np.add.reduceat(wa, edges)[choice].sum(axis=1), 1e-300)
    rep = stat(Tw, *(np.add.reduceat(c, edges)[choice].sum(axis=1) for c in cols))
    return value, float(rep.std(ddof=1))


def _weighted_mean_boot(w, vals, alive, rng):
    """Self-normalized weighted mean with block-bootstrap stderr."""
    wa = np.where(alive, w, 0.0)
    return _block_boot(wa, [wa * vals], lambda Sw, Sv: Sv / Sw, rng)


def _weighted_cov_boot(w, a, b, alive, rng):
    """Weighted covariance E[ab] - E[a]E[b] with block-bootstrap stderr."""
    wa = np.where(alive, w, 0.0)
    # shift by a reference sample so constant inputs give an exact zero;
    # the covariance is shift-invariant in exact arithmetic
    ref = int(np.argmax(alive))
    wa_a, b = wa * (a - a[ref]), b - b[ref]
    cols = [wa_a, wa * b, wa_a * b]
    return _block_boot(wa, cols, lambda Sw, Sa, Sb, Sab: Sab / Sw - (Sa / Sw) * (Sb / Sw), rng)


def _require_healthy(cloud: WeightedCloud):
    if effective_sample_size(cloud) < MIN_ESS:
        raise DegenerateCloud(
            f"effective sample size below {MIN_ESS:g}; weights collapsed"
        )


def c_sequence(pair: BirationalPair, obs, n_max: int, nu_plus: WeightedCloud) -> CnSequence:
    """c_n from the recursion, via s_n = weighted mean of phi o f^n.

    The partial sums equal the direct estimator exactly, so
    c_n = s_n - s_{n-1}.
    """
    _check_lags(n_max)
    _require_healthy(nu_plus)
    values, alive = _orbit_values(pair, nu_plus, "fwd", obs.fn, n_max)
    s, err, dropped = [], [], []
    for n in range(n_max + 1):
        rng = _boot_rng(nu_plus.seed, 100 + n)
        mean, stderr = _weighted_mean_boot(nu_plus.weights, values[n], alive[n], rng)
        s.append(mean)
        err.append(stderr)
        dropped.append(1.0 - alive[n].mean())
    s = np.array(s)
    c = np.diff(s, prepend=0.0)
    return CnSequence(
        c=c,
        partial_sums=s,
        stderr=np.array(err),
        dropped_fraction=np.array(dropped),
    )


def _cov_grid(pair: BirationalPair, phi, psi, n_max: int, m_max: int, cloud: WeightedCloud, tag):
    """mu(phi o f^n . psi o f^-m) - mu(phi) mu(psi) for n <= n_max, m <= m_max.

    Returns ``grid[n][m] = (value, stderr, dropped_fraction)``; cell (n, m)
    drops the rows that died by either lag and resamples under
    ``tag(n, m)``.  phi is evaluated once per forward lag and psi once per
    backward lag.
    """
    _check_lags(n_max, m_max)
    _require_healthy(cloud)
    b, alive_b = _orbit_values(pair, cloud, "bwd", psi.fn, m_max)
    a, alive_f = _orbit_values(pair, cloud, "fwd", phi.fn, n_max)
    grid = []
    for n in range(n_max + 1):
        row = []
        for m in range(m_max + 1):
            alive = alive_f[n] & alive_b[m]
            rng = _boot_rng(cloud.seed, tag(n, m))
            row.append((*_weighted_cov_boot(cloud.weights, a[n], b[m], alive, rng), float(1.0 - alive.mean())))
        grid.append(row)
    return grid


def correlation_series(
    pair: BirationalPair, phi, psi, N_max: int, mu_cloud: WeightedCloud
) -> CorrelationSeries:
    """Correlation at every lag 0..N_max, from one walk of the forward orbit:
    the column m = 0 of the two-sided grid, lag N resampled under tag 200 + N."""
    grid = _cov_grid(pair, phi, psi, N_max, 0, mu_cloud, lambda n, m: 200 + n)
    return CorrelationSeries(entries=[(N, *row[0]) for N, row in enumerate(grid)])


def two_sided_grid(
    pair: BirationalPair, phi, psi, n_max: int, m_max: int, mu_cloud: WeightedCloud
):
    """All two-sided correlations for n <= n_max, m <= m_max.

    Returns a nested list ``grid[n][m] = (value, stderr)``; m_max must be
    below M_LIMIT, so that the resample tags 300 + M_LIMIT n + m of the
    cells are distinct.
    """
    grid = _cov_grid(pair, phi, psi, n_max, m_max, mu_cloud, lambda n, m: 300 + M_LIMIT * n + m)
    return [[cell[:2] for cell in row] for row in grid]


def theoretical_rate(pair: BirationalPair, alpha: float) -> float:
    """Per-step ln-rate of the proven decay bound: alpha s ln d / (4k),
    doubled when the pair is regular."""
    if not 0 < alpha <= 2:
        raise InvalidParam("alpha must lie in (0, 2]")
    rate = alpha * pair.s * math.log(pair.d) / (4.0 * pair.k)
    return 2.0 * rate if pair.regular else rate


def split_lags(pair: BirationalPair, N: int):
    """Split a one-sided lag N into (n, m) = ((k-s) n0, s n0 + r)."""
    if N < 0:
        raise InvalidParam("N must be >= 0")
    n0 = N // pair.k
    n = (pair.k - pair.s) * n0
    return n, N - n


def _as_triples(series):
    """(lags, values, stderrs) as float arrays: every lag of a
    CorrelationSeries, or the c_1.. of a CnSequence."""
    if isinstance(series, CorrelationSeries):
        lags, values, stderrs, _ = np.array(series.entries, dtype=float).reshape(-1, 4).T
        return lags, values, stderrs
    if isinstance(series, CnSequence):
        c = np.asarray(series.c, dtype=float)
        return np.arange(1.0, len(c)), c[1:], np.asarray(series.stderr, dtype=float)[1:]
    raise InvalidParam(f"decay_fit takes a CorrelationSeries or a CnSequence, not {type(series).__name__}")


def _wls(x, y, w):
    """(intercept, slope) of the weighted least-squares line of y against x,
    fitted along the last axis; a row whose x has no spread gets slope 0."""
    W = w.sum(axis=-1)
    xm = np.sum(w * x, axis=-1) / W
    ym = np.sum(w * y, axis=-1) / W
    dx = x - xm[..., None]
    sxx = np.sum(w * dx**2, axis=-1)
    sxy = np.sum(w * dx * (y - ym[..., None]), axis=-1)
    slope = np.divide(sxy, sxx, out=np.zeros_like(sxx), where=sxx != 0)
    return ym - slope * xm, slope


def decay_fit(series, seed: int = 0) -> DecayFit:
    """Weighted least squares of log|value| against lag, on a
    CorrelationSeries or on the c_1.. of a CnSequence.

    Entries below the noise floor (|value| < 3 stderr) or exactly zero are
    excluded; the fit window is the contiguous run of usable lags starting
    at the first usable one.  The rate CI comes from N_FIT_BOOT resamples
    of the fitted lags, drawn at once and refitted as rows of ``_wls``; a
    resample that draws a single lag has no slope and is left out.
    """
    lags, values, stderrs = _as_triples(series)
    usable = (values != 0) & (np.abs(values) >= NOISE_FLOOR_SIGMAS * stderrs)
    start = int(np.argmax(usable)) if usable.any() else len(usable)
    window = slice(start, start + int(np.logical_and.accumulate(usable[start:]).sum()))
    lags, values, stderrs = lags[window], np.abs(values[window]), stderrs[window]
    if len(lags) < 3:
        raise InsufficientSignal("fewer than 3 entries above the noise floor")
    y = np.log(values)
    if np.all(stderrs == 0):
        weights = np.ones_like(y)
    else:
        weights = 1.0 / np.maximum(stderrs / values, 1e-12) ** 2

    intercept, slope = _wls(lags, y, weights)
    resid = y - (intercept + slope * lags)
    ss_res = float(np.sum(weights * resid**2))
    ym = np.sum(weights * y) / weights.sum()
    ss_tot = float(np.sum(weights * (y - ym) ** 2))
    r2 = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot

    rng = np.random.default_rng([0xF17, seed])
    idx = rng.integers(0, len(lags), size=(N_FIT_BOOT, len(lags)))
    rates = -_wls(lags[idx], y[idx], weights[idx])[1][(idx != idx[:, :1]).any(axis=1)]
    if rates.size:
        ci_low, ci_high = np.percentile(rates, [2.5, 97.5])
    else:
        ci_low = ci_high = -slope
    return DecayFit(
        rate=float(-slope),
        intercept=float(intercept),
        r_squared=float(r2),
        ci_low=float(ci_low),
        ci_high=float(ci_high),
        fit_window=(int(lags[0]), int(lags[-1])),
    )
