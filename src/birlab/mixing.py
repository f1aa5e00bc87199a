"""Correlation estimators, the c_n decomposition, theoretical rates, and
exponential decay fitting.

All estimators run on weighted particle clouds.  Samples whose orbit hits
indeterminacy proximity are dropped from that lag's estimator only, with
weights renormalized and the dropped fraction reported per lag.  Standard
errors come from a seeded block bootstrap over the weighted samples (200
resamples of 1000 contiguous blocks), which prices in both the weight
spread and the observable variance at i.i.d.-sample cost.

Each estimator computes every orbit state and every observable value it
needs once: ``two_sided_grid`` evaluates psi once per backward lag, before
the forward orbit is built, and keeps only those values and masks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateCloud, InsufficientSignal, InvalidParam
from .maps import BirationalPair, step_rows
from .measure import WeightedCloud, effective_sample_size

N_BOOT = 200
N_BLOCKS = 1000
N_FIT_BOOT = 1000
MIN_ESS = 100.0
NOISE_FLOOR_SIGMAS = 3.0


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
    """Incremental orbits of a cloud's points under f or f^-1.

    ``state(n)`` returns the n-th iterate and the alive mask at that lag;
    dead rows are frozen at their last value.  ``Z`` is the list of states
    computed so far, ``Z[0]`` the cloud's own points; later states may be
    component-major (see ``step_rows``).
    """

    def __init__(self, pair: BirationalPair, cloud: WeightedCloud, direction: str = "fwd"):
        self.map_rep = pair.map_for(direction)
        self.Z = [cloud.points]
        self.alive = [np.ones(cloud.count, dtype=bool)]

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
    if n_max < 0:
        raise InvalidParam("n_max must be >= 0")
    _require_healthy(nu_plus)
    table = OrbitTable(pair, nu_plus, "fwd")
    s, err, dropped = [], [], []
    for n in range(n_max + 1):
        Z, alive = table.state(n)
        rng = _boot_rng(nu_plus.seed, 100 + n)
        mean, stderr = _weighted_mean_boot(nu_plus.weights, obs.fn(Z), alive, rng)
        s.append(mean)
        err.append(stderr)
        dropped.append(1.0 - alive.mean())
    s = np.array(s)
    c = np.diff(s, prepend=0.0)
    return CnSequence(
        c=c,
        partial_sums=s,
        stderr=np.array(err),
        dropped_fraction=np.array(dropped),
    )


def correlation(pair: BirationalPair, phi, psi, N: int, mu_cloud: WeightedCloud):
    """mu(phi o f^N . psi) - mu(phi) mu(psi) with bootstrap stderr."""
    if N < 0:
        raise InvalidParam("lag must be >= 0")
    _require_healthy(mu_cloud)
    table = OrbitTable(pair, mu_cloud, "fwd")
    Z, alive = table.state(N)
    a = phi.fn(Z)
    b = psi.fn(mu_cloud.points)
    rng = _boot_rng(mu_cloud.seed, 200 + N)
    return _weighted_cov_boot(mu_cloud.weights, a, b, alive, rng)


def correlation_series(
    pair: BirationalPair, phi, psi, N_max: int, mu_cloud: WeightedCloud
) -> CorrelationSeries:
    """Correlation at every lag 0..N_max, reusing incremental orbits."""
    if N_max < 0:
        raise InvalidParam("N_max must be >= 0")
    _require_healthy(mu_cloud)
    table = OrbitTable(pair, mu_cloud, "fwd")
    b = psi.fn(mu_cloud.points)
    entries = []
    for N in range(N_max + 1):
        Z, alive = table.state(N)
        a = phi.fn(Z)
        rng = _boot_rng(mu_cloud.seed, 200 + N)
        value, stderr = _weighted_cov_boot(mu_cloud.weights, a, b, alive, rng)
        entries.append((N, value, stderr, float(1.0 - alive.mean())))
    return CorrelationSeries(entries=entries)


def correlation_two_sided(
    pair: BirationalPair, phi, psi, n: int, m: int, mu_cloud: WeightedCloud
):
    """mu(phi o f^n . psi o f^-m) - mu(phi) mu(psi) with stderr."""
    if n < 0 or m < 0:
        raise InvalidParam("lags must be >= 0")
    _require_healthy(mu_cloud)
    Zf, alive_f = OrbitTable(pair, mu_cloud, "fwd").state(n)
    Zb, alive_b = OrbitTable(pair, mu_cloud, "bwd").state(m)
    rng = _boot_rng(mu_cloud.seed, 300 + 64 * n + m)
    return _weighted_cov_boot(
        mu_cloud.weights, phi.fn(Zf), psi.fn(Zb), alive_f & alive_b, rng
    )


def two_sided_grid(
    pair: BirationalPair, phi, psi, n_max: int, m_max: int, mu_cloud: WeightedCloud
):
    """All two-sided correlations for n <= n_max, m <= m_max.

    Returns a nested list ``grid[n][m] = (value, stderr)``.  psi is
    evaluated once per backward lag, and the backward states are released
    before the forward orbit is built.
    """
    if n_max < 0 or m_max < 0:
        raise InvalidParam("lags must be >= 0")
    _require_healthy(mu_cloud)
    bwd = OrbitTable(pair, mu_cloud, "bwd")
    backward = [(psi.fn(Zb), alive_b) for Zb, alive_b in map(bwd.state, range(m_max + 1))]
    del bwd
    fwd = OrbitTable(pair, mu_cloud, "fwd")
    grid = []
    for n in range(n_max + 1):
        Zf, alive_f = fwd.state(n)
        a = phi.fn(Zf)
        row = []
        for m, (b, alive_b) in enumerate(backward):
            rng = _boot_rng(mu_cloud.seed, 300 + 64 * n + m)
            row.append(
                _weighted_cov_boot(mu_cloud.weights, a, b, alive_f & alive_b, rng)
            )
        grid.append(row)
    return grid


def theoretical_rate(pair: BirationalPair, alpha: float, regular: bool) -> float:
    """Per-step ln-rate of the proven decay bound: alpha s ln d / (4k),
    doubled in the regular case."""
    if not 0 < alpha <= 2:
        raise InvalidParam("alpha must lie in (0, 2]")
    rate = alpha * pair.s * math.log(pair.d) / (4.0 * pair.k)
    return 2.0 * rate if regular else rate


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
