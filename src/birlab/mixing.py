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
from .maps import BirationalPair, eval_rows_checked
from .measure import WeightedCloud, effective_sample_size

N_BOOT = 200
N_BLOCKS = 1000
MIN_ESS = 100.0
NOISE_FLOOR_SIGMAS = 3.0


@dataclass(frozen=True)
class CnSequence:
    """c_0..c_{n_max} with partial sums s_n = sum_{i<=n} c_i."""

    c: np.ndarray
    partial_sums: np.ndarray
    stderr: np.ndarray
    dropped_fraction: np.ndarray
    depth_m: int
    obs: object


@dataclass(frozen=True)
class CorrelationSeries:
    """Correlation values by lag with bootstrap standard errors."""

    entries: list  # (lag, value, stderr, dropped_fraction)
    seed: int
    depth_m: int
    count: int


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
    component-major (see ``eval_rows_checked``).
    """

    def __init__(self, pair: BirationalPair, cloud: WeightedCloud, direction: str = "fwd"):
        self.map_rep = pair.map_for(direction)
        self.Z = [cloud.points]
        self.alive = [np.ones(cloud.count, dtype=bool)]

    def advance_to(self, n: int):
        while len(self.Z) <= n:
            W, ok = eval_rows_checked(self.map_rep, self.Z[-1])
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


def _weighted_mean_boot(w, vals, alive, rng):
    """Self-normalized weighted mean with block-bootstrap stderr."""
    wa = np.where(alive, w, 0.0)
    total = wa.sum()
    if total <= 0:
        raise DegenerateCloud("all samples dropped at this lag")
    wv = wa * vals
    mean = float(np.sum(wv) / total)
    edges = _block_edges(len(w))
    Sw = np.add.reduceat(wa, edges)
    Sv = np.add.reduceat(wv, edges)
    choice = rng.integers(0, len(edges), size=(N_BOOT, len(edges)))
    rep = Sv[choice].sum(axis=1) / np.maximum(Sw[choice].sum(axis=1), 1e-300)
    return mean, float(rep.std(ddof=1))


def _weighted_cov_boot(w, a, b, alive, rng):
    """Weighted covariance E[ab] - E[a]E[b] with block-bootstrap stderr."""
    wa = np.where(alive, w, 0.0)
    total = wa.sum()
    if total <= 0:
        raise DegenerateCloud("all samples dropped at this lag")
    # shift by a reference sample so constant inputs give an exact zero;
    # the covariance is shift-invariant in exact arithmetic
    ref = int(np.argmax(alive))
    a = a - a[ref]
    b = b - b[ref]
    wa_a, wa_b = wa * a, wa * b
    wa_ab = wa_a * b
    Ea = np.sum(wa_a) / total
    Eb = np.sum(wa_b) / total
    Eab = np.sum(wa_ab) / total
    value = float(Eab - Ea * Eb)
    edges = _block_edges(len(w))
    Sw = np.add.reduceat(wa, edges)
    Sa = np.add.reduceat(wa_a, edges)
    Sb = np.add.reduceat(wa_b, edges)
    Sab = np.add.reduceat(wa_ab, edges)
    choice = rng.integers(0, len(edges), size=(N_BOOT, len(edges)))
    Tw = np.maximum(Sw[choice].sum(axis=1), 1e-300)
    rep = Sab[choice].sum(axis=1) / Tw - (Sa[choice].sum(axis=1) / Tw) * (
        Sb[choice].sum(axis=1) / Tw
    )
    return value, float(rep.std(ddof=1))


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
        depth_m=nu_plus.depth_m,
        obs=obs,
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
    return CorrelationSeries(
        entries=entries, seed=mu_cloud.seed, depth_m=mu_cloud.depth_m, count=mu_cloud.count
    )


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
    if isinstance(series, CorrelationSeries):
        return [(lag, value, stderr) for lag, value, stderr, _ in series.entries]
    if isinstance(series, CnSequence):
        return [(n, series.c[n], series.stderr[n]) for n in range(1, len(series.c))]
    return [tuple(entry)[:3] for entry in series]


def decay_fit(series, n_boot: int = 1000, seed: int = 0) -> DecayFit:
    """Weighted least squares of log|value| against lag.

    Entries below the noise floor (|value| < 3 stderr) or exactly zero are
    excluded; the fit window is the contiguous run of usable lags starting
    at the first usable one.
    """
    triples = _as_triples(series)
    usable = []
    started = False
    for lag, value, stderr in triples:
        ok = value != 0 and abs(value) >= NOISE_FLOOR_SIGMAS * stderr
        if ok:
            usable.append((lag, value, stderr))
            started = True
        elif started:
            break
    if len(usable) < 3:
        raise InsufficientSignal("fewer than 3 entries above the noise floor")
    lags = np.array([u[0] for u in usable], dtype=float)
    y = np.log(np.abs([u[1] for u in usable]))
    stderrs = np.array([u[2] for u in usable], dtype=float)
    values = np.abs([u[1] for u in usable])
    if np.all(stderrs == 0):
        weights = np.ones_like(y)
    else:
        sigma_log = np.maximum(stderrs / values, 1e-12)
        weights = 1.0 / sigma_log**2

    def wls(x, yy, w):
        W = w.sum()
        xm = np.sum(w * x) / W
        ym = np.sum(w * yy) / W
        sxx = np.sum(w * (x - xm) ** 2)
        if sxx == 0:
            return ym, 0.0
        slope = np.sum(w * (x - xm) * (yy - ym)) / sxx
        return ym - slope * xm, slope

    intercept, slope = wls(lags, y, weights)
    resid = y - (intercept + slope * lags)
    ss_res = float(np.sum(weights * resid**2))
    ym = np.sum(weights * y) / weights.sum()
    ss_tot = float(np.sum(weights * (y - ym) ** 2))
    r2 = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot

    rng = np.random.default_rng([0xF17, seed])
    rates = []
    for _ in range(n_boot):
        idx = rng.integers(0, len(lags), size=len(lags))
        if len(np.unique(lags[idx])) < 2:
            continue
        _, b = wls(lags[idx], y[idx], weights[idx])
        rates.append(-b)
    if rates:
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
