"""Quasi-potentials, the auxiliary log-log function, the dynamical cut-off,
and the Henon escape-rate Green function.

The truncated quasi-potential of the normalized pullback d^{-n}(f^*)^n omega
telescopes into one-step increments along the orbit:

    v_n(z) = sum_{j<n} d^{-j} u1(f^j(z)) - shift,
    u1(z)  = (1/d) log ||F(z)||   on unit representatives.

The shift is calibrated once on a fixed per-chart point set so that
v_n <= -e there, which makes w_n = -log(-v_n) <= -1 and keeps the cut-off
chi_A = h(w_n / A) well defined.  Values that dive below -1e3 are mapped to
a -inf sentinel instead of raising: potentials appear inside integrands
where singular samples are legitimately discarded by cut-offs.  Each term
is one checked map step (``maps.step_rows``): its ||F|| gives u1 and its
image the next orbit point, so depth n evaluates F n times.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParam, NonConvergence, ShiftCalibrationError
from .maps import BirationalPair, step_rows
from .projective import ProjPoint, chart_disc, from_chart_rows

SENTINEL_FLOOR = -1e3
CALIBRATION_SIDE = 128
CALIBRATION_RADIUS = 2.0
# escape radius of green_plus_henon, raised to its R0 where that is larger;
# G+ does not depend on it
R_ESCAPE = 100.0


def smoothstep(x):
    """C^2 step h: 0 for x <= -2, 1 for x >= -1, quintic in between."""
    x = np.asarray(x, dtype=float)
    t = np.clip(x + 2.0, 0.0, 1.0)
    return t * t * t * (10.0 + t * (-15.0 + 6.0 * t))


def _step(pair: BirationalPair, Z: np.ndarray):
    """``step_rows`` of f, with the increment u1 (-inf sentinel) in place of ||F||."""
    W, nrm, alive = step_rows(pair.fwd, Z)
    with np.errstate(divide="ignore"):
        val = np.log(nrm) / pair.d
    return W, np.where(val < SENTINEL_FLOOR, -np.inf, val), alive


def u1_rows(pair: BirationalPair, Z: np.ndarray) -> np.ndarray:
    """One-step increment (1/d) log ||F(z)|| on unit rows; -inf sentinel."""
    return _step(pair, Z)[1]


def u1(pair: BirationalPair, p: ProjPoint) -> float:
    return float(u1_rows(pair, p.coords[None, :])[0])


def calibration_points(chart: int, k: int = 2) -> np.ndarray:
    """Fixed per-chart calibration point set (128^2 points, seeded)."""
    n = CALIBRATION_SIDE * CALIBRATION_SIDE
    return from_chart_rows(chart_disc([0xCA11B, chart], n, CALIBRATION_RADIUS, k), chart)


def _unshifted_v_rows(pair: BirationalPair, Z: np.ndarray, depth: int) -> np.ndarray:
    total = np.zeros(Z.shape[0])
    cur = np.asarray(Z, dtype=complex)
    alive = np.ones(Z.shape[0], dtype=bool)
    for j in range(depth):
        # one evaluation gives both the increment at f^j(z) and f^{j+1}(z)
        cur, inc, ok = _step(pair, cur)
        alive &= np.isfinite(inc)
        total = np.where(alive, total + pair.d ** (-j) * np.where(alive, inc, 0.0), -np.inf)
        alive &= ok
    return total


@dataclass(frozen=True)
class QuasiPotentialSeries:
    """Truncated quasi-potential at depth ``n`` with a calibrated normalization shift."""

    pair: BirationalPair
    n: int
    shift: float

    def __post_init__(self):
        if self.n < 0:
            raise InvalidParam("truncation depth must be >= 0")

    @classmethod
    def calibrate(cls, pair: BirationalPair, n: int) -> "QuasiPotentialSeries":
        """Shift = grid maximum of the unshifted v_n, plus e."""
        peak = -math.inf
        for chart in range(pair.k + 1):
            vals = _unshifted_v_rows(pair, calibration_points(chart, pair.k), n)
            finite = vals[np.isfinite(vals)]
            if len(finite):
                peak = max(peak, float(finite.max()))
        if not math.isfinite(peak):
            peak = 0.0
        return cls(pair=pair, n=n, shift=peak + math.e)


def v_n_rows(series: QuasiPotentialSeries, Z: np.ndarray) -> np.ndarray:
    """Shifted quasi-potential at the series depth ``series.n``."""
    return _unshifted_v_rows(series.pair, Z, series.n) - series.shift


def v_n(series: QuasiPotentialSeries, p: ProjPoint) -> float:
    return float(v_n_rows(series, p.coords[None, :])[0])


def w_n_rows(series: QuasiPotentialSeries, Z: np.ndarray) -> np.ndarray:
    v = v_n_rows(series, Z)
    finite = np.isfinite(v)
    if np.any(v[finite] > -math.e):
        raise ShiftCalibrationError(
            "v_n > -e off the calibration grid; recalibrate the shift"
        )
    with np.errstate(divide="ignore"):
        return np.where(finite, -np.log(-v), -np.inf)


def w_n(series: QuasiPotentialSeries, p: ProjPoint) -> float:
    return float(w_n_rows(series, p.coords[None, :])[0])


def chi_A_rows(series: QuasiPotentialSeries, Z: np.ndarray, A: float) -> np.ndarray:
    if A <= 0:
        raise InvalidParam("cut-off scale A must be positive")
    w = w_n_rows(series, Z)
    out = np.zeros_like(w)
    finite = np.isfinite(w)
    out[finite] = smoothstep(w[finite] / A)
    return out


def chi_A(series: QuasiPotentialSeries, p: ProjPoint, A: float) -> float:
    return float(chi_A_rows(series, p.coords[None, :], A)[0])


def _escape(x, y, a, rev_coeffs, R, max_iter):
    """The escape loop of ``green_plus_henon``, on floats or on complex values.

    Returns ``(n, x, y)`` at the first step n with |y| >= R and |y| >= |x|,
    or ``(None, x, y)`` after ``max_iter + 1`` steps without escape.
    ``rev_coeffs`` lists p from the leading coefficient down; starting the
    Horner sum at it, in place of 0*y + c_d, gives the same value, because
    a stepped y is finite or NaN.  The growth bound is two comparisons, not
    ``max(ax, ay)``; they differ only when a modulus is NaN, and such an
    orbit never escapes, so it raises NonConvergence either way.
    """
    lead, rest = rev_coeffs[0], rev_coeffs[1:]
    for n in range(max_iter + 1):
        ay, ax = abs(y), abs(x)
        if ay >= R and ay >= ax:
            return n, x, y
        if ax > 1e120 or ay > 1e120:
            raise NonConvergence("orbit grew without meeting the escape criterion")
        acc = lead
        for c in rest:
            acc = acc * y + c
        x, y = y, acc - a * x
    return None, x, y


def green_plus_henon(pair: BirationalPair, p_affine, max_iter: int = 200) -> float:
    """Escape-rate Green function G+ for a Henon pair, on affine C^2.

    G+(z) = lim d^{-n} log+ ||f^n(z)||; 0 is reported for orbits that stay
    bounded through ``max_iter``.  After escape the tail is accumulated in
    renormalized variables, so the result satisfies G+ o f = d G+ to
    near machine precision.

    When a, every coefficient of p and both coordinates are real, the orbit
    is real and the escape loop runs on Python floats, about three times
    faster than on complex values.  This gives the same bits: on values
    with zero imaginary part, complex products and sums compute the float
    result for the real part (``(p+0j)(q+0j)`` has real part ``pq - 0*0``)
    and ``abs(r+0j) = |r|``, so every escape decision, step n and error is
    the same, and a finite escaped point differs at most in the sign of a
    zero.  An orbit that escapes to a non-finite point (an infinite
    coordinate, or a p(y) that overflowed) raises NonConvergence in either
    number field.  The renormalized tail always runs on complex values.
    """
    if pair.meta.get("family") != "henon":
        raise InvalidParam("escape-rate Green function requires a Henon pair")
    if max_iter < 1:
        raise InvalidParam("need max_iter >= 1")
    a = pair.meta["a"]
    coeffs = pair.meta["p_coeffs"]
    d = pair.d
    lc = coeffs[-1]
    # radius beyond which |y| >= max(|x|, R) forces monotone escape
    R0 = (sum(abs(c) for c in coeffs[:-1]) + abs(a) + 2.0) / abs(lc)
    R = max(R_ESCAPE, R0)

    x, y = complex(p_affine[0]), complex(p_affine[1])
    rev = tuple(reversed(coeffs))
    if all(v.imag == 0 for v in (x, y, a, *rev)):
        n, x, y = _escape(x.real, y.real, a.real, tuple(c.real for c in rev), R, max_iter)
        x, y = complex(x), complex(y)
    else:
        n, x, y = _escape(x, y, a, rev, R, max_iter)
    if n is None:
        if max(abs(x), abs(y)) <= R_ESCAPE:
            return 0.0
        raise NonConvergence("orbit neither escaped nor stayed bounded; raise max_iter")
    if not (cmath.isfinite(x) and cmath.isfinite(y)):
        raise NonConvergence("orbit escaped to a non-finite point")

    # renormalized escape tail: t = x/y, w = 1/y
    G = math.log(abs(y)) / d**n
    t, w = x / y, 1.0 / y
    scale = 1.0 / d ** (n + 1)
    for _ in range(200):
        # rho = y_{j+1} / y_j^d = sum_i c_i w^{d-i} - a t w^{d-1}
        rho = 0.0 + 0.0j
        for i, c in enumerate(coeffs):
            rho += c * w ** (d - i)
        rho -= a * t * w ** (d - 1)
        corr = math.log(abs(rho))
        G += scale * corr
        if abs(w) < 1e-300 or scale * abs(corr) < 1e-16:
            break
        t, w = w ** (d - 1) / rho, w**d / rho
        scale /= d
    return max(G, 0.0)
