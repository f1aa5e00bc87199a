"""The four workloads.  Each builds its inputs from the seed in ``setup``
and does one unit of measured work in ``run_pass``; every call into birlab
goes through a module attribute (``measure.approx_mu``), so that the traced
run can wrap it.

Each call is one operation.  An operation fails when it raises (anything
but an outcome the lab itself reports, such as ``InsufficientSignal`` from
``decay_fit``) or when its output check fails.  Checks never skip.
"""

import contextlib
import filecmp
import io
import math
import shutil
from collections import Counter

import numpy as np

from birlab import cli, errors, genericity, maps, measure, mixing, observables, potential, projective, runner

# Relative tolerance of a summary scalar against its reference value.
RTOL = 1e-6
MAX_ERRORS_KEPT = 20


class Ops:
    """Attempted and failed operations, and outcomes that are not failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.counts = Counter()

    def run(self, label, fn, *args, check=None, **kwargs):
        """Call ``fn``; ``check(result)`` returns a problem string or None."""
        self.attempted += 1
        try:
            result = fn(*args, **kwargs)
            problem = check(result) if check is not None else None
        except Exception as exc:  # any raise is a failed operation, recorded by name
            result, problem = None, f"{type(exc).__name__}: {exc}"
        if problem:
            self.failed += 1
            if len(self.errors) < MAX_ERRORS_KEPT:
                self.errors.append(f"{label}: {problem}")
        return result


def compare(values, reference):
    """Problem string if any value leaves RTOL of its reference, else None."""
    for key, ref in reference.items():
        got = np.asarray(values[key], dtype=float)
        ref = np.asarray(ref, dtype=float)
        if got.shape != ref.shape:
            return f"{key}: shape {got.shape} != reference {ref.shape}"
        both_nan = np.isnan(got) & np.isnan(ref)
        bad = ~both_nan & ~(np.abs(got - ref) <= RTOL * np.abs(ref))
        if bad.any():
            i = int(np.argmax(bad.ravel()))
            return f"{key}: {float(got.ravel()[i])!r} vs reference {float(ref.ravel()[i])!r} (rtol {RTOL:g})"
    return None


def cloud_summary(cloud):
    return {
        "raw_mean": cloud.raw_mean,
        "raw_stderr": cloud.raw_stderr,
        "ess": measure.effective_sample_size(cloud),
        "dropped_count": cloud.dropped_count,
    }


def cloud_band(summary, count):
    """Seed-independent plausibility of a cloud's summary scalars."""
    if not (summary["raw_mean"] > 0 and summary["raw_stderr"] >= 0):
        return f"raw mean/stderr out of range: {summary}"
    if not 1.0 <= summary["ess"] <= count:
        return f"ESS {summary['ess']} outside [1, {count}]"
    if summary["dropped_count"] > measure.DROP_WARN_FRACTION * count:
        return f"dropped {summary['dropped_count']} of {count}"
    return None


class Workload:
    """Common bookkeeping: operations, references and the seed."""

    WHY = ""
    SETUP_REPEATS = 5
    HAS_REFERENCE = False

    def __init__(self, seed, root, work_dir, recorded=None):
        self.seed = seed
        self.root = root
        self.work_dir = work_dir
        self.ops = Ops()
        # recorded reference values for this seed, else the first pass's
        self.reference = dict(recorded or {})
        self.point_steps = 0
        self.largest_batch = 1

    def checked(self, label, values, band=None):
        """Check ``values`` against the reference for ``label``."""
        ref = self.reference.setdefault(label, values)
        return (band(values) if band else None) or compare(values, ref)

    def setup(self):
        raise NotImplementedError

    def run_pass(self):
        raise NotImplementedError

    def cloud(self, label, builder, pair, m):
        """Build one cloud of COUNT points and check its summary scalars."""
        return self.ops.run(label, builder, pair, m, self.COUNT, self.seed,
                            check=lambda cloud: self.checked(label, cloud_summary(cloud), self.band))

    def band(self, summary):
        return cloud_band(summary, self.COUNT)


class Cloud(Workload):
    WHY = ("the pullback chain and tangent frames are nearly all the time; covers both families, "
           "fwd and bwd chains and the deep chain where weights underflow")
    HAS_REFERENCE = True
    COUNT = 200_000
    # label, builder, pair, depth m, chain directions
    SHAPES = [
        ("approx_mu/slow_henon/m6", "approx_mu", "slow_henon", 6, 2),
        ("approx_mu/cremona/m6", "approx_mu", "cremona", 6, 2),
        ("approx_T_plus_wedge_omega/classic_henon/m12", "approx_T_plus_wedge_omega", "classic_henon", 12, 1),
    ]

    def setup(self):
        self.pairs = {
            "slow_henon": maps.make_henon(0.05, [0.0, 0.0, 1.0]),
            "classic_henon": maps.make_henon(0.3, [-1.2, 0.0, 1.0]),
            "cremona": maps.make_cremona_composed(maps.random_unitary(7)),
        }
        self.point_steps = sum(self.COUNT * m * dirs for *_, m, dirs in self.SHAPES)
        self.largest_batch = self.COUNT

    def run_pass(self):
        for label, builder, pair, m, _ in self.SHAPES:
            self.cloud(label, getattr(measure, builder), self.pairs[pair], m)


class Mixing(Workload):
    WHY = ("orbit advance and block bootstrap are nearly all the time; maps is evaluated without "
           "Jacobians, so a pullback change should move only setup_s")
    HAS_REFERENCE = True
    SETUP_REPEATS = 3
    COUNT = 200_000
    N_CORR = 10
    GRID = 8
    N_CN = 10

    def setup(self):
        self.mu = self.nu = None  # release the previous set-up's clouds first
        self.slow = maps.make_henon(0.05, [0.0, 0.0, 1.0])
        self.classic = maps.make_henon(0.3, [-1.2, 0.0, 1.0])
        self.mu = self.cloud("setup/approx_mu/slow_henon/m6", measure.approx_mu, self.slow, 6)
        self.nu = self.cloud("setup/approx_T_plus_wedge_omega/classic_henon/m4",
                              measure.approx_T_plus_wedge_omega, self.classic, 4)
        self.bump = observables.observable_catalog("affine-bump", {"chart": 0, "radius": 2.0})
        self.coord = observables.observable_catalog("fs-coordinate", {"index": 0})
        # distinct orbit steps the estimators need: fwd N_CORR and bwd GRID on mu, fwd N_CN on nu
        self.point_steps = self.COUNT * (self.N_CORR + self.GRID + self.N_CN)
        self.largest_batch = 2 * self.COUNT

    def _fit(self, series):
        try:
            fit = mixing.decay_fit(series, seed=self.seed)
        except errors.InsufficientSignal:
            # an outcome the runner reports too, not a failure
            self.ops.counts["mixing.insufficient_signal"] += 1
            return {"rate": math.nan, "ci_low": math.nan}
        return {"rate": fit.rate, "ci_low": fit.ci_low}

    def run_pass(self):
        series = self.ops.run(
            "correlation_series", mixing.correlation_series, self.slow, self.bump, self.bump,
            self.N_CORR, self.mu,
            check=lambda s: self.checked("correlation_series", {
                "value": [e[1] for e in s.entries], "stderr": [e[2] for e in s.entries]},
                band=correlation_band),
        )
        if series is not None:
            self.ops.run("correlation_series/decay_fit", self._fit, series,
                         check=lambda f: self.checked("correlation_series/decay_fit", f))
        self.ops.run(
            "two_sided_grid", mixing.two_sided_grid, self.slow, self.bump, self.bump,
            self.GRID, self.GRID, self.mu,
            check=lambda g: self.checked("two_sided_grid", {
                "value": [[c[0] for c in row] for row in g]}, band=correlation_band),
        )
        seq = self.ops.run(
            "c_sequence", mixing.c_sequence, self.classic, self.coord, self.N_CN, self.nu,
            check=lambda s: self.checked("c_sequence", {
                "partial_sums": s.partial_sums.tolist(), "stderr": s.stderr.tolist()},
                band=correlation_band),
        )
        if seq is not None:
            self.ops.run("c_sequence/decay_fit", self._fit, seq,
                         check=lambda f: self.checked("c_sequence/decay_fit", f))


def correlation_band(values):
    """Correlations and means of observables valued in [0, 1] lie in [-1, 1]."""
    for key, vals in values.items():
        arr = np.asarray(vals, dtype=float)
        if not (np.all(np.isfinite(arr)) and np.all(np.abs(arr) <= 1.0)):
            return f"{key} not finite or outside [-1, 1]"
    return None


class Lab(Workload):
    WHY = ("the user's entry point: config validation, CSV/JSON emission, digests, small clouds, "
           "genericity and the Green grid; per-call overhead matters more than kernels")

    def setup(self):
        self.configs = []
        for path in sorted((self.root / "configs").glob("*.json")):
            config = runner.load_config(path)
            self.configs.append((path, config))
        if len(self.configs) != 6:
            raise FileNotFoundError(f"expected the six shipped configs, found {len(self.configs)}")
        self.point_steps = sum(config_point_steps(c) for _, c in self.configs)
        self.largest_batch = max(c.count for _, c in self.configs if c.experiment in runner.MEASURE_EXPERIMENTS)
        self.passes = 0

    def run_pass(self):
        out = self.work_dir / f"pass-{self.passes}"
        for path, config in self.configs:
            target = out / path.stem
            self.ops.run(path.stem, self._main, config.experiment, path, target,
                         check=lambda rc, target=target: self._check(target))
        if self.passes > 0:
            shutil.rmtree(out)
        self.passes += 1

    def _main(self, experiment, path, target):
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()) as err:
            rc = cli.main([experiment, "--config", str(path), "--seed", str(self.seed), "--out", str(target)])
        if rc != 0:
            raise RuntimeError(f"lab exited {rc}: {err.getvalue().strip()}")
        return rc

    def _check(self, target):
        files = sorted(p.name for p in target.iterdir())
        self.ops.counts["runner.bytes_written"] += sum((target / name).stat().st_size for name in files)
        for name in ("cn.json", "correlation.json"):
            if name in files and "InsufficientSignal" in (target / name).read_text():
                self.ops.counts["mixing.insufficient_signal"] += 1
        first = self.work_dir / "pass-0" / target.name
        data = [name for name in files if name != "manifest.json"]
        if sorted(p.name for p in first.iterdir()) != files:
            return f"file set differs from the first pass: {files}"
        for name in data:
            if not filecmp.cmp(first / name, target / name, shallow=False):
                return f"{name} differs from the first pass"
        return None


def config_point_steps(c):
    """Row-steps of a config's cloud builds, estimator lags and quasi-potential
    (rows times depth); the scalar genericity and Green loops count none."""
    if c.experiment == "measure":
        return 3 * c.count * c.depth_m
    if c.experiment == "cn":
        return c.count * (c.depth_m + (c.n_max if c.n_max is not None else 10))
    if c.experiment == "correlation":
        return c.count * (2 * c.depth_m + (c.N_max if c.N_max is not None else 12))
    if c.experiment == "green":
        return c.depth_n * 3 * (potential.CALIBRATION_SIDE**2 + c.grid_n**2)
    return 0


class Pointwise(Workload):
    WHY = ("the per-point Python loops and the ProjPoint/eval_point API are nearly all the time; "
           "the only workload where vectorising potential would show")
    GRID_SIDE = 128
    GRID_RANGE = 2.0
    DEPTH_N = 4
    CUTOFF_A = 2.0
    # the green config default, where ShiftCalibrationError is a known defect
    DEFAULT_GRID = (32, 2.0)
    GREEN_TOL = 1e-6

    def setup(self):
        self.classic = maps.make_henon(0.3, [-1.2, 0.0, 1.0])
        self.cremona = maps.make_cremona_composed(maps.random_unitary(self.seed))
        rng = np.random.default_rng([0x9E7, self.seed])
        ticks = np.linspace(-self.GRID_RANGE, self.GRID_RANGE, self.GRID_SIDE)
        h = ticks[1] - ticks[0]
        xs, ys = (a.ravel() for a in np.meshgrid(ticks, ticks, indexing="ij"))
        jitter = rng.uniform(-h / 2, h / 2, size=(2, xs.size))
        self.grid = np.clip(np.stack([xs, ys]) + jitter, -self.GRID_RANGE, self.GRID_RANGE).T.tolist()
        self.calibration = np.concatenate([potential.calibration_points(c) for c in range(3)])
        side, half = self.DEFAULT_GRID
        t = np.linspace(-half, half, side)
        gx, gy = (a.ravel() for a in np.meshgrid(t, t, indexing="ij"))
        self.default_grid = projective.canonicalize_rows(
            np.stack([gx, gy, np.ones_like(gx)], axis=1).astype(complex))
        # calibrate, then v_n, w_n and chi_A on the calibration points, then the default grid
        self.point_steps = self.DEPTH_N * (4 * len(self.calibration) + len(self.default_grid))
        self.largest_batch = len(self.calibration)

    def run_pass(self):
        self._green()
        series = self.ops.run("calibrate", potential.QuasiPotentialSeries.calibrate, self.classic, self.DEPTH_N,
                              check=lambda s: None if math.isfinite(s.shift) else f"shift {s.shift}")
        if series is not None:
            self._quasi_potential(series)
        self.ops.run("bd_partial_sums/henon", genericity.bd_partial_sums, self.classic, 20,
                     check=lambda r: None if not r.degenerate and all(
                         t == 0.0 for _, _, t in r.terms_fwd + r.terms_bwd) else "Henon terms not all zero")
        self.ops.run("bd_partial_sums/cremona", genericity.bd_partial_sums, self.cremona, 15,
                     check=lambda r: None if not r.degenerate and math.isfinite(r.partial_sum_fwd)
                     and math.isfinite(r.partial_sum_bwd) else "composed Cremona sums not finite")

    def _green(self):
        a = self.classic.meta["a"]
        coeffs = self.classic.meta["p_coeffs"]
        escaping = bounded = 0
        for x, y in self.grid:
            g = self.ops.run("green_plus_henon", potential.green_plus_henon, self.classic, (x, y),
                             check=lambda g: None if g >= 0.0 else f"G+ = {g} < 0")
            if g is None:
                continue
            if g == 0.0:
                bounded += 1
                continue
            escaping += 1
            fz = (y, sum(c * y**i for i, c in enumerate(coeffs)) - a * x)
            self.ops.run("green_plus_henon/f", potential.green_plus_henon, self.classic, fz,
                         check=lambda gf, g=g: None if abs(gf - 2.0 * g) <= self.GREEN_TOL
                         else f"|G+(f z) - 2 G+(z)| = {abs(gf - 2.0 * g):.3e}")
        self.ops.run("green_plus_henon/grid", lambda: (escaping, bounded),
                     check=lambda eb: None if min(eb) > 0 else f"escaping/bounded = {eb}: need both")

    def _quasi_potential(self, series):
        Z = self.calibration
        self.ops.run("v_n_rows", potential.v_n_rows, series, Z,
                     check=lambda v: None if np.all(v[np.isfinite(v)] <= -math.e) else "v_n > -e on calibration points")
        self.ops.run("w_n_rows", potential.w_n_rows, series, Z,
                     check=lambda w: None if np.all(w[np.isfinite(w)] <= -1.0) else "w_n > -1 on calibration points")
        self.ops.run("chi_A_rows", potential.chi_A_rows, series, Z, self.CUTOFF_A,
                     check=lambda c: None if np.all((c >= 0.0) & (c <= 1.0)) else "chi_A outside [0, 1]")
        self.ops.run("w_n_rows/default_grid", self._default_grid, series)

    def _default_grid(self, series):
        try:
            potential.w_n_rows(series, self.default_grid)
        except errors.ShiftCalibrationError:
            # known defect: the shift is calibrated off this grid
            self.ops.counts["potential.shift_calibration_errors"] += 1


WORKLOADS = {"cloud": Cloud, "mixing": Mixing, "lab": Lab, "pointwise": Pointwise}
