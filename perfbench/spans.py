"""Spans recorded from the benchmark's own files around calls into birlab.

While a traced phase is active, the public functions of each layer are
replaced by wrappers that record a span (name, start, end, parent) and
then call the original.  Replacement is by identity, so a function that
another module imported by name (``from .maps import pullback_chain``) is
wrapped there too.  Nothing inside birlab is changed on disk, and every
original is put back when the phase ends.  Spans are kept in memory and
summarised per pass.
"""

import dataclasses
import functools
import inspect
import sys
import time
import tracemalloc
from collections import Counter

from metrics import PER_LAYER

from birlab import genericity, maps, measure, mixing, observables, potential, projective, runner

ESTIMATORS = ("mixing.correlation_series", "mixing.two_sided_grid", "mixing.c_sequence")


class Tracer:
    """Spans and counts of the traced phases; ``with tracer:`` is one phase."""

    def __init__(self):
        self.recording = False
        self.spans = []  # [name, start, end, parent index]
        self.counts = Counter()
        self.peak = Counter()
        self.orbit_depth = {}  # (points id, map id) -> (deepest lag, rows)
        self._stack = []
        self._restore = []

    # -- recording ---------------------------------------------------------

    def span(self, name, fn, after=None, peak_memory=False):
        """Wrap ``fn`` so that each call while recording leaves a span.

        ``name`` may be a callable of the call's arguments.  ``after``
        receives (args, result) to record counts at the same boundary.
        """

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            label = name(*args, **kwargs) if callable(name) else name
            index = len(self.spans)
            self.spans.append([label, time.perf_counter(), None, self._stack[-1] if self._stack else -1])
            self._stack.append(index)
            owns_tracemalloc = peak_memory and not tracemalloc.is_tracing()
            if owns_tracemalloc:
                tracemalloc.start()
            try:
                result = fn(*args, **kwargs)
            finally:
                if owns_tracemalloc:
                    self.peak[label] = max(self.peak[label], tracemalloc.get_traced_memory()[1])
                    tracemalloc.stop()
                self._stack.pop()
                self.spans[index][2] = time.perf_counter()
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def take(self):
        """Summarise and clear what was recorded since the last call."""
        total, own, calls = Counter(), Counter(), Counter()
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            total[name] += end - start
            calls[name] += 1
            if parent >= 0:
                child[parent] += end - start
        for (name, start, end, _), inner in zip(self.spans, child):
            own[name] += end - start - inner
        counts = self.counts.copy()
        counts["mixing.orbit_steps_distinct"] = sum(d * r for d, r in self.orbit_depth.values())
        summary = {"time": total, "self": own, "calls": calls, "counts": counts, "peak": self.peak.copy()}
        self.spans, self.counts, self.peak, self.orbit_depth = [], Counter(), Counter(), {}
        return summary

    # -- installation ------------------------------------------------------

    def __enter__(self):
        for owner, attr, wrap in self._targets():
            self._replace(owner, attr, wrap)
        self.recording = True
        return self

    def __exit__(self, *exc):
        self.recording = False
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore = []

    def _replace(self, owner, attr, wrap):
        original = inspect.getattr_static(owner, attr)
        if isinstance(owner, type):
            if isinstance(original, classmethod):
                replacement = classmethod(wrap(original.__func__))
            else:
                replacement = wrap(original)
            self._restore.append((owner, attr, original))
            setattr(owner, attr, replacement)
            return
        replacement = wrap(original)
        for module in [m for key, m in sys.modules.items() if key.split(".")[0] == "birlab"]:
            for key, value in list(vars(module).items()):
                if value is original:
                    self._restore.append((module, key, original))
                    setattr(module, key, replacement)

    def _targets(self):
        def named(name, **options):
            return lambda fn: self.span(name, fn, **options)

        return [
            (projective, "sample_fs_rows", named("projective.sample_fs_rows")),
            (projective, "tangent_frames", named("projective.tangent_frames")),
            (maps.RationalMapRep, "eval_rows", named("maps.eval_rows")),
            (maps.RationalMapRep, "jacobian_rows", named("maps.jacobian_rows")),
            (maps, "differential_rows", named("maps.differential_rows")),
            (maps, "pullback_chain",
             named("maps.pullback_chain", after=self._chain_steps, peak_memory=True)),
            (maps, "eval_point", named("maps.eval_point")),
            (maps, "wedge_density_rows", named("maps.wedge_density_rows")),
            (measure, "approx_mu", named("measure.approx_mu", after=self._cloud_stats)),
            (measure, "approx_T_plus_wedge_omega",
             named("measure.approx_T_plus_wedge_omega", after=self._cloud_stats)),
            (observables, "estimate_norm", named("observables.estimate_norm")),
            (observables, "observable_catalog", self._traced_observables),
            (mixing.OrbitTable, "advance_to", self._orbit_advance),
            *[(mixing, name.split(".")[1], named(name, after=self._boot_draws)) for name in ESTIMATORS],
            (mixing, "decay_fit", named("mixing.decay_fit")),
            (potential, "green_plus_henon", named("potential.green_plus_henon")),
            (potential.QuasiPotentialSeries, "calibrate", named("potential.calibrate")),
            (potential, "v_n_rows", named("potential.v_n_rows")),
            (potential, "chi_A_rows", named("potential.chi_A_rows")),
            (genericity, "bd_partial_sums", named("genericity.bd_partial_sums")),
            (runner, "load_config", named("runner.load_config")),
            (runner, "run", named(lambda config: f"runner.run.{config.experiment}")),
        ]

    # -- counts recorded at the boundaries ---------------------------------

    def _chain_steps(self, args, result):
        _, Z0, m = args[:3]
        self.counts["maps.pullback_chain.point_steps"] += len(Z0) * m

    def _cloud_stats(self, args, cloud):
        self.counts["measure.drawn"] += cloud.count + cloud.dropped_count
        self.counts["measure.alive"] += cloud.count
        self.counts["measure.zero_weights"] += int((cloud.weights == 0).sum())
        self.counts["measure.ess"] += measure.effective_sample_size(cloud)

    def _boot_draws(self, args, result):
        # one bootstrap of N_BOOT resamples per estimated value
        if isinstance(result, mixing.CorrelationSeries):
            values = len(result.entries)
        elif isinstance(result, mixing.CnSequence):
            values = len(result.c)
        else:
            values = sum(len(row) for row in result)
        self.counts["mixing.boot_draws"] += values * mixing.N_BOOT

    def _traced_observables(self, catalog):
        @functools.wraps(catalog)
        def observable_catalog(*args, **kwargs):
            obs = catalog(*args, **kwargs)
            return dataclasses.replace(obs, fn=self.span("observables.fn", obs.fn))

        return observable_catalog

    def _orbit_advance(self, advance_to):
        timed = self.span("mixing.orbit_advance", advance_to)

        @functools.wraps(advance_to)
        def wrapper(table, n):
            before = len(table.Z)
            timed(table, n)
            if self.recording:
                rows = len(table.Z[0])
                self.counts["mixing.orbit_steps_computed"] += (len(table.Z) - before) * rows
                key = (id(table.Z[0]), id(table.map_rep))
                depth = max(self.orbit_depth.get(key, (0, 0))[0], len(table.Z) - 1)
                self.orbit_depth[key] = (depth, rows)

        return wrapper


def merge(a, b):
    """Sum of two summaries; peaks are maxima."""
    out = {key: a[key] + b[key] for key in ("time", "self", "calls", "counts")}
    out["peak"] = a["peak"] | b["peak"]
    return out


def layer_values(s):
    """Per-layer metric values from one summary (see metrics.PER_LAYER)."""
    time_, own, calls, counts, peak = s["time"], s["self"], s["calls"], s["counts"], s["peak"]

    def per(num, den):
        return num / den if den else 0.0

    # every "<span>.s" metric is the total time in that span
    values = {name: time_[name[:-2]] for name, *_ in PER_LAYER if name.endswith(".s")}
    computed = counts["mixing.orbit_steps_computed"]
    distinct = counts["mixing.orbit_steps_distinct"]
    values.update({
        "maps.pullback_chain.point_steps_per_s": per(counts["maps.pullback_chain.point_steps"],
                                                     time_["maps.pullback_chain"]),
        "maps.pullback_chain.rss_delta_bytes": peak["maps.pullback_chain"],
        "maps.eval_point.calls": calls["maps.eval_point"],
        "measure.finalize_self_s": own["measure.approx_mu"] + own["measure.approx_T_plus_wedge_omega"],
        "measure.alive_fraction": per(counts["measure.alive"], counts["measure.drawn"]),
        "measure.ess_ratio": per(counts["measure.ess"], counts["measure.alive"]),
        "measure.zero_weight_fraction": per(counts["measure.zero_weights"], counts["measure.alive"]),
        "observables.estimate_norm.calls": calls["observables.estimate_norm"],
        "mixing.bootstrap_self_s": sum(own[name] for name in ESTIMATORS),
        "mixing.orbit_steps_computed": computed,
        "mixing.orbit_steps_distinct": distinct,
        "mixing.orbit_useful_share": per(distinct, computed),
        "mixing.boot_draws": counts["mixing.boot_draws"],
        "mixing.insufficient_signal": counts["mixing.insufficient_signal"],
        "potential.green_plus_henon.points_per_s": per(calls["potential.green_plus_henon"],
                                                       time_["potential.green_plus_henon"]),
        "potential.shift_calibration_errors": counts["potential.shift_calibration_errors"],
        "runner.bytes_written": counts["runner.bytes_written"],
    })
    return values
