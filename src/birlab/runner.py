"""Experiment orchestration: validated JSON configs, deterministic runs,
CSV/JSON emission, and run manifests with content digests.

Plotting is deliberately out of scope; series go to CSV, summaries to
JSON, and figures are left to external tools.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from dataclasses import asdict, replace
from pathlib import Path
from typing import List, Literal, Optional

import numpy as np
from pydantic import BaseModel, ConfigDict, Field, ValidationError, model_validator

from . import __version__
from .errors import ConfigInvalid, InsufficientSignal, InvalidParam, count, number
from .genericity import bd_partial_sums
from .maps import BirationalPair, make_cremona_composed, make_henon, random_unitary
from .measure import DROP_WARN_FRACTION, approx_T_plus_wedge_omega, approx_mu, effective_sample_size
from .mixing import (
    DecayFit,
    c_sequence,
    correlation_series,
    decay_fit,
    theoretical_rate,
)
from .observables import observable_catalog
from .potential import (
    QuasiPotentialSeries,
    chi_A_rows,
    green_plus_henon,
    v_n_rows,
    w_n_rows,
)
from .projective import from_chart_rows

MEASURE_EXPERIMENTS = {"measure", "cn", "correlation"}
# how many observables each experiment reads
OBSERVABLES_READ = {"cn": 1, "correlation": 2}
MIN_MEASURE_COUNT = 1000
MAP_PARAMS = {"henon": {"a", "p_coeffs"}, "cremona_composed": {"matrix", "unitary_seed"}}
# a verdict passes when the rate CI reaches within this fraction of the proven rate
SLACK_FRACTION = 0.2
# escape-loop budget of the green experiment's grid
GREEN_MAX_ITER = 400


def as_complex(value, name: str) -> complex:
    """A JSON number, or a ``[re, im]`` pair of numbers, as a complex number."""
    if isinstance(value, list) and len(value) == 2:
        return complex(*(number(v, name, float) for v in value))
    return number(value, name, complex)


def _as_list(value, name: str) -> list:
    if not isinstance(value, list):
        raise InvalidParam(f"{name} must be a list, not {value!r}")
    return value


def build_pair(cfg: MapConfig) -> BirationalPair:
    """The map pair of ``cfg``; a bad parameter is a ``ConfigInvalid`` naming it."""
    params = dict(cfg.params)
    known = MAP_PARAMS[cfg.family]
    unknown = sorted(set(params) - known)
    if unknown:
        raise ConfigInvalid(f"map.params: unknown {cfg.family} parameters {unknown}; known: {sorted(known)}")
    try:
        if cfg.family == "henon":
            a = as_complex(params.get("a", 0.3), "a")
            coeffs = _as_list(params.get("p_coeffs", [-1.2, 0.0, 1.0]), "p_coeffs")
            return make_henon(a, [as_complex(c, "p_coeffs") for c in coeffs])
        if "matrix" in params:  # make_cremona_composed checks its shape
            rows = _as_list(params["matrix"], "matrix")
            A = [[as_complex(v, "matrix") for v in _as_list(row, "matrix")] for row in rows]
        else:
            A = random_unitary(count(params.get("unitary_seed", 0), "unitary_seed"))
        return make_cremona_composed(A)
    except InvalidParam as exc:
        raise ConfigInvalid(f"map.params: {exc}") from exc


def _fmt(x) -> str:
    if isinstance(x, float):  # np.float64 too, whose repr is not a plain number
        return repr(float(x))
    return str(x)


def _csv(header, rows) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    return "\n".join(lines) + "\n"


def _json(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def compare_to_theory(summary: DecayFit, pair: BirationalPair, alpha: float) -> dict:
    """One-sided verdict: pass iff ci_low >= theoretical - slack."""
    theory = theoretical_rate(pair, alpha)
    slack = SLACK_FRACTION * theory
    return {
        "fitted_rate": summary.rate,
        "rate_ci_low": summary.ci_low,
        "rate_ci_high": summary.ci_high,
        "theoretical_rate": theory,
        "slack": slack,
        "slack_fraction": SLACK_FRACTION,
        "regular": pair.regular,
        "alpha": alpha,
        "passed": summary.ci_low >= theory - slack,
    }


def _fit_and_verdict(cfg, pair, series, observables):
    """Decay fit of ``series``, judged at the least alpha of ``observables``."""
    try:
        fit = decay_fit(series, seed=cfg.seed)
    except InsufficientSignal as exc:  # a reportable outcome, not a failure
        return None, {"error": type(exc).__name__}
    alpha = min(o.alpha for o in observables)
    return asdict(fit), compare_to_theory(fit, pair, alpha)


def _observables(cfg: ExperimentConfig, how_many: int):
    """The first ``how_many`` observables of ``cfg``, the last repeated as needed;
    a bad descriptor is a ``ConfigInvalid`` naming it."""
    descs = list(cfg.observables)
    if not descs:
        descs = [ObservableConfig(name="affine-bump", params={"radius": 2.0})]
    while len(descs) < how_many:
        descs.append(descs[-1])
    # each distinct (name, params) is built, and its norm estimated, once
    keys = [json.dumps([d.name, d.params], sort_keys=True) for d in descs[:how_many]]
    built = {}
    for i, (key, d) in enumerate(zip(keys, descs)):
        if key not in built:
            try:
                built[key] = observable_catalog(d.name, d.params)
            except InvalidParam as exc:
                raise ConfigInvalid(f"observables.{i}: {exc}") from exc
    return [built[key] for key in keys]


# Each experiment returns the files it writes (name -> text) and its
# dropped fractions; ``run`` writes and digests them.


def _run_genericity(cfg, pair, observables):
    N = cfg.N_max if cfg.N_max is not None else 20
    report = bd_partial_sums(pair, N)
    rows = [
        (n, df, tf, db, tb)
        for (n, df, tf), (_, db, tb) in zip(report.terms_fwd, report.terms_bwd)
    ]
    summary = {k: v for k, v in asdict(report).items() if not k.startswith("terms_")}
    header = ["n", "dist_fwd", "term_fwd", "dist_bwd", "term_bwd"]
    return {"genericity.csv": _csv(header, rows), "genericity.json": _json(summary)}, {}


def _run_green(cfg, pair, observables):
    """v_n, w_n, chi_A and G+ on the grid.  The shift is the largest unshifted
    v_n on the calibration discs or on the grid, plus e, so w_n is defined at
    every grid point."""
    series = QuasiPotentialSeries.calibrate(pair, cfg.depth_n)
    ticks = np.linspace(-cfg.grid_range, cfg.grid_range, cfg.grid_n)
    xs, ys = np.meshgrid(ticks, ticks, indexing="ij")
    xs, ys = xs.ravel(), ys.ravel()
    Z = from_chart_rows(np.stack([xs, ys], axis=1), 2)
    unshifted = v_n_rows(replace(series, shift=0.0), Z)
    finite = unshifted[np.isfinite(unshifted)]
    if len(finite):
        series = replace(series, shift=max(series.shift, float(finite.max()) + math.e))
    v = unshifted - series.shift
    w = w_n_rows(series, Z)
    chi = chi_A_rows(series, Z, cfg.cutoff_A)
    g = [green_plus_henon(pair, (x, y), GREEN_MAX_ITER) for x, y in zip(xs, ys)]
    rows = list(zip(xs.tolist(), ys.tolist(), v.tolist(), w.tolist(), chi.tolist(), g))
    summary = {"shift": series.shift, "depth_n": cfg.depth_n, "A": cfg.cutoff_A}
    header = ["x", "y", "v_n", "w_n", "chi_A", "green_plus"]
    return {"green.csv": _csv(header, rows), "green.json": _json(summary)}, {}


def _cloud_summary(cloud):
    return {
        "raw_mean": cloud.raw_mean,
        "raw_stderr": cloud.raw_stderr,
        "ess": effective_sample_size(cloud),
        "dropped_count": cloud.dropped_count,
        "dropped_fraction": cloud.dropped_fraction,
        "drop_warning": cloud.dropped_fraction > DROP_WARN_FRACTION,
        "depth_m": cloud.depth_m,
        "count": cloud.count,
        "clip_quantile": cloud.clip_quantile,
    }


def _run_measure(cfg, pair, observables):
    plus = approx_T_plus_wedge_omega(pair, cfg.depth_m, cfg.count, cfg.seed)
    mu = approx_mu(pair, cfg.depth_m, cfg.count, cfg.seed)
    summary = {"T_plus_wedge_omega": _cloud_summary(plus), "mu": _cloud_summary(mu)}
    return {"measure.json": _json(summary)}, {"t_plus": plus.dropped_fraction, "mu": mu.dropped_fraction}


def _observable_summary(obs):
    return {"name": obs.name, "smoothness": obs.smoothness, "norm_estimate": obs.norm_estimate}


def _run_cn(cfg, pair, observables):
    n_max = cfg.n_max if cfg.n_max is not None else 10
    (obs,) = observables
    nu_plus = approx_T_plus_wedge_omega(pair, cfg.depth_m, cfg.count, cfg.seed)
    seq = c_sequence(pair, obs, n_max, nu_plus)
    rows = [
        (n, seq.c[n], seq.stderr[n], seq.dropped_fraction[n], seq.partial_sums[n])
        for n in range(n_max + 1)
    ]
    fit, verdict = _fit_and_verdict(cfg, pair, seq, [obs])
    summary = {
        "cloud": _cloud_summary(nu_plus),
        "observable": _observable_summary(obs),
        "fit": fit,
        "theory": verdict,
    }
    files = {
        "cn.csv": _csv(["lag", "value", "stderr", "dropped_fraction", "partial_sum"], rows),
        "cn.json": _json(summary),
    }
    return files, {"nu_plus": nu_plus.dropped_fraction, "max_lag": float(seq.dropped_fraction.max())}


def _run_correlation(cfg, pair, observables):
    N_max = cfg.N_max if cfg.N_max is not None else 12
    mu = approx_mu(pair, cfg.depth_m, cfg.count, cfg.seed)
    series = correlation_series(pair, *observables, N_max, mu)
    fit, verdict = _fit_and_verdict(cfg, pair, series, observables)
    summary = {
        "cloud": _cloud_summary(mu),
        "observables": [_observable_summary(o) for o in observables],
        "fit": fit,
        "theory": verdict,
    }
    files = {
        "correlation.csv": _csv(["lag", "value", "stderr", "dropped_fraction"], series.entries),
        "correlation.json": _json(summary),
    }
    return files, {"mu": mu.dropped_fraction, "max_lag": max(e[3] for e in series.entries)}


_RUNNERS = {
    "genericity": _run_genericity,
    "green": _run_green,
    "measure": _run_measure,
    "cn": _run_cn,
    "correlation": _run_correlation,
}
EXPERIMENTS = tuple(_RUNNERS)
ExperimentName = Literal[EXPERIMENTS]
# the experiments that read each field; every config carries map, experiment,
# seed and output_dir, and may set no field its experiment does not read
READ_BY = {"depth_m": MEASURE_EXPERIMENTS, "count": MEASURE_EXPERIMENTS, "n_max": {"cn"},
           "N_max": {"genericity", "correlation"}, "observables": set(OBSERVABLES_READ),
           **dict.fromkeys(["depth_n", "cutoff_A", "grid_n", "grid_range"], {"green"})}


class MapConfig(BaseModel):
    model_config = ConfigDict(extra="forbid")
    family: Literal["henon", "cremona_composed"]
    params: dict = Field(default_factory=dict)


class ObservableConfig(BaseModel):
    model_config = ConfigDict(extra="forbid")
    name: str
    params: dict = Field(default_factory=dict)


class ExperimentConfig(BaseModel):
    # strict: an integer field takes no bool, float or string, as errors.count does
    model_config = ConfigDict(extra="forbid", allow_inf_nan=False, strict=True)
    map: MapConfig
    experiment: ExperimentName
    seed: int = Field(ge=0)
    depth_m: int = Field(3, ge=0)
    count: int = 100000
    n_max: Optional[int] = Field(None, ge=0)
    N_max: Optional[int] = Field(None, ge=0)
    observables: List[ObservableConfig] = Field(default_factory=list)
    output_dir: str = "runs"
    # green-specific knobs
    depth_n: int = Field(4, ge=0)
    cutoff_A: float = Field(2.0, gt=0)
    grid_n: int = Field(32, ge=1)
    grid_range: float = Field(2.0, gt=0)

    @model_validator(mode="after")
    def _check(self):
        unread = sorted(f for f in self.model_fields_set if self.experiment not in READ_BY.get(f, EXPERIMENTS))
        if unread:
            raise ValueError(f"the {self.experiment} experiment does not read {unread}")
        if self.experiment in MEASURE_EXPERIMENTS and self.count < MIN_MEASURE_COUNT:
            raise ValueError(
                f"count must be >= {MIN_MEASURE_COUNT} for measure-based experiments"
            )
        return self


def _finite_float(token: str) -> float:
    """A JSON number as a float; NaN, Infinity and overflowing literals are invalid."""
    value = float(token)
    if not math.isfinite(value):
        raise ValueError(f"{token} is not a finite number")
    return value


def load_config(data) -> ExperimentConfig:
    """Validate a config dict, or the path (``str`` or ``Path``) of a JSON
    config file, into an ExperimentConfig.  A string is always read as a
    path, never parsed as JSON text; every number in the file must be finite."""
    if isinstance(data, (str, Path)):
        path = Path(data)
        try:
            data = json.loads(path.read_text(), parse_float=_finite_float, parse_constant=_finite_float)
        except (OSError, ValueError) as exc:
            raise ConfigInvalid(f"{path}: {exc}") from exc
    try:
        return ExperimentConfig.model_validate(data)
    except ValidationError as exc:
        first = exc.errors()[0]
        loc = ".".join(str(p) for p in first["loc"]) or "<root>"
        raise ConfigInvalid(f"{loc}: {first['msg']}") from exc


def run(config: ExperimentConfig) -> dict:
    """Execute one experiment; writes its files and returns the manifest.

    The map pair and the observables are built, and a bad value rejected as
    ``ConfigInvalid``, before anything is written.  The manifest lists the
    digests of the files this run wrote, and no other file in the directory.
    """
    start = time.monotonic()
    pair = build_pair(config.map)
    observables = _observables(config, OBSERVABLES_READ.get(config.experiment, 0))
    files, dropped = _RUNNERS[config.experiment](config, pair, observables)
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    digests = {}
    for name, text in sorted(files.items()):
        data = text.encode()
        (out / name).write_bytes(data)
        digests[name] = hashlib.sha256(data).hexdigest()
    manifest = {
        "config": config.model_dump(mode="json"),
        "version": __version__,
        "wall_time_s": time.monotonic() - start,
        "dropped_fractions": dropped,
        "outputs": digests,
    }
    (out / "manifest.json").write_text(_json(manifest))
    return manifest
