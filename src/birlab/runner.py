"""Experiment orchestration: validated JSON configs, deterministic runs,
CSV/JSON emission, and run manifests with content digests.

Plotting is deliberately out of scope; series go to CSV, summaries to
JSON, and figures are left to external tools.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import List, Literal, Optional, Union

import numpy as np
from pydantic import BaseModel, ConfigDict, Field, ValidationError, model_validator

from . import __version__
from .errors import ConfigInvalid, InsufficientSignal
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
from .projective import canonicalize_rows

MEASURE_EXPERIMENTS = {"measure", "cn", "correlation"}
MIN_MEASURE_COUNT = 1000

ComplexLike = Union[float, int, List[float]]


def as_complex(value: ComplexLike) -> complex:
    if isinstance(value, (int, float)):
        return complex(value)
    if isinstance(value, (list, tuple)) and len(value) == 2:
        return complex(value[0], value[1])
    raise ConfigInvalid(f"cannot interpret {value!r} as a complex number")


class MapConfig(BaseModel):
    model_config = ConfigDict(extra="forbid")
    family: Literal["henon", "cremona_composed"]
    params: dict = Field(default_factory=dict)


class ObservableConfig(BaseModel):
    model_config = ConfigDict(extra="forbid")
    name: str
    params: dict = Field(default_factory=dict)


class ExperimentConfig(BaseModel):
    model_config = ConfigDict(extra="forbid")
    map: MapConfig
    experiment: Literal["genericity", "green", "measure", "cn", "correlation"]
    seed: int
    depth_m: int = 3
    count: int = 100000
    n_max: Optional[int] = None
    N_max: Optional[int] = None
    observables: List[ObservableConfig] = Field(default_factory=list)
    clip_quantile: float = 0.999
    output_dir: str = "runs"
    alpha: float = 2.0
    slack_fraction: float = 0.2
    dump_points: bool = False
    # green-specific knobs
    depth_n: int = 4
    cutoff_A: float = 2.0
    grid_n: int = 32
    grid_range: float = 2.0
    green_max_iter: int = 400
    green_R_escape: float = 100.0

    @model_validator(mode="after")
    def _check(self):
        if self.experiment in MEASURE_EXPERIMENTS and self.count < MIN_MEASURE_COUNT:
            raise ValueError(
                f"count must be >= {MIN_MEASURE_COUNT} for measure-based experiments"
            )
        if not 0.5 < self.clip_quantile <= 1.0:
            raise ValueError("clip_quantile must lie in (0.5, 1]")
        return self


@dataclass(frozen=True)
class RunManifest:
    config: dict
    version: str
    wall_time_s: float
    dropped_fractions: dict
    outputs: dict  # relative path -> sha256


def load_config(data) -> ExperimentConfig:
    """Validate a config dict (or JSON text/path) into an ExperimentConfig."""
    if isinstance(data, (str, Path)):
        path = Path(data)
        try:
            data = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigInvalid(f"{path}: {exc}") from exc
    try:
        return ExperimentConfig.model_validate(data)
    except ValidationError as exc:
        first = exc.errors()[0]
        loc = ".".join(str(p) for p in first["loc"]) or "<root>"
        raise ConfigInvalid(f"{loc}: {first['msg']}") from exc


def build_pair(cfg: MapConfig) -> BirationalPair:
    params = dict(cfg.params)
    if cfg.family == "henon":
        a = as_complex(params.get("a", 0.3))
        p_coeffs = [as_complex(c) for c in params.get("p_coeffs", [-1.2, 0.0, 1.0])]
        return make_henon(a, p_coeffs)
    if "matrix" in params:
        A = np.array([[as_complex(v) for v in row] for row in params["matrix"]])
    else:
        A = random_unitary(int(params.get("unitary_seed", 0)))
    return make_cremona_composed(A)


def _fmt(x) -> str:
    if isinstance(x, float):
        return repr(x)
    return str(x)


def _write_csv(path: Path, header, rows):
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    path.write_text("\n".join(lines) + "\n")


def _write_json(path: Path, payload):
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def compare_to_theory(
    summary: DecayFit, pair: BirationalPair, alpha: float, regular: bool, slack_fraction: float = 0.2
) -> dict:
    """One-sided verdict: pass iff ci_low >= theoretical - slack."""
    theory = theoretical_rate(pair, alpha, regular)
    slack = slack_fraction * theory
    return {
        "fitted_rate": summary.rate,
        "rate_ci_low": summary.ci_low,
        "rate_ci_high": summary.ci_high,
        "theoretical_rate": theory,
        "slack": slack,
        "slack_fraction": slack_fraction,
        "regular": regular,
        "alpha": alpha,
        "passed": summary.ci_low >= theory - slack,
    }


def _fit_summary(fit: Optional[DecayFit]) -> Optional[dict]:
    return None if fit is None else asdict(fit)


def _observables(cfg: ExperimentConfig, how_many: int):
    descs = list(cfg.observables)
    if not descs:
        descs = [ObservableConfig(name="affine-bump", params={"radius": 2.0})]
    while len(descs) < how_many:
        descs.append(descs[-1])
    # each distinct (name, params) is built, and its norm estimated, once
    keys = [json.dumps([d.name, d.params], sort_keys=True) for d in descs[:how_many]]
    built = {}
    for key, d in zip(keys, descs):
        if key not in built:
            built[key] = observable_catalog(d.name, d.params)
    return [built[key] for key in keys]


def _run_genericity(cfg, pair, out):
    N = cfg.N_max if cfg.N_max is not None else 20
    report = bd_partial_sums(pair, N)
    rows = [
        (n, df, tf, db, tb)
        for (n, df, tf), (_, db, tb) in zip(report.terms_fwd, report.terms_bwd)
    ]
    _write_csv(out / "genericity.csv", ["n", "dist_fwd", "term_fwd", "dist_bwd", "term_bwd"], rows)
    _write_json(
        out / "genericity.json",
        {
            "partial_sum_fwd": report.partial_sum_fwd,
            "partial_sum_bwd": report.partial_sum_bwd,
            "degenerate": report.degenerate,
            "degenerate_index": report.degenerate_index,
            "tail_bound_fwd": report.tail_bound_fwd,
            "tail_bound_bwd": report.tail_bound_bwd,
        },
    )
    return {}


def _run_green(cfg, pair, out):
    series = QuasiPotentialSeries.calibrate(pair, cfg.depth_n)
    ticks = np.linspace(-cfg.grid_range, cfg.grid_range, cfg.grid_n)
    xs, ys = np.meshgrid(ticks, ticks, indexing="ij")
    xs, ys = xs.ravel(), ys.ravel()
    Z = canonicalize_rows(np.stack([xs, ys, np.ones_like(xs)], axis=1).astype(complex))
    v = v_n_rows(series, Z)
    w = w_n_rows(series, Z)
    chi = chi_A_rows(series, Z, cfg.cutoff_A)
    g = [
        green_plus_henon(pair, (x, y), cfg.green_max_iter, cfg.green_R_escape)
        for x, y in zip(xs, ys)
    ]
    rows = list(zip(xs.tolist(), ys.tolist(), v.tolist(), w.tolist(), chi.tolist(), g))
    _write_csv(out / "green.csv", ["x", "y", "v_n", "w_n", "chi_A", "green_plus"], rows)
    _write_json(out / "green.json", {"shift": series.shift, "depth_n": cfg.depth_n, "A": cfg.cutoff_A})
    return {}


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


def _run_measure(cfg, pair, out):
    plus = approx_T_plus_wedge_omega(pair, cfg.depth_m, cfg.count, cfg.seed, cfg.clip_quantile)
    mu = approx_mu(pair, cfg.depth_m, cfg.count, cfg.seed, cfg.clip_quantile)
    _write_json(out / "measure.json", {"T_plus_wedge_omega": _cloud_summary(plus), "mu": _cloud_summary(mu)})
    if cfg.dump_points:
        for label, cloud in (("t_plus", plus), ("mu", mu)):
            rows = [
                tuple(np.concatenate([p.view(float), [wt]]).tolist())
                for p, wt in zip(cloud.points, cloud.weights)
            ]
            _write_csv(
                out / f"cloud_{label}.csv",
                ["re_z0", "im_z0", "re_z1", "im_z1", "re_z2", "im_z2", "weight"],
                rows,
            )
    return {
        "t_plus": plus.dropped_fraction,
        "mu": mu.dropped_fraction,
    }


def _run_cn(cfg, pair, out):
    n_max = cfg.n_max if cfg.n_max is not None else 10
    (obs,) = _observables(cfg, 1)
    nu_plus = approx_T_plus_wedge_omega(pair, cfg.depth_m, cfg.count, cfg.seed, cfg.clip_quantile)
    seq = c_sequence(pair, obs, n_max, nu_plus)
    rows = [
        (n, seq.c[n], seq.stderr[n], seq.dropped_fraction[n], seq.partial_sums[n])
        for n in range(n_max + 1)
    ]
    _write_csv(out / "cn.csv", ["lag", "value", "stderr", "dropped_fraction", "partial_sum"], rows)
    try:
        fit = decay_fit(seq, seed=cfg.seed)
        verdict = compare_to_theory(fit, pair, cfg.alpha, pair.regular, cfg.slack_fraction)
    except InsufficientSignal as exc:  # a reportable outcome, not a failure
        fit, verdict = None, {"error": type(exc).__name__}
    _write_json(
        out / "cn.json",
        {
            "cloud": _cloud_summary(nu_plus),
            "observable": {"name": obs.name, "smoothness": obs.smoothness, "norm_estimate": obs.norm_estimate},
            "fit": _fit_summary(fit),
            "theory": verdict,
        },
    )
    return {"nu_plus": nu_plus.dropped_fraction, "max_lag": float(seq.dropped_fraction.max())}


def _run_correlation(cfg, pair, out):
    N_max = cfg.N_max if cfg.N_max is not None else 12
    phi, psi = _observables(cfg, 2)
    mu = approx_mu(pair, cfg.depth_m, cfg.count, cfg.seed, cfg.clip_quantile)
    series = correlation_series(pair, phi, psi, N_max, mu)
    _write_csv(
        out / "correlation.csv",
        ["lag", "value", "stderr", "dropped_fraction"],
        series.entries,
    )
    try:
        fit = decay_fit(series, seed=cfg.seed)
        verdict = compare_to_theory(fit, pair, cfg.alpha, pair.regular, cfg.slack_fraction)
    except InsufficientSignal as exc:
        fit, verdict = None, {"error": type(exc).__name__}
    _write_json(
        out / "correlation.json",
        {
            "cloud": _cloud_summary(mu),
            "observables": [
                {"name": o.name, "smoothness": o.smoothness, "norm_estimate": o.norm_estimate}
                for o in (phi, psi)
            ],
            "fit": _fit_summary(fit),
            "theory": verdict,
        },
    )
    return {"mu": mu.dropped_fraction, "max_lag": max(e[3] for e in series.entries)}


_RUNNERS = {
    "genericity": _run_genericity,
    "green": _run_green,
    "measure": _run_measure,
    "cn": _run_cn,
    "correlation": _run_correlation,
}


def run(config: ExperimentConfig) -> RunManifest:
    """Execute one experiment; emits files and returns the manifest."""
    start = time.monotonic()
    pair = build_pair(config.map)
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    dropped = _RUNNERS[config.experiment](config, pair, out)
    digests = {}
    for path in sorted(out.iterdir()):
        if path.suffix in {".csv", ".json"} and path.name != "manifest.json":
            digests[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
    manifest = RunManifest(
        config=config.model_dump(mode="json"),
        version=__version__,
        wall_time_s=time.monotonic() - start,
        dropped_fractions=dropped,
        outputs=digests,
    )
    _write_json(out / "manifest.json", asdict(manifest))
    return manifest
