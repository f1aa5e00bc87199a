import csv
import hashlib
import json
import math
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from birlab import measure, observables, runner
from birlab.cli import main
from birlab.errors import ConfigInvalid, DegenerateCloud, InsufficientSignal
from birlab.mixing import DecayFit, theoretical_rate
from birlab.maps import make_henon
from birlab.observables import observable_catalog
from birlab.potential import QuasiPotentialSeries
from birlab.runner import build_pair, compare_to_theory, load_config

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
README = Path(__file__).resolve().parent.parent / "README.md"


def _write_config(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


BASE_MAP = {"family": "henon", "params": {"a": 0.3, "p_coeffs": [-1.2, 0.0, 1.0]}}


def test_load_config_minimal(tmp_path):
    cfg = load_config(
        {
            "map": BASE_MAP,
            "experiment": "genericity",
            "seed": 1,
            "output_dir": str(tmp_path),
        }
    )
    assert cfg.seed == 1
    assert cfg.map.family == "henon"


def test_load_config_rejects_missing_seed(tmp_path):
    with pytest.raises(ConfigInvalid):
        load_config({"map": BASE_MAP, "experiment": "genericity", "output_dir": str(tmp_path)})


def test_load_config_rejects_small_count(tmp_path):
    with pytest.raises(ConfigInvalid):
        load_config(
            {
                "map": BASE_MAP,
                "experiment": "measure",
                "seed": 1,
                "count": 10,
                "output_dir": str(tmp_path),
            }
        )


def test_load_config_rejects_unknown_field(tmp_path):
    with pytest.raises(ConfigInvalid):
        load_config(
            {
                "map": BASE_MAP,
                "experiment": "genericity",
                "seed": 1,
                "output_dir": str(tmp_path),
                "bogus": 1,
            }
        )


def test_build_pair_families():
    henon = build_pair(load_config({"map": BASE_MAP, "experiment": "genericity", "seed": 1, "output_dir": "x"}).map)
    assert henon.regular and henon.d == 2
    cremona = build_pair(
        load_config(
            {
                "map": {"family": "cremona_composed", "params": {"unitary_seed": 7}},
                "experiment": "genericity",
                "seed": 1,
                "output_dir": "x",
            }
        ).map
    )
    assert not cremona.regular and cremona.d == 2


def test_cli_genericity_henon_all_zero(tmp_path):
    cfg = _write_config(
        tmp_path / "cfg.json",
        {
            "map": BASE_MAP,
            "experiment": "genericity",
            "seed": 5,
            "N_max": 12,
            "output_dir": str(tmp_path / "out"),
        },
    )
    assert main(["genericity", "--config", cfg]) == 0
    with open(tmp_path / "out" / "genericity.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 13
    for row in rows:
        assert float(row["term_fwd"]) == 0.0
        assert float(row["term_bwd"]) == 0.0
    summary = json.loads((tmp_path / "out" / "genericity.json").read_text())
    assert summary["degenerate"] is False
    assert summary["partial_sum_fwd"] == 0.0


def test_cli_exit_2_on_bad_config(tmp_path):
    cfg = _write_config(tmp_path / "cfg.json", {"experiment": "genericity"})
    assert main(["genericity", "--config", cfg]) == 2


def test_cli_exit_3_on_experiment_failure(tmp_path):
    # the escape-rate computation is Henon-only; running it on the other
    # family is a well-formed config that fails downstream
    cfg = _write_config(
        tmp_path / "cfg.json",
        {
            "map": {"family": "cremona_composed", "params": {"unitary_seed": 7}},
            "experiment": "green",
            "seed": 5,
            "grid_n": 4,
            "output_dir": str(tmp_path / "out"),
        },
    )
    assert main(["green", "--config", cfg]) == 3


def test_cli_seed_and_out_overrides(tmp_path):
    cfg = _write_config(
        tmp_path / "cfg.json",
        {
            "map": BASE_MAP,
            "experiment": "genericity",
            "seed": 5,
            "output_dir": str(tmp_path / "ignored"),
        },
    )
    out = tmp_path / "chosen"
    assert main(["genericity", "--config", cfg, "--seed", "9", "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["seed"] == 9


def test_run_determinism_byte_identical(tmp_path):
    payload = {
        "map": BASE_MAP,
        "experiment": "correlation",
        "seed": 7,
        "depth_m": 1,
        "count": 20000,
        "N_max": 3,
        "observables": [
            {"name": "fs-coordinate", "params": {"index": 0}},
            {"name": "fs-coordinate", "params": {"index": 1}},
        ],
    }
    digests = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        cfg = _write_config(tmp_path / f"{sub}.json", {**payload, "output_dir": str(out)})
        assert main(["correlation", "--config", cfg]) == 0
        digests.append(
            {
                p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                for p in sorted(out.iterdir())
                if p.name != "manifest.json"
            }
        )
    assert digests[0] == digests[1]
    manifest = json.loads((tmp_path / "a" / "manifest.json").read_text())
    for name, digest in manifest["outputs"].items():
        assert digests[0][name] == digest


def test_correlation_builds_each_observable_once(tmp_path, monkeypatch):
    # correlation_henon.json lists the same bump twice
    calls = []
    estimate_norm = observables.estimate_norm

    def counted(*args, **kwargs):
        calls.append(args)
        return estimate_norm(*args, **kwargs)

    monkeypatch.setattr(observables, "estimate_norm", counted)
    config = str(CONFIGS / "correlation_henon.json")
    assert main(["correlation", "--config", config, "--out", str(tmp_path / "once")]) == 0
    assert len(calls) == 1
    # one build per listed observable, as before the dedupe, writes the same bytes
    monkeypatch.setattr(
        runner, "_observables",
        lambda cfg, how_many: [observable_catalog(d.name, d.params) for d in cfg.observables],
    )
    assert main(["correlation", "--config", config, "--out", str(tmp_path / "each")]) == 0
    assert len(calls) == 3
    for name in ("correlation.csv", "correlation.json"):
        assert (tmp_path / "once" / name).read_bytes() == (tmp_path / "each" / name).read_bytes()


def test_run_measure_emits_summary(tmp_path):
    cfg = _write_config(
        tmp_path / "cfg.json",
        {
            "map": BASE_MAP,
            "experiment": "measure",
            "seed": 3,
            "depth_m": 1,
            "count": 2000,
            "output_dir": str(tmp_path / "out"),
        },
    )
    assert main(["measure", "--config", cfg]) == 0
    summary = json.loads((tmp_path / "out" / "measure.json").read_text())
    for key in ("T_plus_wedge_omega", "mu"):
        assert abs(summary[key]["raw_mean"] - 1.0) < 0.5
        assert summary[key]["ess"] >= 1.0


def test_compare_to_theory_rules():
    henon = make_henon(0.3, [-1.2, 0.0, 1.0])
    regular_rate = 0.5 * math.log(2)

    def fit(rate, ci_low, ci_high):
        return DecayFit(
            rate=rate, intercept=0.0, r_squared=0.99,
            ci_low=ci_low, ci_high=ci_high, fit_window=(0, 8),
        )

    good = compare_to_theory(fit(0.40, 0.35, 0.45), henon, 2.0)
    assert good["passed"] is True
    assert abs(good["theoretical_rate"] - regular_rate) < 1e-12
    bad = compare_to_theory(fit(0.10, 0.05, 0.15), henon, 2.0)
    assert bad["passed"] is False
    generic = compare_to_theory(fit(0.18, 0.16, 0.20), replace(henon, regular=False), 2.0)
    assert generic["passed"] is True


FIT_CONFIGS = {
    "cn": {"n_max": 3, "observables": [{"name": "fs-coordinate", "params": {"index": 0}}]},
    "correlation": {
        "N_max": 3,
        "count": 20000,
        "observables": [
            {"name": "fs-coordinate", "params": {"index": 0}},
            {"name": "fs-coordinate", "params": {"index": 1}},
        ],
    },
}


def _fit_config(tmp_path, experiment):
    payload = {
        "map": BASE_MAP,
        "experiment": experiment,
        "seed": 3,
        "depth_m": 1,
        "count": 2000,
        "output_dir": str(tmp_path / "out"),
        **FIT_CONFIGS[experiment],
    }
    return _write_config(tmp_path / "cfg.json", payload)


def _raise(exc):
    def fit(*args, **kwargs):
        raise exc

    return fit


@pytest.mark.parametrize("experiment", sorted(FIT_CONFIGS))
def test_insufficient_signal_is_a_reported_outcome(tmp_path, monkeypatch, experiment):
    monkeypatch.setattr(runner, "decay_fit", _raise(InsufficientSignal("flat series")))
    assert main([experiment, "--config", _fit_config(tmp_path, experiment)]) == 0
    summary = json.loads((tmp_path / "out" / f"{experiment}.json").read_text())
    assert summary["fit"] is None
    assert summary["theory"] == {"error": "InsufficientSignal"}


@pytest.mark.parametrize("experiment", sorted(FIT_CONFIGS))
def test_other_fit_errors_propagate(tmp_path, monkeypatch, experiment):
    cfg = _fit_config(tmp_path, experiment)
    monkeypatch.setattr(runner, "decay_fit", _raise(DegenerateCloud("weights collapsed")))
    assert main([experiment, "--config", cfg]) == 3
    monkeypatch.setattr(runner, "decay_fit", _raise(ZeroDivisionError("bug")))
    with pytest.raises(ZeroDivisionError):
        main([experiment, "--config", cfg])


def _fixed_fit(*args, **kwargs):
    return DecayFit(rate=0.4, intercept=0.0, r_squared=0.99, ci_low=0.35, ci_high=0.45, fit_window=(0, 3))


@pytest.mark.parametrize(
    "experiment, observables, alpha",
    [
        ("cn", [{"name": "holder-crease", "params": {"alpha": 0.5}}], 0.5),
        ("cn", [{"name": "fs-coordinate", "params": {"index": 0}}], 2.0),
        (
            "correlation",
            [
                {"name": "fs-coordinate", "params": {"index": 0}},
                {"name": "holder-crease", "params": {"alpha": 0.75}},
            ],
            0.75,
        ),
    ],
)
def test_theory_alpha_comes_from_the_observables(tmp_path, monkeypatch, experiment, observables, alpha):
    monkeypatch.setattr(runner, "decay_fit", _fixed_fit)
    cfg = _fit_config(tmp_path, experiment)
    payload = json.loads(Path(cfg).read_text())
    payload["observables"] = observables
    assert main([experiment, "--config", _write_config(tmp_path / "cfg.json", payload)]) == 0
    theory = json.loads((tmp_path / "out" / f"{experiment}.json").read_text())["theory"]
    assert theory["alpha"] == alpha
    assert theory["theoretical_rate"] == theoretical_rate(build_pair(load_config(payload).map), alpha)


def test_readme_config_table_lists_every_field():
    text = README.read_text()
    (count,) = re.findall(r"A config has (\d+) fields", text)
    table = text[text.index("| field | default | read by |"):].split("\n\n")[0]
    names = re.findall(r"^\| `(\w+)` \|", table, flags=re.M)
    assert names == list(runner.ExperimentConfig.model_fields)
    assert int(count) == len(names)


def test_config_alpha_field_is_gone(tmp_path):
    payload = json.loads(Path(_fit_config(tmp_path, "cn")).read_text())
    with pytest.raises(ConfigInvalid):
        load_config({**payload, "alpha": 0.5})


@pytest.mark.parametrize(
    "config, field, value",
    [
        ("measure_henon", "dump_points", True),
        ("measure_henon", "clip_quantile", 0.999),
        ("cn_henon", "slack_fraction", 0.2),
        ("green_henon", "green_max_iter", 400),
        ("green_henon", "green_R_escape", 100.0),
    ],
)
def test_removed_config_fields_are_rejected(tmp_path, config, field, value):
    payload = json.loads((CONFIGS / f"{config}.json").read_text())
    payload[field] = value
    with pytest.raises(ConfigInvalid, match=field):
        load_config(payload)
    cfg = _write_config(tmp_path / "cfg.json", {**payload, "output_dir": str(tmp_path / "out")})
    assert main([payload["experiment"], "--config", cfg]) == 2
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "config, field, value",
    [
        ("measure_henon", "depth_m", -1),
        ("measure_henon", "seed", -1),
        ("cn_henon", "n_max", -1),
        ("correlation_henon", "N_max", -1),
        ("genericity_henon", "N_max", -1),
        ("green_henon", "depth_n", -1),
        ("green_henon", "grid_n", 0),
        ("green_henon", "grid_n", -1),
        ("green_henon", "cutoff_A", 0.0),
        ("green_henon", "grid_range", 0.0),
        ("green_henon", "grid_range", -2.0),
    ],
)
def test_out_of_range_config_values_are_rejected(tmp_path, config, field, value):
    payload = json.loads((CONFIGS / f"{config}.json").read_text())
    payload[field] = value
    with pytest.raises(ConfigInvalid, match=field):
        load_config(payload)
    cfg = _write_config(tmp_path / "cfg.json", {**payload, "output_dir": str(tmp_path / "out")})
    assert main([payload["experiment"], "--config", cfg]) == 2


@pytest.mark.parametrize(
    "family, params, unknown",
    [
        ("henon", {"A": 0.5, "p_coefs": [0.0, 0.0, 1.0]}, "['A', 'p_coefs']"),
        ("henon", {"a": 0.3, "p_coeffs": [-1.2, 0.0, 1.0], "degree": 2}, "['degree']"),
        ("cremona_composed", {"unitary_sed": 7}, "['unitary_sed']"),
    ],
)
def test_unknown_map_parameters_are_rejected(tmp_path, family, params, unknown):
    payload = {
        "map": {"family": family, "params": params},
        "experiment": "genericity",
        "seed": 1,
        "output_dir": str(tmp_path / "out"),
    }
    with pytest.raises(ConfigInvalid, match=re.escape(unknown)):
        build_pair(load_config(payload).map)
    assert main(["genericity", "--config", _write_config(tmp_path / "cfg.json", payload)]) == 2


def test_cn_csv_cells_are_plain_numbers(tmp_path):
    # the cn series holds numpy scalars; each cell must still be a number
    assert main(["cn", "--config", _fit_config(tmp_path, "cn")]) == 0
    with open(tmp_path / "out" / "cn.csv") as fh:
        header, *rows = list(csv.reader(fh))
    assert header == ["lag", "value", "stderr", "dropped_fraction", "partial_sum"]
    assert len(rows) == 4
    for row in rows:
        for cell in row:
            float(cell)


@pytest.mark.parametrize(
    "config, change, where, field",
    [
        ("genericity_henon", {"params": {"a": 0.3, "p_coeffs": 5}}, "map.params", "p_coeffs"),
        ("genericity_cremona", {"params": {"unitary_seed": "x"}}, "map.params", "unitary_seed"),
        ("cn_henon", {"name": "affine-bump", "params": {"cx": [0.1, 0.2]}}, "observables.0", "cx"),
        ("genericity_henon", {"params": {"a": 0, "p_coeffs": [-1.2, 0.0, 1.0]}}, "map.params", "parameter a "),
        ("cn_henon", {"name": "affine-bump", "params": {"radius": 0}}, "observables.0", "radius"),
        ("cn_henon", {"name": "affine-bump", "params": {"raduis": 2}}, "observables.0", "raduis"),
        (
            "cn_henon",
            {"name": "affine-bump", "params": {"radius": 0.05, "chart": 1, "cx": 1.5, "cy": 0.5}},
            "observables.0",
            "affine-bump",
        ),
    ],
    ids=[
        "p_coeffs-not-a-list", "unitary_seed-not-an-int", "cx-a-pair", "a-zero", "radius-zero", "raduis-unknown",
        "bump-off-the-norm-grid",
    ],
)
def test_bad_map_and_observable_values_are_config_errors(tmp_path, capsys, config, change, where, field):
    payload = json.loads((CONFIGS / f"{config}.json").read_text())
    if where == "map.params":
        payload["map"] = {**payload["map"], **change}
    else:
        payload["observables"] = [change]
    cfg = _write_config(tmp_path / "cfg.json", {**payload, "output_dir": str(tmp_path / "out")})
    assert main([payload["experiment"], "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {where}: ") and field in err
    assert not (tmp_path / "out").exists()


def test_manifest_lists_only_the_files_its_run_wrote(tmp_path):
    out = tmp_path / "shared"
    expected = {"genericity_henon": ["genericity.csv", "genericity.json"], "measure_henon": ["measure.json"]}
    for config, names in expected.items():
        cfg = load_config(json.loads((CONFIGS / f"{config}.json").read_text()) | {"output_dir": str(out)})
        manifest = runner.run(cfg)
        assert json.loads((out / "manifest.json").read_text()) == manifest
        assert sorted(manifest["outputs"]) == names
        for name, digest in manifest["outputs"].items():
            assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest
    # the first run's files are still there, only no longer listed
    assert {p.name for p in out.iterdir()} == {"genericity.csv", "genericity.json", "measure.json", "manifest.json"}


def test_lab_measure_exits_3_on_a_degenerate_cloud(tmp_path, monkeypatch):
    chain = measure.pullback_chain

    def zero_forms(pair, Z0, m, direction="fwd"):
        H, alive = chain(pair, Z0, m, direction)
        return np.zeros_like(H), alive

    monkeypatch.setattr(measure, "pullback_chain", zero_forms)
    config = str(CONFIGS / "measure_henon.json")
    assert main(["measure", "--config", config, "--out", str(tmp_path / "out")]) == 3


@pytest.mark.parametrize("grid_n, from_grid", [(16, False), (32, True), (33, True), (64, True)])
def test_lab_green_takes_its_shift_over_the_discs_and_the_grid(tmp_path, grid_n, from_grid):
    # the 128^2 calibration discs peak above the shipped 16 x 16 grid and below the others
    calibrated = QuasiPotentialSeries.calibrate(make_henon(0.3, [-1.2, 0.0, 1.0]), 4).shift
    payload = json.loads((CONFIGS / "green_henon.json").read_text())
    cfg = _write_config(tmp_path / "cfg.json", {**payload, "grid_n": grid_n, "output_dir": str(tmp_path / "out")})
    assert main(["green", "--config", cfg]) == 0
    shift = json.loads((tmp_path / "out" / "green.json").read_text())["shift"]
    with open(tmp_path / "out" / "green.csv") as fh:
        rows = list(csv.DictReader(fh))
    v, w = (np.array([float(row[key]) for row in rows]) for key in ("v_n", "w_n"))
    assert len(rows) == grid_n * grid_n and np.isfinite(w).any()
    assert np.all(w[np.isfinite(w)] <= -1.0)
    if from_grid:
        assert shift > calibrated
        assert np.max(v[np.isfinite(v)]) == pytest.approx(-math.e, abs=1e-12)
    else:
        assert shift == calibrated
