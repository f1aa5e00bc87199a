import csv
import hashlib
import json
import math
from pathlib import Path

import pytest

from birlab import observables, runner
from birlab.cli import main
from birlab.errors import ConfigInvalid, DegenerateCloud, InsufficientSignal
from birlab.mixing import DecayFit
from birlab.maps import make_henon
from birlab.observables import observable_catalog
from birlab.runner import build_pair, compare_to_theory, load_config

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


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

    good = compare_to_theory(fit(0.40, 0.35, 0.45), henon, 2.0, True)
    assert good["passed"] is True
    assert abs(good["theoretical_rate"] - regular_rate) < 1e-12
    bad = compare_to_theory(fit(0.10, 0.05, 0.15), henon, 2.0, True)
    assert bad["passed"] is False
    generic = compare_to_theory(fit(0.18, 0.16, 0.20), henon, 2.0, False)
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
