import dataclasses
import os
import re
from pathlib import Path

import numpy as np
import pytest
import yaml

from fedva import cli
from fedva.calibration import CalibConfig
from fedva.config import ScenarioConfig, config_from_dict, load_config
from fedva.ensemble import EnsembleConfig, LambdaPrior
from fedva.errors import ConfigError
from fedva.lcm import GibbsConfig, LcmHyper
from fedva.simulate import GeneratorSpec

README = Path(__file__).resolve().parents[1] / "README.md"
BLOCKS = {"base_model": LcmHyper, "gibbs": GibbsConfig, "ensemble": EnsembleConfig,
          "calibration": CalibConfig, "scenario": ScenarioConfig, "generator": GeneratorSpec}


def test_empty_config_takes_every_dataclass_default():
    cfg = config_from_dict({"generator": {}})
    for name, cls in BLOCKS.items():
        assert getattr(cfg, name) == cls(), name
    bare = config_from_dict({})
    assert bare.generator is None
    assert (bare.min_count, bare.seeds, bare.methods) == (1, (0,), ("bfl-plain",))
    assert bare.workers == (os.cpu_count() or 1)
    assert bare.out_dir == "out" and bare.dataset_paths == {}


def test_values_take_the_type_of_their_default():
    cfg = config_from_dict({
        "base_model": {"alpha_sb": 2, "theta_prior": [1, 3]},
        "gibbs": {"iterations": 400.0},
        "ensemble": {"lambda_prior": {"kind": "logistic_normal", "sigma": 2}},
        "generator": {"pi_target": [1, 0, 0], "nu_conc": 3},
    })
    for value, kind in ((cfg.base_model.alpha_sb, float), (cfg.base_model.theta_prior[1], float),
                        (cfg.gibbs.iterations, int), (cfg.ensemble.lambda_prior.sigma, float),
                        (cfg.generator.nu_conc, float)):
        assert type(value) is kind
    assert cfg.ensemble.lambda_prior == LambdaPrior(kind="logistic_normal", sigma=2.0)
    assert cfg.generator.pi_target.dtype == np.float64
    assert cfg.generator.pi_target.tolist() == [1.0, 0.0, 0.0]
    assert config_from_dict({"generator": {"nu": None}}).generator.nu is None


def _readme_config() -> dict:
    text = README.read_text(encoding="utf-8")
    block = re.search(r"## Configuration reference\n\n```yaml\n(.*?)```", text, re.S)
    return yaml.safe_load(block.group(1))


def _documents(got, doc) -> bool:
    if isinstance(doc, dict):
        return all(_documents(getattr(got, key), value) for key, value in doc.items())
    if isinstance(doc, list):
        return list(got) == doc
    return type(got) is type(doc) and got == doc


def test_readme_reference_parses_to_the_values_it_documents(tmp_path, monkeypatch):
    doc = _readme_config()
    monkeypatch.chdir(tmp_path)
    (tmp_path / "data").mkdir()
    paths = doc["paths"]
    for path in [paths["cause_list"], paths["symptom_dict"], *paths["datasets"].values()]:
        (tmp_path / path).write_text("")
    cfg = config_from_dict(doc)

    assert (cfg.cause_list_path, cfg.symptom_dict_path, cfg.summaries_dir, cfg.out_dir) == (
        paths["cause_list"], paths["symptom_dict"], paths["summaries"], paths["out"])
    assert cfg.dataset_paths == paths["datasets"] and cfg.target == doc["target"]
    base = dict(doc["base_model"])
    assert cfg.min_count == base.pop("min_count")
    assert _documents(cfg.base_model, base)
    for name in ("gibbs", "ensemble", "calibration", "scenario", "generator"):
        assert _documents(getattr(cfg, name), doc[name]), name
    assert list(cfg.seeds) == doc["seeds"] and list(cfg.methods) == doc["methods"]
    assert cfg.workers == doc["workers"]
    # "All blocks are optional with the defaults shown above."
    for name, cls in BLOCKS.items():
        assert getattr(cfg, name) == cls(), name
    assert cfg.min_count == config_from_dict({}).min_count


ILL_TYPED = [
    {"ensemble": {"tie_pi": "false"}},
    {"gibbs": {"iterations": 2.5}},
    {"ensemble": {"chains": True}},
    {"workers": True},
    {"generator": {"pi_target": [1, "a", 0]}},
    {"generator": {"pi_target": {"a": 1}}},
    {"scenario": {"seed": 7}},
    {"calibration": {"alpha": "5"}},
    {"calibration": {"alpha": float("inf")}},
    {"calibration": {"alpha": 10**400}},
    {"generator": {"pi_target": [0.5, float("nan"), 0.5]}},
    {"base_model": {"alpha_sb": True}},
    {"base_model": {"min_count": 1.5}},
    {"base_model": {"theta_prior": [1.0]}},
    {"ensemble": {"lambda_prior": {"conc": "high"}}},
    {"ensemble": {"lambda_prior": [1.0]}},
    {"ensemble": {"variant": 3}},
    {"generator": {"theta": [[0.5, 0.5], [0.5]]}},
    {"generator": {"lambda_mix": 0.5}},
    {"seeds": [0, 1.5]},
    {"seeds": [True]},
    {"paths": {"out": 5}},
    {"target": float("inf")},
    {"target": 5},
    {"target": ["a"]},
]


@pytest.mark.parametrize("raw", ILL_TYPED, ids=str)
def test_ill_typed_values_are_config_errors(raw, tmp_path, capsys):
    with pytest.raises(ConfigError):
        config_from_dict(raw)
    path = tmp_path / "bad.yaml"
    path.write_text(yaml.safe_dump(raw))
    assert cli.main(["simulate", "--config", str(path), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: "), err
    assert not (tmp_path / "o").exists()


def test_error_names_the_leaf():
    with pytest.raises(ConfigError, match=r"ensemble\.lambda_prior\.conc"):
        config_from_dict({"ensemble": {"lambda_prior": {"conc": "high"}}})
    with pytest.raises(ConfigError, match=r"unknown key\(s\) \['seed'\] in scenario"):
        config_from_dict({"scenario": {"seed": 7}})
    with pytest.raises(ConfigError, match=r"^target: expected a domain id or null, got inf$"):
        config_from_dict({"target": float("inf")})


def test_seed_flag_reaches_every_seed_leaf(tmp_path, monkeypatch):
    seen = []
    monkeypatch.setattr(cli, "cmd_simulate", lambda cfg, args: seen.append(cfg))
    path = tmp_path / "run.yaml"
    path.write_text(yaml.safe_dump({
        "gibbs": {"seed": 1}, "ensemble": {"seed": 2}, "calibration": {"seed": 3},
        "generator": {"seed": 4}, "seeds": [5, 6],
    }))
    assert cli.main(["simulate", "--config", str(path), "--seed", "9"]) == 0
    (cfg,) = seen
    assert (cfg.gibbs.seed, cfg.ensemble.seed, cfg.calibration.seed,
            cfg.generator.seed, cfg.seeds) == (9, 9, 9, 9, (9,))
    unseeded = load_config(path)
    assert (unseeded.gibbs.seed, unseeded.generator.seed, unseeded.seeds) == (1, 4, (5, 6))
    assert [f.name for f in dataclasses.fields(ScenarioConfig)] == ["kind", "label_fraction"]
