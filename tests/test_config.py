import dataclasses
import importlib
import json
import os
import re
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from fedva import cli
from fedva.calibration import CalibConfig
from fedva.config import RunConfig, ScenarioConfig, config_from_dict, load_config
from fedva.ensemble import EnsembleConfig, LambdaPrior
from fedva.errors import ConfigError, InvalidGenerator, InvalidHyper
from fedva.lcm import GibbsConfig, LcmHyper
from fedva.simulate import GeneratorSpec

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"
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
        "gibbs": {"iterations": 400.0, "burn_in": 200},
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


def _readme_block() -> str:
    text = README.read_text(encoding="utf-8")
    return re.search(r"## Configuration reference\n\n```yaml\n(.*?)```", text, re.S).group(1)


def _readme_config() -> dict:
    return yaml.safe_load(_readme_block())


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


@pytest.mark.parametrize("valid, field, bad, error", [
    (LcmHyper(), "K", 0, InvalidHyper),
    (GibbsConfig(), "burn_in", 4000, InvalidHyper),
    (LambdaPrior(), "conc", 0.0, InvalidHyper),
    (EnsembleConfig(), "chains", 0, InvalidHyper),
    (EnsembleConfig(), "thin", 0, InvalidHyper),  # the chain settings, by GibbsConfig's rules
    (CalibConfig(), "burn_in", 2000, InvalidHyper),
    (ScenarioConfig(), "label_fraction", 1.0, InvalidGenerator),
    (GeneratorSpec(), "C", 1, InvalidGenerator),
    (config_from_dict({}), "methods", ("not-a-method",), ConfigError),
    (config_from_dict({}), "methods", ("bfl-plain", "bfl-plain"), ConfigError),
    (config_from_dict({}), "seeds", (0, 1, 0), ConfigError),
    (config_from_dict({}), "workers", 0, ConfigError),
    (config_from_dict({}), "min_count", 0, InvalidHyper),
], ids=lambda v: type(v).__name__ if dataclasses.is_dataclass(v) else None)
def test_settings_refuse_an_invalid_value_when_built_or_replaced(valid, field, bad, error):
    """No settings object, however it is made, holds a value its consumer
    would refuse; so no sampler or LODO run checks one again."""
    with pytest.raises(error):
        dataclasses.replace(valid, **{field: bad})
    if type(valid) is not RunConfig:  # the only one without defaults
        with pytest.raises(error):
            type(valid)(**{field: bad})


# ------------------------------------------------- the YAML loader

needs_libyaml = pytest.mark.skipif(not yaml.__with_libyaml__,
                                   reason="PyYAML is installed without libyaml")


@pytest.fixture(params=["libyaml", "fallback"])
def yaml_loader(request, monkeypatch):
    """load_config under libyaml's parser, or under the pure-Python fallback
    that a PyYAML without libyaml leaves it."""
    if request.param == "libyaml":
        if not yaml.__with_libyaml__:
            pytest.skip("PyYAML is installed without libyaml")
    else:
        monkeypatch.delattr(yaml, "CSafeLoader")
    return request.param


def _same(a, b) -> bool:
    """Equal values of equal types all the way down, arrays by dtype, shape and bytes."""
    if type(a) is not type(b):
        return False
    if dataclasses.is_dataclass(a):
        return all(_same(getattr(a, f.name), getattr(b, f.name)) for f in dataclasses.fields(a))
    if isinstance(a, np.ndarray):
        return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(map(_same, a, b))
    return repr(a) == repr(b)


MALFORMED = {
    "unclosed_flow_mapping": b"gibbs: {iterations: 10\n",
    "tab_indentation": b"gibbs:\n\titerations: 10\n",
    "control_character": b"paths: {out: o\x07ut}\n",
    "two_documents": b"gibbs: {seed: 1}\n---\ngibbs: {seed: 2}\n",
}


@pytest.mark.parametrize("name", MALFORMED)
def test_malformed_yaml_exits_1_with_one_error_line(name, yaml_loader, tmp_path, capsys):
    path = tmp_path / "bad.yaml"
    path.write_bytes(MALFORMED[name])
    out = tmp_path / "o"
    assert cli.main(["simulate", "--config", str(path), "--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err[0].startswith(f"error: {path}: invalid YAML: "), err
    assert sum(line.startswith("error:") for line in err) == 1, err
    assert not out.exists()


def test_config_that_is_not_utf8_exits_1(yaml_loader, tmp_path, capsys):
    path = tmp_path / "latin1.yaml"
    path.write_bytes("generator: {C: 3}\npaths: {out: café}\n".encode("latin-1"))
    out = tmp_path / "o"
    assert cli.main(["simulate", "--config", str(path), "--out", str(out)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"error: {path}: not UTF-8 text (invalid continuation byte)"]
    assert not out.exists()


def test_scalars_resolve_as_yaml_1_1_under_either_loader(yaml_loader, tmp_path):
    path = tmp_path / "run.yaml"
    path.write_bytes("\ufeffensemble: {tie_pi: no}\r\ngibbs: {seed: 1, seed: 2}\r\n".encode())
    cfg = load_config(path)
    assert cfg.ensemble.tie_pi is False and cfg.gibbs.seed == 2
    path.write_text("calibration: {alpha: 1e-3}\n")
    with pytest.raises(ConfigError, match=r"calibration\.alpha: expected a finite number, got '1e-3'"):
        load_config(path)


@needs_libyaml
def test_load_config_parses_with_libyaml(tmp_path, monkeypatch):
    built = []

    class Spy(yaml.CSafeLoader):
        def __init__(self, stream):
            built.append(self)
            super().__init__(stream)

    monkeypatch.setattr(yaml, "CSafeLoader", Spy)
    path = tmp_path / "run.yaml"
    path.write_text("gibbs: {seed: 7}\n")
    assert load_config(path).gibbs.seed == 7
    assert len(built) == 1 and isinstance(built[0], yaml.cyaml.CParser)


def _bench_config(name) -> str:
    workloads = importlib.import_module("workloads")  # perfbench/ is on sys.path
    return json.dumps(workloads.run_config(workloads.WORKLOADS[name], 3), indent=1)


def _generator_config(dump) -> str:
    rng = np.random.default_rng(0)
    theta = np.clip(rng.beta(0.3, 0.3, size=(3, 4, 2, 5)), 0.01, 0.99).round(6)
    return dump({"paths": {"out": "sim"}, "generator": {
        "C": 4, "K": 2, "p": 5, "M": 3, "n_domain": 50, "n_target": 20, "seed": 1,
        "theta": theta.tolist(), "pi_domains": rng.dirichlet(np.full(4, 20.0), size=3).tolist()}})


CONFIG_TEXTS = {
    "readme": _readme_block,
    "site-train": lambda: _bench_config("site-train"),
    "center-ensemble": lambda: _bench_config("center-ensemble"),
    "lodo-small": lambda: _bench_config("lodo-small"),
    "generator-json": lambda: _generator_config(lambda doc: json.dumps(doc, indent=1)),
    "generator-yaml": lambda: _generator_config(yaml.safe_dump),
}


@needs_libyaml
@pytest.mark.parametrize("name", CONFIG_TEXTS)
def test_both_loaders_build_the_same_run_config(name, tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    monkeypatch.chdir(tmp_path)
    path = tmp_path / "run.yaml"
    path.write_text(CONFIG_TEXTS[name](), encoding="utf-8")
    paths = yaml.safe_load(path.read_text(encoding="utf-8")).get("paths", {})
    for file in [paths.get("cause_list"), paths.get("symptom_dict"),
                 *paths.get("datasets", {}).values()]:
        if file is not None:
            (tmp_path / file).parent.mkdir(parents=True, exist_ok=True)
            (tmp_path / file).write_text("")
    fast = load_config(path)
    monkeypatch.delattr(yaml, "CSafeLoader")
    assert _same(fast, load_config(path))


_TEXT = st.text(st.sampled_from("aZ9 _-./:#'\"\\\n\téß中€"), max_size=8)
_TREES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False)
    | st.sampled_from([1e-05, 1e-3, 0.5, 1e300]) | _TEXT,
    lambda kids: st.lists(kids, max_size=4) | st.dictionaries(_TEXT, kids, max_size=4),
    max_leaves=20)


@needs_libyaml
@settings(max_examples=60, deadline=None)
@given(st.dictionaries(_TEXT, _TREES, max_size=5))
def test_both_loaders_read_dumped_trees_alike(tree):
    """A YAML dump reads back as the tree under either loader, and JSON text
    (which YAML 1.1 reads differently, `1e-05` as a string) alike under both."""
    for text in (yaml.safe_dump(tree), yaml.safe_dump(tree, allow_unicode=True),
                 json.dumps(tree), json.dumps(tree, ensure_ascii=False)):
        fast = yaml.load(text, Loader=yaml.CSafeLoader)
        assert _same(fast, yaml.load(text, Loader=yaml.SafeLoader)), text
    assert _same(yaml.load(yaml.safe_dump(tree), Loader=yaml.CSafeLoader), tree)
