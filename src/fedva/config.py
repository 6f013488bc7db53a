"""Structured run configuration: one YAML tree drives every command.

Each block is built from its dataclass: the fields name the allowed keys and
each default gives the type a value must have. Unknown keys and values a cast
would change (``"false"`` for a bool, ``2.5`` for an int) fail loudly before
any work starts. Command-line flags (--seed, --workers, --out) override the
matching leaves; then the base-model, Gibbs, ensemble, calibration and
scenario blocks each run their own ``validate()``, so a value a sampler or
scenario generator would refuse also fails before any data is read.
"""
from __future__ import annotations

import dataclasses
import os
import sys
from dataclasses import dataclass, replace

import numpy as np
import yaml

from .calibration import CalibConfig
from .ensemble import EnsembleConfig
from .errors import ConfigError
from .lcm import GibbsConfig, LcmHyper
from .scenarios import check_scenario
from .simulate import GeneratorSpec

_TOP_KEYS = {"paths", "target", "base_model", "gibbs", "ensemble", "calibration",
             "scenario", "seeds", "methods", "generator", "workers"}
_PATH_KEYS = {"cause_list", "symptom_dict", "datasets", "summaries", "out"}
_EXPECTED = {bool: "true or false", int: "an integer", float: "a finite number", str: "a string"}


@dataclass(frozen=True)
class ScenarioConfig:
    kind: str = "random_sample"
    label_fraction: float = 0.2

    def validate(self) -> None:
        check_scenario(self.kind, self.label_fraction)


@dataclass(frozen=True)
class RunConfig:
    cause_list_path: str | None
    symptom_dict_path: str | None
    dataset_paths: dict
    summaries_dir: str | None
    out_dir: str
    target: str | None
    base_model: LcmHyper
    min_count: int
    gibbs: GibbsConfig
    ensemble: EnsembleConfig
    calibration: CalibConfig
    scenario: ScenarioConfig
    seeds: tuple
    methods: tuple
    generator: GeneratorSpec | None
    workers: int
    raw: dict


def _mapping(block, where: str) -> dict:
    if not isinstance(block, dict):
        raise ConfigError(f"{where} must be a mapping")
    return block


def _check_keys(block: dict, allowed, where: str) -> None:
    unknown = set(block) - set(allowed)
    if unknown:
        raise ConfigError(f"unknown key(s) {sorted(unknown)} in {where}")


def _build(cls, block, where: str):
    """An instance of dataclass `cls` from a config mapping; absent keys keep their defaults."""
    defaults = {f.name: f.default for f in dataclasses.fields(cls)}
    _check_keys(_mapping(block, where), defaults, where)
    return cls(**{key: _cast(defaults[key], value, f"{where}.{key}")
                  for key, value in block.items()})


def _cast(default, value, where: str):
    """`value` read as the type of `default`, or ConfigError if that would change or lose it."""
    if dataclasses.is_dataclass(default):
        return _build(type(default), value, where)
    if default is None:
        return None if value is None else _array(value, where)
    if isinstance(default, tuple):
        if not isinstance(value, (list, tuple)) or len(value) != len(default):
            raise ConfigError(f"{where}: expected a list of {len(default)} numbers, got {value!r}")
        return tuple(_cast(d, v, where) for d, v in zip(default, value))
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if isinstance(default, bool):
        ok = isinstance(value, bool)
    elif isinstance(default, int):
        ok = number and (isinstance(value, int) or value.is_integer())
    elif isinstance(default, float):
        ok = number and abs(value) <= sys.float_info.max
    else:
        ok = isinstance(value, type(default))
    if not ok:
        raise ConfigError(f"{where}: expected {_EXPECTED[type(default)]}, got {value!r}")
    return type(default)(value)


def _array(value, where: str) -> np.ndarray:
    def floats(v):
        return [floats(u) for u in v] if isinstance(v, (list, tuple)) else _cast(0.0, v, where)

    if not isinstance(value, (list, tuple)):
        raise ConfigError(f"{where}: expected an array of numbers, got {value!r}")
    try:
        return np.array(floats(value), dtype=np.float64)
    except ValueError:
        raise ConfigError(f"{where}: rows of the array differ in length") from None


def load_config(path, seed_override: int | None = None,
                workers_override: int | None = None,
                out_override: str | None = None) -> RunConfig:
    """Parse and validate; overrides replace every matching seed leaf."""
    try:
        with open(path, encoding="utf-8") as fh:
            raw = yaml.safe_load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except yaml.YAMLError as exc:
        raise ConfigError(f"{path}: invalid YAML: {exc}") from None
    if raw is None:
        raw = {}
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: config root must be a mapping")
    return config_from_dict(raw, seed_override=seed_override,
                            workers_override=workers_override,
                            out_override=out_override)


def config_from_dict(raw: dict, seed_override: int | None = None,
                     workers_override: int | None = None,
                     out_override: str | None = None) -> RunConfig:
    _check_keys(raw, _TOP_KEYS, "config")

    paths = _mapping(raw.get("paths", {}), "paths")
    _check_keys(paths, _PATH_KEYS, "paths")
    paths = {key: value for key, value in paths.items() if value is not None}
    datasets = paths.pop("datasets", {})
    if not isinstance(datasets, dict) or not all(
        isinstance(k, str) and isinstance(v, str) for k, v in datasets.items()
    ):
        raise ConfigError("paths.datasets must map domain ids to file paths")
    for key, value in paths.items():
        if not isinstance(value, str):
            raise ConfigError(f"paths.{key}: expected a file path, got {value!r}")

    base = dict(_mapping(raw.get("base_model", {}), "base_model"))
    min_count = _cast(1, base.pop("min_count", 1), "base_model.min_count")
    hyper = _build(LcmHyper, base, "base_model")
    gibbs = _build(GibbsConfig, raw.get("gibbs", {}), "gibbs")
    ensemble = _build(EnsembleConfig, raw.get("ensemble", {}), "ensemble")
    calibration = _build(CalibConfig, raw.get("calibration", {}), "calibration")
    scenario = _build(ScenarioConfig, raw.get("scenario", {}), "scenario")
    generator = _build(GeneratorSpec, raw["generator"], "generator") if "generator" in raw else None

    seeds = raw.get("seeds", [0])
    if not isinstance(seeds, list) or not seeds:
        raise ConfigError("seeds must be a non-empty list of integers")
    seeds = [_cast(0, s, "seeds") for s in seeds]
    methods = raw.get("methods", ["bfl-plain"])
    if not isinstance(methods, list) or not all(isinstance(m, str) for m in methods):
        raise ConfigError("methods must be a list of method names")
    workers = _cast(0, raw.get("workers", os.cpu_count() or 1), "workers")
    target = raw.get("target")
    if target is not None and not isinstance(target, str):
        raise ConfigError(f"target: expected a domain id or null, got {target!r}")

    if seed_override is not None:
        gibbs, ensemble, calibration = (replace(block, seed=seed_override)
                                        for block in (gibbs, ensemble, calibration))
        if generator is not None:
            generator = replace(generator, seed=seed_override)
        seeds = [seed_override]
    for block in (hyper, gibbs, ensemble, calibration, scenario):
        block.validate()
    if workers_override is not None:
        workers = workers_override
    if workers < 1:
        raise ConfigError(f"workers must be a positive integer, got {workers}")

    cfg = RunConfig(
        cause_list_path=paths.get("cause_list"),
        symptom_dict_path=paths.get("symptom_dict"),
        dataset_paths=dict(datasets),
        summaries_dir=paths.get("summaries"),
        out_dir=out_override if out_override is not None else paths.get("out", "out"),
        target=target,
        base_model=hyper,
        min_count=min_count,
        gibbs=gibbs,
        ensemble=ensemble,
        calibration=calibration,
        scenario=scenario,
        seeds=tuple(seeds),
        methods=tuple(methods),
        generator=generator,
        workers=workers,
        raw=raw,
    )
    _validate_referenced_files(cfg)
    return cfg


def _validate_referenced_files(cfg: RunConfig) -> None:
    for label, p in (("cause_list", cfg.cause_list_path),
                     ("symptom_dict", cfg.symptom_dict_path)):
        if p is not None and not os.path.isfile(p):
            raise ConfigError(f"paths.{label}: file not found: {p}")
    for domain, p in cfg.dataset_paths.items():
        if not os.path.isfile(p):
            raise ConfigError(f"paths.datasets.{domain}: file not found: {p}")
