"""README's library-use snippet runs as written and its configuration reference
shows the defaults, so a signature or default change cannot leave either stale."""
import pathlib
import re

import numpy as np
import yaml

from fedva.calibration import CalibConfig, CalibrationResult
from fedva.config import ScenarioConfig, config_from_dict
from fedva.data import UNLABELED
from fedva.ensemble import EnsembleConfig
from fedva.lcm import GibbsConfig, LcmHyper
from fedva.scenarios import make_scenario
from fedva.simulate import GeneratorSpec, simulate

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def snippet(heading: str, language: str) -> str:
    """The first `language` code block under README's `heading`."""
    section = README.read_text(encoding="utf-8").split(f"## {heading}", 1)[1]
    return re.search(rf"```{language}\n(.*?)```", section, re.S).group(1)


def test_readme_library_snippet_runs_on_a_small_federation():
    sim = simulate(GeneratorSpec(C=3, K=2, p=6, M=2, n_domain=40, n_target=30, seed=0))
    target = make_scenario(sim.target, "random_sample", 0, label_fraction=0.3).dataset
    assert np.any(target.y == UNLABELED) and np.any(target.y != UNLABELED)
    names = {"domains": sim.domains, "target": target}
    exec(compile(snippet("Library use", "python"), str(README), "exec"), names)
    assert names["assigned"].death_ids == target.death_ids
    assert abs(float(names["csmf"].sum()) - 1.0) < 1e-9
    assert names["preds"].death_ids == target.death_ids
    assert isinstance(names["calibrated"], CalibrationResult)
    ids = tuple(d.domain_id for d in sim.domains)  # the summaries', one per column
    assert names["phi"].domain_ids == names["post"].domain_ids == ids
    assert names["preds"].domain_ids == names["calibrated"].domain_ids == ids
    local = f"{target.domain_id}-local"
    assert names["local"].domain_id == local
    assert names["post_domain"].domain_ids == ids + (local,)
    assert abs(float(names["csmf_domain"].sum()) - 1.0) < 1e-9
    # every (target, seed) cell ran, or was skipped whole because its one
    # source summary covers too few causes
    report = names["report"]
    cells = {(r.target_domain, r.seed) for r in report.rows}
    cells |= {(s.target_domain, s.seed) for s in report.skipped if s.method == "*"}
    assert cells == {(d, seed) for d in ids for seed in (0, 1)}
    assert {"bfl-plain", "local-avg", "calib-50"} <= {r.method for r in report.rows}


def test_configuration_reference_shows_the_defaults():
    """README's reference config, less the paths it names, loads, and every
    sampler block it shows holds the defaults, as README says."""
    raw = yaml.safe_load(snippet("Configuration reference", "yaml"))
    del raw["paths"]
    cfg = config_from_dict(raw)
    assert cfg.base_model == LcmHyper() and cfg.min_count == 1
    assert cfg.gibbs == GibbsConfig()
    assert cfg.ensemble == EnsembleConfig()
    assert cfg.calibration == CalibConfig()
    assert cfg.scenario == ScenarioConfig()
