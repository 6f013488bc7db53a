"""README's library-use snippet runs as written, so a signature change cannot leave it stale."""
import pathlib
import re

import numpy as np

from fedva.calibration import CalibrationResult
from fedva.data import UNLABELED
from fedva.scenarios import make_scenario
from fedva.simulate import GeneratorSpec, simulate

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def library_snippet() -> str:
    section = README.read_text(encoding="utf-8").split("## Library use", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_library_snippet_runs_on_a_small_federation():
    sim = simulate(GeneratorSpec(C=3, K=2, p=6, M=2, n_domain=40, n_target=30, seed=0))
    target = make_scenario(sim.target, "random_sample", 0, label_fraction=0.3).dataset
    assert np.any(target.y == UNLABELED) and np.any(target.y != UNLABELED)
    names = {"domains": sim.domains, "target": target,
             "cause_list": sim.cause_list, "symptom_dict": sim.symptom_dict}
    exec(compile(library_snippet(), str(README), "exec"), names)
    assert names["assigned"].death_ids == target.death_ids
    assert abs(float(names["csmf"].sum()) - 1.0) < 1e-9
    assert names["preds"].death_ids == target.death_ids
    assert isinstance(names["calibrated"], CalibrationResult)
    ids = tuple(d.domain_id for d in sim.domains)  # the registry's, one per column
    assert names["phi"].domain_ids == names["post"].domain_ids == ids
    assert names["preds"].domain_ids == names["calibrated"].domain_ids == ids
