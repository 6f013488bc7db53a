"""Cold start: a `fedva` process imports only what its command runs.

No command loads scipy: its import costs more than numpy's and fedva's
together, and the samplers' special functions (`utils.gammaln`,
`utils.expit`) are numpy code. The process pool loads multiprocessing and
socket, and only a parallel `parallel_map` starts one. Each check runs
`fedva.cli.main` in a fresh interpreter, because this test process has
imported scipy already.
"""
import json
import os
import subprocess
import sys

import pytest

import fedva

SRC = os.path.dirname(os.path.dirname(os.path.abspath(fedva.__file__)))

# Runs each argv of sys.argv[1] (a JSON list) through fedva.cli.main in turn
# and prints, as its last line, the import first and then each command with
# its exit code and the heavy modules loaded by then.
SCRIPT = """
import contextlib, io, json, sys

if sys.argv[2:] == ["block-scipy"]:
    sys.modules["scipy"] = None  # any scipy import raises ImportError

def heavy():
    return sorted(m for m, mod in sys.modules.items() if mod is not None
                  and (m.split(".")[0] == "scipy" or m == "concurrent.futures.process"))

import fedva.cli
steps = [{"argv": ["import fedva.cli"], "rc": 0, "heavy": heavy()}]
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        rc = fedva.cli.main(argv)
    steps.append({"argv": argv, "rc": rc, "heavy": heavy()})
print(json.dumps(steps))
"""


def _config(sparse: bool) -> dict:
    # JSON is valid YAML
    return {
        "paths": {"cause_list": "sim/cause_list.txt", "symptom_dict": "sim/symptom_dict.txt",
                  "datasets": {"domain_1": "sim/domain_1.csv", "domain_2": "sim/domain_2.csv",
                               "target": "sim/target.csv"},
                  "summaries": "out/summaries", "out": "out"},
        "target": "target",
        "base_model": {"K": 2, "sparse": sparse},
        "gibbs": {"iterations": 20, "burn_in": 10, "seed": 3},
        "ensemble": {"chains": 2, "iterations": 40, "burn_in": 20, "seed": 4},
        "calibration": {"iterations": 40, "burn_in": 20, "seed": 5},
        "workers": 1,
    }


def run_fresh(tmp_path, *commands, block_scipy=False) -> list:
    """Simulate a tiny federation, then run `commands`, all in one new interpreter.

    With block_scipy, importing scipy fails in that interpreter.
    """
    (tmp_path / "sim.json").write_text(json.dumps({
        "paths": {"out": "sim"},
        "generator": {"C": 3, "K": 1, "p": 6, "M": 2, "n_domain": 60, "n_target": 30, "seed": 5},
    }))
    for sparse in (False, True):
        (tmp_path / f"run_sparse{int(sparse)}.json").write_text(json.dumps(_config(sparse)))
    steps = [["simulate", "--config", "sim.json"], *commands]
    argv = [sys.executable, "-c", SCRIPT, json.dumps(steps)] + ["block-scipy"] * block_scipy
    proc = subprocess.run(argv, cwd=tmp_path, env=dict(os.environ, PYTHONPATH=SRC),
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    done = json.loads(proc.stdout.strip().splitlines()[-1])
    assert [s["rc"] for s in done] == [0] * len(done), done
    return done


TRAIN = [["train", "--config", "run_sparse0.json", "--domain", d] for d in ("domain_1", "domain_2")]


def test_cli_commands_load_no_scipy_and_no_process_pool(tmp_path):
    steps = run_fresh(tmp_path, *TRAIN,
                      ["ensemble", "--config", "run_sparse0.json", "--variant", "partial"])
    assert [s["argv"][0] for s in steps] == [
        "import fedva.cli", "simulate", "train", "train", "ensemble"]
    for s in steps:
        assert s["heavy"] == [], s["argv"]
    assert (tmp_path / "out" / "ensemble_csmf.csv").is_file()


@pytest.mark.parametrize("command", [
    ["calibrate", "--config", "run_sparse0.json"],
    ["train", "--config", "run_sparse1.json", "--domain", "domain_1"],
], ids=["calibrate", "sparse-train"])
def test_calibrate_and_sparse_train_load_scipy_only_when_they_run(tmp_path, command):
    """The two commands whose special functions once came from scipy.special
    load neither scipy nor the process pool, with scipy importable: the numpy
    code is the only path, not a fallback for when scipy is missing."""
    steps = run_fresh(tmp_path, *TRAIN, command)
    assert steps[-1]["argv"] == command
    for s in steps:
        assert s["heavy"] == [], s["argv"]


def test_every_command_runs_with_scipy_blocked(tmp_path):
    """Dense and sparse training, calibration and both `calib-*` LODO methods
    included: each command exits 0 although scipy cannot be imported."""
    (tmp_path / "lodo.json").write_text(json.dumps({
        "paths": {"cause_list": "sim/cause_list.txt", "symptom_dict": "sim/symptom_dict.txt",
                  "datasets": {"domain_1": "sim/domain_1.csv", "domain_2": "sim/domain_2.csv",
                               "target": "sim/target.csv"},
                  "out": "lodo"},
        "base_model": {"K": 1},
        "gibbs": {"iterations": 10, "burn_in": 5, "seed": 3},
        "ensemble": {"chains": 1, "iterations": 10, "burn_in": 5, "seed": 4},
        "calibration": {"iterations": 10, "burn_in": 5, "seed": 5},
        "methods": ["calib-0.5", "calib-50"],
        "seeds": [0],
        "workers": 1,
    }))
    steps = run_fresh(tmp_path, *TRAIN,
                      ["train", "--config", "run_sparse1.json", "--domain", "domain_1"],
                      ["ensemble", "--config", "run_sparse0.json", "--variant", "partial"],
                      ["classify", "--config", "run_sparse0.json", "--variant", "partial"],
                      ["calibrate", "--config", "run_sparse0.json"],
                      ["lodo", "--config", "lodo.json"],
                      block_scipy=True)
    assert [s["argv"][0] for s in steps] == [
        "import fedva.cli", "simulate", "train", "train", "train", "ensemble", "classify",
        "calibrate", "lodo"]
    for s in steps:
        assert s["heavy"] == [], s["argv"]
    assert (tmp_path / "out" / "calibration.txt").is_file()
    assert (tmp_path / "lodo" / "lodo_results.csv").is_file()
