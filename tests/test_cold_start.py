"""Cold start: a `fedva` process imports only what its command runs.

scipy's import costs more than numpy's and fedva's together, and the process
pool loads multiprocessing and socket. Only calibration (`log_dirichlet_pdf`'s
`gammaln`) and sparse site training (`expit`) use scipy, and only a parallel
`parallel_map` starts a pool. Each check runs `fedva.cli.main` in a fresh
interpreter, because this test process has imported scipy already.
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

def heavy():
    return sorted(m for m in sys.modules
                  if m.split(".")[0] == "scipy" or m == "concurrent.futures.process")

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


def run_fresh(tmp_path, *commands) -> list:
    """Simulate a tiny federation, then run `commands`, all in one new interpreter."""
    (tmp_path / "sim.json").write_text(json.dumps({
        "paths": {"out": "sim"},
        "generator": {"C": 3, "K": 1, "p": 6, "M": 2, "n_domain": 60, "n_target": 30, "seed": 5},
    }))
    for sparse in (False, True):
        (tmp_path / f"run_sparse{int(sparse)}.json").write_text(json.dumps(_config(sparse)))
    steps = [["simulate", "--config", "sim.json"], *commands]
    proc = subprocess.run([sys.executable, "-c", SCRIPT, json.dumps(steps)], cwd=tmp_path,
                          env=dict(os.environ, PYTHONPATH=SRC), capture_output=True, text=True,
                          timeout=300)
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
    steps = run_fresh(tmp_path, *TRAIN, command)
    for s in steps[:-1]:
        assert s["heavy"] == [], s["argv"]
    assert "scipy.special" in steps[-1]["heavy"]
    assert "concurrent.futures.process" not in steps[-1]["heavy"]
