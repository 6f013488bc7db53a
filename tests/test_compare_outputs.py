"""tools/compare_outputs.py at the benchmark self-tests' shrunk shapes: two
copies of one tree read identical everywhere, and a one-ulp change is seen."""
import pathlib
import re
import shutil
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "compare_outputs.py"

# Appended to a copy's cli.py: the ensemble commands' first CSMF cell one ulp up.
ONE_ULP = '''
import numpy as _np

_run_variant = run_variant


def run_variant(*args, **kwargs):
    post, cls, csmf = _run_variant(*args, **kwargs)
    csmf = csmf.copy()
    csmf[0] = _np.nextafter(csmf[0], 1.0)
    return post, cls, csmf
'''


def tree_copy(dest: pathlib.Path) -> pathlib.Path:
    for part in ("src", "perfbench"):
        shutil.copytree(ROOT / part, dest / part,
                        ignore=shutil.ignore_patterns("__pycache__"))
    return dest


def run_tool(old, new, *extra):
    proc = subprocess.run([sys.executable, str(TOOL), str(old), str(new), "--seeds", "0",
                           "--tiny", *extra], capture_output=True, text=True, timeout=600)
    rows = [line.split(" | ") for line in proc.stdout.splitlines()
            if line.startswith("| ") and not line.startswith("| workload")]
    return proc, [(r[2], r[3], r[4].rstrip(" |")) for r in rows]


def test_two_copies_of_the_tree_are_identical_everywhere(tmp_path):
    old, new = tree_copy(tmp_path / "old"), tree_copy(tmp_path / "new")
    proc, rows = run_tool(old, new, "--strict")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    commands = {c for c, _, _ in rows}
    assert commands == {"inputs", "train", "ensemble-plain", "ensemble-partial",
                        "ensemble-domain", "ensemble-mix", "ensemble-partial-ln",
                        "classify-partial", "calibrate",
                        "lodo-random_sample", "lodo-mild_shift", "lodo-severe_shift",
                        "lodo-quoted-ids"}
    assert {r for _, _, r in rows} == {"identical"}
    assert sum(c == "inputs" for c, _, _ in rows) == 3
    assert "49 output files: 49 identical, 0 moved" in proc.stdout


def test_a_one_ulp_change_is_reported(tmp_path):
    old, new = tree_copy(tmp_path / "old"), tree_copy(tmp_path / "new")
    cli = new / "src" / "fedva" / "cli.py"
    cli.write_text(cli.read_text(encoding="utf-8") + ONE_ULP, encoding="utf-8")
    proc, rows = run_tool(old, new, "--strict")
    assert proc.returncode == 1, proc.stdout + proc.stderr
    moved = [(c, f, r) for c, f, r in rows if r != "identical"]
    assert [(c, f) for c, f, _ in moved] == [
        (f"ensemble-{v}", "ensemble_csmf.csv")
        for v in ("plain", "partial", "domain", "mix", "partial-ln")]
    for _, _, result in moved:
        cells, top_abs, top_rel = re.fullmatch(
            r"(\d+) cells, max abs (\S+), max rel (\S+)", result).groups()
        assert cells == "1" and 0 < float(top_abs) <= 2.0 ** -53  # the cell is below 1
        assert 2.0 ** -54 <= float(top_rel) <= 2.0 ** -52
