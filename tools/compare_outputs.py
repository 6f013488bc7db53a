"""Which outputs of the fedva commands moved between two source trees.

    python3 tools/compare_outputs.py OLD_TREE NEW_TREE --seeds 0 1 2 [--strict] [--tiny]

For each benchmark workload and seed, each tree builds the workload's inputs
in a fresh temporary directory with its own `perfbench/workloads.py` setup,
then runs one fixed list of commands on them with its own `src/`:

- site-train's inputs: `train --domain domain_1`;
- center-ensemble's inputs: `ensemble --variant V` for each of the four
  variants, `ensemble --variant partial` under the logistic-normal lambda
  prior (240 sweeps, burn-in 120: two step adaptations, and burn-in ends
  mid-window), `classify --variant partial` and `calibrate`;
- lodo-small's inputs: `lodo` under each of the three scenarios, and
  `lodo-quoted-ids`, a `lodo` over three of the sites under ids that hold a
  comma, a quote and a space, so the quoted name cells of
  `lodo_results.csv` and `lodo_summary.txt` are compared too.

Each command reads the workload's `run.yaml` with its own patch merged in,
one block deep.

The two trees' inputs are compared first, then every output file. The
report is a Markdown table with one row per output file: "identical"; for a
CSV whose cells differ in numbers only, how many cells moved and their
largest absolute and relative difference; or "differs". `lodo_results.csv`
is compared without its measured `runtime_s` column, and every manifest
without its output checksums (each output is compared on its own).

Exit status: 0, or 1 under --strict when an input or output differs, or 2
when a tree could not build its inputs or a command failed. --tiny uses the
shrunk shapes of the benchmark's self-tests instead of the full ones.
"""
from __future__ import annotations

import argparse
import csv
import json
import math
import os
import subprocess
import sys
import tempfile

WORKLOADS = ("site-train", "center-ensemble", "lodo-small")
SCENARIOS = ("random_sample", "mild_shift", "severe_shift")
LOGISTIC_NORMAL = {"ensemble": {"lambda_prior": {"kind": "logistic_normal"},
                                "iterations": 240, "burn_in": 120}}
QUOTED_IDS = {"paths": {"datasets": {"north, site 1": "sim/domain_1.csv",
                                     'site "2"': "sim/domain_2.csv",
                                     "site 3": "sim/domain_3.csv"}}}


def commands(workload: str) -> list:
    """(output directory, argv, config patch) of each command run on a workload."""
    if workload == "site-train":
        return [("train", ["train", "--domain", "domain_1"], {})]
    if workload == "center-ensemble":
        runs = [(f"ensemble-{v}", ["ensemble", "--variant", v], {})
                for v in ("plain", "partial", "domain", "mix")]
        return runs + [("ensemble-partial-ln", ["ensemble", "--variant", "partial"],
                        LOGISTIC_NORMAL),
                       ("classify-partial", ["classify", "--variant", "partial"], {}),
                       ("calibrate", ["calibrate"], {})]
    return ([(f"lodo-{s}", ["lodo"], {"scenario": {"kind": s}}) for s in SCENARIOS]
            + [("lodo-quoted-ids", ["lodo"], QUOTED_IDS)])


# Runs in a tree of its own: builds one workload's inputs in the working
# directory, runs the commands, and prints each command's exit status as JSON.
RUNNER = r"""
import contextlib, io, json, os, sys, warnings
tree, name, seed, tiny, work, runs = sys.argv[1:]
sys.path[:0] = [os.path.join(tree, "src"), os.path.join(tree, "perfbench")]
import yaml
import fedva.cli
import workloads
if not os.path.abspath(fedva.cli.__file__).startswith(os.path.join(tree, "src") + os.sep):
    sys.exit(f"fedva imported from {fedva.cli.__file__}, not from {tree}")
warnings.simplefilter("ignore")  # short chains warn about R-hat
os.chdir(work)
workloads.setup((workloads.TINY if tiny == "1" else workloads.WORKLOADS)[name], int(seed))
codes = {}
for out, argv, patch in json.loads(runs):
    with open("run.yaml", encoding="utf-8") as fh:
        cfg = yaml.safe_load(fh)
    for key, block in patch.items():
        cfg[key] = {**(cfg.get(key) or {}), **block}
    with open(f"{out}.yaml", "w", encoding="utf-8") as fh:
        yaml.safe_dump(cfg, fh)
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            codes[out] = fedva.cli.main(
                argv + ["--config", f"{out}.yaml", "--out", os.path.join("out", out)])
    except Exception as exc:
        codes[out] = f"{type(exc).__name__}: {exc}"
print(json.dumps(codes))
"""


def start(tree: str, workload: str, seed: int, tiny: bool, work: str) -> subprocess.Popen:
    os.makedirs(work)
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    argv = [sys.executable, "-c", RUNNER, os.path.abspath(tree), workload, str(seed),
            "1" if tiny else "0", work, json.dumps(commands(workload))]
    return subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True)


def finish(proc: subprocess.Popen) -> dict | str:
    """The runner's exit status per command, or why it failed as a whole."""
    out, err = proc.communicate()
    if proc.returncode:
        lines = err.strip().splitlines() or [f"exit {proc.returncode}"]
        return lines[-1]
    return json.loads(out.strip().splitlines()[-1])


def files_under(root: str) -> set:
    return {os.path.relpath(os.path.join(d, f), root)
            for d, _, names in os.walk(root) for f in names}


def _csv_rows(path: str) -> list:
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    if os.path.basename(path) == "lodo_results.csv" and rows and "runtime_s" in rows[0]:
        col = rows[0].index("runtime_s")
        rows = [r[:col] + r[col + 1:] for r in rows]
    return rows


def _manifest(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    doc["outputs"] = sorted(doc.get("outputs", {}))
    return json.dumps(doc, sort_keys=True)


def numeric_difference(old: list, new: list) -> tuple[int, float, float] | None:
    """(cells that differ, largest absolute and relative difference) of two CSVs of
    one shape whose differing cells all parse as finite numbers; else None."""
    if len(old) != len(new) or any(len(a) != len(b) for a, b in zip(old, new)):
        return None
    cells, top_abs, top_rel = 0, 0.0, 0.0
    for row_a, row_b in zip(old, new):
        for a, b in zip(row_a, row_b):
            if a == b:
                continue
            try:
                x, y = float(a), float(b)
            except ValueError:
                return None
            diff = abs(x - y)
            if not math.isfinite(diff):
                return None
            scale = max(abs(x), abs(y))
            cells += 1
            top_abs = max(top_abs, diff)
            top_rel = max(top_rel, diff / scale if scale else 0.0)
    return cells, top_abs, top_rel


def compare_file(old: str, new: str) -> str:
    with open(old, "rb") as fa, open(new, "rb") as fb:
        if fa.read() == fb.read():
            return "identical"
    if old.endswith("_manifest.json"):
        return "identical" if _manifest(old) == _manifest(new) else "differs"
    if old.endswith(".csv"):
        moved = numeric_difference(_csv_rows(old), _csv_rows(new))
        if moved is not None and moved[0] == 0:  # lodo_results.csv less runtime_s
            return "identical"
        if moved is not None:
            return f"{moved[0]} cells, max abs {moved[1]:.3g}, max rel {moved[2]:.3g}"
    return "differs"


def compare_dirs(old: str, new: str) -> list:
    """(relative path, result) of every file in either directory, sorted by path."""
    a, b = files_under(old), files_under(new)
    out = []
    for rel in sorted(a | b):
        if rel not in b:
            out.append((rel, "only in OLD"))
        elif rel not in a:
            out.append((rel, "only in NEW"))
        else:
            out.append((rel, compare_file(os.path.join(old, rel), os.path.join(new, rel))))
    return out


def compare(old_tree: str, new_tree: str, seeds, tiny: bool, work: str) -> tuple[list, bool]:
    """Table rows (workload, seed, command, file, result), and whether anything failed."""
    rows, failed = [], False
    for workload in WORKLOADS:
        for seed in seeds:
            dirs = [os.path.join(work, side, workload, str(seed)) for side in ("old", "new")]
            procs = [start(tree, workload, seed, tiny, d)
                     for tree, d in zip((old_tree, new_tree), dirs)]
            codes = [finish(p) for p in procs]
            broken = [(side, code) for side, code in zip(("OLD", "NEW"), codes)
                      if isinstance(code, str)]
            rows += [(workload, seed, "setup", "", f"{side} failed: {code}")
                     for side, code in broken]
            if broken:
                failed = True
                continue
            inputs = [(rel, r) for rel, r in compare_dirs(*dirs)
                      if not rel.startswith("out" + os.sep)]
            moved = [(rel, r) for rel, r in inputs if r != "identical"]
            rows += [(workload, seed, "inputs", rel, r) for rel, r in moved]
            if not moved:
                rows.append((workload, seed, "inputs", f"{len(inputs)} files", "identical"))
            for out, _, _ in commands(workload):
                if codes[0][out] or codes[1][out]:
                    rows.append((workload, seed, out, "",
                                 f"exit status OLD {codes[0][out]}, NEW {codes[1][out]}"))
                    failed = True
                    continue
                rows += [(workload, seed, out, rel, r) for rel, r in
                         compare_dirs(*(os.path.join(d, "out", out) for d in dirs))]
    return rows, failed


def table(rows: list) -> str:
    lines = ["| workload | seed | command | file | result |", "|---|---|---|---|---|"]
    lines += [f"| {w} | {s} | {c} | {f} | {r} |" for w, s, c, f, r in rows]
    outputs = [r for r in rows if r[2] not in ("inputs", "setup")]
    same = sum(r[4] == "identical" for r in outputs)
    lines += ["", f"{len(outputs)} output files: {same} identical, {len(outputs) - same} moved"]
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("old", help="the tree to compare against (holds src/ and perfbench/)")
    parser.add_argument("new", help="the tree under test")
    parser.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2])
    parser.add_argument("--strict", action="store_true",
                        help="exit 1 when any input or output differs")
    parser.add_argument("--tiny", action="store_true",
                        help="the benchmark self-tests' shrunk shapes")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="compare_outputs-") as work:
        rows, failed = compare(args.old, args.new, args.seeds, args.tiny, work)
    print(table(rows))
    if failed:
        return 2
    return int(args.strict and any(r[4] != "identical" for r in rows))


if __name__ == "__main__":
    sys.exit(main())
