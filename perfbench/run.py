"""fedva benchmark: three CLI workloads, end-to-end metrics, per-layer spans.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Run from the root of a source checkout; the program is imported from its
``src/``. For one workload the script

1. sets the workload up from ``--seed`` in a fresh process (interpreter
   start, imports, ``fedva simulate`` and, for ``center-ensemble``,
   ``fedva train`` of six site summaries);
2. runs the workload's command repeatedly for ``--seconds`` in one more
   process, checking every repetition's outputs (exit code, a finite simplex
   pi, byte-identical outputs across repetitions), and times a fixed
   reference kernel every 50 ms during every untraced repetition;
3. sets the workload up four more times, again each in a fresh process, and
   reports the median of the five set-up times as ``setup_s``. All set-ups
   must produce identical files;
4. prints a table, the versions it ran on, and as the last line one JSON
   object: ``correct``, ``attempted``, ``failed`` and ``metrics``, which holds
   the end-to-end metrics of BENCHMARK.json with ``--trace 0`` and its
   per-layer metrics with ``--trace 1``.

``wall_per_ref`` is the median over repetitions of the command's wall time
(net of the probes) divided by the mean reference-kernel time measured during
it: the command's cost in units of a fixed piece of work, which stays put
while a shared host changes speed. The raw median wall time is printed as
``wall_s`` in the table and is the per-layer metric ``bench.wall_s``.

``attempted``/``failed`` are the operation counts (``ops_attempted`` and
``ops_failed``): one (fold, method) cell on ``lodo-small``, one command on
the other workloads. The process exits 0 only when it printed a result.
"""
from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")
WORKLOAD_SCRIPT = os.path.join(HERE, "workloads.py")
SETUP_REPEATS = 5
SETUP_TIMEOUT_S = 25
TIMED_SLACK_S = 60


def _child(args, timeout):
    """Run a workload process; raises on failure or timeout (the child is killed)."""
    started = time.perf_counter()
    proc = subprocess.run([sys.executable, WORKLOAD_SCRIPT, *args], stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=timeout)
    elapsed = time.perf_counter() - started
    if proc.returncode != 0:
        raise RuntimeError(f"workload process {args[:2]} exited {proc.returncode}:\n"
                           f"{proc.stderr[-3000:]}")
    return elapsed


def tree_digest(path: str) -> str:
    """One hash over every file under `path`, by relative name and content."""
    h = hashlib.sha256()
    for f in sorted(glob.glob(os.path.join(path, "**"), recursive=True)):
        if os.path.isfile(f):
            h.update(os.path.relpath(f, path).encode() + b"\0")
            with open(f, "rb") as fh:
                h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def environment() -> dict:
    """Versions and machine facts recorded with every result."""
    env = {"python": platform.python_version(), "nproc": os.cpu_count()}
    probe = ("import json, numpy, scipy; b = numpy.show_config(mode='dicts')"
             "['Build Dependencies']['blas']; print(json.dumps({'numpy': numpy.__version__,"
             " 'scipy': scipy.__version__, 'blas': b.get('name'),"
             " 'blas_version': b.get('version')}))")
    try:
        out = subprocess.run([sys.executable, "-c", probe], stdout=subprocess.PIPE,
                             stderr=subprocess.DEVNULL, text=True, timeout=60)
        env.update(json.loads(out.stdout))
    except (subprocess.SubprocessError, ValueError):
        pass
    env["src_fedva_lines"] = sum(
        sum(1 for _ in open(f, encoding="utf-8"))
        for f in sorted(glob.glob(os.path.join(ROOT, "src", "fedva", "*.py"))))
    return env


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Set up, time and check one workload; returns the child's raw result."""
    os.makedirs(os.path.join(ROOT, ".bench_work"), exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{name}-{seed}-", dir=os.path.join(ROOT, ".bench_work"))
    try:
        setup_times, digests = [], []

        def set_up(k):
            d = os.path.join(work, f"setup{k}")
            os.makedirs(d)
            setup_times.append(_child(["setup", name, str(seed), d], SETUP_TIMEOUT_S))
            digests.append(tree_digest(d))
            return d

        inputs = set_up(0)
        result_path = os.path.join(work, "result.json")
        _child(["timed", name, str(seed), inputs, str(seconds),
                "1" if trace else "0", result_path], seconds + TIMED_SLACK_S)
        with open(result_path, encoding="utf-8") as fh:
            result = json.load(fh)
        # The other set-ups run after the timed phase, tens of seconds after
        # the first, so that their median spans more than one of the host's
        # speed states, which last seconds.
        for k in range(1, SETUP_REPEATS):
            shutil.rmtree(set_up(k))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result["setup_times"] = setup_times
    if len(set(digests)) != 1:
        result["problems"].append("set-up is not deterministic: repeated set-ups differ")
    return result


def wall_per_ref(walls: list, refs: list) -> float:
    """Median of each repetition's wall time over the reference time during it."""
    return statistics.median(w / r for w, r in zip(walls, refs, strict=True))


def metrics_of(result: dict, spec: dict, trace: bool) -> dict:
    """The metrics block of the final line, in BENCHMARK.json's order and units."""
    if trace:
        return {m["name"]: {"value": result["layers"][m["name"]], "unit": m["unit"]}
                for m in spec["per_layer"]}
    values = {
        "wall_per_ref": wall_per_ref(result["walls"], result["refs"]),
        "setup_s": statistics.median(result["setup_times"]),
        "peak_rss_mb": result["peak_rss_mb"],
        **result["quality"],
    }
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in spec["end_to_end"]}


def final_line(result: dict, spec: dict, trace: bool) -> dict:
    return {
        "correct": not result["problems"] and result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics_of(result, spec, trace),
    }


def print_table(name: str, line: dict, result: dict) -> None:
    print(f"== {name}")
    for metric, v in line["metrics"].items():
        print(f"  {metric:<46} {v['value']:>14.6g} {v['unit']}")
    print(f"  {'ops_attempted':<46} {line['attempted']:>14d} count")
    print(f"  {'ops_failed':<46} {line['failed']:>14d} count")
    print(f"  {'wall_s (raw median)':<46} {statistics.median(result['walls']):>14.6g} s")
    print(f"  {'reference kernel (median)':<46} "
          f"{statistics.median(result['refs']) * 1e3:>14.6g} ms")
    print(f"  repetitions: {len(result['walls'])} untraced, "
          f"{len(result['traced_walls'])} traced")
    for p in result["problems"]:
        print(f"  check failed: {p}")


def main(argv=None) -> int:
    with open(SPEC_PATH, encoding="utf-8") as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "fedva")):
        print(f"benchmark: no fedva sources under {ROOT}/src", file=sys.stderr)
        return 2

    trace = bool(args.trace)
    ok = True
    for name in names if args.workload == "all" else [args.workload]:
        result = run_workload(name, args.seed, args.seconds, trace)
        if not result["quality"]:
            print(f"benchmark: no repetition of {name} passed its checks", file=sys.stderr)
            print("\n".join(result["problems"][:20]), file=sys.stderr)
            return 1
        line = final_line(result, spec, trace)
        ok = ok and line["correct"]
        print_table(name, line, result)
    print("environment: " + json.dumps(environment(), sort_keys=True))
    if args.workload != "all":
        print(json.dumps(line))
    return 0 if ok or args.workload != "all" else 1


if __name__ == "__main__":
    sys.exit(main())
