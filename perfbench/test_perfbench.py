"""Self-tests of the benchmark: span arithmetic, metric names, tiny smoke runs.

    python3 -m pytest -q perfbench
"""
from __future__ import annotations

import itertools
import json
import os
import re
import shutil
import subprocess
import sys

import pytest

import run
import spans
import workloads
from spans import Span, Tracer, layer_metrics, self_times

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

with open(run.SPEC_PATH, encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def test_self_time_subtracts_the_union_of_child_intervals():
    tree = [
        Span("root", 0.0, 10.0, -1),
        Span("a", 1.0, 4.0, 0),
        Span("a.leaf", 2.0, 3.0, 1),
        Span("b", 5.0, 7.0, 0),
        Span("c", 6.0, 8.0, 0),    # overlaps b: the union, not the sum, is covered
        Span("d", 9.5, 12.0, 0),   # runs past its parent: clipped to the parent
    ]
    assert self_times(tree) == pytest.approx([10.0 - 3.0 - 3.0 - 0.5, 2.0, 1.0, 2.0, 2.0, 2.5])


def test_tracer_links_parents_and_layer_metrics_add_outermost_spans():
    ticks = itertools.count()
    tracer = Tracer(clock=lambda: float(next(ticks)))

    def leaf():
        return None

    def inner():
        tracer.call("sweep.log_dirichlet", leaf)
        tracer.call("ensemble.marginal_loglik", leaf)

    class Phi:
        M = 3

    class Cfg:
        chains, iterations, burn_in, thin = 2, 10, 4, 1

    fit = tracer.wrap("ensemble.fit_global", lambda phi, labels, cfg: inner(),
                      spans._fit_global_tag)
    tracer.call("cli.main", lambda: fit(Phi(), None, Cfg()))
    names = [s.name for s in tracer.spans]
    assert names == ["cli.main", "ensemble.fit_global", "sweep.log_dirichlet",
                     "ensemble.marginal_loglik"]
    assert [s.parent for s in tracer.spans] == [-1, 0, 1, 1]
    m = layer_metrics(tracer.spans)
    # clock ticks: main 0-7, fit 1-6, log_dirichlet 2-3, marginal_loglik 4-5
    assert m["ensemble.fit_global.multi.s"] == 5.0
    assert m["ensemble.fit_global.m1.s"] == 0.0
    assert m["ensemble.fit_global.self_s"] == 3.0
    assert m["ensemble.dirichlet_draw_s"] == 1.0
    assert m["ensemble.sweeps"] == 20
    assert m["ensemble.sweep_ms.multi"] == pytest.approx(5.0 / 20 * 1e3)
    assert m["ensemble.marginal_loglik.calls_per_kept_draw"] == pytest.approx(1 / 12)
    assert m["cli.main.self_s"] == 2.0


def test_every_metric_name_is_well_formed_and_declared():
    per_layer = [m["name"] for m in SPEC["per_layer"]]
    end_to_end = [m["name"] for m in SPEC["end_to_end"]]
    assert per_layer == [row[0] for row in spans.LAYER_METRICS]
    emitted = set(layer_metrics([])) | {
        "bench.tracing_overhead_s", "bench.wall_s", "bench.ref_ms"}
    assert emitted == set(per_layer)
    for name in per_layer + end_to_end + [w["name"] for w in SPEC["workloads"]]:
        assert NAME.match(name), name
    assert set(end_to_end) >= {
        "wall_per_ref", "setup_s", "peak_rss_mb", "csmf_acc", "top_acc"}
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def test_install_patches_every_namespace_and_restores_it():
    workloads._import_fedva()
    from fedva import calibration, ensemble, lodo

    original = ensemble.fit_global
    tracer = Tracer()
    with tracer.install():
        assert lodo.fit_global is ensemble.fit_global is calibration.fit_global
        assert ensemble.fit_global is not original
    assert lodo.fit_global is ensemble.fit_global is calibration.fit_global is original


def test_probed_samples_the_host_during_the_call_and_nets_the_probes_out():
    import signal
    import time

    before = signal.getsignal(signal.SIGALRM)
    result, wall, probe = workloads.probed(lambda: time.sleep(0.3) or "done")
    assert result == "done"
    # sleep keeps its deadline across the probes, so the net time is 0.3 s minus them
    assert 0.2 < wall < 0.3
    assert 0 < probe < workloads.PROBE_INTERVAL_S
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    # a call shorter than one interval still gets one probe, after it
    assert workloads.probed(lambda: 7)[0] == 7 and workloads.probed(lambda: 7)[2] > 0


@pytest.mark.filterwarnings("ignore::UserWarning")
@pytest.mark.parametrize("name", list(workloads.TINY))
def test_smoke_run_at_a_tiny_shape(name, tmp_path, monkeypatch):
    w = workloads.TINY[name]
    monkeypatch.chdir(tmp_path)
    workloads.setup(w, seed=0)
    result = workloads.timed(w, seconds=0.0, trace=True)
    assert result["problems"] == [] and result["failed"] == 0
    assert len(result["walls"]) == 2 and len(result["traced_walls"]) == 2
    assert len(result["refs"]) == 2 and min(result["refs"]) > 0
    assert set(result["quality"]) == {"csmf_acc", "top_acc"}
    layers = result["layers"]
    assert set(layers) == {row[0] for row in spans.LAYER_METRICS}
    assert layers["config.load_config.s"] > 0
    if name == "site-train":
        assert layers["lcm.train_lcm.calls"] == 1
        assert layers["ensemble.fit_global.multi.s"] == 0
    elif name == "center-ensemble":
        assert layers["lcm.train_lcm.calls"] == 0
        assert layers["ensemble.fit_global.multi.s"] > 0
        assert all(v == 0 for k, v in layers.items() if k.startswith("calibration."))
    else:
        reps = len(result["walls"]) + len(result["traced_walls"]) + 1  # and the warm-up
        assert layers["lodo.cells"] == result["attempted"] / reps
        assert layers["lodo.cells_skipped"] == 0
        assert layers["ensemble.fit_global.m1.s"] > 0
        assert layers["calibration.fit_calibration.s"] > 0


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_output_checks_ignore_runtime_but_flag_any_other_change(tmp_path, monkeypatch):
    w = workloads.TINY["lodo-small"]
    monkeypatch.chdir(tmp_path)
    workloads.setup(w, seed=1)
    main = workloads._import_fedva().main
    for rep in ("a", "b"):
        assert workloads._cli(main, workloads.command(w, rep)) == 0
    ref = workloads.read_manifest("a")
    ref["lodo_rows"] = workloads._without_runtime(os.path.join("a", "lodo_results.csv"))
    assert workloads.check_outputs(w, "b", ref) == []

    path = os.path.join("b", "lodo_results.csv")
    rows = workloads._read_csv(path)
    rows[1][4] = "0.5"  # a csmf_acc cell
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(",".join(r) for r in rows) + "\n")
    problems = workloads.check_outputs(w, "b", ref)
    assert "lodo_results.csv: differs from the first repetition" in problems
    assert "lodo_results.csv: content does not match its manifest checksum" in problems


def test_final_line_has_exactly_the_contract_keys():
    result = {"walls": [2.0, 1.0, 3.0], "refs": [0.5, 0.5, 2.0], "traced_walls": [],
              "setup_times": [0.5, 0.4, 0.6],
              "peak_rss_mb": 70.0, "quality": {"csmf_acc": 0.9, "top_acc": 0.8},
              "attempted": 3, "failed": 0, "problems": []}
    line = run.final_line(result, SPEC, trace=False)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True
    # per repetition 2/0.5, 1/0.5, 3/2: the median ratio, not a ratio of medians
    assert line["metrics"]["wall_per_ref"] == {"value": 2.0, "unit": "ratio"}
    assert line["metrics"]["setup_s"]["value"] == 0.5
    assert list(line["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(run.SPEC_PATH, tmp_path / "BENCHMARK.json")
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "site-train",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
