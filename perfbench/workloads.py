"""Workload side of the benchmark: set-up and the timed phase, one per process.

    python3 perfbench/workloads.py setup WORKLOAD SEED DIR
    python3 perfbench/workloads.py timed WORKLOAD SEED DIR SECONDS TRACE RESULT_JSON

`setup` makes the inputs of one workload in DIR from SEED alone, through the
real commands (``fedva simulate``, and ``fedva train`` for the center's
summaries). `timed` repeats the workload's command in-process through
``fedva.cli.main`` until SECONDS have passed, checks every repetition's
outputs, and writes per-repetition wall times (of all but the first, a
warm-up, whose outputs are still checked), failure counts, output quality
and (with TRACE=1) per-layer metrics to RESULT_JSON. With TRACE=1 untraced
and traced repetitions alternate, so the tracing overhead is measured in the
same process.

A shared host runs the same code at different speeds from one second to the
next (on the 2-vCPU reference host in two states about 1.35x apart, each
lasting seconds, with the share of time in each changing from run to run).
So while an untraced repetition runs, a SIGALRM timer interrupts it every
PROBE_INTERVAL_S and times `reference_kernel`, a fixed piece of work of about
1.5 ms. The repetition's wall time minus the probes' time, divided by the mean
probe time, is its cost in units of the reference kernel: a number that
follows the program and not the host's speed at the time.

Everything runs with workers: 1 and BLAS pinned to one thread: on the
reference host (2 shared vCPUs) wall-clock scaling over worker processes is
not steady.
"""
from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import contextlib  # noqa: E402
import csv  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import warnings  # noqa: E402
from dataclasses import dataclass  # noqa: E402

import numpy as np  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

# PHMRC-adult shape: 34 causes, 168 symptoms, about 1,300 deaths per site.
PHMRC = {"C": 34, "p": 168, "n_domain": 1300, "n_target": 1300}
# Test shape of the unit suite: C <= 10, p <= 50.
SMALL = {"C": 10, "p": 50, "n_domain": 600, "n_target": 600}
LODO_METHODS = ["bfl-plain", "bfl-partial", "bfl-domain", "bfl-mix",
                "local-self", "local-avg", "calib-0.5", "calib-50"]


@dataclass(frozen=True)
class Workload:
    """Shapes and sampler lengths; every burn-in is half its iterations."""

    name: str
    generator: dict
    M: int
    K: int
    gibbs: int                # train_lcm iterations (site training)
    ensemble: int = 0         # fit_global iterations per chain
    calibration: int = 0      # fit_calibration iterations


WORKLOADS = {
    w.name: w for w in (
        Workload("site-train", PHMRC, M=1, K=5, gibbs=240),
        Workload("center-ensemble", PHMRC, M=6, K=5, gibbs=40, ensemble=80),
        Workload("lodo-small", SMALL, M=4, K=3, gibbs=40, ensemble=24, calibration=48),
    )
}

# Shrunk sampler lengths for the self-tests' smoke runs.
TINY = {
    "site-train": Workload("site-train", {**SMALL, "n_domain": 120, "n_target": 60},
                           M=1, K=2, gibbs=6),
    "center-ensemble": Workload("center-ensemble", {**SMALL, "n_domain": 150, "n_target": 120},
                                M=3, K=2, gibbs=6, ensemble=8),
    "lodo-small": Workload("lodo-small", {**SMALL, "n_domain": 150},
                           M=3, K=2, gibbs=6, ensemble=6, calibration=8),
}


PROBE_INTERVAL_S = 0.05
_REF_RNG = np.random.default_rng(12345)
_REF_X = _REF_RNG.random((1300, 168))
_REF_B = _REF_RNG.random((168, 5))
_REF_S = _REF_RNG.random((10, 50))


def reference_kernel() -> float:
    """A fixed mix of the program's kind of work, about 1.5 ms on the reference host.

    Two products of a PHMRC-sized indicator matrix with a (p, K) matrix, as in
    site training, then sixty rounds of arithmetic on a (10, 50) array, a
    Dirichlet draw and a little interpreted Python, as in the many small fits
    of a LODO run. It never changes with the program, so its time measures
    only the host's current speed. A kernel of large arrays and a bare Python
    loop alone tracked the LODO run's slowdowns less well (per-run medians of
    the ratio spread 10% instead of 4% on one seed).
    """
    rng = np.random.default_rng(0)
    total = 0.0
    for _ in range(2):
        total += float(np.log(_REF_X @ _REF_B + 1.0).sum())
    for _ in range(60):
        a = np.log1p(-_REF_S) * 0.5 + _REF_S
        total += float(a.sum()) + float(rng.dirichlet(np.ones(10))[0])
        total += max(a.shape) + len([i for i in range(10)])
    return total


def probed(fn, *args):
    """Call fn(*args) while timing `reference_kernel` every PROBE_INTERVAL_S.

    The probe runs in a SIGALRM handler, i.e. in this thread between two
    bytecodes of `fn`. Returns fn's result, the call's wall time minus the
    time spent in probes, and the mean probe time (one probe right after the
    call if the call was shorter than an interval).
    """
    samples = []

    def tick(signum, frame):
        t0 = time.perf_counter()
        reference_kernel()
        samples.append(time.perf_counter() - t0)

    previous = signal.signal(signal.SIGALRM, tick)
    signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
    t0 = time.perf_counter()
    try:
        result = fn(*args)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        wall = time.perf_counter() - t0 - math.fsum(samples)
        signal.signal(signal.SIGALRM, previous)
    if not samples:
        tick(None, None)
    return result, wall, statistics.fmean(samples)


def _import_fedva():
    if not os.path.isdir(os.path.join(SRC, "fedva")):
        raise SystemExit(f"benchmark: no fedva sources under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import fedva.cli
    if not os.path.abspath(fedva.cli.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"benchmark: fedva imported from {fedva.cli.__file__}, not {SRC}")
    return fedva.cli


def _yaml(path, doc) -> None:
    # JSON is valid YAML; the CLI reads it with yaml.safe_load.
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)


def _cli(main, argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(argv)


def run_config(w: Workload, seed: int) -> dict:
    cfg = {
        "paths": {"cause_list": "sim/cause_list.txt", "symptom_dict": "sim/symptom_dict.txt",
                  "summaries": "summaries", "out": "."},
        "base_model": {"K": w.K},
        "gibbs": {"iterations": w.gibbs, "burn_in": w.gibbs // 2, "seed": seed},
        "workers": 1,
    }
    datasets = {f"domain_{m + 1}": f"sim/domain_{m + 1}.csv" for m in range(w.M)}
    if w.name == "center-ensemble":
        datasets["target"] = "target_partial.csv"
        cfg["target"] = "target"
    if w.ensemble:
        cfg["ensemble"] = {"chains": 2, "iterations": w.ensemble,
                           "burn_in": w.ensemble // 2, "seed": seed}
    if w.calibration:
        cfg["calibration"] = {"iterations": w.calibration,
                              "burn_in": w.calibration // 2, "seed": seed}
    if w.name == "lodo-small":
        cfg.update(methods=LODO_METHODS, seeds=[0], scenario={"kind": "severe_shift"})
    cfg["paths"]["datasets"] = datasets
    return cfg


def command(w: Workload, out: str) -> list:
    if w.name == "site-train":
        argv = ["train", "--domain", "domain_1"]
    elif w.name == "center-ensemble":
        argv = ["ensemble", "--variant", "partial"]
    else:
        argv = ["lodo"]
    return argv + ["--config", "run.yaml", "--out", out]


def setup(w: Workload, seed: int) -> None:
    """Make the workload's inputs in the current directory from `seed`."""
    main = _import_fedva().main
    generator = {**w.generator, "M": w.M, "K": w.K, "seed": seed}
    C, p = w.generator["C"], w.generator["p"]
    rng = np.random.default_rng([seed, 1])
    if w.name == "lodo-small":
        # Held-out sites must resemble the others for LODO scores to mean
        # anything, so the sites share one set of symptom profiles and differ
        # in latent-class weights and, mildly, in CSMF (simulate's default
        # draws theta per site).
        theta = np.clip(rng.beta(0.3, 0.3, size=(C, w.K, p)), 0.01, 0.99)
        generator["theta"] = np.broadcast_to(theta, (w.M, C, w.K, p)).round(6).tolist()
    # Site CSMFs from Dirichlet(20), not simulate's Dirichlet(1), so that
    # every cause is present at every site. Training pays a fixed cost per
    # present cause; with Dirichlet(1) a site held 31 to 34 of the 34 causes,
    # depending on the seed, and site-train's time swung by up to 15%. With
    # the fixed scenario seed in run_config, near-even CSMFs also keep the
    # number of unlabeled deaths per LODO fold, which most LODO work scales
    # with, about the same for every seed.
    generator["pi_domains"] = rng.dirichlet(np.full(C, 20.0), size=w.M).tolist()
    _yaml("sim.yaml", {"paths": {"out": "sim"}, "generator": generator})
    if _cli(main, ["simulate", "--config", "sim.yaml"]):
        raise SystemExit("benchmark: fedva simulate failed")
    _yaml("run.yaml", run_config(w, seed))
    if w.name == "center-ensemble":
        from fedva.data import load_cause_list, load_dataset, load_symptom_dictionary, write_dataset
        from fedva.scenarios import make_scenario
        cl = load_cause_list("sim/cause_list.txt")
        sd = load_symptom_dictionary("sim/symptom_dict.txt")
        target = load_dataset("sim/target.csv", cl, sd, domain_id="target")
        write_dataset(make_scenario(target, "random_sample", seed, 0.2).dataset,
                      "target_partial.csv")
        for m in range(w.M):
            argv = ["train", "--config", "run.yaml", "--domain", f"domain_{m + 1}"]
            if _cli(main, argv):
                raise SystemExit(f"benchmark: fedva train of domain_{m + 1} failed")


# ---------------------------------------------------------------- checks


def _sha256(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _read_csv(path) -> list:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.reader(fh))


def _without_runtime(path) -> list:
    rows = _read_csv(path)
    col = rows[0].index("runtime_s")
    return [r[:col] + r[col + 1:] for r in rows]


def _is_simplex(values) -> bool:
    return (all(math.isfinite(v) and v >= 0.0 for v in values)
            and abs(math.fsum(values) - 1.0) <= 1e-8)


def read_manifest(out: str) -> dict:
    names = [f for f in os.listdir(out) if f.endswith("_manifest.json")]
    with open(os.path.join(out, names[0]), encoding="utf-8") as fh:
        return json.load(fh)


def check_outputs(w: Workload, out: str, ref: dict | None) -> list:
    """Problems with one repetition's outputs; `ref` is the first repetition's manifest."""
    problems = []
    manifest = read_manifest(out)
    for name, digest in manifest["outputs"].items():
        if _sha256(os.path.join(out, name)) != digest:
            problems.append(f"{name}: content does not match its manifest checksum")
    if ref is not None:
        if manifest["outputs"].keys() != ref["outputs"].keys():
            problems.append("output file set differs from the first repetition")
        for name, digest in manifest["outputs"].items():
            if name == "lodo_results.csv":  # runtime_s is measured, hence dropped
                if _without_runtime(os.path.join(out, name)) != ref["lodo_rows"]:
                    problems.append(f"{name}: differs from the first repetition")
            elif digest != ref["outputs"].get(name):
                problems.append(f"{name}: differs from the first repetition")
    if w.name == "site-train":
        with open(os.path.join(out, "summaries", "domain_1.summary.json"), encoding="utf-8") as fh:
            doc = json.load(fh)
        for c, nu in enumerate(doc["nu_bar"]):
            if nu is not None and not _is_simplex(nu):
                problems.append(f"summary nu_bar[{c}] is not a simplex")
    elif w.name == "center-ensemble":
        pi = [float(v) for v in _read_csv(os.path.join(out, "ensemble_csmf.csv"))[1][1:]]
        mean = [float(r[1]) for r in _read_csv(os.path.join(out, "ensemble_pi.csv"))[1:]]
        if not (_is_simplex(pi) and _is_simplex(mean)):
            problems.append("ensemble pi is not a finite simplex")
    else:
        for r in _read_csv(os.path.join(out, "lodo_results.csv"))[1:]:
            for v in (r[4], r[5]):
                if v and not 0.0 <= float(v) <= 1.0:
                    problems.append(f"lodo row {r[:3]}: accuracy {v} outside [0, 1]")
    return problems


def lodo_cells(out: str) -> tuple[int, int]:
    """(cells attempted, cells skipped) of one `fedva lodo` run."""
    rows = len(_read_csv(os.path.join(out, "lodo_results.csv"))) - 1
    with open(os.path.join(out, "lodo_summary.txt"), encoding="utf-8") as fh:
        text = fh.read()
    skipped = 0
    if "skipped cells:" in text:
        tail = text.split("skipped cells:", 1)[1].splitlines()[1:]
        skipped = sum(1 for line in tail if line.startswith("  "))
    return rows + skipped, skipped


def quality(w: Workload, out: str) -> dict:
    """csmf_acc and top_acc of the first repetition's outputs."""
    from fedva.data import load_cause_list, load_dataset, load_symptom_dictionary, UNLABELED
    from fedva.metrics import csmf_accuracy, top_cause_accuracy

    cl = load_cause_list("sim/cause_list.txt")
    sd = load_symptom_dictionary("sim/symptom_dict.txt")
    C = len(cl)
    if w.name == "lodo-small":
        rows = _read_csv(os.path.join(out, "lodo_results.csv"))[1:]
        return {"csmf_acc": statistics.fmean(float(r[4]) for r in rows),
                "top_acc": statistics.fmean(float(r[5]) for r in rows if r[5])}
    target = load_dataset("sim/target.csv", cl, sd, domain_id="target")
    truth = np.bincount(target.y, minlength=C) / target.n
    if w.name == "site-train":
        # The trained site model on held-out deaths of the same site.
        from fedva.exchange import import_summary
        from fedva.lcm import cond_loglik_matrix
        s = import_summary(os.path.join(out, "summaries", "domain_1.summary.json"), cl, sd)
        top = np.argmax(cond_loglik_matrix(s, target.x), axis=1)
        est = np.bincount(top, minlength=C) / target.n
        return {"csmf_acc": csmf_accuracy(est, truth),
                "top_acc": top_cause_accuracy(top, target.y)}
    masked = load_dataset("target_partial.csv", cl, sd, domain_id="target")
    est = np.array([float(v) for v in _read_csv(os.path.join(out, "ensemble_csmf.csv"))[1][1:]])
    deaths = _read_csv(os.path.join(out, "ensemble_deaths.csv"))
    top = np.array([cl.index(r[-1]) for r in deaths[1:]])
    unl = masked.y == UNLABELED
    return {"csmf_acc": csmf_accuracy(est, truth),
            "top_acc": top_cause_accuracy(top[unl], target.y[unl])}


# ---------------------------------------------------------------- timed phase


def _attempt(fn, *args):
    """fn's exit code, or the exception it raised: a crash is one failed operation."""
    try:
        return fn(*args)
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"


def timed(w: Workload, seconds: float, trace: bool) -> dict:
    cli = _import_fedva()
    import spans

    min_reps = 5 if trace else 4
    walls, refs, traced_walls, layer_runs, problems = [], [], [], [], []
    attempted = failed = 0
    ref = None
    reference_kernel()  # warm-up
    deadline = time.perf_counter() + seconds
    k = 0
    while k < min_reps or time.perf_counter() < deadline:
        out = os.path.join("out", f"rep{k}")
        argv = command(w, out)
        traced = trace and k % 2 == 1
        tracer = spans.Tracer()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # short chains warn about R-hat
            if traced:
                with tracer.install():
                    t0 = time.perf_counter()
                    code = _attempt(tracer.call, "cli.main", _cli, cli.main, argv)
                    traced_walls.append(time.perf_counter() - t0)
            else:
                code, wall, probe = probed(_attempt, _cli, cli.main, argv)
                if k:  # the first repetition warms lazy imports and caches up
                    walls.append(wall)
                    refs.append(probe)
        rep_problems = [f"command failed: {code}"] if code else check_outputs(w, out, ref)
        cells, skipped = 1, 0
        if w.name == "lodo-small" and not code:
            cells, skipped = lodo_cells(out)
        if ref is None and not rep_problems:
            ref = read_manifest(out)
            ref["dir"] = out
            if w.name == "lodo-small":
                ref["lodo_rows"] = _without_runtime(os.path.join(out, "lodo_results.csv"))
        attempted += cells
        failed += cells if rep_problems else skipped
        problems += [f"rep{k}: {p}" for p in rep_problems]
        if traced:
            layer_runs.append(spans.layer_metrics(tracer.spans))
        if out != (ref or {}).get("dir"):
            shutil.rmtree(out, ignore_errors=True)
        k += 1

    result = {
        "walls": walls,
        "refs": refs,
        "traced_walls": traced_walls,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "quality": quality(w, ref["dir"]) if ref else {},
    }
    if trace:
        layers = {name: statistics.median(r[name] for r in layer_runs)
                  for name in layer_runs[0]}
        layers["bench.tracing_overhead_s"] = (
            statistics.median(traced_walls) - statistics.median(walls))
        layers["bench.wall_s"] = statistics.median(walls)
        layers["bench.ref_ms"] = statistics.median(refs) * 1e3
        result["layers"] = layers
    return result


def main(argv) -> int:
    mode, name, seed, workdir = argv[0], argv[1], int(argv[2]), argv[3]
    w = WORKLOADS[name]
    os.chdir(workdir)
    if mode == "setup":
        setup(w, seed)
        return 0
    seconds, trace, result_path = float(argv[4]), argv[5] == "1", argv[6]
    result = timed(w, seconds, trace)
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
