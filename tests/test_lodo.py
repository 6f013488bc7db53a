from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import make_dataset
from fedva.calibration import build_predictions
from fedva.cli import main
from fedva.config import config_from_dict
from fedva.data import CauseList, Dataset
from fedva.ensemble import EnsembleConfig, build_phi, fit_single_model, local_rows, run_variant
from fedva import calibration, ensemble, lcm, lodo
from fedva.errors import (
    ConfigError,
    DimensionMismatch,
    DuplicateDomainId,
    EmptyCauseForResample,
    FedvaError,
    FingerprintMismatch,
)
from fedva.lcm import GibbsConfig, LcmHyper, cond_loglik_matrix, train_lcm, train_local
from fedva.lodo import KNOWN_METHODS, ExperimentReport, MethodResult, run_lodo
from fedva.scenarios import make_scenario
from fedva.utils import derive_seed

THETA = np.array([
    [0.9, 0.8, 0.1, 0.2],
    [0.1, 0.2, 0.8, 0.7],
    [0.5, 0.1, 0.1, 0.9],
])

TINY = {  # short chains, in the config file's layout
    "base_model": {"K": 1},
    "gibbs": {"iterations": 80, "burn_in": 40, "thin": 1, "seed": 0},
    "ensemble": {"chains": 2, "iterations": 150, "burn_in": 75, "seed": 0},
    "calibration": {"iterations": 150, "burn_in": 75, "seed": 0},
}
TINY_LCM = GibbsConfig(**TINY["gibbs"])
TINY_ENS = EnsembleConfig(**TINY["ensemble"])


def toy_domains(n_dom=3, n_per=45, seed=0, causes=(0, 1, 2)):
    rng = np.random.default_rng(seed)
    out = []
    for d in range(n_dom):
        y = np.asarray([causes[i % len(causes)] for i in range(n_per)], dtype=np.int32)
        x = (rng.random((n_per, 4)) < THETA[y]).astype(np.uint8)
        out.append(make_dataset(f"dom{d}", x, y))
    return out


def narrow_domain():
    """45 deaths of causes 0 and 1 only; cause 2 has no exemplar."""
    rng = np.random.default_rng(9)
    y = np.asarray([(0, 1)[i % 2] for i in range(45)], dtype=np.int32)
    x = (rng.random((45, 4)) < THETA[y]).astype(np.uint8)
    return make_dataset("narrow", x, y)


def lodo_cfg(methods, scenario="random_sample", seeds=(0,), label_fraction=0.4, workers=1,
             **blocks):
    """A LODO run's settings: TINY's chains, with `blocks` replacing whole blocks."""
    return config_from_dict({
        **TINY, "methods": list(methods), "seeds": list(seeds), "workers": workers,
        "scenario": {"kind": scenario, "label_fraction": label_fraction}, **blocks,
    })


def run_small(methods, scenario="random_sample", seeds=(0,), domains=None,
              label_fraction=0.4, workers=1):
    return run_lodo(domains if domains is not None else toy_domains(),
                    lodo_cfg(methods, scenario, seeds, label_fraction, workers))


def without_runtime(rows):
    return [(r.target_domain, r.method, r.seed, r.scenario, r.csmf_acc, r.top_acc,
             r.balanced_acc) for r in rows]


def test_input_validation():
    doms = toy_domains(2)
    # the request is refused when its settings are built, before run_lodo
    with pytest.raises(ConfigError, match="unknown method 'not-a-method'"):
        lodo_cfg(["not-a-method"])
    with pytest.raises(ConfigError, match="non-empty list"):
        lodo_cfg([])
    with pytest.raises(ConfigError, match="method is listed more than once"):
        lodo_cfg(["bfl-plain", "bfl-plain"])
    with pytest.raises(ConfigError, match="seed is listed more than once"):
        lodo_cfg(["bfl-plain"], seeds=[0, 1, 0])
    with pytest.raises(FedvaError):
        run_lodo(doms[:1], lodo_cfg(["bfl-plain"]))
    other = Dataset(
        domain_id="odd",
        death_ids=doms[0].death_ids,
        x=doms[0].x,
        y=doms[0].y,
        cause_list=CauseList(("x1", "x2", "x3")),
        symptom_dict=doms[0].symptom_dict,
    )
    with pytest.raises(FingerprintMismatch):
        run_lodo([doms[0], other], lodo_cfg(["bfl-plain"]))


def test_repeated_domain_ids_are_refused_before_any_training(monkeypatch):
    def boom(*args, **kwargs):
        raise AssertionError("a base model trained before the domain ids were checked")

    monkeypatch.setattr(lodo, "train_lcm", boom)
    doms = toy_domains(3)
    twin = replace(doms[2], domain_id="dom0")
    for domains in ([doms[0], twin], [doms[0], doms[1], twin]):
        with pytest.raises(DuplicateDomainId):
            run_lodo(domains, lodo_cfg(["bfl-plain"]))


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_report_layout_and_row_content():
    rep = run_small(["bfl-plain", "local-avg", "calib-50"], seeds=(0, 1))
    assert rep.scenario == "random_sample"
    assert not rep.skipped
    # per (fold, seed): bfl-plain, 2 local-one rows, local-avg, calib-50
    assert len(rep.rows) == 3 * 2 * 5
    for r in rep.rows:
        assert 0.0 <= r.csmf_acc <= 1.0
        assert r.runtime_s > 0.0
        assert r.scenario == "random_sample"
        if r.method.startswith("calib"):
            assert r.top_acc is None and r.balanced_acc is None
        else:
            assert 0.0 <= r.top_acc <= 1.0
            assert 0.0 <= r.balanced_acc <= 1.0
    cell = [r for r in rep.rows if r.target_domain == "dom0" and r.seed == 0]
    names = [r.method for r in cell]
    assert names == ["bfl-plain", "local-one:dom1", "local-one:dom2",
                     "local-avg", "calib-50"]


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_local_avg_is_mean_of_constituents():
    rep = run_small(["local-avg"])
    for dom in ("dom0", "dom1", "dom2"):
        rows = [r for r in rep.rows if r.target_domain == dom]
        ones = [r for r in rows if r.method.startswith("local-one:")]
        avg = [r for r in rows if r.method == "local-avg"]
        assert len(ones) == 2 and len(avg) == 1
        assert avg[0].csmf_acc == float(np.mean([r.csmf_acc for r in ones]))
        assert avg[0].top_acc == float(np.mean([r.top_acc for r in ones]))
        assert avg[0].balanced_acc == float(np.mean([r.balanced_acc for r in ones]))
        assert avg[0].runtime_s == pytest.approx(sum(r.runtime_s for r in ones))


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_insufficient_labels_become_skips_not_crashes():
    # 40% of 45 deaths is 18 labeled; shrink to ~3 so domain variants bail out
    rep = run_small(["bfl-plain", "bfl-domain"], label_fraction=0.06)
    assert any(r.method == "bfl-plain" for r in rep.rows)
    assert not any(r.method == "bfl-domain" for r in rep.rows)
    skipped = [s for s in rep.skipped if s.method == "bfl-domain"]
    assert len(skipped) == 3  # one per fold
    assert all("InsufficientLocalLabels" in s.reason for s in skipped)


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_method_order_does_not_change_the_report():
    # label_fraction 0.06 leaves bfl-domain and bfl-mix too few labels, so each
    # cell has two skips whose order is compared too
    shuffled = run_small(["calib-50", "bfl-mix", "local-avg", "bfl-domain", "bfl-plain"],
                         label_fraction=0.06)
    ordered = run_small(["bfl-plain", "bfl-domain", "bfl-mix", "local-avg", "calib-50"],
                        label_fraction=0.06)
    assert [s.method for s in ordered.skipped] == ["bfl-domain", "bfl-mix"] * 3
    assert without_runtime(shuffled.rows) == without_runtime(ordered.rows)
    assert shuffled.skipped == ordered.skipped


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_uncovered_cause_skips_the_fold():
    doms = toy_domains(2)  # both cover all causes
    narrow = narrow_domain()
    rep = run_small(["bfl-plain"], domains=[doms[0], narrow], seeds=(0, 1))
    # fold with target=doms[0] trains only on "narrow" -> cause 2 uncovered
    starred = [s for s in rep.skipped if s.method == "*"]
    assert {s.target_domain for s in starred} == {"dom0"}
    assert len(starred) == 2  # one per seed
    assert all("registry incomplete" in s.reason for s in starred)
    assert {r.target_domain for r in rep.rows} == {"narrow"}


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_unresamplable_target_skips_its_cells_not_the_run():
    narrow = narrow_domain()
    with pytest.raises(EmptyCauseForResample):
        make_scenario(narrow, "mild_shift", 0)
    methods = ["bfl-plain", "local-avg", "calib-50"]
    rep = run_small(methods, scenario="mild_shift", domains=toy_domains(2) + [narrow])
    skipped = [s for s in rep.skipped if s.target_domain == "narrow"]
    assert [s.method for s in skipped] == methods
    assert all(s.seed == 0 and "EmptyCauseForResample" in s.reason for s in skipped)
    assert {r.target_domain for r in rep.rows} == {"dom0", "dom1"}


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_calibration_rows_share_the_prediction_time(monkeypatch):
    # Each clock read advances one unit. Per cell: predictions take one unit,
    # split over the two calib rows, and each fit takes one unit of its own.
    ticks = iter(range(10**6))
    monkeypatch.setattr(lodo, "time", SimpleNamespace(perf_counter=lambda: float(next(ticks))))
    rep = run_small(["calib-0.5", "calib-50"], domains=toy_domains(2))
    assert [r.runtime_s for r in rep.rows] == [1.5] * 4


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_shift_scenarios_use_unlabeled_estimand():
    rep = run_small(["bfl-plain"], scenario="severe_shift")
    assert rep.scenario == "severe_shift"
    assert "unlabeled-subset CSMF" in rep.summary_text()
    rep2 = run_small(["bfl-plain"], scenario="random_sample")
    assert "full-target CSMF" in rep2.summary_text()


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_csv_text_round_trips_every_value():
    rep = run_small(["bfl-plain", "calib-0.5"])
    text = rep.to_csv_text()
    lines = text.strip().split("\n")
    assert lines[0] == "target_domain,method,seed,scenario,csmf_acc,top_acc,balanced_acc,runtime_s"
    assert len(lines) == 1 + len(rep.rows)
    for line, r in zip(lines[1:], rep.rows):
        dom, method, seed, scen, csmf, top, bal, rt = line.split(",")
        assert (dom, method, int(seed), scen) == (r.target_domain, r.method, r.seed, r.scenario)
        assert float(csmf) == r.csmf_acc  # repr() round-trips exactly
        if r.top_acc is None:
            assert top == "" and bal == ""
        else:
            assert float(top) == r.top_acc and float(bal) == r.balanced_acc
        assert float(rt) == pytest.approx(r.runtime_s, abs=5e-4)


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_summary_text_mentions_every_method():
    rep = run_small(["bfl-plain", "local-avg", "calib-50"])
    text = rep.summary_text()
    for token in ("bfl-plain", "local-one:dom1", "local-avg", "calib-50",
                  "all folds pooled:", "target dom0:"):
        assert token in text


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_workers_do_not_change_results():
    a = run_small(["bfl-plain", "calib-50"], seeds=(0, 1), workers=1)
    b = run_small(["bfl-plain", "calib-50"], seeds=(0, 1), workers=2)
    assert without_runtime(a.rows) == without_runtime(b.rows)
    assert a.skipped == b.skipped


def test_known_methods_are_stable():
    assert KNOWN_METHODS == (
        "bfl-plain", "bfl-partial", "bfl-domain", "bfl-mix",
        "local-self", "local-avg", "calib-0.5", "calib-50",
    )


@pytest.mark.parametrize("domain", ["dom0", "a,b", 'say "hi"', "site\rA", "site\nB"])
def test_results_csv_reads_back_what_it_wrote(tmp_path, domain):
    rows = (MethodResult(domain, "bfl-plain", 0, "random_sample", 0.75, 0.5, 0.25, 1.5),
            MethodResult("dom1", "calib-50", 3, "random_sample", 0.125, None, None, 0.25))
    rep = ExperimentReport(rows=rows, skipped=(), scenario="random_sample")
    path = tmp_path / "lodo_results.csv"
    path.write_text(rep.to_csv_text())
    assert path.read_text().endswith("\ndom1,calib-50,3,random_sample,0.125,,,0.250\n")
    assert ExperimentReport.from_csv(path) == rep
    assert main(["report", str(path), "--out", str(tmp_path / "out")]) == 0
    # read as bytes: a text read would turn the id's CR into an LF
    assert (tmp_path / "out" / "lodo_summary.txt").read_bytes().decode() == rep.summary_text()
    assert domain in rep.summary_text()


@pytest.mark.parametrize("row,message", [
    ("dom0,bfl-plain,0,random_sample,0.5,,", "expected 8 cells, got 7"),
    ("dom0,bfl-plain,zero,random_sample,0.5,,,0.1", "zero"),
    ("dom0,bfl-plain,0,random_sample,high,,,0.1", "high"),
    ("", "expected 8 cells, got 0"),
])
def test_malformed_results_csv_names_file_and_line(tmp_path, row, message):
    good = "dom1,bfl-plain,0,random_sample,0.5,0.5,0.5,0.1"
    path = tmp_path / "lodo_results.csv"
    path.write_text(",".join(lodo.RESULT_COLUMNS) + f"\n{good}\n{row}\n{good}\n")
    with pytest.raises(ConfigError, match=f"lodo_results.csv:3: .*{message}"):
        ExperimentReport.from_csv(path)
    assert main(["report", str(path), "--out", str(tmp_path / "out")]) == 1


def _spy_scoring(monkeypatch, events):
    """Record (domain id, rows) of every likelihood evaluation, wherever it is bound."""
    def spy_loglik(s, x):
        events.append(("score", s.domain_id, len(x)))
        return cond_loglik_matrix(s, x)

    monkeypatch.setattr(ensemble, "cond_loglik_matrix", spy_loglik)


@pytest.mark.filterwarnings("ignore::UserWarning")
@pytest.mark.parametrize("scenario", ["random_sample", "mild_shift", "severe_shift"])
def test_each_source_summary_is_scored_once_per_cell(monkeypatch, scenario):
    """All 8 methods of a cell read one build_phi; only models trained in the
    cell (the -local ones) are scored again."""
    events = []

    def spy_scenario(target, *args, **kwargs):
        real = make_scenario(target, *args, **kwargs)
        events.append(("cell", target.domain_id, real.dataset.n))
        return real

    monkeypatch.setattr(lodo, "make_scenario", spy_scenario)
    _spy_scoring(monkeypatch, events)
    rep = run_small(list(KNOWN_METHODS), scenario=scenario, seeds=(0, 1))
    # severe_shift may label too few deaths for a local model in some cells
    assert all("InsufficientLocalLabels" in s.reason for s in rep.skipped)
    assert {"bfl-domain", "bfl-mix", "local-self"} <= {r.method for r in rep.rows}
    cells = [i for i, e in enumerate(events) if e[0] == "cell"]
    assert len(cells) == 3 * 2
    sources = {f"dom{d}" for d in range(3)}
    for start, end in zip(cells, cells[1:] + [len(events)]):
        _, target, n = events[start]
        scored = [e[1:] for e in events[start + 1:end]]
        from_sources = sorted(e for e in scored if e[0] in sources)
        assert from_sources == [(s, n) for s in sorted(sources - {target})]
        assert {d for d, _ in scored} - sources <= {f"{target}-local"}


def test_local_self_alone_scores_no_source_summary(monkeypatch):
    events = []
    _spy_scoring(monkeypatch, events)
    rep = run_small(["local-self"], seeds=(0, 1))
    assert len(rep.rows) == 3 * 2 and not rep.skipped
    assert sorted(d for _, d, _ in events) == sorted([f"dom{d}-local" for d in range(3)] * 2)


def _spy_training(monkeypatch):
    """Record (domain id, death ids, chain settings, min_count) of every train_lcm call."""
    calls = []

    def spy(data, hyper, cfg, min_count=1):
        calls.append((data.domain_id, data.death_ids, cfg, min_count))
        return train_lcm(data, hyper, cfg, min_count)

    monkeypatch.setattr(lcm, "train_lcm", spy)
    monkeypatch.setattr(lodo, "train_lcm", spy)
    return calls


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_a_cell_trains_two_local_models_under_the_gibbs_block(monkeypatch):
    """local-self and bfl-domain share the model of every labeled death and
    bfl-mix trains its own: 2 local models per cell, each under the gibbs
    block and min_count, at the local-model seed of the cell's ensemble seed."""
    calls = _spy_training(monkeypatch)
    rep = run_lodo(toy_domains(), lodo_cfg(["local-self", "bfl-domain", "bfl-mix"],
                                           seeds=(0, 1), base_model={"K": 1, "min_count": 2}))
    assert len(rep.rows) == 3 * 2 * 3 and not rep.skipped
    assert [c[0] for c in calls[:3]] == ["dom0", "dom1", "dom2"]  # the sources
    local = calls[3:]
    assert len(local) == 3 * 2 * 2
    for d, seed in [(d, seed) for d in range(3) for seed in (0, 1)]:
        target = f"dom{d}"
        mine = [c for c in local if c[0] == f"{target}-local"
                and c[2].seed == derive_seed("local-model", target,
                                             derive_seed("lodo-cell", target, seed))]
        assert len(mine) == 2
        masked = make_scenario(toy_domains()[d], "random_sample", seed, label_fraction=0.4)
        labeled = masked.dataset.subset(np.flatnonzero(masked.dataset.labeled_mask))
        assert mine[0][1] == labeled.death_ids  # bfl-domain's, which local-self reads
        assert set(mine[1][1]) < set(labeled.death_ids)  # bfl-mix's part
    for _, _, cfg, min_count in local:
        assert (cfg.iterations, cfg.burn_in, cfg.thin) == (80, 40, 1) and min_count == 2


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_local_self_runs_when_too_few_labels_skip_bfl_domain(monkeypatch):
    calls = _spy_training(monkeypatch)
    # 45 deaths at fraction 0.1 label 5, fewer than 2 * C = 6
    rep = run_small(["bfl-domain", "local-self"], label_fraction=0.1)
    assert [r.method for r in rep.rows] == ["local-self"] * 3
    assert [s.method for s in rep.skipped] == ["bfl-domain"] * 3
    assert all("InsufficientLocalLabels" in s.reason for s in rep.skipped)
    assert [(c[0], len(c[1])) for c in calls[3:]] == [(f"dom{d}-local", 5) for d in range(3)]


def _cell(scenario, seed=3):
    doms = toy_domains()
    # the narrow summary leaves cause 2 uncovered, so its phi column has -inf cells
    sources = [train_lcm(d, LcmHyper(K=1), TINY_LCM) for d in doms[1:] + [narrow_domain()]]
    masked = make_scenario(doms[0], scenario, seed, label_fraction=0.4).dataset
    return sources, masked


@pytest.mark.filterwarnings("ignore::UserWarning")
@pytest.mark.parametrize("scenario", ["random_sample", "mild_shift", "severe_shift"])
@pytest.mark.parametrize("variant", ["plain", "partial", "domain", "mix"])
def test_run_variant_fits_rows_of_the_callers_phi(monkeypatch, scenario, variant):
    """The tensor handed to fit_global is build_phi on the deaths the variant
    fits, in target order, with the local model (if any) appended, and its
    labels are the target's at those rows. Only its rows of unknown cause are
    classified, all of them under plain."""
    sources, masked = _cell(scenario)
    cfg = replace(TINY_ENS, variant=variant, tie_pi=scenario == "random_sample")
    seen = {}
    real_fit = ensemble.fit_global

    def spy_train(data, hyper, cfg, min_count=1):
        seen["local"] = train_lcm(data, hyper, cfg, min_count)
        seen["local_ids"] = data.death_ids
        return seen["local"]

    def spy_fit(phi, labels, cfg, **kw):
        seen["phi"], seen["labels"] = phi, labels
        return real_fit(phi, labels, cfg, **kw)

    def spy_classify(phi, post):
        seen["classified"] = phi
        return real_classify(phi, post)

    real_classify = ensemble.classify
    monkeypatch.setattr(lcm, "train_lcm", spy_train)
    monkeypatch.setattr(ensemble, "fit_global", spy_fit)
    monkeypatch.setattr(ensemble, "classify", spy_classify)
    callers_phi = build_phi(sources, masked)
    local = None
    if variant in ("domain", "mix"):
        chain = GibbsConfig(iterations=cfg.iterations, burn_in=cfg.burn_in, thin=cfg.thin)
        local = train_local(masked, local_rows(masked, cfg), LcmHyper(K=1), chain, cfg.seed)
    post, cls, _ = run_variant(masked, callers_phi, cfg, local)
    phi = seen["phi"]
    where = {d: i for i, d in enumerate(masked.death_ids)}
    fit_idx = np.array([where[d] for d in phi.death_ids])
    labeled = np.flatnonzero(masked.labeled_mask)
    unlabeled = np.flatnonzero(~masked.labeled_mask)
    assert np.all(np.diff(fit_idx) > 0)  # target order
    if variant == "plain":
        assert phi is callers_phi and seen["labels"] is None
    elif variant == "partial":
        assert phi is callers_phi and np.array_equal(seen["labels"], masked.y)
    else:
        # every unlabeled death; mix adds the labeled part it keeps out of the local model
        assert np.isin(unlabeled, fit_idx).all()
        assert np.array_equal(fit_idx, unlabeled) == (variant == "domain")
        assert np.array_equal(seen["labels"], masked.y[fit_idx])
    fit_sources = sources
    if variant in ("domain", "mix"):
        # the local model learns from exactly the labeled deaths the fit leaves out
        held = sorted(set(labeled.tolist()) - set(fit_idx.tolist()))
        assert seen["local_ids"] == tuple(masked.death_ids[i] for i in held)
        fit_sources = sources + [seen["local"]]
    else:
        assert "local" not in seen
    ref = build_phi(fit_sources, masked.subset(fit_idx))
    assert np.array_equal(phi.log_phi, ref.log_phi)
    assert np.array_equal(phi.present, ref.present)
    assert phi.death_ids == ref.death_ids
    assert phi.domain_ids == post.domain_ids == tuple(s.domain_id for s in fit_sources)
    assert cls.death_ids == masked.death_ids
    unknown = (np.arange(phi.n) if variant == "plain"
               else np.flatnonzero(~masked.labeled_mask[fit_idx]))
    assert seen["classified"].death_ids == tuple(phi.death_ids[i] for i in unknown)
    # the same probabilities as classifying every fit row, up to rounding
    assert np.allclose(cls.probs[fit_idx[unknown]], real_classify(phi, post).probs[unknown],
                       rtol=0, atol=1e-12)
    if variant != "plain":
        assert np.array_equal(cls.probs[labeled], np.eye(3)[masked.y[labeled]])


@pytest.mark.filterwarnings("ignore::UserWarning")
@pytest.mark.parametrize("scenario", ["random_sample", "mild_shift", "severe_shift"])
def test_single_model_fits_read_rows_of_the_callers_phi(monkeypatch, scenario):
    """local-avg's columns at the unlabeled rows, and build_predictions'
    columns in target order, are each model's own likelihoods there."""
    sources, masked = _cell(scenario)
    phi = build_phi(sources, masked)
    unlabeled_pos = np.flatnonzero(~masked.labeled_mask)
    unlabeled = phi.rows(unlabeled_pos)
    assert unlabeled.death_ids == masked.subset(unlabeled_pos).death_ids
    ids = tuple(s.domain_id for s in sources)
    assert unlabeled.domain_ids == phi.domain_ids == ids
    for m, s in enumerate(sources):
        assert np.array_equal(unlabeled.log_phi[:, :, m],
                              cond_loglik_matrix(s, masked.x[unlabeled_pos]))
    seen = []

    def spy_single(phi, m, cfg):
        seen.append((phi, m))
        return fit_single_model(phi, m, cfg)

    monkeypatch.setattr(calibration, "fit_single_model", spy_single)
    preds = build_predictions(phi, TINY_ENS)
    assert [m for _, m in seen] == list(range(len(sources)))
    assert preds.death_ids == masked.death_ids and preds.domain_ids == ids
    for (read, m), s in zip(seen, sources):
        assert read is phi
        assert np.array_equal(read.log_phi[:, :, m], cond_loglik_matrix(s, masked.x))
        assert np.array_equal(preds.a[:, :, m], fit_single_model(phi, m, TINY_ENS)[1])


def test_shared_phi_must_match_the_target():
    sources, masked = _cell("severe_shift")
    phi = build_phi(sources, masked)
    other = masked.subset(np.arange(masked.n)[::-1])
    with pytest.raises(DimensionMismatch):
        run_variant(other, phi, TINY_ENS)
