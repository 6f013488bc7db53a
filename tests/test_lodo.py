from types import SimpleNamespace

import numpy as np
import pytest

from conftest import CL3, SD4, make_dataset
from fedva.calibration import CalibConfig
from fedva.cli import main
from fedva.data import CauseList, Dataset
from fedva.ensemble import EnsembleConfig
from fedva import lodo
from fedva.errors import ConfigError, EmptyCauseForResample, FedvaError, FingerprintMismatch
from fedva.lcm import GibbsConfig, LcmHyper
from fedva.lodo import KNOWN_METHODS, ExperimentReport, MethodResult, run_lodo
from fedva.scenarios import make_scenario

THETA = np.array([
    [0.9, 0.8, 0.1, 0.2],
    [0.1, 0.2, 0.8, 0.7],
    [0.5, 0.1, 0.1, 0.9],
])

TINY_LCM = GibbsConfig(iterations=80, burn_in=40, thin=1, seed=0)
TINY_ENS = EnsembleConfig(chains=2, iterations=150, burn_in=75, seed=0)
TINY_CAL = CalibConfig(iterations=150, burn_in=75, seed=0)


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


def run_small(methods, scenario="random_sample", seeds=(0,), domains=None,
              label_fraction=0.4, workers=1):
    return run_lodo(
        domains if domains is not None else toy_domains(),
        methods, scenario, seeds,
        lcm_hyper=LcmHyper(K=1), lcm_cfg=TINY_LCM,
        ens_cfg=TINY_ENS, calib_cfg=TINY_CAL,
        label_fraction=label_fraction, workers=workers,
    )


def without_runtime(rows):
    return [(r.target_domain, r.method, r.seed, r.scenario, r.csmf_acc, r.top_acc,
             r.balanced_acc) for r in rows]


def test_input_validation():
    doms = toy_domains(2)
    with pytest.raises(FedvaError):
        run_lodo(doms, ["not-a-method"], "random_sample", [0])
    with pytest.raises(FedvaError):
        run_lodo(doms[:1], ["bfl-plain"], "random_sample", [0])
    with pytest.raises(FedvaError, match="more than once"):
        run_lodo(doms, ["bfl-plain", "bfl-plain"], "random_sample", [0])
    with pytest.raises(FedvaError, match="seed is listed more than once"):
        run_lodo(doms, ["bfl-plain"], "random_sample", [0, 1, 0])
    other = Dataset(
        domain_id="odd",
        death_ids=doms[0].death_ids,
        x=doms[0].x,
        y=doms[0].y,
        cause_list=CauseList(("x1", "x2", "x3")),
        symptom_dict=doms[0].symptom_dict,
    )
    with pytest.raises(FingerprintMismatch):
        run_lodo([doms[0], other], ["bfl-plain"], "random_sample", [0])


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_report_layout_and_row_content():
    rep = run_small(["bfl-plain", "local-avg", "calib-50"], seeds=(0, 1))
    assert rep.scenario == "random_sample"
    assert rep.methods == ("bfl-plain", "local-avg", "calib-50")
    assert rep.seeds == (0, 1)
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


@pytest.mark.parametrize("domain", ["dom0", "a,b", 'say "hi"'])
def test_results_csv_reads_back_what_it_wrote(tmp_path, domain):
    rows = (MethodResult(domain, "bfl-plain", 0, "random_sample", 0.75, 0.5, 0.25, 1.5),
            MethodResult("dom1", "calib-50", 3, "random_sample", 0.125, None, None, 0.25))
    rep = ExperimentReport(rows=rows, skipped=(), scenario="random_sample",
                           methods=("bfl-plain", "calib-50"), seeds=(0, 3))
    path = tmp_path / "lodo_results.csv"
    path.write_text(rep.to_csv_text())
    assert path.read_text().endswith("\ndom1,calib-50,3,random_sample,0.125,,,0.250\n")
    assert ExperimentReport.from_csv(path) == rep
    assert main(["report", str(path), "--out", str(tmp_path / "out")]) == 0
    assert (tmp_path / "out" / "lodo_summary.txt").read_text() == rep.summary_text()
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
