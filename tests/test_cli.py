import json
import os
import subprocess
import sys

import numpy as np
import pytest
import yaml

from fedva import calibration, cli, ensemble, lcm, lodo
from fedva.cli import main
from fedva.data import (
    UNLABELED,
    Dataset,
    load_cause_list,
    load_dataset,
    load_symptom_dictionary,
    write_dataset,
)
from fedva.ensemble import EnsembleConfig, local_rows
from fedva.lcm import train_lcm
from fedva.lodo import ExperimentReport
from fedva.utils import canonical_json, derive_seed, sha256_hex

pytestmark = pytest.mark.filterwarnings("ignore::UserWarning")


def run_cli(*argv):
    return main([str(a) for a in argv])


@pytest.fixture(scope="module")
def ws(tmp_path_factory):
    """Simulate two domains + target, train both base models, stage a config."""
    root = tmp_path_factory.mktemp("cli")
    sim_dir = root / "sim"
    sim_cfg = root / "simulate.yaml"
    sim_cfg.write_text(yaml.safe_dump({
        "paths": {"out": str(sim_dir)},
        "generator": {"C": 3, "K": 1, "p": 6, "M": 2,
                      "n_domain": 60, "n_target": 30, "seed": 5},
    }))
    assert run_cli("simulate", "--config", sim_cfg) == 0

    cl = load_cause_list(sim_dir / "cause_list.txt")
    sd = load_symptom_dictionary(sim_dir / "symptom_dict.txt")
    target = load_dataset(sim_dir / "target.csv", cl, sd, domain_id="target")
    y = target.y.copy()
    y[12:] = UNLABELED
    write_dataset(
        Dataset("target", target.death_ids, target.x, y, cl, sd),
        root / "target_partial.csv",
    )

    cfg = {
        "paths": {
            "cause_list": str(sim_dir / "cause_list.txt"),
            "symptom_dict": str(sim_dir / "symptom_dict.txt"),
            "datasets": {
                "domain_1": str(sim_dir / "domain_1.csv"),
                "domain_2": str(sim_dir / "domain_2.csv"),
                "target": str(root / "target_partial.csv"),
            },
            "summaries": str(root / "summaries"),
            "out": str(root / "out"),
        },
        "target": "target",
        "base_model": {"K": 1},
        "gibbs": {"iterations": 120, "burn_in": 60, "seed": 3},
        "ensemble": {"chains": 2, "iterations": 200, "burn_in": 100, "seed": 4},
        "calibration": {"iterations": 150, "burn_in": 75, "seed": 5},
        "scenario": {"kind": "random_sample", "label_fraction": 0.4},
        "seeds": [0],
        "methods": ["bfl-plain", "calib-50"],
        "workers": 1,
    }
    cfg_path = root / "run.yaml"
    cfg_path.write_text(yaml.safe_dump(cfg))

    for dom in ("domain_1", "domain_2"):
        assert run_cli("train", "--config", cfg_path, "--domain", dom, "--out", root) == 0
        assert (root / "summaries" / f"{dom}.summary.json").is_file()
    return {"root": root, "cfg": cfg_path, "cfg_dict": cfg, "sim": sim_dir}


def read(path) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def check_manifest(out_dir, command):
    man_path = os.path.join(out_dir, f"{command}_manifest.json")
    with open(man_path, encoding="utf-8") as fh:
        man = json.load(fh)
    assert man["command"] == command
    assert man["tool_version"]
    assert isinstance(man["config"], dict)
    assert man["outputs"]
    for name, digest in man["outputs"].items():
        assert sha256_hex(read(os.path.join(out_dir, name))) == digest
    return man


def test_simulate_outputs_and_manifest(ws):
    sim = ws["sim"]
    for f in ("cause_list.txt", "symptom_dict.txt", "target.csv",
              "domain_1.csv", "domain_2.csv", "truth.json"):
        assert (sim / f).is_file()
    man = check_manifest(sim, "simulate")
    assert set(man["outputs"]) == {
        "cause_list.txt", "symptom_dict.txt", "target.csv",
        "domain_1.csv", "domain_2.csv", "truth.json",
    }
    truth = json.loads(read(sim / "truth.json"))
    assert len(truth["pi_target"]) == 3
    assert np.asarray(truth["lambda_mix"]).shape == (3, 2)
    assert len(truth["target_source"]) == 30


def test_train_manifest_checksums(ws):
    check_manifest(ws["root"], "train")


def test_ensemble_outputs(ws):
    out = ws["root"] / "out_ens"
    assert run_cli("ensemble", "--config", ws["cfg"], "--out", out) == 0
    man = check_manifest(out, "ensemble")
    assert set(man["outputs"]) == {
        "ensemble_pi.csv", "ensemble_lambda.csv", "ensemble_deaths.csv",
        "ensemble_posterior.txt", "ensemble_csmf.csv",
    }
    pi_lines = read(out / "ensemble_pi.csv").decode().strip().split("\n")
    assert pi_lines[0].startswith("cause,")
    assert len(pi_lines) == 4  # header + 3 causes
    csmf = read(out / "ensemble_csmf.csv").decode().strip().split("\n")
    vals = [float(v) for v in csmf[1].split(",")[1:]]
    assert sum(vals) == pytest.approx(1.0, abs=1e-9)
    deaths = read(out / "ensemble_deaths.csv").decode().strip().split("\n")
    assert len(deaths) == 31  # header + 30 target deaths


def test_ensemble_rerun_is_byte_identical(ws):
    a = ws["root"] / "out_rerun_a"
    b = ws["root"] / "out_rerun_b"
    assert run_cli("ensemble", "--config", ws["cfg"], "--out", a) == 0
    assert run_cli("ensemble", "--config", ws["cfg"], "--out", b) == 0
    for name in sorted(os.listdir(a)):
        assert read(a / name) == read(b / name), name


def test_seed_and_workers_overrides(ws):
    base = ws["root"] / "out_rerun_a"
    seeded = ws["root"] / "out_seeded"
    assert run_cli("ensemble", "--config", ws["cfg"], "--out", seeded, "--seed", 99) == 0
    assert read(seeded / "ensemble_pi.csv") != read(base / "ensemble_pi.csv")
    par = ws["root"] / "out_par"
    assert run_cli("ensemble", "--config", ws["cfg"], "--out", par, "--workers", 2) == 0
    assert read(par / "ensemble_pi.csv") == read(base / "ensemble_pi.csv")


def test_classify_variant_override(ws):
    out = ws["root"] / "out_cls"
    assert run_cli("classify", "--config", ws["cfg"], "--out", out,
                   "--variant", "domain") == 0
    man = check_manifest(out, "classify")
    assert set(man["outputs"]) == {"classify_deaths.csv"}
    lines = read(out / "classify_deaths.csv").decode().strip().split("\n")
    header = lines[0].split(",")
    assert header[0] == "death_id" and header[-1] == "top_cause"
    assert len(lines) == 31
    # labeled deaths keep their known cause with probability 1
    first = lines[1].split(",")
    probs = [float(v) for v in first[1:-1]]
    assert max(probs) == 1.0


def test_calibrate_outputs(ws):
    out = ws["root"] / "out_cal"
    assert run_cli("calibrate", "--config", ws["cfg"], "--out", out) == 0
    man = check_manifest(out, "calibrate")
    assert set(man["outputs"]) == {"calibration.txt", "calibration_pi.csv"}
    text = read(out / "calibration.txt").decode()
    assert "hard-classification" in text
    assert "confusion" in text


def test_each_source_summary_is_scored_once_per_command(ws, tmp_path, monkeypatch):
    """ensemble and calibrate score every source summary once, on all 30
    target deaths; the domain variant scores its local model once more, on
    the 18 unlabeled deaths it fits."""
    scored = []

    def spy(s, x):
        scored.append((s.domain_id, len(x)))
        return lcm.cond_loglik_matrix(s, x)

    monkeypatch.setattr(ensemble, "cond_loglik_matrix", spy)
    assert run_cli("ensemble", "--config", ws["cfg"], "--variant", "domain",
                   "--out", tmp_path / "ens") == 0
    assert scored == [("domain_1", 30), ("domain_2", 30), ("target-local", 18)]
    scored.clear()
    assert run_cli("calibrate", "--config", ws["cfg"], "--out", tmp_path / "cal") == 0
    assert scored == [("domain_1", 30), ("domain_2", 30)]


@pytest.mark.parametrize("variant", ["domain", "mix"])
def test_local_model_trains_under_the_gibbs_block_and_min_count(ws, tmp_path, monkeypatch,
                                                                variant):
    """ensemble and classify train the target-local model once, under
    base_model, gibbs and min_count, at the local-model seed of the ensemble
    seed, on the labeled deaths that local_rows picks."""
    calls = []

    def spy(data, hyper, cfg, min_count=1):
        calls.append((data, hyper, cfg, min_count))
        return train_lcm(data, hyper, cfg, min_count)

    monkeypatch.setattr(lcm, "train_lcm", spy)
    cfg = dict(ws["cfg_dict"], base_model={"K": 1, "min_count": 2},
               gibbs={"iterations": 90, "burn_in": 30, "thin": 3, "seed": 3})
    p = tmp_path / "local.yaml"
    p.write_text(yaml.safe_dump(cfg))
    target = load_dataset(cfg["paths"]["datasets"]["target"],
                          load_cause_list(ws["sim"] / "cause_list.txt"),
                          load_symptom_dictionary(ws["sim"] / "symptom_dict.txt"),
                          domain_id="target")
    rows = local_rows(target, EnsembleConfig(variant=variant, seed=4))
    for command in ("ensemble", "classify"):
        calls.clear()
        assert run_cli(command, "--config", p, "--variant", variant,
                       "--out", tmp_path / command) == 0
        [(data, hyper, chain, min_count)] = calls
        assert data.domain_id == "target-local"
        assert data.death_ids == tuple(target.death_ids[i] for i in rows)
        assert hyper.K == 1 and min_count == 2
        assert (chain.iterations, chain.burn_in, chain.thin) == (90, 30, 3)
        assert chain.seed == derive_seed("local-model", "target", 4)


def lodo_config(ws, name):
    """lodo folds over every dataset entry, so it gets its own config that
    lists only the fully labeled training domains."""
    cfg = dict(ws["cfg_dict"])
    cfg["paths"] = dict(cfg["paths"])
    cfg["paths"]["datasets"] = {
        k: v for k, v in cfg["paths"]["datasets"].items() if k != "target"
    }
    cfg_path = ws["root"] / name
    cfg_path.write_text(yaml.safe_dump(cfg))
    return cfg_path


def test_lodo_and_report_round_trip(ws):
    cfg_path = lodo_config(ws, "lodo.yaml")
    out = ws["root"] / "out_lodo"
    assert run_cli("lodo", "--config", cfg_path, "--out", out) == 0
    man = check_manifest(out, "lodo")
    assert set(man["outputs"]) == {"lodo_results.csv", "lodo_summary.txt"}
    rows = read(out / "lodo_results.csv").decode().strip().split("\n")
    assert rows[0].startswith("target_domain,method,seed,")
    assert len(rows) > 1

    rep_out = ws["root"] / "out_report"
    assert run_cli("report", out / "lodo_results.csv", "--out", rep_out) == 0
    check_manifest(rep_out, "report")
    assert read(rep_out / "lodo_summary.txt") == read(out / "lodo_summary.txt")


def test_lodo_and_report_render_the_summary_once(ws, monkeypatch, capsys):
    """Each command renders lodo_summary.txt once and prints that text to stderr."""
    calls = []
    render = ExperimentReport.summary_text

    def spy(report):
        calls.append(report)
        return render(report)

    monkeypatch.setattr(ExperimentReport, "summary_text", spy)
    out = ws["root"] / "out_lodo_once"
    for argv in (("lodo", "--config", lodo_config(ws, "lodo_once.yaml"), "--out", out),
                 ("report", out / "lodo_results.csv", "--out", out / "report")):
        capsys.readouterr()
        calls.clear()
        assert run_cli(*argv) == 0
        assert len(calls) == 1
        summary = read(os.path.join(argv[-1], "lodo_summary.txt")).decode()
        assert capsys.readouterr().err == summary + "\n"  # print's line end


def test_export_is_canonical_and_detects_tampering(ws):
    src = ws["root"] / "summaries" / "domain_1.summary.json"
    out = ws["root"] / "out_export"
    assert run_cli("export", "--config", ws["cfg"], "--summary", src, "--out", out) == 0
    assert read(out / "domain_1.summary.json") == read(src)

    doc = json.loads(read(src))
    doc["nu_bar"][0][0] = doc["nu_bar"][0][0] + 1e-3
    bad = ws["root"] / "tampered.summary.json"
    bad.write_text(json.dumps(doc))
    assert run_cli("export", "--config", ws["cfg"], "--summary", bad,
                   "--out", ws["root"] / "out_bad") == 2


def test_export_of_a_summary_short_of_a_row_per_cause_exits_2(ws, tmp_path, capsys):
    doc = json.loads(read(ws["root"] / "summaries" / "domain_1.summary.json"))
    del doc["checksum"]
    doc["nu_bar"] = doc["nu_bar"][:2]  # two rows for C = 3 causes
    doc["checksum"] = sha256_hex(canonical_json(doc))
    bad = tmp_path / "short.summary.json"
    bad.write_bytes(canonical_json(doc))
    capsys.readouterr()
    assert run_cli("export", "--config", ws["cfg"], "--summary", bad, "--out", tmp_path / "o") == 2
    assert "InvalidSummary: " in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("domain_id", ["../escape", "a/b", "/abs", "", ".", ".."])
def test_export_refuses_a_domain_id_that_is_not_a_file_name(ws, tmp_path, capsys, domain_id):
    """An input not named *.summary.json is exported under its domain id, which
    comes from another site's file: one that is not a plain file name exits 2
    and writes nothing, inside --out or out of it."""
    doc = json.loads(read(ws["root"] / "summaries" / "domain_1.summary.json"))
    del doc["checksum"]
    doc["domain_id"] = domain_id
    doc["checksum"] = sha256_hex(canonical_json(doc))
    src = tmp_path / "in" / "from_site.json"
    src.parent.mkdir()
    src.write_bytes(canonical_json(doc))
    capsys.readouterr()
    out = tmp_path / "work" / "out" / "deep"
    assert run_cli("export", "--config", ws["cfg"], "--summary", src, "--out", out) == 2
    assert "InvalidSummary: " in capsys.readouterr().err
    assert not (tmp_path / "work").exists()
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["from_site.json", "in"]


@pytest.mark.parametrize("domain", ["../escape", "a/b", "/abs", "", ".", ".."])
def test_train_refuses_a_domain_id_that_is_not_a_file_name(ws, tmp_path, capsys, monkeypatch,
                                                             domain):
    """--domain names the summary file under --out, so an id that is not a
    plain file name exits 1 before any data is read, and writes nothing."""
    def boom(*args, **kwargs):
        raise AssertionError("a dataset was read before the domain id was checked")

    monkeypatch.setattr(cli, "load_dataset", boom)
    cfg = dict(ws["cfg_dict"])
    cfg["paths"] = dict(cfg["paths"], datasets={domain: str(ws["sim"] / "domain_1.csv")})
    p = tmp_path / "site.yaml"
    p.write_text(yaml.safe_dump(cfg))
    capsys.readouterr()
    out = tmp_path / "work" / "out" / "deep"
    assert run_cli("train", "--config", p, "--domain", domain, "--out", out) == 1
    assert "is not a plain file name" in capsys.readouterr().err
    assert [q.name for q in tmp_path.rglob("*")] == ["site.yaml"]


def test_export_names_a_copy_by_a_plain_domain_id(ws, tmp_path):
    src = tmp_path / "from_site.json"
    src.write_bytes(read(ws["root"] / "summaries" / "domain_1.summary.json"))
    assert run_cli("export", "--config", ws["cfg"], "--summary", src, "--out", tmp_path / "o") == 0
    assert read(tmp_path / "o" / "domain_1.summary.json") == read(src)


def test_train_then_export_reproduces_the_summary_byte_for_byte(ws, tmp_path):
    """A sparse model under a non-ASCII domain id; the absent cause row is null."""
    cfg = dict(ws["cfg_dict"], base_model={"K": 2, "sparse": True})
    cl = load_cause_list(ws["sim"] / "cause_list.txt")
    sd = load_symptom_dictionary(ws["sim"] / "symptom_dict.txt")
    train = load_dataset(ws["sim"] / "domain_2.csv", cl, sd)
    keep = np.flatnonzero(train.y != 1)
    write_dataset(train.subset(keep), tmp_path / "site.csv")
    cfg["paths"] = dict(cfg["paths"], datasets={"sité_東": str(tmp_path / "site.csv")})
    cfg_path = tmp_path / "site.yaml"
    cfg_path.write_text(yaml.safe_dump(cfg, allow_unicode=True), encoding="utf-8")
    assert run_cli("train", "--config", cfg_path, "--domain", "sité_東", "--out", tmp_path) == 0
    trained = tmp_path / "summaries" / "sité_東.summary.json"
    doc = json.loads(read(trained))
    assert doc["domain_id"] == "sité_東" and doc["hyper"]["sparse"] is True
    assert doc["theta_bar"][1] is None
    assert run_cli("export", "--config", cfg_path, "--summary", trained,
                   "--out", tmp_path / "exported") == 0
    assert read(tmp_path / "exported" / "sité_東.summary.json") == read(trained)


def test_validation_failures_exit_1(ws, tmp_path):
    assert run_cli("ensemble", "--config", tmp_path / "nope.yaml") == 1
    bad = tmp_path / "bad.yaml"
    bad.write_text(yaml.safe_dump({"no_such_key": 1}))
    assert run_cli("ensemble", "--config", bad) == 1
    missing_ds = tmp_path / "missing_ds.yaml"
    cfg = dict(ws["cfg_dict"])
    cfg["paths"] = dict(cfg["paths"],
                        datasets={"target": str(tmp_path / "absent.csv")})
    missing_ds.write_text(yaml.safe_dump(cfg))
    assert run_cli("ensemble", "--config", missing_ds) == 1
    no_gen = tmp_path / "no_gen.yaml"
    no_gen.write_text(yaml.safe_dump({"paths": {"out": str(tmp_path / "o")}}))
    assert run_cli("simulate", "--config", no_gen) == 1
    for workers in ("0", "-3"):  # the flag is checked like the config key
        assert run_cli("ensemble", "--config", ws["cfg"], "--workers", workers,
                       "--out", tmp_path / "w") == 1
        assert not (tmp_path / "w").exists()


@pytest.mark.parametrize("command, block", [
    ("calibrate", {"calibration": {"iterations": 10, "burn_in": 20}}),
    ("ensemble", {"ensemble": {"chains": 0}}),
    ("ensemble", {"gibbs": {"iterations": 5, "burn_in": 5}}),
    ("train", {"base_model": {"K": 0}}),
    ("lodo", {"scenario": {"kind": "bogus"}}),
    ("lodo", {"scenario": {"label_fraction": 0.0}}),
    ("train", {"scenario": {"kind": "severe_shift", "label_fraction": 1.0}}),
])
def test_invalid_sampler_block_exits_1_before_any_sampler_runs(ws, tmp_path, monkeypatch,
                                                                command, block):
    """Every sampler block and the scenario block are validated at load,
    whether or not the command reads them, so no fit or training runs before
    the exit."""
    def boom(*args, **kwargs):
        raise AssertionError("a sampler ran before the config was rejected")

    monkeypatch.setattr(lodo, "train_lcm", boom)
    monkeypatch.setattr(ensemble, "fit_global", boom)
    monkeypatch.setattr(calibration, "fit_calibration", boom)
    monkeypatch.setattr(lcm, "_gibbs_means", boom)
    p = tmp_path / "bad_block.yaml"
    p.write_text(yaml.safe_dump(dict(ws["cfg_dict"], **block)))
    extra = ("--domain", "domain_1") if command == "train" else ()
    assert run_cli(command, "--config", p, *extra, "--out", tmp_path / "o") == 1
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command, block, extra", [
    ("lodo", {"methods": []}, ()),
    ("train", {"methods": ["not-a-method"]}, ("--domain", "domain_1")),
    ("lodo", {"methods": ["bfl-plain", "not-a-method"]}, ()),
    ("lodo", {"methods": ["bfl-plain", "bfl-plain"]}, ()),
    ("lodo", {"seeds": [0, 1, 0]}, ()),
    ("ensemble", {"base_model": {"K": 1, "min_count": 0}}, ("--variant", "plain")),
    ("train", {"base_model": {"K": 1, "min_count": 0}}, ("--domain", "domain_1")),
    ("train", {"generator": {"C": 1}}, ("--domain", "domain_1")),
    ("ensemble", {"generator": {"missing_rate": 1.0}}, ()),
    ("ensemble", {"gibbs": {"iterations": 120, "burn_in": 60, "seed": -1}}, ("--seed", "3")),
], ids=["no-method", "unknown-method-train", "unknown-method", "repeated-method",
        "repeated-seed", "min-count-plain", "min-count-train", "generator-train",
        "generator-ensemble", "file-seed-under-seed-flag"])
def test_invalid_run_settings_exit_1_at_load(ws, tmp_path, monkeypatch, capsys,
                                             command, block, extra):
    """The run's request (methods, seeds, min_count) and the generator block
    are checked when the config loads, by every command, as the sampler
    blocks are; a block's file seed is checked even when --seed replaces it.
    Each exits 1 with one error line, before any dataset is read."""
    def boom(*args, **kwargs):
        raise AssertionError("a dataset was read or a sampler ran before the config was rejected")

    monkeypatch.setattr(cli, "load_dataset", boom)
    monkeypatch.setattr(lodo, "train_lcm", boom)
    p = tmp_path / "bad_run.yaml"
    p.write_text(yaml.safe_dump(dict(ws["cfg_dict"], **block)))
    assert run_cli(command, "--config", p, *extra, "--out", tmp_path / "o") == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: "), err
    assert not (tmp_path / "o").exists()


def test_runtime_failures_exit_2(ws, tmp_path):
    cfg = dict(ws["cfg_dict"])
    empty = tmp_path / "empty_summaries"
    empty.mkdir()
    cfg["paths"] = dict(cfg["paths"], summaries=str(empty))
    p = tmp_path / "empty_sum.yaml"
    p.write_text(yaml.safe_dump(cfg))
    assert run_cli("ensemble", "--config", p) == 1  # config-level: nothing usable
    # dataset with a malformed cell is a data error, not a config error
    broken = tmp_path / "broken.csv"
    src = (ws["root"] / "target_partial.csv").read_text().splitlines()
    src[1] = src[1].replace("Y", "maybe", 1).replace("N", "maybe", 1)
    broken.write_text("\n".join(src) + "\n")
    cfg2 = dict(ws["cfg_dict"])
    cfg2["paths"] = dict(ws["cfg_dict"]["paths"])
    cfg2["paths"]["datasets"] = dict(cfg2["paths"]["datasets"], target=str(broken))
    p2 = tmp_path / "broken.yaml"
    p2.write_text(yaml.safe_dump(cfg2))
    assert run_cli("ensemble", "--config", p2) == 2


def test_cause_no_summary_covers_exits_2_before_any_chain_runs(ws, tmp_path, monkeypatch):
    cl = load_cause_list(ws["sim"] / "cause_list.txt")
    sd = load_symptom_dictionary(ws["sim"] / "symptom_dict.txt")
    dom = load_dataset(ws["sim"] / "domain_1.csv", cl, sd, domain_id="domain_1")
    assert np.any(dom.y == 2)
    write_dataset(dom.subset(np.flatnonzero(dom.y != 2)), tmp_path / "narrow.csv")
    paths = ws["cfg_dict"]["paths"]
    cfg = dict(ws["cfg_dict"], paths=dict(
        paths, summaries=str(tmp_path / "summaries"),
        datasets=dict(paths["datasets"], domain_1=str(tmp_path / "narrow.csv"))))
    p = tmp_path / "narrow.yaml"
    p.write_text(yaml.safe_dump(cfg))
    assert run_cli("train", "--config", p, "--domain", "domain_1", "--out", tmp_path) == 0

    def boom(*args, **kwargs):
        raise AssertionError("a chain ran on a tensor with an uncovered cause")

    monkeypatch.setattr(ensemble, "_run_chain", boom)
    for variant in ("plain", "partial"):
        assert run_cli("ensemble", "--config", p, "--variant", variant,
                       "--out", tmp_path / "o") == 2
    assert not (tmp_path / "o").exists()


def test_two_summaries_of_one_domain_exit_2_before_any_chain_runs(ws, tmp_path, monkeypatch,
                                                                   capsys):
    twins = tmp_path / "twins"
    twins.mkdir()
    summary = read(ws["root"] / "summaries" / "domain_1.summary.json")
    for name in ("a", "b"):
        (twins / f"{name}.summary.json").write_bytes(summary)
    cfg = dict(ws["cfg_dict"], paths=dict(ws["cfg_dict"]["paths"], summaries=str(twins)))
    p = tmp_path / "twins.yaml"
    p.write_text(yaml.safe_dump(cfg))

    def boom(*args, **kwargs):
        raise AssertionError("a chain ran on a federation with a repeated domain id")

    monkeypatch.setattr(ensemble, "_run_chain", boom)
    for command in ("ensemble", "calibrate"):
        capsys.readouterr()
        assert run_cli(command, "--config", p, "--out", tmp_path / "o") == 2
        assert "DuplicateDomainId: " in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("key, data", [
    ("cause_list", None),  # the simulated list with its first cause repeated
    ("cause_list", b"only_cause\n"),
    ("cause_list", b"cause_1\n\xffcause_2\ncause_3\n"),
    ("symptom_dict", b"\n\n"),
    ("symptom_dict", None),
    ("symptom_dict", b"s_1\ns_2\xfe\n"),
])
def test_malformed_cause_list_or_dictionary_exits_2(ws, tmp_path, capsys, key, data):
    if data is None:
        text = (ws["sim"] / f"{key}.txt").read_text()
        data = (text + text.split("\n")[0] + "\n").encode("utf-8")
    bad = tmp_path / f"{key}.txt"
    bad.write_bytes(data)
    cfg = dict(ws["cfg_dict"])
    cfg["paths"] = dict(cfg["paths"], **{key: str(bad)})
    cfg_path = tmp_path / "bad_ids.yaml"
    cfg_path.write_text(yaml.safe_dump(cfg))
    capsys.readouterr()
    assert run_cli("train", "--config", cfg_path, "--domain", "domain_1",
                   "--out", tmp_path / "o") == 2
    err = capsys.readouterr().err
    assert err.startswith("error: InvalidIdentifiers: ") and err.count("\n") == 1
    assert str(bad) in err


def _with_target(ws, tmp_path, name, data: bytes):
    path = tmp_path / f"{name}.csv"
    path.write_bytes(data)
    cfg = dict(ws["cfg_dict"])
    cfg["paths"] = dict(cfg["paths"], datasets=dict(cfg["paths"]["datasets"], target=str(path)))
    cfg_path = tmp_path / f"{name}.yaml"
    cfg_path.write_text(yaml.safe_dump(cfg))
    return cfg_path


def test_target_csv_with_bom_crlf_and_trailing_blank_line(ws, tmp_path):
    text = (ws["root"] / "target_partial.csv").read_text()
    variant = ("\ufeff" + text.replace("\n", "\r\n") + "\r\n").encode("utf-8")
    plain = _with_target(ws, tmp_path, "plain", text.encode("utf-8"))
    dressed = _with_target(ws, tmp_path, "dressed", variant)
    assert run_cli("classify", "--config", plain, "--out", tmp_path / "a") == 0
    assert run_cli("classify", "--config", dressed, "--out", tmp_path / "b") == 0
    assert read(tmp_path / "a" / "classify_deaths.csv") == read(tmp_path / "b" / "classify_deaths.csv")
    lines = text.split("\n")
    for name, data in (
        ("interior_blank", "\n".join(lines[:3] + [""] + lines[3:]).encode("utf-8")),
        ("not_utf8", text.encode("utf-8").replace(b"\n", b"\n\xff", 1)),
    ):
        assert run_cli("classify", "--config", _with_target(ws, tmp_path, name, data),
                       "--out", tmp_path / name) == 2


def test_module_entry_point(ws, tmp_path):
    out = tmp_path / "m_out"
    cfg = tmp_path / "m.yaml"
    cfg.write_text(yaml.safe_dump({
        "paths": {"out": str(out)},
        "generator": {"C": 2, "K": 1, "p": 3, "M": 1,
                      "n_domain": 10, "n_target": 5, "seed": 1},
    }))
    proc = subprocess.run(
        [sys.executable, "-m", "fedva", "simulate", "--config", str(cfg)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert (out / "target.csv").is_file()
    listed = [line for line in proc.stdout.strip().split("\n") if line]
    assert str(out / "truth.json") in listed
