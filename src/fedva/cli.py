"""Command-line entry points.

Every command is driven by one YAML config (see config.py) plus a few
override flags, computes all of its outputs in memory, then writes them
atomically under the output directory together with a manifest (config
echo, tool version, output checksums). Failed runs leave no partial files.

Exit codes: 0 success, 1 configuration/validation error, 2 runtime or data
error.
"""
from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

from . import TOOL_VERSION
from .calibration import build_predictions, fit_calibration
from .config import RunConfig, config_from_dict, load_config
from .data import (
    Dataset,
    dataset_csv_text,
    load_cause_list,
    load_dataset,
    load_symptom_dictionary,
)
from .ensemble import LOCAL_VARIANTS, VARIANTS, build_phi, local_rows, run_variant
from .errors import ConfigError, FedvaError, InvalidGenerator, InvalidHyper, InvalidSummary
from .exchange import import_summary, summary_bytes
from .lcm import train_lcm, train_local
from .lodo import ExperimentReport, run_lodo
from .reports import (
    calibration_text,
    classification_csv,
    csmf_csv,
    lambda_matrix_csv,
    pi_table_csv,
    posterior_text,
)
from .simulate import simulate
from .utils import atomic_write_bytes, canonical_json, sha256_hex

VALIDATION_ERRORS = (ConfigError, InvalidHyper, InvalidGenerator)


def _write_outputs(cfg: RunConfig, command: str, files: dict) -> None:
    """Write every output plus the run manifest; all-or-nothing per file."""
    os.makedirs(cfg.out_dir, exist_ok=True)
    blobs = {
        name: content if isinstance(content, bytes) else content.encode("utf-8")
        for name, content in files.items()
    }
    manifest = {
        "command": command,
        "tool_version": TOOL_VERSION,
        "config": cfg.raw,
        "outputs": {name: sha256_hex(blob) for name, blob in sorted(blobs.items())},
    }
    blobs[f"{command}_manifest.json"] = canonical_json(manifest) + b"\n"
    for name, blob in blobs.items():
        path = os.path.join(cfg.out_dir, name)
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        atomic_write_bytes(path, blob)
        print(path)


def _load_coords(cfg: RunConfig):
    if not cfg.cause_list_path or not cfg.symptom_dict_path:
        raise ConfigError("paths.cause_list and paths.symptom_dict are required")
    return load_cause_list(cfg.cause_list_path), load_symptom_dictionary(cfg.symptom_dict_path)


def _load_domain(cfg: RunConfig, domain_id: str, cl, sd) -> Dataset:
    if domain_id not in cfg.dataset_paths:
        raise ConfigError(f"paths.datasets has no entry for domain {domain_id!r}")
    return load_dataset(cfg.dataset_paths[domain_id], cl, sd, domain_id=domain_id)


def _target_dataset(cfg: RunConfig, cl, sd) -> Dataset:
    if not cfg.target:
        raise ConfigError("config key 'target' (a domain id) is required for this command")
    return _load_domain(cfg, cfg.target, cl, sd)


def _sources_for_target(cfg: RunConfig, cl, sd, target_id: str) -> list:
    """The summaries under paths.summaries, in file-name order, less the target's own."""
    if not cfg.summaries_dir:
        raise ConfigError("paths.summaries is required for this command")
    if not os.path.isdir(cfg.summaries_dir):
        raise ConfigError(f"paths.summaries: not a directory: {cfg.summaries_dir}")
    paths = sorted(
        os.path.join(cfg.summaries_dir, f)
        for f in os.listdir(cfg.summaries_dir)
        if f.endswith(".summary.json")
    )
    summaries = (import_summary(p, cl, sd) for p in paths)
    keep = [s for s in summaries if s.domain_id != target_id]
    if not keep:
        raise ConfigError(f"no usable summary files in {cfg.summaries_dir}")
    return keep


def _is_file_name(name: str) -> bool:
    """Whether `name` joined under --out names a file there and leads nowhere else."""
    return name not in ("", ".", "..") and os.path.basename(name) == name


def cmd_train(cfg: RunConfig, args) -> None:
    if not _is_file_name(args.domain):
        raise ConfigError(f"--domain {args.domain!r} is not a plain file name, so it cannot "
                          "name the summary file")
    cl, sd = _load_coords(cfg)
    dataset = _load_domain(cfg, args.domain, cl, sd)
    summary = train_lcm(dataset, cfg.base_model, cfg.gibbs, min_count=cfg.min_count)
    _write_outputs(cfg, "train", {
        os.path.join("summaries", f"{args.domain}.summary.json"): summary_bytes(summary),
    })


def cmd_export(cfg: RunConfig, args) -> None:
    cl, sd = _load_coords(cfg)
    summary = import_summary(args.summary, cl, sd)
    name = os.path.basename(args.summary)
    if not name.endswith(".summary.json"):
        # the file's own domain id names the copy, so it must not lead out of --out
        domain_id = summary.domain_id
        if not _is_file_name(domain_id):
            raise InvalidSummary(f"{args.summary}: domain_id {domain_id!r} is not a plain "
                                 "file name, so it cannot name the exported copy")
        name = f"{domain_id}.summary.json"
    _write_outputs(cfg, "export", {name: summary_bytes(summary)})
    print(f"domain_id: {summary.domain_id}", file=sys.stderr)
    print(f"cause_list_fingerprint: {summary.cause_list_fingerprint}", file=sys.stderr)
    print(f"dict_fingerprint: {summary.dict_fingerprint}", file=sys.stderr)


def _run_ensemble(cfg: RunConfig, variant_override: str | None):
    cl, sd = _load_coords(cfg)
    target = _target_dataset(cfg, cl, sd)
    sources = _sources_for_target(cfg, cl, sd, target.domain_id)
    ens_cfg = cfg.ensemble
    if variant_override:
        ens_cfg = replace(ens_cfg, variant=variant_override)
    phi = build_phi(sources, target)
    local = None
    if ens_cfg.variant in LOCAL_VARIANTS:
        local = train_local(target, local_rows(target, ens_cfg), cfg.base_model, cfg.gibbs,
                            ens_cfg.seed, cfg.min_count)
    post, cls, csmf = run_variant(target, phi, ens_cfg, local, workers=cfg.workers)
    return cl, post, cls, csmf


def cmd_ensemble(cfg: RunConfig, args) -> None:
    cl, post, cls, csmf = _run_ensemble(cfg, args.variant)
    text = posterior_text(post, cl)
    _write_outputs(cfg, "ensemble", {
        "ensemble_pi.csv": pi_table_csv(post.pi_draws, cl),
        "ensemble_lambda.csv": lambda_matrix_csv(post, cl),
        "ensemble_deaths.csv": classification_csv(cls, cl),
        "ensemble_posterior.txt": text,
        "ensemble_csmf.csv": csmf_csv(csmf, cl),
    })
    print(text, file=sys.stderr)


def cmd_classify(cfg: RunConfig, args) -> None:
    cl, _post, cls, _csmf = _run_ensemble(cfg, args.variant)
    _write_outputs(cfg, "classify", {"classify_deaths.csv": classification_csv(cls, cl)})


def cmd_calibrate(cfg: RunConfig, args) -> None:
    cl, sd = _load_coords(cfg)
    target = _target_dataset(cfg, cl, sd)
    sources = _sources_for_target(cfg, cl, sd, target.domain_id)
    preds = build_predictions(build_phi(sources, target), cfg.ensemble)
    result = fit_calibration(preds, target.y, cfg.calibration)
    text = calibration_text(result, cl)
    _write_outputs(cfg, "calibrate", {
        "calibration.txt": text,
        "calibration_pi.csv": pi_table_csv(result.pi_draws, cl),
    })
    print(text, file=sys.stderr)


def cmd_simulate(cfg: RunConfig, args) -> None:
    if cfg.generator is None:
        raise ConfigError("config key 'generator' is required for simulate")
    sim = simulate(cfg.generator)
    truth = {
        "seed": cfg.generator.seed,
        "pi_target": sim.truth.pi_target.tolist(),
        "pi_domains": sim.truth.pi_domains.tolist(),
        "lambda_mix": sim.truth.lambda_mix.tolist(),
        "nu": sim.truth.nu.tolist(),
        "theta": sim.truth.theta.tolist(),
        "target_source": sim.truth.target_source.tolist(),
        "cause_list_fingerprint": sim.cause_list.fingerprint,
        "dict_fingerprint": sim.symptom_dict.fingerprint,
    }
    files = {
        "cause_list.txt": "\n".join(sim.cause_list.causes) + "\n",
        "symptom_dict.txt": "\n".join(sim.symptom_dict.symptoms) + "\n",
        "target.csv": dataset_csv_text(sim.target),
        "truth.json": canonical_json(truth) + b"\n",
    }
    for d in sim.domains:
        files[f"{d.domain_id}.csv"] = dataset_csv_text(d)
    _write_outputs(cfg, "simulate", files)


def cmd_lodo(cfg: RunConfig, args) -> None:
    cl, sd = _load_coords(cfg)
    if len(cfg.dataset_paths) < 2:
        raise ConfigError("lodo needs at least two entries in paths.datasets")
    domains = [_load_domain(cfg, d, cl, sd) for d in cfg.dataset_paths]
    report = run_lodo(domains, cfg)
    summary = report.summary_text()
    _write_outputs(cfg, "lodo", {
        "lodo_results.csv": report.to_csv_text(),
        "lodo_summary.txt": summary,
    })
    print(summary, file=sys.stderr)


def cmd_report(cfg: RunConfig, args) -> None:
    summary = ExperimentReport.from_csv(args.results).summary_text()
    _write_outputs(cfg, "report", {"lodo_summary.txt": summary})
    print(summary, file=sys.stderr)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fedva",
        description="federated cause-of-death assignment from binary symptom data",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, help_text, needs_config=True):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=needs_config, help="YAML run configuration")
        p.add_argument("--seed", type=int, default=None,
                       help="override every seed leaf in the config")
        p.add_argument("--workers", type=int, default=None,
                       help="process parallelism (1 reproduces parallel runs exactly)")
        p.add_argument("--out", default=None, help="output directory (overrides paths.out)")
        p.set_defaults(handler=handler)
        return p

    p = add("train", cmd_train, "train one domain's base model and export its summary")
    p.add_argument("--domain", required=True, help="domain id from paths.datasets")
    p = add("export", cmd_export, "re-validate and canonically re-export a summary file")
    p.add_argument("--summary", required=True, help="path to an existing summary file")
    p = add("ensemble", cmd_ensemble, "fit the global model on the target domain")
    p.add_argument("--variant", default=None, choices=VARIANTS)
    p = add("classify", cmd_classify, "fit the global model and emit per-death probabilities")
    p.add_argument("--variant", default=None, choices=VARIANTS)
    add("calibrate", cmd_calibrate, "confusion-matrix calibration of the target CSMF")
    add("simulate", cmd_simulate, "generate synthetic multi-domain datasets")
    add("lodo", cmd_lodo, "leave-one-domain-out experiment")
    p = add("report", cmd_report, "re-aggregate an experiment results CSV", needs_config=False)
    p.add_argument("results", help="path to a lodo_results.csv")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.config:
            cfg = load_config(args.config, seed_override=args.seed,
                              workers_override=args.workers, out_override=args.out)
        else:
            cfg = config_from_dict({}, out_override=args.out)
        args.handler(cfg, args)
    except VALIDATION_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except FedvaError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0
