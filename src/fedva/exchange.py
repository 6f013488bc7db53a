"""Versioned on-disk format for base-model summaries.

A summary file is a single JSON document with sorted keys and shortest
round-trip float formatting, so exporting the same summary twice yields
byte-identical files and a content checksum is meaningful. Absent-cause
parameter rows are serialized as explicit nulls.

The center imports the summaries and hands them to `ensemble.build_phi`,
which scores them into one likelihood tensor, one column each.
"""
from __future__ import annotations

import json

import numpy as np

from .data import CauseList, SymptomDictionary
from .errors import (
    ChecksumMismatch,
    FingerprintMismatch,
    InvalidSummary,
    SchemaVersionUnsupported,
)
from .lcm import BaseModelSummary, LcmHyper, Provenance
from .utils import atomic_write_bytes, canonical_json, sha256_hex

FORMAT_VERSION = "1.0.0"


def _nan_to_null(row: np.ndarray):
    return None if np.all(np.isnan(row)) else row.tolist()


def _summary_document(s: BaseModelSummary) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "domain_id": s.domain_id,
        "C": s.C,
        "K": s.K,
        "p": s.p,
        "cause_list_fingerprint": s.cause_list_fingerprint,
        "dict_fingerprint": s.dict_fingerprint,
        "present": s.present.tolist(),
        "n_by_cause": s.n_by_cause.tolist(),
        "nu_bar": [_nan_to_null(s.nu_bar[c]) for c in range(s.C)],
        "theta_bar": [_nan_to_null(s.theta_bar[c]) for c in range(s.C)],
        "hyper": {
            "K": s.hyper.K,
            "alpha_sb": s.hyper.alpha_sb,
            "theta_prior": list(s.hyper.theta_prior),
            "pi_prior": s.hyper.pi_prior,
            "sparse": s.hyper.sparse,
            "spike_omega_prior": list(s.hyper.spike_omega_prior),
        },
        "provenance": {
            "tool_version": s.provenance.tool_version,
            "seed": s.provenance.seed,
            "iterations": s.provenance.iterations,
            "burn_in": s.provenance.burn_in,
        },
    }


def _canonical_bytes(document: dict) -> bytes:
    try:
        return canonical_json(document)
    except ValueError as exc:
        raise InvalidSummary(f"summary contains non-finite values: {exc}") from None


def summary_bytes(s: BaseModelSummary) -> bytes:
    """Validate and canonically serialize (checksum included).

    The checksum hashes the canonical document without its checksum member.
    Sorted keys put that member just before the top-level `"dict_fingerprint"`
    key, so it is spliced in there rather than dumping the document twice. The
    members ahead of that key (C, K, cause_list_fingerprint) are scalars, so
    the first `"dict_fingerprint":` in the bytes is the top-level one.
    """
    s.validate()
    for c in range(s.C):
        if s.present[c] and (np.any(np.isnan(s.nu_bar[c])) or np.any(np.isnan(s.theta_bar[c]))):
            raise InvalidSummary(f"present cause {c} has NaN parameters")
    body = _canonical_bytes(_summary_document(s))
    head, key, tail = body.partition(b'"dict_fingerprint":')
    member = b'"checksum":"%s",' % sha256_hex(body).encode("ascii")
    return head + member + key + tail + b"\n"


def export_summary(s: BaseModelSummary, path) -> None:
    """Validate, canonically serialize, checksum, and atomically write."""
    atomic_write_bytes(path, summary_bytes(s))


def _raw_checksum_matches(raw: bytes, stated) -> bool:
    """Whether the file's own bytes, less its checksum member, hash to `stated`.

    A file written by `summary_bytes` passes without being re-serialized. Any
    other file (re-indented, hand-edited, tampered) falls back to the hash of
    its canonical re-dump.
    """
    if not isinstance(stated, str):
        return False
    parts = raw.split(b'"checksum":' + json.dumps(stated).encode("utf-8") + b",")
    if len(parts) != 2:
        return False
    body = parts[0] + parts[1]
    if body.endswith(b"\n"):
        body = body[:-1]
    return sha256_hex(body) == stated


_EXPECTED = {str: "a string", int: "an integer", float: "a number", bool: "true or false"}


def _is(value, kind: type) -> bool:
    """Whether value has JSON type kind; a number (kind float) may be an integer."""
    return type(value) in (int, float) if kind is float else type(value) is kind


def _typed(doc, key, kind: type, path, where: str = "", length: int | None = None):
    """doc[key]: a JSON string, integer, number or true/false, or a list of length such.

    Nothing is coerced: 1.9, 2.0, "2" and true are not integers, true is not
    a number, 5 is not a string, and "false" and 0 are not booleans. `doc`
    may be a list, `key` then being an index.
    """
    value = doc[key]
    if type(key) is int:
        key = f"[{key}]"
    if length is None:
        ok, expected = _is(value, kind), _EXPECTED[kind]
    else:
        ok = (type(value) is list and len(value) == length
              and all(_is(v, kind) for v in value))
        expected = f"a list of {length} entries, each {_EXPECTED[kind]}"
    if not ok:
        raise InvalidSummary(f"{path}: {where}{key} must be {expected}, got {value!r}")
    return value


def _rows(doc, key, C: int, path) -> list:
    """doc[key]: a list of C parameter rows, one per cause (null where it is absent)."""
    rows = doc[key]
    if type(rows) is not list or len(rows) != C:
        got = f"{len(rows)}" if type(rows) is list else type(rows).__name__
        raise InvalidSummary(f"{path}: {key} must be a list of {C} rows, one per cause, got {got}")
    return rows


def import_summary(path, cause_list: CauseList, symptom_dict: SymptomDictionary) -> BaseModelSummary:
    """Read, verify checksum and fingerprints, re-validate all invariants."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        document = json.loads(raw)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise InvalidSummary(f"{path}: not valid JSON: {exc}") from None
    if not isinstance(document, dict):
        raise InvalidSummary(f"{path}: top level must be an object")

    version = document.get("format_version")
    if not isinstance(version, str) or version.split(".")[0] != FORMAT_VERSION.split(".")[0]:
        raise SchemaVersionUnsupported(f"{path}: cannot read format_version {version!r}")

    stated = document.pop("checksum", None)
    if not _raw_checksum_matches(raw, stated) and stated != sha256_hex(_canonical_bytes(document)):
        raise ChecksumMismatch(f"{path}: checksum does not match content")

    if document.get("cause_list_fingerprint") != cause_list.fingerprint:
        raise FingerprintMismatch(f"{path}: summary was built against a different cause list")
    if document.get("dict_fingerprint") != symptom_dict.fingerprint:
        raise FingerprintMismatch(f"{path}: summary was built against a different symptom dictionary")

    try:
        C, K, p = (_typed(document, key, int, path) for key in ("C", "K", "p"))
        if C != len(cause_list) or p != len(symptom_dict):
            raise InvalidSummary(f"{path}: C/p disagree with the supplied cause list / dictionary")
        nu_bar = np.full((C, K), np.nan)
        theta_bar = np.full((C, K, p), np.nan)
        nu_rows, theta_rows = (_rows(document, key, C, path) for key in ("nu_bar", "theta_bar"))
        for c in range(C):
            if nu_rows[c] is not None:
                nu_bar[c] = _typed(nu_rows, c, float, path, "nu_bar", K)
            if theta_rows[c] is not None:
                # one dtype check per row: strings, nulls and objects infer a
                # non-numeric dtype; booleans become 0 or 1, which validate()
                # refuses as outside (0, 1)
                row = np.asarray(theta_rows[c])
                if row.dtype.kind not in "fiu":
                    raise InvalidSummary(
                        f"{path}: theta_bar[{c}] must hold numbers only, got {row.dtype} entries")
                theta_bar[c] = row.reshape(K, p)
        hyper_doc = document["hyper"]
        hyper = LcmHyper(
            K=_typed(hyper_doc, "K", int, path, "hyper."),
            alpha_sb=float(_typed(hyper_doc, "alpha_sb", float, path, "hyper.")),
            theta_prior=tuple(float(v) for v in
                              _typed(hyper_doc, "theta_prior", float, path, "hyper.", 2)),
            pi_prior=float(_typed(hyper_doc, "pi_prior", float, path, "hyper.")),
            sparse=_typed(hyper_doc, "sparse", bool, path, "hyper."),
            spike_omega_prior=tuple(float(v) for v in _typed(
                hyper_doc, "spike_omega_prior", float, path, "hyper.", 2)),
        )
        prov_doc = document["provenance"]
        summary = BaseModelSummary(
            domain_id=_typed(document, "domain_id", str, path),
            nu_bar=nu_bar,
            theta_bar=theta_bar,
            present=np.asarray(_typed(document, "present", int, path, length=C), dtype=np.uint8),
            n_by_cause=np.asarray(_typed(document, "n_by_cause", int, path, length=C),
                                  dtype=np.int64),
            cause_list_fingerprint=document["cause_list_fingerprint"],
            dict_fingerprint=document["dict_fingerprint"],
            hyper=hyper,
            provenance=Provenance(
                tool_version=_typed(prov_doc, "tool_version", str, path, "provenance."),
                seed=_typed(prov_doc, "seed", int, path, "provenance."),
                iterations=_typed(prov_doc, "iterations", int, path, "provenance."),
                burn_in=_typed(prov_doc, "burn_in", int, path, "provenance."),
            ),
        )
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise InvalidSummary(f"{path}: malformed summary document: {exc}") from None
    if hyper.K != K:
        raise InvalidSummary(f"{path}: hyper.K disagrees with array shape K")
    summary.validate()
    return summary
