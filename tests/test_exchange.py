import json
import re
from dataclasses import replace

import numpy as np
import pytest

from conftest import CL3, SD4, make_dataset
from oracles import summary_bytes_reference
from fedva.data import UNLABELED, CauseList
from fedva.ensemble import EnsembleConfig, build_phi, fit_global
from fedva.errors import (
    ChecksumMismatch,
    DuplicateDomainId,
    EmptyRegistry,
    FingerprintMismatch,
    IncompletePhi,
    InvalidSummary,
    SchemaVersionUnsupported,
)
from fedva.exchange import (
    FORMAT_VERSION,
    _raw_checksum_matches,
    export_summary,
    import_summary,
    summary_bytes,
)
from fedva.lcm import GibbsConfig, LcmHyper, train_lcm
from fedva.utils import sha256_hex


def trained(domain_id="alpha", drop_cause=None, seed=0, sparse=False):
    rng = np.random.default_rng(seed)
    y = np.repeat([0, 1, 2], 8).astype(np.int32)
    if drop_cause is not None:
        y = y[y != drop_cause]
    x = rng.integers(0, 2, size=(len(y), 4)).astype(np.uint8)
    ds = make_dataset(domain_id, x, y)
    return train_lcm(ds, LcmHyper(K=2, sparse=sparse),
                     GibbsConfig(iterations=60, burn_in=30, thin=1, seed=seed))


def test_round_trip_preserves_everything(tmp_path):
    s = trained(drop_cause=1)
    path = tmp_path / "alpha.summary.json"
    export_summary(s, path)
    back = import_summary(path, CL3, SD4)
    assert back.domain_id == s.domain_id
    assert back.present.tolist() == s.present.tolist()
    assert back.n_by_cause.tolist() == s.n_by_cause.tolist()
    assert np.array_equal(back.nu_bar, s.nu_bar, equal_nan=True)
    assert np.array_equal(back.theta_bar, s.theta_bar, equal_nan=True)
    assert back.hyper == s.hyper
    assert back.provenance == s.provenance


def test_serialization_is_canonical_and_checksummed(tmp_path):
    s = trained()
    raw = summary_bytes(s)
    assert raw == summary_bytes(s)
    assert raw.endswith(b"\n")
    doc = json.loads(raw)
    assert doc["format_version"] == FORMAT_VERSION
    assert list(doc) == sorted(doc)
    claimed = doc.pop("checksum")
    payload = json.dumps(doc, sort_keys=True, separators=(",", ":"), allow_nan=False)
    assert claimed == sha256_hex(payload.encode("utf-8"))


def test_absent_cause_rows_serialize_as_null():
    s = trained(drop_cause=2)
    doc = json.loads(summary_bytes(s))
    assert doc["present"] == [1, 1, 0]
    assert doc["nu_bar"][2] is None
    assert doc["theta_bar"][2] is None
    assert doc["n_by_cause"][2] == 0


def test_tampered_file_fails_checksum(tmp_path):
    s = trained()
    path = tmp_path / "s.summary.json"
    export_summary(s, path)
    doc = json.loads(path.read_text())
    doc["n_by_cause"][0] += 1
    path.write_text(json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n")
    with pytest.raises(ChecksumMismatch):
        import_summary(path, CL3, SD4)


def _rewrite(path, mutate):
    doc = json.loads(path.read_text())
    doc.pop("checksum")
    mutate(doc)
    payload = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    doc["checksum"] = sha256_hex(payload.encode("utf-8"))
    path.write_text(json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n")


def test_version_gate(tmp_path):
    s = trained()
    path = tmp_path / "s.summary.json"
    export_summary(s, path)
    _rewrite(path, lambda d: d.update(format_version="2.0.0"))
    with pytest.raises(SchemaVersionUnsupported):
        import_summary(path, CL3, SD4)
    export_summary(s, path)
    _rewrite(path, lambda d: d.update(format_version="1.9.3"))
    assert import_summary(path, CL3, SD4).domain_id == s.domain_id


def test_fingerprint_gate(tmp_path):
    s = trained()
    path = tmp_path / "s.summary.json"
    export_summary(s, path)
    other_cl = CauseList(causes=("cardio", "infect", "sepsis"))
    with pytest.raises(FingerprintMismatch):
        import_summary(path, other_cl, SD4)


def test_malformed_documents(tmp_path):
    path = tmp_path / "bad.summary.json"
    path.write_text("{not json")
    with pytest.raises(InvalidSummary):
        import_summary(path, CL3, SD4)
    s = trained()
    export_summary(s, path)
    _rewrite(path, lambda d: d.pop("nu_bar"))
    with pytest.raises(InvalidSummary):
        import_summary(path, CL3, SD4)
    export_summary(s, path)
    _rewrite(path, lambda d: d["nu_bar"][0].append(0.5))
    with pytest.raises(InvalidSummary):
        import_summary(path, CL3, SD4)
    for key, value in (("present", [1, 1, -1]), ("n_by_cause", [20, 20, 2**70])):
        export_summary(s, path)  # integers out of their array's range
        _rewrite(path, lambda d: d.__setitem__(key, value))
        with pytest.raises(InvalidSummary):
            import_summary(path, CL3, SD4)


@pytest.mark.parametrize("where, key, value", [
    ((), "C", 3.0), ((), "K", 1.9), ((), "p", "4"), ((), "K", True),
    (("hyper",), "K", 2.0), (("hyper",), "sparse", "false"), (("hyper",), "sparse", 0),
    (("provenance",), "seed", 0.5), (("provenance",), "iterations", "60"),
    (("provenance",), "burn_in", None),
    ((), "domain_id", 5), (("provenance",), "tool_version", 1.0),
    (("hyper",), "alpha_sb", True), (("hyper",), "pi_prior", "1.0"),
    (("hyper",), "theta_prior", [1.0, 1.0, 1.0]), (("hyper",), "theta_prior", [1.0, "1"]),
    (("hyper",), "spike_omega_prior", [1.0, True]), (("hyper",), "spike_omega_prior", 1.0),
    ((), "present", [1, 1]), ((), "present", [1, 1, True]),
    ((), "n_by_cause", [20, 20, 34.9]),
    # parameter rows (K=2, p=4): each value below would pass validate() if coerced
    (("nu_bar",), 0, ["0.5", "0.5"]), (("nu_bar",), 2, [True, 0.0]),
    (("nu_bar",), 1, [0.5, [0.5]]), (("nu_bar",), 0, "0.5"),
    (("theta_bar",), 0, [[0.5, "0.5", 0.5, 0.5], [0.5] * 4]),
    (("theta_bar",), 1, [["0.25"] * 4, ["0.75"] * 4]),
    (("theta_bar",), 2, [[0.5] * 4, [0.5, 0.5, 0.5, {"v": 0.5}]]),
    # one valid row per cause (C=3), less or more of them
    ((), "nu_bar", [[0.5, 0.5]] * 2), ((), "nu_bar", [[0.5, 0.5]] * 4),
    ((), "theta_bar", [[[0.5] * 4] * 2] * 2), ((), "theta_bar", [[[0.5] * 4] * 2] * 4),
])
def test_ill_typed_fields_are_refused_not_coerced(tmp_path, where, key, value):
    path = tmp_path / "s.summary.json"
    export_summary(trained(), path)
    assert import_summary(path, CL3, SD4) is not None

    def mutate(doc):
        for name in where:
            doc = doc[name]
        doc[key] = value

    _rewrite(path, mutate)
    name = key if isinstance(key, str) else f"{where[-1]}[{key}] must"
    with pytest.raises(InvalidSummary, match=re.escape(name)):
        import_summary(path, CL3, SD4)


def test_nu_bar_true_at_one_class_is_refused(tmp_path):
    ds = make_dataset("alpha", np.zeros((6, 4), dtype=np.uint8), np.repeat([0, 1, 2], 2))
    s = train_lcm(ds, LcmHyper(K=1), GibbsConfig(iterations=20, burn_in=10, thin=1, seed=0))
    path = tmp_path / "s.summary.json"
    export_summary(s, path)
    assert import_summary(path, CL3, SD4).nu_bar.tolist() == [[1.0]] * 3
    _rewrite(path, lambda d: d["nu_bar"].__setitem__(1, [True]))
    with pytest.raises(InvalidSummary, match=re.escape("nu_bar[1] must")):
        import_summary(path, CL3, SD4)


def test_non_utf8_summary_is_invalid(tmp_path):
    path = tmp_path / "s.summary.json"
    path.write_bytes(summary_bytes(trained()).replace(b'"alpha"', b'"alph\xff"'))
    with pytest.raises(InvalidSummary):
        import_summary(path, CL3, SD4)


def test_exported_files_reimport_byte_identically(tmp_path):
    for sparse in (False, True):
        raw = summary_bytes(trained(sparse=sparse))
        path = tmp_path / "s.summary.json"
        path.write_bytes(raw)
        assert summary_bytes(import_summary(path, CL3, SD4)) == raw


def test_build_phi_checks_each_summary_and_leaves_coverage_to_the_fit():
    a = trained("alpha", drop_cause=2)
    b = trained("beta", drop_cause=2, seed=1)
    target = make_dataset("target", np.ones((5, 4)), np.full(5, UNLABELED))
    phi = build_phi([a, b], target)
    assert phi.M == 2 and phi.C == 3
    assert phi.domain_ids == ("alpha", "beta")
    assert phi.present.sum(axis=1).tolist() == [2, 2, 0]
    with pytest.raises(IncompletePhi):
        fit_global(phi, None, EnsembleConfig(chains=1, iterations=4, burn_in=2))
    c = trained("gamma", seed=2)
    assert build_phi([a, b, c], target).present.sum(axis=1).tolist() == [3, 3, 1]
    with pytest.raises(DuplicateDomainId):
        build_phi([a, a], target)
    with pytest.raises(EmptyRegistry):
        build_phi([], target)
    for field in ("cause_list_fingerprint", "dict_fingerprint"):
        with pytest.raises(FingerprintMismatch, match="'beta'"):
            build_phi([a, replace(b, **{field: "0" * 64})], target)


@pytest.mark.parametrize("kwargs", [
    {},
    {"drop_cause": 1},                                   # absent-cause rows are null
    {"sparse": True, "seed": 3},
    {"domain_id": 'sité-東京 "q"', "drop_cause": 0},   # escaped in the JSON
])
def test_summary_bytes_match_the_two_dump_reference(kwargs):
    s = trained(**kwargs)
    assert summary_bytes(s) == summary_bytes_reference(s)


def _exported(tmp_path, **kwargs):
    s = trained(**kwargs)
    path = tmp_path / "s.summary.json"
    export_summary(s, path)
    return s, path


def test_exported_file_passes_the_raw_byte_check(tmp_path):
    _, path = _exported(tmp_path, drop_cause=2)
    raw = path.read_bytes()
    assert _raw_checksum_matches(raw, json.loads(raw)["checksum"])


def test_reindented_file_loads_through_the_canonical_fallback(tmp_path):
    s, path = _exported(tmp_path, drop_cause=2)
    doc = json.loads(path.read_bytes())
    path.write_text(json.dumps(doc, sort_keys=True, indent=1) + "\n")
    assert not _raw_checksum_matches(path.read_bytes(), doc["checksum"])
    back = import_summary(path, CL3, SD4)
    assert summary_bytes(back) == summary_bytes(s)


def test_file_without_trailing_newline_loads(tmp_path):
    s, path = _exported(tmp_path)
    path.write_bytes(path.read_bytes().rstrip(b"\n"))
    assert summary_bytes(import_summary(path, CL3, SD4)) == summary_bytes(s)


def test_one_changed_digit_fails_checksum(tmp_path):
    _, path = _exported(tmp_path)
    raw = path.read_bytes()
    start = raw.index(b'"theta_bar":[[[0.') + len(b'"theta_bar":[[[0.')
    digit = raw[start:start + 1]
    assert digit.isdigit()
    path.write_bytes(raw[:start] + (b"2" if digit == b"1" else b"1") + raw[start + 1:])
    with pytest.raises(ChecksumMismatch):
        import_summary(path, CL3, SD4)


@pytest.mark.parametrize("old,new", [
    (b"{member}", b""),                                            # missing
    (b"{member}", b'"checksum":12345,'),                          # not a string
    (b"{member}", b'"checksum":null,'),
    (b'"domain_id":"alpha"', b'"domain_id":{{member}"id":"alpha"}'),  # twice
    (b'"provenance":{', b'"provenance":{{member}'),
])
def test_absent_odd_or_repeated_checksum_member_fails(tmp_path, old, new):
    _, path = _exported(tmp_path)
    raw = path.read_bytes()
    member = b'"checksum":"%s",' % json.loads(raw)["checksum"].encode("ascii")
    old, new = (b.replace(b"{member}", member) for b in (old, new))
    assert raw.count(old) == 1
    path.write_bytes(raw.replace(old, new))
    with pytest.raises(ChecksumMismatch):
        import_summary(path, CL3, SD4)
