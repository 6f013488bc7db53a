import json

import numpy as np
import pytest

from conftest import CL3, SD4, make_dataset
from fedva.data import CauseList
from fedva.errors import (
    ChecksumMismatch,
    DuplicateDomainId,
    EmptyRegistry,
    FingerprintMismatch,
    InvalidSummary,
    SchemaVersionUnsupported,
)
from fedva.exchange import (
    FORMAT_VERSION,
    export_summary,
    import_summary,
    make_registry,
    summary_bytes,
)
from fedva.lcm import GibbsConfig, LcmHyper, train_lcm
from fedva.utils import sha256_hex


def trained(domain_id="alpha", drop_cause=None, seed=0):
    rng = np.random.default_rng(seed)
    y = np.repeat([0, 1, 2], 8).astype(np.int32)
    if drop_cause is not None:
        y = y[y != drop_cause]
    x = rng.integers(0, 2, size=(len(y), 4)).astype(np.uint8)
    ds = make_dataset(domain_id, x, y)
    return train_lcm(ds, LcmHyper(K=2), GibbsConfig(iterations=60, burn_in=30, thin=1, seed=seed))


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


def test_registry_validation_and_coverage():
    a = trained("alpha", drop_cause=2)
    b = trained("beta", drop_cause=2, seed=1)
    reg = make_registry([a, b], CL3, SD4)
    assert reg.M == 2 and reg.C == 3
    assert reg.domain_ids == ("alpha", "beta")
    assert reg.coverage.tolist() == [2, 2, 0]
    assert not reg.complete
    c = trained("gamma", seed=2)
    assert make_registry([a, b, c], CL3, SD4).complete
    ext = reg.extend(c)
    assert ext.domain_ids == ("alpha", "beta", "gamma")
    assert reg.domain_ids == ("alpha", "beta")  # original untouched
    with pytest.raises(DuplicateDomainId):
        make_registry([a, a], CL3, SD4)
    with pytest.raises(EmptyRegistry):
        make_registry([], CL3, SD4)
