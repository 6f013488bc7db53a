import csv
import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import CL3, SD4, make_dataset
from oracles import parse_dataset_reference
from fedva.data import (
    UNLABELED,
    CauseList,
    Dataset,
    SymptomDictionary,
    cause_counts,
    dataset_csv_text,
    load_cause_list,
    load_dataset,
    load_symptom_dictionary,
    write_dataset,
)
from fedva.errors import (
    DuplicateDeathId,
    MalformedCell,
    UnknownCause,
    UnknownSymptomColumn,
)


def test_cause_list_rejects_duplicates_and_singletons():
    with pytest.raises(Exception):
        CauseList(causes=("a", "a"))
    with pytest.raises(Exception):
        CauseList(causes=("only",))


def test_symptom_dictionary_rejects_duplicates():
    with pytest.raises(Exception):
        SymptomDictionary(symptoms=("s", "s"))


def test_fingerprints_depend_on_order():
    a = CauseList(causes=("x", "y"))
    b = CauseList(causes=("y", "x"))
    assert a.fingerprint != b.fingerprint


def test_load_cause_list_and_dictionary(tmp_path, cl3, sd4):
    (tmp_path / "causes.txt").write_text("cardio\ninfect\ntrauma\n")
    (tmp_path / "symptoms.txt").write_text("fever\ncough\ninjury\nchest_pain\n")
    assert load_cause_list(tmp_path / "causes.txt") == cl3
    assert load_symptom_dictionary(tmp_path / "symptoms.txt") == sd4


CSV_OK = """death_id,cause,fever,cough,injury,chest_pain
d1,cardio,Y,N,N,Y
d2,,N,Y,.,N
d3,trauma,N,N,Y,N
"""


def test_load_dataset_parses_values_and_labels(tmp_path, cl3, sd4):
    p = tmp_path / "d.csv"
    p.write_text(CSV_OK)
    ds = load_dataset(p, cl3, sd4, domain_id="dom")
    assert ds.n == 3 and ds.p == 4
    assert ds.death_ids == ("d1", "d2", "d3")
    assert ds.y.tolist() == [0, UNLABELED, 2]
    assert ds.x[0].tolist() == [1, 0, 0, 1]
    assert ds.x[1].tolist() == [0, 1, 2, 0]
    assert ds.labeled_mask.tolist() == [True, False, True]


def _write(path, text):
    path.write_bytes(text.encode("utf-8"))
    return path


@pytest.mark.parametrize("text", [
    "\ufeff" + CSV_OK,                                  # UTF-8 byte-order mark
    CSV_OK + "\n",                                      # trailing blank line
    CSV_OK + "\n\n\n",
    CSV_OK.replace("\n", "\r\n"),                       # CRLF
    CSV_OK.replace("\n", "\r\n") + "\r\n",              # CRLF, trailing blank line
    "\ufeff" + CSV_OK.replace("\n", "\r\n") + "\r\n\r\n",
    CSV_OK.rstrip("\n"),                                # no final line end
])
def test_load_dataset_accepts_bom_crlf_and_trailing_blank_lines(tmp_path, cl3, sd4, text):
    ds = load_dataset(_write(tmp_path / "d.csv", text), cl3, sd4, domain_id="dom")
    want = load_dataset(_write(tmp_path / "plain.csv", CSV_OK), cl3, sd4, domain_id="dom")
    assert ds.death_ids == want.death_ids
    assert np.array_equal(ds.x, want.x) and np.array_equal(ds.y, want.y)


@pytest.mark.parametrize("text,where", [
    (CSV_OK.replace("d2,", "\nd2,"), ":3"),                 # blank line between records
    (CSV_OK.replace("\n", "\r\n").replace("d2,", "\r\nd2,"), ":3"),
    (CSV_OK + "   \n", ":5"),                                # whitespace is not blank
    (CSV_OK + "\n\ufeff\n", ":5"),                          # a second BOM is a cell
])
def test_load_dataset_still_rejects_stray_lines(tmp_path, cl3, sd4, text, where):
    with pytest.raises(MalformedCell) as ei:
        load_dataset(_write(tmp_path / "d.csv", text), cl3, sd4)
    assert where in str(ei.value)


def test_load_dataset_rejects_text_that_is_not_utf8(tmp_path, cl3, sd4):
    p = tmp_path / "d.csv"
    p.write_bytes(CSV_OK.encode("utf-8").replace(b"d2", b"d\xff2"))
    with pytest.raises(MalformedCell, match="not UTF-8"):
        load_dataset(p, cl3, sd4)


def test_load_dataset_header_must_match_exactly(tmp_path, cl3, sd4):
    p = tmp_path / "d.csv"
    p.write_text("death_id,cause,cough,fever,injury,chest_pain\nd1,cardio,Y,N,N,Y\n")
    with pytest.raises(UnknownSymptomColumn):
        load_dataset(p, cl3, sd4)


@pytest.mark.parametrize(
    "row,exc",
    [
        ("d1,cardio,Y,N,N", MalformedCell),          # short row
        ("d1,cardio,Y,N,N,maybe", MalformedCell),    # bad cell
        ("d1,unknown,Y,N,N,Y", UnknownCause),
        (",cardio,Y,N,N,Y", MalformedCell),          # empty id
    ],
)
def test_load_dataset_cell_errors_name_the_line(tmp_path, cl3, sd4, row, exc):
    p = tmp_path / "d.csv"
    p.write_text("death_id,cause,fever,cough,injury,chest_pain\n" + row + "\n")
    with pytest.raises(exc) as ei:
        load_dataset(p, cl3, sd4)
    assert ":2" in str(ei.value)


def test_load_dataset_duplicate_id(tmp_path, cl3, sd4):
    p = tmp_path / "d.csv"
    p.write_text(
        "death_id,cause,fever,cough,injury,chest_pain\n"
        "d1,cardio,Y,N,N,Y\nd1,infect,N,N,N,N\n"
    )
    with pytest.raises(DuplicateDeathId):
        load_dataset(p, cl3, sd4)


def test_round_trip_is_cell_exact(tmp_path, cl3, sd4):
    p = tmp_path / "d.csv"
    p.write_text(CSV_OK)
    ds = load_dataset(p, cl3, sd4, domain_id="dom")
    assert dataset_csv_text(ds) == CSV_OK
    out = tmp_path / "copy.csv"
    write_dataset(ds, out)
    assert out.read_text() == CSV_OK


def test_names_that_need_quotes_round_trip(tmp_path):
    """Causes, symptoms and death ids that hold a comma, a quote, a CR or an LF
    are quoted by write_dataset, so load_dataset reads the same dataset back."""
    cl = CauseList(("road, injury", 'say "hi"', "cr\rcause", "lf\ncause"))
    sd = SymptomDictionary(("s,1", 's"2', "s\r3", "s\n4"))
    x = np.arange(20).reshape(5, 4) % 3
    ds = Dataset("dom", ("d,0", 'd"1', "d\n2", "d3", "d4"), x, [0, 1, 2, 3, UNLABELED], cl, sd)
    write_dataset(ds, tmp_path / "d.csv")
    back = load_dataset(tmp_path / "d.csv", cl, sd, domain_id="dom")
    assert back.death_ids == ds.death_ids
    assert np.array_equal(back.x, ds.x) and np.array_equal(back.y, ds.y)


def test_dataset_arrays_are_read_only(labeled_ds):
    with pytest.raises(ValueError):
        labeled_ds.x[0, 0] = 1
    with pytest.raises(ValueError):
        labeled_ds.y[0] = 1


def test_dataset_validation():
    with pytest.raises(MalformedCell):
        make_dataset("d", [[3, 0, 0, 0]], [0])
    with pytest.raises(UnknownCause):
        make_dataset("d", [[0, 0, 0, 0]], [5])
    with pytest.raises(DuplicateDeathId):
        make_dataset("d", [[0, 0, 0, 0]] * 2, [0, 1], ids=("a", "a"))


def test_subset_and_without_labels(labeled_ds):
    sub = labeled_ds.subset([2, 0], domain_id="sub")
    assert sub.domain_id == "sub"
    assert sub.death_ids == (labeled_ds.death_ids[2], labeled_ds.death_ids[0])
    assert np.array_equal(sub.x[0], labeled_ds.x[2])
    bare = labeled_ds.without_labels()
    assert not bare.labeled_mask.any()
    assert bare.death_ids == labeled_ds.death_ids


def test_partition_and_counts():
    ds = make_dataset("d", [[0, 0, 0, 0]] * 4, [1, UNLABELED, 0, 1])
    assert cause_counts(ds).tolist() == [1, 2, 0]


_ID = st.text(st.sampled_from(list("ab1,\"' é;")), min_size=1, max_size=5).filter(str.strip)
_CELL = st.sampled_from(["Y", "N", ".", " Y ", "N ", "\t."])
_CAUSE = st.sampled_from(["", "cardio", "infect", " trauma "])
_FAULTS = ("bad cell", "short row", "duplicate id", "unknown cause", "blank line")


@st.composite
def _csv_files(draw, fault: bool):
    """CSV text in the loader's schema; with `fault`, one record is broken."""
    ids = draw(st.lists(_ID, min_size=1 if fault else 0, max_size=8, unique_by=str.strip))
    rows = [[i, draw(_CAUSE), *draw(st.lists(_CELL, min_size=4, max_size=4))] for i in ids]
    if fault:
        k = draw(st.integers(0, len(rows) - 1))
        kind = draw(st.sampled_from(_FAULTS))
        if kind == "bad cell":
            rows[k][draw(st.integers(2, 5))] = draw(st.sampled_from(["maybe", "", "y", "YN", " "]))
        elif kind == "short row":
            rows[k] = rows[k][:-1]
        elif kind == "duplicate id":
            rows.append([" " + rows[k][0].strip(), "cardio", "Y", "N", ".", "Y"])
        elif kind == "unknown cause":
            rows[k][1] = "sepsis"
        else:
            rows.insert(k, [])  # writes an empty line ahead of record k
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator=newline)
    writer.writerow(["death_id", "cause", *SD4.symptoms])
    writer.writerows(rows)
    bom = "\ufeff" if draw(st.booleans()) else ""
    return bom + buf.getvalue() + newline * draw(st.integers(0, 2))


@settings(max_examples=150, deadline=None)
@given(_csv_files(fault=False))
def test_loader_matches_per_cell_reference(tmp_path_factory, text):
    path = _write(tmp_path_factory.mktemp("prop") / "d.csv", text)
    got = load_dataset(path, CL3, SD4, domain_id="dom")
    want = parse_dataset_reference(path, CL3, SD4, domain_id="dom")
    assert got.death_ids == want.death_ids
    assert got.x.dtype == want.x.dtype and np.array_equal(got.x, want.x)
    assert got.y.dtype == want.y.dtype and np.array_equal(got.y, want.y)


@settings(max_examples=150, deadline=None)
@given(_csv_files(fault=True))
def test_loader_raises_what_the_per_cell_reference_raises(tmp_path_factory, text):
    path = _write(tmp_path_factory.mktemp("prop") / "d.csv", text)
    with pytest.raises(Exception) as want:
        parse_dataset_reference(path, CL3, SD4)
    with pytest.raises(want.type) as got:
        load_dataset(path, CL3, SD4)
    assert got.type is want.type and str(got.value) == str(want.value)


@pytest.mark.parametrize("bad", ["a\rb", " a", "a\t", ""])
def test_dataset_rejects_ids_that_would_not_load_back(bad):
    with pytest.raises(MalformedCell, match="death_id"):
        make_dataset("d", [[0, 0, 0, 0]] * 2, [0, 1], ids=(bad, "c"))


def test_ids_with_csv_specials_round_trip(tmp_path):
    ids = ("a\nb", 'q"x', "c,d", "in ner", "é")
    ds = make_dataset("d", [[0, 1, 2, 0]] * len(ids), [0, 1, 2, UNLABELED, 0], ids=ids)
    write_dataset(ds, tmp_path / "d.csv")
    assert load_dataset(tmp_path / "d.csv", CL3, SD4).death_ids == ids
