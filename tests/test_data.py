import numpy as np
import pytest

from conftest import make_dataset
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
