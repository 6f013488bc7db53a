"""Binary-symptom datasets with a shared cause list and symptom dictionary.

Every domain indexes causes and symptoms by position in externally supplied
CauseList / SymptomDictionary files, so exported model summaries from
different sites live in one coordinate system. Cells are ternary: yes / no /
missing, with missing kept distinct from no throughout.

CSV schema: header ``death_id,cause,<symptom_1>,...,<symptom_p>`` where the
symptom columns must match the dictionary order exactly; cells are ``Y``,
``N`` or ``.``; the cause cell is empty for unlabeled deaths.
"""
from __future__ import annotations

import csv
import enum
import io
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DuplicateDeathId,
    InvalidIdentifiers,
    InvalidLabels,
    MalformedCell,
    UnknownCause,
    UnknownSymptomColumn,
)
from .utils import atomic_write_text, fingerprint_ids

UNLABELED = -1


def split_labels(labels, n: int, C: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(unlabeled rows, labeled rows, their causes) of a label vector, rows in order.

    `labels` is None (no death labeled) or an integer vector with one entry
    per death: a cause index in [0, C), or UNLABELED where it is unknown.
    Anything else (another length or rank, floats, booleans) raises
    InvalidLabels.
    """
    if labels is None:
        return np.arange(n), np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
    y = np.asarray(labels)
    if y.dtype.kind not in "iu" or y.shape != (n,):
        raise InvalidLabels(f"labels must be an integer vector with one entry per death ({n})")
    if n and (y.min() < UNLABELED or y.max() >= C):
        raise InvalidLabels(f"labels must lie in [{UNLABELED}, {C})")
    known = y != UNLABELED
    labeled = np.flatnonzero(known)
    return np.flatnonzero(~known), labeled, y[labeled].astype(np.int64)


class SymptomValue(enum.IntEnum):
    """Ternary symptom state. Missing is not the same as No."""

    NO = 0
    YES = 1
    MISSING = 2


_CELL_TO_CODE = {"Y": SymptomValue.YES, "N": SymptomValue.NO, ".": SymptomValue.MISSING}
_CELLS = frozenset(_CELL_TO_CODE)
_CHAR_TO_CODE = np.zeros(256, dtype=np.uint8)  # byte of a valid cell -> its code
_CHAR_TO_CODE[[ord(cell) for cell in _CELL_TO_CODE]] = list(_CELL_TO_CODE.values())
_CODE_TO_CHAR = bytes.maketrans(  # code byte -> its cell character
    bytes(map(int, _CELL_TO_CODE.values())), "".join(_CELL_TO_CODE).encode("ascii"))


def _check_identifiers(ids: tuple[str, ...], what: str, minimum: int) -> None:
    if len(ids) < minimum:
        raise InvalidIdentifiers(f"{what} needs at least {minimum} entries, got {len(ids)}")
    if any(not s for s in ids):
        raise InvalidIdentifiers(f"{what} contains an empty identifier")
    if len(set(ids)) != len(ids):
        raise InvalidIdentifiers(f"{what} contains duplicate identifiers")


@dataclass(frozen=True)
class CauseList:
    """Canonical ordered list of C mutually exclusive causes."""

    causes: tuple[str, ...]
    fingerprint: str = field(init=False)

    def __post_init__(self):
        causes = tuple(self.causes)
        _check_identifiers(causes, "cause list", minimum=2)
        object.__setattr__(self, "causes", causes)
        object.__setattr__(self, "fingerprint", fingerprint_ids(causes))

    def __len__(self) -> int:
        return len(self.causes)

    def index(self, name: str) -> int:
        try:
            return self.causes.index(name)
        except ValueError:
            raise UnknownCause(f"cause {name!r} is not in the cause list") from None


@dataclass(frozen=True)
class SymptomDictionary:
    """Canonical ordered list of p symptom identifiers, with a content hash."""

    symptoms: tuple[str, ...]
    fingerprint: str = field(init=False)

    def __post_init__(self):
        symptoms = tuple(self.symptoms)
        _check_identifiers(symptoms, "symptom dictionary", minimum=1)
        object.__setattr__(self, "symptoms", symptoms)
        object.__setattr__(self, "fingerprint", fingerprint_ids(symptoms))

    def __len__(self) -> int:
        return len(self.symptoms)


def _load_identifiers(path, kind):
    """A CauseList or SymptomDictionary (kind) of a UTF-8 file's non-blank lines.

    Bytes that are not UTF-8, and identifiers that kind rejects, raise
    InvalidIdentifiers naming the file.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            return kind(tuple(ln.strip() for ln in fh if ln.strip()))
    except UnicodeDecodeError as exc:
        raise InvalidIdentifiers(
            f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None
    except InvalidIdentifiers as exc:
        raise InvalidIdentifiers(f"{path}: {exc}") from None


def load_cause_list(path) -> CauseList:
    """Newline-delimited cause identifiers, one per line, UTF-8."""
    return _load_identifiers(path, CauseList)


def load_symptom_dictionary(path) -> SymptomDictionary:
    """Newline-delimited symptom identifiers, one per line, UTF-8."""
    return _load_identifiers(path, SymptomDictionary)


@dataclass(frozen=True)
class Dataset:
    """Immutable collection of deaths from one domain.

    x holds SymptomValue codes with shape (n, p); y holds cause indices with
    UNLABELED (-1) marking deaths without a reference cause.
    """

    domain_id: str
    death_ids: tuple[str, ...]
    x: np.ndarray
    y: np.ndarray
    cause_list: CauseList
    symptom_dict: SymptomDictionary

    def __post_init__(self):
        x = np.asarray(self.x, dtype=np.uint8)
        y = np.asarray(self.y, dtype=np.int32)
        n, p = x.shape
        if len(self.death_ids) != n or y.shape != (n,):
            raise ValueError("death_ids, x and y disagree on the record count")
        if p != len(self.symptom_dict):
            raise ValueError("x width disagrees with the symptom dictionary")
        if len(set(self.death_ids)) != n:
            raise DuplicateDeathId(f"duplicate death_id in domain {self.domain_id!r}")
        # load_dataset strips cells and reads a bare \r as a line end, so such
        # ids would not survive write_dataset
        bad = next((d for d in self.death_ids if not d or d != d.strip() or "\r" in d), None)
        if bad is not None:
            raise MalformedCell(f"death_id {bad!r} in domain {self.domain_id!r} is empty, "
                                "padded with whitespace or holds a carriage return")
        if not np.all((x == 0) | (x == 1) | (x == 2)):
            raise MalformedCell("symptom codes must be 0 (No), 1 (Yes) or 2 (Missing)")
        if np.any((y < UNLABELED) | (y >= len(self.cause_list))):
            raise UnknownCause("label index out of range for the cause list")
        x.setflags(write=False)
        y.setflags(write=False)
        object.__setattr__(self, "death_ids", tuple(self.death_ids))
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def p(self) -> int:
        return self.x.shape[1]

    @property
    def labeled_mask(self) -> np.ndarray:
        return self.y != UNLABELED

    def subset(self, indices, domain_id: str | None = None) -> "Dataset":
        idx = np.asarray(indices, dtype=np.int64)
        return Dataset(
            domain_id=domain_id if domain_id is not None else self.domain_id,
            death_ids=tuple(self.death_ids[i] for i in idx),
            x=self.x[idx],
            y=self.y[idx],
            cause_list=self.cause_list,
            symptom_dict=self.symptom_dict,
        )

    def without_labels(self) -> "Dataset":
        return Dataset(
            domain_id=self.domain_id,
            death_ids=self.death_ids,
            x=self.x,
            y=np.full(self.n, UNLABELED, dtype=np.int32),
            cause_list=self.cause_list,
            symptom_dict=self.symptom_dict,
        )


def load_dataset(path, cause_list: CauseList, symptom_dict: SymptomDictionary,
                 domain_id: str | None = None) -> Dataset:
    """Parse one domain's CSV against the shared cause list and dictionary.

    A leading UTF-8 byte-order mark, CRLF line ends and blank lines at the
    end of the file are accepted. Raises UnknownSymptomColumn if the header
    does not match the dictionary order exactly, UnknownCause /
    DuplicateDeathId / MalformedCell per cell, and MalformedCell for a blank
    line before the last record or for bytes that are not UTF-8.
    """
    try:
        return _parse_dataset(path, cause_list, symptom_dict, domain_id)
    except UnicodeDecodeError as exc:
        raise MalformedCell(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None


def _parse_dataset(path, cause_list: CauseList, symptom_dict: SymptomDictionary,
                   domain_id: str | None) -> Dataset:
    p = len(symptom_dict)
    with open(path, encoding="utf-8-sig", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise MalformedCell(f"{path}: empty file") from None
        expected = ["death_id", "cause", *symptom_dict.symptoms]
        if header != expected:
            raise UnknownSymptomColumn(
                f"{path}: header does not match the symptom dictionary order"
            )
        death_ids: list[str] = []
        rows: list[str] = []  # each row's p cells as one string of Y, N and .
        labels: list[int] = []
        seen: set[str] = set()
        blank = None  # line number of the first blank line in a trailing run
        for lineno, row in enumerate(reader, start=2):
            if not row:
                blank = blank or lineno
                continue
            if blank is not None:
                raise MalformedCell(f"{path}:{blank}: blank line before the last record")
            if len(row) != p + 2:
                raise MalformedCell(f"{path}:{lineno}: expected {p + 2} cells, got {len(row)}")
            death_id = row[0].strip()
            if not death_id:
                raise MalformedCell(f"{path}:{lineno}: empty death_id")
            if death_id in seen:
                raise DuplicateDeathId(f"{path}:{lineno}: duplicate death_id {death_id!r}")
            seen.add(death_id)
            cause_cell = row[1].strip()
            if cause_cell == "":
                labels.append(UNLABELED)
            else:
                try:
                    labels.append(cause_list.index(cause_cell))
                except UnknownCause:
                    raise UnknownCause(f"{path}:{lineno}: unknown cause {cause_cell!r}") from None
            cells = row[2:]
            if not _CELLS.issuperset(cells):
                cells = [_checked_cell(path, lineno, symptom_dict.symptoms[j], cell)
                         for j, cell in enumerate(cells)]
            death_ids.append(death_id)
            rows.append("".join(cells))
    codes = np.frombuffer("".join(rows).encode("ascii"), dtype=np.uint8)
    x = _CHAR_TO_CODE[codes].reshape(len(rows), p)
    y = np.asarray(labels, dtype=np.int32)
    return Dataset(
        domain_id=domain_id if domain_id is not None else str(path),
        death_ids=tuple(death_ids),
        x=x,
        y=y,
        cause_list=cause_list,
        symptom_dict=symptom_dict,
    )


def _checked_cell(path, lineno: int, symptom: str, cell: str) -> str:
    """One cell stripped of padding, or MalformedCell naming its line and column."""
    stripped = cell.strip()
    if stripped not in _CELLS:
        raise MalformedCell(
            f"{path}:{lineno}: column {symptom!r} has value {cell!r}, expected Y, N or ."
        )
    return stripped


def dataset_csv_text(dataset: Dataset) -> str:
    """Inverse of load_dataset: cell-exact, order-exact round trip."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["death_id", "cause", *dataset.symptom_dict.symptoms])
    cells = dataset.x.tobytes().translate(_CODE_TO_CHAR).decode("ascii")
    p = dataset.p
    causes = dataset.cause_list.causes
    for i, (death_id, label) in enumerate(zip(dataset.death_ids, dataset.y.tolist())):
        cause_cell = "" if label == UNLABELED else causes[label]
        writer.writerow([death_id, cause_cell, *cells[i * p:(i + 1) * p]])
    return buf.getvalue()


def write_dataset(dataset: Dataset, path) -> None:
    atomic_write_text(path, dataset_csv_text(dataset))


def cause_counts(dataset: Dataset) -> np.ndarray:
    """Per-cause labeled record counts; unlabeled records contribute nothing."""
    y = dataset.y[dataset.labeled_mask]
    return np.bincount(y, minlength=len(dataset.cause_list)).astype(np.int64)
