import csv
import io
from types import SimpleNamespace

import numpy as np
import pytest

from fedva import reports
from fedva.calibration import CalibConfig, CalibrationResult
from fedva.data import CauseList
from fedva.ensemble import Classification, EnsembleConfig, PhiTensor, fit_global
from fedva.reports import (
    calibration_text,
    classification_csv,
    lambda_matrix_csv,
    pi_summary,
    pi_table_csv,
    posterior_text,
)

SPECIAL = [0.0, 1.0, 5e-324, 1e-300]


def _cell(v) -> str:
    return repr(float(v))


def _per_cell_pi_table(pi_draws, cause_list):
    mean = pi_draws.mean(axis=0)
    lo, hi = np.quantile(pi_draws, [0.025, 0.975], axis=0)
    lines = ["cause,mean,q2.5,q97.5"]
    for c, name in enumerate(cause_list.causes):
        lines.append(f"{name},{_cell(mean[c])},{_cell(lo[c])},{_cell(hi[c])}")
    return "\n".join(lines) + "\n"


def _per_cell_lambda_matrix(lam, domain_ids, cause_list):
    lines = [",".join(["cause", *domain_ids])]
    for c, name in enumerate(cause_list.causes):
        lines.append(",".join([name, *(_cell(v) for v in lam[c])]))
    return "\n".join(lines) + "\n"


def _csv_name(name: str) -> str:
    """A name cell as csv.writer quotes it with CRLF line ends: quoted when it
    holds a comma, a quote, a CR or an LF."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\r\n").writerow([name, ""])
    return buf.getvalue()[:-3]


def _per_cell_classification(cls, cause_list):
    lines = [",".join(map(_csv_name, ["death_id", *cause_list.causes, "top_cause"]))]
    for i, death_id in enumerate(cls.death_ids):
        lines.append(",".join([_csv_name(death_id), *(_cell(v) for v in cls.probs[i]),
                               _csv_name(cause_list.causes[int(cls.top[i])])]))
    return "\n".join(lines) + "\n"


def _table(rng, rows: int, cols: int) -> np.ndarray:
    """Rows of special values (cycled) followed by random simplex rows."""
    special = np.resize(np.array(SPECIAL), (2, cols))
    return np.vstack([special, rng.dirichlet(np.full(cols, 0.3), size=rows - 2)])


@pytest.mark.parametrize("cols", [4, 6])
def test_float_tables_match_per_cell_formatting(cols):
    rng = np.random.default_rng(cols)
    cl = CauseList(tuple(f"cause_{c}" for c in range(cols)))
    probs = _table(rng, 9, cols)
    cls = Classification(probs=probs, top=probs.argmax(axis=1),
                         death_ids=tuple(f'd{i},"x"' for i in range(9)))
    assert classification_csv(cls, cl) == _per_cell_classification(cls, cl)

    for pi_draws in (probs[:1], probs):   # one draw: the special values verbatim
        assert pi_table_csv(pi_draws, cl) == _per_cell_pi_table(pi_draws, cl)

    lam = _table(rng, cols, 3)
    post = SimpleNamespace(lambda_mean=lambda: lam, domain_ids=("a", "b", "c"))
    assert lambda_matrix_csv(post, cl) == _per_cell_lambda_matrix(lam, post.domain_ids, cl)
    assert "5e-324" in classification_csv(cls, cl) and "1e-300" in lambda_matrix_csv(post, cl)


def test_pi_summary_is_the_mean_and_central_95_percent_interval():
    draws = np.random.default_rng(0).dirichlet(np.ones(4), size=200)
    got = pi_summary(draws)
    assert got.shape == (3, 4)
    assert np.array_equal(got[0], draws.mean(axis=0))
    assert np.array_equal(got[1:], np.quantile(draws, [0.025, 0.975], axis=0))
    lo, hi = got[1:]
    assert np.all(lo <= got[0]) and np.all(got[0] <= hi)


def test_every_pi_report_reads_pi_summary(monkeypatch):
    cl = CauseList(("a", "b"))
    draws = np.full((5, 2), 0.5)
    monkeypatch.setattr(reports, "pi_summary",
                        lambda d: np.array([[0.25, 0.75], [0.125, 0.625], [0.375, 0.875]]))
    assert pi_table_csv(draws, cl).splitlines()[1] == "a,0.25,0.125,0.375"
    post = SimpleNamespace(pi_draws=draws, D=5, config=EnsembleConfig(chains=1),
                           acceptance_rate=None, rhat_pi=np.ones(2))
    calib = CalibrationResult(pi_draws=draws, confusion_mean=np.full((1, 2, 2), 0.5),
                              config=CalibConfig(), domain_ids=("m0",))
    row = f"{'b':<28}{0.75:>10.4f}{0.625:>10.4f}{0.875:>10.4f}"
    for text in (posterior_text(post, cl), calibration_text(calib, cl)):
        assert any(line.startswith(row) for line in text.splitlines())


@pytest.mark.filterwarnings("ignore::UserWarning")  # R-hat of a 40-sweep fit
def test_lambda_matrix_of_a_fit_has_a_header_cell_per_column():
    rng = np.random.default_rng(0)
    phi = PhiTensor(log_phi=np.log(rng.uniform(0.05, 1.0, size=(30, 2, 3))),
                    present=np.ones((2, 3), dtype=np.uint8),
                    death_ids=tuple(f"d{i}" for i in range(30)), domain_ids=("u", "v", "w"))
    post = fit_global(phi, None, EnsembleConfig(chains=2, iterations=40, burn_in=20))
    lines = lambda_matrix_csv(post, CauseList(("a", "b"))).splitlines()
    assert lines[0].split(",") == ["cause", "u", "v", "w"]
    assert [len(line.split(",")) for line in lines[1:]] == [phi.M + 1] * 2


def _read(text: str) -> list:
    return list(csv.reader(io.StringIO(text)))


def test_report_tables_read_back_as_their_cells():
    """Name cells holding a comma, a quote or a line break are quoted, so each
    table reads back through csv.reader with one cell per column; plain names
    are written as they are."""
    causes = ("Injury, road", 'say "hi"', "line\nbreak", "plain")
    cl = CauseList(causes)
    rng = np.random.default_rng(1)
    probs = rng.dirichlet(np.ones(4), size=3)
    death_ids = ("d,0", 'd"1', "d2")
    cls = Classification(probs=probs, top=np.array([0, 1, 3]), death_ids=death_ids)
    rows = _read(classification_csv(cls, cl))
    assert rows[0] == ["death_id", *causes, "top_cause"]
    assert [r[0] for r in rows[1:]] == list(death_ids)
    assert [r[-1] for r in rows[1:]] == ["Injury, road", 'say "hi"', "plain"]
    assert [[float(v) for v in r[1:-1]] for r in rows[1:]] == probs.tolist()

    rows = _read(pi_table_csv(probs, cl))
    assert [r[0] for r in rows] == ["cause", *causes]
    assert np.array_equal(np.array([r[1:] for r in rows[1:]], dtype=float).T, pi_summary(probs))

    lam = rng.dirichlet(np.ones(2), size=4)
    post = SimpleNamespace(lambda_mean=lambda: lam, domain_ids=("site, north", "b"))
    rows = _read(lambda_matrix_csv(post, cl))
    assert rows[0] == ["cause", "site, north", "b"]
    assert [r[0] for r in rows[1:]] == list(causes)
    assert np.array_equal(np.array([r[1:] for r in rows[1:]], dtype=float), lam)

    csmf = probs[0]
    assert _read(reports.csmf_csv(csmf, cl)) == [["cause", *causes],
                                         ["csmf_estimate", *map(repr, csmf.tolist())]]


def test_plain_names_are_written_unquoted():
    cl = CauseList(("a", "b"))
    assert reports.csmf_csv(np.array([0.25, 0.75]), cl) == "cause,a,b\ncsmf_estimate,0.25,0.75\n"
    cls = Classification(probs=np.array([[0.5, 0.5]]), top=np.array([1]), death_ids=("d-0",))
    assert classification_csv(cls, cl) == "death_id,a,b,top_cause\nd-0,0.5,0.5,b\n"
