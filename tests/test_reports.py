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


def _per_cell_classification(cls, cause_list):
    lines = [",".join(["death_id", *cause_list.causes, "top_cause"])]
    for i, death_id in enumerate(cls.death_ids):
        lines.append(",".join([death_id, *(_cell(v) for v in cls.probs[i]),
                               cause_list.causes[int(cls.top[i])]]))
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
