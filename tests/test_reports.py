from types import SimpleNamespace

import numpy as np
import pytest

from fedva.data import CauseList
from fedva.ensemble import Classification
from fedva.reports import classification_csv, lambda_matrix_csv, pi_table_csv

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
