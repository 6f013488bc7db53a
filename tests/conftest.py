import numpy as np
import pytest

from fedva.data import CauseList, Dataset, SymptomDictionary

CL3 = CauseList(causes=("cardio", "infect", "trauma"))
SD4 = SymptomDictionary(symptoms=("fever", "cough", "injury", "chest_pain"))


@pytest.fixture(scope="session")
def cl3():
    return CL3


@pytest.fixture(scope="session")
def sd4():
    return SD4


def make_dataset(domain_id, x, y, cl=CL3, sd=SD4, ids=None):
    x = np.asarray(x, dtype=np.uint8)
    y = np.asarray(y, dtype=np.int32)
    if ids is None:
        ids = tuple(f"{domain_id}-{i:04d}" for i in range(x.shape[0]))
    return Dataset(domain_id=domain_id, death_ids=tuple(ids), x=x, y=y,
                   cause_list=cl, symptom_dict=sd)


def batch_se(draws, n_batches=40):
    """Monte Carlo standard error of the mean of correlated draws, by batch means."""
    usable = (len(draws) // n_batches) * n_batches
    batches = draws[:usable].reshape(n_batches, -1, *draws.shape[1:]).mean(axis=1)
    return batches.std(axis=0, ddof=1) / np.sqrt(n_batches)


@pytest.fixture(scope="session")
def labeled_ds():
    """30 fully labeled deaths with cause-dependent symptom patterns."""
    rng = np.random.default_rng(7)
    y = np.repeat([0, 1, 2], 10).astype(np.int32)
    theta = np.array([
        [0.1, 0.2, 0.1, 0.9],
        [0.9, 0.8, 0.1, 0.2],
        [0.1, 0.1, 0.9, 0.1],
    ])
    x = (rng.random((30, 4)) < theta[y]).astype(np.uint8)
    x[0, 0] = 2  # one missing cell
    return make_dataset("alpha", x, y)
