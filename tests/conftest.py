import numpy as np
import pytest

from entwit import (
    HermitianOperator, choi_witness, extend_witness, random_unitary, rng_from, swap_witness,
)
from entwit.cli import _caps_random


@pytest.fixture(scope="session")
def choi():
    return choi_witness()


@pytest.fixture(scope="session")
def swap():
    return swap_witness()


@pytest.fixture(scope="session")
def rotated_choi(choi):
    """(U_A (x) U_B) choi (U_A (x) U_B)^H for seeded Haar unitaries,
    symmetrized as (m + m^H) / 2 the way operator files are read."""
    rng = rng_from(7)
    u = np.kron(random_unitary(3, rng), random_unitary(3, rng))
    m = u @ choi.mat @ u.conj().T
    return HermitianOperator((m + m.conj().T) / 2, choi.layout)


@pytest.fixture(scope="session")
def capped_choi(choi):
    """choi extended by the caps ``extend choi --random-caps 2 2`` draws at seed 42."""
    return extend_witness(choi, _caps_random((2, 2), 42))


@pytest.fixture(scope="session")
def capped_swap(swap):
    """swap extended by the caps ``extend swap --random-caps 2 3`` draws at seed 42."""
    return extend_witness(swap, _caps_random((2, 3), 42))
