import pytest

from anires import ModelCoefficients, benderwu_build


@pytest.fixture(scope="session")
def bw_state():
    return benderwu_build(12)


@pytest.fixture(scope="session")
def bw_state_20():
    return benderwu_build(20)


@pytest.fixture(scope="session")
def qm_table(bw_state):
    return bw_state.energy


@pytest.fixture(scope="session")
def model_table_40():
    return ModelCoefficients.build(40).table
