import numpy as np
import pytest


@pytest.fixture
def rng():
    return np.random.Generator(np.random.Philox(key=np.uint64(20240)))
