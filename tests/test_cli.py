import numpy as np
import pytest

from hamforge import cli
from hamforge.config import ConfigError


def test_initial_state_normalizes_vector():
    psi = cli._initial_state([3.0, 4.0j], 1)
    assert np.allclose(psi, [0.6, 0.8j])


def test_initial_state_rejects_zero_vector():
    with pytest.raises(ConfigError, match="initial_state.*zero norm"):
        cli._initial_state([0.0, 0.0], 1)
