"""Fixtures shared by several test modules."""

import numpy as np
import pytest

from stochastic_disparity.model import LikelihoodVolume, ModelParams


@pytest.fixture
def timeout_volume():
    """A 1x3 valid grid, d_max 2. Pixel 0 matches at disparity 1; pixels 1
    and 2 are no-match, and their 0.05 no-match channel needs ~320 cycles to
    fill 16 counts, so at n_max 16 they time out at max_cycles 50."""
    params = ModelParams(d_max=2)
    rates = np.full((1, 3, 4), params.p0**3)
    rates[0, 0, 1] = 0.9
    rates[..., -1] = 0.05
    return LikelihoodVolume(rates, params)
