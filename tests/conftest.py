import pytest

from qultra import SpectralPoint, UltraParams
from qultra.verify import CONFIG_DEFAULTS

# default verification parameter set: every region constraint is satisfied
# (|q/beta| = 0.375 < 0.6 < 1, |q/(beta^2 gamma)| ~ 0.67 < 1)
Q, BETA, GAMMA, T = (CONFIG_DEFAULTS[k] for k in ("q", "beta", "gamma", "t"))
THETAS = CONFIG_DEFAULTS["thetas"]


@pytest.fixture
def params():
    return UltraParams(BETA, GAMMA, Q)


@pytest.fixture
def points():
    return [SpectralPoint.from_theta(t) for t in THETAS]
