import pytest

import ouwait.series as series
from ouwait import ProcessParams, SystemConfig


@pytest.fixture
def rounds(monkeypatch):
    """Every ``series.ErlangRound`` the package builds during the test, each
    with ``computed``: the thresholds whose transform it computed, in order."""
    built = []

    class Recording(series.ErlangRound):
        def __init__(self, *args):
            super().__init__(*args)
            self.computed = []
            built.append(self)

        def transform(self, tau):
            if tau not in self._transforms:
                self.computed.append(tau)
            return super().transform(tau)

    monkeypatch.setattr(series, "ErlangRound", Recording)
    return built


@pytest.fixture
def two_process_cfg():
    """Reference two-process instance used throughout the numerical studies."""
    return SystemConfig(
        k=2,
        f_max=1.5,
        mu=1.0,
        eps=0.3,
        processes=(ProcessParams(theta=0.1, sigma_sq=1.0), ProcessParams(theta=0.5, sigma_sq=2.0)),
    )


@pytest.fixture
def single_process_cfg():
    """Erasure-free single process with unit stationary variance."""
    return SystemConfig(
        k=1,
        f_max=2.0,
        mu=1.0,
        eps=0.0,
        processes=(ProcessParams(theta=0.5, sigma_sq=1.0),),
    )
