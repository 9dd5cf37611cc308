"""The wait and the transform of one Erlang(k, rate) round, as the analytic
tests call them: each builds a fresh :class:`ouwait.series.ErlangRound`, the
one object the solver reads both from.
"""

import numpy as np

from ouwait.series import ErlangRound


def expected_wait(tau: float, k: int, rate: float) -> float:
    """E[(tau - Y)+] for an Erlang(k, rate) round Y."""
    return ErlangRound(k, rate, ()).wait(tau)[0]


def cycle_transform(tau: float, thetas, k: int, rate: float) -> np.ndarray:
    """E[exp(-2 theta max(tau, Y))] at every theta, in the shape of ``thetas``."""
    thetas = np.asarray(thetas, dtype=float)
    law_round = ErlangRound(k, rate, (2.0 * thetas).ravel().tolist())
    return law_round.transform(tau).reshape(thetas.shape)
