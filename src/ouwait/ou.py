"""Ornstein-Uhlenbeck transitions, the MMSE error law, and closed-form error integrals.

All operations accept scalars or numpy arrays (broadcasting) and are pure:
the standard-normal draw for the exact transition is an explicit argument,
so randomness stays with the caller's generator.
"""

from __future__ import annotations

from typing import Union

import numpy as np

from .types import InvalidConfig, ProcessParams

ArrayLike = Union[float, np.ndarray]


def ou_step(x: ArrayLike, dt: ArrayLike, p: ProcessParams, z: ArrayLike) -> ArrayLike:
    """Exact one-step conditional transition over a horizon ``dt``.

    Returns ``x * exp(-theta*dt) + sqrt(sigma_sq * (1 - exp(-2*theta*dt)) / (2*theta)) * z``,
    the mean-reverting Gaussian transition law. No time discretization error.
    """
    dt = np.asarray(dt, dtype=float)
    if not np.all(dt >= 0):
        raise InvalidConfig("dt must be nonnegative")
    decay = np.exp(-p.theta * dt)
    cond_sd = np.sqrt(p.stationary_variance * -np.expm1(-2.0 * p.theta * dt))
    out = np.asarray(x, dtype=float) * decay + cond_sd * np.asarray(z, dtype=float)
    return float(out) if out.ndim == 0 else out


def inst_mse(age: ArrayLike, p: ProcessParams) -> ArrayLike:
    """Estimation error variance at a given information age.

    Equals ``(sigma_sq / 2 theta) * (1 - exp(-2 theta age))``: zero for a fresh
    sample, saturating at the stationary variance as the age grows.
    """
    age = np.asarray(age, dtype=float)
    if not np.all(age >= 0):
        raise InvalidConfig("age must be nonnegative")
    out = p.stationary_variance * -np.expm1(-2.0 * p.theta * age)
    return float(out) if out.ndim == 0 else out


def mse_integral(age0: ArrayLike, dt: ArrayLike, p: ProcessParams) -> ArrayLike:
    """Integral of ``inst_mse(age0 + u)`` for ``u`` in ``[0, dt]``, in closed form.

    Used by the simulator to accumulate error exactly between events instead of
    time-stepping. Additive over adjacent subintervals.
    """
    age0 = np.asarray(age0, dtype=float)
    dt = np.asarray(dt, dtype=float)
    if not (np.all(age0 >= 0) and np.all(dt >= 0)):
        raise InvalidConfig("age0 and dt must be nonnegative")
    two_theta = 2.0 * p.theta
    out = p.stationary_variance * (
        dt + (1.0 / two_theta) * np.exp(-two_theta * age0) * np.expm1(-two_theta * dt)
    )
    return float(out) if out.ndim == 0 else out
