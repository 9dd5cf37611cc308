"""Ornstein-Uhlenbeck transitions, the MMSE error law, and closed-form error integrals.

All operations accept scalars or numpy arrays (broadcasting) and are pure:
the standard-normal draw for the exact transition is an explicit argument,
so randomness stays with the caller's generator.
"""

from __future__ import annotations

from typing import Tuple, Union

import numpy as np

from .types import InvalidConfig, ProcessParams, _reals

ArrayLike = Union[float, np.ndarray]


def ou_step(x: ArrayLike, dt: ArrayLike, p: ProcessParams, z: ArrayLike) -> ArrayLike:
    """Exact one-step conditional transition over a horizon ``dt``.

    Returns ``x * exp(-theta*dt) + sqrt(sigma_sq * (1 - exp(-2*theta*dt)) / (2*theta)) * z``,
    the mean-reverting Gaussian transition law. No time discretization error.
    """
    x, dt, z = _reals("x", x), _reals("dt", dt), _reals("z", z)
    if not np.all(dt >= 0):
        raise InvalidConfig("dt must be nonnegative")
    decay, innovation = _transition(dt, p, z)
    out = x * decay + innovation
    return float(out) if out.ndim == 0 else out


def _transition(dt: ArrayLike, p: ProcessParams, z: ArrayLike) -> Tuple[ArrayLike, ArrayLike]:
    """The decay ``exp(-theta*dt)`` and the innovation
    ``sqrt(sigma_sq * (1 - exp(-2*theta*dt)) / (2*theta)) * z`` of :func:`ou_step`,
    which returns ``x * decay + innovation``; ``dt`` is not checked."""
    decay = np.exp(-p.theta * dt)
    cond_sd = np.sqrt(p.stationary_variance * -np.expm1(-2.0 * p.theta * dt))
    return decay, cond_sd * z


def inst_mse(age: ArrayLike, p: ProcessParams) -> ArrayLike:
    """Estimation error variance at a given information age.

    Equals ``(sigma_sq / 2 theta) * (1 - exp(-2 theta age))``: zero for a fresh
    sample, saturating at the stationary variance as the age grows.
    """
    age = _reals("age", age)
    if not np.all(age >= 0):
        raise InvalidConfig("age must be nonnegative")
    out = _inst_mse(age.copy(), p)
    return float(out) if out.ndim == 0 else out


def _inst_mse(age: np.ndarray, p: ProcessParams) -> np.ndarray:
    """:func:`inst_mse` written over ``age``, a float array, and returned; the
    input is not checked. The operations are those of
    ``var * -expm1(-2theta age)``, up to the order within a product and the
    sign moved from a factor to the other, so the bits are the same."""
    age *= -2.0 * p.theta
    np.expm1(age, out=age)
    age *= -p.stationary_variance
    return age


def mse_integral(age0: ArrayLike, dt: ArrayLike, p: ProcessParams) -> ArrayLike:
    """Integral of ``inst_mse(age0 + u)`` for ``u`` in ``[0, dt]``, in closed form.

    Used by the simulator to accumulate error exactly between events instead of
    time-stepping. Additive over adjacent subintervals.
    """
    age0, dt = _reals("age0", age0), _reals("dt", dt)
    if not (np.all(age0 >= 0) and np.all(dt >= 0)):
        raise InvalidConfig("age0 and dt must be nonnegative")
    out, dt = np.broadcast_arrays(age0, dt)
    out = _error_integral(out.copy(), dt, p.theta, p.stationary_variance)
    return float(out) if out.ndim == 0 else out


def _error_integral(age0: np.ndarray, dt: np.ndarray, theta: ArrayLike, var: ArrayLike) -> np.ndarray:
    """:func:`mse_integral` written over ``age0``, a float array of the result's
    shape, and returned, at ``theta`` and stationary variance ``var``, scalars
    or a column per row; the inputs are not checked. Each operation takes the
    operands of ``var * (dt + (1/2theta) exp(-2theta age0) expm1(-2theta dt))``
    in that order, up to the order within a product or sum: the same bits."""
    two_theta = 2.0 * theta
    age0 *= -two_theta
    np.exp(age0, out=age0)
    age0 *= 1.0 / two_theta
    rest = np.multiply(dt, -two_theta, out=np.empty_like(age0))
    np.expm1(rest, out=rest)
    age0 *= rest
    age0 += dt
    age0 *= var
    return age0
