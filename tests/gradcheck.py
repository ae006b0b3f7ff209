"""Finite-difference oracle for the analytic gradients under test."""

from typing import Callable

import numpy as np


def finite_difference_gradients(f: Callable[[], float], params: np.ndarray,
                                h: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of ``f()`` w.r.t. the array ``params``,
    perturbed in place.

    ``f`` must read the live ``params``; each coordinate is nudged by +/- h
    and restored. Used as the slow-but-independent check on the analytic
    backward pass.
    """
    grad = np.zeros_like(params, dtype=np.float64)
    for j in range(params.size):
        orig = params.flat[j]
        params.flat[j] = orig + h
        f_plus = f()
        params.flat[j] = orig - h
        f_minus = f()
        params.flat[j] = orig
        grad.flat[j] = (f_plus - f_minus) / (2.0 * h)
    return grad
