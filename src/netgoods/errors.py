"""Exception hierarchy shared across the package."""

import math

import numpy as np


class NetgoodsError(Exception):
    """Base class for all package errors."""


class InputError(NetgoodsError):
    """Invalid user input: bad schema, violated invariant, unmet precondition."""


class DomainError(InputError):
    """A point falls outside a function's declared domain."""


class NumericsError(NetgoodsError):
    """A numerical procedure failed (divergence, iteration cap, singularity)."""


class IntegrationError(NumericsError):
    """ODE integration produced a non-finite state.

    Carries the trajectory accumulated up to the last good state in
    ``last_good`` so callers can inspect where things went wrong.
    """

    def __init__(self, message, last_good=None):
        super().__init__(message)
        self.last_good = last_good


class SingularMatrixError(NumericsError):
    """A linear system was singular or numerically unsolvable."""


def check_shape(shape: tuple[int, ...], what: str, itemsize: int = 8) -> tuple[int, ...]:
    """The shape, or InputError naming ``what`` when an array of it, ``itemsize`` bytes an entry, exceeds numpy's index range."""
    if math.prod(shape) * itemsize > np.iinfo(np.intp).max:
        raise InputError(f"{what} is too large: an array of shape {shape} exceeds {np.iinfo(np.intp).max} bytes")
    return shape
