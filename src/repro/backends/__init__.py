"""Pluggable array backends for the solver stack.

See :mod:`repro.backends.base` for the protocol and DESIGN.md "Array
backends" for the architecture.  Two backends ship built in, and CI
runs the solver suites under both:

* ``numpy`` -- the scipy ``splu`` + numpy reference path (the
  default);
* ``devicesim`` -- a CPU test double enforcing device semantics
  (separate memory space, accounted transfers) so CI
  exercises the device seams without GPU hardware.

Importing this package registers both.
"""

from .base import ArrayBackend, FactorizationHandle
from .registry import (
    default_array_backend_name,
    get_array_backend,
    register_array_backend,
    registered_array_backends,
)

# Register the built-in backends (import order matters only for the
# registry side effect).
from . import devicesim  # noqa: E402,F401
from . import numpy_backend  # noqa: E402,F401
from .devicesim import DeviceArray, DeviceSimBackend
from .numpy_backend import NumpyBackend

__all__ = [
    "ArrayBackend",
    "DeviceArray",
    "DeviceSimBackend",
    "FactorizationHandle",
    "NumpyBackend",
    "default_array_backend_name",
    "get_array_backend",
    "register_array_backend",
    "registered_array_backends",
]
