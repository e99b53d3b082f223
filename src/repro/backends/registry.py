"""Array-backend registry: names to lazily constructed singletons.

Mirrors the executor/reducer registries (``register_backend``,
``register_reducer``): register a zero-argument factory under a name,
resolve it anywhere a backend is named -- ``WoodburySolver(backend=...)``,
``CoupledSolver(array_backend=...)``, scenario ``options``, the CLI's
``--array-backend``, service job options.

Backends are process singletons: the first ``get_array_backend(name)``
constructs the instance, later calls return the same object, so
telemetry state (``transfer_count``) accumulates coherently and the
factorization cache can key handles by ``backend.name`` alone.  A
factory that *raises* is not cached, so a retry constructs it again.

The default backend is ``numpy`` unless the ``REPRO_ARRAY_BACKEND``
environment variable names another registered backend -- that is how
CI runs the whole blocked-equivalence suite under ``devicesim`` without
touching the tests' construction sites.  An explicit selection always
wins over the environment.
"""

import os

from ..errors import SolverError
from .base import ArrayBackend

#: Environment variable overriding the default backend name.
ENV_DEFAULT = "REPRO_ARRAY_BACKEND"

_FACTORIES = {}
_INSTANCES = {}


def register_array_backend(name, factory=None):
    """Register ``factory() -> ArrayBackend`` under ``name``.

    Usable directly or as a decorator (the executor-registry idiom)::

        @register_array_backend("mybackend")
        def _mybackend():
            return MyBackend()
    """
    if factory is None:
        def decorator(func):
            _FACTORIES[str(name)] = func
            return func
        return decorator
    _FACTORIES[str(name)] = factory
    return factory


def registered_array_backends():
    """Sorted names of every registered array backend."""
    return sorted(_FACTORIES)


def default_array_backend_name():
    """``numpy``, unless ``REPRO_ARRAY_BACKEND`` overrides it."""
    return os.environ.get(ENV_DEFAULT) or "numpy"


def get_array_backend(backend=None):
    """Resolve a backend selection to its process-singleton instance.

    ``backend`` may be ``None`` (the default backend), a registered
    name, or an :class:`~repro.backends.base.ArrayBackend` instance
    (returned as-is).  Unknown names raise :class:`SolverError` listing
    what is registered; a backend whose construction fails (missing
    optional dependency) propagates its own error.
    """
    if isinstance(backend, ArrayBackend):
        return backend
    if backend is None:
        backend = default_array_backend_name()
    name = str(backend)
    if name not in _FACTORIES:
        raise SolverError(
            f"unknown array backend {name!r}; registered backends: "
            f"{registered_array_backends()}"
        )
    if name not in _INSTANCES:
        _INSTANCES[name] = _FACTORIES[name]()
    return _INSTANCES[name]
