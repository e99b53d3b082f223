"""Shareable sparse LU factorization cache.

A Monte Carlo campaign rebuilds structurally identical solvers over and
over: every worker process assembles the same base matrices (the frozen
field stiffness, the thermal base for a given time step) and would pay a
fresh ``splu`` each time.  :class:`FactorizationCache` memoizes ``splu``
results keyed by a content fingerprint of the matrix, so rebuilding a
solver inside the same process -- after a resume, for a second time-step
size, or for a rebuilt scenario -- reuses the existing factorization.

The key is a hash of the CSC structure *and* values, so two matrices only
share a factorization when they are numerically identical; there is no
risk of stale reuse after a material or mesh change.  The cache is
bounded (LRU) because LU factors of field matrices are large.

``shared_cache()`` returns a per-process singleton; campaign workers use
it so that every solver built in that worker shares one pool.  Threads
share it too (the ``thread`` executor, concurrent service jobs), so a
lookup is single-flight per key: the first caller factorizes while later
callers for the same matrix wait for its result and count a hit.
"""

import hashlib
import threading
from collections import OrderedDict

import numpy as np
import scipy.sparse.linalg as spla

from ..errors import SolverError
from ..telemetry import MetricsRegistry
from ..telemetry import tracing as telemetry


def matrix_fingerprint(matrix):
    """Content hash of a sparse matrix (shape + canonical CSC + values).

    The structure is canonicalized before hashing -- duplicates summed,
    explicit zeros dropped, indices sorted -- so numerically identical
    matrices fingerprint identically no matter how they were assembled
    (an ``A + 0 * B`` sum leaves explicit zeros; COO-style construction
    can leave unsummed duplicates).  The input is never mutated:
    canonicalization happens on a copy when needed (``tocsc()`` returns
    the same object for CSC inputs).
    """
    csc = matrix.tocsc()
    if not csc.has_canonical_format or np.any(csc.data == 0.0):
        csc = csc.copy()
        csc.sum_duplicates()
        csc.eliminate_zeros()
    digest = hashlib.sha256()
    digest.update(repr(csc.shape).encode())
    digest.update(csc.indptr.tobytes())
    digest.update(csc.indices.tobytes())
    digest.update(csc.data.tobytes())
    return digest.hexdigest()


def checked_splu(matrix):
    """``splu`` with library-error wrapping (shared by cached/uncached).

    Runs SuperLU's symmetric mode (AT+A minimum degree ordering, no
    partial pivoting) -- roughly half the factorization time and fill-in
    of the pivoted default on the symmetric positive definite bases of
    the fast coupled path and the full-mode systems of
    :class:`~repro.solvers.linear.LinearSolver`.  Only pass SPD matrices.
    """
    try:
        return spla.splu(
            matrix.tocsc(),
            permc_spec="MMD_AT_PLUS_A",
            diag_pivot_thresh=0.0,
            options={"SymmetricMode": True},
        )
    except RuntimeError as exc:
        raise SolverError(f"LU factorization failed: {exc}") from exc


class FactorizationCache:
    """Bounded LRU cache of ``splu`` factorizations by matrix content.

    Parameters
    ----------
    max_entries:
        Factorizations kept alive at once; the least recently used entry
        is evicted first.
    """

    def __init__(self, max_entries=8):
        max_entries = int(max_entries)
        if max_entries < 1:
            raise SolverError(
                f"max_entries must be >= 1, got {max_entries}"
            )
        self.max_entries = max_entries
        self._entries = OrderedDict()
        #: Guards ``_entries``, ``_in_flight`` and the counters.
        self._lock = threading.Lock()
        #: Fingerprint -> event set once that key's factorization ends.
        self._in_flight = {}
        #: Hit/miss counters live in a per-cache metrics registry; the
        #: ``hits`` / ``misses`` attributes and ``stats()`` dict below
        #: are thin views over it.
        self.metrics = MetricsRegistry()

    def __len__(self):
        return len(self._entries)

    @property
    def hits(self):
        """Lifetime cache hits (view over the metrics registry)."""
        return int(self.metrics.counter_value("hits"))

    @property
    def misses(self):
        """Lifetime cache misses (view over the metrics registry)."""
        return int(self.metrics.counter_value("misses"))

    def factorize(self, matrix):
        """SuperLU factorization of ``matrix``, memoized by content.

        Single-flight per fingerprint: while one thread factorizes a
        matrix, other callers for the same matrix wait and then count a
        hit on its result.  A factorization that raises is not cached;
        it wakes its waiters, and the next of them tries again.
        """
        key = matrix_fingerprint(matrix)
        while True:
            with self._lock:
                lu = self._entries.get(key)
                if lu is not None:
                    self._entries.move_to_end(key)
                    self.metrics.increment("hits")
                    telemetry.increment("cache.hits")
                    return lu
                done = self._in_flight.get(key)
                if done is None:
                    done = self._in_flight[key] = threading.Event()
                    self.metrics.increment("misses")
                    telemetry.increment("cache.misses")
                    break
            done.wait()
        try:
            lu = checked_splu(matrix)
            with self._lock:
                self._entries[key] = lu
                while len(self._entries) > self.max_entries:
                    self._entries.popitem(last=False)
        finally:
            with self._lock:
                del self._in_flight[key]
            done.set()
        return lu

    def clear(self):
        """Drop every cached factorization (counters are kept)."""
        with self._lock:
            self._entries.clear()

    def stats(self):
        """``{"entries", "hits", "misses"}`` for diagnostics/benchmarks."""
        return {
            "entries": len(self._entries),
            "hits": self.hits,
            "misses": self.misses,
        }


_SHARED = None
_SHARED_LOCK = threading.Lock()


def shared_cache():
    """The per-process shared cache (created on first use)."""
    global _SHARED
    with _SHARED_LOCK:
        if _SHARED is None:
            _SHARED = FactorizationCache()
        return _SHARED
