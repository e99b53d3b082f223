"""Machine-readable store status from checkpoints, never chunk replays.

The one read path behind both the service's ``GET /jobs/<id>`` endpoint
and ``repro-campaign status`` / ``report --partial``: everything comes
from the store's *small* files -- ``manifest.json``, the fixed 32-byte
part of each ``chunks.log`` record (the chunk count), the checkpointed
``reducer_state.npz`` (one small npz holding the reduction state, not
the samples), ``quarantine.json`` and ``telemetry/progress.json``.  No
chunk payload is ever read, so status on a million-sample campaign
costs one small positioned read per chunk record plus a few
kilobyte-sized reads -- cheap enough to poll per second while the
campaign runs.

:func:`partial_summary` is the ``report --partial`` synthesis: the
persisted ``summary.json`` when the campaign completed, otherwise the
same scalar rows computed from the checkpointed partial moments with a
``"partial": True`` marker.
"""

import os

import numpy as np

from ..campaign.store import ArtifactStore
from ..errors import CampaignError
from ..uq.statistics import RunningStatistics

#: Store lifecycle states reported by :func:`store_status`.
STATES = ("empty", "in_progress", "complete")


def _as_store(store):
    if not isinstance(store, ArtifactStore):
        store = ArtifactStore(store)
    return store


def partial_moments(store):
    """Partial Monte Carlo moments from the reducer-state checkpoint.

    Restores the checkpointed :class:`RunningStatistics` of a
    ``"moments"`` reduction and returns its scalar summary rows
    (``count`` samples folded so far, mean/std/error extrema), or
    ``None`` when the store has no checkpoint yet, the reducer is not
    ``"moments"``, or nothing has been folded.
    """
    return _moments_of(_as_store(store).read_reducer_state())


def _moments_of(restored):
    """:func:`partial_moments` of an already read reducer state."""
    if restored is None:
        return None
    meta, arrays = restored
    reducer = meta.get("reducer") or {}
    if reducer.get("kind") != "moments":
        return None
    statistics = RunningStatistics().load_state_dict({
        key: value for key, value in arrays.items()
        if key != "__parameters__"
    })
    if statistics.count == 0:
        return None
    moments = {
        "count": int(statistics.count),
        "mean_max": float(np.max(statistics.mean)),
        "mean_min": float(np.min(statistics.mean)),
        "argmax_output": int(np.argmax(statistics.mean)),
    }
    if statistics.count > 1:
        moments["std_max"] = float(np.max(statistics.std()))
        moments["error_mc_max"] = float(np.max(statistics.standard_error()))
    return moments


def frontier(store):
    """The folded-chunk frontier: ``next_chunk`` of the checkpointed
    reduction (0 when no reducer state exists)."""
    return _frontier_of(_as_store(store).read_reducer_state())


def _frontier_of(restored):
    """:func:`frontier` of an already read reducer state."""
    if restored is None:
        return 0
    meta, _ = restored
    return int(meta.get("next_chunk", 0))


def store_status(store):
    """One JSON-serializable status snapshot of a campaign store.

    Works on any store directory -- empty, mid-run, killed, or complete
    -- and degrades gracefully: fields whose source files do not exist
    yet are simply absent.  The ``state`` field is one of
    :data:`STATES`; ``progress`` is the runner's latest
    ``telemetry/progress.json`` heartbeat; ``moments`` the partial
    statistics (see :func:`partial_moments`); ``summary`` the final
    summary once complete.
    """
    store = _as_store(store)
    status = {
        "event": "status",
        "store": os.path.abspath(store.path),
    }
    if not store.exists():
        status["state"] = "empty"
        return status
    spec = store.load_spec()
    completed = store.completed_chunks(validate=False)
    # One read serves both the frontier and the partial moments.
    restored = store.read_reducer_state()
    quarantine = store.read_quarantine()
    complete = os.path.isfile(store.summary_path)
    status.update({
        "state": "complete" if complete else "in_progress",
        "campaign": spec.name,
        "kind": spec.kind,
        "problem": spec.scenario.problem,
        "qoi": spec.scenario.qoi,
        "num_samples": int(spec.num_samples),
        "total_chunks": int(spec.num_chunks),
        "chunks_completed": len(completed),
        "chunks_folded": _frontier_of(restored),
        "quarantined_chunks": len(quarantine),
        "quarantined_samples": int(sum(
            len(record.get("indices", ()))
            for record in quarantine.values()
        )),
        "locked": os.path.exists(store.lock_path),
    })
    owner = store.lock_owner()
    if owner is not None:
        status["lock_owner"] = owner
    progress = store.read_progress()
    if progress is not None:
        status["progress"] = progress
    moments = _moments_of(restored)
    if moments is not None:
        status["moments"] = moments
    if complete:
        status["summary"] = store.read_summary()
    return status


def partial_summary(store):
    """A report-ready summary for a store in *any* state.

    The persisted ``summary.json`` when the campaign completed;
    otherwise a synthesized partial summary (``"partial": True``) from
    the reducer-state checkpoint, quarantine records and progress
    heartbeat.  Raises :class:`CampaignError` only for a store with no
    manifest at all.
    """
    store = _as_store(store)
    if not store.exists():
        raise CampaignError(
            f"no campaign manifest at {store.path!r}; nothing to report"
        )
    if os.path.isfile(store.summary_path):
        return store.read_summary()
    status = store_status(store)
    spec = store.load_spec()
    summary = {
        "partial": True,
        "campaign": spec.name,
        "problem": spec.scenario.problem,
        "qoi": spec.scenario.qoi,
        "num_chunks": int(spec.num_chunks),
        "chunks_completed": status["chunks_completed"],
        "chunks_folded": status["chunks_folded"],
    }
    moments = status.get("moments")
    if moments is not None:
        summary["num_samples"] = moments["count"]
        for key in ("mean_max", "mean_min", "std_max", "error_mc_max",
                    "argmax_output"):
            if key in moments:
                summary[key] = moments[key]
    else:
        summary["num_samples"] = 0
    if status["quarantined_chunks"]:
        summary["num_quarantined_chunks"] = status["quarantined_chunks"]
        summary["num_quarantined_samples"] = status["quarantined_samples"]
    progress = status.get("progress")
    if progress is not None:
        summary["rate_chunks_per_s"] = progress.get("rate_per_s")
    return summary
