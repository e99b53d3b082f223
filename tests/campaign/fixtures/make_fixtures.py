"""Regenerate the checked-in backward-compatibility fixtures.

The JSON spec files mirror the exact serialization of the PR-1/PR-2 era
(no ``reducer`` field, no store provenance); the ``pr3_store`` directory
is a partially evaluated PR-3 era second-order sensitivity campaign
(manifest + 3 of 5 chunk files, no reducer state, no summary) over the
registered toy problem.  ``streaming_store`` is not written by this
script: it comes from the last version whose jansen reducer took a
``streaming`` option (a scalar toy Sobol campaign, ``M = 8``, chunk size
6, seed 9, reducer ``{"kind": "jansen", "num_bootstrap": 0,
"streaming": true}``, stopped after 6 of 8 chunks with its reducer
snapshot at 5 folded chunks), and the current code cannot reproduce its
checkpoint format.  Run from the repository root::

    PYTHONPATH=src python tests/campaign/fixtures/make_fixtures.py

The fixtures are committed; regenerate only when the *historic* formats
themselves need re-expressing (they should never change).
"""

import os
import shutil

from repro.campaign import ArtifactStore
from repro.campaign.executor import evaluate_chunk, resolve_model
from repro.campaign.runner import campaign_chunks

HERE = os.path.dirname(os.path.abspath(__file__))


def pr1_campaign_spec():
    from tests.campaign.conftest import make_toy_spec

    return make_toy_spec(num_samples=12, chunk_size=4, seed=7)


def pr2_sensitivity_spec():
    from tests.campaign.conftest import make_toy_sensitivity_spec

    return make_toy_sensitivity_spec(num_base_samples=8, chunk_size=6,
                                     seed=3)


def pr3_sensitivity_spec():
    from tests.campaign.conftest import make_toy_sensitivity_spec

    return make_toy_sensitivity_spec(
        num_base_samples=4, chunk_size=7, seed=5,
        second_order=True, groups=[[0, 1], [2, 3]],
    )


def main():
    pr1_campaign_spec().save(os.path.join(HERE, "pr1_campaign_spec.json"))
    pr2_sensitivity_spec().save(
        os.path.join(HERE, "pr2_sensitivity_spec.json")
    )

    spec = pr3_sensitivity_spec()
    spec.save(os.path.join(HERE, "pr3_sensitivity_spec.json"))
    store_path = os.path.join(HERE, "pr3_store")
    if os.path.isdir(store_path):
        shutil.rmtree(store_path)
    store = ArtifactStore(store_path).initialize(spec)
    model = resolve_model(spec.scenario)
    for chunk in campaign_chunks(spec, [0, 2, 3]):
        store.write_chunk(evaluate_chunk(model, chunk))
    print(f"wrote fixtures under {HERE}")


if __name__ == "__main__":
    main()
