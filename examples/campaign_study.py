"""The paper's Monte Carlo study as a checkpointed, parallel campaign.

Runs a small Date16 campaign through the campaign engine: declarative
spec, process-pool executor (model + factorizations built once per
worker), per-chunk checkpoints in an artifact store, and a summary
table.  Kill this script at any point and re-run it -- already
checkpointed chunks are never recomputed, and the final statistics are
bit-identical to an uninterrupted run.

Equivalent CLI session::

    repro-campaign spec date16 --samples 16 -o campaign.json
    repro-campaign run campaign.json --store campaign-store \\
        --executor process --workers 4
    repro-campaign report campaign-store

``REPRO_MC_SAMPLES`` overrides the sample count (CI smoke runs use 4).
"""

import os

from repro.campaign import ParallelExecutor, run_campaign
from repro.package3d.scenarios import date16_campaign_spec
from repro.reporting import format_campaign_summary

STORE = os.path.join(os.path.dirname(__file__), "campaign-store")


def main():
    num_samples = int(os.environ.get("REPRO_MC_SAMPLES", "16"))
    spec = date16_campaign_spec(
        num_samples=num_samples,
        chunk_size=2,
        resolution="coarse",
        qoi="final",  # per-wire end-time temperatures
    )
    print(f"running {spec} -> {STORE}")
    result = run_campaign(
        spec,
        store=STORE,
        executor=ParallelExecutor(num_workers=4),
        progress=lambda event: print(
            f"  chunk {event['done']}/{event['total']}"
        ),
    )
    print()
    print(format_campaign_summary(result.summary()))
    print()
    print(f"evaluated {result.num_evaluated} samples this run "
          f"({result.num_samples} total in the store)")


if __name__ == "__main__":
    main()
