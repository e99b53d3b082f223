"""Second-order & grouped Sobol campaigns, checked against ground truth.

First-order indices say which wire drives the variance; they cannot say
whether two wires *interact*.  This example runs a second-order
sensitivity campaign -- the Saltelli design extended with one ``AB_ij``
block per pair and grouped-factor blocks -- on the Ishigami function,
whose Sobol indices of every order are known in closed form, and prints
the estimates next to the analytic truth (the only non-zero interaction
is S_13).  A re-reduce without bootstrap (``num_bootstrap=0``) streams:
each checkpointed chunk folds into running Jansen sums, so the full
output matrix never materializes, with bit-identical indices.

Run with:  python examples/second_order_campaign.py [base_samples] [workers]

The same flags drive the paper's 12-wire problem (66 pair blocks,
M (12 + 2 + 66) coupled transients -- size M to your budget)::

    repro-campaign sobol spec date16 --samples 64 --second-order \\
        --groups "0,1,2,3,4,5;6,7,8,9,10,11" -o sobol2.json
    repro-campaign run sobol2.json --store sens2/ \\
        --executor process --workers 4 --bootstrap 0
    repro-campaign report sens2/
"""

import sys
import tempfile

import numpy as np

from repro.campaign import (
    ParallelExecutor,
    ScenarioSpec,
    SensitivitySpec,
    run_campaign,
)
from repro.reporting.sensitivity import format_sensitivity_summary
from repro.uq.analytic import ishigami_distribution, ishigami_indices


def main():
    num_base_samples = int(sys.argv[1]) if len(sys.argv) > 1 else 1024
    num_workers = int(sys.argv[2]) if len(sys.argv) > 2 else 4
    groups = [[0, 2], [1]]
    spec = SensitivitySpec(
        name=f"ishigami-sobol2-{num_base_samples}",
        scenario=ScenarioSpec(problem="ishigami", module="repro.uq.analytic"),
        distribution=ishigami_distribution(),
        dimension=3,
        num_base_samples=num_base_samples,
        seed=0,
        chunk_size=max(1, num_base_samples // 2),
        sampler="random",
        second_order=True,
        groups=groups,
        num_bootstrap=200,
    )
    print(
        f"Second-order campaign: M={num_base_samples}, d=3 -> "
        f"{spec.num_samples} evaluations "
        f"({spec.plan.num_pairs} pair blocks, "
        f"{spec.plan.num_groups} group blocks) on {num_workers} workers..."
    )
    store = tempfile.mkdtemp(prefix="ishigami-sobol2-")
    result = run_campaign(
        spec,
        store=store,
        executor=ParallelExecutor(num_workers=num_workers),
    )
    print()
    print(format_sensitivity_summary(result.summary()))

    truth = ishigami_indices()
    print("\nClosed-form ground truth (Ishigami):")
    print(f"  S_i   = {np.round(truth['first_order'], 4).tolist()}")
    print(f"  S_T,i = {np.round(truth['total'], 4).tolist()}")
    for pair in result.second_order.pairs:
        print(f"  S_{pair[0] + 1}{pair[1] + 1}  "
              f"= {truth['second_order'][pair]:.4f}")
    for group in groups:
        label = "{" + ",".join(f"x{i:02d}" for i in group) + "}"
        print(f"  S_T,{label} = {truth['group_total'](group):.4f}")

    stream = run_campaign(
        spec, store=store,
        reducer={"kind": "jansen", "num_bootstrap": 0},
    )
    match = np.array_equal(stream.second_order.interaction,
                           result.second_order.interaction)
    print(f"\nstreaming re-reduce bit-identical: {match}")
    print(f"artifact store (reusable via 'repro-campaign resume'): "
          f"{store}")


if __name__ == "__main__":
    main()
