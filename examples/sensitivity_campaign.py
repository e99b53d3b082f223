"""Distributed Sobol sensitivity: which wire drives the variance?

The paper's Section I question costs ``M (d + 2)`` full transients -- far
too many for a serial loop at real sample counts.  This example runs the
Saltelli design as a *campaign*: checkpointed to an artifact store,
evaluated by a process pool in which every worker builds the coupled
solver once, and reduced with Jansen's estimators generalized to the
vector of per-wire end temperatures (with bootstrap confidence
intervals).  Kill it at any point and rerun: it resumes from the last
completed chunk and reproduces the uninterrupted indices bit for bit.

Run with:  python examples/sensitivity_campaign.py [base_samples] [workers]

(The default M=4 keeps the demo at 72 coarse transients; the paper-scale
study is the same command with M=256 on as many workers as you have.
Equivalent CLI: ``repro-campaign sobol spec`` + the unified
``repro-campaign run/resume/report``.)
"""

import sys
import tempfile

from repro.campaign import ParallelExecutor, run_campaign
from repro.package3d.scenarios import date16_sensitivity_spec
from repro.reporting.sensitivity import format_sensitivity_summary


def main():
    num_base_samples = int(sys.argv[1]) if len(sys.argv) > 1 else 4
    num_workers = int(sys.argv[2]) if len(sys.argv) > 2 else 4
    spec = date16_sensitivity_spec(
        num_base_samples=num_base_samples,
        chunk_size=max(1, num_base_samples // 2),
        qoi="final",
    )
    print(
        f"Sensitivity campaign: M={num_base_samples}, d={spec.dimension} "
        f"wires -> {spec.num_samples} coupled transients on "
        f"{num_workers} workers..."
    )
    store = tempfile.mkdtemp(prefix="date16-sobol-")

    def progress(event):
        print(f"  chunk {event['done']}/{event['total']} checkpointed",
              flush=True)

    result = run_campaign(
        spec,
        store=store,
        executor=ParallelExecutor(num_workers=num_workers),
        progress=progress,
    )
    print()
    print(format_sensitivity_summary(result.summary()))
    print(f"\nartifact store (reusable via 'repro-campaign resume'): "
          f"{store}")


if __name__ == "__main__":
    main()
