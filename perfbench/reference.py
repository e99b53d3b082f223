"""Compute the Date16 correctness reference recorded in workloads.json.

One large fixed-grid campaign (the ``date16_mc_blocked`` options, the
reference seed and sample count from ``date16_reference``); prints the
hottest wire's mean and standard deviation of the end temperature.  It
takes several minutes; run it once, when the physics or the workload
inputs change, and copy the numbers into ``workloads.json``::

    python3 perfbench/reference.py
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    from run import THREAD_VARIABLES

    for name in THREAD_VARIABLES:
        os.environ[name] = "1"
    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
    import numpy as np

    import workloads
    from repro.campaign import runner

    config = workloads.load_config("date16_mc_blocked")
    reference = config["reference"]
    spec = workloads.date16_spec(config, reference["seed"],
                                 num_samples=reference["num_samples"])
    result = runner.run_campaign(spec, executor="serial")
    final = np.asarray(result.mean).reshape(-1, spec.dimension)[-1]
    spread = np.asarray(result.std).reshape(-1, spec.dimension)[-1]
    wire = int(np.argmax(final))
    print(json.dumps({
        "seed": reference["seed"],
        "num_samples": int(result.num_samples),
        "wire": wire,
        "mean_end_temperature_K": float(final[wire]),
        "std_end_temperature_K": float(spread[wire]),
    }, indent=2))


if __name__ == "__main__":
    main()
