"""Fig. 7 + Section V-D: the Monte Carlo temperature study.

Regenerates the expected temperature of the hottest bonding wire over time
with its 6-sigma band, and the quoted scalars sigma_MC, error_MC and the
band's crossing of the critical temperature.

Two configurations are produced:

* **paper parameters** (V_bw = 40 mV): our geometry reaches a lower
  absolute temperature than the authors' (see EXPERIMENTS.md for the
  power-balance analysis), so the absolute values differ while every
  qualitative feature (monotone saturation, steady state by ~50 s,
  sigma_MC a few per cent of the rise, error_MC = sigma/sqrt(M)) holds;
* **stress variant** (V_bw = 118 mV): reproduces the *picture* of Fig. 7 --
  the expected trace approaches the critical temperature and the 6-sigma
  band crosses it mid-transient.

REPRO_FIG7_SAMPLES controls the sample count (default 40, paper 1000).
"""

import numpy as np

from repro.package3d.chip_example import Date16Parameters
from repro.package3d.uq_study import Date16UncertaintyStudy
from repro.reporting.figures import fig7_data
from repro.reporting.series import write_csv

from .conftest import (
    artifact_path,
    bench_resolution,
    bench_timings,
    fig7_samples,
    write_artifact,
    write_bench_json,
)


def _run_study(study, num_samples):
    return study.run_monte_carlo(num_samples=num_samples, seed=0)


def _report(tag, result, num_samples):
    mean, std = result.hottest_wire_traces()
    data = fig7_data(result.times, mean, std, num_samples)
    csv = write_csv(
        artifact_path(f"fig7_{tag}.csv"),
        ["time_s", "E_K", "lower_6sigma_K", "upper_6sigma_K"],
        [data["times"], data["mean"], data["lower"], data["upper"]],
    )
    crossing = data["band_crossing_time"]
    lines = [
        f"FIG. 7 ({tag}): EXPECTED TEMPERATURE OF THE HOTTEST WIRE",
        f"M = {num_samples} samples "
        f"(paper: M = 1000)",
        f"hottest wire: {result.wire_names[result.hottest_wire_index]}",
        f"E(50 s)    = {data['mean'][-1]:8.2f} K",
        f"sigma_MC   = {data['sigma_mc']:8.3f} K   (paper: 4.65 K)",
        f"error_MC   = {data['error_mc']:8.4f} K   (paper: 0.147 K)",
        f"T_critical = {data['t_critical']:8.1f} K",
        "6-sigma band crossing: "
        + ("never" if crossing is None else f"t = {crossing:.1f} s "
           "(paper: t > 26 s)"),
        "",
        "   t [s]    E [K]    E+6sig   E-6sig",
    ]
    for index in range(0, data["times"].size, 5):
        lines.append(
            f"  {data['times'][index]:6.1f}  {data['mean'][index]:8.2f} "
            f"{data['upper'][index]:8.2f} {data['lower'][index]:8.2f}"
        )
    text = "\n".join(lines)
    path = write_artifact(f"fig7_{tag}.txt", text)
    print("\n" + text)
    print(f"\n[artifacts] {path}, {csv}")
    return data


def test_fig7_paper_parameters(benchmark, uq_study):
    """The study with the paper's exact Table II parameters."""
    num_samples = fig7_samples()
    result = benchmark.pedantic(
        _run_study, args=(uq_study, num_samples), rounds=1, iterations=1
    )
    data = _report("paper_params", result, num_samples)
    write_bench_json(
        "fig7_mc_temperature",
        timings=bench_timings(benchmark),
        counters={"samples": num_samples},
        sigma_mc_kelvin=float(data["sigma_mc"]),
        error_mc_kelvin=float(data["error_mc"]),
    )

    # Qualitative claims that must hold on any mesh:
    assert np.all(np.diff(data["mean"]) > -1e-6)      # monotone heating
    assert data["mean"][-1] < data["t_critical"]      # claim 2
    assert data["sigma_mc"] > 0.0                     # claim 4
    assert data["error_mc"] == data["sigma_mc"] / np.sqrt(num_samples)
    # Steady state by the end of the window (claim 1).
    rise = data["mean"][-1] - data["mean"][0]
    assert abs(data["mean"][-1] - data["mean"][-3]) < 0.02 * rise


def test_fig7_stress_variant(benchmark):
    """Elevated drive voltage: reproduces the Fig. 7 crossing picture."""
    num_samples = fig7_samples()
    parameters = Date16Parameters(pair_voltage=0.118)
    study = Date16UncertaintyStudy(
        parameters=parameters, resolution=bench_resolution(), tolerance=1e-3
    )
    result = benchmark.pedantic(
        _run_study, args=(study, num_samples), rounds=1, iterations=1
    )
    data = _report("stress_118mV", result, num_samples)

    # The stress variant must show the paper's phenomenon: the band gets
    # close to / crosses the critical line while the mean stays below it
    # for most of the transient.
    assert data["mean"][-1] > 450.0
    assert data["upper"][-1] > 0.97 * data["t_critical"]
