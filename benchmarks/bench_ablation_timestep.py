"""Ablation: time discretization (implicit Euler step size + adaptivity).

The paper fixes 51 points over 50 s (Table II).  This bench measures the
first-order convergence of implicit Euler on the package transient and
compares the adaptive step-doubling controller against fixed stepping at
matched accuracy.
"""

import numpy as np

from repro.coupled.electrothermal import CoupledSolver
from repro.package3d.chip_example import build_date16_problem
from repro.reporting.tables import format_table
from repro.solvers.adaptive import adaptive_implicit_euler
from repro.solvers.time_integration import TimeGrid

from .conftest import (
    bench_resolution,
    bench_timings,
    write_artifact,
    write_bench_json,
)

END_TIME = 50.0


def test_ablation_time_step(benchmark):
    problem, _ = build_date16_problem(resolution=bench_resolution())

    def run_fixed(num_steps):
        solver = CoupledSolver(problem, mode="fast", tolerance=1e-4)
        result = solver.solve_transient(TimeGrid(END_TIME, num_steps))
        return float(np.max(result.final_wire_temperatures())), solver

    # Reference: very fine fixed stepping.
    reference, _ = run_fixed(400)

    rows = []
    errors = {}
    coarse_result = benchmark.pedantic(
        run_fixed, args=(25,), rounds=1, iterations=1
    )
    for num_steps in (25, 50, 100, 200):
        if num_steps == 25:
            value = coarse_result[0]
        else:
            value, _ = run_fixed(num_steps)
        errors[num_steps] = abs(value - reference)
        rows.append(
            (
                f"fixed, {num_steps} steps",
                f"{END_TIME / num_steps:.2f}",
                f"{value:.3f}",
                f"{errors[num_steps]:.4f}",
            )
        )

    # Adaptive controller at a tolerance matched to the 50-step error.
    solver = CoupledSolver(problem, mode="fast", tolerance=1e-4)

    adaptive = adaptive_implicit_euler(
        solver.step_once,
        problem.initial_temperatures(),
        end_time=END_TIME,
        initial_dt=1.0,
        tolerance=0.05,
    )
    adaptive_value = float(
        np.max(problem.topology.wire_temperatures(adaptive.final))
    )
    rows.append(
        (
            f"adaptive (tol 0.05 K), {adaptive.accepted} steps",
            "0.5..%.1f" % np.max(adaptive.step_sizes),
            f"{adaptive_value:.3f}",
            f"{abs(adaptive_value - reference):.4f}",
        )
    )
    rows.append(("reference, 400 steps", "0.125", f"{reference:.3f}", "--"))

    text = format_table(
        ["scheme", "dt [s]", "T_hottest(50 s) [K]", "error vs ref [K]"],
        rows,
        title="ABLATION: TIME DISCRETIZATION (implicit Euler)",
    )
    ratio = errors[25] / errors[100]
    text += (
        f"\n\nerror(25 steps) / error(100 steps) = {ratio:.2f} "
        "(first order predicts 4)"
    )
    path = write_artifact("ablation_timestep.txt", text)
    write_bench_json(
        "ablation_timestep",
        timings=bench_timings(benchmark),
        counters={
            "adaptive_accepted": adaptive.accepted,
            "adaptive_rejected": adaptive.rejected,
            "adaptive_solves": adaptive.num_solves,
        },
        convergence_ratio=ratio,
    )
    print("\n" + text)
    print(f"\n[artifact] {path}")

    # First-order convergence: halving dt roughly halves the error.
    assert errors[50] < errors[25]
    assert errors[100] < errors[50]
    assert 2.0 < ratio < 8.0
    # The paper's 1 s step (50 steps) errs well below a kelvin.
    assert errors[50] < 1.0
