"""The benchmark's workloads and their correctness gates.

Every workload runs *units* of fixed size back to back until its time
is up: one Date16 Monte Carlo campaign from spec to summary, or one
session of the Ishigami Sobol service (a fresh service, a fixed number
of jobs from two closed-loop clients, then shutdown).  The inputs of
each unit come from the run seed only; the program sees the generated
campaign specs.  The exact inputs live in ``workloads.json``.

In a traced run, units alternate between untraced and traced, so the
tracing overhead is measured against the same drifting machine.
"""

import json
import math
import os
import resource
import shutil
import statistics
import threading
import time
import urllib.request
from contextlib import contextmanager

import numpy as np

from repro.campaign import runner
from repro.campaign.sensitivity import SensitivitySpec
from repro.campaign.spec import ScenarioSpec
from repro.errors import ReproError
from repro.package3d.scenarios import date16_campaign_spec
from repro.service import CampaignService, submit_job, watch_job
from repro.solvers.cache import shared_cache
from repro.uq.analytic import MODULE as ANALYTIC_MODULE
from repro.uq.analytic import ishigami_distribution, ishigami_indices

HERE = os.path.dirname(os.path.abspath(__file__))
CONFIG_PATH = os.path.join(HERE, "workloads.json")

#: Watch streams end by themselves when a job finishes; this only bounds
#: a job that never does.
JOB_TIMEOUT_S = 120.0


def load_config(workload, smoke=False):
    with open(CONFIG_PATH, encoding="utf-8") as handle:
        configs = json.load(handle)
    config = dict(configs[workload])
    overrides = config.pop("smoke", {})
    if smoke:
        config.update(overrides)
    config["reference"] = configs["date16_reference"]
    return config


class Unit:
    """One timed unit of work: a campaign or a service session."""

    def __init__(self, traced, wall_s, evaluations, latencies_s):
        self.traced = traced
        self.wall_s = wall_s
        self.evaluations = evaluations
        self.latencies_s = latencies_s

    @property
    def rate(self):
        return self.evaluations / self.wall_s


class Outcome:
    """What a workload run measured and checked."""

    def __init__(self):
        self.units = []
        self.setup_s = []
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.check = {}
        self.job_records = []

    def end_to_end(self):
        """The user-visible metrics.  A job is one campaign, run directly
        (Date16) or through the service."""
        latencies = [value for unit in self.units
                     for value in unit.latencies_s]
        return {
            "samples_per_s": statistics.median(
                [unit.rate for unit in self.units]),
            "setup_s": statistics.median(self.setup_s),
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "jobs_per_s": len(latencies) / sum(
                unit.wall_s for unit in self.units),
            "job_latency_p50_s": quantile(latencies, 0.5),
            "job_latency_p90_s": quantile(latencies, 0.9),
        }

    def record_check(self, passed, report):
        """One correctness check: an operation that fails when it does."""
        self.attempted += 1
        if not passed:
            self.failed += 1
            self.correct = False
        self.check = {**report, "passed": bool(passed)}


def _units(seconds, tracer):
    """Yield ``(index, traced)`` until ``seconds`` have passed.

    With a tracer, units alternate untraced/traced and always end on a
    traced one, so both kinds are measured.
    """
    deadline = time.perf_counter() + seconds
    index = 0
    while True:
        traced = tracer is not None and index % 2 == 1
        yield index, traced
        index += 1
        if time.perf_counter() >= deadline and (
                tracer is None or index % 2 == 0):
            return


@contextmanager
def _recording(tracer, traced):
    if tracer is not None:
        tracer.recording = traced
    try:
        yield
    finally:
        if tracer is not None:
            tracer.recording = False


# ----------------------------------------------------------------------
# Date16 Monte Carlo campaigns
# ----------------------------------------------------------------------
def date16_spec(config, seed, num_samples=None):
    """The workload's campaign spec for one campaign seed."""
    spec = date16_campaign_spec(
        num_samples=num_samples or config["samples_per_campaign"],
        seed=seed,
        chunk_size=config["chunk_size"],
        reducer=config["reducer"],
        name=f"perfbench-date16-{seed}",
    )
    spec.scenario.options.update(config["options"])
    return spec


def run_date16(config, seed, seconds, work_dir, tracer=None):
    outcome = Outcome()
    end_temperatures = []
    for index, traced in _units(seconds, tracer):
        spec = date16_spec(config, seed * 1000 + index)
        # Set-up: a cold model build, as every fresh worker pays it.  One
        # before each campaign, so that their median spans the run.
        shared_cache().clear()
        start = time.perf_counter()
        spec.scenario.build_model()
        outcome.setup_s.append(time.perf_counter() - start)
        store = os.path.join(work_dir, f"campaign-{index:04d}")
        # Each campaign starts cold, like one CLI invocation.
        shared_cache().clear()
        outcome.attempted += spec.num_chunks
        with _recording(tracer, traced):
            start = time.perf_counter()
            try:
                result = runner.run_campaign(
                    spec, store=store, executor=config["executor"], retry=0,
                )
            except ReproError:
                result = None
            wall_s = time.perf_counter() - start
        if result is None:
            outcome.failed += spec.num_chunks
            continue
        outcome.failed += len(result.quarantine or {})
        outcome.units.append(Unit(traced, wall_s, result.num_samples,
                                  [wall_s]))
        final = np.asarray(result.mean).reshape(-1, spec.dimension)[-1]
        spread = np.asarray(result.std).reshape(-1, spec.dimension)[-1]
        end_temperatures.append((result.num_samples, final, spread))
        shutil.rmtree(store)
    _check_date16(outcome, config, end_temperatures)
    return outcome


def _check_date16(outcome, config, end_temperatures):
    """Hottest-wire mean end temperature against the recorded reference.

    The run's campaigns are pooled into one sample of size ``M``; the
    pooled mean must lie within ``6 sigma_MC / sqrt(M)`` of the
    reference (the reference's own error added in quadrature).  Six,
    not four, standard errors: the end temperature's tail is
    heavier than normal (one run in thirty landed at 3.9), and a false
    alarm on a correct program must not happen on any seed; a 2 %
    error in the Joule heat still fails by a factor of two.
    """
    reference = config["reference"]
    wire = reference["wire"]
    if not end_temperatures:
        outcome.record_check(False, {"check": "no campaign completed"})
        return
    counts = np.array([count for count, _, _ in end_temperatures], float)
    means = np.array([mean[wire] for _, mean, _ in end_temperatures])
    stds = np.array([std[wire] for _, _, std in end_temperatures])
    total = counts.sum()
    mean = float(np.dot(counts, means) / total)
    variance = float(
        (np.dot(counts - 1.0, stds ** 2)
         + np.dot(counts, (means - mean) ** 2)) / max(total - 1.0, 1.0)
    )
    error = math.sqrt(
        variance / total
        + reference["std_end_temperature_K"] ** 2 / reference["num_samples"]
    )
    tolerance = 6.0 * error
    deviation = mean - reference["mean_end_temperature_K"]
    outcome.record_check(abs(deviation) <= tolerance, {
        "check": "date16 hottest-wire mean end temperature",
        "samples": int(total),
        "mean_K": mean,
        "reference_K": reference["mean_end_temperature_K"],
        "deviation_K": deviation,
        "tolerance_K": tolerance,
    })


# ----------------------------------------------------------------------
# Ishigami Sobol campaigns through the service
# ----------------------------------------------------------------------
def ishigami_spec(config, seed):
    return SensitivitySpec(
        name=f"perfbench-ishigami-{seed}",
        scenario=ScenarioSpec(problem="ishigami", module=ANALYTIC_MODULE),
        distribution=ishigami_distribution(),
        dimension=3,
        num_base_samples=config["num_base_samples"],
        seed=seed,
        chunk_size=config["chunk_size"],
        reducer=config["reducer"],
    )


def service_restart_s(config, root):
    """Seconds from constructing a service over an existing root (its
    queue recovered from ``queue.json``) to answering a health check."""
    start = time.perf_counter()
    service = CampaignService(root, max_workers=config["max_workers"],
                              executor=config["executor"])
    try:
        service.start()
        with urllib.request.urlopen(service.url + "/healthz",
                                    timeout=JOB_TIMEOUT_S) as response:
            response.read()
        return time.perf_counter() - start
    finally:
        service.stop()


def _session(config, seed, root, tracer):
    """One service session; returns its wall time, job records and the
    client-side errors."""
    service = CampaignService(root, max_workers=config["max_workers"],
                              executor=config["executor"])
    service.start()
    errors = []

    def client(number):
        for job in range(config["jobs_per_client"]):
            spec = ishigami_spec(config, seed + 100 * number + job)
            start = time.perf_counter()
            try:
                submitted = submit_job(service.url, spec)
                sent = time.perf_counter()
                opened = None
                for _ in watch_job(service.url, submitted["job_id"],
                                   interval_s=config["watch_interval_s"],
                                   timeout=JOB_TIMEOUT_S):
                    if opened is None:
                        opened = time.perf_counter()
            except (ReproError, OSError) as exc:
                errors.append(repr(exc))
                continue
            if tracer is not None:
                tracer.record("http.submit", start, sent,
                              job=submitted["job_id"])
                tracer.record("http.watch_open", sent, opened,
                              job=submitted["job_id"])

    try:
        threads = [threading.Thread(target=client, args=(number,))
                   for number in range(config["clients"])]
        start = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall_s = time.perf_counter() - start
    finally:
        service.stop()
    return wall_s, service.manager, errors


def run_service(config, seed, seconds, work_dir, tracer=None):
    outcome = Outcome()
    saltelli = []
    reducer_deviations = []
    for index, traced in _units(seconds, tracer):
        root = os.path.join(work_dir, f"session-{index:04d}")
        session_seed = (seed * 1000 + index) * 1000
        with _recording(tracer, traced):
            wall_s, manager, errors = _session(config, session_seed, root,
                                               tracer if traced else None)
        records = manager.jobs()
        completed = [record for record in records
                     if record.state == "completed"]
        outcome.attempted += len(records) + len(errors)
        outcome.failed += len(records) - len(completed) + len(errors)
        outcome.units.append(Unit(
            traced, wall_s,
            sum(SensitivitySpec.from_dict(record.spec).num_samples
                for record in completed),
            [record.finished_walltime - record.submitted_walltime
             for record in completed],
        ))
        if traced:
            outcome.job_records.extend(completed)
        for record in completed:
            blocks = _saltelli_outputs(manager, record)
            saltelli.append(blocks)
            reducer_deviations.append(_reducer_deviation(
                blocks, manager.result(record.job_id)))
        # Set-up: restarting the service over the session's queue, as
        # after a crash or an upgrade.
        outcome.setup_s.extend(service_restart_s(config, root)
                               for _ in range(config["setup_restarts"]))
        shutil.rmtree(root)
    _check_ishigami(outcome, saltelli, reducer_deviations)
    return outcome


def _saltelli_outputs(manager, record):
    """The job's model outputs as ``(d + 2, M)`` blocks: A, B, AB_i."""
    spec = SensitivitySpec.from_dict(record.spec)
    store = manager.store_for(record)
    outputs = np.empty(spec.num_samples)
    for chunk in range(spec.num_chunks):
        indices, _, values = store.read_chunk(chunk)
        outputs[indices] = np.asarray(values, float).ravel()
    return outputs.reshape(spec.dimension + 2, spec.num_base_samples)


def _jansen(blocks):
    """Jansen first-order and total indices of stacked Saltelli blocks.

    Independent of the program's estimator: ``AB_i`` is ``A`` with
    column ``i`` taken from ``B``, so ``f(B) - f(AB_i)`` differs only
    through the inputs other than ``i`` and ``f(A) - f(AB_i)`` only
    through input ``i``.
    """
    f_a, f_b, f_ab = blocks[0], blocks[1], blocks[2:]
    variance = np.var(np.concatenate([f_a, f_b]), ddof=1)
    first = 1.0 - np.mean((f_b - f_ab) ** 2, axis=1) / (2.0 * variance)
    total = np.mean((f_a - f_ab) ** 2, axis=1) / (2.0 * variance)
    return first, total


def _reducer_deviation(blocks, summary):
    """Largest difference between the indices a job's reducer reported
    (its ``summary.json``) and :func:`_jansen` of the job's stored
    outputs.  The reducer reports first-order indices clipped into
    ``[0, total]``."""
    first, total = _jansen(blocks)
    first = np.minimum(np.maximum(first, 0.0), total)
    return float(np.max(np.abs(np.concatenate([
        np.asarray(summary["first_order"]) - first,
        np.asarray(summary["total"]) - total,
    ]))))


def _check_ishigami(outcome, saltelli, reducer_deviations):
    """The run's Sobol indices: each job's reducer result, and the
    pooled indices against the closed form.

    Every job's reported indices must equal the benchmark's own Jansen
    estimate of its stored outputs up to rounding.  All jobs' Saltelli
    rows are then pooled into one design; the tolerance against
    ``ishigami_indices()`` is four standard errors, estimated from the
    scatter of the per-job estimates (batch means), with a floor of
    0.01.
    """
    exact = ishigami_indices()
    passed = len(saltelli) >= 2 and max(reducer_deviations) <= 1e-9
    report = {"check": "ishigami reducer results and pooled Jansen indices",
              "jobs": len(saltelli),
              "reducer_max_deviation": max(reducer_deviations, default=0.0)}
    if passed:
        first, total = _jansen(np.concatenate(saltelli, axis=1))
        per_job = np.array([np.concatenate(_jansen(blocks))
                            for blocks in saltelli])
        error = per_job.std(axis=0, ddof=1) / math.sqrt(len(saltelli))
        tolerance = np.maximum(4.0 * error, 0.01)
        deviation = np.concatenate([first - exact["first_order"],
                                    total - exact["total"]])
        passed = bool(np.all(np.abs(deviation) <= tolerance))
        report.update({
            "first_order": first.tolist(),
            "total": total.tolist(),
            "max_deviation_over_tolerance": float(
                np.max(np.abs(deviation) / tolerance)),
        })
    outcome.record_check(passed, report)


def run(config, seed, seconds, work_dir, tracer=None):
    if config["kind"] == "date16":
        return run_date16(config, seed, seconds, work_dir, tracer)
    return run_service(config, seed, seconds, work_dir, tracer)


def quantile(values, fraction):
    """Linear-interpolation quantile between the smallest and largest
    value (never extrapolates past them); 0 without values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    position = fraction * (len(ordered) - 1)
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)

