"""Command line interface: ``python -m repro.campaign`` / ``repro-campaign``.

Subcommands::

    spec    write a JSON campaign spec template for a registered problem
    run     execute a campaign spec of any kind (Monte Carlo, Sobol, PCE)
    resume  finish the campaign pinned in an existing store directory
    report  print the summary table (+ provenance) of a completed campaign
            (--timings adds per-chunk wall/queue times, worker
            utilization and cache hit rates from the telemetry layer)
    trace   inspect the raw telemetry of a store (event inventory and
            span statistics; --dump prints JSONL, --validate checks
            every event against the documented schema)
    serve   run the campaign service (queued jobs over HTTP; see
            repro.service)
    submit  POST a campaign spec to a running service -> job id
    status  one JSON status snapshot of a job (service URL) or store
            directory -- frontier, quarantine, heartbeat, partial
            moments, all without reading chunk data
    watch   stream JSONL status lines until the job/store completes
    sobol   ``sobol spec`` writes a Sobol sensitivity spec template

Quickstart (the paper's Monte Carlo study, distributed over 4 workers)::

    repro-campaign spec date16 --samples 64 -o campaign.json
    repro-campaign run campaign.json --store out/ --executor process \\
        --workers 4
    repro-campaign report out/

Kill the ``run`` at any point and ``repro-campaign resume out/`` finishes
only the missing chunks, reproducing the uninterrupted result exactly.
``report out/ --partial`` meanwhile summarizes whatever is checkpointed
so far (partial moments, frontier, quarantine) instead of erroring.

The service turns campaigns into queued jobs (multi-tenant stores under
one root, bounded concurrency, restart recovery)::

    repro-campaign serve /var/lib/repro --port 8080 --max-workers 2 &
    repro-campaign submit http://127.0.0.1:8080 campaign.json \\
        --tenant alice
    repro-campaign watch http://127.0.0.1:8080 job-0001-abcdef12

``run``/``resume``/``report`` dispatch on the campaign kind, so the same
three commands serve the Sobol sensitivity study (which wire's geometric
uncertainty drives the hottest-wire temperature variance)::

    repro-campaign sobol spec date16 --samples 64 -o sobol.json
    repro-campaign run sobol.json --store sens/ --executor process \\
        --workers 4
    repro-campaign report sens/

``--executor`` names any registered backend -- ``serial`` (default),
``process`` or ``thread`` (a process or thread pool; every worker
builds the model once), or anything user code added via
:func:`repro.campaign.register_backend`; passing ``--workers`` with a
backend that cannot honor it is an error, never silently ignored.

``--max-retries N`` (plus ``--retry-backoff`` / ``--chunk-timeout``)
turns on fault tolerance: failed chunks are retried, chunks that
exhaust their retries are quarantined in ``<store>/quarantine.json``
and the campaign completes over the surviving samples (``report``
states the quarantined counts).  ``resume`` retries quarantined chunks
by default; ``--no-retry-quarantined`` reduces around them instead.

``--reducer`` overrides what the evaluations reduce *to*: ``moments``
(mean/std statistics), ``jansen`` (Sobol indices; ``--bootstrap N``
overrides the spec's CI replicates, and ``--bootstrap 0`` folds chunks
into running sums so huge vector QoIs never materialize the output
matrix), or ``pce`` (fit the polynomial-chaos surrogate from the
checkpointed samples -- ``--pce-degree`` sets the total degree -- and
report its analytic Sobol indices).  ``repro-campaign resume out/
--reducer pce`` re-reduces an existing store without a single fresh
solve.

``sobol spec --second-order`` adds the ``AB_ij`` pair blocks (ranked
interaction table in the report) and ``--groups "0,1,2;3,4"`` grouped
factor blocks.
"""

import argparse
import sys

from ..errors import CampaignError, ReproError
from .executor import make_executor, registered_backends
from .runner import run_campaign
from .spec import CampaignSpec
from .store import ArtifactStore


def _progress_printer(stream):
    """Heartbeat progress printer: the ``chunk done/total complete``
    line plus the event's EWMA chunk rate and ETA."""
    def progress(event):
        done = event["done"]
        total = event["total"]
        line = f"chunk {done}/{total} complete"
        rate = event.get("rate_per_s")
        eta = event.get("eta_s")
        if rate:
            line += f" ({rate:.3g} chunks/s"
            if eta is not None and done < total:
                line += f", eta {eta:.0f} s"
            line += ")"
        print(line, file=stream, flush=True)

    return progress


def _add_executor_arguments(parser):
    parser.add_argument(
        "--executor", default="serial", metavar="NAME",
        help="registered executor backend (default: serial; built in: "
             f"{', '.join(registered_backends())})",
    )
    parser.add_argument(
        "--workers", type=int, default=None,
        help="worker count for parallel backends (default: CPU count); "
             "an error with backends that cannot honor it",
    )
    parser.add_argument(
        "--quiet", action="store_true",
        help="suppress per-chunk progress lines",
    )
    parser.add_argument(
        "--telemetry", action=argparse.BooleanOptionalAction, default=None,
        help="force per-chunk telemetry capture on/off for this run "
             "(default: the REPRO_TELEMETRY global flag, normally on)",
    )
    parser.add_argument(
        "--max-retries", type=int, default=None, metavar="N",
        help="retry a failed chunk up to N times before quarantining it "
             "(default: no retries -- the first chunk failure aborts "
             "the run)",
    )
    parser.add_argument(
        "--retry-backoff", type=float, default=None, metavar="SECONDS",
        help="base delay before a chunk retry, doubled per attempt with "
             "deterministic jitter (default 0: retry immediately; "
             "implies --max-retries 0 when given alone)",
    )
    parser.add_argument(
        "--chunk-timeout", type=float, default=None, metavar="SECONDS",
        help="straggler bound: a chunk in flight longer than this "
             "counts as a failed attempt and is speculatively "
             "re-submitted (pool backends only; implies --max-retries 0 "
             "when given alone)",
    )


def _add_reducer_arguments(parser):
    parser.add_argument(
        "--reducer", default=None, metavar="KIND",
        help="override the reduction (moments | jansen | pce | any "
             "registered kind; default: the spec's reducer, then the "
             "campaign kind's default)",
    )
    parser.add_argument(
        "--pce-degree", type=int, default=None, metavar="P",
        help="total polynomial degree for --reducer pce",
    )
    parser.add_argument(
        "--bootstrap", type=int, default=None,
        help="override the spec's bootstrap replicate count for the "
             "jansen confidence intervals (0 disables them and folds "
             "chunks into running sums; default: the value pinned in "
             "the spec)",
    )


def _add_quarantine_arguments(parser):
    parser.add_argument(
        "--retry-quarantined", action=argparse.BooleanOptionalAction,
        default=True,
        help="re-evaluate chunks quarantined by a previous run "
             "(default; --no-retry-quarantined leaves them quarantined "
             "and reduces around their samples)",
    )


def _retry_policy_from_arguments(arguments):
    """The ``RetryPolicy`` one invocation asks for, or ``None``.

    ``None`` (no retry flag at all) preserves the historic fail-fast
    behavior; any of the three flags opts into fault tolerance.
    """
    max_retries = getattr(arguments, "max_retries", None)
    backoff = getattr(arguments, "retry_backoff", None)
    timeout = getattr(arguments, "chunk_timeout", None)
    if max_retries is None and backoff is None and timeout is None:
        return None
    from .faults import RetryPolicy

    return RetryPolicy(
        max_retries=0 if max_retries is None else max_retries,
        backoff_s=0.0 if backoff is None else backoff,
        timeout_s=timeout,
    )


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="repro-campaign",
        description="Batch execution of UQ campaigns with checkpoint/resume.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    spec = commands.add_parser(
        "spec", help="write a campaign spec template for a known problem"
    )
    spec.add_argument("problem", help="registered problem name, e.g. date16")
    spec.add_argument("-o", "--output", required=True,
                      help="path of the JSON spec to write")
    spec.add_argument("--samples", type=int, default=64)
    spec.add_argument("--seed", type=int, default=0)
    spec.add_argument("--chunk-size", type=int, default=8)
    spec.add_argument("--resolution", default="coarse",
                      help="mesh preset for field problems")
    spec.add_argument("--reducer", default=None, metavar="KIND",
                      help="pin a reducer kind into the spec (e.g. pce)")
    spec.add_argument("--pce-degree", type=int, default=None, metavar="P",
                      help="total polynomial degree for --reducer pce")

    run = commands.add_parser(
        "run", help="execute a campaign spec (any kind)"
    )
    run.add_argument("spec", help="path of the JSON campaign spec")
    run.add_argument("--store", default=None,
                     help="artifact store directory (enables resume)")
    _add_executor_arguments(run)
    _add_reducer_arguments(run)

    resume = commands.add_parser(
        "resume", help="finish the campaign pinned in a store directory"
    )
    resume.add_argument("store", help="artifact store directory")
    _add_executor_arguments(resume)
    _add_reducer_arguments(resume)
    _add_quarantine_arguments(resume)

    report = commands.add_parser(
        "report", help="print the summary of a completed campaign"
    )
    report.add_argument("store", help="artifact store directory")
    report.add_argument(
        "--timings", action="store_true",
        help="append the telemetry timing report (ranked per-chunk "
             "wall/queue times, worker utilization, cache hit rate)",
    )
    report.add_argument(
        "--partial", action="store_true",
        help="summarize an in-progress or killed store from its "
             "checkpointed reducer state instead of erroring when "
             "summary.json is absent",
    )

    trace = commands.add_parser(
        "trace", help="inspect the telemetry recorded in a store"
    )
    trace.add_argument("store", help="artifact store directory")
    trace.add_argument(
        "--dump", action="store_true",
        help="print every recorded event as JSONL (run log first, then "
             "chunk records in chunk order)",
    )
    trace.add_argument(
        "--validate", action="store_true",
        help="validate every recorded event against the documented "
             "schema; fails when the store holds no telemetry",
    )

    serve = commands.add_parser(
        "serve", help="run the campaign service (HTTP job queue)"
    )
    serve.add_argument("root",
                       help="service root directory (queue.json + "
                            "stores/<tenant>/<job-id>/)")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=0,
                       help="TCP port (default 0: pick a free port; the "
                            "bound address is printed on startup)")
    serve.add_argument("--max-workers", type=int, default=2,
                       help="concurrent campaign budget (default 2)")
    serve.add_argument("--executor", default=None, metavar="NAME",
                       help="default executor backend for jobs that do "
                            "not name one (default: serial)")
    serve.add_argument("--workers", type=int, default=None,
                       help="default per-job worker count for parallel "
                            "backends")
    serve.add_argument("--no-recover", action="store_true",
                       help="do not requeue jobs left running by a "
                            "previous service process")
    serve.add_argument("--verbose", action="store_true",
                       help="log one line per HTTP request")

    submit = commands.add_parser(
        "submit", help="submit a campaign spec to a running service"
    )
    submit.add_argument("url", help="service base URL, e.g. "
                                    "http://127.0.0.1:8080")
    submit.add_argument("spec", help="path of the JSON campaign spec")
    submit.add_argument("--tenant", default="default",
                        help="namespace the job's store under this "
                             "tenant (default: 'default')")
    submit.add_argument("--executor", default=None, metavar="NAME",
                        help="executor backend for this job")
    submit.add_argument("--workers", type=int, default=None,
                        help="worker count for this job's backend")
    submit.add_argument("--max-retries", type=int, default=None,
                        metavar="N",
                        help="per-chunk retry budget for this job")

    status = commands.add_parser(
        "status", help="one JSON status snapshot of a job or store"
    )
    status.add_argument("target",
                        help="service base URL (with JOB_ID) or a store "
                             "directory")
    status.add_argument("job_id", nargs="?", default=None,
                        help="job id (required with a service URL)")

    watch = commands.add_parser(
        "watch", help="stream JSONL status lines until completion"
    )
    watch.add_argument("target",
                       help="service base URL (with JOB_ID) or a store "
                            "directory")
    watch.add_argument("job_id", nargs="?", default=None,
                       help="job id (required with a service URL)")
    watch.add_argument("--interval", type=float, default=0.5,
                       help="poll/stream interval in seconds "
                            "(default 0.5)")
    watch.add_argument("--timeout", type=float, default=None,
                       help="give up after this many seconds (default: "
                            "wait forever)")

    sobol = commands.add_parser(
        "sobol", help="sensitivity-campaign templates (run, resume and "
                      "report them with the generic verbs)"
    )
    sobol_commands = sobol.add_subparsers(dest="sobol_command", required=True)

    sobol_spec = sobol_commands.add_parser(
        "spec", help="write a sensitivity campaign spec template"
    )
    sobol_spec.add_argument("problem",
                            help="registered problem name, e.g. date16")
    sobol_spec.add_argument("-o", "--output", required=True,
                            help="path of the JSON spec to write")
    sobol_spec.add_argument("--samples", type=int, default=64,
                            help="base sample count M (cost is "
                                 "M (d + 2 + pairs + groups))")
    sobol_spec.add_argument("--seed", type=int, default=0)
    sobol_spec.add_argument("--chunk-size", type=int, default=8)
    sobol_spec.add_argument("--resolution", default="coarse",
                            help="mesh preset for field problems")
    sobol_spec.add_argument("--qoi", default="final",
                            help="QoI extractor (default: per-wire end "
                                 "temperatures)")
    sobol_spec.add_argument(
        "--second-order", action="store_true",
        help="add the AB_ij pair blocks (closed second-order and "
             "interaction indices; cost grows to M (d + 2 + d(d-1)/2))",
    )
    sobol_spec.add_argument(
        "--groups", default=None, metavar="\"0,1;2,3\"",
        help="semicolon-separated factor groups of comma-separated "
             "column indices; adds one grouped block per group",
    )

    return parser


def _reducer_from_arguments(spec, arguments):
    """The reducer spec dict one ``run``/``resume`` invocation asks for.

    ``--reducer`` overrides the spec's pinned reducer kind; pinned
    options survive when the explicit kind matches the pinned one (so
    ``resume --reducer pce`` on a spec that pins ``{"kind": "pce",
    "degree": 4}`` keeps degree 4).  The jansen-only ``--bootstrap``
    layers on top and is rejected for every other kind instead of being
    silently dropped.
    """
    kind = getattr(arguments, "reducer", None)
    pinned = spec.reducer or {"kind": spec.default_reducer_kind}
    if kind is None:
        kind = pinned["kind"]
    options = {}
    if kind == pinned["kind"]:
        options = {key: value for key, value in pinned.items()
                   if key != "kind"}
    num_bootstrap = getattr(arguments, "bootstrap", None)
    pce_degree = getattr(arguments, "pce_degree", None)
    if num_bootstrap is not None:
        if kind != "jansen":
            raise CampaignError(
                "--bootstrap configures the jansen reducer; it does not "
                f"apply to reducer {kind!r}"
            )
        options["num_bootstrap"] = num_bootstrap
    if pce_degree is not None:
        if kind != "pce":
            raise CampaignError(
                f"--pce-degree applies to the pce reducer, not {kind!r}"
            )
        options["degree"] = pce_degree
    return {"kind": kind, **options}


def _import_scenario_module(spec):
    """Import the spec's module hook so user-registered problems, QoIs,
    reducers and executor backends resolve in this process too."""
    if spec.scenario.module:
        import importlib

        importlib.import_module(spec.scenario.module)


def _print_provenance(store, stream):
    provenance = store.read_provenance()
    if not provenance:
        return
    package = provenance.get("package", "unknown")
    version = provenance.get("package_version", "?")
    parts = [f"{key}={provenance[key]}"
             for key in ("reducer", "executor") if key in provenance]
    print(f"provenance: {package} {version} ({', '.join(parts)})",
          file=stream)


def _print_result(result, store, stream):
    if store is not None:
        _print_provenance(store, stream)
    _print_summary(result.summary(), stream)


def _print_summary(summary, stream):
    kind = summary.get("kind")
    if kind == "sensitivity":
        from ..reporting.sensitivity import format_sensitivity_summary

        print(format_sensitivity_summary(summary), file=stream)
        return
    if kind == "pce":
        from ..reporting.sensitivity import format_pce_summary

        print(format_pce_summary(summary), file=stream)
        return
    from ..reporting.campaign import format_campaign_summary

    print(format_campaign_summary(summary), file=stream)


def main(argv=None):
    """Entry point; returns a process exit code."""
    try:
        return _dispatch(_build_parser().parse_args(argv))
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # Output was piped into e.g. `head`, which closed the pipe;
        # redirect stdout to devnull so the interpreter's exit flush
        # does not raise again.
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


def _run_command(spec, arguments, out):
    _import_scenario_module(spec)
    reducer = _reducer_from_arguments(spec, arguments)
    executor = make_executor(arguments.executor,
                             num_workers=arguments.workers)
    progress = None if arguments.quiet else _progress_printer(sys.stderr)
    store = (
        ArtifactStore(arguments.store) if arguments.store is not None
        else None
    )
    result = run_campaign(
        spec, store=store, executor=executor, progress=progress,
        reducer=reducer, telemetry=getattr(arguments, "telemetry", None),
        retry=_retry_policy_from_arguments(arguments),
    )
    _print_result(result, store, out)
    return 0


def _resume_command(arguments, out):
    store = ArtifactStore(arguments.store)
    if not store.exists():
        raise CampaignError(
            f"no campaign manifest at {store.path!r}; run 'run' first"
        )
    spec = store.load_spec()
    _import_scenario_module(spec)
    reducer = _reducer_from_arguments(spec, arguments)
    executor = make_executor(arguments.executor,
                             num_workers=arguments.workers)
    progress = None if arguments.quiet else _progress_printer(sys.stderr)
    result = run_campaign(
        spec, store=store, executor=executor, progress=progress,
        reducer=reducer, telemetry=getattr(arguments, "telemetry", None),
        retry=_retry_policy_from_arguments(arguments),
        retry_quarantined=getattr(arguments, "retry_quarantined", True),
    )
    _print_result(result, store, out)
    return 0


def _report_command(store_path, out, timings=False, partial=False):
    store = ArtifactStore(store_path)
    if partial:
        from ..service.status import partial_summary

        summary = partial_summary(store)
        if summary.get("partial"):
            from ..reporting.campaign import format_partial_summary

            _print_provenance(store, out)
            print(format_partial_summary(summary), file=out)
            _print_quarantine(store, out)
            if timings:
                from ..reporting.telemetry import format_timings_report

                print("", file=out)
                print(format_timings_report(store.read_telemetry()),
                      file=out)
            return 0
        # Fall through: the campaign did complete; print the real thing.
    summary = store.read_summary()
    _print_provenance(store, out)
    _print_summary(summary, out)
    _print_quarantine(store, out)
    if timings:
        from ..reporting.telemetry import format_timings_report

        print("", file=out)
        print(format_timings_report(store.read_telemetry()), file=out)
    return 0


def _print_quarantine(store, out):
    quarantine = store.read_quarantine()
    if quarantine:
        samples = sum(
            len(record.get("indices", ()))
            for record in quarantine.values()
        )
        print(
            f"quarantined: {len(quarantine)} chunk(s) / {samples} "
            "sample(s) excluded from the statistics (see "
            "quarantine.json; 'resume' retries them)",
            file=out,
        )


def _serve_command(arguments, out):
    from ..service import CampaignService

    service = CampaignService(
        arguments.root,
        host=arguments.host,
        port=arguments.port,
        verbose=arguments.verbose,
        max_workers=arguments.max_workers,
        executor=arguments.executor,
        workers=arguments.workers,
    )
    recovered = service.start(recover=not arguments.no_recover)
    # The parsable address line comes first: subprocess harnesses bind
    # port 0 and read the actual port from here.
    print(f"serving at {service.url}", file=out, flush=True)
    print(
        f"root {service.manager.root} "
        f"(max_workers={service.manager.max_workers}, "
        f"{len(service.manager.queue)} known jobs, "
        f"{len(recovered)} recovered)",
        file=out, flush=True,
    )
    try:
        service._thread.join()
    except KeyboardInterrupt:
        print("shutting down...", file=sys.stderr)
    finally:
        service.stop(wait=True)
    return 0


def _submit_command(arguments, out):
    import json

    from ..service.http import submit_job

    spec = CampaignSpec.load(arguments.spec)
    options = {}
    if arguments.executor is not None:
        options["executor"] = arguments.executor
    if arguments.workers is not None:
        options["workers"] = arguments.workers
    if arguments.max_retries is not None:
        options["retry"] = arguments.max_retries
    job = submit_job(
        arguments.url, spec, tenant=arguments.tenant,
        options=options or None,
    )
    print(json.dumps(job, sort_keys=True), file=out)
    return 0


def _status_target(arguments):
    """Resolve the status/watch target: (url, job_id) or (None, store)."""
    target = arguments.target
    if target.startswith(("http://", "https://")):
        if not arguments.job_id:
            raise CampaignError(
                "status/watch on a service URL needs the job id: "
                "repro-campaign status URL JOB_ID"
            )
        return target, arguments.job_id
    if arguments.job_id:
        raise CampaignError(
            f"{target!r} is a store directory; a job id only applies "
            "to a service URL"
        )
    return None, target


def _status_command(arguments, out):
    import json

    url, target = _status_target(arguments)
    if url is not None:
        from ..service.http import job_status

        status = job_status(url, target)
    else:
        from ..service.status import store_status

        status = store_status(target)
    print(json.dumps(status, sort_keys=True), file=out)
    return 0


def _watch_command(arguments, out):
    import json

    url, target = _status_target(arguments)
    if url is not None:
        from ..service.http import watch_job

        for status in watch_job(
                url, target, interval_s=arguments.interval,
                timeout=arguments.timeout):
            print(json.dumps(status, sort_keys=True), file=out, flush=True)
        return 0
    # Local store: poll store_status until the campaign completes.
    import time as _time

    from ..service.status import store_status

    deadline = (
        None if arguments.timeout is None
        else _time.monotonic() + arguments.timeout
    )
    previous = None
    while True:
        status = store_status(target)
        if status != previous:
            previous = status
            print(json.dumps(status, sort_keys=True), file=out, flush=True)
        if status["state"] == "complete":
            return 0
        if deadline is not None and _time.monotonic() > deadline:
            print(
                f"error: watch of {target!r} timed out after "
                f"{arguments.timeout} s (state {status['state']!r})",
                file=sys.stderr,
            )
            return 1
        _time.sleep(arguments.interval)


def _trace_command(arguments, out):
    store = ArtifactStore(arguments.store)
    if not store.exists():
        raise CampaignError(
            f"no campaign manifest at {store.path!r}; run 'run' first"
        )
    telemetry = store.read_telemetry()
    ordered = list(telemetry["run"]) + [
        event
        for index in sorted(telemetry["chunks"])
        for event in telemetry["chunks"][index]
    ]
    if arguments.validate:
        from ..telemetry import validate_events

        if not ordered:
            raise CampaignError(
                f"store {store.path!r} holds no telemetry events to "
                "validate (was the campaign run with --no-telemetry?)"
            )
        count = validate_events(ordered)
        print(
            f"validated {count} events across "
            f"{len(telemetry['chunks'])} chunk logs", file=out,
        )
        return 0
    if arguments.dump:
        import json

        for event in ordered:
            print(json.dumps(event, sort_keys=True), file=out)
        return 0
    from ..reporting.telemetry import format_trace_summary

    print(format_trace_summary(telemetry), file=out)
    return 0


def _dispatch(arguments):
    out = sys.stdout

    if arguments.command == "spec":
        if arguments.problem != "date16":
            print(
                f"no spec template for problem {arguments.problem!r} "
                "(templates exist for: date16); write the JSON by hand",
                file=sys.stderr,
            )
            return 2
        from ..package3d.scenarios import date16_campaign_spec

        reducer = None
        if arguments.reducer is not None:
            reducer = {"kind": arguments.reducer}
            if arguments.pce_degree is not None:
                reducer["degree"] = arguments.pce_degree
        elif arguments.pce_degree is not None:
            raise CampaignError(
                "--pce-degree needs --reducer pce"
            )
        spec = date16_campaign_spec(
            num_samples=arguments.samples,
            seed=arguments.seed,
            chunk_size=arguments.chunk_size,
            resolution=arguments.resolution,
            reducer=reducer,
        )
        spec.save(arguments.output)
        print(f"wrote {arguments.output}", file=out)
        return 0

    if arguments.command == "run":
        spec = CampaignSpec.load(arguments.spec)
        return _run_command(spec, arguments, out)

    if arguments.command == "resume":
        return _resume_command(arguments, out)

    if arguments.command == "report":
        return _report_command(arguments.store, out,
                               timings=arguments.timings,
                               partial=arguments.partial)

    if arguments.command == "trace":
        return _trace_command(arguments, out)

    if arguments.command == "serve":
        return _serve_command(arguments, out)

    if arguments.command == "submit":
        return _submit_command(arguments, out)

    if arguments.command == "status":
        return _status_command(arguments, out)

    if arguments.command == "watch":
        return _watch_command(arguments, out)

    if arguments.command == "sobol":
        return _sobol_spec_command(arguments, out)

    raise AssertionError(f"unhandled command {arguments.command!r}")


def _sobol_spec_command(arguments, out):
    if arguments.problem != "date16":
        print(
            f"no sensitivity spec template for problem "
            f"{arguments.problem!r} (templates exist for: date16); "
            "write the JSON by hand",
            file=sys.stderr,
        )
        return 2
    from ..package3d.scenarios import date16_sensitivity_spec

    spec = date16_sensitivity_spec(
        num_base_samples=arguments.samples,
        seed=arguments.seed,
        chunk_size=arguments.chunk_size,
        resolution=arguments.resolution,
        qoi=arguments.qoi,
        second_order=arguments.second_order,
        groups=_parse_groups(arguments.groups),
    )
    spec.save(arguments.output)
    print(f"wrote {arguments.output}", file=out)
    return 0


def _parse_groups(text):
    """``"0,1;2,3" -> [[0, 1], [2, 3]]`` (CampaignError on bad input)."""
    if text is None:
        return None
    groups = []
    for part in text.split(";"):
        part = part.strip()
        if not part:
            continue
        try:
            groups.append([int(entry) for entry in part.split(",")])
        except ValueError:
            raise CampaignError(
                f"invalid factor group {part!r}; expected "
                "comma-separated column indices like '0,1,2'"
            ) from None
    return groups or None


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
