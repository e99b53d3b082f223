"""Telemetry reports: per-chunk timings, worker utilization, traces.

Renders what an :class:`~repro.campaign.store.ArtifactStore`'s
``telemetry/`` layer recorded -- the ``repro-campaign report --timings``
and ``repro-campaign trace`` output.  All formatters accept the plain
``store.read_telemetry()`` dict so they work on any store, including one
produced on another machine, and degrade gracefully (a short notice)
when the store carries no telemetry at all.
"""

from .tables import format_table


def _seconds(value):
    return f"{float(value):.4g}"


def _chunk_records(telemetry):
    """The ``chunk`` summary event of every chunk record, chunk-ordered."""
    records = []
    for index in sorted(telemetry.get("chunks", {})):
        for event in telemetry["chunks"][index]:
            if event.get("event") == "chunk":
                records.append(event)
                break
    return records


def format_timings_report(telemetry, top=None):
    """Ranked per-chunk timing table plus straggler/utilization summary.

    ``telemetry`` is ``store.read_telemetry()``.  Chunks are ranked by
    wall time (slowest first, ``top`` limits the table); the summary
    lines quantify straggler spread (max/median wall), per-worker
    utilization (busy seconds and chunk counts) and -- when the solver
    stack emitted cache counters -- the factorization-cache hit rate.
    """
    records = _chunk_records(telemetry)
    if not records:
        return (
            "No telemetry recorded in this store (run with telemetry "
            "enabled to collect per-chunk timings)."
        )

    ranked = sorted(records, key=lambda r: -float(r.get("wall_s", 0.0)))
    if top is not None:
        ranked = ranked[: int(top)]
    rows = [
        (
            record["chunk"],
            record.get("samples", "-"),
            _seconds(record.get("wall_s", 0.0)),
            _seconds(record["queue_wait_s"])
            if "queue_wait_s" in record else "-",
            record.get("worker", "-"),
        )
        for record in ranked
    ]
    lines = [
        format_table(
            ("Chunk", "Samples", "Wall [s]", "Queue wait [s]", "Worker"),
            rows,
            title="Per-chunk timings (slowest first)",
        )
    ]

    walls = sorted(
        float(record.get("wall_s", 0.0)) for record in records
    )
    median = walls[len(walls) // 2]
    straggler = walls[-1] / median if median > 0 else float("inf")
    lines.append("")
    lines.append(
        f"Chunks: {len(records)}  total busy {_seconds(sum(walls))} s  "
        f"median {_seconds(median)} s  max {_seconds(walls[-1])} s  "
        f"straggler ratio {straggler:.2f}x"
    )

    workers = {}
    for record in records:
        worker = record.get("worker", "?")
        busy, count = workers.get(worker, (0.0, 0))
        workers[worker] = (
            busy + float(record.get("wall_s", 0.0)), count + 1
        )
    if workers:
        total_busy = sum(busy for busy, _ in workers.values()) or 1.0
        worker_rows = [
            (
                worker,
                count,
                _seconds(busy),
                f"{100.0 * busy / total_busy:.1f}%",
            )
            for worker, (busy, count) in sorted(
                workers.items(), key=lambda item: -item[1][0]
            )
        ]
        lines.append("")
        lines.append(
            format_table(
                ("Worker", "Chunks", "Busy [s]", "Share"),
                worker_rows,
                title="Worker utilization",
            )
        )

    cache_line = _cache_hit_rate_line(telemetry)
    if cache_line:
        lines.append("")
        lines.append(cache_line)
    blocked_line = _blocked_evaluation_line(telemetry)
    if blocked_line:
        lines.append("")
        lines.append(blocked_line)
    fixed_point_line = _fixed_point_line(telemetry)
    if fixed_point_line:
        lines.append("")
        lines.append(fixed_point_line)
    fault_line = _fault_tolerance_line(telemetry)
    if fault_line:
        lines.append("")
        lines.append(fault_line)
    return "\n".join(lines)


def _fault_tolerance_line(telemetry):
    """Retry/quarantine counters, or ``None`` on fail-fast campaigns.

    ``campaign.chunk_retries`` counts re-submissions of failed chunks
    in the most recent run; ``campaign.chunks_quarantined`` counts
    chunks that exhausted their retries and were excluded from the
    reduction.
    """
    metrics = telemetry.get("metrics") or {}
    counters = metrics.get("counters") or {}
    if ("campaign.chunk_retries" not in counters
            and "campaign.chunks_quarantined" not in counters):
        return None
    retries = counters.get("campaign.chunk_retries", 0)
    quarantined = counters.get("campaign.chunks_quarantined", 0)
    return (
        f"Fault tolerance: {int(retries)} chunk retries, "
        f"{int(quarantined)} chunk(s) quarantined"
    )


def _cache_hit_rate_line(telemetry):
    """One-line cache hit rate from the merged metrics, or ``None``."""
    metrics = telemetry.get("metrics") or {}
    counters = metrics.get("counters") or {}
    hits = counters.get("cache.hits", 0)
    misses = counters.get("cache.misses", 0)
    total = hits + misses
    if total <= 0:
        return None
    return (
        f"Factorization cache: {int(hits)} hits / {int(misses)} misses "
        f"({100.0 * hits / total:.1f}% hit rate)"
    )


def _blocked_evaluation_line(telemetry):
    """Blocked vs. per-sample fallback split, or ``None`` when untracked.

    ``campaign.blocked_solves`` counts samples that went through a
    model's sample-blocked ``evaluate_block`` fast path;
    ``campaign.loop_solves`` counts per-row fallback evaluations.  The
    ``campaign.batch_size`` gauge records the latest block size.
    """
    metrics = telemetry.get("metrics") or {}
    counters = metrics.get("counters") or {}
    blocked = counters.get("campaign.blocked_solves", 0)
    fallback = counters.get("campaign.loop_solves", 0)
    total = blocked + fallback
    if total <= 0:
        return None
    line = (
        f"Blocked evaluation: {int(blocked)} samples blocked / "
        f"{int(fallback)} per-sample fallback "
        f"({100.0 * blocked / total:.1f}% blocked)"
    )
    batch = (metrics.get("gauges") or {}).get("campaign.batch_size")
    if batch is not None:
        line += f", last batch size {int(batch)}"
    return line


def _fixed_point_line(telemetry):
    """Coupled fixed-point work per sample-step, or ``None`` untracked.

    ``solver.fixed_point_iterations`` sums the iterations of every
    sample's implicit Euler steps (in fast mode: its outer passes, one
    thermal solve each); ``solver.coupled_steps`` counts those
    sample-steps.  ``solver.port_iterations``, when present, sums the
    fast step's port-space iterations inside those passes.
    """
    metrics = telemetry.get("metrics") or {}
    counters = metrics.get("counters") or {}
    iterations = counters.get("solver.fixed_point_iterations", 0)
    steps = counters.get("solver.coupled_steps", 0)
    if steps <= 0:
        return None
    line = (
        f"Fixed point: {int(iterations)} iterations over {int(steps)} "
        f"sample-steps ({iterations / steps:.2f} per step)"
    )
    ports = counters.get("solver.port_iterations")
    if ports is not None:
        line += (
            f", {int(ports)} port iterations ({ports / steps:.2f} per step)"
        )
    return line


def format_trace_summary(telemetry):
    """Event inventory plus span duration statistics for one store.

    The ``repro-campaign trace`` default view: how many events of each
    kind the store holds, then per-span-name duration statistics
    (count / total / mean / max) aggregated over every chunk record.  The
    per-row times of ``samples`` events form the ``sample`` row.
    """
    chunk_events = [
        event
        for index in sorted(telemetry.get("chunks", {}))
        for event in telemetry["chunks"][index]
    ]
    run_events = telemetry.get("run", [])
    all_events = run_events + chunk_events
    if not all_events:
        return "No telemetry recorded in this store."

    kinds = {}
    for event in all_events:
        kind = event.get("event", "?")
        kinds[kind] = kinds.get(kind, 0) + 1
    lines = [
        format_table(
            ("Event", "Count"),
            sorted(kinds.items()),
            title="Event inventory",
        )
    ]

    spans = {}
    for event in chunk_events:
        kind = event.get("event")
        if kind == "span":
            name, walls = event.get("name", "?"), [event.get("wall_s", 0.0)]
        elif kind == "samples":
            # One row-loop chunk's per-row wall times: a "sample" row.
            name, walls = "sample", event.get("wall_s", [])
        else:
            continue
        for wall in map(float, walls):
            count, total, longest = spans.get(name, (0, 0.0, 0.0))
            spans[name] = (count + 1, total + wall, max(longest, wall))
    if spans:
        span_rows = [
            (
                name,
                count,
                _seconds(total),
                _seconds(total / count),
                _seconds(longest),
            )
            for name, (count, total, longest) in sorted(
                spans.items(), key=lambda item: -item[1][1]
            )
        ]
        lines.append("")
        lines.append(
            format_table(
                ("Span", "Count", "Total [s]", "Mean [s]", "Max [s]"),
                span_rows,
                title="Span durations",
            )
        )

    counters = (telemetry.get("metrics") or {}).get("counters") or {}
    if counters:
        lines.append("")
        lines.append(
            format_table(
                ("Counter", "Value"),
                [(name, int(counters[name])) for name in sorted(counters)],
                title="Campaign counters",
            )
        )
    return "\n".join(lines)
