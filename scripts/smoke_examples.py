"""Run every example with tiny sample counts -- the CI smoke gate.

The examples are the documented entry points of the repository; an API
redesign that forgets one of them should fail CI, not a user.  This
driver discovers every ``examples/*.py``, runs each in a subprocess with
sample counts shrunk via argv/env (see ``_OVERRIDES``), and fails on the
first nonzero exit.  New examples are picked up automatically (with no
overrides, so keep their defaults cheap or add an entry here).  Each
example runs with ``TMPDIR`` set to its own scratch directory, removed
afterwards, so the campaign stores the examples create with
``tempfile.mkdtemp`` do not pile up in the system temp directory.

After the examples pass, the driver runs a telemetry smoke: a tiny CLI
campaign into a temporary store, then ``repro-campaign trace --validate``
on it, so the persisted event schema (DESIGN.md "Telemetry") is checked
end-to-end on every CI run.

Run from the repository root::

    python scripts/smoke_examples.py [pattern]

An optional substring pattern restricts the run to matching filenames.
"""

import os
import subprocess
import sys
import tempfile
import time

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXAMPLES_DIR = os.path.join(REPO_ROOT, "examples")

#: Per-example shrink knobs: extra argv and environment overrides.
_TINY_ENV = {
    "REPRO_MC_SAMPLES": "4",
    "REPRO_MESH_RESOLUTIONS": "coarse",
}
_OVERRIDES = {
    "pce_surrogate_campaign.py": {"argv": ["330"]},
    "second_order_campaign.py": {"argv": ["8", "2"]},
    "sensitivity_campaign.py": {"argv": ["2", "2"]},
}

#: Generous per-example ceiling; anything slower is a regression worth
#: failing on.
TIMEOUT_SECONDS = 600


def run_example(path):
    name = os.path.basename(path)
    override = _OVERRIDES.get(name, {})
    env = dict(os.environ)
    env.update(_TINY_ENV)
    env.update(override.get("env", {}))
    env.setdefault("PYTHONPATH", "")
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [os.path.join(REPO_ROOT, "src"), env["PYTHONPATH"]])
    )
    command = [sys.executable, path, *override.get("argv", [])]
    start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="smoke-example-") as scratch:
        env["TMPDIR"] = scratch
        completed = subprocess.run(
            command, cwd=REPO_ROOT, env=env, timeout=TIMEOUT_SECONDS,
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        )
    elapsed = time.perf_counter() - start
    return completed, elapsed


def _campaign_env():
    env = dict(os.environ)
    env.setdefault("PYTHONPATH", "")
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [os.path.join(REPO_ROOT, "src"), env["PYTHONPATH"]])
    )
    return env


def smoke_telemetry():
    """Run a tiny CLI campaign and validate its persisted telemetry.

    Exercises the full path -- spec template, run with a store,
    per-chunk telemetry, ``report --timings`` rendering, and the
    ``trace --validate`` schema check -- in subprocesses, exactly as a
    user would.  Returns True on success.
    """
    env = _campaign_env()
    cli = [sys.executable, "-m", "repro.campaign"]
    with tempfile.TemporaryDirectory() as scratch:
        spec = os.path.join(scratch, "campaign.json")
        store = os.path.join(scratch, "store")
        steps = [
            ("spec", [*cli, "spec", "date16", "--samples", "4",
                      "--chunk-size", "2", "-o", spec]),
            ("run", [*cli, "run", spec, "--store", store, "--quiet"]),
            ("report --timings", [*cli, "report", store, "--timings"]),
            ("trace --validate", [*cli, "trace", store, "--validate"]),
        ]
        for label, command in steps:
            print(f"==> telemetry smoke: {label} ... ", end="", flush=True)
            start = time.perf_counter()
            completed = subprocess.run(
                command, cwd=REPO_ROOT, env=env, timeout=TIMEOUT_SECONDS,
                stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                text=True,
            )
            elapsed = time.perf_counter() - start
            if completed.returncode != 0:
                print(f"FAILED (exit {completed.returncode}, "
                      f"{elapsed:.1f}s)")
                print(completed.stdout[-4000:])
                return False
            print(f"ok ({elapsed:.1f}s)")
        # Each chunk's record in chunks.log carries its events as the
        # ``telemetry`` member (DESIGN.md "Store layout and kill/resume
        # contract").
        sys.path.insert(0, os.path.join(REPO_ROOT, "src"))
        from repro.campaign import ArtifactStore

        artifacts = ArtifactStore(store)
        chunk_logs = [index for index in artifacts.telemetry_chunks()
                      if artifacts.read_chunk_telemetry(index)]
        if len(chunk_logs) != 2:
            print(f"telemetry smoke: expected 2 chunk records with a "
                  f"telemetry member in {store}, found {chunk_logs}")
            return False
    return True


def main():
    pattern = sys.argv[1] if len(sys.argv) > 1 else ""
    examples = sorted(
        entry for entry in os.listdir(EXAMPLES_DIR)
        if entry.endswith(".py") and not entry.startswith("_")
        and pattern in entry
    )
    if not examples:
        print(f"no examples match {pattern!r}", file=sys.stderr)
        return 2
    failures = []
    for name in examples:
        print(f"==> {name} ... ", end="", flush=True)
        try:
            completed, elapsed = run_example(
                os.path.join(EXAMPLES_DIR, name)
            )
        except subprocess.TimeoutExpired:
            print(f"TIMEOUT after {TIMEOUT_SECONDS}s")
            failures.append(name)
            continue
        if completed.returncode == 0:
            print(f"ok ({elapsed:.1f}s)")
        else:
            print(f"FAILED (exit {completed.returncode}, {elapsed:.1f}s)")
            print(completed.stdout[-4000:])
            failures.append(name)
    print()
    if failures:
        print(f"{len(failures)}/{len(examples)} examples failed: "
              f"{', '.join(failures)}")
        return 1
    if not smoke_telemetry():
        print("telemetry smoke failed")
        return 1
    print(f"all {len(examples)} examples passed (+ telemetry smoke)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
