"""Running jobs, timing them outside their checks, and counting failures.

An operation fails when it raises, exits with another code than expected,
prints a traceback, times out, or returns an output that fails its check.
Only the last of these makes a run incorrect.  Every execution of a job after
the first successful one must reproduce the first one's fingerprint exactly.
"""

from __future__ import annotations

import gc
import json
import os
import subprocess
import sys
import time
import traceback
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"
DEFAULT_SEED = 1
CLI_TIMEOUT_S = 20.0
# recorded floats may move by summation order, never by more than this
REFERENCE_REL = 1e-9
REFERENCE_CLI_ABS = 1.01e-4


def import_package(root: Path):
    """Import delentropy from the checkout's src/, and only from there."""
    src = root / "src"
    if not (src / "delentropy" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no delentropy package under {src}")
    sys.path.insert(0, str(src))
    import delentropy

    if Path(delentropy.__file__).resolve().parent != (src / "delentropy").resolve():
        raise SystemExit(f"perfbench: imported delentropy from {delentropy.__file__}, not {src}")
    return delentropy


def cli_env(root: Path) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class Outcome:
    """Executions of one job: failures, and the first good output."""

    def __init__(self, job):
        self.job = job
        self.runs = 0
        self.failed = 0
        self.errors: list[str] = []
        self.first = None  # summary (in-process) or (rc, stdout, stderr) (CLI)
        self.fingerprint = None
        self.mismatches = 0
        self.unreadable = None  # why an output could not be read: a wrong answer

    def record(self, fingerprint, first) -> None:
        if self.fingerprint is None:
            self.fingerprint, self.first = fingerprint, first
        elif fingerprint != self.fingerprint:
            self.mismatches += 1

    def fail(self, why: str) -> None:
        self.failed += 1
        if len(self.errors) < 3:
            self.errors.append(why)


def run_job(de, job, caller, outcome: Outcome) -> float:
    """One timed call of an in-process job; returns its wall seconds."""
    outcome.runs += 1
    start = time.perf_counter()
    try:
        out = job.run(de, caller)
    except Exception:
        elapsed = time.perf_counter() - start
        outcome.fail(traceback.format_exc(limit=3))
        return elapsed
    elapsed = time.perf_counter() - start
    try:
        summary = job.summarize(out)
    except Exception:
        outcome.unreadable = traceback.format_exc(limit=3)
        return elapsed
    outcome.record(job.fingerprint(summary), summary)
    return elapsed


def run_pass(de, jobs, caller, outcomes, on_job=None) -> dict[str, float]:
    """One pass over the jobs; returns each job's timed wall seconds."""
    times = {}
    for job in jobs:
        if on_job is not None:
            on_job(job)
        times[job.id] = run_job(de, job, caller, outcomes[job.id])
    # every pass starts from the same heap, so a peak does not depend on how
    # many passes fit in a run
    gc.collect()
    return times


def run_cli(job, root: Path, workdir: Path, outcome: Outcome):
    """One CLI job as a fresh subprocess; returns (seconds, stdout bytes)."""
    workdir.mkdir(parents=True, exist_ok=True)
    args = [a.replace("{workdir}", str(workdir)) for a in job.args]
    outcome.runs += 1
    start = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "delentropy.cli", *args], cwd=workdir, env=cli_env(root),
            capture_output=True, text=True, timeout=CLI_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        outcome.fail(f"timed out after {CLI_TIMEOUT_S} s")
        return time.perf_counter() - start, 0
    elapsed = time.perf_counter() - start
    if "Traceback (most recent call last)" in proc.stderr:
        outcome.fail(f"exit {proc.returncode} with traceback: {proc.stderr.strip().splitlines()[-1]}")
    else:
        outcome.record(workloads.cli_fingerprint(proc.returncode, proc.stdout),
                       (proc.returncode, proc.stdout, proc.stderr))
    return elapsed, len(proc.stdout.encode())


def load_reference(seed: int):
    if seed != DEFAULT_SEED or not REFERENCE.is_file():
        return None
    return json.loads(REFERENCE.read_text())["jobs"]


def _reference_problems(key, fingerprint, reference, cli: bool) -> list[str]:
    if reference is None:
        return []
    want = reference.get(key)
    if want is None:  # the job failed when the reference was recorded
        return []
    exact, floats = fingerprint
    problems = []
    if exact != want["digest"]:
        problems.append("exact values differ from the recorded digest")
    if len(floats) != len(want["floats"]):
        problems.append("float count differs from the recorded values")
    else:
        for got, ref in zip(floats, want["floats"]):
            tol = REFERENCE_CLI_ABS if cli else REFERENCE_REL * max(1.0, abs(ref))
            if not abs(got - ref) <= tol:
                problems.append(f"float {got!r} differs from recorded {ref!r}")
                break
    return problems


def verify(workload, outcomes, memo, reference, workdirs=None) -> dict[str, list[str]]:
    """Check each job's first good output; returns problems by job id.

    In-process outcomes hold a summary; CLI outcomes hold (rc, stdout,
    stderr) and are also held to their expected exit code.
    """
    problems: dict[str, list[str]] = {}
    for job_id, oc in outcomes.items():
        found = [f"unreadable output: {oc.unreadable}"] if oc.unreadable else []
        if oc.first is None:
            if found:
                problems[job_id] = found
            continue
        cli = isinstance(oc.job, workloads.CliJob)
        try:
            if cli:
                rc, stdout, stderr = oc.first
                want_rc = oc.job.expected_rc(memo)
                if rc != want_rc:
                    oc.failed = oc.runs
                    oc.errors.append(f"exit {rc}, expected {want_rc}: {stderr.strip()[-200:]}")
                    continue
                found += oc.job.check(stdout, stderr, workdirs[job_id], memo)
            else:
                found += oc.job.check(oc.first, memo)
        except Exception:
            found.append("check raised: " + traceback.format_exc(limit=3))
        found += _reference_problems(f"{workload}/{job_id}", oc.fingerprint, reference, cli)
        if oc.mismatches:
            found.append(f"{oc.mismatches} repeat(s) differ from the first output")
        if found:
            problems[job_id] = found
    return problems


def tally(outcomes, problems) -> tuple[int, int, int]:
    """(attempted, failed, wrong) over every execution of every job.

    A job whose first good output is wrong fails on every execution that
    did not already fail otherwise.
    """
    attempted = failed = wrong = 0
    for job_id, oc in outcomes.items():
        attempted += oc.runs
        if job_id in problems:
            wrong += oc.runs - oc.failed
            failed += oc.runs
        else:
            failed += oc.failed
    return attempted, failed, wrong
