"""Benchmark of the delentropy package: two seeded workloads, end to end
and layer by layer, with every output checked.

Run from the root of a checkout:

    python3 perfbench/run.py --workload text-enum --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --all --seed 1          # every workload, as a table

``--trace 0`` measures the end-to-end metrics with tracing off: set-up time
of a fresh job process, in-process sweep time, CLI time, peak memory of the
job process and the share of operations that succeed.  ``--trace 1`` is a
separate traced run that reports the per-layer metrics (see metrics.py).
The last line of stdout is one JSON object; a readable summary goes to
stderr, and a record of the run (machine, versions, samples, spreads, and
spans when traced) to .perfbench_out/ in the checkout.

Outputs of the default seed are also held to reference.json, which
``--record-reference`` rewrites once every output passes its checks.  The
benchmark's own tests: python3 -m pytest perfbench/test_perfbench.py
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import queue
import shutil
import statistics
import subprocess
import sys
import threading
import time
import tracemalloc
from pathlib import Path

import harness
import metrics
import workloads
from tracing import Tracer

SETUP_PROBES = 6  # fresh set-up-only processes per run, plus the job process
WORKER_TIMEOUT_S = 60.0  # a pass takes seconds; keeps a hung run under 180 s
ROOT = Path.cwd()
OUT_DIR = ROOT / ".perfbench_out"


# ---------------------------------------------------------------------------
# statistics and the run record
# ---------------------------------------------------------------------------

def describe(samples: list[float]) -> dict:
    """Median, the highest percentile with at least ten samples beyond it,
    the sample count and the quartile spread as a share of the median."""
    xs = sorted(samples)
    n = len(xs)
    med = statistics.median(xs)
    out = {"median": med, "samples": n, "percentile": None, "percentile_value": None,
           "iqr_over_median": None}
    if n >= 11:
        out["percentile"] = round(100.0 * (n - 10) / n, 1)
        out["percentile_value"] = xs[n - 11]
    if n >= 2 and med:
        q = statistics.quantiles(xs, n=4)
        out["iqr_over_median"] = (q[2] - q[0]) / med
    return out


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    if not (git / "HEAD").is_file():
        return "not a git checkout"
    head = (git / "HEAD").read_text().strip()
    if not head.startswith("ref: "):
        return head
    ref = head[len("ref: "):]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    packed = git / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else []:
        if line.endswith(" " + ref):
            return line.split()[0]
    return "unknown"


def machine(seed: int, workload: str, trace: int) -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    import numpy

    return {
        "workload": workload, "seed": seed, "trace": trace,
        "nproc": os.cpu_count(), "cpu_model": cpu, "platform": platform.platform(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "git_commit": git_commit(), "loadavg_start": os.getloadavg(),
    }


def write_record(name: str, record: dict) -> Path:
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"{name}.json"
    path.write_text(json.dumps(record, indent=1, default=str) + "\n")
    return path


def finish(record, name, attempted, failed, wrong, values) -> int:
    """Print the summary to stderr and the result line to stdout."""
    record["loadavg_end"] = os.getloadavg()
    record.update(attempted=attempted, failed=failed, wrong=wrong)
    path = write_record(name, record)
    for metric, (value, unit) in values.items():
        extra = record.get("spread", {}).get(metric)
        tail = f"  ({extra['samples']} samples, quartile spread {extra['iqr_over_median']})" if extra else ""
        print(f"  {metric:40s} {value:14.6g} {unit}{tail}", file=sys.stderr)
    print(f"  attempted {attempted}, failed {failed}, wrong {wrong}; record {path.relative_to(ROOT)}",
          file=sys.stderr)
    for job_id, found in record.get("problems", {}).items():
        print(f"  WRONG {job_id}: {found}", file=sys.stderr)
    for job_id, errors in record.get("errors", {}).items():
        print(f"  FAILED {job_id}: {errors[0].strip().splitlines()[-1]}", file=sys.stderr)
    print(json.dumps({
        "correct": wrong == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in values.items()},
    }))
    return 0


# ---------------------------------------------------------------------------
# untraced run: end-to-end metrics
# ---------------------------------------------------------------------------

class Worker:
    """The workload's fresh in-process job process."""

    def __init__(self, workload: str, seed: int, setup_only: bool = False):
        cmd = [sys.executable, str(harness.HERE / "worker.py"), "--root", str(ROOT),
               "--workload", workload, "--seed", str(seed)]
        if setup_only:
            cmd.append("--setup-only")
        self._lines: queue.Queue = queue.Queue()
        start = time.perf_counter()
        self.proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        threading.Thread(target=self._pump, daemon=True).start()
        if self.read() != "ready":
            raise RuntimeError("job process did not start")
        self.setup_s = time.perf_counter() - start

    def _pump(self):
        for line in self.proc.stdout:
            self._lines.put(line.rstrip("\n"))
        self._lines.put(None)

    def read(self):
        try:
            line = self._lines.get(timeout=WORKER_TIMEOUT_S)
        except queue.Empty:
            line = None
        if line is None:
            self.close()
            raise RuntimeError("job process stopped answering")
        return line

    def ask(self, command: str) -> dict:
        self.proc.stdin.write(command + "\n")
        self.proc.stdin.flush()
        return json.loads(self.read())

    def close(self):
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


def untraced(workload: str, seed: int, seconds: float, record_only: bool = False):
    record = machine(seed, workload, 0)
    _, cli_jobs = workloads.build(workload, seed)
    setup = []
    for _ in range(SETUP_PROBES):
        probe = Worker(workload, seed, setup_only=True)
        setup.append(probe.setup_s)
        probe.close()
    worker = Worker(workload, seed)
    setup.append(worker.setup_s)

    tmp = OUT_DIR / f"tmp-{os.getpid()}"
    workdirs = {job.id: tmp / job.id.replace("/", "_") for job in cli_jobs}
    cli_outcomes = {job.id: harness.Outcome(job) for job in cli_jobs}
    sweeps, clis, job_s = [], [], {}
    begin = time.perf_counter()
    try:
        while True:
            round_start = time.perf_counter()
            reply = worker.ask("pass")
            sweeps.append(reply["sweep_s"])
            cli_s = 0.0
            for job in cli_jobs:
                seconds_job, _ = harness.run_cli(job, ROOT, workdirs[job.id], cli_outcomes[job.id])
                reply["jobs"][job.id] = seconds_job
                cli_s += seconds_job
            clis.append(cli_s)
            for job_id, t in reply["jobs"].items():
                job_s.setdefault(job_id, []).append(t)
            now = time.perf_counter()
            if record_only or now - begin + (now - round_start) > seconds:
                break
        final = worker.ask("finish")
    finally:
        worker.close()

    memo = workloads.Memo()
    reference = None if record_only else harness.load_reference(seed)
    cli_problems = harness.verify(workload, cli_outcomes, memo, reference, workdirs)
    shutil.rmtree(tmp, ignore_errors=True)
    attempted, failed, wrong = harness.tally(cli_outcomes, cli_problems)
    attempted += final["attempted"]
    failed += final["failed"]
    wrong += final["wrong"]
    record.update(
        problems={**final["problems"], **cli_problems},
        errors={**final["errors"], **{k: oc.errors for k, oc in cli_outcomes.items() if oc.errors}},
        spread={"setup_s": describe(setup), "sweep_s": describe(sweeps), "cli_s": describe(clis)},
        samples={"setup_s": setup, "sweep_s": sweeps, "cli_s": clis},
        job_median_s={k: statistics.median(v) for k, v in job_s.items()},
        verify_s=final["verify_s"], measured_s=time.perf_counter() - begin,
    )
    fingerprints = {**final["fingerprints"], **{k: oc.fingerprint for k, oc in cli_outcomes.items()}}
    values = {
        "setup_s": (statistics.median(setup), "s"),
        "sweep_s": (statistics.median(sweeps), "s"),
        "cli_s": (statistics.median(clis), "s"),
        "peak_rss_mib": (final["peak_rss_kib"] / 1024.0, "MiB"),
        "ok_frac": (1.0 - failed / attempted, "frac"),
    }
    return record, (attempted, failed, wrong), values, fingerprints


# ---------------------------------------------------------------------------
# traced run: per-layer metrics
# ---------------------------------------------------------------------------

def traced(workload: str, seed: int):
    record = machine(seed, workload, 1)
    de = harness.import_package(ROOT)
    tracer, direct = Tracer(), workloads.Direct()
    built = {w: workloads.build(w, seed) for w in workloads.WORKLOADS}
    outcomes = {w: {job.id: harness.Outcome(job) for job in jobs + cli}
                for w, (jobs, cli) in built.items()}

    def labelled(w, tag):
        def on_job(job):
            tracer.workload, tracer.job, tracer.tag = w, job.id, tag
        return on_job

    # tracing overhead on the requested workload: alternate untraced and traced passes
    jobs = built[workload][0]
    plain, spanned = [], []
    for tag in ("report", "overhead"):
        plain.append(sum(harness.run_pass(de, jobs, direct, outcomes[workload]).values()))
        spanned.append(sum(harness.run_pass(de, jobs, tracer, outcomes[workload], labelled(workload, tag)).values()))
    for w in workloads.WORKLOADS:
        if w != workload:
            harness.run_pass(de, built[w][0], tracer, outcomes[w], labelled(w, "report"))

    tmp = OUT_DIR / f"tmp-{os.getpid()}"
    workdirs = {w: {job.id: tmp / w / job.id.replace("/", "_") for job in cli}
                for w, (_, cli) in built.items()}
    for w, (_, cli) in built.items():
        for job in cli:
            labelled(w, "report")(job)
            with tracer.span(f"cli.{job.subcommand}") as rec:
                _, nbytes = harness.run_cli(job, ROOT, workdirs[w][job.id], outcomes[w][job.id])
            rec.work = {"stdout_bytes": nbytes}

    ratios, probe_outcomes = {}, {}
    for name, make in workloads.parallel_probes(seed):
        times = {1: 0.0, 2: 0.0}
        for w in (1, 2, 2, 1):
            job = make(workers=w)
            oc = probe_outcomes.setdefault(job.id, harness.Outcome(job))
            times[w] += harness.run_job(de, job, direct, oc)
        ratios[name] = times[2] / times[1]

    peak = 0
    for job in (job for jobs, _ in built.values() for job in jobs):
        if isinstance(job, workloads.Posterior):
            tracemalloc.start()
            de.posterior(job.x, job.n)
            peak = max(peak, tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()

    start = time.perf_counter()
    memo = workloads.Memo()
    reference = harness.load_reference(seed)
    problems, attempted, failed, wrong = {}, 0, 0, 0
    for w in workloads.WORKLOADS:
        found = harness.verify(w, outcomes[w], memo, reference, workdirs[w])
        problems.update({f"{w}/{k}": v for k, v in found.items()})
        a, f, x = harness.tally(outcomes[w], found)
        attempted, failed, wrong = attempted + a, failed + f, wrong + x
    found = harness.verify("parallel", probe_outcomes, memo, None)
    problems.update({f"parallel/{k}": v for k, v in found.items()})
    a, f, x = harness.tally(probe_outcomes, found)
    attempted, failed, wrong = attempted + a, failed + f, wrong + x
    verify_s = time.perf_counter() - start
    shutil.rmtree(tmp, ignore_errors=True)

    totals = tracer.totals("report")
    values = metrics.per_layer(totals, ratios, peak, statistics.median(spanned) / statistics.median(plain) - 1.0, verify_s)
    groups = {**outcomes, "parallel": probe_outcomes}
    record.update(
        problems=problems,
        errors={f"{w}/{k}": oc.errors for w, group in groups.items() for k, oc in group.items() if oc.errors},
        spans_by_name=totals, overhead_samples={"untraced": plain, "traced": spanned},
    )
    spans_path = OUT_DIR / f"{workload}-seed{seed}-trace1-spans.jsonl"
    OUT_DIR.mkdir(exist_ok=True)
    tracer.write(spans_path)
    record["spans_file"] = str(spans_path.relative_to(ROOT))
    return record, (attempted, failed, wrong), values


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------

def run_all(seed: int, seconds: int, trace: int) -> int:
    """Every workload in turn, printed as one table."""
    rows = []
    for w in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(harness.HERE / "run.py"), "--workload", w, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace)],
            cwd=ROOT, capture_output=True, text=True,
        )
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        record = json.loads((OUT_DIR / f"{w}-seed{seed}-trace{trace}.json").read_text())
        rows.append((w, result, record))
    for w, result, record in rows:
        print(f"{w}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} fail_frac={result['failed'] / result['attempted']:.6f}")
        for name, m in result["metrics"].items():
            spread = record.get("spread", {}).get(name)
            samples = f"median of {spread['samples']} samples" if spread else "one value per run"
            print(f"  {name:36s} {m['value']:14.6g} {m['unit']:6s} {samples}")
    return 0


def record_reference() -> int:
    """Write reference.json from one verified round of the default seed."""
    jobs = {}
    for w in workloads.WORKLOADS:
        record, (_, failed, wrong), _, fps = untraced(w, harness.DEFAULT_SEED, 0, record_only=True)
        if wrong:
            print(f"{w}: outputs fail their checks, not recording: {record['problems']}", file=sys.stderr)
            return 1
        jobs.update({f"{w}/{k}": {"digest": fp[0], "floats": fp[1]}
                     for k, fp in fps.items() if fp is not None})
    harness.REFERENCE.write_text(json.dumps({"seed": harness.DEFAULT_SEED, "jobs": jobs}, indent=1) + "\n")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS)
    ap.add_argument("--all", action="store_true", help="run every workload and print a table")
    ap.add_argument("--seed", type=int, default=harness.DEFAULT_SEED)
    ap.add_argument("--seconds", type=int, default=50)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-reference", action="store_true",
                    help=f"rewrite reference.json from seed {harness.DEFAULT_SEED}")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "delentropy" / "__init__.py").is_file():
        print(f"perfbench: run from a checkout root; no src/delentropy under {ROOT}", file=sys.stderr)
        return 2
    if args.record_reference:
        return record_reference()
    if args.all:
        return run_all(args.seed, args.seconds, args.trace)
    if args.workload is None:
        ap.error("--workload or --all is required")
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        record, counts, values = traced(args.workload, args.seed)
    else:
        record, counts, values, _ = untraced(args.workload, args.seed, args.seconds)
    print(f"perfbench {name}", file=sys.stderr)
    return finish(record, name, *counts, values)


if __name__ == "__main__":
    raise SystemExit(main())
