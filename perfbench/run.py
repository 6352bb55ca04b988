#!/usr/bin/env python3
"""Benchmark for the ``qnet-stp`` command line, run as one closed-loop client.

    python3 perfbench/run.py --workload rate-scan --seed 1 --seconds 27 --trace 0
    python3 perfbench/run.py --smoke

One process, no threads: each job calls ``qnet_stp.cli.main(argv)``
in-process with stdout captured, timed from call to return, then the
output is checked outside the timed region.  Inputs are generated from
the seed before timing starts (see ``workloads.py``).

The job list is sized to a quarter of ``--seconds``.  ``--trace 0``
runs it four times, each time as relabeled copies (same work, new input
text), and prints the end-to-end metrics.  The machine's speed is
sampled with a fixed calibration loop before, during and after each
job, and each copy's time is scaled to the reference speed; a job's
time is the median over its copies.  ``--trace 1`` runs each job of the
list untraced and then with wrappers around each layer (``tracing.py``),
and prints the per-layer metrics, the tracing overhead among them.  The
last line of stdout is the result object; the line before it is a
detail report (provenance, failures by argv, tail percentile, counters),
which is also written with the spans under ``.perfbench-out/``.

``--record`` rewrites the reference answers and counters of the default
seed in ``baseline.json`` from the program as it is.  ``--smoke`` runs
all three workloads at tiny sizes, untraced and traced twice, and exits
non-zero if any harness invariant breaks.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
BASELINE = HERE / "baseline.json"

#: Longest the job passes of one invocation may take; later jobs are not
#: run and count as failed, so a run always ends within the 180 s limit.
JOB_BUDGET_S = 140.0
#: Time ranked for a failed job when a percentile lands on one.
FAILED_JOB_S = 180.0
#: Samples beyond the tail percentile.
TAIL_BEYOND = 10
#: Fresh interpreters started to time the import (after one warm-up).
SETUP_SAMPLES = 15
#: Copies of each job in an untraced run; a job's time is the median over
#: its copies, which run a quarter of a run apart.
COPIES = 4
#: Seconds :func:`calibration_loop` takes on the reference machine, a
#: 2-vCPU Intel Xeon VM running Python 3.11, at its fastest.
CALIBRATION_REF_S = 0.0015
#: Seconds between samples of the machine's speed during an untraced job.
PROBE_S = 0.05


class Deadline(BaseException):
    """Raised inside a job when the run's job budget is spent."""


def exit_code(code) -> int:
    if code is None:
        return 0
    return code if isinstance(code, int) else 1


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------

def time_import() -> float:
    """Wall time of a fresh interpreter running ``import qnet_stp.cli``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import qnet_stp.cli"], env=env, cwd=ROOT,
                   check=True, stdout=subprocess.DEVNULL)
    return time.perf_counter() - start


def calibration_loop() -> int:
    """Fixed pure-Python work like the program's scans: list indexing,
    integer sums, dict and set updates."""
    labels = list(range(24))
    pairs = [(i, (i * 7 + 3) % 24) for i in range(24)]
    seen = {}
    total = 0
    for step in range(800):
        cross = 0
        for u, v in pairs:
            if labels[u] != labels[v] + step % 3:
                cross += u + v
        seen[step % 64] = cross
        total += cross
    return total + len(set(seen.values()))


def slowness() -> float:
    """How much slower the machine runs now than the reference machine."""
    start = time.perf_counter()
    calibration_loop()
    return (time.perf_counter() - start) / CALIBRATION_REF_S


class SpeedProbe:
    """Samples the machine's slowness before, during and after one job.

    During the job a SIGALRM every :data:`PROBE_S` seconds runs the
    calibration loop; the time those samples take (``spent``) is taken off
    the job's wall time.  The same handler raises :class:`Deadline` once
    the run's job budget is spent.  With ``during`` false (traced jobs,
    whose layer times the samples would inflate) it only keeps the deadline.
    """

    def __init__(self, deadline: float, during: bool):
        self.deadline = deadline
        self.during = during
        self.samples = []
        self.spent = 0.0

    def sample(self) -> float:
        start = time.perf_counter()
        self.samples.append(slowness())
        return time.perf_counter() - start

    def on_alarm(self, signum, frame):
        if not self.during or time.monotonic() >= self.deadline:
            raise Deadline()
        self.spent += self.sample()

    def start(self):
        signal.signal(signal.SIGALRM, self.on_alarm)
        if self.during:
            signal.setitimer(signal.ITIMER_REAL, PROBE_S, PROBE_S)
        else:
            signal.setitimer(signal.ITIMER_REAL, max(self.deadline - time.monotonic(), 1e-3))

    @staticmethod
    def stop():
        signal.setitimer(signal.ITIMER_REAL, 0)

    def mean(self) -> float:
        return statistics.fmean(self.samples)


def run_job(cli, argv, probe):
    """One CLI call in-process: (seconds, exit code, exception class, stdout).

    ``seconds`` is wall time less the time ``probe`` spent sampling.
    """
    out = io.StringIO()
    rc, error = None, None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        start = time.perf_counter()
        try:
            probe.start()
            rc = exit_code(cli.main(argv))
        except SystemExit as exc:
            rc = exit_code(exc.code)
        except Deadline:
            error = "Deadline"
        except Exception as exc:  # classified per job; the run goes on
            error = type(exc).__name__
        finally:
            probe.stop()
        seconds = time.perf_counter() - start - probe.spent
    return seconds, rc, error, out.getvalue()


def attempt(cli, job, inputs, reference, deadline, tracer=None) -> dict:
    """Run one job, then classify and check it (the check is not timed)."""
    import checks

    path, text = inputs[job.id]
    argv = job.argv(path)
    record = {"id": job.id, "base": job.base, "argv": argv, "seconds": 0.0, "slowness": 1.0,
              "exit": None, "error": None, "failure": None, "problems": [], "stdout": ""}
    if time.monotonic() >= deadline:
        record["failure"] = record["error"] = "NotRun"
        return record
    gc.collect(1)
    probe = SpeedProbe(deadline, during=tracer is None)
    probe.sample()
    if tracer is not None:
        tracer.start_job(job.id)
    try:
        seconds, rc, error, stdout = run_job(cli, argv, probe)
    finally:
        if tracer is not None:
            tracer.end_job()
    probe.sample()
    record.update(seconds=seconds, exit=rc, error=error, stdout=stdout, slowness=probe.mean())
    if error is not None:
        record["failure"] = error
    elif rc != 0:
        record["failure"] = f"exit {rc}"
    else:
        try:
            doc = json.loads(stdout)
        except json.JSONDecodeError:
            record["failure"] = "stdout is not JSON"
            return record
        problems = checks.check(job.command, job.flags, text, doc, reference)
        if problems:
            record["failure"] = "wrong output"
            record["problems"] = problems
        record["answer"] = checks.answer(job.command, doc)
    return record


def run_pass(cli, jobs, inputs, references, deadline, tracer=None):
    """Run every job once, in order: (untraced results, traced results).

    With a tracer each job also runs traced, right after its untraced run,
    so drifts in machine speed touch both runs alike; the wrappers are in
    place only for the traced call.
    """
    plain, traced = [], []
    for job in jobs:
        plain.append(attempt(cli, job, inputs, references.get(job.id), deadline))
        if tracer is not None:
            tracer.install()
            try:
                traced.append(attempt(cli, job, inputs, references.get(job.id), deadline, tracer))
            finally:
                tracer.uninstall()
    return plain, traced


def job_times(results, scaled=True) -> dict:
    """Each job's median time over its copies; inf if any copy failed.

    ``scaled`` divides each copy's wall time by the machine's mean
    slowness over that copy, giving its time at the reference speed.
    """
    copies = {}
    for r in results:
        seconds = r["seconds"] / r["slowness"] if scaled else r["seconds"]
        copies.setdefault(r["base"], []).append(math.inf if r["failure"] else seconds)
    return {base: (math.inf if math.inf in times else statistics.median(times))
            for base, times in copies.items()}


def timing_metrics(times) -> dict:
    """Median, tail and throughput of the per-job times."""
    ranked = sorted(FAILED_JOB_S if math.isinf(x) else x for x in times.values())
    index = max(0, len(ranked) - 1 - TAIL_BEYOND)
    ok_jobs = [x for x in times.values() if not math.isinf(x)]
    return {
        "job_p50_s": statistics.median(ranked),
        "job_tail_s": ranked[index],
        "jobs_per_s": len(ok_jobs) / sum(ok_jobs) if ok_jobs else 0.0,
    }


def e2e_metrics(results, setup_s) -> tuple:
    """End-to-end metrics of untraced passes, plus notes on how they were taken.

    Times are per job, the median over its copies at the reference machine
    speed; ``success_ratio`` counts every copy.
    """
    times = job_times(results)
    n = len(times)
    index = max(0, n - 1 - TAIL_BEYOND)
    ok = sum(1 for r in results if r["failure"] is None)
    timings = timing_metrics(times)
    metrics = {
        "job_p50_s": {"value": timings["job_p50_s"], "unit": "s"},
        "job_tail_s": {"value": timings["job_tail_s"], "unit": "s"},
        "jobs_per_s": {"value": timings["jobs_per_s"], "unit": "1/s"},
        "success_ratio": {"value": ok / len(results), "unit": "ratio"},
        "peak_rss_mb": {
            "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "unit": "MB",
        },
        "setup_s": {"value": setup_s, "unit": "s"},
    }
    notes = {"tail_percentile": round(100 * (index + 1) / n, 2), "samples": n,
             "beyond": n - 1 - index, "copies_per_sample": len(results) / n,
             "unscaled": timing_metrics(job_times(results, scaled=False)),
             "slowness_quartiles": statistics.quantiles([r["slowness"] for r in results], n=4)}
    return metrics, notes


# ---------------------------------------------------------------------------
# bookkeeping
# ---------------------------------------------------------------------------

def provenance(workload, seed, traced, job_count) -> dict:
    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.CalledProcessError):
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, check=True,
                                    capture_output=True, text=True).stdout.strip()
    return {
        "python": platform.python_version(),
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "workload": workload,
        "seed": seed,
        "commit": commit,
        "traced": traced,
        "jobs": job_count,
        "copies_per_job": 1 if traced else COPIES,
        "client": "closed loop, one process, one job at a time",
    }


def write_inputs(workload, seed, jobs) -> dict:
    """Write each job's graph file; map job id -> (relative path, text)."""
    folder = OUT / "inputs" / f"{workload}-s{seed}"
    folder.mkdir(parents=True, exist_ok=True)
    for stale in folder.glob("*.json"):
        stale.unlink()
    inputs = {}
    for job in jobs:
        text = json.dumps(job.graph, indent=1)
        path = folder / f"{job.id}.json"
        path.write_text(text, encoding="utf-8")
        inputs[job.id] = (str(path.relative_to(ROOT)), text)
    return inputs


def load_baseline() -> dict:
    if BASELINE.is_file():
        return json.loads(BASELINE.read_text(encoding="utf-8"))
    return {}


def references_for(baseline, workload, seed, jobs, inputs) -> dict:
    """Stored reference entries for this run's jobs (default seed only)."""
    if seed != workloads.DEFAULT_SEED:
        return {}
    reference = baseline.get("reference", {})
    if reference.get("seconds") is None:
        return {}
    stored = reference.get(workload, {})
    return {job.id: stored[job.id] for job in jobs
            if stored.get(job.id, {}).get("argv") == job.argv(inputs[job.id][0])}


def failure_list(results) -> list:
    return [{"id": r["id"], "argv": r["argv"], "failure": r["failure"],
             **({"problems": r["problems"]} if r["problems"] else {})}
            for r in results if r["failure"] is not None]


def compare_passes(untraced, traced) -> list:
    """Jobs whose outcome differs between the untraced and traced pass."""
    return [a["id"] for a, b in zip(untraced, traced)
            if (a["exit"], a["error"], a["stdout"]) != (b["exit"], b["error"], b["stdout"])
            and "NotRun" not in (a["error"], b["error"])]


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------

def run_workload(workload, seed, seconds, traced, record=False) -> int:
    from qnet_stp import cli

    started = time.monotonic()
    jobs = workloads.build_jobs(workload, seed, seconds / COPIES)
    # A traced run does each job twice, untraced and traced, without copies.
    jobs = workloads.copies(jobs, 1 if traced else COPIES)
    inputs = write_inputs(workload, seed, jobs)
    baseline = load_baseline()
    references = {} if record else references_for(baseline, workload, seed, jobs, inputs)
    detail = {"provenance": provenance(workload, seed, traced, len(jobs))}
    tag = f"{workload}-s{seed}-t{int(traced)}"

    deadline = started + JOB_BUDGET_S
    if not traced:
        # Import timings are spread over the run, between jobs, so that
        # their median reflects the same machine state as the jobs.
        time_import()  # warm-up: byte-code caches
        setup_samples, results, failed = [], [], set()
        step = math.ceil(len(jobs) / SETUP_SAMPLES)
        for i, job in enumerate(jobs):
            if i % step == 0:
                setup_samples.append(time_import())
            if job.base in failed:
                continue  # a failed job stays failed; its later copies are not run
            results.append(attempt(cli, job, inputs, references.get(job.id), deadline))
            if results[-1]["failure"] is not None:
                failed.add(job.base)
        setup_s = statistics.median(setup_samples)
        metrics, notes = e2e_metrics(results, setup_s)
        detail["timing"] = notes
        detail["setup_samples_s"] = setup_samples
        results_checked = results
    else:
        tracer = tracing.Tracer()
        plain, results = run_pass(cli, jobs, inputs, references, deadline, tracer)
        untraced_s = sum(r["seconds"] for r in plain)
        traced_s = sum(r["seconds"] for r in results)
        metrics = tracer.metrics(traced_s, untraced_s)
        counters = {k: v["value"] for k, v in metrics.items() if tracing.is_counter(k, v["unit"])}
        detail["counters"] = counters
        detail["timings"] = {k: v["value"] for k, v in metrics.items() if k not in counters}
        detail["untraced_job_s"] = untraced_s
        detail["errors_by_class"] = {m: dict(c) for m, c in tracer.errors.items() if c}
        stored = baseline.get("counters", {})
        detail["counters_match_baseline"] = (
            counters == stored[workload]
            if workload in stored and (seed, seconds) == (stored["seed"], stored["seconds"])
            else None
        )
        mismatched = compare_passes(plain, results)
        for r in results:
            if r["id"] in mismatched:
                r["failure"] = "wrong output"
                r["problems"].append("output differs from the untraced pass")
        OUT.mkdir(exist_ok=True)
        tracer.write_spans(OUT / f"spans-{tag}.jsonl")
        results_checked = plain + results

    detail["failures"] = failure_list(results)
    correct = not any(r["problems"] for r in results_checked)
    failed = sum(1 for r in results if r["failure"] is not None)
    if record:
        if traced:
            section, entries = "counters", detail["counters"]
        else:
            section, entries = "reference", {
                r["id"]: {"argv": r["argv"], **({"answer": r["answer"]} if r["failure"] is None
                                                 else {"failure": r["failure"]})}
                for r in results if r["id"] == r["base"]
            }
        stored = baseline.setdefault(section, {})
        if (stored.get("seed"), stored.get("seconds")) != (seed, seconds):
            stored.clear()
            stored.update(seed=seed, seconds=seconds)
        stored[workload] = entries
        BASELINE.write_text(json.dumps(baseline, indent=1, sort_keys=True) + "\n")
    print(json.dumps(detail, default=str))
    detail["jobs"] = [[r["id"], r["seconds"], r["slowness"], r["failure"]] for r in results]
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{tag}.json").write_text(json.dumps(detail, indent=1, default=str) + "\n")
    print(json.dumps({"correct": correct, "attempted": len(results), "failed": failed,
                      "metrics": metrics}))
    return 0


def smoke() -> int:
    """Tiny sizes, one block per workload: every path of the harness once."""
    from qnet_stp import cli
    from qnet_stp.netgraph import proper_vertex_subsets

    problems = []
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if [m["name"] for m in spec["per_layer"]] != [name for name, _, _ in tracing.PER_LAYER]:
        problems.append("BENCHMARK.json per_layer differs from tracing.PER_LAYER")
    labels = [str(i) for i in range(1, 7)]
    for position, subset in enumerate(proper_vertex_subsets(labels), 1):
        if tracing.subset_position(labels, subset) != position:
            problems.append(f"subset_position wrong at {subset}")
            break
    summary = {}
    for workload in workloads.WORKLOADS:
        both = workloads.copies(workloads.build_jobs(workload, 0, 1, smoke=True), 2)
        jobs, extra = both[:len(both) // 2], both[len(both) // 2:]
        inputs = write_inputs(workload, "smoke", jobs + extra)
        counters = []
        for _ in range(2):
            tracer = tracing.Tracer()
            deadline = time.monotonic() + JOB_BUDGET_S / 6
            plain, traced = run_pass(cli, jobs, inputs, {}, deadline, tracer)
            values = tracer.metrics(1.0, 1.0)
            counters.append({k: v["value"] for k, v in values.items()
                             if tracing.is_counter(k, v["unit"])})
            if compare_passes(plain, traced):
                problems.append(f"{workload}: traced outputs differ from untraced")
        more, _ = run_pass(cli, extra, inputs, {}, deadline)
        metrics, notes = e2e_metrics(plain + more, 0.1)
        if notes["samples"] != len(jobs):
            problems.append(f"{workload}: copies are not grouped with their job")
        if sorted(metrics) != sorted(m["name"] for m in spec["end_to_end"]):
            problems.append("BENCHMARK.json end_to_end differs from the metrics printed")
        if counters[0] != counters[1]:
            problems.append(f"{workload}: counters differ between two traced passes")
        for r in plain + more:
            if r["problems"]:
                problems.append(f"{workload}: {r['argv']} {r['problems']}")
        summary[workload] = {"jobs": len(jobs), "failures": failure_list(plain + more),
                             "spans": len(tracer.spans)}
    print(json.dumps({"smoke": "ok" if not problems else "failed",
                      "problems": problems, "workloads": summary}))
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=["rate-scan", "pack-simulate", "plan"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=27)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--record", action="store_true",
                        help="store this run's answers and counters as the reference")
    parser.add_argument("--smoke", action="store_true", help="quick self-test of the harness")
    args = parser.parse_args(argv)
    if not (SRC / "qnet_stp" / "cli.py").is_file():
        print(f"qnet_stp sources not found under {SRC}", file=sys.stderr)
        return 2
    if not args.smoke and args.workload is None:
        parser.error("--workload is required")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    os.chdir(ROOT)
    os.environ.pop("QNET_STP_CAPS", None)
    if args.smoke:
        return smoke()
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.record)


if __name__ == "__main__":
    sys.exit(main())
