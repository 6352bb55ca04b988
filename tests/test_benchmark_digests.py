"""The benchmark's seed-0 jobs print what they printed when the table was recorded.

``perfbench/workloads.py`` builds the job lists of the three benchmark
workloads; ``build_jobs(w, 0, 27)`` gives the 718 seed-0 jobs of a
27-second run.  Each job runs in-process through ``cli.main`` on its
graph file, written as the benchmark writes it, and its exit code and
the sha256 of its stdout must match ``benchmark_digests.json``.  A
refactor that is meant to keep the CLI's bytes so proves it on the
benchmark's own inputs, in about a second.

The table belongs to the job lists: a change to ``workloads.py`` that
changes them (new classes, sizes, draws or block counts) must re-record
it, and say so in CHANGES.md, as must a change that is meant to change
an output.  To re-record::

    PYTHONPATH=src python tests/test_benchmark_digests.py --record

It prints each job whose exit code or digest changed, with the old and
new exit codes, before it writes the table.
"""

import contextlib
import hashlib
import importlib.util
import io
import json
import os
import sys
import tempfile
from pathlib import Path

from qnet_stp.cli import main

WORKLOADS_PY = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
DIGESTS = Path(__file__).with_name("benchmark_digests.json")
SEED, SECONDS = 0, 27


def load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS_PY)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up by name
    spec.loader.exec_module(module)
    return module


def jobs() -> list:
    """``(workload/job id, job)`` for every seed-0 job of the three workloads."""
    workloads = load_workloads()
    return [(f"{w}/{job.id}", job) for w in workloads.WORKLOADS
            for job in workloads.build_jobs(w, SEED, SECONDS)]


def run_job(job, directory) -> list:
    """[exit code or escaping exception class, sha256 of stdout]."""
    path = os.path.join(directory, "graph.json")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(json.dumps(job.graph, indent=1))
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(job.argv(path))
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # recorded, never raised past the run
            code = type(exc).__name__
    return [code, hashlib.sha256(out.getvalue().encode()).hexdigest()]


def digests(directory) -> dict:
    return {name: run_job(job, directory) for name, job in jobs()}


def test_benchmark_jobs_print_the_recorded_bytes(tmp_path):
    recorded = json.loads(DIGESTS.read_text(encoding="utf-8"))
    table = digests(str(tmp_path))
    assert len(table) == 718
    assert sorted(table) == sorted(recorded)
    differ = [name for name in table if table[name] != recorded[name]]
    assert not differ, f"{len(differ)} jobs differ: {differ}"


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_benchmark_digests.py --record")
    old = json.loads(DIGESTS.read_text(encoding="utf-8")) if DIGESTS.exists() else {}
    with tempfile.TemporaryDirectory() as directory:
        table = digests(directory)
    for name in sorted(set(old) | set(table)):
        before, after = old.get(name, [None, None]), table.get(name, [None, None])
        if before != after:
            print(f"changed: {name}: exit {before[0]} -> {after[0]}")
    DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"recorded {len(table)} jobs in {DIGESTS}")
