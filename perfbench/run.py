"""Benchmark for the `qgs` batch CLI: one closed-loop client, fresh processes.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  The jobs of the workload (see
jobs.py) run one after another, each as a fresh `python -m qgs.cli ...`
process with `src` on PYTHONPATH.  S fixes the number of blocks (about S
seconds of work at the defining commit).  Every record is checked by
oracle.py after the loop.

With --trace 0 the last line of standard output is a JSON object with the
end-to-end metrics; with --trace 1 every job runs once untraced and once
under tracer.py, and the object holds the per-layer metrics.  The run
stamp and a summary go to the lines before it and, with the failures, to
.perfbench_out/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import itertools
import json
import math
import os
import platform
import random
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import jobs as jobs_mod  # noqa: E402
import oracle  # noqa: E402
import tracer  # noqa: E402

OUT = Path(".perfbench_out")
JOB_TIMEOUT_S = 60
SETUP_REPEATS = 7
IMPORT_REPEATS = 5

END_TO_END_UNITS = {
    "setup_s": "s", "jobs_per_s": "1/s", "job_p50_s": "s", "job_tail_s": "s",
    "cpu_per_job_s": "s", "rss_peak_mb": "MB", "fail_ratio": "ratio",
}


@dataclass
class Result:
    job: jobs_mod.Job
    wall: float
    returncode: int | None
    stdout: str
    stderr: str
    cpu: float
    maxrss_kb: int


def child_env():
    env = dict(os.environ)
    src = str(Path("src").resolve())
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # One BLAS thread (at most nproc): idle OpenBLAS threads spin, which
    # adds CPU to every job that imports numpy and makes runs less steady.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def spawn(argv, env, stdout_path, stderr_path):
    """Run argv to completion; return (wall, returncode or None on timeout,
    user+sys CPU, max RSS in KiB) from os.wait4."""
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env)
        killer = threading.Timer(JOB_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    code = os.waitstatus_to_exitcode(status)
    proc.returncode = code
    timed_out = code < 0 and wall >= JOB_TIMEOUT_S
    return wall, None if timed_out else code, usage.ru_utime + usage.ru_stime, usage.ru_maxrss


def resolve_argv(job):
    missing = str((OUT / "missing-dir").resolve())
    return [a.replace(jobs_mod.MISSING_DIR, missing) for a in job.argv]


def run_job(job, env, prefix=()):
    out_path, err_path = OUT / "job.out", OUT / "job.err"
    argv = [sys.executable, *prefix] if prefix else [sys.executable, "-m", "qgs.cli"]
    wall, code, cpu, rss = spawn(argv + resolve_argv(job), env, out_path, err_path)
    return Result(job, wall, code,
                  out_path.read_text(encoding="utf-8", errors="replace"),
                  err_path.read_text(encoding="utf-8", errors="replace"), cpu, rss)


def timed_python(code, env, repeats, flags=()):
    """Wall times of fresh interpreters running `code`, and their stderr."""
    walls, errs = [], []
    for _ in range(repeats):
        wall, rc, _, _ = spawn([sys.executable, *flags, "-c", code], env,
                               OUT / "setup.out", OUT / "setup.err")
        if rc != 0:
            raise SystemExit(f"set-up failed: {code!r} exited {rc}: "
                             + (OUT / "setup.err").read_text()[-500:])
        walls.append(wall)
        errs.append((OUT / "setup.err").read_text())
    return walls, errs


def check_checkout(env):
    if not Path("src/qgs/cli.py").is_file():
        raise SystemExit("no src/qgs/cli.py here; run from the root of a qgs checkout")
    OUT.mkdir(exist_ok=True)
    # Also compiles the bytecode once, which users do not pay per job.
    timed_python("import qgs.cli, sys; sys.stderr.write(qgs.cli.__file__)", env, 1)
    where = Path((OUT / "setup.err").read_text().strip()).resolve()
    if Path("src").resolve() not in where.parents:
        raise SystemExit(f"qgs resolves to {where}, not to this checkout")


def stamp(args, env):
    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None

    # The ceiling keeps git from looking above the checkout.
    git_env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(Path.cwd().parent))
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                                text=True, timeout=10, env=git_env).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    digest = hashlib.sha256()
    for path in sorted(Path("src/qgs").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "src_lines": src_lines(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "mpmath": version("mpmath"),
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": int(env["OPENBLAS_NUM_THREADS"]),
        "machine": platform.machine(),
    }


def src_lines():
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted(Path("src/qgs").glob("*.py")))


def job_loop(args, env, traced):
    """Run the workload's blocks for --seconds; return (untraced results,
    traced (wall, span file payload) pairs, loop wall seconds)."""
    results, traces = [], []
    trace_dir = OUT / "trace"
    if traced:
        shutil.rmtree(trace_dir, ignore_errors=True)
        trace_dir.mkdir(parents=True)
    count = jobs_mod.block_count(args.workload, args.seconds)
    if traced:
        # Each job runs twice; half the blocks keep the run near S seconds.
        count = max(1, count // 2)
    start = time.perf_counter()
    for block in itertools.islice(jobs_mod.blocks(args.workload, args.seed), count):
        for job in block:
            results.append(run_job(job, env))
            if traced:
                spans = trace_dir / f"{job.job_id}.json"
                prefix = (str(HERE / "tracer.py"), "--spans", str(spans), "--job", job.job_id, "--")
                res = run_job(job, env, prefix)
                payload = json.loads(spans.read_text()) if spans.is_file() else None
                traces.append((res.wall, payload))
    return results, traces, time.perf_counter() - start


def tail(walls):
    """(value, percentile, n): the highest whole percentile with at least
    ten samples above it, by nearest rank."""
    n = len(walls)
    ordered = sorted(walls)
    if n < 11:
        return ordered[-1], 100, n
    pct = (100 * (n - 10)) // n
    rank = max(1, math.ceil(pct * n / 100))
    return ordered[rank - 1], pct, n


def judge_all(args, results):
    outcomes = []
    for res in results:
        rng = random.Random(f"{args.seed}:{res.job.job_id}")
        outcomes.append(oracle.judge(res.job, res.returncode, res.stdout, res.stderr, rng))
    return outcomes


def end_to_end(setup_walls, results, outcomes, loop_wall):
    walls = [r.wall for r in results]
    value, pct, n = tail(walls)
    failed = sum(o.failed for o in outcomes)
    metrics = {
        "setup_s": statistics.median(setup_walls),
        "jobs_per_s": len(results) / loop_wall,
        "job_p50_s": statistics.median(walls),
        "job_tail_s": value,
        "cpu_per_job_s": sum(r.cpu for r in results) / len(results),
        "rss_peak_mb": max(r.maxrss_kb for r in results) / 1024,
        "fail_ratio": failed / len(results),
    }
    notes = {
        "setup_s": f"median of {len(setup_walls)} fresh `import qgs.cli`",
        "job_tail_s": f"p{pct} of n={n} jobs",
        "fail_ratio": f"{failed} failed / {len(results)} attempted",
    }
    return metrics, notes


IMPORT_LINE = re.compile(r"import time:\s+\d+\s+\|\s+(\d+)\s+\|\s*(\S+)")


def import_times(stderr_text):
    """Cumulative seconds of qgs (package and cli), numpy and mpmath from
    one `-X importtime` log."""
    cumulative = {}
    for match in IMPORT_LINE.finditer(stderr_text):
        cumulative.setdefault(match.group(2), int(match.group(1)) / 1e6)
    return {
        "import.qgs_s": cumulative.get("qgs", 0.0) + cumulative.get("qgs.cli", 0.0),
        "import.numpy_s": cumulative.get("numpy", 0.0),
        "import.mpmath_s": cumulative.get("mpmath", 0.0),
    }


def grid_cells(alpha_max, gamma_max):
    """Cells visited by gap_constant_scan(alpha_max, gamma_max)."""
    cells = 0
    for a in range(alpha_max + 1):
        for b in range(max(0, a - 2 * gamma_max), min(alpha_max, a + 2 * gamma_max) + 1):
            for g in range(-gamma_max, gamma_max + 1):
                if a + g >= 0 and b - g >= 0 and abs(g) <= max(a, b):
                    cells += 1
    return cells


def per_layer(env, results, traces):
    """Per-layer metrics, as means per traced job unless named otherwise."""
    floor, _ = timed_python("pass", env, IMPORT_REPEATS)
    _, logs = timed_python("import qgs.cli", env, IMPORT_REPEATS, flags=("-X", "importtime"))
    imports = [import_times(log) for log in logs]
    metrics = {"interp.floor_s": (statistics.median(floor), "s")}
    for key in ("import.qgs_s", "import.numpy_s", "import.mpmath_s"):
        metrics[key] = (statistics.median(i[key] for i in imports), "s")

    totals, maxima = Counter(), Counter()
    hits = lookups = 0
    payloads = [p for _, p in traces if p is not None]
    for payload in payloads:
        totals.update(payload["counters"])
        totals.update(tracer.layer_totals(payload))
        for key, value in payload["maxima"].items():
            maxima[key] = max(maxima[key], value)
        for alpha_max, gamma_max in payload["scans"]:
            totals["estimates.cells"] += grid_cells(alpha_max, gamma_max)
        hits += payload["dims_cache"][0]
        lookups += sum(payload["dims_cache"])
    jobs = max(1, len(payloads))

    def ratio(num, den, scale=1.0):
        return num / den * scale if den else 0.0

    for layer in tracer.LAYERS:
        metrics[f"{layer}.calls"] = (totals[f"{layer}.calls"] / jobs, "count/job")
        metrics[f"{layer}.errors"] = (totals[f"{layer}.errors"] / jobs, "count/job")
        if layer != "precision":
            metrics[f"{layer}.self_s"] = (totals[f"{layer}.self_s"] / jobs, "s/job")
    for key in ("chebyshev.steps", "spectrum.labels", "estimates.cells", "templieb.jw_builds",
                "templieb.isometries", "freewords.patterns", "freewords.multiply_calls",
                "freewords.terms"):
        metrics[key] = (totals[key] / jobs, "count/job")
    metrics["chebyshev.ns_per_step"] = (
        ratio(totals["chebyshev.self_s"], totals["chebyshev.steps"], 1e9), "ns")
    metrics["estimates.us_per_cell"] = (
        ratio(totals["estimates.self_s"], totals["estimates.cells"], 1e6), "us")
    metrics["freewords.us_per_pattern"] = (
        ratio(totals["freewords.self_s"], totals["freewords.patterns"], 1e6), "us")
    metrics["precision.max_bits"] = (maxima["precision.max_bits"], "bits")
    metrics["templieb.max_sites"] = (maxima["templieb.max_sites"], "sites")
    metrics["fusion.dims_hit_ratio"] = (ratio(hits, lookups), "ratio")
    metrics["fusion.dims_lookups"] = (lookups / jobs, "count/job")
    untraced = sum(r.wall for r in results)
    metrics["trace.overhead_ratio"] = (ratio(sum(w for w, _ in traces), untraced), "ratio")
    metrics["trace.jobs"] = (len(payloads), "count")
    metrics["src.lines"] = (src_lines(), "lines")
    notes = {"fusion.dims_hit_ratio": f"{hits} hits / {lookups} lookups",
             "trace.overhead_ratio": f"traced / untraced wall over {len(traces)} job pairs"}
    return metrics, notes


def failure_summary(results, outcomes):
    by_slot = defaultdict(list)
    for res, out in zip(results, outcomes):
        by_slot[res.job.slot].append((res, out))
    lines = []
    for slot, items in sorted(by_slot.items()):
        bad = [(r, o) for r, o in items if o.failed]
        if bad:
            lines.append(f"  {slot}: {len(bad)}/{len(items)} failed, e.g. "
                         f"{' '.join(bad[0][0].job.argv)}: {bad[0][1].reasons[0]}")
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=jobs_mod.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    env = child_env()
    check_checkout(env)
    run_stamp = stamp(args, env)
    setup_walls = [] if args.trace else timed_python("import qgs.cli", env, SETUP_REPEATS)[0]

    results, traces, loop_wall = job_loop(args, env, traced=bool(args.trace))
    outcomes = judge_all(args, results)

    if args.trace:
        metrics, notes = per_layer(env, results, traces)
    else:
        values, notes = end_to_end(setup_walls, results, outcomes, loop_wall)
        metrics = {k: (v, END_TO_END_UNITS[k]) for k, v in values.items()}

    failed = sum(o.failed for o in outcomes)
    unsound = [(r, o) for r, o in zip(results, outcomes) if o.unsound]
    summary = {
        "correct": not unsound,
        "attempted": len(results),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    slots = defaultdict(list)
    for res in results:
        slots[res.job.slot].append(res)
    slot_walls = {k: {"n": len(v), "median_s": statistics.median(r.wall for r in v),
                      "max_s": max(r.wall for r in v),
                      "max_rss_mb": max(r.maxrss_kb for r in v) / 1024}
                  for k, v in sorted(slots.items())}
    report = dict(summary, stamp=run_stamp, notes=notes, loop_wall_s=loop_wall,
                  slot_walls=slot_walls, failures=[
        {"job": r.job.job_id, "slot": r.job.slot, "argv": list(r.job.argv),
         "wall_s": r.wall, "unsound": o.unsound, "reasons": o.reasons[:5]}
        for r, o in zip(results, outcomes) if o.failed
    ])
    results_dir = OUT / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results_dir / name).write_text(json.dumps(report, indent=1) + "\n")

    print("stamp " + json.dumps(run_stamp, sort_keys=True))
    for key, (value, unit) in metrics.items():
        note = f"  ({notes[key]})" if key in notes else ""
        print(f"{key:28s} {value:.6g} {unit}{note}")
    for line in failure_summary(results, outcomes):
        print(line)
    for res, out in unsound:
        print(f"UNSOUND {' '.join(res.job.argv)}: {out.reasons[0]}")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
