"""exturan benchmark: one workload per run, or every workload with --all.

    python3 perfbench/run.py --workload exact-cold --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --all --seed 1 --seconds 10

Run from the checkout root; the package is imported from ``src/``. A run sets
up (in child processes, timed), then runs timed passes over the workload's
job list in this process, one job at a time (a closed loop with one client),
until ``--seconds`` have passed, and always at least one pass. Every job's
exit code, stdout and written files are checked against ``reference.json``
or by independent checks. Times are reported at a reference host speed,
from a kernel sampled on a timer throughout the run (``hostspeed.py``), so
that the drift of a shared machine does not swamp the program's own
changes; the raw times go to the detail file. With ``--trace 1`` one
further pass runs with
spans around each layer's public functions and the per-layer metrics are
reported instead of the end-to-end ones.

The last stdout line is the result: {"correct", "attempted", "failed",
"metrics"}. Earlier lines give every metric by name with its unit, the
error rate, failures and the provenance of the run. Full results go to
``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed
import jobs as J
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = ".perfbench_out"
SETUPS = 5  # set-up runs per benchmark run; setup_s is their median
ROOT_COVERAGE = 0.95  # least share of a traced pass that root spans must cover
UNITS = {"setup_s": "s", "wall_s": "s", "job_geomean_ms": "ms", "peak_rss_mb": "MB"}


class BenchError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=J.WORKLOADS)
    p.add_argument("--all", action="store_true", help="run every workload, print a table")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not args.all and args.workload is None:
        p.error("give --workload or --all")
    return args


def provenance():
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=60)
        commit = res.stdout.strip() or commit
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "exturan").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "cpu_model": cpu, "loadavg_start": list(os.getloadavg()),
            "git_commit": commit, "src_sha256": digest.hexdigest()}


def time_setups(workload):
    """Each set-up's time, from spawning it to its ``ready`` line, as
    measured and scaled by the bare interpreter starts around it."""
    raw, scaled = [], []
    before = hostspeed.bare_start()
    bare = [before]
    for _ in range(SETUPS):
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, str(HERE / "prepare.py"), workload],
                                cwd=ROOT, stdout=subprocess.PIPE, text=True)
        line = proc.stdout.readline()
        took = time.perf_counter() - t0
        try:
            proc.communicate(timeout=170)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise BenchError(f"set-up for {workload} did not finish") from None
        if line.strip() != "ready" or proc.returncode != 0:
            raise BenchError(f"set-up for {workload} failed (exit {proc.returncode})")
        after = hostspeed.bare_start()
        bare.append(after)
        raw.append(took)
        scaled.append(took * hostspeed.REFERENCE_START_S * 2 / (before + after))
        before = after
    return raw, bare, scaled


def import_exturan():
    sys.path.insert(0, str(ROOT / "src"))
    import exturan
    import exturan.cli
    import exturan.extremal
    import exturan.pipeline
    if Path(exturan.__file__).resolve().parent != ROOT / "src" / "exturan":
        raise BenchError(f"exturan imported from {exturan.__file__}, not from src/")
    return exturan


class Runner:
    """Runs passes over one workload's jobs in this process."""

    def __init__(self, x, workload, seed):
        self.jobs = J.workload_jobs(workload, seed)
        self.executor = J.Executor(x, self.jobs,
                                   put_dir=J.PUT if workload == "exact-warm" else None)
        self.reference = json.loads((HERE / "reference.json").read_text())["jobs"]
        self.tally = {"ok": 0, "error": 0, "wrong": 0}
        self.failures: dict[str, str] = {}

    def run_pass(self):
        """One pass; returns the (start, end) of each job in job order."""
        outcomes = [self.executor.run(job) for job in self.jobs]
        for o in outcomes:
            status, detail = J.classify(o, self.reference)
            self.tally[status] += 1
            if status != "ok":
                self.failures.setdefault(o.job.id, f"{status}: {detail}")
        return [(o.start, o.end) for o in outcomes]


def run_workload(args):
    os.chdir(ROOT)
    if not (ROOT / "src" / "exturan" / "__init__.py").is_file():
        raise BenchError("src/exturan is missing: run from a checkout of the repository")
    os.environ.pop("EXTURAN_CACHE", None)
    prov = provenance()
    shutil.rmtree(J.WORK, ignore_errors=True)
    setups_raw, bare, setups = time_setups(args.workload)
    x = import_exturan()
    runner = Runner(x, args.workload, args.seed)
    speed = hostspeed.HostSpeed()
    speed.start()
    try:
        passes = []
        t_run = time.perf_counter()
        while True:
            passes.append(runner.run_pass())
            if time.perf_counter() - t_run >= args.seconds:
                break
        if args.trace:
            workers = 2 if args.workload == "exact-parallel" else 1
            tracer = tracing.Tracer()
            tracer.install()
            cpu0 = tracing.cpu_times()
            try:
                traced_pass = runner.run_pass()
            finally:
                tracer.uninstall()
            cpu1 = tracing.cpu_times()
    finally:
        speed.stop()

    # Every time below is at the reference host speed (see hostspeed.py).
    job_times = [[speed.job_time(t0, t1) for t0, t1 in p] for p in passes]
    walls = [sum(p) for p in job_times]
    latencies = [t for p in job_times for t in p]
    wall = statistics.median(walls)
    job_p50_ms = statistics.median(latencies) * 1000.0
    raw = {"setup_s": setups_raw, "bare_start_s": bare,
           "pass_wall_s": [sum(t1 - t0 - speed.kernel_time(t0, t1) for t0, t1 in p)
                           for p in passes]}

    if args.trace:
        traced = sum(speed.job_time(t0, t1) for t0, t1 in traced_pass)
        traced_raw = sum(t1 - t0 for t0, t1 in traced_pass)
        pool_cpu = (cpu1[0] - cpu0[0], cpu1[1] - cpu0[1])
        layer = tracer.report(traced, wall, traced_raw, pool_cpu, workers)
        coverage = layer["trace.root_coverage"]
        if not ROOT_COVERAGE <= coverage <= 1.0 + 1e-9:
            raise BenchError(f"trace accounting check failed: root spans cover "
                             f"{coverage:.4f} of the traced pass")
        metrics = {name: layer[name] for name, _ in tracing.per_layer_spec()}
        units = dict(tracing.per_layer_spec())
        Path(RESULTS).mkdir(exist_ok=True)
        tracer.dump(f"{RESULTS}/spans-{args.workload}-seed{args.seed}.jsonl")
    else:
        metrics = {
            "setup_s": statistics.median(setups),
            "wall_s": wall,
            "job_geomean_ms": statistics.geometric_mean(latencies) * 1000.0,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = UNITS

    t = runner.tally
    attempted, failed = sum(t.values()), t["error"] + t["wrong"]
    result = {"correct": t["wrong"] == 0, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}
    detail = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "provenance": prov, "setup_s": setups,
              "pass_wall_s": walls, "raw": raw, "host_kernel": speed.summary(),
              "job_p50_ms": job_p50_ms, "tally": t,
              "error_rate": failed / attempted, "failures": runner.failures,
              "job_median_ms": {job.id: statistics.median(p[i] for p in job_times) * 1000.0
                                for i, job in enumerate(runner.jobs)},
              "result": result}
    Path(RESULTS).mkdir(exist_ok=True)
    Path(f"{RESULTS}/{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(detail, indent=2, sort_keys=True) + "\n")
    shutil.rmtree(J.WORK, ignore_errors=True)

    print(f"workload {args.workload}  seed {args.seed}  passes {len(walls)}  "
          f"jobs {attempted}  trace {args.trace}")
    print("provenance " + json.dumps(prov, sort_keys=True))
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g} {units[name]}")
    print(f"  job_p50_ms = {job_p50_ms:.6g} ms")
    print(f"  error_rate = {failed / attempted:.6g} ratio  ({failed} of {attempted} jobs failed, "
          f"{t['wrong']} with wrong output)")
    for job_id, why in sorted(runner.failures.items()):
        print(f"  failed job {job_id}: {why}")
    if args.trace and args.workload == "exact-parallel":
        print("  note: spans inside forked pool workers are not recorded; "
              "extremal.pool.children_cpu_s measures them")
    print(json.dumps(result, sort_keys=True))


def run_all(args):
    """Run each workload in its own process and print every metric by name."""
    rows, ok = [], True
    for workload in J.WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed",
               str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        if proc.returncode != 0 or not proc.stdout.strip():
            sys.stderr.write(proc.stderr)
            ok = False
            continue
        detail = json.loads(Path(
            f"{RESULTS}/{workload}-seed{args.seed}-trace{args.trace}.json").read_text())
        res = detail["result"]
        for name, m in res["metrics"].items():
            rows.append((workload, name, m["value"], m["unit"]))
        rows.append((workload, "job_p50_ms", detail["job_p50_ms"], "ms"))
        rows.append((workload, "error_rate", detail["error_rate"], "ratio"))
        rows.append((workload, "correct", res["correct"], "bool"))
    width = max(len(r[1]) for r in rows) if rows else 10
    for workload, name, value, unit in rows:
        shown = f"{value:.6g}" if isinstance(value, float) else str(value)
        print(f"{workload:15s} {name:{width}s} {shown:>14s} {unit}")
    return 0 if ok else 1


def main(argv=None):
    args = parse_args(argv)
    try:
        if args.all:
            return run_all(args)
        run_workload(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
