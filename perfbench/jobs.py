"""Workload job lists, set-up inputs, job execution and output checks.

Every path here is relative to the checkout root, which is the working
directory of a benchmark run, so that the pinned stdout digests (which
contain output file names) hold in any checkout.

The workload seed reaches exactly three places: the ``--seed`` of
``construct --kind deletion`` (as seed*100 + n), the ``--seed`` of
``ex --heuristic`` and the ``seed`` of ``find_blowup``. Jobs whose output
depends on it are checked by independent semantic checks instead of pinned
digests.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from pathlib import Path
from time import perf_counter

WORK = ".perfbench_work"
OUT = f"{WORK}/out"
INPUTS = f"{WORK}/inputs"
CACHE = f"{WORK}/cache"  # exact-warm: filled by cold search during set-up
PUT = f"{WORK}/put"      # exact-warm: RecordCache.put target, empty at run start

WORKLOADS = ("exact-cold", "exact-warm", "certify", "exact-parallel")

# (T, F, smallest n, largest n): graph and 3-uniform hosts, clique and
# non-clique T, so the canonicity test, the forbidden-extension test and the
# pattern counter carry different shares of the search.
COLD_FAMILIES = (
    ("K2_2(1,1)", "K2_2(2,2)", 4, 9),
    ("K3_2(1,1,1)", "K3_2(1,1,2)", 4, 8),
    ("K3_2(1,1,1)", "K3_2(2,2,2)", 4, 7),
    ("K4_2(1,1,1,1)", "K4_2(1,1,1,2)", 4, 7),
    ("K2_2(2,2)", "K3_2(1,1,1)", 5, 8),
    ("K3_3(1,1,1)", "K4_3(1,1,1,1)", 4, 6),
    ("K4_3(1,1,1,1)", "K4_3(1,1,1,2)", 4, 6),
)

# exact-parallel: the four largest exact-cold instances.
PARALLEL_INSTANCES = (
    ("K2_2(1,1)", "K2_2(2,2)", 9),
    ("K3_2(1,1,1)", "K3_2(1,1,2)", 8),
    ("K3_2(1,1,1)", "K3_2(2,2,2)", 7),
    ("K4_3(1,1,1,1)", "K4_3(1,1,1,2)", 6),
)

# ex(n, K2, C4) on n = 4..9: OEIS A006855, maximum edges of a C4-free graph.
A006855 = {4: 4, 5: 6, 6: 7, 7: 9, 8: 11, 9: 13}

# Edge counts of the r=3 progression systems, i.e. the triangle count of
# their shadow graphs, claimed by the certify verify jobs.
LBAP_EDGES = {6: 24, 7: 28, 8: 32, 9: 45, 10: 50}

# find_blowup hosts: (name, pattern spec, class size a, retries). The planted
# hosts are found at retry 0, so their answer does not depend on the seed;
# the lbap shadow graphs are locally linear and contain no K3(2,2,2).
BLOWUP_CASES = (
    ("planted-k3", "K3_2(1,1,1)", 2, 200),
    ("planted-k4_3", "K4_3(1,1,1,1)", 2, 200),
    ("none-lbap6", "K3_2(1,1,1)", 2, 20),
    ("none-lbap10", "K3_2(1,1,1)", 2, 20),
)


@dataclass(frozen=True)
class Job:
    """One operation of a pass.

    kind "cli" runs ``exturan.cli.main(argv)``; "find_blowup" calls
    ``exturan.pipeline.find_blowup`` on a set-up host; "put" writes the record
    returned by the preceding job with ``RecordCache.put``.
    ``ref`` names the reference entry; ``check`` selects how the outcome is
    compared with it.
    """

    id: str
    kind: str
    argv: tuple = ()
    ref: str = ""
    check: str = "pinned"
    files: tuple = ()
    params: dict = field(default_factory=dict, hash=False, compare=False)


def _ex_id(t, f, n):
    return f"ex:{t}/{f}:n={n}"


def _ex_argv(t, f, n):
    return ("ex", "--n", str(n), "--T", t, "--F", f, "--format", "json")


def cold_instances(drop_largest=False):
    for t, f, lo, hi in COLD_FAMILIES:
        for n in range(lo, hi if drop_largest else hi + 1):
            yield t, f, n


def _deletion_gamma(spec):
    # p = n^(-gamma), gamma = (v - u) / (e - 1) for the blowup's v vertices,
    # e edges and uniformity u; recomputed here from the shorthand.
    base = {"K2_2(2,2)": (4, 2, 4), "K3_3(1,1,2)": (4, 3, 2)}[spec]
    v, u, e = base
    return Fraction(v - u, e - 1)


def certify_jobs(seed):
    jobs = []
    for n, m in LBAP_EDGES.items():
        pre = f"{OUT}/lbap{n}"
        h, g, cert = f"{pre}.h.txt", f"{pre}.g.txt", f"{pre}.cert.json"
        jobs.append(Job(f"construct:lbap:n={n}:r=3", "cli",
                        ("construct", "--kind", "lbap", "--n", str(n), "--r", "3",
                         "--verify", "--out-prefix", pre), files=(h, g, cert)))
        for claim, host in (("free:K3_2(1,1,2)", g), (f"cliques:{m}", g),
                            (f"edge-disjoint:{m}", g), ("lbap-properties", h)):
            argv = ("verify", host, "--claim", claim)
            if claim == "lbap-properties":
                argv += ("--cert", cert)
            jobs.append(Job(f"verify:lbap{n}:{claim}", "cli", argv))
    # Known defect: the r=4 system has n*|S| = 20 edges but its certificate
    # claims n^(r-2)*|S| = 100, so --verify exits 1. It is counted as a
    # failed job; the reference is the contract (exit 0, a passing certificate).
    pre = f"{OUT}/lbap5r4"
    jobs.append(Job("construct:lbap:n=5:r=4", "cli",
                    ("construct", "--kind", "lbap", "--n", "5", "--r", "4", "--verify",
                     "--out-prefix", pre),
                    files=(f"{pre}.h.txt", f"{pre}.g.txt", f"{pre}.cert.json")))
    for n in (9, 12):
        pre = f"{OUT}/lb4n{n}"
        jobs.append(Job(f"construct:lb4:n={n}", "cli",
                        ("construct", "--kind", "lb4", "--n", str(n), "--r", "3",
                         "--a", "2,2,2", "--verify", "--out-prefix", pre),
                        files=(f"{pre}.txt", f"{pre}.cert.json")))
    # Deletion samples edges in colex order, so with one seed the graphs for
    # consecutive n share their first draws and their costs move together.
    # Each job gets its own seed (seed*100 + n; n < 100 and differs between
    # the two series) so that the pass time averages independent samples.
    for r, spec, lo, hi in ((3, "K2_2(2,2)", 40, 64), (4, "K3_3(1,1,2)", 20, 30)):
        for n in range(lo, hi + 1):
            pre = f"{OUT}/del{r}n{n}"
            job_seed = seed * 100 + n
            jobs.append(Job(f"construct:deletion:r={r}:n={n}", "cli",
                            ("construct", "--kind", "deletion", "--n", str(n), "--r",
                             str(r), "--spec", spec, "--seed", str(job_seed), "--verify",
                             "--out-prefix", pre),
                            check="deletion", files=(f"{pre}.txt", f"{pre}.cert.json"),
                            params={"n": n, "r": r, "spec": spec, "seed": job_seed}))
    jobs.append(Job("verify:k5_3:chain:K4_3(1,1,1,1)", "cli",
                    ("verify", f"{INPUTS}/k5_3.txt", "--claim", "chain:K4_3(1,1,1,1)")))
    for n in range(10, 15):
        jobs.append(Job(f"ex-heuristic:K3/diamond:n={n}", "cli",
                        ("ex", "--n", str(n), "--T", "K3_2(1,1,1)", "--F", "K3_2(1,1,2)",
                         "--heuristic", "--seed", str(seed), "--format", "json"),
                        check="heuristic", params={"n": n}))
    for name, spec, a, retries in BLOWUP_CASES:
        jobs.append(Job(f"find_blowup:{name}", "find_blowup",
                        params={"host": f"{INPUTS}/{name}.txt", "spec": spec, "a": a,
                                "retries": retries, "seed": seed}))
    return jobs


def workload_jobs(workload, seed):
    if workload == "exact-cold":
        return [Job(_ex_id(t, f, n), "cli", _ex_argv(t, f, n))
                for t, f, n in cold_instances()]
    if workload == "exact-warm":
        jobs = []
        for t, f, n in cold_instances(drop_largest=True):
            jid = _ex_id(t, f, n)
            jobs.append(Job(jid + ":warm", "cli", _ex_argv(t, f, n) + ("--cache-dir", CACHE),
                            ref=jid, check="pinned-no-nodes"))
            jobs.append(Job(jid + ":put", "put", ref=jid, check="put"))
        return jobs
    if workload == "exact-parallel":
        return [Job(_ex_id(t, f, n) + ":workers=2", "cli",
                    _ex_argv(t, f, n) + ("--workers", "2"), ref=_ex_id(t, f, n))
                for t, f, n in PARALLEL_INSTANCES]
    if workload == "certify":
        return certify_jobs(seed)
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# set-up inputs
# ---------------------------------------------------------------------------


def make_inputs(workload, exturan):
    """Write the workload's input files; for exact-warm, fill the cache."""
    Path(OUT).mkdir(parents=True, exist_ok=True)
    Path(INPUTS).mkdir(parents=True, exist_ok=True)
    if workload == "certify":
        for name, g in blowup_hosts(exturan).items():
            exturan.write_file(g, f"{INPUTS}/{name}.txt")
        exturan.write_file(exturan.complete(5, 3), f"{INPUTS}/k5_3.txt")
    elif workload == "exact-warm":
        for t, f, n in cold_instances(drop_largest=True):
            code = run_cli(exturan.cli.main, _ex_argv(t, f, n) + ("--cache-dir", CACHE))[0]
            if code != 0:
                raise RuntimeError(f"cache fill failed for {_ex_id(t, f, n)}")


def blowup_hosts(exturan):
    """find_blowup hosts; fixed inputs, independent of the workload seed."""
    x = exturan
    rng = random.Random(2405_07763)

    def planted(spec, extra_vertices, noise):
        g, _ = x.blowup(spec)
        n = g.n + extra_vertices
        perm = list(range(n))
        rng.shuffle(perm)
        edges = {tuple(sorted(perm[v] for v in e)) for e in g.edges}
        pool = list(combinations(range(n), g.s))
        edges.update(rng.sample(pool, noise))
        return x.make(n, g.s, edges)

    return {
        "planted-k3": planted(x.BlowupSpec(x.complete(3, 2), (3, 3, 3)), 6, 12),
        "planted-k4_3": planted(x.BlowupSpec(x.complete(4, 3), (2, 2, 2, 2)), 4, 10),
        "none-lbap6": x.build_lbap(6, 3, verify=False).graph,
        "none-lbap10": x.build_lbap(10, 3, verify=False).graph,
    }


# ---------------------------------------------------------------------------
# execution
# ---------------------------------------------------------------------------


def run_cli(main, argv):
    """Run the CLI in-process; returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


@dataclass
class Outcome:
    job: Job
    start: float = 0.0
    end: float = 0.0
    code: int | None = None
    stdout: str = ""
    stderr: str = ""
    raised: str | None = None
    files: dict = field(default_factory=dict)
    records: list = field(default_factory=list)
    value: object = None


def snapshot_files(paths):
    snap = {}
    for p in paths:
        try:
            snap[p] = Path(p).read_bytes()
        except FileNotFoundError:
            snap[p] = None
    return snap


class Executor:
    """Runs jobs in this process through exturan's public entry points.

    The benchmark and ``pin.py`` both run jobs here, so the reference is
    pinned from the same execution the benchmark checks. The records that
    ``exturan.cli`` gets back from ``exact_ex`` are captured, for node counts
    and for the ``put`` job that follows an ``ex`` job.
    """

    def __init__(self, x, jobs, put_dir=None):
        self.x = x
        self.captured = []
        self.last_record = None
        extremal = x.extremal

        def capture(*args, **kwargs):
            # Looked up at call time, so a traced exact_ex is the one called.
            record = extremal.exact_ex(*args, **kwargs)
            self.captured.append(record)
            return record

        x.cli.exact_ex = capture
        self.hosts, self.patterns = {}, {}
        for job in jobs:
            if job.kind == "find_blowup":
                self.hosts[job.id] = x.read_file(job.params["host"])
                self.patterns[job.id] = x.counting.materialize(
                    x.cli.parse_pattern_spec(job.params["spec"]))
        self.put_cache = x.RecordCache(put_dir) if put_dir else None

    def run(self, job):
        """Run one job; a job that raises is recorded in the outcome."""
        x, o = self.x, Outcome(job)
        self.captured.clear()
        o.start = perf_counter()
        try:
            if job.kind == "cli":
                try:
                    o.code, o.stdout, o.stderr = run_cli(x.cli.main, job.argv)
                except SystemExit as exc:  # argparse rejects its input
                    o.code = exc.code
            elif job.kind == "find_blowup":
                p = job.params
                o.value = x.pipeline.find_blowup(self.hosts[job.id], self.patterns[job.id],
                                                 p["a"], seed=p["seed"], retries=p["retries"])
            elif job.kind == "put":
                if self.last_record is None:
                    raise RuntimeError("no record to put")
                o.value = self.put_cache.put(self.last_record)
        except Exception as exc:  # a failed job is counted, the pass goes on
            o.raised = f"{type(exc).__name__}: {exc}"
        o.end = perf_counter()
        o.records = list(self.captured)
        self.last_record = o.records[-1] if o.records else None
        if job.files:
            o.files = snapshot_files(job.files)
        if job.kind == "find_blowup" and o.value is not None:
            o.value = [list(c) for c in o.value.classes]
        return o


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------


def sha(data) -> str:
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()


def classify(outcome: Outcome, reference: dict) -> tuple[str, str]:
    """("ok" | "error" | "wrong", detail).

    "error": the job raised or exited with another code than the reference;
    "wrong": it exited as expected but an output differs from the reference.
    Both count as failed jobs; only "wrong" makes a run incorrect.
    """
    job = outcome.job
    if outcome.raised is not None:
        return "error", outcome.raised
    ref = reference.get(job.ref or job.id)
    if ref is None:
        return "wrong", "no reference entry"
    if job.kind == "put":
        if outcome.value is not None and Path(outcome.value).is_file():
            return "ok", ""
        return "wrong", "put wrote no record file"
    if job.kind == "find_blowup":
        if outcome.value == ref["value"]:
            return "ok", ""
        return "wrong", f"found {outcome.value!r}, expected {ref['value']!r}"
    if outcome.code != ref["exit"]:
        detail = outcome.stderr.strip().splitlines()
        return "error", f"exit {outcome.code}, expected {ref['exit']}: " + (
            detail[-1] if detail else "")
    try:
        problem = _CHECKS[job.check](outcome, ref)
    except (KeyError, ValueError, IndexError, TypeError) as exc:
        problem = f"unreadable output: {exc!r}"
    return ("wrong", problem) if problem else ("ok", "")


def _check_pinned(o: Outcome, ref, nodes=True):
    if sha(o.stdout) != ref["stdout_sha256"]:
        return "stdout differs"
    for path, digest in ref.get("files", {}).items():
        data = o.files.get(path)
        if data is None or sha(data) != digest:
            return f"file {path} differs"
    if ref.get("cert_passed"):
        cert = json.loads(o.files[o.job.files[-1]])
        if not cert.get("passed"):
            return "certificate did not pass"
    if nodes and "nodes" in ref:
        got = [r.nodes for r in o.records]
        if got != [ref["nodes"]]:
            return f"nodes {got}, expected {ref['nodes']}"
    if "published" in ref:
        value = json.loads(o.stdout)["records"][0]["value"]
        if value != ref["published"]:
            return f"value {value}, published {ref['published']}"
    return None


def parse_hypergraph(text: str):
    rows = [ln.split() for ln in text.splitlines() if ln.strip() and not ln.startswith("#")]
    s, n, m = (int(x) for x in rows[0])
    edges = [tuple(int(v) for v in row) for row in rows[1:]]
    if len(edges) != m or any(len(e) != s for e in edges):
        raise ValueError("malformed hypergraph text")
    return s, n, edges


def _triangles(n, edges):
    adj = [set() for _ in range(n)]
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)
    return [(a, b, c) for a, b in edges for c in adj[a] & adj[b] if c > b]


def _diamond_free(n, edges):
    """No graph edge lies in two triangles (K3_2(1,1,2) is the diamond)."""
    seen = set()
    for a, b, c in _triangles(n, edges):
        for e in ((a, b), (a, c), (b, c)):
            if e in seen:
                return False
            seen.add(e)
    return True


def _c4_free(n, edges):
    adj = [set() for _ in range(n)]
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)
    return all(len(adj[u] & adj[v]) < 2 for u, v in combinations(range(n), 2))


def _pairs_in_one_edge(edges):
    """No two triples share a pair: 3-uniform K3_3(1,1,2)-freeness."""
    seen = set()
    for e in edges:
        for pair in combinations(e, 2):
            if pair in seen:
                return False
            seen.add(pair)
    return True


def _cliques(n, s, edges):
    es = set(edges)
    return sum(1 for e in edges for v in range(e[-1] + 1, n)
               if all(tuple(sorted(sub + (v,))) in es for sub in combinations(e, s - 1)))


def _check_deletion(o: Outcome, ref):
    if sha(o.stdout) != ref["stdout_sha256"]:
        return "stdout differs"
    p_ = o.job.params
    n, r, seed = p_["n"], p_["r"], p_["seed"]
    s = r - 1
    graph_path, cert_path = o.job.files
    gs, gn, edges = parse_hypergraph(o.files[graph_path].decode())
    cert = json.loads(o.files[cert_path])
    p = float(n) ** (-float(_deletion_gamma(p_["spec"])))
    params = cert["params"]
    if (gs, gn) != (s, n) or params["p"] != p or params["seed"] != seed or params["n"] != n:
        return "certificate parameters or graph shape differ"
    rng = random.Random(seed)
    colex = sorted(combinations(range(n), s), key=lambda t: t[::-1])
    sampled = {e for e in colex if rng.random() < p}
    claims = {c["name"]: c for c in cert["claims"]}
    stats = claims["statistics"]["detail"]
    if claims["forbidden-free"]["status"] != "pass" or not cert["passed"]:
        return "certificate does not pass"
    if stats["sampled_edges"] != len(sampled):
        return "sampled edge count differs from the seeded sample"
    if not set(edges) <= sampled:
        return "surviving edges are not a subset of the sample"
    if (stats["surviving_edges"] != len(edges)
            or len(sampled) - stats["deleted_edges"] != len(edges)):
        return "edge accounting differs"
    free = _c4_free(n, edges) if r == 3 else _pairs_in_one_edge(edges)
    if not free:
        return "output contains the forbidden blowup"
    if stats["surviving_cliques"] != _cliques(n, s, edges):
        return "surviving clique count differs"
    return None


def _check_heuristic(o: Outcome, ref):
    payload = json.loads(o.stdout)
    if (payload["command"], payload["t_key"], payload["f_key"]) != tuple(ref["keys"]):
        return "command or pattern keys differ"
    (rec,) = payload["records"]
    s, n, edges = parse_hypergraph(rec["witness"])
    if (rec["n"], rec["mode"], s, n) != (o.job.params["n"], "heuristic", 2, o.job.params["n"]):
        return "record shape differs"
    if not _diamond_free(n, edges):
        return "witness contains the forbidden pattern"
    if rec["value"] != len(_triangles(n, edges)):
        return "value is not the witness's triangle count"
    return None


_CHECKS = {
    "pinned": _check_pinned,
    "pinned-no-nodes": lambda o, ref: _check_pinned(o, ref, nodes=False),
    "deletion": _check_deletion,
    "heuristic": _check_heuristic,
}
