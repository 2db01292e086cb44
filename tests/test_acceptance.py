"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import random
import time
from fractions import Fraction
from itertools import combinations, combinations_with_replacement
from math import prod

from exturan.constructions import build_lbap, lb4_construct, locally_linear_spec
from exturan.counting import (
    CliqueFamily,
    cliques,
    complete_subsets,
    edge_multiplicity,
    exponents,
    is_blowup_free,
)
from exturan.extremal import chain_check, exact_ex
from exturan.hypergraph import (
    BlowupSpec,
    blowup,
    complete,
    complete_partite,
    make,
    single_edge,
)
from exturan.pipeline import ThinningPlan, edge_disjoint_greedy, find_blowup, thin_cliques
from cli_runner import run_cli
from oracles import diamond_free_max_triangles

TRI = complete(3, 2)
DIAMOND = BlowupSpec(complete(3, 2), (1, 1, 2))


def report(number, name, ok, detail=""):
    verdict = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance] criterion {number} {name}: {verdict}{suffix}")
    assert ok, f"criterion {number} {name}{suffix}"


def test_criterion_1_exact_search_oracle_equivalence():
    t0 = time.time()
    failures = []
    values = {}
    for n in range(4, 8):
        got = exact_ex(n, TRI, DIAMOND).value
        want = diamond_free_max_triangles(n)
        values[n] = (got, want)
        if got != want:
            failures.append((n, got, want))
    if values[4][0] != 1 or values[5][0] != 2:
        failures.append(("pinned", values[4][0], values[5][0]))
    elapsed = time.time() - t0
    report(1, "exact-search oracle equivalence",
           not failures and elapsed < 300,
           f"values={[v for v, _ in values.values()]}, {elapsed:.1f}s")


def test_criterion_2_shadow_chain_never_decreases():
    rng = random.Random(20240)
    corpus = [complete(4, 3), single_edge(3)]
    while len(corpus) < 22:
        edges = [e for e in combinations(range(5), 3) if rng.random() < 0.5]
        if edges:
            corpus.append(make(5, 3, edges))
    violations = 0
    checked = 0
    for f in corpus:
        for n in range(3, 7):
            vals = [rec.value for _, rec in chain_check(n, f)]
            checked += 1
            if vals != sorted(vals):
                violations += 1
    report(2, "shadow chains non-decreasing", violations == 0,
           f"{checked} chains, {violations} violations")


def test_criterion_3_progression_system_verified():
    t0 = time.time()
    failures = []
    for n in (4, 6, 8):
        bundle = build_lbap(n, 3)
        status = {c.name: c.status for c in bundle.certificate.claims}
        if not bundle.certificate.passed:
            failures.append((n, status))
        if status.get("no-local-swap") != "pass":  # exhaustive, not sampled
            failures.append((n, "sampled"))
        free, _ = is_blowup_free(bundle.graph, DIAMOND)
        if not free:
            failures.append((n, "not free"))
        count = len(complete_subsets(bundle.graph.n, 2, bundle.graph.edge_set, 3))
        if count != bundle.system.m:
            failures.append((n, "clique count", count, bundle.system.m))
    elapsed = time.time() - t0
    report(3, "progression-system construction", not failures and elapsed < 120,
           f"n in (4, 6, 8), {elapsed:.1f}s")


def test_criterion_4_apex_construction_verified():
    failures = []
    c4 = complete_partite(2, (2, 2))[0]
    k222 = BlowupSpec(complete(3, 2), (2, 2, 2))
    for n in (6, 9, 12):
        nb = n - n // 3
        base = exact_ex(nb, single_edge(2), c4)
        h, cert = lb4_construct(n, 3, (2, 2, 2), base.witness)
        free, _ = is_blowup_free(h, k222)
        count = len(complete_subsets(h.n, h.s, h.edge_set, 3))
        if not (cert.passed and free and count >= (n // 3) * base.value):
            failures.append((n, cert.passed, free, count, (n // 3) * base.value))
    report(4, "apex construction", not failures, "n in (6, 9, 12), a=(2,2,2)")


def _random_family(seed):
    rng = random.Random(seed)
    r = rng.choice([3, 4])
    b = rng.choice([2, 3])
    n = rng.randint(r + 1, 10)
    pot = list(combinations(range(n), r - 1))
    host = make(n, r - 1, [e for e in pot if rng.random() < rng.uniform(0.3, 0.9)])
    members, counts = [], {}
    for t in cliques(host, r).members:
        subs = [t[:i] + t[i + 1:] for i in range(r)]
        if all(counts.get(sub, 0) < b - 1 for sub in subs):
            members.append(t)
            for sub in subs:
                counts[sub] = counts.get(sub, 0) + 1
    return CliqueFamily(host, r, tuple(members)), r, b


def test_criterion_5_greedy_extraction_bound():
    failures = 0
    for seed in range(200):
        fam, r, b = _random_family(10_000 + seed)
        out = edge_disjoint_greedy(fam, b)
        _, mx = edge_multiplicity(fam.host, out)
        if mx > 1 or len(out) * r * (b - 1) < len(fam):
            failures += 1
    report(5, "greedy edge-disjoint extraction", failures == 0,
           "200 seeded families, r in (3,4), b in (2,3)")


def test_criterion_6_thinning_contract():
    failures = 0
    for seed in range(200):
        rng = random.Random(30_000 + seed)
        a = rng.choice([2, 3])
        n = rng.randint(5, 9)
        pot = list(combinations(range(n), 2))
        host = make(n, 2, [e for e in pot if rng.random() < rng.uniform(0.5, 0.95)])
        fam = cliques(host, 3)
        out = thin_cliques(fam, a, seed=seed)
        _, mx = edge_multiplicity(host, out)
        if mx >= a:
            failures += 1
    plan_failures = 0
    rng = random.Random(555)
    for _ in range(1000):
        n_cliques = rng.randint(1, 10 ** 6)
        groups = rng.randint(1, 10 ** 6)
        a = rng.randint(2, 6)
        plan = ThinningPlan(n_cliques, groups, a)
        if plan.probability_valid != (n_cliques <= 2 * groups):
            plan_failures += 1
    report(6, "thinning contract", failures == 0 and plan_failures == 0,
           "200 runs + 1000 plan triples")


def _locally_linear_host(n, seed):
    rng = random.Random(seed)
    triples = list(combinations(range(n), 3))
    rng.shuffle(triples)
    g = make(n, 2, [])
    spec = locally_linear_spec(3)
    for t in triples:
        cand = make(n, 2, list(g.edges) + [(t[0], t[1]), (t[0], t[2]), (t[1], t[2])])
        if is_blowup_free(cand, spec)[0]:
            g = cand
    return g


def test_criterion_7_blowup_finder():
    g1, _ = blowup(BlowupSpec(complete(3, 2), (3, 3, 3)))
    emb1 = find_blowup(g1, complete(3, 2), 2, seed=0, retries=200)
    g2, _ = blowup(BlowupSpec(complete(4, 3), (2, 2, 2, 2)))
    emb2 = find_blowup(g2, complete(4, 3), 2, seed=0, retries=200)
    ok = emb1 is not None and emb1.sizes == (2, 2, 2)
    ok = ok and emb2 is not None and emb2.sizes == (2, 2, 2, 2)
    spurious = 0
    for seed in range(20):
        host = _locally_linear_host(9, 40_000 + seed)
        if find_blowup(host, complete(3, 2), 2, seed=0, retries=200) is not None:
            spurious += 1
    report(7, "blowup finder", ok and spurious == 0,
           f"2 recoveries, {spurious} spurious finds on 20 linear hosts")


def test_criterion_8_exponent_tables():
    violations = 0
    checked = 0
    for r in range(3, 7):
        for sizes in combinations_with_replacement(range(1, 6), r):
            rep = exponents(r, sizes)
            checked += 1
            if rep.upper != Fraction(r) - Fraction(1, prod(sizes[:-1])):
                violations += 1
            labels = {lb.label: lb.exponent for lb in rep.lowers}
            if labels["general"] != Fraction(r) - Fraction(1, prod(sizes[:r - 2])):
                violations += 1
            a = sizes[-1]
            if sizes[0] == 1 and a >= 2 and all(x == a for x in sizes[1:]):
                if labels.get("one-then-equal") != Fraction(r) - Fraction(
                        r * (r - 1), a ** (r - 2)):
                    violations += 1
            if a >= 2 and all(x == a for x in sizes):
                if labels.get("all-equal") != Fraction(r) - Fraction(
                        (r - 1) * (a - 1), a ** (r - 1) - 1):
                    violations += 1
            if all(x == 2 for x in sizes):
                ceil_term = -((2 ** (r - 1) - 1) // -(r - 1))
                if labels.get("all-two") != Fraction(r) - Fraction(1, ceil_term):
                    violations += 1
            if any(lb.exponent > rep.upper for lb in rep.lowers):
                violations += 1
    report(8, "exponent arithmetic", violations == 0,
           f"{checked} size vectors, r <= 6, sizes <= 5")


def test_criterion_9_cli_determinism(tmp_path):
    failures = []

    def stable(args, runs=3, files=()):
        command = " ".join(["exturan", *args])
        seen = set()
        for _ in range(runs):
            for f in files:
                (tmp_path / f).unlink(missing_ok=True)
            proc = run_cli(*args, cwd=tmp_path)
            if proc.returncode != 0:
                failures.append(f"`{command}` exited {proc.returncode}, "
                                f"stderr: {proc.stderr.strip()!r}")
                return None
            missing = [f for f in files if not (tmp_path / f).is_file()]
            if missing:
                failures.append(f"`{command}` wrote no {', '.join(missing)}")
                return None
            seen.add((proc.stdout,) + tuple(
                (tmp_path / f).read_bytes() for f in files))
        if len(seen) != 1:
            failures.append(f"`{command}` differs across {runs} runs")
        return seen.pop()

    ex_args = ["ex", "--n", "4..6", "--T", "K3_2(1,1,1)", "--F", "K3_2(1,1,2)",
               "--format", "csv"]
    base = stable(ex_args)
    workers = stable(ex_args + ["--workers", "4"])
    if base is not None and workers is not None and base != workers:
        failures.append("`exturan ex` output differs between --workers 1 and 4")
    stable(["bounds", "--r", "3", "--a", "2,2,2", "--format", "json"])
    stable(["construct", "--kind", "lbap", "--n", "4", "--r", "3", "--verify",
            "--out-prefix", "lbap4"],
           files=("lbap4.h.txt", "lbap4.g.txt", "lbap4.cert.json"))
    stable(["construct", "--kind", "deletion", "--n", "10", "--r", "3",
            "--spec", "K3_2(1,1,2)", "--p", "0.4", "--seed", "0", "--verify",
            "--out-prefix", "del10"],
           files=("del10.txt", "del10.cert.json"))
    stable(["verify", "lbap4.g.txt", "--claim", "free:K3_2(1,1,2)"])
    report(9, "CLI determinism", not failures,
           "; ".join(failures) or "3 runs each, all exit 0; workers 1 vs 4")
