import gc
import hashlib
import json
import os
import random
import re
import runpy
import time
from dataclasses import fields, replace
from itertools import combinations, count
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
import hypothesis.strategies as st

from exturan import canonical, constructions, extremal
from exturan.canonical import (
    MAX_CANONICAL_VERTICES,
    _kernel,
    canonical_key,
    canonical_positions,
    colex_subsets,
    is_canonical_raw,
)
from exturan.cli import main, parse_pattern_spec
from exturan.counting import HostIndex, count_copies, materialize
from exturan.extremal import (
    CacheIntegrityError,
    InfeasibleError,
    RecordCache,
    RecordError,
    _moved,
    chain_check,
    exact_ex,
    heuristic_lower,
)
from exturan.hypergraph import (
    BlowupSpec,
    HypergraphError,
    blowup,
    complete,
    complete_partite,
    make,
    single_edge,
)
from oracles import (
    adjacent_transposition_moves,
    brute_canonical_positions,
    brute_isomorphic,
    brute_twin_classes,
    canonical_form,
    first_fit_heuristic,
    naive_max_copies,
    own_positions,
)
from strategies import hypergraphs
from cli_runner import run_python

TRI = complete(3, 2)
DIAMOND = BlowupSpec(complete(3, 2), (1, 1, 2))
C4 = complete_partite(2, (2, 2))[0]
EDGE = single_edge(2)


def relabel(g, perm):
    return make(g.n, g.s, [tuple(perm[v] for v in e) for e in g.edges])


def own_bits(g):
    return sum(1 << p for p in own_positions(g))


def is_canonical(g):
    # the canonicity test of g, its bitstring rebuilt from the edges
    return is_canonical_raw(HostIndex(g.n, g.edges), g.s, own_bits(g)) is not None


def kernel_twins(g):
    # the twin classes the canonicity kernel of g lists before its search
    host = HostIndex(g.n, g.edges)
    twins = []
    _kernel(g.n, g.s)(host.links, host.deg, own_bits(g), twins, [])
    return twins


class TestCanonicalKey:
    @given(hypergraphs(max_n=7, min_s=1, max_s=3), st.randoms())
    def test_invariant_under_relabelling(self, g, rnd):
        perm = list(range(g.n))
        rnd.shuffle(perm)
        assert canonical_key(g) == canonical_key(relabel(g, perm))
        assert canonical_form(g) == canonical_form(relabel(g, perm))

    def test_zero_vertices(self):
        assert canonical_key(make(0, 2, [])) == "s2;n0;"

    @given(hypergraphs(max_n=6, min_s=2, max_s=2, min_n=2),
           hypergraphs(max_n=6, min_s=2, max_s=2, min_n=2))
    def test_separates_noniso_pairs(self, g1, g2):
        if (g1.n, g1.s) != (g2.n, g2.s):
            return
        assert (canonical_key(g1) == canonical_key(g2)) == brute_isomorphic(g1, g2)

    # the key is kept per hypergraph for the life of the process
    @given(hypergraphs(max_n=7, min_s=1, max_s=3), st.randoms())
    def test_kept_key_is_the_computed_key(self, g, rnd):
        canonical_key.cache_clear()
        perm = list(range(g.n))
        rnd.shuffle(perm)
        for h in (g, make(g.n, g.s, list(g.edges)), relabel(g, perm), g):
            assert canonical_key(h) == canonical_key.__wrapped__(h)

    def test_cached_ex_computes_each_pattern_key_once(self, monkeypatch, tmp_path, capsys):
        canonical_key.cache_clear()
        runs = []

        def spy(*args):
            runs.append(args)
            return canonical_positions(*args)

        monkeypatch.setattr(canonical, "canonical_positions", spy)
        argv = ["ex", "--n", "4..7", "--T", "K3_2(1,1,1)", "--F", "K3_2(2,2,2)",
                "--cache-dir", str(tmp_path)]
        assert main(argv) == 0  # writes the four records
        assert len(list(tmp_path.glob("*.rec"))) == 4
        assert main(argv) == 0  # reads them
        assert len(runs) == 2  # T and F, once each

    def test_kept_keys_are_bounded(self):
        assert canonical_key.cache_info().maxsize is not None


class TestCanonicalForm:
    # invariance and separation alone would also pass for a different
    # canonical form, which would change witnesses and cache keys
    @pytest.mark.parametrize("s", [1, 2, 3, 4])
    @given(data=st.data())
    def test_matches_bruteforce(self, s, data):
        g = data.draw(hypergraphs(max_n=6, min_s=s, max_s=s, min_n=s))
        want = brute_canonical_positions(g)
        assert canonical_positions(g.n, g.s, g.edge_set) == want
        assert is_canonical(g) == (own_positions(g) == want)

    # past the n <= 6 of the property test: levels 6 and 7 of the search
    @pytest.mark.parametrize("n, s, edges", [
        (7, 2, [(0, 4), (4, 1), (1, 5), (5, 2), (2, 6), (6, 3), (3, 0), (0, 1)]),
        (7, 2, [(0, 6), (1, 6), (2, 5), (3, 5), (2, 3), (4, 6), (0, 1), (1, 4)]),
        (7, 3, [(6, 0, 1), (6, 2, 3), (6, 4, 5), (0, 2, 4), (0, 3, 5), (1, 2, 5), (1, 3, 4)]),
        (8, 2, [(0, 5), (5, 3), (3, 6), (6, 0), (1, 7), (7, 2), (2, 4), (4, 1),
                (0, 1), (5, 7), (3, 2), (6, 4)]),
        (8, 3, [(0, 1, 7), (1, 2, 7), (2, 3, 6), (3, 4, 6), (0, 4, 5), (5, 6, 7), (1, 3, 5)]),
    ])
    def test_matches_bruteforce_at_seven_and_eight_vertices(self, n, s, edges):
        g = make(n, s, edges)
        want = brute_canonical_positions(g)
        assert canonical_positions(n, s, g.edge_set) == want
        assert is_canonical(g) == (own_positions(g) == want)
        assert is_canonical(canonical_form(g))

    @pytest.mark.parametrize("s", range(1, MAX_CANONICAL_VERTICES + 1))
    def test_kernel_at_the_vertex_cap(self, s):
        # the generated search nests one loop per vertex but the last, and
        # CPython compiles at most 20 nested blocks in one function; every
        # placed set reads its link into a local of its own, so each n up to
        # the cap builds a different function; on the empty and the complete
        # host every two vertices are twins; below n = s neither host has an
        # edge
        for n in range(MAX_CANONICAL_VERTICES + 1):
            for g in (make(n, s, []), complete(n, s)):
                assert kernel_twins(g) == ([(1 << n) - 1] if n > 1 else [])
                assert is_canonical(g)
        with pytest.raises(HypergraphError, match="at most"):
            canonical_positions(MAX_CANONICAL_VERTICES + 1, s, ())

    def test_kernels_of_different_sizes_compile_under_different_file_names(self):
        # profilers key functions by (file, line, name), and every kernel
        # defines its function at line 1 under one name
        names = {_kernel(n, s).__code__.co_filename for n in (7, 8) for s in (2, 3)}
        assert names == {"<exturan:_test n=7 s=2>", "<exturan:_test n=8 s=2>",
                         "<exturan:_test n=7 s=3>", "<exturan:_test n=8 s=3>"}


class TestTwinClasses:
    @pytest.mark.parametrize("n, s", [(0, 3), (1, 3), (2, 3), (3, 4), (2, 4)])
    def test_fewer_vertices_than_the_uniformity(self, n, s):
        # no (s-2)-set avoids two vertices, so the pair test has no link
        # term and equal degree decides
        g = make(n, s, [])
        assert kernel_twins(g) == ([(1 << n) - 1] if n > 1 else [])
        assert is_canonical(g)
        assert canonical_key(g) == f"s{s:d};n{n:d};"
        assert canonical_form(g) == g

    @settings(max_examples=300)
    @given(st.data())
    def test_match_bruteforce(self, data):
        g = data.draw(hypergraphs(max_n=7, min_s=1, max_s=4))
        # isolated vertices; an edgeless graph may have fewer than s of them
        g = make(data.draw(st.integers(g.n if g.edges else 0, 7)), g.s, g.edges)
        # the kernel lists the classes of two or more vertices by least vertex
        want = sorted((c for c in brute_twin_classes(g) if c & (c - 1)), key=lambda c: c & -c)
        assert kernel_twins(g) == want


def complement(g):
    return make(g.n, g.s, [e for e in combinations(range(g.n), g.s) if e not in g.edge_set])


def image_mask(perm, edge):
    return sum(1 << perm[v] for v in edge)


def image_edges(perm, g):
    return {tuple(sorted(perm[v] for v in e)) for e in g.edges}


class TestSymmetries:
    # the orderly search skips a child whose new edge a parent symmetry moves
    # to an earlier colex position, so every symmetry handed on must be one
    @given(hypergraphs(max_n=7, min_s=1, max_s=3))
    def test_symmetries_map_the_edge_set_onto_itself(self, g):
        found = is_canonical_raw(HostIndex(g.n, g.edges), g.s, own_bits(g))
        if found is None:
            return
        twins, leaves = found
        for t in twins:  # every transposition inside a class
            members = [v for v in range(g.n) if t >> v & 1]
            assert len(members) >= 2
            for u, v in combinations(members, 2):
                swap = list(range(g.n))
                swap[u], swap[v] = v, u
                assert image_edges(swap, g) == g.edge_set
        bits = [1 << v for v in range(g.n)]
        for leaf in leaves:  # the image bit of every vertex
            assert type(leaf) is tuple and sorted(leaf) == bits
            perm = [b.bit_length() - 1 for b in leaf]
            assert perm != list(range(g.n))
            assert image_edges(perm, g) == g.edge_set

    @given(hypergraphs(max_n=7, min_s=1, max_s=3))
    def test_the_identity_is_the_first_leaf_and_only_the_first(self, g):
        # is_canonical_raw drops the identity by its place in the kernel's
        # list, so the kernel must meet it first and never again
        g = canonical_form(g)
        host = HostIndex(g.n, g.edges)
        twins, leaves = [], []
        assert _kernel(g.n, g.s)(host.links, host.deg, own_bits(g), twins, leaves) is None
        identity = tuple(1 << v for v in range(g.n))
        assert leaves[:1] == ([identity] if g.n else [])
        assert identity not in leaves[1:]
        assert is_canonical_raw(host, g.s, own_bits(g)) == (twins, leaves[1:])

    @settings(max_examples=150)
    @given(hypergraphs(max_n=7, min_s=1, max_s=3))
    def test_moved_children_are_not_canonical(self, g):
        parent = canonical_form(g)
        found = is_canonical_raw(HostIndex(parent.n, parent.edges), parent.s, own_bits(parent))
        assert found is not None
        twins, leaves = found
        last = max(own_positions(parent), default=-1)
        for e in colex_subsets(parent.n, parent.s)[last + 1:]:
            if _moved(twins, leaves, image_mask(range(parent.n), e), e):
                assert not is_canonical(make(parent.n, parent.s, parent.edges + (e,)))

    @settings(max_examples=60, deadline=None)
    @given(hypergraphs(max_n=7, min_s=1, max_s=3))
    def test_mask_rule_skips_what_adjacent_transpositions_skip(self, g):
        # a twin class goes on as one mask; the rule it is tested by must
        # skip the candidates that its adjacent transpositions, each member
        # with the next, move lower, and only those
        parent = canonical_form(g)
        found = is_canonical_raw(HostIndex(parent.n, parent.edges), parent.s, own_bits(parent))
        assert found is not None
        twins, leaves = found
        last = max(own_positions(parent), default=-1)
        for e in colex_subsets(parent.n, parent.s)[last + 1:]:
            skipped = _moved(twins, leaves, image_mask(range(parent.n), e), e)
            assert skipped == adjacent_transposition_moves(parent.n, twins, leaves, e)
            if skipped:
                child = make(parent.n, parent.s, parent.edges + (e,))
                assert brute_canonical_positions(child) != own_positions(child)


class TestCarriedTarget:
    # the orderly search passes each child its parent's bitstring plus the
    # new edge's bit instead of letting the test rebuild it from the edges
    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_matches_the_rebuilt_target_along_orderly_paths(self, data):
        s = data.draw(st.integers(1, 4), label="s")
        n = data.draw(st.integers(s, min(8, s + 4)), label="n")
        rnd = data.draw(st.randoms(use_true_random=False), label="rnd")
        pot = colex_subsets(n, s)
        host, target, last = HostIndex(n), 0, -1
        while True:
            kids = []
            for p in range(last + 1, len(pot)):
                host.add(pot[p])
                carried = is_canonical_raw(host, s, target | 1 << p)
                assert carried == is_canonical_raw(host, s, own_bits(make(n, s, host.edges)))
                if carried is not None:
                    # each leaf the tuple of the image bit of every vertex
                    assert all(sorted(leaf) == [1 << v for v in range(n)]
                               for leaf in carried[1])
                    kids.append(p)
                host.remove(pot[p])
            if not kids:
                break
            last = rnd.choice(kids)
            host.add(pot[last])
            target |= 1 << last


class TestExactEx:
    def test_diamond_free_triangles_small(self):
        assert exact_ex(4, TRI, DIAMOND).value == 1
        assert exact_ex(5, TRI, DIAMOND).value == 2

    def test_forbidden_inside_pattern_gives_zero(self):
        rec = exact_ex(5, TRI, TRI)
        assert rec.value == 0

    def test_record_is_self_certifying(self):
        rec = exact_ex(5, TRI, DIAMOND)
        assert replace(rec) == rec  # rebuilt, it checks its witness again
        assert rec.witness.n == 5 and rec.mode == "exact"

    def test_value_is_label_independent(self):
        rec = exact_ex(5, TRI, DIAMOND)
        assert rec.witness == canonical_form(rec.witness)

    def test_feasibility_guard(self):
        with pytest.raises(InfeasibleError):
            exact_ex(10, EDGE, C4)
        with pytest.raises(InfeasibleError):
            exact_ex(12, EDGE, C4, allow_large=True)

    def test_edgeless_forbidden_within_n_refused(self):
        with pytest.raises(HypergraphError, match="no edges"):
            exact_ex(5, TRI, make(3, 2, []))
        with pytest.raises(HypergraphError, match="no edges"):
            exact_ex(3, EDGE, make(3, 2, []))

    def test_edgeless_forbidden_beyond_n_still_answers(self):
        assert exact_ex(2, EDGE, make(3, 2, [])).value == 1

    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_fewer_vertices_than_the_uniformity(self, n):
        # the root of the search is the edgeless graph on n < s vertices
        rec = exact_ex(n, single_edge(3), complete(4, 3))
        assert rec.value == 0 and rec.witness == make(n, 3, []) and rec.nodes == 1

    def test_workers_match_sequential(self):
        seq = exact_ex(6, TRI, DIAMOND, workers=1)
        par = exact_ex(6, TRI, DIAMOND, workers=4)
        assert (seq.value, seq.witness, seq.nodes) == (par.value, par.witness, par.nodes)

    # more workers than cores contend for the shared counter, over a few
    # hundred units at depth 6: a unit claimed twice or lost changes nodes
    def test_workers_contend_for_the_counter(self):
        seq = exact_ex(9, EDGE, C4)
        for _ in range(3):
            par = exact_ex(9, EDGE, C4, workers=5)
            assert (seq.value, seq.witness, seq.nodes) == (par.value, par.witness, par.nodes)

    # the workers claim the nodes at depth 6, and a tree that never reaches
    # that depth is searched by the parent alone; naive_max_copies
    # enumerates all 2^C(n, s) hosts (about 10 s at C(6, 2) = 15), so it
    # checks the value at n = 5 only
    @settings(max_examples=20)
    @given(data=st.data())
    def test_serial_pool_and_naive_agree(self, data):
        s = data.draw(st.sampled_from([2, 3]), label="s")
        n = data.draw(st.sampled_from([5, 6]), label="n")
        t = data.draw(hypergraphs(max_n=4, min_s=s, max_s=s, min_n=s), label="T")
        f = data.draw(hypergraphs(max_n=5, min_s=s, max_s=s, min_n=s)
                      .map(complement).filter(lambda h: h.m > 0), label="F")
        seq = exact_ex(n, t, f)
        par = exact_ex(n, t, f, workers=2)
        assert (seq.value, seq.witness, seq.nodes) == (par.value, par.witness, par.nodes)
        if n == 5:
            assert seq.value == naive_max_copies(n, t, f)

    # a child carries its parent's value plus the copies through its new
    # edge; each merged value is recounted in full, in the forked workers too
    # (they inherit the patched _merge by fork, and a failed check fails the
    # worker); every process appends one line per merge to one log
    @pytest.mark.parametrize("n, pattern, forbidden", [
        (6, TRI, blowup(DIAMOND)[0]), (7, complete_partite(2, (1, 2))[0], C4)])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_every_merged_value_is_a_full_recount(self, monkeypatch, tmp_path, n, pattern,
                                                  forbidden, workers):
        pot = colex_subsets(n, pattern.s)
        log = tmp_path / "merges"
        real = extremal._merge

        def merge(a, b):
            value, positions = b
            host = make(n, pattern.s, [pot[p] for p in positions])
            assert count_copies(host, pattern) == value, positions
            with open(log, "a", encoding="utf-8") as fh:
                fh.write(f"{value} {list(positions)}\n")
            return real(a, b)

        monkeypatch.setattr(extremal, "_merge", merge)
        record = exact_ex(n, pattern, forbidden, workers=workers)
        merged = log.read_text(encoding="utf-8").splitlines()
        # every node but the root once, in whichever process claimed it, and
        # each worker's result once more in the parent
        assert len(merged) == record.nodes - 1 + workers - 1

    def test_timeout_returns_heuristic_record(self):
        rec = exact_ex(8, EDGE, C4, timeout=0.0)
        assert rec.mode == "heuristic"
        assert replace(rec) == rec

    def test_workers_run_under_a_timeout(self, monkeypatch):
        calls = []
        real = extremal._parallel_search

        def spy(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(extremal, "_parallel_search", spy)
        seq = exact_ex(6, TRI, DIAMOND)
        par = exact_ex(6, TRI, DIAMOND, workers=2, timeout=600.0)
        cut = exact_ex(8, EDGE, C4, workers=2, timeout=0.0)
        assert len(calls) == 2
        assert par.mode == "exact" and cut.mode == "heuristic"
        assert (seq.value, seq.witness, seq.nodes) == (par.value, par.witness, par.nodes)
        assert replace(par) == par and replace(cut) == cut

    def test_counted_pattern_larger_than_n(self):
        # K14 has no copy on 5 vertices; its copy counter, built before the
        # deadline is read, must not search K14 for its automorphisms
        start = time.monotonic()
        assert exact_ex(5, complete(14, 2), C4).value == 0
        assert heuristic_lower(5, complete(14, 2), C4, budget=100).value == 0
        assert time.monotonic() - start < 5.0

    def test_search_leaves_no_reference_cycle(self):
        # the search state goes with the call, not to the cyclic collector
        exact_ex(7, TRI, DIAMOND)  # compile the kernels first
        enabled = gc.isenabled()
        gc.collect()
        gc.disable()
        try:
            exact_ex(7, TRI, DIAMOND)
            assert gc.collect() == 0
        finally:
            if enabled:
                gc.enable()

    # a fork that fails on call k, after k - 1 real children: its OSError
    # reaches the caller with every pipe closed and every child reaped
    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
    @pytest.mark.parametrize("workers, fails", [(2, 1), (3, 2)])
    def test_failed_fork_closes_its_pipe(self, monkeypatch, workers, fails):
        real, forked = os.fork, []

        def fork():
            if len(forked) + 1 == fails:
                raise BlockingIOError("no fork")
            forked.append(real())
            return forked[-1]

        ctx = extremal._Ctx(6, 2, EDGE, C4)
        before = len(os.listdir("/proc/self/fd"))
        monkeypatch.setattr(os, "fork", fork)
        with pytest.raises(BlockingIOError):
            extremal._parallel_search(ctx, workers, None)
        monkeypatch.undo()
        assert len(os.listdir("/proc/self/fd")) == before
        assert len(forked) == fails - 1
        for pid in forked:
            with pytest.raises(ChildProcessError):
                os.waitpid(pid, os.WNOHANG)

    def test_pool_worker_reports_its_timeout(self):
        claim = count().__next__
        ctx = extremal._Ctx(8, 2, EDGE, C4)
        val, pos, nodes, timed = extremal._explore(ctx, time.monotonic(), claim, top=True)
        assert timed and (val, pos, nodes) == (0, (), 1)

    # a deadline that passes at the k-th candidate, on a clock that ticks
    # once per read: exact_ex reads it once to set the deadline, and the
    # search once before each of the 2,296 candidates of the full walk,
    # whose last node is met at about the 2,250th
    def test_timeout_inside_the_walk(self, monkeypatch):
        forbidden = parse_pattern_spec("K3_2(2,2,2)")
        full = exact_ex(7, TRI, forbidden)
        records = []
        for k in (1, 2, 3, 10, 100, 500, 1000, 2000):
            ticks = count()
            monkeypatch.setattr(extremal.time, "monotonic", ticks.__next__)
            records.append(exact_ex(7, TRI, forbidden, timeout=k - 0.5))
        monkeypatch.undo()
        for rec in records:
            assert rec.mode == "heuristic"
            assert replace(rec) == rec
        nodes = [rec.nodes for rec in records]
        assert nodes[0] == 1 and nodes == sorted(nodes) and nodes[-1] < full.nodes
        assert [rec.value for rec in records] == sorted(rec.value for rec in records)

    # the search calls the canonicity test and the forbidden-copy test by
    # their names in extremal, which is where the benchmark tracer wraps
    # them; a search that called the kernels past those names would make
    # fewer wrapped calls than these
    @pytest.mark.parametrize("n, pattern, forbidden, canonical, forbidden_tests, nodes", [
        (7, "K3_2(1,1,1)", "K3_2(2,2,2)", (1236, 1000), (372, 11), 1000),
        (6, "K4_3(1,1,1,1)", "K4_3(1,1,1,2)", (2042, 1645), (1837, 10), 1645)])
    def test_search_layers_stay_visible(self, monkeypatch, n, pattern, forbidden, canonical,
                                        forbidden_tests, nodes):
        calls = {}

        def counted(name):
            real = getattr(extremal, name)

            def wrapper(*args):
                found = real(*args)
                tally = calls.setdefault(name, [0, 0])
                tally[0] += 1
                tally[1] += found is not None
                return found

            monkeypatch.setattr(extremal, name, wrapper)

        counted("is_canonical_raw")
        counted("embeds_using_edge")
        rec = exact_ex(n, parse_pattern_spec(pattern), parse_pattern_spec(forbidden))
        assert rec.nodes == nodes
        assert tuple(calls["is_canonical_raw"]) == canonical
        assert tuple(calls["embeds_using_edge"]) == forbidden_tests

    # a search split by claims, run here one share after another: the units
    # at depth 6 dealt round robin over k shares, or all claimed by one call;
    # only the top share counts the nodes above
    @pytest.mark.parametrize("n, pattern, forbidden", [
        (6, TRI, blowup(DIAMOND)[0]), (8, EDGE, C4)])
    @pytest.mark.parametrize("shares", [1, 2, 3, 4])
    def test_shards_partition_the_serial_search(self, n, pattern, forbidden, shares):
        val, pos, nodes, timed = extremal._explore(extremal._Ctx(n, 2, pattern, forbidden), None)
        parts = [extremal._explore(extremal._Ctx(n, 2, pattern, forbidden), None,
                                   count(w, shares).__next__, top=(w == 0))
                 for w in range(shares)]
        assert not timed and not any(part[3] for part in parts)
        assert sum(part[2] for part in parts) == nodes
        assert all(part[2] > 0 for part in parts)
        merged = parts[0][:2]
        for part in parts[1:]:
            merged = extremal._merge(merged, part[:2])
        assert merged == (val, pos)

    # a worker that raises, or exits without writing its result, fails the
    # search, and so does a parent that raises, whose worker, stalled here,
    # is killed rather than waited for; no child outlives the call
    @pytest.mark.parametrize("fault", ["worker raises", "worker exits", "parent raises"])
    def test_failed_search_raises_and_leaves_no_child(self, monkeypatch, fault):
        real = extremal._explore

        def explore(ctx, deadline, claim=None, top=True):
            if top and fault == "parent raises":
                raise ValueError("the parent failed")
            if not top and fault == "worker raises":
                raise ValueError("the worker failed")
            if not top and fault == "worker exits":
                os._exit(0)
            if not top:
                time.sleep(60)
            return real(ctx, deadline, claim, top)

        monkeypatch.setattr(extremal, "_explore", explore)
        error = ValueError if fault == "parent raises" else RuntimeError
        t0 = time.monotonic()
        with pytest.raises(error, match="failed"):
            exact_ex(8, EDGE, C4, workers=2)
        assert time.monotonic() - t0 < 30
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_monotone_in_n(self):
        values = [exact_ex(n, TRI, DIAMOND).value for n in range(3, 7)]
        assert values == sorted(values)

    def test_naive_oracle_equivalence_graphs(self):
        # every instance with few enough potential edges, straight comparison
        cases = [
            (4, TRI, blowup(DIAMOND)[0]),
            (5, TRI, blowup(DIAMOND)[0]),
            (5, EDGE, C4),
            (4, EDGE, complete(3, 2)),
            (5, complete(4, 2), complete(4, 2)),
        ]
        for n, t, f in cases:
            assert exact_ex(n, t, f).value == naive_max_copies(n, t, f)

    def test_naive_oracle_equivalence_3_uniform(self):
        cases = [
            (5, single_edge(3), complete(4, 3)),
            (4, complete(4, 3), complete(4, 3)),
            (5, complete(4, 3), blowup(BlowupSpec(complete(4, 3), (1, 1, 1, 2)))[0]),
        ]
        for n, t, f in cases:
            assert exact_ex(n, t, f).value == naive_max_copies(n, t, f)

    def test_random_instances_against_oracle(self):
        rng = random.Random(7)
        for _ in range(6):
            n = rng.randint(3, 5)
            s = 2
            pot = list(combinations(range(4), s))
            f_edges = rng.sample(pot, rng.randint(2, len(pot)))
            f = make(4, s, f_edges)
            t = complete(3, 2)
            assert exact_ex(n, t, f).value == naive_max_copies(n, t, f)


class TestSharedInstances:
    # the pattern caches of the embedding engine then hit by identity
    SPECS = [("K3_2(1,1,1)", "K3_2(2,2,2)", 6), ("K2_2(2,2)", "K3_2(1,1,1)", 6),
             ("K3_3(1,1,1)", "K4_3(1,1,1,1)", 5)]

    @pytest.mark.parametrize("t, f, n", SPECS)
    def test_equal_patterns_resolve_to_one_instance(self, t, f, n):
        first = extremal._instance(n, parse_pattern_spec(t), parse_pattern_spec(f))
        second = extremal._instance(n, materialize(parse_pattern_spec(t)),
                                    materialize(parse_pattern_spec(f)))
        assert first[0] is second[0] and first[1] is second[1]

    @pytest.mark.parametrize("t, f, n", SPECS)
    def test_fresh_equal_patterns_give_equal_records(self, t, f, n):
        first, second = (exact_ex(n, parse_pattern_spec(t), parse_pattern_spec(f))
                         for _ in range(2))
        assert first == second


class TestHeuristicLower:
    def test_two_triangles_on_six(self):
        for seed in (0, 1, 2):
            rec = heuristic_lower(6, TRI, DIAMOND, seed=seed, budget=2000)
            assert rec.value >= 2
            assert replace(rec) == rec

    def test_forbidding_the_pattern_itself(self):
        rec = heuristic_lower(7, TRI, TRI, seed=0, budget=500)
        assert rec.value == 0

    def test_edgeless_forbidden_within_n_refused(self):
        with pytest.raises(HypergraphError, match="no edges"):
            heuristic_lower(5, TRI, make(3, 2, []), budget=100)

    def test_edgeless_forbidden_beyond_n_still_answers(self):
        assert heuristic_lower(2, EDGE, make(3, 2, []), budget=100).value == 1

    def test_fewer_vertices_than_an_edge_returns(self):
        # no s-set to try: the empty host comes back at once; in a child
        # process so that a search that never returns fails instead of hanging
        code = ("from exturan.extremal import heuristic_lower\n"
                "from exturan.hypergraph import complete\n"
                "rec = heuristic_lower(0, complete(2, 2), complete(3, 2))\n"
                "print(rec.value, rec.nodes, rec.witness.m)\n")
        out = run_python("-c", code, timeout=60)
        assert out.returncode == 0, out.stderr
        assert out.stdout.split() == ["0", "0", "0"]

    def test_lists_no_colex_order(self, monkeypatch):
        # the local search draws edges from its own list; the colex list is
        # the exact search's, so building it here would be waste
        def spy(n, s):
            raise AssertionError(f"colex_subsets({n}, {s}) called by the local search")
        monkeypatch.setattr(extremal, "colex_subsets", spy)
        assert_replays(9, TRI, C4, seed=2, budget=300)
        assert_replays(7, complete(4, 3), complete(5, 3), seed=0, budget=200)

    def test_c4_free_ten_vertices(self):
        rec = heuristic_lower(10, EDGE, C4, seed=0, budget=4000)
        assert rec.value >= 15
        assert replace(rec) == rec

    def test_reproducible(self):
        a = heuristic_lower(8, EDGE, C4, seed=3, budget=1500)
        b = heuristic_lower(8, EDGE, C4, seed=3, budget=1500)
        assert a.witness == b.witness and a.value == b.value

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_walk_matches_replay_oracle(self, data):
        s = data.draw(st.integers(2, 3))
        forbidden = data.draw(hypergraphs(max_n=4, min_s=s, max_s=s, min_n=s)
                              .filter(lambda g: g.m > 0))
        pattern = data.draw(hypergraphs(max_n=4, min_s=s, max_s=s, min_n=s))
        n = data.draw(st.integers(5, 8) if s == 2 else st.integers(4, 6))
        seed = data.draw(st.integers(0, 10 ** 6))
        budget = data.draw(st.integers(1, 400))
        assert_replays(n, pattern, forbidden, seed, budget)

    def test_refused_edge_retested_only_once_its_copy_breaks(self, monkeypatch):
        # of an F-free walk's 4,000 tries, about half re-try an edge whose
        # refusing copy of F is still whole; those are refused untested
        calls = []
        test = extremal.embeds_using_edge

        def spy(host, forbidden, edge):
            calls.append(edge)
            return test(host, forbidden, edge)

        monkeypatch.setattr(extremal, "embeds_using_edge", spy)
        rec = heuristic_lower(12, TRI, DIAMOND, seed=0)
        assert rec.nodes == 4000
        assert len(calls) < 0.6 * rec.nodes

    # (T, F) pairs whose walks refuse many edges; the budgets run each walk
    # through several rounds, and only walks that restart are kept, so a
    # copy recorded before a restart is checked again on the empty host
    REFUSING = [
        (EDGE, C4, 2), (TRI, blowup(DIAMOND)[0], 2), (TRI, complete(4, 2), 2), (EDGE, TRI, 2),
        (complete(3, 3), complete(4, 3), 3),
        (complete(4, 3), blowup(BlowupSpec(complete(4, 3), (1, 1, 1, 2)))[0], 3),
    ]

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_walks_through_restarts_match_replay_oracle(self, data):
        pattern, forbidden, s = data.draw(st.sampled_from(self.REFUSING))
        n = data.draw(st.integers(5, 7) if s == 2 else st.integers(5, 6))
        seed = data.draw(st.integers(0, 10 ** 6))
        budget = data.draw(st.integers(60, 200))
        assume(assert_replays(n, pattern, forbidden, seed, budget) > 0)

    # walks whose best host comes after a perturbation, so the dropped edges
    # decide the witness
    @pytest.mark.parametrize("n, pattern, forbidden, seed", [
        (7, TRI, blowup(DIAMOND)[0], 0),
        (7, TRI, blowup(DIAMOND)[0], 4),
        (6, complete(3, 3), complete(4, 3), 5),
    ])
    def test_long_walk_matches_replay_oracle(self, n, pattern, forbidden, seed):
        assert_replays(n, pattern, forbidden, seed, 200)

    # walks in which an edge rejected for an F-copy is accepted on a later
    # try, once a perturbation has dropped an edge of that copy; a walk that
    # rejected it again on the remembered copy alone, without checking that
    # the copy is still whole, would change the witness
    @pytest.mark.parametrize("n, pattern, forbidden, seed", [
        (6, TRI, blowup(DIAMOND)[0], 1),
        (7, TRI, blowup(DIAMOND)[0], 11),
        (6, EDGE, C4, 20),
        (6, TRI, complete(4, 2), 7),
        (6, complete(3, 3), complete(4, 3), 17),
    ])
    def test_kept_copy_broken_by_perturbation(self, n, pattern, forbidden, seed):
        assert_replays(n, pattern, forbidden, seed, 40)

    # whole walks at the default budget, pinned so that any change to the
    # draws shows: value, steps and a sha256 prefix of the witness text; the
    # last five are the certify workload's `ex --heuristic` jobs
    @pytest.mark.parametrize("t, f, n, seed, value, steps, digest", [
        ('K3_2(1,1,1)', 'K3_2(1,1,2)', 9, 0, 4, 4000, '98cd455254b13a30'),
        ('K3_2(1,1,1)', 'K3_2(1,1,2)', 9, 1, 4, 4000, '0a055b21614a02df'),
        ('K3_2(1,1,1)', 'K3_2(1,1,2)', 9, 2, 6, 4000, '9e53223ec0706234'),
        ('K3_2(1,1,1)', 'K3_2(1,1,2)', 9, 3, 6, 4000, '236c29ecfd5e91b8'),
        ('K2_2(1,1)', 'K2_2(2,2)', 11, 0, 18, 4000, '1b30a53a1ca591eb'),
        ('K2_2(1,1)', 'K2_2(2,2)', 11, 1, 18, 4000, '084d157300e75ea0'),
        ('K2_2(1,1)', 'K2_2(2,2)', 11, 2, 18, 4000, 'a0594d5f8616dc37'),
        ('K2_2(1,1)', 'K2_2(2,2)', 11, 3, 18, 4000, 'f05b9c45fd7d9ebb'),
        ('K3_2(1,1,1)', 'K4_2(1,1,1,1)', 8, 0, 18, 4000, 'f28a581ab45e12c1'),
        ('K3_2(1,1,1)', 'K4_2(1,1,1,1)', 8, 1, 18, 4000, '2f7e1ec4249e4476'),
        ('K3_2(1,1,1)', 'K4_2(1,1,1,1)', 8, 2, 18, 4000, 'dc5cc7e73a4c2d77'),
        ('K3_2(1,1,1)', 'K4_2(1,1,1,1)', 8, 3, 18, 4000, '381b61895ffd73b7'),
        ('K3_2(1,1,1)', 'K3_2(2,2,2)', 8, 0, 25, 4000, '0050329d33ef4af5'),
        ('K3_2(1,1,1)', 'K3_2(2,2,2)', 8, 1, 25, 4000, '480d59256732ec0a'),
        ('K3_2(1,1,1)', 'K3_2(2,2,2)', 8, 2, 25, 4000, '4e6895534548bb03'),
        ('K3_2(1,1,1)', 'K3_2(2,2,2)', 8, 3, 25, 4000, 'ae24d06e1f148485'),
        ('K3_3(1,1,1)', 'K4_3(1,1,1,1)', 7, 0, 23, 4000, '701f793a23fd841e'),
        ('K3_3(1,1,1)', 'K4_3(1,1,1,1)', 7, 1, 23, 4000, 'fbddc7b90eb4b056'),
        ('K3_3(1,1,1)', 'K4_3(1,1,1,1)', 7, 2, 23, 4000, 'cdc1f32ff9ed714e'),
        ('K3_3(1,1,1)', 'K4_3(1,1,1,1)', 7, 3, 23, 4000, '0a3211097987334b'),
        ('K4_3(1,1,1,1)', 'K4_3(1,1,1,2)', 7, 0, 7, 4000, '6f5a5948f9232408'),
        ('K4_3(1,1,1,1)', 'K4_3(1,1,1,2)', 7, 1, 7, 4000, '6f5a5948f9232408'),
        ('K4_3(1,1,1,1)', 'K4_3(1,1,1,2)', 7, 2, 7, 4000, '7820847b0cde8a5a'),
        ('K4_3(1,1,1,1)', 'K4_3(1,1,1,2)', 7, 3, 7, 4000, '4842717299a3f3a2'),
        ('K3_2(1,1,1)', 'K3_2(1,1,2)', 10, 7, 6, 4000, 'a5803a66400165c5'),
        ('K3_2(1,1,1)', 'K3_2(1,1,2)', 11, 7, 7, 4000, '3c1e3be26e4673de'),
        ('K3_2(1,1,1)', 'K3_2(1,1,2)', 12, 7, 7, 4000, '9e2df6db4ca04a1d'),
        ('K3_2(1,1,1)', 'K3_2(1,1,2)', 13, 7, 10, 4000, '7055db60ef28ab2c'),
        ('K3_2(1,1,1)', 'K3_2(1,1,2)', 14, 7, 9, 4000, 'c55b5cd5e591b116'),
    ])
    def test_pinned_walks(self, t, f, n, seed, value, steps, digest):
        rec = heuristic_lower(n, parse_pattern_spec(t), parse_pattern_spec(f), seed=seed)
        text = rec.witness.to_text().encode()
        assert (rec.value, rec.nodes, hashlib.sha256(text).hexdigest()[:16]) == (
            value, steps, digest)


def assert_replays(n, pattern, forbidden, seed, budget):
    """The walk's value and witness are the replay oracle's; returns the
    number of restarts the walk made."""
    rec = heuristic_lower(n, pattern, forbidden, seed=seed, budget=budget)
    value, witness, restarts = first_fit_heuristic(n, pattern, forbidden, seed, budget)
    assert (rec.value, rec.witness) == (value, witness)
    return restarts


# the exact-cold benchmark pins the node count of each instance; a search
# change that visits other nodes fails here, not only in the benchmark
REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference.json"


def test_node_counts_match_the_benchmark_pins():
    jobs = json.loads(REFERENCE.read_text(encoding="utf-8"))["jobs"]
    checked = 0
    for job, pin in jobs.items():
        m = re.fullmatch(r"ex:([^/]+)/([^:]+):n=(\d+)", job)
        if m is None or int(m[3]) > 7:
            continue
        rec = exact_ex(int(m[3]), parse_pattern_spec(m[1]), parse_pattern_spec(m[2]))
        assert rec.nodes == pin["nodes"], job
        checked += 1
    assert checked >= 20


ROOT = Path(__file__).resolve().parents[1]
JOBS = ROOT / "perfbench" / "jobs.py"


def test_exact_cold_rows_obey_the_averaging_bound():
    # Katona, Nemetz & Simonovits: each copy of T, on t < n vertices, misses
    # n - t of the n vertex-deleted hosts, each F-free on n - 1 vertices, so
    # ex(n) <= floor(n * ex(n - 1) / (n - t)); the search never uses this
    def rows_and_tight(families):
        rows = tight = 0
        for pattern, forbidden, lo, hi in families:
            t = materialize(pattern).n
            below = None
            for n in range(max(lo - 1, t), hi + 1):
                value = exact_ex(n, pattern, forbidden).value
                if below is not None:  # here t < n and n - 1 is a computed value
                    bound = n * below // (n - t)
                    assert value <= bound, (pattern, forbidden, n, value, bound)
                    rows += 1
                    tight += value == bound
                below = value
        return rows, tight

    cold = [(parse_pattern_spec(t), parse_pattern_spec(f), lo, hi)
            for t, f, lo, hi in runpy.run_path(str(JOBS))["COLD_FAMILIES"]]
    # the default tables of the script: n = 4..8 for graphs, 4..6 for 3-uniform hosts
    script = runpy.run_path(str(ROOT / "scripts" / "ex_tables.py"))
    tables = ([(t, f, 4, 8) for _, t, f in script["GRAPH_CASES"]]
              + [(t, f, 4, 6) for _, t, f in script["TRIPLE_CASES"]])
    assert rows_and_tight(cold) == (27, 12)
    assert rows_and_tight(tables) == (24, 11)


def test_exact_ten_vertices_c4_free():
    # feasible with the raised guard; known value for the 10-vertex case
    rec = exact_ex(10, EDGE, C4, allow_large=True)
    assert rec.value == 16


def test_oversized_hosts_refused_before_listing_edges(monkeypatch):
    # C(n, s) potential edges grow as n^s; past the vertex cap the search and
    # the deletion sampler must refuse before listing any of them
    def spy(n, s):
        assert n <= 64, f"listed the {s}-subsets of {n} vertices"
        return colex_subsets(n, s)

    monkeypatch.setattr(extremal, "colex_subsets", spy)
    monkeypatch.setattr(constructions, "colex_subsets", spy)
    with pytest.raises(HypergraphError, match="vertex count 65 outside"):
        heuristic_lower(65, EDGE, C4)
    with pytest.raises(HypergraphError, match="vertex count 65 outside"):
        constructions.deletion_construct(65, 3, DIAMOND, 0.5, 0)


class TestChain:
    def test_k4_3_chain_n5(self):
        out = chain_check(5, complete(4, 3))
        assert [s for s, _ in out] == [2, 3]
        vals = [rec.value for _, rec in out]
        assert vals == sorted(vals)

    def test_single_edge_forbidden_all_zero(self):
        out = chain_check(5, single_edge(3))
        assert all(rec.value == 0 for _, rec in out)

    def test_k4_3_chain_n6(self):
        out = chain_check(6, complete(4, 3))
        vals = [rec.value for _, rec in out]
        assert vals == sorted(vals)


class TestCache:
    def test_round_trip(self, tmp_path):
        cache = RecordCache(tmp_path)
        rec = exact_ex(5, TRI, DIAMOND, cache=cache)
        again = cache.get(5, rec.pattern, rec.forbidden, "exact")
        assert again is not None
        assert (again.value, again.witness) == (rec.value, rec.witness)

    def test_served_from_cache(self, tmp_path):
        cache = RecordCache(tmp_path)
        exact_ex(5, TRI, DIAMOND, cache=cache)
        hit = exact_ex(5, TRI, DIAMOND, cache=cache)
        assert hit.value == 2

    def test_entry_with_a_timing_key_still_reads(self, tmp_path):
        # entries written before records dropped their timing hold "elapsed"
        cache = RecordCache(tmp_path)
        rec = exact_ex(5, TRI, DIAMOND, cache=cache)
        path = next(tmp_path.glob("*.rec"))
        head, _, body = path.read_text().partition("\n")
        header = json.loads(head)
        header["elapsed"] = 0.0077
        path.write_text(json.dumps(header, sort_keys=True) + "\n" + body)
        assert cache.get(5, rec.pattern, rec.forbidden, "exact") == rec

    def test_cache_hit_and_put_build_one_index_of_the_witness(self, tmp_path, index_builds):
        # the read builds the record, which checks its witness through the
        # one index the witness keeps; the put checks nothing
        cache = RecordCache(tmp_path)
        rec = exact_ex(6, TRI, DIAMOND, cache=cache)
        hit = exact_ex(6, TRI, DIAMOND, cache=cache)
        cache.put(hit)
        assert hit == rec and hit.witness is not rec.witness
        assert sum(edges is hit.witness.edges for edges in index_builds) == 1

    def test_missing_returns_none(self, tmp_path):
        cache = RecordCache(tmp_path)
        assert cache.get(5, TRI, blowup(DIAMOND)[0], "exact") is None

    def test_tampered_witness_rejected(self, tmp_path):
        cache = RecordCache(tmp_path)
        rec = exact_ex(5, TRI, DIAMOND, cache=cache)
        path = next(tmp_path.glob("*.rec"))
        head, _, body = path.read_text().partition("\n")
        tampered = complete(5, 2).to_text()  # contains the forbidden pattern
        path.write_text(head + "\n" + tampered)
        with pytest.raises(CacheIntegrityError):
            cache.get(5, rec.pattern, rec.forbidden, "exact")

    def test_value_collision_rejected(self, tmp_path):
        cache = RecordCache(tmp_path)
        rec = exact_ex(5, TRI, DIAMOND, cache=cache)
        forged = type(rec)(
            n=rec.n, s=rec.s, pattern=rec.pattern, forbidden=rec.forbidden,
            value=1, witness=make(5, 2, [[0, 1], [0, 2], [1, 2]]),
            mode="exact", nodes=1)
        with pytest.raises(CacheIntegrityError):
            cache.put(forged)

    def test_heuristic_records_keep_the_better(self, tmp_path):
        # heuristic keys carry neither seed nor budget, so runs collide
        cache = RecordCache(tmp_path)
        small = heuristic_lower(9, EDGE, C4, budget=3)
        cache.put(small)
        large = heuristic_lower(9, EDGE, C4, budget=10)
        cache.put(large)
        assert small.value < large.value
        cache.put(heuristic_lower(9, EDGE, C4, budget=3))
        held = cache.get(9, EDGE, C4, "heuristic")
        assert (held.value, held.witness) == (large.value, large.witness)

    def test_put_ignores_a_stale_temp_path(self, tmp_path):
        cache = RecordCache(tmp_path)
        key = RecordCache.key_of(5, TRI, blowup(DIAMOND)[0], "exact")
        stale = cache._path(key).with_suffix(".tmp")
        stale.mkdir()  # what a fixed temp name would collide with
        rec = exact_ex(5, TRI, DIAMOND, cache=cache)
        assert cache.get(5, rec.pattern, rec.forbidden, "exact").value == rec.value
        assert list(tmp_path.glob("*.tmp")) == [stale]

    def test_failed_put_removes_its_temp_file(self, tmp_path, monkeypatch):
        cache = RecordCache(tmp_path)
        rec = exact_ex(5, TRI, DIAMOND)

        def fail(src, dst):
            raise OSError("replace failed")

        monkeypatch.setattr("exturan.extremal.os.replace", fail)
        with pytest.raises(OSError, match="replace failed"):
            cache.put(rec)
        assert list(tmp_path.iterdir()) == []

    def test_missing_header_field_rejected(self, tmp_path):
        cache = RecordCache(tmp_path)
        rec = exact_ex(5, TRI, DIAMOND, cache=cache)
        path = next(tmp_path.glob("*.rec"))
        head, _, body = path.read_text().partition("\n")
        header = json.loads(head)
        del header["value"]
        path.write_text(json.dumps(header) + "\n" + body)
        with pytest.raises(CacheIntegrityError, match="value"):
            cache.get(5, rec.pattern, rec.forbidden, "exact")

    # a file that is not UTF-8 and a header that is not a JSON object
    @pytest.mark.parametrize("corrupt", [
        lambda head, body: b"\xff\xfe" + (head + "\n" + body).encode(),
        lambda head, body: (json.dumps([json.loads(head)]) + "\n" + body).encode(),
    ], ids=["not-utf8", "header-not-object"])
    def test_unreadable_entry_rejected_by_get_and_put(self, tmp_path, corrupt):
        cache = RecordCache(tmp_path)
        rec = exact_ex(5, TRI, DIAMOND, cache=cache)
        path = next(tmp_path.glob("*.rec"))
        head, _, body = path.read_text().partition("\n")
        path.write_bytes(corrupt(head, body))
        with pytest.raises(CacheIntegrityError, match="corrupt cache entry"):
            cache.get(5, rec.pattern, rec.forbidden, "exact")
        with pytest.raises(CacheIntegrityError, match="corrupt cache entry"):
            cache.put(rec)

    # one broken field each; on 4 vertices the triangle-counting,
    # diamond-free record is worth 1
    @pytest.mark.parametrize("field, broken, message", [
        ("mode", "guess", "unknown mode"),
        ("witness", make(5, 2, ()), "shape"),
        ("witness", make(3, 2, ()), "shape"),
        ("witness", make(4, 3, ()), "shape"),
        ("witness", complete(4, 2), "forbidden"),
        ("value", 2, "attain"),
        ("value", 0, "attain"),
    ], ids=["mode", "n+1", "n-1", "uniformity", "holds-F", "value+1", "value-1"])
    def test_verify_rejects_bad_records(self, field, broken, message):
        rec = exact_ex(4, TRI, DIAMOND)
        assert rec.value == 1
        built = {f.name: getattr(rec, f.name) for f in fields(rec)}
        with pytest.raises(RecordError, match=message):
            type(rec)(**{**built, field: broken})
        with pytest.raises(RecordError, match=message):
            replace(rec, **{field: broken})

    @pytest.fixture
    def checks(self, monkeypatch):
        """The witness of every record check, one entry per check."""
        seen = []
        real = extremal.is_blowup_free

        def spy(host, spec):
            seen.append(host)
            return real(host, spec)

        monkeypatch.setattr(extremal, "is_blowup_free", spy)
        return seen

    def test_cache_miss_checks_its_witness_once(self, tmp_path, checks):
        rec = exact_ex(6, TRI, DIAMOND, cache=RecordCache(tmp_path))
        assert len(checks) == 1 and checks[0] is rec.witness

    def test_cache_hit_and_put_check_the_witness_once(self, tmp_path, checks):
        cache = RecordCache(tmp_path)
        exact_ex(6, TRI, DIAMOND, cache=cache)
        checks.clear()
        hit = exact_ex(6, TRI, DIAMOND, cache=cache)
        cache.put(hit)
        assert len(checks) == 1 and checks[0] is hit.witness

    def test_heuristic_put_checks_only_the_held_record(self, tmp_path, checks):
        cache = RecordCache(tmp_path)
        large = heuristic_lower(9, EDGE, C4, budget=10)
        cache.put(large)
        small = heuristic_lower(9, EDGE, C4, budget=3)
        assert small.value < large.value
        checks.clear()
        cache.put(small)
        assert len(checks) == 1
        assert checks[0] == large.witness and checks[0] is not large.witness
