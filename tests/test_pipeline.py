import hashlib
import json
import random
import runpy
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

import exturan
from exturan import pipeline
from exturan.cli import parse_pattern_spec
from exturan.constructions import build_lbap
from exturan.counting import (
    CliqueFamily,
    HostIndex,
    all_embeddings,
    cliques,
    edge_multiplicity,
    materialize,
)
from exturan.hypergraph import (
    BlowupSpec,
    HypergraphError,
    PartitionMap,
    blowup,
    complete,
    make,
)
from exturan.pipeline import (
    BlowupEmbedding,
    _partite_blowup_classes,
    _threshold,
    ThinningPlan,
    aligned_copies,
    conditional_partition,
    edge_disjoint_greedy,
    find_blowup,
    shared_edge_groups,
    thin_cliques,
)
from oracles import brute_embeddings, exhaustive_blowup_classes
from strategies import hypergraphs

TRI = complete(3, 2)


def random_host(seed, n=8, s=2, density=0.5):
    rng = random.Random(seed)
    return make(n, s, [e for e in combinations(range(n), s) if rng.random() < density])


def natural_blowup(base, sizes):
    g, parts = blowup(BlowupSpec(base, sizes))
    return g, parts


class TestEdgeDisjointGreedy:
    def test_k4_all_triangles(self):
        fam = cliques(complete(4, 2), 3)
        out = edge_disjoint_greedy(fam, 3)
        assert len(out) == 1  # any two triangles of K4 share an edge
        assert len(out) * 3 * (3 - 1) >= len(fam)

    def test_edge_disjoint_family_unchanged(self):
        g = make(6, 2, [[0, 1], [0, 2], [1, 2], [3, 4], [3, 5], [4, 5]])
        fam = cliques(g, 3)
        out = edge_disjoint_greedy(fam, 2)
        assert out.members == fam.members

    def test_precondition_enforced(self):
        fam = cliques(complete(5, 2), 3)  # multiplicity 3
        with pytest.raises(HypergraphError):
            edge_disjoint_greedy(fam, 3)

    def test_bound_equal_to_the_family_size_is_checked(self):
        fam = cliques(make(4, 2, [[0, 1], [0, 2], [1, 2], [0, 3], [1, 3]]), 3)
        assert len(fam) == 2  # both triangles hold the edge 01
        with pytest.raises(HypergraphError, match="multiplicity 2"):
            edge_disjoint_greedy(fam, 2)

    def test_bound_above_the_family_size_skips_the_multiplicity_pass(self, monkeypatch):
        fam = cliques(complete(6, 2), 3)  # 20 triangles, multiplicity 4
        checked = edge_disjoint_greedy(fam, 5)

        def fail(*args):
            raise AssertionError("edge_multiplicity called")

        monkeypatch.setattr(pipeline, "edge_multiplicity", fail)
        for b in (len(fam) + 1, len(fam) + 2):
            assert edge_disjoint_greedy(fam, b).members == checked.members

    def test_random_instances_meet_bound(self):
        checked = 0
        for seed in range(200):
            rng = random.Random(seed)
            r = rng.choice([3, 4])
            n = rng.randint(r + 1, 10)
            b = rng.choice([2, 3])
            host = random_host(seed * 31 + 1, n=n, s=r - 1, density=rng.uniform(0.3, 0.9))
            members = list(cliques(host, r).members)
            # trim to satisfy the multiplicity precondition
            kept, counts = [], {}
            for t in members:
                subs = [t[:i] + t[i + 1:] for i in range(r)]
                if all(counts.get(sub, 0) < b - 1 for sub in subs):
                    kept.append(t)
                    for sub in subs:
                        counts[sub] = counts.get(sub, 0) + 1
            fam = CliqueFamily(host, r, tuple(kept))
            out = edge_disjoint_greedy(fam, b)
            mx = edge_multiplicity(host, out)
            assert mx <= 1
            assert len(out) * r * (b - 1) >= len(fam)
            checked += 1
        assert checked == 200


class TestSharedEdges:
    def test_groups_sharing_two_edges_counted_once(self):
        g = complete(4, 3)
        fam = cliques(g, 4)
        assert shared_edge_groups(fam, 2) == ()  # only one clique exists


class TestThinningPlan:
    def test_probability_iff_dense(self):
        rng = random.Random(0)
        for _ in range(1000):
            n_cliques = rng.randint(1, 10 ** 6)
            groups = rng.randint(1, 10 ** 6)
            a = rng.randint(2, 6)
            plan = ThinningPlan(n_cliques, groups, a)
            assert plan.probability_valid == (n_cliques <= 2 * groups)

    def test_a2_probability(self):
        plan = ThinningPlan(4, 6, 2)
        assert plan.retention_power == Fraction(1, 3)
        assert plan.retention_probability == pytest.approx(1 / 3)


class TestThinCliques:
    def test_edge_disjoint_family_unchanged(self):
        g = make(6, 2, [[0, 1], [0, 2], [1, 2], [3, 4], [3, 5], [4, 5]])
        fam = cliques(g, 3)
        assert thin_cliques(fam, 2, seed=0).members == fam.members

    def test_k4_down_to_single_triangle(self):
        fam = cliques(complete(4, 2), 3)
        out = thin_cliques(fam, 2, seed=0)
        mx = edge_multiplicity(fam.host, out)
        assert mx <= 1 and len(out) <= 1

    def test_multiplicity_postcondition_seeded_runs(self):
        for seed in range(200):
            rng = random.Random(seed)
            a = rng.choice([2, 3])
            host = random_host(seed + 997, n=rng.randint(5, 9),
                               density=rng.uniform(0.5, 0.95))
            fam = cliques(host, 3)
            out = thin_cliques(fam, a, seed=seed)
            mx = edge_multiplicity(host, out)
            assert mx < a

    def test_expected_size_statistics(self):
        # locally dense instance: mean output size over 100 seeds >= 0.4 p N
        host = complete(8, 2)
        fam = cliques(host, 3)
        groups = len(shared_edge_groups(fam, 2))
        plan = ThinningPlan(len(fam), groups, 2)
        p = plan.retention_probability
        sizes = [len(thin_cliques(fam, 2, seed=s)) for s in range(100)]
        assert sum(sizes) / len(sizes) >= 0.4 * p * len(fam)


class TestAligned:
    def test_natural_partition_of_blowup(self):
        g, parts = natural_blowup(TRI, (2, 2, 2))
        copies = aligned_copies(g, TRI, parts)
        assert len(copies) == 8

    def test_no_copies(self):
        g = make(6, 2, [[0, 3]])
        parts = PartitionMap(((0, 1), (2, 3), (4, 5)))
        assert aligned_copies(g, TRI, parts) == []

    def test_class_count_mismatch(self):
        g, _ = natural_blowup(TRI, (2, 2, 2))
        with pytest.raises(HypergraphError):
            aligned_copies(g, TRI, PartitionMap((tuple(range(6)),)))

    @given(st.data())
    def test_matches_filtered_bruteforce(self, data):
        s = data.draw(st.sampled_from([2, 3]))
        f = data.draw(hypergraphs(max_n=4, min_s=s, max_s=s, min_n=s))
        g = data.draw(hypergraphs(max_n=7, min_s=s, max_s=s, min_n=s))
        assign = data.draw(st.lists(st.integers(0, f.n - 1), min_size=g.n, max_size=g.n))
        part = PartitionMap.from_assignment(assign, f.n)
        want = [phi for phi in brute_embeddings(g, f)
                if all(v in part.classes[i] for i, v in enumerate(phi))]
        assert aligned_copies(g, f, part) == want

    def test_conditional_partition_guarantee(self):
        for seed in (None, 1, 2, 3):
            g = random_host(11, n=9, density=0.7)
            part = conditional_partition(g, TRI, seed)
            threshold = _threshold(len(all_embeddings(g, TRI)), 3)
            assert len(aligned_copies(g, TRI, part)) >= threshold


class TestAuxiliary:
    """The auxiliary hypergraph as ``find_blowup`` builds it: the index of
    the aligned copies' (l-1)-projections."""

    @staticmethod
    def aux(g, parts):
        return pipeline._aux_index(aligned_copies(g, TRI, parts), 3, g.n)

    def test_triangle_blowup(self):
        g, parts = natural_blowup(TRI, (2, 2, 2))
        aux = self.aux(g, parts)
        assert all(len(e) == 2 for e in aux.edges)
        assert len(aux.edges) == 12  # 3 class pairs, 4 crossing pairs each

    def test_empty_when_no_aligned(self):
        g = make(6, 2, [[0, 3]])
        parts = PartitionMap(((0, 1), (2, 3), (4, 5)))
        assert len(self.aux(g, parts).edges) == 0

    def test_single_copy_gives_one_clique(self):
        g = make(3, 2, [[0, 1], [0, 2], [1, 2]])
        parts = PartitionMap(((0,), (1,), (2,)))
        assert len(self.aux(g, parts).edges) == 3  # the one copy's three projections

    def test_every_aligned_copy_spans_clique(self):
        g, parts = natural_blowup(TRI, (2, 2, 2))
        aux = self.aux(g, parts)
        for copy in aligned_copies(g, TRI, parts):
            for i in range(3):
                proj = tuple(sorted(copy[:i] + copy[i + 1:]))
                assert proj in aux.edges


class TestClassSearch:
    @settings(max_examples=200)
    @given(st.data())
    def test_filtered_search_matches_exhaustive(self, data):
        ell = data.draw(st.sampled_from([3, 4, 5]))
        a = data.draw(st.sampled_from([1, 2, 3]))
        # classes of a - 1 to a + 2 vertices, and every crossing tuple inside
        # ``planted`` an edge, so that found and refused cases are both
        # common at every l and a
        sizes = data.draw(st.lists(st.integers(a - 1, a + 2), min_size=ell, max_size=ell))
        assign = data.draw(st.permutations([i for i, k in enumerate(sizes) for _ in range(k)]))
        n = len(assign)
        part = PartitionMap.from_assignment(assign, ell)
        class_of = part.class_of()
        crossing = [t for t in combinations(range(n), ell - 1)
                    if len({class_of[v] for v in t}) == ell - 1]
        density = data.draw(st.sampled_from([0.5, 0.8, 0.95, 1.0]))
        keep = data.draw(st.sampled_from([0.0, 0.6, 0.9]))
        rnd = data.draw(st.randoms(use_true_random=False))
        planted = {v for v in range(n) if rnd.random() < keep}
        aux = make(n, ell - 1, [t for t in crossing
                                if set(t) <= planted or rnd.random() < density])
        assert (_partite_blowup_classes(HostIndex(n, aux.edges), part, a)
                == exhaustive_blowup_classes(aux, part.classes, a))

    def test_found_and_refused_cases_agree(self):
        rnd = random.Random(7)
        outcomes = set()
        for _ in range(40):
            assign = [rnd.randrange(3) for _ in range(9)]
            part = PartitionMap.from_assignment(assign, 3)
            class_of = part.class_of()
            aux = make(9, 2, [t for t in combinations(range(9), 2)
                              if class_of[t[0]] != class_of[t[1]] and rnd.random() < 0.85])
            got = _partite_blowup_classes(HostIndex(9, aux.edges), part, 2)
            assert got == exhaustive_blowup_classes(aux, part.classes, 2)
            outcomes.add(got is None)
        assert outcomes == {True, False}

    def test_classes_too_large_for_the_host(self):
        # l * a = 66 vertices: past the host, and past the cap on a pattern
        # the class search could build
        assign = [v % 3 for v in range(64)]
        part = PartitionMap.from_assignment(assign, 3)
        aux = make(64, 2, [t for t in combinations(range(64), 2)
                           if assign[t[0]] != assign[t[1]]])
        assert _partite_blowup_classes(HostIndex(64, aux.edges), part, 22) is None
        assert exhaustive_blowup_classes(aux, part.classes, 22) is None


class TestFindBlowup:
    def test_recovers_triangle_blowup(self):
        g, _ = natural_blowup(TRI, (3, 3, 3))
        emb = find_blowup(g, TRI, 2, seed=0, retries=200)
        assert emb is not None and emb.sizes == (2, 2, 2)

    def test_recovers_3_uniform_blowup(self):
        g, _ = natural_blowup(complete(4, 3), (2, 2, 2, 2))
        emb = find_blowup(g, complete(4, 3), 2, seed=0, retries=200)
        assert emb is not None and emb.sizes == (2, 2, 2, 2)

    def test_none_on_free_host(self):
        g = make(6, 2, [[0, 1], [0, 2], [1, 2], [3, 4], [3, 5], [4, 5]])
        assert find_blowup(g, TRI, 2, seed=0, retries=50) is None

    def test_embedding_revalidates(self):
        g, _ = natural_blowup(TRI, (3, 3, 3))
        emb = find_blowup(g, TRI, 2, seed=0)
        BlowupEmbedding(emb.host, emb.pattern, emb.classes)  # must not raise

    def test_class_size_past_the_host_is_none(self):
        g, _ = natural_blowup(TRI, (3, 3, 3))
        trace = []
        assert find_blowup(g, TRI, 22, retries=3, trace=trace) is None
        assert trace == [{"retry": k, "aligned": 27, "threshold": 6, "aux_edges": 27,
                          "found": False} for k in range(3)]

    def test_trace_is_recorded(self):
        g, _ = natural_blowup(TRI, (2, 2, 2))
        trace = []
        emb = find_blowup(g, TRI, 1, seed=0, trace=trace)
        assert emb is not None
        assert trace and trace[-1]["found"]
        assert {"retry", "aligned", "threshold", "aux_edges", "found"} <= set(trace[-1])

    # sha256 prefixes of the found classes and the trace, for seeds 0-3, on
    # the four find_blowup hosts of the certify benchmark; taken when each
    # attempt still built its own occurrence table
    BENCHMARK_WALKS = {
        "planted-k3": ["84f1d1e1a127b854"] * 4,
        "planted-k4_3": ["2e7137fb7b524d6d"] * 4,
        "none-lbap6": ["7dcd89925129d665", "1a81ac9d4807f8be", "4bcfe7fb963578ee",
                       "09642636495e3c60"],
        "none-lbap10": ["d772362f2cb5b297", "30b78a826fbfac24", "bbbd2e41a083442d",
                        "6e57f357bedce290"],
    }

    def test_one_occurrence_table_per_call(self, monkeypatch):
        # every attempt partitions by the one table its call built, and each
        # partition is the one a caller passing no table gets
        jobs = runpy.run_path(str(Path(__file__).resolve().parents[1] / "perfbench" / "jobs.py"))
        hosts = jobs["blowup_hosts"](exturan)
        built, parts = [], []
        table, partition = pipeline._occurrences, pipeline.conditional_partition

        def build(embs, n):
            built.append(n)
            return table(embs, n)

        def spy(g, f, order_seed=None, occurrences=None):
            part = partition(g, f, order_seed, occurrences)
            mine = len(built)
            parts.append(part == partition(g, f, order_seed))
            assert len(built) == mine + 1  # a call passing no table builds its own
            del built[mine:]
            return part

        monkeypatch.setattr(pipeline, "_occurrences", build)
        monkeypatch.setattr(pipeline, "conditional_partition", spy)
        for name, spec, a, retries in jobs["BLOWUP_CASES"]:
            f = materialize(parse_pattern_spec(spec))
            digests = []
            for seed in range(4):
                built.clear()
                parts.clear()
                trace = []
                emb = find_blowup(hosts[name], f, a, seed=seed, retries=retries, trace=trace)
                assert len(built) == 1 and parts == [True] * len(trace), (name, seed)
                text = json.dumps([None if emb is None else emb.classes, trace], sort_keys=True)
                digests.append(hashlib.sha256(text.encode()).hexdigest()[:16])
            assert digests == self.BENCHMARK_WALKS[name], name

    def test_one_host_index_per_call(self, index_builds):
        # the enumeration and every attempt's aligned copies read the one
        # index the host keeps; a fresh host object has none yet
        lbap = build_lbap(6, 3, verify=False).graph
        g = make(lbap.n, lbap.s, lbap.edges)
        trace = []
        assert find_blowup(g, TRI, 2, seed=0, retries=20, trace=trace) is None
        assert len(trace) == 20
        assert sum(edges is g.edges for edges in index_builds) == 1
