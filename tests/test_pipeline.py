import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from exturan import pipeline
from exturan.counting import (
    CliqueFamily,
    HostIndex,
    all_embeddings,
    cliques,
    edge_multiplicity,
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
    auxiliary_hypergraph,
    conditional_partition,
    edge_disjoint_greedy,
    find_blowup,
    lift_shadow,
    shared_edge_groups,
    thin_cliques,
)
from oracles import brute_cliques, brute_embeddings, exhaustive_blowup_classes
from strategies import hypergraphs

TRI = complete(3, 2)


def random_host(seed, n=8, s=2, density=0.5):
    rng = random.Random(seed)
    return make(n, s, [e for e in combinations(range(n), s) if rng.random() < density])


def natural_blowup(base, sizes):
    g, parts = blowup(BlowupSpec(base, sizes))
    return g, parts


class TestLiftShadow:
    def test_k4_lifts_to_complete_3_graph(self):
        assert lift_shadow(complete(4, 2)) == complete(4, 3)

    def test_triangle_free_lifts_empty(self):
        g = make(5, 2, [[0, 1], [1, 2], [2, 3], [3, 4], [0, 4]])
        assert lift_shadow(g).m == 0

    def test_iterated_to_target(self):
        assert lift_shadow(complete(5, 2), 4) == complete(5, 4)

    @given(hypergraphs(max_n=8, min_s=2, max_s=2, min_n=3), st.integers(3, 4))
    def test_clique_selection_preserved(self, g, r):
        h = lift_shadow(g)
        assert brute_cliques(g, r) == brute_cliques(h, r)


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
            _, mx = edge_multiplicity(host, out)
            assert mx <= 1
            assert len(out) * r * (b - 1) >= len(fam)
            checked += 1
        assert checked == 200


class TestSharedEdges:
    def test_groups_sharing_two_edges_counted_once(self):
        g = complete(4, 3)
        fam = cliques(g, 4)
        assert shared_edge_groups(fam, 2).count == 0  # only one clique exists


class TestThinningPlan:
    def test_probability_iff_dense(self):
        rng = random.Random(0)
        for _ in range(1000):
            n_cliques = rng.randint(1, 10 ** 6)
            groups = rng.randint(1, 10 ** 6)
            a = rng.randint(2, 6)
            plan = ThinningPlan(n_cliques, groups, a)
            assert plan.probability_valid == (n_cliques <= 2 * groups)

    def test_balance_identity_exact(self):
        plan = ThinningPlan(7, 13, 3)
        lhs, rhs = plan.balance()
        assert lhs == rhs == Fraction(7, 2)

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
        _, mx = edge_multiplicity(fam.host, out)
        assert mx <= 1 and len(out) <= 1

    def test_multiplicity_postcondition_seeded_runs(self):
        for seed in range(200):
            rng = random.Random(seed)
            a = rng.choice([2, 3])
            host = random_host(seed + 997, n=rng.randint(5, 9),
                               density=rng.uniform(0.5, 0.95))
            fam = cliques(host, 3)
            out = thin_cliques(fam, a, seed=seed)
            _, mx = edge_multiplicity(host, out)
            assert mx < a

    def test_expected_size_statistics(self):
        # locally dense instance: mean output size over 100 seeds >= 0.4 p N
        host = complete(8, 2)
        fam = cliques(host, 3)
        groups = shared_edge_groups(fam, 2).count
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
    def test_triangle_blowup(self):
        g, parts = natural_blowup(TRI, (2, 2, 2))
        aux = auxiliary_hypergraph(g, TRI, parts)
        assert aux.s == 2 and aux.m == 12  # 3 class pairs, 4 crossing pairs each

    def test_empty_when_no_aligned(self):
        g = make(6, 2, [[0, 3]])
        parts = PartitionMap(((0, 1), (2, 3), (4, 5)))
        assert auxiliary_hypergraph(g, TRI, parts).m == 0

    def test_single_copy_gives_one_clique(self):
        g = make(3, 2, [[0, 1], [0, 2], [1, 2]])
        parts = PartitionMap(((0,), (1,), (2,)))
        aux = auxiliary_hypergraph(g, TRI, parts)
        assert aux.m == 3  # the three projections of the one aligned copy

    def test_every_aligned_copy_spans_clique(self):
        g, parts = natural_blowup(TRI, (2, 2, 2))
        aux = auxiliary_hypergraph(g, TRI, parts)
        for copy in aligned_copies(g, TRI, parts):
            for i in range(3):
                proj = tuple(sorted(copy[:i] + copy[i + 1:]))
                assert proj in aux.edge_set


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

    def test_trace_is_recorded(self):
        g, _ = natural_blowup(TRI, (2, 2, 2))
        trace = []
        emb = find_blowup(g, TRI, 1, seed=0, trace=trace)
        assert emb is not None
        assert trace and trace[-1]["found"]
        assert {"retry", "aligned", "threshold", "aux_edges", "found"} <= set(trace[-1])
