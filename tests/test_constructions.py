import json

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from exturan import constructions
from exturan.constructions import (
    APFreeSet,
    ConstructionError,
    apfree_set,
    build_lbap,
    deletion_construct,
    deletion_probability,
    lb4_base,
    lb4_construct,
    lbap_hypergraph,
    locally_linear_spec,
    verify_lbap_properties,
)
from exturan.counting import HostIndex, complete_subsets, first_embedding, is_blowup_free
from exturan.extremal import exact_ex
from exturan.hypergraph import (
    BlowupSpec,
    HypergraphError,
    PartitionMap,
    complete,
    complete_partite,
    make,
    shadow,
    single_edge,
)
from oracles import (
    apfree_max_by_masks,
    brute_subset_clash,
    brute_swap_violation,
    first_progression,
    restart_deletion,
)

from fractions import Fraction
from itertools import combinations, product
from math import comb, prod


@st.composite
def lbap_inputs(draw):
    """An r-uniform host (r = 3, 4) with r classes over its vertices: ordered
    or interleaved classes, now and then an empty one; transversal or
    arbitrary edges; and, on request, thinned to one edge per (r-1)-subset."""
    r = draw(st.sampled_from((3, 4)))
    sizes = draw(st.lists(st.integers(1, 3), min_size=r, max_size=r))
    if draw(st.integers(0, 9)) == 0:
        sizes[draw(st.integers(0, r - 1))] = 0
    n = max(sum(sizes), r)
    labels = list(range(n))
    if draw(st.booleans()):  # interleaved; otherwise each class is a run
        labels = draw(st.permutations(labels))
    cuts = [sum(sizes[:i]) for i in range(r)] + [n]
    classes = tuple(tuple(sorted(labels[cuts[i]:cuts[i + 1]])) for i in range(r))
    transversal = draw(st.booleans()) and all(classes)
    pot = sorted(tuple(sorted(x)) for x in product(*classes)) if transversal \
        else list(combinations(range(n), r))
    edges = draw(st.permutations(pot))[:draw(st.integers(0, len(pot)))]
    if draw(st.booleans()):
        seen, unique = set(), []
        for e in edges:
            subs = {e[:i] + e[i + 1:] for i in range(r)}
            if not subs & seen:
                seen |= subs
                unique.append(e)
        edges = unique
    return make(n, r, edges), classes


@st.composite
def swap_inputs(draw):
    """An r-partite r-uniform host (r = 3, 4) with classes of 0 to 4 vertices,
    as runs or interleaved, and transversal edges drawn at a random density;
    now and then a planted choice of one vertex per class whose every
    coordinate can be swapped."""
    r = draw(st.sampled_from((3, 4)))
    sizes = draw(st.lists(st.integers(0, 4), min_size=r, max_size=r))
    n = sum(sizes)
    labels = draw(st.permutations(range(n))) if draw(st.booleans()) else list(range(n))
    cuts = [sum(sizes[:i]) for i in range(r + 1)]
    classes = tuple(tuple(sorted(labels[cuts[i]:cuts[i + 1]])) for i in range(r))
    rnd = draw(st.randoms(use_true_random=False))
    density = draw(st.sampled_from((0.1, 0.3, 0.6, 0.9)))
    edges = {tuple(sorted(x)) for x in product(*classes) if rnd.random() < density}
    if min(sizes) >= 2 and draw(st.booleans()):
        x = [rnd.choice(c) for c in classes]
        for i, c in enumerate(classes):
            y = rnd.choice([v for v in c if v != x[i]])
            edges.add(tuple(sorted(x[:i] + [y] + x[i + 1:])))
    return make(n, r, sorted(edges)), classes


@st.composite
def large_swap_inputs(draw):
    """An r-partite r-uniform host (r = 5, 6) with classes of 9 to 11
    vertices, as runs or interleaved, so that the class product has 10^5 to
    10^6 choices (above 500,000 at r = 6); a few random transversal edges and
    a planted choice x whose every coordinate can be swapped."""
    r = draw(st.sampled_from((5, 6)))
    sizes = draw(st.lists(st.integers(9, 11), min_size=r, max_size=r)
                 .filter(lambda sizes: sum(sizes) <= 64))
    n = sum(sizes)
    labels = draw(st.permutations(range(n))) if draw(st.booleans()) else list(range(n))
    cuts = [sum(sizes[:i]) for i in range(r + 1)]
    classes = tuple(tuple(sorted(labels[cuts[i]:cuts[i + 1]])) for i in range(r))
    rnd = draw(st.randoms(use_true_random=False))
    edges = {tuple(sorted(rnd.choice(c) for c in classes))
             for _ in range(draw(st.integers(0, 40)))}
    x = [rnd.choice(c) for c in classes]
    for i, c in enumerate(classes):
        y = rnd.choice([v for v in c if v != x[i]])
        edges.add(tuple(sorted(x[:i] + [y] + x[i + 1:])))
    return make(n, r, sorted(edges)), classes, tuple(x)


class TestAPFreeSets:
    def test_exact_n4(self):
        s = apfree_set(4, 3)
        assert len(s) == 3 and s.exact

    def test_exact_n8(self):
        assert len(apfree_set(8, 3)) == 4

    def test_progression_longer_than_range(self):
        s = apfree_set(3, 4)
        assert s.elements == (1, 2, 3)

    def test_greedy_is_maximal(self):
        s = apfree_set(12, 3, "greedy")
        for x in range(1, 13):
            if x in s.elements:
                continue
            with pytest.raises(HypergraphError):
                APFreeSet(12, 3, tuple(sorted(s.elements + (x,))), exact=False)

    def test_behrend_validates(self):
        s = apfree_set(60, 3, "behrend")
        assert len(s) >= 6
        with pytest.raises(HypergraphError):
            apfree_set(10, 4, "behrend")

    def test_validation_catches_progressions(self):
        with pytest.raises(HypergraphError, match="progression"):
            APFreeSet(5, 3, (1, 2, 3), exact=False)

    def test_exact_guard(self):
        with pytest.raises(HypergraphError):
            apfree_set(99, 3)

    def test_check_does_not_scan_the_range(self):
        # the check reads pairs of elements, not every progression of 1..n
        assert len(APFreeSet(4000, 3, (), exact=False)) == 0
        assert len(APFreeSet(4000, 3, (1, 2, 4, 3998, 4000), exact=False)) == 5
        with pytest.raises(HypergraphError, match=r"\(3996, 3998, 4000\)"):
            APFreeSet(4000, 3, (1, 2, 4, 3996, 3998, 4000), exact=False)

    @settings(max_examples=300)
    @given(st.integers(1, 24).flatmap(lambda n: st.tuples(
        st.just(n), st.integers(3, 6), st.sets(st.integers(1, n)))))
    def test_check_matches_exhaustive_scan(self, case):
        n, r, elems = case
        want = first_progression(n, r, elems)
        if want is None:
            assert APFreeSet(n, r, tuple(sorted(elems)), exact=False).elements == tuple(sorted(elems))
        else:
            with pytest.raises(HypergraphError) as err:
                APFreeSet(n, r, tuple(sorted(elems)), exact=False)
            assert str(err.value) == f"elements contain the progression {want}"

    def test_exact_matches_mask_oracle(self):
        for r in (3, 4):
            for n in (6, 9, 13, 16, 20):
                assert len(apfree_set(n, r)) == apfree_max_by_masks(n, r)


class TestLbapHypergraph:
    def test_explicit_difference_set(self):
        ap = APFreeSet(2, 3, (1,), exact=False)
        h, parts = lbap_hypergraph(2, 3, ap)
        assert tuple(map(len, parts.classes)) == (2, 4, 6)
        assert h.n == 12 and h.m == 2
        # edges are (a, a+1, a+2) for a = 1, 2, placed per class
        assert h.edges == ((0, 3, 8), (1, 4, 9))

    def test_empty_difference_set(self):
        ap = APFreeSet(3, 3, (), exact=False)
        h, _ = lbap_hypergraph(3, 3, ap)
        assert h.m == 0

    def test_edge_count_is_n_times_s(self):
        ap = apfree_set(4, 3)
        h, _ = lbap_hypergraph(4, 3, ap)
        assert h.m == 4 * len(ap) == 12

    def test_wrong_parameters_rejected(self):
        ap = apfree_set(4, 3)
        with pytest.raises(HypergraphError):
            lbap_hypergraph(5, 3, ap)


class TestVerifyLbapProperties:
    def test_small_instance_passes(self):
        ap = APFreeSet(2, 3, (1,), exact=False)
        h, parts = lbap_hypergraph(2, 3, ap)
        cert = verify_lbap_properties(h, parts, 2, 3, ap)
        assert cert.passed
        assert {c.name: c.status for c in cert.claims} == {
            "one-edge-per-subset": "pass", "no-local-swap": "pass",
            "vertex-count": "pass", "edge-count": "pass"}

    def test_duplicated_pair_pinpointed(self):
        # two edges sharing two vertices violate the uniqueness property
        h = make(12, 3, [[0, 3, 8], [0, 3, 9]])
        parts = lbap_hypergraph(2, 3, APFreeSet(2, 3, (1,), exact=False))[1]
        cert = verify_lbap_properties(h, parts, 2, 3, APFreeSet(2, 3, (1,), exact=False))
        claim = {c.name: c for c in cert.claims}["one-edge-per-subset"]
        assert claim.status == "fail"
        assert claim.detail["subset"] == [0, 3]

    def test_non_unique_system_checked_exactly(self):
        h = make(12, 3, [[0, 3, 8], [0, 3, 9]])
        parts = lbap_hypergraph(2, 3, APFreeSet(2, 3, (1,), exact=False))[1]
        cert = verify_lbap_properties(h, parts, 2, 3, APFreeSet(2, 3, (1,), exact=False))
        claim = {c.name: c for c in cert.claims}["no-local-swap"]
        assert (claim.status, claim.detail) == ("pass", {"checked": 48, "exhaustive": True})

    @settings(max_examples=250)
    @given(lbap_inputs())
    def test_structural_claims_match_the_definitions(self, case):
        h, classes = case
        ap = APFreeSet(1, h.s, (), exact=False)
        cert = verify_lbap_properties(h, PartitionMap(classes), 1, h.s, ap)
        claims = {c.name: c for c in cert.claims}
        clash = brute_subset_clash(h)
        assert (claims["one-edge-per-subset"].status,
                claims["one-edge-per-subset"].detail) == ("fail" if clash else "pass",
                                                          clash or {})
        bad = brute_swap_violation(h, classes)
        want = ("fail", {"tuple": list(bad)}) if bad else \
            ("pass", {"checked": prod(map(len, classes)), "exhaustive": True})
        assert (claims["no-local-swap"].status, claims["no-local-swap"].detail) == want

    @settings(max_examples=300, deadline=None)
    @given(swap_inputs())
    def test_swap_walk_matches_the_full_scan(self, case):
        # the walk over swappable tails finds the full scan's first violation
        # and, on a pass, still reports the whole class product as checked
        h, classes = case
        cert = verify_lbap_properties(h, PartitionMap(classes), 1, h.s,
                                      APFreeSet(1, h.s, (), exact=False))
        claim = {c.name: c for c in cert.claims}["no-local-swap"]
        bad = brute_swap_violation(h, classes)
        want = ("fail", {"tuple": list(bad)}) if bad else \
            ("pass", {"checked": prod(map(len, classes)), "exhaustive": True})
        assert (claim.status, claim.detail) == want

    @settings(max_examples=100, deadline=None)
    @given(large_swap_inputs())
    def test_planted_violation_found_in_a_large_product(self, case):
        # too large a product for the full scan: the reported choice must be
        # a violation by the definition and come no later than the planted one
        h, classes, x = case
        cert = verify_lbap_properties(h, PartitionMap(classes), 1, h.s,
                                      APFreeSet(1, h.s, (), exact=False))
        claim = {c.name: c for c in cert.claims}["no-local-swap"]
        assert claim.status == "fail"
        bad = tuple(claim.detail["tuple"])
        es = h.edge_set
        assert all(any(tuple(sorted(bad[:i] + (y,) + bad[i + 1:])) in es
                       for y in c if y != bad[i])
                   for i, c in enumerate(classes))

        def position(t):
            return [c.index(v) for v, c in zip(t, classes)]

        assert position(bad) <= position(x)

    def test_empty_system(self):
        ap = APFreeSet(3, 3, (), exact=False)
        h, parts = lbap_hypergraph(3, 3, ap)
        cert = verify_lbap_properties(h, parts, 3, 3, ap)
        names = {c.name: c.status for c in cert.claims}
        assert names["one-edge-per-subset"] == "pass"
        assert names["no-local-swap"] == "pass"
        assert names["edge-count"] == "pass"  # 0 edges for an empty set

    def test_edge_count_mismatch_reported(self):
        ap = APFreeSet(2, 3, (1,), exact=False)
        h, parts = lbap_hypergraph(2, 3, ap)
        h_missing = make(h.n, 3, list(h.edges[:-1]))
        cert = verify_lbap_properties(h_missing, parts, 2, 3, ap)
        claim = {c.name: c for c in cert.claims}["edge-count"]
        assert claim.status == "fail" and claim.detail == {"have": 1, "want": 2}


class TestLbapShadow:
    def test_two_progressions(self):
        ap = APFreeSet(2, 3, (1,), exact=False)
        h, _ = lbap_hypergraph(2, 3, ap)
        g = shadow(h, h.s - 1)
        assert len(complete_subsets(g, 3)) == 2
        free, _ = is_blowup_free(g, locally_linear_spec(3))
        assert free

    def test_empty(self):
        h, _ = lbap_hypergraph(3, 3, APFreeSet(3, 3, (), exact=False))
        g = shadow(h, h.s - 1)
        assert g.m == 0

    def test_exact_n4_full_bundle(self):
        bundle = build_lbap(4, 3)
        assert bundle.system.m == 12
        assert len(complete_subsets(bundle.graph, 3)) == 12
        assert bundle.certificate.passed

    def test_oversized_layout_refused_before_the_search(self, monkeypatch):
        def refuse(n, r, mode):
            raise AssertionError("apfree_set called")
        monkeypatch.setattr(constructions, "apfree_set", refuse)
        with pytest.raises(HypergraphError,
                           match=r"^vertex count 240 outside supported range 0\.\.64$"):
            build_lbap(40, 3)


class TestLb4:
    def test_n6_r3_all_twos(self):
        base = exact_ex(4, single_edge(2), complete_partite(2, (2, 2))[0])
        h, cert = lb4_construct(6, 3, (2, 2, 2), base.witness)
        assert cert.passed
        detail = {c.name: c.detail for c in cert.claims}["clique-count"]
        assert detail["bound"] == 2 * 4 and detail["cliques"] >= 8

    def test_trivial_when_head_sizes_are_one(self):
        # base forbids a single edge, so the base witness is empty
        base = exact_ex(4, single_edge(2), complete_partite(2, (1, 1))[0])
        assert base.value == 0
        h, cert = lb4_construct(6, 3, (1, 1, 2), base.witness)
        assert cert.passed
        assert len(complete_subsets(h, 3)) == 0

    def test_star_free_base_matching(self):
        # forbidding the 2-leaf star leaves a matching: 3 edges on 6 vertices
        base = exact_ex(6, single_edge(2), complete_partite(2, (1, 2))[0])
        assert base.value == 3
        h, cert = lb4_construct(9, 3, (1, 2, 2), base.witness)
        assert cert.passed
        assert len(complete_subsets(h, 3)) >= 9

    def test_structure_claims(self):
        base = exact_ex(4, single_edge(2), complete_partite(2, (2, 2))[0])
        h, cert = lb4_construct(6, 3, (2, 2, 2), base.witness)
        na = 2
        assert all(sum(1 for v in e if v < na) <= 1 for e in h.edges)

    def test_nonfree_base_rejected(self):
        with pytest.raises(ConstructionError, match="freeness"):
            lb4_construct(6, 3, (2, 2, 2), complete(4, 2))

    def test_any_free_base_gives_its_bound(self):
        # a matching is C4-free but far from extremal; the bound scales with its edges
        matching = make(6, 2, [(0, 1), (2, 3), (4, 5)])
        h, cert = lb4_construct(9, 3, (2, 2, 2), matching)
        assert cert.passed
        detail = {c.name: c.detail for c in cert.claims}["clique-count"]
        assert detail["bound"] == 9 and cert.params["base_value"] == 3


class TestDeletion:
    SPEC = BlowupSpec(complete(3, 2), (1, 1, 2))

    def test_p_zero_empty(self):
        g, cert = deletion_construct(8, 3, self.SPEC, 0.0, seed=1)
        assert g.m == 0 and cert.passed

    def test_p_one_strips_to_locally_linear(self):
        g, cert = deletion_construct(10, 3, self.SPEC, 1.0, seed=0)
        free, _ = is_blowup_free(g, self.SPEC)
        assert free and cert.passed
        stats = {c.name: c.detail for c in cert.claims}["statistics"]
        assert stats["sampled_edges"] == comb(10, 2)

    def test_reproducible(self):
        a, _ = deletion_construct(9, 3, self.SPEC, 0.4, seed=5)
        b, _ = deletion_construct(9, 3, self.SPEC, 0.4, seed=5)
        assert a == b

    def test_c4_spec_balanced_probability(self):
        spec = BlowupSpec(single_edge(2), (2, 2))
        gamma, p = deletion_probability(12, spec)
        assert gamma == Fraction(2, 3)
        assert p == pytest.approx(12 ** (-2 / 3))

    def test_c4_sampling_statistics(self):
        # mean sampled edge count across seeds stays within 3 standard errors
        # of the binomial expectation; every output is C4-free
        spec = BlowupSpec(single_edge(2), (2, 2))
        n = 12
        _, p = deletion_probability(n, spec)
        runs = 50
        total = 0
        for seed in range(runs):
            g, cert = deletion_construct(n, 3, spec, p, seed=seed)
            stats = {c.name: c.detail for c in cert.claims}["statistics"]
            total += stats["sampled_edges"]
            free, _ = is_blowup_free(g, spec)
            assert free
        mean = total / runs
        mu = p * comb(n, 2)
        se = (comb(n, 2) * p * (1 - p) / runs) ** 0.5
        assert abs(mean - mu) <= 3 * se

    def test_bad_probability(self):
        with pytest.raises(HypergraphError):
            deletion_construct(8, 3, self.SPEC, 1.5, seed=0)

    # (r, blowup spec, largest n): the oracle rescans every injective map.
    DIFFERENTIAL = (
        (3, BlowupSpec(complete(2, 2), (2, 2)), 9),
        (3, BlowupSpec(complete(3, 2), (1, 1, 2)), 9),
        (3, BlowupSpec(complete(3, 2), (1, 1, 1)), 9),
        (3, BlowupSpec(complete(2, 2), (1, 3)), 9),
        (4, BlowupSpec(complete(3, 3), (1, 1, 2)), 8),
        (4, BlowupSpec(complete(4, 3), (1, 1, 1, 1)), 8),
        (4, BlowupSpec(complete(3, 3), (1, 2, 2)), 7),
    )

    @given(st.data())
    def test_resumed_walk_matches_restarts(self, data):
        r, spec, top = data.draw(st.sampled_from(self.DIFFERENTIAL))
        n = data.draw(st.integers(r, top))
        p = data.draw(st.sampled_from([0.3, 0.6, 0.75, 0.9]))
        seed = data.draw(st.integers(0, 10 ** 6))
        g, cert = deletion_construct(n, r, spec, p, seed)
        want, stats = restart_deletion(n, r, spec, p, seed)
        assert g.to_text() == want.to_text()
        detail = {c.name: c.detail for c in cert.claims}["statistics"]
        assert json.dumps(detail, sort_keys=True) == json.dumps(stats, sort_keys=True)

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("r, spec, n", [
        (3, BlowupSpec(complete(2, 2), (2, 2)), 40),
        (3, BlowupSpec(complete(2, 2), (2, 2)), 41),
        (3, BlowupSpec(complete(2, 2), (2, 2)), 42),
        (4, BlowupSpec(complete(3, 3), (1, 1, 2)), 20),
        (4, BlowupSpec(complete(3, 3), (1, 1, 2)), 21),
    ])
    def test_walk_matches_contains_restarts_at_benchmark_scale(self, r, spec, n, seed):
        # the restart loop builds a fresh index per call
        def first_copy(g, pattern):
            return first_embedding(HostIndex(g.n, g.edges), pattern)

        _, p = deletion_probability(n, spec)
        g, cert = deletion_construct(n, r, spec, p, seed)
        want, stats = restart_deletion(n, r, spec, p, seed, first_copy)
        assert g.to_text() == want.to_text()
        detail = {c.name: c.detail for c in cert.claims}["statistics"]
        assert json.dumps(detail, sort_keys=True) == json.dumps(stats, sort_keys=True)


def claim_detail(cert, name):
    return {c.name: c.detail for c in cert.claims}[name]


class TestBelowTheExactValue:
    # a certified construction on n vertices is free of K_r^(r-1)(a), so its
    # clique count is at most the exact ex(n, K_r^(r-1), K_r^(r-1)(a))

    @pytest.mark.parametrize("r, sizes, ns, counts, exact", [
        (3, (2, 2, 2), range(3, 9), [1, 4, 5, 9, 14, 16], [1, 4, 10, 13, 19, 25]),
        (3, (1, 2, 2), range(3, 9), [1, 1, 2, 4, 4, 6], [1, 4, 5, 8, 10, 16]),
        # the base avoids K3^(3)(1,1,1), a single edge, so it is edgeless
        (4, (1, 1, 1, 2), range(4, 7), [0, 0, 0], [1, 1, 3]),
    ])
    def test_lb4_over_the_exact_base(self, r, sizes, ns, counts, exact):
        clique = complete(r, r - 1)
        got, want = [], []
        for n in ns:
            nb, base_forbidden = lb4_base(n, r, sizes)
            base = exact_ex(nb, single_edge(r - 1), base_forbidden).witness
            _, cert = lb4_construct(n, r, sizes, base)
            got.append(claim_detail(cert, "clique-count")["cliques"])
            want.append(exact_ex(n, clique, BlowupSpec(clique, sizes)).value)
        assert all(g <= w for g, w in zip(got, want)), (got, want)
        assert (got, want) == (counts, exact)

    @pytest.mark.parametrize("sizes, reached", [((1, 1, 2), 3), ((1, 2, 2), 1), ((2, 2, 2), 1)])
    def test_deletion_over_seeds(self, sizes, reached):
        spec = BlowupSpec(complete(3, 2), sizes)
        hits = 0
        for n in range(4, 9):
            exact = exact_ex(n, complete(3, 2), spec).value
            p = max(deletion_probability(n, spec)[1], 0.5)
            for seed in range(5):
                _, cert = deletion_construct(n, 3, spec, p, seed)
                cliques = claim_detail(cert, "statistics")["surviving_cliques"]
                assert cliques <= exact, (n, seed, cliques, exact)
                hits += cliques == exact
        assert hits == reached  # the rows whose count is the exact value
