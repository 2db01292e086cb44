import json
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from exturan import counting
from exturan.counting import (
    CliqueFamily,
    _backtrack,
    _compile,
    _edge_starts,
    Embedding,
    HostIndex,
    UniformityMismatch,
    all_embeddings,
    automorphism_count,
    cliques,
    contains,
    copies_through_edge,
    count_copies,
    count_embeddings,
    edge_multiplicity,
    embeds_using_edge,
    exponents,
    first_embedding,
    is_blowup_free,
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
    brute_automorphisms,
    brute_cliques,
    brute_contains,
    brute_count_copies,
    brute_embeddings,
)
from strategies import hypergraphs


def cycle(n):
    return make(n, 2, [[i, (i + 1) % n] for i in range(n)])


DIAMOND = BlowupSpec(complete(3, 2), (1, 1, 2))


class TestCliques:
    def test_k4_triangles(self):
        fam = cliques(complete(4, 2), 3)
        assert len(fam) == 4
        assert fam.members == tuple(combinations(range(4), 3))

    def test_k4_3_single_clique(self):
        fam = cliques(complete(4, 3), 4)
        assert fam.members == ((0, 1, 2, 3),)

    def test_uniformity_mismatch(self):
        with pytest.raises(UniformityMismatch):
            cliques(complete(4, 2), 4)

    def test_family_validation(self):
        g = complete(4, 2)
        with pytest.raises(HypergraphError, match="span"):
            CliqueFamily(make(4, 2, [[0, 1]]), 3, ((0, 1, 2),))
        with pytest.raises(HypergraphError, match="duplicate"):
            CliqueFamily(g, 3, ((0, 1, 2), (0, 1, 2)))

    @given(hypergraphs(max_n=7, min_s=2, max_s=3, min_n=3))
    def test_matches_bruteforce(self, g):
        assert list(cliques(g, g.s + 1).members) == brute_cliques(g, g.s + 1)

    @given(hypergraphs(max_n=6, min_s=2, max_s=2, min_n=3))
    def test_count_equals_unlabelled_copies(self, g):
        r = 3
        pattern = complete_partite(r - 1, [1] * r)[0]
        assert len(cliques(g, r)) == count_copies(g, pattern)


def index_state(host):
    return host.n, host.edges, host.deg, host.links


def vertex_mask(vertices):
    return sum(1 << v for v in vertices)


@st.composite
def updated_index(draw, host):
    """An index of ``host`` reached by adding its edges and some others in a
    shuffled order, then removing the others."""
    pot = list(combinations(range(host.n), host.s))
    extra = draw(st.lists(st.sampled_from(pot), unique=True, max_size=12))
    extra = [e for e in extra if e not in host.edge_set]
    index = HostIndex(host.n)
    for e in draw(st.permutations(list(host.edges) + extra)):
        index.add(e)
    for e in draw(st.permutations(extra)):
        index.remove(e)
    return index


class TestHostIndex:
    @given(st.data())
    def test_updates_match_a_fresh_build(self, data):
        n = data.draw(st.integers(1, 12))
        s = data.draw(st.integers(1, min(3, n)))
        pot = list(combinations(range(n), s))
        index, edges = HostIndex(n), set()
        for e in data.draw(st.lists(st.sampled_from(pot), max_size=40)):
            if e in edges:
                index.remove(e)
                edges.discard(e)
            else:
                index.add(e)
                edges.add(e)
        assert index_state(index) == index_state(HostIndex(n, sorted(edges)))
        # the fields mean what they say
        assert index.edges == {e: vertex_mask(e) for e in edges}
        assert index.deg == make(n, s, edges).degrees()
        want_links = {}
        for t in combinations(range(n), s - 1):
            fill = vertex_mask(v for v in range(n)
                               if v not in t and tuple(sorted(t + (v,))) in edges)
            if fill:
                want_links[vertex_mask(t)] = fill
        assert index.links == want_links


def search_order(walk, domains):
    """The order in which the backtracker meets embeddings: step k by its
    position in ``domains[k]`` while there is one, else by host vertex."""
    order = walk[0]

    def key(phi):
        return tuple(domains[k].index(phi[u]) if k < len(domains) else phi[u]
                     for k, u in enumerate(order))
    return key


class TestBacktrack:
    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_modes_match_bruteforce(self, data):
        s = data.draw(st.integers(1, 3))
        pattern = data.draw(hypergraphs(max_n=6, min_s=s, max_s=s, min_n=s))
        # few enough injective maps for the brute force: at most 20,160
        host = data.draw(hypergraphs(max_n={5: 9, 6: 8}.get(pattern.n, 12), min_s=s, max_s=s,
                                     min_n=s))
        walk = data.draw(st.sampled_from([*_compile(pattern),
                                          *(w for w, _ in _edge_starts(pattern))]))
        # domains in any order, often not ascending, empty, or past the last step
        domains = data.draw(st.lists(st.lists(st.integers(0, host.n - 1), unique=True),
                                     max_size=pattern.n + 1))
        index = data.draw(updated_index(host))
        want = sorted((phi for phi in brute_embeddings(host, pattern)
                       if all(phi[u] in dom for u, dom in zip(walk[0], domains))),
                      key=search_order(walk, domains))
        assert _backtrack(index, walk, domains, mode="all") == want
        assert _backtrack(index, walk, domains, mode="first") == (want[0] if want else None)
        assert _backtrack(index, walk, domains, mode="count") == len(want)

    def test_domain_order_is_kept(self):
        walk = _compile(complete(3, 2)).by_index
        host = HostIndex(5, complete(5, 2).edges)
        assert _backtrack(host, walk, [[4, 2, 0]], mode="first") == (4, 0, 1)
        found = _backtrack(host, walk, [[4, 2, 0], [3, 1]], mode="all")
        assert [phi[:2] for phi in found[::3]] == [(4, 3), (4, 1), (2, 3), (2, 1), (0, 3),
                                                  (0, 1)]

    def test_walks_longer_than_one_generated_function(self):
        path = make(21, 2, [(i, i + 1) for i in range(20)])
        assert count_embeddings(path, path) == 2
        both = [tuple(range(20, -1, -1)), tuple(range(21))]
        assert all_embeddings(path, path, [[20, 0]]) == both
        assert contains(complete_partite(2, (7, 7, 8))[0], complete_partite(2, (7, 7, 7))[0])
        k777 = BlowupSpec(complete(3, 2), (7, 7, 7))
        assert is_blowup_free(complete_partite(2, (1, 10, 10))[0], k777) == (True, None)

    def test_only_embeds_using_edge_builds_edge_starts(self, monkeypatch):
        built = []
        real = counting._edge_starts
        monkeypatch.setattr(counting, "_edge_starts", lambda p: built.append(p) or real(p))
        _compile.cache_clear()
        automorphism_count.cache_clear()
        pattern = blowup(DIAMOND)[0]
        host = complete(5, 2)
        index = HostIndex(host.n, host.edges)
        contains(host, pattern)
        count_embeddings(host, pattern)
        all_embeddings(host, pattern)
        first_embedding(index, pattern)
        automorphism_count(pattern)
        assert built == []
        embeds_using_edge(index, pattern, (0, 1))
        assert built == [pattern]


class TestContains:
    def test_diamond_in_k4(self):
        emb = contains(complete(4, 2), blowup(DIAMOND)[0])
        assert emb is not None

    def test_no_triangle_in_c5(self):
        assert contains(cycle(5), complete(3, 2)) is None

    def test_lex_order_gives_smallest_mapping(self):
        host = complete(5, 2)
        assert first_embedding(HostIndex(host.n, host.edges), complete(3, 2)) == (0, 1, 2)

    def test_embedding_validates(self):
        with pytest.raises(HypergraphError):
            Embedding(complete(3, 2), cycle(5), (0, 1, 2))

    @given(hypergraphs(max_n=7, min_s=2, max_s=3, min_n=2), st.randoms())
    def test_agrees_with_bruteforce(self, host, rnd):
        k = rnd.randint(2, min(4, host.n))
        verts = sorted(rnd.sample(range(host.n), k))
        from exturan.hypergraph import induced
        pattern = induced(host, verts)
        assert (contains(host, pattern) is not None) == brute_contains(host, pattern)

    @given(st.data())
    def test_lex_first_within_domains(self, data):
        host = data.draw(hypergraphs(max_n=7, min_s=2, max_s=3, min_n=3))
        pattern = data.draw(hypergraphs(max_n=min(4, host.n), min_s=host.s, max_s=host.s,
                                        min_n=host.s))
        k = data.draw(st.integers(0, pattern.n))
        domains = [sorted(data.draw(st.sets(st.integers(0, host.n - 1))))
                   for _ in range(k)]
        want = next((phi for phi in brute_embeddings(host, pattern)
                     if all(phi[i] in dom for i, dom in enumerate(domains))), None)
        assert first_embedding(HostIndex(host.n, host.edges), pattern, domains) == want

    @given(hypergraphs(max_n=6, min_s=2, max_s=2, min_n=2))
    def test_random_small_patterns(self, host):
        for pattern in (complete(3, 2), cycle(4), make(3, 2, [[0, 1]])):
            assert (contains(host, pattern) is not None) == brute_contains(host, pattern)


class TestEmbedsUsingEdge:
    @settings(max_examples=400)
    @given(st.data())
    def test_matches_bruteforce(self, data):
        host = data.draw(hypergraphs(max_n=6, min_s=2, max_s=3, min_n=3))
        edge = data.draw(st.sampled_from(host.edges) if host.edges
                         else st.just(tuple(range(host.s))))
        # a shuffled sub-hypergraph of the host embeds at least once, so
        # both answers are common
        order = data.draw(st.permutations(range(host.n)))
        keep = order[:data.draw(st.integers(host.s, min(5, host.n)))]
        label = {v: i for i, v in enumerate(keep)}
        inside = [e for e in host.edges if all(v in label for v in e)]
        chosen = data.draw(st.lists(st.sampled_from(inside), unique=True)) if inside else []
        pattern = make(len(keep), host.s, [[label[v] for v in e] for e in chosen])
        using = [image for image in brute_embeddings(host, pattern)
                 if any(tuple(sorted(image[v] for v in f)) == edge for f in pattern.edges)]
        got = embeds_using_edge(HostIndex(host.n, host.edges), pattern, edge)
        assert (got is not None) == bool(using)
        if got is not None:
            # the returned mapping is an embedding whose image uses the edge
            assert got in using


# per uniformity: cliques, C4 or two edges on a shared pair, a path, an
# isolated vertex, a pattern with no automorphism but the identity, and
# fewer vertices than an edge
THROUGH_PATTERNS = {
    2: [complete(3, 2), complete(4, 2), complete_partite(2, (2, 2))[0],
        make(4, 2, [(0, 1), (1, 2), (2, 3)]), make(4, 2, [(0, 1), (0, 2), (1, 2)]),
        make(6, 2, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (1, 3)]), make(1, 2, [])],
    3: [complete(4, 3), single_edge(3), complete_partite(3, (1, 1, 2))[0],
        make(5, 3, [(0, 1, 2), (2, 3, 4)]), make(5, 3, [(0, 1, 2), (1, 2, 3)]),
        make(6, 3, [(0, 1, 2), (0, 1, 3), (1, 3, 4), (0, 4, 5)]), make(2, 3, [])],
}


class TestCopiesThroughEdge:
    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_matches_bruteforce_difference(self, data):
        s = data.draw(st.sampled_from([2, 3]))
        pattern = data.draw(st.sampled_from(THROUGH_PATTERNS[s]))
        host = data.draw(hypergraphs(max_n=7, min_s=s, max_s=s, min_n=s)
                         .filter(lambda h: h.m > 0))
        edge = data.draw(st.sampled_from(host.edges))
        without = make(host.n, s, [e for e in host.edges if e != edge])
        want = brute_count_copies(host, pattern) - brute_count_copies(without, pattern)
        assert copies_through_edge(HostIndex(host.n, host.edges), pattern, edge) == want


class TestCountCopies:
    def test_triangles_in_k4(self):
        assert count_copies(complete(4, 2), complete(3, 2)) == 4

    def test_triangles_in_k5(self):
        assert count_copies(complete(5, 2), complete(3, 2)) == 10

    def test_triangles_in_triangle_blowup(self):
        g, _ = blowup(BlowupSpec(complete(3, 2), (2, 2, 2)))
        assert count_copies(g, complete(3, 2)) == 8

    def test_pattern_size_guard(self):
        with pytest.raises(HypergraphError):
            automorphism_count(complete(9, 2))

    @given(hypergraphs(max_n=6, min_s=2, max_s=3, min_n=2))
    def test_matches_bruteforce(self, host):
        for pattern in (complete(host.s + 1, host.s), single_edge(host.s)):
            assert count_copies(host, pattern) == brute_count_copies(host, pattern)
        assert count_embeddings(host, complete(host.s + 1, host.s)) == len(
            list(all_embeddings(host, complete(host.s + 1, host.s))))

    def test_automorphisms(self):
        assert automorphism_count(complete(4, 2)) == 24
        assert automorphism_count(cycle(5)) == 10
        assert automorphism_count(blowup(DIAMOND)[0]) == brute_automorphisms(blowup(DIAMOND)[0])

    @given(hypergraphs(max_n=6))
    def test_automorphisms_match_bruteforce(self, pattern):
        assert automorphism_count(pattern) == brute_automorphisms(pattern)


class TestBlowupFree:
    def test_triangle_plus_isolated_is_free(self):
        g = make(4, 2, [[0, 1], [0, 2], [1, 2]])
        free, emb = is_blowup_free(g, DIAMOND)
        assert free and emb is None

    def test_k4_not_free_with_witness(self):
        free, emb = is_blowup_free(complete(4, 2), DIAMOND)
        assert not free
        assert emb is not None  # the embedding validated at construction

    def test_witness_serializes(self):
        _, emb = is_blowup_free(complete(4, 2), DIAMOND)
        payload = json.loads(emb.to_json())
        assert set(payload) == {"pattern", "host_sha256", "mapping"}
        assert len(payload["mapping"]) == 4


class TestEdgeMultiplicity:
    def test_k4_all_triangles(self):
        g = complete(4, 2)
        mult, mx = edge_multiplicity(g, cliques(g, 3))
        assert mx == 2 and all(v == 2 for v in mult.values())

    def test_edge_disjoint_family(self):
        g = make(6, 2, [[0, 1], [0, 2], [1, 2], [3, 4], [3, 5], [4, 5]])
        mult, mx = edge_multiplicity(g, cliques(g, 3))
        assert mx == 1

    def test_k5_multiplicity_three(self):
        g = complete(5, 2)
        mult, mx = edge_multiplicity(g, cliques(g, 3))
        assert mx == 3 and all(v == 3 for v in mult.values())  # n-2 triangles per edge

    @given(hypergraphs(max_n=7, min_s=2, max_s=3, min_n=3))
    def test_total_is_r_times_family(self, g):
        fam = cliques(g, g.s + 1)
        mult, _ = edge_multiplicity(g, fam)
        assert sum(mult.values()) == (g.s + 1) * len(fam)


class TestExponents:
    def test_one_one_two(self):
        rep = exponents(3, (1, 1, 2))
        assert rep.upper == Fraction(2)

    def test_all_two_r3(self):
        rep = exponents(3, (2, 2, 2))
        assert rep.upper == Fraction(11, 4)
        by_label = {lb.label: lb.exponent for lb in rep.lowers}
        assert by_label["all-two"] == Fraction(5, 2)

    def test_one_then_twos_r4(self):
        rep = exponents(4, (1, 2, 2, 2))
        assert rep.upper == Fraction(4) - Fraction(1, 4)
        by_label = {lb.label: lb.exponent for lb in rep.lowers}
        assert by_label["one-then-equal"] == Fraction(1)

    def test_validation(self):
        with pytest.raises(HypergraphError):
            exponents(3, (2, 1, 1))
        with pytest.raises(HypergraphError):
            exponents(2, (1, 1))

    def test_upper_dominates_all_lowers_in_range(self):
        for r in range(3, 7):
            for sizes in combinations_with_replacement_sorted(r, 5):
                rep = exponents(r, sizes)
                for lb in rep.lowers:
                    assert lb.exponent <= rep.upper


def combinations_with_replacement_sorted(r, amax):
    from itertools import combinations_with_replacement
    return combinations_with_replacement(range(1, amax + 1), r)
