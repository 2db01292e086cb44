import json
from fractions import Fraction
from itertools import combinations
from math import comb

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
    complete_subsets,
    contains,
    count_copies,
    count_embeddings,
    count_embeddings_raw,
    edge_multiplicity,
    embeds_using_edge,
    exponents,
    first_embedding,
    index_of,
    is_blowup_free,
    through_edge_counter,
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
    brute_first_copy,
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

    def test_cliques_trusts_the_enumeration(self, monkeypatch):
        # cliques() does not re-check what complete_subsets enumerated; a
        # family built directly from the same members is still checked
        host = make(4, 2, [[0, 1]])
        monkeypatch.setattr(counting, "complete_subsets", lambda *args: [(0, 1, 2)])
        assert cliques(host, 3).members == ((0, 1, 2),)
        with pytest.raises(HypergraphError, match="span"):
            CliqueFamily(host, 3, ((0, 1, 2),))

    @given(hypergraphs(max_n=7, min_s=2, max_s=3, min_n=3))
    def test_matches_bruteforce(self, g):
        assert list(cliques(g, g.s + 1).members) == brute_cliques(g, g.s + 1)

    @given(hypergraphs(max_n=6, min_s=2, max_s=2, min_n=3))
    def test_count_equals_unlabelled_copies(self, g):
        r = 3
        pattern = complete_partite(r - 1, [1] * r)[0]
        assert len(cliques(g, r)) == count_copies(g, pattern)


class TestCompleteSubsets:
    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_matches_bruteforce(self, data):
        s = data.draw(st.integers(1, 3), label="s")
        g = data.draw(hypergraphs(max_n=8, min_s=s, max_s=s, min_n=s), label="host")
        r = data.draw(st.integers(s, s + 3), label="r")
        assert complete_subsets(g, r) == brute_cliques(g, r)

    def test_order_below_uniformity(self):
        with pytest.raises(HypergraphError, match="below uniformity"):
            complete_subsets(complete(4, 2), 1)


def lift(g, r=None):
    """The host lifted to uniformity r (default s+1): its complete r-sets."""
    r = g.s + 1 if r is None else r
    return make(g.n, r, complete_subsets(g, r))


class TestLift:
    """An r-set spans a clique in the one-step lift iff it does in the host."""

    def test_k4_lifts_to_complete_3_graph(self):
        assert lift(complete(4, 2)) == complete(4, 3)

    def test_triangle_free_lifts_empty(self):
        assert lift(cycle(5)).m == 0

    def test_iterated_to_target(self):
        assert lift(complete(5, 2), 4) == complete(5, 4)
        assert lift(lift(cycle(5))) == lift(cycle(5), 4)

    @given(hypergraphs(max_n=8, min_s=2, max_s=2, min_n=3), st.integers(3, 4))
    def test_clique_selection_preserved(self, g, r):
        assert brute_cliques(g, r) == brute_cliques(lift(g), r)


def co_neighborhood(g, vs):
    """The s-sets e avoiding ``vs`` with e + v a clique for every v in
    ``vs``, read from the (s+1)-cliques through each vertex of ``vs``."""
    through = [{tuple(u for u in c if u != v) for c in cliques(g, g.s + 1).members if v in c}
               for v in vs]
    return set.intersection(*through)


class TestCoNeighborhood:
    def test_complete_3_graph(self):
        g = complete(5, 3)
        assert co_neighborhood(g, [0]) == {e for e in g.edges if 0 not in e}

    def test_triangle_single_vertex(self):
        assert co_neighborhood(complete(3, 2), [0]) == {(1, 2)}

    def test_missing_edge_case_matches_bruteforce(self):
        g = make(5, 3, [e for e in complete(5, 3).edges if e != (1, 2, 3)])
        expected = {e for e in combinations(range(1, 5), 3)
                    if all(sub in g.edge_set for sub in combinations((0,) + e, 3))}
        assert co_neighborhood(g, [0]) == expected == {(1, 2, 4), (1, 3, 4), (2, 3, 4)}

    @given(hypergraphs(max_n=7, min_s=2, max_s=3, min_n=3))
    def test_monotone_in_vertex_set(self, g):
        small = co_neighborhood(g, [0])
        big = co_neighborhood(g, [0, 1])
        assert big <= {e for e in small if 1 not in e}

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_matches_definition(self, data):
        s = data.draw(st.integers(2, 3), label="s")
        g = data.draw(hypergraphs(max_n=7, min_s=s, max_s=s, min_n=s + 1), label="host")
        vs = data.draw(st.lists(st.integers(0, g.n - 1), min_size=1, max_size=3,
                                unique=True), label="vs")
        es = g.edge_set
        want = {e for e in g.edges if not set(vs) & set(e) and all(
            sub in es for v in vs for sub in combinations(sorted(e + (v,)), s))}
        assert co_neighborhood(g, vs) == want


class TestCommonLink:
    """The step clique growth takes: for s >= 2, the AND of the links of an
    edge's (s-1)-subsets holds exactly the vertices that complete it to a
    clique."""

    @staticmethod
    def common_link(index, e):
        mask = -1
        for sub in combinations(e, len(e) - 1):
            mask &= index.links[vertex_mask(sub)]
        return mask

    @settings(max_examples=200, deadline=None)
    @given(hypergraphs(max_n=8, min_s=2, max_s=3, min_n=2))
    def test_matches_definition(self, g):
        index, es = HostIndex(g.n, g.edges), g.edge_set
        for e in g.edges:
            want = vertex_mask(v for v in range(g.n) if v not in e and all(
                sub in es for sub in combinations(sorted(e + (v,)), g.s)))
            assert self.common_link(index, e) == want

    def test_edge_completed_by_its_triangles(self):
        # the links of 1 and 2 are {0, 2, 4} and {0, 1, 4}; the triangles
        # through the edge (1, 2) are the ones closed by 0 and by 4
        g = make(5, 2, [[0, 1], [0, 2], [0, 3], [1, 2], [1, 4], [2, 4], [3, 4]])
        assert self.common_link(HostIndex(g.n, g.edges), (1, 2)) == vertex_mask([0, 4])
        assert [c for c in cliques(g, 3).members if {1, 2} <= set(c)] == [(0, 1, 2), (1, 2, 4)]


def nonzero_links(host):
    links = host.links
    pairs = links.items() if isinstance(links, dict) else enumerate(links)
    return {m: link for m, link in pairs if link}


def index_state(host):
    return host.n, host.edges, host.deg, nonzero_links(host)


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
        # n up to 16 draws both link stores: a list up to 12 vertices, a dict above
        n = data.draw(st.integers(1, 16))
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
        assert index.deg == [sum(v in e for e in edges) for v in range(n)]
        want_links = {}
        for t in combinations(range(n), s - 1):
            want_links[vertex_mask(t)] = vertex_mask(
                v for v in range(n) if v not in t and tuple(sorted(t + (v,))) in edges)
        # a mask never set, or emptied by a removal, reads 0
        assert all(index.links[m] == link for m, link in want_links.items())
        assert nonzero_links(index) == {m: link for m, link in want_links.items() if link}


class TestKeptIndex:
    """A hypergraph keeps one index, which the searches that read it share."""

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_kept_index_is_a_fresh_build_and_stays_one(self, data):
        # n up to 16 draws both link stores: a list up to 12 vertices, a dict above
        s = data.draw(st.integers(1, 3), label="s")
        g = data.draw(hypergraphs(max_n=16, min_s=s, max_s=s, min_n=s), label="host")
        index = index_of(g)
        assert index_of(g) is index
        assert index_state(index) == index_state(HostIndex(g.n, g.edges))
        twin = make(g.n, g.s, g.edges)
        assert twin == g and twin is not g
        assert index_of(twin) is not index
        assert index_state(index_of(twin)) == index_state(index)

        pattern = data.draw(hypergraphs(max_n=min(g.n, 4), min_s=s, max_s=s, min_n=s),
                            label="pattern")
        domains = data.draw(st.lists(st.lists(st.integers(0, g.n - 1), unique=True),
                                     max_size=pattern.n), label="domains")
        r = data.draw(st.integers(s, s + 2), label="r")
        contains(g, pattern)
        count_copies(g, pattern)
        all_embeddings(g, pattern, domains)
        complete_subsets(g, r)
        assert index_of(g) is index
        assert index_state(index) == index_state(HostIndex(g.n, g.edges))


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
        # the path 20-21-0-1-...-19: step 20 completes no edge and reads the
        # second neighbourhood of step 0, placed in the chunk before
        seq = [20, 21, *range(20)]
        bent = make(22, 2, list(zip(seq, seq[1:])))
        flip = dict(zip(seq, reversed(seq)))
        assert all_embeddings(bent, bent) == [tuple(range(22)),
                                              tuple(flip[u] for u in range(22))]

    def test_pattern_larger_than_host_reads_no_link(self):
        """Every kernel answers a pattern with more vertices than the host
        before its first step: six edges of a matching in K10 would
        otherwise be tried in every way, 10! placements of its vertices."""
        class NoLinks:
            def __getitem__(self, key):
                raise AssertionError(f"link {key} read")

        host = complete(10, 2)
        index = HostIndex(host.n, host.edges)
        index.links = NoLinks()
        matching = make(12, 2, [(2 * i, 2 * i + 1) for i in range(6)])
        assert first_embedding(index, matching) is None
        assert first_embedding(index, matching, [[0], [1]]) is None
        assert count_embeddings_raw(index, matching) == 0
        assert _backtrack(index, _compile(matching).by_index, mode="all") == []
        assert embeds_using_edge(index, matching, (0, 1)) is None
        assert through_edge_counter(index, matching)([(0,), (1,)]) == 0

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
        # half the time up to two more vertices than the host, where the
        # kernel runs out of free vertices
        size = data.draw(st.sampled_from([min(4, host.n), host.n + 2]))
        pattern = data.draw(hypergraphs(max_n=size, min_s=host.s, max_s=host.s,
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


# graph patterns whose index or degree walk has a step that completes no
# edge: C4, K_{2,3}, the octahedron, and a path 0-2-1-3
LINKLESS = (complete_partite(2, (2, 2))[0], complete_partite(2, (2, 3))[0],
            complete_partite(2, (2, 2, 2))[0], make(4, 2, [(0, 2), (1, 2), (1, 3)]))


class TestLinklessSteps:
    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_second_neighbourhood_steps_match_bruteforce(self, data):
        pattern = data.draw(st.sampled_from(LINKLESS))
        n = data.draw(st.integers(pattern.n - 1, 8 if pattern.n == 6 else 9))
        rnd = data.draw(st.randoms(use_true_random=False))
        density = data.draw(st.sampled_from((0.2, 0.5, 0.8, 1.0)))
        host = make(n, 2, [e for e in combinations(range(n), 2) if rnd.random() < density])
        index = data.draw(updated_index(host))
        every = brute_embeddings(host, pattern)  # in lexicographic order
        assert first_embedding(index, pattern) == brute_first_copy(host, pattern)
        assert (contains(host, pattern) is not None) == brute_contains(host, pattern)
        assert count_embeddings_raw(index, pattern) == len(every)
        assert all_embeddings(host, pattern) == every
        domains = data.draw(st.lists(st.lists(st.integers(0, n - 1), unique=True),
                                     max_size=pattern.n))
        within = [phi for phi in every if all(phi[i] in dom for i, dom in enumerate(domains))]
        want = sorted(within, key=search_order(_compile(pattern).by_index, domains))
        assert first_embedding(index, pattern, domains) == (want[0] if want else None)
        assert all_embeddings(host, pattern, domains) == want


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
        # up to two more vertices, on edges of their own or on none, so that
        # some patterns have more vertices than the host
        t = len(keep) + data.draw(st.integers(0, 2))
        new = [e for e in combinations(range(t), host.s) if e[-1] >= len(keep)]
        more = data.draw(st.lists(st.sampled_from(new), unique=True, max_size=2)) if new else []
        pattern = make(t, host.s, [[label[v] for v in e] for e in chosen] + more)
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


class TestThroughEdgeCounter:
    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_matches_bruteforce_difference(self, data):
        s = data.draw(st.sampled_from([2, 3]))
        host = data.draw(hypergraphs(max_n=7, min_s=s, max_s=s, min_n=s)
                         .filter(lambda h: h.m > 0))
        patterns = st.sampled_from(THROUGH_PATTERNS[s])
        if host.n <= 5:  # or one with up to two more vertices than the host
            patterns |= hypergraphs(min_n=host.n + 1, max_n=host.n + 2, min_s=s, max_s=s)
        pattern = data.draw(patterns)
        edge = data.draw(st.sampled_from(host.edges))
        without = make(host.n, s, [e for e in host.edges if e != edge])
        want = brute_count_copies(host, pattern) - brute_count_copies(without, pattern)
        through = through_edge_counter(HostIndex(host.n, host.edges), pattern)
        assert through([(v,) for v in edge]) == want

    def test_pattern_larger_than_host_builds_nothing(self, monkeypatch):
        """|Stab| of K14 with an edge pinned is a search of 12! embeddings;
        on a host of fewer vertices the counter builds no table."""
        def refuse(pattern):
            raise AssertionError("edge-start table built")

        monkeypatch.setattr(counting, "_edge_starts", refuse)
        host = complete(5, 2)
        through = through_edge_counter(HostIndex(host.n, host.edges), complete(14, 2))
        assert through([(0,), (1,)]) == 0


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

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_shortcuts_and_full_count_match_bruteforce(self, data):
        s = data.draw(st.sampled_from([2, 3]), label="s")
        host = data.draw(hypergraphs(max_n=6, min_s=s, max_s=s, min_n=s), label="host")
        pattern = data.draw(st.sampled_from(
            [make(t, s, []) for t in range(5)] + [complete(t, s) for t in range(s, s + 3)]
            + THROUGH_PATTERNS[s]), label="pattern")
        assert count_copies(host, pattern) == brute_count_copies(host, pattern)

    def test_large_edgeless_pattern_is_a_binomial(self):
        # past the automorphism limit, which counting embeddings would need
        for n in (8, 9, 12):
            assert count_copies(complete(n, 2), make(9, 2, [])) == comb(n, 9)
        with pytest.raises(UniformityMismatch):
            count_copies(complete(9, 2), make(9, 3, []))

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
        payload = json.loads(json.dumps(emb.to_json_dict(), sort_keys=True))
        assert set(payload) == {"pattern", "host_sha256", "mapping"}
        assert len(payload["mapping"]) == 4


class TestEdgeMultiplicity:
    def test_k4_all_triangles(self):
        g = complete(4, 2)
        assert edge_multiplicity(g, cliques(g, 3)) == 2

    def test_edge_disjoint_family(self):
        g = make(6, 2, [[0, 1], [0, 2], [1, 2], [3, 4], [3, 5], [4, 5]])
        assert edge_multiplicity(g, cliques(g, 3)) == 1

    def test_k5_multiplicity_three(self):
        g = complete(5, 2)
        assert edge_multiplicity(g, cliques(g, 3)) == 3  # n-2 triangles per edge

    @given(hypergraphs(max_n=7, min_s=2, max_s=3, min_n=3))
    def test_maximum_matches_a_count_per_edge(self, g):
        fam = cliques(g, g.s + 1)
        per_edge = [sum(set(e) < set(t) for t in fam.members) for e in g.edges]
        assert edge_multiplicity(g, fam) == max(per_edge, default=0)


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
