import pickle

import pytest
from hypothesis import given
import hypothesis.strategies as st

from exturan.hypergraph import (
    BlowupSpec,
    HypergraphError,
    PartitionMap,
    UniformHypergraph,
    blowup,
    complete,
    complete_partite,
    induced,
    make,
    shadow,
    single_edge,
)
from strategies import hypergraphs

from math import comb, prod


class TestMake:
    def test_triangle(self):
        g = make(3, 2, [[0, 1], [1, 2], [0, 2]])
        assert g.edges == ((0, 1), (0, 2), (1, 2))
        assert (g.n, g.s, g.m) == (3, 2, 3)

    def test_single_3_edge(self):
        g = make(3, 3, [[0, 1, 2]])
        assert g.edges == ((0, 1, 2),)

    def test_repeated_vertex_rejected(self):
        with pytest.raises(HypergraphError, match="repeated"):
            make(3, 2, [[0, 0]])

    def test_out_of_range_rejected(self):
        with pytest.raises(HypergraphError):
            make(3, 2, [[0, 3]])

    def test_wrong_size_rejected(self):
        with pytest.raises(HypergraphError):
            make(4, 2, [[0, 1, 2]])

    def test_dedup_and_sort(self):
        g = make(4, 2, [[2, 1], [1, 2], [3, 0]])
        assert g.edges == ((0, 3), (1, 2))

    def test_capacity_guard(self):
        with pytest.raises(HypergraphError, match="range"):
            make(65, 2, [])

    def test_equality_is_structural(self):
        assert make(3, 2, [[0, 1]]) == make(3, 2, [[1, 0]])
        assert make(3, 2, [[0, 1]]) != make(4, 2, [[0, 1]])

    @given(hypergraphs(max_n=7, max_s=3))
    def test_hash_is_structural(self, g):
        # the hash is computed once, at construction, from (n, s, edges)
        twins = [make(g.n, g.s, reversed(g.edges)), UniformHypergraph(g.n, g.s, tuple(g.edges)),
                 UniformHypergraph.from_text(g.to_text()), pickle.loads(pickle.dumps(g))]
        for h in twins:
            assert h is not g
            assert h == g and hash(h) == hash(g) == hash((g.n, g.s, g.edges))
        assert {g: 1}[twins[0]] == 1
        assert make(g.n + 1, g.s, g.edges) != g


class TestCompletePartite:
    def test_triangle(self):
        g, parts = complete_partite(2, [1, 1, 1])
        assert g == make(3, 2, [[0, 1], [0, 2], [1, 2]])
        assert tuple(map(len, parts.classes)) == (1, 1, 1)

    def test_k22(self):
        g, _ = complete_partite(2, [2, 2])
        assert g.m == 4
        assert all(len({v < 2 for v in e}) == 2 for e in g.edges)

    def test_3_uniform_counts(self):
        # K_4^(3)(1,1,1,2) on 5 vertices: crossing 3-sets per class triple
        g, _ = complete_partite(3, [1, 1, 1, 2])
        assert g.n == 5
        assert g.m == 2 + 2 + 2 + 1  # hand enumeration over the four class triples

    def test_class_count_below_uniformity(self):
        with pytest.raises(HypergraphError):
            complete_partite(3, [1, 1])

    @given(st.integers(2, 4), st.integers(1, 6))
    def test_all_ones_edge_count(self, s, extra):
        ell = s + extra - 1
        g, _ = complete_partite(s, [1] * ell)
        assert g.m == comb(ell, s)


class TestBlowup:
    def test_all_ones_is_base(self):
        tri = complete(3, 2)
        g, _ = blowup(BlowupSpec(tri, (1, 1, 1)))
        assert g == tri

    def test_single_edge_2_2(self):
        g, _ = blowup(BlowupSpec(single_edge(2), (2, 2)))
        assert g == complete_partite(2, [2, 2])[0]

    def test_single_3_edge_2_2_2(self):
        g, _ = blowup(BlowupSpec(single_edge(3), (2, 2, 2)))
        assert g.m == 8

    def test_bad_sizes(self):
        with pytest.raises(HypergraphError):
            BlowupSpec(single_edge(2), (2,))
        with pytest.raises(HypergraphError):
            BlowupSpec(single_edge(2), (2, 0))

    @given(hypergraphs(max_n=4, min_s=1, max_s=3),
           st.lists(st.integers(1, 3), min_size=4, max_size=4))
    def test_edge_count_formula(self, base, sizes):
        sizes = tuple(sizes[: base.n])
        if len(sizes) < base.n:
            sizes = sizes + (1,) * (base.n - len(sizes))
        g, _ = blowup(BlowupSpec(base, sizes))
        assert g.m == sum(prod(sizes[v] for v in e) for e in base.edges)


class TestShadow:
    def test_single_3_edge(self):
        g = shadow(make(3, 3, [[0, 1, 2]]), 2)
        assert g == complete(3, 2)

    def test_identity_at_own_uniformity(self):
        g = make(5, 3, [[0, 1, 2], [1, 2, 4]])
        assert shadow(g, 3) == g

    def test_k4_3_shadow_is_k4(self):
        # enumerating the 2-subsets of the four 3-edges gives all 6 pairs
        assert shadow(complete(4, 3), 2) == complete(4, 2)

    def test_range_errors(self):
        g = complete(4, 3)
        with pytest.raises(HypergraphError):
            shadow(g, 1)
        with pytest.raises(HypergraphError):
            shadow(g, 4)

    @given(hypergraphs(max_n=7, min_s=2, max_s=4, min_n=2))
    def test_composition(self, f):
        for t in range(2, f.s + 1):
            for s in range(2, t + 1):
                assert shadow(shadow(f, t), s) == shadow(f, s)


class TestInduced:
    def test_k4_to_k3(self):
        assert induced(complete(4, 2), [0, 1, 2]) == complete(3, 2)

    def test_identity(self):
        g = make(5, 2, [[0, 4], [2, 3]])
        assert induced(g, range(5)) == g

    def test_drops_broken_edges(self):
        g = make(5, 3, [[0, 1, 2]])
        out = induced(g, [0, 1, 3])
        assert out == make(3, 3, [])

    def test_relabels_by_sorted_order(self):
        g = make(5, 2, [[2, 4]])
        assert induced(g, [2, 4]) == make(2, 2, [[0, 1]])


class TestTextFormat:
    def test_header_and_lines(self):
        g = make(4, 2, [[0, 1], [2, 3]])
        assert g.to_text() == "2 4 2\n0 1\n2 3\n"

    def test_comments_ignored(self):
        text = "# generated\n2 3 1\n# the only edge\n0 2\n"
        assert UniformHypergraph.from_text(text) == make(3, 2, [[0, 2]])

    def test_bad_header(self):
        with pytest.raises(HypergraphError):
            UniformHypergraph.from_text("2 3\n")

    def test_edge_count_mismatch(self):
        with pytest.raises(HypergraphError):
            UniformHypergraph.from_text("2 3 2\n0 1\n")

    @given(hypergraphs())
    def test_round_trip(self, g):
        assert UniformHypergraph.from_text(g.to_text()) == g
        assert UniformHypergraph.from_text(g.to_text()).to_text() == g.to_text()


class TestPartitionMap:
    def test_overlap_rejected(self):
        with pytest.raises(HypergraphError):
            PartitionMap(((0, 1), (1, 2)))

    def test_gap_rejected(self):
        with pytest.raises(HypergraphError):
            PartitionMap(((0,), (2,)))

    def test_from_assignment(self):
        p = PartitionMap.from_assignment([1, 0, 1], 3)
        assert p.classes == ((1,), (0, 2), ())
        assert p.class_of() == {1: 0, 0: 1, 2: 1}


@given(hypergraphs(max_n=7, min_s=2, max_s=3, min_n=2))
def test_blowup_nesting(g):
    # the class-respecting inclusion embeds the smaller blowup in the larger
    if g.n == 0 or g.n > 4:
        return
    small = (1,) * g.n
    big = (2,) + (1,) * (g.n - 1)
    gs, _ = blowup(BlowupSpec(g, small))
    gb, parts = blowup(BlowupSpec(g, big))
    first = tuple(c[0] for c in parts.classes)
    mapped = {tuple(sorted(first[v] for v in e)) for e in gs.edges}
    assert mapped <= set(gb.edges)
