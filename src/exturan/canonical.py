"""Canonical labelling via maximal edge-incidence bitstrings.

A hypergraph on n vertices is encoded as the 0/1 vector over all potential
s-subsets listed in colex order; the canonical form is the lexicographically
largest such vector over all vertex relabellings. Colex matters: the
subsets of {0..j} occupy a prefix of the positions, so a partial relabelling
pins down a bitstring prefix and the permutation search prunes hard.

The canonical form has the property that removing the edge with the largest
colex position preserves canonicity, which is what the orderly search in
:mod:`exturan.extremal` relies on.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from math import comb

from .counting import HostIndex
from .hypergraph import HypergraphError, UniformHypergraph, make

MAX_CANONICAL_VERTICES = 12  # permutation search envelope


@lru_cache(maxsize=None)
def colex_subsets(n: int, s: int) -> tuple[tuple[int, ...], ...]:
    return tuple(sorted(combinations(range(n), s), key=lambda t: tuple(reversed(t))))


@lru_cache(maxsize=None)
def colex_position(n: int, s: int) -> dict[tuple[int, ...], int]:
    return {e: i for i, e in enumerate(colex_subsets(n, s))}


def _twin_classes(host: HostIndex) -> list[int]:
    """Vertex masks of the classes of transposition-interchangeable vertices
    (swapping the two leaves the edge set invariant).

    Twins have equal degree, and then swapping u and v maps the edges that
    hold u but not v one-to-one onto the equally many that hold v but not u
    as soon as each of the former has its swapped image in the edge set:
    that image of an edge e is an edge iff v completes ``e ^ 1 << u``.
    Being twins is an equivalence: (u w) = (u v)(v w)(u v).
    """
    n, links = host.n, host.links
    inc = [[] for _ in range(n)]
    for e, mask in host.edges.items():
        for v in e:
            inc[v].append(mask ^ 1 << v)
    by_degree: dict[int, list[int]] = {}
    for v in range(n):
        by_degree.setdefault(host.deg[v], []).append(v)
    classes = []
    for group in by_degree.values():
        while group:
            u, *others = group
            cls, group = 1 << u, []
            for v in others:
                if all(links[rest] >> v & 1 for rest in inc[u] if not rest >> v & 1):
                    cls |= 1 << v
                else:
                    group.append(v)
            classes.append(cls)
    return classes


def _bits_of(n: int, s: int, edge_set) -> bytearray:
    pos = colex_position(n, s)
    bits = bytearray(comb(n, s))
    for e in edge_set:
        bits[pos[e]] = 1
    return bits


def _improve_once(host: HostIndex, s, automorphisms=None):
    """Search for a relabelling whose bitstring exceeds the graph's own.

    Returns such a relabelling as a list giving the old vertex of each new
    one, or None if the graph is its own canonical form.

    New vertex j holds old vertex ``perm[j]``. ``subs[k]`` lists, in colex
    order, the old-vertex masks of the images of the k-subsets of the
    positions placed so far; placing a vertex appends to each list, because
    the k-subsets of 0..j are those of 0..j-1 followed by the (k-1)-subsets
    of 0..j-1 extended by j. The bits of level j (the colex positions of the
    s-sets whose largest element is j) then ask, for each mask m in
    ``subs[s - 1]``, whether the candidate completes m to an edge, and the
    index's ``links[m]`` answers that for all candidates at once. Scanning a
    level narrows the candidate mask to those still equal to the graph's
    own bitstring (the target); one with a 1 where the target has a 0 is an
    improvement, and any completion of it improves the target. Equal
    branches are explored (they may diverge later); transposition twins are
    tried once per class, which is sound because the twin swap extends any
    partial assignment to an equal-valued one.

    A relabelling tied with the target at every level maps the edge set onto
    itself, so each such leaf, the identity among them, is an automorphism.
    If ``automorphisms`` is a list, the adjacent transpositions of every twin
    class and every non-identity tied leaf are appended to it, each as the
    list of the image of every vertex.
    """
    n = host.n
    if n == 0:
        return None  # the empty relabelling is the only one
    target = _bits_of(n, s, host.edges)
    # only the lowest free member of each twin class is a candidate
    twins = [c for c in _twin_classes(host) if c & (c - 1)]
    identity = list(range(n))
    if automorphisms is not None:
        for c in twins:
            members = [v for v in identity if c >> v & 1]
            for u, v in zip(members, members[1:]):
                swap = identity[:]
                swap[u], swap[v] = v, u
                automorphisms.append(swap)
    wants = [target[comb(j, s):comb(j + 1, s)] for j in range(n)]
    get = host.links.get
    perm = [-1] * n

    def dfs(j, subs, free):
        cand = free
        for c in twins:
            c &= free
            cand ^= c & (c - 1)
        for m, bit in zip(subs[s - 1], wants[j]):
            hit = get(m, 0) & cand
            if bit:
                cand = hit
                if not cand:
                    return None
            elif hit:
                low = hit & -hit
                perm[j] = low.bit_length() - 1
                free ^= low
                perm[j + 1:] = [u for u in range(n) if free >> u & 1]
                return perm
        if j + 1 == n:
            if automorphisms is not None:
                perm[j] = cand.bit_length() - 1
                if perm != identity:
                    automorphisms.append(perm[:])
            return None
        while cand:
            low = cand & -cand
            cand ^= low
            perm[j] = low.bit_length() - 1
            nxt = [subs[0]]
            for k in range(1, s):
                nxt.append(subs[k] + [m | low for m in subs[k - 1]])
            found = dfs(j + 1, nxt, free ^ low)
            if found is not None:
                return found
        return None

    return dfs(0, [[0]] + [[] for _ in range(1, s)], (1 << n) - 1)


def _guard(n: int):
    if n > MAX_CANONICAL_VERTICES:
        raise HypergraphError(
            f"canonical labelling supports at most {MAX_CANONICAL_VERTICES} "
            f"vertices, got {n}"
        )


def is_canonical_raw(host: HostIndex, s: int, symmetries=None) -> bool:
    """Is the s-uniform graph held by ``host`` already its own canonical form?

    That is, does no relabelling beat the graph's own bitstring; one search
    of :func:`_improve_once` answers it. If it is and ``symmetries`` is a
    list, automorphisms of the graph met by the test are appended to it,
    each as the list of the image of every vertex: the adjacent
    transpositions of each twin class and every non-identity relabelling
    that ties with the graph's own bitstring. They need not generate the
    whole group. A non-canonical graph appends nothing.
    """
    _guard(host.n)
    found = [] if symmetries is not None else None
    if _improve_once(host, s, found) is not None:
        return False
    if found:
        symmetries.extend(found)
    return True


def canonical_positions(n: int, s: int, edge_set) -> tuple[int, ...]:
    """Sorted colex positions of the canonical form's edges."""
    _guard(n)
    host = HostIndex(n, edge_set)
    while (perm := _improve_once(host, s)) is not None:
        back = {old: new for new, old in enumerate(perm)}
        host = HostIndex(n, [tuple(sorted(back[v] for v in e)) for e in host.edges])
    pos = colex_position(n, s)
    return tuple(sorted(pos[e] for e in host.edges))


def canonical_form(g: UniformHypergraph) -> UniformHypergraph:
    """The canonical representative of g's isomorphism class."""
    subs = colex_subsets(g.n, g.s)
    return make(g.n, g.s, [subs[p] for p in canonical_positions(g.n, g.s, g.edge_set)])


def canonical_key(g: UniformHypergraph) -> str:
    """Label-independent string key, identical across relabellings."""
    pos = canonical_positions(g.n, g.s, g.edge_set)
    return f"s{g.s};n{g.n};" + "-".join(map(str, pos))
