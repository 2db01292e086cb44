"""Canonical labelling via maximal edge-incidence bitstrings.

A hypergraph on n vertices is encoded as the 0/1 vector over all potential
s-subsets listed in colex order; the canonical form is the lexicographically
largest such vector over all vertex relabellings. Colex matters: the
subsets of {0..j} occupy a prefix of the positions, so a partial relabelling
pins down a bitstring prefix and the permutation search prunes hard.

The canonical form has the property that removing the edge with the largest
colex position preserves canonicity, which is what the orderly search in
:mod:`exturan.extremal` relies on.

The relabelling search is generated code, as the embedding search of
:mod:`exturan.counting` is: for each vertex count n and uniformity s, the
source of one function with one ``while`` loop per new vertex (its
candidate mask ``c{j}``, the placed vertices' bits ``b0..b{j-1}``) is built
from integers and fixed names only, compiled with ``exec`` once and cached.
The link of each placed (s-1)-set is read into a local once, when its last
vertex is placed, and every deeper level ANDs that local with its
candidates; each target-bit test is written out. The target is one int
``T`` whose bit p is the graph's own bit at colex position p; the orderly
search carries it from parent to child. With at most
``MAX_CANONICAL_VERTICES`` = 12 vertices the function nests at most 11
loops, under CPython's limit of 20.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations

from .counting import HostIndex
from .hypergraph import HypergraphError, UniformHypergraph, make

MAX_CANONICAL_VERTICES = 12  # permutation search envelope


@lru_cache(maxsize=None)
def colex_subsets(n: int, s: int) -> tuple[tuple[int, ...], ...]:
    return tuple(sorted(combinations(range(n), s), key=lambda t: tuple(reversed(t))))


@lru_cache(maxsize=None)
def colex_position(n: int, s: int) -> dict[tuple[int, ...], int]:
    return {e: i for i, e in enumerate(colex_subsets(n, s))}


@lru_cache(maxsize=None)
def _link_keys(n: int, s: int) -> tuple[int, ...]:
    """Masks of the (s-2)-subsets of n vertices; the empty set if s < 2."""
    return tuple(sum(1 << v for v in q) for q in combinations(range(n), max(s - 2, 0)))


def _twin_classes(host: HostIndex, s: int) -> list[int]:
    """Vertex masks of the classes of transposition-interchangeable vertices
    (swapping the two leaves the edge set invariant), compared within
    degree groups, since twins have equal degree.

    The swap fixes the edges holding both u and v or neither, and maps an
    edge Q | u | w, Q an (s-2)-set avoiding u and v, to Q | v | w. So u and
    v are twins iff for every such Q the links of Q | u and Q | v agree
    outside u and v (bit v of one, bit u of the other: Q | u | v, fixed).
    Being twins is an equivalence: (u w) = (u v)(v w)(u v).
    """
    get, keys = host.links.get, _link_keys(host.n, s)
    by_degree: dict[int, list[int]] = {}
    for v in range(host.n):
        by_degree.setdefault(host.deg[v], []).append(1 << v)
    classes = []
    for group in by_degree.values():
        while group:
            bu, *others = group
            cls, group = bu, []
            for bv in others:
                uv = bu | bv
                for q in keys:
                    if not q & uv and (get(q | bu, 0) ^ get(q | bv, 0)) & ~uv:
                        group.append(bv)
                        break
                else:
                    cls |= bv
            classes.append(cls)
    return classes


@lru_cache(maxsize=256)
def _relabel_kernel(n: int, s: int):
    """The relabelling search of :func:`_improve_once` for n vertices and
    uniformity s, as generated code: one ``while`` loop per new vertex but
    the last, whose candidates are then a single bit. Only integers and
    fixed names go into the source, which runs with no builtins.

    Names: ``f{j}`` is the mask of the old vertices still free before new
    vertex j is placed, ``c{j}`` its candidate mask and ``b{j}`` the bit of
    the old vertex it holds; ``T`` is the target bitstring. Placing ``b{j}``
    reads, once, the link of the image of each (s-1)-set of new vertices
    that ends in j into a local named after the set, ``l{a}_{j}`` for s = 3
    (``l``, the link of the empty set, is read at the start when s = 1).
    Level j tests, for every (s-1)-subset of the new vertices below j in
    colex order, ``h = l{...} & c{j}`` against the bit ``T & 1 << p`` at the
    colex position p of the subset plus j.

    The function returns the bits of an improving prefix, the improving
    vertex last, or None; it appends the bits of each tied leaf to
    ``leaves``.
    """
    pos = colex_position(n, s)
    full = (1 << n) - 1

    def link(sub):
        return "l" + "_".join(f"{a:d}" for a in sub)

    lines = ["def _search(get, T, twins, leaves):", f"    f0 = {full:d}"]
    if s == 1:
        lines.append("    l = get(0, 0)")
    pad = "    "
    for j in range(n):
        fail = "continue" if j else "return None"
        placed = "".join(f"b{a:d}, " for a in range(j))
        lines.append(f"{pad}c{j:d} = f{j:d}")
        if j < n - 1:  # one free vertex is its own twin class
            lines += [f"{pad}for t in twins:",
                      f"{pad}    t &= f{j:d}",
                      f"{pad}    c{j:d} ^= t & (t - 1)"]
        for sub in colex_subsets(j, s - 1):
            lines += [f"{pad}h = {link(sub)} & c{j:d}",
                      f"{pad}if T & {1 << pos[sub + (j,)]:d}:",
                      f"{pad}    if not h:",
                      f"{pad}        {fail}",
                      f"{pad}    c{j:d} = h",
                      f"{pad}elif h:",
                      f"{pad}    return ({placed}h & -h,)"]
        if j == n - 1:
            lines.append(f"{pad}leaves.append(({placed}c{j:d},))")
        else:
            lines += [f"{pad}while c{j:d}:",
                      f"{pad}    b{j:d} = c{j:d} & -c{j:d}",
                      f"{pad}    c{j:d} ^= b{j:d}",
                      f"{pad}    f{j + 1:d} = f{j:d} ^ b{j:d}"]
            pad += "    "
            for sub in colex_subsets(j, s - 2) if s > 1 else ():
                image = " | ".join(f"b{a:d}" for a in sub + (j,))
                lines.append(f"{pad}{link(sub + (j,))} = get({image}, 0)")
    lines.append("    return None")
    namespace = {"__builtins__": {}}
    exec("\n".join(lines), namespace)
    return namespace["_search"]


def _improve_once(host: HostIndex, s, automorphisms=None, target=None):
    """Search for a relabelling whose bitstring exceeds the graph's own.

    Returns such a relabelling as a list giving the old vertex of each new
    one, or None if the graph is its own canonical form. ``target``, if
    given, is the graph's own bitstring, else it is built from the edges.

    New vertex j holds old vertex ``perm[j]``. The bits of level j (the
    colex positions of the s-sets whose largest element is j) ask, for each
    (s-1)-subset of the new vertices below j, whether the candidate
    completes the subset's image to an edge, and the index's link of that
    image answers it for all candidates at once. Scanning a level narrows
    the candidate mask ``c{j}`` to those still equal to the graph's own
    bitstring ``T`` (the target); one with a 1 where the target has a 0 is
    an improvement, and any completion of it improves the target. Equal
    branches are explored (they may diverge later); transposition twins are
    tried once per class, which is sound because the twin swap extends any
    partial assignment to an equal-valued one. The search runs as the code
    :func:`_relabel_kernel` generates for (n, s), with the bit of the old
    vertex placed at level j in ``b{j}``.

    A relabelling tied with the target at every level maps the edge set onto
    itself, so each such leaf, the identity among them, is an automorphism.
    If ``automorphisms`` is a list, the adjacent transpositions of every twin
    class and every non-identity tied leaf are appended to it, each as the
    list of the image of every vertex.
    """
    n = host.n
    if n == 0:
        return None  # the empty relabelling is the only one
    if target is None:
        pos = colex_position(n, s)
        target = 0
        for e in host.edges:
            target |= 1 << pos[e]
    # only the lowest free member of each twin class is a candidate
    twins = [c for c in _twin_classes(host, s) if c & (c - 1)]
    identity = list(range(n))
    if automorphisms is not None:
        for c in twins:
            members = [v for v in identity if c >> v & 1]
            for u, v in zip(members, members[1:]):
                swap = identity[:]
                swap[u], swap[v] = v, u
                automorphisms.append(swap)
    leaves = []
    found = _relabel_kernel(n, s)(host.links.get, target, twins, leaves)
    if automorphisms is not None:
        for leaf in leaves:
            perm = [b.bit_length() - 1 for b in leaf]
            if perm != identity:
                automorphisms.append(perm)
    if found is None:
        return None
    perm = [b.bit_length() - 1 for b in found]
    return perm + [u for u in identity if u not in perm]


def _guard(n: int):
    if n > MAX_CANONICAL_VERTICES:
        raise HypergraphError(
            f"canonical labelling supports at most {MAX_CANONICAL_VERTICES} "
            f"vertices, got {n}"
        )


def is_canonical_raw(host: HostIndex, s: int, symmetries=None, target=None) -> bool:
    """Is the s-uniform graph held by ``host`` already its own canonical form?

    That is, does no relabelling beat the graph's own bitstring; one search
    of :func:`_improve_once` answers it. If it is and ``symmetries`` is a
    list, automorphisms of the graph met by the test are appended to it,
    each as the list of the image of every vertex: the adjacent
    transpositions of each twin class and every non-identity relabelling
    that ties with the graph's own bitstring. They need not generate the
    whole group. A non-canonical graph appends nothing.

    ``target`` may give the graph's own bitstring, bit p set iff the s-set
    at colex position p is an edge, so that a caller extending a graph one
    edge at a time need not rebuild it.
    """
    _guard(host.n)
    found = [] if symmetries is not None else None
    if _improve_once(host, s, found, target) is not None:
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
