"""Canonical labelling via maximal edge-incidence bitstrings.

A hypergraph on n vertices is encoded as the 0/1 vector over all potential
s-subsets listed in colex order; the canonical form is the lexicographically
largest such vector over all vertex relabellings. Colex matters: the
subsets of {0..j} occupy a prefix of the positions, so a partial relabelling
pins down a bitstring prefix and the permutation search prunes hard.

The canonical form has the property that removing the edge with the largest
colex position preserves canonicity, which is what the orderly search in
:mod:`exturan.extremal` relies on.

The canonicity test of a graph is one call to generated code, as the
embedding search of :mod:`exturan.counting` is: for each vertex count n and
uniformity s, the source of one function (:func:`_kernel`) is built from
integers and fixed names only, compiled once under a file name of its own
(:func:`exturan.counting.compile_kernel`) and cached. It first finds the
classes of transposition twins, testing each pair of vertices of equal
degree by written-out XORs of their links, and then runs the relabelling
search, one ``while`` loop per new vertex, trying one vertex per twin
class. The link of each placed (s-1)-set is read into a local once, when
its last vertex is placed, and every deeper level ANDs that local with its
candidates; the target's bits are read into locals once per call, and each
target-bit test, written out, reads one. Every link is a subscript of
the host's one link store (:class:`exturan.counting.HostIndex`), on these
sizes a list indexed by vertex mask. The target is one int ``T`` whose
bit p is the graph's own bit at colex position p; the orderly search
carries it from parent to child. With at most
``MAX_CANONICAL_VERTICES`` = 12 vertices the function nests at most 11
loops, under CPython's limit of 20.

The verdict comes first: only :func:`canonical_positions` turns an
improving prefix into a relabelling, and :func:`is_canonical_raw` returns
None for a graph it rejects and, for one it accepts, the pair of the
automorphisms it met: each twin class as one vertex mask, and each other
tied relabelling, the identity left out, as the kernel appends it: the
tuple of the bits of the vertices' images.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations

from .counting import DENSE_LINK_VERTICES, HostIndex, compile_kernel
from .hypergraph import HypergraphError, UniformHypergraph

# permutation search envelope: every host it takes keeps its links in a list
MAX_CANONICAL_VERTICES = DENSE_LINK_VERTICES


@lru_cache(maxsize=None)
def colex_subsets(n: int, s: int) -> tuple[tuple[int, ...], ...]:
    return tuple(sorted(combinations(range(n), s), key=lambda t: tuple(reversed(t))))


@lru_cache(maxsize=None)
def colex_position(n: int, s: int) -> dict[tuple[int, ...], int]:
    return {e: i for i, e in enumerate(colex_subsets(n, s))}


@lru_cache(maxsize=256)
def _kernel(n: int, s: int):
    """``_test(links, deg, T, twins, leaves)``, the canonicity test of an
    s-uniform graph on n vertices as generated code, with no builtins: the
    graph's index has link store ``links`` and degrees ``deg``, and
    ``T`` is its own bitstring. It returns the bits of an improving prefix
    of a relabelling, the improving vertex last, or None if the graph is
    its own canonical form.

    Twin classes come first. The swap of u and v fixes the edges holding
    both or neither, and maps an edge Q | u | w, Q an (s-2)-set avoiding u
    and v, to Q | v | w. So u and v are twins (their swap leaves the edge
    set invariant) iff they have equal degree and, for every such Q, the
    links of Q | u and Q | v agree outside u and v (bit v of one, bit u of
    the other: Q | u | v, fixed); at s = 1, and with no edge at n < s, equal
    degree decides. The link of each (s-1)-set is read once into
    ``w{rank}``, rank its colex rank, and a pair's test ORs written-out
    XORs. Being twins is an equivalence, (u w) = (u v)(v w)(u v), so a
    vertex already in a class opens none. The mask of each class of two or
    more twins is appended to ``twins``, by least vertex.

    Then bit p of ``T`` is read into the local ``t{p}`` for every colex
    position p, once per call.

    Then the relabelling search: new vertex j holds the old vertex whose
    bit is ``b{j}``. ``f{j}`` is the mask of the old vertices still free
    before j is placed and ``c{j}`` its candidate mask. Placing ``b{j}``
    reads, once, the link of the image of each (s-1)-set of new vertices
    that ends in j into a local named after the set, ``l{a}_{j}`` for s = 3
    (``l``, the link of the empty set, is read at the start when s = 1).
    The bits of level j are the colex positions of the s-sets whose largest
    element is j: for each (s-1)-subset of the new vertices below j, in
    colex order, ``h = l{...} & c{j}`` holds the candidates that complete
    the subset's image to an edge, tested against ``t{p}``, the bit of ``T``
    at the colex position p of the subset plus j. Scanning a level narrows
    ``c{j}`` to the candidates still equal to ``T``; one with a 1 where
    ``T`` has a 0 is an improvement, and any completion of it improves
    ``T``. Equal branches are explored, as they may diverge later. Only
    the lowest free member of each twin class is a candidate, which is
    sound because the twin swap extends any partial assignment to an
    equal-valued one; a graph with no twin class skips that step at every
    level, and one free vertex is its own class, so the last level skips it
    and its candidates are a single bit.

    A relabelling tied with ``T`` at every level maps the edge set onto
    itself, so each such leaf is an automorphism; the bits of each are
    appended to ``leaves``, the identity's first when ``T`` is canonical,
    since every level tries its lowest candidate first. The function makes
    no call but ``.append``. More than ``MAX_CANONICAL_VERTICES`` vertices
    raise HypergraphError, and nothing is cached.
    """
    if n > MAX_CANONICAL_VERTICES:
        raise HypergraphError(f"canonical labelling supports at most "
                              f"{MAX_CANONICAL_VERTICES} vertices, got {n}")
    pos = colex_position(n, s)
    rank = colex_position(n, s - 1)
    full = (1 << n) - 1
    lines = ["def _test(links, deg, T, twins, leaves):"]
    if s > 1:
        lines += [f"    w{i:d} = links[{sum(1 << v for v in q):d}]"
                  for q, i in rank.items()]
    lines += [f"    [{''.join(f'd{v:d}, ' for v in range(n))}] = deg", "    seen = 0"]
    for u in range(n - 1):
        lines += [f"    if not seen & {1 << u:d}:", f"        c = {1 << u:d}"]
        for v in range(u + 1, n):
            test = f"d{u:d} == d{v:d}"
            if 1 < s <= n:  # with n < s no (s-2)-set avoids u and v
                rest = [w for w in range(n) if w != u and w != v]
                xors = "|".join(f"w{rank[tuple(sorted(q + (u,)))]:d}^"
                                f"w{rank[tuple(sorted(q + (v,)))]:d}"
                                for q in combinations(rest, s - 2))
                test += f" and not ({xors}) & {full ^ 1 << u ^ 1 << v:d}"
            lines += [f"        if {test}:", f"            c |= {1 << v:d}"]
        lines += [f"        if c != {1 << u:d}:", "            twins.append(c)",
                  "            seen |= c"]

    def link(sub):
        return "l" + "_".join(f"{a:d}" for a in sub)

    lines += [f"    t{p:d} = T & {1 << p:d}" for p in range(len(pos))]
    lines.append(f"    f0 = {full:d}")
    if s == 1:
        lines.append("    l = links[0]")
    pad = "    "
    for j in range(n):
        fail = "continue" if j else "return None"
        placed = "".join(f"b{a:d}, " for a in range(j))
        lines.append(f"{pad}c{j:d} = f{j:d}")
        if j < n - 1:  # one free vertex is its own twin class
            lines += [f"{pad}if twins:",
                      f"{pad}    for t in twins:",
                      f"{pad}        t &= f{j:d}",
                      f"{pad}        c{j:d} ^= t & (t - 1)"]
        for sub in colex_subsets(j, s - 1):
            lines += [f"{pad}h = {link(sub)} & c{j:d}",
                      f"{pad}if t{pos[sub + (j,)]:d}:",
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
                lines.append(f"{pad}{link(sub + (j,))} = links[{image}]")
    lines.append("    return None")
    return compile_kernel(lines, "_test", f"n={n:d} s={s:d}")


def is_canonical_raw(host: HostIndex, s: int,
                     target: int) -> tuple[list[int], list[tuple[int, ...]]] | None:
    """The automorphisms met by the canonicity test of the s-uniform graph
    held by ``host``, or None if the graph is not its own canonical form.

    ``target`` is the graph's own bitstring, bit p set iff the s-set at
    colex position p is an edge; the orderly search carries it from parent
    to child. The graph is canonical iff no relabelling beats it, which one
    call of :func:`_kernel` answers. Then the pair (twins, leaves) is
    returned: ``twins`` the mask of each class of two or more transposition
    twins, by least vertex, any permutation inside a class being an
    automorphism; ``leaves`` every other relabelling that ties with
    ``target``, as the kernel found it: the tuple of the bit of the image
    of every vertex. The identity is the first tie of a canonical graph's
    search, which takes the lowest candidate at every level, and it is
    dropped. They need not generate the whole group.
    """
    n = host.n
    twins, leaves = [], []
    if _kernel(n, s)(host.links, host.deg, target, twins, leaves) is not None:
        return None
    del leaves[:1]  # the identity, (1, 2, 4, ...)
    return twins, leaves


def canonical_positions(n: int, s: int, edge_set) -> tuple[int, ...]:
    """Sorted colex positions of the canonical form's edges: relabel by each
    improving prefix, the other vertices after it in order, until none is
    left."""
    test = _kernel(n, s)
    host = HostIndex(n, edge_set)
    pos = colex_position(n, s)
    while (found := test(host.links, host.deg, sum(1 << pos[e] for e in host.edges),
                         [], [])) is not None:
        perm = [b.bit_length() - 1 for b in found]
        perm += [u for u in range(n) if u not in perm]
        back = {old: new for new, old in enumerate(perm)}
        host = HostIndex(n, [tuple(sorted(back[v] for v in e)) for e in host.edges])
    return tuple(sorted(pos[e] for e in host.edges))


@lru_cache(maxsize=256)
def canonical_key(g: UniformHypergraph) -> str:
    """Label-independent string key, identical across relabellings.

    A pure function of ``(n, s, edges)``, kept per hypergraph as the
    pattern caches of :mod:`exturan.counting` are, so a process computes
    each pattern's key once however often the CLI and the record cache ask
    for it."""
    pos = canonical_positions(g.n, g.s, g.edge_set)
    return f"s{g.s};n{g.n};" + "-".join(map(str, pos))
