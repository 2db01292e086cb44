"""Cliques, subgraph containment, copy counting and exponent tables.

Copies are counted unlabelled: the number of embeddings divided by the
automorphism count of the pattern, which is the number of embeddings of the
pattern into itself. Every embedding search runs on one backtracker over per-step
candidate domains, reading the host from a :class:`HostIndex`. The index
holds one link store, read by subscript: for every s-1 vertices, the mask
of the vertices that complete them to an edge. A step that completes
pattern edges therefore takes its candidates from the AND of the links of
those edges' placed parts (the common-link step) instead of scanning every
host vertex.
Cliques take the same step without a backtracker: a sorted clique grows by
the vertices above its last one in the AND of the links of its (s-1)-subsets.
The backtracker is generated code: for each compiled walk, number of domain
steps and search mode, the source of one function with one nested loop per
step (its link AND and degree test written out) is built from the walk's
integers and fixed names only, compiled once under a file name of its own
(:func:`compile_kernel`) and cached.
CPython compiles at most 20 nested loops in one function, so a longer walk
becomes a chain of such functions, 20 steps each, whose innermost loop calls
the next with the vertices placed so far.
Every search that only reads a hypergraph shares the one index it keeps
(:func:`index_of`); one that changes a host an edge at a time (the orderly
search, the local search, the deletion walk) updates an index of its own.
Containment search is deterministic: pattern vertices are ordered by
descending degree with index tie-breaks and host candidates are tried in
ascending order, so certificates are reproducible.
"""

from __future__ import annotations

import hashlib
from collections import Counter, defaultdict
from dataclasses import InitVar, dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations
from math import comb, prod
from typing import NamedTuple

from .hypergraph import (
    BlowupSpec,
    Edge,
    HypergraphError,
    UniformHypergraph,
    blowup,
)

MAX_PATTERN_VERTICES = 8  # input guard on the patterns whose copies are counted
DENSE_LINK_VERTICES = 12  # hosts up to this size keep their links in a list


class UniformityMismatch(HypergraphError):
    """Host and pattern do not have the same uniformity."""


# ---------------------------------------------------------------------------
# embedding search engine
# ---------------------------------------------------------------------------


def _walk(pattern: UniformHypergraph, deg, order) -> tuple:
    """A compiled visiting order of the pattern vertices: the order, the
    pattern degree of each step's vertex, and per step the pattern edges that
    become fully placed there, each given by its vertices other than the
    step's."""
    placed = set()
    checks = []
    for u in order:
        placed.add(u)
        checks.append(tuple(tuple(w for w in e if w != u)
                            for e in pattern.edges if u in e and set(e) <= placed))
    return tuple(order), tuple(deg[u] for u in order), tuple(checks)


class PatternPlan(NamedTuple):
    """The two walks every embedding search of one pattern can take.

    ``by_degree`` visits vertices by descending degree with index
    tie-breaks and ``by_index`` in index order. The walks that begin with
    a pattern edge are built apart, on first use; see :func:`_edge_starts`.
    Either walk can meet a step that completes no edge, a vertex with no
    neighbour placed before it: vertex 1 of C4 or of the octahedron, whose
    classes put 0 and 1 together. In a graph, such a step that shares a
    later neighbour with an earlier one reads a second neighbourhood
    (:func:`_kernel`).
    """

    by_degree: tuple
    by_index: tuple


@lru_cache(maxsize=64)
def _compile(pattern: UniformHypergraph) -> PatternPlan:
    """Compile ``pattern`` once; searches with the same pattern share it."""
    deg = index_of(pattern).deg
    by_degree = sorted(range(pattern.n), key=lambda v: (-deg[v], v))
    return PatternPlan(_walk(pattern, deg, by_degree), _walk(pattern, deg, range(pattern.n)))


@lru_cache(maxsize=64)
def _edge_starts(pattern: UniformHypergraph) -> tuple:
    """The one table of the searches pinned to a host edge: walks that
    begin with the orderings of the pattern edges, one per orbit of those
    orderings under the automorphisms of the pattern, each going on with the
    rest of the ``by_degree`` walk, with the "first" kernel that
    :func:`embeds_using_edge` runs; :func:`through_edge_counter` builds its own.

    An embedding that sends ordering t onto a host edge, composed with an
    automorphism mapping an earlier kept ordering r onto t, sends r onto the
    same host edge, so t adds nothing. The automorphism is looked for as an
    embedding of the pattern into itself with r pinned to t, only when the
    two orderings have the same degrees. On a large pattern these searches
    cost far more than one search of a host, so only the searches pinned to
    a host edge build the table.
    """
    itself = index_of(pattern)
    deg = itself.deg
    by_degree = _compile(pattern).by_degree[0]
    kept = []
    for f in pattern.edges:
        rest = [u for u in by_degree if u not in f]
        for t in permutations(f):
            key = tuple(deg[v] for v in t)
            pinned = [(v,) for v in t]
            if not any(k == key and _backtrack(itself, walk, pinned, mode="first") is not None
                       for k, walk in kept):
                kept.append((key, _walk(pattern, deg, list(t) + rest)))
    return tuple((walk, _kernel(walk, pattern.s, "first")) for _, walk in kept)


class HostIndex:
    """A host as every embedding search reads it, updated one edge at a time.

    ``n`` is the vertex count, ``edges`` maps each edge (a sorted tuple) to
    its vertex bitmask, ``deg`` holds the degree of every vertex, and
    ``links`` maps the mask of any s-1 vertices to the mask of the vertices
    that complete them to an edge: ``links[mask ^ bit] |= bit`` for every
    edge mask and every bit in it, and 0 for a mask on no edge. Every
    reader subscripts it. On at most ``DENSE_LINK_VERTICES`` vertices, which
    covers every host the canonicity test takes, it is a list of 2^n masks
    indexed by vertex mask, since a list subscript is cheaper than a dict's;
    on more, a ``defaultdict(int)``. Adding or removing an edge costs O(s);
    ``add`` takes an edge that is absent and ``remove`` one that is present.
    ``add`` may be given the edge's vertex mask, which a caller that adds
    the same edges many times builds once.
    """

    __slots__ = ("n", "edges", "deg", "links")

    def __init__(self, n: int, edges=()):
        self.n = n
        self.edges: dict[Edge, int] = {}
        self.deg = [0] * n
        self.links = [0] * (1 << n) if n <= DENSE_LINK_VERTICES else defaultdict(int)
        for e in edges:
            self.add(e)

    def add(self, edge: Edge, mask: int | None = None) -> None:
        if mask is None:
            mask = 0
            for v in edge:
                mask |= 1 << v
        self.edges[edge] = mask
        deg, links = self.deg, self.links
        for v in edge:
            deg[v] += 1
            bit = 1 << v
            links[mask ^ bit] |= bit

    def remove(self, edge: Edge) -> None:
        mask = self.edges.pop(edge)
        deg, links = self.deg, self.links
        for v in edge:
            deg[v] -= 1
            bit = 1 << v
            links[mask ^ bit] ^= bit


def index_of(g: UniformHypergraph) -> HostIndex:
    """The one index of ``g``, built from ``g.edges`` on first use and kept
    in the instance, so it lives as long as ``g``. Only searches that read
    ``g`` take it: nothing adds to it or removes from it."""
    index = g.__dict__.get("_index")
    if index is None:
        index = g.__dict__["_index"] = HostIndex(g.n, g.edges)
    return index


_MAX_LOOPS = 20  # CPython compiles no function with more nested loops


def compile_kernel(lines, name: str, tag: str):
    """The function ``name`` that the generated source ``lines`` defines,
    run with no builtins. The source compiles under the file name
    ``<exturan:{name} {tag}>``, so profiles and tracebacks keep kernels of
    different sizes apart."""
    namespace = {"__builtins__": {}}
    exec(compile("\n".join(lines), f"<exturan:{name} {tag}>", "exec"), namespace)
    return namespace[name]


def _link(key) -> str:
    """The local holding the link of the vertices of the steps in ``key``."""
    return "l" + "_".join(f"{i:d}" for i in key)


def _read(key, pad: str) -> str:
    """The generated line reading the link of ``key`` into its local."""
    return f"{pad}{_link(key)} = links[{' | '.join(f'b{i:d}' for i in key) or '0'}]"


def _second(i: int, pad: str) -> list:
    """Generated lines setting ``n{i}`` to the second neighbourhood of step
    i's vertex in a graph: the OR of the links of its neighbours, the first
    of them read from the step's own link local."""
    return [f"{pad}n{i:d} = 0", f"{pad}x = l{i:d}", f"{pad}while x:",
            f"{pad}    y = x & -x", f"{pad}    x ^= y", f"{pad}    n{i:d} |= links[y]"]


@lru_cache(maxsize=256)
def _kernel(walk, ndom: int, mode: str):
    """The search along ``walk`` whose first ``ndom`` steps read domains, in
    ``mode``, as generated code: one nested loop per step, in chunks of at
    most ``_MAX_LOOPS`` steps, each chunk a function ``_k{a}`` (a its first
    step) that the innermost loop of the chunk before calls with the used
    mask and the vertices placed so far. Only integers from the walk and
    fixed names go into the source, which runs with no builtins.

    A step of a graph walk that completes no edge, but whose vertex and
    that of an earlier step i have a common neighbour placed later, can
    only take a vertex of N(N(v_i)): its candidates are that mask less the
    used ones, not every free vertex. The mask is computed once per
    placement of step i, or once per call of a later chunk that reads it.
    Every vertex dropped this way completes no embedding, so each mode
    returns what the plain scan returns, in the same order. So does a walk
    longer than the host has vertices, at once, before it places any.

    Each link a chunk reads is read once, into a local, at the step that
    places the last of its vertices, or on entry to the chunk if that step
    lies in an earlier one; a step that completes edges ANDs its own link
    locals.

    Names: ``c{k}`` is step k's candidate mask, ``v{k}`` its host vertex,
    ``b{k}`` that vertex's bit, ``u{k}`` the mask used after step k,
    ``n{k}`` the second neighbourhood of ``v{k}`` and ``l{i}_{j}`` the
    link of the vertices of steps i and j (``l`` that of none).
    """
    order, needs, checks = walk
    size = len(order)
    at = {u: k for k, u in enumerate(order)}
    # the links step k ANDs, each as the sorted steps of its vertices
    keys = [[tuple(sorted(at[w] for w in others)) for others in step] for step in checks]
    # ahead[k] = i: step k draws from n{i}, i the first step that qualifies
    ahead = {}
    if all(len(others) == 1 for step in checks for others in step):
        before = [{at[w] for (w,) in step} for step in checks]
        for k in range(size):
            shared = [i for nb in before[k + 1:] if k in nb for i in nb if i < k]
            if shared and not checks[k]:
                ahead[k] = min(shared)
    image = "(" + "".join(f"v{at[u]:d}, " for u in range(size)) + ")"
    tail = {"first": "return None", "count": "return count", "all": "return out"}[mode]
    lines = []
    for a in range(0, max(size, 1), _MAX_LOOPS):
        b = min(a + _MAX_LOOPS, size)
        carried = "".join(f", v{k:d}" for k in range(a))
        if a:
            carried = (", out" if mode == "all" else "") + ", used" + carried
        lines.append(f"def _k{a:d}(links, deg, everyone, domains{carried}):")
        if mode == "count":
            lines.append("    count = 0")
        elif mode == "all" and not a:
            lines.append("    out = []")
        if not a and size > 1:
            lines += [f"    if not everyone >> {size - 1:d}:", f"        {tail}"]
        twice = {ahead[k] for k in range(a, b) if k in ahead}
        links = {key for k in range(a, b) for key in keys[k]} | {(i,) for i in twice}
        read = {i for key in links for i in key}
        lines += [f"    b{k:d} = 1 << v{k:d}" for k in sorted(read) if k < a]
        lines += [_read(key, "    ") for key in sorted(links) if not key or key[-1] < a]
        lines += [line for i in sorted(twice) if i < a for line in _second(i, "    ")]
        used = "used" if a else ""
        pad = "    "
        for k in range(a, b):
            gets = keys[k]
            if gets:
                both = " & ".join(map(_link, gets))
                cand = f"{both} & ~{used}" if used else both
            elif k in ahead:
                cand = f"n{ahead[k]:d} & ~{used}"
            else:
                cand = f"everyone ^ {used}" if used else "everyone"
            lines.append(f"{pad}c{k:d} = {cand}")
            # a vertex in a link mask lies on an edge, so degree 1 holds
            need = needs[k] if needs[k] > (1 if gets or k in ahead else 0) else 0
            if mode == "count" and k == size - 1 and k >= ndom and not need:
                lines.append(f"{pad}count += c{k:d}.bit_count()")
                break
            if k < ndom:
                lines += [f"{pad}for v{k:d} in domains[{k:d}]:",
                          f"{pad}    if not c{k:d} >> v{k:d} & 1:",
                          f"{pad}        continue"]
            else:
                lines += [f"{pad}while c{k:d}:",
                          f"{pad}    b{k:d} = c{k:d} & -c{k:d}",
                          f"{pad}    c{k:d} ^= b{k:d}",
                          f"{pad}    v{k:d} = b{k:d}.bit_length() - 1"]
            pad += "    "
            if need:
                lines += [f"{pad}if deg[v{k:d}] < {need:d}:", f"{pad}    continue"]
            if k < size - 1:
                if k < ndom:
                    lines.append(f"{pad}b{k:d} = 1 << v{k:d}")
                lines.append(f"{pad}u{k:d} = {used} | b{k:d}" if used else f"{pad}u{k:d} = b{k:d}")
                used = f"u{k:d}"
                lines += [_read(key, pad) for key in sorted(links) if key and key[-1] == k]
                if k in twice:
                    lines += _second(k, pad)
        else:  # the innermost loop: a full mapping, or the next chunk
            if b == size:
                lines.append(pad + {"first": f"return {image}", "count": "count += 1",
                                    "all": f"out.append({image})"}[mode])
            else:
                call = (f"_k{b:d}(links, deg, everyone, domains"
                        + (", out" if mode == "all" else "") + f", {used}"
                        + "".join(f", v{k:d}" for k in range(b)) + ")")
                lines += ({"first": [f"{pad}found = {call}", f"{pad}if found is not None:",
                                     f"{pad}    return found"],
                           "count": [f"{pad}count += {call}"],
                           "all": [pad + call]}[mode])
        lines.append(f"    {tail}")
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()[:12]
    return compile_kernel(lines, "_k0", f"{mode} steps={size:d} ndom={ndom:d} {digest}")


def _backtrack(host: HostIndex, walk, domains=(), *, mode):
    """Injective subgraph-embedding search along a compiled pattern walk.

    Step k maps pattern vertex ``order[k]`` to host vertices: those of
    ``domains[k]`` in the given order while k is below ``len(domains)``,
    else all of them in ascending order. A step that completes pattern
    edges takes the common-link step first: the vertices that complete
    every such edge form the AND of ``host.links`` over the masks of the
    edges' already placed vertices, and only the free ones among them are
    tried, in ascending bit order or, with a domain, in the domain's order.
    A step of a graph walk that completes no edge takes the second
    neighbourhood of an earlier step's vertex instead, when the two
    steps' vertices have a common neighbour placed later (see
    :class:`PatternPlan` for the walks that have such a step).
    A vertex below the step's pattern degree is skipped. ``mode`` "first"
    returns the first mapping found (or None), "count" the number of
    mappings, "all" the list of them in search order.

    The search runs as a function generated for the walk, the number of
    domain steps and the mode, and cached (:func:`_kernel`): each step is
    one loop over its candidate mask, with its link AND and degree test
    written out, and the source holds only the walk's integers and fixed
    names. A walk of more than ``_MAX_LOOPS`` steps runs as a chain of
    such functions, each called from the innermost loop of the one before.
    """
    search = _kernel(walk, min(len(domains), len(walk[0])), mode)
    return search(host.links, host.deg, (1 << host.n) - 1, domains)


@dataclass(frozen=True)
class Embedding:
    """An injective map sending every pattern edge onto a host edge."""

    pattern: UniformHypergraph
    host: UniformHypergraph
    mapping: tuple[int, ...]

    def __post_init__(self):
        if len(self.mapping) != self.pattern.n:
            raise HypergraphError("mapping length differs from pattern order")
        if len(set(self.mapping)) != len(self.mapping):
            raise HypergraphError("mapping is not injective")
        if any(v < 0 or v >= self.host.n for v in self.mapping):
            raise HypergraphError("mapping leaves the host vertex range")
        hs = self.host.edge_set
        for e in self.pattern.edges:
            if tuple(sorted(self.mapping[v] for v in e)) not in hs:
                raise HypergraphError(f"pattern edge {e} does not map onto a host edge")

    def to_json_dict(self) -> dict:
        host_text = self.host.to_text()
        return {
            "pattern": self.pattern.to_text(),
            "host_sha256": hashlib.sha256(host_text.encode()).hexdigest(),
            "mapping": list(self.mapping),
        }


def first_embedding(host: HostIndex, pattern: UniformHypergraph,
                    domains=()) -> tuple[int, ...] | None:
    """The lexicographically first embedding of ``pattern`` into an indexed
    host, as a mapping tuple, or None.

    With ``domains``, pattern vertex i goes only to the vertices of
    ``domains[i]``, tried in their given order, and the result is the first
    mapping in that order.
    """
    return _backtrack(host, _compile(pattern).by_index, domains, mode="first")


def contains(host: UniformHypergraph, pattern: UniformHypergraph) -> Embedding | None:
    """Find some subgraph embedding of ``pattern`` in ``host``, if any.

    The pattern vertices are placed by descending degree, so the embedding
    found is deterministic but need not be the lexicographically first one;
    :func:`first_embedding` gives that one.
    """
    if host.s != pattern.s:
        raise UniformityMismatch(f"host uniformity {host.s} != pattern {pattern.s}")
    found = _backtrack(index_of(host), _compile(pattern).by_degree, mode="first")
    return None if found is None else Embedding(pattern, host, found)


def count_embeddings(host: UniformHypergraph, pattern: UniformHypergraph) -> int:
    """Number of labelled (injective) embeddings of ``pattern`` in ``host``."""
    if host.s != pattern.s:
        raise UniformityMismatch(f"host uniformity {host.s} != pattern {pattern.s}")
    return count_embeddings_raw(index_of(host), pattern)


def all_embeddings(host: UniformHypergraph, pattern: UniformHypergraph,
                   domains=()) -> list[tuple[int, ...]]:
    """Every embedding as a mapping tuple, in lexicographic order.

    With ``domains``, pattern vertex i goes only to the vertices of
    ``domains[i]``, tried in their given order.
    """
    if host.s != pattern.s:
        raise UniformityMismatch(f"host uniformity {host.s} != pattern {pattern.s}")
    return _backtrack(index_of(host), _compile(pattern).by_index, domains, mode="all")


def count_embeddings_raw(host: HostIndex, pattern: UniformHypergraph) -> int:
    """Embedding count over an indexed host."""
    return _backtrack(host, _compile(pattern).by_degree, mode="count")


@lru_cache(maxsize=512)
def automorphism_count(pattern: UniformHypergraph) -> int:
    """|Aut(pattern)|: an embedding of a pattern into itself permutes its
    edges, so it is an automorphism."""
    if pattern.n > MAX_PATTERN_VERTICES:
        raise HypergraphError(
            f"pattern on {pattern.n} vertices exceeds exact automorphism "
            f"limit {MAX_PATTERN_VERTICES}"
        )
    return count_embeddings(pattern, pattern)


def count_copies(host: UniformHypergraph, pattern: UniformHypergraph) -> int:
    """Number of unlabelled copies: C(n, t) for a pattern on t vertices with
    no edges, the t-cliques of the host for a complete pattern, else
    embeddings / |Aut(pattern)|."""
    if host.s != pattern.s:
        raise UniformityMismatch(f"host uniformity {host.s} != pattern {pattern.s}")
    t = pattern.n
    if not pattern.m:
        return comb(host.n, t)
    if pattern.m == comb(t, pattern.s):
        return len(complete_subsets(host, t))
    aut = automorphism_count(pattern)
    return count_embeddings(host, pattern) // aut


def embeds_using_edge(host: HostIndex, pattern: UniformHypergraph,
                      edge: Edge) -> tuple[int, ...] | None:
    """An embedding of ``pattern`` that sends one of its edges onto ``edge``,
    as a mapping tuple, or None if there is none.

    The incremental forbidden-pattern check: when ``edge`` has just been
    added to the index of a pattern-free host, any new copy must use it.
    """
    pinned = [(v,) for v in edge]
    links, deg, everyone = host.links, host.deg, (1 << host.n) - 1
    for _, search in _edge_starts(pattern):
        found = search(links, deg, everyone, pinned)
        if found is not None:
            return found
    return None


def through_edge_counter(host: HostIndex, pattern: UniformHypergraph):
    """The number of copies of ``pattern`` through an edge of an indexed
    host, as a function of the edge's vertices pinned, ``[(v,) for v in
    edge]``, for a caller that counts through many edges of one host as it
    changes in place. Each embedding using the edge pins exactly one
    ordered pattern edge onto it, each of the |Aut| / |Stab_i| orderings in
    the orbit of walk i of :func:`_edge_starts` is pinned there by N_i of
    them, and a copy is |Aut| embeddings, so the count is the sum of N_i /
    |Stab_i|, N_i from walk i's "count" kernel, and |Stab_i| its count on
    the pattern itself, the first edge pinned to itself: 10! on K12, so a
    pattern with more vertices than the host counts 0 at once.
    """
    if pattern.n > host.n:
        return lambda pinned: 0
    s, itself = pattern.s, index_of(pattern)
    walks = [(_kernel(walk, s, "count"),
              _backtrack(itself, walk, [(v,) for v in walk[0][:s]], mode="count"))
             for walk, _ in _edge_starts(pattern)]
    links, deg, everyone = host.links, host.deg, (1 << host.n) - 1

    def through(pinned) -> int:
        total = 0
        for count, stab in walks:
            total += count(links, deg, everyone, pinned) // stab
        return total

    return through


# ---------------------------------------------------------------------------
# cliques
# ---------------------------------------------------------------------------


def complete_subsets(g: UniformHypergraph, r: int) -> list[tuple[int, ...]]:
    """All r-sets of vertices of g whose s-subsets are all edges of g, sorted:
    each sorted clique t grows by the vertices above t[-1] in the AND of the
    links of t's (s-1)-subsets."""
    if r < g.s:
        raise HypergraphError(f"clique order {r} below uniformity {g.s}")
    cur = list(g.edges)
    if r == g.s:
        return cur
    links = index_of(g).links
    for _ in range(r - g.s):
        nxt = []
        for t in cur:
            cand = -1 << t[-1] + 1
            for sub in combinations([1 << v for v in t], g.s - 1):
                cand &= links[sum(sub)]
            while cand:
                bit = cand & -cand
                cand ^= bit
                nxt.append(t + (bit.bit_length() - 1,))
        cur = nxt
    return cur


@dataclass(frozen=True)
class CliqueFamily:
    """An ordered collection of r-sets, each spanning a clique in the host.

    The host is (r-1)-uniform; "spanning a clique" means all r of the
    (r-1)-subsets of the member are host edges. ``check=False`` skips the
    member checks, for members that :func:`complete_subsets` produced.
    """

    host: UniformHypergraph
    r: int
    members: tuple[tuple[int, ...], ...]
    check: InitVar[bool] = True

    def __post_init__(self, check):
        if self.r != self.host.s + 1:
            raise HypergraphError(
                f"clique order {self.r} does not match host uniformity {self.host.s}"
            )
        if not check:
            return
        es = self.host.edge_set
        seen = set()
        for t in self.members:
            if len(t) != self.r or any(t[i] >= t[i + 1] for i in range(len(t) - 1)):
                raise HypergraphError(f"member {t!r} is not a sorted {self.r}-set")
            if t in seen:
                raise HypergraphError(f"duplicate member {t!r}")
            seen.add(t)
            for i in range(len(t)):
                if t[:i] + t[i + 1:] not in es:
                    raise HypergraphError(f"member {t!r} does not span a clique")

    def __len__(self) -> int:
        return len(self.members)


def cliques(g: UniformHypergraph, r: int) -> CliqueFamily:
    """All r-sets spanning a complete clique in an (r-1)-uniform host."""
    if r < 3:
        raise HypergraphError(f"clique order must be >= 3, got {r}")
    if g.s != r - 1:
        raise UniformityMismatch(f"host uniformity {g.s}, expected {r - 1}")
    members = complete_subsets(g, r)
    return CliqueFamily(g, r, tuple(members), check=False)  # sorted cliques, once each


def edge_multiplicity(g: UniformHypergraph, family: CliqueFamily) -> int:
    """The largest number of family members that contain one edge of g."""
    if family.host != g:
        raise HypergraphError("family is not hosted in the given hypergraph")
    mult = Counter(t[:i] + t[i + 1:] for t in family.members for i in range(len(t)))
    return max(mult.values(), default=0)


# ---------------------------------------------------------------------------
# blowup freeness
# ---------------------------------------------------------------------------


def materialize(pattern) -> UniformHypergraph:
    """Accept either a hypergraph or a blowup spec and return a hypergraph."""
    if isinstance(pattern, UniformHypergraph):
        return pattern
    if isinstance(pattern, BlowupSpec):
        return blowup(pattern)[0]
    raise TypeError(f"expected UniformHypergraph or BlowupSpec, got {type(pattern)!r}")


def is_blowup_free(g: UniformHypergraph,
                   spec: BlowupSpec | UniformHypergraph) -> tuple[bool, Embedding | None]:
    """True iff g contains no copy of the materialized blowup.

    When false, the witness embedding is returned alongside.
    """
    pattern = materialize(spec)
    emb = contains(g, pattern)
    return emb is None, emb


# ---------------------------------------------------------------------------
# exponent arithmetic
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LowerBound:
    label: str
    exponent: Fraction
    condition: str


@dataclass(frozen=True)
class ExponentReport:
    """Exact rational exponents bounding ex(n, clique, blowup) growth.

    ``upper`` is r - 1/(a_1*...*a_{r-1}); each lower bound carries the
    sequence shape it applies to and never exceeds the upper exponent.
    """

    r: int
    sizes: tuple[int, ...]
    upper: Fraction
    lowers: tuple[LowerBound, ...]

    def __post_init__(self):
        if not Fraction(self.r - 1) <= self.upper < Fraction(self.r):
            raise HypergraphError(f"upper exponent {self.upper} outside [r-1, r)")
        for lb in self.lowers:
            if lb.exponent > self.upper:
                raise HypergraphError(
                    f"lower bound {lb.label} = {lb.exponent} exceeds upper {self.upper}"
                )


def exponents(r: int, sizes) -> ExponentReport:
    """Exponent table for forbidding the complete r-partite (r-1)-uniform
    blowup with the given (ascending) class sizes."""
    sizes = tuple(int(a) for a in sizes)
    if r < 3:
        raise HypergraphError(f"need r >= 3, got {r}")
    if len(sizes) != r:
        raise HypergraphError(f"{len(sizes)} sizes for r = {r}")
    if any(a < 1 for a in sizes):
        raise HypergraphError("sizes must be >= 1")
    if any(sizes[i] > sizes[i + 1] for i in range(r - 1)):
        raise HypergraphError("sizes must be sorted ascending")

    upper = Fraction(r) - Fraction(1, prod(sizes[:-1]))
    lowers = [
        LowerBound(
            "general",
            Fraction(r) - Fraction(1, prod(sizes[: r - 2])),
            "any sizes; conditional on the conjectured complete-partite "
            "Turan lower bound one uniformity down",
        )
    ]
    a = sizes[-1]
    if sizes[0] == 1 and r >= 3 and a >= 2 and all(x == a for x in sizes[1:]):
        lowers.append(
            LowerBound(
                "one-then-equal",
                Fraction(r) - Fraction(r * (r - 1), a ** (r - 2)),
                f"sizes (1, {a}, ..., {a}); random host plus deletion",
            )
        )
    if a >= 2 and all(x == a for x in sizes):
        lowers.append(
            LowerBound(
                "all-equal",
                Fraction(r) - Fraction((r - 1) * (a - 1), a ** (r - 1) - 1),
                f"all sizes equal {a}; deletion-method base construction",
            )
        )
    if all(x == 2 for x in sizes):
        denom = -((2 ** (r - 1) - 1) // -(r - 1))  # ceil division
        lowers.append(
            LowerBound(
                "all-two",
                Fraction(r) - Fraction(1, denom),
                "all sizes equal 2",
            )
        )
    return ExponentReport(r, sizes, upper, tuple(lowers))
