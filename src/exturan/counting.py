"""Clique enumeration, subgraph containment, copy counting and exponent tables.

Copies are counted unlabelled: the number of embeddings divided by the
automorphism count of the pattern, which is the number of embeddings of the
pattern into itself. Every search runs on one backtracker over per-step
candidate domains, reading the host from a :class:`HostIndex`. The index
holds a link table: for every s-1 vertices of an edge, the mask of the
vertices that complete them to an edge. A step that completes pattern edges
therefore takes its candidates from the AND of the links of those edges'
placed parts (the common-link step) instead of scanning every host vertex.
The backtracker is generated code: for each compiled walk, number of domain
steps and search mode, the source of one function with one nested loop per
step (its link AND and degree test written out) is built from the walk's
integers and fixed names only, compiled with ``exec`` once and cached.
CPython compiles at most 20 nested loops in one function, so a longer walk
becomes a chain of such functions, 20 steps each, whose innermost loop calls
the next with the vertices placed so far.
Callers that change a host one edge at a time (the orderly search, the local
search, the deletion walk) keep one index and update it in place.
Containment search is deterministic: pattern vertices are ordered by
descending degree with index tie-breaks and host candidates are tried in
ascending order, so certificates are reproducible.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import permutations
from math import prod
from typing import NamedTuple

from .hypergraph import (
    BlowupSpec,
    Edge,
    HypergraphError,
    UniformHypergraph,
    blowup,
)

MAX_PATTERN_VERTICES = 8  # input guard on the patterns whose copies are counted


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
    """

    by_degree: tuple
    by_index: tuple


@lru_cache(maxsize=64)
def _compile(pattern: UniformHypergraph) -> PatternPlan:
    """Compile ``pattern`` once; searches with the same pattern share it."""
    deg = pattern.degrees()
    by_degree = sorted(range(pattern.n), key=lambda v: (-deg[v], v))
    return PatternPlan(_walk(pattern, deg, by_degree), _walk(pattern, deg, range(pattern.n)))


@lru_cache(maxsize=64)
def _edge_starts(pattern: UniformHypergraph) -> tuple:
    """Walks that begin with the orderings of the pattern edges, one per
    orbit of those orderings under the automorphisms of the pattern, each
    going on with the rest of the ``by_degree`` walk; each comes with its
    "first" kernel, so a search pinned to a host edge makes no cache lookup.

    An embedding that sends ordering t onto a host edge, composed with an
    automorphism mapping an earlier kept ordering r onto t, sends r onto the
    same host edge, so t adds nothing. The automorphism is looked for as an
    embedding of the pattern into itself with r pinned to t, only when the
    two orderings have the same degrees. On a large pattern these searches
    cost far more than one search of a host, so only the searches pinned to
    a host edge build the walks.
    """
    itself = HostIndex(pattern.n, pattern.edges)
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


@lru_cache(maxsize=64)
def _through_edge(pattern: UniformHypergraph) -> tuple:
    """For each walk of :func:`_edge_starts`, its "count" kernel and |Stab|,
    the automorphisms of the pattern that fix each vertex of the walk's first
    edge: that kernel's count on the pattern itself, the edge pinned to itself."""
    itself = HostIndex(pattern.n, pattern.edges)
    return tuple((_kernel(walk, pattern.s, "count"),
                  _backtrack(itself, walk, [(v,) for v in walk[0][:pattern.s]], mode="count"))
                 for walk, _ in _edge_starts(pattern))


class HostIndex:
    """A host as every embedding search reads it, updated one edge at a time.

    ``n`` is the vertex count, ``edges`` maps each edge (a sorted tuple) to
    its vertex bitmask, ``deg`` holds the degree of every vertex, and
    ``links`` maps the mask of each s-1 vertices of some edge to the mask of
    the vertices that complete them to an edge: ``links[mask ^ bit] |= bit``
    for every edge mask and every bit in it. Adding or removing an edge
    costs O(s); ``add`` takes an edge that is absent and ``remove`` one that
    is present.
    """

    __slots__ = ("n", "edges", "deg", "links")

    def __init__(self, n: int, edges=()):
        self.n = n
        self.edges: dict[Edge, int] = {}
        self.deg = [0] * n
        self.links: dict[int, int] = {}
        for e in edges:
            self.add(e)

    def add(self, edge: Edge) -> None:
        mask = 0
        for v in edge:
            mask |= 1 << v
        self.edges[edge] = mask
        deg, links = self.deg, self.links
        for v in edge:
            deg[v] += 1
            bit = 1 << v
            links[mask ^ bit] = links.get(mask ^ bit, 0) | bit

    def remove(self, edge: Edge) -> None:
        mask = self.edges.pop(edge)
        deg, links = self.deg, self.links
        for v in edge:
            deg[v] -= 1
            bit = 1 << v
            rest = links[mask ^ bit] ^ bit
            if rest:
                links[mask ^ bit] = rest
            else:
                del links[mask ^ bit]


_MAX_LOOPS = 20  # CPython compiles no function with more nested loops


@lru_cache(maxsize=256)
def _kernel(walk, ndom: int, mode: str):
    """The search along ``walk`` whose first ``ndom`` steps read domains, in
    ``mode``, as generated code: one nested loop per step, in chunks of at
    most ``_MAX_LOOPS`` steps, each chunk a function ``_k{a}`` (a its first
    step) that the innermost loop of the chunk before calls with the used
    mask and the vertices placed so far. Only integers from the walk and
    fixed names go into the source, which runs with no builtins.

    Names: ``c{k}`` is step k's candidate mask, ``v{k}`` its host vertex,
    ``b{k}`` that vertex's bit and ``u{k}`` the mask used after step k.
    """
    order, needs, checks = walk
    size = len(order)
    at = {u: k for k, u in enumerate(order)}
    image = "(" + "".join(f"v{at[u]:d}, " for u in range(size)) + ")"
    tail = {"first": "return None", "count": "return count", "all": "return out"}[mode]
    lines = []
    for a in range(0, max(size, 1), _MAX_LOOPS):
        b = min(a + _MAX_LOOPS, size)
        carried = "".join(f", v{k:d}" for k in range(a))
        if a:
            carried = (", out" if mode == "all" else "") + ", used" + carried
        lines.append(f"def _k{a:d}(get, deg, everyone, domains{carried}):")
        if mode == "count":
            lines.append("    count = 0")
        elif mode == "all" and not a:
            lines.append("    out = []")
        read = {at[w] for k in range(a, b) for others in checks[k] for w in others}
        lines += [f"    b{k:d} = 1 << v{k:d}" for k in sorted(read) if k < a]
        used = "used" if a else ""
        pad = "    "
        for k in range(a, b):
            gets = [f"get({' | '.join(f'b{at[w]:d}' for w in others) or '0'}, 0)"
                    for others in checks[k]]
            if gets:
                cand = " & ".join(gets + ([f"~{used}"] if used else []))
            else:
                cand = f"everyone ^ {used}" if used else "everyone"
            lines.append(f"{pad}c{k:d} = {cand}")
            # a vertex in a link mask lies on an edge, so degree 1 holds
            need = needs[k] if needs[k] > (1 if gets else 0) else 0
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
        else:  # the innermost loop: a full mapping, or the next chunk
            if b == size:
                lines.append(pad + {"first": f"return {image}", "count": "count += 1",
                                    "all": f"out.append({image})"}[mode])
            else:
                call = (f"_k{b:d}(get, deg, everyone, domains"
                        + (", out" if mode == "all" else "") + f", {used}"
                        + "".join(f", v{k:d}" for k in range(b)) + ")")
                lines += ({"first": [f"{pad}found = {call}", f"{pad}if found is not None:",
                                     f"{pad}    return found"],
                           "count": [f"{pad}count += {call}"],
                           "all": [pad + call]}[mode])
        lines.append(f"    {tail}")
    namespace = {"__builtins__": {}}
    exec("\n".join(lines), namespace)
    return namespace["_k0"]


def _backtrack(host: HostIndex, walk, domains=(), *, mode):
    """Injective subgraph-embedding search along a compiled pattern walk.

    Step k maps pattern vertex ``order[k]`` to host vertices: those of
    ``domains[k]`` in the given order while k is below ``len(domains)``,
    else all of them in ascending order. A step that completes pattern
    edges takes the common-link step first: the vertices that complete
    every such edge form the AND of ``host.links`` over the masks of the
    edges' already placed vertices, and only the free ones among them are
    tried, in ascending bit order or, with a domain, in the domain's order.
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
    return search(host.links.get, host.deg, (1 << host.n) - 1, domains)


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

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)


def first_embedding(host: HostIndex, pattern: UniformHypergraph,
                    domains=()) -> tuple[int, ...] | None:
    """The lexicographically first embedding of ``pattern`` into an indexed
    host, as a mapping tuple, or None.

    With ``domains``, pattern vertex i goes only to the vertices of
    ``domains[i]``, tried in their given order, and the result is the first
    mapping in that order.
    """
    if pattern.n > host.n:
        return None
    return _backtrack(host, _compile(pattern).by_index, domains, mode="first")


def contains(host: UniformHypergraph, pattern: UniformHypergraph) -> Embedding | None:
    """Find some subgraph embedding of ``pattern`` in ``host``, if any.

    The pattern vertices are placed by descending degree, so the embedding
    found is deterministic but need not be the lexicographically first one;
    :func:`first_embedding` gives that one.
    """
    if host.s != pattern.s:
        raise UniformityMismatch(f"host uniformity {host.s} != pattern {pattern.s}")
    if pattern.n > host.n:
        return None
    found = _backtrack(HostIndex(host.n, host.edges), _compile(pattern).by_degree,
                       mode="first")
    return None if found is None else Embedding(pattern, host, found)


def count_embeddings(host: UniformHypergraph, pattern: UniformHypergraph) -> int:
    """Number of labelled (injective) embeddings of ``pattern`` in ``host``."""
    if host.s != pattern.s:
        raise UniformityMismatch(f"host uniformity {host.s} != pattern {pattern.s}")
    if pattern.n > host.n:
        return 0
    return _backtrack(HostIndex(host.n, host.edges), _compile(pattern).by_degree,
                      mode="count")


def all_embeddings(host: UniformHypergraph, pattern: UniformHypergraph,
                   domains=()) -> list[tuple[int, ...]]:
    """Every embedding as a mapping tuple, in lexicographic order.

    With ``domains``, pattern vertex i goes only to the vertices of
    ``domains[i]``, tried in their given order.
    """
    if host.s != pattern.s:
        raise UniformityMismatch(f"host uniformity {host.s} != pattern {pattern.s}")
    if pattern.n > host.n:
        return []
    return _backtrack(HostIndex(host.n, host.edges), _compile(pattern).by_index,
                      domains, mode="all")


def count_embeddings_raw(host: HostIndex, pattern: UniformHypergraph) -> int:
    """Embedding count over an indexed host."""
    if pattern.n > host.n:
        return 0
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
    """Number of unlabelled copies: embeddings / |Aut(pattern)|."""
    aut = automorphism_count(pattern)
    return count_embeddings(host, pattern) // aut


def embeds_using_edge(host: HostIndex, pattern: UniformHypergraph,
                      edge: Edge) -> tuple[int, ...] | None:
    """An embedding of ``pattern`` that sends one of its edges onto ``edge``,
    as a mapping tuple, or None if there is none.

    The incremental forbidden-pattern check: when ``edge`` has just been
    added to the index of a pattern-free host, any new copy must use it. The
    mapping names that copy, so a caller can tell later whether all of its
    edges are still in the host.
    """
    if pattern.n > host.n:
        return None
    pinned = [(v,) for v in edge]
    get, deg, everyone = host.links.get, host.deg, (1 << host.n) - 1
    for _, search in _edge_starts(pattern):
        found = search(get, deg, everyone, pinned)
        if found is not None:
            return found
    return None


def copies_through_edge(host: HostIndex, pattern: UniformHypergraph, edge: Edge) -> int:
    """Number of copies of ``pattern`` through ``edge``, an edge of an
    indexed host: each embedding using ``edge`` pins exactly one ordered
    pattern edge onto it, each of the |Aut| / |Stab_i| orderings in the
    orbit of walk i of :func:`_edge_starts` is pinned there by N_i of them,
    and a copy is |Aut| embeddings, so the count is the sum of N_i / |Stab_i|.
    """
    if pattern.n > host.n:
        return 0
    pinned = [(v,) for v in edge]
    get, deg, everyone = host.links.get, host.deg, (1 << host.n) - 1
    return sum(count(get, deg, everyone, pinned) // stab
               for count, stab in _through_edge(pattern))


# ---------------------------------------------------------------------------
# cliques
# ---------------------------------------------------------------------------


def complete_subsets(n: int, s: int, edge_set, r: int) -> list[tuple[int, ...]]:
    """All r-subsets of 0..n-1 whose s-subsets all lie in ``edge_set``."""
    if r < s:
        raise HypergraphError(f"clique order {r} below uniformity {s}")
    cur = sorted(edge_set)
    for _ in range(r - s):
        cur_set = set(cur)
        nxt = []
        for t in cur:
            for v in range(t[-1] + 1, n):
                ok = True
                for i in range(len(t)):
                    if t[:i] + t[i + 1:] + (v,) not in cur_set:
                        ok = False
                        break
                if ok:
                    nxt.append(t + (v,))
        cur = nxt
    return sorted(cur)


@dataclass(frozen=True)
class CliqueFamily:
    """An ordered collection of r-sets, each spanning a clique in the host.

    The host is (r-1)-uniform; "spanning a clique" means all r of the
    (r-1)-subsets of the member are host edges.
    """

    host: UniformHypergraph
    r: int
    members: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.r != self.host.s + 1:
            raise HypergraphError(
                f"clique order {self.r} does not match host uniformity {self.host.s}"
            )
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
    members = complete_subsets(g.n, g.s, g.edge_set, r)
    return CliqueFamily(g, r, tuple(members))


def edge_multiplicity(g: UniformHypergraph,
                      family: CliqueFamily) -> tuple[dict[Edge, int], int]:
    """How many family members contain each edge of g, plus the maximum."""
    if family.host != g:
        raise HypergraphError("family is not hosted in the given hypergraph")
    mult = {e: 0 for e in g.edges}
    for t in family.members:
        for i in range(len(t)):
            mult[t[:i] + t[i + 1:]] += 1
    return mult, max(mult.values(), default=0)


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
