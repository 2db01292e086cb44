"""Clique-family surgery and the partite blowup-discovery pipeline.

The operations here are the constructive counterparts of the counting
bounds: extracting edge-disjoint clique subfamilies by greedy selection,
thinning a family until no host edge is shared by too many members, and
hunting for a blowup of a pattern through aligned copies and the index of
their auxiliary hypergraph. The blowup classes are found by the embedding
search every other module uses (:func:`counting.first_embedding`), not by
a search of their own.
Everything is deterministic given its seed.
"""

from __future__ import annotations

import random
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product

from .counting import (
    CliqueFamily,
    HostIndex,
    UniformityMismatch,
    all_embeddings,
    edge_multiplicity,
    first_embedding,
)
from .hypergraph import (
    BlowupSpec,
    HypergraphError,
    PartitionMap,
    UniformHypergraph,
    blowup,
    complete,
)


def edge_disjoint_greedy(family: CliqueFamily, b: int) -> CliqueFamily:
    """Pairwise edge-disjoint subfamily by greedy selection in lex order.

    Requires every host edge to lie in fewer than b members; the output then
    has size at least |family| / (r (b-1)): every rejected member shares an
    edge with a selected one, and each used edge blocks at most b-1 members.
    """
    if b < 2:
        raise HypergraphError(f"multiplicity bound must be >= 2, got {b}")
    # an edge lies in at most |family| members, so only a bound that small
    # can be broken
    if b <= len(family.members):
        maxmult = edge_multiplicity(family.host, family)
        if maxmult >= b:
            raise HypergraphError(
                f"family has an edge of multiplicity {maxmult}, bound requires < {b}")
    used: set = set()
    out = []
    for t in sorted(family.members):
        subs = [t[:i] + t[i + 1:] for i in range(len(t))]
        if any(sub in used for sub in subs):
            continue
        out.append(t)
        used.update(subs)
    return CliqueFamily(family.host, family.r, tuple(out))


# ---------------------------------------------------------------------------
# shared-edge groups and thinning
# ---------------------------------------------------------------------------


def shared_edge_groups(family: CliqueFamily, a: int) -> tuple[tuple[int, ...], ...]:
    """All a-subsets of a clique family's members that share a host edge.

    Each group is an ascending a-tuple of member indices, and the groups come
    in lexicographic order; a group whose members share two different edges
    is still listed once.
    """
    if a < 2:
        raise HypergraphError(f"group size must be >= 2, got {a}")
    by_edge = defaultdict(list)
    for idx, t in enumerate(family.members):
        for i in range(len(t)):
            by_edge[t[:i] + t[i + 1:]].append(idx)
    groups = set()
    for idxs in by_edge.values():
        if len(idxs) >= a:
            groups.update(combinations(idxs, a))
    return tuple(sorted(groups))


@dataclass(frozen=True)
class ThinningPlan:
    """Retention probability for breaking shared-edge groups by sampling.

    p satisfies p^a * A = p * N / 2, i.e. p = (N / 2A)^(1/(a-1)); the
    defining power p^(a-1) is kept as an exact rational, and p <= 1 holds
    exactly when N <= 2A.
    """

    clique_count: int
    group_count: int
    group_size: int

    def __post_init__(self):
        if self.clique_count < 1 or self.group_count < 1:
            raise HypergraphError("thinning needs at least one clique and one group")
        if self.group_size < 2:
            raise HypergraphError(f"group size must be >= 2, got {self.group_size}")

    @property
    def retention_power(self) -> Fraction:
        """p^(a-1), exact."""
        return Fraction(self.clique_count, 2 * self.group_count)

    @property
    def retention_probability(self) -> float:
        return float(self.retention_power) ** (1.0 / (self.group_size - 1))

    @property
    def probability_valid(self) -> bool:
        return self.retention_power <= 1


def thin_cliques(family: CliqueFamily, a: int, seed: int = 0) -> CliqueFamily:
    """Subfamily in which no host edge lies in ``a`` or more members.

    If at most half the members' worth of shared groups exist, one member
    (the lexicographically first) is deleted per group; otherwise members are
    first sampled with the plan probability and surviving groups broken the
    same way. Groups already broken by an earlier deletion are skipped. The
    multiplicity postcondition is re-checked on every run; the expected-size
    guarantee is statistical across seeds, never per run.
    """
    if a < 2:
        raise HypergraphError(f"group size must be >= 2, got {a}")
    members = family.members
    n_members = len(members)
    groups = shared_edge_groups(family, a)
    if 2 * len(groups) <= n_members:
        kept = set(range(n_members))
    else:
        plan = ThinningPlan(n_members, len(groups), a)
        rng = random.Random(seed)
        p = plan.retention_probability
        kept = {i for i in range(n_members) if rng.random() < p}
    for grp in groups:
        if all(i in kept for i in grp):
            kept.discard(grp[0])
    out = CliqueFamily(family.host, family.r,
                       tuple(members[i] for i in sorted(kept)))
    if edge_multiplicity(family.host, out) >= a:
        raise RuntimeError("thinning postcondition violated")  # unreachable
    return out


# ---------------------------------------------------------------------------
# aligned copies and the auxiliary hypergraph
# ---------------------------------------------------------------------------


def aligned_copies(g: UniformHypergraph, f: UniformHypergraph,
                   partition: PartitionMap) -> list[tuple[int, ...]]:
    """All embeddings sending pattern vertex i into partition class i.

    Returned as mapping tuples in lexicographic order (classes are disjoint,
    so injectivity is automatic).
    """
    if f.s != g.s:
        raise UniformityMismatch(f"host uniformity {g.s} != pattern {f.s}")
    if len(partition.classes) != f.n:
        raise HypergraphError(
            f"partition has {len(partition.classes)} classes for a pattern "
            f"on {f.n} vertices")
    if partition.n != g.n:
        raise HypergraphError("partition does not cover the host vertex set")
    return all_embeddings(g, f, partition.classes)


def _aux_index(aligned, ell: int, n: int) -> HostIndex:
    """The auxiliary hypergraph of the aligned copies, as a host index."""
    return HostIndex(n, dict.fromkeys(tuple(sorted(copy[:i] + copy[i + 1:]))
                                      for copy in aligned for i in range(ell)))


def _occurrences(embs, n: int):
    """The occurrence table of the embeddings ``embs`` into a host on ``n``
    vertices: their number, and for each host vertex the (embedding index,
    pattern vertex) pairs mapped onto it, in embedding order."""
    occurs = [[] for _ in range(n)]
    for idx, phi in enumerate(embs):
        for pv, hv in enumerate(phi):
            occurs[hv].append((idx, pv))
    return len(embs), occurs


def conditional_partition(g: UniformHypergraph, f: UniformHypergraph,
                          order_seed: int | None = None,
                          occurrences: tuple | None = None) -> PartitionMap:
    """Partition by the method of conditional expectations.

    Vertices are assigned (in a seeded-shuffled order) to the class that
    maximizes the expected number of aligned copies under a uniform random
    completion; the expectation never drops, so the result always carries at
    least ceil(embeddings / l^l) aligned copies. The scores are exact
    integers (expectations scaled by l^l). A caller that partitions many
    times by ``all_embeddings(g, f)`` builds their occurrence table
    (:func:`_occurrences`) once and passes it as ``occurrences``.
    """
    ell = f.n
    if occurrences is None:
        occurrences = _occurrences(all_embeddings(g, f), g.n)
    count, occurs = occurrences
    order = list(range(g.n))
    if order_seed is not None:
        random.Random(order_seed).shuffle(order)
    alive = [True] * count
    weight = [1] * count
    assign = [0] * g.n
    for v in order:
        gains = [0] * ell
        for idx, pv in occurs[v]:
            if alive[idx]:
                gains[pv] += weight[idx]
        best = 0
        for c in range(1, ell):
            if gains[c] > gains[best]:
                best = c
        assign[v] = best
        for idx, pv in occurs[v]:
            if alive[idx]:
                if pv == best:
                    weight[idx] *= ell
                else:
                    alive[idx] = False
    return PartitionMap.from_assignment(assign, ell)


def _threshold(n_emb: int, ell: int) -> int:
    """ceil(n_emb / l^l): of n_emb embeddings, some partition always aligns
    this many, by averaging."""
    return -(n_emb // -(ell ** ell))


# ---------------------------------------------------------------------------
# blowup discovery
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BlowupEmbedding:
    """Disjoint classes witnessing a blowup of the pattern inside the host.

    Class i replaces pattern vertex i: for every pattern edge, every crossing
    choice of vertices from the corresponding classes is a host edge.
    """

    host: UniformHypergraph
    pattern: UniformHypergraph
    classes: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if len(self.classes) != self.pattern.n:
            raise HypergraphError(
                f"{len(self.classes)} classes for a pattern on {self.pattern.n} vertices")
        seen: set = set()
        for cls in self.classes:
            if not cls:
                raise HypergraphError("empty blowup class")
            for v in cls:
                if v in seen:
                    raise HypergraphError(f"vertex {v} appears in two classes")
                if not 0 <= v < self.host.n:
                    raise HypergraphError(f"vertex {v} outside the host")
                seen.add(v)
        es = self.host.edge_set
        for e in self.pattern.edges:
            for pick in product(*(self.classes[i] for i in e)):
                if tuple(sorted(pick)) not in es:
                    raise HypergraphError(
                        f"crossing tuple {tuple(sorted(pick))} is not a host edge")

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(len(c) for c in self.classes)


@lru_cache(maxsize=64)
def _partite_blowup(ell: int, a: int) -> UniformHypergraph:
    """The blowup of K_l^(l-1) with classes of size a, built once per (l, a):
    every attempt of a :func:`find_blowup` call, and every call with the
    same l and a, embeds the same pattern."""
    return blowup(BlowupSpec(complete(ell, ell - 1), (a,) * ell))[0]


def _partite_blowup_classes(aux: HostIndex, partition: PartitionMap, a: int):
    """Classes U_i of a vertices inside partition class i, every crossing
    (l-1)-tuple an edge of the auxiliary hypergraph indexed by ``aux``: the
    first embedding of the blowup of K_l^(l-1) with classes of size a whose
    class i takes its vertices from partition class i. The vertices of a
    class are twins sharing one domain, so that embedding lists each U_i in
    ascending order, and the choice is the first in ``combinations`` order.
    """
    ell = len(partition.classes)
    if ell * a > aux.n:  # no room, and past 64 vertices no pattern to build
        return None
    found = first_embedding(aux, _partite_blowup(ell, a), [partition.classes[v // a] for v in range(ell * a)])
    if found is None:
        return None
    return tuple(found[i:i + a] for i in range(0, ell * a, a))


def find_blowup(g: UniformHypergraph, f: UniformHypergraph, a: int, seed: int = 0,
                retries: int = 200, trace: list | None = None) -> BlowupEmbedding | None:
    """Search for a uniform blowup of ``f`` inside ``g``.

    Seeded partition attempts (conditional-expectation greedy over shuffled
    vertex orders; attempt 0 uses the natural order) are run until one whose
    aligned-copy count meets the averaging threshold also yields the blowup
    through the auxiliary hypergraph, as the first embedding of the
    complete (l-1)-uniform blowup with classes of size ``a`` whose class i
    lies in partition class i; the pulled-back classes are then
    re-validated against the host before being returned. A none-found result
    after the retry budget is a value, not an error.

    The embeddings of ``f`` are enumerated once per call, for the threshold
    and the one occurrence table every attempt's partition reads; each
    attempt's aligned copies come from :func:`aligned_copies`.
    """
    if f.s != g.s:
        raise UniformityMismatch(f"host uniformity {g.s} != pattern {f.s}")
    ell = f.n
    if ell < g.s + 1:
        raise HypergraphError(
            f"pattern on {ell} vertices is too small for uniformity {g.s}")
    if a < 1:
        raise HypergraphError(f"class size must be >= 1, got {a}")
    embs = all_embeddings(g, f)
    threshold = _threshold(len(embs), ell)
    if threshold == 0:
        return None  # no embeddings at all
    occurrences = _occurrences(embs, g.n)
    for k in range(retries):
        order_seed = None if k == 0 else seed * 1_000_003 + k
        part = conditional_partition(g, f, order_seed, occurrences)
        aligned = aligned_copies(g, f, part)
        entry = {"retry": k, "aligned": len(aligned), "threshold": threshold,
                 "aux_edges": None, "found": False}
        if trace is not None:
            trace.append(entry)  # filled in below as the attempt goes on
        if len(aligned) < threshold:
            continue
        aux = _aux_index(aligned, ell, g.n)
        entry["aux_edges"] = len(aux.edges)
        classes = _partite_blowup_classes(aux, part, a)
        if classes is not None:
            try:
                emb = BlowupEmbedding(g, f, classes)
            except HypergraphError:
                continue  # pullback failed validation; keep searching
            entry["found"] = True
            return emb
    return None
