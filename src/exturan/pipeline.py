"""Clique-family surgery and the partite blowup-discovery pipeline.

The operations here are the constructive counterparts of the counting
bounds: lifting a host one uniformity up while preserving clique selection,
extracting edge-disjoint clique subfamilies by greedy selection, thinning a
family until no host edge is shared by too many members, and hunting for a
blowup of a pattern through aligned copies and an auxiliary hypergraph.
Everything is deterministic given its seed.
"""

from __future__ import annotations

import random
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product

from .counting import (
    CliqueFamily,
    HostIndex,
    UniformityMismatch,
    all_embeddings,
    complete_subsets,
    edge_multiplicity,
)
from .hypergraph import (
    HypergraphError,
    PartitionMap,
    UniformHypergraph,
    make,
)


def lift_shadow(g: UniformHypergraph, target: int | None = None) -> UniformHypergraph:
    """Lift a host one uniformity step (or iterated up to ``target``).

    One step replaces an s-uniform host by the (s+1)-uniform hypergraph whose
    edges are exactly the (s+1)-sets spanning a complete clique; an r-set
    spans a clique in the lift iff it does in the original, so clique
    selection is preserved.
    """
    if g.s < 2:
        raise HypergraphError(f"need uniformity >= 2, got {g.s}")
    if target is None:
        target = g.s + 1
    if target < g.s:
        raise HypergraphError(f"cannot lift down to {target} from {g.s}")
    cur = g
    while cur.s < target:
        edges = complete_subsets(cur.n, cur.s, cur.edge_set, cur.s + 1)
        cur = UniformHypergraph(cur.n, cur.s + 1, tuple(edges))
    return cur


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
        _, maxmult = edge_multiplicity(family.host, family)
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
# shared-edge families and thinning
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SharedEdgeFamily:
    """All a-subsets of a clique family whose members share a host edge.

    Groups are unordered a-sets of member indices; a group whose members
    share two different edges is still counted once.
    """

    host: UniformHypergraph
    r: int
    a: int
    groups: tuple[tuple[int, ...], ...]

    @property
    def count(self) -> int:
        return len(self.groups)


def shared_edge_groups(family: CliqueFamily, a: int) -> SharedEdgeFamily:
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
    return SharedEdgeFamily(family.host, family.r, a, tuple(sorted(groups)))


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

    def balance(self) -> tuple[Fraction, Fraction]:
        """Both sides of p^a A = p N / 2, divided by p: equal by construction."""
        return (self.retention_power * self.group_count,
                Fraction(self.clique_count, 2))


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
    groups = shared_edge_groups(family, a).groups
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
    _, maxmult = edge_multiplicity(family.host, out)
    if maxmult >= a:
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
    index = HostIndex(n)
    for copy in aligned:
        for i in range(ell):
            edge = tuple(sorted(copy[:i] + copy[i + 1:]))
            if edge not in index.edges:
                index.add(edge)
    return index


def auxiliary_hypergraph(g: UniformHypergraph, f: UniformHypergraph,
                         partition: PartitionMap) -> UniformHypergraph:
    """(l-1)-uniform l-partite hypergraph of crossing tuples extending to an
    aligned copy; every aligned copy spans a complete clique in it."""
    if f.n < 3:
        raise HypergraphError(f"pattern needs >= 3 vertices, got {f.n}")
    index = _aux_index(aligned_copies(g, f, partition), f.n, g.n)
    return make(g.n, f.n - 1, index.edges)


def conditional_partition(g: UniformHypergraph, f: UniformHypergraph,
                          order_seed: int | None = None,
                          embeddings: list | None = None) -> PartitionMap:
    """Partition by the method of conditional expectations.

    Vertices are assigned (in a seeded-shuffled order) to the class that
    maximizes the expected number of aligned copies under a uniform random
    completion; the expectation never drops, so the result always carries at
    least ceil(embeddings / l^l) aligned copies. The scores are exact
    integers (expectations scaled by l^l). A caller that already holds
    ``all_embeddings(g, f)`` passes it as ``embeddings``.
    """
    ell = f.n
    embs = all_embeddings(g, f) if embeddings is None else embeddings
    occurs = defaultdict(list)
    for idx, phi in enumerate(embs):
        for pv, hv in enumerate(phi):
            occurs[hv].append((idx, pv))
    order = list(range(g.n))
    if order_seed is not None:
        random.Random(order_seed).shuffle(order)
    alive = [True] * len(embs)
    weight = [1] * len(embs)
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


def _partite_blowup_classes(aux: HostIndex, partition: PartitionMap, a: int):
    """Classes U_i inside partition class i, |U_i| = a, with every crossing
    (l-1)-class tuple an edge of the auxiliary hypergraph indexed by ``aux``.

    The first such choice in the order of trying every a-subset of class j
    after U_0..U_{j-1}. Every new crossing tuple holds exactly one vertex of
    U_j, so an a-subset passes exactly when each of its members passes alone.
    A vertex passes when it completes every crossing (l-2)-tuple of the
    chosen classes to an edge, so the passing vertices form the AND of those
    tuples' link masks (see :class:`HostIndex`). Each level therefore filters
    its class once through that mask and walks the a-subsets of what is
    left: these are the passing a-subsets, in the same order, so the first
    result is the same.
    """
    ell = len(partition.classes)
    get = aux.links.get
    chosen: list[tuple[int, ...]] = []

    def rec(j):
        if j == ell:
            return True
        fit = -1  # every vertex, until a crossing tuple narrows it
        for head in combinations(range(j), ell - 2):
            for pick in product(*(chosen[i] for i in head)):
                fit &= get(sum(1 << v for v in pick), 0)
        for u in combinations([x for x in partition.classes[j] if fit >> x & 1], a):
            chosen.append(u)
            if rec(j + 1):
                return True
            chosen.pop()
        return False

    return tuple(chosen) if rec(0) else None


def find_blowup(g: UniformHypergraph, f: UniformHypergraph, a: int, seed: int = 0,
                retries: int = 200, trace: list | None = None) -> BlowupEmbedding | None:
    """Search for a uniform blowup of ``f`` inside ``g``.

    Seeded partition attempts (conditional-expectation greedy over shuffled
    vertex orders; attempt 0 uses the natural order) are run until one whose
    aligned-copy count meets the averaging threshold also yields the blowup
    through the auxiliary hypergraph; the pulled-back classes are then
    re-validated against the host before being returned. A none-found result
    after the retry budget is a value, not an error.

    The embeddings of ``f`` are enumerated once per call; each attempt's
    aligned copies are the ones its partition aligns, kept in their
    lexicographic order, which is the order :func:`aligned_copies` returns.
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
    for k in range(retries):
        order_seed = None if k == 0 else seed * 1_000_003 + k
        part = conditional_partition(g, f, order_seed, embs)
        class_of = part.class_of()
        aligned = [phi for phi in embs
                   if all(class_of[v] == i for i, v in enumerate(phi))]
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
