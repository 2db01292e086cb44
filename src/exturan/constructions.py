"""Certified lower-bound constructions.

Each generator emits a hypergraph together with a machine-checkable
certificate of its claimed properties; the claims are re-verified by the
counting machinery before emission. With ``verify=True``, the default, a
construction that fails its own certificate aborts with diagnostics
(:class:`ConstructionError`); with ``verify=False`` it returns the
certificate with the failed claims marked, and ``construct`` without
``--verify`` writes it and exits 0.
"""

from __future__ import annotations

import random
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product
from math import comb, prod

from .canonical import canonical_key, colex_subsets
from .counting import HostIndex, complete_subsets, contains, first_embedding, index_of, is_blowup_free
from .hypergraph import (
    MAX_VERTICES,
    BlowupSpec,
    HypergraphError,
    PartitionMap,
    UniformHypergraph,
    blowup,
    check_vertex_count,
    complete,
    complete_partite,
    induced,
    make,
    shadow,
)

EXACT_APFREE_GUARD = 40


class ConstructionError(RuntimeError):
    """A construction failed one of its own certified claims."""


# ---------------------------------------------------------------------------
# progression-free sets
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class APFreeSet:
    """A subset of 1..n with no r-term arithmetic progression."""

    n: int
    r: int
    elements: tuple[int, ...]
    exact: bool  # whether the set is a maximum one

    def __post_init__(self):
        if self.r < 3:
            raise HypergraphError(f"progression length must be >= 3, got {self.r}")
        elems = set(self.elements)
        if len(elems) != len(self.elements) or self.elements != tuple(sorted(elems)):
            raise HypergraphError("elements must be sorted and duplicate free")
        if elems and (min(elems) < 1 or max(elems) > self.n):
            raise HypergraphError(f"elements outside 1..{self.n}")
        # a progression inside the set starts with two of its elements; the
        # first one in (difference, start) order is reported
        first = min(((b - a, a) for a, b in combinations(self.elements, 2)
                     if all(a + k * (b - a) in elems for k in range(2, self.r))), default=None)
        if first is not None:
            d, a = first
            ap = tuple(a + k * d for k in range(self.r))
            raise HypergraphError(f"elements contain the progression {ap}")

    def __len__(self) -> int:
        return len(self.elements)


def _closes_progression(chosen: set, x: int, r: int) -> bool:
    """Whether x ends an r-term progression whose other terms are chosen.
    Both searches add elements in increasing order, so no other progression
    through x can be completed."""
    return any(all(x - k * d in chosen for k in range(1, r))
               for d in range(1, (x - 1) // (r - 1) + 1))


def _greedy_apfree(n: int, r: int) -> list[int]:
    chosen: set = set()
    for x in range(1, n + 1):
        if not _closes_progression(chosen, x, r):
            chosen.add(x)
    return sorted(chosen)


def _exact_apfree(n: int, r: int) -> list[int]:
    """Maximum progression-free subset by branch and bound over elements."""
    best_set = _greedy_apfree(n, r)
    best = len(best_set)
    chosen: set = set()

    def dfs(x: int):
        nonlocal best, best_set
        if len(chosen) + (n - x + 1) <= best:
            return
        if x > n:
            if len(chosen) > best:
                best = len(chosen)
                best_set = sorted(chosen)
            return
        if not _closes_progression(chosen, x, r):
            chosen.add(x)
            dfs(x + 1)
            chosen.discard(x)
        dfs(x + 1)

    dfs(1)
    return best_set


def _behrend_elements(n: int) -> list[int]:
    """Sphere construction scaled into 1..n; no 3-term progression because a
    digitwise midpoint forces equal vectors on a strictly convex sphere."""
    best: list[int] = []
    for d in range(2, 9):
        m = 1
        while (2 * (m + 1) - 1) ** d <= 2 * n - 1:
            m += 1
        if m < 2:
            continue
        base = 2 * m - 1
        by_norm = defaultdict(list)
        for vec in product(range(m), repeat=d):
            by_norm[sum(c * c for c in vec)].append(vec)
        weights = [base ** i for i in range(d)]
        for vecs in by_norm.values():
            if len(vecs) <= len(best):
                continue
            mapped = sorted(1 + sum(c * w for c, w in zip(vec, weights)) for vec in vecs)
            if mapped[-1] <= n:
                best = mapped
    if not best:
        best = _greedy_apfree(n, 3)
    return best


def apfree_set(n: int, r: int, mode: str = "exact") -> APFreeSet:
    """Progression-free subset of 1..n.

    Modes: "exact" (maximum set, guarded to n <= 40), "greedy" (maximal),
    "behrend" (sphere construction, r = 3 only). When r > n the full range is
    progression free and returned for every mode.
    """
    if n < 1:
        raise HypergraphError(f"need n >= 1, got {n}")
    if r < 3:
        raise HypergraphError(f"progression length must be >= 3, got {r}")
    if r > n:
        return APFreeSet(n, r, tuple(range(1, n + 1)), exact=True)
    if mode == "exact":
        if n > EXACT_APFREE_GUARD:
            raise HypergraphError(
                f"exact mode is guarded to n <= {EXACT_APFREE_GUARD}, got {n}"
            )
        return APFreeSet(n, r, tuple(_exact_apfree(n, r)), exact=True)
    if mode == "greedy":
        return APFreeSet(n, r, tuple(_greedy_apfree(n, r)), exact=False)
    if mode == "behrend":
        if r != 3:
            raise HypergraphError("the sphere construction needs r = 3")
        return APFreeSet(n, r, tuple(_behrend_elements(n)), exact=False)
    raise HypergraphError(f"unknown mode {mode!r}")


# ---------------------------------------------------------------------------
# certificates
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ClaimResult:
    name: str
    status: str  # "pass" | "fail"
    detail: dict

    def ok(self) -> bool:
        return self.status == "pass"


@dataclass(frozen=True)
class ConstructionCertificate:
    construction: str
    params: dict
    claims: tuple[ClaimResult, ...]

    @property
    def passed(self) -> bool:
        return all(c.ok() for c in self.claims)

    def to_json_dict(self) -> dict:
        return {
            "construction": self.construction,
            "params": self.params,
            "claims": [
                {"name": c.name, "status": c.status, "detail": c.detail}
                for c in self.claims
            ],
            "passed": self.passed,
        }

    def failures(self) -> list[ClaimResult]:
        return [c for c in self.claims if not c.ok()]


def _free_claim(name: str, g: UniformHypergraph, spec: BlowupSpec) -> ClaimResult:
    """The claim that ``g`` holds no copy of the blowup ``spec``, with the
    copy found as its witness when it fails."""
    free, emb = is_blowup_free(g, spec)
    return ClaimResult(name, "pass" if free else "fail",
                       {} if free else {"witness": list(emb.mapping)})


def _require(cert: ConstructionCertificate):
    if not cert.passed:
        lines = [f"{c.name}: {c.detail}" for c in cert.failures()]
        raise ConstructionError(
            f"{cert.construction} certificate failed: " + "; ".join(lines)
        )


# ---------------------------------------------------------------------------
# progression-system construction (r-partite, one edge per progression)
# ---------------------------------------------------------------------------


def lbap_hypergraph(n: int, r: int, ap: APFreeSet) -> tuple[UniformHypergraph, PartitionMap]:
    """r-partite r-uniform system with one edge per (start, difference) pair.

    Class i holds the values 1..(i+1)n; the edge for start a and difference d
    places a + i*d in class i. The result has exactly n*|S| edges, and the
    vertex budget is padded to (r-1)*r*n.
    """
    if ap.n != n or ap.r != r:
        raise HypergraphError(
            f"progression-free set built for (n={ap.n}, r={ap.r}), expected ({n}, {r})"
        )
    offsets = [n * i * (i + 1) // 2 for i in range(r)]
    total = (r - 1) * r * n  # the last class is padded to this budget
    classes = tuple(tuple(range(start, end)) for start, end in zip(offsets, offsets[1:] + [total]))
    edges = []
    for a in range(1, n + 1):
        for d in ap.elements:
            edges.append(tuple(offsets[i] + (a + i * d) - 1 for i in range(r)))
    return make(total, r, edges), PartitionMap(classes)


def verify_lbap_properties(h: UniformHypergraph, parts: PartitionMap, n: int, r: int,
                           ap: APFreeSet) -> ConstructionCertificate:
    """Check the three structural properties of a progression system.

    (1) every (r-1)-subset of vertices lies in at most one edge; (2) for any
    choice x of one vertex per class, some coordinate cannot be swapped to
    another class member while keeping an edge; (3) the vertex and edge
    counts match (r-1)*r*n and n^(r-2)*|S|. Both structural checks read one
    host index: coordinate i of x can be swapped exactly when the link of the
    other r-1 vertices of x meets class i outside x_i, and an edge, visited
    in lexicographic order, shares an (r-1)-subset with an earlier edge
    exactly when the link of that subset holds a vertex below the one it
    drops. Property (2) is checked exactly for every input. It walks, in
    product order, the heads (every coordinate but the last) drawn from the
    transversal edges, and under each head the last class; it finds the
    first violation of the full product scan and, on a pass, reports the
    class product size as ``checked``. The classes must split ``0..h.n-1``
    into ``r`` (possibly empty) classes of an r-uniform host; any other
    shape raises ``HypergraphError``.
    """
    if parts.n != h.n or len(parts.classes) != r or h.s != r:
        raise HypergraphError(
            f"certificate needs {r} classes splitting the {h.n} vertices of an "
            f"{r}-uniform host, got {len(parts.classes)} classes over {parts.n} "
            f"vertices of a {h.s}-uniform host")
    host = index_of(h)
    links = host.links
    claims = []

    # property 1: one edge per (r-1)-subset; an edge's subset is owned by the
    # least edge through it, the one adding the least vertex of its link
    clash = None
    for e, mask in host.edges.items():
        for v in e:
            bit = 1 << v
            below = links[mask ^ bit] & (bit - 1)
            if below:
                sub = [u for u in e if u != v]
                owner = sorted(sub + [(below & -below).bit_length() - 1])
                clash = {"subset": sub, "edges": [owner, list(e)]}
                break
        if clash:
            break
    claims.append(ClaimResult(
        "one-edge-per-subset", "fail" if clash else "pass", clash or {}))

    # property 2: no choice of one vertex per class with every coordinate
    # swappable. The last coordinate of x = head + (v,) swaps only if head
    # plus another last-class vertex is an edge, so every head that can lead
    # to a violation is a transversal edge less its last-class vertex; sorted,
    # the heads come in product order, since every class is sorted
    class_masks = [sum(1 << v for v in c) for c in parts.classes]
    class_of = parts.class_of()
    heads = {tuple(sorted(e, key=class_of.__getitem__))[:-1]
             for e in h.edges if len({class_of[v] for v in e}) == r}

    def swappable(x, mask):  # every coordinate of x, one vertex per class
        for v, cmask in zip(x, class_masks):
            bit = 1 << v
            if not links[mask ^ bit] & (cmask ^ bit):
                return False
        return True

    def first_violation():
        for head in sorted(heads):
            mask = sum(1 << v for v in head)
            fit = links[mask] & class_masks[-1]
            for v in parts.classes[-1]:
                bit = 1 << v
                if fit & ~bit and swappable(head, mask | bit):
                    return {"tuple": [*head, v]}
        return None

    violation = first_violation()
    claims.append(ClaimResult(
        "no-local-swap", "fail" if violation else "pass",
        violation or {"checked": prod(map(len, parts.classes)), "exhaustive": True}))

    # property 3: vertex and edge budgets
    want_vertices = (r - 1) * r * n
    claims.append(ClaimResult(
        "vertex-count", "pass" if h.n == want_vertices else "fail",
        {"have": h.n, "want": want_vertices}))
    want_edges = n ** (r - 2) * len(ap)
    claims.append(ClaimResult(
        "edge-count", "pass" if h.m == want_edges else "fail",
        {"have": h.m, "want": want_edges}))

    return ConstructionCertificate(
        "lbap",
        {"n": n, "r": r, "elements": list(ap.elements), "exact": ap.exact},
        tuple(claims),
    )


def locally_linear_spec(r: int) -> BlowupSpec:
    """Forbidding this blowup (two cliques sharing an edge) makes every edge
    of an (r-1)-uniform host lie in at most one r-clique."""
    return BlowupSpec(complete(r, r - 1), (1,) * (r - 1) + (2,))


@dataclass(frozen=True)
class LbapBundle:
    system: UniformHypergraph
    graph: UniformHypergraph
    certificate: ConstructionCertificate


def build_lbap(n: int, r: int, mode: str = "exact", *,
               verify: bool = True) -> LbapBundle:
    """Full pipeline: progression-free set, r-partite system, shadow graph,
    and one certificate covering the structural and shadow claims. A layout
    beyond ``MAX_VERTICES`` is refused before the progression-free search."""
    if (total := (r - 1) * r * n) > MAX_VERTICES:
        raise HypergraphError(f"vertex count {total} outside supported range 0..{MAX_VERTICES}")
    ap = apfree_set(n, r, mode)
    h, parts = lbap_hypergraph(n, r, ap)
    g = shadow(h, r - 1)
    cert = verify_lbap_properties(h, parts, n, r, ap)
    clique_count = len(complete_subsets(g, r))
    claims = cert.claims + (
        _free_claim("shadow-free", g, locally_linear_spec(r)),
        ClaimResult("shadow-clique-count", "pass" if clique_count == h.m else "fail",
                    {"cliques": clique_count, "edges": h.m}),
    )
    cert = ConstructionCertificate(
        cert.construction, dict(cert.params, parts=[list(c) for c in parts.classes]), claims)
    if verify:
        _require(cert)
    return LbapBundle(h, g, cert)


# ---------------------------------------------------------------------------
# apex construction on top of a free base
# ---------------------------------------------------------------------------


def lb4_base(n: int, r: int, sizes) -> tuple[int, UniformHypergraph]:
    """The base instance of an lb4 construction on n vertices, once the shape
    is checked (r >= 3, r sizes in ascending order, n >= 0): the base's
    vertex count n - floor(n/r) and the (r-1)-uniform complete partite
    pattern on the first r-1 sizes that the base must avoid."""
    sizes = tuple(int(a) for a in sizes)
    if r < 3 or len(sizes) != r:
        raise HypergraphError(f"need r >= 3 class sizes, got {sizes} for r={r}")
    if any(sizes[i] > sizes[i + 1] for i in range(r - 1)):
        raise HypergraphError("sizes must be sorted ascending")
    if n < 0:
        raise HypergraphError(f"vertex count must be >= 0, got {n}")
    return n - n // r, complete_partite(r - 1, sizes[:-1])[0]


def lb4_construct(n: int, r: int, sizes, base: UniformHypergraph, *,
                  verify: bool = True) -> tuple[UniformHypergraph, ConstructionCertificate]:
    """Apex construction: floor(n/r) vertices whose link is the complete
    (r-2)-graph on a blowup-free base occupying the other ceil((r-1)n/r)
    vertices.

    The base is any (r-1)-uniform hypergraph on those vertices that avoids
    the pattern of :func:`lb4_base`; its vertex count and uniformity are
    checked and its freeness is re-checked before use.
    The output avoids the r-class blowup with the given sizes and carries at
    least floor(n/r) * base.m cliques, so an extremal base gives the best
    bound.
    """
    sizes = tuple(int(a) for a in sizes)
    nb, base_forbidden = lb4_base(n, r, sizes)
    na = n - nb
    if base.n != nb:
        raise HypergraphError(f"base witness has {base.n} vertices, expected {nb}")
    if base.s != r - 1:
        raise HypergraphError(f"base witness has uniformity {base.s}, expected {r - 1}")
    if contains(base, base_forbidden) is not None:
        raise ConstructionError("base witness fails its freeness re-check")

    edges = [tuple(v + na for v in e) for e in base.edges]
    b_vertices = range(na, n)
    for a in range(na):
        for rest in colex_subsets(nb, r - 2):
            edges.append((a,) + tuple(v + na for v in rest))
    h = make(n, r - 1, edges)

    claims = [_free_claim("forbidden-free", h, BlowupSpec(complete(r, r - 1), sizes))]
    clique_count = len(complete_subsets(h, r))
    bound = na * base.m
    claims.append(ClaimResult(
        "clique-count", "pass" if clique_count >= bound else "fail",
        {"cliques": clique_count, "bound": bound}))
    apex_ok = all(sum(1 for v in e if v < na) <= 1 for e in h.edges)
    restriction_ok = induced(h, list(b_vertices)) == base
    claims.append(ClaimResult(
        "apex-structure", "pass" if apex_ok and restriction_ok else "fail",
        {"single_apex_per_edge": apex_ok, "base_restriction": restriction_ok}))

    cert = ConstructionCertificate(
        "lb4",
        {"n": n, "r": r, "sizes": list(sizes), "base_value": base.m},
        tuple(claims),
    )
    if verify:
        _require(cert)
    return h, cert


# ---------------------------------------------------------------------------
# probabilistic deletion
# ---------------------------------------------------------------------------


def deletion_probability(n: int, spec: BlowupSpec) -> tuple[Fraction, float]:
    """Edge probability exponent balancing expected forbidden copies against
    expected edges: p = n^(-gamma) with gamma = (v - u)/(e - 1) for a blowup
    on v vertices with e edges over a u-uniform host."""
    if n < 1:
        raise HypergraphError(f"deletion balancing needs n >= 1, got {n}")
    g, _ = blowup(spec)
    if g.m < 2:
        raise HypergraphError("deletion balancing needs a blowup with >= 2 edges")
    gamma = Fraction(g.n - g.s, g.m - 1)
    return gamma, float(n) ** (-float(gamma))


def _next_lex_copy(host: HostIndex, forbidden: UniformHypergraph, phi, cut: int):
    """The lexicographically first copy of ``forbidden`` in the indexed host
    above the mapping ``phi``, given that every map agreeing with ``phi`` on
    pattern vertices 0..cut is no copy.

    A copy above ``phi`` first differs from it at some step l <= cut, where
    it takes a larger vertex. The regions l = cut, ..., 0 (prefix
    ``phi[:l]`` pinned, step l above ``phi[l]``) hold such maps in
    ascending lexicographic order, so the first hit is the answer.
    """
    for ell in range(cut, -1, -1):
        domains = [(v,) for v in phi[:ell]] + [range(phi[ell] + 1, host.n)]
        found = first_embedding(host, forbidden, domains)
        if found is not None:
            return found
    return None


def deletion_construct(n: int, r: int, spec: BlowupSpec, p: float, seed: int, *,
                       verify: bool = True) -> tuple[UniformHypergraph, ConstructionCertificate]:
    """Sample each potential (r-1)-edge independently with probability p, then
    repeatedly remove the lexicographically first edge of the
    lexicographically first surviving copy of the forbidden blowup.

    The copies are found by one lexicographic walk, resumed after each
    deletion rather than restarted, with the same result: deleting an edge
    only removes copies, so no copy below the current one appears, and every
    map that agrees with the current copy up to the pattern vertex whose
    placement completed the deleted edge uses that edge and is no copy. The
    walk therefore resumes at that vertex (see :func:`_next_lex_copy`). It
    runs on one host index, built from the sample and updated per deletion;
    the output hypergraph is built once, at the end.

    Reproducible: identical (n, r, spec, p, seed) give identical output. The
    certificate re-verifies freeness and records the sampling statistics.
    """
    s = r - 1
    if spec.base.s != s:
        raise HypergraphError(
            f"blowup uniformity {spec.base.s} does not match host uniformity {s}")
    if not 0.0 <= p <= 1.0:
        raise HypergraphError(f"edge probability {p} outside [0, 1]")
    check_vertex_count(n)
    rng = random.Random(seed)
    sampled = [e for e in colex_subsets(n, s) if rng.random() < p]
    host = HostIndex(n, sampled)
    forbidden = blowup(spec)[0]

    deletions = 0
    phi = first_embedding(host, forbidden)
    while phi is not None:
        # images of distinct pattern edges differ, so the least one decides
        victim, cut = min((tuple(sorted(phi[v] for v in f)), f[-1]) for f in forbidden.edges)
        host.remove(victim)
        deletions += 1
        phi = _next_lex_copy(host, forbidden, phi, cut)
    g = make(n, s, host.edges)

    claims = [_free_claim("forbidden-free", g, spec)]
    surviving_cliques = len(complete_subsets(g, r))
    claims.append(ClaimResult(
        "statistics", "pass",
        {
            "sampled_edges": len(sampled),
            "expected_sampled_edges": p * comb(n, s),
            "deleted_edges": deletions,
            "surviving_edges": g.m,
            "surviving_cliques": surviving_cliques,
        }))

    cert = ConstructionCertificate(
        "deletion",
        {"n": n, "r": r, "sizes": list(spec.sizes),
         "base": canonical_key(spec.base), "p": p, "seed": seed},
        tuple(claims),
    )
    if verify:
        _require(cert)
    return g, cert
