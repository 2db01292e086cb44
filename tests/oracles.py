"""Independent brute-force oracles used to pin expected values.

Everything here enumerates raw search spaces (permutations, edge subsets,
bit masks) without reusing the library's search machinery, so oracle
agreement is meaningful.
"""

import random
from itertools import combinations, permutations, product

import numpy as np

from exturan.hypergraph import BlowupSpec, UniformHypergraph, blowup, make


def brute_embeddings(host: UniformHypergraph, pattern: UniformHypergraph):
    """All injective maps sending pattern edges onto host edges."""
    hs = host.edge_set
    out = []
    for image in permutations(range(host.n), pattern.n):
        if all(tuple(sorted(image[v] for v in e)) in hs for e in pattern.edges):
            out.append(tuple(image))
    return out


def brute_automorphisms(pattern: UniformHypergraph) -> int:
    es = pattern.edge_set
    return sum(
        1 for perm in permutations(range(pattern.n))
        if all(tuple(sorted(perm[v] for v in e)) in es for e in pattern.edges)
    )


def brute_contains(host, pattern) -> bool:
    hs = host.edge_set
    for image in permutations(range(host.n), pattern.n):
        if all(tuple(sorted(image[v] for v in e)) in hs for e in pattern.edges):
            return True
    return False


def brute_count_copies(host, pattern) -> int:
    return len(brute_embeddings(host, pattern)) // brute_automorphisms(pattern)


def brute_twin_classes(g: UniformHypergraph) -> list[int]:
    """Vertex masks of the classes of vertices whose swap maps the edge set
    onto itself, found by swapping every pair; listed by degree groups in
    the order of their least vertex, each group's classes by least vertex."""
    es = g.edge_set

    def twins(u, v):
        swap = {u: v, v: u}
        return {tuple(sorted(swap.get(w, w) for w in e)) for e in g.edges} == es

    deg = [sum(v in e for e in g.edges) for v in range(g.n)]
    lead = {}  # degree -> least vertex of that degree
    for v in range(g.n):
        lead.setdefault(deg[v], v)
    classes, placed = [], set()
    for u in range(g.n):
        if u not in placed:
            cls = [u] + [v for v in range(u + 1, g.n) if twins(u, v)]
            placed.update(cls)
            classes.append((lead[deg[u]], u, sum(1 << v for v in cls)))
    return [mask for _, _, mask in sorted(classes)]


def brute_cliques(g: UniformHypergraph, r: int):
    es = g.edge_set
    return [
        t for t in combinations(range(g.n), r)
        if all(sub in es for sub in combinations(t, g.s))
    ]


def brute_isomorphic(g1: UniformHypergraph, g2: UniformHypergraph) -> bool:
    if (g1.n, g1.s, g1.m) != (g2.n, g2.s, g2.m):
        return False
    es2 = g2.edge_set
    for perm in permutations(range(g1.n)):
        if all(tuple(sorted(perm[v] for v in e)) in es2 for e in g1.edges):
            return True
    return False


def _colex_bits(n: int, s: int, edges) -> tuple[int, ...]:
    subsets = sorted(combinations(range(n), s), key=lambda t: t[::-1])
    present = set(edges)
    return tuple(1 if t in present else 0 for t in subsets)


def brute_canonical_positions(g: UniformHypergraph) -> tuple[int, ...]:
    """Colex positions of the lexicographically largest edge bitstring over
    all n! relabellings of g."""
    best = max(
        _colex_bits(g.n, g.s, [tuple(sorted(perm[v] for v in e)) for e in g.edges])
        for perm in permutations(range(g.n))
    )
    return tuple(i for i, b in enumerate(best) if b)


def own_positions(g: UniformHypergraph) -> tuple[int, ...]:
    """Colex positions of g's own edges, with no relabelling."""
    return tuple(i for i, b in enumerate(_colex_bits(g.n, g.s, g.edges)) if b)


def naive_max_copies(n: int, pattern: UniformHypergraph,
                     forbidden: UniformHypergraph) -> int:
    """Enumerate every edge subset, filter the forbidden-free ones, maximize.

    Only sensible for C(n, s) <= ~15 potential edges.
    """
    s = pattern.s
    pot = list(combinations(range(n), s))
    best = 0
    for mask in range(1 << len(pot)):
        g = make(n, s, [pot[i] for i in range(len(pot)) if mask >> i & 1])
        if forbidden.n <= n and brute_contains(g, forbidden):
            continue
        best = max(best, brute_count_copies(g, pattern))
    return best


def diamond_free_max_triangles(n: int) -> int:
    """Vectorized enumerate-all-graphs oracle: the maximum triangle count over
    graphs on n vertices in which no edge lies in two triangles."""
    pairs = list(combinations(range(n), 2))
    pos = {e: i for i, e in enumerate(pairs)}
    m = len(pairs)
    masks = np.arange(1 << m, dtype=np.int64)
    tris = list(combinations(range(n), 3))
    tri_arr = {}
    for a, b, c in tris:
        i, j, k = pos[(a, b)], pos[(a, c)], pos[(b, c)]
        tri_arr[(a, b, c)] = ((masks >> i) & (masks >> j) & (masks >> k) & 1).astype(np.int8)
    total = np.zeros(1 << m, dtype=np.int16)
    for arr in tri_arr.values():
        total += arr
    free = np.ones(1 << m, dtype=bool)
    for e in pairs:
        cnt = np.zeros(1 << m, dtype=np.int8)
        for t in tris:
            if e[0] in t and e[1] in t:
                cnt += tri_arr[t]
        free &= cnt <= 1
    return int(total[free].max())


def apfree_max_by_masks(n: int, r: int) -> int:
    """Maximum progression-free subset size by scanning all 2^n subsets."""
    aps = []
    for d in range(1, (n - 1) // (r - 1) + 1):
        for a in range(1, n - (r - 1) * d + 1):
            mask = 0
            for j in range(r):
                mask |= 1 << (a + j * d - 1)
            aps.append(mask)
    masks = np.arange(1 << n, dtype=np.int64)
    good = np.ones(1 << n, dtype=bool)
    for m in aps:
        good &= (masks & m) != m
    sizes = np.zeros(1 << n, dtype=np.int8)
    for bit in range(n):
        sizes += ((masks >> bit) & 1).astype(np.int8)
    return int(sizes[good].max())


def first_progression(n: int, r: int, elements):
    """The first r-term progression inside 1..n, in (difference, start)
    order, whose terms all lie in ``elements``, or None: every progression
    of the range is tried."""
    elems = set(elements)
    for d in range(1, (n - 1) // (r - 1) + 1):
        for a in range(1, n - (r - 1) * d + 1):
            ap = tuple(a + j * d for j in range(r))
            if elems.issuperset(ap):
                return ap
    return None


def brute_first_copy(host: UniformHypergraph, pattern: UniformHypergraph):
    """The lexicographically first embedding: the first image tuple, in
    ``permutations`` order, that maps every pattern edge onto a host edge."""
    hs = host.edge_set
    return next((im for im in permutations(range(host.n), pattern.n)
                 if all(tuple(sorted(im[v] for v in e)) in hs for e in pattern.edges)),
                None)


def restart_deletion(n: int, r: int, spec: BlowupSpec, p: float, seed: int,
                     first_copy=brute_first_copy):
    """The deletion method restarted from scratch after every deletion.

    Samples the (r-1)-sets in colex order with the construction's seeded
    draws, then repeatedly takes the lexicographically first copy of the
    blowup, as ``first_copy(host, pattern)`` gives it (an image tuple or
    None), and deletes its smallest image edge. Returns the final host and
    the statistics the construction's certificate records.
    """
    s = r - 1
    rng = random.Random(seed)
    colex = sorted(combinations(range(n), s), key=lambda t: t[::-1])
    sampled = [e for e in colex if rng.random() < p]
    pattern = blowup(spec)[0]
    edges = set(sampled)
    deletions = 0
    while True:
        image = first_copy(make(n, s, edges), pattern)
        if image is None:
            break
        edges.discard(min(tuple(sorted(image[v] for v in e)) for e in pattern.edges))
        deletions += 1
    g = make(n, s, edges)
    stats = {
        "sampled_edges": len(sampled),
        "expected_sampled_edges": p * len(colex),
        "deleted_edges": deletions,
        "surviving_edges": g.m,
        "surviving_cliques": len(brute_cliques(g, r)),
    }
    return g, stats


def first_fit_heuristic(n: int, pattern: UniformHypergraph, forbidden: UniformHypergraph,
                        seed: int, budget: int):
    """The seeded local search of ``heuristic_lower``, testing F by brute force.

    Makes the same draws in the same order: each round shuffles the s-sets
    (in ``combinations`` order) and tries the absent ones first-fit, one
    step each, keeping an edge unless the host with it contains F (by
    ``brute_contains`` on the whole host); then, while steps remain, it
    drops 1 to max(1, m // 4) random edges with probability 0.85, or else
    restarts from the empty host. Returns the best pattern count seen (by
    ``brute_count_copies``, first best kept) and the host attaining it.
    """
    s = pattern.s
    pot = list(combinations(range(n), s))
    rng = random.Random(seed)
    edges: set = set()
    best = make(n, s, [])
    best_val = brute_count_copies(best, pattern)
    steps = 0
    while steps < budget:
        order = pot[:]
        rng.shuffle(order)
        for e in order:
            if steps >= budget:
                break
            if e in edges:
                continue
            steps += 1
            if not brute_contains(make(n, s, edges | {e}), forbidden):
                edges.add(e)
        g = make(n, s, edges)
        val = brute_count_copies(g, pattern)
        if val > best_val:
            best_val, best = val, g
        if steps >= budget:
            break
        if edges and rng.random() < 0.85:
            for _ in range(rng.randint(1, max(1, len(edges) // 4))):
                edges.discard(rng.choice(sorted(edges)))
        else:
            edges.clear()
    return best_val, best


def exhaustive_blowup_classes(aux: UniformHypergraph, classes, a: int):
    """The partite class search trying every a-subset of every class.

    Picks a-subsets U_0, U_1, ... of the given classes in ``combinations``
    order, testing after each pick every crossing tuple that uses it, and
    backtracks on failure; returns the first full choice or None.
    """
    ell = len(classes)
    es = aux.edge_set
    chosen = []

    def check_new(j):
        for head in combinations(range(j), ell - 2):
            for pick in product(*(chosen[i] for i in head + (j,))):
                if tuple(sorted(pick)) not in es:
                    return False
        return True

    def rec(j):
        if j == ell:
            return True
        for u in combinations(classes[j], a):
            chosen.append(u)
            if check_new(j) and rec(j + 1):
                return True
            chosen.pop()
        return False

    return tuple(chosen) if rec(0) else None


def brute_swap_violation(host: UniformHypergraph, classes):
    """The first choice x of one vertex per class, in product order, whose
    every coordinate can be swapped: some other member of its class put in
    its place leaves an edge. None if no choice is bad."""
    es = host.edge_set
    for x in product(*classes):
        if all(any(tuple(sorted(x[:i] + (y,) + x[i + 1:])) in es for y in cls if y != x[i])
               for i, cls in enumerate(classes)):
            return x
    return None


def brute_subset_clash(host: UniformHypergraph):
    """The first edge, in lexicographic order, one of whose (r-1)-subsets
    (dropping vertices left to right) lies in an earlier edge, as
    ``{"subset", "edges": [first earlier edge through it, the edge]}``;
    None if every (r-1)-subset lies in at most one edge."""
    for j, e in enumerate(host.edges):
        for i in range(len(e)):
            sub = e[:i] + e[i + 1:]
            for f in host.edges[:j]:
                if set(sub) <= set(f):
                    return {"subset": list(sub), "edges": [list(f), list(e)]}
    return None
