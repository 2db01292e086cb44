"""Immutable uniform hypergraph values and structural operators.

Vertices are dense integers ``0..n-1``. Partite structure travels separately
in :class:`PartitionMap`, so a single carrier type serves hosts, forbidden
patterns and shadows alike. Edges are stored as sorted tuples and the edge
list is kept in lexicographic order, which gives every value a deterministic
serialization (used for cache keys). All values are immutable and safe to
share between concurrent tasks; every operator here is a pure function. None
of them searches: cliques and embeddings are found in
:mod:`exturan.counting`, on the host index that each value keeps there.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product

# An input guard: every search here is exponential in the vertex count, so
# larger inputs are rejected loudly. Vertex masks are Python ints of any
# width; nothing depends on a host fitting a 64-bit word.
MAX_VERTICES = 64

Edge = tuple[int, ...]


class HypergraphError(ValueError):
    """A malformed hypergraph, edge, partition or blowup specification."""


def check_vertex_count(n: int) -> None:
    """Refuse a vertex count outside 0..``MAX_VERTICES``; callers that list
    the C(n, s) potential edges call it first."""
    if not 0 <= n <= MAX_VERTICES:
        raise HypergraphError(f"vertex count {n} outside supported range 0..{MAX_VERTICES}")


@dataclass(frozen=True)
class UniformHypergraph:
    """An s-uniform edge system on n labelled vertices.

    Equality and hashing use exactly ``(n, s, edges)``; the hash is computed
    once, at construction. Instances should be
    built through :func:`make` (or the generators below), which normalize
    arbitrary edge lists; the constructor itself insists on canonical input.
    """

    n: int
    s: int
    edges: tuple[Edge, ...]

    def __post_init__(self):
        check_vertex_count(self.n)
        if self.s < 1:
            raise HypergraphError(f"uniformity must be >= 1, got {self.s}")
        prev = None
        for e in self.edges:
            if len(e) != self.s:
                raise HypergraphError(f"edge {e!r} has size {len(e)}, expected {self.s}")
            for i in range(len(e) - 1):
                if e[i] >= e[i + 1]:
                    raise HypergraphError(
                        f"edge {e!r} has a repeated vertex" if e[i] == e[i + 1]
                        else f"edge {e!r} is not strictly sorted")
            if e[0] < 0 or e[-1] >= self.n:
                raise HypergraphError(f"edge {e!r} has a vertex outside 0..{self.n - 1}")
            if prev is not None and not prev < e:
                raise HypergraphError("edge list is not sorted and duplicate free")
            prev = e
        object.__setattr__(self, "_edge_set", frozenset(self.edges))
        # hashed once: the pattern caches of the embedding engine look a
        # pattern up on every search
        object.__setattr__(self, "_hash", hash((self.n, self.s, self.edges)))

    def __hash__(self) -> int:
        return self._hash  # type: ignore[attr-defined]

    # -- queries ---------------------------------------------------------

    @property
    def m(self) -> int:
        return len(self.edges)

    @property
    def edge_set(self) -> frozenset[Edge]:
        return self._edge_set  # type: ignore[attr-defined]

    # -- text format -------------------------------------------------------
    # First line "s n m", then m lines of s space separated vertex indices,
    # sorted within each line and lines sorted lexicographically. Lines
    # starting with '#' are comments.

    def to_text(self) -> str:
        lines = [f"{self.s} {self.n} {self.m}"]
        lines.extend(" ".join(map(str, e)) for e in self.edges)
        return "\n".join(lines) + "\n"

    @staticmethod
    def from_text(text: str) -> "UniformHypergraph":
        rows = [ln for ln in (raw.strip() for raw in text.splitlines())
                if ln and not ln.startswith("#")]
        if not rows:
            raise HypergraphError("empty hypergraph text")
        head = rows[0].split()
        if len(head) != 3:
            raise HypergraphError(f"bad header {rows[0]!r}, expected 's n m'")
        try:
            s, n, m = (int(x) for x in head)
        except ValueError as exc:
            raise HypergraphError(f"bad header {rows[0]!r}: {exc}") from None
        if len(rows) - 1 != m:
            raise HypergraphError(f"header promises {m} edges, found {len(rows) - 1}")
        edges = []
        for ln in rows[1:]:
            try:
                edges.append([int(x) for x in ln.split()])
            except ValueError as exc:
                raise HypergraphError(f"bad edge line {ln!r}: {exc}") from None
        return make(n, s, edges)


def make(n: int, s: int, edges) -> UniformHypergraph:
    """Build a normalized hypergraph from an arbitrary iterable of edges.

    Edges are converted to ints, sorted internally and deduplicated; the
    constructor then rejects an edge with a repeated vertex, a vertex
    outside ``0..n-1``, or the wrong size, quoting the sorted edge.
    """
    norm = {tuple(sorted(int(v) for v in e)) for e in edges}
    return UniformHypergraph(n, s, tuple(sorted(norm)))


def read_file(path) -> UniformHypergraph:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise HypergraphError(f"{path} is not UTF-8 text: {exc}") from None
    return UniformHypergraph.from_text(text)


def write_file(g: UniformHypergraph, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(g.to_text())


@dataclass(frozen=True)
class PartitionMap:
    """An ordered partition of ``0..n-1`` into (possibly empty) classes."""

    classes: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        seen = set()
        for cls in self.classes:
            for i in range(len(cls) - 1):
                if cls[i] >= cls[i + 1]:
                    raise HypergraphError(f"class {cls!r} is not strictly sorted")
            for v in cls:
                if v in seen:
                    raise HypergraphError(f"vertex {v} appears in two classes")
                seen.add(v)
        if seen != set(range(len(seen))):
            raise HypergraphError("classes do not cover a dense vertex range")

    @property
    def n(self) -> int:
        return sum(len(c) for c in self.classes)

    def class_of(self) -> dict[int, int]:
        return {v: i for i, cls in enumerate(self.classes) for v in cls}

    @staticmethod
    def from_assignment(assignment, k: int) -> "PartitionMap":
        """Partition from a per-vertex class assignment list with k classes."""
        classes = [[] for _ in range(k)]
        for v, c in enumerate(assignment):
            if not 0 <= c < k:
                raise HypergraphError(f"vertex {v} assigned to class {c} outside 0..{k - 1}")
            classes[c].append(v)
        return PartitionMap(tuple(tuple(c) for c in classes))


@dataclass(frozen=True)
class BlowupSpec:
    """A pattern hypergraph together with per-vertex replication counts."""

    base: UniformHypergraph
    sizes: tuple[int, ...]

    def __post_init__(self):
        if len(self.sizes) != self.base.n:
            raise HypergraphError(
                f"{len(self.sizes)} sizes for a base on {self.base.n} vertices"
            )
        if any(a < 1 for a in self.sizes):
            raise HypergraphError("blowup class sizes must be >= 1")


def complete_partite(s: int, sizes) -> tuple[UniformHypergraph, PartitionMap]:
    """Complete l-partite s-uniform hypergraph with the given class sizes.

    Edges are exactly the s-sets meeting s distinct classes in one vertex
    each; requires ``l >= s >= 1``.
    """
    sizes = tuple(int(a) for a in sizes)
    ell = len(sizes)
    if s < 1:
        raise HypergraphError(f"uniformity must be >= 1, got {s}")
    if ell < s:
        raise HypergraphError(f"need at least s={s} classes, got {ell}")
    if any(a < 1 for a in sizes):
        raise HypergraphError("class sizes must be >= 1")
    return blowup(BlowupSpec(complete(ell, s), sizes))


def blowup(spec: BlowupSpec) -> tuple[UniformHypergraph, PartitionMap]:
    """Replace vertex i of the base by a class of spec.sizes[i] vertices.

    Each base edge becomes the complete partite hypergraph over the
    corresponding classes; no other edges appear.
    """
    base = spec.base
    offsets = []
    total = 0
    for a in spec.sizes:
        offsets.append(total)
        total += a
    classes = tuple(
        tuple(range(offsets[i], offsets[i] + spec.sizes[i])) for i in range(base.n)
    )
    edges = []
    for e in base.edges:
        for pick in product(*(classes[i] for i in e)):
            edges.append(pick)
    return make(total, base.s, edges), PartitionMap(classes)


def shadow(g: UniformHypergraph, s: int) -> UniformHypergraph:
    """The s-uniform shadow: all s-subsets contained in some edge of g."""
    if not 2 <= s <= g.s:
        raise HypergraphError(f"shadow uniformity {s} outside 2..{g.s}")
    if s == g.s:
        return g
    edges = set()
    for e in g.edges:
        edges.update(combinations(e, s))
    return UniformHypergraph(g.n, s, tuple(sorted(edges)))


def induced(g: UniformHypergraph, vs) -> UniformHypergraph:
    """Subhypergraph on ``vs``, relabelled to 0..|vs|-1 in sorted order."""
    keep = sorted(set(int(v) for v in vs))
    if keep and (keep[0] < 0 or keep[-1] >= g.n):
        raise HypergraphError(f"vertex outside 0..{g.n - 1}")
    relabel = {v: i for i, v in enumerate(keep)}
    kset = set(keep)
    edges = [tuple(relabel[v] for v in e) for e in g.edges if set(e) <= kset]
    return UniformHypergraph(len(keep), g.s, tuple(sorted(edges)))


def single_edge(s: int) -> UniformHypergraph:
    """The s-uniform hypergraph consisting of one edge on s vertices."""
    return UniformHypergraph(s, s, (tuple(range(s)),))


def complete(n: int, s: int) -> UniformHypergraph:
    """The complete s-uniform hypergraph on n vertices."""
    if n < s:
        return UniformHypergraph(n, s, ())
    return UniformHypergraph(n, s, tuple(combinations(range(n), s)))
