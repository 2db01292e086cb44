"""Exact generalized Turan numbers at small n, with witnesses and a cache.

exact_ex maximizes the number of copies of a pattern T over all F-free
s-uniform hypergraphs on n vertices. The search enumerates hypergraphs up to
isomorphism by orderly generation: a canonical graph is extended only by
edges beyond its last colex position, the extension is kept only if it is
itself canonical, and any branch containing the forbidden pattern is pruned.
The whole walk is one loop over an explicit stack of nodes, and what a
search does not change is built once, before it. Each node keeps the
automorphisms its own canonicity test met, its twin classes as vertex masks
and its other ties as tuples of image bits; a candidate edge that one of
them maps to an earlier colex position is skipped before any test, since
that relabelling of the child beats the child's bitstring.
Each isomorphism class is visited exactly once, so the value is independent
of vertex labelling. A child's copy count is its parent's plus the copies
through its new edge; only the root counts in full.
Among maximizing witnesses the one with the lexicographically smallest
canonical form is kept, which makes tables reproducible across runs and
worker counts. With k workers, this process and k - 1 forked children
claim the subtrees at one depth, one at a time, from a shared counter.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import signal
import sys
import tempfile
import time
from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import combinations
from math import comb
from pathlib import Path

from .canonical import canonical_key, colex_subsets, is_canonical_raw
from .counting import (
    HostIndex,
    UniformityMismatch,
    count_copies,
    embeds_using_edge,
    is_blowup_free,
    materialize,
    through_edge_counter,
)
from .hypergraph import (
    HypergraphError,
    UniformHypergraph,
    check_vertex_count,
    complete,
    make,
    shadow,
)

FULL_GUARD = 36   # potential-edge budget for plain exact runs
LARGE_GUARD = 60  # reachable only with allow_large=True


class InfeasibleError(RuntimeError):
    """The instance exceeds the exact-search feasibility guard."""


class RecordError(RuntimeError):
    """An extremal record fails its own invariants."""


class CacheIntegrityError(RuntimeError):
    """A cache entry is corrupt or collides with a differing value."""


class ChainError(RuntimeError):
    """A shadow chain of exact values decreased, which should be impossible."""


@dataclass(frozen=True)
class ExtremalRecord:
    """A (possibly cached) value of ex(n, T, F) together with its witness.

    mode "exact" promises that no F-free n-vertex host exceeds ``value``;
    mode "heuristic" promises only that the witness attains it. A record
    holds no timing, so two runs of one search give equal records. It checks
    itself when built, from a search or a cache file, and never again.
    """

    n: int
    s: int
    pattern: UniformHypergraph
    forbidden: UniformHypergraph
    value: int
    witness: UniformHypergraph
    mode: str
    nodes: int

    def __post_init__(self) -> None:
        """Check the mode, the witness's shape, its freeness and its count."""
        if self.mode not in ("exact", "heuristic"):
            raise RecordError(f"unknown mode {self.mode!r}")
        if self.witness.n != self.n or self.witness.s != self.s:
            raise RecordError("witness shape does not match the record")
        free, _ = is_blowup_free(self.witness, self.forbidden)
        if not free:
            raise RecordError("witness contains the forbidden pattern")
        if count_copies(self.witness, self.pattern) != self.value:
            raise RecordError("witness does not attain the recorded value")


# ---------------------------------------------------------------------------
# orderly search
# ---------------------------------------------------------------------------


class _Ctx:
    def __init__(self, n, s, pattern, forbidden):
        check_vertex_count(n)
        self.n = n
        self.s = s
        self.pattern = pattern
        # the copies in the empty host, the root of every search; counted
        # here, so that a pattern too large to count fails before any search
        self.empty_count = count_copies(make(n, s, ()), pattern)
        self.forbidden = forbidden
        # a host with fewer edges than F, or fewer vertices, holds no copy of it
        self.fb_min = forbidden.m if forbidden.n <= n else comb(n, s) + 1
        self.host = HostIndex(n)  # the edges of the node being searched


_SPLIT = 6  # the depth whose nodes are the units a parallel search claims


def _explore(ctx: _Ctx, deadline, claim=None, top=True):
    """Search from the empty graph, whose edges ``ctx.host`` holds, depth
    first, children in position order; ``claim=None`` is the serial search.

    One loop over an explicit stack does the walk. Each frame is a node:
    [positions, twins, leaves, target, value, next], with the twin classes
    and leaves its canonicity test met
    (:func:`exturan.canonical.is_canonical_raw`), its bitstring, its copy
    count and the position of its next candidate edge. ``ctx.host`` holds
    the edges of the top frame: each candidate edge is added for its tests
    and stays while its child is on the stack, and a node's own edge is
    removed when its frame is popped.

    A candidate edge that an automorphism of the node maps to a smaller
    vertex mask is skipped untested (:func:`_moved`): colex order on
    s-sets is the order of their masks, so relabelling the child by it puts
    a 1 at an earlier position where the child has a 0, and the child is
    not canonical. A node with neither twin classes nor leaves makes no
    such test. Each other candidate is tested for a forbidden copy through
    it and then for canonicity, both called by their names in this module,
    so that a wrapper installed there sees every call. What a search does
    not change is built before the loop: the potential edges in colex
    order, their vertex masks and pinned vertices, and the counter of
    pattern copies through an edge
    (:func:`exturan.counting.through_edge_counter`). A child's count is
    its parent's plus the copies through its new edge. The deadline is
    read before each candidate; past it the search returns what it has.

    With ``claim``, the nodes at depth ``_SPLIT`` are units numbered in walk
    order; past the unit it holds, the call takes ``claim()``, never below
    the unit just met, and it descends only into units it holds. Only the
    ``top`` call counts and merges the nodes above that depth, so the calls'
    node counts add up to the serial one. Returns (best value, best
    positions, nodes, timed_out), ties in value broken by :func:`_merge`.
    """
    host, s, pot = ctx.host, ctx.s, colex_subsets(ctx.n, ctx.s)
    edges, forbidden, fb_min = host.edges, ctx.forbidden, ctx.fb_min
    masks = [sum(1 << v for v in e) for e in pot]
    pins = [[(v,) for v in e] for e in pot]
    through = through_edge_counter(host, ctx.pattern)
    twins, leaves = is_canonical_raw(host, s, 0)  # the empty graph is canonical
    best = (ctx.empty_count, ())
    nodes = 1 if top else 0
    unit = held = -1  # the last unit met at depth _SPLIT, the last one claimed
    stack = [[(), twins, leaves, 0, best[0], 0]]
    while stack:
        frame = stack[-1]
        positions, twins, leaves, target, value, start = frame
        check = twins or leaves
        depth = len(stack)  # of the children
        for p in range(start, len(pot)):
            if deadline is not None and time.monotonic() > deadline:
                return best[0], best[1], nodes, True
            e, m = pot[p], masks[p]
            if check and _moved(twins, leaves, m, e):
                continue
            host.add(e, m)
            if len(edges) >= fb_min and embeds_using_edge(host, forbidden, e) is not None:
                host.remove(e)
                continue
            bits = target | 1 << p
            found = is_canonical_raw(host, s, bits)
            if found is None:
                host.remove(e)
                continue
            if depth == _SPLIT and claim is not None:
                unit += 1
                if unit > held:
                    held = claim()
                if unit != held:
                    host.remove(e)
                    continue
            frame[5] = p + 1
            child = positions + (p,)
            count = value + through(pins[p])
            if depth >= _SPLIT or top:
                nodes += 1
                best = _merge(best, (count, child))
            stack.append([child, *found, bits, count, p + 1])
            break
        else:
            stack.pop()
            if positions:
                host.remove(pot[positions[-1]])
    return best[0], best[1], nodes, False


def _merge(a, b):
    """The better (value, positions) result: larger value, then smaller positions."""
    if a[0] != b[0]:
        return a if a[0] > b[0] else b
    return a if a[1] <= b[1] else b


def _moved(twins, leaves, m, e) -> bool:
    """Does an automorphism of the node, met by its canonicity test
    (:func:`exturan.canonical.is_canonical_raw`), map the s-set ``e``, of
    vertex mask ``m``, to a smaller vertex mask?

    A twin class t, a mask, moves ``e`` lower iff some adjacent transposition
    of its members does: iff ``e`` holds a member and misses a lower one. So
    with ``x = m & t`` and ``y = t ^ x``, the test is ``x and y and y & -y < x``:
    x is not the lowest members of t. Each of ``leaves`` is the tuple of
    the image bit of every vertex, so the image of ``e`` is the OR of the
    bits of its vertices."""
    for t in twins:
        x = m & t
        y = t ^ x
        if x and y and y & -y < x:
            return True
    for g in leaves:
        image = 0
        for v in e:
            image |= g[v]
        if image < m:
            return True
    return False


def _parallel_search(ctx: _Ctx, workers, deadline):
    """:func:`_explore` here and in ``workers - 1`` forked children, all
    claiming units from one counter: 8 bytes in a pipe, taken by reading
    them and released by writing back the next unit. Each child writes its
    result as JSON to a pipe of its own; the merge rule is order independent.
    A child that fails raises RuntimeError, a fork that fails raises its
    OSError with that round's pipe closed, and a child still running on
    return or raise is killed and reaped."""
    lock_r, lock_w = os.pipe()
    os.write(lock_w, bytes(8))

    def claim():
        unit = int.from_bytes(os.read(lock_r, 8), "big")
        os.write(lock_w, (unit + 1).to_bytes(8, "big"))
        return unit

    running: dict = {}  # child pid -> the read end of its result pipe
    try:
        for _ in range(workers - 1):
            out, into = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(out)
                os.close(into)
                raise
            if pid == 0:
                try:
                    os.write(into, json.dumps(_explore(ctx, deadline, claim, False)).encode())
                    os._exit(0)
                except BaseException:
                    sys.excepthook(*sys.exc_info())
                finally:
                    os._exit(1)
            os.close(into)
            running[pid] = os.fdopen(out, "rb")
        results = [_explore(ctx, deadline, claim)]
        for pid, out in list(running.items()):
            with out:
                data = out.read()
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            del running[pid]
            if code != 0 or not data:
                raise RuntimeError(f"search worker {pid} failed: exit code {code}, "
                                   f"{len(data)} bytes of result")
            results.append(json.loads(data))
    finally:
        for pid, out in running.items():
            out.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        os.close(lock_r)
        os.close(lock_w)
    best = reduce(_merge, [(val, tuple(pos)) for val, pos, _, _ in results])
    return best[0], best[1], sum(r[2] for r in results), any(r[3] for r in results)


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------


@lru_cache(maxsize=64)
def _shared(g: UniformHypergraph) -> UniformHypergraph:
    """The one instance of each pattern, the first one met that is equal to
    ``g``: the pattern caches of :mod:`exturan.counting` then find it by
    identity, with no edge-by-edge equality test per lookup."""
    return g


def _instance(n, pattern, forbidden) -> tuple[UniformHypergraph, UniformHypergraph]:
    """Materialize T and F, each as its shared instance (:func:`_shared`),
    and refuse inputs no search can answer: a negative n, differing
    uniformities, and an edgeless F that fits in n vertices, which every
    host, the empty one included, contains."""
    if n < 0:
        raise HypergraphError(f"vertex count must be >= 0, got {n}")
    pattern = _shared(materialize(pattern))
    forbidden_g = _shared(materialize(forbidden))
    if pattern.s != forbidden_g.s:
        raise UniformityMismatch(
            f"pattern uniformity {pattern.s} != forbidden uniformity {forbidden_g.s}"
        )
    if forbidden_g.m == 0 and forbidden_g.n <= n:
        raise HypergraphError(
            f"the forbidden pattern has no edges and {forbidden_g.n} <= {n} vertices, "
            f"so every host on {n} vertices contains it"
        )
    return pattern, forbidden_g


def exact_ex(n, pattern, forbidden, *, workers: int = 1, timeout: float | None = None,
             allow_large: bool = False, cache: "RecordCache | None" = None) -> ExtremalRecord:
    """Exact maximum number of copies of ``pattern`` in an F-free host.

    The feasibility guard limits the number of potential edges C(n, s) to
    FULL_GUARD, or LARGE_GUARD with ``allow_large``. A timeout converts the
    run into a best-so-far record marked heuristic instead of failing.
    """
    pattern, forbidden_g = _instance(n, pattern, forbidden)
    s = pattern.s
    guard = LARGE_GUARD if allow_large else FULL_GUARD
    if comb(n, s) > guard:
        raise InfeasibleError(
            f"C({n},{s}) = {comb(n, s)} potential edges exceeds the guard {guard}"
        )
    if cache is not None:
        hit = cache.get(n, pattern, forbidden_g, "exact")
        if hit is not None:
            return hit

    ctx = _Ctx(n, s, pattern, forbidden_g)
    deadline = time.monotonic() + timeout if timeout is not None else None
    if workers > 1:
        val, pos, nodes, timed = _parallel_search(ctx, workers, deadline)
    else:
        val, pos, nodes, timed = _explore(ctx, deadline)
    record = ExtremalRecord(
        n=n, s=s, pattern=pattern, forbidden=forbidden_g, value=val,
        witness=make(n, s, [colex_subsets(n, s)[p] for p in pos]),
        mode="heuristic" if timed else "exact", nodes=nodes)
    if cache is not None and not timed:
        cache.put(record)
    return record


def heuristic_lower(n, pattern, forbidden, seed: int = 0,
                    budget: int = 4000) -> ExtremalRecord:
    """Lower-bound witness by randomized local search, reproducible per seed.

    Repeatedly grows a maximal F-free host by shuffled first-fit edge
    additions, records its pattern count, then perturbs by dropping a few
    random edges (occasionally restarting). The count is carried by the
    exact search's counter (:func:`exturan.counting.through_edge_counter`),
    built once: each added edge adds the copies through it and each dropped
    edge takes its copies away before it goes. Worst case the empty host is
    returned, worth 0 unless T is edgeless (then C(n, t) for T on t
    vertices); with n < s there is no edge to try and it is returned at once.

    Each try of an absent edge is one step. An edge refused for a copy of F
    keeps that copy, as the vertex masks of the images of F's other edges;
    on a later try it is tested again only if the copy has lost an edge
    since. While the copy is whole the edge would complete it again, so it
    is refused untested, and the walk, its value and its witness are those
    of testing every try.
    """
    pattern, forbidden_g = _instance(n, pattern, forbidden)
    ctx = _Ctx(n, pattern.s, pattern, forbidden_g)
    pot = list(combinations(range(n), ctx.s))
    masks = [sum(1 << v for v in e) for e in pot]
    pins = [[(v,) for v in e] for e in pot]
    refused: list = [None] * len(pot)  # per edge, the copy that last refused it
    rng = random.Random(seed)

    host = ctx.host
    edges, links = host.edges, host.links
    fedges, fb_min = forbidden_g.edges, ctx.fb_min
    through = through_edge_counter(host, pattern)
    best_val = val = empty = ctx.empty_count
    best_edges: tuple = ()
    steps = 0
    while pot and steps < budget:
        order = list(range(len(pot)))  # the same draws as shuffling pot itself
        rng.shuffle(order)
        for i in order:
            if steps >= budget:
                break
            e = pot[i]
            if e in edges:
                continue
            steps += 1
            copy = refused[i]
            if copy is not None:
                for w in copy:  # is the edge of mask w, lowest bit b, still there?
                    b = w & -w
                    if not links[w ^ b] & b:
                        break
                else:
                    continue
            m = masks[i]
            host.add(e, m)
            # the host was F-free before, so a new copy of F must use e
            found = (embeds_using_edge(host, forbidden_g, e)
                     if len(edges) >= fb_min else None)
            if found is not None:
                host.remove(e)
                bits = [1 << v for v in found]
                copy = []
                for f in fedges:
                    w = 0
                    for u in f:
                        w |= bits[u]
                    if w != m:
                        copy.append(w)
                refused[i] = copy
            else:
                val += through(pins[i])
        if val > best_val:
            best_val = val
            best_edges = tuple(sorted(edges))
        if steps >= budget:
            break
        if edges and rng.random() < 0.85:
            live = sorted(edges)  # stays sorted(edges) as edges are dropped
            for _ in range(rng.randint(1, max(1, len(edges) // 4))):
                e = rng.choice(live)
                live.remove(e)
                val -= through([(v,) for v in e])
                host.remove(e)
        else:
            for e in list(edges):
                host.remove(e)
            val = empty

    return ExtremalRecord(n=n, s=ctx.s, pattern=pattern, forbidden=forbidden_g,
                          value=best_val, witness=make(n, ctx.s, best_edges),
                          mode="heuristic", nodes=steps)


def chain_check(n, forbidden, **kwargs) -> list[tuple[int, ExtremalRecord]]:
    """Exact values ex(n, K_r^{(s)}, shadow_s(F)) for s = 2..r, r = uniformity(F).

    The sequence is non-decreasing in s; a violation raises ChainError (it
    would mean a bug, not a mathematical possibility).
    """
    f = materialize(forbidden)
    r = f.s
    if r < 3:
        raise HypergraphError(f"chain needs uniformity >= 3, got {r}")
    out = []
    for s in range(2, r + 1):
        rec = exact_ex(n, complete(r, s), shadow(f, s), **kwargs)
        out.append((s, rec))
    for (s1, r1), (s2, r2) in zip(out, out[1:]):
        if r1.value > r2.value:
            raise ChainError(
                f"chain decreases: s={s1} gives {r1.value}, s={s2} gives {r2.value}"
            )
    return out


# ---------------------------------------------------------------------------
# persistent record cache
# ---------------------------------------------------------------------------


class RecordCache:
    """One record per file, named by key hash, re-verified on every read.

    Writers go through a temp file of their own and an atomic replace, so
    concurrent writers of one key never interleave inside a file. Corrupt
    entries and exact records colliding with a differing value raise
    CacheIntegrityError instead of being silently used. Heuristic records
    are keyed without seed or budget, and every one of them is a verified
    lower bound, so the cache keeps the better of two.
    """

    def __init__(self, root):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    @staticmethod
    def key_of(n, pattern, forbidden, mode) -> str:
        return (f"n{n}|T:{canonical_key(pattern)}|F:{canonical_key(forbidden)}"
                f"|{mode}")

    def _path(self, key: str) -> Path:
        digest = hashlib.sha256(key.encode()).hexdigest()[:24]
        return self.root / f"{digest}.rec"

    @staticmethod
    def _serialize(record: ExtremalRecord, key: str) -> str:
        header = {
            "key": key,
            "n": record.n,
            "s": record.s,
            "value": record.value,
            "mode": record.mode,
            "nodes": record.nodes,
            "pattern": record.pattern.to_text(),
            "forbidden": record.forbidden.to_text(),
        }
        return json.dumps(header, sort_keys=True) + "\n" + record.witness.to_text()

    @staticmethod
    def _load(path: Path):
        try:
            head, _, body = path.read_text(encoding="utf-8").partition("\n")
            header = json.loads(head)
            if not isinstance(header, dict):
                raise ValueError("the header is not a JSON object")
            witness = UniformHypergraph.from_text(body)
        except (OSError, ValueError, HypergraphError) as exc:
            raise CacheIntegrityError(f"corrupt cache entry {path}: {exc}") from None
        return header, witness

    def _read(self, path: Path, key: str, pattern, forbidden) -> ExtremalRecord:
        header, witness = self._load(path)
        if header.get("key") != key:
            raise CacheIntegrityError(
                f"cache file {path} holds key {header.get('key')!r}, expected {key!r}"
            )
        try:
            return ExtremalRecord(
                n=header["n"], s=header["s"], pattern=pattern, forbidden=forbidden,
                value=header["value"], witness=witness, mode=header["mode"],
                nodes=header["nodes"],
            )
        except KeyError as exc:
            raise CacheIntegrityError(f"cache entry {path} lacks field {exc}") from None
        except RecordError as exc:
            raise CacheIntegrityError(f"cache entry {path} fails verification: {exc}")

    def get(self, n, pattern, forbidden, mode) -> ExtremalRecord | None:
        key = self.key_of(n, pattern, forbidden, mode)
        path = self._path(key)
        if not path.exists():
            return None
        return self._read(path, key, pattern, forbidden)

    def put(self, record: ExtremalRecord) -> Path:
        key = self.key_of(record.n, record.pattern, record.forbidden, record.mode)
        path = self._path(key)
        if path.exists():
            if record.mode == "heuristic":
                held = self._read(path, key, record.pattern, record.forbidden)
                if held.value >= record.value:
                    return path
            else:
                header, _ = self._load(path)
                if header.get("key") != key or header.get("value") != record.value:
                    raise CacheIntegrityError(
                        f"cache file {path} collides with a differing record"
                    )
                return path
        fd, tmp = tempfile.mkstemp(dir=self.root, prefix=path.stem + ".", suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.write(self._serialize(record, key))
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise
        return path
