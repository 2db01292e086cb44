"""Exact generalized Turan numbers at small n, with witnesses and a cache.

exact_ex maximizes the number of copies of a pattern T over all F-free
s-uniform hypergraphs on n vertices. The search enumerates hypergraphs up to
isomorphism by orderly generation: a canonical graph is extended only by
edges beyond its last colex position, the extension is kept only if it is
itself canonical, and any branch containing the forbidden pattern is pruned.
Each node keeps the automorphisms its own canonicity test met; a candidate
edge that one of them maps to an earlier colex position is skipped before
any test, since that relabelling of the child beats the child's bitstring.
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
    compile_kernel,
    copies_through_edge,
    count_copies,
    embeds_using_edge,
    is_blowup_free,
    materialize,
)
from .hypergraph import HypergraphError, UniformHypergraph, complete, make, shadow

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
    mode "heuristic" promises only that the witness attains it.
    """

    n: int
    s: int
    pattern: UniformHypergraph
    forbidden: UniformHypergraph
    value: int
    witness: UniformHypergraph
    mode: str
    nodes: int
    elapsed: float

    def verify(self) -> None:
        """Re-check the self-certifying part: freeness and the count."""
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
        self.n = n
        self.s = s
        self.pot = colex_subsets(n, s)
        self.M = len(self.pot)
        self.pattern = pattern
        # the copies in the empty host, the root of every search; counted
        # here, so that a pattern too large to count fails before any search
        self.empty_count = count_copies(make(n, s, ()), pattern)
        self.moved = _moved_below(s)
        self.forbidden = forbidden
        # a host with fewer edges than F, or fewer vertices, holds no copy of it
        self.fb_min = forbidden.m if forbidden.n <= n else self.M + 1
        self.host = HostIndex(n)  # the edges of the node being searched

    def forbidden_copy(self, edge):
        """A copy of the forbidden pattern through ``edge``, just added to
        ``self.host``, as a mapping tuple, or None: the host was F-free
        before, so a new copy must use the edge."""
        if len(self.host.edges) < self.fb_min:
            return None
        return embeds_using_edge(self.host, self.forbidden, edge)


class _Timeout(Exception):
    pass


_SPLIT = 6  # the depth whose nodes are the units a parallel search claims


def _explore(ctx: _Ctx, deadline, claim=None, top=True):
    """Search from the empty graph, whose edges ``ctx.host`` holds, depth
    first, children in position order; ``claim=None`` is the serial search.

    With ``claim``, the nodes at depth ``_SPLIT`` are units numbered in walk
    order; past the unit it holds, the call takes ``claim()``, never below
    the unit just met, and it descends only into units it holds. Only the
    ``top`` call counts and merges the nodes above that depth, so the calls'
    node counts add up to the serial one. ``stack`` holds (value, children)
    for each node on the path. Returns (best value, best positions, nodes,
    timed_out), ties in value broken by :func:`_merge`.
    """
    syms: list = []
    is_canonical_raw(ctx.host, ctx.s, syms)
    best = (ctx.empty_count, ())
    nodes = 1 if top else 0
    unit = held = -1  # the last unit met at depth _SPLIT, the last one claimed
    timed = False
    stack = [(best[0], _children(ctx, (), syms, 0, deadline))]
    try:
        while stack:
            value, kids = stack[-1]
            child = next(kids, None)
            if child is None:
                stack.pop()
                continue
            depth = len(stack)
            if depth == _SPLIT and claim is not None:
                unit += 1
                if unit > held:
                    held = claim()
                if unit != held:
                    continue
            value += copies_through_edge(ctx.host, ctx.pattern, ctx.pot[child[0][-1]])
            if depth >= _SPLIT or top:
                nodes += 1
                best = _merge(best, (value, child[0]))
            stack.append((value, _children(ctx, *child, deadline)))
    except _Timeout:
        timed = True
    return best[0], best[1], nodes, timed


def _merge(a, b):
    """The better (value, positions) result: larger value, then smaller positions."""
    if a[0] != b[0]:
        return a if a[0] > b[0] else b
    return a if a[1] <= b[1] else b


@lru_cache(maxsize=None)
def _moved_below(s: int):
    """``moved(syms, e)``: does an automorphism in ``syms``, a list of vertex
    images, map the s-set ``e`` to a smaller vertex mask? Generated per s as
    the kernels of :mod:`exturan.canonical` are, with ``e`` unpacked."""
    names = [f"a{i:d}" for i in range(s)]
    lines = ["def _moved(syms, e):",
             f"    {', '.join(names)}, = e",
             f"    m = {' | '.join(f'1 << {a}' for a in names)}",
             "    for g in syms:",
             f"        if {' | '.join(f'1 << g[{a}]' for a in names)} < m:",
             "            return True",
             "    return False"]
    return compile_kernel(lines, "_moved", f"s={s:d}")


def _children(ctx: _Ctx, positions, syms, target, deadline):
    """The canonical F-free one-edge extensions of the node ``ctx.host``
    holds, whose bitstring is ``target``, in position order, each as a
    node: positions, the automorphisms its canonicity test met, bitstring.

    Each candidate edge is added to ``ctx.host`` for its tests and stays
    there while its child is yielded; it is removed before the next
    candidate, and when the generator closes.

    A candidate edge that an automorphism in ``syms`` maps to a smaller
    vertex mask is skipped untested: colex order on s-sets is the order of
    their masks, so relabelling the child by it puts a 1 at an earlier
    position where the child has a 0, and the child is not canonical.
    Raises _Timeout before any candidate tried after ``deadline``.
    """
    host, moved = ctx.host, ctx.moved
    start = positions[-1] + 1 if positions else 0
    for p in range(start, ctx.M):
        if deadline is not None and time.monotonic() > deadline:
            raise _Timeout
        e = ctx.pot[p]
        if moved(syms, e):
            continue
        host.add(e)
        try:
            if ctx.forbidden_copy(e) is not None:
                continue
            syms2: list = []
            target2 = target | 1 << p
            if is_canonical_raw(host, ctx.s, syms2, target2):
                yield positions + (p,), syms2, target2
        finally:
            host.remove(e)


def _parallel_search(ctx: _Ctx, workers, deadline):
    """:func:`_explore` here and in ``workers - 1`` forked children, all
    claiming units from one counter: 8 bytes in a pipe, taken by reading
    them and released by writing back the next unit. Each child writes its
    result as JSON to a pipe of its own; the merge rule is order independent.
    A child that fails raises RuntimeError, and a child still running on
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
            pid = os.fork()
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


def _instance(n, pattern, forbidden) -> tuple[UniformHypergraph, UniformHypergraph]:
    """Materialize T and F and refuse inputs no search can answer: a
    negative n, differing uniformities, and an edgeless F that fits in n
    vertices, which every host, the empty one included, contains."""
    if n < 0:
        raise HypergraphError(f"vertex count must be >= 0, got {n}")
    pattern = materialize(pattern)
    forbidden_g = materialize(forbidden)
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


def _record(ctx: _Ctx, edges, value, mode, nodes, t0) -> ExtremalRecord:
    """The verified record of a finished search."""
    record = ExtremalRecord(
        n=ctx.n, s=ctx.s, pattern=ctx.pattern, forbidden=ctx.forbidden, value=value,
        witness=make(ctx.n, ctx.s, edges), mode=mode, nodes=nodes,
        elapsed=time.perf_counter() - t0,
    )
    record.verify()
    return record


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

    t0 = time.perf_counter()
    ctx = _Ctx(n, s, pattern, forbidden_g)
    deadline = time.monotonic() + timeout if timeout is not None else None
    if workers > 1:
        val, pos, nodes, timed = _parallel_search(ctx, workers, deadline)
    else:
        val, pos, nodes, timed = _explore(ctx, deadline)
    record = _record(ctx, [ctx.pot[p] for p in pos], val,
                     "heuristic" if timed else "exact", nodes, t0)
    if cache is not None and not timed:
        cache.put(record)
    return record


def heuristic_lower(n, pattern, forbidden, seed: int = 0,
                    budget: int = 4000) -> ExtremalRecord:
    """Lower-bound witness by randomized local search, reproducible per seed.

    Repeatedly grows a maximal F-free host by shuffled first-fit edge
    additions, records its pattern count, then perturbs by dropping a few
    random edges (occasionally restarting). The count is carried: each
    added edge adds the copies through it and each dropped edge takes its
    copies away before it goes. Worst case the empty host is returned,
    worth 0 unless T is edgeless (then C(n, t) for T on t vertices); with
    n < s there is no edge to try and it is returned at once.

    Each try of an absent edge is one step. A rejected edge keeps the other
    edges of the F-copy that rejected it; while they are all in the host, a
    later try of the edge is rejected without a search, since that copy
    would come back with it. Hosts, steps, values and witnesses are those
    of searching every time.
    """
    pattern, forbidden_g = _instance(n, pattern, forbidden)
    t0 = time.perf_counter()
    ctx = _Ctx(n, pattern.s, pattern, forbidden_g)
    pot = list(combinations(range(n), ctx.s))
    rng = random.Random(seed)

    host = ctx.host
    edges = host.edges
    best_val = val = empty = ctx.empty_count
    best_edges: tuple = ()
    kept: dict = {}  # rejected edge -> the other edges of the copy that rejected it
    steps = 0
    while pot and steps < budget:
        order = pot[:]
        rng.shuffle(order)
        for e in order:
            if steps >= budget:
                break
            if e in edges:
                continue
            steps += 1
            if e in kept and edges.keys() >= kept[e]:
                continue
            host.add(e)
            found = ctx.forbidden_copy(e)
            if found is not None:
                host.remove(e)
                images = (tuple(sorted(found[v] for v in f)) for f in forbidden_g.edges)
                kept[e] = {f for f in images if f != e}
            else:
                val += copies_through_edge(host, pattern, e)
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
                val -= copies_through_edge(host, pattern, e)
                host.remove(e)
        else:
            for e in list(edges):
                host.remove(e)
            val = empty

    return _record(ctx, best_edges, best_val, "heuristic", steps, t0)


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
            "elapsed": record.elapsed,
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
            record = ExtremalRecord(
                n=header["n"], s=header["s"], pattern=pattern, forbidden=forbidden,
                value=header["value"], witness=witness, mode=header["mode"],
                nodes=header["nodes"], elapsed=header["elapsed"],
            )
            record.verify()
        except KeyError as exc:
            raise CacheIntegrityError(f"cache entry {path} lacks field {exc}") from None
        except RecordError as exc:
            raise CacheIntegrityError(f"cache entry {path} fails verification: {exc}")
        return record

    def get(self, n, pattern, forbidden, mode) -> ExtremalRecord | None:
        key = self.key_of(n, pattern, forbidden, mode)
        path = self._path(key)
        if not path.exists():
            return None
        return self._read(path, key, pattern, forbidden)

    def put(self, record: ExtremalRecord) -> Path:
        record.verify()
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
