"""Compute small exact tables of generalized Turan values.

Defaults stay inside the exact envelope that finishes in seconds (graphs
up to 8 vertices, 3-uniform hosts up to 6); both limits are plain flags.
At 7 vertices the 3-uniform tables run for minutes without finishing.

Usage:
    python3 scripts/ex_tables.py [--max-n-graphs 8] [--max-n-triple 6] [--cache DIR]
"""

import argparse
import time

from exturan import (
    BlowupSpec,
    RecordCache,
    complete,
    exact_ex,
    single_edge,
)

GRAPH_CASES = [
    ("triangles, no two sharing an edge", complete(3, 2),
     BlowupSpec(complete(3, 2), (1, 1, 2))),
    ("triangles, no octahedron", complete(3, 2),
     BlowupSpec(complete(3, 2), (2, 2, 2))),
    ("edges, no 4-cycle", single_edge(2), BlowupSpec(single_edge(2), (2, 2))),
    ("K4 copies, no K4(1,1,1,2)", complete(4, 2),
     BlowupSpec(complete(4, 2), (1, 1, 1, 2))),
]

TRIPLE_CASES = [
    ("4-cliques, no two sharing an edge", complete(4, 3),
     BlowupSpec(complete(4, 3), (1, 1, 1, 2))),
    ("3-edges, no complete 4-set", single_edge(3), complete(4, 3)),
]


def run_table(title, pattern, forbidden, n_lo, n_hi, cache):
    print(f"\n== {title} ==")
    for n in range(n_lo, n_hi + 1):
        t0 = time.time()
        rec = exact_ex(n, pattern, forbidden, cache=cache)
        print(f"  n={n:2d}  value={rec.value:4d}  nodes={rec.nodes:7d}  "
              f"{time.time() - t0:6.2f}s")


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-n-graphs", type=int, default=8)
    ap.add_argument("--max-n-triple", type=int, default=6)
    ap.add_argument("--cache", default=None)
    args = ap.parse_args()
    cache = RecordCache(args.cache) if args.cache else None
    for title, pattern, forbidden in GRAPH_CASES:
        run_table(title, pattern, forbidden, 4, args.max_n_graphs, cache)
    for title, pattern, forbidden in TRIPLE_CASES:
        run_table(title, pattern, forbidden, 4, args.max_n_triple, cache)


if __name__ == "__main__":
    main()
