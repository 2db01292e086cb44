"""Walk the blowup-discovery pipeline on a blown-up host and dump the trace.

Builds the uniform blowup of a complete pattern, then runs the partition ->
aligned copies -> auxiliary hypergraph -> partite search pipeline and prints
the per-retry trace as JSON lines, one object per partition attempt with
the keys retry, aligned, threshold, aux_edges and found.

Usage:
    python3 scripts/blowup_pipeline_demo.py [--ell 3] [--s 2] [--host-size 3] [--a 2]
"""

import argparse
import json

from exturan import BlowupSpec, blowup, complete, find_blowup


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--ell", type=int, default=3, help="pattern vertex count")
    ap.add_argument("--s", type=int, default=2, help="uniformity")
    ap.add_argument("--host-size", type=int, default=3,
                    help="class size of the host blowup")
    ap.add_argument("--a", type=int, default=2, help="blowup size to search for")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--retries", type=int, default=200)
    args = ap.parse_args()

    pattern = complete(args.ell, args.s)
    host, _ = blowup(BlowupSpec(pattern, (args.host_size,) * args.ell))
    print(f"host: blowup of the complete {args.s}-uniform pattern on "
          f"{args.ell} vertices, class size {args.host_size} "
          f"({host.n} vertices, {host.m} edges)")

    trace = []
    emb = find_blowup(host, pattern, args.a, seed=args.seed,
                      retries=args.retries, trace=trace)
    for entry in trace:
        print(json.dumps(entry, sort_keys=True))
    if emb is None:
        print("result: none-found")
    else:
        print(f"result: classes {emb.classes}")


if __name__ == "__main__":
    main()
