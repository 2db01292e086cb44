"""Command line interface: ex, construct, verify, bounds.

Every subcommand is deterministic given its flags and seed; outputs carry no
timestamps, so repeated runs are byte identical. Exit codes are a stable
scripting contract: 0 success/verified, 1 claim refuted, certificate
failure or a cache entry or record failing verification, 2 usage or parse
error (an input file that is missing, a directory or not UTF-8 text, a
``--workers`` below 1, a ``--timeout`` below 0, a ``--budget``
below 1, a negative vertex count, a flag the subcommand does not take and an
lbap certificate whose classes do not fit the host included), 3 infeasible
or timed out. A timed-out ``ex`` still prints its whole table, with the
best-so-far records marked heuristic. Each subcommand
takes the shared flags it reads: ``ex`` ``--seed --workers --timeout
--cache-dir --format --out --allow-large``, ``construct`` ``--seed --workers
--cache-dir --allow-large``, ``verify`` ``--workers --cache-dir
--allow-large`` and ``bounds`` ``--format --out``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .constructions import (
    ConstructionError,
    build_lbap,
    deletion_construct,
    deletion_probability,
    lb4_construct,
    lb4_sizes,
    verify_lbap_properties,
    APFreeSet,
)
from .counting import cliques, complete_subsets, exponents, is_blowup_free, materialize
from .canonical import canonical_key
from .extremal import (
    CacheIntegrityError,
    ChainError,
    ExtremalRecord,
    InfeasibleError,
    RecordCache,
    RecordError,
    chain_check,
    exact_ex,
    heuristic_lower,
)
from .hypergraph import (
    BlowupSpec,
    HypergraphError,
    PartitionMap,
    UniformHypergraph,
    complete,
    complete_partite,
    read_file,
    single_edge,
    write_file,
)
from .pipeline import edge_disjoint_greedy

CACHE_ENV = "EXTURAN_CACHE"

# what opening an input path can raise: a usage error (exit 2); other OS
# errors, a failed fork among them, are not the user's input
_UNREADABLE = (FileNotFoundError, IsADirectoryError, NotADirectoryError, PermissionError)


class SpecParseError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (position {position})")
        self.position = position


def parse_pattern_spec(text: str):
    """Parse ``K<l>_<s>(a1,..,al)`` or ``file:PATH`` into a pattern.

    The shorthand denotes the complete l-partite s-uniform hypergraph with
    the given class sizes, returned as a blowup specification.
    """
    if text.startswith("file:"):
        path = text[5:]
        if not path:
            raise SpecParseError("empty path after 'file:'", 5)
        return read_file(path)

    def digits(i):
        j = i
        while j < len(text) and text[j].isdigit():
            j += 1
        return j

    i = 0
    if not text.startswith("K"):
        raise SpecParseError("expected 'K'", 0)
    i = 1
    j = digits(i)
    if j == i:
        raise SpecParseError("expected a class count after 'K'", i)
    ell = int(text[i:j])
    i = j
    if i >= len(text) or text[i] != "_":
        raise SpecParseError("expected '_'", i)
    i += 1
    j = digits(i)
    if j == i:
        raise SpecParseError("expected a uniformity after '_'", i)
    s = int(text[i:j])
    i = j
    if i >= len(text) or text[i] != "(":
        raise SpecParseError("expected '('", i)
    i += 1
    sizes = []
    while True:
        j = digits(i)
        if j == i:
            raise SpecParseError("expected a class size", i)
        sizes.append(int(text[i:j]))
        i = j
        if i < len(text) and text[i] == ",":
            i += 1
            continue
        if i < len(text) and text[i] == ")":
            i += 1
            break
        raise SpecParseError("expected ',' or ')'", i)
    if i != len(text):
        raise SpecParseError("unexpected trailing text", i)
    if len(sizes) != ell:
        raise SpecParseError(f"K{ell} expects {ell} sizes, got {len(sizes)}", i)
    if s < 1 or ell < s:
        raise SpecParseError(f"need l >= s >= 1, got l={ell}, s={s}", 0)
    if any(a < 1 for a in sizes):
        raise SpecParseError("class sizes must be >= 1", 0)
    return BlowupSpec(complete(ell, s), tuple(sizes))


class UsageError(ValueError):
    """A flag that the chosen construction needs is missing."""


def _needed(args, flag: str):
    value = getattr(args, flag)
    if value is None:
        raise UsageError(f"construct --kind {args.kind} needs --{flag}")
    return value


class CertificateError(ValueError):
    """A certificate file is not UTF-8 text, lacks a field that the claim
    reads, or has it in the wrong shape."""


def _parse_count(claim: str, prefix: str) -> int:
    try:
        return int(claim[len(prefix):])
    except ValueError:
        raise SpecParseError(f"claim {claim!r} needs an integer count",
                             len(prefix)) from None


def _parse_n_range(text: str) -> list[int]:
    if ".." in text:
        lo, _, hi = text.partition("..")
        try:
            lo_i, hi_i = int(lo), int(hi)
        except ValueError:
            raise SpecParseError(f"bad range {text!r}", 0) from None
        if lo_i > hi_i:
            raise SpecParseError(f"empty range {text!r}", 0)
        return list(range(lo_i, hi_i + 1))
    try:
        return [int(text)]
    except ValueError:
        raise SpecParseError(f"bad vertex count {text!r}", 0) from None


def _parse_int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise SpecParseError(f"bad integer list {text!r}", 0) from None


# ---------------------------------------------------------------------------
# output helpers
# ---------------------------------------------------------------------------


def _emit(args, text: str) -> None:
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _table(fmt: str, header: list[str], rows: list[list], json_payload) -> str:
    if fmt == "json":
        return json.dumps(json_payload, sort_keys=True) + "\n"
    if fmt == "csv":
        lines = [",".join(header)]
        lines.extend(",".join(str(c) for c in row) for row in rows)
        return "\n".join(lines) + "\n"
    widths = [max(len(h), *(len(str(r[i])) for r in rows)) if rows else len(h)
              for i, h in enumerate(header)]
    lines = ["  ".join(h.ljust(w) for h, w in zip(header, widths)).rstrip()]
    for row in rows:
        lines.append("  ".join(str(c).ljust(w) for c, w in zip(row, widths)).rstrip())
    return "\n".join(lines) + "\n"


def _cache_from(args) -> RecordCache | None:
    root = args.cache_dir or os.environ.get(CACHE_ENV)
    try:
        return RecordCache(root) if root else None
    except FileExistsError:
        raise UsageError(f"cache directory {root} exists and is not a directory") from None


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_ex(args) -> int:
    t = materialize(parse_pattern_spec(args.T))
    f = materialize(parse_pattern_spec(args.F))
    cache = _cache_from(args)
    t_key, f_key = canonical_key(t), canonical_key(f)
    records: list[ExtremalRecord] = []
    timed_out = []
    for n in _parse_n_range(args.n):
        try:
            rec = exact_ex(n, t, f, workers=args.workers, timeout=args.timeout,
                           allow_large=args.allow_large, cache=cache)
        except InfeasibleError:
            if not args.heuristic:
                raise
            rec = heuristic_lower(n, t, f, seed=args.seed, budget=args.budget)
        else:
            if rec.mode == "heuristic":
                timed_out.append(n)
        records.append(rec)
    rows = [[r.n, t_key, f_key, r.value, r.mode] for r in records]
    payload = {
        "command": "ex", "t_key": t_key, "f_key": f_key,
        "records": [
            {"n": r.n, "value": r.value, "mode": r.mode, "witness": r.witness.to_text()}
            for r in records
        ],
    }
    _emit(args, _table(args.format, ["n", "t_key", "f_key", "value", "mode"],
                       rows, payload))
    if timed_out:
        print(f"timed out: best-so-far heuristic records for n = "
              f"{', '.join(map(str, timed_out))}", file=sys.stderr)
        return 3
    return 0


def cmd_bounds(args) -> int:
    sizes = _parse_int_list(args.a)
    report = exponents(args.r, sizes)
    rows = [["upper", str(report.upper), f"{float(report.upper):.6f}", "always"]]
    for lb in report.lowers:
        rows.append([lb.label, str(lb.exponent), f"{float(lb.exponent):.6f}",
                     lb.condition])
    payload = {
        "command": "bounds", "r": report.r, "sizes": list(report.sizes),
        "upper": str(report.upper),
        "lowers": [{"label": lb.label, "exponent": str(lb.exponent),
                    "condition": lb.condition} for lb in report.lowers],
    }
    _emit(args, _table(args.format, ["kind", "exponent", "decimal", "condition"],
                       rows, payload))
    return 0


def cmd_construct(args) -> int:
    prefix = Path(args.out_prefix)
    prefix.parent.mkdir(parents=True, exist_ok=True)
    if args.kind == "lbap":
        bundle = build_lbap(args.n, args.r, args.apfree_mode, verify=args.verify)
        outputs = [(".h.txt", bundle.system), (".g.txt", bundle.graph)]
        cert = bundle.certificate
    elif args.kind == "lb4":
        r = args.r
        sizes = lb4_sizes(args.n, r, _parse_int_list(_needed(args, "a")))
        nb = args.n - args.n // r
        base_forbidden = complete_partite(r - 1, sizes[:-1])[0]
        if args.base:
            witness = read_file(args.base)
            base = ExtremalRecord(
                n=witness.n, s=r - 1, pattern=single_edge(r - 1),
                forbidden=base_forbidden, value=witness.m, witness=witness,
                mode="heuristic", nodes=0, elapsed=0.0)
        else:
            base = exact_ex(nb, single_edge(r - 1), base_forbidden,
                            workers=args.workers, allow_large=args.allow_large,
                            cache=_cache_from(args))
        h, cert = lb4_construct(args.n, r, sizes, base, verify=args.verify)
        outputs = [(".txt", h)]
    elif args.kind == "deletion":
        spec = parse_pattern_spec(_needed(args, "spec"))
        if isinstance(spec, UniformHypergraph):
            raise SpecParseError("deletion needs a blowup shorthand, not a file", 0)
        p = args.p
        if p is None:
            _, p = deletion_probability(args.n, spec)
        g, cert = deletion_construct(args.n, args.r, spec, p, args.seed,
                                     verify=args.verify)
        outputs = [(".txt", g)]
    else:  # pragma: no cover - argparse restricts choices
        raise SpecParseError(f"unknown kind {args.kind!r}", 0)
    files = []
    for suffix, out in outputs:
        path = prefix.with_name(prefix.name + suffix)
        write_file(out, path)
        files.append(str(path))
    cert_path = prefix.with_name(prefix.name + ".cert.json")
    cert_path.write_text(json.dumps(cert.to_json_dict(), sort_keys=True, indent=2) + "\n",
                         encoding="utf-8")
    files.append(str(cert_path))
    sys.stdout.write(json.dumps({"files": files, "kind": args.kind}, sort_keys=True) + "\n")
    return 0


def _trace_write(args, entries) -> None:
    if args.trace:
        with open(args.trace, "w", encoding="utf-8") as fh:
            for entry in entries:
                fh.write(json.dumps(entry, sort_keys=True) + "\n")


def cmd_verify(args) -> int:
    host = read_file(args.host)
    claim = args.claim
    trace: list[dict] = []
    result: dict = {"claim": claim}
    verified: bool

    if claim.startswith("free:"):
        spec = parse_pattern_spec(claim[5:])
        free, emb = is_blowup_free(host, spec)
        verified = free
        if emb is not None:
            result["witness"] = emb.to_json_dict()
        trace.append({"step": "containment", "free": free})
    elif claim.startswith("cliques:"):
        want = _parse_count(claim, "cliques:")
        have = len(complete_subsets(host.n, host.s, host.edge_set, host.s + 1))
        verified = have == want
        result["cliques"] = have
        trace.append({"step": "clique-count", "have": have, "want": want})
    elif claim.startswith("edge-disjoint:"):
        want = _parse_count(claim, "edge-disjoint:")
        fam = cliques(host, host.s + 1)
        sub = edge_disjoint_greedy(fam, len(fam) + 2)
        verified = len(sub) >= want
        result["edge_disjoint"] = len(sub)
        trace.append({"step": "greedy-extraction", "found": len(sub), "want": want})
    elif claim == "lbap-properties":
        cert_path = args.cert or (args.host + ".cert.json")
        try:
            meta = json.loads(Path(cert_path).read_text(encoding="utf-8"))
        except UnicodeDecodeError as exc:
            raise CertificateError(f"certificate {cert_path} is not UTF-8 text: {exc}") from None
        try:
            params = meta["params"]
            ap = APFreeSet(params["n"], params["r"], tuple(params["elements"]),
                           params["exact"])
            parts = PartitionMap(tuple(tuple(c) for c in params["parts"]))
        except (KeyError, TypeError) as exc:
            raise CertificateError(
                f"certificate {cert_path}: missing or malformed field ({exc})") from None
        cert = verify_lbap_properties(host, parts, params["n"], params["r"], ap)
        verified = cert.passed
        result["certificate"] = cert.to_json_dict()
        trace.extend({"step": c.name, "status": c.status} for c in cert.claims)
    elif claim.startswith("chain:"):
        spec = parse_pattern_spec(claim[6:])
        try:
            records = chain_check(host.n, spec, workers=args.workers,
                                  allow_large=args.allow_large, cache=_cache_from(args))
        except ChainError:
            verified = False
            records = []
        else:
            verified = True
            result["chain"] = [{"s": s, "value": rec.value} for s, rec in records]
        trace.extend({"step": f"chain-s{s}", "value": rec.value} for s, rec in records)
    else:
        raise SpecParseError(f"unknown claim {claim!r}", 0)

    result["verified"] = verified
    _trace_write(args, trace)
    sys.stdout.write(json.dumps(result, sort_keys=True) + "\n")
    return 0 if verified else 1


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _at_least(low, kind=int):
    """An argparse type: a ``kind`` number no smaller than ``low`` (so not
    NaN), else a usage error (exit 2)."""
    def parse(text: str):
        value = kind(text)
        if not value >= low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {text}")
        return value

    parse.__name__ = kind.__name__  # argparse names the type in its errors
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="exturan",
        description="Exact generalized Turan numbers, certified constructions "
                    "and exponent tables for uniform hypergraphs.",
        epilog="Pattern shorthand: K<l>_<s>(a1,..,al) is the complete "
               "l-partite s-uniform hypergraph with the given class sizes "
               "(e.g. K3_2(1,1,2)); file:PATH reads the text format.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    shared = {
        "--seed": dict(type=int, default=0),
        "--workers": dict(type=_at_least(1), default=1),
        "--timeout": dict(type=_at_least(0, float), default=None),
        "--cache-dir": dict(default=None, help=f"record cache directory (or ${CACHE_ENV})"),
        "--format": dict(choices=["text", "csv", "json"], default="text"),
        "--out": dict(default=None, help="write output to a file"),
        "--allow-large": dict(action="store_true",
                              help="raise the exact-search feasibility guard"),
    }

    def common(p, *flags):
        for flag in flags:
            p.add_argument(flag, **shared[flag])

    p_ex = sub.add_parser("ex", help="exact (or heuristic) generalized Turan values")
    common(p_ex, *shared)
    p_ex.add_argument("--n", required=True, help="vertex count or range, e.g. 4..7")
    p_ex.add_argument("--T", required=True, help="pattern to count")
    p_ex.add_argument("--F", required=True, help="forbidden pattern")
    p_ex.add_argument("--heuristic", action="store_true",
                      help="fall back to local search beyond the guard")
    p_ex.add_argument("--budget", type=_at_least(1), default=4000)
    p_ex.set_defaults(func=cmd_ex)

    # no abbreviations here: "--out" would be read as "--out-prefix"
    p_c = sub.add_parser("construct", help="emit a certified construction",
                         allow_abbrev=False)
    common(p_c, "--seed", "--workers", "--cache-dir", "--allow-large")
    p_c.add_argument("--kind", required=True, choices=["lb4", "lbap", "deletion"])
    p_c.add_argument("--n", type=int, required=True)
    p_c.add_argument("--r", type=int, required=True)
    p_c.add_argument("--a", default=None, help="class sizes for lb4, e.g. 2,2,2")
    p_c.add_argument("--spec", default=None, help="forbidden blowup for deletion")
    p_c.add_argument("--p", type=float, default=None,
                     help="edge probability for deletion (default: balanced)")
    p_c.add_argument("--base", default=None, help="base witness file for lb4")
    p_c.add_argument("--apfree-mode", default="exact",
                     choices=["exact", "greedy", "behrend"])
    p_c.add_argument("--out-prefix", required=True)
    p_c.add_argument("--verify", action="store_true",
                     help="exit nonzero unless the certificate fully passes")
    p_c.set_defaults(func=cmd_construct)

    p_v = sub.add_parser("verify", help="check a claim about a hypergraph file")
    common(p_v, "--workers", "--cache-dir", "--allow-large")
    p_v.add_argument("host")
    p_v.add_argument("--claim", required=True,
                     help="free:SPEC | cliques:N | edge-disjoint:N | "
                          "lbap-properties | chain:SPEC")
    p_v.add_argument("--cert", default=None,
                     help="certificate JSON for lbap-properties")
    p_v.add_argument("--trace", default=None, help="write a JSON-lines trace")
    p_v.set_defaults(func=cmd_verify)

    p_b = sub.add_parser("bounds", help="exact rational exponent table")
    common(p_b, "--format", "--out")
    p_b.add_argument("--r", type=int, required=True)
    p_b.add_argument("--a", required=True, help="ascending class sizes, e.g. 2,2,2")
    p_b.set_defaults(func=cmd_bounds)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (SpecParseError, HypergraphError, CertificateError, UsageError,
            json.JSONDecodeError, *_UNREADABLE) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ConstructionError as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return 1
    except CacheIntegrityError as exc:
        print(f"cache integrity failure: {exc}", file=sys.stderr)
        return 1
    except RecordError as exc:
        print(f"record verification failed: {exc}", file=sys.stderr)
        return 1
    except InfeasibleError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
