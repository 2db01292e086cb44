"""Command line interface: ex, construct, verify, bounds.

Every subcommand is deterministic given its flags and seed; outputs carry no
timestamps, so repeated runs are byte identical. Exit codes are a stable
scripting contract: 0 success/verified, 1 claim refuted, certificate
failure or a cache entry or record failing verification, 2 usage or parse
error (an input file that is missing, a directory or not UTF-8 text, an
integer other than ASCII digits after an optional '-', a ``--workers``
below 1, a ``--timeout`` below 0, a ``--budget`` below 1, a negative vertex
count, an ``--out-prefix`` under a file, a flag the subcommand does not take
and an lbap certificate whose classes do not fit the host included), 3
infeasible or timed out. A timed-out ``ex`` still prints its whole table, with the
best-so-far records marked heuristic. Each subcommand
takes the shared flags it reads: ``ex`` ``--seed --workers --timeout
--cache-dir --format --out --allow-large``, ``construct`` ``--seed --workers
--cache-dir --allow-large``, ``verify`` ``--workers --cache-dir
--allow-large`` and ``bounds`` ``--format --out``. An invocation builds the
arguments of its own subcommand only (``build_parser(command)``).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import re
import sys
from contextlib import suppress
from pathlib import Path

from .constructions import (
    ConstructionError,
    build_lbap,
    deletion_construct,
    deletion_probability,
    lb4_base,
    lb4_construct,
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
    read_file,
    single_edge,
    write_file,
)
from .pipeline import edge_disjoint_greedy

CACHE_ENV = "EXTURAN_CACHE"

# what opening an input path can raise: a usage error (exit 2); other OS
# errors, a failed fork among them, are not the user's input
_UNREADABLE = (FileNotFoundError, IsADirectoryError, NotADirectoryError, PermissionError)


# the tokens of the pattern shorthand; digits are ASCII only
_K, _NUMBER, _UNDERSCORE, _OPEN, _SEP = map(re.compile, ("K", "[0-9]+", "_", "[(]", "[,)]"))


def integer(text: str) -> int:
    """The reader of every integer input: ASCII digits after an optional '-'.
    int() would also take a '+', spaces, underscores and other scripts' digits."""
    if not re.fullmatch("-?[0-9]+", text):
        raise ValueError(f"not an integer: {text!r}")
    return int(text)  # a ValueError past CPython's 4,300 digits


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

    i = 0

    def take(token, what):
        nonlocal i
        match = token.match(text, i)
        if not match:
            raise SpecParseError(f"expected {what}", i)
        i = match.end()
        return match.group()

    def number(what):
        digits = take(_NUMBER, what)
        try:  # CPython converts no string of more than 4,300 digits
            return int(digits)
        except ValueError:
            raise SpecParseError(f"{what} has too many digits", i - len(digits)) from None

    take(_K, "'K'")
    ell = number("a class count after 'K'")
    take(_UNDERSCORE, "'_'")
    s = number("a uniformity after '_'")
    take(_OPEN, "'('")
    sizes = [number("a class size")]
    while take(_SEP, "',' or ')'") == ",":
        sizes.append(number("a class size"))
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
    with suppress(ValueError):
        if (count := integer(claim[len(prefix):])) >= 0:
            return count
    raise SpecParseError(f"claim {claim!r} needs a non-negative integer count", len(prefix))


def _parse_n_range(text: str) -> range:
    """``N`` or ``LO..HI``; a negative end is left to the search to refuse."""
    lo, dots, hi = text.partition("..")
    try:
        lo_i, hi_i = integer(lo), integer(hi if dots else lo)
    except ValueError:
        raise SpecParseError(f"bad vertex count or range {text!r}", 0) from None
    if lo_i > hi_i:
        raise SpecParseError(f"empty range {text!r}", 0)
    return range(lo_i, hi_i + 1)  # iterated once, never built as a list


def _parse_int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(integer(x) for x in text.split(","))
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
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows([header, *rows])
        return buf.getvalue()
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
    if args.kind == "lbap":
        bundle = build_lbap(args.n, args.r, args.apfree_mode, verify=args.verify)
        outputs = [(".h.txt", bundle.system), (".g.txt", bundle.graph)]
        cert = bundle.certificate
    elif args.kind == "lb4":
        r = args.r
        sizes = _parse_int_list(_needed(args, "a"))
        nb, base_forbidden = lb4_base(args.n, r, sizes)
        if args.base:
            base = read_file(args.base)
        else:
            base = exact_ex(nb, single_edge(r - 1), base_forbidden,
                            workers=args.workers, allow_large=args.allow_large,
                            cache=_cache_from(args)).witness
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
    prefix = Path(args.out_prefix)
    try:
        prefix.parent.mkdir(parents=True, exist_ok=True)
    except FileExistsError:
        raise UsageError(f"{prefix.parent} exists and is not a directory") from None
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
        have = len(complete_subsets(host, host.s + 1))
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


def _at_least(low, kind=integer):
    """An argparse type: a ``kind`` number no smaller than ``low`` (so not
    NaN), else a usage error (exit 2)."""
    def parse(text: str):
        value = kind(text)
        if not value >= low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {text}")
        return value

    parse.__name__ = kind.__name__  # argparse names the type in its errors
    return parse


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The ``exturan`` parser. Every subcommand is registered by name and
    help, but only ``command`` gets its arguments and handler; every
    subcommand does when ``command`` is None or names none of them.

    The top-level usage, help and errors read only names and help strings,
    so an argv that starts with ``command`` parses and prints as it would
    with the full parser.
    """
    parser = argparse.ArgumentParser(
        prog="exturan",
        description="Exact generalized Turan numbers, certified constructions "
                    "and exponent tables for uniform hypergraphs.",
        epilog="Pattern shorthand: K<l>_<s>(a1,..,al) is the complete "
               "l-partite s-uniform hypergraph with the given class sizes "
               "(e.g. K3_2(1,1,2)); file:PATH reads the text format.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    full = command not in ("ex", "construct", "verify", "bounds")
    shared = {
        "--seed": dict(type=integer, default=0),
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

    def subparser(name, func, **options):
        """Register ``name``; return its parser if it is built here, else None."""
        p = sub.add_parser(name, **options)
        if not (full or name == command):
            return None
        p.set_defaults(func=func)
        return p

    if p := subparser("ex", cmd_ex, help="exact (or heuristic) generalized Turan values"):
        common(p, *shared)
        p.add_argument("--n", required=True, help="vertex count or range, e.g. 4..7")
        p.add_argument("--T", required=True, help="pattern to count")
        p.add_argument("--F", required=True, help="forbidden pattern")
        p.add_argument("--heuristic", action="store_true",
                       help="fall back to local search beyond the guard")
        p.add_argument("--budget", type=_at_least(1), default=4000)

    # no abbreviations here: "--out" would be read as "--out-prefix"
    if p := subparser("construct", cmd_construct, help="emit a certified construction",
                      allow_abbrev=False):
        common(p, "--seed", "--workers", "--cache-dir", "--allow-large")
        p.add_argument("--kind", required=True, choices=["lb4", "lbap", "deletion"])
        p.add_argument("--n", type=integer, required=True)
        p.add_argument("--r", type=integer, required=True)
        p.add_argument("--a", default=None, help="class sizes for lb4, e.g. 2,2,2")
        p.add_argument("--spec", default=None, help="forbidden blowup for deletion")
        p.add_argument("--p", type=float, default=None,
                       help="edge probability for deletion (default: balanced)")
        p.add_argument("--base", default=None, help="base witness file for lb4")
        p.add_argument("--apfree-mode", default="exact",
                       choices=["exact", "greedy", "behrend"])
        p.add_argument("--out-prefix", required=True)
        p.add_argument("--verify", action="store_true",
                       help="exit nonzero unless the certificate fully passes")

    if p := subparser("verify", cmd_verify, help="check a claim about a hypergraph file"):
        common(p, "--workers", "--cache-dir", "--allow-large")
        p.add_argument("host")
        p.add_argument("--claim", required=True,
                       help="free:SPEC | cliques:N | edge-disjoint:N | "
                            "lbap-properties | chain:SPEC")
        p.add_argument("--cert", default=None,
                       help="certificate JSON for lbap-properties")
        p.add_argument("--trace", default=None, help="write a JSON-lines trace")

    if p := subparser("bounds", cmd_bounds, help="exact rational exponent table"):
        common(p, "--format", "--out")
        p.add_argument("--r", type=integer, required=True)
        p.add_argument("--a", required=True, help="ascending class sizes, e.g. 2,2,2")

    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    args = build_parser(argv[0] if argv else None).parse_args(argv)
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
