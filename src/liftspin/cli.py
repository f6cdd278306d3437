"""Command-line front end.

Subcommands: eigenvalues, euler, beta-table, lvalue, verify.  Shared flags
can also come from LIFTSPIN_* environment variables, checked as the flags
are; explicit flags win.

Exit codes: 0 success, 1 verification failure, 2 usage error (argparse,
inconsistent flags, no prime flag where one is needed, a prime bound
below 2, malformed eigenvalue tables), 3 unsupported input (a weight
whose cusp space is not one-dimensional, an eigenvalue outside Deligne's
bound or not an integer, genus, expansion, --n, precision, prime-bound, --prime
and table-prime caps, a non-finite or out-of-range --s, numeric roots past
double range at a prime).
"""

from __future__ import annotations

import argparse
import cmath
import json
import math
import os
import sys
from contextlib import nullcontext
from typing import Dict, Iterator, List, Optional

from . import identities
from .beta import table as beta_table
from .errors import InputTooLarge, OutOfConvergenceRegion, UnsupportedInput
from .euler import numeric_coefficients
from .qexp import (
    DEFAULT_PRECISION,
    MAX_PRECISION,
    MAX_PRIMES_UP_TO,
    EigenformData,
    check_eigenvalue,
    eigenform,
    hecke_eigenvalue,
    load_eigenvalue_table,
    primes_up_to,
)

EULER_IDENTITIES = tuple(name for name, identity in identities.IDENTITIES.items()
                         if identity.sides is not None)
VERIFY_IDENTITIES = identities.IDENTITY_IDS + ("all",)
#: largest --n the CLI accepts (verify c1_frobenius grows about as n^4)
MAX_N = 32
#: the shared flags that LIFTSPIN_<FLAG> environment variables also set
ENV_FLAGS = ("n", "k", "mode", "prime", "primes-up-to", "precision", "format", "output")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="liftspin",
        description="Local Euler factors of lifted Siegel eigenforms and "
                    "their factorization identities.")
    sub = parser.add_subparsers(dest="command", required=True)

    def shared(p: argparse.ArgumentParser):
        p.add_argument("--n", type=int, default=2)
        p.add_argument("--k", type=int, default=10)
        p.add_argument("--mode", choices=("symbolic", "numeric"), default="symbolic")
        p.add_argument("--prime", type=int)
        p.add_argument("--primes-up-to", type=int)
        p.add_argument("--precision", type=int, default=DEFAULT_PRECISION)
        p.add_argument("--eigenvalues-file", action="append", default=None,
                       metavar="[ROLE=]PATH",
                       help="eigenvalue table '<p> <num>[/<den>]' per line; "
                            "prefix f= or g= when two forms are in play")
        p.add_argument("--format", choices=("json", "text"), default="json")
        p.add_argument("--output")

    p = sub.add_parser("eigenvalues", help="Hecke eigenvalues of one eigenform")
    p.add_argument("--weight", type=int, required=True)
    shared(p)

    p = sub.add_parser("euler", help="emit one side of one identity as a factor")
    p.add_argument("--identity", choices=EULER_IDENTITIES, required=True)
    p.add_argument("--side", choices=("lhs", "rhs"), required=True)
    p.add_argument("--factored", action="store_true",
                   help="emit the root list instead of expanded coefficients")
    shared(p)

    p = sub.add_parser("beta-table", help="dump the alpha/beta table for one n")
    shared(p)

    p = sub.add_parser("lvalue", help="truncated Euler product of the main "
                                      "identity (non-rigorous approximation)")
    p.add_argument("--identity", choices=("main_theorem",), default="main_theorem")
    p.add_argument("--side", choices=("lhs", "rhs"), required=True)
    p.add_argument("--s", required=True, help="evaluation point, e.g. 25 or 25+2j")
    shared(p)

    p = sub.add_parser("verify", help="run identity verifications")
    p.add_argument("--identity", choices=VERIFY_IDENTITIES, default=None)
    p.add_argument("--all", action="store_true")
    # either shorthand overrides --mode; giving both is a usage error
    modes = p.add_mutually_exclusive_group()
    for mode in ("symbolic", "numeric"):
        modes.add_argument(f"--{mode}", dest="mode_flag", action="store_const",
                           const=mode, help=f"shorthand for --mode {mode}")
    p.add_argument("--witness", action="store_true",
                   help="include the first differing coefficient on failure")
    p.add_argument("--negative-control", action="store_true",
                   help="self test: corrupted runs must fail with a witness")
    shared(p)

    return parser


# -- output plumbing -----------------------------------------------------------

def _emit(chunks: Iterator[str], output: Optional[str]):
    """Write the chunks and a newline to --output or stdout; --output is
    opened after the first chunk, so a command failing before it leaves none."""
    first = next(chunks)
    with open(output, "w", encoding="utf-8") if output else nullcontext(sys.stdout) as fh:
        fh.write(first)
        fh.writelines(chunks)
        fh.write("\n")


def _dump(data, fmt: str, as_text) -> Iterator[str]:
    yield json.dumps(data, indent=2) if fmt == "json" else as_text(data)


# -- eigenform data ------------------------------------------------------------

def _parse_table_args(args) -> Dict[str, str]:
    """Table path per role: "f", "g" or "untagged"; a role given twice, or a
    tagged table for eigenvalues, is a usage error."""
    tables: Dict[str, str] = {}
    for entry in args.eigenvalues_file or ():
        role, sep, path = entry.partition("=")
        if not (sep and role in ("f", "g")):
            role, path = "untagged", entry
        elif args.command == "eigenvalues":
            raise ValueError("eigenvalues reads one form; give its table untagged")
        if role in tables:
            raise ValueError(f"more than one {role} eigenvalue table")
        tables[role] = path
    return tables


def _form_for(role: str, weight: int, precision: int,
              tables: Dict[str, str]) -> EigenformData:
    path = tables.get(role, tables.get("untagged"))
    if path is not None:
        return EigenformData.from_eigenvalue_table(weight, load_eigenvalue_table(path))
    return eigenform(weight, precision)


def _numeric_forms(args, needs_g: bool = True) -> tuple:
    """(f, g) for numeric mode; g is None when the identity involves f only."""
    tables = _parse_table_args(args)
    if needs_g and "untagged" in tables:
        raise ValueError("two eigenforms are in play; tag tables as "
                         "--eigenvalues-file f=PATH / g=PATH")
    f = _form_for("f", 2 * args.k, args.precision, tables)
    g = _form_for("g", args.k + args.n, args.precision, tables) if needs_g else None
    return f, g


def _check_numeric_parity(args):
    """g has weight k+n, so numeric runs of every identity need k+n even."""
    if (args.k + args.n) % 2:
        raise ValueError(f"numeric mode needs k+n even, got k={args.k}, n={args.n}")


def _check_size_caps(args):
    """Reject size flags above their caps, whether given as flags or via
    LIFTSPIN_* variables (both land in args)."""
    for flag, value, cap in (("--n", args.n, MAX_N),
                             ("--precision", args.precision, MAX_PRECISION),
                             ("--primes-up-to", args.primes_up_to, MAX_PRIMES_UP_TO),
                             ("--prime", args.prime, MAX_PRIMES_UP_TO)):
        if value is not None and value > cap:
            raise InputTooLarge(f"{flag} {value} exceeds the cap {cap}")


def _primes_from(args, default: Optional[List[int]] = None) -> List[int]:
    """--prime, else the primes up to --primes-up-to, else `default`; a usage
    error when that names no prime."""
    if args.prime is not None:
        return [args.prime]
    if args.primes_up_to is None:
        if default is None:
            raise ValueError(f"{args.command} needs --prime or --primes-up-to")
        return default
    primes = primes_up_to(args.primes_up_to)
    if not primes:
        raise ValueError(f"--primes-up-to {args.primes_up_to} includes no prime")
    return primes


# -- subcommands -----------------------------------------------------------------

def cmd_eigenvalues(args) -> int:
    weight = args.weight
    primes = _primes_from(args)
    tables = _parse_table_args(args)
    form = _form_for("untagged", weight, args.precision, tables)
    rows = []
    for p in primes:
        lam = hecke_eigenvalue(form, p)
        # the boundary check of numeric runs: no value prints that they reject
        check_eigenvalue(lam, weight, p)
        rows.append({"p": p, "lambda": str(lam)})
    data = {"weight": weight, "eigenvalues": rows}

    def as_text(d):
        width = max(len(str(r["p"])) for r in d["eigenvalues"])
        lines = [f"# weight {d['weight']}"]
        lines += [f"{r['p']:>{width}} {r['lambda']}" for r in d["eigenvalues"]]
        return "\n".join(lines)

    _emit(_dump(data, args.format, as_text), args.output)
    return 0


def cmd_euler(args) -> int:
    """A raw factor dump: the genus, expansion and --n caps apply, not n_range.
    The label names the identity, n and k (and the prime in numeric mode);
    a numeric factor is written from its instantiated roots."""
    if args.mode == "numeric":
        _check_numeric_parity(args)
    identity = identities.IDENTITIES[args.identity]
    if identity.fixed_n not in (None, args.n):
        raise ValueError(f"{args.identity} is the n={identity.fixed_n} case, got --n {args.n}")
    lhs, rhs = identity.sides(args.n, args.k)
    factor = lhs if args.side == "lhs" else rhs
    # the label names no side: equal sides must serialize identically
    label = f"{args.identity}[n={args.n},k={args.k}]"
    if args.mode == "numeric":
        primes = _primes_from(args)
        if len(primes) != 1:
            raise ValueError("numeric euler needs exactly one --prime")
        p = primes[0]
        f, g = _numeric_forms(args, identity.needs_g)
        alpha, beta = identities.satake_values(f, g, args.n, args.k, p)
        roots = factor.instantiate(alpha, beta, p)
        key, values = (("roots", sorted(roots, key=lambda r: (r.real, r.imag))) if args.factored
                       else ("coeffs", numeric_coefficients(roots)))
        data = {"label": f"{label}|p={p}", "degree": len(roots),
                key: [[z.real, z.imag] for z in values]}
    elif args.format == "json" and not args.factored:
        _emit(factor.json_chunks(label), args.output)
        return 0
    else:
        data = factor.factored_json_dict(label) if args.factored else factor.to_json_dict(label)

    def as_text(d):
        lines = [f"label:  {d['label']}", f"degree: {d['degree']}"]
        key = "roots" if "roots" in d else "coeffs"
        for i, entry in enumerate(d[key]):
            lines.append(f"{key[:-1]} {i}: {json.dumps(entry)}")
        return "\n".join(lines)

    _emit(_dump(data, args.format, as_text), args.output)
    return 0


def cmd_beta_table(args) -> int:
    rows = [{"m": m, "r": r, "alpha": a, "beta": b}
            for (m, r, a, b) in beta_table(args.n).entries()]
    data = {"n": args.n, "entries": rows}

    def as_text(d):
        lines = [f"# n = {d['n']}", f"{'m':>3} {'r':>5} {'alpha':>8} {'beta':>8}"]
        lines += [f"{r['m']:>3} {r['r']:>5} {r['alpha']:>8} {r['beta']:>8}"
                  for r in d["entries"]]
        return "\n".join(lines)

    _emit(_dump(data, args.format, as_text), args.output)
    return 0


def cmd_lvalue(args) -> int:
    try:
        s = complex(args.s)
    except ValueError:
        raise ValueError(f"cannot parse --s {args.s!r} as a complex number")
    if not cmath.isfinite(s):
        raise OutOfConvergenceRegion(f"--s {args.s} is not a finite complex number")
    n, k = args.n, args.k
    threshold = (n - 0.5) * k + 1
    if s.real <= threshold:
        raise OutOfConvergenceRegion(
            f"Re(s) = {s.real} is not inside the half-plane Re(s) > {threshold}")
    _check_numeric_parity(args)
    primes = _primes_from(args)
    f, g = _numeric_forms(args)
    lhs, rhs = identities.IDENTITIES[args.identity].sides(n, k)
    side = lhs if args.side == "lhs" else rhs
    value = 1 + 0j
    increment = 0.0
    for p in primes:
        alpha, beta = identities.satake_values(f, g, n, k, p)
        roots = side.instantiate(alpha, beta, p)
        t = p ** (-s)
        before = value
        value /= math.prod((1 - r * t for r in roots), start=1 + 0j)
        increment = abs(value - before)
    data = {
        "identity": args.identity,
        "side": args.side,
        "n": n, "k": k,
        "s": [s.real, s.imag],
        "primes_used": len(primes),
        "value": [value.real, value.imag],
        "last_prime_increment": increment,
        "note": "non-rigorous approximation (truncated Euler product, no tail bound)",
    }

    def as_text(d):
        return "\n".join([
            f"L({d['s'][0]}+{d['s'][1]}j, {d['identity']}/{d['side']}) "
            f"~ {d['value'][0]}+{d['value'][1]}j",
            f"primes used: {d['primes_used']}",
            f"last prime increment: {d['last_prime_increment']}",
            f"note: {d['note']}",
        ])

    _emit(_dump(data, args.format, as_text), args.output)
    return 0


def _verify_reports(args) -> List[identities.VerificationReport]:
    n, k = args.n, args.k
    if args.negative_control:
        return identities.negative_control_reports(max(n, 2), k)
    suite = args.all or args.identity in (None, "all")
    if args.mode == "symbolic":
        return identities.full_symbolic_suite() if suite else [identities.verify(args.identity, n, k)]
    # numeric: the suite is the main identity at the first five primes
    name = "main_theorem" if suite else args.identity
    f, g = _numeric_forms(args, identities.IDENTITIES[name].needs_g)
    primes = _primes_from(args, [2, 3, 5, 7, 11] if suite else [2])
    return identities.verify_at_primes(name, n, k, "numeric", primes, f, g)


def cmd_verify(args) -> int:
    args.mode = args.mode_flag or args.mode
    if args.mode == "numeric":
        _check_numeric_parity(args)
    reports = _verify_reports(args)
    payload = []
    for rep in reports:
        entry = rep.to_json_dict()
        if not args.witness:
            entry.pop("witness", None)
        payload.append(entry)

    def as_text(entries):
        lines = []
        for e in entries:
            ps = " ".join(f"{key}={val}" for key, val in e["parameters"].items()
                          if val is not None)
            lines.append(f"{e['verdict'].upper():4} {e['identity']} {ps}")
            if args.witness and e.get("witness"):
                lines.append(f"     witness: {json.dumps(e['witness'])}")
        return "\n".join(lines)

    _emit(_dump(payload, args.format, as_text), args.output)
    if args.negative_control:
        # the self test passes exactly when every corrupted run fails loudly
        detected = all(r.verdict == "fail" and r.witness for r in reports)
        return 0 if detected else 1
    return 0 if all(r.passed for r in reports) else 1


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # variables go in right after the subcommand, so the parser checks them
    # as it checks flags, and an explicit flag, coming later, wins
    env = [f"--{flag}={os.environ[var]}" for flag in ENV_FLAGS
           if (var := "LIFTSPIN_" + flag.upper().replace("-", "_")) in os.environ]
    args = build_parser().parse_args(argv[:1] + env + argv[1:])
    handlers = {
        "eigenvalues": cmd_eigenvalues,
        "euler": cmd_euler,
        "beta-table": cmd_beta_table,
        "lvalue": cmd_lvalue,
        "verify": cmd_verify,
    }
    try:
        _check_size_caps(args)
        return handlers[args.command](args)
    except UnsupportedInput as exc:
        print(f"liftspin: unsupported input: {exc}", file=sys.stderr)
        return 3
    except (ValueError, IndexError, OSError) as exc:
        print(f"liftspin: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
