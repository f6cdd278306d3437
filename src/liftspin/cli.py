"""Command-line front end.

Subcommands: eigenvalues, euler, beta-table, lvalue, verify.  COMMANDS
declares each one's handler, help line and flags, _SHARED the flags all of
them take, and parse_args reads argv against that table as argparse would:
--flag VALUE or --flag=VALUE, any unique prefix of a flag, the last value
wins, -h/--help at the top level or after a subcommand.  Shared flags can
also come from LIFTSPIN_* environment variables, checked as the flags are;
explicit flags win.

Exit codes: 0 success, 1 verification failure, 2 usage error (a flag the
table refuses, a stray argument, inconsistent flags, no prime flag where
one is needed, a prime bound below 2, malformed eigenvalue tables), 3
unsupported input (a weight whose cusp space is not one-dimensional, an
eigenvalue outside Deligne's bound or not an integer, genus, expansion,
--n, precision, prime-bound, --prime and table-prime caps, a non-finite or
out-of-range --s, numeric roots or expanded coefficients past double range).
"""

from __future__ import annotations

import cmath
import json
import math
import os
import re
import sys
from contextlib import nullcontext
from types import SimpleNamespace
from typing import Dict, Iterator, List, Optional

from . import identities, laurent
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

# A flag is (kind, default, help).  The kind is int or str (one value,
# converted by it), a tuple of choices (one value), APPEND (one value per use,
# collected in a list), SWITCH (no value, sets True) or MODE (no value, sets
# mode_flag to the flag's name; two different ones are a usage error).  The
# default REQUIRED makes the flag mandatory.
APPEND, SWITCH, MODE = "append", "switch", "mode"
REQUIRED = object()

#: the flags every subcommand takes, after its own
_SHARED = {
    "n": (int, 2, "n of the lift"),
    "k": (int, 10, "k of the lift: f has weight 2k, g weight k+n"),
    "mode": (("symbolic", "numeric"), "symbolic", "exact roots, or values at primes"),
    "prime": (int, None, "the one prime of a numeric run"),
    "primes-up-to": (int, None, "every prime up to this bound"),
    "precision": (int, DEFAULT_PRECISION, "q-expansion precision of computed eigenforms"),
    "eigenvalues-file": (APPEND, None, "[ROLE=]PATH: an eigenvalue table, '<p> <num>[/<den>]' "
                                       "per line; prefix f= or g= when two forms are in play"),
    "format": (("json", "text"), "json", None),
    "output": (str, None, "write to this file instead of stdout"),
}


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
    yield laurent.dumps(data) if fmt == "json" else as_text(data)


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
    """(f, g) for numeric mode, g None if the identity involves f only; k < 1
    is refused before any form is built, as the side builders refuse it."""
    if args.k < 1:
        raise ValueError(f"need k >= 1, got k={args.k}")
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
    if args.mode == "symbolic":
        write = factor.json_chunks if args.format == "json" else factor.text_chunks
        _emit(write(label, args.factored), args.output)
        return 0
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

    def as_text(d):
        lines = [f"label:  {d['label']}", f"degree: {d['degree']}"]
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
    identities.check_scope(name, "numeric", n)
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


# -- the command table and its parser ------------------------------------------------

#: subcommand -> (handler, help line, its own flags)
COMMANDS = {
    "eigenvalues": (cmd_eigenvalues, "Hecke eigenvalues of one eigenform", {
        "weight": (int, REQUIRED, "weight of the eigenform"),
    }),
    "euler": (cmd_euler, "emit one side of one identity as a factor", {
        "identity": (EULER_IDENTITIES, REQUIRED, None),
        "side": (("lhs", "rhs"), REQUIRED, None),
        "factored": (SWITCH, False, "emit the root list instead of expanded coefficients"),
    }),
    "beta-table": (cmd_beta_table, "dump the alpha/beta table for one n", {}),
    "lvalue": (cmd_lvalue, "truncated Euler product of the main identity "
                           "(non-rigorous approximation)", {
        "identity": (("main_theorem",), "main_theorem", None),
        "side": (("lhs", "rhs"), REQUIRED, None),
        "s": (str, REQUIRED, "evaluation point, e.g. 25 or 25+2j"),
    }),
    "verify": (cmd_verify, "run identity verifications", {
        "identity": (VERIFY_IDENTITIES, None, None),
        "all": (SWITCH, False, "the whole symbolic suite, or the numeric one"),
        "symbolic": (MODE, None, "shorthand for --mode symbolic"),
        "numeric": (MODE, None, "shorthand for --mode numeric"),
        "witness": (SWITCH, False, "include the first differing coefficient on failure"),
        "negative-control": (SWITCH, False, "self test: corrupted runs must fail with a witness"),
    }),
}

#: argparse's rule: an argument that looks like this is a value, not an option
#: (compiled on first use, which few runs reach)
_NEGATIVE_NUMBER = r"^-\d+$|^-\d*\.\d+$"


def _flags(command: str) -> dict:
    return {**COMMANDS[command][2], **_SHARED}


def _flag_text(name: str, kind) -> str:
    if kind in (SWITCH, MODE):
        return f"--{name}"
    if isinstance(kind, tuple):
        return f"--{name} {{{','.join(kind)}}}"
    return f"--{name} {name.upper().replace('-', '_')}"


def _usage(command: Optional[str]) -> str:
    if command is None:
        return f"usage: liftspin [-h] {{{','.join(COMMANDS)}}} ..."
    required = "".join(f" --{name} {name.upper()}"
                       for name, (_, default, _) in COMMANDS[command][2].items()
                       if default is REQUIRED)
    return f"usage: liftspin {command} [-h]{required} [FLAG ...]"


def _help(command: Optional[str]) -> str:
    if command is None:
        lines = ["Local Euler factors of lifted Siegel eigenforms and their "
                 "factorization identities.", "", "commands:"]
        lines += [f"  {name:12} {about}" for name, (_, about, _) in COMMANDS.items()]
        lines += ["", "Run 'liftspin COMMAND -h' for the flags of a command.  A flag may "
                      "be shortened", "to any unique prefix and given as --flag VALUE or "
                      "--flag=VALUE."]
    else:
        lines = [COMMANDS[command][1], "", "flags:", "  -h, --help  show this help and exit"]
        for name, (kind, default, about) in _flags(command).items():
            notes = [about] if about else []
            if default is REQUIRED:
                notes.append("required")
            elif default not in (None, False):
                notes.append(f"default {default}")
            lines.append(f"  {_flag_text(name, kind)}")
            if notes:
                lines.append(f"      {'; '.join(notes)}")
    return "\n".join([_usage(command), ""] + lines) + "\n"


def _fail(command: Optional[str], message: str):
    """A usage error: usage and message on stderr, then exit 2."""
    prog = f"liftspin {command}" if command else "liftspin"
    sys.stderr.write(f"{_usage(command)}\n{prog}: error: {message}\n")
    raise SystemExit(2)


def _classify(arg: str, names, command: Optional[str]) -> Optional[tuple]:
    """(name, value or None) if arg is an option, else None; the name is None
    for an unknown option.  As argparse reads it: an exact name beats a
    prefix, two prefix matches are a usage error, a value may follow '=', and
    a negative number or a string with a space is a value."""
    if arg[:2] == "-h":  # -hh is -h twice; any other tail is a value -h refuses
        tail = arg[3:] if arg[2:3] == "=" else arg[2:]
        return "help", None if arg == "-h" or tail and not tail.strip("h") else tail
    if arg.startswith("--"):
        name, eq, value = arg[2:].partition("=")
        matches = [name] if name in names else [m for m in names if m.startswith(name)]
        if len(matches) > 1:
            _fail(command, f"ambiguous option: {arg} could match "
                           f"{', '.join('--' + m for m in matches)}")
        if matches:
            return matches[0], value if eq else None
    elif len(arg) < 2 or arg[0] != "-" or re.match(_NEGATIVE_NUMBER, arg):
        return None
    return None if " " in arg else (None, None)


def _help_exit(command: Optional[str], value: Optional[str]):
    if value is not None:
        _fail(command, f"argument -h/--help: ignored explicit argument {value!r}")
    sys.stdout.write(_help(command))
    raise SystemExit(0)


def parse_args(argv: List[str]) -> SimpleNamespace:
    """`command` and one attribute per flag of its table entry, dashes as
    underscores (--symbolic and --numeric set mode_flag).  A usage error
    raises SystemExit(2), -h/--help prints help and raises SystemExit(0);
    options are read in order, so the first of these wins."""
    stray, i = [], 0
    # before the command only --help counts; other options are stray
    while i < len(argv) and argv[i] != "--" and (hit := _classify(argv[i], ("help",), None)):
        if hit[0] == "help":
            _help_exit(None, hit[1])
        stray.append(argv[i])
        i += 1
    if i == len(argv):
        _fail(None, "the following arguments are required: command")
    command, args = argv[i], argv[i + 1:]
    if command not in COMMANDS:
        _fail(None, f"argument command: invalid choice: {command!r} "
                    f"(choose from {', '.join(map(repr, COMMANDS))})")
    flags = _flags(command)
    # every option is classified before any is read: an ambiguous prefix is an
    # error even after -h; '--' and all after it are stray
    end = args.index("--") if "--" in args else len(args)
    hits = [_classify(arg, ("help", *flags), command) for arg in args[:end]]
    hits += [None] * (len(args) - end)
    values = {"command": command}
    values.update(("mode_flag" if kind == MODE else name.replace("-", "_"),
                   None if default is REQUIRED else default)
                  for name, (kind, default, _) in flags.items())
    seen, j = set(), 0
    while j < len(args):
        hit, j = hits[j], j + 1
        if hit is None or hit[0] is None:
            stray.append(args[j - 1])
            continue
        name, value = hit
        if name == "help":
            _help_exit(command, value)
        kind = flags[name][0]
        if value is not None and kind in (SWITCH, MODE):
            _fail(command, f"argument --{name}: ignored explicit argument {value!r}")
        if value is None and kind not in (SWITCH, MODE):
            if j >= end or hits[j] is not None:
                _fail(command, f"argument --{name}: expected one argument")
            value, j = args[j], j + 1
        seen.add(name)
        dest = name.replace("-", "_")
        if kind == SWITCH:
            values[dest] = True
        elif kind == MODE:
            if values["mode_flag"] not in (None, name):
                _fail(command, f"argument --{name}: not allowed with argument "
                               f"--{values['mode_flag']}")
            values["mode_flag"] = name
        elif kind == APPEND:
            values[dest] = (values[dest] or []) + [value]
        elif isinstance(kind, tuple):
            if value not in kind:
                _fail(command, f"argument --{name}: invalid choice: {value!r} "
                               f"(choose from {', '.join(map(repr, kind))})")
            values[dest] = value
        else:
            try:
                values[dest] = kind(value)
            except ValueError:
                _fail(command, f"argument --{name}: invalid {kind.__name__} value: {value!r}")
    missing = [f"--{name}" for name, (_, default, _) in flags.items()
               if default is REQUIRED and name not in seen]
    if missing:
        _fail(command, f"the following arguments are required: {', '.join(missing)}")
    if stray:
        _fail(command, f"unrecognized arguments: {' '.join(stray)}")
    return SimpleNamespace(**values)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # variables go in right after the subcommand, so the parser checks them
    # as it checks flags, and an explicit flag, coming later, wins
    env = [f"--{flag}={os.environ[var]}" for flag in ENV_FLAGS
           if (var := "LIFTSPIN_" + flag.upper().replace("-", "_")) in os.environ]
    args = parse_args(argv[:1] + env + argv[1:])
    try:
        _check_size_caps(args)
        return COMMANDS[args.command][0](args)
    except UnsupportedInput as exc:
        print(f"liftspin: unsupported input: {exc}", file=sys.stderr)
        return 3
    except (ValueError, IndexError, OSError) as exc:
        print(f"liftspin: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
