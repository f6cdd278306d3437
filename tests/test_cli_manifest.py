"""Byte-exact CLI contract: exit code, stdout size and stdout sha256 per argv,
and the exact stderr of every argv that exits 2 or 3.

`golden/cli_sha256.json` was captured before the identity registry replaced
the per-identity dispatch, so any change in what a command prints (or how it
exits) shows up here.  `golden/cli_stderr.json` holds the refusal message of
each argv the manifest pins at exit 2 (usage error) or 3 (unsupported input),
with the golden directory written as `{golden}`: the message, not the exit
code, tells one refusal from another.

New argvs are pinned from the current code with

    PYTHONPATH=src python tests/test_cli_manifest.py

which writes entries only for argvs missing from either file and never
touches an existing one.  To re-pin an entry on purpose (an intended output
change), delete it from the JSON by hand first.
"""

import hashlib
import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

GOLDEN = Path(__file__).parent / "golden"
MANIFEST = GOLDEN / "cli_sha256.json"
STDERR = GOLDEN / "cli_stderr.json"
#: the exit codes of a refusal
REFUSED = (2, 3)

_EULER_EXPANDED = [
    ("main_theorem", 2, 10), ("main_theorem", 2, 4), ("main_theorem", 4, 10),
    ("ikeda_spinor", 1, 10), ("ikeda_spinor", 2, 10), ("ikeda_spinor", 4, 4),
    ("ikeda_standard", 1, 10), ("ikeda_standard", 3, 10), ("ikeda_standard", 7, 4),
    ("miyawaki_standard", 2, 10), ("miyawaki_standard", 4, 10),
    ("example_deg3", 2, 10), ("example_deg7", 4, 10),
]
_EULER_FACTORED = [
    ("main_theorem", 3, 10), ("main_theorem", 6, 4), ("main_theorem", 7, 4),
    ("ikeda_spinor", 4, 4), ("ikeda_spinor", 5, 4), ("ikeda_spinor", 7, 4),
    ("ikeda_standard", 6, 10), ("miyawaki_standard", 6, 10),
    ("example_deg5", 3, 10), ("example_deg7", 4, 16),
]
_EULER_NUMERIC = [
    ("main_theorem", 2, 10, 2), ("main_theorem", 2, 10, 3),
    ("ikeda_spinor", 2, 10, 2), ("ikeda_standard", 2, 6, 2),
    ("miyawaki_standard", 2, 10, 5), ("example_deg3", 2, 10, 7),
]
_EULER_SIDES = ("euler", "main_theorem", "ikeda_spinor", "ikeda_standard",
                "miyawaki_standard", "example_deg3", "example_deg5", "example_deg7")
_VERIFY_SINGLE = [
    ("main_theorem", 2), ("main_theorem", 6), ("main_theorem", 7), ("main_theorem", 1),
    ("ikeda_spinor", 1), ("ikeda_spinor", 4), ("ikeda_spinor", 5), ("ikeda_spinor", 0),
    ("ikeda_standard", 6), ("ikeda_standard", 7), ("ikeda_standard", 0),
    ("miyawaki_standard", 2), ("miyawaki_standard", 7), ("miyawaki_standard", 1),
    ("c1_frobenius", 2), ("c1_frobenius", 8), ("c1_frobenius", 1),
    ("example_deg3", 2), ("example_deg3", 5), ("example_deg5", 3), ("example_deg7", 9),
    ("beta_epsilon_match", 2), ("beta_epsilon_match", 9),
]
_IDS = ("main_theorem", "ikeda_spinor", "ikeda_standard", "miyawaki_standard",
        "c1_frobenius", "example_deg3", "example_deg5", "example_deg7",
        "beta_epsilon_match")


def _argv_list():
    out = []
    for ident, n, k in _EULER_EXPANDED:
        for side in ("lhs", "rhs"):
            out.append(f"euler --identity {ident} --side {side} --n {n} --k {k}")
    for ident, n, k in _EULER_FACTORED:
        for side in ("lhs", "rhs"):
            out.append(f"euler --identity {ident} --side {side} --n {n} --k {k} --factored")
    for ident, n, k, p in _EULER_NUMERIC:
        for side in ("lhs", "rhs"):
            out.append(f"euler --identity {ident} --side {side} --n {n} --k {k} "
                       f"--mode numeric --prime {p}")
    out += [
        "euler --identity main_theorem --side rhs --n 2 --k 10 --mode numeric --prime 5 --factored",
        "euler --identity main_theorem --side lhs --n 2 --k 10 --format text",
        "euler --identity ikeda_standard --side lhs --n 2 --k 10 --factored --format text",
        "euler --identity main_theorem --side lhs --n 1 --k 10",
        "euler --identity ikeda_spinor --side lhs --n 0 --k 10",
        "euler --identity example_deg3 --side lhs --n 5 --k 10",
        "euler --identity example_deg7 --side rhs --n 2 --k 10 --factored",
        "euler --identity main_theorem --side lhs --n 2 --k 10 --mode numeric",
        "euler --identity c1_frobenius --side lhs --n 2 --k 10",
        "euler --identity beta_epsilon_match --side lhs --n 2 --k 10",
    ]
    # numeric mode with k+n odd is a usage error for every identity
    out += [f"euler --identity {ident} --side lhs --n 3 --k 10 --mode numeric --prime 2"
            for ident in _EULER_SIDES[1:]]
    for ident, n in _VERIFY_SINGLE:
        out.append(f"verify --identity {ident} --n {n} --k 10")
    out += [f"verify --identity {ident} --n 3 --k 10 --mode numeric --prime 2"
            for ident in _IDS]
    out += [
        "verify --all --symbolic",
        "verify --all --format text",
        "verify --identity all --k 4",
        "verify",
        "verify --all --numeric",
        "verify --all --numeric --witness --format text",
        "verify --all --numeric --n 4 --k 8",
        "verify --all --numeric --prime 3",
        "verify --identity main_theorem --n 2 --k 10 --numeric",
        "verify --identity main_theorem --n 2 --k 10 --mode numeric --primes-up-to 30",
        "verify --identity main_theorem --n 3 --k 11 --mode numeric --prime 2",
        "verify --identity main_theorem --n 4 --k 8 --mode numeric --prime 2",
        "verify --identity main_theorem --n 1 --k 11 --mode numeric --prime 2",
        "verify --identity ikeda_standard --n 2 --k 10 --numeric",
        "verify --identity ikeda_standard --n 4 --k 10 --mode numeric --primes-up-to 13",
        "verify --identity ikeda_standard --n 7 --k 9 --mode numeric --prime 2",
        "verify --identity ikeda_spinor --n 2 --k 10 --mode numeric --prime 2",
        "verify --identity c1_frobenius --n 2 --k 10 --mode numeric --prime 2",
        "verify --identity main_theorem --symbolic --numeric",
        "verify --identity bogus",
        "verify --identity main_theorem --n 3 --witness --format text",
    ]
    for n in (2, 3, 6):
        out.append(f"verify --negative-control --witness --n {n}")
        out.append(f"verify --negative-control --n {n} --format text")
    out += [
        "verify --negative-control --n 1",
        "verify --negative-control --n 7",
        "verify --negative-control --n 3 --k 10 --numeric",
        "beta-table --n 1",
        "beta-table --n 3 --format text",
        "beta-table --n 5",
        "eigenvalues --weight 12 --primes-up-to 20 --format text",
        "eigenvalues --weight 20 --prime 97",
        "eigenvalues --weight 24 --prime 2",
        "eigenvalues --weight 12 --prime 1",
        "lvalue --side lhs --n 2 --k 10 --s 25 --primes-up-to 100",
        "lvalue --side rhs --n 2 --k 10 --s 25+2j --primes-up-to 50 --format text",
        "lvalue --side lhs --n 2 --k 10 --s 16 --primes-up-to 10",
        "lvalue --side lhs --n 3 --k 10 --s 40 --primes-up-to 10",
        # weights whose cusp space is not one-dimensional, and --n above its cap
        "eigenvalues --weight 40 --prime 2",
        "eigenvalues --weight 60 --prime 2",
        "verify --identity main_theorem --n 2 --k 20 --numeric",
        "euler --identity ikeda_standard --side lhs --n 2 --k 20 --mode numeric --prime 2",
        "beta-table --n 33",
        "verify --identity c1_frobenius --n 33",
        # numeric verdicts at the top n of each factor equality
        "verify --identity main_theorem --n 6 --k 10 --mode numeric --prime 2",
        "verify --identity main_theorem --n 5 --k 11 --mode numeric --prime 199",
        "verify --identity ikeda_spinor --n 4 --k 10 --mode numeric --prime 199",
        "verify --identity miyawaki_standard --n 6 --k 10 --numeric",
        "verify --identity example_deg3 --n 2 --k 10 --mode numeric --prime 2",
        # the big expansions: degree 32 on both sides, degree 64 in both
        # formats, and degree 32 with q-exponents far beyond 2^64
        "euler --identity main_theorem --side lhs --n 3 --k 10",
        "euler --identity main_theorem --side rhs --n 3 --k 10",
        "euler --identity ikeda_spinor --side lhs --n 3 --k 10",
        "euler --identity ikeda_spinor --side lhs --n 3 --k 10 --format text",
        "euler --identity main_theorem --side lhs --n 3 --k 1000000000000000000000",
        # roots past double range at p = 999983 (tables "999983 0" for f and g)
        "euler --identity main_theorem --side lhs --n 6 --k 10 --mode numeric --prime 999983 "
        "--factored --eigenvalues-file f={golden}/zero_p999983.txt "
        "--eigenvalues-file g={golden}/zero_p999983.txt",
        "lvalue --side lhs --n 6 --k 10 --s 200 --prime 999983 "
        "--eigenvalues-file f={golden}/zero_p999983.txt "
        "--eigenvalues-file g={golden}/zero_p999983.txt",
        # a role-tagged table for eigenvalues, and one role given twice
        "eigenvalues --weight 12 --prime 2 --eigenvalues-file f={golden}/zero_p999983.txt",
        "verify --identity ikeda_standard --n 2 --k 10 --numeric --prime 999983 "
        "--eigenvalues-file f={golden}/zero_p999983.txt "
        "--eigenvalues-file f={golden}/zero_p999983.txt",
        # a non-finite --s, and a --primes-up-to bound that names no prime
        "lvalue --side lhs --n 2 --k 10 --s nan --primes-up-to 10",
        "lvalue --side lhs --n 2 --k 10 --s inf --primes-up-to 10",
        "lvalue --side lhs --n 2 --k 10 --s 25+nanj --primes-up-to 10",
        "verify --identity main_theorem --n 2 --k 10 --numeric --primes-up-to 1",
        "lvalue --side lhs --n 2 --k 10 --s 25 --primes-up-to 0",
        # no prime flag for lvalue, and a table value inside Deligne's bound
        # that is not an integer
        "lvalue --side lhs --n 2 --k 10 --s 25",
        "verify --identity main_theorem --n 2 --k 10 --numeric --prime 3 "
        "--eigenvalues-file g={golden}/half_p3.txt",
        # the eigenvalue constants at the --n cap
        "verify --identity c1_frobenius --n 32 --k 10",
        # eigenvalues checks the table values it prints: one not an integer,
        # one outside Deligne's bound
        "eigenvalues --weight 12 --prime 3 --eigenvalues-file {golden}/half_p3.txt",
        "eigenvalues --weight 12 --prime 3 --eigenvalues-file {golden}/huge_p3.txt",
        # eigenvalues from a q-expansion at the --precision cap
        "eigenvalues --weight 26 --precision 2000 --primes-up-to 1999",
    ]
    out += [f"eigenvalues --weight {w} --precision 2000 --primes-up-to 1999"
            for w in (12, 16, 18, 20, 22)]
    # a precision below the dimension, and one too low for the prime asked
    out += [
        "eigenvalues --weight 20 --prime 2 --precision 0",
        "eigenvalues --weight 20 --prime 2 --precision 1",
    ]
    # numeric euler as text, expanded and factored
    out += [
        "euler --identity main_theorem --side lhs --n 2 --k 10 --mode numeric --prime 5 "
        "--format text",
        "euler --identity main_theorem --side lhs --n 2 --k 10 --mode numeric --prime 5 "
        "--format text --factored",
    ]
    # an expansion over the term budget, and k = 0 with and without eigenforms
    out += [
        "euler --identity miyawaki_standard --side lhs --n 16 --k 1",
        "verify --identity main_theorem --k 0",
        "euler --identity main_theorem --side lhs --n 2 --k 0 --mode numeric --prime 2",
        "verify --identity main_theorem --k 0 --numeric",
        "lvalue --side lhs --n 2 --k 0 --s 25 --prime 2",
    ]
    # parsing edge cases: abbreviated flags, the `=` form, a negative value,
    # an ambiguous prefix and a stray positional
    out += [
        "verify --neg --wit --n 2",
        "verify --identity=main_theorem --n=2 --k=10",
        "verify --identity main_theorem --n 2 --k -3",
        "euler --identity main_theorem --side lhs --f",
        "beta-table --n 2 stray",
    ]
    # numeric output in root order, pinned before the product sides moved
    # to one builder: the standard sides at p = 199, two spinor identities
    # at p = 2, and L-values over both sides' roots
    out += [f"euler --identity {ident} --side {side} --n 6 --k 10 --mode numeric --prime 199"
            for ident in ("ikeda_standard", "miyawaki_standard") for side in ("lhs", "rhs")]
    out += [f"euler --identity {ident} --side {side} --n 3 --k 9 --mode numeric --prime 2"
            for ident in ("example_deg5", "main_theorem") for side in ("lhs", "rhs")]
    out += [f"lvalue --side {side} --n 4 --k 8 --s 60 --primes-up-to 30"
            for side in ("lhs", "rhs")]
    # finite roots whose expanded coefficients leave double range (exit 3)
    out += [f"euler --identity {ident} --side lhs --n {n} --k {k} --mode numeric --prime {p}"
            for ident, n, k, p in (("example_deg5", 3, 9, 3), ("example_deg5", 3, 9, 199),
                                   ("ikeda_spinor", 3, 9, 2), ("example_deg7", 4, 8, 2))]
    # --k 0 on commands that never read k: accepted, exit 0
    out += [
        "beta-table --n 2 --k 0",
        "verify --identity beta_epsilon_match --k 0",
    ]
    # symbolic-only identities in numeric mode are refused before any
    # eigenform is built, also where that eigenform does not exist
    out += [
        "verify --identity c1_frobenius --n 4 --k 10 --mode numeric --prime 2",
        "verify --identity beta_epsilon_match --n 4 --k 12 --mode numeric --prime 2",
    ]
    # numeric verify outside the identity's n range is refused before any
    # eigenform is built, also where that eigenform does not exist
    out += [
        "verify --identity main_theorem --n 1 --k 13 --mode numeric --prime 2",
        "verify --identity main_theorem --n 7 --k 7 --mode numeric --prime 2",
    ]
    # a wrong integer inside Deligne's bound, tau(2) read as -23: it breaks
    # Ramanujan's congruence mod 691 (exit 3)
    out += [
        "verify --identity main_theorem --n 2 --k 10 --mode numeric --prime 2 "
        "--eigenvalues-file f={golden}/w20_p2.txt --eigenvalues-file g={golden}/wrong_tau_p2.txt",
        "eigenvalues --weight 12 --prime 2 --eigenvalues-file {golden}/wrong_tau_p2.txt",
    ]
    # a table ("2 5") at weights whose cusp space is not one-dimensional:
    # S_14 and S_13 are zero-dimensional, S_24 has irrational eigenvalues
    # (exit 3, as without a table)
    out += [f"eigenvalues --weight {w} --prime 2 --eigenvalues-file {{golden}}/five_p2.txt"
            for w in (14, 24, 13)]
    out += [
        "verify --identity main_theorem --n 2 --k 12 --mode numeric --prime 2 "
        "--eigenvalues-file f={golden}/five_p2.txt --eigenvalues-file g={golden}/five_p2.txt",
        "euler --identity ikeda_standard --side lhs --n 2 --k 12 --mode numeric --prime 2 "
        "--eigenvalues-file {golden}/five_p2.txt",
    ]
    # the compact witness of the negative control as text, pinned before
    # compact JSON moved from json.dumps to laurent.dumps
    out += [f"verify --negative-control --witness --n {n} --format text" for n in (2, 3)]
    # lvalue outside the side's n range or genus cap is refused before any
    # eigenform is built, also where that eigenform does not exist
    out += [f"lvalue --side lhs --n {n} --k {k} --s {s} --prime 2"
            for n, k, s in ((1, 11, 25), (1, 13, 25), (0, 12, 25), (13, 11, 400))]
    # a negative imaginary part is written with its own sign in text
    out.append("lvalue --side lhs --n 2 --k 10 --s 25-2j --primes-up-to 10 --format text")
    # past the tempered bound 10.5 at (2, 10) but not past the side's own
    # half-plane Re(s) > 16.5, where the product does not converge (exit 3)
    out.append("lvalue --side lhs --n 2 --k 10 --s 16.2 --primes-up-to 10")
    # the T^1 witness and the factored roots, pinned before both were
    # written from packed root-count rows
    out += [
        "verify --negative-control --witness --n 6 --format text",
        "verify --negative-control --witness --n 4 --k 1000000000000000000001",
        "euler --identity ikeda_spinor --side lhs --n 4 --k 1000000000000000000001 --factored",
        "euler --identity miyawaki_standard --side rhs --n 6 --k 10 --factored --format text",
    ]
    # multi-prime report lists, table-fed or not, and eigenvalue rows, pinned
    # before both were written through one record template
    table_fed = ("verify --identity ikeda_standard --n 2 --k 6 --mode numeric "
                 "--primes-up-to 19 --eigenvalues-file {golden}/eigenvalues_w12_text.txt")
    out += [
        table_fed,
        table_fed + " --witness",
        table_fed + " --format text",
        "verify --identity main_theorem --n 2 --k 10 --mode numeric --primes-up-to 13 --witness",
        "eigenvalues --weight 16 --primes-up-to 50",
    ]
    # the order of the eigenvalue-table refusals, pinned before one function
    # read every table role: numeric euler's one-prime check before a table
    # is loaded, a tagged table for eigenvalues before its prime is checked,
    # an untagged table while two forms are in play, one given twice
    out += [
        "euler --identity main_theorem --side lhs --n 2 --k 10 --mode numeric --primes-up-to 30 "
        "--eigenvalues-file f={golden}/half_p3.txt --eigenvalues-file g={golden}/half_p3.txt",
        "eigenvalues --weight 12 --prime 4 --eigenvalues-file f={golden}/half_p3.txt",
        "verify --identity main_theorem --n 2 --k 10 --numeric --prime 3 "
        "--eigenvalues-file {golden}/half_p3.txt",
        "verify --identity ikeda_standard --n 2 --k 10 --numeric --prime 3 "
        "--eigenvalues-file {golden}/half_p3.txt --eigenvalues-file {golden}/half_p3.txt",
    ]
    return out


ARGVS = _argv_list()


def run_argv(argv: str):
    """(exit code, stdout bytes, stderr text) of one in-process CLI run;
    `{golden}` in an argv stands for the directory of the golden files, and
    stands for it again in stderr."""
    from liftspin.cli import main

    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main([arg.replace("{golden}", str(GOLDEN)) for arg in argv.split()])
        except SystemExit as exc:  # usage errors
            code = exc.code
    return code, out.getvalue().encode("utf-8"), err.getvalue().replace(str(GOLDEN), "{golden}")


def _entry(code, data):
    return {"exit": code, "bytes": len(data), "sha256": hashlib.sha256(data).hexdigest()}


def _load(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}


#: the argvs the manifest pins at a refusal's exit code, in manifest order
REFUSALS = [argv for argv, entry in _load(MANIFEST).items() if entry["exit"] in REFUSED]


@pytest.fixture(scope="module")
def manifest():
    return _load(MANIFEST)


@pytest.fixture(scope="module")
def stderr_pins():
    return _load(STDERR)


def test_manifest_covers_every_argv(manifest):
    assert list(manifest) == ARGVS


@pytest.mark.parametrize("argv", ARGVS)
def test_cli_output_matches_manifest(manifest, argv):
    code, out, _ = run_argv(argv)
    assert _entry(code, out) == manifest[argv]


def test_stderr_pins_cover_every_refusal(stderr_pins):
    assert list(stderr_pins) == REFUSALS


@pytest.mark.parametrize("argv", REFUSALS)
def test_refusal_message_matches_pin(stderr_pins, argv):
    code, _, err = run_argv(argv)
    assert code in REFUSED
    assert err == stderr_pins[argv]


# one --format json argv per path that prints a dict or list, each pinned above
_JSON_PATHS = [
    "verify --all --symbolic",
    "verify --negative-control --witness --n 6",
    "euler --identity main_theorem --side lhs --n 2 --k 10",
    "euler --identity main_theorem --side lhs --n 6 --k 4 --factored",
    "euler --identity main_theorem --side lhs --n 2 --k 10 --mode numeric --prime 2",
    "eigenvalues --weight 20 --prime 97",
    "beta-table --n 5",
    "lvalue --side lhs --n 2 --k 10 --s 25 --primes-up-to 100",
]
_TABLE_FED = "verify --identity main_theorem --n 2 --k 10 --mode numeric --primes-up-to 30"


def test_json_output_bypasses_the_pure_python_encoder(manifest, monkeypatch, tmp_path):
    # json.dumps with indent runs json.encoder._make_iterencode; the CLI
    # writes its indent-2 JSON itself and the same bytes as before
    from liftspin.qexp import eigenform, primes_up_to

    tables = []
    for role, weight in (("f", 20), ("g", 12)):
        coeffs = eigenform(weight).qexp.coeffs
        path = tmp_path / f"w{weight}.txt"
        path.write_text("".join(f"{p} {coeffs[p]}\n" for p in primes_up_to(30)))
        tables.append(f"--eigenvalues-file {role}={path}")

    def refuse(*args, **kwargs):
        raise AssertionError("indented json.dumps on a CLI path")

    monkeypatch.setattr(json.encoder, "_make_iterencode", refuse)
    runs = [(argv, argv) for argv in _JSON_PATHS]
    # tables with the q-expansion's values give the q-expansion's report
    runs.append((" ".join([_TABLE_FED] + tables), _TABLE_FED))
    for argv, pinned in runs:
        code, out, _ = run_argv(argv)
        assert _entry(code, out) == manifest[pinned], argv


if __name__ == "__main__":
    pinned, messages = _load(MANIFEST), _load(STDERR)
    missing = [argv for argv in ARGVS if argv not in pinned]
    for argv in missing:
        code, out, _ = run_argv(argv)
        pinned[argv] = _entry(code, out)
    data = {argv: pinned[argv] for argv in ARGVS}
    MANIFEST.write_text(json.dumps(data, indent=1) + "\n", encoding="utf-8")
    refusals = [argv for argv in ARGVS if data[argv]["exit"] in REFUSED]
    unpinned = [argv for argv in refusals if argv not in messages]
    messages.update((argv, run_argv(argv)[2]) for argv in unpinned)
    STDERR.write_text(json.dumps({argv: messages[argv] for argv in refusals}, indent=1) + "\n",
                      encoding="utf-8")
    print(f"pinned {len(missing)} new of {len(data)} entries in {MANIFEST} and "
          f"{len(unpinned)} new of {len(refusals)} in {STDERR}", file=sys.stderr)
