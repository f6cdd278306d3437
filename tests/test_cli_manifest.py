"""Byte-exact CLI contract: exit code, stdout size and stdout sha256 per argv.

`golden/cli_sha256.json` was captured before the identity registry replaced
the per-identity dispatch, so any change in what a command prints (or how it
exits) shows up here.  The two degree-32 expansions (about 12 MB each) are
left out; the `expand` benchmark checks those against independent references.

Regenerate the manifest (only when an output change is intended) with

    PYTHONPATH=src python tests/test_cli_manifest.py
"""

import hashlib
import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

MANIFEST = Path(__file__).parent / "golden" / "cli_sha256.json"

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
    ]
    return out


ARGVS = _argv_list()


def run_argv(argv: str):
    """(exit code, stdout bytes) of one in-process CLI run."""
    from liftspin.cli import main

    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv.split())
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    return code, out.getvalue().encode("utf-8")


def _entry(code, data):
    return {"exit": code, "bytes": len(data), "sha256": hashlib.sha256(data).hexdigest()}


@pytest.fixture(scope="module")
def manifest():
    return json.loads(MANIFEST.read_text(encoding="utf-8"))


def test_manifest_covers_every_argv(manifest):
    assert list(manifest) == ARGVS


@pytest.mark.parametrize("argv", ARGVS)
def test_cli_output_matches_manifest(manifest, argv):
    assert _entry(*run_argv(argv)) == manifest[argv]


if __name__ == "__main__":
    data = {argv: _entry(*run_argv(argv)) for argv in ARGVS}
    MANIFEST.write_text(json.dumps(data, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(data)} entries to {MANIFEST}", file=sys.stderr)
