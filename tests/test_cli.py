import io
import json
import subprocess
import sys
import tracemalloc
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from liftspin import cli, identities
from liftspin.cli import MAX_K, MAX_N, main
from liftspin.qexp import MAX_PRECISION, MAX_PRIMES_UP_TO, eigenform, primes_up_to

GOLDEN = Path(__file__).parent / "golden"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_eigenvalues_json(capsys):
    code, out, _ = run(capsys, "eigenvalues", "--weight", "12",
                       "--primes-up-to", "7", "--precision", "20")
    assert code == 0
    data = json.loads(out)
    assert data["weight"] == 12
    assert data["eigenvalues"][0] == {"p": 2, "lambda": "-24"}
    assert [row["p"] for row in data["eigenvalues"]] == [2, 3, 5, 7]


def test_eigenvalues_text_same_data(capsys):
    code, out, _ = run(capsys, "eigenvalues", "--weight", "12",
                       "--primes-up-to", "5", "--precision", "20", "--format", "text")
    assert code == 0
    rows = [line.split() for line in out.strip().splitlines()[1:]]
    _, out_json, _ = run(capsys, "eigenvalues", "--weight", "12",
                         "--primes-up-to", "5", "--precision", "20")
    json_rows = [[str(r["p"]), r["lambda"]] for r in json.loads(out_json)["eigenvalues"]]
    assert rows == json_rows


def test_eigenvalues_weight20(capsys, f20):
    code, out, _ = run(capsys, "eigenvalues", "--weight", "20",
                       "--primes-up-to", "11", "--precision", "30")
    assert code == 0
    rows = json.loads(out)["eigenvalues"]
    assert len(rows) == 5
    for row in rows:
        assert row["lambda"] == str(f20.qexp.coeffs[row["p"]])


def test_eigenvalues_nonprime_exit3(capsys):
    code, _, err = run(capsys, "eigenvalues", "--weight", "12", "--prime", "1")
    assert code == 3 and "not prime" in err


def test_eigenvalues_from_file(capsys, tmp_path):
    table = tmp_path / "t.txt"
    table.write_text("2 -24\n3 252\n")
    code, out, _ = run(capsys, "eigenvalues", "--weight", "12", "--prime", "3",
                       "--eigenvalues-file", str(table))
    assert code == 0
    assert json.loads(out)["eigenvalues"] == [{"p": 3, "lambda": "252"}]


@pytest.mark.parametrize("role", ["f", "g"])
def test_eigenvalues_rejects_role_tagged_table(capsys, tmp_path, role):
    # the tagged table used to be ignored: lambda(2) came out -24, not 999
    table = tmp_path / "t.txt"
    table.write_text("2 999\n")
    code, out, err = run(capsys, "eigenvalues", "--weight", "12", "--prime", "2",
                         "--eigenvalues-file", f"{role}={table}")
    assert code == 2 and out == "" and "untagged" in err


_TWO_FORMS = [["verify", "--identity", "main_theorem", "--n", "2", "--k", "10", "--numeric"],
              ["lvalue", "--side", "lhs", "--n", "2", "--k", "10", "--s", "25", "--prime", "2"]]
_F_ONLY = ["verify", "--identity", "ikeda_standard", "--n", "2", "--k", "10", "--numeric"]
_EIGENVALUES = ["eigenvalues", "--weight", "12", "--prime", "2"]
_REPEATS = [(command, role) for command in _TWO_FORMS for role in ("f=", "g=", "")] \
    + [(_F_ONLY, "f="), (_F_ONLY, ""), (_EIGENVALUES, "")]


@pytest.mark.parametrize("command, role", _REPEATS)
def test_repeated_table_role_exit2(capsys, tmp_path, command, role):
    # the last of two tables for one role used to win silently
    first, second = tmp_path / "a.txt", tmp_path / "b.txt"
    first.write_text("2 -24\n")
    second.write_text("2 456\n")
    code, out, err = run(capsys, *command, "--eigenvalues-file", f"{role}{first}",
                         "--eigenvalues-file", f"{role}{second}")
    assert code == 2 and out == "" and "more than one" in err


@pytest.mark.parametrize("entry", ["", "f="])
def test_empty_table_path_exit2(capsys, entry):
    # an empty path used to fall back to q-expansions without a word
    code, out, _ = run(capsys, "verify", "--identity", "ikeda_standard", "--n", "2",
                       "--k", "10", "--numeric", "--prime", "2", "--eigenvalues-file", entry)
    assert code == 2 and out == ""


def test_euler_sides_identical(capsys):
    code, lhs, _ = run(capsys, "euler", "--identity", "main_theorem",
                       "--side", "lhs", "--n", "2", "--k", "10")
    assert code == 0
    code, rhs, _ = run(capsys, "euler", "--identity", "main_theorem",
                       "--side", "rhs", "--n", "2", "--k", "10")
    assert code == 0
    assert lhs == rhs
    assert json.loads(lhs)["degree"] == 8


def test_euler_ikeda_degree16(capsys):
    code, out, _ = run(capsys, "euler", "--identity", "ikeda_spinor",
                       "--side", "lhs", "--n", "2", "--k", "10")
    assert code == 0 and json.loads(out)["degree"] == 16


def test_euler_expansion_cap_exit3_and_factored(capsys):
    code, _, err = run(capsys, "euler", "--identity", "ikeda_spinor",
                       "--side", "lhs", "--n", "4", "--k", "4")
    assert code == 3 and "expansion cap" in err
    code, out, _ = run(capsys, "euler", "--identity", "ikeda_spinor",
                       "--side", "lhs", "--n", "4", "--k", "4", "--factored")
    assert code == 0
    data = json.loads(out)
    assert data["degree"] == 256 and len(data["roots"]) == 256


def test_euler_term_budget_exit3_before_output(capsys, tmp_path):
    target = tmp_path / "out.json"
    code, out, err = run(capsys, "euler", "--identity", "miyawaki_standard", "--side", "lhs",
                         "--n", "16", "--k", "1", "--output", str(target))
    assert code == 3 and out == "" and "1713988 terms" in err
    assert not target.exists()


@pytest.mark.parametrize("argv", [
    "verify --identity main_theorem --k 0",
    "euler --identity main_theorem --side lhs --n 2 --k 0 --mode numeric --prime 2",
    "verify --identity main_theorem --k 0 --numeric",
    "lvalue --side lhs --n 2 --k 0 --s 25 --prime 2",
    "verify --identity ikeda_standard --n 2 --k -2 --numeric",
])
def test_k_below_one_is_a_usage_error_on_every_path(capsys, argv):
    # numeric runs check k before they build the weight-2k eigenform
    code, out, err = run(capsys, *argv.split())
    assert code == 2 and out == "" and "need k >= 1" in err


class _CountingSink(io.TextIOBase):
    """A text stream that keeps only the number of characters written."""

    def __init__(self):
        self.written = 0

    def write(self, text):
        self.written += len(text)
        return len(text)


def test_streamed_degree_2048_factored_output_stays_small():
    # the roots go out through one template straight from the sorted
    # triples; the per-root dicts and json.dumps(..., indent=2) it replaced
    # peaked at 4.0 MB here
    argv = ["euler", "--identity", "main_theorem", "--side", "lhs", "--n", "6", "--k", "4",
            "--factored"]
    sink = _CountingSink()
    tracemalloc.start()
    try:
        with redirect_stdout(sink):
            code = main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0 and sink.written == 343_886
    assert peak < 2 ** 20, peak


def test_euler_numeric(capsys):
    code, out, _ = run(capsys, "euler", "--identity", "main_theorem", "--side",
                       "lhs", "--n", "2", "--k", "10", "--mode", "numeric",
                       "--prime", "2", "--precision", "20")
    assert code == 0
    data = json.loads(out)
    assert data["degree"] == 8
    assert data["coeffs"][0] == [1.0, 0.0]


def test_beta_table_formats_agree(capsys):
    code, out_json, _ = run(capsys, "beta-table", "--n", "2")
    assert code == 0
    entries = json.loads(out_json)["entries"]
    code, out_text, _ = run(capsys, "beta-table", "--n", "2", "--format", "text")
    assert code == 0
    text_rows = [line.split() for line in out_text.strip().splitlines()[2:]]
    assert [[str(e["m"]), str(e["r"]), str(e["alpha"]), str(e["beta"])]
            for e in entries] == text_rows


def test_lvalue_sides_agree(capsys):
    code, lhs_out, _ = run(capsys, "lvalue", "--side", "lhs", "--n", "2", "--k", "10",
                           "--s", "25", "--primes-up-to", "50", "--precision", "60")
    assert code == 0
    code, rhs_out, _ = run(capsys, "lvalue", "--side", "rhs", "--n", "2", "--k", "10",
                           "--s", "25", "--primes-up-to", "50", "--precision", "60")
    assert code == 0
    lv = complex(*json.loads(lhs_out)["value"])
    rv = complex(*json.loads(rhs_out)["value"])
    assert abs(lv - rv) <= 1e-8 * abs(lv)
    assert "non-rigorous" in json.loads(lhs_out)["note"]


def test_lvalue_empty_product(capsys):
    # a --primes-up-to bound below 2 names no prime: a usage error, not L = 1
    code, out, err = run(capsys, "lvalue", "--side", "lhs", "--n", "2", "--k", "10",
                         "--s", "25", "--primes-up-to", "0", "--precision", "10")
    assert code == 2 and out == "" and "includes no prime" in err


@pytest.mark.parametrize("argv", [
    ["eigenvalues", "--weight", "12"],
    ["lvalue", "--side", "lhs", "--n", "2", "--k", "10", "--s", "25"],
    ["euler", "--identity", "main_theorem", "--side", "lhs", "--mode", "numeric"],
])
def test_missing_prime_flag_exit2(capsys, monkeypatch, argv):
    # refused before any eigenform is built; lvalue printed L = 1 from no primes
    monkeypatch.setattr(cli, "eigenform", lambda *args: pytest.fail("built a form"))
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert f"{argv[0]} needs --prime or --primes-up-to" in err


def test_verify_numeric_empty_prime_bound_exit2(capsys):
    # the defaults (p = 2) must not stand in for a bound that names no prime
    code, out, err = run(capsys, "verify", "--identity", "main_theorem", "--n", "2",
                         "--k", "10", "--numeric", "--primes-up-to", "1")
    assert code == 2 and out == "" and "includes no prime" in err


@pytest.mark.parametrize("s", ["nan", "inf", "25+nanj", "25+infj", "-inf"])
def test_lvalue_non_finite_s_exit3(capsys, s):
    code, out, err = run(capsys, "lvalue", "--side", "lhs", "--n", "2", "--k", "10",
                         f"--s={s}", "--primes-up-to", "10")
    assert code == 3 and out == "" and "not a finite" in err


def test_lvalue_convergence_region(capsys):
    code, _, err = run(capsys, "lvalue", "--side", "lhs", "--n", "2", "--k", "10",
                       "--s", "16", "--primes-up-to", "10")
    assert code == 3 and "half-plane" in err


@pytest.mark.parametrize("n, k, s, bound", [
    (2, 10, "16.2", "16.5"), (3, 10, "28", "28.0"), (4, 8, "33.5", "33.5")])
def test_lvalue_half_plane_is_the_sides_own(capsys, monkeypatch, n, k, s, bound):
    # the lift is not tempered: its largest root has |root| = p^(max e/2), so
    # Re(s) must exceed max e/2 + 1 over the side's roots, past the tempered
    # (n - 1/2) k + 1; refused before any eigenform is built
    monkeypatch.setattr(cli, "eigenform", lambda *args: pytest.fail("built a form"))
    for side in ("lhs", "rhs"):
        code, out, err = run(capsys, "lvalue", "--side", side, "--n", str(n), "--k", str(k),
                             "--s", s, "--primes-up-to", "100")
        assert code == 3 and out == ""
        assert f"half-plane Re(s) > {bound}" in err


def test_lvalue_bad_s_is_usage_error(capsys):
    code, _, err = run(capsys, "lvalue", "--side", "lhs", "--n", "2", "--k", "10",
                       "--s", "banana", "--primes-up-to", "10")
    assert code == 2


def test_lvalue_text_signs_negative_imaginary_parts(capsys):
    code, out, _ = run(capsys, "lvalue", "--side", "lhs", "--n", "2", "--k", "10",
                       "--s", "25-2j", "--primes-up-to", "10", "--format", "text")
    assert code == 0
    first = out.splitlines()[0]
    assert first.startswith("L(25.0-2.0j, main_theorem/lhs) ~ ") and "+-" not in first
    code, json_out, _ = run(capsys, "lvalue", "--side", "lhs", "--n", "2", "--k", "10",
                            "--s", "25-2j", "--primes-up-to", "10")
    real, imag = json.loads(json_out)["value"]
    assert imag < 0 and first.endswith(f" ~ {real}{imag}j")


def test_numeric_parity_usage_error(capsys):
    code, _, err = run(capsys, "verify", "--identity", "main_theorem", "--n", "3",
                       "--k", "10", "--mode", "numeric", "--prime", "2")
    assert code == 2 and "k+n even" in err


def test_verify_all_symbolic(capsys):
    code, out, _ = run(capsys, "verify", "--all", "--format", "text")
    assert code == 0
    lines = out.strip().splitlines()
    assert all(line.startswith("PASS") for line in lines)
    assert len(lines) > 30


def test_verify_all_symbolic_flag_alias(capsys):
    code, out, _ = run(capsys, "verify", "--all", "--symbolic")
    assert code == 0
    assert all(e["verdict"] == "pass" for e in json.loads(out))


def test_eigenvalues_irrational_weight_exit3(capsys):
    code, _, err = run(capsys, "eigenvalues", "--weight", "24", "--prime", "2",
                       "--precision", "30")
    assert code == 3 and "irrational" in err.lower()


_FIVE = str(GOLDEN / "five_p2.txt")


@pytest.mark.parametrize("argv, message", [
    (["eigenvalues", "--weight", "14", "--eigenvalues-file", _FIVE], "S_14 is zero-dimensional"),
    (["eigenvalues", "--weight", "13", "--eigenvalues-file", _FIVE], "S_13 is zero-dimensional"),
    (["eigenvalues", "--weight", "24", "--eigenvalues-file", _FIVE],
     "S_24 has dimension 2 and irrational"),
    (["verify", "--identity", "main_theorem", "--n", "2", "--k", "12", "--mode", "numeric",
      "--eigenvalues-file", f"f={_FIVE}", "--eigenvalues-file", f"g={_FIVE}"],
     "S_24 has dimension 2 and irrational"),
])
def test_a_table_at_a_weight_without_a_rational_eigenform_exit3(capsys, argv, message):
    # the table "2 5" is refused for its weight, as a q-expansion would be
    code, out, err = run(capsys, *argv, "--prime", "2")
    assert (code, out) == (3, "") and message in err


def test_lvalue_tail_diagnostic(capsys):
    # raising the truncation bound moves the value by no more than the
    # reported increment scale; at s=25 both sit at rounding level
    code, out50, _ = run(capsys, "lvalue", "--side", "lhs", "--n", "2", "--k", "10",
                         "--s", "25", "--primes-up-to", "50", "--precision", "110")
    assert code == 0
    code, out100, _ = run(capsys, "lvalue", "--side", "lhs", "--n", "2", "--k", "10",
                          "--s", "25", "--primes-up-to", "100", "--precision", "110")
    assert code == 0
    d50, d100 = json.loads(out50), json.loads(out100)
    v50 = complex(*d50["value"])
    v100 = complex(*d100["value"])
    assert abs(v100 - v50) <= d50["last_prime_increment"] + 1e-15


def test_verify_single_report(capsys):
    code, out, _ = run(capsys, "verify", "--identity", "main_theorem", "--n", "3")
    assert code == 0
    data = json.loads(out)
    assert len(data) == 1 and data[0]["verdict"] == "pass"
    assert "witness" not in data[0]


def test_verify_numeric(capsys):
    code, out, _ = run(capsys, "verify", "--identity", "main_theorem", "--n", "2",
                       "--k", "10", "--mode", "numeric", "--prime", "7",
                       "--precision", "20")
    assert code == 0
    data = json.loads(out)
    assert data[0]["parameters"]["prime"] == 7


def test_verify_negative_control(capsys):
    code, out, _ = run(capsys, "verify", "--negative-control", "--witness")
    assert code == 0  # the self test passes because every corrupted run fails
    data = json.loads(out)
    assert data and all(e["verdict"] == "fail" for e in data)
    assert all(e["witness"] for e in data)


def test_verify_numeric_with_role_tagged_tables(capsys, tmp_path):
    ftab = tmp_path / "f.txt"
    ftab.write_text("2 456\n")
    gtab = tmp_path / "g.txt"
    gtab.write_text("2 -24\n")
    code, out, _ = run(capsys, "verify", "--identity", "main_theorem", "--n", "2",
                       "--k", "10", "--mode", "numeric", "--prime", "2",
                       "--eigenvalues-file", f"f={ftab}",
                       "--eigenvalues-file", f"g={gtab}")
    assert code == 0
    assert json.loads(out)[0]["verdict"] == "pass"
    # a bare file is ambiguous when two forms are involved
    code, _, err = run(capsys, "verify", "--identity", "main_theorem", "--n", "2",
                       "--k", "10", "--mode", "numeric", "--prime", "2",
                       "--eigenvalues-file", str(ftab))
    assert code == 2 and "f=PATH" in err


@pytest.mark.parametrize("ident, n, k", [
    ("c1_frobenius", 2, 10), ("c1_frobenius", 4, 10), ("example_deg5", 4, 10),
    ("beta_epsilon_match", 4, 12)])
def test_verify_numeric_unsupported_identity(capsys, monkeypatch, ident, n, k):
    # at (4, 10) and (4, 12) the eigenform of weight k+n cannot be built
    # (exit 3); the refusal comes first, whatever n and k are
    def refuse(*args, **kwargs):
        raise AssertionError("an eigenform was built for a symbolic-only identity")

    monkeypatch.setattr(cli, "eigenform", refuse)
    code, out, err = run(capsys, "verify", "--identity", ident, "--n", str(n),
                         "--k", str(k), "--mode", "numeric", "--prime", "2")
    assert (code, out) == (2, "") and "symbolic mode only" in err


@pytest.mark.parametrize("n, k, code, message", [
    (1, 13, 2, "need n >= 2"), (7, 7, 3, "capped at n = 6")])
def test_verify_numeric_n_range_comes_before_eigenforms(capsys, monkeypatch, n, k, code, message):
    # S_14 is zero-dimensional, so building f at k = 7 or g at n + k = 14
    # would exit 3 for that; the identity's n range is checked first
    def refuse(*args, **kwargs):
        raise AssertionError("an eigenform was built outside the identity's n range")

    monkeypatch.setattr(cli, "eigenform", refuse)
    got, out, err = run(capsys, "verify", "--identity", "main_theorem", "--n", str(n),
                        "--k", str(k), "--mode", "numeric", "--prime", "2")
    assert (got, out) == (code, "") and message in err


@pytest.mark.parametrize("n, k, s, code, message", [
    (1, 11, "25", 2, "need n >= 2"), (1, 13, "25", 2, "need n >= 2"),
    (0, 12, "25", 2, "need n >= 2"), (13, 11, "400", 3, "cap is 12")])
def test_lvalue_side_comes_before_eigenforms(capsys, monkeypatch, n, k, s, code, message):
    # S_14 is zero-dimensional and S_24 has irrational eigenvalues, so
    # building g would exit 3 for that; the side's n and genus checks
    # come first, as in euler
    def refuse(*args, **kwargs):
        raise AssertionError("an eigenform was built for a side that cannot be built")

    monkeypatch.setattr(cli, "eigenform", refuse)
    got, out, err = run(capsys, "lvalue", "--side", "lhs", "--n", str(n), "--k", str(k),
                        "--s", s, "--prime", "2")
    assert (got, out) == (code, "") and message in err


def test_euler_numeric_ikeda_without_g(capsys):
    # ikeda identities involve only f; here k+n = 8 has no cusp forms at all,
    # which must not matter since g never enters
    code, out, _ = run(capsys, "euler", "--identity", "ikeda_standard",
                       "--side", "lhs", "--n", "2", "--k", "6",
                       "--mode", "numeric", "--prime", "2", "--precision", "20")
    assert code == 0
    assert json.loads(out)["degree"] == 9


def test_verify_genus_cap_exit3(capsys):
    code, _, err = run(capsys, "verify", "--identity", "main_theorem", "--n", "9")
    assert code == 3


def test_usage_error_unknown_flag():
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--bogus"])
    assert exc.value.code == 2


def test_output_file(capsys, tmp_path):
    target = tmp_path / "out.json"
    code, out, _ = run(capsys, "beta-table", "--n", "1", "--output", str(target))
    assert code == 0 and out == ""
    assert json.loads(target.read_text())["n"] == 1


def test_streamed_output_file_matches_stdout(capsys, tmp_path):
    argv = ["euler", "--identity", "main_theorem", "--side", "lhs", "--n", "3", "--k", "10"]
    code, out, _ = run(capsys, *argv)
    assert code == 0 and json.loads(out)["degree"] == 32
    target = tmp_path / "out.json"
    code, out_to_file, _ = run(capsys, *argv, "--output", str(target))
    assert code == 0 and out_to_file == ""
    assert target.read_bytes() == out.encode("utf-8")


def test_expansion_cap_leaves_no_output_file(capsys, tmp_path):
    target = tmp_path / "out.json"
    code, out, err = run(capsys, "euler", "--identity", "main_theorem", "--side", "lhs",
                         "--n", "4", "--k", "10", "--output", str(target))
    assert code == 3 and out == "" and "expansion cap" in err
    assert not target.exists()


def test_env_defaults_and_flag_precedence(capsys, monkeypatch):
    monkeypatch.setenv("LIFTSPIN_FORMAT", "text")
    monkeypatch.setenv("LIFTSPIN_N", "1")
    code, out, _ = run(capsys, "beta-table")
    assert code == 0 and out.startswith("# n = 1")
    # explicit flag beats the environment
    code, out, _ = run(capsys, "beta-table", "--n", "2", "--format", "json")
    assert code == 0 and json.loads(out)["n"] == 2


@pytest.mark.parametrize("var,value,argv", [
    ("LIFTSPIN_N", "abc", ["beta-table"]),
    ("LIFTSPIN_MODE", "bogus", ["verify", "--identity", "main_theorem"]),
    ("LIFTSPIN_FORMAT", "yaml", ["beta-table"]),
])
def test_env_values_are_checked_like_flags(capsys, monkeypatch, var, value, argv):
    # a bad value is a usage error, not a traceback or a silent fallback
    monkeypatch.setenv(var, value)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    out = capsys.readouterr()
    assert exc.value.code == 2 and out.out == "" and repr(value) in out.err


def test_json_byte_stability(capsys):
    outs = []
    for _ in range(2):
        code, out, _ = run(capsys, "euler", "--identity", "main_theorem",
                           "--side", "rhs", "--n", "2", "--k", "4")
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]


# -- golden output: q-expansion changes must not move a single byte ------------

GOLDEN_RUNS = {
    "eigenvalues_w12_text.txt": ["eigenvalues", "--weight", "12", "--primes-up-to", "20",
                                 "--format", "text"],
    "lvalue_lhs.json": ["lvalue", "--side", "lhs", "--n", "2", "--k", "10", "--s", "25",
                        "--primes-up-to", "100"],
    "lvalue_rhs.json": ["lvalue", "--side", "rhs", "--n", "2", "--k", "10", "--s", "25",
                        "--primes-up-to", "100"],
    "verify_main_theorem_numeric.json": ["verify", "--identity", "main_theorem", "--n", "2",
                                         "--k", "10", "--mode", "numeric",
                                         "--primes-up-to", "199"],
    "verify_ikeda_standard_numeric.json": ["verify", "--identity", "ikeda_standard",
                                           "--n", "2", "--k", "10", "--mode", "numeric",
                                           "--primes-up-to", "199"],
    "euler_main_theorem_numeric_p97.json": ["euler", "--identity", "main_theorem",
                                            "--side", "lhs", "--n", "2", "--k", "10",
                                            "--mode", "numeric", "--prime", "97"],
}
GOLDEN_RUNS.update({f"eigenvalues_w{w}.json": ["eigenvalues", "--weight", str(w),
                                               "--primes-up-to", "199"]
                    for w in (12, 16, 18, 20, 22, 26)})


@pytest.mark.parametrize("name", sorted(GOLDEN_RUNS))
def test_golden_output(capsys, name):
    code, out, _ = run(capsys, *GOLDEN_RUNS[name])
    assert code == 0
    assert out == (GOLDEN / name).read_text(encoding="utf-8")


# -- Deligne's bound at the input boundary -----------------------------------------

@pytest.fixture(scope="module")
def tables(tmp_path_factory):
    """Genuine eigenvalue tables of weights 12 and 20 for every p <= 199."""
    root = tmp_path_factory.mktemp("tables")
    paths = {}
    for weight in (12, 20):
        coeffs = eigenform(weight).qexp.coeffs
        paths[weight] = root / f"w{weight}.txt"
        paths[weight].write_text("".join(f"{p} {coeffs[p]}\n" for p in primes_up_to(199)))
    return paths


@pytest.mark.parametrize("primes", [["--prime", "2"], ["--primes-up-to", "199"]])
def test_verify_swapped_tables_exit3(capsys, tables, primes):
    # weight-12 data as f (weight 20) and weight-20 data as g (weight 12)
    code, out, err = run(capsys, "verify", "--identity", "main_theorem", "--n", "2",
                         "--k", "10", "--mode", "numeric", *primes,
                         "--eigenvalues-file", f"f={tables[12]}",
                         "--eigenvalues-file", f"g={tables[20]}")
    assert code == 3 and out == ""
    # f comes first: tau(2) = -24 breaks the weight-20 congruence (before
    # that check, g's 456 broke Deligne's bound for weight 12)
    assert "lambda(2) = -24 is not 1 + 2^19 mod 174611" in err


def test_verify_genuine_tables_pass_every_prime(capsys, tables):
    code, out, _ = run(capsys, "verify", "--identity", "main_theorem", "--n", "2",
                       "--k", "10", "--mode", "numeric", "--primes-up-to", "199",
                       "--eigenvalues-file", f"f={tables[20]}",
                       "--eigenvalues-file", f"g={tables[12]}")
    assert code == 0
    data = json.loads(out)
    assert len(data) == 46 and all(e["verdict"] == "pass" for e in data)


def test_euler_and_lvalue_swapped_tables_exit3(capsys, tables):
    swapped = ["--n", "2", "--k", "10", "--eigenvalues-file", f"f={tables[12]}",
               "--eigenvalues-file", f"g={tables[20]}"]
    code, _, err = run(capsys, "euler", "--identity", "main_theorem", "--side", "lhs",
                       "--mode", "numeric", "--prime", "3", *swapped)
    assert code == 3 and "lambda(3) = 252 is not 1 + 3^19 mod 174611" in err
    code, _, err = run(capsys, "lvalue", "--side", "rhs", "--s", "25",
                       "--primes-up-to", "199", *swapped)
    assert code == 3 and "lambda(2) = -24 is not 1 + 2^19 mod 174611" in err


def test_non_integral_table_eigenvalue_exit3(capsys, tables, tmp_path):
    # tau(3) = 252 replaced by 505/2: inside Deligne's bound, not an integer
    g = tmp_path / "g.txt"
    g.write_text(tables[12].read_text().replace("\n3 252\n", "\n3 505/2\n"))
    shared = ["--n", "2", "--k", "10", "--eigenvalues-file", f"f={tables[20]}",
              "--eigenvalues-file", f"g={g}"]
    for argv in (["verify", "--identity", "main_theorem", "--numeric", "--primes-up-to", "199"],
                 ["euler", "--identity", "main_theorem", "--side", "lhs",
                  "--mode", "numeric", "--prime", "3"],
                 ["lvalue", "--side", "rhs", "--s", "25", "--primes-up-to", "199"]):
        code, out, err = run(capsys, *argv, *shared)
        assert code == 3 and out == ""
        assert "lambda(3) = 505/2 is not an integer" in err
    # the same value written as an integer quotient passes
    g.write_text(tables[12].read_text().replace("\n3 252\n", "\n3 504/2\n"))
    code, out, _ = run(capsys, "verify", "--identity", "main_theorem", "--numeric",
                       "--primes-up-to", "199", *shared)
    assert code == 0 and len(json.loads(out)) == 46


@pytest.mark.parametrize("table, message", [("half_p3.txt", "lambda(3) = 505/2 is not an integer"),
                                            ("huge_p3.txt", "lambda(3) = 99999999 violates")])
def test_eigenvalues_checks_what_it_prints_exit3(capsys, table, message):
    # the values every numeric run rejects are not printed either
    code, out, err = run(capsys, "eigenvalues", "--weight", "12", "--prime", "3",
                         "--eigenvalues-file", str(GOLDEN / table))
    assert code == 3 and out == "" and message in err


def test_a_wrong_delta_stops_at_the_eigenvalue_check_exit3(capsys, monkeypatch):
    # Delta's coefficients are not checked where they are built; a wrong one
    # is refused where every eigenvalue is read, by the congruence mod 691
    from liftspin import qexp
    from liftspin.errors import EisensteinCongruenceViolation

    real_delta = qexp._delta

    def wrong_delta(precision):
        coeffs = list(real_delta(precision).coeffs)
        coeffs[2] += 1  # tau(2) = -23
        return qexp.QExpansion(12, coeffs)

    monkeypatch.setattr(qexp, "_delta", wrong_delta)
    form = eigenform(12, 20)
    assert form.qexp.coeffs[2] == -23
    with pytest.raises(EisensteinCongruenceViolation, match="lambda\\(2\\) = -23 is not"):
        qexp.hecke_eigenvalue(form, 2)
    code, out, err = run(capsys, "eigenvalues", "--weight", "12", "--prime", "2")
    assert code == 3 and out == ""
    assert "lambda(2) = -23 is not 1 + 2^11 mod 691" in err


def test_roots_past_double_range_exit3(capsys, tmp_path):
    # q^135 at p = 999983 is past double range: exit 3 naming the prime; each
    # table value is the one residue the Eisenstein congruence of its weight
    # allows (a table of zeros breaks it and exits 3 before the roots)
    shared = ["--n", "6", "--k", "10", "--prime", "999983"]
    for role, weight, modulus in (("f", 20, 174611), ("g", 16, 3617)):
        path = tmp_path / f"{role}.txt"
        path.write_text(f"999983 {(1 + pow(999983, weight - 1, modulus)) % modulus}\n")
        shared += ["--eigenvalues-file", f"{role}={path}"]
    for argv in (["euler", "--identity", "main_theorem", "--side", "lhs",
                  "--mode", "numeric", "--factored"],
                 ["lvalue", "--side", "lhs", "--s", "200"]):
        code, out, err = run(capsys, *argv, *shared)
        assert code == 3 and out == ""
        assert "leaves double range at p = 999983" in err


@pytest.mark.parametrize("identity, n, k, p", [
    ("example_deg5", 3, 9, 3), ("example_deg5", 3, 9, 199),
    ("ikeda_spinor", 3, 9, 2), ("example_deg7", 4, 8, 2)])
def test_coefficients_past_double_range_exit3(capsys, identity, n, k, p):
    # every root is finite but an expanded coefficient is not: exit 3 before
    # any output, not NaN or Infinity; the factored roots still print
    argv = ["euler", "--identity", identity, "--side", "lhs", "--n", str(n),
            "--k", str(k), "--mode", "numeric", "--prime", str(p)]
    code, out, err = run(capsys, *argv)
    assert code == 3 and out == ""
    assert "factor leaves double range; use the factored form instead" in err
    code, out, _ = run(capsys, *argv, "--factored")
    assert code == 0 and "NaN" not in out and "Infinity" not in out


def test_numeric_verify_builds_the_sides_once(capsys, tables, monkeypatch):
    built = []
    rhs = identities.main_theorem_rhs
    monkeypatch.setattr(identities, "main_theorem_rhs",
                        lambda n, k, **hooks: built.append((n, k)) or rhs(n, k, **hooks))
    code, out, _ = run(capsys, "verify", "--identity", "main_theorem", "--n", "2",
                       "--k", "10", "--mode", "numeric", "--primes-up-to", "30",
                       "--eigenvalues-file", f"f={tables[20]}",
                       "--eigenvalues-file", f"g={tables[12]}")
    assert code == 0
    assert [e["parameters"]["prime"] for e in json.loads(out)] == primes_up_to(30)
    assert built == [(2, 10)]


# -- caps on the size flags ------------------------------------------------------------

@pytest.mark.parametrize("flag,env,cap", [
    ("--n", "LIFTSPIN_N", MAX_N),
    pytest.param("--k", "LIFTSPIN_K", MAX_K, id="--k-LIFTSPIN_K-10^300"),
    ("--precision", "LIFTSPIN_PRECISION", MAX_PRECISION),
    ("--primes-up-to", "LIFTSPIN_PRIMES_UP_TO", MAX_PRIMES_UP_TO),
    ("--prime", "LIFTSPIN_PRIME", MAX_PRIMES_UP_TO),
])
def test_size_flag_caps(capsys, monkeypatch, flag, env, cap):
    # beta-table runs at the default n unless the row under test sets it, so
    # no fixed --n can override the --n flag or LIFTSPIN_N
    code, _, _ = run(capsys, "beta-table", flag, str(cap))
    assert code == 0
    code, _, err = run(capsys, "beta-table", flag, str(cap + 1))
    assert code == 3 and f"{flag} {cap + 1} exceeds the cap {cap}" in err
    monkeypatch.setenv(env, str(cap))
    code, _, _ = run(capsys, "beta-table")
    assert code == 0
    monkeypatch.setenv(env, str(cap + 1))
    code, _, err = run(capsys, "beta-table")
    assert code == 3 and "exceeds the cap" in err


#: each command with its required flags filled
_REQUIRED = {
    "eigenvalues": ["--weight", "12"],
    "euler": ["--identity", "main_theorem", "--side", "lhs"],
    "beta-table": [],
    "lvalue": ["--side", "lhs", "--s", "25"],
    "verify": [],
}


@pytest.mark.parametrize("command, flag", [
    (command, name) for command in cli.COMMANDS
    for name, (kind, _, _) in cli._flags(command).items() if kind is int])
@pytest.mark.parametrize("value", [10 ** 400, -(10 ** 400)], ids=["+10^400", "-10^400"])
def test_huge_int_flags_exit_cleanly(capsys, command, flag, value):
    # ints past double range, caps or none, end in an exit code the CLI
    # documents, never a traceback, and a refusal writes nothing first
    code, out, _ = run(capsys, command, *_REQUIRED[command], f"--{flag}={value}")
    assert code in (0, 2, 3)
    assert code == 0 or out == ""


def test_precision_at_cap_runs_eigenvalues(capsys, tables):
    code, out, _ = run(capsys, "eigenvalues", "--weight", "12", "--prime", "2",
                       "--precision", str(MAX_PRECISION),
                       "--eigenvalues-file", str(tables[12]))
    assert code == 0 and json.loads(out)["eigenvalues"] == [{"p": 2, "lambda": "-24"}]


_NUMERIC = ("--n", "2", "--k", "10", "--mode", "numeric")


@pytest.mark.parametrize("argv, code, built", [
    (("eigenvalues", "--weight", "12", "--prime", "7"), 0, [(12, 7)]),
    (("eigenvalues", "--weight", "12", "--prime", "1"), 3, [(12, 1)]),
    (("eigenvalues", "--weight", "12", "--primes-up-to", "30", "--precision", "20"),
     3, [(12, 20)]),
    (("lvalue", "--side", "lhs", "--s", "25", "--primes-up-to", "100", "--n", "2", "--k", "10"),
     0, [(20, 97), (12, 97)]),
    (("verify", "--identity", "main_theorem") + _NUMERIC, 0, [(20, 2), (12, 2)]),
    (("verify", "--all") + _NUMERIC, 0, [(20, 11), (12, 11)]),
    (("verify", "--all", "--precision", "5") + _NUMERIC, 3, [(20, 5), (12, 5)]),
])
def test_forms_stop_at_the_largest_prime_read(capsys, monkeypatch, argv, code, built):
    # the largest prime read (--prime, the last prime up to --primes-up-to,
    # or the last verify default: 11 for the suite, 2 otherwise) bounds the
    # q-expansions below --precision; a prime past --precision is still
    # refused naming --precision
    calls = []
    real_eigenform = cli.eigenform

    def recording(weight, precision, table=None):
        calls.append((weight, precision))
        return real_eigenform(weight, precision, table)

    monkeypatch.setattr(cli, "eigenform", recording)
    result, _, err = run(capsys, *argv)
    assert (result, calls) == (code, built)
    if "--precision" in argv and code == 3:
        assert f"q-expansion precision {argv[argv.index('--precision') + 1]}" in err


def test_duplicate_table_prime_exit2(capsys, tmp_path):
    table = tmp_path / "t.txt"
    table.write_text("2 -24\n2 456\n")
    code, out, err = run(capsys, "eigenvalues", "--weight", "12", "--prime", "2",
                         "--eigenvalues-file", str(table))
    assert code == 2 and out == "" and "t.txt:2: duplicate prime 2" in err


@pytest.mark.parametrize("value,message", [("1/0", "t.txt:2: expected '<num>[/<den>]'"),
                                           ("0.5", "t.txt:2: expected '<num>[/<den>]'"),
                                           ("1e10000000", "t.txt:2: expected")])
def test_malformed_table_value_exit2(capsys, tmp_path, value, message):
    # a usage error, not the verification-failure exit 1 or a long Fraction parse
    table = tmp_path / "t.txt"
    table.write_text(f"3 252\n2 {value}\n")
    code, out, err = run(capsys, "eigenvalues", "--weight", "12", "--prime", "2",
                         "--eigenvalues-file", str(table))
    assert code == 2 and out == "" and message in err


def test_table_prime_outside_ascii_digits_exit2(capsys, tmp_path):
    # "1_9" and Arabic-Indic digits both pass int(), neither loads as p = 19
    table = tmp_path / "t.txt"
    table.write_text("2 -24\n\u0661\u0669 5\n", encoding="utf-8")
    code, out, err = run(capsys, "eigenvalues", "--weight", "12", "--prime", "19",
                         "--eigenvalues-file", str(table))
    assert code == 2 and out == "" and "t.txt:2: expected the prime" in err


def test_identity_choices_come_from_the_registry():
    from liftspin import identities
    from liftspin.cli import COMMANDS

    choices = {name: COMMANDS[name][2]["identity"][0] for name in ("euler", "verify")}
    assert tuple(choices["euler"]) == tuple(
        name for name, i in identities.IDENTITIES.items() if i.sides is not None)
    assert tuple(choices["euler"]) == ("main_theorem", "ikeda_spinor", "ikeda_standard",
                                       "miyawaki_standard", "example_deg3", "example_deg5",
                                       "example_deg7")
    assert tuple(choices["verify"]) == identities.IDENTITY_IDS + ("all",)


def test_euler_bare_table_only_for_one_form(capsys, tmp_path):
    table = tmp_path / "t.txt"
    table.write_text("2 456\n")
    numeric = ["--n", "2", "--k", "10", "--mode", "numeric", "--prime", "2",
               "--eigenvalues-file", str(table)]
    # f and g both enter the main identity: an untagged table is ambiguous
    code, _, err = run(capsys, "euler", "--identity", "main_theorem", "--side", "lhs",
                       *numeric)
    assert code == 2 and "f=PATH" in err
    code, out, _ = run(capsys, "euler", "--identity", "ikeda_standard", "--side", "lhs",
                       *numeric)
    assert code == 0 and json.loads(out)["degree"] == 9


def test_symbolic_suite_needs_only_the_standard_library():
    # -I ignores PYTHON* variables and the user site, -S skips site-packages:
    # only the standard library and src/ can be imported
    src = Path(__file__).resolve().parent.parent / "src"
    script = ("import sys; sys.path.insert(0, sys.argv[1]); import liftspin.cli; "
              "sys.exit(liftspin.cli.main(['verify', '--all', '--symbolic']))")
    proc = subprocess.run([sys.executable, "-I", "-S", "-c", script, str(src)],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    reports = json.loads(proc.stdout)
    assert len(reports) == sum(len(i.grid) for i in identities.IDENTITIES.values())
    assert all(r["verdict"] == "pass" for r in reports)


def test_cli_runs_load_no_argparse():
    # the flag table is parsed without argparse, whose import and parser set-up
    # took longer than the work of most commands
    src = Path(__file__).resolve().parent.parent / "src"
    script = """if True:
        import contextlib, io, sys
        sys.path.insert(0, sys.argv[1])
        import liftspin.cli
        codes = []
        for argv in sys.argv[2:]:
            with contextlib.redirect_stdout(io.StringIO()), \\
                    contextlib.redirect_stderr(io.StringIO()):
                try:
                    codes.append(liftspin.cli.main(argv.split()))
                except SystemExit as exc:
                    codes.append(exc.code)
        print(codes, sorted({"argparse", "gettext"} & set(sys.modules)))
    """
    argvs = ["eigenvalues --weight 12 --prime 2", "euler --identity main_theorem --side lhs",
             "beta-table --n 3", "lvalue --side lhs --s 25 --prime 2",
             "verify --identity main_theorem", "verify -h", "verify --bogus"]
    proc = subprocess.run([sys.executable, "-I", "-S", "-c", script, str(src), *argvs],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n") == ["[0, 0, 0, 0, 0, 0, 2] []", ""]


def test_index_error_is_not_a_usage_error(capsys, monkeypatch):
    # no input error is an IndexError, so one is a defect and keeps its traceback
    def broken(args):
        raise IndexError("a defect")

    handler, help_line, flags = cli.COMMANDS["beta-table"]
    monkeypatch.setitem(cli.COMMANDS, "beta-table", (broken, help_line, flags))
    with pytest.raises(IndexError, match="a defect"):
        main(["beta-table"])


@pytest.mark.parametrize("flag", ["-h", "--help"])
@pytest.mark.parametrize("command", [None, "eigenvalues", "euler", "beta-table", "lvalue",
                                     "verify"])
def test_help_names_every_command_and_flag(capsys, command, flag):
    with pytest.raises(SystemExit) as exc:
        main([flag] if command is None else [command, flag])
    out = capsys.readouterr()
    assert exc.value.code == 0 and out.err == ""
    words = set(out.out.split())
    if command is None:
        assert set(cli.COMMANDS) <= words
    else:
        assert {f"--{name}" for name in cli._flags(command)} <= words


# -- numeric verify refuses what numeric euler and lvalue refuse -----------------

def _tables(f=None, g=None):
    """Genuine weight-20 (f) and weight-12 (g) tables at the primes up to 13,
    with the entries of `f` and `g` replaced (a value of None drops the line)."""
    out = {}
    for role, weight, changes in (("f", 20, f or {}), ("g", 12, g or {})):
        coeffs = eigenform(weight, 20).qexp.coeffs
        lines = {p: str(coeffs[p]) for p in primes_up_to(13)}
        lines.update(changes)
        out[role] = "".join(f"{p} {lam}\n" for p, lam in lines.items() if lam is not None)
    return out


_BAD_DATA = {
    # 10^6 at p = 3 is far outside 2 3^(11/2), about 842, at weight 12
    "deligne_bound": (_tables(g={3: "1000000"}), "violates Deligne's bound"),
    # tau(7) + 1 lies inside the bound and breaks Ramanujan's congruence
    "eisenstein_congruence": (_tables(g={7: str(-16744 + 1)}), "is not 1 + 7^11 mod 691"),
    "missing_prime": (_tables(f={5: None}), "no entry for p=5"),
    "non_prime_entry": (_tables(g={9: "5"}), "9 is not prime"),
    "non_integral_value": (_tables(f={3: "1/2"}), "lambda(3) = 1/2 is not an integer"),
}


@pytest.mark.parametrize("case", [*_BAD_DATA, "swapped_tables", "g_of_the_wrong_weight"])
def test_numeric_verify_refuses_what_euler_and_lvalue_refuse(capsys, tmp_path, case):
    # verify reads the data at each prime as euler and lvalue do, and computes
    # no roots: each bad table is refused by all three with the same exit
    # code and the same message
    if case == "swapped_tables":
        tables, message = _tables(), "mod 174611"
        tables = {"f": tables["g"], "g": tables["f"]}
    elif case == "g_of_the_wrong_weight":
        coeffs = eigenform(16, 20).qexp.coeffs
        tables = {**_tables(), "g": "".join(f"{p} {coeffs[p]}\n" for p in primes_up_to(13))}
        message = "lambda(2) = 216 violates Deligne's bound"
    else:
        tables, message = _BAD_DATA[case]
    flags = ["--n", "2", "--k", "10", "--mode", "numeric"]
    for role, text in tables.items():
        (tmp_path / f"{role}.txt").write_text(text)
        flags += ["--eigenvalues-file", f"{role}={tmp_path / role}.txt"]
    prime = {"deligne_bound": "3", "eisenstein_congruence": "7", "missing_prime": "5"}
    runs = [
        ["verify", "--identity", "main_theorem", "--primes-up-to", "13"],
        ["euler", "--identity", "main_theorem", "--side", "lhs", "--prime",
         prime.get(case, "2")],
        ["lvalue", "--side", "rhs", "--s", "25", "--primes-up-to", "13"],
    ]
    results = {run(capsys, *argv, *flags)[::2] for argv in runs}
    assert len(results) == 1, results
    ((code, err),) = results
    assert code == 3 and message in err, err


def test_satake_values_refuses_g_of_the_wrong_weight(f20):
    # what the CLI cannot pass: g built at another weight than k + n
    g16 = eigenform(16)
    with pytest.raises(ValueError, match="g has weight 16, expected 12"):
        identities.satake_values(f20, g16, 2, 10, 2)
    with pytest.raises(ValueError, match="g has weight 16, expected 12"):
        identities.verify("main_theorem", 2, 10, mode="numeric", prime=2, f=f20, g=g16)
