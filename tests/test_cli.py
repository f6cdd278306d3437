import json
from pathlib import Path

import pytest

from liftspin.cli import main
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


def test_eigenvalues_needs_primes(capsys):
    code, _, err = run(capsys, "eigenvalues", "--weight", "12")
    assert code == 2


def test_eigenvalues_from_file(capsys, tmp_path):
    table = tmp_path / "t.txt"
    table.write_text("2 -24\n3 252\n")
    code, out, _ = run(capsys, "eigenvalues", "--weight", "12", "--prime", "3",
                       "--eigenvalues-file", str(table))
    assert code == 0
    assert json.loads(out)["eigenvalues"] == [{"p": 3, "lambda": "252"}]


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
    code, out, _ = run(capsys, "lvalue", "--side", "lhs", "--n", "2", "--k", "10",
                       "--s", "25", "--primes-up-to", "0", "--precision", "10")
    assert code == 0
    data = json.loads(out)
    assert data["value"] == [1.0, 0.0] and data["primes_used"] == 0


def test_lvalue_convergence_region(capsys):
    code, _, err = run(capsys, "lvalue", "--side", "lhs", "--n", "2", "--k", "10",
                       "--s", "16", "--primes-up-to", "10")
    assert code == 3 and "half-plane" in err


def test_lvalue_bad_s_is_usage_error(capsys):
    code, _, err = run(capsys, "lvalue", "--side", "lhs", "--n", "2", "--k", "10",
                       "--s", "banana", "--primes-up-to", "10")
    assert code == 2


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


def test_verify_numeric_unsupported_identity(capsys):
    code, _, err = run(capsys, "verify", "--identity", "c1_frobenius",
                       "--n", "2", "--mode", "numeric", "--prime", "2")
    assert code == 2 and "symbolic mode only" in err


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


def test_env_defaults_and_flag_precedence(capsys, monkeypatch):
    monkeypatch.setenv("LIFTSPIN_FORMAT", "text")
    monkeypatch.setenv("LIFTSPIN_N", "1")
    code, out, _ = run(capsys, "beta-table")
    assert code == 0 and out.startswith("# n = 1")
    # explicit flag beats the environment
    code, out, _ = run(capsys, "beta-table", "--n", "2", "--format", "json")
    assert code == 0 and json.loads(out)["n"] == 2


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
    assert "Deligne" in err and "lambda(2) = 456" in err


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
    assert code == 3 and "Deligne" in err
    code, _, err = run(capsys, "lvalue", "--side", "rhs", "--s", "25",
                       "--primes-up-to", "199", *swapped)
    assert code == 3 and "Deligne" in err


# -- caps on the size flags ------------------------------------------------------------

@pytest.mark.parametrize("flag,env,cap", [
    ("--precision", "LIFTSPIN_PRECISION", MAX_PRECISION),
    ("--primes-up-to", "LIFTSPIN_PRIMES_UP_TO", MAX_PRIMES_UP_TO),
    ("--prime", "LIFTSPIN_PRIME", MAX_PRIMES_UP_TO),
])
def test_size_flag_caps(capsys, monkeypatch, flag, env, cap):
    code, _, _ = run(capsys, "beta-table", "--n", "1", flag, str(cap))
    assert code == 0
    code, _, err = run(capsys, "beta-table", "--n", "1", flag, str(cap + 1))
    assert code == 3 and f"{flag} {cap + 1} exceeds the cap {cap}" in err
    monkeypatch.setenv(env, str(cap))
    code, _, _ = run(capsys, "beta-table", "--n", "1")
    assert code == 0
    monkeypatch.setenv(env, str(cap + 1))
    code, _, err = run(capsys, "beta-table", "--n", "1")
    assert code == 3 and "exceeds the cap" in err


def test_precision_at_cap_runs_eigenvalues(capsys, tables):
    code, out, _ = run(capsys, "eigenvalues", "--weight", "12", "--prime", "2",
                       "--precision", str(MAX_PRECISION),
                       "--eigenvalues-file", str(tables[12]))
    assert code == 0 and json.loads(out)["eigenvalues"] == [{"p": 2, "lambda": "-24"}]


def test_duplicate_table_prime_exit2(capsys, tmp_path):
    table = tmp_path / "t.txt"
    table.write_text("2 -24\n2 456\n")
    code, out, err = run(capsys, "eigenvalues", "--weight", "12", "--prime", "2",
                         "--eigenvalues-file", str(table))
    assert code == 2 and out == "" and "t.txt:2: duplicate prime 2" in err


def test_identity_choices_come_from_the_registry():
    from liftspin import identities
    from liftspin.cli import build_parser

    subparsers = next(a for a in build_parser()._actions if a.dest == "command").choices
    choices = {name: next(a for a in subparsers[name]._actions if a.dest == "identity").choices
               for name in ("euler", "verify")}
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
