"""The CLI's flag table parses every argv as the argparse parser it
replaced (`oracles.build_parser`) does: the same namespace, or the same
SystemExit code.  And `verify` writes any list of reports, with or without
witnesses, as json.dumps writes the list of their dicts."""

import io
import json
from contextlib import redirect_stderr, redirect_stdout
from unittest import mock

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from liftspin import cli  # noqa: E402
from liftspin.identities import VerificationReport  # noqa: E402
from oracles import build_parser  # noqa: E402

_ORACLE = build_parser()
_NAMES = sorted({name for _, _, own in cli.COMMANDS.values() for name in own}
                | set(cli._SHARED) | {"help"})


@st.composite
def _options(draw):
    """A flag of any command, whole or cut to a prefix, maybe with '=value'."""
    name = draw(st.sampled_from(_NAMES))
    name = name[:draw(st.integers(0, len(name)))] if draw(st.booleans()) else name
    suffix = draw(st.sampled_from(["", "", "=", "=2", "=-3", "=abc", "=main_theorem"]))
    return f"--{name}{suffix}"


_VALUES = st.sampled_from([
    "2", "10", "0", "33", "-3", "-0.5", "-.5", "1.5", "1e3", "abc", "", "x y", "25+2j",
    "main_theorem", "ikeda_spinor", "all", "bogus", "lhs", "rhs", "json", "text", "yaml",
    "symbolic", "numeric", "f=t.txt", "stray", "-", "--", "-x", "-3x", "-x y", "--n 2",
    "-h", "--help", "--he", "-hh", "-hx", "-h=h", "-h=",
])
_TOKENS = st.one_of(_options(), _VALUES, _VALUES, st.text("-=hn2 ", max_size=4))
_COMMANDS = st.sampled_from(list(cli.COMMANDS))


def _value(kind):
    if isinstance(kind, tuple):
        return st.sampled_from(kind)
    if kind is int:
        return st.integers(-40, 40).map(str)
    return st.sampled_from(["25", "-1", "f=t.txt", "x y", "25+2j", "-1+2j", "-1 +2j"])


@st.composite
def _flag_runs(draw):
    """A command and its flags, the required ones among them, each whole or
    cut to a prefix, with a value of its kind: mostly argvs that parse."""
    command = draw(_COMMANDS)
    flags = cli._flags(command)
    names = [name for name, (_, default, _) in flags.items() if default is cli.REQUIRED]
    names = draw(st.permutations(names + draw(st.lists(st.sampled_from(list(flags)),
                                                          max_size=5))))
    argv = [command]
    for name in names:
        kind = flags[name][0]
        flag = "--" + (name if draw(st.booleans()) else name[:draw(st.integers(1, len(name)))])
        if kind in (cli.SWITCH, cli.MODE):
            argv.append(flag)
        elif draw(st.booleans()):
            argv.append(f"{flag}={draw(_value(kind))}")
        else:
            argv += [flag, draw(_value(kind))]
    return argv


@st.composite
def _argvs(draw):
    argv = draw(st.one_of(
        _flag_runs(),
        st.tuples(_COMMANDS, st.lists(_TOKENS, max_size=8)).map(lambda t: [t[0], *t[1]]),
        # no command, or options in front of it
        st.lists(st.one_of(_TOKENS, _COMMANDS), max_size=4),
    ))
    # a few strays, missing values, repeats, -h and the like anywhere
    for token in draw(st.lists(_TOKENS, max_size=2)):
        argv.insert(draw(st.integers(0, len(argv))), token)
    return argv


def _outcome(parse, argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            result = vars(parse(argv))
        except SystemExit as exc:
            # usage errors write no stdout, help writes no stderr
            assert not (out.getvalue() if exc.code else err.getvalue())
            return "exit", exc.code
    return "parsed", result


@settings(max_examples=1000, deadline=None)
@given(st.one_of(_flag_runs(), _argvs()))
@example(["verify", "--neg", "--wit", "--n", "2"])
@example(["verify", "--identity=main_theorem", "--n=2", "--k=10"])
@example(["verify", "--identity", "main_theorem", "--n", "2", "--k", "-3"])
@example(["euler", "--identity", "main_theorem", "--side", "lhs", "--f"])
@example(["euler", "-h", "--f"])
@example(["beta-table", "--n", "2", "stray"])
@example(["verify", "--symbolic", "--numeric", "-h"])
@example(["verify", "-h", "--symbolic", "--numeric"])
@example(["verify", "--symbolic", "--symbolic"])
@example(["verify", "--eigenvalues-file", "a", "--eig", "g=b", "--n", "3", "--n", "4"])
@example(["verify", "--n", "--", "3"])
@example(["verify", "--n", "3", "--"])
@example(["verify", "--output", "--"])
@example(["verify", "--all", "--", "--k", "2"])
@example(["lvalue", "--side", "lhs", "--s", "-1"])
@example(["lvalue", "--side", "lhs", "--s=-1+2j"])
@example(["--bogus", "verify", "-h"])
@example(["--he"])
@example(["--help=x", "verify"])
@example([])
def test_parse_args_matches_argparse(argv):
    assert _outcome(cli.parse_args, argv) == _outcome(_ORACLE.parse_args, argv)


# -- verify's report list through one template ----------------------------------

_text = st.one_of(st.sampled_from(["", "main_theorem", "\"", "\n", "é", "%s"]),
                  st.text(max_size=6))
_json = st.recursive(st.one_of(st.none(), st.booleans(), st.integers(), _text),
                     lambda inner: st.one_of(st.lists(inner, max_size=3),
                                             st.dictionaries(_text, inner, max_size=3)),
                     max_leaves=8)
# the parameters in the one order verify_at_primes writes them
_parameters = st.tuples(st.integers(-3, 40), st.one_of(st.none(), st.integers()),
                        st.sampled_from(["symbolic", "numeric"]),
                        st.one_of(st.none(), st.integers(2, 10 ** 6)))
_reports = st.builds(
    VerificationReport, _text,
    _parameters.map(lambda values: dict(zip(("n", "k", "mode", "prime"), values))),
    st.sampled_from(["pass", "fail"]),
    st.one_of(st.none(), st.dictionaries(_text, _json, min_size=1, max_size=3)))


@settings(max_examples=200, deadline=None)
@given(st.lists(_reports, min_size=1, max_size=6), st.booleans())
def test_verify_writes_report_lists_as_json_dumps(reports, witness):
    # each report as the dict the list holds, its witness key only with --witness
    expected = [{"identity": r.identity_id, "parameters": r.parameters, "verdict": r.verdict,
                 **({"witness": r.witness} if witness else {})} for r in reports]
    out = io.StringIO()
    with mock.patch.object(cli, "_verify_reports", lambda args: reports), redirect_stdout(out):
        code = cli.main(["verify"] + ["--witness"] * witness)
    assert out.getvalue() == json.dumps(expected, indent=2) + "\n"
    assert code == (0 if all(r.verdict == "pass" for r in reports) else 1)


_PARAMETER_NAMES = ("n", "k", "mode", "prime")


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(_reports, st.permutations(_PARAMETER_NAMES)), min_size=1, max_size=6))
@example([(VerificationReport("x", {"n": 2, "k": 10, "mode": "symbolic", "prime": None}, "pass"),
           _PARAMETER_NAMES),
          (VerificationReport("y", {"n": 3, "k": 4, "mode": "numeric", "prime": 5}, "fail"),
           _PARAMETER_NAMES[::-1])])
def test_verify_reads_report_parameters_by_name(drawn):
    # each report's parameters in a key order of its own: every report is
    # written under the first report's keys, each value under its own name
    reports = [VerificationReport(r.identity_id, {key: r.parameters[key] for key in order},
                                  r.verdict, r.witness) for r, order in drawn]
    keys = list(reports[0].parameters)
    expected = [{"identity": r.identity_id, "parameters": {key: r.parameters[key] for key in keys},
                 "verdict": r.verdict} for r in reports]
    out = io.StringIO()
    with mock.patch.object(cli, "_verify_reports", lambda args: reports), redirect_stdout(out):
        cli.main(["verify"])
    assert out.getvalue() == json.dumps(expected, indent=2) + "\n"
