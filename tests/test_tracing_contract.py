"""The benchmark's tracer (perfbench/tracing.py) finds liftspin's layers by
module and attribute name from outside the package, so renaming or deleting
one of them breaks every traced benchmark run while the rest of the suite
passes.  Install it in a fresh interpreter, run five CLI commands through
`cli.main` and read the metrics back."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = """
import io, json, sys
from contextlib import redirect_stdout
sys.path[:0] = sys.argv[1:3]
import tracing
tracer = tracing.install()
import liftspin.cli
codes = []
for argv in (["verify", "--identity", "c1_frobenius", "--n", "3"],
             ["euler", "--identity", "main_theorem", "--side", "lhs", "--n", "2"],
             ["eigenvalues", "--weight", "20", "--prime", "2", "--precision", "20"],
             ["lvalue", "--side", "lhs", "--n", "2", "--k", "10", "--s", "25",
              "--primes-up-to", "20"],
             ["verify", "--identity", "main_theorem", "--n", "2", "--k", "10",
              "--mode", "numeric", "--primes-up-to", "5"]):
    with redirect_stdout(io.StringIO()):
        codes.append(liftspin.cli.main(argv))
print(json.dumps({"codes": codes, "metrics": tracer.metrics()}))
"""


def test_tracer_installs_and_reports_the_layers():
    proc = subprocess.run([sys.executable, "-I", "-c", SCRIPT, str(ROOT / "src"),
                           str(ROOT / "perfbench")],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["codes"] == [0, 0, 0, 0, 0]
    metrics = result["metrics"]
    assert metrics["euler.expanded_terms"] > 0
    # one report per prime of the numeric verify, after the symbolic one
    assert metrics["identities.verdicts"] == 4
    # the eigenvalue data are read at every prime: 8 for lvalue, 3 for verify
    assert metrics["identities.primes_checked"] == 11
    # the hook on SatakeParams.__init__, which a class without its own
    # __init__ (a plain NamedTuple) would leave unwrapped at 0
    assert metrics["satake.param_sets"] > 0
    assert metrics["euler.factors_built"] > 0
    # the widest factor built is the degree-8 spinor factor at n = 2
    assert metrics["euler.max_degree"] == 8
    # the eigenform's series products and its own time are booked under qexp
    assert metrics["qexp.series_mul_calls"] > 0
    assert metrics["qexp.eigenforms_s"] > 0
    # lvalue takes the roots at every prime through LocalFactor.instantiate
    assert metrics["euler.instantiations"] > 0
